"""README's code, run as written, so the public names it shows stay importable."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_quick_start_runs(capsys):
    text = README.read_text()
    (block,) = re.findall(r"## Library quick start\n\n```python\n(.*?)```", text, re.S)
    namespace = {}
    exec(compile(block, "README.md", "exec"), namespace)
    # Its comment reads "exact reference: 1/3, 1.0".
    assert (namespace["ratio"], namespace["total"]) == (1 / 3, 1.0)
    report = namespace["report"]
    fields = (report.l_star, report.h_star, report.value, report.min_ratio_value)
    assert capsys.readouterr().out.split() == list(map(str, fields))
