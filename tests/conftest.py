from collections.abc import Hashable, Mapping, Sequence

import numpy as np
import pytest

from concurflow.netmodel import (
    Commodity,
    Edge,
    Network,
    Path,
    PathMatrix,
    PathSystem,
    infer_traversals,
)

# One line per acceptance criterion, printed in the terminal summary so the
# verdicts are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def reference_layout(
    capacities: Mapping[Hashable, float],
    groups: Sequence[Sequence[Sequence[Hashable]]],
) -> PathMatrix:
    """The former ``PathMatrix.build``, verbatim: the reference for ``GroupedPaths.columns``.

    It lays out the given paths by walking their edge keys, with edges in
    first use along the steps.
    """
    paths = [path for group in groups for path in group]
    keys = [key for path in paths for key in path]
    edges = tuple(dict.fromkeys(keys))
    row_of = {key: row for row, key in enumerate(edges)}
    n = len(paths)
    a = np.zeros((len(edges), n))
    # Assignment, not a sum: a path that repeats an edge counts it once.
    a[[row_of[key] for key in keys], np.repeat(np.arange(n), [len(p) for p in paths])] = 1.0
    g = np.zeros((len(groups), n))
    g[np.repeat(np.arange(len(groups)), [len(group) for group in groups]), np.arange(n)] = 1.0
    caps_arr = np.array([capacities[key] for key in edges], dtype=float)
    for arr in (caps_arr, a, g):
        arr.flags.writeable = False  # shared through PathSystem.matrix
    return PathMatrix(edges, caps_arr, a, g)


def make_network(nodes, edges, commodities):
    """edges: (id, tail, head, cap, directed); commodities: (source, sink, bound)."""
    return Network(
        nodes=tuple(nodes),
        edges=tuple(Edge(*e) for e in edges),
        commodities=tuple(
            Commodity(i, s, t, b) for i, (s, t, b) in enumerate(commodities, start=1)
        ),
    )


def make_system(network, path_edge_ids):
    """path_edge_ids: per commodity, list of edge-id lists (oriented by chaining)."""
    groups = []
    for ci, paths in enumerate(path_edge_ids, start=1):
        source = network.commodities[ci - 1].source
        groups.append(
            tuple(Path(ci, infer_traversals(network, source, ids)) for ids in paths)
        )
    return PathSystem(network, tuple(groups))


def t1_system():
    """One shared directed edge of capacity 1, two commodities with bounds 1 and 2."""
    net = make_network(
        ["s", "t"],
        [("e1", "s", "t", 1.0, True)],
        [("s", "t", 1.0), ("s", "t", 2.0)],
    )
    return make_system(net, [[["e1"]], [["e1"]]])


def t2_system():
    """Two disjoint directed edges, caps 0.5 and 1.0, unit bounds."""
    net = make_network(
        ["s1", "t1", "s2", "t2"],
        [("e1", "s1", "t1", 0.5, True), ("e2", "s2", "t2", 1.0, True)],
        [("s1", "t1", 1.0), ("s2", "t2", 1.0)],
    )
    return make_system(net, [[["e1"]], [["e2"]]])


def t3_system():
    """A single commodity with bound 1 on a slack edge of capacity 2."""
    net = make_network(
        ["s", "t"],
        [("e1", "s", "t", 2.0, True)],
        [("s", "t", 1.0)],
    )
    return make_system(net, [[["e1"]]])


@pytest.fixture
def t1():
    return t1_system()


@pytest.fixture
def t2():
    return t2_system()


@pytest.fixture
def t3():
    return t3_system()
