from collections.abc import Hashable, Mapping, Sequence

import numpy as np
import pytest

from concurflow.generator import GenerationError, generate_instance
from concurflow.netmodel import (
    Commodity,
    Edge,
    GroupedPaths,
    GroupedResult,
    Network,
    PathMatrix,
    PathSystem,
)
from concurflow.oracle import lp_grouped_max
from concurflow.solver import LstarResult, build_auxiliary

# One line per acceptance criterion, printed in the terminal summary so the
# verdicts are visible without -s.
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def edge_groups(system: PathSystem) -> tuple[tuple[tuple[str, ...], ...], ...]:
    """A system's paths as plain edge-id tuples, grouped by commodity."""
    return tuple(tuple(path.edge_ids() for path in group) for group in system.paths)


def compiled(
    capacities: Mapping[Hashable, float], groups: Sequence[Sequence[Sequence[Hashable]]]
) -> tuple[Mapping[Hashable, float], GroupedPaths]:
    """Synthetic key groups as the engines take them: a fresh compile's view and paths."""
    paths = GroupedPaths.build(capacities, groups)
    return paths.capacities, paths


def bits(result: GroupedResult) -> str:
    """Every field of an engine result, exact to the bit: the text of its values."""
    return repr((result.x.tolist(), result.total, result.iterations, result.upper))


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



def aux_at(system, bounds, l_star: int, eta: float):
    """The auxiliary network of an outer search that stopped at ``l_star``.

    Its last pass, at level ``l_star - 1``, is the exact engine's; there is
    none at ``l_star == 1``.
    """
    last = None
    if l_star > 1:
        paths = system.grouped
        last = lp_grouped_max(paths.capacities, paths, [(l_star - 1) * eta * b for b in bounds])
    return build_auxiliary(LstarResult(system, tuple(bounds), eta, l_star, 0, last))


def reference_aux_groups(system, bounds0, l_star: int, eta: float):
    """The auxiliary groups as a key-tuple construction.

    Returns its capacity mapping and its groups: every base path as it is per
    commodity group, then every base path extended by ``("ovf", i)`` as the
    one overflow group. The dedicated shares are the groups' bounds, not rows.
    """
    scale = (l_star - 1) * eta
    capacities = system.capacities()
    for i, b in enumerate(bounds0, start=1):
        capacities["ovf", i] = b - scale * b

    base_groups = edge_groups(system)
    overflow_group = tuple(
        path + (("ovf", i),) for i, group in enumerate(base_groups, start=1) for path in group
    )
    return capacities, base_groups + (overflow_group,)


# The acceptance corpus shapes: (nodes, edges, commodities, max paths).
CORPUS_SHAPES = ((6, 9, 2, 4), (7, 11, 3, 4), (8, 13, 3, 5), (5, 8, 2, 5), (8, 14, 3, 6))


def corpus_instances(count: int) -> list:
    """The acceptance corpus's first ``count`` instances: seeds 0, 1, ... cycling the shapes."""
    instances, seed = [], 0
    while len(instances) < count:
        shape = CORPUS_SHAPES[seed % len(CORPUS_SHAPES)]
        try:
            instances.append(generate_instance(seed, *shape, bound_range=(0.5, 3.0)))
        except GenerationError:
            pass
        seed += 1
    return instances


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
    return PathSystem(network, tuple(tuple(map(tuple, paths)) for paths in path_edge_ids))


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
