"""Workload inputs and operations of the concurflow benchmark.

Every workload starts from a fixed set of base instances made by
``generate_instance`` and hands the program seeded, relabelled copies of
them as instance text. The relabelling renames every node and edge and
shuffles the order of nodes, edges, commodities and paths. The problem
stays the same (same optimum, same ``l_star``/``h_star``), but the orders
the program's tie-breaks and Bland's rule see change with the seed, and so
do pivot counts (by up to 3x on one 480-path instance).

The structure itself is not drawn from the seed on purpose: at a fixed
size, the oracle solve time of random instances differs up to 10x between
generator seeds, so a run would need hundreds of instances before its
median stopped moving from one seed to the next.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

import concurflow
from concurflow import (
    Commodity,
    Edge,
    GenerationError,
    Instance,
    Network,
    Path,
    PathSystem,
    Traversal,
)

# The acceptance corpus shape: (nodes, edges, commodities, max paths).
CORPUS_PARAMS = (
    (6, 9, 2, 4),
    (7, 11, 3, 4),
    (8, 13, 3, 5),
    (5, 8, 2, 5),
    (8, 14, 3, 6),
)


@dataclass(frozen=True)
class Case:
    """One distinct operation: an instance text and its eta (or eps)."""

    key: str
    text: str
    param: float


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "compare" or "mmfpb"
    subroutine: str | None  # solve's subroutine for "compare" workloads
    bases: Callable[[Callable], list[Instance]]  # called with generate_instance
    params: tuple[float, ...]  # eta per compare, eps per solve_mmfpb
    copies: int  # relabelled copies of every base instance per run


def small_corpus(generate: Callable, count: int, bound_range: tuple[float, float]) -> list[Instance]:
    """The acceptance corpus recipe: generator seeds 0, 1, ... cycling the shapes."""
    instances = []
    seed = 0
    while len(instances) < count:
        shape = CORPUS_PARAMS[seed % len(CORPUS_PARAMS)]
        try:
            instances.append(generate(seed, *shape, bound_range=bound_range))
        except GenerationError:
            pass
        seed += 1
    return instances


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "corpus-oracle", "compare", "oracle",
            lambda gen: small_corpus(gen, 50, (0.5, 3.0)), (0.05, 0.1, 0.2), 1,
        ),
        Workload(
            "fptas-search", "compare", "fptas",
            lambda gen: small_corpus(gen, 40, (0.2, 0.6)), (0.2, 0.25), 1,
        ),
        Workload(
            "packing-fullrun", "mmfpb", None,
            lambda gen: small_corpus(gen, 30, (0.5, 3.0)), (0.05, 0.1, 0.25), 1,
        ),
        # 480 paths, k=8. One instance at one eta, so that the median and p75
        # lie inside one group of copies rather than between groups.
        Workload(
            "large-oracle", "compare", "oracle",
            lambda gen: [gen(3, 16, 50, 8, 60)], (0.1,), 100,
        ),
    )
}


def relabel(instance: Instance, rng: random.Random, name: str) -> Instance:
    """An isomorphic copy with seeded names and seeded node/edge/commodity/path order."""
    network = instance.network
    nodes = list(network.nodes)
    edges = list(network.edges)
    order = list(range(network.k))
    for items in (nodes, edges, order):
        rng.shuffle(items)
    node_name = {node: f"v{i}" for i, node in enumerate(rng.sample(nodes, len(nodes)))}
    edge_name = {edge.id: f"e{i}" for i, edge in enumerate(rng.sample(edges, len(edges)))}
    new_network = Network(
        tuple(node_name[n] for n in nodes),
        tuple(
            Edge(edge_name[e.id], node_name[e.tail], node_name[e.head], e.capacity, e.directed)
            for e in edges
        ),
        tuple(
            Commodity(
                i,
                node_name[network.commodities[old].source],
                node_name[network.commodities[old].sink],
                network.commodities[old].bound,
            )
            for i, old in enumerate(order, start=1)
        ),
    )
    groups = []
    for i, old in enumerate(order, start=1):
        paths = list(instance.path_system.paths[old])
        rng.shuffle(paths)
        groups.append(
            tuple(
                Path(i, tuple(Traversal(edge_name[s.edge_id], s.forward) for s in p.steps))
                for p in paths
            )
        )
    return Instance(
        name=name,
        seed=instance.seed,
        network=new_network,
        path_system=PathSystem(new_network, tuple(groups)),
        commodity_ids=tuple(f"c{i}" for i in range(1, network.k + 1)),
    )


def build_cases(workload: Workload, seed: int, api, clock) -> tuple[list[Case], float]:
    """The set-up: generate the bases, relabel them from ``seed``, serialize.

    Returns the cases and the set-up time read from ``clock``: generation
    and ``serialize_instance`` only. Relabelling is the benchmark's own
    step and is left out of the time. The clock is retimed between steps,
    never inside a timed one.
    """
    rng = random.Random(seed)
    cases = []
    clock.retime()
    started = clock()
    bases = workload.bases(api.generate_instance)
    setup_s = clock() - started
    for b, base in enumerate(bases):
        for copy in range(workload.copies):
            name = f"{workload.name}-{b}-{copy}"
            instance = relabel(base, rng, name)
            clock.retime()
            started = clock()
            text = api.serialize_instance(instance)
            setup_s += clock() - started
            cases.extend(Case(f"{name}@{p}", text, p) for p in workload.params)
    return cases, setup_s


class Api:
    """The public functions an operation calls; the traced run swaps in wrappers."""

    generate_instance = staticmethod(concurflow.generate_instance)
    serialize_instance = staticmethod(concurflow.serialize_instance)
    parse_instance = staticmethod(concurflow.parse_instance)
    solve = staticmethod(concurflow.solve)
    serialize_solution = staticmethod(concurflow.serialize_solution)
    lp_emcfpsc = staticmethod(concurflow.lp_emcfpsc)
    certified_checks = staticmethod(concurflow.certified_checks)
    solve_mmfpb = staticmethod(concurflow.solve_mmfpb)

    def subroutine(self, name: str):
        return name


@dataclass(frozen=True)
class Outcome:
    op_s: float
    solve_s: float
    output: object  # compared across repeats of one case, byte for byte
    checks_passed: bool


def run_compare(case: Case, workload: Workload, api, clock) -> Outcome:
    """parse -> solve -> serialize_solution -> lp_emcfpsc -> certified_checks."""
    started = clock()
    instance = api.parse_instance(case.text)
    system = instance.path_system
    report = api.solve(system, case.param, subroutine=api.subroutine(workload.subroutine))
    solution = api.serialize_solution(report, instance)
    solved = clock()
    bounds = system.network.bounds()
    lam, v_opt, _ = api.lp_emcfpsc(system, bounds)
    checks = api.certified_checks(report, bounds, lam, v_opt)
    ended = clock()
    passed = all(check.passed for check in checks)
    return Outcome(ended - started, solved - started, (solution, lam, v_opt), passed)


def run_mmfpb(case: Case, system: PathSystem, api, clock) -> Outcome:
    """One solve_mmfpb call at eps = case.param with the commodity bounds."""
    bounds = system.network.bounds()
    started = clock()
    flow = api.solve_mmfpb(system, bounds, case.param)
    elapsed = clock() - started
    return Outcome(elapsed, elapsed, flow.values, True)
