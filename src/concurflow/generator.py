"""Reproducible random instance generator.

Draws a hybrid graph with capacities in [0.1, 2.0], picks commodity
endpoint pairs that are actually connected, and enumerates the first
requested number of simple paths of each commodity. Everything
derives from one ``random.Random(seed)`` stream, so a fixed seed yields a
byte-identical instance file.
"""

from __future__ import annotations

import random

import numpy as np

from .instance_io import Instance
from .netmodel import Commodity, Edge, Network, Path, PathSystem, enumerate_paths

CAP_RANGE = (0.1, 2.0)

_GRAPH_ATTEMPTS = 40
_PAIR_ATTEMPTS = 60


class GenerationError(RuntimeError):
    """No valid instance found within the retry budget."""


def generate_instance(
    seed: int,
    n_nodes: int,
    n_edges: int,
    k: int,
    max_paths_per_commodity: int,
    bound_range: tuple[float, float] = (0.5, 3.0),
    name: str | None = None,
) -> Instance:
    """Generate a connected instance; deterministic for a fixed seed."""
    sizes = (n_nodes, n_edges, k, max_paths_per_commodity)
    if not all(isinstance(size, (int, np.integer)) for size in sizes) or min(sizes) < 1:
        raise ValueError(f"all size parameters must be positive integers, got {sizes}")
    if n_nodes < 2:
        raise ValueError("need at least two nodes")
    lo, hi = bound_range
    if not (0.0 < lo <= hi):
        raise ValueError(f"bound range must satisfy 0 < lo <= hi, got {bound_range}")

    rng = random.Random(seed)
    for _ in range(_GRAPH_ATTEMPTS):
        instance = _try_generate(rng, seed, n_nodes, n_edges, k, max_paths_per_commodity, (lo, hi), name)
        if instance is not None:
            return instance
    raise GenerationError(
        f"could not place {k} connected commodities on {n_nodes} nodes / {n_edges} edges "
        f"after {_GRAPH_ATTEMPTS} attempts (seed {seed})"
    )


def _try_generate(rng, seed, n_nodes, n_edges, k, max_paths, bound_range, name):
    nodes = [f"v{i}" for i in range(n_nodes)]
    edges = []
    for i in range(n_edges):
        tail, head = rng.sample(nodes, 2)
        capacity = rng.uniform(*CAP_RANGE)
        directed = rng.random() < 0.5
        edges.append(Edge(f"e{i}", tail, head, capacity, directed))

    probe = Network(tuple(nodes), tuple(edges), ())
    chosen: list[tuple[str, str, list]] = []
    used_pairs = set()
    for _ in range(_PAIR_ATTEMPTS):
        if len(chosen) == k:
            break
        source, sink = rng.sample(nodes, 2)
        if (source, sink) in used_pairs:
            continue
        candidate = Commodity(1, source, sink, 1.0)
        paths = enumerate_paths(probe, candidate, max_edges=n_nodes, limit=max_paths)
        if not paths:
            continue
        used_pairs.add((source, sink))
        chosen.append((source, sink, paths))
    if len(chosen) < k:
        return None

    commodities = tuple(
        Commodity(i, source, sink, rng.uniform(*bound_range))
        for i, (source, sink, _) in enumerate(chosen, start=1)
    )
    network = Network(tuple(nodes), tuple(edges), commodities)
    groups = tuple(
        tuple(Path(i, path.steps) for path in paths)
        for i, (_, _, paths) in enumerate(chosen, start=1)
    )
    system = PathSystem(network, groups)
    return Instance(
        name=name or f"gen-{seed}",
        seed=seed,
        network=network,
        path_system=system,
        commodity_ids=tuple(f"c{i}" for i in range(1, k + 1)),
    )
