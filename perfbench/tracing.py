"""Spans around the calls into each concurflow layer, recorded from outside.

Nothing under ``src/`` knows about tracing. The traced run wraps the public
functions an operation calls (see ``workloads.Api``), passes ``solve`` a
timing subroutine, and, for the duration of the traced phase only,
replaces the module-level names the pipeline looks up at call time:
``solver.find_lstar``/``build_auxiliary``/``find_hstar``/``project_flow``,
``oracle.solve_lp``, ``oracle.lp_grouped_max``, ``packing.pack_paths``,
``instance_io.PathSystem``, ``compare.edge_loads`` and
``generator.enumerate_paths``.

A span is ``[kind, parent index, start, end, counters]``; its layer is the
part of ``kind`` before the first dot. A span's self time is its duration
minus that of its direct children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

import concurflow.compare
import concurflow.generator
import concurflow.instance_io
import concurflow.oracle
import concurflow.packing
import concurflow.solver
from concurflow.simplex import EQUAL, LESS_EQUAL

from workloads import Api


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, fn, kind: str, count=None):
        """``fn`` recording one span per call; ``count(args, result)`` gives its counters."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [kind, stack[-1] if stack else -1, clock(), 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, result)
            return result

        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        spans = self.spans[:]
        self.spans.clear()
        return spans


def _tableau_cells(args, result) -> dict:
    """Rows x columns of the dense tableau ``solve_lp`` builds (computed, not measured)."""
    objective, rows = args[0], args[1]
    n_slack = n_art = 0
    for _, sense, rhs in rows:
        if sense != EQUAL:
            n_slack += 1
        flipped = rhs < 0 and sense != EQUAL
        if sense == EQUAL or (sense == LESS_EQUAL) == flipped:
            n_art += 1
    return {
        "pivots": result.iterations,
        "cells": len(rows) * (len(objective) + n_slack + n_art + 1),
    }


def traced_api(tracer: Tracer) -> Api:
    """An ``Api`` whose functions record spans; the subroutine is a timing wrapper."""
    api = Api()
    nbytes = lambda args, result: {"bytes": len(args[0])}  # noqa: E731
    out_bytes = lambda args, result: {"bytes": len(result)}  # noqa: E731
    paths = lambda args, result: {"paths": result.path_system.path_count}  # noqa: E731
    api.generate_instance = tracer.wrap(Api.generate_instance, "generator.generate", paths)
    api.serialize_instance = tracer.wrap(Api.serialize_instance, "instance_io.serialize", out_bytes)
    api.parse_instance = tracer.wrap(Api.parse_instance, "instance_io.parse", nbytes)
    api.solve = tracer.wrap(Api.solve, "solver.solve")
    api.serialize_solution = tracer.wrap(Api.serialize_solution, "instance_io.serialize", out_bytes)
    api.lp_emcfpsc = tracer.wrap(Api.lp_emcfpsc, "oracle.emcfpsc")
    api.certified_checks = tracer.wrap(Api.certified_checks, "compare.checks")
    api.solve_mmfpb = tracer.wrap(Api.solve_mmfpb, "packing.mmfpb")

    def subroutine(name):
        if name == "oracle":
            return lambda caps, groups, bounds, eps: concurflow.oracle.lp_grouped_max(caps, groups, bounds)
        return lambda caps, groups, bounds, eps: concurflow.packing.pack_paths(caps, groups, bounds, eps)

    api.subroutine = subroutine
    return api


@contextmanager
def patched(tracer: Tracer):
    """Replace the pipeline's module-level names with span-recording wrappers."""
    calls = lambda args, result: {"calls": result.calls}  # noqa: E731
    targets = [
        (concurflow.solver, "find_lstar", "solver.outer", calls),
        (concurflow.solver, "build_auxiliary", "solver.aux", None),
        (concurflow.solver, "find_hstar", "solver.inner", calls),
        (concurflow.solver, "project_flow", "solver.project", None),
        (concurflow.oracle, "solve_lp", "simplex.solve", _tableau_cells),
        (concurflow.oracle, "lp_grouped_max", "oracle.grouped", None),
        (concurflow.packing, "pack_paths", "packing.pack", lambda a, r: {"iterations": r.iterations}),
        (concurflow.instance_io, "PathSystem", "netmodel.validate", None),
        (concurflow.compare, "edge_loads", "netmodel.loads", None),
        (concurflow.generator, "enumerate_paths", "generator.enumerate", lambda a, r: {"paths": len(r)}),
    ]
    saved = [(module, name, getattr(module, name)) for module, name, _, _ in targets]
    try:
        for module, name, kind, count in targets:
            setattr(module, name, tracer.wrap(getattr(module, name), kind, count))
        yield
    finally:
        for module, name, original in saved:
            setattr(module, name, original)


def self_times(spans: list[list]) -> list[float]:
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[1] >= 0:
            own[span[1]] -= span[3] - span[2]
    return own


class _Spans:
    """Spans with self and whole durations, scaled to reference seconds."""

    def __init__(self, *parts: tuple[list[list], float]) -> None:
        self.spans: list[list] = []
        self.own: list[float] = []
        self.whole: list[float] = []
        for spans, factor in parts:
            self.spans += spans
            self.own += [t * factor for t in self_times(spans)]
            self.whole += [(s[3] - s[2]) * factor for s in spans]

    def time(self, *kinds: str, whole: bool = False) -> float:
        times = self.whole if whole else self.own
        return sum(t for span, t in zip(self.spans, times) if span[0] in kinds)

    def count(self, kind: str, field: str | None = None) -> float:
        """Number of spans of ``kind``, or the sum of their counter ``field``."""
        return float(sum(
            1 if field is None else span[4][field] for span in self.spans if span[0] == kind
        ))


def layer_metrics(setup: list[list], setup_factor: float, ops: list[list], ops_factor: float) -> dict[str, float]:
    """Per-layer figures for one set-up plus one round of operations.

    ``*_s`` figures are self times in reference seconds (see machine.py),
    except ``solver.outer_s`` and ``solver.inner_s``, which are the whole
    search phases, subroutine calls included.
    """
    s = _Spans((setup, setup_factor), (ops, ops_factor))
    m: dict[str, float] = {}
    m["generator.s"] = s.time("generator.generate", "generator.enumerate")
    m["generator.paths"] = s.count("generator.generate", "paths")
    m["generator.paths_enumerated"] = s.count("generator.enumerate", "paths")
    m["instance_io.parse_s"] = s.time("instance_io.parse")
    m["instance_io.serialize_s"] = s.time("instance_io.serialize")
    m["instance_io.bytes"] = s.count("instance_io.parse", "bytes") + s.count("instance_io.serialize", "bytes")
    m["netmodel.validate_s"] = s.time("netmodel.validate")
    m["netmodel.loads_s"] = s.time("netmodel.loads")
    m["packing.calls"] = s.count("packing.pack")
    m["packing.iterations"] = s.count("packing.pack", "iterations")
    m["packing.s"] = s.time("packing.pack", "packing.mmfpb")
    m["packing.us_per_iter"] = (
        1e6 * m["packing.s"] / m["packing.iterations"] if m["packing.iterations"] else 0.0
    )
    m["simplex.calls"] = s.count("simplex.solve")
    m["simplex.pivots"] = s.count("simplex.solve", "pivots")
    m["simplex.s"] = s.time("simplex.solve")
    m["simplex.tableau_cells"] = s.count("simplex.solve", "cells")
    m["oracle.calls"] = s.count("oracle.grouped")
    m["oracle.assembly_s"] = s.time("oracle.grouped")
    m["oracle.emcfpsc_s"] = s.time("oracle.emcfpsc")
    m["solver.outer_calls"] = s.count("solver.outer", "calls")
    m["solver.inner_calls"] = s.count("solver.inner", "calls")
    m["solver.outer_s"] = s.time("solver.outer", whole=True)
    m["solver.inner_s"] = s.time("solver.inner", whole=True)
    m["solver.aux_s"] = s.time("solver.aux")
    m["solver.project_s"] = s.time("solver.project")
    m["solver.self_s"] = s.time("solver.solve", "solver.outer", "solver.aux", "solver.inner", "solver.project")
    m["compare.checks_s"] = s.time("compare.checks")
    m["trace.ops_s"] = s.time("bench.op", whole=True)
    m["trace.unattributed_s"] = s.time("bench.op")
    return m


EXACT_COUNTERS = ("packing.iterations", "simplex.pivots", "solver.outer_calls", "solver.inner_calls")
