"""Span tracing at the layer boundaries of fracbal, from outside the package.

``Tracer.installed()`` replaces each boundary function in the namespace of
the module that calls it (``cover.simplex_max``, ``certify.verify``'s
``negative_cycle_witness``, ``compose.apply_trace_step``, ...) by a wrapper
that records a span: name, start, end, parent and a few counts taken from
the arguments or the result.  Wrappers record only while ``active`` is set,
so answer gates, which call the same functions, stay out of the trace.
Spans stay in memory; ``dump`` writes them out when the run ends.

A span's self time is its duration minus the durations of its children.
Span names are ``<layer>.<function>``; the benchmark's own operation spans
use the layer ``bench``.
"""
from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import wraps
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterator

import workloads  # noqa: F401  (puts the checkout's fracbal on sys.path)
import fracbal
from fracbal import certify, compose, cover, families, gadgets, sgraph

Info = Callable[[tuple, object], dict]  # (positional arguments, result) -> counts


def _simplex_info(args, result) -> dict:
    m, n = len(args[0]), len(args[2])
    return {"rows": m, "cells": m * (n + m + 1)}


def _cover_info(args, result) -> dict:
    return {"sets": len(args[0].sets), "support": len(result.primal)}


def _sets_info(args, result) -> dict:
    return {"sets": len(result.sets)}


def _colgen_info(args, result) -> dict:
    gap = 0.0 if result.completed else float(result.upper - result.lower)
    return {"iterations": result.iterations, "columns": result.columns, "gap": gap}


# (owner, attribute, span name, counts) for every wrapped boundary.  The
# ``fracbal`` entries are the public functions the benchmark calls itself.
BOUNDARIES: tuple[tuple[object, str, str, Info | None], ...] = (
    (cover, "simplex_max", "simplex.simplex_max", _simplex_info),
    (cover, "fractional_cover_optimum", "cover.fractional_cover_optimum", _cover_info),
    (cover, "verify_cover_certificates", "cover.verify_cover_certificates", None),
    (cover, "_price", "cover.price", None),
    (cover, "enumerate_sets", "families.enumerate_sets", _sets_info),
    (families, "enumerate_sets", "families.enumerate_sets", _sets_info),
    (sgraph, "is_balanced", "sgraph.is_balanced", None),
    (sgraph, "is_acyclic", "sgraph.is_acyclic", None),
    (certify, "negative_cycle_witness", "sgraph.negative_cycle_witness", None),
    (certify, "any_cycle", "sgraph.any_cycle", None),
    (certify.Certificate, "build", "certify.Certificate.build", None),
    (gadgets, "apply_trace_step", "gadgets.apply_trace_step", None),
    (compose, "apply_trace_step", "gadgets.apply_trace_step", None),
    (fracbal, "chi_fb", "cover.chi_fb", None),
    (fracbal, "a_f", "cover.a_f", None),
    (fracbal, "column_generation", "cover.column_generation", _colgen_info),
    (fracbal, "lp_to_certificate", "certify.lp_to_certificate", None),
    (fracbal, "enumerate_sets", "families.enumerate_sets", _sets_info),
    (fracbal, "check_missing_triangle_lemma", "families.check_missing_triangle_lemma", None),
    (fracbal, "build_from_trace", "gadgets.build_from_trace", None),
    (fracbal, "compose_8341", "compose.compose_8341", None),
    (fracbal, "verify", "certify.verify", None),
    (fracbal, "all_triangles", "sgraph.all_triangles", None),
)


@dataclass
class Span:
    name: str
    phase: str
    start: float
    end: float
    parent: int
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span recorder for one benchmark run."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.active = False
        self.phase = "run"
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record a span around a block while the tracer is active."""
        if not self.active:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        record = Span(name, self.phase, perf_counter(), 0.0, parent)
        self._stack.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = perf_counter()
            self._stack.pop()

    def wrap(self, fn: Callable, name: str, info: Info | None) -> Callable:
        @wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            with self.span(name):
                record = self.spans[self._stack[-1]]
                result = fn(*args, **kwargs)
            if info is not None:
                record.info = info(args, result)
            return result

        return traced

    @contextmanager
    def recording(self, phase: str) -> Iterator[None]:
        """Record spans of ``phase`` inside the block."""
        self.phase, self.active = phase, True
        try:
            with self.span(f"bench.{phase}"):
                yield
        finally:
            self.active = False

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every boundary for the duration of the block."""
        saved = []
        try:
            for owner, attr, name, info in BOUNDARIES:
                saved.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, self.wrap(getattr(owner, attr), name, info))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self, phase: str) -> dict[str, tuple[int, float]]:
        """Per span name: number of calls and summed self time."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.duration
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for i, s in enumerate(self.spans):
            if s.phase == phase:
                out[s.name][0] += 1
                out[s.name][1] += s.duration - child[i]
        return {name: (calls, t) for name, (calls, t) in out.items()}

    def dump(self, path: Path, header: dict) -> None:
        t0 = self.spans[0].start if self.spans else 0.0
        rows = [
            [s.name, s.phase, round(s.start - t0, 9), round(s.end - t0, 9), s.parent, s.info]
            for s in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        fields = ["name", "phase", "start_s", "end_s", "parent", "info"]
        path.write_text(json.dumps({**header, "fields": fields, "spans": rows}))


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of the benchmark, from the run and set-up spans."""
    run = tracer.self_times("run")
    setup = tracer.self_times("setup")
    spans = [s for s in tracer.spans if s.phase == "run"]

    def calls(*names: str) -> int:
        return sum(run.get(n, (0, 0.0))[0] for n in names)

    def self_s(*names: str) -> float:
        return sum(run.get(n, (0, 0.0))[1] for n in names)

    def total_s(name: str) -> float:
        return sum(s.duration for s in spans if s.name == name)

    def info(name: str, key: str) -> list:
        return [s.info[key] for s in spans if s.name == name]

    lp_sets = sum(info("cover.fractional_cover_optimum", "sets"))
    lp_support = sum(info("cover.fractional_cover_optimum", "support"))
    return {
        "simplex.calls": calls("simplex.simplex_max"),
        "simplex.s": self_s("simplex.simplex_max"),
        "simplex.cells": sum(info("simplex.simplex_max", "cells")),
        "simplex.max_rows": max(info("simplex.simplex_max", "rows"), default=0),
        "cover.solve_self_s": self_s("cover.fractional_cover_optimum"),
        "cover.recheck_s": self_s("cover.verify_cover_certificates"),
        "cover.support_ratio": lp_support / lp_sets if lp_sets else 0.0,
        "cover.price_calls": calls("cover.price"),
        "cover.price_s": self_s("cover.price"),
        "cover.iterations": sum(info("cover.column_generation", "iterations")),
        "cover.columns": sum(info("cover.column_generation", "columns")),
        "cover.gap": sum(info("cover.column_generation", "gap")),
        "families.enum_calls": calls("families.enumerate_sets"),
        "families.enum_self_s": self_s("families.enumerate_sets"),
        "families.sets_out": sum(info("families.enumerate_sets", "sets")),
        "families.lemma_s": total_s("families.check_missing_triangle_lemma"),
        "sgraph.balance_calls": calls("sgraph.is_balanced", "sgraph.is_acyclic"),
        "sgraph.balance_s": self_s("sgraph.is_balanced", "sgraph.is_acyclic"),
        "sgraph.witness_calls": calls("sgraph.negative_cycle_witness", "sgraph.any_cycle"),
        "sgraph.witness_s": self_s("sgraph.negative_cycle_witness", "sgraph.any_cycle"),
        "sgraph.triangles_s": setup.get("sgraph.all_triangles", (0, 0.0))[1],
        "gadgets.steps": calls("gadgets.apply_trace_step"),
        "gadgets.step_s": self_s("gadgets.apply_trace_step"),
        "gadgets.build_s": total_s("gadgets.build_from_trace"),
        "certify.verify_calls": calls("certify.verify"),
        "certify.verify_self_s": self_s("certify.verify"),
        "certify.lp_cert_s": total_s("certify.lp_to_certificate"),
        "compose.calls": calls("compose.compose_8341"),
        "compose.self_s": self_s("compose.compose_8341"),
    }


def self_time_table(tracer: Tracer, phase: str, wall_s: float) -> list[str]:
    """Lines of the self-time table: each span name, each layer, and what
    remains of ``wall_s`` outside every span."""
    rows = tracer.self_times(phase)
    layers: dict[str, float] = defaultdict(float)
    for name, (_, t) in rows.items():
        layers[name.split(".", 1)[0]] += t
    lines = [f"{'span':44} {'calls':>8} {'self_s':>10} {'share':>7}"]
    for name, (n, t) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
        lines.append(f"{name:44} {n:8d} {t:10.4f} {t / wall_s:7.1%}")
    lines.append(f"{'layer':44} {'':8} {'self_s':>10} {'share':>7}")
    for layer, t in sorted(layers.items(), key=lambda kv: -kv[1]):
        lines.append(f"{layer:44} {'':8} {t:10.4f} {t / wall_s:7.1%}")
    remainder = wall_s - sum(layers.values())
    lines.append(f"{'remainder (outside every span)':44} {'':8} {remainder:10.4f} "
                 f"{remainder / wall_s:7.1%}")
    lines.append(f"{'total':44} {'':8} {wall_s:10.4f} {1:7.1%}")
    return lines
