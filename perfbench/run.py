"""Benchmark runner for fracbal: one workload in one fresh process.

    python3 perfbench/run.py --workload exact-lp --seed 0 --seconds 20 --trace 0

Load is a closed loop with one client: every operation of the workload runs
after the previous one has finished, on one thread.  The runner sets the
workload up three times and keeps the last inputs, then repeats passes over
the operations until the next pass would end after ``--seconds`` (at least
one pass).  Within a pass, an operation is called again until its calls
have taken ``REPEAT_S`` or it has been called ``MAX_CALLS`` times, and its
time is the mean call.  Every answer is gated outside the timed region,
right after its call.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics of ``BENCHMARK.json``, or
its per-layer metrics with ``--trace 1``).  The exit code is 1 when any
answer is wrong or any operation raised.

End-to-end metrics, times in reference seconds (see ``speed.py``) and
medians over passes:
  setup_s           median of three set-ups, each a fresh interpreter that
                    imports fracbal plus building the workload's inputs
  wall_s            time of one call of each of the workload's operations
  largest_s         time of the operation on the largest instance
  scaling_exponent  least-squares slope of log time against log size over
                    the workload's sweep: chi_fb against the number of
                    maximal balanced sets (exact-lp), column generation and
                    maximal enumeration against vertex count (colgen,
                    enumerate), the pipeline against trace depth
  peak_rss_mib      peak resident memory of the process

``--trace 1`` sets up once with spans recorded, calls each operation once
untraced and once with every layer boundary wrapped, then runs the
time-budget probe.
It prints the self-time tables, writes the spans to ``perfbench/out/`` and
reports per-layer metrics in wall seconds, the tracing overhead (traced
minus untraced ``wall_s``) and the part of the traced ``wall_s`` outside
every span.
"""
from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import spans
import workloads  # puts the checkout's fracbal first on sys.path
from speed import REFERENCE_CHUNK_S, SpeedProbe

HERE = Path(__file__).resolve().parent
SPEC = HERE.parent / "BENCHMARK.json"
OUT = HERE / "out"
SETUP_REPEATS = 3
REPEAT_S = 1.0
MAX_CALLS = 25


def wall(start: float, end: float) -> float:
    return end - start


@dataclass
class Pass:
    """Timed intervals and gate results of one pass over the operations."""

    windows: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    answers: dict[str, str] = field(default_factory=dict)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def seconds(self, clock=wall) -> dict[str, float]:
        """Mean time of one call of each operation."""
        return {name: statistics.mean(clock(*w) for w in calls)
                for name, calls in self.windows.items() if calls}

    def wall_s(self, clock=wall) -> float:
        return sum(self.seconds(clock).values())


def run_pass(ops, tracer=None, max_calls: int = MAX_CALLS) -> Pass:
    """Call each operation, timing only ``op.run``; gate every answer."""
    result = Pass()
    for op in ops:
        calls = result.windows.setdefault(op.name, [])
        while sum(end - start for start, end in calls) < REPEAT_S and len(calls) < max_calls:
            result.attempted += 1
            if tracer is not None:
                tracer.phase, tracer.active = "run", True
            try:
                started = perf_counter()
                if tracer is None:
                    out = op.run()
                else:
                    with tracer.span(f"bench.{op.name}"):
                        out = op.run()
                calls.append((started, perf_counter()))
            except Exception as exc:  # a raising operation is a failed answer
                traceback.print_exc()
                result.failed += 1
                result.failures.append(f"{op.name}: raised {type(exc).__name__}: {exc}")
                break
            finally:
                if tracer is not None:
                    tracer.active = False
            try:
                answer, errors = workloads.gate(op, out)
            except Exception as exc:
                traceback.print_exc()
                answer, errors = "?", [f"gate raised {type(exc).__name__}: {exc}"]
            del out  # peak memory holds one answer at a time
            result.answers[op.name] = answer
            result.failed += bool(errors)
            result.failures.extend(f"{op.name}: {e}" for e in errors)
    return result


def combine(passes: list[Pass]) -> Pass:
    """Attempts and failures of several passes together."""
    return Pass(failures=[f for p in passes for f in p.failures],
                attempted=sum(p.attempted for p in passes),
                failed=sum(p.failed for p in passes))


def measure(ops, seconds: float) -> list[Pass]:
    """Passes until the next one would end after ``seconds``; at least one."""
    passes = []
    started = perf_counter()
    while True:
        t = perf_counter()
        passes.append(run_pass(ops))
        now = perf_counter()
        if now - started + (now - t) > seconds:
            return passes


def _median(values) -> float | None:
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log y against log x."""
    if len(points) < 2:
        return None
    xs = [math.log(x) for x, _ in points]
    ys = [math.log(y) for _, y in points]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def end_to_end(ops, passes: list[Pass], setup_s: float, clock) -> dict[str, float | None]:
    times = [p.seconds(clock) for p in passes]
    op_s = {op.name: _median(t.get(op.name) for t in times) for op in ops}
    largest = next(op.name for op in ops if op.largest)
    sweep = [(op.size, op_s[op.name]) for op in ops if op.size is not None and op_s[op.name]]
    return {
        "setup_s": setup_s,
        "wall_s": _median(sum(t.values()) for t in times),
        "largest_s": op_s[largest],
        "scaling_exponent": slope(sweep),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def import_window(src: Path) -> tuple[float, float]:
    """Start a fresh interpreter that imports fracbal from ``src``."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import fracbal"
    started = perf_counter()
    subprocess.run([sys.executable, "-c", code, str(src)], check=True)
    return started, perf_counter()


def timed_run(args, small: bool, probe: SpeedProbe) -> tuple[Pass, dict]:
    setups = []
    for _ in range(SETUP_REPEATS):
        imported = import_window(workloads.SRC)
        t = perf_counter()
        ops = workloads.build(args.workload, args.seed, small)
        setups.append((imported, (t, perf_counter())))
    passes = measure(ops, args.seconds)
    clock = probe.seconds
    setup_s = statistics.median(clock(*i) + clock(*b) for i, b in setups)
    metrics = end_to_end(ops, passes, setup_s, clock)

    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es); "
          f"chunk {probe.chunk_s() * 1e3:.4f} ms over {len(probe.samples)} samples "
          f"(reference {REFERENCE_CHUNK_S * 1e3:.4f} ms)")
    print(f"  {'set-up':44} {'ref_s':>10} {'wall_s':>10}")
    for i, windows in enumerate(setups, start=1):
        for name, w in zip(("interpreter and import", "inputs"), windows):
            print(f"  {f'set-up {i}: {name}':44} {clock(*w):10.4f} {wall(*w):10.4f}")
    print(f"  {'operation (mean call)':44} {'ref_s':>10} {'wall_s':>10}  calls  answer")
    for op in ops:
        ref = _median(p.seconds(clock).get(op.name) for p in passes)
        raw = _median(p.seconds().get(op.name) for p in passes)
        calls = sum(len(p.windows.get(op.name, ())) for p in passes)
        answer = passes[-1].answers.get(op.name, "-")
        print(f"  {op.name:44} {ref or math.nan:10.4f} {raw or math.nan:10.4f} {calls:6d}  {answer}")
    return combine(passes), metrics


def traced_run(args, small: bool) -> tuple[Pass, dict]:
    tracer = spans.Tracer()
    with tracer.installed(), tracer.recording("setup"):
        ops = workloads.build(args.workload, args.seed, small)
    setup_wall = tracer.spans[0].duration
    plain = run_pass(ops, max_calls=1)
    with tracer.installed():
        traced = run_pass(ops, tracer, max_calls=1)
    budget = workloads.budget_probe(args.seed, small)
    t = perf_counter()
    probe = run_pass([budget], max_calls=1)
    probe_s = probe.seconds().get(budget.name, perf_counter() - t)

    traced_s, plain_s = traced.wall_s(), plain.wall_s()
    run_self = sum(t for _, t in tracer.self_times("run").values())
    metrics = spans.layer_metrics(tracer)
    metrics["cover.budget_overshoot_s"] = probe_s - workloads.PROBE_BUDGET_S
    metrics["bench.overhead_s"] = traced_s - plain_s
    metrics["bench.remainder_s"] = traced_s - run_self

    print(f"{args.workload} seed {args.seed}: set-up self times")
    print("\n".join(spans.self_time_table(tracer, "setup", setup_wall)))
    print(f"{args.workload} seed {args.seed}: operation self times "
          f"(traced wall_s {traced_s:.4f} s, untraced {plain_s:.4f} s)")
    print("\n".join(spans.self_time_table(tracer, "run", traced_s)))
    path = OUT / f"spans-{args.workload}-seed{args.seed}.json"
    tracer.dump(path, {"workload": args.workload, "seed": args.seed})
    print(f"spans written to {path}")
    return combine([plain, traced, probe]), metrics


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, small: bool = False) -> int:
    """Run one workload; ``small`` selects the reduced instances of the tests."""
    args = parse_args(argv)
    if args.trace:
        total, metrics = traced_run(args, small)
    else:
        with SpeedProbe() as probe:
            total, metrics = timed_run(args, small, probe)
    spec = json.loads(SPEC.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    if {m["name"] for m in wanted} != set(metrics):
        raise SystemExit(f"metrics {sorted(metrics)} do not match {SPEC.name}")

    failed = total.failed
    for f in total.failures:
        print(f"FAILED {f}")
    print(f"failed_share {failed / total.attempted:.4f} ({failed} of {total.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": total.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
