"""Command-line entry point wiring every module together.

The commands parse arguments, call the library and print; every check
and audit is defined in ``acceptance`` or ``certify`` and only printed
here (``check`` prints a CriterionResult's verdict and facts).  Exit
codes: 0 success, 1 a verification or check failed, 2 usage or input
error, 3 an enumeration guard was exceeded.  All output is deterministic
JSON (or fixed-format report lines), so identical invocations are
byte-identical; ``--seed`` fixes the only randomness (trace sampling in
``reproduce``).
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Callable

from .acceptance import CRITERIA, face_sign_audit, run_all, run_criterion
from .bounds import BoundParams, BoundsError, first_infeasible_index, m_upper_bound, mu_bound
from .bounds import threshold_52_25, threshold_83_41, threshold_172_85
from .certify import Certificate, CertificateError
from .certify import triangle_common_count, triangle_missing_count, triangle_property_audit, verify
from .compose import ComposeError, compose_8341
from .cover import CoverError, a_f, chi_fb, column_generation
from .families import GuardExceeded, SetProperty, enumerate_sets
from .gadgets import (
    BuildTrace,
    TraceError,
    g_hat_k3,
    g_sequence,
    k3_minus,
    k4_minus,
    u_hat,
    w1_underlying,
    w_double_prime,
    w_hat,
    w_prime,
)
from .sgraph import GraphError, parse_graph, serialize_graph

BUILDERS: dict[str, Callable] = {
    "k3-minus": k3_minus,
    "k4-minus": k4_minus,
    "w-hat": w_hat,
    "w-prime": w_prime,
    "w-double-prime": w_double_prime,
    "g-hat-k3": g_hat_k3,
    "u-hat": u_hat,
    "w1": w1_underlying,
}


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise GraphError(f"cannot write {args.out}: {exc}") from exc
    else:
        print(text)


def _read_file(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


def _budget(text: str) -> float:
    """A ``--budget-seconds`` value: a number of seconds, not NaN or negative."""
    seconds = float(text)
    if not seconds >= 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative number of seconds, got {text!r}")
    return seconds


def cmd_build(args) -> int:
    if args.name == "g-seq":
        gadget = g_sequence(args.i)
    else:
        gadget = BUILDERS[args.name]()
    _emit(args, serialize_graph(gadget.graph))
    return 0


def cmd_enumerate(args) -> int:
    g = parse_graph(_read_file(args.graph))
    prop = SetProperty(args.property)
    contains = tuple(args.contains.split(",")) if args.contains else ()
    forbid = tuple(args.forbid.split(",")) if args.forbid else ()
    fam = enumerate_sets(
        g,
        prop,
        maximal_only=args.maximal,
        must_contain=contains,
        forbid=forbid,
        size_guard=args.guard,
    )
    _emit(args, json.dumps([list(s) for s in fam.sets], indent=2))
    return 0


def cmd_solve(args) -> int:
    # each mode honours only its own flag; refuse the other rather than ignore it
    if args.budget_seconds is not None and not args.column_generation:
        print("error: --budget-seconds applies only with --column-generation", file=sys.stderr)
        return 2
    if args.guard is not None and args.column_generation:
        print("error: --guard does not apply with --column-generation", file=sys.stderr)
        return 2
    g = parse_graph(_read_file(args.graph))
    if args.column_generation:
        prop = SetProperty.BALANCED if args.problem == "chi-fb" else SetProperty.ACYCLIC
        cg = column_generation(g, prop, time_budget=args.budget_seconds)
        obj = {
            "completed": cg.completed,
            "lower": str(cg.lower),
            "upper": str(cg.upper),
            "iterations": cg.iterations,
            "columns": cg.columns,
        }
        if cg.completed and cg.result is not None:
            obj["optimum"] = str(cg.result.optimum)
        _emit(args, json.dumps(obj, indent=2))
        return 0
    res = chi_fb(g, size_guard=args.guard) if args.problem == "chi-fb" else a_f(g, size_guard=args.guard)
    obj = {
        "optimum": str(res.optimum),
        "primal": [{"set": list(s), "weight": str(w)} for s, w in res.primal],
        "dual": {v: str(y) for v, y in res.dual},
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def cmd_verify(args) -> int:
    g = parse_graph(_read_file(args.graph))
    cert = Certificate.from_json(_read_file(args.certificate))
    rep = verify(g, cert)
    obj = {
        "ok": rep.ok,
        "coverage": dict(rep.per_vertex_coverage),
        "violations": [
            {"kind": v.kind, "subject": list(v.subject),
             "witness": list(v.witness) if v.witness else None, "message": v.message}
            for v in rep.violations
        ],
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0 if rep.ok else 1


def cmd_compose(args) -> int:
    trace = BuildTrace.from_json(_read_file(args.trace))
    cert = compose_8341(trace)
    _emit(args, cert.to_json())
    return 0


def cmd_audit_triangle(args) -> int:
    cert = Certificate.from_json(_read_file(args.certificate))
    t = tuple(args.triangle.split(","))
    if len(t) != 3:
        raise GraphError("--triangle needs three comma-separated vertices")
    obj = {
        "triangle": list(t),
        "sign": args.sign,
        "missing": triangle_missing_count(cert, t),
        "common": triangle_common_count(cert, t),
        "strict_property": triangle_property_audit(cert, t, args.sign),
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def cmd_bounds(args) -> int:
    if args.which == "thresholds":
        obj = {
            "chromatic-limit": str(threshold_83_41()),
            "k4-assembly": str(threshold_172_85()),
            "arboricity": str(threshold_52_25()),
        }
        _emit(args, json.dumps(obj, indent=2))
        return 0
    bp = BoundParams(args.p, args.q)
    # Unless 41p = 83q, |mu| >= (21^i - 3 max(p, q)) / 20, p and q having at
    # most ``limit`` digits, so once 1.3 i > limit + 4 mu is refused unbuilt.
    # Python before 3.10.7 has no limit and no function to read it: 0 there.
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    too_many = f"mu has more than {limit} digits, too many to print"
    if limit and 41 * args.p != 83 * args.q and 13 * args.i > 10 * (limit + 4):
        raise BoundsError(too_many)
    mu = mu_bound(bp, args.i)
    try:
        mu_text = str(mu)
    except ValueError:
        raise BoundsError(too_many) from None
    obj = {
        "p": args.p,
        "q": args.q,
        "i": args.i,
        "m-upper": m_upper_bound(bp),
        "mu": mu_text,
        "first-infeasible-index": first_infeasible_index(bp),
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def cmd_check(args) -> int:
    if args.which == "triangle-signs":
        res = face_sign_audit(BUILDERS)
    else:
        res = run_criterion(args.which, args.seed)
    head = {"ok": res.ok, "details": res.details} if args.which == "lemma-3.1" else {"ok": res.ok}
    _emit(args, json.dumps({**head, **res.facts}, indent=2))
    return 0 if res.ok else 1


def cmd_reproduce(args) -> int:
    if args.id == "all":
        results = run_all(args.seed)
    else:
        results = [run_criterion(args.id, args.seed)]
    failed = 0
    for res in results:
        mark = "PASS" if res.ok else "FAIL"
        print(f"{mark} {res.cid:14s} {res.title}: {res.details}")
        failed += 0 if res.ok else 1
    if args.id == "lemma-3.1":
        for s in results[0].facts["sets"]:
            print("  {" + ", ".join(s) + "}")
    print(f"{len(results) - failed}/{len(results)} criteria passed")
    return 0 if failed == 0 else 1


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fracbal",
        description="Exact toolkit for fractional balanced colorings and fractional arboricity",
    )
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="emit a constructor's graph as JSON")
    p.add_argument("name", choices=sorted(BUILDERS) + ["g-seq"])
    p.add_argument("--i", type=int, default=1, help="level for g-seq")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_build)

    p = sub.add_parser("enumerate", help="enumerate balanced or acyclic sets")
    p.add_argument("graph")
    p.add_argument("--property", choices=["balanced", "acyclic"], default="balanced")
    p.add_argument("--maximal", action="store_true")
    p.add_argument("--contains", default="", help="comma-separated vertices")
    p.add_argument("--forbid", default="", help="comma-separated vertices")
    p.add_argument("--guard", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_enumerate)

    p = sub.add_parser("solve", help="exact covering LP optimum with certificates")
    p.add_argument("problem", choices=["chi-fb", "a-f"])
    p.add_argument("graph")
    p.add_argument("--column-generation", action="store_true")
    p.add_argument("--budget-seconds", type=_budget, default=None)
    p.add_argument("--guard", type=int, default=None)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("verify", help="verify a certificate against a graph")
    p.add_argument("graph")
    p.add_argument("certificate")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("compose-8341", help="synthesize a balanced (83,41)-coloring from a trace")
    p.add_argument("trace")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("audit-triangle", help="missing/common color counts for a triangle")
    p.add_argument("certificate")
    p.add_argument("--triangle", required=True, help="three comma-separated vertices")
    p.add_argument("--sign", type=int, choices=[-1, 1], required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_audit_triangle)

    p = sub.add_parser("bounds", help="exact bound arithmetic")
    p.add_argument("which", choices=["mu", "thresholds"])
    p.add_argument("--p", type=int, default=2)
    p.add_argument("--q", type=int, default=1)
    p.add_argument("--i", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("check", help="run one of the built-in gadget checks")
    p.add_argument("which", choices=["lemma-3.1", "forest-lemmas", "triangle-signs"])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("reproduce", help="run acceptance criteria")
    p.add_argument("id", choices=["all"] + list(CRITERIA))
    p.set_defaults(fn=cmd_reproduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return 3
    except (GraphError, CertificateError, TraceError, BoundsError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ComposeError, CoverError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
