"""Command-line entry point wiring every module together.

Exit codes: 0 success, 1 a verification or check failed, 2 usage or input
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

from .acceptance import CRITERIA, run_all, run_criterion
from .bounds import BoundParams, BoundsError, first_infeasible_index, m_upper_bound, mu_bound
from .bounds import threshold_52_25, threshold_83_41, threshold_172_85
from .certify import Certificate, CertificateError
from .certify import triangle_common_count, triangle_missing_count, verify
from .compose import ComposeError, compose_8341
from .cover import CoverError, a_f, chi_fb, column_generation
from .families import GuardExceeded, SetProperty, check_forest_lemmas, enumerate_sets, lemma_case_sets
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
from .sgraph import GraphError, parse_graph, serialize_graph, triangle_sign

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
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _read_file(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError as exc:
        raise GraphError(f"cannot read {path}: {exc}") from exc


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
    missing = triangle_missing_count(cert, t)
    common = triangle_common_count(cert, t)
    strict = missing == 0 if args.sign == -1 else common == 0
    obj = {
        "triangle": list(t),
        "sign": args.sign,
        "missing": missing,
        "common": common,
        "strict_property": strict,
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
    obj = {
        "p": args.p,
        "q": args.q,
        "i": args.i,
        "m-upper": m_upper_bound(bp),
        "mu": str(mu_bound(bp, args.i)),
        "first-infeasible-index": first_infeasible_index(bp),
    }
    _emit(args, json.dumps(obj, indent=2))
    return 0


def cmd_check(args) -> int:
    if args.which == "lemma-3.1":
        res = run_criterion("lemma-3.1", args.seed)
        wh = w_hat()
        listing = lemma_case_sets(wh, (("u", "x1", "x2"), ("v", "x3", "x4")))
        obj = {"ok": res.ok, "details": res.details, "sets": [list(s) for s in listing]}
        _emit(args, json.dumps(obj, indent=2))
        return 0 if res.ok else 1
    if args.which == "forest-lemmas":
        rep = check_forest_lemmas(w_hat())
        ok = rep.max_order == 5 and rep.max_order_with_terminals == 4 and rep.hubs_ok
        obj = {
            "ok": ok,
            "max-forest-order": rep.max_order,
            "max-with-terminals": rep.max_order_with_terminals,
            "maximum-forests-with-u": rep.top_sets_with_u,
            "hitting-two-hubs": rep.top_sets_with_u_hitting_hubs,
        }
        _emit(args, json.dumps(obj, indent=2))
        return 0 if ok else 1
    # triangle-signs: face-sign audit of every constructor
    audits = {}
    ok = True
    for name, builder in BUILDERS.items():
        g = builder()
        bad = [t for t in g.marked_triangles if triangle_sign(g.graph, t) != -1]
        audits[name] = {"marked": len(g.marked_triangles), "non-negative": len(bad)}
        ok = ok and not bad
    wh = w_hat()
    for t in (("u", "x1", "x2"), ("v", "x3", "x4")):
        audits[f"positive {','.join(t)}"] = {"sign": triangle_sign(wh.graph, t)}
        ok = ok and triangle_sign(wh.graph, t) == 1
    _emit(args, json.dumps({"ok": ok, "audits": audits}, indent=2))
    return 0 if ok else 1


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
        wh = w_hat()
        for s in lemma_case_sets(wh, (("u", "x1", "x2"), ("v", "x3", "x4"))):
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
    p.add_argument("--budget-seconds", type=float, default=None)
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
