"""The acceptance gate: one test per release criterion.

Each criterion prints its own PASS/FAIL line (run pytest with -s or check
the captured output) and every check is exact, with no numeric tolerance.
"""
from dataclasses import replace
from fractions import Fraction

import pytest

from fracbal.acceptance import CRITERIA, _independent_cover_check, run_criterion
from fracbal.cover import LpResult, a_f, chi_fb
from fracbal.families import SetProperty
from fracbal.gadgets import k3_minus
from fracbal.sgraph import SignedGraph


@pytest.mark.parametrize("cid", list(CRITERIA))
def test_criterion(cid):
    res = run_criterion(cid, seed=0)
    print(f"{'PASS' if res.ok else 'FAIL'} {res.cid}: {res.details}")
    assert res.ok, f"{res.cid}: {res.details}"


def test_cover_check_rejects_a_cyclic_class_in_acyclic_mode():
    c4 = SignedGraph(
        ("a", "b", "c", "d"),
        (("a", "b", -1), ("b", "c", -1), ("c", "d", -1), ("a", "d", -1)),
    )
    assert _independent_cover_check(c4, SetProperty.ACYCLIC, a_f(c4))
    # the whole 4-cycle as one class, priced by a dual concentrated on a
    cyclic = LpResult(
        Fraction(1),
        ((("a", "b", "c", "d"), Fraction(1)),),
        (("a", Fraction(1)), ("b", Fraction(0)), ("c", Fraction(0)), ("d", Fraction(0))),
    )
    assert not _independent_cover_check(c4, SetProperty.ACYCLIC, cyclic)


def test_cover_check_rejects_an_infeasible_dual():
    g = k3_minus().graph
    res = chi_fb(g)
    assert _independent_cover_check(g, SetProperty.BALANCED, res)
    # same total 3/2, but the singleton {first vertex} gets weight 3/2 > 1
    first, *rest = g.vertices
    lumped = replace(
        res,
        dual=((first, res.optimum),) + tuple((v, Fraction(0)) for v in rest),
    )
    assert not _independent_cover_check(g, SetProperty.BALANCED, lumped)
