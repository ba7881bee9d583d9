"""Tests of the benchmark itself: answer gates, seed invariance, and a run of
every workload at reduced size.

    python3 -m pytest perfbench -q
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys

import pytest

import run
import workloads as wl
from workloads import ACYCLIC, BALANCED, fb


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def drop_first_class(cert: fb.Certificate) -> fb.Certificate:
    return fb.Certificate(cert.p, cert.q, cert.mode, cert.classes[1:])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_reduced_run_reports_every_metric(workload, trace, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    argv = ["--workload", workload, "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    code = run.main(argv, small=True)
    out = last_json(capsys)
    spec = json.loads(run.SPEC.read_text())
    wanted = spec["per_layer" if trace else "end_to_end"]
    assert code == 0
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert [(k, v["unit"]) for k, v in out["metrics"].items()] == [
        (m["name"], m["unit"]) for m in wanted
    ]
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    if trace:
        assert list(tmp_path.glob(f"spans-{workload}-seed0.json"))


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_another_seed_gives_the_same_answers(workload):
    answers = []
    for seed in (0, 1):
        result = run.run_pass(wl.build(workload, seed, small=True))
        assert result.failed == 0, result.failures
        answers.append(result.answers)
    assert answers[0] == answers[1]


def test_seeds_change_the_inputs():
    same = wl.relabel(fb.w_hat(), None)
    other = wl.relabel(fb.w_hat(), random.Random(1))
    assert same.graph == fb.w_hat().graph
    assert set(other.graph.vertices).isdisjoint(same.graph.vertices)
    assert wl.seeded_trace(0, 20) != wl.seeded_trace(1, 20)


def test_shuffled_declaration_order_gives_the_same_answers():
    rng = random.Random(7)
    w_hat = wl.shuffle_order(fb.w_hat(), rng)
    w_prime = wl.shuffle_order(fb.w_prime(), rng)
    assert w_hat.graph.vertices != fb.w_hat().graph.vertices
    hat = wl.Instance(w_hat, {v: v for v in w_hat.graph.vertices})
    prime = wl.Instance(w_prime, {v: v for v in w_prime.graph.vertices})
    ops = [
        wl._lp_op("chi_fb(w_hat)", hat, BALANCED),
        wl._lp_op("a_f(w_hat)", hat, ACYCLIC),
        wl._colgen_op("colgen(w_hat, balanced)", hat, BALANCED),
        wl._enum_op("maximal balanced(w_hat)", hat, BALANCED, True),
        wl._enum_op("maximal balanced(w_prime)", prime, BALANCED, True),
        wl._enum_op("all balanced(w_hat)", hat, BALANCED, False),
        wl._enum_op("all acyclic(w_hat)", hat, ACYCLIC, False),
        wl._lemma_op("lemma(w_prime)", prime),
    ]
    result = run.run_pass(ops)
    assert result.failed == 0, result.failures
    assert result.answers == {op.name: wl.REFERENCE[op.name] for op in ops}


def test_gate_rejects_a_wrong_optimum_and_a_dropped_class():
    op = next(op for op in wl.build("exact-lp", 0, small=True) if op.name == "chi_fb(w_hat)")
    res, cert = op.run()
    assert wl.gate(op, (res, cert)) == ("11/6", [])
    wrong = dataclasses.replace(res, optimum=res.optimum + 1)
    assert wl.gate(op, (wrong, cert))[1]
    assert wl.gate(op, (res, drop_first_class(cert)))[1]

    op = wl.build("trace-pipeline", 0, small=True)[0]
    graph, cert, report = op.run()
    assert wl.gate(op, (graph, cert, report))[1] == []
    dropped = drop_first_class(cert)
    assert wl.gate(op, (graph, dropped, fb.verify(graph, dropped)))[1]
    # the audit does not rely on the verifier's own report
    assert wl.gate(op, (graph, dropped, report))[1]


def test_wrong_answers_fail_the_run(capsys, monkeypatch):
    build = wl.BUILD["exact-lp"]

    def corrupted(seed, small):
        ops = build(seed, small)

        def dropped(inner=ops[0].run):
            res, cert = inner()
            return res, drop_first_class(cert)

        def wrong(inner=ops[1].run):
            res, cert = inner()
            return dataclasses.replace(res, optimum=res.optimum * 2), cert

        ops[0] = dataclasses.replace(ops[0], run=dropped)
        ops[1] = dataclasses.replace(ops[1], run=wrong)
        return ops

    monkeypatch.setitem(wl.BUILD, "exact-lp", corrupted)
    argv = ["--workload", "exact-lp", "--seed", "0", "--seconds", "0", "--trace", "0"]
    code = run.main(argv, small=True)
    out = last_json(capsys)
    assert code != 0
    assert not out["correct"]
    assert 0 < out["failed"] / out["attempted"] < 1


def test_runner_fails_without_the_program(tmp_path):
    root = run.HERE.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    argv = ["--workload", "exact-lp", "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run([sys.executable, "perfbench/run.py", *argv], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
