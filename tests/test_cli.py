"""Command-line behaviors: outputs, exit codes, determinism."""
import hashlib
import json
import sys
import time

import pytest

from fracbal.cli import main
from fracbal.gadgets import BuildTrace, Op2
from fracbal.sgraph import parse_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_w_prime(capsys):
    code, out, _ = run(capsys, "build", "w-prime")
    assert code == 0
    g = parse_graph(out)
    assert len(g.vertices) == 16


def test_build_is_byte_identical(capsys):
    _, first, _ = run(capsys, "build", "u-hat")
    _, second, _ = run(capsys, "build", "u-hat")
    assert first == second


def test_build_g_seq_level(capsys):
    code, out, _ = run(capsys, "build", "g-seq", "--i", "1")
    assert code == 0
    assert len(parse_graph(out).vertices) == 130


def test_enumerate_balanced_maximal(tmp_path, capsys):
    code, out, _ = run(capsys, "build", "w-hat")
    graph_file = tmp_path / "w.json"
    graph_file.write_text(out)
    code, out, _ = run(
        capsys, "enumerate", str(graph_file), "--maximal", "--contains", "u,v"
    )
    assert code == 0
    sets = json.loads(out)
    assert len(sets) == 8
    assert all({"u", "v"} <= set(s) for s in sets)


def test_enumerate_guard_exit_code(tmp_path, capsys):
    _, out, _ = run(capsys, "build", "w-prime")
    f = tmp_path / "wp.json"
    f.write_text(out)
    code, _, err = run(capsys, "enumerate", str(f), "--guard", "4")
    assert code == 3
    assert "guard" in err


def test_solve_chi_fb(tmp_path, capsys):
    _, out, _ = run(capsys, "build", "k3-minus")
    f = tmp_path / "k3.json"
    f.write_text(out)
    code, out, _ = run(capsys, "solve", "chi-fb", str(f))
    assert code == 0
    doc = json.loads(out)
    assert doc["optimum"] == "3/2"
    assert doc["dual"]
    code, out, _ = run(capsys, "solve", "chi-fb", str(f), "--column-generation")
    assert code == 0
    assert json.loads(out)["optimum"] == "3/2"


def test_solve_empty_graph_is_zero(tmp_path, capsys):
    f = tmp_path / "empty.json"
    f.write_text('{"vertices": [], "edges": []}')
    for problem in ("chi-fb", "a-f"):
        code, out, err = run(capsys, "solve", problem, str(f))
        assert (code, err) == (0, "")
        assert json.loads(out) == {"optimum": "0", "primal": [], "dual": {}}
        code, out, _ = run(capsys, "solve", problem, str(f), "--column-generation")
        assert code == 0
        assert json.loads(out)["optimum"] == "0"


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# sha256 prefixes of the exact standard output; any change to the pivot
# path, the certificates or the formatting moves them
@pytest.mark.parametrize(
    "name, argv, digest",
    [
        ("w-hat", ("chi-fb",), "13f482a536e9fc43"),
        ("w-hat", ("a-f",), "8884922a7e747ab1"),
        ("w-prime", ("chi-fb",), "365b70584052eafa"),
        ("w-prime", ("chi-fb", "--column-generation"), "73527b9e1864043e"),
    ],
)
def test_solve_output_is_pinned(tmp_path, capsys, name, argv, digest):
    graph = tmp_path / f"{name}.json"
    assert run(capsys, "build", name, "--out", str(graph))[0] == 0
    problem, *flags = argv
    code, out, _ = run(capsys, "solve", problem, str(graph), *flags)
    assert code == 0
    assert _digest(out) == digest


# sha256 prefixes of the exact standard output of ``enumerate``, with the
# number of sets; any change to the sets or their order moves them
@pytest.mark.parametrize(
    "name, flags, digest, count",
    [
        ("w-double-prime", ("--maximal",), "95ff3c023269ff52", 3501),
        ("w-double-prime", ("--maximal", "--property", "acyclic"), "c8b0e72ae52047f4", 2370),
        (
            "w-double-prime", ("--maximal", "--contains", "u,v", "--forbid", "c3"),
            "ad7340db504f40f8", 201,
        ),
        ("w-prime", (), "861b632e008236da", 13729),
        ("w-prime", ("--property", "acyclic"), "c0e371d5acfea951", 9810),
    ],
)
def test_enumerate_output_is_pinned(tmp_path, capsys, name, flags, digest, count):
    graph = tmp_path / f"{name}.json"
    assert run(capsys, "build", name, "--out", str(graph))[0] == 0
    code, out, _ = run(capsys, "enumerate", str(graph), *flags)
    assert code == 0
    assert (_digest(out), len(json.loads(out))) == (digest, count)


# sha256 prefixes of the exact standard output of the report commands; CERT
# stands for the (172, 85) fixture written out with to_json()
_PINNED_REPORTS = {
    ("reproduce", "all"): "2a0039696de74c29",
    ("reproduce", "lemma-3.1"): "87f41cbd111926b5",
    ("check", "lemma-3.1"): "f7c89a68fa95e010",
    ("check", "forest-lemmas"): "0864807e54a98af0",
    ("check", "triangle-signs"): "acf716ca5ff3992f",
    ("audit-triangle", "CERT", "--triangle", "w,x1,x2", "--sign", "-1"): "c17fa26d6af2f3f5",
    ("audit-triangle", "CERT", "--triangle", "u,x1,x2", "--sign", "-1"): "2a95282d979d0f2f",
    ("audit-triangle", "CERT", "--triangle", "w,x1,x2", "--sign", "1"): "e476c8217ed683af",
    ("audit-triangle", "CERT", "--triangle", "u,x1,x2", "--sign", "1"): "ad6e93fcadec82b6",
}


def test_reproduce_all_output_is_pinned(tmp_path, capsys):
    from fracbal.tables import w_coloring_172_85

    cert = tmp_path / "t1.json"
    cert.write_text(w_coloring_172_85().to_json())
    got = {}
    for argv in _PINNED_REPORTS:
        code, out, _ = run(capsys, *(str(cert) if a == "CERT" else a for a in argv))
        assert code == 0, argv
        got[argv] = _digest(out)
    assert got == _PINNED_REPORTS


def test_verify_pass_and_fail(tmp_path, capsys):
    _, gout, _ = run(capsys, "build", "w-hat")
    gfile = tmp_path / "w.json"
    gfile.write_text(gout)
    good = {
        "p": 3, "q": 1, "mode": "balanced",
        "classes": [
            {"set": ["u", "v", "w", "x2"], "rep": 1},
            {"set": ["x1", "x3", "z", "t"], "rep": 1},
            {"set": ["u", "x4", "x5"], "rep": 1},
        ],
    }
    cfile = tmp_path / "cert.json"
    cfile.write_text(json.dumps(good))
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile))
    assert code == 0 and json.loads(out)["ok"]

    bad = dict(good)
    bad["classes"] = [{"set": ["u", "v", "z"], "rep": 1}]
    cfile.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", str(gfile), str(cfile))
    assert code == 1
    doc = json.loads(out)
    assert not doc["ok"]
    kinds = {v["kind"] for v in doc["violations"]}
    assert "unbalanced-class" in kinds and "undercovered-vertex" in kinds


def test_compose_command(tmp_path, capsys):
    trace = BuildTrace("K3_MINUS", (Op2(("u1", "u2")),))
    tfile = tmp_path / "trace.json"
    tfile.write_text(trace.to_json())
    code, out, _ = run(capsys, "compose-8341", str(tfile))
    assert code == 0
    doc = json.loads(out)
    assert doc["p"] == 83 and doc["q"] == 41


def test_audit_triangle_command(tmp_path, capsys):
    from fracbal.tables import w_coloring_172_85

    cfile = tmp_path / "t1.json"
    cfile.write_text(w_coloring_172_85().to_json())
    code, out, _ = run(
        capsys, "audit-triangle", str(cfile), "--triangle", "w,x1,x2", "--sign", "-1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["missing"] == 4 and doc["strict_property"] is False


def test_audit_triangle_on_a_palette_of_10_to_the_18(tmp_path, capsys):
    # the counts sum the classes' repetitions: a color bitmask per vertex
    # would take 10^17 bits and more
    p, rep = 10**18, 10**17
    classes = [(["a", "b", "c"], rep), (["a", "b"], 2 * rep), (["d"], 3 * rep)]
    cfile = tmp_path / "wide.json"
    cfile.write_text(json.dumps({
        "p": p, "q": 1, "mode": "balanced",
        "classes": [{"set": s, "rep": r} for s, r in classes],
    }))
    for sign in ("-1", "1"):
        code, out, _ = run(capsys, "audit-triangle", str(cfile), "--triangle", "a,b,c", "--sign", sign)
        assert code == 0
        assert json.loads(out) == {
            "triangle": ["a", "b", "c"], "sign": int(sign),
            "missing": p - 3 * rep, "common": rep, "strict_property": False,
        }


def test_bounds_commands(capsys):
    code, out, _ = run(capsys, "bounds", "thresholds")
    assert code == 0
    doc = json.loads(out)
    assert set(doc.values()) == {"83/41", "172/85", "52/25"}
    code, out, _ = run(capsys, "bounds", "mu", "--p", "2", "--q", "1", "--i", "1")
    assert code == 0
    doc = json.loads(out)
    assert doc["mu"] == "-1" and doc["first-infeasible-index"] == 1
    # mu at i = 3000 has 3,967 digits, within the default limit of 4,300
    code, out, _ = run(capsys, "bounds", "mu", "--i", "3000")
    assert code == 0 and json.loads(out)["mu"] == str((1 - 21**3000) // 20)
    # at 41p = 83q mu is the same at every depth, and 21^i is never built
    start = time.perf_counter()
    code, out, _ = run(capsys, "bounds", "mu", "--p", "83", "--q", "41", "--i", "1000000000")
    assert time.perf_counter() - start < 1
    assert code == 0 and json.loads(out)["mu"] == "2"


def test_bounds_mu_without_the_digit_limit_function(capsys, monkeypatch):
    # Python before 3.10.7 has no sys.get_int_max_str_digits
    argvs = [
        ("bounds", "mu", "--p", "2", "--q", "1", "--i", "1"),
        ("bounds", "mu", "--i", "3000"),
        ("bounds", "mu", "--p", "83", "--q", "41", "--i", "1000000000"),
    ]
    want = [run(capsys, *argv) for argv in argvs]
    monkeypatch.delattr(sys, "get_int_max_str_digits")
    assert [run(capsys, *argv) for argv in argvs] == want


@pytest.mark.parametrize(
    "flags",
    [
        ("--i", "5000"),
        ("--i", "1000000000"),
        ("--p", "25" + "0" * 4298, "--q", "1" + "0" * 4299, "--i", "1"),
    ],
    ids=["i-5000", "i-1e9", "p-q-4300-digits"],
)
def test_bounds_mu_too_long_to_print_exits_2(capsys, flags):
    start = time.perf_counter()
    code, out, err = run(capsys, "bounds", "mu", *flags)
    assert time.perf_counter() - start < 1
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_check_commands(capsys):
    for which in ("lemma-3.1", "forest-lemmas", "triangle-signs"):
        code, out, _ = run(capsys, "check", which)
        assert code == 0
        assert json.loads(out)["ok"]


def test_check_lemma_listing_has_ten_sets(capsys):
    code, out, _ = run(capsys, "check", "lemma-3.1")
    assert code == 0
    assert len(json.loads(out)["sets"]) == 10


def test_reproduce_single_criterion(capsys):
    code, out, _ = run(capsys, "reproduce", "lemma-3.1")
    assert code == 0
    assert "PASS lemma-3.1" in out


def test_usage_error_exit_code(capsys):
    code, _, _ = run(capsys, "build", "no-such-gadget")
    assert code == 2


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_budget_that_cannot_be_honoured_exits_2(tmp_path, capsys, budget):
    # elapsed time is never greater than NaN, so a NaN budget would be
    # silently ignored; a negative one is no budget either
    graph = tmp_path / "k3.json"
    assert run(capsys, "build", "k3-minus", "--out", str(graph))[0] == 0
    code, out, err = run(
        capsys, "solve", "a-f", str(graph), "--column-generation", "--budget-seconds", budget
    )
    assert (code, out) == (2, "")
    assert "Traceback" not in err
    assert err.splitlines()[-1].endswith(
        f"argument --budget-seconds: must be a non-negative number of seconds, got {budget!r}"
    )


@pytest.mark.parametrize(
    "flags, message",
    [
        (("--budget-seconds", "5"), "--budget-seconds applies only with --column-generation"),
        (("--column-generation", "--guard", "5"), "--guard does not apply with --column-generation"),
    ],
    ids=["budget-without-column-generation", "guard-with-column-generation"],
)
def test_solve_flag_the_mode_would_ignore_exits_2(tmp_path, capsys, flags, message):
    graph = tmp_path / "k3.json"
    assert run(capsys, "build", "k3-minus", "--out", str(graph))[0] == 0
    code, out, err = run(capsys, "solve", "chi-fb", str(graph), *flags)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_missing_file_exit_code(tmp_path, capsys):
    code, _, err = run(capsys, "solve", "chi-fb", str(tmp_path / "nope.json"))
    assert code == 2
    assert "cannot read" in err


def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "graph.json"
    code, out, _ = run(capsys, "build", "k4-minus", "--out", str(target))
    assert code == 0 and out == ""
    assert len(parse_graph(target.read_text()).vertices) == 4


_ONE_EDGE = '{"vertices": ["u", "v"], "edges": [{"a": "u", "b": "v", "sign": %s}]}'
_CERT = '{"p": %s, "q": %s, "mode": "balanced", "classes": [{"set": %s, "rep": %s}]}'


# malformed documents at the three JSON boundaries: trace, certificate, graph
_GOOD_GRAPH = _ONE_EDGE % "-1"
_GOOD_CERT = _CERT % (2, 1, '["u"]', 1)
_STEPS = '{"base": "K3_MINUS", "steps": %s}'
_HUGE = "7" * 5000  # more digits than json.loads converts to an int by default


@pytest.mark.parametrize(
    "command, graph, document",
    [
        pytest.param("compose-8341", None, "[1]", id="trace-not-object"),
        pytest.param("compose-8341", None, _STEPS % '{"op": "inner_k4"}', id="steps-not-list"),
        pytest.param("compose-8341", None, _STEPS % "[1]", id="step-not-object"),
        pytest.param("compose-8341", None,
                     _STEPS % '[{"op": "inner_k4", "face": [["u1"], "u2", "u3"]}]',
                     id="face-name-not-string"),
        pytest.param("compose-8341", None,
                     _STEPS % '[{"op": "substitute_w_prime", "edge": ["u1", {}]}]',
                     id="edge-name-not-string"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2, 1, '"uv"', 1), id="set-is-string"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2, 1, '["u", 1]', 1), id="set-name-not-string"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2.0, 1, '["u"]', 1), id="p-float"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2, "true", '["u"]', 1), id="q-bool"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2, 1, '["u"]', 1.5), id="rep-float"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (2, 1, '["u"]', "true"), id="rep-bool"),
        pytest.param("verify", _GOOD_GRAPH, '{"p": 2, "q": 1, "mode": "striped", "classes": []}',
                     id="unknown-mode"),
        pytest.param("verify", _ONE_EDGE % "true", _GOOD_CERT, id="sign-bool"),
        pytest.param("verify", _ONE_EDGE % "1.0", _GOOD_CERT, id="sign-float"),
        pytest.param("verify",
                     '{"vertices": ["u"], "edges": [{"a": ["u"], "b": "u", "sign": 1}]}',
                     _GOOD_CERT, id="endpoint-not-string"),
        pytest.param("compose-8341", None, "[" * 100000, id="trace-too-deep"),
        pytest.param("verify", "[" * 100000, _GOOD_CERT, id="graph-too-deep"),
        pytest.param("verify", _GOOD_GRAPH, "[" * 100000, id="certificate-too-deep"),
        pytest.param("verify", _GOOD_GRAPH, b'{"p": 2, "q": 1, "mode": "\xff"}', id="not-utf-8"),
        pytest.param("compose-8341", None, _STEPS % _HUGE, id="trace-huge-int"),
        pytest.param("verify", _ONE_EDGE % _HUGE, _GOOD_CERT, id="graph-huge-int"),
        pytest.param("verify", _GOOD_GRAPH, _CERT % (_HUGE, 1, '["u"]', 1), id="certificate-huge-int"),
    ],
)
def test_malformed_json_exits_2(tmp_path, capsys, command, graph, document):
    doc = tmp_path / "doc.json"
    if isinstance(document, bytes):
        doc.write_bytes(document)
    else:
        doc.write_text(document)
    argv = [command, str(doc)]
    if graph is not None:
        gfile = tmp_path / "graph.json"
        gfile.write_text(graph)
        argv = [command, str(gfile), str(doc)]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "Traceback" not in err


def test_unwritable_out_exits_2(tmp_path, capsys):
    target = tmp_path / "missing-dir" / "x.json"
    code, out, err = run(capsys, "build", "k3-minus", "--out", str(target))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot write {target}: ") and "Traceback" not in err
