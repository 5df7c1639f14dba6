import json
import os
import subprocess
import sys
import textwrap

import pytest

from tauseq.cli import main

HERE = os.path.dirname(__file__)
ALGEBRAS = os.path.join(HERE, "..", "algebras")


def path(name):
    return os.path.join(ALGEBRAS, name)


def src_env():
    """The environment for a fresh interpreter that imports this checkout."""
    env = dict(os.environ)
    src = os.path.join(HERE, "..", "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_inspect_a2(capsys):
    code, out, err = run(capsys, "inspect", path("a2.json"))
    assert code == 0
    assert "dimension 3, rank 2, 3 indecomposables, certified" in out


def test_inspect_loop_fails_with_exit_2(capsys):
    code, out, err = run(capsys, "inspect", path("loop.json"))
    assert code == 2
    assert "InfiniteDimensional" in err


def test_inspect_missing_file(capsys):
    code, out, err = run(capsys, "inspect", path("nonexistent.json"))
    assert code == 2


def test_inspect_json_is_deterministic(capsys):
    code1, out1, _ = run(capsys, "inspect", path("a3.json"), "--json")
    code2, out2, _ = run(capsys, "inspect", path("a3.json"), "--json")
    assert code1 == code2 == 0
    assert out1 == out2
    doc = json.loads(out1)
    assert doc["schema"] == 1
    assert doc["algebra"]["rank"] == 3
    assert len(doc["algebra"]["indecomposables"]) == 6


def test_tes_enumerate_counts(capsys):
    code, out, _ = run(capsys, "tes", path("a2.json"), "enumerate")
    assert code == 0
    assert out.startswith("3 sequences")
    code, out, _ = run(capsys, "tes", path("a3.json"), "enumerate", "--json")
    assert code == 0
    assert json.loads(out)["count"] == 16


def test_tes_enumerate_with_wide_selector(capsys):
    # J(P1) over A2 is add S2; the unique sequence with that perpendicular
    # subcategory is (P1) itself
    code, out, _ = run(capsys, "tes", path("a2.json"), "enumerate",
                       "--j", "P1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 1
    assert doc["sequences"] == ["(11#1)"]


def test_tes_mutate_round_trip(capsys):
    code, out, _ = run(capsys, "tes", path("a2.json"), "mutate",
                       "--seq", "(S1,S2)", "--op", "phi", "--index", "1")
    assert code == 0
    mutated = out.strip()
    code, out, _ = run(capsys, "tes", path("a2.json"), "mutate",
                       "--seq", mutated, "--op", "psi", "--index", "1")
    assert code == 0
    assert out.strip() == "(10#1,01#1)"  # (S1, S2) echoed back


def test_tes_path(capsys):
    code, out, _ = run(capsys, "tes", path("a2.json"), "path",
                       "--from", "(S1,S2)", "--to", "(P1,S1)")
    assert code == 0
    assert "applied: OK" in out
    assert "bfs distance 1" in out


def test_tes_path_rejects_mismatched_j(capsys):
    code, out, err = run(capsys, "tes", path("a2.json"), "path",
                         "--from", "(S2)", "--to", "(S1)")
    assert code == 2
    assert "DifferentJ" in err


def test_tes_graph_dot(capsys, tmp_path):
    target = tmp_path / "g.dot"
    code, out, _ = run(capsys, "tes", path("a2.json"), "graph",
                       "--dot", str(target))
    assert code == 0
    body = target.read_text()
    assert body.startswith("graph mutation {")
    assert body.count(" -- ") == 3
    assert "connected" in out


def test_verify_all_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", path("a2.json"), "--suite", "all")
    assert code == 0
    for suite in ("enumeration", "bijections", "emap", "mutation",
                  "transitivity"):
        assert "suite %s: pass" % suite in out


def test_verify_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "verify", path("a2.json"),
                         "--suite", "mutation", "--json")
    code2, out2, _ = run(capsys, "verify", path("a2.json"),
                         "--suite", "mutation", "--json")
    assert code1 == code2 == 0 and out1 == out2
    doc = json.loads(out1)
    assert doc["passed"] is True


def test_verify_reports_a_diagnostic_in_the_counts(capsys, monkeypatch):
    """A diagnostic raised while counting is a verification failure with
    exit code 1: the report still prints, with the counts left out."""
    import tauseq.wide
    from tauseq.errors import Mismatch

    def broken(u):
        raise Mismatch("brick count differs")
    monkeypatch.setattr(tauseq.wide, "all_wide_subcategories", broken)
    a2 = os.path.join(HERE, "..", "perfbench", "algebras", "a2.json")
    code, out, _ = run(capsys, "verify", a2, "--suite", "enumeration", "--json")
    assert code == 1
    doc = json.loads(out)
    assert doc["passed"] is False
    assert doc["counts"] is None and doc["mutation_graph"] is None
    assert doc["diagnostic"] == "Mismatch: brick count differs"
    assert [s["passed"] for s in doc["suites"]] == [True]


def test_malformed_algebra_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"characteristic": 0}, "vertices": ["1"]}')
    code, out, err = run(capsys, "inspect", str(bad))
    assert code == 2
    assert "arrows" in err
    bad.write_text('{"field": {"characteristic": 4}, "vertices": ["1"], "arrows": []}')
    code, out, err = run(capsys, "inspect", str(bad))
    assert code == 2


A2 = {"field": {"characteristic": 0}, "vertices": ["1", "2"],
      "arrows": [{"name": "a", "from": "1", "to": "2"}], "relations": []}
MALFORMED = {
    "duplicate_vertex_ids": dict(A2, vertices=["1", "1"]),
    "duplicate_arrow_names": dict(A2, arrows=[{"name": "a", "from": "1", "to": "2"}] * 2),
    "vertices_not_a_list": dict(A2, vertices=2),
    "arrows_not_a_list": dict(A2, arrows=3),
    "relations_not_a_list": dict(A2, relations=4),
    "relation_not_a_list": dict(A2, relations=[5]),
    "no_vertices": dict(A2, vertices=[], arrows=[]),
    "non_integral_characteristic": dict(A2, field={"characteristic": 2.5}),
    "infinite_characteristic": dict(A2, field={"characteristic": float("inf")}),
    "top_level_not_an_object": 5,
}


@pytest.mark.parametrize("case", sorted(MALFORMED) + ["dot_into_a_missing_directory"])
def test_malformed_input_exits_2_without_a_traceback(case, tmp_path):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps(MALFORMED.get(case, A2)))
    if case == "dot_into_a_missing_directory":
        argv = ["tes", str(algebra), "graph", "--dot", str(tmp_path / "missing" / "g.dot")]
    else:
        argv = ["inspect", str(algebra)]
    proc = subprocess.run([sys.executable, "-m", "tauseq.cli"] + argv, env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_cli_commands_run_without_importing_sympy():
    # sympy is only the factorization fallback for minimal polynomials of
    # degree 3 and up, which no corpus algebra needs; a fresh interpreter
    # keeps it out of sys.modules through whole commands
    script = textwrap.dedent("""
        import contextlib, io, sys
        from tauseq.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["inspect", %r, "--json"]) == 0
            assert main(["verify", %r, "--suite", "all", "--json"]) == 0
        assert "sympy" not in sys.modules, "sympy was imported"
        """ % (path("a3.json"), path("a2.json")))
    proc = subprocess.run([sys.executable, "-c", script], env=src_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_tes_j_refuses_objects_that_are_not_support_tau_rigid(capsys):
    # none of these is a basic support tau-rigid object of A3, so there is
    # no J(T) to enumerate or draw
    for command in ("enumerate", "graph"):
        for obj in ("(S1,S2)", "(P1,P1[1])", "(S1,S1)", "(P2[1],S2)"):
            code, out, err = run(capsys, "tes", path("a3.json"), command,
                                 "--j", obj)
            assert (code, out) == (2, ""), (command, obj)
            assert "NotTauRigid" in err


def test_tes_mutate_refuses_an_input_that_is_not_a_sequence(capsys):
    # 010#1 lies outside J(110#1) within J(100#1), so this is no sequence;
    # mutation at position 2 alone only sees the valid pair (110#1,100#1)
    code, out, err = run(capsys, "tes", path("a3.json"), "mutate",
                         "--seq", "(010#1,110#1,100#1)", "--op", "phi",
                         "--index", "2")
    assert (code, out) == (2, "")
    assert "NotTauRigid" in err


@pytest.mark.parametrize("seq, index, message", [
    ("()", "1", "position 1 not mutable: a sequence of length 0 has no adjacent pair"),
    ("(001#1)", "1",
     "position 1 not mutable: a sequence of length 1 has no adjacent pair"),
    ("(001#1,100#1,011#1)", "3",
     "position 3 not mutable in a sequence at positions 1..3"),
])
def test_tes_mutate_out_of_range_names_the_missing_pair(seq, index, message, capsys):
    a3 = os.path.join(HERE, "..", "perfbench", "algebras", "a3.json")
    code, out, err = run(capsys, "tes", a3, "mutate", "--seq", seq,
                         "--op", "phi", "--index", index)
    assert (code, out, err) == (2, "", "error: IndexOutOfRange: %s\n" % message)


@pytest.mark.parametrize("argv", [
    ["mutate", "--seq", "(S9,S1)", "--op", "phi", "--index", "1"],
    ["enumerate", "--j", "(S9[1])"],
])
def test_unknown_label_is_reported_without_stray_quotes(argv, capsys):
    a2 = os.path.join(HERE, "..", "perfbench", "algebras", "a2.json")
    code, out, err = run(capsys, "tes", a2, *argv)
    assert (code, out, err) == (2, "", "error: unknown module label 'S9'\n")


def test_a_traced_inspect_bench_run_is_correct():
    # the tracer rebinds tauseq functions by name and reads return values
    # (its universe.enumerate hook counts the found list), so only a traced
    # run notices a renamed target or a changed return shape
    bench = os.path.join(HERE, "..", "perfbench", "run.py")
    proc = subprocess.run([sys.executable, bench, "--workload", "inspect", "--seed", "1",
                           "--seconds", "1", "--trace", "1"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.splitlines()[-1])
    assert (last["correct"], last["failed"]) == (True, 0), proc.stdout
