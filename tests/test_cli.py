import json
import os

from tauseq.cli import main

HERE = os.path.dirname(__file__)
ALGEBRAS = os.path.join(HERE, "..", "algebras")


def path(name):
    return os.path.join(ALGEBRAS, name)


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


def test_malformed_algebra_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"field": {"characteristic": 0}, "vertices": ["1"]}')
    code, out, err = run(capsys, "inspect", str(bad))
    assert code == 2
    assert "arrows" in err
    bad.write_text('{"field": {"characteristic": 4}, "vertices": ["1"], "arrows": []}')
    code, out, err = run(capsys, "inspect", str(bad))
    assert code == 2
