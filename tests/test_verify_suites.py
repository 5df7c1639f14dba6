import pytest

import tauseq.verify
from tauseq.emap import engine_for
from tauseq.errors import Mismatch
from tauseq.sequences import is_gen_minimal
from tauseq.universe import ModuleUniverse
from tauseq.verify import run_suites, suite_bijections, suite_emap
from tauseq.wide import all_torsion_classes, ambient_context, rel_str_indecs
from test_wide import _nakayama2


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


def test_all_suites_pass_on_all_algebras(a2, a3, a3rad2):
    for alg in (a2, a3, a3rad2):
        u = ModuleUniverse(alg)
        reports = run_suites(u, ["all"])
        for r in reports:
            assert r.ok, "%s failed: %s" % (
                r.name, [(c.name, c.failures[:1]) for c in r.checks if not c.ok])


def test_suite_reports_are_serializable(u2):
    import json
    reports = run_suites(u2, ["enumeration", "mutation"])
    for r in reports:
        doc = json.dumps(r.as_dict(), sort_keys=True)
        assert '"suite"' in doc


def test_unknown_suite_rejected(u2):
    with pytest.raises(KeyError):
        run_suites(u2, ["nonsense"])


def _fresh_universe_with_warm_memo(algebra):
    u = ModuleUniverse(algebra)
    report = suite_emap(u)
    assert report.ok
    return u, engine_for(u)


def test_every_single_emap_fault_is_detected(a2):
    """Setting any one memoized reduction value to any wrong value must make
    the emap suite fail with counterexample certificates, and no suite that
    reads the reduction may raise."""
    u, engine = _fresh_universe_with_warm_memo(a2)
    clean_memo = dict(engine.memo)
    all_values = rel_str_indecs(u, ambient_context(u))
    faults = [(key, wrong) for key in sorted(clean_memo, key=repr)
              for wrong in all_values if wrong != clean_memo[key]]
    assert len(faults) == 62
    for key, wrong in faults:
        engine.memo.clear()
        engine.memo.update(clean_memo)
        u.cache.pop("mutation_tables", None)
        engine.inject_fault(key, wrong)
        try:
            reports = run_suites(u, ["emap", "mutation", "transitivity"])
            assert [r.name for r in reports] == ["emap", "mutation", "transitivity"]
            assert not reports[0].ok, "fault %r -> %r went unnoticed" % (key, wrong)
            failures = [f for c in reports[0].checks for f in c.failures]
            assert failures and all(isinstance(f, dict) for f in failures)
        finally:
            engine.clear_faults()
    engine.memo.clear()
    engine.memo.update(clean_memo)
    u.cache.pop("mutation_tables", None)
    assert suite_emap(u).ok


def test_fault_detection_spot_checks_larger_algebra(a3rad2):
    u, engine = _fresh_universe_with_warm_memo(a3rad2)
    clean_memo = dict(engine.memo)
    all_values = rel_str_indecs(u, ambient_context(u))
    keys = sorted(clean_memo, key=repr)
    for key in keys[:: max(1, len(keys) // 6)]:
        honest = clean_memo[key]
        wrong = next(v for v in all_values if v != honest)
        engine.memo.clear()
        engine.memo.update(clean_memo)
        u.cache.pop("mutation_tables", None)
        engine.inject_fault(key, wrong)
        try:
            report = suite_emap(u)
            assert not report.ok, "fault at %r went unnoticed" % (key,)
        finally:
            engine.clear_faults()
    engine.memo.clear()
    engine.memo.update(clean_memo)
    u.cache.pop("mutation_tables", None)
    assert suite_emap(u).ok


def test_every_corrupted_gen_minimality_answer_is_detected(a2, monkeypatch):
    """Flipping the summand test on any one rigid module must make the
    bijections suite fail, with that module as the certificate."""
    u = ModuleUniverse(a2)
    genmin = "gen-minimal definition matches characterization"
    for bad in u.all_tau_rigid_subsets():
        def corrupted(u, ids, bad=bad):
            return is_gen_minimal(u, ids) != (tuple(sorted(ids)) == bad)
        monkeypatch.setattr(tauseq.verify, "is_gen_minimal", corrupted)
        report = suite_bijections(u)
        check = next(c for c in report.checks if c.name == genmin)
        assert not report.ok
        assert check.failures == [{"module": [u.labels[i] for i in bad]}]
    monkeypatch.undo()
    assert suite_bijections(u).ok


def test_a_torsion_class_not_closed_under_extensions_is_detected(a2):
    """{01#1, 10#1} is closed under quotients but not under extensions (the
    projective 11#1 is an extension of the two simples); put in the torsion
    list, it must fail the closure check with itself as the certificate."""
    u = ModuleUniverse(a2)
    torsion = all_torsion_classes(u)
    torsion[-1] = frozenset(u.id_of_label(x) for x in ("01#1", "10#1"))
    report = suite_bijections(u)
    check = next(c for c in report.checks
                 if c.name == "torsion classes are closed under quotients and extensions")
    assert check.total == len(torsion)
    assert check.failures == [{"torsion": ["01#1", "10#1"]}]


def test_every_hom_fault_that_changes_a_zero_pattern_is_detected(a2, a3, a3rad2):
    """Moving one entry of the hom table by one, before anything reads it,
    must never make a suite raise.  The library reads only which entries are
    zero, plus the diagonal, so every fault that changes those must fail some
    suite; a nonzero off-diagonal entry moved to another nonzero value can go
    unnoticed."""
    faults = detected = 0
    for alg in (a2, a3, a3rad2, _nakayama2([["a", "b"], ["b", "a"]])):
        count = len(ModuleUniverse(alg).modules)
        for i in range(count):
            for j in range(count):
                for step in (1, -1):
                    u = ModuleUniverse(alg)
                    old = u.hom[i][j]
                    if old + step < 0:
                        continue
                    u.hom[i][j] = old + step
                    faults += 1
                    reports = run_suites(u, ["all"])
                    assert [r.name for r in reports] == list(tauseq.verify.SUITES)
                    if i == j or (old == 0) != (old + step == 0):
                        detected += 1
                        assert not all(r.ok for r in reports), \
                            "Hom(%s, %s) %d -> %d went unnoticed" % (
                                u.labels[i], u.labels[j], old, old + step)
    assert (faults, detected) == (126, 104)


def test_a_suite_that_raises_is_reported_as_a_failed_check(a2, monkeypatch):
    def broken(u):
        raise Mismatch("brick count differs")
    monkeypatch.setattr(tauseq.verify, "all_wide_subcategories", broken)
    bij, enum = run_suites(ModuleUniverse(a2), ["bijections", "enumeration"])
    assert enum.ok
    assert bij.as_dict() == {
        "suite": "bijections", "passed": False,
        "checks": [{"name": "suite ran to completion", "total": 1, "failed": 1,
                    "failures": [{"suite": "bijections",
                                  "diagnostic": "Mismatch: brick count differs"}]}]}
