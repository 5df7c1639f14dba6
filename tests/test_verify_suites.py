import pytest

import tauseq.verify
from tauseq.emap import engine_for
from tauseq.sequences import is_gen_minimal
from tauseq.universe import ModuleUniverse
from tauseq.verify import run_suites, suite_bijections, suite_emap
from tauseq.wide import all_torsion_classes, ambient_context, rel_str_indecs


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
    """Flipping any one memoized reduction value must make a named suite fail
    with a counterexample certificate."""
    u, engine = _fresh_universe_with_warm_memo(a2)
    clean_memo = dict(engine.memo)
    all_values = rel_str_indecs(u, ambient_context(u))
    for key in sorted(clean_memo, key=repr):
        honest = clean_memo[key]
        wrong = next(v for v in all_values if v != honest)
        engine.memo.clear()
        engine.memo.update(clean_memo)
        u.cache.pop("mutation_tables", None)
        engine.inject_fault(key, wrong)
        try:
            report = suite_emap(u)
            assert not report.ok, "fault at %r went unnoticed" % (key,)
            failures = [f for c in report.checks for f in c.failures]
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
