from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra
from tauseq.sequences import (
    apply_steps, enumerate_tau_es, enumerate_tau_es_recursive, mutation_graph,
    transitivity_path,
)
from tauseq.universe import ModuleUniverse
from tauseq.verify import run_suites
from tauseq.wide import all_torsion_classes


def test_a3_mixed_orientation_full_verification():
    # two sources, one sink: same underlying graph as the linear case but a
    # genuinely different algebra (two arrows into one vertex)
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("c", "3", "2")])
    alg = build_algebra(q, FieldSpec(0))
    u = ModuleUniverse(alg)
    assert len(u.modules) == 6
    assert u.certified
    assert len(all_torsion_classes(u)) == 14
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    assert mutation_graph(u, frozenset()).is_connected()
    for r in run_suites(u, ["all"]):
        assert r.ok, "%s: %s" % (r.name, [(c.name, c.failures[:1])
                                          for c in r.checks if not c.ok])


def test_nakayama_cycle_with_radical_square_zero():
    # cyclic quiver with all length-two paths killed: self-injective Nakayama
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    alg = build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "a"]])
    assert alg.dim == 4
    u = ModuleUniverse(alg)
    assert u.certified
    # simples are not rigid here (each extends itself through the cycle), so
    # the projectives carry the whole sequence theory
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    assert mutation_graph(u, frozenset()).is_connected()
    for s1 in seqs:
        for s2 in seqs:
            w = transitivity_path(u, s1, s2)
            assert apply_steps(u, s1, w.steps) == s2
    for r in run_suites(u, ["all"]):
        assert r.ok, "%s failed" % r.name


def test_a4_nakayama_rad_square():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    alg = build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "c"]])
    u = ModuleUniverse(alg)
    assert len(u.modules) == 7
    assert u.certified
    assert len(all_torsion_classes(u)) == 29
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    assert len(seqs) == 66
    assert mutation_graph(u, frozenset()).is_connected()
    for name in ("enumeration", "bijections", "emap", "mutation"):
        (r,) = run_suites(u, [name])
        assert r.ok, name
    # spot-check certified words across the orbit
    for s2 in seqs[::13]:
        w = transitivity_path(u, seqs[0], s2)
        assert apply_steps(u, seqs[0], w.steps) == s2


def test_a4_linear_counts_match_classical_values():
    # 42 torsion classes and 125 complete sequences are forced by known
    # closed-form counts for the linear rank-four path algebra, so they
    # double as an external oracle for the whole pipeline
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    u = ModuleUniverse(build_algebra(q, FieldSpec(0)))
    assert len(u.modules) == 10
    assert len(all_torsion_classes(u)) == 42
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    assert len(seqs) == 125
    assert mutation_graph(u, frozenset()).is_connected()


def test_prime_field_full_verification():
    # the radical of every endomorphism algebra goes through the p-power
    # trace chain here instead of the characteristic-zero trace form
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    alg = build_algebra(q, FieldSpec(3), [["a", "b"]])
    u = ModuleUniverse(alg)
    assert len(u.modules) == 5
    assert u.certified
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    assert len(seqs) == 12
    for r in run_suites(u, ["all"]):
        assert r.ok, "%s failed over GF(3)" % r.name


def test_d4_subspace_quiver_slow():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")])
    alg = build_algebra(q, FieldSpec(0))
    u = ModuleUniverse(alg)
    assert len(u.modules) == 12
    assert u.certified
    assert len(all_torsion_classes(u)) == 50
    seqs = enumerate_tau_es(u, frozenset())
    assert seqs == enumerate_tau_es_recursive(u, frozenset())
    # complete exceptional sequences of a Dynkin quiver of type D_n number
    # 2 (n - 1)^n
    assert len(seqs) == 2 * 3 ** 4 == 162
    g = mutation_graph(u, frozenset())
    assert g.is_connected()
    # spot-check normalization words across the orbit
    for s2 in seqs[:: max(1, len(seqs) // 12)]:
        w = transitivity_path(u, seqs[0], s2)
        assert apply_steps(u, seqs[0], w.steps) == s2


def test_a5_linear_complete_sequences():
    # complete exceptional sequences of linear A_n number (n + 1)^(n - 1)
    q = Quiver(["1", "2", "3", "4", "5"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5")])
    u = ModuleUniverse(build_algebra(q, FieldSpec(0)))
    assert len(u.modules) == 15
    assert len(enumerate_tau_es(u, frozenset())) == 6 ** 4 == 1296
