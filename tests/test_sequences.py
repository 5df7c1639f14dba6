import itertools
import os
import sys
from collections import Counter

import pytest

from tauseq import modules, wide
from tauseq.cli import load_algebra_file
from tauseq.errors import (
    DifferentJ, Incompatible, IndexOutOfRange, Mismatch, NotTauRigid, NotTFOrdered,
    UnknownMutation,
)
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra
from tauseq import sequences
from tauseq.sequences import (
    MutationWord, apply_steps, bridge, enumerate_tau_es, enumerate_tau_es_recursive,
    first_position, is_gen_minimal, mutate, mutation_distance,
    mutation_graph, mutation_table, normalize, omega, omega_inverse, regularity,
    tail_context, tf_orderings, transitivity_path, transposition_word,
)
from tauseq.tables import StrObj
from tauseq.universe import ModuleUniverse
from tauseq.wide import (
    all_torsion_classes, all_wide_subcategories, ambient_context, j_in_context,
    rigid_j,
)
from oracles import is_tf_ordered

HERE = os.path.dirname(__file__)


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def ids(u, *labels):
    return tuple(u.id_of_label(x) for x in labels)


def _algebra_file(*parts):
    return load_algebra_file(os.path.join(HERE, "..", *parts))


def test_tf_orderings_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert is_tf_ordered(u2, (p1, s1))
    assert not is_tf_ordered(u2, (s1, p1))  # S1 lies in Gen P1
    assert is_tf_ordered(u2, (s2, p1))
    assert is_tf_ordered(u2, (p1, s2))
    assert not is_tf_ordered(u2, (s1, s2))  # sum is not rigid


def test_omega_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert omega(u2, (p1, s2)) == (s1, s2)
    assert omega(u2, (s2, p1)) == (s2, p1)
    assert omega(u2, (p1, s1)) == (p1, s1)
    assert omega(u2, (s2,)) == (s2,)
    with pytest.raises(NotTFOrdered):
        omega(u2, (s1, p1))


def test_omega_of_a_non_basic_or_non_rigid_ordering_is_incompatible(u2):
    # omega has no TF pass of its own: the first reduction's compatibility
    # test rejects the sum before any reduction is read
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    with pytest.raises(Incompatible):
        omega(u2, (s1, s2))  # the sum is not rigid
    with pytest.raises(Incompatible):
        omega(u2, (p1, p1))  # not basic


TF_FILES = ["algebras/a2.json", "algebras/a3.json", "algebras/a3rad2.json",
            "perfbench/algebras/a3rad2_gf3.json", "perfbench/algebras/nakayama2_rad2.json",
            "perfbench/algebras/a4.json", "algebras/d4.json", "perfbench/algebras/a5.json"]


@pytest.mark.parametrize("path", TF_FILES)
def test_tf_orderings_and_omega_match_the_definition(path):
    # on every rigid set, the walk lists exactly the permutations that the
    # whole-ordering definition accepts, in itertools.permutations order,
    # and omega raises NotTFOrdered exactly on the others
    u = ModuleUniverse(_algebra_file(*path.split("/")))
    for rigid in u.all_tau_rigid_subsets():
        perms = list(itertools.permutations(rigid))
        assert tf_orderings(u, rigid) == [p for p in perms if is_tf_ordered(u, p)]
        for p in perms:
            if is_tf_ordered(u, p):
                assert omega_inverse(u, omega(u, p)) == p
            else:
                with pytest.raises(NotTFOrdered):
                    omega(u, p)


def test_omega_inverse_round_trip(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    for tf in ((p1, s2), (s2, p1), (p1, s1)):
        assert omega_inverse(u2, omega(u2, tf)) == tf
    assert omega_inverse(u2, (s1, s2)) == (p1, s2)
    assert omega_inverse(u2, (p1, s1)) == (p1, s1)


def test_complete_sequences_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    seqs = enumerate_tau_es(u2, frozenset())
    assert sorted(seqs) == sorted([(s1, s2), (s2, p1), (p1, s1)])
    assert enumerate_tau_es_recursive(u2, frozenset()) == seqs


def test_j_of_sequence(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert tail_context(u2, (s1, s2)).members == frozenset()
    assert tail_context(u2, (s2,)).members == frozenset({s1})


@pytest.mark.parametrize("name", ["a3", "a3rad2", "nakayama_cycle"])
def test_j_of_a_sequence_is_j_of_its_preimage_sum(name, request):
    # the recursive J of a sequence against the perpendicular category of the
    # unordered preimage sum, on every sequence of every family
    if name == "nakayama_cycle":
        q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
        algebra = build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "a"]])
    else:
        algebra = request.getfixturevalue(name)
    u = ModuleUniverse(algebra)
    amb = ambient_context(u)
    for w in all_wide_subcategories(u):
        for s in enumerate_tau_es(u, w):
            direct = j_in_context(u, amb, StrObj.make(omega_inverse(u, s)))
            assert tail_context(u, s).members == direct == w


def test_phi_three_cycle(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    table = mutation_table(u2, ambient_context(u2))
    assert table.apply("phi", (s1, s2)) == (p1, s1)
    assert table.apply("phi", (p1, s1)) == (s2, p1)
    assert table.apply("phi", (s2, p1)) == (s1, s2)
    for p in ((s1, s2), (p1, s1), (s2, p1)):
        assert table.apply("psi", table.apply("phi", p)) == p


def test_regularity_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    left, right = regularity(u2, amb, (s1, s2))
    assert left  # second entry is projective
    left, right = regularity(u2, amb, (s2, p1))
    assert left
    left, right = regularity(u2, amb, (p1, s1))
    assert left


def test_mutate_indices(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert mutate(u2, (s1, s2), "phi", 1) == (p1, s1)
    assert mutate(u2, mutate(u2, (s1, s2), "phi", 1), "psi", 1) == (s1, s2)
    with pytest.raises(IndexOutOfRange):
        mutate(u2, (s1, s2), "phi", 2)


def test_a_mutation_is_named_phi_or_psi(a3):
    # a library caller gets no --op check: any other name is refused, not
    # read as psi
    u = ModuleUniverse(a3)
    seq = ids(u, "001#1", "100#1", "011#1")
    assert mutate(u, seq, "phi", 2) == ids(u, "001#1", "111#1", "100#1")
    assert mutate(u, seq, "psi", 2) == ids(u, "001#1", "011#1", "111#1")
    for op in ("PHI", "left", ""):
        with pytest.raises(UnknownMutation, match=repr(op)):
            mutate(u, seq, op, 2)


def test_a_word_with_an_unknown_mutation_has_no_inverse():
    # inverting names the op as applying the word does, not a bare KeyError
    assert MutationWord((("phi", 2, 1), ("psi", 1, 3))).inverse_steps() == \
        (("phi", 1, 3), ("psi", 2, 1))
    for op in ("PHI", "left", ""):
        with pytest.raises(UnknownMutation, match=repr(op)):
            MutationWord((("phi", 1, 1), (op, 1, 1))).inverse_steps()


def test_gen_minimality(u2):
    # the summand test is the only route; the bijections suite holds the
    # split-projective characterization
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert is_gen_minimal(u2, (p1, s2))
    assert not is_gen_minimal(u2, (p1, s1))  # S1 lies in Gen P1
    assert is_gen_minimal(u2, (s1,))
    assert is_gen_minimal(u2, ())
    with pytest.raises(NotTauRigid):
        is_gen_minimal(u2, (s1, s2))


def test_normalize_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    nf, word = normalize(u2, (p1, s1))
    assert nf == (s2, p1)
    assert word.steps == (("phi", 1, 1),)
    nf, word = normalize(u2, (s2, p1))
    assert nf == (s2, p1) and word.steps == ()


def test_transposition_word_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    w = transposition_word(u2, (s1, s2), 1, (s2, p1))
    assert w.steps == (("psi", 1, 1),)
    w = transposition_word(u2, (s1, s2), 1, (s1, s2))
    assert w.steps == ()


def test_bridge_between_normal_forms(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert bridge(u2, (s2, p1), (s2, p1)) == []
    # (S1, S2) has preimage P1 + S2, (P1, S1) has preimage P1 + S1
    with pytest.raises(Mismatch):
        bridge(u2, (s1, s2), (p1, s1))


def test_bridge_connects_every_pair_of_normal_forms(u3r):
    # the normal forms are the six orderings of the one gen-minimal sum
    forms = {normalize(u3r, s)[0] for s in enumerate_tau_es(u3r, frozenset())}
    assert len(forms) == 6
    for a in forms:
        for b in forms:
            steps = bridge(u3r, a, b)
            assert apply_steps(u3r, a, steps) == b
            assert bool(steps) == (a != b)


def test_transitivity_paths_a2(u2):
    seqs = enumerate_tau_es(u2, frozenset())
    for a in seqs:
        for b in seqs:
            w = transitivity_path(u2, a, b)
            assert apply_steps(u2, a, w.steps) == b


def test_transitivity_rejects_different_j(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    with pytest.raises(DifferentJ):
        transitivity_path(u2, (s2,), (s1,))


def test_mutation_graph_a2(u2):
    g = mutation_graph(u2, frozenset())
    assert len(g.vertices) == 3
    assert g.is_connected()
    # the single mutation position acts as one 3-cycle
    forward = {g.vertices[a]: g.vertices[b] for a, b, _, _ in g.edges}
    start = g.vertices[0]
    x = forward[forward[forward[start]]]
    assert x == start


def test_irregular_pair_on_a3_is_matched_by_leftover(a3):
    # over the linear three-vertex algebra the ambient pair (S1, S2) is left
    # irregular (S2 is not projective but is Ext-projective against the
    # translate of the lifted first entry) and its mutation is forced by
    # bijectivity on the group rather than by the formula
    u = ModuleUniverse(a3)
    amb = ambient_context(u)
    s1, s2 = u.id_of_label("S1"), u.id_of_label("S2")
    m12 = u.id_of_label("110#1")
    left, right = regularity(u, amb, (s1, s2))
    assert not left and right
    left, right = regularity(u, amb, (m12, s1))
    assert left and not right
    table = mutation_table(u, amb)
    assert (s1, s2) in table.left_irregular
    assert (m12, s1) in table.right_irregular
    assert table.phi[(s1, s2)] == (m12, s1)
    assert table.psi[(m12, s1)] == (s1, s2)


def test_graph_over_the_whole_category_is_one_empty_sequence(u2):
    g = mutation_graph(u2, frozenset(range(len(u2.modules))))
    assert g.vertices == [()]
    assert g.edges == []
    assert g.is_connected()


def test_tau_es_counts_a3rad2(u3r):
    primary = enumerate_tau_es(u3r, frozenset())
    oracle = enumerate_tau_es_recursive(u3r, frozenset())
    assert primary == oracle
    assert len(primary) == 12
    g = mutation_graph(u3r, frozenset())
    assert g.is_connected()


def test_transitivity_a3rad2(u3r):
    seqs = enumerate_tau_es(u3r, frozenset())
    a = seqs[0]
    for b in seqs:
        w = transitivity_path(u3r, a, b)
        assert apply_steps(u3r, a, w.steps) == b


def test_normalize_bound_comes_from_the_tables(a3rad2):
    # the round bound counts support tau-tilting objects; the brute-force
    # torsion classes stay an oracle of the verify suites
    u = ModuleUniverse(a3rad2)
    seqs = enumerate_tau_es(u, frozenset())
    for b in seqs:
        w = transitivity_path(u, seqs[0], b)
        assert apply_steps(u, seqs[0], w.steps) == b
    assert "all_torsion_classes" not in u.cache
    assert u.support_tilting_count() == len(all_torsion_classes(u)) == 12


def test_tail_context_is_the_perpendicular_of_the_tail(u3r):
    amb = ambient_context(u3r)
    assert tail_context(u3r, ()) == amb
    for s in enumerate_tau_es(u3r, frozenset()):
        assert tail_context(u3r, s).members == frozenset()
        assert tail_context(u3r, s[1:]).members == j_in_context(
            u3r, amb, StrObj.make(omega_inverse(u3r, s[1:])))


def _distance_by_graph(u, src, dst):
    g = mutation_graph(u, tail_context(u, src).members)
    index = {v: i for i, v in enumerate(g.vertices)}
    return g.bfs_distances(index[src]).get(index[dst])


def test_mutation_distance_matches_the_graph_a3(a3):
    u = ModuleUniverse(a3)
    seqs = enumerate_tau_es(u, frozenset())
    assert len(seqs) == 16
    g = mutation_graph(u, frozenset())
    for i, src in enumerate(seqs):
        dist = g.bfs_distances(i)
        for j, dst in enumerate(seqs):
            assert mutation_distance(u, src, dst) == dist.get(j)


def test_mutation_distance_matches_the_graph_nakayama_cycle():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    u = ModuleUniverse(build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "a"]]))
    seqs = enumerate_tau_es(u, frozenset())
    for src in seqs:
        for dst in seqs:
            assert mutation_distance(u, src, dst) == _distance_by_graph(u, src, dst)


def test_mutation_distance_matches_the_graph_a4_first_to_last():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    u = ModuleUniverse(build_algebra(q, FieldSpec(0)))
    seqs = enumerate_tau_es(u, frozenset())
    src, dst = seqs[0], seqs[-1]
    d = mutation_distance(u, src, dst)
    assert d is not None and d > 1
    assert d == _distance_by_graph(u, src, dst)


def test_mutation_distance_of_a_shorter_sequence_stays_in_its_j(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    # (S1) and (S2) have different perpendicular categories: no path
    assert mutation_distance(u2, (s1,), (s2,)) is None
    assert mutation_distance(u2, (s1,), (s1,)) == 0


def test_a5_sequences_and_a_path_read_only_the_tables(monkeypatch):
    # after the build, Gen, reduction and normalization come from the hom
    # and Ext masks: no trace, quotient, decomposition or module-level Gen
    names = ["1", "2", "3", "4", "5"]
    arrows = [("a%d" % v, names[v], names[v + 1]) for v in range(4)]
    u = ModuleUniverse(build_algebra(Quiver(names, arrows), FieldSpec(0)))
    calls = Counter()

    def spy(name, real):
        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        return counted

    for name in ("trace", "quotient"):
        real = getattr(modules, name)
        for mod in list(sys.modules.values()):
            if getattr(mod, "__name__", "").startswith("tauseq") \
                    and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy(name, real))
    for name in ("identify_parts", "gen_set", "filtgen_contains"):
        monkeypatch.setattr(ModuleUniverse, name,
                            spy(name, getattr(ModuleUniverse, name)))
    seqs = enumerate_tau_es(u, frozenset())
    assert len(seqs) == 1296
    word = transitivity_path(u, seqs[0], seqs[-1])
    assert apply_steps(u, seqs[0], word.steps) == seqs[-1]
    assert not calls, dict(calls)


def test_words_are_built_once_on_warm_a4(monkeypatch):
    # the library builds each word without applying it; a transposition
    # walks the pair's orbits in the one mutation table of its tail
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    u = ModuleUniverse(build_algebra(q, FieldSpec(0)))
    seqs = enumerate_tau_es(u, frozenset())
    src, dst = seqs[0], seqs[-1]
    warm = transitivity_path(u, src, dst)
    index = first_position(u, src)
    # a second power that moves the sequence, so the orbit walk takes steps
    start, target = next((s, t) for s in seqs
                         for t in [mutate(u, mutate(u, s, "phi", index), "phi", index)]
                         if t != s)
    transposition_word(u, start, index, target)
    calls = Counter()

    def spy(name):
        real = getattr(sequences, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(sequences, name, counted)

    for name in ("apply_steps", "mutate", "tail_context"):
        spy(name)
    word = transitivity_path(u, src, dst)
    assert calls["apply_steps"] == 0
    assert word.steps == warm.steps
    calls.clear()
    step = transposition_word(u, start, index, target)
    assert (calls["mutate"], calls["tail_context"]) == (0, 1)
    monkeypatch.undo()
    assert step.length >= 1
    assert apply_steps(u, start, step.steps) == target
    assert apply_steps(u, src, word.steps) == dst


def test_family_queries_compute_j_once_per_rigid_set(monkeypatch):
    # J of every rigid set is filed once per universe; a family query reads
    # the index instead of recomputing J of all 90 rigid sets of A4
    u = ModuleUniverse(_algebra_file("perfbench", "algebras", "a4.json"))
    calls = Counter()
    real = wide.j_in_context

    def counted(*args, **kwargs):
        calls["j_in_context"] += 1
        return real(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("tauseq") \
                and getattr(mod, "j_in_context", None) is real:
            monkeypatch.setattr(mod, "j_in_context", counted)
    wides = all_wide_subcategories(u)
    first = [enumerate_tau_es(u, w) for w in wides]
    second = [enumerate_tau_es(u, w) for w in wides]
    assert first == second
    assert sum(map(len, first)) > len(wides)
    assert calls["j_in_context"] == len(u.all_tau_rigid_subsets()) == 90
    # the two simples 0001#1 and 0010#1 extend, so their sum has no entry
    with pytest.raises(NotTauRigid):
        rigid_j(u, ids(u, "0010#1", "0001#1"))


@pytest.mark.parametrize("parts", [
    ("perfbench", "algebras", "a2.json"),
    ("perfbench", "algebras", "a3.json"),
    ("perfbench", "algebras", "a3rad2.json"),
    ("perfbench", "algebras", "nakayama2_rad2.json"),
    ("perfbench", "algebras", "a4.json"),
    ("algebras", "d4.json"),
], ids=lambda parts: os.path.splitext(parts[-1])[0])
def test_every_family_read_off_the_index_matches_the_recursion(parts):
    u = ModuleUniverse(_algebra_file(*parts))
    for w in all_wide_subcategories(u):
        assert enumerate_tau_es(u, w) == enumerate_tau_es_recursive(u, w), \
            [u.labels[i] for i in sorted(w)]
