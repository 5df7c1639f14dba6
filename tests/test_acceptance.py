"""Acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them all
even on success).  Expected counts were reproduced by the independent
recursive enumerator and the brute-force closure searches before being
pinned here.
"""

import itertools
import time

import pytest

from tauseq.emap import engine_for
from tauseq.sequences import (
    apply_steps, enumerate_tau_es, enumerate_tau_es_recursive, first_position,
    mutation_graph, mutation_table, normalize, omega,
    transitivity_path, transposition_word,
)
from tauseq.tables import StrObj
from tauseq.universe import ModuleUniverse
from tauseq.verify import run_suites, suite_emap, suite_transitivity
from tauseq.wide import (
    all_torsion_classes, ambient_context, context_of, rel_str_indecs,
)
from oracles import is_tf_ordered


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3(a3):
    return ModuleUniverse(a3)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def report(n, label, ok, detail=""):
    line = "[criterion %d] %s: %s%s" % (n, label, "PASS" if ok else "FAIL",
                                        " (%s)" % detail if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_a2_basics(u2):
    t0 = time.time()
    assert len(u2.modules) == 3
    s1, s2, p1 = (u2.id_of_label(x) for x in ("S1", "S2", "P1"))
    seqs = enumerate_tau_es(u2, frozenset())
    assert sorted(seqs) == sorted([(s1, s2), (s2, p1), (p1, s1)])
    table = mutation_table(u2, ambient_context(u2))
    # the left mutation acts as a 3-cycle on the complete sequences
    assert table.apply("phi", (s1, s2)) == (p1, s1)
    assert table.apply("phi", (p1, s1)) == (s2, p1)
    assert table.apply("phi", (s2, p1)) == (s1, s2)
    assert mutation_graph(u2, frozenset()).is_connected()
    reports = run_suites(u2, ["all"])
    assert all(r.ok for r in reports)
    elapsed = time.time() - t0
    report(1, "A2: 3 indecomposables, 3 sequences, 3-cycle, connected, verified",
           elapsed < 1.0, "%.2fs" % elapsed)


def test_criterion_2_a3_linear(u3):
    t0 = time.time()
    assert len(u3.modules) == 6
    assert len(all_torsion_classes(u3)) == 14
    seqs = enumerate_tau_es(u3, frozenset())
    assert len(seqs) == 16
    assert enumerate_tau_es_recursive(u3, frozenset()) == seqs
    # transitivity by breadth-first search
    g = mutation_graph(u3, frozenset())
    assert g.is_connected()
    index = {v: i for i, v in enumerate(g.vertices)}
    for s in seqs:
        dist = g.bfs_distances(index[s])
        assert len(dist) == 16
    # transitivity by normalization words for all ordered pairs, with the
    # strict growth and iteration bound on every normalization run
    bound = len(all_torsion_classes(u3))
    for s in seqs:
        trace = []
        normalize(u3, s, trace=trace)
        sizes = [len(t) for t in trace]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))
        assert len(trace) <= bound
    for s1 in seqs:
        for s2 in seqs:
            word = transitivity_path(u3, s1, s2)
            assert apply_steps(u3, s1, word.steps) == s2
    elapsed = time.time() - t0
    report(2, "A3 linear: 6/14/16, transitivity by BFS and by words (16x16)",
           elapsed < 30.0, "%.2fs" % elapsed)


def test_criterion_3_a3_rad_square(u3r):
    t0 = time.time()
    assert u3r.certified
    seqs = enumerate_tau_es(u3r, frozenset())
    oracle = enumerate_tau_es_recursive(u3r, frozenset())
    assert seqs == oracle
    assert len(seqs) == 12
    assert mutation_graph(u3r, frozenset()).is_connected()
    elapsed = time.time() - t0
    report(3, "A3 rad^2=0: certified, sequence count matches the oracle, connected",
           elapsed < 30.0, "%.2fs" % elapsed)


def test_criterion_4_property_suites(u2, u3, u3r):
    failures = []
    for name, u in (("A2", u2), ("A3", u3), ("A3rad2", u3r)):
        for r in run_suites(u, ["all"]):
            for c in r.checks:
                if not c.ok:
                    failures.append((name, r.name, c.name, c.failures[:1]))
    report(4, "exhaustive property suites on all three algebras",
           not failures, "zero failures required" if not failures
           else repr(failures[:2]))


def test_criterion_5_transpositions(u2, u3, u3r):
    total_swaps = 0
    total_chains = 0
    for u in (u2, u3, u3r):
        amb = ambient_context(u)
        # every adjacent swap between two valid orderings is a bounded power
        # of a single mutation
        for ids in u.all_tau_rigid_subsets():
            if len(ids) < 2:
                continue
            for perm in itertools.permutations(ids):
                if not is_tf_ordered(u, perm):
                    continue
                for pos in range(len(perm) - 1):
                    swapped = list(perm)
                    swapped[pos], swapped[pos + 1] = swapped[pos + 1], swapped[pos]
                    if not is_tf_ordered(u, tuple(swapped)):
                        continue
                    s1 = omega(u, perm)
                    s2 = omega(u, tuple(swapped))
                    k = first_position(u, s1)
                    word = transposition_word(u, s1, k + pos, s2)
                    tail = s1[pos + 2:]
                    ctx = amb
                    for i in range(len(tail) - 1, -1, -1):
                        ctx = context_of(u, ctx, StrObj.make([tail[i]]))
                    cell = mutation_table(u, ctx).cell_size(
                        (s1[pos], s1[pos + 1]))
                    assert word.length <= cell
                    total_swaps += 1
        # the second halves of the transitivity suite: descent chains for
        # split projective pairs over rank n-2 subcategories
        st = suite_transitivity(u)
        chain_checks = [c for c in st.checks
                        if c.name.startswith("right mutation chain")]
        assert all(c.ok for c in chain_checks)
        total_chains += sum(c.total for c in chain_checks)
    report(5, "transpositions bounded by group size; descent chains verified",
           total_swaps > 0 and total_chains > 0,
           "%d swaps, %d chains" % (total_swaps, total_chains))


def test_criterion_6_fault_injection(a2):
    u = ModuleUniverse(a2)
    assert suite_emap(u).ok
    engine = engine_for(u)
    clean = dict(engine.memo)
    values = rel_str_indecs(u, ambient_context(u))
    tested = 0
    undetected = []
    for key in sorted(clean, key=repr):
        wrong = next(v for v in values if v != clean[key])
        engine.memo.clear()
        engine.memo.update(clean)
        u.cache.pop("mutation_tables", None)
        engine.inject_fault(key, wrong)
        try:
            rep = suite_emap(u)
            certs = [f for c in rep.checks for f in c.failures]
            if rep.ok or not certs:
                undetected.append(key)
            tested += 1
        finally:
            engine.clear_faults()
    report(6, "every flipped reduction value trips a suite with a certificate",
           tested > 0 and not undetected,
           "%d faults injected" % tested)
