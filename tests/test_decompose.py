import itertools
import os

import pytest

from tauseq import decompose as decompose_mod, universe
from tauseq.cli import load_algebra_file
from tauseq.decompose import (
    AlgebraCore, _idempotent_mod_radical, indecomposable_parts, is_indecomposable, is_isomorphic,
)
from tauseq.errors import NotCertifiablyComplete
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep, direct_sum, projective, simple
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ModuleUniverse

from oracles import decompose, delta, trace_form_radical
from test_wide import _linear

KRONECKER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "algebras",
                         "kronecker.json")


def test_block_diagonal_splits(a2):
    p1, s2 = projective(a2, 0), simple(a2, 1)
    m, _, _ = direct_sum([p1, s2])
    dec = decompose(m)
    assert delta(m) == 2
    dims = sorted(part.dims for part, _ in dec for _ in range(1))
    assert dims == [(0, 1), (1, 1)]


def test_indecomposable_with_nonzero_arrow(a2):
    m = Rep(a2, (1, 1), (Mat.from_rows(a2.field, [[1]]),))
    assert delta(m) == 1


def test_zero_arrow_module_splits(a2):
    m = Rep(a2, (1, 1), (Mat.from_rows(a2.field, [[0]]),))
    dec = decompose(m)
    assert delta(m) == 2
    assert sorted(part.dims for part, _ in dec) == [(0, 1), (1, 0)]


def test_square_of_simple_splits(a2):
    s1 = simple(a2, 0)
    m, _, _ = direct_sum([s1, s1])
    dec = decompose(m)
    assert len(dec) == 1
    part, mult = dec[0]
    assert mult == 2 and part.dims == (1, 0)


def test_twisted_double_splits(a2):
    # dims (2,2), arrow acting by an invertible non-diagonal matrix: P1 + P1
    m = Rep(a2, (2, 2), (Mat.from_rows(a2.field, [[1, 1], [0, 1]]),))
    dec = decompose(m)
    assert len(dec) == 1 and dec[0][1] == 2
    assert is_isomorphic(dec[0][0], projective(a2, 0))


def test_rank_one_arrow_on_two_two(a2):
    # arrow of rank 1 on dims (2,2): P1 + S1 + S2
    m = Rep(a2, (2, 2), (Mat.from_rows(a2.field, [[1, 0], [0, 0]]),))
    parts = sorted(p.dims for p in indecomposable_parts(m))
    assert parts == [(0, 1), (1, 0), (1, 1)]


def test_decompose_over_prime_field():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q, FieldSpec(3))
    m = Rep(alg, (2, 2), (Mat.from_rows(alg.field, [[1, 2], [0, 1]]),))
    dec = decompose(m)
    assert len(dec) == 1 and dec[0][1] == 2


def test_iso_invariance_under_base_change(a2):
    f = a2.field
    m = Rep(a2, (2, 2), (Mat.from_rows(f, [[1, 1], [0, 1]]),))
    # conjugated copy: replace arrow matrix A by Q A P^-1 for invertible P, Q
    p = Mat.from_rows(f, [[1, 2], [1, 3]])
    qm = Mat.from_rows(f, [[2, 1], [1, 1]])
    from tauseq import linalg
    a = qm.mul(m.mats[0]).mul(linalg.inverse(p))
    m2 = Rep(a2, (2, 2), (a,))
    assert is_isomorphic(m, m2)
    d1 = sorted(part.dims for part in indecomposable_parts(m))
    d2 = sorted(part.dims for part in indecomposable_parts(m2))
    assert d1 == d2


def test_not_isomorphic_different_structure(a2):
    m = Rep(a2, (1, 1), (Mat.from_rows(a2.field, [[1]]),))
    n = Rep(a2, (1, 1), (Mat.from_rows(a2.field, [[0]]),))
    assert not is_isomorphic(m, n)


def test_kronecker_style_end_ring():
    # two arrows between two vertices; the module with actions (1, lambda)
    # for distinct lambda are pairwise non-isomorphic indecomposables
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(q, FieldSpec(0))
    f = alg.field

    def reg(lam):
        return Rep(alg, (1, 1), (Mat.from_rows(f, [[1]]), Mat.from_rows(f, [[lam]])))

    assert delta(reg(0)) == 1
    assert not is_isomorphic(reg(0), reg(1))
    m, _, _ = direct_sum([reg(0), reg(1)])
    assert delta(m) == 2


@pytest.mark.parametrize("characteristic", [0, 3], ids=["sqrt2_over_Q", "GF9"])
def test_a_field_end_ring_is_certified_at_its_first_primitive_element(characteristic,
                                                                       monkeypatch):
    # a = I, b = [[0, 2], [1, 0]] on dims (2, 2): End is the commutant of b,
    # k[b] with b^2 = 2, which is Q(sqrt 2) over Q and GF(9) over GF(3); every
    # non-scalar element is primitive, so one minimal polynomial settles the
    # search.  Over Q the End test never reaches it: t^2 - 2, the
    # characteristic polynomial of b at each vertex, is irreducible of degree
    # 2 = dim End / rad
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(q, FieldSpec(characteristic))
    f = alg.field
    m = Rep(alg, (2, 2), (Mat.from_rows(f, [[1, 0], [0, 1]]),
                          Mat.from_rows(f, [[0, 2], [1, 0]])))
    calls = []
    original = AlgebraCore.minimal_polynomial

    def spy(self, a):
        calls.append(a)
        return original(self, a)

    monkeypatch.setattr(AlgebraCore, "minimal_polynomial", spy)
    assert _idempotent_mod_radical(m) is None
    assert len(calls) == 1
    assert is_indecomposable(m)
    assert len(calls) == (1 if characteristic == 0 else 2)


def _kronecker_sweep(monkeypatch, bound):
    """The middles the Kronecker sweep tests, and how many times it ran the
    idempotent search."""
    middles, searches = [], []
    test, search = universe.is_indecomposable, decompose_mod.find_idempotent_semisimple

    def test_spy(m):
        middles.append(m)
        return test(m)

    def search_spy(core):
        searches.append(core)
        return search(core)

    monkeypatch.setattr(universe, "is_indecomposable", test_spy)
    monkeypatch.setattr(decompose_mod, "find_idempotent_semisimple", search_spy)
    if bound is None:
        assert not ModuleUniverse(load_algebra_file(KRONECKER),
                                  require_certificate=False).certified
    else:
        with pytest.raises(NotCertifiablyComplete):
            ModuleUniverse(load_algebra_file(KRONECKER), (bound, bound))
    monkeypatch.undo()
    return middles, len(searches)


@pytest.mark.parametrize("bound", [2, None], ids=["dim_bound_2", "default_bound"])
def test_the_fitting_split_agrees_with_the_idempotent_search_on_kronecker_middles(
        bound, monkeypatch):
    middles, _ = _kronecker_sweep(monkeypatch, bound)
    verdicts = [is_indecomposable(m) for m in middles]
    assert verdicts == [_idempotent_mod_radical(m) is None for m in middles]
    assert any(verdicts) and not all(verdicts)


def test_the_kronecker_sweep_runs_the_idempotent_search_less(monkeypatch):
    # without the Fitting split the --dim-bound 2 build ran it 39 times; two
    # more went to decomposing rad P and I / soc I before those were read
    # off the paths, and the characteristic polynomials of End(M)'s basis
    # decide the last 8 over Q
    _, searches = _kronecker_sweep(monkeypatch, 2)
    assert searches == 0


def _loop4(characteristic):
    q = Quiver(["1"], [("x", "1", "1")])
    return build_algebra(q, FieldSpec(characteristic), [["x"] * 4])


def _nakayama2_rad2(characteristic):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return build_algebra(q, FieldSpec(characteristic), [["a", "b"], ["b", "a"]])


@pytest.mark.parametrize("characteristic", [0, 2, 3], ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("build", [lambda c: _linear(3, c), _nakayama2_rad2, _loop4],
                         ids=["a3", "nakayama2_rad2", "loop_rad4"])
def test_the_fitting_split_agrees_with_the_idempotent_search_on_sums(build,
                                                                    characteristic):
    u = ModuleUniverse(build(characteristic))
    reps = list(u.modules)
    reps += [direct_sum([a, b])[0] for a, b in
             itertools.combinations_with_replacement(u.modules, 2)]
    verdicts = [is_indecomposable(m) for m in reps]
    assert verdicts == [_idempotent_mod_radical(m) is None for m in reps]
    assert verdicts == [i < len(u.modules) for i in range(len(reps))]


@pytest.mark.parametrize("name", ["a3rad2", "a4", "nakayama2_rad2"])
def test_the_rational_radical_is_the_kernel_of_the_trace_form(name):
    # the lifted-trace loop stops after its first round over the rationals,
    # and gives the trace form's kernel basis exactly, scalar types included
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "algebras",
                        name + ".json")
    u = ModuleUniverse(load_algebra_file(path))
    mods = u.modules
    reps = mods + [direct_sum([m, m])[0] for m in mods] + \
        [direct_sum(list(pair))[0] for pair in itertools.combinations(mods, 2)]
    radicals = 0
    for m in reps:
        core = decompose_mod.EndAlgebra(m).core()
        rad = core.radical_basis()
        want = trace_form_radical(core)
        assert rad == want and [list(map(type, v)) for v in rad] == \
            [list(map(type, v)) for v in want], m.dims
        radicals += bool(rad)
    assert radicals
