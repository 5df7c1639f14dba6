"""The enumeration sweep tries each extension class once, up to scaling each
summand.

For each summand U_i of U, ``universe._class_tuples`` keeps the first
{0, +-1} coefficient tuple, in ``itertools.product`` order, of each class in
Ext^1(S, U_i) that is nonzero, up to a nonzero scalar; ``_sum_tuples``
combines one kept tuple per summand and sorts the combinations in product
order of the tuple they make on the basis of Z^1(S, U).  The oracle is the
full product sweep, got by patching ``_class_tuples`` to return every tuple:
the modules, their matrices and order, the labels and the certificate must
not change.  A Hypothesis test checks the combination against the walk over
the whole product on zero-padded class data, and three more check, over Q,
GF(3) and GF(5), the three facts the skip rests on.
"""

import functools
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauseq import universe as universe_mod
from tauseq.ar import extension_cocycle_space, extension_middle, flat_cocycle
from tauseq.cli import load_algebra_file
from tauseq.decompose import is_indecomposable, is_isomorphic
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat, combine
from tauseq.modules import SimpleExt, block_sum, direct_sum, projective, simple
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import SWEEP_COEFFS, ModuleUniverse, _class_tuples, _sum_tuples
from oracles import every_class_tuple, new_class_tuples_by_product, sweep_as_built
from test_ar_closure import BENCH_ALGEBRAS, ORACLE_ALGEBRAS

ROOT = os.path.join(os.path.dirname(__file__), "..")

CASES = {name: (build, None) for name, build in ORACLE_ALGEBRAS.items()}
CASES["d4"] = (lambda: load_algebra_file(os.path.join(ROOT, "algebras", "d4.json")), None)
for _bound in ((2, 2), (3, 3)):
    CASES["kronecker_%d%d" % _bound] = (
        lambda: load_algebra_file(os.path.join(BENCH_ALGEBRAS, "kronecker.json")), _bound)
SCALE = os.path.join(ROOT, "algebras", "scale")
CASES["e6"] = (lambda: load_algebra_file(os.path.join(SCALE, "e6.json")), (4,) * 6)
CASES["d5"] = (lambda: load_algebra_file(os.path.join(SCALE, "d5.json")), None)


def _sweep(algebra, bound, monkeypatch, full):
    """The universe, built without the certificate gate and swept as it is
    built (``oracles.sweep_as_built``), and the number of extension middles
    its sweep built."""
    sweep_as_built(monkeypatch)
    calls = []
    build = universe_mod.extension_middle

    def spy(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(universe_mod, "extension_middle", spy)
    if full:
        monkeypatch.setattr(universe_mod, "_class_tuples", every_class_tuple)
    u = ModuleUniverse(algebra, bound, require_certificate=False)
    monkeypatch.undo()
    return u, len(calls)


def test_the_cases_cover_the_corpus():
    assert {"a5", "d4", "loop_rad2", "nakayama2_rad3", "nakayama3_rad3",
            "kronecker_22", "kronecker_33", "d5", "e6"} <= set(CASES)
    assert len(CASES) >= 14 + 8


@pytest.mark.parametrize("name", sorted(CASES))
def test_skipping_redundant_classes_matches_the_full_sweep(name, monkeypatch):
    build, bound = CASES[name]
    full, full_calls = _sweep(build(), bound, monkeypatch, True)
    kept, kept_calls = _sweep(build(), bound, monkeypatch, False)
    assert [(m.dims, m.mats) for m in kept.modules] == [(m.dims, m.mats) for m in full.modules]
    assert kept.labels == full.labels
    assert list(kept.certificate.items()) == list(full.certificate.items())
    assert kept_calls <= full_calls
    if name.startswith("kronecker") or name == "a5":
        assert kept_calls < full_calls


def test_kronecker_refusal_tests_few_middles(monkeypatch):
    calls = []
    test = universe_mod.is_indecomposable

    def spy(m):
        calls.append(1)
        return test(m)

    monkeypatch.setattr(universe_mod, "is_indecomposable", spy)
    u = ModuleUniverse(load_algebra_file(os.path.join(BENCH_ALGEBRAS, "kronecker.json")),
                       (2, 2), require_certificate=False)
    assert not u.certified
    # the full product sweep tests 556 middles
    assert len(calls) <= 100


def _coordinates(blocks, basis):
    """The coordinates of a cocycle in the reduced echelon basis of Z^1: its
    entries at the basis vectors' free unknowns, each vector's last nonzero
    entry."""
    flat = flat_cocycle(blocks)
    return tuple(flat[max(j for j, x in enumerate(flat_cocycle(c)) if x != 0)] for c in basis)


def _rank(coeffs):
    return [SWEEP_COEFFS.index(c) for c in coeffs]


@pytest.mark.parametrize("name", sorted(CASES))
def test_each_middle_cocycle_combines_the_block_sum_basis(name, monkeypatch):
    # the sweep stacks the summands' combinations at each arrow; the result
    # is the combination of the block sum's own basis of Z^1(S, U) with a
    # nonzero {0, +-1} tuple, and the tuples of one U come in product order.
    # The sweep stops at its last new module and may visit few combinations
    # or none, so the first combinations of every sum of one or two built
    # modules are stacked directly as well
    build, bound = CASES[name]
    seen = []
    middle = universe_mod.extension_middle

    def spy(s, u, blocks):
        seen.append((s, u, blocks))
        return middle(s, u, blocks)

    monkeypatch.setattr(universe_mod, "extension_middle", spy)
    built = ModuleUniverse(build(), bound, require_certificate=False)
    monkeypatch.undo()
    last = None
    for s, u, blocks in seen:
        same = last is not None and last[0] is s and last[1] is u
        if not same:
            basis = extension_cocycle_space(s, u)[0]
        coeffs = _coordinates(blocks, basis)
        assert set(coeffs) <= set(SWEEP_COEFFS) and any(coeffs)
        assert combine(coeffs, basis) == blocks
        assert not same or last[2] < _rank(coeffs)
        last = (s, u, _rank(coeffs))
    combined = 0
    for v in range(built.n):
        s = simple(built.algebra, v)
        exts = [SimpleExt(m, v) for m in built.modules]
        reached = [i for i, x in enumerate(exts) if x.dim]
        for combo in itertools.chain(((i,) for i in reached),
                                     itertools.combinations_with_replacement(reached, 2)):
            if combo.count(combo[0]) > exts[combo[0]].dim:
                continue
            own = [exts[i] for i in combo]
            u = block_sum([built.modules[i] for i in combo])
            basis = extension_cocycle_space(s, u)[0]
            for tuples in _sum_tuples([_class_tuples(built.field, x.classes) for x in own],
                                      [x.free for x in own])[:10]:
                blocks = universe_mod._sum_cocycle(own, tuples)
                assert combine(_coordinates(blocks, basis), basis) == blocks
                combined += 1
    assert combined


@pytest.mark.parametrize("characteristic", [0, 3])
def test_class_tuples_in_product_order(characteristic):
    field = FieldSpec(characteristic)
    # one summand with a two-dimensional Ext: one tuple per point of the
    # projective line the coefficients reach, the first in product order
    assert _class_tuples(field, [(1, 0), (0, 1)]) == [(0, 1), (1, 0), (1, 1), (1, -1)]
    # a class the coefficients reach only as a zero combination is skipped
    assert _class_tuples(field, [(1,), (1,)]) == [(0, 1)]
    # two summands with one-dimensional Exts: both classes must be nonzero,
    # and any two such tuples differ by scaling the summands
    one = _class_tuples(field, [(1,)])
    assert _sum_tuples([one, one], [[(0, 0)], [(0, 0)]]) == [((1,), (1,))]
    # the basis of Z^1(S, U) is ordered by arrow, then summand, then row, so
    # summand 1's vector sits between summand 0's two, and the combinations
    # follow the product order of (x0, y0, x1)
    kept = [[(1, 0), (0, 1)], [(1,), (-1,)]]
    assert _sum_tuples(kept, [[(0, 0), (1, 0)], [(0, 0)]]) == [
        ((0, 1), (1,)), ((0, 1), (-1,)), ((1, 0), (1,)), ((1, 0), (-1,))]


@pytest.mark.parametrize("characteristic", [0, 2, 3, 5])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_summand_tuples_combine_to_the_full_product_walk(characteristic, data):
    # one to three summands, each with one to three basis cocycles whose
    # classes lie in an Ext^1 of dimension one to three, Fraction
    # coordinates over Q; the basis of Z^1(S, U) interleaves the summands'
    # vectors by their free unknowns (arrow, row), and the oracle walks the
    # whole product on the classes padded with zeros at the other summands
    field = FieldSpec(characteristic)
    if characteristic:
        scalar = st.integers(0, characteristic - 1)
    else:
        scalar = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3)])
    shapes = data.draw(st.lists(st.tuples(st.integers(1, 3), st.integers(1, 3)),
                                min_size=1, max_size=3))
    classes = [data.draw(st.lists(st.tuples(*[scalar] * ext), min_size=n, max_size=n))
               for n, ext in shapes]
    cells = st.tuples(st.integers(0, 2), st.integers(0, 2))
    free = [sorted(data.draw(st.sets(cells, min_size=n, max_size=n))) for n, _ in shapes]
    order = sorted((a, i, r, k) for i, rows in enumerate(free) for k, (a, r) in enumerate(rows))
    images = [[classes[i][k] if j == i else (0,) * ext for j, (_, ext) in enumerate(shapes)]
              for _, i, _, k in order]
    got = _sum_tuples([_class_tuples(field, c) for c in classes], free)
    assert [tuple(tuples[i][k] for _, i, _, k in order) for tuples in got] == \
        list(new_class_tuples_by_product(field, images))


# --------------------------------------------------------------------------
# the three facts behind the skip, on random cocycles
# --------------------------------------------------------------------------

def _kronecker(field):
    return build_algebra(Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")]), field)


def _a3(field):
    return build_algebra(Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")]), field)


def _nakayama2_rad3(field):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return build_algebra(q, field, [["a", "b", "a"], ["b", "a", "b"]])


@functools.lru_cache(maxsize=None)
def _pairs(characteristic):
    """(S, [U1, U2], U1 + U2, cocycles, coboundary matrix) for every simple S
    and every pair of simples and projectives with a cocycle of S by U1 + U2."""
    out = []
    for make in (_kronecker, _a3, _nakayama2_rad3):
        algebra = make(FieldSpec(characteristic))
        small = [simple(algebra, v) for v in range(algebra.n)] + \
            [projective(algebra, v) for v in range(algebra.n)]
        for s in small[:algebra.n]:
            for parts in itertools.combinations_with_replacement(small, 2):
                u = direct_sum(list(parts))[0]
                cocycles, cob = extension_cocycle_space(s, u)
                if cocycles:
                    out.append((s, list(parts), u, cocycles, cob))
    return out


def _scalars(characteristic):
    if characteristic:
        return st.integers(1, characteristic - 1)
    return st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def _combination(field, coeffs, vectors):
    return [field.coerce(sum(c * v[r] for c, v in zip(coeffs, vectors)))
            for r in range(len(vectors[0]))]


def _blocks(field, flat, s, u):
    """A flattened cocycle of S by U back as one block per arrow."""
    out, pos = [], 0
    for ar in u.algebra.quiver.arrows:
        rows, cols = u.dims[ar.target], s.dims[ar.source]
        out.append(Mat(field, rows, cols,
                       [flat[pos + r * cols:pos + (r + 1) * cols] for r in range(rows)]))
        pos += rows * cols
    return out


def _summand_rows(s, parts, flat, scales):
    """A flattened cocycle of S by the direct sum of the parts with the rows
    at parts[k] multiplied by scales[k], or left out where that is None."""
    f = parts[0].algebra.field
    out, pos = [], 0
    for ar in parts[0].algebra.quiver.arrows:
        cols = s.dims[ar.source]
        for part, scale in zip(parts, scales):
            for _ in range(part.dims[ar.target]):
                if scale is not None:
                    out.extend(f.mul(scale, x) for x in flat[pos:pos + cols])
                pos += cols
    return out


def _draw(data, characteristic):
    field = FieldSpec(characteristic)
    s, parts, u, cocycles, cob = data.draw(st.sampled_from(_pairs(characteristic)))
    coeff = st.integers(-2, 2)
    xi = _combination(field, data.draw(st.lists(coeff, min_size=len(cocycles),
                                                 max_size=len(cocycles))),
                      [flat_cocycle(c) for c in cocycles])
    if cob.cols:
        h = data.draw(st.lists(coeff, min_size=cob.cols, max_size=cob.cols))
        delta = _combination(field, h, cob.columns())
    else:
        delta = [field.zero] * len(xi)
    return field, s, parts, u, xi, delta


FIELDS = pytest.mark.parametrize("characteristic", [0, 3, 5])
LEMMA = settings(max_examples=30, deadline=None)


@FIELDS
@LEMMA
@given(data=st.data())
def test_adding_a_coboundary_keeps_the_middle(characteristic, data):
    field, s, parts, u, xi, delta = _draw(data, characteristic)
    moved = [field.add(x, d) for x, d in zip(xi, delta)]
    assert is_isomorphic(extension_middle(s, u, _blocks(field, moved, s, u)),
                         extension_middle(s, u, _blocks(field, xi, s, u)))


@FIELDS
@LEMMA
@given(data=st.data())
def test_scaling_one_summand_keeps_the_middle(characteristic, data):
    field, s, parts, u, xi, _ = _draw(data, characteristic)
    i = data.draw(st.integers(0, 1))
    scale = field.coerce(data.draw(_scalars(characteristic)))
    scaled = _summand_rows(s, parts, xi, [scale if k == i else 1 for k in range(2)])
    assert is_isomorphic(extension_middle(s, u, _blocks(field, scaled, s, u)),
                         extension_middle(s, u, _blocks(field, xi, s, u)))


@FIELDS
@LEMMA
@given(data=st.data())
def test_a_zero_summand_class_splits_the_middle(characteristic, data):
    field, s, parts, u, xi, delta = _draw(data, characteristic)
    i = data.draw(st.integers(0, 1))
    # the class against parts[i] is zero: its rows are a coboundary
    xi = [field.add(x, d) for x, d in
          zip(_summand_rows(s, parts, xi, [0 if k == i else 1 for k in range(2)]), delta)]
    middle = extension_middle(s, u, _blocks(field, xi, s, u))
    assert not is_indecomposable(middle)
    other = parts[1 - i]
    kept = _summand_rows(s, parts, xi, [None if k == i else 1 for k in range(2)])
    split = direct_sum([extension_middle(s, other, _blocks(field, kept, s, other)),
                        parts[i]])[0]
    assert is_isomorphic(middle, split)
