"""The enumeration sweep tries each extension class once, up to scaling each
summand.

``universe._new_class_tuples`` walks the {0, +-1} coefficient tuples in
``itertools.product`` order and keeps a tuple only when its class is nonzero
against every summand of U and new up to one nonzero scalar per summand.
The oracle is the full product sweep, got by patching that helper into
``itertools.product``: the modules, their matrices and order, the labels and
the certificate must not change.  The Hypothesis tests check, over Q, GF(3)
and GF(5), the three facts the skip rests on.
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
from tauseq.linalg import Mat
from tauseq.modules import direct_sum, projective, simple
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ModuleUniverse, _new_class_tuples
from test_ar_closure import BENCH_ALGEBRAS, ORACLE_ALGEBRAS

ROOT = os.path.join(os.path.dirname(__file__), "..")

CASES = {name: (build, None) for name, build in ORACLE_ALGEBRAS.items()}
CASES["d4"] = (lambda: load_algebra_file(os.path.join(ROOT, "algebras", "d4.json")), None)
for _bound in ((2, 2), (3, 3)):
    CASES["kronecker_%d%d" % _bound] = (
        lambda: load_algebra_file(os.path.join(BENCH_ALGEBRAS, "kronecker.json")), _bound)


def _sweep(algebra, bound, monkeypatch, full):
    """The universe, built without the certificate gate, and the number of
    extension middles its sweep built."""
    calls = []
    build = universe_mod.extension_middle

    def spy(*args):
        calls.append(1)
        return build(*args)

    monkeypatch.setattr(universe_mod, "extension_middle", spy)
    if full:
        monkeypatch.setattr(universe_mod, "_new_class_tuples", lambda field, images:
                            itertools.product(universe_mod.SWEEP_COEFFS, repeat=len(images)))
    u = ModuleUniverse(algebra, bound, require_certificate=False)
    monkeypatch.undo()
    return u, len(calls)


def test_the_cases_cover_the_corpus():
    assert {"a5", "d4", "loop_rad2", "nakayama2_rad3", "nakayama3_rad3",
            "kronecker_22", "kronecker_33"} <= set(CASES)
    assert len(CASES) >= 14 + 6


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


@pytest.mark.parametrize("characteristic", [0, 3])
def test_new_class_tuples_in_product_order(characteristic):
    field = FieldSpec(characteristic)
    # one summand with a two-dimensional Ext: one tuple per point of the
    # projective line the coefficients reach, the first in product order
    images = [[(1, 0)], [(0, 1)]]
    assert list(_new_class_tuples(field, images)) == [(0, 1), (1, 0), (1, 1), (1, -1)]
    # two summands with one-dimensional Exts: both classes must be nonzero,
    # and any two such tuples differ by scaling the summands
    images = [[(1,), (0,)], [(0,), (1,)]]
    assert list(_new_class_tuples(field, images)) == [(1, 1)]
    # a class the coefficients reach only as a zero combination is skipped
    images = [[(1,)], [(1,)]]
    assert list(_new_class_tuples(field, images)) == [(0, 1)]


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
