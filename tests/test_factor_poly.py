"""The native low-degree factorization against sympy's factor_list.

``factor_poly`` splits polynomials of degree at most 2 without sympy and
keeps sympy only for degree 3 and up.  The reference below calls sympy
directly; the two must agree list for list, order included, because the
factor order decides which idempotent the decomposition builds.
"""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from tauseq.decompose import factor_poly
from tauseq.fields import FieldSpec

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5), FieldSpec(65537)]


def ref_factor(f, coeffs):
    x = sympy.Symbol("x")
    high_first = list(reversed(coeffs))
    if f.characteristic == 0:
        poly = sympy.Poly([sympy.Rational(c.numerator, c.denominator) for c in high_first],
                          x, domain=sympy.QQ)
    else:
        poly = sympy.Poly([int(c) for c in high_first], x,
                          domain=sympy.GF(f.characteristic))
    out = []
    for fac, mult in poly.factor_list()[1]:
        cs = [f.coerce(sympy.Rational(c) if f.characteristic == 0 else int(c))
              for c in reversed(fac.all_coeffs())]
        lead = f.inv(cs[-1])
        out.append(([f.mul(lead, c) for c in cs], int(mult)))
    return out


def assert_matches_sympy(f, coeffs):
    got = factor_poly(f, coeffs)
    assert got == ref_factor(f, coeffs)
    # canonical scalars: over the rationals an int exactly when integral
    assert all(type(c) is (int if f.characteristic or Fraction(c).denominator == 1
                           else Fraction)
               for fac, _ in got for c in fac)
    return got


def scalars(f, nonzero=False):
    if f.characteristic == 0:
        num = st.integers(-12, 12).filter(lambda n: n != 0) if nonzero else st.integers(-12, 12)
        return st.builds(Fraction, num, st.integers(1, 9))
    return st.integers(1 if nonzero else 0, f.characteristic - 1)


@st.composite
def quadratics(draw, f):
    """Split, double-root and free (often irreducible) quadratics with a
    random leading coefficient, low degree first."""
    kind = draw(st.sampled_from(["split", "double", "free"]))
    a = draw(scalars(f, nonzero=True))
    if kind == "free":
        cs = [draw(scalars(f)), draw(scalars(f)), a]
    else:
        r1 = draw(scalars(f))
        r2 = r1 if kind == "double" else draw(scalars(f))
        cs = [a * r1 * r2, -a * (r1 + r2), a]
    return [f.coerce(c) for c in cs]


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_quadratics_match_sympy(f, data):
    assert_matches_sympy(f, data.draw(quadratics(f)))


@pytest.mark.parametrize("f", FIELDS, ids=repr)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_low_degree_with_zero_top_coefficients_match_sympy(f, data):
    cs = data.draw(st.lists(scalars(f), min_size=0, max_size=3))
    assert_matches_sympy(f, cs + [f.zero] * data.draw(st.integers(0, 2)))


@pytest.mark.parametrize("f, coeffs", [
    (FieldSpec(0), [1, 0, 1]),          # x^2 + 1
    (FieldSpec(0), [-2, 0, 3]),         # 3x^2 - 2
    (FieldSpec(3), [1, 0, 1]),          # x^2 + 1
    (FieldSpec(5), [2, 0, 1]),          # x^2 + 2
    (FieldSpec(65537), [65534, 0, 1]),  # x^2 - 3: 3 generates GF(65537)*
], ids=str)
def test_irreducible_quadratics_stay_whole(f, coeffs):
    cs = [f.coerce(c) for c in coeffs]
    got = assert_matches_sympy(f, cs)
    assert len(got) == 1 and got[0][1] == 1 and len(got[0][0]) == 3


@pytest.mark.parametrize("coeffs, expected", [
    ([0, 0, 1], [([0, 1], 2)]),                  # x^2 = x x
    ([1, 0, 1], [([1, 1], 2)]),                  # x^2 + 1 = (x + 1)^2
    ([0, 1, 1], [([0, 1], 1), ([1, 1], 1)]),     # x^2 + x = x (x + 1)
    ([1, 1, 1], [([1, 1, 1], 1)]),               # irreducible
])
def test_gf2_quadratic_forms(coeffs, expected):
    assert assert_matches_sympy(FieldSpec(2), coeffs) == expected


def test_rational_order_compares_primitive_integer_forms():
    # roots 1/2 and 1: the primitive forms are 2x - 1 and x - 1, so x - 1
    # sorts first although the monic x - 1/2 would sort first by constant
    f = FieldSpec(0)
    cs = [Fraction(1, 2), Fraction(-3, 2), Fraction(1)]
    assert assert_matches_sympy(f, cs) == [([Fraction(-1), Fraction(1)], 1),
                                           ([Fraction(-1, 2), Fraction(1)], 1)]


@pytest.mark.parametrize("f, coeffs, expected", [
    # (x - 1)(x^2 + 1)
    (FieldSpec(0), [-1, 1, -1, 1], [([-1, 1], 1), ([1, 0, 1], 1)]),
    # x^3 - 2
    (FieldSpec(0), [-2, 0, 0, 1], [([-2, 0, 0, 1], 1)]),
    # x^3 + 1 = (x + 1)(x^2 + x + 1) over GF(2)
    (FieldSpec(2), [1, 0, 0, 1], [([1, 1], 1), ([1, 1, 1], 1)]),
], ids=["QQ-(x-1)(x2+1)", "QQ-x3-2", "GF2-x3+1"])
def test_degree_three_uses_the_sympy_fallback(f, coeffs, expected):
    cs = [f.coerce(c) for c in coeffs]
    assert assert_matches_sympy(f, cs) == expected
