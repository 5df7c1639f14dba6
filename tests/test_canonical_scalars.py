"""Canonical scalars over the rationals: an int exactly when integral.

Every rational scalar the package produces is a plain ``int`` when its value
is an integer and a ``Fraction`` with denominator > 1 otherwise; no float and
no integral ``Fraction`` ever appears.  The kernel relies on it: an all-int
matrix is rescaled without touching a ``Fraction`` property.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauseq import linalg
from tauseq.ar import extension_cocycle_space, extension_middle, tau
from tauseq.decompose import EndAlgebra, factor_poly
from tauseq.fields import QQ
from tauseq.linalg import Mat
from tauseq.modules import Rep, hom_basis, projective, simple
from tauseq.universe import ModuleUniverse
from test_wide import LATTICE_ALGEBRAS


def canonical(x):
    if type(x) is int:
        return True
    return type(x) is Fraction and x.denominator != 1


def all_canonical(mats):
    return all(canonical(x) for m in mats for row in m.data for x in row)


rationals = st.one_of(st.integers(-6, 6),
                      st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4)))


@settings(max_examples=300, deadline=None)
@given(rationals, rationals)
def test_field_operations_are_canonical(a, b):
    a, b = QQ.coerce(a), QQ.coerce(b)
    assert canonical(a) and canonical(b)
    for value in (QQ.add(a, b), QQ.sub(a, b), QQ.mul(a, b), QQ.neg(a)):
        assert canonical(value)
    if b != 0:
        assert canonical(QQ.inv(b)) and canonical(QQ.div(a, b))
        assert QQ.div(a, b) == Fraction(a) / Fraction(b)


def test_zero_and_one_are_ints():
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert type(QQ.coerce(Fraction(4, 2))) is int
    assert QQ.coerce(Fraction(1, 2)) == Fraction(1, 2)


@pytest.mark.parametrize("name", ["a3", "a3rad2", "nakayama2_rad3"])
def test_universe_matrices_and_hom_bases_are_canonical(name):
    u = ModuleUniverse(LATTICE_ALGEBRAS[name]())
    assert all(all_canonical(m.mats) for m in u.modules)
    for m in u.modules:
        for n in u.modules:
            assert all(all_canonical(f.maps) for f in hom_basis(m, n))


def test_a_fractional_module_stays_canonical(a2):
    # the arrow acts by 1/2, so hom bases, End(M) and tau meet fractions
    half = Rep(a2, (1, 1), (Mat.from_rows(QQ, [[Fraction(1, 2)]]),))
    for m, n in [(half, half), (half, projective(a2, 0)), (projective(a2, 0), half)]:
        for f in hom_basis(m, n):
            assert all_canonical(f.maps)
    core = EndAlgebra(half).core()
    assert all_canonical(core.left_mult) and all(canonical(x) for x in core.unit)
    assert all_canonical(tau(simple(a2, 1)).mats)
    cocycles, _ = extension_cocycle_space(simple(a2, 0), simple(a2, 1))
    assert all_canonical(extension_middle(simple(a2, 0), simple(a2, 1), cocycles[0]).mats)


def test_kernel_outputs_on_fractions_are_canonical():
    singular = Mat.from_rows(QQ, [[2, 1, Fraction(1, 3)], [4, Fraction(1, 2), 0], [6, 3, 1]])
    invertible = Mat.from_rows(QQ, [[2, 1, Fraction(1, 3)], [4, Fraction(1, 2), 0], [6, 3, 2]])
    r, pivots = linalg.rref(singular)
    ker = linalg.solve_kernel(singular)
    inv = linalg.solve(invertible, Mat.identity(QQ, 3))
    assert pivots == [0, 1] and ker.cols == 1 and inv is not None
    assert all_canonical([r, ker, inv, singular.mul(invertible), invertible.mul(inv)])
    assert invertible.mul(inv) == Mat.identity(QQ, 3)


@pytest.mark.parametrize("coeffs, expected", [
    ([1, 2], [([Fraction(1, 2), 1], 1)]),                          # 2x + 1
    ([1, -3, 2], [([-1, 1], 1), ([Fraction(-1, 2), 1], 1)]),       # (2x - 1)(x - 1)
    ([4, 0, -9], [([Fraction(-2, 3), 1], 1), ([Fraction(2, 3), 1], 1)]),  # 4 - 9x^2
])
def test_factor_poly_roots_are_exact_on_int_input(coeffs, expected):
    got = factor_poly(QQ, coeffs)
    assert got == expected
    assert all(canonical(c) for fac, _ in got for c in fac)
