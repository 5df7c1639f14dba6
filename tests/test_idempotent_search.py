"""find_idempotent_semisimple on small structure-constant algebras."""

import pytest

from tauseq import linalg
from tauseq.decompose import AlgebraCore, find_idempotent_semisimple
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat


def core_from_table(f, table, unit):
    """table[i][j] holds the coordinates of b_i b_j; column j of L_i is b_i b_j."""
    k = len(table)
    left = [Mat.trusted(f, k, k, [[f.coerce(table[i][j][r]) for j in range(k)]
                                  for r in range(k)])
            for i in range(k)]
    return AlgebraCore(f, left, [f.coerce(c) for c in unit])


def quadratic_extension_core(f, c0, c1):
    """K[u]/(u^2 - c1 u - c0) on the basis 1, u."""
    return core_from_table(f, [[[1, 0], [0, 1]], [[0, 1], [c0, c1]]], [1, 0])


def matrix_core(f, order):
    """M_2 on the matrix units E_ij, listed in the given order."""
    index = {e: n for n, e in enumerate(order)}

    def prod(a, b):
        out = [0] * 4
        if a[1] == b[0]:
            out[index[(a[0], b[1])]] = 1
        return out

    table = [[prod(a, b) for b in order] for a in order]
    unit = [1 if a == b else 0 for a, b in order]
    return core_from_table(f, table, unit)


def product_with_gaussian_rationals_core(f):
    """Q x Q(i) on the basis (1, i), (0, 1), (0, i).  The first candidate,
    (1, i), has minimal polynomial (t - 1)(t^2 + 1), with an irreducible
    quadratic factor."""
    def prod(x, y):
        # x is (x0, x1 + (x0 + x2) i): multiply componentwise, read back
        a = x[0] * y[0]
        re = x[1] * y[1] - (x[0] + x[2]) * (y[0] + y[2])
        im = x[1] * (y[0] + y[2]) + (x[0] + x[2]) * y[1]
        return [a, re, im - a]

    std = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    return core_from_table(f, [[prod(x, y) for y in std] for x in std], [1, 1, -1])


def assert_nontrivial_idempotent(core, e):
    assert e is not None
    assert core.mul(e, e) == e
    assert any(c != 0 for c in e)
    assert e != core.unit


@pytest.mark.parametrize("p", [0, 3])
def test_product_of_two_fields_splits(p):
    # K[u]/(u^2 - 1) = K x K: u has minimal polynomial (x - 1)(x + 1)
    core = quadratic_extension_core(FieldSpec(p), 1, 0)
    assert_nontrivial_idempotent(core, find_idempotent_semisimple(core))


MATRIX_UNIT_ORDERS = {
    "E12_first": [(0, 1), (0, 0), (1, 0), (1, 1)],  # minimal polynomial x^2
    "E11_first": [(0, 0), (0, 1), (1, 0), (1, 1)],  # x (x - 1)
    "E21_E22_first": [(1, 0), (1, 1), (0, 0), (0, 1)],
}


@pytest.mark.parametrize("p", [0, 2, 3], ids=["Q", "GF2", "GF3"])
@pytest.mark.parametrize("order", sorted(MATRIX_UNIT_ORDERS))
def test_matrix_algebra_splits(order, p):
    core = matrix_core(FieldSpec(p), MATRIX_UNIT_ORDERS[order])
    e = find_idempotent_semisimple(core)
    assert_nontrivial_idempotent(core, e)
    # a nontrivial idempotent of M_2 has rank 1, so e A e is one-dimensional
    assert linalg.rank(core.left_mult_matrix(e).mul(core.right_mult_matrix(e))) == 1


def test_a_product_with_an_irreducible_quadratic_factor_splits():
    core = product_with_gaussian_rationals_core(FieldSpec(0))
    assert core.minimal_polynomial([1, 0, 0]) == [-1, 1, -1, 1]  # (t - 1)(t^2 + 1)
    e = find_idempotent_semisimple(core)
    assert_nontrivial_idempotent(core, e)
    # the only nontrivial idempotents are (1, 0) and (0, 1)
    assert e in ([1, 0, -1], [0, 1, 0])


def test_gaussian_rationals_are_certified_a_field():
    # Q(i): i^2 = -1, every non-scalar has an irreducible quadratic minpoly
    core = quadratic_extension_core(FieldSpec(0), -1, 0)
    assert find_idempotent_semisimple(core) is None


def test_field_with_four_elements_is_certified_a_field():
    # GF(2)[x]/(x^2 + x + 1): x^2 = x + 1
    core = quadratic_extension_core(FieldSpec(2), 1, 1)
    assert find_idempotent_semisimple(core) is None
