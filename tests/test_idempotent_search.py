"""find_idempotent_semisimple on small structure-constant algebras."""

import pytest

from tauseq import decompose
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


@pytest.fixture
def routes(monkeypatch):
    """Record which construction produced the idempotent."""
    seen = []
    for name in ("_idempotent_from_coprime_split", "_idempotent_from_nilpotent"):
        inner = getattr(decompose, name)

        def spy(*args, _name=name, _inner=inner):
            seen.append(_name)
            return _inner(*args)

        monkeypatch.setattr(decompose, name, spy)
    return seen


def assert_nontrivial_idempotent(core, e):
    assert e is not None
    assert core.mul(e, e) == e
    assert any(c != 0 for c in e)
    assert e != core.unit


@pytest.mark.parametrize("p", [0, 3])
def test_product_of_two_fields_splits_by_coprime_factors(p, routes):
    # K[u]/(u^2 - 1) = K x K: u has minimal polynomial (x - 1)(x + 1)
    core = quadratic_extension_core(FieldSpec(p), 1, 0)
    assert_nontrivial_idempotent(core, find_idempotent_semisimple(core))
    assert routes == ["_idempotent_from_coprime_split"]


def test_matrix_algebra_splits_by_the_nilpotent_route(routes):
    # E_12 comes first: its minimal polynomial is x^2, a repeated factor
    core = matrix_core(FieldSpec(0), [(0, 1), (0, 0), (1, 0), (1, 1)])
    assert_nontrivial_idempotent(core, find_idempotent_semisimple(core))
    assert routes == ["_idempotent_from_nilpotent"]


def test_gaussian_rationals_are_certified_a_field(routes):
    # Q(i): i^2 = -1, every non-scalar has an irreducible quadratic minpoly
    core = quadratic_extension_core(FieldSpec(0), -1, 0)
    assert find_idempotent_semisimple(core) is None
    assert routes == []


def test_field_with_four_elements_is_certified_a_field(routes):
    # GF(2)[x]/(x^2 + x + 1): x^2 = x + 1
    core = quadratic_extension_core(FieldSpec(2), 1, 1)
    assert find_idempotent_semisimple(core) is None
    assert routes == []
