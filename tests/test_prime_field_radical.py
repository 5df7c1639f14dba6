"""The radical over small prime fields, where p does not exceed the dimension.

Over GF(p) the plain trace chain tr(M^(p^m)) = tr(M)^(p^m) never refines
past its first round, so End algebras of dimension at least p used to keep
nilpotent-free directions and fail.  The lifted traces fix that; these tests
pin it on linear A4 and on small structure-constant algebras.  The same loop
gives the radical over the rationals (p = 0) in one round, the trace form's.
"""

import json

import pytest

from tauseq.cli import main
from tauseq.decompose import AlgebraCore
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat


def linear_a4(characteristic):
    return {
        "field": {"characteristic": characteristic},
        "vertices": ["1", "2", "3", "4"],
        "arrows": [{"name": "a", "from": "1", "to": "2"},
                   {"name": "b", "from": "2", "to": "3"},
                   {"name": "c", "from": "3", "to": "4"}],
        "relations": [],
    }


def inspect_json(tmp_path, capsys, characteristic):
    path = tmp_path / ("a4_%d.json" % characteristic)
    path.write_text(json.dumps(linear_a4(characteristic)))
    code = main(["inspect", str(path), "--json"])
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


@pytest.mark.parametrize("p", [2, 3])
def test_linear_a4_over_small_prime_matches_rationals(tmp_path, capsys, p):
    rational = inspect_json(tmp_path, capsys, 0)
    prime = inspect_json(tmp_path, capsys, p)
    assert prime["algebra"]["certified"] is True
    assert len(prime["algebra"]["indecomposables"]) == 10
    assert prime["algebra"]["characteristic"] == p
    prime["algebra"]["characteristic"] = 0
    assert prime == rational


def truncated_polynomials(p, n):
    """GF(p)[x]/(x^n) on the basis 1, x, ..., x^(n-1); Q[x]/(x^n) for p = 0."""
    f = FieldSpec(p)
    left = []
    for i in range(n):
        m = Mat.zeros(f, n, n)
        for s in range(n - i):
            m.data[i + s][s] = 1
        left.append(m)
    return AlgebraCore(f, left, [1] + [0] * (n - 1))


def upper_triangular_2x2(p):
    """Upper triangular 2 x 2 matrices over GF(p), or Q for p = 0, on e11,
    e12, e22."""
    f = FieldSpec(p)
    table = {(0, 0): 0, (0, 1): 1, (1, 2): 1, (2, 2): 2}  # e11 e11, e11 e12, ...
    left = []
    for i in range(3):
        m = Mat.zeros(f, 3, 3)
        for s in range(3):
            if (i, s) in table:
                m.data[table[(i, s)]][s] = 1
        left.append(m)
    return AlgebraCore(f, left, [1, 0, 1])


def span_rank(field, vectors):
    from tauseq import linalg
    if not vectors:
        return 0
    return linalg.rank(linalg.from_columns(field, len(vectors[0]), vectors))


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 5), (3, 3), (3, 4), (0, 4)])
def test_radical_of_truncated_polynomials(p, n):
    core = truncated_polynomials(p, n)
    rad = core.radical_basis()
    # the radical is spanned by x, ..., x^(n-1): no vector touches 1
    assert len(rad) == n - 1
    assert all(v[0] == 0 for v in rad)
    assert span_rank(core.field, rad) == n - 1


@pytest.mark.parametrize("p", [2, 3, 0])
def test_radical_of_upper_triangular_matrices(p):
    core = upper_triangular_2x2(p)
    rad = core.radical_basis()
    assert len(rad) == 1
    assert rad[0][0] == 0 and rad[0][2] == 0 and rad[0][1] != 0


def test_semisimple_product_over_gf2_has_no_radical():
    f = FieldSpec(2)
    e1 = Mat.from_rows(f, [[1, 0], [0, 0]])
    e2 = Mat.from_rows(f, [[0, 0], [0, 1]])
    assert AlgebraCore(f, [e1, e2], [1, 1]).radical_basis() == []
