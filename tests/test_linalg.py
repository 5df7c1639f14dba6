import random

from tauseq.fields import FieldSpec
from tauseq import linalg
from tauseq.linalg import Mat

QQ = FieldSpec(0)
F3 = FieldSpec(3)


def test_kernel_identity_is_empty():
    assert linalg.solve_kernel(Mat.identity(QQ, 2)).cols == 0


def test_kernel_zero_map_is_full():
    k = linalg.solve_kernel(Mat.zeros(QQ, 2, 3))
    assert k.cols == 3
    assert linalg.rank(k) == 3


def test_kernel_rank_one():
    a = Mat.from_rows(QQ, [[1, 1], [1, 1]])
    k = linalg.solve_kernel(a)
    assert k.cols == 1
    # spanned by (1, -1): second coordinate is the negative of the first
    assert k.data[0][0] == -k.data[1][0]
    assert a.mul(k).is_zero()


def test_rank_image_cokernel_identity():
    r, img, q = linalg.rank_image_cokernel(Mat.identity(QQ, 4))
    assert r == 4 and img.cols == 4 and q.rows == 0


def test_rank_image_cokernel_zero():
    r, img, q = linalg.rank_image_cokernel(Mat.zeros(QQ, 3, 2))
    assert r == 0 and img.cols == 0 and q.rows == 3
    assert linalg.rank(q) == 3


def test_rank_mod_three():
    a = Mat.from_rows(F3, [[2, 4]])
    assert linalg.rank(a) == 1
    assert a.data[0] == [2, 1]


def test_random_matrices_satisfy_rank_nullity():
    rng = random.Random(7)
    for field in (QQ, F3):
        for _ in range(40):
            rows = rng.randrange(0, 5)
            cols = rng.randrange(0, 5)
            a = Mat.zeros(field, rows, cols)
            for i in range(rows):
                for j in range(cols):
                    a.data[i][j] = field.coerce(rng.randrange(-3, 4))
            k = linalg.solve_kernel(a)
            r, img, q = linalg.rank_image_cokernel(a)
            assert r + k.cols == cols
            if k.cols:
                assert a.mul(k).is_zero()
            if rows:
                assert q.mul(a).is_zero()
            assert q.rows == rows - r


def test_determinism_of_bases():
    a = Mat.from_rows(QQ, [[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    k1 = linalg.solve_kernel(a)
    k2 = linalg.solve_kernel(a.copy())
    assert k1 == k2


def test_solve_and_inverse():
    a = Mat.from_rows(QQ, [[2, 1], [1, 1]])
    inv = linalg.inverse(a)
    assert a.mul(inv) == Mat.identity(QQ, 2)
    b = Mat.from_rows(QQ, [[1], [0]])
    x = linalg.solve(a, b)
    assert a.mul(x) == b


def test_solve_inconsistent_returns_none():
    a = Mat.from_rows(QQ, [[1, 0], [1, 0]])
    b = Mat.from_rows(QQ, [[1], [0]])
    assert linalg.solve(a, b) is None


def test_nonzero_combinations_sweep_in_product_order():
    b1 = [Mat.from_rows(F3, [[1, 0]]), Mat.from_rows(F3, [[1]])]
    b2 = [Mat.from_rows(F3, [[0, 1]]), Mat.from_rows(F3, [[2]])]
    sums = list(linalg.nonzero_combinations([b1, b2], (0, 1, -1)))
    coeffs = [(0, 1), (0, -1), (1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1)]
    assert len(sums) == len(coeffs)
    for (c1, c2), got in zip(coeffs, sums):
        want = [Mat.from_rows(F3, [[c1, c2]]), Mat.from_rows(F3, [[c1 + 2 * c2]])]
        assert got == want
    assert linalg.combine((0, 0), [b1, b2]) is None
    assert list(linalg.nonzero_combinations([], (0, 1))) == []
