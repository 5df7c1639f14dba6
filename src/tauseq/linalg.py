"""Dense exact matrices and the handful of solvers the rest of the package needs.

Pivoting is fixed (first nonzero entry in column order), so every basis
returned here is reproducible run to run.  Elimination and products have one
path per characteristic and never dispatch through FieldSpec per scalar:
over GF(p) they run on plain ints reduced mod p; over the rationals each row
is scaled to a primitive integer row, elimination stays fraction-free, and
every entry is divided once at the end.  Results over the rationals are
canonical scalars (see ``fields``): an int when integral, else a Fraction
with denominator > 1, so a matrix the kernel just produced is rescaled at C
speed.  The reduced echelon form is unique, so R and the pivots are exactly
those of textbook Gauss-Jordan.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from operator import attrgetter, mul
from typing import List, Optional, Tuple

from tauseq.fields import FieldSpec

_numerator = attrgetter("numerator")
_denominator = attrgetter("denominator")


def _ratio(n: int, d: int):
    """The canonical rational n / d: an int when d divides n."""
    if n % d:
        return Fraction(n, d)
    return n // d


def _fractions(ints: list, d: int) -> list:
    """[n / d for n in ints] in canonical form; ints itself when d == 1."""
    if d == 1:
        return ints
    return [_ratio(n, d) for n in ints]


def _scaled_rows(rows: List[list]) -> Tuple[List[list], int]:
    """Rational rows as new (integer rows, d), with one common denominator d.

    On canonical scalars both attributes are read at C speed from ints; an
    integral Fraction from outside the kernel still comes back as its int.
    """
    d = lcm(*map(_denominator, chain.from_iterable(rows)))
    if d == 1:
        return [list(map(_numerator, row)) for row in rows], 1
    return [[x.numerator * (d // x.denominator) for x in row] for row in rows], d


class Mat:
    """An exact rows x cols matrix over a FieldSpec."""

    __slots__ = ("field", "rows", "cols", "data")

    def __init__(self, field: FieldSpec, rows: int, cols: int, data: List[list]):
        if len(data) != rows or any(len(r) != cols for r in data):
            raise ValueError("shape mismatch: declared %dx%d" % (rows, cols))
        self.field = field
        self.rows = rows
        self.cols = cols
        self.data = data

    @classmethod
    def trusted(cls, field: FieldSpec, rows: int, cols: int, data: List[list]) -> "Mat":
        """A matrix whose shape its caller guarantees: no shape check."""
        m = cls.__new__(cls)
        m.field = field
        m.rows = rows
        m.cols = cols
        m.data = data
        return m

    # -- constructors --

    @staticmethod
    def zeros(field: FieldSpec, rows: int, cols: int) -> "Mat":
        z = field.zero
        return Mat.trusted(field, rows, cols, [[z] * cols for _ in range(rows)])

    @staticmethod
    def identity(field: FieldSpec, n: int) -> "Mat":
        m = Mat.zeros(field, n, n)
        one = field.one
        for i in range(n):
            m.data[i][i] = one
        return m

    @staticmethod
    def from_rows(field: FieldSpec, rows: List[list]) -> "Mat":
        data = [[field.coerce(x) for x in r] for r in rows]
        ncols = len(data[0]) if data else 0
        return Mat(field, len(data), ncols, data)

    @staticmethod
    def column(field: FieldSpec, entries: list) -> "Mat":
        return Mat.trusted(field, len(entries), 1, [[field.coerce(x)] for x in entries])

    def copy(self) -> "Mat":
        return Mat.trusted(self.field, self.rows, self.cols, [row[:] for row in self.data])

    # -- algebra --

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ValueError("cannot multiply %dx%d by %dx%d"
                             % (self.rows, self.cols, other.rows, other.cols))
        p = self.field.characteristic
        if p:
            cols = list(zip(*other.data)) if other.rows else [()] * other.cols
            data = [[sum(map(mul, arow, col)) % p for col in cols]
                    for arow in self.data]
        else:
            a, da = _scaled_rows(self.data)
            b, db = _scaled_rows(other.data)
            cols = list(zip(*b)) if other.rows else [()] * other.cols
            data = [_fractions([sum(map(mul, arow, col)) for col in cols], da * db)
                    for arow in a]
        return Mat.trusted(self.field, self.rows, other.cols, data)

    def add(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols,
                   [[f.add(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def sub(self, other: "Mat") -> "Mat":
        f = self.field
        return Mat(f, self.rows, self.cols,
                   [[f.sub(a, b) for a, b in zip(r1, r2)]
                    for r1, r2 in zip(self.data, other.data)])

    def scale(self, c) -> "Mat":
        f = self.field
        c = f.coerce(c)
        return Mat.trusted(f, self.rows, self.cols,
                           [[f.mul(c, a) for a in r] for r in self.data])

    def neg(self) -> "Mat":
        f = self.field
        return Mat.trusted(f, self.rows, self.cols,
                           [[f.neg(a) for a in r] for r in self.data])

    def transpose(self) -> "Mat":
        if not self.rows:
            return Mat.zeros(self.field, self.cols, 0)
        return Mat.trusted(self.field, self.cols, self.rows,
                           [list(c) for c in zip(*self.data)])

    def hstack(self, other: "Mat") -> "Mat":
        if self.rows != other.rows:
            raise ValueError("hstack row mismatch")
        return Mat.trusted(self.field, self.rows, self.cols + other.cols,
                           [r1 + r2 for r1, r2 in zip(self.data, other.data)])

    def vstack(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ValueError("vstack col mismatch")
        return Mat.trusted(self.field, self.rows + other.rows, self.cols,
                           [r[:] for r in self.data] + [r[:] for r in other.data])

    def col(self, j: int) -> list:
        return [self.data[i][j] for i in range(self.rows)]

    def columns(self) -> List[list]:
        return [self.col(j) for j in range(self.cols)]

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.data for x in row)

    def trace(self):
        f = self.field
        t = f.zero
        for i in range(min(self.rows, self.cols)):
            t = f.add(t, self.data[i][i])
        return t

    def __eq__(self, other):
        return (isinstance(other, Mat) and self.rows == other.rows
                and self.cols == other.cols and self.data == other.data)

    def __hash__(self):
        raise TypeError("Mat is unhashable by design; key by canonical ids instead")

    def __repr__(self):
        return "Mat(%dx%d, %r)" % (self.rows, self.cols, self.data)


def block_diag(field: FieldSpec, blocks: List[Mat]) -> Mat:
    rows = sum(b.rows for b in blocks)
    cols = sum(b.cols for b in blocks)
    out = Mat.zeros(field, rows, cols)
    ro = co = 0
    for b in blocks:
        for i in range(b.rows):
            out.data[ro + i][co:co + b.cols] = b.data[i][:]
        ro += b.rows
        co += b.cols
    return out


def _eliminate_mod(m: List[list], ncols: int, p: int) -> List[int]:
    """Gauss-Jordan in place on canonical ints mod p; returns the pivots."""
    nrows = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i], m[r] = m[r], row
        if row[c] != 1:
            # columns left of a pivot are already clear in its row
            inv = pow(row[c], -1, p)
            row[c:] = [x * inv % p for x in row[c:]]
        support = [j for j in range(c + 1, ncols) if row[j]]
        for other in m:
            a = other[c]
            if a and other is not row:
                other[c] = 0
                for j in support:
                    other[j] = (other[j] - a * row[j]) % p
        pivots.append(c)
        r += 1
    return pivots


def _eliminate_int(m: List[list], ncols: int) -> List[int]:
    """Fraction-free Gauss-Jordan in place on primitive integer rows.

    Each row stays a nonzero multiple of the row exact elimination would
    hold, so zero patterns and pivots agree; row i is R[i] times its pivot.
    """
    nrows = len(m)
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for i in range(r, nrows):
            if m[i][c]:
                break
        else:
            continue
        row = m[i]
        m[i], m[r] = m[r], row
        piv = row[c]
        support = [j for j in range(c + 1, ncols) if row[j]]
        for other in m:
            a = other[c]
            if a and other is not row:
                # other <- s * other - t * row, with s > 0
                g = gcd(a, piv)
                s, t = piv // g, a // g
                if s < 0:
                    s, t = -s, -t
                if s != 1:
                    other[:] = [x * s for x in other]
                other[c] = 0
                for j in support:
                    other[j] -= t * row[j]
                g = gcd(*other)
                if g > 1:
                    other[:] = [x // g for x in other]
        pivots.append(c)
        r += 1
    return pivots


def rref(a: Mat) -> Tuple[Mat, List[int]]:
    """Reduced row echelon form with the fixed first-nonzero pivot rule.

    Returns (R, pivot_columns).
    """
    p = a.field.characteristic
    ncols = a.cols
    if p:
        m = [row[:] for row in a.data]
        pivots = _eliminate_mod(m, ncols, p)
    else:
        m, _ = _scaled_rows(a.data)
        for i, row in enumerate(m):
            g = gcd(*row)
            if g > 1:
                m[i] = [x // g for x in row]
        pivots = _eliminate_int(m, ncols)
        for i in range(a.rows):
            if i < len(pivots):
                piv = m[i][pivots[i]]
                if piv != 1:
                    m[i] = [_ratio(x, piv) for x in m[i]]
            else:
                m[i] = [0] * ncols
    return Mat.trusted(a.field, a.rows, ncols, m), pivots


def rank(a: Mat) -> int:
    return len(rref(a)[1])


def solve_kernel(a: Mat) -> Mat:
    """Basis of the right null space, as the columns of the returned matrix.

    The basis is the standard one read off the reduced echelon form: one
    column per free variable, so rank + returned columns == cols.
    """
    f = a.field
    r, pivots = rref(a)
    pivot_set = set(pivots)
    free = [j for j in range(a.cols) if j not in pivot_set]
    out = Mat.zeros(f, a.cols, len(free))
    for k, j in enumerate(free):
        out.data[j][k] = f.one
        for i, pc in enumerate(pivots):
            v = r.data[i][j]
            if v != 0:
                out.data[pc][k] = f.neg(v)
    return out


def column_space_basis(a: Mat) -> Mat:
    """The pivot columns of ``a`` (original entries, deterministic choice)."""
    _, pivots = rref(a)
    f = a.field
    out = Mat.zeros(f, a.rows, len(pivots))
    for k, j in enumerate(pivots):
        for i in range(a.rows):
            out.data[i][k] = a.data[i][j]
    return out


def rank_image_cokernel(a: Mat) -> Tuple[int, Mat, Mat]:
    """Rank, a column basis of the image, and a cokernel projection Q.

    Q has shape (rows - rank) x rows, full row rank, and Q a == 0; its kernel
    is exactly the column space of ``a``.
    """
    img = column_space_basis(a)
    r = img.cols
    q = solve_kernel(a.transpose()).transpose()
    return r, img, q


def solve(a: Mat, b: Mat) -> Optional[Mat]:
    """Solve a X = b columnwise; None if any column is inconsistent."""
    rr, pivots = rref(a.hstack(b))
    if pivots and pivots[-1] >= a.cols:
        return None
    x = Mat.zeros(a.field, a.cols, b.cols)
    for i, pc in enumerate(pivots):
        x.data[pc] = rr.data[i][a.cols:]
    return x


def is_invertible(a: Mat) -> bool:
    return a.rows == a.cols and rank(a) == a.rows


def inverse(a: Mat) -> Mat:
    if a.rows != a.cols:
        raise ValueError("inverse of non-square matrix")
    # a singular a leaves a pivot in the identity block, so solve says None
    x = solve(a, Mat.identity(a.field, a.rows))
    if x is None:
        raise ValueError("matrix is singular")
    return x


class ColumnBasis:
    """Coordinates with respect to the linearly independent columns of B.

    B is factored once: its pivot rows (the pivot columns of B^T) carry an
    invertible k x k minor M.  A vector v in the column span has the
    coordinates c = M^-1 v[pivot rows], and the exact residual B c == v on
    the remaining rows decides whether v lies in the span at all.
    """

    __slots__ = ("pivot_rows", "other_rows", "minor_inverse", "others")

    def __init__(self, basis: Mat):
        _, self.pivot_rows = rref(basis.transpose())
        if len(self.pivot_rows) != basis.cols:
            raise ValueError("basis columns are linearly dependent")
        pivot_set = set(self.pivot_rows)
        self.other_rows = [r for r in range(basis.rows) if r not in pivot_set]
        self.minor_inverse = inverse(_pick_rows(basis, self.pivot_rows))
        self.others = _pick_rows(basis, self.other_rows)

    def coords(self, vecs: Mat) -> Optional[Mat]:
        """The coordinates of every column of vecs, or None when one of
        them lies outside the span."""
        c = self.minor_inverse.mul(_pick_rows(vecs, self.pivot_rows))
        return c if self.others.mul(c) == _pick_rows(vecs, self.other_rows) else None


def _pick_rows(m: Mat, which: List[int]) -> Mat:
    return Mat.trusted(m.field, len(which), m.cols, [m.data[r] for r in which])


def from_columns(field: FieldSpec, rows: int, cols: List[list]) -> Mat:
    if any(len(c) != rows for c in cols):
        raise ValueError("column length mismatch")
    if not cols:
        return Mat.zeros(field, rows, 0)
    coerce = field.coerce
    return Mat.trusted(field, rows, len(cols), [[coerce(x) for x in r] for r in zip(*cols)])


def combine(coeffs, basis: List[List[Mat]]) -> Optional[List[Mat]]:
    """sum c_i b_i over block lists b_i (one matrix per block, added
    blockwise), or None when every coefficient is zero."""
    out = None
    for c, blocks in zip(coeffs, basis):
        if c == 0:
            continue
        term = [m.scale(c) for m in blocks]
        out = term if out is None else [x.add(y) for x, y in zip(out, term)]
    return out
