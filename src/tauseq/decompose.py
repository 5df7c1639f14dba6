"""Direct sum decomposition and isomorphism testing, fully exact.

A module M splits one way, by Fitting's lemma: for an endomorphism f and
N >= dim M, M = ker f^N + im f^N, and both summands are nonzero exactly when
f is neither nilpotent nor invertible.  Over Q the trace form
(x, y) -> tr_M(x y) of End(M) is read first: M is a faithful End(M)-module,
so the kernel of the form is rad End(M) (Dickson's criterion), and a Gram
matrix of rank 1 proves End(M) / rad = k, so M indecomposable, before any
structure constants are built.  Over GF(p) the kernel can be larger than
the radical, and the test is skipped.  Then each basis element of End(M) is
tried.  When none splits M, over Q the rank r of the trace form is
dim End(M) / rad, and the distinct irreducible factors of the
characteristic polynomials of a basis element x at the vertices are those
of the minimal polynomial of x modulo the radical: two of them, g and
another, make g(x) neither nilpotent nor invertible, so a split, and one,
of degree r, makes End(M) / rad = k[x] a field, so M indecomposable.  Only
when these decide nothing, and always over GF(p), is End(M) reduced
modulo its radical
(lifted traces of the regular representation, which stop at the trace form
in characteristic 0) and the semisimple quotient searched for a
nontrivial idempotent: the left identity of yA for a zero divisor y = g(x),
g a proper factor of the minimal polynomial of a candidate x.  Any preimage
of that idempotent in End(M) splits M; no lifting is needed.  M is certified
indecomposable when the quotient is one-dimensional, or a field: the search
ends at the first primitive element, a candidate whose minimal polynomial is
irreducible of degree the dimension of the quotient.  Anything the
deterministic search cannot decide raises IdempotentSplitFailure loudly
instead of guessing.  ``is_indecomposable`` stops at the first split;
``indecomposable_parts`` builds both summands and recurses.

Isomorphism needs no search: an indecomposable M is isomorphic to N exactly
when some element of a basis of Hom(M, N) is invertible, because End(M) is
local; direct sums are compared summand by summand.  The test is exact over
every field, prime fields of any size included.
"""

from __future__ import annotations

import itertools
import operator
from fractions import Fraction
from functools import cached_property
from math import isqrt
from typing import List, Optional, Tuple

from tauseq import linalg
from tauseq.errors import IdempotentSplitFailure
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep, RepMorphism, hom_basis, submodule_from_spans


def _rational_sqrt(q):
    """The exact square root of the rational q (an int or a Fraction) in
    canonical form when q is a rational square, else None."""
    if q < 0:
        return None
    n, d = isqrt(q.numerator), isqrt(q.denominator)
    if n * n != q.numerator or d * d != q.denominator:
        return None
    return n if d == 1 else Fraction(n, d)


def _sqrt_mod(a: int, p: int) -> Optional[int]:
    """A square root of a modulo an odd prime p (Tonelli-Shanks), or None
    when a is a non-residue by the Euler criterion."""
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) == 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return r


def _roots_low_degree(field: FieldSpec, cs: list) -> Optional[list]:
    """The roots, with repetition, of c0 + c1 x (+ c2 x^2) with a nonzero
    top coefficient, or None for a quadratic irreducible over the field."""
    p = field.characteristic
    if p:
        inv = pow(cs[-1], p - 2, p)
        if len(cs) == 2:
            return [-cs[0] * inv % p]
        c, b = cs[0] * inv % p, cs[1] * inv % p  # x^2 + b x + c
        if p == 2:  # 2 is not invertible: try both elements
            roots = [r for r in (0, 1) if (r * r + b * r + c) % 2 == 0]
            if len(roots) == 1:
                roots *= 2  # a single root of a quadratic is a double root
            return roots or None
        s = _sqrt_mod((b * b - 4 * c) % p, p)
        if s is None:
            return None
        half = (p + 1) // 2
        return [(s - b) * half % p, (-s - b) * half % p]
    # field.div, never int / int, which would give a float
    if len(cs) == 2:
        return [field.div(field.neg(cs[0]), cs[1])]
    c, b, a = cs
    s = _rational_sqrt(b * b - 4 * a * c)
    if s is None:
        return None
    return [field.div(s - b, 2 * a), field.div(-s - b, 2 * a)]


def _factor_low_degree(field: FieldSpec, cs: list) -> List[Tuple[list, int]]:
    if len(cs) <= 1:
        return []
    roots = _roots_low_degree(field, cs)
    if roots is None:
        lead = field.inv(cs[-1])
        return [([field.mul(lead, c) for c in cs], 1)]
    if len(roots) == 2 and roots[0] == roots[1]:
        return [([field.neg(roots[0]), field.one], 2)]
    p = field.characteristic
    if p:
        key = lambda r: -r % p  # the constant of x - r
    else:
        key = lambda r: (r.denominator, -r.numerator)  # x - r as d x + n
    return [([field.neg(r), field.one], 1) for r in sorted(roots, key=key)]


def factor_poly(field: FieldSpec, coeffs: list) -> List[Tuple[list, int]]:
    """Irreducible factorization; monic factors, coefficients low first.

    The factors and their order are sympy's ``factor_list``: sorted by
    (degree, multiplicity, dense coefficients high first), where over the
    rationals a linear factor is compared in its primitive integer form
    d x + n with d > 0.  Degree at most 2 is split natively (rational
    discriminant, or Euler criterion and Tonelli-Shanks over GF(p)); sympy
    is imported only for degree 3 and up.
    """
    cs = [field.coerce(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
    if len(cs) <= 3:
        return _factor_low_degree(field, cs)
    import sympy

    x = sympy.Symbol("x")
    if field.characteristic == 0:
        sympy_coeffs = [sympy.Rational(c.numerator, c.denominator)
                        for c in reversed(coeffs)]
        poly = sympy.Poly(sympy_coeffs, x, domain=sympy.QQ)
    else:
        poly = sympy.Poly([int(c) for c in reversed(coeffs)], x,
                          domain=sympy.GF(field.characteristic))
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        cs = list(reversed(fac.all_coeffs()))
        if field.characteristic == 0:
            cs = [field.coerce(sympy.Rational(c)) for c in cs]
        else:
            cs = [field.coerce(int(c)) for c in cs]
        lead = field.inv(cs[-1])
        cs = [field.mul(lead, c) for c in cs]
        out.append((cs, int(mult)))
    return out


# --------------------------------------------------------------------------
# structure-constant algebras
# --------------------------------------------------------------------------

def _power_trace(m: List[list], e: int, modulus: int) -> int:
    """tr(m^e) mod modulus for an integer matrix m."""
    n = len(m)
    out = [[int(i == j) for j in range(n)] for i in range(n)]
    base = m
    while e:
        if e & 1:
            out = _int_mat_mul(out, base, modulus)
        e >>= 1
        if e:
            base = _int_mat_mul(base, base, modulus)
    return sum(out[i][i] for i in range(n)) % modulus


def _int_mat_mul(a: List[list], b: List[list], modulus: int) -> List[list]:
    cols = list(zip(*b))
    return [[sum(map(operator.mul, row, col)) % modulus for col in cols] for row in a]


class AlgebraCore:
    """A unital associative algebra given by left multiplication matrices.

    left_mult[i] maps coordinate vectors x to the coordinates of b_i * x.
    """

    def __init__(self, field: FieldSpec, left_mult: List[Mat], unit: list):
        self.field = field
        self.dim = len(left_mult)
        self.left_mult = left_mult
        self.unit = unit

    def std_basis(self) -> List[list]:
        f = self.field
        return [[f.one if i == j else f.zero for j in range(self.dim)]
                for i in range(self.dim)]

    @cached_property
    def _flat_left(self) -> Mat:
        # row i is L_i flattened row-major, so x^T times it is L_x flattened
        k = self.dim
        return Mat.trusted(self.field, k, k * k,
                           [[x for row in li.data for x in row] for li in self.left_mult])

    def left_mult_matrices(self, xs: List[list]) -> List[Mat]:
        """L_x = sum_i x_i L_i for every x, from one product."""
        f = self.field
        k = self.dim
        flat = Mat.trusted(f, len(xs), k, xs).mul(self._flat_left)
        return [Mat.trusted(f, k, k, [row[r * k:(r + 1) * k] for r in range(k)])
                for row in flat.data]

    def left_mult_matrix(self, a: list) -> Mat:
        return self.left_mult_matrices([a])[0]

    @cached_property
    def _stacked_left(self) -> Mat:
        # [L_0; ...; L_(k-1)]: block i of (this Y) holds b_i y for each y
        return _vstack(self.field, self.dim, self.left_mult)

    def right_mult_matrices(self, ys: List[list]) -> List[Mat]:
        """R_y with R_y x = x y (column i is b_i y) for every y, from one product."""
        f = self.field
        k = self.dim
        prod = self._stacked_left.mul(linalg.from_columns(f, k, ys)).data
        return [Mat.trusted(f, k, k, [[prod[i * k + t][j] for i in range(k)]
                                      for t in range(k)])
                for j in range(len(ys))]

    def right_mult_matrix(self, a: list) -> Mat:
        return self.right_mult_matrices([a])[0]

    def mul(self, a: list, b: list) -> list:
        return _apply(self.left_mult_matrix(a), b)

    def is_scalar(self, a: list) -> bool:
        """Whether a is c times the unit, c read off the unit's first
        nonzero coordinate."""
        f = self.field
        i = next(i for i, u in enumerate(self.unit) if u != 0)
        c = f.div(a[i], self.unit[i])
        return all(x == f.mul(c, u) for x, u in zip(a, self.unit))

    def minimal_polynomial(self, a: list) -> list:
        """Monic minimal polynomial, coefficients low degree first."""
        f = self.field
        ra = self.right_mult_matrix(a)
        powers = [self.unit[:]]
        cur = self.unit[:]
        while True:
            cur = _apply(ra, cur)
            stack = linalg.from_columns(f, self.dim, powers)
            sol = linalg.solve(stack, Mat.column(f, cur))
            if sol is not None:
                coeffs = [f.neg(sol.data[i][0]) for i in range(len(powers))]
                coeffs.append(f.one)
                return coeffs
            powers.append(cur[:])

    def evaluate_poly(self, coeffs: list, a: list) -> list:
        f = self.field
        ra = self.right_mult_matrix(a)
        out = [f.zero] * self.dim
        for c in reversed(coeffs):
            out = _apply(ra, out)
            if c != 0:
                for i in range(self.dim):
                    out[i] = f.add(out[i], f.mul(c, self.unit[i]))
        return out

    # -- radical --

    def radical_basis(self) -> List[list]:
        # Lifted traces (Cohen, Ivanyos and Wales 1997): I_-1 = A and
        # I_i = {x in I_(i-1) : g_i(x y) = 0 for all y in A}, where
        # g_i(x) = (tr(Lhat_x^(p^i)) mod p^(i+1)) / p^i on the integer lift
        # Lhat_x of L_x.  Each I_i is an ideal, g_i is linear on I_(i-1),
        # and I_i is the radical once p^(i+1) > dim A.  Plain traces cannot
        # refine: over GF(p), tr(M^p) = tr(M)^p repeats the first round.
        # In characteristic 0, g_0 is the trace, so round 0 is the kernel of
        # the trace form tr(L_(x y)) = tr(L_x L_y), which is already the
        # radical (Dickson), and the loop stops there.
        f = self.field
        p = f.characteristic
        k = self.dim
        current = self.std_basis()
        lxs = self.left_mult
        q = 1
        while current:
            n = len(current)
            if p:
                g = [_power_trace(lx.data, q, q * p) for lx in lxs]
                if any(t % q for t in g):
                    raise IdempotentSplitFailure("lifted trace is not divisible by p^i")
                g = [t // q for t in g]
            else:
                g = [lx.trace() for lx in lxs]
            # by linearity, g_i(x_s b_t) from the coordinates of x_s b_t,
            # which is column t of L_(x_s); on I_-1 = A (the standard
            # basis) those coordinates are the products themselves
            span = linalg.from_columns(f, k, current)
            coords = _hstack(f, k, lxs)
            if q > 1:
                coords = linalg.ColumnBasis(span).coords(coords)
                if coords is None:
                    raise IdempotentSplitFailure("radical candidate is not an ideal")
            gxy = Mat.trusted(f, 1, n, [g]).mul(coords).data[0]
            form = Mat.trusted(f, k, n, [[gxy[s * k + t] for s in range(n)]
                                         for t in range(k)])
            current = span.mul(linalg.solve_kernel(form)).columns()
            q *= p
            if not q or q > k:
                break
            lxs = self.left_mult_matrices(current)
        self._verify_nilpotent_ideal(current)
        return current

    def _verify_nilpotent_ideal(self, basis: List[list]):
        if not basis:
            return
        f = self.field
        k = self.dim
        span = linalg.from_columns(f, k, basis)
        # column i of R_n is b_i n, column i of L_n is n b_i
        rights = self.right_mult_matrices(basis)
        products = _hstack(f, k, rights + self.left_mult_matrices(basis))
        if linalg.solve(span, products) is None:
            raise IdempotentSplitFailure("radical candidate is not an ideal")
        right_by = _vstack(f, k, rights)
        current = span
        for _ in range(k + 1):
            # block j of the product holds x n_j for every x spanning current
            prod = right_by.mul(current).data
            nxt = _hstack(f, k, [Mat.trusted(f, k, current.cols, prod[j * k:(j + 1) * k])
                                 for j in range(len(basis))])
            if nxt.is_zero():
                return
            current = linalg.column_space_basis(nxt)
        raise IdempotentSplitFailure("radical candidate is not nilpotent")

    def quotient_by(self, ideal_basis: List[list]) -> Tuple["AlgebraCore", List[list]]:
        """Quotient algebra by a nilpotent ideal.

        Returns the quotient core and a complement basis (vectors in self
        coordinates representing the quotient basis).
        """
        f = self.field
        k = self.dim
        if not ideal_basis:
            return self, self.std_basis()
        base = linalg.column_space_basis(linalg.from_columns(f, k, ideal_basis))
        _, pivots = linalg.rref(base.transpose())
        pivot_set = set(pivots)
        comp_idx = [i for i in range(k) if i not in pivot_set]
        comp = [[f.one if j == i else f.zero for j in range(k)] for i in comp_idx]
        full = linalg.from_columns(f, k, base.columns() + comp)
        # the last rows of full^-1 read off quotient coordinates
        project = Mat.trusted(f, len(comp), k, linalg.inverse(full).data[base.cols:])
        # comp_r comp_c is column c of L_(comp_r) restricted to the complement
        left = [project.mul(Mat.trusted(f, k, len(comp),
                                        [[row[j] for j in comp_idx]
                                         for row in self.left_mult[i].data]))
                for i in comp_idx]
        unit = [row[0] for row in project.mul(Mat.column(f, self.unit)).data]
        return AlgebraCore(f, left, unit), comp


def _apply(m: Mat, vec: list) -> list:
    return [row[0] for row in m.mul(Mat.column(m.field, vec)).data]


def _vstack(field: FieldSpec, cols: int, blocks: List[Mat]) -> Mat:
    return Mat.trusted(field, sum(b.rows for b in blocks), cols,
                       [row for b in blocks for row in b.data])


def _hstack(field: FieldSpec, rows: int, blocks: List[Mat]) -> Mat:
    return Mat.trusted(field, rows, sum(b.cols for b in blocks),
                       [[x for b in blocks for x in b.data[r]] for r in range(rows)])


# --------------------------------------------------------------------------
# idempotent search in a semisimple core
# --------------------------------------------------------------------------

def _candidate_stream(core: AlgebraCore):
    f = core.field
    k = core.dim
    std = core.std_basis()
    for b in std:
        yield b
    for i in range(k):
        for j in range(k):
            if i != j:
                yield core.mul(std[i], std[j])
    for i in range(k):
        for j in range(i + 1, k):
            yield [f.add(x, y) for x, y in zip(std[i], std[j])]
    if k <= 10:
        for mask in range(3, 2 ** k):
            if mask & (mask - 1) == 0:
                continue
            vec = [f.zero] * k
            for i in range(k):
                if mask >> i & 1:
                    vec = [f.add(x, y) for x, y in zip(vec, std[i])]
            yield vec
    limit = 2 * k + 6 if f.characteristic == 0 else min(f.characteristic, 2 * k + 6)
    for c in range(2, limit):
        cc = f.coerce(c)
        vec = [f.zero] * k
        power = f.one
        for i in range(k):
            vec = [f.add(x, f.mul(power, y)) for x, y in zip(vec, std[i])]
            power = f.mul(power, cc)
        yield vec


def _idempotent_of_right_ideal(core: AlgebraCore, y: list) -> list:
    """In a semisimple algebra the right ideal yA of a nonzero y is eA for an
    idempotent e acting as a left identity on it; solve for e linearly."""
    f = core.field
    k = core.dim
    gens = [core.mul(y, b) for b in core.std_basis()]
    span = linalg.column_space_basis(linalg.from_columns(f, k, gens))
    ideal = span.columns()
    rows: List[list] = []
    rhs_rows: List[list] = []
    for z in ideal:
        prods = [core.mul(w, z) for w in ideal]
        for coord in range(k):
            rows.append([p[coord] for p in prods])
            rhs_rows.append([z[coord]])
    sol = linalg.solve(Mat(f, len(rows), len(ideal), rows),
                       Mat(f, len(rhs_rows), 1, rhs_rows))
    if sol is None:
        raise IdempotentSplitFailure(
            "right ideal has no left identity; the radical must be wrong")
    return [row[0] for row in span.mul(sol).data]


def find_idempotent_semisimple(core: AlgebraCore) -> Optional[list]:
    """A nontrivial idempotent of a semisimple core, or None when the core is
    certified to be a division algebra.  Raises IdempotentSplitFailure when
    the search is inconclusive.

    A one-dimensional core is the field itself.  Otherwise each candidate x
    is read through its minimal polynomial m.  When m is irreducible of
    multiplicity 1, k[x] = k[t]/(m) is a field: if deg m = dim core it is the
    whole core, which has no nontrivial idempotent, and the search ends with
    None; else the next candidate is tried.  Any other m has a proper factor
    g, the first one ``factor_poly`` returns: y = g(x) is nonzero, since
    deg g < deg m, and a zero divisor, since m(x) = 0 and m is minimal.  So
    the right ideal yA is neither 0 nor the core, and its left identity is a
    nontrivial idempotent.
    """
    f = core.field
    k = core.dim
    if k <= 1:
        return None
    for x in _candidate_stream(core):
        if all(c == 0 for c in x) or core.is_scalar(x):
            continue
        m = core.minimal_polynomial(x)
        factors = factor_poly(f, m)
        if len(factors) == 1 and factors[0][1] == 1:
            if len(m) - 1 == k:
                return None  # k[x] = k[t]/(m) is all of the core, and a field
            continue
        e = _idempotent_of_right_ideal(core, core.evaluate_poly(factors[0][0], x))
        if core.mul(e, e) != e:
            raise IdempotentSplitFailure("constructed element is not idempotent")
        if all(c == 0 for c in e) or core.is_scalar(e):
            raise IdempotentSplitFailure("constructed idempotent is trivial")
        return e
    if f.characteristic and f.characteristic ** k <= 200000:
        for coeffs in itertools.product(range(f.characteristic), repeat=k):
            x = [f.coerce(c) for c in coeffs]
            if all(c == 0 for c in x) or core.is_scalar(x):
                continue
            if core.mul(x, x) == x:
                return x
        return None
    raise IdempotentSplitFailure(
        "cannot decide whether the semisimple quotient is a division algebra")


# --------------------------------------------------------------------------
# End(M) and the decomposition of representations
# --------------------------------------------------------------------------

def _flatten(morphism: RepMorphism) -> list:
    out = []
    for m in morphism.maps:
        for row in m.data:
            out.extend(row)
    return out


class EndAlgebra:
    """End(M) with structure constants, built from a hom basis.

    The flattened basis is factored once (``linalg.ColumnBasis``), so the
    coordinates of any batch of endomorphisms cost two matrix products.
    """

    def __init__(self, m: Rep):
        self.module = m
        self.field = m.algebra.field
        self.basis = hom_basis(m, m)
        self.dim = len(self.basis)

    @cached_property
    def _span(self) -> linalg.ColumnBasis:
        flat = [_flatten(b) for b in self.basis]
        return linalg.ColumnBasis(linalg.from_columns(self.field, len(flat[0]), flat))

    def _coords(self, vecs: Mat) -> Mat:
        c = self._span.coords(vecs)
        if c is None:
            raise ValueError("morphism does not lie in End(M)")
        return c

    def coords_of(self, morphism: RepMorphism) -> list:
        c = self._coords(Mat.column(self.field, _flatten(morphism)))
        return [row[0] for row in c.data]

    def morphism_of(self, coords: list) -> RepMorphism:
        m = self.module
        maps = linalg.combine(coords, [b.maps for b in self.basis])
        if maps is None:
            maps = [Mat.zeros(self.field, d, d) for d in m.dims]
        return RepMorphism(m, m, maps, validate=False)

    def trace_form_rank(self) -> int:
        """The rank of the Gram matrix tr_M(b_i b_j) of the basis, the trace
        taken on M vertex by vertex: tr(x y) at a vertex pairs x row-major
        with y column-major.  In characteristic 0 it is dim End(M) minus
        dim rad End(M) (Dickson's criterion, M being a faithful
        End(M)-module)."""
        f = self.field
        rows, cols = [], []
        for b in self.basis:
            rows.append([x for blk in b.maps for row in blk.data for x in row])
            cols.append([x for blk in b.maps for col in zip(*blk.data) for x in col])
        n = len(rows[0])
        return linalg.rank(Mat.trusted(f, self.dim, n, rows).mul(
            Mat.trusted(f, n, self.dim, [list(r) for r in zip(*cols)])))

    @cached_property
    def semisimple_dim(self) -> Optional[int]:
        """dim End(M) / rad End(M) over Q, the rank of the trace form; None
        over GF(p), where the kernel of the form can be larger than the
        radical (tr(1) = dim M vanishes when p divides it)."""
        return None if self.field.characteristic else self.trace_form_rank()

    def core(self) -> AlgebraCore:
        """Structure constants: column i k + j of one batch holds the
        flattened product b_i b_j, and a last column the identity."""
        f = self.field
        k = self.dim
        rows = []
        for v, d in enumerate(self.module.dims):
            if d == 0:
                continue
            blocks = [b.maps[v].data for b in self.basis]
            stacked = Mat.trusted(f, k * d, d, [r for blk in blocks for r in blk])
            side = Mat.trusted(f, d, k * d, [[x for blk in blocks for x in blk[r]]
                                             for r in range(d)])
            prod = stacked.mul(side).data  # block (i, j) is b_i b_j at v
            for r in range(d):
                for c in range(d):
                    row = [prod[i * d + r][j * d + c]
                           for i in range(k) for j in range(k)]
                    row.append(f.one if r == c else f.zero)
                    rows.append(row)
        coords = self._coords(Mat.trusted(f, len(rows), k * k + 1, rows)).data
        left = [Mat.trusted(f, k, k, [row[i * k:(i + 1) * k] for row in coords])
                for i in range(k)]
        return AlgebraCore(f, left, [row[k * k] for row in coords])


def _idempotent_mod_radical(m: Rep, end: Optional[EndAlgebra] = None) -> Optional[RepMorphism]:
    """An endomorphism e0 of a nonzero m whose class in End(m) modulo its
    radical is a nontrivial idempotent, or None when m is certified
    indecomposable; end is End(m) when the caller has built it.

    e0 is the plain preimage of the idempotent the search finds in the
    semisimple quotient, not lifted: it is neither nilpotent nor invertible,
    since its class is neither 0 nor 1, so it splits m by Fitting's lemma.
    """
    end = end or EndAlgebra(m)
    core = end.core()
    rad = core.radical_basis()
    quot, comp = core.quotient_by(rad)
    if quot.dim == 1:
        return None
    ebar = find_idempotent_semisimple(quot)
    if ebar is None:
        return None
    return end.morphism_of(_apply(linalg.from_columns(core.field, core.dim, comp), ebar))


def _fitting_power(f: RepMorphism) -> Optional[List[Mat]]:
    """The maps f_v^N, N >= dim M, of an endomorphism f of M when they split
    M by Fitting's lemma, else None: M = ker f^N + im f^N, and both are
    nonzero exactly when 0 < sum_v rank(f_v^N) < dim M.  The kernel and image
    of a linear map on a d-dimensional space no longer change from its d-th
    power on, so each vertex squares its map only until the exponent reaches
    its dimension."""
    powers = []
    total = rank = 0
    for x in f.maps:
        d = x.rows
        power = 1
        while power < d:
            x = x.mul(x)
            power *= 2
        powers.append(x)
        total += d
        rank += linalg.rank(x) if d else 0
    return powers if 0 < rank < total else None


def _local_by_trace_form(end: EndAlgebra) -> bool:
    """Whether the trace form certifies End(M) local: over Q a Gram matrix
    of rank 1 makes End(M) / rad End(M) one-dimensional, so k, and M
    indecomposable (``EndAlgebra.semisimple_dim``)."""
    return end.semisimple_dim == 1


def _characteristic_polynomial(field: FieldSpec, x: Mat) -> list:
    """det(t - x) for a 1 x 1 or 2 x 2 matrix x, coefficients low first."""
    if x.rows == 1:
        return [field.neg(x.data[0][0]), field.one]
    (a, b), (c, d) = x.data
    return [field.sub(field.mul(a, d), field.mul(b, c)), field.neg(field.add(a, d)), field.one]


def _evaluate(g: list, x: RepMorphism) -> RepMorphism:
    """g(x) for an endomorphism x, vertex by vertex (Horner)."""
    maps = []
    for blk in x.maps:
        one = Mat.identity(blk.field, blk.rows)
        out = one.scale(g[-1])
        for c in reversed(g[:-1]):
            out = out.mul(blk).add(one.scale(c))
        maps.append(out)
    return RepMorphism(x.source, x.target, maps, validate=False)


def _by_characteristic_polynomials(end: EndAlgebra) -> Tuple[bool, Optional[List[Mat]]]:
    """(True, the maps g(x)_v^N that split M by Fitting's lemma), (True,
    None) when M is certified indecomposable, or (False, None) when the
    test decides nothing, as it does over GF(p).

    Over Q, r = ``semisimple_dim`` is dim End(M) / rad.  Take x in the basis
    of End(M).  M is a faithful End(M)-module and rad End(M) is nilpotent,
    so the distinct irreducible factors of the characteristic polynomials
    of the vertex maps x_v are those of the minimal polynomial of x, and of
    that of its class modulo the radical, which is their product since the
    quotient is semisimple.  With two or more factors g, ..., g(x) is
    neither nilpotent nor invertible, so it splits M.  The class of x
    generates a subalgebra of End(M) / rad whose dimension, at most r, is
    the sum of the degrees of the factors.  So a factor g of degree r is
    the only one, and the class generates the field k[t]/(g), which is then
    all of End(M) / rad: End(M) is local.  Only vertex maps of size at most
    2 are factored, natively (``factor_poly``); the factors they show
    decide both cases whatever the larger ones hold.
    """
    r = end.semisimple_dim
    if r is None:
        return False, None
    f = end.field
    for x in end.basis:
        factors = []
        for blk in x.maps:
            if 0 < blk.rows <= 2:
                for g, _ in factor_poly(f, _characteristic_polynomial(f, blk)):
                    if g not in factors:
                        factors.append(g)
        if len(factors) > 1:
            powers = _fitting_power(_evaluate(factors[0], x))
            if powers is None:
                raise IdempotentSplitFailure("a characteristic factor did not split the module")
            return True, powers
        if factors and len(factors[0]) - 1 == r:
            return True, None
    return False, None


def _splitting_maps(m: Rep) -> Optional[List[Mat]]:
    """The maps f_v^N of an endomorphism f that splits a nonzero m by
    Fitting's lemma, or None when m is certified indecomposable.

    Over Q a trace form of rank 1 certifies m indecomposable at once
    (``_local_by_trace_form``).  Otherwise each basis element of End(m) is
    tried; when none splits m, over Q the characteristic polynomials of the
    basis elements' vertex maps are read (``_by_characteristic_polynomials``),
    and only when they decide nothing, and always over GF(p), does the
    idempotent search run, and only it certifies m indecomposable then.
    """
    end = EndAlgebra(m)
    if end.dim == 1 or _local_by_trace_form(end):
        return None
    for b in end.basis:
        powers = _fitting_power(b)
        if powers is not None:
            return powers
    decided, powers = _by_characteristic_polynomials(end)
    if decided:
        return powers
    e0 = _idempotent_mod_radical(m, end)
    if e0 is None:
        return None
    powers = _fitting_power(e0)
    if powers is None:
        raise IdempotentSplitFailure("idempotent did not split the module")
    return powers


def is_indecomposable(m: Rep) -> bool:
    """Whether m is nonzero and indecomposable, without building summands."""
    return m.total_dim > 0 and _splitting_maps(m) is None


def indecomposable_parts(m: Rep) -> List[Rep]:
    """All indecomposable direct summands of m, with repetition."""
    if m.total_dim == 0:
        return []
    powers = _splitting_maps(m)
    if powers is None:
        return [m]
    # m = im f^N + ker f^N, and the rank check makes both summands nonzero
    image, _ = submodule_from_spans(m, powers)
    kernel, _ = submodule_from_spans(m, [linalg.solve_kernel(x) for x in powers])
    return indecomposable_parts(image) + indecomposable_parts(kernel)


def _basis_has_iso(m: Rep, n: Rep) -> bool:
    return m.dims == n.dims and any(f.is_iso() for f in hom_basis(m, n))


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Exact isomorphism test over any field.

    For m indecomposable End(m) is local, so given an isomorphism phi the
    non-isomorphisms m -> n form the proper subspace phi o rad End(m), which
    cannot contain a basis of Hom(m, n) (Fitting's lemma): m and n are
    isomorphic exactly when some basis element is.  A decomposable m is
    matched summand by summand (Krull-Schmidt).
    """
    if m.algebra is not n.algebra or m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    if any(f.is_iso() for f in basis):
        return True
    if not basis:
        return False
    parts = indecomposable_parts(m)
    if len(parts) == 1:
        return False
    rest = indecomposable_parts(n)
    for p in parts:
        i = next((i for i, q in enumerate(rest) if _basis_has_iso(p, q)), None)
        if i is None:
            return False
        del rest[i]
    return not rest
