"""Direct sum decomposition and isomorphism testing, fully exact.

Strategy: compute End(M), its radical (trace form of the regular
representation in characteristic 0, lifted traces over a prime field), then
hunt for a nontrivial idempotent in the semisimple quotient and lift it.  A
module is certified indecomposable when the semisimple quotient is
one-dimensional, or commutative with a primitive element (a field).  Anything the deterministic search cannot decide raises
IdempotentSplitFailure loudly instead of guessing.
"""

from __future__ import annotations

import itertools
import operator
from functools import cached_property
from typing import List, Optional, Tuple

import sympy

from tauseq import linalg
from tauseq.errors import IdempotentSplitFailure, InconclusiveTest
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep, RepMorphism, hom_basis, submodule_from_spans


# --------------------------------------------------------------------------
# exact polynomial helpers (coefficient lists, low degree first)
# --------------------------------------------------------------------------

def _poly_trim(field: FieldSpec, p: list) -> list:
    while p and p[-1] == 0:
        p.pop()
    return p


def _poly_mul(field: FieldSpec, a: list, b: list) -> list:
    if not a or not b:
        return []
    out = [field.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            if y != 0:
                out[i + j] = field.add(out[i + j], field.mul(x, y))
    return _poly_trim(field, out)


def _poly_sub(field: FieldSpec, a: list, b: list) -> list:
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else field.zero
        y = b[i] if i < len(b) else field.zero
        out.append(field.sub(x, y))
    return _poly_trim(field, out)


def _poly_divmod(field: FieldSpec, a: list, b: list) -> Tuple[list, list]:
    a = a[:]
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [field.zero] * max(0, len(a) - len(b) + 1)
    binv = field.inv(b[-1])
    while len(a) >= len(b) and a:
        c = field.mul(a[-1], binv)
        d = len(a) - len(b)
        q[d] = c
        for i, y in enumerate(b):
            a[d + i] = field.sub(a[d + i], field.mul(c, y))
        _poly_trim(field, a)
    return _poly_trim(field, q), a


def _poly_gcdex(field: FieldSpec, a: list, b: list) -> Tuple[list, list, list]:
    """Return (g, u, v) with u a + v b = g = gcd(a, b), g monic."""
    r0, r1 = a[:], b[:]
    s0, s1 = [field.one], []
    t0, t1 = [], [field.one]
    while r1:
        q, r = _poly_divmod(field, r0, r1)
        r0, r1 = r1, r
        s0, s1 = s1, _poly_sub(field, s0, _poly_mul(field, q, s1))
        t0, t1 = t1, _poly_sub(field, t0, _poly_mul(field, q, t1))
    if r0:
        lead = field.inv(r0[-1])
        r0 = [field.mul(lead, c) for c in r0]
        s0 = [field.mul(lead, c) for c in s0]
        t0 = [field.mul(lead, c) for c in t0]
    return r0, s0, t0


def factor_poly(field: FieldSpec, coeffs: list) -> List[Tuple[list, int]]:
    """Irreducible factorization via sympy; monic factors, coefficients low first."""
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
        basis = linalg.from_columns(self.field, self.dim, [self.unit])
        return linalg.solve(basis, Mat.column(self.field, a)) is not None

    def is_commutative(self) -> bool:
        std = self.std_basis()
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.mul(std[i], std[j]) != self.mul(std[j], std[i]):
                    return False
        return True

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
        k = self.dim
        if k == 0:
            return []
        if self.field.characteristic == 0:
            basis = self._radical_basis_rational()
        else:
            basis = self._radical_basis_prime_field()
        self._verify_nilpotent_ideal(basis)
        return basis

    def _radical_basis_rational(self) -> List[list]:
        # the kernel of the trace form (x, y) -> tr(L_x L_y); the whole Gram
        # matrix is one product of flattened L_i with flattened transposes
        k = self.dim
        lm = self.left_mult
        flat_t = Mat.trusted(self.field, k * k, k, [[lj.data[c][r] for lj in lm]
                                                    for r in range(k) for c in range(k)])
        ker = linalg.solve_kernel(self._flat_left.mul(flat_t))
        return [ker.col(c) for c in range(ker.cols)]

    def _radical_basis_prime_field(self) -> List[list]:
        # Lifted traces (Cohen, Ivanyos and Wales 1997): I_-1 = A and
        # I_i = {x in I_(i-1) : g_i(x y) = 0 for all y in A}, where
        # g_i(x) = (tr(Lhat_x^(p^i)) mod p^(i+1)) / p^i on the integer lift
        # Lhat_x of L_x.  Each I_i is an ideal, g_i is linear on I_(i-1),
        # and I_i is the radical once p^(i+1) > dim A.  Plain traces cannot
        # refine: over GF(p), tr(M^p) = tr(M)^p repeats the first round.
        f = self.field
        p = f.characteristic
        k = self.dim
        current = self.std_basis()
        lxs = self.left_mult
        q = 1
        while current:
            n = len(current)
            g = [_power_trace(lx.data, q, q * p) for lx in lxs]
            if any(t % q for t in g):
                raise IdempotentSplitFailure("lifted trace is not divisible by p^i")
            # by linearity, g_i(x_s b_t) from the coordinates of x_s b_t,
            # which is column t of L_(x_s); on I_-1 = A (the standard
            # basis) those coordinates are the products themselves
            span = linalg.from_columns(f, k, current)
            coords = _hstack(f, k, lxs)
            if q > 1:
                coords = linalg.ColumnBasis(span).coords(coords)
                if coords is None:
                    raise IdempotentSplitFailure("radical candidate is not an ideal")
            gxy = Mat.trusted(f, 1, n, [[t // q for t in g]]).mul(coords).data[0]
            form = Mat.trusted(f, k, n, [[gxy[s * k + t] for s in range(n)]
                                         for t in range(k)])
            current = span.mul(linalg.solve_kernel(form)).columns()
            q *= p
            if q > k:
                break
            lxs = self.left_mult_matrices(current)
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


def _idempotent_from_coprime_split(core: AlgebraCore, x: list, m: list,
                                   factors: List[Tuple[list, int]]) -> list:
    f = core.field
    a = [f.one]
    g0, e0 = factors[0]
    for _ in range(e0):
        a = _poly_mul(f, a, g0)
    b = [f.one]
    for g, e in factors[1:]:
        for _ in range(e):
            b = _poly_mul(f, b, g)
    g, u, _v = _poly_gcdex(f, a, b)
    if len(g) != 1:
        raise IdempotentSplitFailure("expected coprime factor split")
    ua = _poly_divmod(f, _poly_mul(f, u, a), m)[1]
    return core.evaluate_poly(ua, x)


def _idempotent_from_nilpotent(core: AlgebraCore, y: list) -> Optional[list]:
    """In a semisimple algebra the right ideal yA is eA for an idempotent e
    acting as a left identity on it; solve for e linearly."""
    f = core.field
    k = core.dim
    gens = [core.mul(y, b) for b in core.std_basis()]
    span = linalg.column_space_basis(linalg.from_columns(f, k, gens))
    idim = span.cols
    if idim == 0:
        return None
    ideal = [span.col(c) for c in range(idim)]
    rows: List[list] = []
    rhs_rows: List[list] = []
    for z in ideal:
        prods = [core.mul(w, z) for w in ideal]
        for coord in range(k):
            rows.append([p[coord] for p in prods])
            rhs_rows.append([z[coord]])
    sol = linalg.solve(Mat(f, len(rows), idim, rows),
                       Mat(f, len(rhs_rows), 1, rhs_rows))
    if sol is None:
        raise IdempotentSplitFailure(
            "right ideal has no left identity; the radical must be wrong")
    e = [f.zero] * k
    for t in range(idim):
        c = sol.data[t][0]
        if c != 0:
            for coord in range(k):
                e[coord] = f.add(e[coord], f.mul(c, ideal[t][coord]))
    return e


def find_idempotent_semisimple(core: AlgebraCore) -> Optional[list]:
    """A nontrivial idempotent of a semisimple core, or None when the core is
    certified to be a division algebra (one-dimensional, or a commutative
    field).  Raises IdempotentSplitFailure when the search is inconclusive.
    """
    f = core.field
    k = core.dim
    if k <= 1:
        return None
    max_minpoly_degree = 0
    for x in _candidate_stream(core):
        if all(c == 0 for c in x) or core.is_scalar(x):
            continue
        m = core.minimal_polynomial(x)
        max_minpoly_degree = max(max_minpoly_degree, len(m) - 1)
        factors = factor_poly(f, m)
        e = None
        if len(factors) >= 2:
            e = _idempotent_from_coprime_split(core, x, m, factors)
        elif factors[0][1] >= 2:
            y = core.evaluate_poly(factors[0][0], x)
            e = _idempotent_from_nilpotent(core, y)
        if e is not None:
            if core.mul(e, e) != e:
                raise IdempotentSplitFailure("constructed element is not idempotent")
            if all(c == 0 for c in e) or core.is_scalar(e):
                raise IdempotentSplitFailure("constructed idempotent is trivial")
            return e
    if core.is_commutative() and max_minpoly_degree == k:
        return None  # primitive element certifies a field
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
        out = None
        for c, b in zip(coords, self.basis):
            if c == 0:
                continue
            term = b.scale(c)
            out = term if out is None else out.add(term)
        if out is None:
            m = self.module
            z = [Mat.zeros(self.field, d, d) for d in m.dims]
            return RepMorphism(m, m, z, validate=False)
        return out

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


def _split_by_idempotent(m: Rep, e: RepMorphism) -> Tuple[Rep, Rep]:
    spans_im = [e.maps[v] for v in range(len(m.dims))]
    spans_ker = [linalg.solve_kernel(e.maps[v]) for v in range(len(m.dims))]
    a, _ = submodule_from_spans(m, spans_im)
    b, _ = submodule_from_spans(m, spans_ker)
    if a.total_dim + b.total_dim != m.total_dim or a.total_dim == 0 or b.total_dim == 0:
        raise IdempotentSplitFailure("idempotent did not split the module")
    return a, b


def indecomposable_parts(m: Rep) -> List[Rep]:
    """All indecomposable direct summands of m, with repetition."""
    if m.total_dim == 0:
        return []
    end = EndAlgebra(m)
    if end.dim == 1:
        return [m]
    core = end.core()
    rad = core.radical_basis()
    quot, comp = core.quotient_by(rad)
    if quot.dim == 1:
        return [m]
    ebar = find_idempotent_semisimple(quot)
    if ebar is None:
        return [m]
    f = core.field
    e = [f.zero] * core.dim
    for t, c in enumerate(ebar):
        if c != 0:
            for coord in range(core.dim):
                e[coord] = f.add(e[coord], f.mul(c, comp[t][coord]))
    # lift through the nilpotent ideal: e <- 3e^2 - 2e^3 squares the error
    for _ in range(60):
        if core.mul(e, e) == e:
            break
        e2 = core.mul(e, e)
        e3 = core.mul(e2, e)
        e = [f.sub(f.mul(f.coerce(3), a), f.mul(f.coerce(2), b)) for a, b in zip(e2, e3)]
    else:
        raise IdempotentSplitFailure("idempotent lifting did not converge")
    a, b = _split_by_idempotent(m, end.morphism_of(e))
    return indecomposable_parts(a) + indecomposable_parts(b)


def decompose(m: Rep) -> List[Tuple[Rep, int]]:
    """Decomposition into indecomposables with multiplicities."""
    parts = indecomposable_parts(m)
    groups: List[Tuple[Rep, int]] = []
    for p in parts:
        for i, (q, mult) in enumerate(groups):
            if is_isomorphic(p, q):
                groups[i] = (q, mult + 1)
                break
        else:
            groups.append((p, 1))
    return groups


def delta(m: Rep) -> int:
    """Number of indecomposable direct summands."""
    return len(indecomposable_parts(m))


def is_isomorphic(m: Rep, n: Rep) -> bool:
    """Exact isomorphism test.

    Sweeps 0/1 coefficient combinations of the hom basis, then a full grid
    whose size certifies a negative answer: over the rationals, a nonzero
    product of vertex determinants has degree at most the total dimension,
    so it cannot vanish on the whole (degree+1)-point grid.
    """
    if m.algebra is not n.algebra or m.dims != n.dims:
        return False
    if m.total_dim == 0:
        return True
    basis = hom_basis(m, n)
    if not basis:
        return False
    k = len(basis)

    def invertible(coeffs) -> bool:
        f = None
        for c, b in zip(coeffs, basis):
            if c == 0:
                continue
            term = b.scale(c)
            f = term if f is None else f.add(term)
        if f is None:
            return False
        return all(linalg.is_invertible(mm) for mm in f.maps)

    if k <= 12:
        for mask in range(1, 2 ** k):
            if invertible([1 if mask >> i & 1 else 0 for i in range(k)]):
                return True
    degree = sum(m.dims)
    field = m.algebra.field
    if field.characteristic and field.characteristic <= degree:
        grid = list(range(field.characteristic))
        certifies = False  # a small prime field grid may be too coarse
    else:
        grid = list(range(degree + 1))
        certifies = True
    if len(grid) ** k > 300000:
        raise InconclusiveTest("isomorphism grid of size %d exceeds the guard"
                               % len(grid) ** k)
    for coeffs in itertools.product(grid, repeat=k):
        if any(coeffs) and invertible(coeffs):
            return True
    if not certifies:
        raise InconclusiveTest("prime field too small to certify non-isomorphism")
    return False
