"""The field-specialised kernel against a textbook Gauss-Jordan reference.

The reference below dispatches every scalar operation through FieldSpec,
exactly as a generic implementation would; it exists only here.  Inputs are
compared on their canonical scalars (FieldSpec.coerce), so int-valued
entries over the rationals must come back as Fractions, as the reference
gives them.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tauseq import linalg
from tauseq.decompose import EndAlgebra
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import RepMorphism, direct_sum, projective, simple

FIELDS = [FieldSpec(0), FieldSpec(2), FieldSpec(3), FieldSpec(5)]


# -- reference ------------------------------------------------------------

def ref_rref(f, rows, ncols):
    m = [[f.coerce(x) for x in row] for row in rows]
    nrows = len(m)
    pivots = []
    r = 0
    for c in range(ncols):
        if r >= nrows:
            break
        pr = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = f.inv(m[r][c])
        m[r] = [f.mul(inv, x) for x in m[r]]
        for i in range(nrows):
            if i != r and m[i][c] != 0:
                factor = m[i][c]
                m[i] = [f.sub(x, f.mul(factor, y)) for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


def ref_mul(f, a, b, inner, ncols):
    out = []
    for arow in a:
        row = []
        for j in range(ncols):
            acc = f.zero
            for k in range(inner):
                acc = f.add(acc, f.mul(f.coerce(arow[k]), f.coerce(b[k][j])))
            row.append(acc)
        out.append(row)
    return out


def ref_kernel(f, rows, ncols):
    r, pivots = ref_rref(f, rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    out = [[f.zero] * len(free) for _ in range(ncols)]
    for k, j in enumerate(free):
        out[j][k] = f.one
        for i, pc in enumerate(pivots):
            if r[i][j] != 0:
                out[pc][k] = f.neg(r[i][j])
    return out


def ref_solve(f, a, b, ncols, bcols):
    aug = [ra + rb for ra, rb in zip(a, b)]
    r, pivots = ref_rref(f, aug, ncols + bcols)
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[f.zero] * bcols for _ in range(ncols)]
    for i, pc in enumerate(pivots):
        x[pc] = r[i][ncols:]
    return x


def types(rows):
    return [[type(x) for x in row] for row in rows]


# -- strategies -------------------------------------------------------------

def scalars(f):
    if f.characteristic:
        return st.integers(0, f.characteristic - 1)
    small = st.integers(-3, 3)
    return st.one_of(small,  # int-valued entries over the rationals
                     st.builds(Fraction, small, st.integers(1, 4)))


@st.composite
def matrices(draw, rows=None, cols=None, field=None):
    f = field if field is not None else draw(st.sampled_from(FIELDS))
    nrows = draw(st.integers(0, 5)) if rows is None else rows
    ncols = draw(st.integers(0, 6)) if cols is None else cols
    # sparse entries mimic the hom systems the package solves
    entry = st.one_of(st.just(0), st.just(0), scalars(f))
    data = draw(st.lists(st.lists(entry, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    return f, nrows, ncols, data


def canonical_type(f):
    return int if f.characteristic else Fraction


# -- properties -------------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(matrices())
def test_rref_matches_reference(case):
    f, nrows, ncols, data = case
    r, pivots = linalg.rref(Mat(f, nrows, ncols, [row[:] for row in data]))
    ref, ref_pivots = ref_rref(f, data, ncols)
    assert (r.rows, r.cols) == (nrows, ncols)
    assert pivots == ref_pivots
    assert r.data == ref
    assert types(r.data) == types(ref)
    assert all(type(x) is canonical_type(f) for row in r.data for x in row)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mul_matches_reference(data):
    f = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    _, _, _, a = data.draw(matrices(n, k, f))
    _, _, _, b = data.draw(matrices(k, m, f))
    prod = Mat(f, n, k, a).mul(Mat(f, k, m, b))
    ref = ref_mul(f, a, b, k, m)
    assert (prod.rows, prod.cols) == (n, m)
    assert prod.data == ref
    assert types(prod.data) == types(ref)


@settings(max_examples=300, deadline=None)
@given(matrices())
def test_solve_kernel_matches_reference(case):
    f, nrows, ncols, data = case
    ker = linalg.solve_kernel(Mat(f, nrows, ncols, data))
    ref = ref_kernel(f, data, ncols)
    assert ker.rows == ncols
    assert ker.data == ref
    assert types(ker.data) == types(ref)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_solve_matches_reference(data):
    f = data.draw(st.sampled_from(FIELDS))
    n, k, m = (data.draw(st.integers(0, 5)) for _ in range(3))
    _, _, _, a = data.draw(matrices(n, k, f))
    _, _, _, b = data.draw(matrices(n, m, f))
    x = linalg.solve(Mat(f, n, k, a), Mat(f, n, m, b))
    ref = ref_solve(f, [[f.coerce(v) for v in row] for row in a],
                    [[f.coerce(v) for v in row] for row in b], k, m)
    if ref is None:
        assert x is None
    else:
        assert x is not None and x.data == ref
        assert types(x.data) == types(ref)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_column_basis_coordinates_match_solve(data):
    f = data.draw(st.sampled_from(FIELDS))
    _, n, k, basis = data.draw(matrices(field=f))
    b = Mat(f, n, k, [[f.coerce(x) for x in row] for row in basis])
    img = linalg.column_space_basis(b)
    if img.cols == 0:
        return
    cb = linalg.ColumnBasis(img)
    _, _, m, vecs = data.draw(matrices(n, None, f))
    v = Mat(f, n, m, [[f.coerce(x) for x in row] for row in vecs])
    coords = cb.coords(v)
    ref = linalg.solve(img, v)
    if ref is None:
        assert coords is None
    else:
        assert coords is not None and coords.data == ref.data


# -- End(M) coordinates -------------------------------------------------------

def test_coords_of_rejects_morphism_outside_end(a2):
    p1 = projective(a2, 0)
    end = EndAlgebra(p1)
    f = a2.field
    ident = RepMorphism(p1, p1, [Mat.identity(f, d) for d in p1.dims])
    assert end.coords_of(ident.scale(3)) == [3]
    # identity at vertex 1, zero at vertex 2: the square does not commute
    bad = RepMorphism(p1, p1, [Mat.identity(f, 1), Mat.zeros(f, 1, 1)],
                      validate=False)
    with pytest.raises(ValueError, match="does not lie in End"):
        end.coords_of(bad)


def test_core_structure_constants_multiply_like_compositions(a2):
    m, _, _ = direct_sum([projective(a2, 0), simple(a2, 0), simple(a2, 1)])
    end = EndAlgebra(m)
    core = end.core()
    assert core.dim == end.dim
    for i, bi in enumerate(end.basis):
        for j, bj in enumerate(end.basis):
            ei = [1 if t == i else 0 for t in range(end.dim)]
            ej = [1 if t == j else 0 for t in range(end.dim)]
            assert core.mul(ei, ej) == end.coords_of(bi.compose(bj))
    ident = RepMorphism(m, m, [Mat.identity(a2.field, d) for d in m.dims])
    assert core.unit == end.coords_of(ident)
