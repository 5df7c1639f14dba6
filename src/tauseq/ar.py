"""The translate tau = D Tr, rigidity tests, and extension computations.

tau is computed from a minimal projective presentation: read the map as a
matrix of path coefficients, rebuild it over the opposite algebra with every
path reversed, take the cokernel there, and dualize back.  Two extension
counts are provided: Ext1From / ext1_dim (honest Ext^1 via the syzygy of the
projective cover) and tau_hom_dim (the presentation cokernel, which equals
dim Hom(N, tau M) and never constructs tau).

For an indecomposable non-projective X the almost split sequence

    0 -> tau X -> E -> X -> 0

is the non-split extension whose class lies in the socle of Ext^1(X, tau X)
as an End(X)-module (Auslander-Reiten-Smalo, ch. V): pulling the class back
along any radical endomorphism of X splits it.  The summands of E are the
sources of the irreducible maps into X.  almost_split_middle builds E from
one such cocycle.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from tauseq import linalg
from tauseq.decompose import EndAlgebra
from tauseq.errors import Mismatch
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, cokernel, dualize, hom_dim, kernel, min_presentation,
    morphism_from_generator_images, projective_cover, projective_sum,
)
from tauseq.quiver import Path, opposite


def presentation_path_coefficients(pres: Presentation):
    """Coefficients of the presentation map as path combinations.

    Returns coeffs[j][i] = list of (path, scalar) over paths u_i -> v_j, where
    u_i runs over p0 blocks and v_j over p1 blocks.
    """
    algebra = pres.p0.algebra
    q = algebra.quiver
    # column offset of each p1 block generator inside the vertexwise layout
    gen_offsets = []
    per_vertex = [0] * q.num_vertices
    for v in pres.p1_vertices:
        gen_offsets.append(per_vertex[v])
        for p in algebra.paths_from(v):
            per_vertex[p.target(q)] += 1
    coeffs = []
    for j, vj in enumerate(pres.p1_vertices):
        col_index = gen_offsets[j]
        column = [pres.map.maps[vj].data[r][col_index]
                  for r in range(pres.p0.dims[vj])]
        row = []
        pos = 0
        for ui in pres.p0_vertices:
            paths = [p for p in algebra.paths_from(ui) if p.target(q) == vj]
            entry = []
            for p in paths:
                c = column[pos]
                pos += 1
                if c != 0:
                    entry.append((p, c))
            row.append(entry)
        coeffs.append(row)
    return coeffs


def _reverse_path(algebra, op, p: Path) -> Path:
    if not p.arrows:
        return Path((), p.vertex)
    names = [algebra.quiver.arrows[i].name for i in reversed(p.arrows)]
    return Path(tuple(op.quiver.arrow_index(n) for n in names))


def transpose(m: Rep) -> Rep:
    """Tr m over the opposite algebra, from a minimal presentation."""
    algebra = m.algebra
    op = opposite(algebra)
    f = algebra.field
    pres = min_presentation(m)
    coeffs = presentation_path_coefficients(pres)
    # over op: map from the p0-projectives to the p1-projectives
    source = projective_sum(op, list(pres.p0_vertices))
    target = projective_sum(op, list(pres.p1_vertices))
    images = []
    # basis layout of `target` at a vertex w: for each block j, op-paths v_j -> w
    for i, ui in enumerate(pres.p0_vertices):
        vec = [f.zero] * target.dims[ui]
        pos = 0
        for j, vj in enumerate(pres.p1_vertices):
            op_paths = op.paths_between(vj, ui)
            index_of = {pp.arrows: k for k, pp in enumerate(op_paths)}
            for (p, c) in coeffs[j][i]:
                rp = _reverse_path(algebra, op, p)
                vec[pos + index_of[rp.arrows]] = c
            pos += len(op_paths)
        images.append(vec)
    g = morphism_from_generator_images(source, list(pres.p0_vertices), target, images)
    coker, _ = cokernel(g)
    return coker


def tau(m: Rep) -> Rep:
    """The translate D Tr m; zero on projectives."""
    return dualize(transpose(m))


def tau_minus(m: Rep) -> Rep:
    """The inverse translate Tr D m; zero on injectives."""
    return transpose(dualize(m))


def is_projective_rep(m: Rep) -> bool:
    _, cover, _ = projective_cover(m)
    k, _ = kernel(cover)
    return k.total_dim == 0


def is_injective_rep(m: Rep) -> bool:
    return is_projective_rep(dualize(m))


def tau_hom_dim(m: Rep, n: Rep) -> int:
    """dim Hom(n, tau m), computed as the cokernel of
    Hom(P0, n) -> Hom(P1, n) over a minimal presentation of m."""
    algebra = m.algebra
    f = algebra.field
    pres = min_presentation(m)
    coeffs = presentation_path_coefficients(pres)
    rows_dim = sum(n.dims[v] for v in pres.p1_vertices)
    cols_dim = sum(n.dims[u] for u in pres.p0_vertices)
    big = Mat.zeros(f, rows_dim, cols_dim)
    roff = 0
    for j, vj in enumerate(pres.p1_vertices):
        coff = 0
        for i, ui in enumerate(pres.p0_vertices):
            block = Mat.zeros(f, n.dims[vj], n.dims[ui])
            for (p, c) in coeffs[j][i]:
                act = n.path_action(p)
                block = block.add(act.scale(c))
            for r in range(block.rows):
                for cc in range(block.cols):
                    big.data[roff + r][coff + cc] = block.data[r][cc]
            coff += n.dims[ui]
        roff += n.dims[vj]
    return rows_dim - linalg.rank(big)


class Ext1From:
    """dim Ext^1(m, -) from one projective cover 0 -> K -> P -> m -> 0.

    Ext^1(m, n) = coker(Hom(P, n) -> Hom(K, n)) and Hom(P_v, n) = n_v, so
    dim Ext^1(m, n) = dim Hom(K, n) - sum_(v in top m) dim n_v
    + dim Hom(m, n): one hom solve per target once the syzygy K is built.
    """

    __slots__ = ("module", "syzygy", "top")

    def __init__(self, m: Rep):
        _, cover, self.top = projective_cover(m)
        self.module = m
        self.syzygy, _ = kernel(cover)

    def dim(self, n: Rep, hom_mn: Optional[int] = None) -> int:
        """dim Ext^1(m, n); hom_mn is dim Hom(m, n) when already known."""
        if hom_mn is None:
            hom_mn = hom_dim(self.module, n)
        return hom_dim(self.syzygy, n) - sum(n.dims[v] for v in self.top) + hom_mn


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1(m, n), from 0 -> K -> P0 -> m -> 0:
    Ext^1 = coker(Hom(P0, n) -> Hom(K, n))."""
    return Ext1From(m).dim(n)


def is_tau_rigid(m: Rep) -> bool:
    if m.total_dim == 0:
        return True
    return hom_dim(m, tau(m)) == 0


# --------------------------------------------------------------------------
# extension cocycles: an independent route to Ext^1 and to middle terms
# --------------------------------------------------------------------------

def extension_cocycle_space(b: Rep, a: Rep) -> Tuple[List[List[Mat]], Mat]:
    """Basis of the cocycle space for extensions 0 -> a -> E -> b -> 0.

    A cocycle assigns to each arrow a block c_ar (a.dims[target] x
    b.dims[source]); the relation constraints are linear in these blocks.
    Returns (list of cocycles, coboundary matrix): the matrix has one
    flattened coboundary per column (``_coboundary_matrix``), so its rank is
    the dimension of the coboundary space.
    """
    algebra = a.algebra
    f = algebra.field
    q = algebra.quiver
    total, var = _cocycle_layout(b, a)
    rows: List[list] = []
    for rel in algebra.relations:
        src = q.arrows[rel[0]].source
        tgt = q.arrows[rel[-1]].target
        if a.dims[tgt] == 0 or b.dims[src] == 0:
            continue
        # sum over positions: A-action of the suffix, cocycle, B-action of the prefix
        for r in range(a.dims[tgt]):
            for c in range(b.dims[src]):
                row = [f.zero] * total
                for pos in range(len(rel)):
                    ai = rel[pos]
                    ar = q.arrows[ai]
                    suffix = rel[pos + 1:]
                    prefix = rel[:pos]
                    if suffix:
                        amat = a.path_action_arrows(suffix)
                    else:
                        amat = Mat.identity(f, a.dims[ar.target])
                    if prefix:
                        bmat = b.path_action_arrows(prefix)
                    else:
                        bmat = Mat.identity(f, b.dims[src])
                    for i in range(a.dims[ar.target]):
                        ca = amat.data[r][i]
                        if ca == 0:
                            continue
                        for j in range(b.dims[ar.source]):
                            cb = bmat.data[j][c]
                            if cb != 0:
                                idx = var(ai, i, j)
                                row[idx] = f.add(row[idx], f.mul(ca, cb))
                if any(x != 0 for x in row):
                    rows.append(row)
    if total == 0:
        return [], Mat.zeros(f, 0, 0)
    if rows:
        ker = linalg.solve_kernel(Mat(f, len(rows), total, rows))
    else:
        ker = Mat.identity(f, total)
    cocycles = []
    for col in range(ker.cols):
        blocks = []
        for ai, ar in enumerate(q.arrows):
            blk = Mat.zeros(f, a.dims[ar.target], b.dims[ar.source])
            for r in range(a.dims[ar.target]):
                for c in range(b.dims[ar.source]):
                    blk.data[r][c] = ker.data[var(ai, r, c)][col]
            blocks.append(blk)
        cocycles.append(blocks)
    return cocycles, _coboundary_matrix(b, a)


def _cocycle_layout(b: Rep, a: Rep):
    """(number of cocycle unknowns, var) where var(ai, r, c) is the unknown
    of entry (r, c) of the block at arrow ai; a flattened cocycle lists its
    blocks in arrow order, each row-major."""
    q = a.algebra.quiver
    offsets = []
    total = 0
    for ar in q.arrows:
        offsets.append(total)
        total += a.dims[ar.target] * b.dims[ar.source]

    def var(ai: int, r: int, c: int) -> int:
        return offsets[ai] + r * b.dims[q.arrows[ai].source] + c

    return total, var


def _coboundary_matrix(b: Rep, a: Rep) -> Mat:
    """The flattened coboundaries c_ar = h_t B_ar - A_ar h_s, one column per
    entry of the vertex maps h_v."""
    algebra = a.algebra
    f = algebra.field
    q = algebra.quiver
    total, var = _cocycle_layout(b, a)
    hvars = []
    htotal = 0
    for v in range(q.num_vertices):
        hvars.append(htotal)
        htotal += a.dims[v] * b.dims[v]
    cob_cols = []
    for hidx in range(htotal):
        # basis vertex map: find which (v, i, j)
        v = 0
        while v + 1 < q.num_vertices and hvars[v + 1] <= hidx:
            v += 1
        local = hidx - hvars[v]
        hi, hj = divmod(local, b.dims[v])
        col_vec = [f.zero] * total
        for ai, ar in enumerate(q.arrows):
            if ar.source == v:
                # -A_ar h: entry (r, j') gets -A[r][hi] at column hj == j'
                for r in range(a.dims[ar.target]):
                    cav = a.mats[ai].data[r][hi]
                    if cav != 0:
                        col_vec[var(ai, r, hj)] = f.sub(col_vec[var(ai, r, hj)], cav)
            if ar.target == v:
                # +h B_ar: entry (hi, c) gets B[hj][c]
                for c in range(b.dims[ar.source]):
                    cbv = b.mats[ai].data[hj][c]
                    if cbv != 0:
                        col_vec[var(ai, hi, c)] = f.add(col_vec[var(ai, hi, c)], cbv)
        cob_cols.append(col_vec)
    return linalg.from_columns(f, total, cob_cols)


def ext1_dim_cocycle(b: Rep, a: Rep) -> int:
    """dim Ext^1(b, a) counted directly from extension cocycles."""
    cocycles, cob = extension_cocycle_space(b, a)
    return len(cocycles) - linalg.rank(cob)


def extension_middle(b: Rep, a: Rep, cocycle: List[Mat]) -> Rep:
    """The middle term of the extension of b by a with the given cocycle."""
    algebra = a.algebra
    f = algebra.field
    q = algebra.quiver
    dims = [a.dims[v] + b.dims[v] for v in range(q.num_vertices)]
    mats = []
    for ai, ar in enumerate(q.arrows):
        m = Mat.zeros(f, dims[ar.target], dims[ar.source])
        at = a.dims[ar.target]
        asrc = a.dims[ar.source]
        for r in range(at):
            for c in range(asrc):
                m.data[r][c] = a.mats[ai].data[r][c]
        for r in range(at):
            for c in range(b.dims[ar.source]):
                m.data[r][asrc + c] = cocycle[ai].data[r][c]
        for r in range(b.dims[ar.target]):
            for c in range(b.dims[ar.source]):
                m.data[at + r][asrc + c] = b.mats[ai].data[r][c]
        mats.append(m)
    return Rep(algebra, dims, mats)


def flat_cocycle(cocycle: List[Mat]) -> list:
    """The cocycle's blocks in arrow order, each row-major: the layout of
    ``_cocycle_layout`` and of the coboundary matrix's rows."""
    return [x for blk in cocycle for row in blk.data for x in row]


def class_forms(cob: Mat) -> Mat:
    """Rows spanning the linear forms on flattened cocycles that vanish on
    the coboundaries (the columns of cob).  On the cocycle space their
    common kernel is exactly the coboundary space, so they tell the classes
    in Ext^1 apart."""
    return linalg.solve_kernel(cob.transpose()).transpose()


def almost_split_cocycle(x: Rep, tau_x: Rep) -> List[Mat]:
    """A cocycle of the almost split sequence 0 -> tau_x -> E -> x -> 0.

    x must be indecomposable and not projective, and tau_x its translate.
    The class is taken from the socle of Ext^1(x, tau_x) over End(x): the
    cocycles c whose pullback c . r (the block at each arrow times r at its
    source) is a coboundary for every r in a basis of rad End(x).  When
    End(x) is the field the socle is all of Ext^1.  The first candidate that
    is not a coboundary is returned.
    """
    f = x.algebra.field
    q = x.algebra.quiver
    cocycles, cob = extension_cocycle_space(x, tau_x)
    forms = class_forms(cob)
    total = forms.cols
    candidates = cocycles
    end = EndAlgebra(x)
    if cocycles and end.dim > 1:
        conditions = []
        for coords in end.core().radical_basis():
            r = end.morphism_of(coords)
            pulled = [flat_cocycle([blk.mul(r.maps[ar.source])
                                     for blk, ar in zip(c, q.arrows)])
                      for c in cocycles]
            conditions.extend(forms.mul(linalg.from_columns(f, total, pulled)).data)
        if conditions:
            socle = linalg.solve_kernel(Mat.trusted(f, len(conditions), len(cocycles),
                                                    conditions))
            candidates = [linalg.combine(socle.col(k), cocycles)
                          for k in range(socle.cols)]
    for c in candidates:
        if not forms.mul(Mat.column(f, flat_cocycle(c))).is_zero():
            return c
    raise Mismatch("no almost split sequence ends at the module with dimension "
                   "vector %r" % (x.dims,))


def almost_split_middle(x: Rep, tau_x: Rep) -> Rep:
    """The middle term E of the almost split sequence 0 -> tau_x -> E -> x -> 0."""
    return extension_middle(x, tau_x, almost_split_cocycle(x, tau_x))
