"""The translate tau = D Tr, identified without building it, and extension
computations.

The build never builds tau X.  From a minimal presentation
P1 -> P0 -> X -> 0 in path coordinates (``modules.min_presentation``), the
Nakayama functor gives the exact sequence

    0 -> tau X -> nu P1 -> nu P0 -> nu X -> 0

(Auslander-Reiten-Smalo ch. IV; Assem-Simson-Skowronski IV.2.4), with
nu P(v) = I(v).  ``tau_dims`` reads the dimension vector of tau X off the
rank of nu P1 -> nu P0 at each vertex, and ``is_tau_of`` decides whether a
module Z is tau X from Hom(Z, tau X), the forms on Hom(P1, Z) that vanish on
the image of Hom(P0, Z); ``tau_hom_dim`` counts them, which is
dim Hom(Z, tau X).  ``tau_minus`` = Tr D builds the inverse translate
over the opposite algebra; it is the library's route to the modules of a
build read off the roots, which lie on the tau-minus orbits of the
projectives (``universe.ModuleUniverse._knit``).  ``tau`` and
``transpose`` still build tau X = D Tr X, as oracles for the tests.
Ext1From / ext1_dim give the honest Ext^1 via the syzygy K = ker(P0 -> M)
of the minimal presentation; Ext1From takes it from the caller, so one
presentation per module serves all of these routines, and its syzygy is
zero exactly when M is projective (``is_projective_rep``).

For an indecomposable non-projective X the almost split sequence

    0 -> tau X -> E -> X -> 0

is the non-split extension whose class lies in the socle of Ext^1(X, tau X)
as an End(X)-module (Auslander-Reiten-Smalo, ch. V): pulling the class back
along any radical endomorphism of X splits it.  The summands of E are the
sources of the irreducible maps into X.  almost_split_middle builds E from
one such cocycle, for any module isomorphic to tau X.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from tauseq import linalg
from tauseq.decompose import EndAlgebra
from tauseq.errors import Mismatch
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, cokernel, dualize, hom_dim, min_presentation,
    morphism_from_generator_images, projective_sum,
)
from tauseq.quiver import Path, opposite


def _reversed_arrows(algebra, op, p: Path) -> Tuple[int, ...]:
    """The arrows of p in reverse order, as arrows of the opposite algebra."""
    return tuple(op.quiver.arrow_index(algebra.quiver.arrows[i].name)
                 for i in reversed(p.arrows))


def transpose(m: Rep, pres: Optional[Presentation] = None) -> Rep:
    """Tr m over the opposite algebra, from a minimal presentation of m
    (built here when pres is None)."""
    algebra = m.algebra
    op = opposite(algebra)
    f = algebra.field
    if pres is None:
        pres = min_presentation(m)
    # over op: map from the p0-projectives to the p1-projectives
    source = projective_sum(op, list(pres.p0_vertices))
    target = projective_sum(op, list(pres.p1_vertices))
    images = []
    # basis layout of `target` at a vertex w: for each block j, op-paths v_j -> w
    for i, ui in enumerate(pres.p0_vertices):
        vec = [f.zero] * target.dims[ui]
        pos = 0
        for j, vj in enumerate(pres.p1_vertices):
            for (p, c) in pres.coeffs[j][i]:
                vec[pos + op.place(_reversed_arrows(algebra, op, p))] = c
            pos += len(op.paths_between(vj, ui))
        images.append(vec)
    g = morphism_from_generator_images(source, list(pres.p0_vertices), target, images)
    coker, _ = cokernel(g)
    return coker


def tau(m: Rep, pres: Optional[Presentation] = None) -> Rep:
    """The translate D Tr m; zero on projectives.  pres is a minimal
    presentation of m, built here when None."""
    return dualize(transpose(m, pres))


def tau_minus(m: Rep) -> Rep:
    """The inverse translate Tr D m; zero on injectives."""
    return transpose(dualize(m))


def tau_dims(pres: Presentation) -> Tuple[int, ...]:
    """The dimension vector of tau X, for X with the minimal presentation
    pres, without building tau X.

    In 0 -> tau X -> nu P1 -> nu P0, nu P(v) = I(v) has the paths w -> v as
    the basis of its dual at w, and the map at w sends the path q: w -> u_i
    of block i of P0 to sum_j sum_p c_(ij,p) q.p.  So dim (tau X)_w is the
    number of paths w -> v_j over the blocks j of P1, less the rank of that
    path-composition matrix.
    """
    algebra = pres.algebra
    dims = []
    for w in range(algebra.n):
        row_starts, rows = [], 0
        for v in pres.p1_vertices:
            row_starts.append(rows)
            rows += len(algebra.paths_between(w, v))
        cols = []
        for i, u in enumerate(pres.p0_vertices):
            for head in algebra.paths_between(w, u):
                col = [0] * rows
                for j, start in enumerate(row_starts):
                    for p, c in pres.coeffs[j][i]:
                        # q.p is dead, or it is one basis path w -> v_j
                        k = algebra.place(head.arrows + p.arrows)
                        if k is not None:
                            col[start + k] = c
                cols.append(col)
        # the columns as rows: the rank is the same
        dims.append(rows - linalg.rank(Mat.trusted(algebra.field, len(cols), rows, cols)))
    return tuple(dims)


def _presentation_matrix(pres: Presentation, n: Rep) -> Mat:
    """The matrix of Hom(P0, n) -> Hom(P1, n): rows (j, n at v_j), columns
    (i, n at u_i), and block (j, i) is sum_p c_p n(p) over the path
    coefficients of the presentation map."""
    algebra = n.algebra
    f = algebra.field
    rows_dim = sum(n.dims[v] for v in pres.p1_vertices)
    cols_dim = sum(n.dims[u] for u in pres.p0_vertices)
    big = Mat.zeros(f, rows_dim, cols_dim)
    roff = 0
    for j, vj in enumerate(pres.p1_vertices):
        coff = 0
        for i, ui in enumerate(pres.p0_vertices):
            block = Mat.zeros(f, n.dims[vj], n.dims[ui])
            for (p, c) in pres.coeffs[j][i]:
                act = n.path_action(p)
                block = block.add(act.scale(c))
            for r in range(block.rows):
                big.data[roff + r][coff:coff + block.cols] = block.data[r]
            coff += n.dims[ui]
        roff += n.dims[vj]
    return big


def tau_hom_dim(m: Rep, n: Rep, pres: Optional[Presentation] = None) -> int:
    """dim Hom(n, tau m), computed as the cokernel of
    Hom(P0, n) -> Hom(P1, n) over a minimal presentation of m (built here
    when pres is None)."""
    if pres is None:
        pres = min_presentation(m)
    big = _presentation_matrix(pres, n)
    return big.rows - linalg.rank(big)


def is_tau_of(z: Rep, pres: Presentation) -> bool:
    """Whether z is isomorphic to tau X, for an indecomposable non-projective
    X with the minimal presentation pres and an indecomposable z with the
    dimension vector of tau X (``tau_dims``); tau X is never built.

    Hom(z, nu P) = D Hom(P, z), so Hom(z, tau X) = ker(Hom(z, nu P1) ->
    Hom(z, nu P0)) is the left kernel of the matrix of ``tau_hom_dim``: the
    lambda = (lambda_j), lambda_j a form on z at v_j, that vanish on the
    image of Hom(P0, z).  Such a lambda maps z into tau X, a submodule of
    nu P1, by z -> (lambda_j z(q) z) over the paths q: w -> v_j at each
    vertex w.  With equal dimension vectors it is an isomorphism exactly
    when it is injective at every vertex, and since z and tau X are
    indecomposable some basis element of Hom(z, tau X) is an isomorphism
    when any map is (Fitting's lemma).  The presentation must be minimal:
    otherwise the kernel of nu P1 -> nu P0 has injective summands besides
    tau X.
    """
    f = z.algebra.field
    q = z.algebra.quiver
    big = _presentation_matrix(pres, z)
    forms = linalg.solve_kernel(big.transpose())
    if not forms.cols:
        return False
    # at[w]: the rows lambda_j z(q), as matrices over every basis element
    # lambda at once, for the paths q: w -> v_j
    at: List[List[Mat]] = [[] for _ in range(z.algebra.n)]
    start = 0
    for v in pres.p1_vertices:
        end = start + z.dims[v]
        # row l of lam[q] is lambda_l z(q); z(a.r) = z(r) z(a) for the
        # path q = a.r, and r, a suffix of q, comes first
        lam = {(): Mat.trusted(f, end - start, forms.cols, forms.data[start:end]).transpose()}
        for path in z.algebra.paths_into(v):
            if path.arrows:
                lam[path.arrows] = lam[path.arrows[1:]].mul(z.mats[path.arrows[0]])
            at[path.source(q)].append(lam[path.arrows])
        start = end
    return any(all(linalg.rank(Mat.trusted(f, len(mats), z.dims[w],
                                           [m.data[l] for m in mats])) == z.dims[w]
                   for w, mats in enumerate(at) if z.dims[w])
               for l in range(forms.cols))


def is_projective_rep(m: Rep) -> bool:
    """Whether the syzygy of m is zero: its minimal presentation has no P1."""
    return not min_presentation(m).p1_vertices


def is_injective_rep(m: Rep) -> bool:
    return is_projective_rep(dualize(m))


class Ext1From:
    """dim Ext^1(m, -) from a minimal presentation of m, whose syzygy K is
    the kernel of its cover P0 -> m.

    Ext^1(m, n) = coker(Hom(P0, n) -> Hom(K, n)) and Hom(P_v, n) = n_v, so
    dim Ext^1(m, n) = dim Hom(K, n) - sum_(v in top m) dim n_v
    + dim Hom(m, n): one hom solve per target once the syzygy K is built.
    """

    __slots__ = ("module", "syzygy", "top")

    def __init__(self, m: Rep, pres: Presentation):
        self.module = m
        self.top, self.syzygy = pres.p0_vertices, pres.syzygy

    def dim(self, n: Rep, hom_mn: Optional[int] = None) -> int:
        """dim Ext^1(m, n); hom_mn is dim Hom(m, n) when already known."""
        if hom_mn is None:
            hom_mn = hom_dim(self.module, n)
        return hom_dim(self.syzygy, n) - sum(n.dims[v] for v in self.top) + hom_mn


def ext1_dim(m: Rep, n: Rep) -> int:
    """dim Ext^1(m, n), from 0 -> K -> P0 -> m -> 0:
    Ext^1 = coker(Hom(P0, n) -> Hom(K, n))."""
    return Ext1From(m, min_presentation(m)).dim(n)


# --------------------------------------------------------------------------
# extension cocycles: extension classes and their middle terms
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
        return [], _coboundary_matrix(b, a)
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
    cob_cols = []
    # the basis vertex maps in order: vertex v, then row hi, then column hj
    for v in range(q.num_vertices):
        for hi in range(a.dims[v]):
            for hj in range(b.dims[v]):
                col_vec = [f.zero] * total
                for ai, ar in enumerate(q.arrows):
                    if ar.source == v:
                        # -A_ar h: entry (r, j') gets -A[r][hi] at column hj == j'
                        for r in range(a.dims[ar.target]):
                            cav = a.mats[ai].data[r][hi]
                            if cav != 0:
                                idx = var(ai, r, hj)
                                col_vec[idx] = f.sub(col_vec[idx], cav)
                    if ar.target == v:
                        # +h B_ar: entry (hi, c) gets B[hj][c]
                        for c in range(b.dims[ar.source]):
                            cbv = b.mats[ai].data[hj][c]
                            if cbv != 0:
                                idx = var(ai, hi, c)
                                col_vec[idx] = f.add(col_vec[idx], cbv)
                cob_cols.append(col_vec)
    return linalg.from_columns(f, total, cob_cols)


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
