"""Ground-truth relative rigidity through the endomorphism-ring equivalence.

A wide subcategory W with relative projective generator P is equivalent to
the module category of End(P)^op.  This module rebuilds, over that abstract
algebra (structure constants only), just enough module theory to compute the
translate: covers, presentations, the transpose and the dual.  It is slow
and lives here purely as an oracle for the fast Ext-criterion used by the
main code path.
"""

from __future__ import annotations

from typing import List, Tuple

from tauseq import linalg
from tauseq.decompose import AlgebraCore, EndAlgebra
from tauseq.errors import InconclusiveTest, Mismatch
from tauseq.linalg import Mat
from tauseq.modules import hom_basis
from tauseq.universe import ModuleUniverse
from tauseq.wide import Context


class StructAlgebra(AlgebraCore):
    """An AlgebraCore carrying a complete set of primitive idempotents."""

    def __init__(self, field, left_mult, unit, idempotents: List[list]):
        super().__init__(field, left_mult, unit)
        self.idempotents = idempotents

    def opposite(self) -> "StructAlgebra":
        f = self.field
        std = self.std_basis()
        left = []
        for i in range(self.dim):
            cols = [self.mul(std[j], std[i]) for j in range(self.dim)]
            left.append(linalg.from_columns(f, self.dim, cols))
        return StructAlgebra(f, left, self.unit, self.idempotents)

    def coords_mat(self, a: list) -> Mat:
        return Mat.column(self.field, a)


def gamma_algebra(u: ModuleUniverse, ctx: Context) -> Tuple[StructAlgebra, object, list]:
    """End(P)^op for P the sum of the relative projectives of the context.

    Returns (the algebra, the sum representation P, its End hom basis).
    """
    from tauseq.modules import direct_sum
    reps = [u.modules[i] for i in ctx.rel_proj]
    if not reps:
        raise InconclusiveTest("context of rank zero has no progenerator")
    p, embeds, projs = direct_sum(reps)
    end = EndAlgebra(p)
    core = end.core()
    op = StructAlgebra(core.field, core.left_mult, core.unit, []).opposite()
    idems = []
    for i in range(len(reps)):
        e = embeds[i].compose(projs[i])
        idems.append(end.coords_of(e))
    op.idempotents = idems
    # the oracle needs the split hypothesis: each e_i picks a one-dimensional
    # corner of the semisimple quotient
    rad = op.radical_basis()
    _, comp = op.quotient_by(rad)
    for e in idems:
        corner_dim = _corner_dim(op, rad, e)
        if corner_dim != 1:
            raise InconclusiveTest("non-split endomorphism corner; the "
                                   "transport oracle does not apply")
    return op, p, end


def _corner_dim(alg: StructAlgebra, rad_basis: List[list], e: list) -> int:
    # dim of e(A/rad)e: the corner minus its own radical e rad(A) e
    f = alg.field
    corner = [alg.mul(alg.mul(e, b), e) for b in alg.std_basis()]
    total = linalg.rank(linalg.from_columns(f, alg.dim, corner))
    if not rad_basis:
        return total
    rad_corner = [alg.mul(alg.mul(e, r), e) for r in rad_basis]
    rad_rank = linalg.rank(linalg.from_columns(f, alg.dim, rad_corner))
    return total - rad_rank


class AbstractModule:
    """A finite-dimensional left module over a StructAlgebra, given by one
    action matrix per algebra basis element."""

    def __init__(self, alg: StructAlgebra, dim: int, action: List[Mat]):
        self.alg = alg
        self.dim = dim
        self.action = action

    def act(self, coords: list) -> Mat:
        f = self.alg.field
        out = Mat.zeros(f, self.dim, self.dim)
        for c, m in zip(coords, self.action):
            if c != 0:
                out = out.add(m.scale(c))
        return out


def functor_image(u: ModuleUniverse, ctx: Context, ids: Tuple[int, ...],
                  gamma: StructAlgebra, p, end: EndAlgebra) -> AbstractModule:
    """Hom(P, M) as a left module over End(P)^op (action by precomposition)."""
    from tauseq.modules import direct_sum
    if not ids:
        return AbstractModule(gamma, 0, [Mat.zeros(gamma.field, 0, 0)
                                         for _ in range(gamma.dim)])
    m = u.modules[ids[0]] if len(ids) == 1 else \
        direct_sum([u.modules[i] for i in ids])[0]
    basis = hom_basis(p, m)
    f = gamma.field

    def flatten(mor):
        out = []
        for mm in mor.maps:
            for row in mm.data:
                out.extend(row)
        return out

    if not basis:
        return AbstractModule(gamma, 0, [Mat.zeros(f, 0, 0) for _ in end.basis])
    flat = [flatten(b) for b in basis]
    span = linalg.ColumnBasis(linalg.from_columns(f, len(flat[0]), flat))
    action = []
    for g in end.basis:
        # precomposition is the op-action
        comps = [flatten(h.compose(g)) for h in basis]
        coords = span.coords(linalg.from_columns(f, len(flat[0]), comps))
        if coords is None:
            raise Mismatch("hom functor image is not closed under the action")
        action.append(coords)
    return AbstractModule(gamma, len(basis), action)


def abstract_hom_dim(v: AbstractModule, w: AbstractModule) -> int:
    f = v.alg.field
    total = w.dim * v.dim
    if total == 0:
        return 0
    rows = []
    for b in range(v.alg.dim):
        av, aw = v.action[b], w.action[b]
        for i in range(w.dim):
            for j in range(v.dim):
                row = [f.zero] * total
                for t in range(v.dim):
                    c = av.data[t][j]
                    if c != 0:
                        row[i * v.dim + t] = f.add(row[i * v.dim + t], c)
                for t in range(w.dim):
                    c = aw.data[i][t]
                    if c != 0:
                        row[t * v.dim + j] = f.sub(row[t * v.dim + j], c)
                if any(x != 0 for x in row):
                    rows.append(row)
    if not rows:
        return total
    return linalg.solve_kernel(Mat(f, len(rows), total, rows)).cols


def _submodule(v: AbstractModule, span: Mat) -> Tuple[AbstractModule, Mat]:
    basis = linalg.column_space_basis(span)
    action = []
    for b in range(v.alg.dim):
        sol = linalg.solve(basis, v.action[b].mul(basis))
        if sol is None:
            raise Mismatch("span is not a submodule")
        action.append(sol)
    return AbstractModule(v.alg, basis.cols, action), basis


def _quotient(v: AbstractModule, span: Mat) -> Tuple[AbstractModule, Mat]:
    f = v.alg.field
    _, _, proj = linalg.rank_image_cokernel(span)
    action = []
    if proj.rows == 0:
        return AbstractModule(v.alg, 0, [Mat.zeros(f, 0, 0)
                                         for _ in range(v.alg.dim)]), proj
    rinv = linalg.solve(proj, Mat.identity(f, proj.rows))
    for b in range(v.alg.dim):
        action.append(proj.mul(v.action[b]).mul(rinv))
    return AbstractModule(v.alg, proj.rows, action), proj


def _radical_span(v: AbstractModule) -> Mat:
    alg = v.alg
    f = alg.field
    rad = alg.radical_basis()
    span = Mat.zeros(f, v.dim, 0)
    for r in rad:
        span = span.hstack(v.act(r))
    return span


def _principal_projective(alg: StructAlgebra, e: list) -> Tuple[AbstractModule, Mat, list]:
    """The left module (algebra)e with its coordinate basis and generator."""
    f = alg.field
    cols = [alg.mul(b, e) for b in alg.std_basis()]
    basis = linalg.column_space_basis(linalg.from_columns(f, alg.dim, cols))
    action = []
    for t in range(alg.dim):
        lt = alg.left_mult[t]
        sol = linalg.solve(basis, lt.mul(basis))
        if sol is None:
            raise Mismatch("principal module is not stable")
        action.append(sol)
    gen = linalg.solve(basis, Mat.column(f, e))
    if gen is None:
        raise Mismatch("idempotent lies outside its own principal module")
    return AbstractModule(alg, basis.cols, action), basis, \
        [gen.data[i][0] for i in range(basis.cols)]


def _cover(v: AbstractModule) -> Tuple[List[int], Mat]:
    """Projective cover data: block idempotent indices and the cover matrix
    from the direct sum of principal modules onto v."""
    alg = v.alg
    f = alg.field
    rad_span = _radical_span(v)
    _, _, proj = linalg.rank_image_cokernel(rad_span)
    blocks: List[int] = []
    lifts: List[list] = []
    for i, e in enumerate(alg.idempotents):
        ev = v.act(e)
        if proj.rows == 0:
            continue
        top_e = proj.mul(ev)
        img = linalg.column_space_basis(top_e)
        for c in range(img.cols):
            # lift the top vector through the projection, then project by e
            sol = linalg.solve(proj, Mat(f, proj.rows, 1,
                                         [[img.data[r][c]] for r in range(proj.rows)]))
            if sol is None:
                raise Mismatch("top vector failed to lift")
            lifted = ev.mul(sol)
            blocks.append(i)
            lifts.append([lifted.data[r][0] for r in range(v.dim)])
    cols: List[list] = []
    layout: List[int] = []
    for bi, lift in zip(blocks, lifts):
        pmod, pbasis, _ = _principal_projective(alg, alg.idempotents[bi])
        layout.append(pmod.dim)
        lift_col = Mat.column(f, lift)
        for c in range(pbasis.cols):
            gamma = [pbasis.data[t][c] for t in range(alg.dim)]
            img = v.act(gamma).mul(lift_col)
            cols.append([img.data[r][0] for r in range(v.dim)])
    cover = linalg.from_columns(f, v.dim, cols)
    if linalg.rank(cover) != v.dim:
        raise Mismatch("abstract cover failed to surject")
    return blocks, cover


def _sum_of_principals(alg: StructAlgebra, blocks: List[int]) -> Tuple[AbstractModule, List[Mat], List[list]]:
    mods, bases, gens = [], [], []
    for bi in blocks:
        m, b, g = _principal_projective(alg, alg.idempotents[bi])
        mods.append(m)
        bases.append(b)
        gens.append(g)
    f = alg.field
    total = sum(m.dim for m in mods)
    action = []
    for t in range(alg.dim):
        action.append(linalg.block_diag(f, [m.action[t] for m in mods]))
    return AbstractModule(alg, total, action), bases, gens


def abstract_tau(v: AbstractModule) -> AbstractModule:
    """The translate over the abstract algebra: dual of the cokernel of the
    transposed minimal presentation."""
    alg = v.alg
    f = alg.field
    if v.dim == 0:
        return v
    blocks0, cover0 = _cover(v)
    # kernel of the cover as a submodule of the sum of principal modules
    p0, bases0, gens0 = _sum_of_principals(alg, blocks0)
    ker_span = linalg.solve_kernel(cover0)
    k, k_basis = _submodule(p0, ker_span)
    blocks1, cover1 = _cover(k)
    p1, bases1, gens1 = _sum_of_principals(alg, blocks1)
    pres = k_basis.mul(cover1)  # p1 -> p0 in p0 coordinates
    op = alg.opposite()
    offsets0, t = [], 0
    for b in bases0:
        offsets0.append(t)
        t += b.cols
    offsets1, t = [], 0
    for b in bases1:
        offsets1.append(t)
        t += b.cols
    op_p0, op_bases0, _ = _sum_of_principals(op, blocks0)
    op_p1, op_bases1, _ = _sum_of_principals(op, blocks1)
    # the (i, j) component sends the generator of block j to an element
    # x_{ij} of the corner between the two idempotents; the transposed map
    # sends the opposite generator of block i to the x_{ij} laid across the
    # opposite blocks j
    gen_images = []
    for i in range(len(blocks0)):
        img_vec = [f.zero] * op_p1.dim
        for j in range(len(blocks1)):
            gen_full = Mat.zeros(f, p1.dim, 1)
            for r, c in enumerate(gens1[j]):
                gen_full.data[offsets1[j] + r][0] = c
            img = pres.mul(gen_full)
            bi = bases0[i]
            local = Mat(f, bi.cols, 1,
                        [[img.data[offsets0[i] + r][0]] for r in range(bi.cols)])
            xcoords_col = bi.mul(local)
            sol = linalg.solve(op_bases1[j], xcoords_col)
            if sol is None:
                raise Mismatch("transpose coefficient outside its principal module")
            for r in range(op_bases1[j].cols):
                img_vec[offsets1[j] + r] = sol.data[r][0]
        gen_images.append(img_vec)
    # assemble the op-morphism op_p0 -> op_p1 from the generator images
    mor_cols = []
    for i in range(len(blocks0)):
        img = Mat.column(f, gen_images[i])
        for c in range(op_bases0[i].cols):
            gamma = [op_bases0[i].data[t2][c] for t2 in range(alg.dim)]
            out = op_p1.act(gamma).mul(img)
            mor_cols.append([out.data[r][0] for r in range(op_p1.dim)])
    mor = linalg.from_columns(f, op_p1.dim, mor_cols)
    coker, _ = _quotient(op_p1, mor)
    # dual: transpose the op action
    action = [coker.action[t].transpose() for t in range(alg.dim)]
    return AbstractModule(alg, coker.dim, action)


def tau_rigid_oracle(u: ModuleUniverse, ctx: Context, ids: Tuple[int, ...]) -> bool:
    """Relative tau-rigidity through the abstract equivalence; slow."""
    if not ids:
        return True
    gamma, p, end = gamma_algebra(u, ctx)
    fm = functor_image(u, ctx, tuple(sorted(ids)), gamma, p, end)
    tfm = abstract_tau(fm)
    return abstract_hom_dim(fm, tfm) == 0


def rel_projective_oracle(u: ModuleUniverse, ctx: Context, mid: int) -> bool:
    """Relative projectivity: the functor image has a trivial cover kernel."""
    gamma, p, end = gamma_algebra(u, ctx)
    fm = functor_image(u, ctx, (mid,), gamma, p, end)
    if fm.dim == 0:
        return False
    _, cover = _cover(fm)
    return cover.cols == fm.dim and linalg.solve_kernel(cover).cols == 0
