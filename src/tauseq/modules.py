"""Finite-dimensional representations of a bound quiver algebra.

A Rep assigns a vector space dimension to each vertex and an exact matrix to
each arrow (target-dim x source-dim, acting on column vectors).  Morphisms
are tuples of vertex matrices satisfying the commuting-square condition.
All constructions here (kernels, cokernels, traces, covers) return explicit
representations together with the structural morphisms.

A minimal projective presentation P1 -> P0 -> M -> 0 is read in the path
coordinates of P0 (``min_presentation``): the kernel of the cover at each
vertex, its radical by moving kernel vectors along the arrows, which on a
monomial algebra only re-indexes paths, and a complement of that radical as
the generators of P1, whose coordinates are the map's path coefficients.
The syzygy is built as a module only when it is read.

The simples of a monomial algebra need no linear algebra (Green, Happel and
Zacharia, Projective resolutions over Artin algebras with zero relations,
1985).  rad P(v) is the direct sum of the arrow ideals aA over the arrows a
leaving v, each spanned by the paths that start with a; I(v) / soc I(v) is
the sum of the duals of the opposite algebra's arrow ideals at v.  The
presentation of S_v comes out as the sum of the P(t a) -> P(v), and aA is
P(t a) modulo the paths u with a.u a minimal zero path, which gives
dim Ext^1(S_v, M).  The generic routes serve every other module and stay as
the oracles.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from tauseq import linalg
from tauseq.errors import AlgebraMismatch, UnknownVertex
from tauseq.linalg import Mat
from tauseq.quiver import BoundQuiverAlgebra, Path, opposite


class Rep:
    """A representation: per-vertex dimensions plus one matrix per arrow."""

    __slots__ = ("algebra", "dims", "mats")

    def __init__(self, algebra: BoundQuiverAlgebra, dims: Sequence[int],
                 mats: Sequence[Mat], validate: bool = True):
        self.algebra = algebra
        self.dims: Tuple[int, ...] = tuple(dims)
        self.mats: Tuple[Mat, ...] = tuple(mats)
        if validate:
            self._validate()

    def _validate(self):
        q = self.algebra.quiver
        if len(self.dims) != q.num_vertices or len(self.mats) != len(q.arrows):
            raise ValueError("dimension vector / arrow matrix count mismatch")
        for i, a in enumerate(q.arrows):
            m = self.mats[i]
            if m.rows != self.dims[a.target] or m.cols != self.dims[a.source]:
                raise ValueError("arrow %r matrix has shape %dx%d, expected %dx%d"
                                 % (a.name, m.rows, m.cols,
                                    self.dims[a.target], self.dims[a.source]))
        for rel in self.algebra.relations:
            if not self.path_action_arrows(rel).is_zero():
                raise ValueError("relation %r does not act by zero" % (rel,))

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def path_action_arrows(self, arrows: Tuple[int, ...]) -> Mat:
        q = self.algebra.quiver
        src = q.arrows[arrows[0]].source
        m = Mat.identity(self.algebra.field, self.dims[src])
        for ai in arrows:
            m = self.mats[ai].mul(m)
        return m

    def path_action(self, p: Path) -> Mat:
        if not p.arrows:
            return Mat.identity(self.algebra.field, self.dims[p.vertex])
        return self.path_action_arrows(p.arrows)

    def __eq__(self, other):
        # structural equality, not isomorphism
        return (isinstance(other, Rep) and self.algebra is other.algebra
                and self.dims == other.dims and list(self.mats) == list(other.mats))

    def __repr__(self):
        return "Rep(dims=%r)" % (self.dims,)


class RepMorphism:
    """A morphism of representations: one matrix per vertex, squares commute."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: Rep, target: Rep, maps: Sequence[Mat], validate: bool = True):
        self.source = source
        self.target = target
        self.maps: Tuple[Mat, ...] = tuple(maps)
        if validate:
            self._validate()

    def _validate(self):
        if self.source.algebra is not self.target.algebra:
            raise AlgebraMismatch("morphism between modules over different algebras")
        q = self.source.algebra.quiver
        for v in range(q.num_vertices):
            m = self.maps[v]
            if m.rows != self.target.dims[v] or m.cols != self.source.dims[v]:
                raise ValueError("vertex %d map has wrong shape" % v)
        for i, a in enumerate(q.arrows):
            lhs = self.target.mats[i].mul(self.maps[a.source])
            rhs = self.maps[a.target].mul(self.source.mats[i])
            if lhs != rhs:
                raise ValueError("square at arrow %r does not commute" % a.name)

    def compose(self, first: "RepMorphism") -> "RepMorphism":
        """self after first."""
        if first.target is not self.source and first.target != self.source:
            raise ValueError("composition mismatch")
        return RepMorphism(first.source, self.target,
                           [s.mul(f) for s, f in zip(self.maps, first.maps)],
                           validate=False)

    def add(self, other: "RepMorphism") -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           [a.add(b) for a, b in zip(self.maps, other.maps)], validate=False)

    def scale(self, c) -> "RepMorphism":
        return RepMorphism(self.source, self.target,
                           [m.scale(c) for m in self.maps], validate=False)

    def is_iso(self) -> bool:
        return (self.source.dims == self.target.dims
                and all(linalg.is_invertible(m) for m in self.maps))

    def __repr__(self):
        return "RepMorphism(%r -> %r)" % (self.source.dims, self.target.dims)


# -- basic constructors --

def zero_rep(algebra: BoundQuiverAlgebra) -> Rep:
    q = algebra.quiver
    return Rep(algebra, [0] * q.num_vertices,
               [Mat.zeros(algebra.field, 0, 0) for _ in q.arrows], validate=False)


def simple(algebra: BoundQuiverAlgebra, v: int) -> Rep:
    q = algebra.quiver
    if not 0 <= v < q.num_vertices:
        raise UnknownVertex("no vertex with index %d" % v)
    dims = [1 if w == v else 0 for w in range(q.num_vertices)]
    mats = [Mat.zeros(algebra.field, dims[a.target], dims[a.source]) for a in q.arrows]
    return Rep(algebra, dims, mats, validate=False)


def projective(algebra: BoundQuiverAlgebra, v: int) -> Rep:
    """The indecomposable projective at v, with basis the paths leaving v.

    The basis at vertex w is paths_between(v, w) in global path order; the
    stationary path e_v sorts first, so the generator is basis vector 0 of
    the vertex-v block.
    """
    q = algebra.quiver
    if not 0 <= v < q.num_vertices:
        raise UnknownVertex("no vertex with index %d" % v)
    cache = algebra._cache.setdefault("projectives", {})
    if v in cache:
        return cache[v]
    dims = [len(algebra.paths_between(v, w)) for w in range(q.num_vertices)]
    mats = []
    for ai, a in enumerate(q.arrows):
        m = Mat.zeros(algebra.field, dims[a.target], dims[a.source])
        for j, p in enumerate(algebra.paths_between(v, a.source)):
            i = algebra.place(p.arrows + (ai,))
            if i is not None:
                m.data[i][j] = algebra.field.one
        mats.append(m)
    rep = Rep(algebra, dims, mats)
    cache[v] = rep
    return rep


def block_sum(reps: Sequence[Rep]) -> Rep:
    """The direct sum of the reps, block diagonal in the given order, without
    the embeddings and projections of ``direct_sum``."""
    if not reps:
        raise ValueError("empty direct sum needs an algebra; use zero_rep")
    algebra = reps[0].algebra
    f = algebra.field
    q = algebra.quiver
    dims = [sum(r.dims[v] for r in reps) for v in range(q.num_vertices)]
    mats = [linalg.block_diag(f, [r.mats[i] for r in reps]) for i in range(len(q.arrows))]
    return Rep(algebra, dims, mats, validate=False)


def direct_sum(reps: Sequence[Rep]) -> Tuple[Rep, List[RepMorphism], List[RepMorphism]]:
    """Direct sum with the block embeddings and projections."""
    total = block_sum(reps)
    f = total.algebra.field
    nv = total.algebra.quiver.num_vertices
    dims = total.dims
    embeds, projs = [], []
    offsets = [0] * nv
    for r in reps:
        emb, prj = [], []
        for v in range(nv):
            e = Mat.zeros(f, dims[v], r.dims[v])
            p = Mat.zeros(f, r.dims[v], dims[v])
            for k in range(r.dims[v]):
                e.data[offsets[v] + k][k] = f.one
                p.data[k][offsets[v] + k] = f.one
            emb.append(e)
            prj.append(p)
        embeds.append(RepMorphism(r, total, emb, validate=False))
        projs.append(RepMorphism(total, r, prj, validate=False))
        for v in range(nv):
            offsets[v] += r.dims[v]
    return total, embeds, projs


# -- hom spaces --

def hom_basis(m: Rep, n: Rep) -> List[RepMorphism]:
    """A basis of Hom(m, n), solved from the commuting-square linear system."""
    if m.algebra is not n.algebra:
        raise AlgebraMismatch("hom between modules over different algebras")
    algebra = m.algebra
    f = algebra.field
    q = algebra.quiver
    nv = q.num_vertices
    # unknowns: row-major entries of each vertex map f_v (n.dims[v] x m.dims[v])
    offsets = []
    total = 0
    for v in range(nv):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    if total == 0:
        return []

    # (n_a f_s - f_t m_a)[i][j] = 0 for all i < n.dims[t], j < m.dims[s]: the
    # n_a term puts n_a[i][k] on f_s[k][j], the m_a term -m_a[k][j] on f_t[i][k]
    p = f.characteristic
    rows: List[list] = []
    zero_row = [f.zero] * total
    for ai, a in enumerate(q.arrows):
        s, t = a.source, a.target
        ms, mt = m.dims[s], m.dims[t]
        if not ms or not n.dims[t]:
            continue  # no equations at this arrow
        off_s, off_t = offsets[s], offsets[t]
        lefts = [[(off_s + k * ms, c) for k, c in enumerate(nrow) if c != 0]
                 for nrow in n.mats[ai].data]
        mcols = zip(*m.mats[ai].data) if mt else [()] * ms
        rights = [[(k, -c % p if p else -c) for k, c in enumerate(mcol) if c != 0]
                  for mcol in mcols]
        for i, left in enumerate(lefts):
            base = off_t + i * mt
            for j, right in enumerate(rights):
                if not left and not right:
                    continue
                row = zero_row[:]
                for col, c in left:
                    row[col + j] = c
                for k, c in right:
                    if s == t:  # a loop: both terms may land on one unknown
                        c = (row[base + k] + c) % p if p else row[base + k] + c
                    row[base + k] = c
                if s == t and not any(row):
                    continue
                rows.append(row)
    if rows:
        ker = linalg.solve_kernel(Mat.trusted(f, len(rows), total, rows))
    else:
        ker = Mat.identity(f, total)
    out = []
    for vec in zip(*ker.data):
        maps = []
        for v in range(nv):
            o, w = offsets[v], m.dims[v]
            maps.append(Mat.trusted(f, n.dims[v], w, [list(vec[o + i * w:o + (i + 1) * w])
                                                      for i in range(n.dims[v])]))
        out.append(RepMorphism(m, n, maps, validate=False))
    return out


def hom_dim(m: Rep, n: Rep) -> int:
    return len(hom_basis(m, n))


# -- submodules, quotients, kernels, images --

def submodule_from_spans(x: Rep, spans: List[Mat]) -> Tuple[Rep, RepMorphism]:
    """The submodule of x spanned vertexwise by the given column spans.

    The spans must be arrow stable; the induced arrow actions are solved
    exactly and an inconsistency raises.
    """
    return _submodule_on_bases(x, [linalg.column_space_basis(s) for s in spans])


def _submodule_on_bases(x: Rep, bases: List[Mat]) -> Tuple[Rep, RepMorphism]:
    """``submodule_from_spans`` for spans whose columns are already
    linearly independent, so they are the submodule's basis as given."""
    algebra = x.algebra
    q = algebra.quiver
    dims = [b.cols for b in bases]
    mats = []
    for ai, a in enumerate(q.arrows):
        rhs = x.mats[ai].mul(bases[a.source])
        sol = linalg.solve(bases[a.target], rhs)
        if sol is None:
            raise ValueError("spans are not arrow stable")
        mats.append(sol)
    sub = Rep(algebra, dims, mats, validate=False)
    incl = RepMorphism(sub, x, bases, validate=False)
    return sub, incl


def quotient(x: Rep, incl: RepMorphism) -> Tuple[Rep, RepMorphism]:
    """Quotient of x by the image of incl, with the projection morphism."""
    algebra = x.algebra
    f = algebra.field
    q = algebra.quiver
    # Q_v with rows spanning the forms that vanish on the image: Q_v incl_v = 0
    projs = [linalg.solve_kernel(m.transpose()).transpose() for m in incl.maps]
    dims = [qv.rows for qv in projs]
    # the induced map c at an arrow s -> t solves c Q_s = Q_t x_a, through
    # one right inverse of each Q_s
    rinvs: List[Optional[Mat]] = [None] * q.num_vertices
    mats = []
    for ai, a in enumerate(q.arrows):
        qs, qt = projs[a.source], projs[a.target]
        if qs.rows == 0:
            mats.append(Mat.zeros(f, dims[a.target], 0))
            continue
        rinv = rinvs[a.source]
        if rinv is None:
            rinv = rinvs[a.source] = linalg.solve(qs, Mat.identity(f, qs.rows))
            if rinv is None:
                raise ValueError("cokernel projection is not surjective")
        mats.append(qt.mul(x.mats[ai]).mul(rinv))
    quo = Rep(algebra, dims, mats, validate=False)
    proj = RepMorphism(x, quo, projs, validate=False)
    return quo, proj


def kernel(f_mor: RepMorphism) -> Tuple[Rep, RepMorphism]:
    return _submodule_on_bases(f_mor.source, [linalg.solve_kernel(m) for m in f_mor.maps])


def cokernel(f_mor: RepMorphism) -> Tuple[Rep, RepMorphism]:
    img, incl = submodule_from_spans(f_mor.target, list(f_mor.maps))
    return quotient(f_mor.target, incl)


def trace(generators: Sequence[Rep], x: Rep) -> Tuple[Rep, RepMorphism]:
    """The trace of the generators in x: the sum of all morphism images.

    This is the largest submodule of x generated by the given modules.
    """
    algebra = x.algebra
    f = algebra.field
    q = algebra.quiver
    spans = [Mat.zeros(f, x.dims[v], 0) for v in range(q.num_vertices)]
    for g in generators:
        if g.algebra is not algebra:
            raise AlgebraMismatch("trace with modules over different algebras")
        for mor in hom_basis(g, x):
            for v in range(q.num_vertices):
                spans[v] = spans[v].hstack(mor.maps[v])
    return submodule_from_spans(x, spans)


# -- radical, top, projective cover, presentations --

def radical_spans(m: Rep) -> List[Mat]:
    """Vertexwise spanning sets of rad(m) = sum of all arrow images."""
    algebra = m.algebra
    f = algebra.field
    q = algebra.quiver
    spans = [Mat.zeros(f, m.dims[v], 0) for v in range(q.num_vertices)]
    for ai, a in enumerate(q.arrows):
        spans[a.target] = spans[a.target].hstack(m.mats[ai])
    return spans


class Presentation:
    """A minimal projective presentation P1 -> P0 -> m -> 0, in the path
    coordinates of P0.

    p0_vertices / p1_vertices list the projective summands in block order.
    The basis of P0 at a vertex w is, block after block, the paths
    u_i -> w of P(u_i) (``paths_between``).  coeffs[j][i] lists the pairs
    (path, scalar) of the image of the generator of block j of P1 in block
    i of P0: a combination of paths u_i -> v_j.  kernel[w] spans the syzygy
    K = ker(P0 -> m) at w in those coordinates; K is zero exactly when m is
    projective, and ``syzygy`` builds it as a Rep on its first read.
    """

    __slots__ = ("algebra", "p0_vertices", "p1_vertices", "coeffs", "kernel", "_syzygy")

    def __init__(self, algebra, p0_vertices, p1_vertices, coeffs, kernel):
        self.algebra = algebra
        self.p0_vertices: List[int] = p0_vertices
        self.p1_vertices: List[int] = p1_vertices
        self.coeffs: List[List[List[Tuple[Path, object]]]] = coeffs
        self.kernel: List[Mat] = kernel
        self._syzygy: Optional[Rep] = None

    @property
    def syzygy(self) -> Rep:
        if self._syzygy is None:
            p0 = projective_sum(self.algebra, self.p0_vertices)
            self._syzygy, _ = _submodule_on_bases(p0, self.kernel)
        return self._syzygy


def projective_sum(algebra: BoundQuiverAlgebra, vertices: Sequence[int]) -> Rep:
    if not vertices:
        return zero_rep(algebra)
    return block_sum([projective(algebra, v) for v in vertices])


def _path_images(target: Rep, v: int, vec: list) -> List[Tuple[Path, Mat]]:
    """The image in target of each path v -> w of P(v), in global path
    order, when the generator e_v goes to vec: the image of u.a is target_a
    times the image of u, and every prefix of an alive path is alive and
    comes before it."""
    algebra = target.algebra
    cols = {}
    out = []
    for path in algebra.paths_from(v):
        if path.arrows:
            col = target.mats[path.arrows[-1]].mul(cols[path.arrows[:-1]])
        else:
            col = Mat.column(algebra.field, vec)
        cols[path.arrows] = col
        out.append((path, col))
    return out


def morphism_from_generator_images(p: Rep, p_vertices: Sequence[int],
                                   target: Rep, images: Sequence[list]) -> RepMorphism:
    """The module map out of a direct sum of projectives with the given
    generator images (one target vector, at the block vertex, per block).

    The block layout must be the one produced by projective_sum.
    """
    algebra = target.algebra
    f = algebra.field
    q = algebra.quiver
    nv = q.num_vertices
    maps = [Mat.zeros(f, target.dims[w], p.dims[w]) for w in range(nv)]
    offsets = [0] * nv
    for v, vec in zip(p_vertices, images):
        for path, col in _path_images(target, v, vec):
            w = path.target(q)
            for i in range(target.dims[w]):
                maps[w].data[i][offsets[w]] = col.data[i][0]
            offsets[w] += 1
    return RepMorphism(p, target, maps)


def _top(m: Rep) -> Tuple[List[int], List[list]]:
    """A basis of a complement of rad m, as (vertices, vectors): at each
    vertex the unit vectors at the non-pivot coordinates of rad^T, whose row
    space is the radical there, so the choice is deterministic."""
    f = m.algebra.field
    vertices: List[int] = []
    vectors: List[list] = []
    for v, span in enumerate(radical_spans(m)):
        if not m.dims[v]:
            continue
        pivots = set(linalg.rref(span.transpose())[1]) if span.cols else ()
        for i in range(m.dims[v]):
            if i not in pivots:
                vec = [f.zero] * m.dims[v]
                vec[i] = f.one
                vertices.append(v)
                vectors.append(vec)
    return vertices, vectors


def projective_cover(m: Rep) -> Tuple[Rep, RepMorphism, List[int]]:
    """Projective cover p ->> m; returns (p, cover map, summand vertices).

    The cover is assembled from lifts of a basis of top(m) (``_top``).
    The library reads covers in path coordinates (``min_presentation``);
    this one, with ``kernel``, stays as the oracle of that route.
    """
    algebra = m.algebra
    f = algebra.field
    nv = algebra.n
    summand_vertices, lifts = _top(m)
    if not summand_vertices:
        p = zero_rep(algebra)
        cover = RepMorphism(p, m, [Mat.zeros(f, m.dims[v], 0) for v in range(nv)],
                            validate=False)
        return p, cover, []
    p = projective_sum(algebra, summand_vertices)
    cover = morphism_from_generator_images(p, summand_vertices, m, lifts)
    # Nakayama guarantees surjectivity; keep the check as an internal guard
    for v in range(nv):
        if linalg.rank(cover.maps[v]) != m.dims[v]:
            raise AssertionError("projective cover failed to surject")
    return p, cover, summand_vertices


def min_presentation(m: Rep) -> Presentation:
    """The minimal presentation of m in the path coordinates of P0.

    P0 covers m on the top of m (``_top``), the generator of block i going
    to the top vector g_i at u_i.  At each vertex w the syzygy K_w is the
    kernel of the cover's matrix there, whose columns are the images
    m(p) g_i of the paths p: u_i -> w.  rad K_w is spanned by the kernel
    vectors at the sources of the arrows a into w, each moved along a by
    p -> p.a, which on a monomial algebra only re-indexes the coordinates.
    The generators of P1 at w are the kernel vectors that stay independent
    after rad K_w, so a complement of it in K_w, and their coordinates are
    the path coefficients.  A simple S_v needs no special case: its
    generators are the arrows leaving v.
    """
    algebra = m.algebra
    f = algebra.field
    q = algebra.quiver
    nv = algebra.n
    p0_vertices, lifts = _top(m)
    columns: List[List[list]] = [[] for _ in range(nv)]
    for u, vec in zip(p0_vertices, lifts):
        for path, col in _path_images(m, u, vec):
            columns[path.target(q)].append([row[0] for row in col.data])
    kernel = []
    for w in range(nv):
        k = linalg.solve_kernel(linalg.from_columns(f, m.dims[w], columns[w]))
        # Nakayama guarantees surjectivity; keep the check as an internal guard
        if len(columns[w]) - k.cols != m.dims[w]:
            raise AssertionError("projective cover failed to surject")
        kernel.append(k)
    # offsets[w][i]: where block i starts in P0's basis at w
    offsets = []
    for w in range(nv):
        row, start = [], 0
        for u in p0_vertices:
            row.append(start)
            start += len(algebra.paths_between(u, w))
        offsets.append(row)
    p1_vertices: List[int] = []
    coeffs: List[List[List[Tuple[Path, object]]]] = []
    for w in range(nv):
        kw = kernel[w]
        if not kw.cols:
            continue
        size = kw.rows
        radical = []
        for a, arrow in enumerate(q.arrows):
            if arrow.target != w or not kernel[arrow.source].cols:
                continue
            s = arrow.source
            # where p -> p.a sends P0's basis at s, block by block
            moves = []
            for i, u in enumerate(p0_vertices):
                for k, p in enumerate(algebra.paths_between(u, s)):
                    t = algebra.place(p.arrows + (a,))
                    if t is not None:
                        moves.append((offsets[s][i] + k, offsets[w][i] + t))
            for x in kernel[s].columns():
                y = [f.zero] * size
                for src, dst in moves:
                    y[dst] = x[src]
                radical.append(y)
        own = kw.columns()
        # the kernel basis is independent, so with no radical it is all top
        pivots = linalg.rref(linalg.from_columns(f, size, radical + own))[1] if radical \
            else range(len(own))
        for piv in pivots:
            if piv < len(radical):
                continue
            g = own[piv - len(radical)]
            p1_vertices.append(w)
            coeffs.append([[(p, c) for p, c in zip(algebra.paths_between(u, w), g[o:])
                            if c != 0]
                           for u, o in zip(p0_vertices, offsets[w])])
    return Presentation(algebra, p0_vertices, p1_vertices, coeffs, kernel)


# -- a monomial algebra's simples, read off its paths --

def _coordinate_submodule(x: Rep, coords: Sequence[Sequence[int]]) -> Rep:
    """The submodule of x spanned at each vertex w by the basis vectors
    coords[w].  Every arrow of x must map a kept basis vector to a kept one
    or to zero, as on a projective's path basis, so the arrow actions are
    the kept rows and columns."""
    algebra = x.algebra
    mats = []
    for ai, a in enumerate(algebra.quiver.arrows):
        rows, cols = coords[a.target], coords[a.source]
        data = x.mats[ai].data
        mats.append(Mat.trusted(algebra.field, len(rows), len(cols),
                                [[data[r][c] for c in cols] for r in rows]))
    return Rep(algebra, [len(c) for c in coords], mats, validate=False)


def _path_coords(algebra: BoundQuiverAlgebra, v: int, keep) -> List[List[int]]:
    """For each vertex w, the positions in P(v)'s basis at w of the paths
    v -> w that keep(path) accepts."""
    return [[i for i, p in enumerate(algebra.paths_between(v, w)) if keep(p)]
            for w in range(algebra.n)]


def arrow_ideals(algebra: BoundQuiverAlgebra, v: int) -> List[Rep]:
    """The summands aA of rad P(v), one per arrow a leaving v in arrow
    order: the coordinate submodule of P(v) spanned by the paths that start
    with a.  The paths of positive length split by their first arrow, and
    aA is generated by a, so it is local and indecomposable."""
    p = projective(algebra, v)
    return [_coordinate_submodule(p, _path_coords(
                algebra, v, lambda path: path.arrows[:1] == (a,)))
            for a in algebra.quiver.arrows_from(v)]


def dual_arrow_ideals(algebra: BoundQuiverAlgebra, v: int) -> List[Rep]:
    """The summands of I(v) / soc I(v): I(v) is the dual of the opposite
    algebra's P(v), so I(v) / soc I(v) is the dual of its radical, the sum
    of the opposite algebra's arrow ideals at v."""
    return [dualize(ideal) for ideal in arrow_ideals(opposite(algebra), v)]


def _zero_tails(algebra: BoundQuiverAlgebra) -> List[List[Tuple[int, ...]]]:
    """tails[a]: the paths u with a.u a minimal zero path, that is, a.u is
    zero while u and a.u without its last arrow are alive.  They are read
    off the alive paths, not off the listed relations, which may contain
    one another; kept per algebra."""
    tails = algebra._cache.get("zero_tails")
    if tails is None:
        q = algebra.quiver
        alive = {p.arrows for p in algebra.path_basis}
        tails = algebra._cache["zero_tails"] = [[] for _ in q.arrows]
        for p in algebra.path_basis:
            if p.arrows:
                for b in q.arrows_from(p.target(q)):
                    tail = p.arrows[1:] + (b,)
                    if p.arrows + (b,) not in alive and tail in alive:
                        tails[p.arrows[0]].append(tail)
    return tails


def _stacked_rank(mats: Sequence[Mat], cols: int, field) -> int:
    """The rank of the matrices stacked vertically, each with cols columns."""
    rows = [row for m in mats for row in m.data]
    return linalg.rank(Mat.trusted(field, len(rows), cols, rows)) if rows else 0


def simple_ext_dim(algebra: BoundQuiverAlgebra, v: int, m: Rep) -> int:
    """dim Ext^1(S_v, m), read off the paths.

    From 0 -> rad P(v) -> P(v) -> S_v -> 0, dim Ext^1(S_v, m) is
    dim Hom(rad P(v), m) - dim m_v + dim Hom(S_v, m).  rad P(v) is the sum
    of the arrow ideals aA, and aA is P(t a) modulo the paths u with a.u a
    minimal zero path, so Hom(aA, m) is the x in m_(t a) that every such u
    kills; Hom(S_v, m) is the common kernel of the arrows leaving v.
    """
    q = algebra.quiver
    f = algebra.field
    arrows = q.arrows_from(v)
    tails = _zero_tails(algebra)
    ext = 0
    for a in arrows:
        w = q.arrows[a].target
        ext += m.dims[w] - _stacked_rank(
            [m.path_action_arrows(u) for u in tails[a]], m.dims[w], f)
    return ext - _stacked_rank([m.mats[a] for a in arrows], m.dims[v], f)


# -- duality --

def dualize(m: Rep) -> Rep:
    """The dual module over the opposite algebra (transpose all actions)."""
    algebra = m.algebra
    op = opposite(algebra)
    # arrow with the same name in op runs backwards; its action is the transpose
    mats = []
    for a_op in op.quiver.arrows:
        ai = algebra.quiver.arrow_index(a_op.name)
        mats.append(m.mats[ai].transpose())
    return Rep(op, m.dims, mats)
