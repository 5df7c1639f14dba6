"""Enumeration of indecomposables and the cached tables built on them.

The enumeration builds every indecomposable as the middle of an extension of
a simple S by a direct sum U of found modules, one total dimension layer at a
time.  Ext^1(S, M) is read off the paths once per (simple, found module)
(``modules.SimpleExt``), and the cocycles split by summand of U.  For each
summand the sweep keeps the first combination with coefficients in
{0, 1, -1} of each nonzero class up to a scalar (``_class_tuples``), and it
builds one middle per choice of those across the summands, in the product
order of the whole tuple (``_sum_tuples``): a class that is zero against
some summand splits the middle, scaling a summand is an automorphism of U,
and cohomologous cocycles give isomorphic middles, so every skipped middle
is decomposable or isomorphic to one built before it.  Of the combinations
left, the sweep builds no middle when an automorphism of U splits it: when
the class against some U_i lies in the span of the push forwards g_* of
the classes against the other summands, g running over a basis of
Hom(U_j, U_i), the unipotent automorphism 1 - sum c g of U kills it, and
U_i splits off (``_automorphism_splits``).  A middle it builds with the
dimension vector and the simple top of P(v) is P(v), found from the
start, so it gets no End test (``_may_be_new``).  The kept middles, and
so the found modules and their order, are those of the full product
sweep.  Once the projectives are added, and again after every new
module, the sweep asks whether the found set is closed in the
Auslander-Reiten quiver: closed under tau and tau-minus, under the summands
of rad P and I / soc I, and under the summands of the middle term of the
almost split sequence ending at each non-projective module
(``ARNeighbours``).  The found set holds every simple, so once it is closed
it is every indecomposable (Auslander's theorem, Auslander-Reiten-Smalo
ch. VI), and the sweep stops there as completed, building no middle after
its last new module.  The sweep appends to one ``Catalogue``, and the stop
test keeps every fact by catalogue position, each search of a bucket
resuming where it stopped, so each call tests only what is new since the
last one.
Once the set holds every indecomposable projective and is closed under tau,
tau-minus, rad P and I / soc I, only a module on a tau-periodic orbit needs
its almost split middle built: for any other X an irreducible map Y -> X
moves down the tau orbit of X as tau^j Y -> tau^j X (Auslander-Reiten-Smalo
ch. VII) until tau^j Y is projective or a summand of rad P for a projective
tau^j X = P, so found either way, and tau-minus closure walks back up to Y.
The stop test walks the catalogue in canonical order and gives canonical
ids, and the certificate takes that closure as it is instead of computing
it a second time.  The sweep adds each P(v) as it is, since
End P(v) = e_v A e_v is local, so it decomposes no projective.  It adds no
module above the cap but aborts there, so the list it found is the list
the build keeps.  When the guard on the size of a cocycle space or the cap
stops the sweep, the stop test has already found that list not closed.
tau-minus is never built: tau is a bijection from the non-projective
indecomposables onto the non-injective ones with inverse tau-minus
(Auslander-Reiten-Smalo ch. IV), so once tau X is found for every found X,
tau-minus Y is found exactly when Y is injective or Y is some found tau X.
One closure routine, ``ARNeighbours.closure``, reads tau-minus off that tau
image, testing only a module outside it for injectivity, and gives the stop
test, the tau table, the injective flags and the certificate.  One top test
reads projectivity, and injectivity on the dual over the opposite algebra,
whose top is the socle; each non-projective module has one minimal
projective presentation, in path coordinates, which gives its tau and its
Ext row.  tau X is never built: its dimension vector and a Hom test through
the Nakayama functor (``ar.tau_dims``, ``ar.is_tau_of``) find it among the
catalogue modules with that dimension vector.  When that vector is thin
and the full subquiver on its support is a tree, all indecomposables with
it are isomorphic, by rescaling the basis along the tree, so the one
catalogue module there, if any, is tau X with no Hom test
(``_thin_tree``).  On a monomial algebra the
summands of rad P(v) are the arrow ideals at v and those of I(v) / soc I(v)
their duals over the opposite algebra (``modules``), so the closure builds
no radical or socle quotient and decomposes neither.  A module is dualized
only when its dimension vector is that of some I(v).

On the path algebra of a Dynkin quiver the build reads the whole universe
off the positive roots and sweeps for no module.  The algebra has no
relations and its Tits form sum x_v^2 - sum over arrows s -> t of x_s x_t
is positive definite, by Sylvester's criterion in exact arithmetic
(``_tits_definite``); then there is one indecomposable per positive root,
over every field (Gabriel), and the positive roots are the reflection
closure of the simple roots (``_positive_roots``).  With dimension vectors
as columns, E = I - A the matrix of the Euler form, A counting the arrows
s -> t, the Coxeter matrix is Phi = -E^-1 E^T, so that
Phi(dim P(v)) = -dim I(v), and dim tau X = Phi(dim X) for X indecomposable
and not projective (Auslander-Reiten-Smalo ch. VIII).  So when every
positive root lies under the cap, the canonical list is the roots in
canonical order, each with the ordinal 1; tau X is the root Phi(dim X)
(``_dynkin``); P(v) and I(v) are the roots with their dimension vectors;
every module is tau-rigid, being exceptional; and hom and Ext come off the
Euler form, the algebra being hereditary and representation-directed.  The
schema-1 certificate keys keep their meaning: the list is complete, the
count is stable up to the cap plus one, no indecomposable touches the cap,
and the set is closed under tau, tau-minus, radicals of projectives and
socle quotients of injectives.  The modules are built only when they are
read, and with no sweep: every indecomposable lies on the tau-minus orbit
of a projective, which ends at an injective (Gabriel; Auslander-Reiten-Smalo
ch. VIII), so ``ar.tau_minus`` walks each orbit from P(v) until it reaches
the dimension vector of some I(v) (``_knit``).  A Dynkin build with a root
above the cap sweeps and closes like any other, since its report, an
abort's text included, follows the sweep.

The build computes only what its caller reads.  A build that requires the
certificate and is refused stops at it.  One that the sweep keys refuse
already decides the closure keys with the least work: a module whose tau is
not found makes both translate keys false, and only the radical key is
still computed in full.  The walk in canonical order stops at the first
one, resuming the stop test's searches, so it repeats no test.  A swept
build that is kept computes the flags and tau-rigidity, one Hom(X, tau X)
per module whose tau was found; the hom and Ext tables are read-only
properties that fill both tables on the first read of either, so
``inspect`` never computes them, nor, on a root-read build, any module.  A
``Catalogue`` tells modules apart, on the nose when a
module equals the rep, then by an isomorphism invariant, the ranks of the
arrow matrices and the pencil determinants, and otherwise by the Fitting
test of ``decompose``.  For parallel arrows a, b with square d x d blocks
the pencil is the binary form det(x M_a + y M_b) up to a scalar
(``_pencils``): a change of basis g multiplies it by det g_t / det g_s.
A rep that ``find`` measured and the sweep then adds keeps its invariant.
The sweep's catalogue serves its new modules and the closure's neighbour
summands, its buckets by dimension vector holding the candidates for
tau X, and one over the canonical list serves ``identify`` and
``identify_parts``.  Counts pinned downstream all sit on top of this
certificate.  No trace table is kept: ``gen_set`` and ``filtgen_*``
compute from traces, as the oracle for the verify suites and the tests.

Canonical ids are indices into the sorted module list (total dimension, then
dimension vector, then discovery order); labels are dimension vectors plus a
disambiguating ordinal, for example "11#1".
"""

from __future__ import annotations

import functools
import itertools
from fractions import Fraction
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from tauseq import linalg
from tauseq.ar import (
    Ext1From, almost_split_middle, extension_middle, is_tau_of, tau_dims, tau_minus,
)
from tauseq.decompose import _basis_has_iso, indecomposable_parts, is_indecomposable
from tauseq.errors import BoundTooSmall, Mismatch, NotCertifiablyComplete
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, SimpleExt, arrow_ideals, block_sum, dual_arrow_ideals, dualize,
    hom_basis, hom_dim, min_presentation, projective, quotient, radical_spans, simple, trace,
)
from tauseq.tables import Tables


def _dims_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _label(dims: Sequence[int], ordinal: int) -> str:
    if all(d <= 9 for d in dims):
        body = "".join(str(d) for d in dims)
    else:
        body = ".".join(str(d) for d in dims)
    return "%s#%d" % (body, ordinal)


def _arrow_ranks(m: Rep) -> tuple:
    """The ranks of the arrow matrices of m and its pencil determinants
    (``_pencils``), an isomorphism invariant."""
    return tuple(linalg.rank(x) for x in m.mats) + _pencils(m)


def _det(field, rows: List[list]):
    """The determinant of a square matrix, by elimination over the field."""
    rows, det = [list(r) for r in rows], field.one
    for k in range(len(rows)):
        p = next((i for i in range(k, len(rows)) if rows[i][k] != 0), None)
        if p is None:
            return field.zero
        if p != k:
            rows[k], rows[p], det = rows[p], rows[k], field.neg(det)
        det = field.mul(det, rows[k][k])
        for r in rows[k + 1:]:
            c = field.div(r[k], rows[k][k])
            r[:] = [field.sub(x, field.mul(c, y)) for x, y in zip(r, rows[k])]
    return det


def _pencils(m: Rep) -> tuple:
    """For each pair of parallel arrows a, b whose blocks in m are square,
    d x d, the binary form det(x M_a + y M_b) up to a scalar: its values
    det(M_a + c M_b) for c = 0..d and det M_b, scaled so that the first
    nonzero one is 1.  A change of basis g_s, g_t at the ends sends M_a to
    g_t M_a g_s^-1, so it multiplies every value by det g_t / det g_s."""
    f, arrows, out = m.algebra.field, m.algebra.quiver.arrows, []
    for a, b in itertools.combinations(range(len(arrows)), 2):
        s, t = arrows[a].source, arrows[a].target
        if (arrows[b].source, arrows[b].target) == (s, t) and 0 < m.dims[s] == m.dims[t]:
            x, y = m.mats[a].data, m.mats[b].data
            values = [_det(f, [[f.add(p, f.mul(c, q)) for p, q in zip(u, w)]
                               for u, w in zip(x, y)]) for c in range(m.dims[s] + 1)]
            values.append(_det(f, y))
            pivot = next((v for v in values if v != 0), f.one)
            out.append(tuple(f.div(v, pivot) for v in values))
    return tuple(out)


def _vertex_dims(algebra) -> Tuple[List[tuple], List[tuple]]:
    """The dimension vectors of P(v), whose basis at w is the paths v -> w,
    and of I(v), the dual of the opposite algebra's P(v), with the paths
    w -> v at w, for each vertex v; kept per algebra."""
    dims = algebra._cache.get("vertex_dims")
    if dims is None:
        n, paths = algebra.n, algebra.paths_between
        dims = algebra._cache["vertex_dims"] = (
            [tuple(len(paths(v, w)) for w in range(n)) for v in range(n)],
            [tuple(len(paths(w, v)) for w in range(n)) for v in range(n)])
    return dims


def _vertices_with(algebra, side: int, dims: Tuple[int, ...]) -> Sequence[int]:
    """The vertices v with dims the dimension vector of P(v) (side 0) or of
    I(v) (side 1), indexed once per algebra."""
    index = algebra._cache.get("vertices_with")
    if index is None:
        index = algebra._cache["vertices_with"] = {}
        for end, by_vertex in enumerate(_vertex_dims(algebra)):
            for v, d in enumerate(by_vertex):
                index.setdefault((end, d), []).append(v)
    return index.get((side, dims), ())


def _positive_definite(form: Sequence[Sequence[int]]) -> bool:
    """Sylvester's criterion, in exact arithmetic: a symmetric matrix is
    positive definite exactly when its leading principal minors are
    positive.  Elimination without row swaps has as its k-th pivot the
    ratio of the k-th leading minor to the one before, so every pivot must
    be positive."""
    rows = [[Fraction(x) for x in row] for row in form]
    for k, row in enumerate(rows):
        if row[k] <= 0:
            return False
        for r in rows[k + 1:]:
            c = r[k] / row[k]
            r[:] = [x - c * y for x, y in zip(r, row)]
    return True


def _tits_definite(quiver) -> bool:
    """Whether the Tits form sum x_v^2 - sum over arrows s -> t of x_s x_t
    is positive definite, which by Gabriel's theorem is the case exactly
    when the quiver is a disjoint union of Dynkin diagrams of type A, D and
    E.  Twice its Gram matrix is 2I less the arrow counts both ways."""
    n = quiver.num_vertices
    form = [[2 * (v == w) for w in range(n)] for v in range(n)]
    for a in quiver.arrows:
        form[a.source][a.target] -= 1
        form[a.target][a.source] -= 1
    return _positive_definite(form)


def _dynkin(algebra) -> Optional[List[Tuple[int, ...]]]:
    """The columns of the Coxeter matrix of a Dynkin path algebra, or None
    when the algebra has relations or its Tits form is not positive
    definite (``_tits_definite``); kept per algebra.

    The convention: dimension vectors are columns, E = I - A is the matrix
    of the Euler form <x, y> = x^T E y, A counting the arrows s -> t, and
    Phi = -E^-1 E^T, so Phi(dim P(v)) = -dim I(v).  E^-1 has the columns
    dim I(v), and (E^T x)_u is x_u less x_s over the arrows s -> u, so
    column u of Phi is the sum of dim I(t) over the arrows u -> t, less
    dim I(u).  On a Dynkin quiver there is one indecomposable per positive
    root, over every field (Gabriel), and dim tau X = Phi(dim X) for X
    indecomposable and not projective (Auslander-Reiten-Smalo ch. VIII)."""
    if "dynkin" not in algebra._cache:
        phi = None
        if not algebra.relations and _tits_definite(algebra.quiver):
            n, arrows, inj = algebra.n, algebra.quiver.arrows, _vertex_dims(algebra)[1]
            phi = [tuple(sum(inj[a.target][w] for a in arrows if a.source == u) - inj[u][w]
                         for w in range(n)) for u in range(n)]
        algebra._cache["dynkin"] = phi
    return algebra._cache["dynkin"]


def _coxeter(phi: Sequence[Tuple[int, ...]], dims: Sequence[int]) -> Tuple[int, ...]:
    """Phi(dims), for the columns phi of ``_dynkin``."""
    return tuple(sum(x * col[w] for x, col in zip(dims, phi)) for w in range(len(dims)))


def _positive_roots(algebra) -> Optional[List[Tuple[int, ...]]]:
    """The positive roots of a Dynkin path algebra (``_dynkin``) in
    canonical order, by total dimension and then as vectors, or None off
    Dynkin input; kept per algebra.

    They are the reflection closure of the simple roots.  The simple
    reflection s_v sends x to x - (x, e_v) e_v, where (x, e_v) = 2 x_v less
    the x_w over the arrows between v and w is the symmetric form of the
    Tits form.  A positive root x other than a simple one has some v with
    (x, e_v) > 0, since (x, x) = 2, and s_v x is a positive root of smaller
    height; so the walk up from the simple roots, adding -(x, e_v) e_v to x
    wherever that is positive, reaches every positive root and no other
    vector."""
    if "positive_roots" not in algebra._cache:
        roots = None
        if _dynkin(algebra) is not None:
            n, arrows = algebra.n, algebra.quiver.arrows
            ends = [[a.target for a in arrows if a.source == v] +
                    [a.source for a in arrows if a.target == v] for v in range(n)]
            todo = [tuple(int(v == w) for w in range(n)) for v in range(n)]
            seen = set(todo)
            while todo:
                x = todo.pop()
                for v in range(n):
                    c = sum(x[w] for w in ends[v]) - 2 * x[v]
                    if c > 0:
                        y = x[:v] + (x[v] + c,) + x[v + 1:]
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
            roots = sorted(seen, key=lambda r: (sum(r), r))
        algebra._cache["positive_roots"] = roots
    return algebra._cache["positive_roots"]


def _euler_form(algebra, x: Sequence[int], y: Sequence[int]) -> int:
    """<x, y> = sum x_v y_v - sum over arrows s -> t of x_s y_t, which is
    dim Hom(X, Y) - dim Ext^1(X, Y) over a hereditary algebra."""
    return sum(a * b for a, b in zip(x, y)) - \
        sum(x[a.source] * y[a.target] for a in algebra.quiver.arrows)


def _nonzero_arrows(m: Rep) -> Optional[List[int]]:
    """The arrows whose matrix is nonzero, for a thin m (every dimension at
    most 1, so each such matrix is one scalar), or None when m is not
    thin."""
    if any(d > 1 for d in m.dims):
        return None
    return [a for a, x in enumerate(m.mats) if x.rows and x.cols and x.data[0][0] != 0]


def _connected(vertices: Sequence[int], edges: Sequence[Tuple[int, int]]) -> bool:
    """Whether the edges, each joining two of the vertices, connect them."""
    part = {v: {v} for v in vertices}
    for s, t in edges:
        if part[s] is not part[t]:
            joined = part[s] | part[t]
            for v in joined:
                part[v] = joined
    return len(part[vertices[0]]) == len(vertices)


def _thin_tree(algebra, dims: Tuple[int, ...]) -> bool:
    """Whether dims is thin and the full subquiver on its support is a tree:
    connected, with one arrow fewer than vertices, so no loop, no two arrows
    between the same pair of vertices and no cycle.  Then every
    indecomposable with the dimension vector dims has all those arrows
    nonzero, since a zero arrow cuts the tree in two and its module splits
    along the cut, and rescaling its basis vectors out from one vertex along
    the tree makes every one of them 1: all are isomorphic."""
    if any(d > 1 for d in dims):
        return False
    support = [v for v, d in enumerate(dims) if d]
    edges = [(a.source, a.target) for a in algebra.quiver.arrows
             if dims[a.source] and dims[a.target]]
    return bool(support) and len(edges) == len(support) - 1 and _connected(support, edges)


def _top_dims(m: Rep) -> List[int]:
    """dim (top m)_v for each vertex v.  For a thin m the top at v is zero
    exactly when a nonzero arrow ends at v, which then spans m_v."""
    arrows = _nonzero_arrows(m)
    if arrows is not None:
        q = m.algebra.quiver
        heads = {q.arrows[a].target for a in arrows}
        return [0 if v in heads else d for v, d in enumerate(m.dims)]
    return [d - linalg.rank(span) for d, span in zip(m.dims, radical_spans(m))]


def _projective_vertex(m: Rep) -> Optional[int]:
    """v when the indecomposable m is the projective P(v), else None: m is
    projective exactly when top m is one simple S_v and m has the dimension
    vector of P(v).  P(v) covers m, its projective cover, so equal
    dimensions make the cover an isomorphism.  The dimension vectors of
    the projectives are kept per algebra (``_vertex_dims``), and the top is
    computed only when m has one of them (``_top_vertex``).  Read on the
    dual over the opposite algebra, the same test says whether m is the
    injective I(v): soc m is the dual of top D m, and D I(v) is P(v)
    there."""
    return _top_vertex(m, _vertices_with(m.algebra, 0, m.dims))


def _top_vertex(m: Rep, candidates: Sequence[int]) -> Optional[int]:
    """v when top m is the one simple S_v and v is one of the candidates,
    else None; the top is computed only when there is a candidate."""
    if not candidates:
        return None
    top = _top_dims(m)
    v = top.index(1) if sum(top) == 1 else None
    return v if v in candidates else None


def _injective_at(m: Rep) -> Optional[int]:
    """v when the indecomposable m is the injective I(v), else None.  Only a
    module with the dimension vector of some I(v) can be I(v), and the top
    test runs on its dual over the opposite algebra, whose P(v) has the
    dimension vector of I(v)."""
    vertices = _vertices_with(m.algebra, 1, m.dims)
    return _top_vertex(dualize(m), vertices) if vertices else None


class Catalogue:
    """Pairwise non-isomorphic indecomposables, bucketed by dimension vector;
    a module's position in ``modules`` is its id here.  Modules are only
    appended, so a position names one module for good."""

    def __init__(self, modules: Sequence[Rep] = ()):
        self.modules: List[Rep] = []
        self._by_dims: Dict[tuple, List[int]] = {}
        self._ranks: Dict[int, tuple] = {}
        # the last rep ``find`` measured and its invariant, kept for ``add``
        self._measured: Optional[Tuple[Rep, tuple]] = None
        for m in modules:
            self.add(m)

    def add(self, m: Rep):
        """Append m; when ``find`` has just measured m, its invariant is
        kept."""
        if self._measured is not None and self._measured[0] is m:
            self._ranks[len(self.modules)] = self._measured[1]
        self._by_dims.setdefault(m.dims, []).append(len(self.modules))
        self.modules.append(m)

    def bucket(self, dims: Tuple[int, ...]) -> Sequence[int]:
        """The positions of the modules with the dimension vector dims."""
        return self._by_dims.get(dims, ())

    def canonical_order(self) -> List[int]:
        """The positions in the order of canonical ids: by total dimension,
        then dimension vector, then position."""
        mods = self.modules
        return sorted(range(len(mods)), key=lambda i: (mods[i].total_dim, mods[i].dims))

    def ranks(self, i: int) -> tuple:
        """The invariant of module i (``_arrow_ranks``), on first read."""
        r = self._ranks.get(i)
        if r is None:
            r = self._ranks[i] = _arrow_ranks(self.modules[i])
        return r

    def find(self, rep: Rep, start: int = 0) -> Optional[int]:
        """The position of the module isomorphic to rep among the entries of
        its bucket from start on, or None.  A module equal to rep
        (``Rep.__eq__``) is returned before any Hom solve: the modules are
        pairwise non-isomorphic.  Otherwise a module whose invariant
        (``_arrow_ranks``) differs from rep's is turned away: the ranks of
        the arrow matrices, and for each pair of parallel arrows a, b with
        square blocks the form det(x M_a + y M_b) up to a scalar, which a
        change of basis g multiplies by det g_t / det g_s (``_pencils``).
        The module is indecomposable, so by Fitting's lemma the two are
        isomorphic exactly when some Hom basis element is, whether or not
        rep is (``_basis_has_iso``)."""
        bucket = self.bucket(rep.dims)[start:]
        i = next((i for i in bucket if self.modules[i] == rep), None)
        if i is None and bucket:
            ranks = _arrow_ranks(rep)
            self._measured = (rep, ranks)
            i = next((i for i in bucket if self.ranks(i) == ranks and
                      _basis_has_iso(rep, self.modules[i])), None)
        return i

    def find_all(self, parts: Sequence[Rep]) -> Optional[List[int]]:
        """The sorted positions of the parts, or None if one is not found."""
        out = []
        for part in parts:
            i = self.find(part)
            if i is None:
                return None
            out.append(i)
        return sorted(out)


class Closure(NamedTuple):
    """What ``ARNeighbours.closure`` reads off a catalogue, by canonical id."""
    tau_of: List[Optional[int]]  # None for a projective or an unresolved tau
    tau_unresolved: List[bool]   # tau X is not one found module
    is_inj: List[bool]
    closed_under_translates: bool
    closed_under_radical_and_socle_quotients: bool


class _Search:
    """A search of one catalogue bucket that resumes where it stopped:
    find(start) tests the bucket's entries from start on; found is the
    position it found, tested how many entries it has tested."""
    __slots__ = ("dims", "find", "found", "tested")

    def __init__(self, dims: Tuple[int, ...], find):
        self.dims, self.find, self.found, self.tested = dims, find, None, 0


class ARNeighbours:
    """Each catalogue module's minimal projective presentation, its
    translate's place in the catalogue, its injectivity and its neighbours
    in the Auslander-Reiten quiver, as lists of indecomposable summands,
    each computed once per catalogue position.

    The presentation (``modules.min_presentation``) serves the module's tau
    and its Ext row.  ``projective_vertex`` reads the top
    (``_projective_vertex``), so a projective gets no presentation here.
    tau X is never built: ``translate`` looks for it in the catalogue
    bucket with the dimension vector of tau X (``ar.tau_dims``), by the
    test of ``ar.is_tau_of``, which reads Hom(Z, tau X) through the
    Nakayama functor.  For X indecomposable and not projective, tau X is
    indecomposable (Auslander-Reiten-Smalo, ch. IV), and a catalogue holds
    pairwise non-isomorphic modules, so at most one candidate passes.
    ``injective_vertex`` runs the top test on the dual over the opposite
    algebra, whose top is the socle, and builds no projective cover there;
    it dualizes only a module with the dimension vector of some I(v).
    ``closure`` reads these, and the neighbour lists, for the sweep's stop
    test, the translate table and the closure certificate:
      "before"  the sources of the irreducible maps into X: the summands of
                the middle of the almost split sequence ending at X, or for
                X = P(v) the summands of rad P(v), its arrow ideals
                (``modules.arrow_ideals``);
      "after"   for X = I(v), the summands of I(v) / soc I(v), read off the
                opposite algebra's paths (``modules.dual_arrow_ideals``):
                the targets of the irreducible maps out of X (for any other
                X they are the "before" of tau^- X).
    The stop test builds "before" of a non-projective X only on a
    tau-periodic orbit, from the catalogue module found isomorphic to
    tau X; when the catalogue holds every indecomposable projective, the
    other orbits need no middle (the proof is in ``closure``).

    The sweep appends to the catalogue and runs the stop test after every
    module it adds, so every fact is kept by catalogue position.  Each tau X
    and each neighbour summand has one search of its bucket (``_Search``),
    which keeps the position it found and how many bucket entries it
    tested, so a later call tests only the modules that reached the bucket
    since.  The last search that failed is the witness, and the stop test
    returns None at once while its bucket has not grown.

    tau^- is never built.  tau is a bijection from the non-projective
    indecomposables onto the non-injective ones, with inverse tau^-
    (Auslander-Reiten-Smalo, ch. IV).  So for a list C of pairwise
    non-isomorphic indecomposables that holds tau X for every X in C,
    tau^- Y lies in C exactly when Y is injective or Y is tau X for some X
    in C; only the Y outside that tau image need the injectivity test.
    """

    def __init__(self, catalogue: Catalogue):
        self.catalogue = catalogue
        self._facts: Dict[Tuple[str, int], object] = {}
        self._witness: Optional[_Search] = None

    def _fact(self, kind: str, i: int, make):
        """make(module i), computed once per position."""
        key = (kind, i)
        if key not in self._facts:
            self._facts[key] = make(self.catalogue.modules[i])
        return self._facts[key]

    def _resume(self, search: _Search) -> Optional[int]:
        """The position the search found, testing only the bucket entries
        it has not tested; a search that fails becomes the witness."""
        if search.found is None:
            start, search.tested = search.tested, len(self.catalogue.bucket(search.dims))
            if start < search.tested:
                search.found = search.find(start)
            if search.found is None:
                self._witness = search
        return search.found

    def _witness_stands(self) -> bool:
        """Whether the last search that failed has no new bucket entry."""
        w = self._witness
        return w is not None and w.found is None and \
            w.tested == len(self.catalogue.bucket(w.dims))

    def presentation(self, i: int) -> Presentation:
        return self._fact("presentation", i, min_presentation)

    def presentations(self, order: Sequence[int]) -> List[Optional[Presentation]]:
        """The presentations of the positions in order that were built, and
        None for the others."""
        return [self._facts.get(("presentation", i)) for i in order]

    def projective_vertex(self, i: int) -> Optional[int]:
        """v when module i is the projective P(v), else None
        (``_projective_vertex``)."""
        return self._fact("projective", i, _projective_vertex)

    def injective_vertex(self, i: int) -> Optional[int]:
        """v when module i is the injective I(v), else None
        (``_injective_at``)."""
        return self._fact("injective", i, _injective_at)

    def translate(self, i: int) -> Optional[int]:
        """The position of the module isomorphic to tau of module i, or None
        when there is none; module i is not projective.  When tau X has a
        thin dimension vector whose support spans a tree (``_thin_tree``),
        every indecomposable with that vector is isomorphic to tau X, so
        the bucket holds at most one module, and that one is tau X with no
        ``is_tau_of`` test."""
        def search(m: Rep) -> _Search:
            pres, mods = self.presentation(i), self.catalogue.modules
            dims = tau_dims(pres)
            if _thin_tree(m.algebra, dims):
                return self._only(dims)
            bucket = functools.partial(self.catalogue.bucket, dims)
            return _Search(dims, lambda start: next(
                (j for j in bucket()[start:] if is_tau_of(mods[j], pres)), None))

        return self._resume(self._fact("tau", i, search))

    def _only(self, dims: Tuple[int, ...]) -> _Search:
        """The search that takes the first module of the bucket dims, for a
        dimension vector that has at most one indecomposable."""
        return _Search(dims, lambda start: self.catalogue.bucket(dims)[start])

    def parts_found(self, kind: str, i: int, tau_i: Optional[int] = None) -> bool:
        """Whether every "before" or "after" summand of module i is in the
        catalogue; tau_i is the position of tau of module i, needed for
        "before" of a non-projective module."""
        def searches(m: Rep) -> List[_Search]:
            if kind == "after":
                parts = dual_arrow_ideals(m.algebra, self.injective_vertex(i))
            elif self.projective_vertex(i) is not None:
                parts = arrow_ideals(m.algebra, self.projective_vertex(i))
            else:
                parts = indecomposable_parts(
                    almost_split_middle(m, self.catalogue.modules[tau_i]))
            return [_Search(p.dims, functools.partial(self.catalogue.find, p)) for p in parts]

        return all(self._resume(s) is not None for s in self._fact(kind, i, searches))

    def radical_closed(self, order: Sequence[int], is_inj: Sequence[bool]) -> bool:
        """Whether the summands of rad P and of I / soc I are found for
        every projective P and every I with is_inj, walking the positions
        in order."""
        return all((self.projective_vertex(i) is None or self.parts_found("before", i)) and
                   (not inj or self.parts_found("after", i))
                   for i, inj in zip(order, is_inj))

    def refused_closure_keys(self) -> Optional[Dict[str, bool]]:
        """The closure keys of a certificate that already fails, decided
        with the least work, or None when every tau X is found and only the
        whole closure decides them.

        A tau X not found makes both translate keys false, so the walk in
        canonical order stops at the first module whose tau X is not found;
        the searches the stop test made are resumed, not repeated.  The
        radical key reads projectivity off the top, injectivity off the
        socle and the summands off the paths."""
        order = self.catalogue.canonical_order()
        if all(self.projective_vertex(i) is not None or self.translate(i) is not None
               for i in order):
            return None
        return {"translate_table_complete": False, "closed_under_translates": False,
                "closed_under_radical_and_socle_quotients": self.radical_closed(
                    order, [self.injective_vertex(i) is not None for i in order])}

    def closure(self, stop: bool = False) -> Optional[Closure]:
        """The translate table, the injective flags and the two closure
        flags of the catalogue, walking its positions in canonical order
        (``Catalogue.canonical_order``) and giving canonical ids.

        tau is closed when every tau X is one found module and every Y is
        injective or some found tau X, which is then tau^- Y (see the class
        docstring); the radicals and socle quotients are closed when the
        summands of rad P and of I / soc I are found for every found
        projective P and injective I.

        With stop, this is the sweep's stop test, which returns the closure
        only when every neighbour of every module, tau^- X included, is
        isomorphic to a catalogue module, and None otherwise.  It returns
        None at once while the witness of its last failure stands (see the
        class docstring); its walk stops at the first module whose tau X is
        not found, and only a catalogue whose every tau X is found gets its
        injective flags and radical closure.

        That is: the catalogue holds as many projectives as the algebra has
        vertices, so every indecomposable projective; the two closure flags
        hold; and the middle of the almost split sequence ending at X is
        found for each non-projective X on a tau-periodic orbit.  No other
        middle needs building.  Let the tau orbit of X in the catalogue
        reach a projective, and let Y -> X be irreducible.  Then
        tau^j Y -> tau^j X is irreducible (Auslander-Reiten-Smalo, ch. VII)
        down the orbit until tau^j Y is projective, so found, or
        tau^j X = P is, and then tau^j Y is a summand of rad P, found by the
        radical flag.  tau^j Y lies in the tau image, so it is not
        injective, nor is any module between it and Y, and tau^- closure
        walks back up to Y.  A catalogue that is closed and holds every
        simple is a union of finite components of the AR quiver, one per
        block, so by Auslander's theorem it is every indecomposable
        (Auslander-Reiten-Smalo, ch. VI).
        """
        mods = self.catalogue.modules
        if stop and (not mods or sum(self.projective_vertex(i) is not None
                                     for i in range(len(mods))) != mods[0].algebra.n
                     or self._witness_stands()):
            return None
        order = self.catalogue.canonical_order()
        canonical_id = {i: k for k, i in enumerate(order)}
        tau_of, unresolved = [], []
        for i in order:
            proj = self.projective_vertex(i) is not None
            t = None if proj else self.translate(i)
            lost = not proj and t is None
            if lost and stop:
                return None
            tau_of.append(None if t is None else canonical_id[t])
            unresolved.append(lost)
        # tau X is never injective; outside the tau image the test is exact
        image = set(tau_of)
        is_inj = [k not in image and self.injective_vertex(i) is not None
                  for k, i in enumerate(order)]
        translates = not any(unresolved) and all(
            inj or k in image for k, inj in enumerate(is_inj))
        c = Closure(tau_of, unresolved, is_inj, translates, self.radical_closed(order, is_inj))
        if stop and not (c.closed_under_translates and c.closed_under_radical_and_socle_quotients
                         and all(t is None or not _tau_periodic(tau_of, k) or
                                 self.parts_found("before", i, order[t])
                                 for k, (i, t) in enumerate(zip(order, tau_of)))):
            return None
        return c


def _tau_periodic(tau_of: Sequence[Optional[int]], i: int) -> bool:
    """Whether the tau orbit of module i never reaches a projective (None)
    within the list; tau is injective, so such an orbit returns to i."""
    for _ in range(len(tau_of)):
        i = tau_of[i]
        if i is None:
            return False
    return True


SWEEP_COEFFS = (0, 1, -1)


def _combination(field, coeffs: Sequence[int], vectors: Sequence[Sequence]) -> list:
    """sum c_k vectors[k] for coefficients c_k in SWEEP_COEFFS."""
    out = [field.zero] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [field.add(x, y) if c == 1 else field.sub(x, y) for x, y in zip(out, vec)]
    return out


def _class_tuples(field, classes: Sequence[tuple]) -> List[Tuple[int, ...]]:
    """The coefficient tuples over SWEEP_COEFFS, in itertools.product order,
    that the sweep combines for one summand U_i of U, classes[k] being the
    class in Ext^1(S, U_i) of its basis cocycle k: the first tuple of each
    nonzero class up to a nonzero scalar, keyed by the class scaled so that
    its first nonzero coordinate is 1.  A zero class splits U_i off the
    middle, and scaling U_i is an automorphism of U, so every other tuple
    gives a decomposable middle or one isomorphic to a middle of a kept
    tuple.  A tuple whose first nonzero coefficient is -1 is skipped before
    any arithmetic: its negation comes earlier in product order and keys
    the same class, over every field."""
    seen = set()
    out = []
    for coeffs in itertools.product(SWEEP_COEFFS, repeat=len(classes)):
        if next((c for c in coeffs if c), -1) != 1:
            continue
        vec = _combination(field, coeffs, classes)
        pivot = next((x for x in vec if x != 0), None)
        if pivot is not None:
            key = tuple(field.div(x, pivot) for x in vec)
            if key not in seen:
                seen.add(key)
                out.append(coeffs)
    return out


def _sum_tuples(kept: Sequence[Sequence[Tuple[int, ...]]],
                free: Sequence[Sequence[Tuple[int, int]]]) -> List[Tuple[Tuple[int, ...], ...]]:
    """The combinations of one kept tuple per summand of U (kept[i], from
    ``_class_tuples``), in itertools.product order of the tuple they make
    on the basis of Z^1(S, U), skipping the zero tuple.

    S is simple, so that basis is the union of the summands' ones, each
    vector at its free unknown (arrow, row) of summand i (free[i]), ordered
    by arrow, summand and row.  A class against U_i depends only on the
    coefficients of U_i's vectors, so the first tuple in product order of
    any classes up to scalars is made of the first tuple of each summand:
    two tuples compare at the first coordinate where they differ."""
    order = sorted((a, i, r, k) for i, rows in enumerate(free)
                   for k, (a, r) in enumerate(rows))
    ranked = []
    for tuples in itertools.product(*kept):
        # each coefficient by its place in SWEEP_COEFFS, which puts 0 first
        flat = [SWEEP_COEFFS.index(tuples[i][k]) for _, i, _, k in order]
        if any(flat):  # the zero tuple comes only from a full product walk
            ranked.append((flat, tuples))
    return [tuples for _, tuples in sorted(ranked, key=lambda pair: pair[0])]


def _sum_cocycle(exts: Sequence[SimpleExt], tuples: Sequence[Tuple[int, ...]]) -> List[Mat]:
    """The cocycle of S by the block sum of the summands of exts whose rows
    at each arrow are the combination tuples[i] of summand i's basis; a
    zero tuple, which only a full product walk keeps, gives zero rows."""
    blocks = [linalg.combine(t, x.cocycles) or [b.scale(0) for b in x.cocycles[0]]
              for x, t in zip(exts, tuples)]
    return [functools.reduce(Mat.vstack, col) for col in zip(*blocks)]


def _automorphism_splits(exts: Sequence[SimpleExt], tuples: Sequence[Tuple[int, ...]],
                         pushed) -> bool:
    """Whether an automorphism of U splits the middle of the cocycle that
    ``_sum_cocycle(exts, tuples)`` builds on U = U_1 + ... + U_r.

    Its class is (xi_i), xi_i in Ext^1(S, U_i).  For g: U_j -> U_i with
    j != i, the unipotent automorphism 1 + g of U sends the class to the one
    with xi_i + g_* xi_j in place i.  So when xi_i = sum c_(j,g) g_* xi_j
    over j != i and g in a basis of Hom(U_j, U_i), the automorphism
    1 - sum c_(j,g) g kills the component at U_i, and U_i splits off the
    middle.  With g the identity of a repeated summand, this covers
    dependent classes on repeated summands.  pushed(j, i) lists, per basis
    element g of Hom(U_j, U_i), the classes in Ext^1(S, U_i) of g_* of the
    basis cocycles of Z^1(S, U_j) (``SimpleExt.pushed_classes``)."""
    field = exts[0].coboundaries.field
    for i, (x, t) in enumerate(zip(exts, tuples)):
        span = [v for j, u in enumerate(tuples) if j != i for classes in pushed(j, i)
                for v in [_combination(field, u, classes)] if any(v)]
        if span:
            # xi_i lies in the span when the last column is not a pivot
            cols = span + [_combination(field, t, x.classes)]
            _, pivots = linalg.rref(Mat.trusted(field, x.dim, len(cols),
                                                [list(r) for r in zip(*cols)]))
            if pivots[-1] != len(span):
                return True
    return False


def _may_be_new(middle: Rep) -> bool:
    """Whether a sweep middle is indecomposable and not projective.  A
    middle with the dimension vector of P(v) and the simple top S_v is P(v)
    (``_projective_vertex``), which the sweep holds from the start, so it
    needs neither an End test nor a Hom solve; any other middle gets the
    End test (``decompose.is_indecomposable``)."""
    return _projective_vertex(middle) is None and is_indecomposable(middle)


def _holds(certificate: Dict[str, object]) -> bool:
    """Whether every key of the certificate so far holds."""
    return all(bool(v) for k, v in certificate.items()
               if k not in ("dim_bound", "sweep_aborted_because"))


class _Budget:
    # guard rails so a runaway enumeration fails loudly instead of hanging
    MAX_MODULES = 400
    # on dim Z^1(S, U); the class walk combines (3^e - 1) / 2 tuples per
    # summand, e = dim Z^1(S, U_i), not 3^dim Z^1(S, U), so this could be
    # relaxed
    MAX_COCYCLE_BASIS = 6


class _Abort(Exception):
    """The sweep stops uncompleted; the argument is the reason."""


class ModuleUniverse(Tables):
    """All indecomposables of a representation-finite bound quiver algebra,
    and the ``tables.Tables`` of them that the table core reads.

    The dimension vectors ``dims``, the translate table, the projective and
    injective flags, tau_rigid and the certificate are built with the
    universe; ``hom`` and ``ext`` are filled on the first read of either
    (``_build_tables``).  The modules serve ``identify`` and the
    module-level oracles.

    On a Dynkin path algebra whose positive roots all lie under the cap
    (``_positive_roots``), the build reads everything off the roots and
    builds no module (``_read_roots``): ``modules`` is then a property that
    builds them on its first read, walking the tau-minus orbit of each
    projective (``_knit``).  Any other build, a Dynkin one with a root above
    the cap included, sweeps and closes as it is built
    (``_sweep_and_close``)."""

    def __init__(self, algebra, dim_bound: Optional[Sequence[int]] = None,
                 require_certificate: bool = True):
        self.algebra = algebra
        n = algebra.n
        self.field = algebra.field
        projs = _vertex_dims(algebra)[0]
        if dim_bound is None:
            peak = max(max(p) for p in projs)
            dim_bound = tuple(3 * max(peak, 1) for _ in range(n))
        self.dim_bound: Tuple[int, ...] = tuple(dim_bound)
        if len(self.dim_bound) != n:
            raise BoundTooSmall("the cap %r names %d bounds for %d vertices"
                                % (self.dim_bound, len(self.dim_bound), n))
        for p in projs:
            if not _dims_leq(p, self.dim_bound):
                raise BoundTooSmall("projective with dimension vector %r exceeds the cap %r"
                                    % (p, self.dim_bound))
        roots = _positive_roots(algebra)
        if roots is not None and all(_dims_leq(r, self.dim_bound) for r in roots):
            tau_rigid, vertex_of = self._read_roots(roots, require_certificate)
        else:
            tau_rigid, vertex_of = self._sweep_and_close(require_certificate)
        labels: List[str] = []
        seen: Dict[tuple, int] = {}
        for d in self.dims:
            seen[d] = seen.get(d, 0) + 1
            labels.append(_label(d, seen[d]))
        super().__init__(n, labels, None, None, self.tau_of, tau_rigid,
                         [v is not None for v in vertex_of],
                         [vertex_of.index(v) for v in range(n)])
        self._gen_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._filtgen_cache: Dict[Tuple[FrozenSet[int], int], bool] = {}

    def _sweep_keys(self, complete: bool, dims: Sequence[Tuple[int, ...]]) -> Dict[str, object]:
        """The certificate's first keys, for a list with the dimension
        vectors dims."""
        return {
            "dim_bound": list(self.dim_bound),
            "sweep_completed": complete,
            # the sweep aborts at the first module above the cap
            "stable_under_cap_plus_one": complete,
            "no_indecomposable_on_boundary": all(
                all(d < b for d, b in zip(x, self.dim_bound)) for x in dims),
        }

    def _certify(self, require_certificate: bool):
        self.certified = _holds(self.certificate)
        if require_certificate and not self.certified:
            raise NotCertifiablyComplete(
                "enumeration not certified: %r; raise --dim-bound" % (self.certificate,))

    def _read_roots(self, roots: List[Tuple[int, ...]], require_certificate: bool
                    ) -> Tuple[List[bool], List[Optional[int]]]:
        """The tables of a Dynkin path algebra, read off its positive roots,
        and (tau_rigid, the vertex of each projective, else None).

        There is one indecomposable per positive root, over every field
        (Gabriel), so the canonical list is the roots in canonical order,
        each with the ordinal 1.  P(v) and I(v) are the modules with their
        dimension vectors (``_vertex_dims``), tau X of a non-projective X
        the module with the dimension vector Phi(dim X) (``_coxeter``), and
        every module is tau-rigid, being exceptional: Hom(X, tau X) =
        D Ext^1(X, X) = 0.  The certificate keys keep their meaning: the
        list is complete, it is stable under the cap plus one, and it is
        closed under tau, tau-minus, the radicals of the projectives and
        the socle quotients of the injectives, those being indecomposables
        too; only the cap key is computed."""
        proj, inj = _vertex_dims(self.algebra)
        self.dims: List[Tuple[int, ...]] = list(roots)
        self._modules: Optional[List[Rep]] = None
        # no presentation: hom and Ext come off the Euler form
        self._pres: Optional[List[Optional[Presentation]]] = None
        self.certificate = self._sweep_keys(True, roots)
        self.certificate.update(closed_under_translates=True,
                                closed_under_radical_and_socle_quotients=True)
        self._certify(require_certificate)
        phi, index = _dynkin(self.algebra), {r: k for k, r in enumerate(roots)}
        vertex_of = [proj.index(r) if r in proj else None for r in roots]
        self.tau_of: List[Optional[int]] = [
            None if v is not None else index[_coxeter(phi, r)] for r, v in zip(roots, vertex_of)]
        self.tau_unresolved: List[bool] = [False] * len(roots)
        self.is_inj: List[bool] = [r in inj for r in roots]
        return [True] * len(roots), vertex_of

    def _sweep_and_close(self, require_certificate: bool
                         ) -> Tuple[List[bool], List[Optional[int]]]:
        """The sweep, its certificate and its closure; returns (tau_rigid,
        the vertex of each projective, else None)."""
        self._neighbours = ARNeighbours(Catalogue())
        found, complete, reason, closure = self._enumerate(
            tuple(b + 1 for b in self.dim_bound))
        self.certificate = self._sweep_keys(complete, [m.dims for m in found])
        if reason:
            self.certificate["sweep_aborted_because"] = reason
        order = self._neighbours.catalogue.canonical_order()
        self._modules = [found[i] for i in order]
        self.dims = [m.dims for m in self._modules]
        # a refused build stops at its certificate, and one that the sweep
        # keys refuse already decides the closure keys with the least work
        self._check_closure(require_certificate and not _holds(self.certificate), closure)
        self._certify(require_certificate)
        neighbours = self._neighbours
        del self._neighbours
        vertex_of = [neighbours.projective_vertex(i) for i in order]
        # the minimal presentation that gave a module its tau gives its Ext
        # row when ``ext`` is first read; a projective has none built yet
        self._pres = neighbours.presentations(order)
        for v in range(self.algebra.n):
            if v not in vertex_of:
                raise Mismatch("projective at vertex %d missing from the enumeration" % v)
        # an unresolved tau is tolerated only on an uncertified sweep; the
        # module is treated as not rigid
        tau_rigid = [not unresolved and (t is None or hom_dim(m, self._modules[t]) == 0)
                     for m, t, unresolved in zip(self._modules, self.tau_of, self.tau_unresolved)]
        return tau_rigid, vertex_of

    @property
    def modules(self) -> List[Rep]:
        """The indecomposables by canonical id; a build that read the roots
        builds them on the first read (``_knit``)."""
        if self._modules is None:
            self._modules = self._knit()
        return self._modules

    @functools.cached_property
    def _catalogue(self) -> Catalogue:
        """The catalogue over the canonical list, for ``identify``."""
        return Catalogue(self.modules)

    def _knit(self) -> List[Rep]:
        """The modules of a build that read the roots, in canonical order.

        Every indecomposable over a Dynkin path algebra lies on the
        tau-minus orbit of a projective, and that orbit ends at an injective
        (Gabriel; Auslander-Reiten-Smalo ch. VIII).  So each orbit is walked
        from P(v) with ``ar.tau_minus`` until it reaches the dimension vector
        of some I(v), which is I(v), there being one indecomposable per
        root.  A walk that meets more modules than there are roots, or
        dimension vectors other than the roots, raises ``Mismatch``."""
        injective = set(_vertex_dims(self.algebra)[1])
        mods: List[Rep] = []
        for v in range(self.algebra.n):
            m = projective(self.algebra, v)
            for _ in range(len(self.dims)):
                mods.append(m)
                if m.dims in injective:
                    break
                m = tau_minus(m)
        mods.sort(key=lambda m: (m.total_dim, m.dims))
        if [m.dims for m in mods] != self.dims:
            raise Mismatch("the tau-minus orbits of the projectives have the dimension "
                           "vectors %r, not the positive roots" % ([m.dims for m in mods],))
        return mods

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def _enumerate(self, cap: Tuple[int, ...]
                   ) -> Tuple[List[Rep], bool, str, Optional[Closure]]:
        """Sweep up to the cap into the catalogue of ``self._neighbours``;
        returns (found, sweep completed, abort reason, the closure of found
        when the stop test ended the sweep, else None), found being the
        catalogue's modules in the order the sweep added them.

        For each simple S and each bounded multiset of found modules with
        direct sum U, it builds the middle of the first {0, +-1} combination
        of the basis of Z^1(S, U), in product order, of each class up to one
        scalar per summand and with no zero component.  The combination is
        one kept tuple per summand (``_class_tuples``, ``_sum_tuples``), and
        its cocycle stacks the summands' combinations at each arrow
        (``_sum_cocycle``).  The guard bounds dim Z^1(S, U); the walk costs
        the sum of (3^dim Z^1(S, U_i) - 1) / 2 combinations over the
        summands plus the product of their kept tuple counts.

        Two skips are theorems, so they change no found module.  A
        combination whose class an automorphism of U kills at some summand
        builds no middle (``_automorphism_splits``): that summand splits
        off.  It reads Hom(U_j, U_i) between found modules and the class
        forms of ``SimpleExt``, pushed forward once per (simple, U_j, U_i).
        A middle that is P(v) by its dimension vector and top gets no End
        test and no Hom solve (``_may_be_new``): P(v) is found from the
        start.

        The stop test runs once the projectives are added and again after
        every new module, and the sweep completes as soon as the found set
        is closed in the AR quiver: it holds every simple from the start, so
        by Auslander's theorem it is then every indecomposable, and the rest
        of the sweep could add nothing and meet no cap or guard.  So the
        sweep builds no middle after its last new module.  It aborts as
        soon as an indecomposable enters the shell above dim_bound, adding
        no module there, since at that point the stability certificate is
        already forfeit and further work cannot restore it, or when the
        cocycle guard stops it; the stop test has then already found the
        list not closed.  Either way found is the list the build keeps.
        """
        algebra = self.algebra
        catalogue = self._neighbours.catalogue
        found = catalogue.modules
        closure: Optional[Closure] = None

        def done() -> bool:
            """Whether the stop test finds the found set closed."""
            nonlocal closure
            closure = self._neighbours.closure(stop=True)
            return closure is not None

        def add(rep: Rep) -> bool:
            """Whether rep is new; it is then added, unless it lies above
            the cap, where the sweep aborts."""
            if catalogue.find(rep) is not None:
                return False
            above = not _dims_leq(rep.dims, self.dim_bound)
            if not above:
                catalogue.add(rep)
            # a module above the cap counts against the limit, though not kept
            if len(found) + above > _Budget.MAX_MODULES:
                raise _Abort("more than %d indecomposables" % _Budget.MAX_MODULES)
            if above:
                raise _Abort("indecomposable with dimension vector %r above the cap %r"
                             % (rep.dims, self.dim_bound))
            return True

        # A new indecomposable E of total dimension t is the middle of some
        # 0 -> U -> E -> S -> 0 with S simple and U its maximal submodule;
        # indecomposability forces a nonzero class against every summand of
        # U, with multiplicity at most dim Ext^1(S, that summand).
        simples = [simple(algebra, v) for v in range(algebra.n)]

        @functools.cache
        def ext_to(sv: int, idx: int) -> SimpleExt:
            return SimpleExt(found[idx], sv)

        @functools.cache
        def kept_to(sv: int, idx: int) -> List[Tuple[int, ...]]:
            return _class_tuples(self.field, ext_to(sv, idx).classes)

        @functools.cache
        def pushed(sv: int, src: int, dst: int) -> List[List[list]]:
            return [ext_to(sv, dst).pushed_classes(ext_to(sv, src), g)
                    for g in hom_basis(found[src], found[dst])]

        def middles() -> Iterator[Rep]:
            # the indecomposable middles, layer by layer, in the sweep's order
            total_cap = sum(cap)
            for t in range(2, total_cap + 1):
                for sv, s in enumerate(simples):
                    allowed = [(idx, ext_to(sv, idx).dim) for idx in range(len(found))
                               if found[idx].total_dim <= t - 1]
                    allowed = [(idx, e) for idx, e in allowed if e > 0]
                    for combo in self._bounded_multisets(found, allowed, t - 1):
                        parts = [found[idx] for idx in combo]
                        u = parts[0] if len(parts) == 1 else block_sum(parts)
                        dims = tuple(a + b for a, b in zip(u.dims, s.dims))
                        if not _dims_leq(dims, cap):
                            continue
                        # every summand has Ext^1(S, U_i) != 0, so e > 0
                        own = [ext_to(sv, idx) for idx in combo]
                        e = sum(len(x.free) for x in own)
                        if e > _Budget.MAX_COCYCLE_BASIS:
                            raise _Abort("extension space of dimension %d "
                                         "exceeds the sweep guard" % e)
                        # every middle has total dimension t, so a proper
                        # summand is never new: test it, do not decompose it
                        for tuples in _sum_tuples([kept_to(sv, idx) for idx in combo],
                                                  [x.free for x in own]):
                            if _automorphism_splits(
                                    own, tuples, lambda j, i: pushed(sv, combo[j], combo[i])):
                                continue
                            middle = extension_middle(s, u, _sum_cocycle(own, tuples))
                            if _may_be_new(middle):
                                yield middle

        try:
            for s in simples:
                add(s)
            # P(v) is indecomposable, its End ring e_v A e_v being e_v plus
            # nilpotent cycles, and __init__ has checked it under the cap
            for v in range(algebra.n):
                add(projective(algebra, v))
            if not done():
                for middle in middles():
                    if add(middle) and done():
                        break
        except _Abort as abort:
            return found, False, str(abort), None
        return found, True, "", closure

    @staticmethod
    def _bounded_multisets(found: List[Rep], allowed: List[Tuple[int, int]], total: int):
        """Multisets of module indices with prescribed total dimension and
        per-index multiplicity bounds, yielded one at a time in a
        deterministic order."""

        def rec(pos: int, remaining: int, acc: List[int]) -> Iterator[Tuple[int, ...]]:
            if remaining == 0:
                if acc:
                    yield tuple(acc)
                return
            for k in range(pos, len(allowed)):
                idx, bound = allowed[k]
                d = found[idx].total_dim
                for mult in range(1, bound + 1):
                    if mult * d > remaining:
                        break
                    yield from rec(k + 1, remaining - mult * d, acc + [idx] * mult)

        return rec(0, total, [])

    # ------------------------------------------------------------------
    # tables
    # ------------------------------------------------------------------

    def _check_closure(self, refused: bool, c: Optional[Closure]):
        """The tau table, the injective flags and the closure certificate.

        c is the closure of the stop test that ended the sweep, or None.
        Either way the closure is read off the sweep's one catalogue by
        canonical id, the order of ``self.modules``.  Without c, a build
        that is ``refused`` stops at the first module in canonical order
        whose tau is not found, resuming the stop test's searches
        (``ARNeighbours.refused_closure_keys``), and sets only the
        certificate, which is all its refusal reports.
        """
        if c is None and refused:
            keys = self._neighbours.refused_closure_keys()
            if keys is not None:
                self.certificate.update(keys)
                return
        if c is None:
            c = self._neighbours.closure()
        self.tau_of: List[Optional[int]] = c.tau_of
        self.tau_unresolved: List[bool] = c.tau_unresolved
        self.is_inj: List[bool] = c.is_inj
        if any(c.tau_unresolved):
            self.certificate["translate_table_complete"] = False
        self.certificate["closed_under_translates"] = c.closed_under_translates
        self.certificate["closed_under_radical_and_socle_quotients"] = \
            c.closed_under_radical_and_socle_quotients

    def _build_tables(self):
        """The hom and Ext tables.  A build that read the roots reads them
        off the Euler form <x, y> (``_euler_form``): the algebra is
        hereditary, so <x, y> = dim Hom(X, Y) - dim Ext^1(X, Y), and
        representation-directed, so at most one of the two is nonzero.  A
        swept build reads the Ext row of M_i off the syzygy of its minimal
        presentation; a projective, whose syzygy is zero, gets its
        presentation only now.  A build whose caller reads neither table,
        as ``inspect`` does, never computes them."""
        if self._pres is None:
            forms = [[_euler_form(self.algebra, x, y) for y in self.dims] for x in self.dims]
            self._hom = [[max(f, 0) for f in row] for row in forms]
            self._ext = [[max(-f, 0) for f in row] for row in forms]
            return
        mods = self.modules
        ext_from = [Ext1From(m, min_presentation(m) if p is None else p)
                    for m, p in zip(mods, self._pres)]
        self._hom = [[hom_dim(m, n) for n in mods] for m in mods]
        self._ext = [[e.dim(n, h) for n, h in zip(mods, row)]
                     for e, row in zip(ext_from, self._hom)]
        del self._pres

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------

    def identify(self, rep: Rep) -> Optional[int]:
        """Canonical id of the module isomorphic to rep, or None."""
        return self._catalogue.find(rep)

    def identify_parts(self, rep: Rep) -> Optional[List[int]]:
        """Sorted canonical ids (with multiplicity) of the summands, or None."""
        return self._catalogue.find_all(indecomposable_parts(rep))

    def id_of_label(self, label: str) -> int:
        label = label.strip()
        if label in ("", "0"):
            raise KeyError("empty label")
        if label in self.labels:
            return self.labels.index(label)
        # accept a bare dimension vector when it is unambiguous
        body = label.split("#")[0]
        matches = [i for i, lab in enumerate(self.labels)
                   if lab.split("#")[0] == body]
        if "#" not in label and len(matches) == 1:
            return matches[0]
        # aliases S<v> and P<v> for simples and projectives (1-based vertex);
        # the algebra is finite-dimensional, so its loops act nilpotently
        # and S_v is the one module with the dimension vector e_v
        if label[:1] in ("S", "P") and label[1:].isdigit():
            v = int(label[1:]) - 1
            if 0 <= v < self.n:
                if label[0] == "P":
                    return self.proj_of_vertex[v]
                e_v = tuple(int(w == v) for w in range(self.n))
                if e_v in self.dims:
                    return self.dims.index(e_v)
        raise KeyError("unknown module label %r" % label)

    # ------------------------------------------------------------------
    # Gen and FiltGen membership
    # ------------------------------------------------------------------

    def gen_set(self, ids) -> FrozenSet[int]:
        """Indecomposable members of Gen of the direct sum of the given ids:
        the modules equal to the trace of the sum in them.  An oracle for the
        verify suites and the tests; the library reads ``wide.gen_mask``."""
        key = frozenset(ids)
        cached = self._gen_cache.get(key)
        if cached is None:
            gens = [self.modules[i] for i in sorted(key)]
            cached = self._gen_cache[key] = frozenset(
                j for j, m in enumerate(self.modules)
                if trace(gens, m)[0].total_dim == m.total_dim)
        return cached

    def filtgen_contains(self, ids, j: int) -> bool:
        """Membership in the smallest torsion class containing the given ids,
        by the iterated trace-quotient test; an oracle, like ``gen_set``."""
        key = (frozenset(ids), j)
        cached = self._filtgen_cache.get(key)
        if cached is not None:
            return cached
        gens = [self.modules[i] for i in sorted(key[0])]
        x = self.modules[j]
        result = True
        while x.total_dim > 0:
            if not gens:
                result = False
                break
            t, incl = trace(gens, x)
            if t.total_dim == 0:
                result = False
                break
            x, _ = quotient(x, incl)
        self._filtgen_cache[key] = result
        return result

    def filtgen_set(self, ids) -> FrozenSet[int]:
        return frozenset(j for j in range(len(self.modules))
                         if self.filtgen_contains(ids, j))
