"""Independent routes that only the tests call.

Each function here recomputes something the library gets another way: at
the module level where the library reads tables, or from the tables by a
second route.  The tests compare the library against them.  None of them is
reachable from the package, the command line or the benchmark.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from tauseq import linalg, universe
from tauseq.ar import Ext1From, almost_split_middle, extension_cocycle_space, tau
from tauseq.decompose import AlgebraCore, indecomposable_parts, is_isomorphic
from tauseq.errors import Mismatch, NotTauRigid
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, RepMorphism, arrow_ideals, hom_dim, kernel, min_presentation,
    projective_cover, quotient, submodule_from_spans, trace,
)
from tauseq.quiver import BoundQuiverAlgebra, Quiver
from tauseq.tables import StrIndec, StrObj, ids_of
from tauseq.universe import SWEEP_COEFFS, ARNeighbours, Catalogue, ModuleUniverse
from tauseq.verify import perp_tau_members
from tauseq.wide import (
    Context, ambient_context, context_of, gen_mask, rel_ext_projectives, rel_tau_rigid,
    torsion_handle,
)


# --------------------------------------------------------------------------
# the sweep's stop test
# --------------------------------------------------------------------------

def closed_with_every_middle(modules: Sequence[Rep]) -> bool:
    """The stop test (``ARNeighbours.closure(stop=True)``) without the
    tau-orbit argument: the two closure flags plus the middle of the almost
    split sequence ending at every non-projective module, whatever its
    orbit, each built from tau X itself."""
    catalogue = Catalogue(modules)
    neighbours = ARNeighbours(catalogue)
    c = neighbours.closure()
    return c.closed_under_translates and \
        c.closed_under_radical_and_socle_quotients and \
        all(catalogue.find_all(indecomposable_parts(almost_split_middle(m, tau(m)))) is not None
            for i, m in enumerate(modules) if neighbours.projective_vertex(i) is None)


def sweep_as_built(monkeypatch):
    """Patch the root reading out of the build: a Dynkin build then sweeps
    and closes as it is built, as one with a root above its cap does and
    as every other build does."""
    monkeypatch.setattr(universe, "_positive_roots", lambda algebra: None)


def sweep_to_the_cap(monkeypatch):
    """Patch the stop test out of the sweep, which then runs, on every
    build, to the cap or its guard, while the certificate still computes
    the whole closure."""
    sweep_as_built(monkeypatch)
    closure = ARNeighbours.closure
    monkeypatch.setattr(ARNeighbours, "closure",
                        lambda self, stop=False: None if stop else closure(self))


# --------------------------------------------------------------------------
# the minimal presentation
# --------------------------------------------------------------------------

def presentation_by_covers(m: Rep) -> Presentation:
    """The minimal presentation by module constructions: the projective
    cover P0 -> m, its kernel K as a module, and the cover P1 -> K.  The
    path coefficients are read off the composite P1 -> P0 at each generator
    of P1, and the kernel bases are the inclusion of K."""
    algebra = m.algebra
    q = algebra.quiver
    _, cover, p0_vertices = projective_cover(m)
    k, incl = kernel(cover)
    _, cover_k, p1_vertices = projective_cover(k)
    composite = incl.compose(cover_k)
    # where each P1 generator sits in P1's basis at its vertex
    starts, seen = [], [0] * algebra.n
    for v in p1_vertices:
        starts.append(seen[v])
        for p in algebra.paths_from(v):
            seen[p.target(q)] += 1
    coeffs = []
    for v, start in zip(p1_vertices, starts):
        column = iter([row[start] for row in composite.maps[v].data])
        coeffs.append([[(p, c) for p, c in zip(algebra.paths_between(u, v), column) if c != 0]
                       for u in p0_vertices])
    return Presentation(algebra, p0_vertices, p1_vertices, coeffs, list(incl.maps))


# --------------------------------------------------------------------------
# the radical in characteristic 0
# --------------------------------------------------------------------------

def trace_form_radical(core: AlgebraCore) -> List[list]:
    """The radical of a structure-constant algebra over the rationals as the
    kernel of its trace form (x, y) -> tr(L_x L_y) (Dickson): the Gram
    matrix of the L_i, one product of the flattened L_i with their flattened
    transposes; the library reads the same form off the lifted traces."""
    k = core.dim
    lm = core.left_mult
    flat = Mat.trusted(core.field, k, k * k, [[x for row in li.data for x in row] for li in lm])
    flat_t = Mat.trusted(core.field, k * k, k, [[lj.data[c][r] for lj in lm]
                                                for r in range(k) for c in range(k)])
    ker = linalg.solve_kernel(flat.mul(flat_t))
    return [ker.col(c) for c in range(ker.cols)]


# --------------------------------------------------------------------------
# the sweep's extension classes
# --------------------------------------------------------------------------

def every_class_tuple(field, classes: List[tuple]) -> List[Tuple[int, ...]]:
    """``universe._class_tuples`` without the skip: every tuple of one
    summand, the zero tuple included, so that the sweep walks the whole
    product."""
    return list(itertools.product(SWEEP_COEFFS, repeat=len(classes)))


def new_class_tuples_by_product(field, images: List[List[tuple]]) -> Iterator[Tuple[int, ...]]:
    """The tuples of ``universe._class_tuples`` combined by
    ``universe._sum_tuples``, one tuple of the whole product at a time:
    images[k][i] is the class of basis cocycle k against summand i, and
    each class is computed from all terms of its tuple, scaled in the field
    so that its first nonzero coordinate is 1."""
    seen = set()
    for coeffs in itertools.product(SWEEP_COEFFS, repeat=len(images)):
        terms = [(c, image) for c, image in zip(coeffs, images) if c]
        key = []
        for i, coords in enumerate(images[0]):
            comp = [field.coerce(sum(c * image[i][j] for c, image in terms))
                    for j in range(len(coords))]
            pivot = next((x for x in comp if x != 0), None)
            if pivot is None:
                break
            inv = field.inv(pivot)
            key.append(tuple(field.mul(x, inv) for x in comp))
        else:
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                yield coeffs


# --------------------------------------------------------------------------
# the hom and Ext tables
# --------------------------------------------------------------------------

def eager_tables(u: ModuleUniverse) -> Tuple[List[List[int]], List[List[int]]]:
    """The hom and Ext tables as the build once filled them for every
    universe: one hom solve per ordered pair, and the Ext row of each module
    from the syzygy of its minimal presentation."""
    mods = u.modules
    hom = [[hom_dim(m, n) for n in mods] for m in mods]
    ext_from = [Ext1From(m, min_presentation(m)) for m in mods]
    ext = [[ext_from[i].dim(mods[j], hom[i][j]) for j in range(len(mods))]
           for i in range(len(mods))]
    return hom, ext


def meshes(u: ModuleUniverse) -> List[Tuple[Optional[int], List[int], int]]:
    """One mesh per indecomposable X, as ids (tau X, the summands of E, X):
    the almost split sequence 0 -> tau X -> E -> X -> 0 for a non-projective
    X, its middle split by ``identify_parts``, and rad P(v) -> P(v) for
    X = P(v), with no tau X and the arrow ideals as the summands of E."""
    vertex_of = {x: v for v, x in enumerate(u.proj_of_vertex)}
    out = []
    for x, m in enumerate(u.modules):
        if x in vertex_of:
            middle = sorted(u.identify(i) for i in arrow_ideals(u.algebra, vertex_of[x]))
            out.append((None, middle, x))
        else:
            t = u.tau_of[x]
            out.append((t, u.identify_parts(almost_split_middle(m, u.modules[t])), x))
    return out


def mesh_violations(mesh_list, hom: List[List[int]]) -> List[Tuple[int, int]]:
    """The pairs (M, X) that break Auslander's defect formula
    dim Hom(M, tau X) - dim Hom(M, E) + dim Hom(M, X) = [M = X] in the hom
    table, for End X / rad End X = k."""
    return [(m, x) for t, middle, x in mesh_list for m in range(len(hom))
            if (hom[m][t] if t is not None else 0) - sum(hom[m][e] for e in middle)
            + hom[m][x] != (m == x)]


# --------------------------------------------------------------------------
# torsion classes, completions and J at the ambient level
# --------------------------------------------------------------------------

def torsion_t_f(u: ModuleUniverse, members: Iterable[int], m: Rep):
    """The canonical sequence 0 -> tM -> M -> fM -> 0 for the torsion class
    with the given indecomposable members; verified on return."""
    gens = [u.modules[i] for i in sorted(members)]
    if not gens:
        from tauseq.modules import zero_rep
        t = zero_rep(u.algebra)
        f_part = m
        return t, f_part
    t, incl = trace(gens, m)
    f_part, _ = quotient(m, incl)
    t_ids = u.identify_parts(t)
    if t_ids is None or not set(t_ids) <= set(members):
        raise Mismatch("torsion part fell outside the torsion class")
    for g in gens:
        if f_part.total_dim and hom_dim(g, f_part) != 0:
            raise Mismatch("torsion-free part receives maps from the class")
    return t, f_part


def bongartz(u: ModuleUniverse, ids: Sequence[int]) -> Tuple[int, ...]:
    """Completion of a tau-rigid module via the Ext-projectives of the
    torsion class of everything not mapping into its translate."""
    for m in ids:
        if not u.tau_rigid[m]:
            raise NotTauRigid("module %s is not tau-rigid" % u.labels[m])
    if not rel_tau_rigid(u, ambient_context(u), tuple(ids)):
        raise NotTauRigid("the sum is not tau-rigid")
    members = perp_tau_members(u, ids)
    completion = rel_ext_projectives(u, members)
    if len(completion) != u.n or not set(ids) <= set(completion):
        raise Mismatch("completion is not a full tilting-size module containing "
                       "the input")
    return completion


def co_bongartz(u: ModuleUniverse, ids: Sequence[int]):
    """Ext-projectives of Gen of the sum, plus the orthogonal projectives."""
    for m in ids:
        if not u.tau_rigid[m]:
            raise NotTauRigid("module %s is not tau-rigid" % u.labels[m])
    handle = torsion_handle(u, ids_of(gen_mask(u, tuple(sorted(ids)))))
    if not set(ids) <= set(handle.ext_proj):
        raise Mismatch("input is not Ext-projective in its own Gen class")
    if len(handle.ext_proj) + len(handle.orthogonal_proj) != u.n:
        raise Mismatch("support-completion count violates the rank formula")
    return handle.ext_proj, handle.orthogonal_proj


def j_set_ambient_direct(u: ModuleUniverse, t: StrObj) -> FrozenSet[int]:
    """Ambient J(M, P) straight from the hom and translate tables; used to
    cross-check the relative route."""
    return frozenset(x for x in perp_tau_members(u, t.mods)
                     if all(u.hom[i][x] == 0 for i in t.mods + t.shifts))


def tau_hom_vanishes(u: ModuleUniverse, a: int, b: int) -> bool:
    """Hom(M_a, tau M_b) == 0, from the hom and translate tables."""
    tb = u.tau_of[b]
    return tb is None or u.hom[a][tb] == 0


def tau_rigid_subsets_by_pairs(u: ModuleUniverse) -> List[Tuple[int, ...]]:
    """All basic tau-rigid modules, sorted, as sets of tau-rigid
    indecomposables with Hom(M, tau N) = 0 for every two of them, tested
    pair by pair on the translate table.  The library reads the same
    vanishing as Ext^1(N, Gen M) = 0 (``Tables.all_tau_rigid_subsets``)."""
    rigid_ids = [i for i in range(len(u.labels)) if u.tau_rigid[i]]
    out: List[Tuple[int, ...]] = [()]

    def rec(start: int, acc: List[int]):
        for k in range(start, len(rigid_ids)):
            c = rigid_ids[k]
            if all(tau_hom_vanishes(u, c, a) and tau_hom_vanishes(u, a, c) for a in acc):
                acc.append(c)
                out.append(tuple(acc))
                rec(k + 1, acc)
                acc.pop()

    rec(0, [])
    return sorted(out)


def support_objects_by_pairs(u: ModuleUniverse) -> List[StrObj]:
    """All basic support objects, sorted: each module part from
    ``tau_rigid_subsets_by_pairs`` with every set of projectives P that
    have Hom(P, m) = 0, read entry by entry off the hom table, for every
    summand m."""
    out: List[StrObj] = []
    projs = [i for i in range(len(u.labels)) if u.is_proj[i]]
    for mods in tau_rigid_subsets_by_pairs(u):
        free = [p for p in projs if all(u.hom[p][m] == 0 for m in mods)]
        for r in range(len(free) + 1):
            out += [StrObj.make(mods, shifts) for shifts in itertools.combinations(free, r)]
    return sorted(out)


def indec_compatible(u: ModuleUniverse, x: StrIndec, y: StrIndec) -> bool:
    """Whether x + y is a basic support object (ambient test)."""
    if x == y:
        return False
    if x.shift and y.shift:
        return x.mod != y.mod
    if x.shift:
        return u.hom[x.mod][y.mod] == 0  # Hom(P, M) = 0
    if y.shift:
        return u.hom[y.mod][x.mod] == 0
    return tau_hom_vanishes(u, x.mod, y.mod) and tau_hom_vanishes(u, y.mod, x.mod)


def is_tf_ordered(u: ModuleUniverse, ids: Sequence[int]) -> bool:
    """The definition, checked whole: the entries are distinct, their sum
    is tau-rigid, and no entry is generated by the ones after it.  The
    library walks the orderings of a rigid set (``tf_orderings``) and reads
    TF-ness off the reduction (``omega``)."""
    ids = tuple(ids)
    if len(set(ids)) != len(ids):
        return False
    if not rel_tau_rigid(u, ambient_context(u), ids):
        return False
    for i in range(len(ids) - 1):
        if gen_mask(u, ids[i + 1:]) >> ids[i] & 1:
            return False
    return True


# --------------------------------------------------------------------------
# sequence counts over the wide lattice
# --------------------------------------------------------------------------

def sequence_count(u: ModuleUniverse, w_members: FrozenSet[int] = frozenset()) -> int:
    """The number of tau-exceptional sequences whose perpendicular category
    is w_members, counted without listing one.  A sequence in a wide
    subcategory W ends with a tau_W-rigid indecomposable U, and the rest is
    a sequence in J_W(U), so

        count(W) = [W = w] + sum over U of count(J_W(U)),

    memoized per wide subcategory and started at the ambient one; only a
    J_W(U) that holds w can lead to w.  With w = 0 it counts the complete
    sequences."""
    memo: Dict[int, int] = {}

    def count(ctx: Context) -> int:
        if ctx.mask not in memo:
            subs = [context_of(u, ctx, StrObj.make([x])) for x in sorted(ctx.members)
                    if rel_tau_rigid(u, ctx, (x,))]
            memo[ctx.mask] = (ctx.members == w_members) + sum(
                count(sub) for sub in subs if w_members <= sub.members)
        return memo[ctx.mask]

    return count(ambient_context(u))


# --------------------------------------------------------------------------
# module-level routes: tau-rigidity, Ext, decomposition, images
# --------------------------------------------------------------------------

def is_tau_rigid(m: Rep) -> bool:
    if m.total_dim == 0:
        return True
    return hom_dim(m, tau(m)) == 0


def ext1_dim_cocycle(b: Rep, a: Rep) -> int:
    """dim Ext^1(b, a) counted directly from extension cocycles."""
    cocycles, cob = extension_cocycle_space(b, a)
    return len(cocycles) - linalg.rank(cob)


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


def socle_spans(m: Rep) -> List[Mat]:
    """A basis of soc m at each vertex: the common kernel of the outgoing
    arrows; the build reads the socle as the top of the dual."""
    q = m.algebra.quiver
    spans = []
    for v in range(m.algebra.n):
        outgoing = q.arrows_from(v)
        if outgoing:
            stacked = m.mats[outgoing[0]]
            for ai in outgoing[1:]:
                stacked = stacked.vstack(m.mats[ai])
            spans.append(linalg.solve_kernel(stacked))
        else:
            spans.append(Mat.identity(m.algebra.field, m.dims[v]))
    return spans


def socle_quotient(m: Rep) -> Rep:
    """m / soc m, as a quotient by the common kernel of the arrows; the
    build reads it off the paths (``modules.dual_arrow_ideals``)."""
    _, incl = submodule_from_spans(m, socle_spans(m))
    return quotient(m, incl)[0]


def image(f_mor: RepMorphism) -> Tuple[Rep, RepMorphism, RepMorphism]:
    """Image as a submodule of the target, plus the co-restricted surjection."""
    img, incl = submodule_from_spans(f_mor.target, list(f_mor.maps))
    maps = []
    for v in range(len(incl.maps)):
        sol = linalg.solve(incl.maps[v], f_mor.maps[v])
        if sol is None:
            raise ValueError("image factorization failed")
        maps.append(sol)
    onto = RepMorphism(f_mor.source, img, maps, validate=False)
    return img, incl, onto


# --------------------------------------------------------------------------
# the path basis
# --------------------------------------------------------------------------

def alive_words(quiver: Quiver, relations: Sequence[Sequence[str]]):
    """The nonempty paths that contain no relation, as tuples of arrow
    indices, or None when there are infinitely many: the words are extended
    one arrow at a time, breadth first, and the family is infinite when
    some word longer than n a^(R-1) + R - 2 is alive, n the vertices, a the
    arrows and R the longest relation.  Such a word repeats a state (end
    vertex, last R-1 arrows) that decides every extension, so its loop
    between the repeats can be pumped; with a^(R-1) such states, n when
    R = 1, no word of a finite family is that long."""
    rels = [tuple(quiver.arrow_index(a) for a in r) for r in relations]
    longest = max((len(r) for r in rels), default=1)
    bound = quiver.num_vertices * len(quiver.arrows) ** (longest - 1) + longest - 2
    words: List[Tuple[int, ...]] = []
    level = [(a,) for a in range(len(quiver.arrows))]
    while level:
        if len(level[0]) > bound:
            return None
        words += level
        level = [w + (a,) for w in level for a in quiver.arrows_from(quiver.arrows[w[-1]].target)
                 if not any(_contains(w + (a,), r) for r in rels)]
    return words


def _contains(word: Tuple[int, ...], sub: Tuple[int, ...]) -> bool:
    return any(word[i:i + len(sub)] == sub for i in range(len(word) - len(sub) + 1))


def structurally_equal(a: BoundQuiverAlgebra, b: BoundQuiverAlgebra) -> bool:
    qa, qb = a.quiver, b.quiver
    return (qa.vertex_labels == qb.vertex_labels
            and [(x.name, x.source, x.target) for x in qa.arrows]
            == [(x.name, x.source, x.target) for x in qb.arrows]
            and sorted(a.relations) == sorted(b.relations)
            and a.field == b.field)
