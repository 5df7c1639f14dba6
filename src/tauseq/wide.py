"""Torsion classes, Ext-projectives, and wide subcategories.

A wide subcategory is carried around as a Context: its indecomposable member
ids, its relative projectives, its rank, and its members as an int bitmask.
Every operation in this module takes a context, so the ambient category is
just the largest context and the relative machinery needs no second code
path.  Contexts are interned by mask, so equal member sets give the same
Context object and share one frozenset view.

Everything here reads a ``tables.Tables`` and no module.  The relative
tests run on its bitmask rows of the hom and Ext tables: each is a few AND
and OR operations on ints.  J(T), for instance, is the mask of the relative
perpendicular of the translate of T with every module receiving a nonzero
map from a summand of T cleared.  Gen is read off the hom rows too
(``gen_mask``); the trace route of ``ModuleUniverse.gen_set`` is only the
oracle of the verify suites and tests.  J of every basic tau-rigid module
is computed once and filed by J (``rigid_index``); the sequence families
and the verify suites read it.

Relative tau-rigidity never constructs a relative translate.  A module M in
a wide subcategory W is tau-rigid there exactly when Ext^1(M, -) vanishes on
Gen M intersected with W; vanishing of Hom(Z, tau_W M) is likewise read off
as Ext^1(M, -) vanishing on Gen Z intersected with W.  Both use honest Ext
groups, which agree with the relative ones because W is extension closed.

The lists of all torsion classes and of all wide subcategories come from two
theorems rather than a sweep over subsets: torsion classes are Fac T of the
support tau-tilting objects T (Adachi-Iyama-Reiten), and wide subcategories
correspond to semibricks, which the hom table lists.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from tauseq.errors import Mismatch, NotInW, NotTauRigid, RankMismatch
from tauseq.tables import StrIndec, StrObj, Tables, ids_of, left_perp, mask_of, reach


class Context(NamedTuple):
    """A wide subcategory: member ids, relative projective ids, rank, and the
    member ids as a bitmask (bit i set when module i is a member)."""
    members: FrozenSet[int]
    rel_proj: Tuple[int, ...]
    rank: int
    mask: int


def gen_mask(u: Tables, ids: Tuple[int, ...]) -> int:
    """The torsion class T(M) the ids generate, the left perpendicular of
    their right perpendicular, as a mask; any order of the ids gives the
    same mask.  For a tau-rigid M it is Gen M (Auslander-Smalo).  For any
    other M the callers only ask whether Ext^1(N, -) vanishes on Gen M & W,
    W a wide subcategory holding M: that is closed under extensions, and
    T(M) & W is the torsion class M generates in W."""
    gens = u.gens
    mask = gens.get(ids)
    if mask is None:
        hom_out = u.hom_out
        mask = gens[ids] = left_perp(hom_out, ~reach(hom_out, ids))
    return mask


def _context(u: Tables, mask: int,
             expected_rank: Optional[int] = None) -> Context:
    """The interned context with the given member mask."""
    cache = u.cache.get("contexts")
    if cache is None:
        cache = u.cache["contexts"] = {}
    ctx = cache.get(mask)
    if ctx is None:
        ids = ids_of(mask)
        rel = rel_ext_projectives(u, ids)
        ctx = cache[mask] = Context(frozenset(ids), rel, len(rel), mask)
    if expected_rank is not None and ctx.rank != expected_rank:
        raise RankMismatch("wide subcategory has %d relative projectives, expected "
                           "rank %d" % (ctx.rank, expected_rank))
    return ctx


def ambient_context(u: Tables) -> Context:
    return _context(u, (1 << len(u.labels)) - 1)


def rel_ext_projectives(u: Tables, members: Iterable[int]) -> Tuple[int, ...]:
    """Ids in the set whose Ext^1 vanishes against the whole set."""
    mask = mask_of(members)
    ext_out = u.ext_out
    return tuple(q for q in ids_of(mask) if not ext_out[q] & mask)


def context_from_members(u: Tables, members: Iterable[int]) -> Context:
    return _context(u, mask_of(members))


# --------------------------------------------------------------------------
# Gen, FiltGen and torsion classes
# --------------------------------------------------------------------------

class TorsionHandle(NamedTuple):
    members: FrozenSet[int]
    ext_proj: Tuple[int, ...]
    split: Tuple[int, ...]
    nonsplit: Tuple[int, ...]
    orthogonal_proj: Tuple[int, ...]  # projectives with no maps into the class


def torsion_handle(u: Tables, members: Iterable[int]) -> TorsionHandle:
    """The Ext-projectives P of T, split by whether q is in Fac(T - q), and
    the projectives with no maps into T.  The members must form a torsion
    class, as those of every caller do; then T = Fac P and q is in Fac(T - q)
    exactly when it is in Fac(P - q), the gen_mask of the tau-rigid P - q:
    every map into q from T - q lands in im f + (rad End q) q, f the
    add(P - q)-approximation of q, so by nilpotency q = im f."""
    cache = u.cache.setdefault("torsion_handles", {})
    key = frozenset(members)
    if key in cache:
        return cache[key]
    ext_proj = rel_ext_projectives(u, key)
    split, nonsplit = [], []
    for k, q in enumerate(ext_proj):
        others = ext_proj[:k] + ext_proj[k + 1:]
        (nonsplit if gen_mask(u, others) >> q & 1 else split).append(q)
    mask = mask_of(key)
    orth = tuple(p for p in sorted(u.proj_of_vertex) if not u.hom_out[p] & mask)
    handle = TorsionHandle(key, ext_proj, tuple(split), tuple(nonsplit), orth)
    cache[key] = handle
    return handle


# --------------------------------------------------------------------------
# relative rigidity and relative perpendicular categories
# --------------------------------------------------------------------------

def rel_tau_rigid(u: Tables, ctx: Context, ids: Tuple[int, ...]) -> bool:
    """Relative tau-rigidity of the sum of the given modules in the context."""
    if not ids:
        return True
    for i in ids:
        if not ctx.mask >> i & 1:
            raise NotInW("module %s lies outside the wide subcategory" % u.labels[i])
    return not reach(u.ext_out, ids) & ctx.mask & gen_mask(u, ids)


def _perp_tau_mask(u: Tables, ctx: Context, ext: int) -> int:
    """Members z of the context whose Gen within the context misses the
    Ext row ``ext``."""
    hit = ext & ctx.mask
    perp = ctx.mask
    if hit:
        gens = u.gens
        for z in ctx.members:
            if gens[z] & hit:
                perp ^= 1 << z
    return perp


def rel_perp_tau(u: Tables, ctx: Context, ids: Sequence[int]) -> FrozenSet[int]:
    """Members z of the context with Hom(z, tau of the sum) = 0 relatively,
    detected as Ext^1(sum, Gen z within the context) = 0."""
    return _context(u, _perp_tau_mask(u, ctx, reach(u.ext_out, ids))).members


def _support_ext(u: Tables, ctx: Context, t: StrObj) -> int:
    """The Ext row of the module part of t when t is a basic support object
    of the context, and -1 when it is not."""
    ext_out, hom_out = u.ext_out, u.hom_out
    mods = ext = 0
    for m in t.mods:
        bit = 1 << m
        if mods & bit:
            return -1
        mods |= bit
        ext |= ext_out[m]
    if mods & ~ctx.mask:
        return -1
    shifts = shifts_hom = 0
    for p in t.shifts:
        bit = 1 << p
        if shifts & bit or p not in ctx.rel_proj:
            return -1
        shifts |= bit
        shifts_hom |= hom_out[p]
    if shifts_hom & mods:
        return -1
    hit = ext & ctx.mask
    if hit and gen_mask(u, t.mods) & hit:
        return -1
    return ext


def valid_rel_str_obj(u: Tables, ctx: Context, t: StrObj) -> bool:
    """Is t a basic support object of the context?"""
    return _support_ext(u, ctx, t) >= 0


def _j_mask(u: Tables, ctx: Context, t: StrObj, ext: int) -> int:
    perp = _perp_tau_mask(u, ctx, ext)
    for i in t.mods + t.shifts:
        perp &= ~u.hom_out[i]
    return perp


def j_mask(u: Tables, ctx: Context, t: StrObj) -> int:
    """The perpendicular wide subcategory of t inside the context, as a mask."""
    return _j_mask(u, ctx, t, reach(u.ext_out, t.mods))


def j_in_context(u: Tables, ctx: Context, t: StrObj) -> FrozenSet[int]:
    """Members of the perpendicular wide subcategory of t inside the context."""
    return _context(u, j_mask(u, ctx, t)).members


def context_of(u: Tables, ctx: Context, t: StrObj) -> Context:
    """The wide subcategory J(t) relative to the context, with the rank check."""
    ext = _support_ext(u, ctx, t)
    if ext < 0:
        raise NotTauRigid("object %s is not support tau-rigid in the context"
                          % u.label_of_obj(t))
    return _context(u, _j_mask(u, ctx, t, ext), ctx.rank - t.delta)


class RigidIndex(NamedTuple):
    """The ambient J of every basic tau-rigid module, built once.

    j_of maps each sorted id tuple of ``all_tau_rigid_subsets`` to its J, and
    over files those tuples under their J, in the order of that list.
    """
    j_of: Dict[Tuple[int, ...], FrozenSet[int]]
    over: Dict[FrozenSet[int], List[Tuple[int, ...]]]


def rigid_index(u: Tables) -> RigidIndex:
    """The index of the tau-rigid sets by their J: one j_in_context call per
    set, on first use."""
    index = u.cache.get("rigid_index")
    if index is None:
        amb = ambient_context(u)
        j_of = {ids: j_in_context(u, amb, StrObj.make(ids))
                for ids in u.all_tau_rigid_subsets()}
        over: Dict[FrozenSet[int], List[Tuple[int, ...]]] = {}
        for ids, j in j_of.items():
            over.setdefault(j, []).append(ids)
        index = u.cache["rigid_index"] = RigidIndex(j_of, over)
    return index


def rigid_j(u: Tables, ids: Iterable[int]) -> FrozenSet[int]:
    """J of a basic tau-rigid module in the ambient category, read off the
    index; the ids may come in any order."""
    t = StrObj.make(tuple(ids))
    j = rigid_index(u).j_of.get(t.mods)
    if j is None:
        raise NotTauRigid("module %s is not basic tau-rigid" % u.label_of_obj(t))
    return j


def rel_str_indecs(u: Tables, ctx: Context) -> List[StrIndec]:
    """Indecomposable support objects of the context: relatively rigid modules
    plus shifted relative projectives."""
    cache = u.cache.setdefault("rel_str_indecs", {})
    key = ctx.members
    if key in cache:
        return cache[key]
    out = [StrIndec(i, 0) for i in sorted(ctx.members) if rel_tau_rigid(u, ctx, (i,))]
    out += [StrIndec(p, 1) for p in ctx.rel_proj]
    cache[key] = out
    return out


def compatible_in_context(u: Tables, ctx: Context, t: StrObj,
                          x: StrIndec) -> bool:
    return valid_rel_str_obj(u, ctx, t.with_indec(x))


# --------------------------------------------------------------------------
# the torsion and wide lattices
# --------------------------------------------------------------------------

def all_torsion_classes(u: Tables) -> List[FrozenSet[int]]:
    """Every torsion class, as Fac T = Gen T of a support tau-tilting object T.

    Over a tau-tilting finite algebra T -> Fac T is a bijection from the
    support tau-tilting objects to the torsion classes (Adachi-Iyama-Reiten,
    tau-tilting theory), so the list has one entry per object.
    """
    key = "all_torsion_classes"
    if key not in u.cache:
        u.cache[key] = sorted({frozenset(ids_of(gen_mask(u, t.mods)))
                               for t in u.all_support_objects() if t.delta == u.n},
                              key=lambda s: (len(s), sorted(s)))
    return u.cache[key]


def all_wide_subcategories(u: Tables) -> List[FrozenSet[int]]:
    """Every wide subcategory, one for each semibrick.

    A wide subcategory is fixed by its simple objects, which form a semibrick:
    a set of pairwise Hom-orthogonal bricks, and every semibrick S arises
    (Ringel 1976; Asai, Semibricks).  Its wide subcategory is emitted as
    T(S) & F(S), with T(S) = the left perpendicular of the right perpendicular
    of S and F(S) = the right perpendicular of its left perpendicular, read
    off the bitmask rows of the hom table.  Over a tau-tilting finite algebra
    the bricks are as many as the tau-rigid indecomposables
    (Demonet-Iyama-Jasso); a brick count or a repeated subcategory that says
    otherwise raises Mismatch.
    """
    key = "all_wide_subcategories"
    if key in u.cache:
        return u.cache[key]
    hom_out = u.hom_out
    bricks = [i for i in range(len(u.labels)) if u.hom[i][i] == 1]
    if len(bricks) != sum(u.tau_rigid):
        raise Mismatch("%d bricks but %d tau-rigid indecomposables"
                       % (len(bricks), sum(u.tau_rigid)))

    def wide_of(s: int) -> int:
        return left_perp(hom_out, ~reach(hom_out, ids_of(s))) & \
            ~reach(hom_out, ids_of(left_perp(hom_out, s)))

    orthogonal = {i: mask_of(j for j in bricks
                             if not (hom_out[i] >> j & 1 or hom_out[j] >> i & 1))
                  for i in bricks}
    found: Dict[int, int] = {}

    def grow(s: int, candidates: int):
        w = wide_of(s)
        if w in found:
            raise Mismatch("semibricks %s and %s give the same subcategory"
                           % ([u.labels[i] for i in ids_of(found[w])],
                              [u.labels[i] for i in ids_of(s)]))
        found[w] = s
        for i in ids_of(candidates):
            grow(s | 1 << i, candidates & orthogonal[i] & ~((2 << i) - 1))

    grow(0, mask_of(bricks))
    out = sorted((frozenset(ids_of(w)) for w in found),
                 key=lambda s: (len(s), sorted(s)))
    u.cache[key] = out
    return out

