"""Torsion classes, Ext-projectives, and wide subcategories.

A wide subcategory is carried around as a Context: its indecomposable member
ids, its relative projectives, its rank, and its members as an int bitmask.
Every operation in this module takes a context, so the ambient category is
just the largest context and the relative machinery needs no second code
path.  Contexts are interned by mask, so equal member sets give the same
Context object and share one frozenset view.

The relative tests run on bitmask rows of the hom and Ext tables, built
once per universe: each is a few AND and OR operations on ints.  J(T), for
instance, is the mask of the relative perpendicular of the translate of T
with every module receiving a nonzero map from a summand of T cleared.
Gen is read off the hom rows too (``gen_mask``); the trace route of
``ModuleUniverse.gen_set`` is only the oracle of the verify suites and tests.
J of every basic tau-rigid module is computed once per universe and filed by
J (``rigid_index``); the sequence families and the verify suites read it.

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
from tauseq.universe import ModuleUniverse, StrIndec, StrObj


class Context(NamedTuple):
    """A wide subcategory: member ids, relative projective ids, rank, and the
    member ids as a bitmask (bit i set when module i is a member)."""
    members: FrozenSet[int]
    rel_proj: Tuple[int, ...]
    rank: int
    mask: int


class MaskTables(NamedTuple):
    """Bitmask rows of the universe's tables, built once per universe.

    Bit x of hom_out[i] is set when Hom(i, x) != 0 and bit y of ext_out[i]
    when Ext^1(i, y) != 0.  gens is the memo of gen_mask: gens[z] for each
    single id z, built with the tables since an int key is the cheapest
    lookup, and gens[ids] for each id tuple asked for.
    """
    hom_out: List[int]
    ext_out: List[int]
    gens: Dict[object, int]


def mask_of(ids: Iterable[int]) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


def ids_of(mask: int) -> List[int]:
    """The set bits of a mask, in ascending order."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def reach(rows: List[int], ids: Iterable[int]) -> int:
    """The union of the rows of the ids: with hom_out, everything receiving
    a nonzero map from one of them."""
    out = 0
    for i in ids:
        out |= rows[i]
    return out


def left_perp(hom_out: List[int], mask: int) -> int:
    """Everything with no nonzero map into the mask."""
    out = 0
    for x, row in enumerate(hom_out):
        if not row & mask:
            out |= 1 << x
    return out


def mask_tables(u: ModuleUniverse) -> MaskTables:
    tables = u.cache.get("masks")
    if tables is None:
        count = len(u.modules)
        hom_out = [mask_of(x for x in range(count) if row[x]) for row in u.hom]
        tables = MaskTables(
            hom_out, [mask_of(y for y in range(count) if row[y]) for row in u.ext],
            {z: left_perp(hom_out, ~row) for z, row in enumerate(hom_out)})
        u.cache["masks"] = tables
    return tables


def gen_mask(u: ModuleUniverse, ids: Tuple[int, ...]) -> int:
    """The torsion class T(M) the ids generate, the left perpendicular of
    their right perpendicular, as a mask; any order of the ids gives the
    same mask.  For a tau-rigid M it is Gen M (Auslander-Smalo).  For any
    other M the callers only ask whether Ext^1(N, -) vanishes on Gen M & W,
    W a wide subcategory holding M: that is closed under extensions, and
    T(M) & W is the torsion class M generates in W."""
    tables = mask_tables(u)
    mask = tables.gens.get(ids)
    if mask is None:
        hom_out = tables.hom_out
        mask = tables.gens[ids] = left_perp(hom_out, ~reach(hom_out, ids))
    return mask


def _context(u: ModuleUniverse, mask: int,
             expected_rank: Optional[int] = None) -> Context:
    """The interned context with the given member mask."""
    cache = u.cache.get("contexts")
    if cache is None:
        cache = u.cache["contexts"] = {}
    ctx = cache.get(mask)
    if ctx is None:
        ids = ids_of(mask)
        if mask == _full(u):
            # the relative projectives of the whole category are the projectives
            rel = tuple(sorted(u.proj_of_vertex))
        else:
            rel = rel_ext_projectives(u, ids)
        ctx = cache[mask] = Context(frozenset(ids), rel, len(rel), mask)
    if expected_rank is not None and ctx.rank != expected_rank:
        raise RankMismatch("wide subcategory has %d relative projectives, expected "
                           "rank %d" % (ctx.rank, expected_rank))
    return ctx


def _full(u: ModuleUniverse) -> int:
    return (1 << len(u.modules)) - 1


def ambient_context(u: ModuleUniverse) -> Context:
    return _context(u, _full(u))


def rel_ext_projectives(u: ModuleUniverse, members: Iterable[int]) -> Tuple[int, ...]:
    """Ids in the set whose Ext^1 vanishes against the whole set."""
    mask = mask_of(members)
    ext_out = mask_tables(u).ext_out
    return tuple(q for q in ids_of(mask) if not ext_out[q] & mask)


def context_from_members(u: ModuleUniverse, members: Iterable[int]) -> Context:
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


def torsion_handle(u: ModuleUniverse, members: Iterable[int]) -> TorsionHandle:
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
    hom_out = mask_tables(u).hom_out
    orth = tuple(p for p in sorted(u.proj_of_vertex) if not hom_out[p] & mask)
    handle = TorsionHandle(key, ext_proj, tuple(split), tuple(nonsplit), orth)
    cache[key] = handle
    return handle


def perp_tau_members(u: ModuleUniverse, ids: Sequence[int]) -> FrozenSet[int]:
    """Members of the torsion class of modules with no maps into tau of the sum."""
    taus = mask_of(u.tau_of[m] for m in ids if u.tau_of[m] is not None)
    return frozenset(ids_of(left_perp(mask_tables(u).hom_out, taus)))


# --------------------------------------------------------------------------
# relative rigidity and relative perpendicular categories
# --------------------------------------------------------------------------

def require_in_context(u: ModuleUniverse, ctx: Context, ids: Iterable[int]):
    for i in ids:
        if not ctx.mask >> i & 1:
            raise NotInW("module %s lies outside the wide subcategory" % u.labels[i])


def rel_tau_rigid(u: ModuleUniverse, ctx: Context, ids: Tuple[int, ...]) -> bool:
    """Relative tau-rigidity of the sum of the given modules in the context."""
    if not ids:
        return True
    require_in_context(u, ctx, ids)
    return not reach(mask_tables(u).ext_out, ids) & ctx.mask & gen_mask(u, ids)


def _perp_tau_mask(tables: MaskTables, ctx: Context, ext: int) -> int:
    """Members z of the context whose Gen within the context misses the
    Ext row ``ext``."""
    hit = ext & ctx.mask
    perp = ctx.mask
    if hit:
        gens = tables.gens
        for z in ctx.members:
            if gens[z] & hit:
                perp ^= 1 << z
    return perp


def member_view(u: ModuleUniverse, mask: int) -> FrozenSet[int]:
    """The frozenset of a mask: the members of the interned context with
    that mask, so there is one shared object per mask."""
    return _context(u, mask).members


def rel_perp_tau(u: ModuleUniverse, ctx: Context, ids: Sequence[int]) -> FrozenSet[int]:
    """Members z of the context with Hom(z, tau of the sum) = 0 relatively,
    detected as Ext^1(sum, Gen z within the context) = 0."""
    tables = mask_tables(u)
    return member_view(u, _perp_tau_mask(tables, ctx, reach(tables.ext_out, ids)))


def _support_ext(u: ModuleUniverse, tables: MaskTables, ctx: Context,
                 t: StrObj) -> int:
    """The Ext row of the module part of t when t is a basic support object
    of the context, and -1 when it is not."""
    mods = ext = 0
    for m in t.mods:
        bit = 1 << m
        if mods & bit:
            return -1
        mods |= bit
        ext |= tables.ext_out[m]
    if mods & ~ctx.mask:
        return -1
    shifts = shifts_hom = 0
    for p in t.shifts:
        bit = 1 << p
        if shifts & bit or p not in ctx.rel_proj:
            return -1
        shifts |= bit
        shifts_hom |= tables.hom_out[p]
    if shifts_hom & mods:
        return -1
    hit = ext & ctx.mask
    if hit and gen_mask(u, t.mods) & hit:
        return -1
    return ext


def valid_rel_str_obj(u: ModuleUniverse, ctx: Context, t: StrObj) -> bool:
    """Is t a basic support object of the context?"""
    return _support_ext(u, mask_tables(u), ctx, t) >= 0


def _j_mask(tables: MaskTables, ctx: Context, t: StrObj, ext: int) -> int:
    perp = _perp_tau_mask(tables, ctx, ext)
    for i in t.mods + t.shifts:
        perp &= ~tables.hom_out[i]
    return perp


def j_mask(u: ModuleUniverse, ctx: Context, t: StrObj) -> int:
    """The perpendicular wide subcategory of t inside the context, as a mask."""
    tables = mask_tables(u)
    return _j_mask(tables, ctx, t, reach(tables.ext_out, t.mods))


def j_in_context(u: ModuleUniverse, ctx: Context, t: StrObj) -> FrozenSet[int]:
    """Members of the perpendicular wide subcategory of t inside the context."""
    return member_view(u, j_mask(u, ctx, t))


def context_of(u: ModuleUniverse, ctx: Context, t: StrObj) -> Context:
    """The wide subcategory J(t) relative to the context, with the rank check."""
    tables = mask_tables(u)
    ext = _support_ext(u, tables, ctx, t)
    if ext < 0:
        raise NotTauRigid("object %s is not support tau-rigid in the context"
                          % u.label_of_obj(t))
    return _context(u, _j_mask(tables, ctx, t, ext), ctx.rank - t.delta)


class RigidIndex(NamedTuple):
    """The ambient J of every basic tau-rigid module, built once per universe.

    j_of maps each sorted id tuple of ``all_tau_rigid_subsets`` to its J, and
    over files those tuples under their J, in the order of that list.
    """
    j_of: Dict[Tuple[int, ...], FrozenSet[int]]
    over: Dict[FrozenSet[int], List[Tuple[int, ...]]]


def rigid_index(u: ModuleUniverse) -> RigidIndex:
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


def rigid_j(u: ModuleUniverse, ids: Iterable[int]) -> FrozenSet[int]:
    """J of a basic tau-rigid module in the ambient category, read off the
    index; the ids may come in any order."""
    t = StrObj.make(tuple(ids))
    j = rigid_index(u).j_of.get(t.mods)
    if j is None:
        raise NotTauRigid("module %s is not basic tau-rigid" % u.label_of_obj(t))
    return j


def rel_str_indecs(u: ModuleUniverse, ctx: Context) -> List[StrIndec]:
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


def compatible_in_context(u: ModuleUniverse, ctx: Context, t: StrObj,
                          x: StrIndec) -> bool:
    return valid_rel_str_obj(u, ctx, t.with_indec(x))


# --------------------------------------------------------------------------
# the torsion and wide lattices
# --------------------------------------------------------------------------

def all_torsion_classes(u: ModuleUniverse) -> List[FrozenSet[int]]:
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


def all_wide_subcategories(u: ModuleUniverse) -> List[FrozenSet[int]]:
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
    hom_out = mask_tables(u).hom_out
    bricks = [i for i in range(len(u.modules)) if u.hom[i][i] == 1]
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

