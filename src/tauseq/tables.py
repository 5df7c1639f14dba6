"""The tables the table core reads, and the support objects they list.

``wide``, ``emap`` and ``sequences`` read only a ``Tables``, which
``universe.ModuleUniverse`` fills by its certified build; any other source
of the same tables stands in for it.  A sum of tau-rigid indecomposables is
tau-rigid when Hom(M, tau N) = 0 for every two summands M and N, which holds
exactly when Ext^1(N, Gen M) = 0 (Auslander-Smalo): the Ext row of N misses
the Gen row of M.  P[1] joins a module part M when Hom(P, M) = 0.
"""

from __future__ import annotations

import functools
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple


class StrIndec(NamedTuple):
    """An indecomposable object: a module id, possibly shifted (projectives only)."""
    mod: int
    shift: int


class StrObj(NamedTuple):
    """A basic support object: sorted module ids plus sorted shifted projective ids."""
    mods: Tuple[int, ...]
    shifts: Tuple[int, ...]

    @staticmethod
    def make(mods: Sequence[int] = (), shifts: Sequence[int] = ()) -> "StrObj":
        # most calls pass at most one id, which needs no sort; tuple.__new__
        # is what NamedTuple._make calls, minus the Python-level wrapper
        return tuple.__new__(StrObj, (
            tuple(sorted(mods)) if len(mods) > 1 else tuple(mods),
            tuple(sorted(shifts)) if len(shifts) > 1 else tuple(shifts)))

    def with_indec(self, x: StrIndec) -> "StrObj":
        if x.shift:
            return StrObj.make(self.mods, self.shifts + (x.mod,))
        return StrObj.make(self.mods + (x.mod,), self.shifts)

    @property
    def delta(self) -> int:
        return len(self.mods) + len(self.shifts)


ZERO_OBJ = StrObj((), ())


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


def left_perp(rows: List[int], mask: int) -> int:
    """The ids whose row misses the mask: with hom_out, everything with no
    nonzero map into the mask."""
    out = 0
    for x, row in enumerate(rows):
        if not row & mask:
            out |= 1 << x
    return out


def _cliques(candidates: int, joins: Sequence[int]) -> List[Tuple[int, ...]]:
    """The sets of ids in the mask candidates that pairwise join, joins[c]
    being the mask of the ids that may join c, as ascending tuples in
    lexicographic order, () first: each set is listed before its extensions."""
    out: List[Tuple[int, ...]] = [()]

    def walk(acc: Tuple[int, ...], left: int):
        for c in ids_of(left):
            out.append(acc + (c,))
            walk(out[-1], left & joins[c] & ~((2 << c) - 1))

    walk((), candidates)
    return out


class Tables:
    """The tables of the indecomposables M_i, by canonical id i.

    hom[i][j] = dim Hom(M_i, M_j) and ext[i][j] = dim Ext^1(M_i, M_j);
    tau_of[i] is the id of tau M_i, None for a projective; proj_of_vertex[v]
    is the id of P(v); cache is a memo dict for the layers above.  A
    subclass may pass None for hom and ext and fill both in its
    ``_build_tables`` on the first read of either.

    Bit x of hom_out[i] is set when Hom(M_i, M_x) != 0, bit y of ext_out[i]
    when Ext^1(M_i, M_y) != 0; gens memoizes ``wide.gen_mask``.  All three
    are built on first read."""

    def __init__(self, n: int, labels: List[str], hom: Optional[List[List[int]]],
                 ext: Optional[List[List[int]]], tau_of: List[Optional[int]],
                 tau_rigid: List[bool], is_proj: List[bool], proj_of_vertex: List[int]):
        self.n, self.labels, self._hom, self._ext = n, labels, hom, ext
        self.tau_of, self.tau_rigid, self.is_proj = tau_of, tau_rigid, is_proj
        self.proj_of_vertex = proj_of_vertex
        self.cache: Dict = {}

    @property
    def hom(self) -> List[List[int]]:
        if self._hom is None:
            self._build_tables()
        return self._hom

    @property
    def ext(self) -> List[List[int]]:
        if self._ext is None:
            self._build_tables()
        return self._ext

    @functools.cached_property
    def hom_out(self) -> List[int]:
        return [mask_of(x for x, d in enumerate(row) if d) for row in self.hom]

    @functools.cached_property
    def ext_out(self) -> List[int]:
        return [mask_of(y for y, d in enumerate(row) if d) for row in self.ext]

    @functools.cached_property
    def gens(self) -> Dict[object, int]:
        return {z: left_perp(self.hom_out, ~row) for z, row in enumerate(self.hom_out)}

    def label_of_indec(self, x: StrIndec) -> str:
        return self.labels[x.mod] + ("[1]" if x.shift else "")

    def label_of_obj(self, t: StrObj) -> str:
        parts = [self.labels[i] for i in t.mods] + \
                ["%s[1]" % self.labels[i] for i in t.shifts]
        return "(" + ",".join(parts) + ")" if parts else "(0)"

    def all_tau_rigid_subsets(self) -> List[Tuple[int, ...]]:
        """All basic tau-rigid modules, as sorted id tuples in lexicographic
        order (including ()): the tau-rigid indecomposables a and b join when
        the Ext row of each misses the Gen row of the other."""
        if "tau_rigid_subsets" not in self.cache:
            gens = [self.gens[z] for z in range(len(self.labels))]
            joins = [left_perp(self.ext_out, g) & left_perp(gens, e)
                     for g, e in zip(gens, self.ext_out)]
            self.cache["tau_rigid_subsets"] = _cliques(
                mask_of(i for i, r in enumerate(self.tau_rigid) if r), joins)
        return self.cache["tau_rigid_subsets"]

    def all_support_objects(self) -> List[StrObj]:
        """All basic support objects, sorted: each tau-rigid module M with
        every set of projectives P with Hom(P, M) = 0."""
        if "support_objects" not in self.cache:
            every = [-1] * len(self.labels)
            out = []
            for mods in self.all_tau_rigid_subsets():
                mask = mask_of(mods)
                free = mask_of(p for p in self.proj_of_vertex if not self.hom_out[p] & mask)
                out += [StrObj(mods, shifts) for shifts in _cliques(free, every)]
            self.cache["support_objects"] = out
        return self.cache["support_objects"]

    def support_tilting_count(self) -> int:
        """The number of support tau-tilting objects, which is the number of
        torsion classes (Adachi-Iyama-Reiten)."""
        if "support_tilting_count" not in self.cache:
            self.cache["support_tilting_count"] = sum(
                1 for t in self.all_support_objects() if t.delta == self.n)
        return self.cache["support_tilting_count"]
