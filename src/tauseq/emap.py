"""The reduction bijection E and its inverse.

For a support object T in a context V, E sends the indecomposable support
objects compatible with T to those of the perpendicular subcategory J(T).
Modules not generated by the module part M of T go to their torsion-free
quotient, found as the unique module of V & M-perp with the same hom row on
that class; everything else lands on a shifted relative projective, pinned
down by matching perpendicular subcategories: the result R[1] is the unique
relative projective R of J(T) with R-perp inside J(T) equal to J(T + X).
Both cases read only the hom and Ext tables, never a module.

All values are memoized per (context, T, X); the table is exposed so the
verification suites can inject a corrupted entry and prove they notice.
E^-1 reads one inverse table per (context, T), built by a single pass of E
over the indecomposables compatible with T; injecting or clearing a fault
drops every inverse table.
"""

from __future__ import annotations

from typing import Dict, List

from tauseq.errors import (
    Incompatible, Mismatch, MultiplePreimages, NoPreimage, NoUniqueMatch,
)
from tauseq.tables import StrIndec, StrObj, Tables, ids_of, reach
from tauseq.wide import (
    Context, compatible_in_context, context_of, gen_mask, j_mask, rel_str_indecs,
    rel_tau_rigid,
)


class EMapEngine:
    """Computes and memoizes E and its inverse; supports fault injection."""

    def __init__(self, u: Tables):
        self.u = u
        self.memo: Dict[tuple, StrIndec] = {}
        self.faults: Dict[tuple, StrIndec] = {}
        # (context members, T) -> image -> preimages in scan order
        self.inverses: Dict[tuple, Dict[StrIndec, List[StrIndec]]] = {}

    @staticmethod
    def key(ctx: Context, t: StrObj, x: StrIndec) -> tuple:
        return (ctx.members, t, x)

    def inject_fault(self, key: tuple, value: StrIndec):
        self.faults[key] = value
        self.inverses.clear()

    def clear_faults(self):
        self.faults.clear()
        self.inverses.clear()

    def e_map(self, ctx: Context, t: StrObj, x: StrIndec) -> StrIndec:
        u = self.u
        k = self.key(ctx, t, x)
        # the memo only ever holds keys that passed the compatibility check
        if k in self.memo and k not in self.faults:
            return self.memo[k]
        if not compatible_in_context(u, ctx, t, x):
            raise Incompatible("%s + %s is not support tau-rigid in the context"
                               % (u.label_of_obj(t), u.label_of_indec(x)))
        if k in self.faults:
            return self.faults[k]
        target = context_of(u, ctx, t)
        if x.shift == 0 and not gen_mask(u, t.mods) >> x.mod & 1:
            result = self._module_case(ctx, t, x, target)
        else:
            result = self._shifted_case(ctx, t, x, target)
        self.memo[k] = result
        return result

    def _module_case(self, ctx: Context, t: StrObj, x: StrIndec,
                     target: Context) -> StrIndec:
        """X / trace of M, M the module part of T: the unique Y in F = W & M-perp
        with X's hom row on F, as maps into F kill that trace.  F is closed
        under submodules in the context W, so the kernel K of the relative
        right almost split map E -> Z lies in F, and 0 -> (-, K) -> (-, E) ->
        rad(-, Z) -> 0 on F reads the multiplicity of each Z off a row."""
        u = self.u
        hom = u.hom
        cls = ids_of(ctx.mask & ~reach(u.hom_out, t.mods))
        row = [hom[x.mod][z] for z in cls]
        parts = [y for y in cls if [hom[y][z] for z in cls] == row]
        if len(parts) != 1:
            raise Mismatch("torsion-free quotient of %s is not indecomposable"
                           % u.label_of_indec(x))
        y = parts[0]
        if y not in target.members or not rel_tau_rigid(u, target, (y,)):
            raise Mismatch("reduction image %s is not support tau-rigid in J(T)"
                           % u.labels[y])
        return StrIndec(y, 0)

    def _shifted_case(self, ctx: Context, t: StrObj, x: StrIndec,
                      target: Context) -> StrIndec:
        u = self.u
        wanted = j_mask(u, ctx, t.with_indec(x))
        hom_out = u.hom_out
        matches = [r for r in target.rel_proj
                   if target.mask & ~hom_out[r] == wanted]
        if len(matches) != 1:
            raise NoUniqueMatch(
                "%d relative projectives of J(%s) match J(T + %s)"
                % (len(matches), u.label_of_obj(t), u.label_of_indec(x)))
        return StrIndec(matches[0], 1)

    def e_inverse(self, ctx: Context, t: StrObj, y: StrIndec) -> StrIndec:
        u = self.u
        target = context_of(u, ctx, t)
        if y.shift:
            if y.mod not in target.rel_proj:
                raise NoPreimage("%s is not a shifted relative projective of J(T)"
                                 % u.label_of_indec(y))
        else:
            if y.mod not in target.members or not rel_tau_rigid(u, target, (y.mod,)):
                raise NoPreimage("%s is not support tau-rigid in J(T)"
                                 % u.label_of_indec(y))
        found = self._inverse_table(ctx, t).get(y, ())
        if len(found) > 1:
            raise MultiplePreimages(
                "both %s and %s reduce to %s" %
                (u.label_of_indec(found[0]), u.label_of_indec(found[1]),
                 u.label_of_indec(y)))
        if not found:
            raise NoPreimage("nothing reduces to %s over %s"
                             % (u.label_of_indec(y), u.label_of_obj(t)))
        return found[0]

    def _inverse_table(self, ctx: Context,
                       t: StrObj) -> Dict[StrIndec, List[StrIndec]]:
        k = (ctx.members, t)
        table = self.inverses.get(k)
        if table is None:
            table = {}
            for x in rel_str_indecs(self.u, ctx):
                if compatible_in_context(self.u, ctx, t, x):
                    table.setdefault(self.e_map(ctx, t, x), []).append(x)
            self.inverses[k] = table
        return table


def engine_for(u: Tables) -> EMapEngine:
    if "emap_engine" not in u.cache:
        u.cache["emap_engine"] = EMapEngine(u)
    return u.cache["emap_engine"]
