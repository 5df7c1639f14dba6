"""Enumeration of indecomposables and the cached tables built on them.

The enumeration builds every indecomposable as the middle of an extension of
a simple S by a direct sum U of found modules, one total dimension layer at a
time.  It walks the combinations of a cocycle basis with coefficients in
{0, 1, -1} in product order, but builds one middle per extension class up to
scaling each summand of U (``_new_class_tuples``): a class that is zero
against some summand splits the middle, scaling a summand is an automorphism
of U, and cohomologous cocycles give isomorphic middles, so every skipped
middle is decomposable or isomorphic to one built before it.  The kept
middles, and so the found modules and their order, are those of the full
product sweep.  After a layer that adds no module the sweep asks whether the
found set is closed in the Auslander-Reiten quiver: closed under tau and
tau-minus, under the summands of rad P and I / soc I, and under the summands
of the middle term of the almost split sequence ending at each
non-projective module (``ARNeighbours``).  The found set holds every simple,
so once it is closed it is every indecomposable (Auslander's theorem,
Auslander-Reiten-Smalo ch. VI), and the sweep stops there as completed.  The
schema-1 certificate keys keep their meaning: the sweep completed, the count
is stable up to the cap plus one (nothing the sweep could still add), no
indecomposable touches the cap, and the set is closed under tau, tau-minus,
radicals of projectives and socle quotients of injectives.  The certificate
needs only the tau table and the closure test, so a build that requires it
and is refused stops there, before the hom, Ext and trace tables.  New
modules are told apart by the exact isomorphism test of ``decompose``.
Counts pinned downstream all sit on top of this certificate.

Canonical ids are indices into the sorted module list (total dimension, then
dimension vector, then discovery order); labels are dimension vectors plus a
disambiguating ordinal, for example "11#1".
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from tauseq import linalg
from tauseq.ar import (
    Ext1From, almost_split_middle, class_forms, extension_cocycle_space,
    extension_middle, flat_cocycle, is_injective_rep, tau, tau_minus,
)
from tauseq.decompose import (
    _basis_has_iso, indecomposable_parts, is_indecomposable, is_isomorphic,
)
from tauseq.errors import BoundTooSmall, Mismatch, NotCertifiablyComplete
from tauseq.linalg import Mat
from tauseq.modules import (
    Rep, direct_sum, hom_basis, projective, quotient, radical_spans, simple,
    submodule_from_spans, trace,
)


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

    def indecs(self) -> List[StrIndec]:
        return [StrIndec(i, 0) for i in self.mods] + [StrIndec(i, 1) for i in self.shifts]

    @property
    def delta(self) -> int:
        return len(self.mods) + len(self.shifts)


ZERO_OBJ = StrObj((), ())


def _dims_leq(a: Sequence[int], b: Sequence[int]) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _label(dims: Sequence[int], ordinal: int) -> str:
    if all(d <= 9 for d in dims):
        body = "".join(str(d) for d in dims)
    else:
        body = ".".join(str(d) for d in dims)
    return "%s#%d" % (body, ordinal)


def _socle_quotient(m: Rep) -> Rep:
    """m / soc m, the socle being the common kernel of the outgoing arrows."""
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
    _, incl = submodule_from_spans(m, spans)
    return quotient(m, incl)[0]


class ARNeighbours:
    """The neighbours of each module in the Auslander-Reiten quiver, as lists
    of indecomposable summands, each computed once per module.

    The sweep's stop test, the translate table and the closure certificate
    all read these lists:
      "tau", "tau_minus"  the summands of tau X and tau^- X (none exactly
                          when X is projective, resp. injective);
      "before"            the sources of the irreducible maps into X: the
                          summands of the middle of the almost split
                          sequence ending at X, or of rad X for X projective;
      "after"             for X injective, the summands of X / soc X, the
                          targets of the irreducible maps out of X (for any
                          other X they are the "before" of tau^- X).
    """

    def __init__(self):
        self._parts: Dict[Tuple[str, int], Tuple[Rep, List[Rep]]] = {}

    def parts(self, kind: str, m: Rep) -> List[Rep]:
        key = (kind, id(m))
        hit = self._parts.get(key)
        if hit is not None:
            return hit[1]
        if kind == "tau":
            rep = tau(m)
        elif kind == "tau_minus":
            rep = tau_minus(m)
        elif kind == "after":
            rep = _socle_quotient(m)
        else:
            translate = self.parts("tau", m)
            if not translate:
                rep, _ = submodule_from_spans(m, radical_spans(m))
            elif len(translate) == 1:
                rep = almost_split_middle(m, translate[0])
            else:
                raise Mismatch("tau of an indecomposable has %d summands"
                               % len(translate))
        parts = indecomposable_parts(rep)
        # the module is kept with its parts, so its id names no other module
        self._parts[key] = (m, parts)
        return parts

    def closed(self, modules: Sequence[Rep]) -> bool:
        """Whether every neighbour of every module in the list is isomorphic
        to one in the list; the modules must be indecomposable and pairwise
        non-isomorphic.

        A list that is closed and holds every simple is a union of finite
        components of the AR quiver, one per block, so by Auslander's
        theorem it is every indecomposable (Auslander-Reiten-Smalo, ch. VI).
        """
        by_dims: Dict[tuple, List[Rep]] = {}
        for m in modules:
            by_dims.setdefault(m.dims, []).append(m)

        def known(rep: Rep) -> bool:
            return any(_basis_has_iso(rep, other) for other in by_dims.get(rep.dims, ()))

        for m in modules:
            kinds = ["tau", "tau_minus", "before"]
            if not self.parts("tau_minus", m):
                kinds.append("after")
            for kind in kinds:
                if not all(known(part) for part in self.parts(kind, m)):
                    return False
        return True


SWEEP_COEFFS = (0, 1, -1)


def _summand_classes(parts: List[Rep], forms: List[Mat],
                     cocycles: List[List[Mat]]) -> List[List[tuple]]:
    """images[k][i]: the class of cocycles[k], a cocycle of a simple S by the
    direct sum of the parts, against parts[i]; that is, the rows of the
    cocycle at parts[i] in forms[i] coordinates of Ext^1(S, parts[i])."""
    q = parts[0].algebra.quiver
    f = parts[0].algebra.field
    starts = []
    offset = [0] * q.num_vertices
    for p in parts:
        starts.append(offset)
        offset = [o + d for o, d in zip(offset, p.dims)]
    images = []
    for cocycle in cocycles:
        classes = []
        for p, start, fm in zip(parts, starts, forms):
            flat = []
            for ar, blk in zip(q.arrows, cocycle):
                lo = start[ar.target]
                for row in blk.data[lo:lo + p.dims[ar.target]]:
                    flat.extend(row)
            classes.append(tuple(f.coerce(sum(a * b for a, b in zip(frow, flat)))
                                 for frow in fm.data))
        images.append(classes)
    return images


def _new_class_tuples(field, images: List[List[tuple]]) -> Iterator[Tuple[int, ...]]:
    """The coefficient tuples over SWEEP_COEFFS, in itertools.product order,
    whose combination of the basis cocycles can give a new indecomposable.

    images[k][i] is the class of basis cocycle k against summand U_i of U
    (``_summand_classes``).  A tuple is dropped when its class against some
    U_i is zero, since U_i then splits off the middle, or when its classes
    equal those of an earlier tuple up to one nonzero scalar per summand:
    scaling U_i is an automorphism of U and adding a coboundary changes no
    middle, so both middles are isomorphic.  Each class is scaled so that
    its first nonzero coordinate is 1, and that key is looked up.
    """
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
            if pivot != 1:
                inv = field.inv(pivot)
                comp = [field.mul(x, inv) for x in comp]
            key.append(tuple(comp))
        else:
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                yield coeffs


class _Budget:
    # guard rails so a runaway enumeration fails loudly instead of hanging
    MAX_MODULES = 400
    MAX_COCYCLE_BASIS = 6


class ModuleUniverse:
    """All indecomposables of a representation-finite bound quiver algebra,
    with hom, extension and translate tables keyed by canonical id."""

    def __init__(self, algebra, dim_bound: Optional[Sequence[int]] = None,
                 require_certificate: bool = True):
        self.algebra = algebra
        self.n = algebra.n
        self.field = algebra.field
        projs = [projective(algebra, v) for v in range(self.n)]
        if dim_bound is None:
            peak = max(max(p.dims) for p in projs)
            dim_bound = tuple(3 * max(peak, 1) for _ in range(self.n))
        self.dim_bound: Tuple[int, ...] = tuple(dim_bound)
        for p in projs:
            if not _dims_leq(p.dims, self.dim_bound):
                raise BoundTooSmall("projective with dimension vector %r exceeds the cap %r"
                                    % (p.dims, self.dim_bound))
        self._neighbours = ARNeighbours()
        found, complete, reason = self._enumerate(tuple(b + 1 for b in self.dim_bound))
        inside = [m for m in found if _dims_leq(m.dims, self.dim_bound)]
        self.certificate: Dict[str, object] = {
            "dim_bound": list(self.dim_bound),
            "sweep_completed": complete,
            "stable_under_cap_plus_one": complete and len(inside) == len(found),
            "no_indecomposable_on_boundary": all(
                all(d < b for d, b in zip(m.dims, self.dim_bound)) for m in inside),
        }
        if reason:
            self.certificate["sweep_aborted_because"] = reason
        order = sorted(range(len(inside)), key=lambda i: (inside[i].total_dim,
                                                          inside[i].dims, i))
        self.modules: List[Rep] = [inside[i] for i in order]
        self.labels: List[str] = []
        seen: Dict[tuple, int] = {}
        for m in self.modules:
            seen[m.dims] = seen.get(m.dims, 0) + 1
            self.labels.append(_label(m.dims, seen[m.dims]))
        self._by_dims: Dict[tuple, List[int]] = {}
        for i, m in enumerate(self.modules):
            self._by_dims.setdefault(m.dims, []).append(i)
        # a refused build stops at its certificate: the translates and the
        # closure test come first, the hom, Ext and trace tables after it
        ext_from = self._build_translates()
        self._check_closure()
        del self._neighbours
        self.certified = all(bool(v) for k, v in self.certificate.items()
                             if k not in ("dim_bound", "sweep_aborted_because"))
        if require_certificate and not self.certified:
            raise NotCertifiablyComplete(
                "enumeration not certified: %r; raise --dim-bound" % (self.certificate,))
        self._build_tables(ext_from)
        self._gen_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._filtgen_cache: Dict[Tuple[FrozenSet[int], int], bool] = {}
        self.cache: Dict = {}  # shared memo space for the layers above

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def _enumerate(self, cap: Tuple[int, ...]) -> Tuple[List[Rep], bool, str]:
        """Sweep up to the cap; returns (found, sweep completed, abort reason).

        For each simple S and each bounded multiset of found modules with
        direct sum U, it takes a basis of the cocycles Z^1(S, U) and walks
        its {0, +-1} combinations in product order.  Each combination is
        read against every summand U_i as a class in Ext^1(S, U_i), through
        forms computed once per (simple, found module) whose rank must be
        dim Ext^1(S, U_i); only the first combination of each class, up to
        one scalar per summand and with no zero component, is built and
        tested.

        The sweep completes early, after a dimension layer that adds no
        module, once the found set is closed in the AR quiver: it holds every
        simple from the start, so by Auslander's theorem it is then every
        indecomposable, and the layers up to the cap could add nothing.  It
        aborts as soon as an indecomposable enters the shell above dim_bound,
        since at that point the stability certificate is already forfeit and
        further work cannot restore it.
        """
        algebra = self.algebra
        found: List[Rep] = []
        buckets: Dict[tuple, List[Rep]] = {}

        class _Abort(Exception):
            pass

        abort_reason = [""]

        def add(rep: Rep) -> bool:
            # every candidate is indecomposable, so by Fitting's lemma it is
            # isomorphic to another exactly when some Hom basis element is
            key = rep.dims
            for other in buckets.get(key, []):
                if _basis_has_iso(rep, other):
                    return False
            buckets.setdefault(key, []).append(rep)
            found.append(rep)
            if len(found) > _Budget.MAX_MODULES:
                abort_reason[0] = ("more than %d indecomposables"
                                   % _Budget.MAX_MODULES)
                raise _Abort
            if not _dims_leq(rep.dims, self.dim_bound):
                abort_reason[0] = ("indecomposable with dimension vector %r "
                                   "above the cap %r" % (rep.dims, self.dim_bound))
                raise _Abort
            return True

        # A new indecomposable E of total dimension t is the middle of some
        # 0 -> U -> E -> S -> 0 with S simple and U its maximal submodule;
        # indecomposability forces a nonzero class against every summand of
        # U, with multiplicity at most dim Ext^1(S, that summand).
        simples = [simple(algebra, v) for v in range(self.n)]
        ext_from = [Ext1From(s) for s in simples]
        ext_cache: Dict[Tuple[int, int], int] = {}
        forms_cache: Dict[Tuple[int, int], Mat] = {}

        def ext_to(sv: int, idx: int) -> int:
            key = (sv, idx)
            if key not in ext_cache:
                ext_cache[key] = ext_from[sv].dim(found[idx])
            return ext_cache[key]

        def forms_to(sv: int, idx: int, space=None) -> Mat:
            # ext_to(sv, idx) linear forms on the flattened cocycles of
            # (S_sv, found[idx]) whose common kernel on Z^1 is B^1, chosen
            # among class_forms(B^1); space is extension_cocycle_space of
            # the pair when the caller already has it
            key = (sv, idx)
            if key not in forms_cache:
                cocycles, cob = space or extension_cocycle_space(simples[sv], found[idx])
                forms = class_forms(cob)
                images = forms.mul(linalg.from_columns(
                    self.field, forms.cols, [flat_cocycle(c) for c in cocycles]))
                _, independent = linalg.rref(images.transpose())
                if len(independent) != ext_to(sv, idx):
                    raise Mismatch("dim Ext^1(S%d, %r) is %d by cocycles, %d by the syzygy"
                                   % (sv + 1, found[idx].dims, len(independent),
                                      ext_to(sv, idx)))
                forms_cache[key] = Mat.trusted(self.field, len(independent), forms.cols,
                                               [forms.data[r] for r in independent])
            return forms_cache[key]

        try:
            for s in simples:
                add(s)
            for v in range(self.n):
                p = projective(algebra, v)
                if _dims_leq(p.dims, cap):
                    for part in indecomposable_parts(p):
                        add(part)
            total_cap = sum(cap)
            for t in range(2, total_cap + 1):
                layer_start = len(found)
                for sv, s in enumerate(simples):
                    allowed = [(idx, ext_to(sv, idx)) for idx in range(len(found))
                               if found[idx].total_dim <= t - 1]
                    allowed = [(idx, e) for idx, e in allowed if e > 0]
                    for combo in self._bounded_multisets(found, allowed, t - 1):
                        parts = [found[idx] for idx in combo]
                        u = parts[0] if len(parts) == 1 else direct_sum(parts)[0]
                        if not _dims_leq([a + b for a, b in zip(u.dims, s.dims)], cap):
                            continue
                        cocycles, cob = extension_cocycle_space(s, u)
                        e = len(cocycles)
                        if e == 0:
                            continue
                        if e > _Budget.MAX_COCYCLE_BASIS:
                            abort_reason[0] = ("extension space of dimension %d "
                                               "exceeds the sweep guard" % e)
                            raise _Abort
                        reuse = (cocycles, cob) if len(combo) == 1 else None
                        images = _summand_classes(
                            parts, [forms_to(sv, idx, reuse) for idx in combo], cocycles)
                        # every middle has total dimension t, so a proper
                        # summand is never new: test it, do not decompose it
                        for coeffs in _new_class_tuples(self.field, images):
                            blocks = linalg.combine(coeffs, cocycles)
                            if blocks is None:  # the zero tuple of a full product walk
                                continue
                            middle = extension_middle(s, u, blocks)
                            if is_indecomposable(middle):
                                add(middle)
                if len(found) == layer_start and self._neighbours.closed(found):
                    break
        except _Abort:
            return found, False, abort_reason[0]
        return found, True, ""

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

    def _build_translates(self) -> List[Ext1From]:
        """The projective and injective flags, the projective of each vertex
        and the tau table; returns each module's projective cover."""
        mods = self.modules
        # one projective cover 0 -> K -> P -> M per module: M is projective
        # exactly when the syzygy K is zero, and K gives the Ext row
        ext_from = [Ext1From(m) for m in mods]
        self.is_proj: List[bool] = [e.syzygy.total_dim == 0 for e in ext_from]
        self.is_inj: List[bool] = [is_injective_rep(m) for m in mods]
        self.proj_of_vertex: List[int] = []
        for v in range(self.n):
            pid = self.identify(projective(self.algebra, v))
            if pid is None:
                raise Mismatch("projective at vertex %d missing from the enumeration" % v)
            self.proj_of_vertex.append(pid)
        self.tau_of: List[Optional[int]] = []
        self.tau_unresolved: List[bool] = []
        for i, m in enumerate(mods):
            if self.is_proj[i]:
                self.tau_of.append(None)
                self.tau_unresolved.append(False)
                continue
            parts = self._identify_all(self._neighbours.parts("tau", m))
            if parts is None or len(parts) != 1:
                # tolerated only on an uncertified sweep; recorded and the
                # module is treated as not rigid
                self.tau_of.append(None)
                self.tau_unresolved.append(True)
                continue
            self.tau_of.append(parts[0])
            self.tau_unresolved.append(False)
        if any(self.tau_unresolved):
            self.certificate["translate_table_complete"] = False
        return ext_from

    def _build_tables(self, ext_from: List[Ext1From]):
        """The hom, tau-rigidity, Ext and trace tables."""
        mods = self.modules
        count = len(mods)
        self.hom: List[List[int]] = [[0] * count for _ in range(count)]
        self._hom_bases: Dict[Tuple[int, int], list] = {}
        for i in range(count):
            for j in range(count):
                basis = hom_basis(mods[i], mods[j])
                self._hom_bases[(i, j)] = basis
                self.hom[i][j] = len(basis)
        self.tau_rigid: List[bool] = []
        for i in range(count):
            if self.tau_unresolved[i]:
                self.tau_rigid.append(False)
                continue
            ti = self.tau_of[i]
            self.tau_rigid.append(ti is None or self.hom[i][ti] == 0)
        self.ext: List[List[int]] = [
            [ext_from[i].dim(mods[j], self.hom[i][j]) for j in range(count)]
            for i in range(count)]
        # per-vertex column spans of trace(M_i, M_j)
        self._trace_spans: Dict[Tuple[int, int], List[Mat]] = {}
        f = self.field
        for i in range(count):
            for j in range(count):
                spans = [Mat.zeros(f, mods[j].dims[v], 0) for v in range(self.n)]
                for mor in self._hom_bases[(i, j)]:
                    for v in range(self.n):
                        spans[v] = spans[v].hstack(mor.maps[v])
                self._trace_spans[(i, j)] = [linalg.column_space_basis(s) for s in spans]
        self.str_indecs: List[StrIndec] = \
            [StrIndec(i, 0) for i in range(count) if self.tau_rigid[i]] + \
            [StrIndec(i, 1) for i in range(count) if self.is_proj[i]]

    def _check_closure(self):
        ok_tau = ok_rad = True
        for i, m in enumerate(self.modules):
            kinds = []
            if not self.is_proj[i]:
                kinds.append("tau")
            if not self.is_inj[i]:
                kinds.append("tau_minus")
            if any(self._identify_all(self._neighbours.parts(kind, m)) is None
                   for kind in kinds):
                ok_tau = False
            # rad P for every projective, I / soc I for every injective
            kinds = (["before"] if self.is_proj[i] else []) + \
                (["after"] if self.is_inj[i] else [])
            if any(self._identify_all(self._neighbours.parts(kind, m)) is None
                   for kind in kinds):
                ok_rad = False
        self.certificate["closed_under_translates"] = ok_tau
        self.certificate["closed_under_radical_and_socle_quotients"] = ok_rad

    # ------------------------------------------------------------------
    # identification
    # ------------------------------------------------------------------

    def identify(self, rep: Rep) -> Optional[int]:
        """Canonical id of an indecomposable rep, or None if unknown."""
        for i in self._by_dims.get(rep.dims, []):
            if is_isomorphic(rep, self.modules[i]):
                return i
        return None

    def _identify_all(self, parts: List[Rep]) -> Optional[List[int]]:
        """Sorted canonical ids of indecomposable reps, or None if one is
        unknown.  Each part is indecomposable, so by Fitting's lemma it is
        isomorphic to a module exactly when some Hom basis element is."""
        out = []
        for part in parts:
            i = next((i for i in self._by_dims.get(part.dims, [])
                      if _basis_has_iso(part, self.modules[i])), None)
            if i is None:
                return None
            out.append(i)
        return sorted(out)

    def identify_parts(self, rep: Rep) -> Optional[List[int]]:
        """Sorted canonical ids (with multiplicity) of the summands, or None."""
        return self._identify_all(indecomposable_parts(rep))

    def label_of_indec(self, x: StrIndec) -> str:
        return self.labels[x.mod] + ("[1]" if x.shift else "")

    def label_of_obj(self, t: StrObj) -> str:
        parts = [self.labels[i] for i in t.mods] + \
                ["%s[1]" % self.labels[i] for i in t.shifts]
        return "(" + ",".join(parts) + ")" if parts else "(0)"

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
        # aliases S<v> and P<v> for simples and projectives (1-based vertex)
        if label[:1] in ("S", "P") and label[1:].isdigit():
            v = int(label[1:]) - 1
            if 0 <= v < self.n:
                rep = simple(self.algebra, v) if label[0] == "S" \
                    else projective(self.algebra, v)
                i = self.identify(rep)
                if i is not None:
                    return i
        raise KeyError("unknown module label %r" % label)

    # ------------------------------------------------------------------
    # Gen and FiltGen membership
    # ------------------------------------------------------------------

    def trace_rank_full(self, gens: FrozenSet[int], j: int) -> bool:
        m = self.modules[j]
        if m.total_dim == 0:
            return True
        f = self.field
        for v in range(self.n):
            if m.dims[v] == 0:
                continue
            stacked = Mat.zeros(f, m.dims[v], 0)
            for i in gens:
                stacked = stacked.hstack(self._trace_spans[(i, j)][v])
            if linalg.rank(stacked) < m.dims[v]:
                return False
        return True

    def gen_set(self, ids) -> FrozenSet[int]:
        """Indecomposable members of Gen of the direct sum of the given ids."""
        key = frozenset(ids)
        cached = self._gen_cache.get(key)
        if cached is not None:
            return cached
        members = frozenset(j for j in range(len(self.modules))
                            if self.trace_rank_full(key, j))
        self._gen_cache[key] = members
        return members

    def gen_contains(self, ids, j: int) -> bool:
        return j in self.gen_set(ids)

    def filtgen_contains(self, ids, j: int) -> bool:
        """Membership in the smallest torsion class containing the given ids,
        by the iterated trace-quotient test."""
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

    # ------------------------------------------------------------------
    # support objects
    # ------------------------------------------------------------------

    def tau_hom_vanishes(self, a: int, b: int) -> bool:
        """Hom(M_a, tau M_b) == 0, from the tables."""
        tb = self.tau_of[b]
        return tb is None or self.hom[a][tb] == 0

    def indec_compatible(self, x: StrIndec, y: StrIndec) -> bool:
        """Whether x + y is a basic support object (ambient test)."""
        if x == y:
            return False
        if x.shift and y.shift:
            return x.mod != y.mod
        if x.shift:
            return self.hom[x.mod][y.mod] == 0  # Hom(P, M) = 0
        if y.shift:
            return self.hom[y.mod][x.mod] == 0
        return self.tau_hom_vanishes(x.mod, y.mod) and self.tau_hom_vanishes(y.mod, x.mod)

    def all_tau_rigid_subsets(self) -> List[Tuple[int, ...]]:
        """All basic tau-rigid modules, as sorted id tuples (including ())."""
        key = "tau_rigid_subsets"
        if key in self.cache:
            return self.cache[key]
        rigid_ids = [i for i in range(len(self.modules)) if self.tau_rigid[i]]
        out: List[Tuple[int, ...]] = [()]

        def compatible_pair(a: int, b: int) -> bool:
            return self.tau_hom_vanishes(a, b) and self.tau_hom_vanishes(b, a)

        def rec(start: int, acc: List[int]):
            for k in range(start, len(rigid_ids)):
                c = rigid_ids[k]
                if all(compatible_pair(c, a) for a in acc):
                    acc.append(c)
                    out.append(tuple(acc))
                    rec(k + 1, acc)
                    acc.pop()

        rec(0, [])
        out.sort()
        self.cache[key] = out
        return out

    def all_support_objects(self) -> List[StrObj]:
        """All basic support objects (tau-rigid module plus shifted projectives)."""
        key = "support_objects"
        if key in self.cache:
            return self.cache[key]
        out: List[StrObj] = []
        projs = [i for i in range(len(self.modules)) if self.is_proj[i]]
        for mods in self.all_tau_rigid_subsets():
            free = [p for p in projs if all(self.hom[p][m] == 0 for m in mods)]
            for r in range(len(free) + 1):
                for shifts in itertools.combinations(free, r):
                    out.append(StrObj.make(mods, shifts))
        out.sort()
        self.cache[key] = out
        return out

    def support_tilting_count(self) -> int:
        """The number of support tau-tilting objects, which is the number of
        torsion classes (Adachi-Iyama-Reiten)."""
        key = "support_tilting_count"
        if key not in self.cache:
            self.cache[key] = sum(1 for t in self.all_support_objects()
                                  if t.delta == self.n)
        return self.cache[key]
