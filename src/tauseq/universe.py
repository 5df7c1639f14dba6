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
start, so it gets no End test (``_may_be_new``).  The kept middles, and so
the found modules and their order, are those of the full product
sweep.  Once the projectives are added, and again after every new
module, the sweep asks whether the found set is closed in the
Auslander-Reiten quiver: closed under tau and tau-minus, under the summands
of rad P and I / soc I, and under the summands of the middle term of the
almost split sequence ending at each non-projective module
(``ARNeighbours``).  The found set holds every simple, so once it is closed
it is every indecomposable (Auslander's theorem, Auslander-Reiten-Smalo
ch. VI), and the sweep stops there as completed, building no middle after
its last new module.  The stop test keeps its state across these calls, so
each call tests only what is new since the last one.
Once the set holds every indecomposable projective and is closed under tau,
tau-minus, rad P and I / soc I, only a module on a tau-periodic orbit needs
its almost split middle built: for any other X an irreducible map Y -> X
moves down the tau orbit of X as tau^j Y -> tau^j X (Auslander-Reiten-Smalo
ch. VII) until tau^j Y is projective or a summand of rad P for a projective
tau^j X = P, so found either way, and tau-minus closure walks back up to Y.
The stop test closes the list in canonical order, and the certificate takes
that closure as it is instead of computing it a second time.  The sweep
adds each P(v) as it is, since End P(v) = e_v A e_v is local, so it
decomposes no projective.  When the guard on the size of a cocycle space
or the cap stops the sweep, the stop test has already found the list as it
stands not closed.
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
catalogue modules with that dimension vector.  On a monomial algebra the
summands of rad P(v) are the arrow ideals at v and those of I(v) / soc I(v)
their duals over the opposite algebra (``modules``), so the closure builds
no radical or socle quotient and decomposes neither.  The schema-1
certificate keys keep their meaning: the sweep completed, the count is
stable up to the cap plus one (nothing the sweep could still add), no
indecomposable touches the cap, and the set is closed under tau, tau-minus,
radicals of projectives and socle quotients of injectives.

The build computes only what its caller reads.  A build that requires the
certificate and is refused stops at it.  One that the sweep keys refuse
already decides the closure keys with the least work: a module whose tau is
not found makes both translate keys false, and only the radical key is
still computed in full.  The stop test has usually kept that module as the
witness of its last failure; otherwise the walk in sorted order stops at
the first one.  A build that is kept computes the flags and tau-rigidity,
one Hom(X, tau X) per module whose tau was found; the hom and Ext tables
are read-only properties that fill both tables on the first read of
either, so ``inspect`` never computes them.  One ``Catalogue`` tells
modules apart, on the nose when a module equals the rep, then by the ranks
of the arrow matrices, an isomorphism invariant, and otherwise by the
Fitting test of ``decompose``, for the sweep's new modules, the
closure's neighbour summands, ``identify`` and ``identify_parts``; its
buckets by dimension vector hold the candidates for tau X.  Counts pinned
downstream all sit on top of this certificate.  No trace table is kept:
``gen_set`` and ``filtgen_*`` compute from traces, as the oracle for the
verify suites and the tests.

Canonical ids are indices into the sorted module list (total dimension, then
dimension vector, then discovery order); labels are dimension vectors plus a
disambiguating ordinal, for example "11#1".
"""

from __future__ import annotations

import functools
import itertools
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from tauseq import linalg
from tauseq.ar import Ext1From, almost_split_middle, extension_middle, is_tau_of, tau_dims
from tauseq.decompose import _basis_has_iso, indecomposable_parts, is_indecomposable
from tauseq.errors import BoundTooSmall, Mismatch, NotCertifiablyComplete
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, SimpleExt, arrow_ideals, block_sum, dual_arrow_ideals, dualize,
    hom_basis, hom_dim, min_presentation, projective, quotient, radical_spans, simple, trace,
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


def _canonical(modules: Sequence[Rep]) -> List[Rep]:
    """The modules in the order of canonical ids: by total dimension, then
    dimension vector, then their order in the list."""
    return sorted(modules, key=lambda m: (m.total_dim, m.dims))


def _arrow_ranks(m: Rep) -> Tuple[int, ...]:
    """The ranks of the arrow matrices of m, an isomorphism invariant."""
    return tuple(linalg.rank(x) for x in m.mats)


def _projective_vertex(m: Rep) -> Optional[int]:
    """v when the indecomposable m is the projective P(v), else None: m is
    projective exactly when top m is one simple S_v and m has the dimension
    vector of P(v).  P(v) covers m, its projective cover, so equal
    dimensions make the cover an isomorphism.  The top is computed only
    when the dimension vector is that of some P(v).  Read on the dual over
    the opposite algebra, the same test says whether m is the injective
    I(v): soc m is the dual of top D m, and D I(v) is P(v) there."""
    algebra = m.algebra
    candidates = [v for v in range(algebra.n) if projective(algebra, v).dims == m.dims]
    if not candidates:
        return None
    top = [d - linalg.rank(span) for d, span in zip(m.dims, radical_spans(m))]
    v = top.index(1) if sum(top) == 1 else None
    return v if v in candidates else None


class Catalogue:
    """Pairwise non-isomorphic indecomposables, bucketed by dimension vector;
    a module's position in ``modules`` is its id here."""

    def __init__(self, modules: Sequence[Rep] = ()):
        self.modules: List[Rep] = []
        self._by_dims: Dict[tuple, List[int]] = {}
        self._ranks: Dict[int, Tuple[int, ...]] = {}
        for m in modules:
            self.add(m)

    def add(self, m: Rep):
        self._by_dims.setdefault(m.dims, []).append(len(self.modules))
        self.modules.append(m)

    def bucket(self, dims: Tuple[int, ...]) -> Sequence[int]:
        """The positions of the modules with the dimension vector dims."""
        return self._by_dims.get(dims, ())

    def ranks(self, i: int) -> Tuple[int, ...]:
        """The arrow ranks of module i (``_arrow_ranks``), on first read."""
        r = self._ranks.get(i)
        if r is None:
            r = self._ranks[i] = _arrow_ranks(self.modules[i])
        return r

    def find(self, rep: Rep, iso=None) -> Optional[int]:
        """The position of the module isomorphic to rep, or None.  A module
        equal to rep (``Rep.__eq__``) is returned before any Hom solve: the
        modules are pairwise non-isomorphic.  Otherwise a module whose arrow
        ranks differ from rep's is turned away, the ranks being an
        isomorphism invariant, and iso(rep, module) decides for the rest;
        the module is indecomposable, so by Fitting's lemma the two are
        isomorphic exactly when some Hom basis element is, whether or not
        rep is (``_basis_has_iso``, the default iso)."""
        bucket = self.bucket(rep.dims)
        i = next((i for i in bucket if self.modules[i] == rep), None)
        if i is None and bucket:
            iso = iso or _basis_has_iso
            ranks = _arrow_ranks(rep)
            i = next((i for i in bucket
                      if self.ranks(i) == ranks and iso(rep, self.modules[i])), None)
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
    """What ``ARNeighbours.closure`` reads off a catalogue, per position."""
    tau_of: List[Optional[int]]  # None for a projective or an unresolved tau
    tau_unresolved: List[bool]   # tau X is not one found module
    is_inj: List[bool]
    closed_under_translates: bool
    closed_under_radical_and_socle_quotients: bool


class ARNeighbours:
    """Each module's minimal projective presentation, its translate's place
    in a catalogue, its injectivity and its neighbours in the
    Auslander-Reiten quiver, as lists of indecomposable summands, each
    computed once per module.

    The presentation (``modules.min_presentation``) serves the module's tau
    and its Ext row.  ``projective_vertex`` reads the top
    (``_projective_vertex``), so a projective gets no presentation here.
    tau X is never built: ``translate_in`` looks for it in the catalogue
    bucket with the dimension vector of tau X (``ar.tau_dims``), by the
    test of ``ar.is_tau_of``, which reads Hom(Z, tau X) through the
    Nakayama functor.  For X indecomposable and not projective, tau X is
    indecomposable (Auslander-Reiten-Smalo, ch. IV), and a catalogue holds
    pairwise non-isomorphic modules, so at most one candidate passes.
    ``injective_vertex`` runs the top test on the dual over the opposite
    algebra, whose top is the socle, and builds no projective cover there.
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
    The stop test ``closed`` builds "before" of a non-projective X only on a
    tau-periodic orbit, from the catalogue module found isomorphic to
    tau X; when the list holds every indecomposable projective, the other
    orbits need no middle (the proof is in its docstring).  It returns the
    closure it computed, over the list in canonical order, and the
    certificate reads that closure without permuting it.

    The sweep runs the stop test after every module it adds, so the state
    is kept across calls, by module identity: each verdict of a tau test
    (``translate_in``) or of an isomorphism test of a neighbour summand
    (``parts_found``) is kept with its candidate, so a later call tests
    only the modules that reached the bucket since.  The list itself is
    read afresh on every call, so the verdict holds for any list; a
    candidate that ``Catalogue.find`` turns away by its arrow ranks is kept
    as a failed isomorphism test.  A tau X or summand not found is kept as
    the witness of the failure, and ``closed`` returns None at once while it
    still stands: its module is in the list and every module there with the
    missing dimension vector was tested and failed.

    tau^- is never built.  tau is a bijection from the non-projective
    indecomposables onto the non-injective ones, with inverse tau^-
    (Auslander-Reiten-Smalo, ch. IV).  So for a list C of pairwise
    non-isomorphic indecomposables that holds tau X for every X in C,
    tau^- Y lies in C exactly when Y is injective or Y is tau X for some X
    in C; only the Y outside that tau image need the injectivity test.
    """

    def __init__(self):
        self._memo: Dict[tuple, tuple] = {}
        # (owner, kind, target, dimension vector) of the last target not found
        self._witness: Optional[tuple] = None

    def _cached(self, kind: str, m: Rep, make):
        key = (kind, id(m))
        hit = self._memo.get(key)
        if hit is None:
            # the module is kept with its entry, so its id names no other module
            hit = self._memo[key] = (m, make(m))
        return hit[1]

    def _verdict(self, kind: str, target: Rep, z: Rep) -> bool:
        """Whether z is tau of the target ("tau") or isomorphic to it
        ("iso"); the verdict is kept with the pair, so their ids name no
        other modules."""
        key = (kind, id(target), id(z))
        hit = self._memo.get(key)
        if hit is None:
            verdict = is_tau_of(z, self.presentation(target)) if kind == "tau" \
                else _basis_has_iso(target, z)
            hit = self._memo[key] = ((target, z), verdict)
        return hit[1]

    def _witness_stands(self, modules: Sequence[Rep], kind: str = "") -> bool:
        """Whether the witness, of the given kind if one is given, still
        stands in the list: its owner is there, and every module there at
        its dimension vector was tested against its target and failed."""
        if self._witness is None:
            return False
        owner, witness_kind, target, dims = self._witness
        return kind in ("", witness_kind) and any(m is owner for m in modules) and all(
            not self._memo.get((witness_kind, id(target), id(m)), (None, True))[1]
            for m in modules if m.dims == dims)

    def presentation(self, m: Rep) -> Presentation:
        return self._cached("presentation", m, min_presentation)

    def translate_in(self, m: Rep, catalogue: Catalogue) -> Optional[int]:
        """The position in the catalogue of the module isomorphic to tau m,
        or None when there is none; m is not projective.  Only the
        candidates not tested before are tested."""
        pres = self.presentation(m)
        dims = self._cached("tau_dims", m, lambda m: tau_dims(pres))
        i = next((i for i in catalogue.bucket(dims)
                  if self._verdict("tau", m, catalogue.modules[i])), None)
        if i is None:
            self._witness = (m, "tau", m, dims)
        return i

    def projective_vertex(self, m: Rep) -> Optional[int]:
        """v when m is the projective P(v), else None."""
        return self._cached("projective", m, _projective_vertex)

    def injective_vertex(self, m: Rep) -> Optional[int]:
        """v when m is the injective I(v), else None: the top test of
        ``_projective_vertex`` on the dual over the opposite algebra."""
        return self._cached("injective", m, lambda m: _projective_vertex(dualize(m)))

    def parts(self, kind: str, m: Rep, tau_m: Optional[Rep] = None) -> List[Rep]:
        """The "before" or "after" summands of m; tau_m is a module
        isomorphic to tau m, needed for "before" of a non-projective m."""
        return self._cached(kind, m, lambda m: self._neighbour_parts(kind, m, tau_m))

    def _neighbour_parts(self, kind: str, m: Rep, tau_m: Optional[Rep]) -> List[Rep]:
        if kind == "after":
            return dual_arrow_ideals(m.algebra, self.injective_vertex(m))
        v = self.projective_vertex(m)
        if v is not None:
            return arrow_ideals(m.algebra, v)
        return indecomposable_parts(almost_split_middle(m, tau_m))

    def parts_found(self, kind: str, m: Rep, catalogue: Catalogue,
                    tau_m: Optional[Rep] = None) -> bool:
        """Whether every "before" or "after" summand of m is in the
        catalogue; the first one that is not becomes the witness."""
        for part in self.parts(kind, m, tau_m):
            if catalogue.find(part, lambda rep, z: self._verdict("iso", rep, z)) is None:
                # a candidate the catalogue turned away by its arrow ranks
                # was tested too, and failed
                for i in catalogue.bucket(part.dims):
                    z = catalogue.modules[i]
                    self._memo.setdefault(("iso", id(part), id(z)), ((part, z), False))
                self._witness = (m, "iso", part, part.dims)
                return False
        return True

    def _translates(self, catalogue: Catalogue) -> Iterator[Tuple[Optional[int], bool]]:
        """For each module X of the catalogue in order, the position of
        tau X, None for a projective or an unresolved tau X, and whether
        tau X is unresolved: not one found module."""
        for m in catalogue.modules:
            if self.projective_vertex(m) is not None:
                yield None, False
            else:
                i = self.translate_in(m, catalogue)
                yield i, i is None

    def closure(self, catalogue: Catalogue) -> Closure:
        """The translate table, the injective flags and the two closure
        flags of the catalogue's modules."""
        tau_of, unresolved = [], []
        for i, lost in self._translates(catalogue):
            tau_of.append(i)
            unresolved.append(lost)
        return self._closure(catalogue, tau_of, unresolved)

    def _closure(self, catalogue: Catalogue, tau_of: List[Optional[int]],
                 unresolved: List[bool]) -> Closure:
        """The closure from the translate table.

        tau is closed when every tau X is one found module and every Y is
        injective or some found tau X, which is then tau^- Y (see the class
        docstring); the radicals and socle quotients are closed when the
        summands of rad P and of I / soc I are found for every found
        projective P and injective I.
        """
        mods = catalogue.modules
        # tau X is never injective; outside the tau image the test is exact
        image = set(tau_of)
        is_inj = [i not in image and self.injective_vertex(m) is not None
                  for i, m in enumerate(mods)]
        translates = not any(unresolved) and all(
            is_inj[i] or i in image for i in range(len(mods)))
        return Closure(tau_of, unresolved, is_inj, translates,
                       self.radical_closed(catalogue, is_inj))

    def radical_closed(self, catalogue: Catalogue, is_inj: Sequence[bool]) -> bool:
        """Whether the summands of rad P and of I / soc I are found for
        every found projective P and every found I with is_inj."""
        return all((self.projective_vertex(m) is None or
                    self.parts_found("before", m, catalogue)) and
                   (not is_inj[i] or self.parts_found("after", m, catalogue))
                   for i, m in enumerate(catalogue.modules))

    def refused_closure_keys(self, catalogue: Catalogue) -> Optional[Dict[str, bool]]:
        """The closure keys of a certificate that already fails, decided
        with the least work, or None when every tau X is found and only the
        whole closure decides them.

        A tau X not found makes both translate keys false.  The kept state
        shows one when the witness of the last failed stop test is such a
        tau X and still stands; otherwise the walk stops at the first module
        whose tau X is not found.  The radical key reads projectivity off
        the top, injectivity off the socle and the summands off the paths."""
        if not self._witness_stands(catalogue.modules, "tau") and \
                not any(lost for _, lost in self._translates(catalogue)):
            return None
        return {"translate_table_complete": False, "closed_under_translates": False,
                "closed_under_radical_and_socle_quotients": self.radical_closed(
                    catalogue, [self.injective_vertex(m) is not None
                                for m in catalogue.modules])}

    def closed(self, modules: Sequence[Rep]) -> Optional[Closure]:
        """The closure of the list in canonical order (``_canonical``) when
        every neighbour of every module in it, tau^- X included, is
        isomorphic to one in the list, else None; the modules must be
        indecomposable and pairwise non-isomorphic.  A call returns None at
        once while the witness of an earlier failure stands in the list
        (see the class docstring).  Otherwise the walk stops at the first
        module whose tau X is not in the list, and only a list whose every
        tau X is found gets its injective flags and radical closure.

        That is: the list holds as many projectives as the algebra has
        vertices, so every indecomposable projective; the two closure flags
        hold; and the middle of the almost split sequence ending at X is
        found for each non-projective X on a tau-periodic orbit.  No other
        middle needs building.  Let the tau orbit of X in the list reach a
        projective, and let Y -> X be irreducible.  Then tau^j Y -> tau^j X
        is irreducible (Auslander-Reiten-Smalo, ch. VII) down the orbit
        until tau^j Y is projective, so in the list, or tau^j X = P is, and
        then tau^j Y is a summand of rad P, in the list by the radical
        flag.  tau^j Y lies in the tau image, so it is not injective, nor is
        any module between it and Y, and tau^- closure walks back up to Y.
        A list that is closed and holds every simple is a union of finite
        components of the AR quiver, one per block, so by Auslander's
        theorem it is every indecomposable (Auslander-Reiten-Smalo, ch. VI).
        """
        if not modules or sum(self.projective_vertex(m) is not None for m in modules) \
                != modules[0].algebra.n or self._witness_stands(modules):
            return None
        catalogue = Catalogue(_canonical(modules))
        tau_of = []
        for i, lost in self._translates(catalogue):
            if lost:
                return None
            tau_of.append(i)
        c = self._closure(catalogue, tau_of, [False] * len(tau_of))
        if not (c.closed_under_translates and c.closed_under_radical_and_socle_quotients):
            return None
        mods = catalogue.modules
        for i, m in enumerate(mods):
            if tau_of[i] is not None and _tau_periodic(tau_of, i) and \
                    not self.parts_found("before", m, catalogue, mods[tau_of[i]]):
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


def _class_tuples(field, classes: Sequence[tuple]) -> List[Tuple[int, ...]]:
    """The coefficient tuples over SWEEP_COEFFS, in itertools.product order,
    that the sweep combines for one summand U_i of U, classes[k] being the
    class in Ext^1(S, U_i) of its basis cocycle k: the first tuple of each
    nonzero class up to a nonzero scalar, keyed by the class scaled so that
    its first nonzero coordinate is 1.  A zero class splits U_i off the
    middle, and scaling U_i is an automorphism of U, so every other tuple
    gives a decomposable middle or one isomorphic to a middle of a kept
    tuple."""
    seen = set()
    out = []
    for coeffs in itertools.product(SWEEP_COEFFS, repeat=len(classes)):
        vec = [field.coerce(sum(c * x[j] for c, x in zip(coeffs, classes)))
               for j in range(len(classes[0]))]
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


def _combination(field, coeffs: Sequence[int], vectors: Sequence[Sequence]) -> list:
    """sum c_k vectors[k] for coefficients c_k in SWEEP_COEFFS."""
    out = [field.zero] * len(vectors[0])
    for c, vec in zip(coeffs, vectors):
        if c:
            out = [field.add(x, y) if c == 1 else field.sub(x, y) for x, y in zip(out, vec)]
    return out


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
    needs neither an End test nor a Hom solve."""
    return _projective_vertex(middle) is None and is_indecomposable(middle)


def _holds(certificate: Dict[str, object]) -> bool:
    """Whether every key of the certificate so far holds."""
    return all(bool(v) for k, v in certificate.items()
               if k not in ("dim_bound", "sweep_aborted_because"))


class _Budget:
    # guard rails so a runaway enumeration fails loudly instead of hanging
    MAX_MODULES = 400
    # on dim Z^1(S, U); the class walk costs 3^dim Z^1(S, U_i) per summand,
    # not 3^dim Z^1(S, U), so this could be relaxed
    MAX_COCYCLE_BASIS = 6


class _Abort(Exception):
    """The sweep stops uncompleted; the argument is the reason."""


class ModuleUniverse:
    """All indecomposables of a representation-finite bound quiver algebra,
    with hom, extension and translate tables keyed by canonical id.

    The translate table, the projective and injective flags, tau_rigid and
    the certificate are built with the universe; the properties ``hom``
    and ``ext`` fill both tables on the first read of either
    (``_build_tables``)."""

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
        if len(self.dim_bound) != self.n:
            raise BoundTooSmall("the cap %r names %d bounds for %d vertices"
                                % (self.dim_bound, len(self.dim_bound), self.n))
        for p in projs:
            if not _dims_leq(p.dims, self.dim_bound):
                raise BoundTooSmall("projective with dimension vector %r exceeds the cap %r"
                                    % (p.dims, self.dim_bound))
        self._neighbours = ARNeighbours()
        found, complete, reason, closure = self._enumerate(
            tuple(b + 1 for b in self.dim_bound))
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
        self.modules: List[Rep] = _canonical(inside)
        self.labels: List[str] = []
        seen: Dict[tuple, int] = {}
        for m in self.modules:
            seen[m.dims] = seen.get(m.dims, 0) + 1
            self.labels.append(_label(m.dims, seen[m.dims]))
        self._catalogue = Catalogue(self.modules)
        # a refused build stops at its certificate, and one that the sweep
        # keys refuse already decides the closure keys with the least work
        self._check_closure(require_certificate and not _holds(self.certificate), closure)
        self.certified = _holds(self.certificate)
        if require_certificate and not self.certified:
            raise NotCertifiablyComplete(
                "enumeration not certified: %r; raise --dim-bound" % (self.certificate,))
        neighbours = self._neighbours
        del self._neighbours
        vertex_of = [neighbours.projective_vertex(m) for m in self.modules]
        self.is_proj: List[bool] = [v is not None for v in vertex_of]
        # the minimal presentation that gave a module its tau gives its Ext
        # row when ``ext`` is first read; a projective has none built yet
        self._pres: List[Optional[Presentation]] = [
            None if proj else neighbours.presentation(m)
            for m, proj in zip(self.modules, self.is_proj)]
        self.proj_of_vertex: List[int] = []
        for v in range(self.n):
            if v not in vertex_of:
                raise Mismatch("projective at vertex %d missing from the enumeration" % v)
            self.proj_of_vertex.append(vertex_of.index(v))
        # an unresolved tau is tolerated only on an uncertified sweep; the
        # module is treated as not rigid
        self.tau_rigid: List[bool] = [
            not unresolved and (t is None or hom_dim(m, self.modules[t]) == 0)
            for m, t, unresolved in zip(self.modules, self.tau_of, self.tau_unresolved)]
        self._hom: Optional[List[List[int]]] = None
        self._ext: Optional[List[List[int]]] = None
        self._gen_cache: Dict[FrozenSet[int], FrozenSet[int]] = {}
        self._filtgen_cache: Dict[Tuple[FrozenSet[int], int], bool] = {}
        self.cache: Dict = {}  # shared memo space for the layers above

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------

    def _enumerate(self, cap: Tuple[int, ...]) -> Tuple[List[Rep], bool, str,
                                                        Optional[Closure]]:
        """Sweep up to the cap; returns (found, sweep completed, abort reason,
        the closure of found in canonical order when the stop test ended
        the sweep, else None).

        For each simple S and each bounded multiset of found modules with
        direct sum U, it builds the middle of the first {0, +-1} combination
        of the basis of Z^1(S, U), in product order, of each class up to one
        scalar per summand and with no zero component.  The combination is
        one kept tuple per summand (``_class_tuples``, ``_sum_tuples``), and
        its cocycle stacks the summands' combinations at each arrow
        (``_sum_cocycle``).  The guard bounds dim Z^1(S, U); the walk costs
        the sum of 3^dim Z^1(S, U_i) over the summands plus the product of
        their kept tuple counts.

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
        soon as an indecomposable enters the shell above dim_bound, since at
        that point the stability certificate is already forfeit and further
        work cannot restore it, or when the cocycle guard stops it; the
        stop test has then already found the list as it stands not closed.
        """
        algebra = self.algebra
        catalogue = Catalogue()
        found = catalogue.modules

        def add(rep: Rep) -> bool:
            """Whether rep is new; it is then added."""
            if catalogue.find(rep) is not None:
                return False
            catalogue.add(rep)
            if len(found) > _Budget.MAX_MODULES:
                raise _Abort("more than %d indecomposables" % _Budget.MAX_MODULES)
            if not _dims_leq(rep.dims, self.dim_bound):
                raise _Abort("indecomposable with dimension vector %r above the cap %r"
                             % (rep.dims, self.dim_bound))
            return True

        # A new indecomposable E of total dimension t is the middle of some
        # 0 -> U -> E -> S -> 0 with S simple and U its maximal submodule;
        # indecomposability forces a nonzero class against every summand of
        # U, with multiplicity at most dim Ext^1(S, that summand).
        simples = [simple(algebra, v) for v in range(self.n)]

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
                        if not _dims_leq([a + b for a, b in zip(u.dims, s.dims)], cap):
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
            for v in range(self.n):
                add(projective(algebra, v))
            closure = self._neighbours.closed(found)
            if closure is None:
                for middle in middles():
                    if add(middle):
                        closure = self._neighbours.closed(found)
                        if closure is not None:
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

        c is the closure of the stop test that ended the sweep, or None.  A
        sweep that the stop test ends found no module above the cap, so its
        list is exactly these modules, and the stop test closed them in
        this same canonical order.  Without c, a build that is ``refused``
        stops at a module whose tau is not found, read off the stop test's
        kept state when it can be (``ARNeighbours.refused_closure_keys``),
        and sets only the certificate, which is all its refusal reports.
        """
        if c is None and refused:
            keys = self._neighbours.refused_closure_keys(self._catalogue)
            if keys is not None:
                self.certificate.update(keys)
                return
        if c is None:
            c = self._neighbours.closure(self._catalogue)
        self.tau_of: List[Optional[int]] = c.tau_of
        self.tau_unresolved: List[bool] = c.tau_unresolved
        self.is_inj: List[bool] = c.is_inj
        if any(c.tau_unresolved):
            self.certificate["translate_table_complete"] = False
        self.certificate["closed_under_translates"] = c.closed_under_translates
        self.certificate["closed_under_radical_and_socle_quotients"] = \
            c.closed_under_radical_and_socle_quotients

    @property
    def hom(self) -> List[List[int]]:
        """hom[i][j] = dim Hom(M_i, M_j), filled with ``ext`` on the first
        read of either."""
        if self._hom is None:
            self._build_tables()
        return self._hom

    @property
    def ext(self) -> List[List[int]]:
        """ext[i][j] = dim Ext^1(M_i, M_j), filled with ``hom`` on the first
        read of either."""
        if self._ext is None:
            self._build_tables()
        return self._ext

    def _build_tables(self):
        """The hom and Ext tables, the Ext row of M_i from the syzygy of its
        minimal presentation; a projective gets its presentation, whose
        syzygy is zero, only now.  A build whose caller reads neither
        table, as ``inspect`` does, never computes them."""
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
                if label[0] == "P":
                    return self.proj_of_vertex[v]
                i = self.identify(simple(self.algebra, v))
                if i is not None:
                    return i
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

    # ------------------------------------------------------------------
    # support objects
    # ------------------------------------------------------------------

    def tau_hom_vanishes(self, a: int, b: int) -> bool:
        """Hom(M_a, tau M_b) == 0, from the tables."""
        tb = self.tau_of[b]
        return tb is None or self.hom[a][tb] == 0

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
