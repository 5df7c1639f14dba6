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
Auslander-Reiten-Smalo ch. VI), and the sweep stops there as completed.
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
stops the sweep, the stop test still runs on the found list, which is
every indecomposable if it is closed; an abort above the cap runs none.
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
no radical or socle quotient and decomposes neither, and the sweep reads
dim Ext^1(S, M) off the minimal zero paths.  The schema-1 certificate keys
keep their meaning: the sweep completed, the count is stable up to the cap
plus one (nothing the sweep could still add), no indecomposable touches the
cap, and the set is closed under tau, tau-minus, radicals of projectives and
socle quotients of injectives.

The build computes only what its caller reads.  A build that requires the
certificate and is refused stops at it.  One that the sweep keys refuse
already decides the closure keys with the least work: the first module, in
sorted order, whose tau is not found makes both translate keys false, and
only the radical key is still computed in full.  The stop test ends its
walk at that module too.  A build that is kept computes the flags and
tau-rigidity, one Hom(X, tau X) per module whose tau was found; the hom and
Ext tables are read-only properties that fill both tables on the first read
of either, so ``inspect`` never computes them.  One ``Catalogue`` tells
modules apart, by the Fitting test of ``decompose``, for the sweep's new
modules, the closure's neighbour summands, ``identify`` and
``identify_parts``; its buckets by dimension vector hold the candidates for
tau X.  Counts pinned downstream all sit on top of this certificate.  No
trace table is kept: ``gen_set`` and ``filtgen_*`` compute from traces, as
the oracle for the verify suites and the tests.

Canonical ids are indices into the sorted module list (total dimension, then
dimension vector, then discovery order); labels are dimension vectors plus a
disambiguating ordinal, for example "11#1".
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, FrozenSet, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from tauseq import linalg
from tauseq.ar import (
    Ext1From, almost_split_middle, class_forms, extension_cocycle_space,
    extension_middle, flat_cocycle, is_tau_of, tau_dims,
)
from tauseq.decompose import _basis_has_iso, indecomposable_parts, is_indecomposable
from tauseq.errors import BoundTooSmall, Mismatch, NotCertifiablyComplete
from tauseq.linalg import Mat
from tauseq.modules import (
    Presentation, Rep, arrow_ideals, block_sum, dual_arrow_ideals, dualize, hom_dim,
    min_presentation, projective, quotient, radical_spans, simple, simple_ext_dim, trace,
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
        for m in modules:
            self.add(m)

    def add(self, m: Rep):
        self._by_dims.setdefault(m.dims, []).append(len(self.modules))
        self.modules.append(m)

    def bucket(self, dims: Tuple[int, ...]) -> Sequence[int]:
        """The positions of the modules with the dimension vector dims."""
        return self._by_dims.get(dims, ())

    def find(self, rep: Rep) -> Optional[int]:
        """The position of the module isomorphic to rep, or None.  The
        module is indecomposable, so by Fitting's lemma the two are
        isomorphic exactly when some Hom basis element is, whether or not
        rep is."""
        return next((i for i in self.bucket(rep.dims)
                     if _basis_has_iso(rep, self.modules[i])), None)

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

    tau^- is never built.  tau is a bijection from the non-projective
    indecomposables onto the non-injective ones, with inverse tau^-
    (Auslander-Reiten-Smalo, ch. IV).  So for a list C of pairwise
    non-isomorphic indecomposables that holds tau X for every X in C,
    tau^- Y lies in C exactly when Y is injective or Y is tau X for some X
    in C; only the Y outside that tau image need the injectivity test.
    """

    def __init__(self):
        self._memo: Dict[Tuple[str, int], tuple] = {}

    def _cached(self, kind: str, m: Rep, make):
        key = (kind, id(m))
        hit = self._memo.get(key)
        if hit is None:
            # the module is kept with its entry, so its id names no other module
            hit = self._memo[key] = (m, make(m))
        return hit[1]

    def presentation(self, m: Rep) -> Presentation:
        return self._cached("presentation", m, min_presentation)

    def translate_in(self, m: Rep, catalogue: Catalogue) -> Optional[int]:
        """The position in the catalogue of the module isomorphic to tau m,
        or None when there is none; m is not projective."""
        pres = self.presentation(m)
        dims = self._cached("tau_dims", m, lambda m: tau_dims(pres))
        return next((i for i in catalogue.bucket(dims)
                     if is_tau_of(catalogue.modules[i], pres)), None)

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
        def found(kind: str, m: Rep) -> bool:
            return catalogue.find_all(self.parts(kind, m)) is not None

        return all((self.projective_vertex(m) is None or found("before", m)) and
                   (not is_inj[i] or found("after", m))
                   for i, m in enumerate(catalogue.modules))

    def refused_closure_keys(self, catalogue: Catalogue) -> Optional[Dict[str, bool]]:
        """The closure keys of a certificate that already fails, decided
        with the least work, or None when every tau X is found and only the
        whole closure decides them.

        The first module in the list whose tau X is not found makes both
        translate keys false, so the walk stops there; the radical key
        reads projectivity off the top, injectivity off the socle and the
        summands off the paths."""
        if not any(lost for _, lost in self._translates(catalogue)):
            return None
        return {"translate_table_complete": False, "closed_under_translates": False,
                "closed_under_radical_and_socle_quotients": self.radical_closed(
                    catalogue, [self.injective_vertex(m) is not None
                                for m in catalogue.modules])}

    def closed(self, modules: Sequence[Rep]) -> Optional[Closure]:
        """The closure of the list in canonical order (``_canonical``) when
        every neighbour of every module in it, tau^- X included, is
        isomorphic to one in the list, else None; the modules must be
        indecomposable and pairwise non-isomorphic.  The walk stops at the
        first module whose tau X is not in the list, and only a list whose
        every tau X is found gets its injective flags and radical closure.

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
                != modules[0].algebra.n:
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
                    catalogue.find_all(self.parts("before", m, mods[tau_of[i]])) is None:
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


def _class_key(p: int, vec: list) -> Optional[tuple]:
    """vec up to a nonzero scalar, or None when vec is zero: over GF(p)
    reduced and scaled so that its first nonzero entry is 1, over Q (p = 0)
    its primitive integer form with a positive first nonzero entry."""
    if p:
        vec = [x % p for x in vec]
        pivot = next((x for x in vec if x), 0)
        if not pivot:
            return None
        inv = pow(pivot, p - 2, p)
        return tuple(x * inv % p for x in vec)
    if any(type(x) is not int for x in vec):  # a Fraction: clear denominators
        den = math.lcm(*(x.denominator for x in vec))
        vec = [x.numerator * (den // x.denominator) for x in vec]
    g = math.gcd(*vec)
    if not g:
        return None
    if next(x for x in vec if x) < 0:
        g = -g
    return tuple(x // g for x in vec)


def _new_class_tuples(field, images: List[List[tuple]]) -> Iterator[Tuple[int, ...]]:
    """The coefficient tuples over SWEEP_COEFFS, in itertools.product order,
    whose combination of the basis cocycles can give a new indecomposable.

    images[k][i] is the class of basis cocycle k against summand U_i of U
    (``_summand_classes``).  A tuple is dropped when its class against some
    U_i is zero, since U_i then splits off the middle, or when its classes
    equal those of an earlier tuple up to one nonzero scalar per summand:
    scaling U_i is an automorphism of U and adding a coboundary changes no
    middle, so both middles are isomorphic.  Each class is keyed up to a
    nonzero scalar (``_class_key``), and that key is looked up.

    The walk is the product tree, first coefficient outermost, and carries
    the prefix sum of c_k * images[k] down it: one vector add or subtract
    per node with a nonzero coefficient, reduced only at a leaf.
    """
    # every class of one basis cocycle, flattened summand after summand
    flat = [[x for coords in image for x in coords] for image in images]
    bounds = []
    start = 0
    for coords in images[0]:
        bounds.append((start, start + len(coords)))
        start += len(coords)
    depth = len(images)
    p = field.characteristic
    seen = set()
    coeffs: List[int] = []

    def walk(k: int, total: list) -> Iterator[Tuple[int, ...]]:
        if k == depth:
            key = []
            for lo, hi in bounds:
                part = _class_key(p, total[lo:hi])
                if part is None:
                    return
                key.append(part)
            key = tuple(key)
            if key not in seen:
                seen.add(key)
                yield tuple(coeffs)
            return
        image = flat[k]
        for c in SWEEP_COEFFS:
            coeffs.append(c)
            if c == 0:
                yield from walk(k + 1, total)
            elif c == 1:
                yield from walk(k + 1, [a + b for a, b in zip(total, image)])
            else:
                yield from walk(k + 1, [a - b for a, b in zip(total, image)])
            coeffs.pop()

    yield from walk(0, [0] * start)


def _holds(certificate: Dict[str, object]) -> bool:
    """Whether every key of the certificate so far holds."""
    return all(bool(v) for k, v in certificate.items()
               if k not in ("dim_bound", "sweep_aborted_because"))


class _Budget:
    # guard rails so a runaway enumeration fails loudly instead of hanging
    MAX_MODULES = 400
    MAX_COCYCLE_BASIS = 6


class _Abort(Exception):
    """The sweep stops uncompleted; the argument is the reason."""


class _GuardAbort(_Abort):
    """The cocycle guard stops the sweep, which completes after all if the
    found list is closed; the argument is the reason."""


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
        further work cannot restore it.  When the cocycle guard aborts it
        instead, the stop test still runs on the found list, and a list that
        is closed completes the sweep by the same theorem.
        """
        algebra = self.algebra
        catalogue = Catalogue()
        found = catalogue.modules

        def add(rep: Rep):
            if catalogue.find(rep) is not None:
                return
            catalogue.add(rep)
            if len(found) > _Budget.MAX_MODULES:
                raise _Abort("more than %d indecomposables" % _Budget.MAX_MODULES)
            if not _dims_leq(rep.dims, self.dim_bound):
                raise _Abort("indecomposable with dimension vector %r above the cap %r"
                             % (rep.dims, self.dim_bound))

        # A new indecomposable E of total dimension t is the middle of some
        # 0 -> U -> E -> S -> 0 with S simple and U its maximal submodule;
        # indecomposability forces a nonzero class against every summand of
        # U, with multiplicity at most dim Ext^1(S, that summand).
        simples = [simple(algebra, v) for v in range(self.n)]
        ext_cache: Dict[Tuple[int, int], int] = {}
        forms_cache: Dict[Tuple[int, int], Mat] = {}

        def ext_to(sv: int, idx: int) -> int:
            key = (sv, idx)
            if key not in ext_cache:
                ext_cache[key] = simple_ext_dim(algebra, sv, found[idx])
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
                    raise Mismatch("dim Ext^1(S%d, %r) is %d by cocycles, %d by the paths"
                                   % (sv + 1, found[idx].dims, len(independent),
                                      ext_to(sv, idx)))
                forms_cache[key] = Mat.trusted(self.field, len(independent), forms.cols,
                                               [forms.data[r] for r in independent])
            return forms_cache[key]

        closure = None
        try:
            for s in simples:
                add(s)
            # P(v) is indecomposable, its End ring e_v A e_v being e_v plus
            # nilpotent cycles, and __init__ has checked it under the cap
            for v in range(self.n):
                add(projective(algebra, v))
            total_cap = sum(cap)
            for t in range(2, total_cap + 1):
                layer_start = len(found)
                for sv, s in enumerate(simples):
                    allowed = [(idx, ext_to(sv, idx)) for idx in range(len(found))
                               if found[idx].total_dim <= t - 1]
                    allowed = [(idx, e) for idx, e in allowed if e > 0]
                    for combo in self._bounded_multisets(found, allowed, t - 1):
                        parts = [found[idx] for idx in combo]
                        u = parts[0] if len(parts) == 1 else block_sum(parts)
                        if not _dims_leq([a + b for a, b in zip(u.dims, s.dims)], cap):
                            continue
                        cocycles, cob = extension_cocycle_space(s, u)
                        e = len(cocycles)
                        if e == 0:
                            continue
                        if e > _Budget.MAX_COCYCLE_BASIS:
                            raise _GuardAbort("extension space of dimension %d "
                                              "exceeds the sweep guard" % e)
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
                if len(found) == layer_start:
                    closure = self._neighbours.closed(found)
                    if closure is not None:
                        break
        except _GuardAbort as abort:
            closure = self._neighbours.closed(found)
            if closure is None:
                return found, False, str(abort), None
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
        stops at the first module whose tau is not found
        (``ARNeighbours.refused_closure_keys``) and sets only the
        certificate, which is all its refusal reports.
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
