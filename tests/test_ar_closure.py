"""The sweep's stop by Auslander's theorem and the almost split sequences it
reads.

The sweep ends once the found set is closed in the AR quiver.  Forcing the
closure test to fail runs the full sweep up to the dimension cap, which is
the oracle: the early stop must change nothing but the time.  The build
reads tau^- and injectivity off the tau image; the direct routes, Tr D and
the projective cover of the dual, are the oracle for those.  Projectivity
is read off the top, against the projective cover, and injectivity off the
top of the dual, against the socle.  The stop test hands the closure it
computed to the certificate, which must equal the closure computed afresh;
it ends its walk at the first tau it cannot find.  A build refused by its
sweep keys stops there too; its certificate must be the one the whole
closure gives.  tau X is identified off the module's presentation and never
built: the spies count presentations, identifications and translates.
"""

import itertools
import os
import random

import pytest

from tauseq import ar, decompose, modules, universe, verify
from tauseq.ar import (
    Ext1From, almost_split_cocycle, almost_split_middle, extension_middle,
    is_injective_rep, tau, tau_minus,
)
from tauseq.cli import load_algebra_file, main
from tauseq.decompose import EndAlgebra, is_isomorphic
from tauseq.errors import NotCertifiablyComplete
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat, inverse
from tauseq.modules import Rep, direct_sum, dualize, min_presentation, projective, simple
from tauseq.quiver import Quiver, build_algebra, opposite
from tauseq.universe import ARNeighbours, Catalogue, ModuleUniverse
from oracles import (
    closed_with_every_middle, presentation_by_covers, socle_spans, sweep_as_built, sweep_to_the_cap,
)
from test_wide import _linear, _loop_rad2, _nakayama2

BENCH_ALGEBRAS = os.path.join(os.path.dirname(__file__), "..", "perfbench", "algebras")
# the Kronecker quiver is refused (representation-infinite), the free loop
# is infinite-dimensional
UNBUILT = {"kronecker", "loop"}


def _bench(name):
    return lambda: load_algebra_file(os.path.join(BENCH_ALGEBRAS, name + ".json"))


def _nakayama3(relations):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    return build_algebra(q, FieldSpec(0), relations)


def _d4():
    q = Quiver(["1", "2", "3", "4"],
               [("a", "1", "4"), ("b", "2", "4"), ("c", "3", "4")])
    return build_algebra(q, FieldSpec(0))


def _loop(power, characteristic=0):
    q = Quiver(["1"], [("x", "1", "1")])
    return build_algebra(q, FieldSpec(characteristic), [["x"] * power])


BENCH_NAMES = sorted(n[:-5] for n in os.listdir(BENCH_ALGEBRAS)
                     if n.endswith(".json") and n[:-5] not in UNBUILT)
ORACLE_ALGEBRAS = {name: _bench(name) for name in BENCH_NAMES}
ORACLE_ALGEBRAS.update({
    "loop_rad2": _loop_rad2,
    "nakayama2_rad3": lambda: _nakayama2([["a", "b", "a"], ["b", "a", "b"]]),
    "nakayama3_rad3": lambda: _nakayama3([["a", "b", "c"], ["b", "c", "a"],
                                          ["c", "a", "b"]]),
})


def test_the_oracle_covers_the_benchmark_corpus():
    files = {n[:-5] for n in os.listdir(BENCH_ALGEBRAS) if n.endswith(".json")}
    assert UNBUILT <= files
    assert len(BENCH_NAMES) == len(files) - len(UNBUILT) >= 14


def _spy_on_the_stop_test(monkeypatch):
    """The (catalogue size, verdict) of each stop test the sweep runs, on
    every build, Dynkin ones included (``oracles.sweep_as_built``)."""
    sweep_as_built(monkeypatch)
    verdicts = []
    closure = ARNeighbours.closure

    def spy(self, stop=False):
        c = closure(self, stop)
        if stop:
            verdicts.append((len(self.catalogue.modules), c))
        return c

    monkeypatch.setattr(ARNeighbours, "closure", spy)
    return verdicts


def _spy_on_the_found_list(monkeypatch):
    """The modules ``_enumerate`` returns, in the order the sweep found
    them, on every build, Dynkin ones included (``oracles.sweep_as_built``)."""
    sweep_as_built(monkeypatch)
    found = []
    enumerate_ = ModuleUniverse._enumerate

    def spy(self, cap):
        result = enumerate_(self, cap)
        found.extend(result[0])
        return result

    monkeypatch.setattr(ModuleUniverse, "_enumerate", spy)
    return found


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_early_stop_matches_the_full_sweep(name, monkeypatch):
    algebra = ORACLE_ALGEBRAS[name]()
    verdicts = _spy_on_the_stop_test(monkeypatch)
    stopped = ModuleUniverse(algebra)
    assert verdicts and isinstance(verdicts[-1][1], universe.Closure)
    # the full sweep runs to the cap, and the certificate computes the
    # closure afresh
    monkeypatch.undo()
    sweep_to_the_cap(monkeypatch)
    full = ModuleUniverse(algebra)
    assert stopped.modules == full.modules
    assert stopped.labels == full.labels
    assert stopped.hom == full.hom
    assert stopped.ext == full.ext
    for table in ("tau_of", "tau_unresolved", "is_proj", "is_inj", "tau_rigid"):
        assert getattr(stopped, table) == getattr(full, table), table
    assert list(stopped.certificate.items()) == list(full.certificate.items())
    assert stopped.certified


@pytest.mark.parametrize("build", [lambda: _linear(4), _d4,
                                   lambda: _nakayama2([["a", "b"], ["b", "a"]]),
                                   _loop_rad2],
                         ids=["a4", "d4", "nakayama2_rad2", "loop_rad2"])
def test_dropping_any_module_breaks_the_closure(build):
    u = ModuleUniverse(build())
    assert ARNeighbours(Catalogue(u.modules)).closure(stop=True)
    for i in range(len(u.modules)):
        rest = Catalogue(u.modules[:i] + u.modules[i + 1:])
        assert not ARNeighbours(rest).closure(stop=True), u.labels[i]


@pytest.mark.parametrize("build", [lambda: _linear(4), _d4,
                                   lambda: _nakayama2([["a", "b"], ["b", "a"]]),
                                   _loop_rad2, ORACLE_ALGEBRAS["nakayama3_rad3"],
                                   ORACLE_ALGEBRAS["nakayama2_rad3"]],
                         ids=["a4", "d4", "nakayama2_rad2", "loop_rad2", "nakayama3_rad3",
                              "nakayama2_rad3"])
def test_the_kept_state_gives_the_fresh_verdict_as_the_catalogue_grows(build, monkeypatch):
    # one ARNeighbours over a catalogue grown module by module, in the
    # sweep's discovery order and in three shuffles, must give after every
    # add the stop-test verdict and the refused keys a fresh one gives; the
    # catalogue is append-only, so no list shrinks or reorders.  Over the
    # Nakayama 2-cycle with rad^3 = 0 some tau X shares its dimension
    # vector with another module, so a search resumes on a grown bucket
    found = _spy_on_the_found_list(monkeypatch)
    assert ModuleUniverse(build()).certified
    orders = [found] + [random.Random(seed).sample(found, len(found)) for seed in range(3)]
    for order in orders:
        catalogue = Catalogue()
        kept = ARNeighbours(catalogue)
        for m in order:
            catalogue.add(m)
            got = kept.closure(stop=True)
            assert got == ARNeighbours(Catalogue(catalogue.modules)).closure(stop=True)
            # the algebra is connected: only the whole list is closed
            assert (got is not None) == (len(catalogue.modules) == len(found))
            assert kept.refused_closure_keys() == \
                ARNeighbours(Catalogue(catalogue.modules)).refused_closure_keys()


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS))
def test_the_stop_test_agrees_with_every_middle(name, monkeypatch):
    # the tau-orbit argument changes no verdict, and the closure the stop
    # test hands to the build is the one it would compute afresh
    sweep_as_built(monkeypatch)
    verdicts, closures = [], []
    closure = ARNeighbours.closure

    def spy(self, stop=False):
        c = closure(self, stop)
        if stop:
            closures.append(c)
            verdicts.append((c is not None, closed_with_every_middle(self.catalogue.modules)))
        return c

    monkeypatch.setattr(ARNeighbours, "closure", spy)
    u = ModuleUniverse(ORACLE_ALGEBRAS[name]())
    assert verdicts and verdicts[-1] == (True, True)
    assert all(new == old for new, old in verdicts)
    c = ARNeighbours(Catalogue(u.modules)).closure()
    assert closures[-1] == c
    assert (u.tau_of, u.tau_unresolved, u.is_inj) == (c.tau_of, c.tau_unresolved, c.is_inj)


def test_a_missing_projective_injective_is_caught_by_the_projective_count():
    # A4's projective-injective 1111#1 is no tau X, no summand of a radical
    # and no I / soc I of another module, and no orbit of A4 is periodic:
    # only the count of projectives notices that it is missing
    u = ModuleUniverse(_linear(4))
    i = u.labels.index("1111#1")
    rest = u.modules[:i] + u.modules[i + 1:]
    neighbours = ARNeighbours(Catalogue(rest))
    c = neighbours.closure()
    assert c.closed_under_translates and c.closed_under_radical_and_socle_quotients
    assert not any(t is not None and universe._tau_periodic(c.tau_of, j)
                   for j, t in enumerate(c.tau_of))
    assert not neighbours.closure(stop=True)
    assert not closed_with_every_middle(rest)


def test_a_periodic_orbit_needs_its_middle():
    # over k[x]/(x^4) tau is the identity, so every orbit is periodic;
    # {k, k[x]/(x^3), k[x]/(x^4)} is closed under tau, rad P and I / soc I
    # and holds the projective, but the almost split sequence ending at k
    # has the missing k[x]/(x^2) as its middle
    algebra = _loop(4)
    mods = [_uniserial(algebra, length) for length in (1, 3, 4)]
    neighbours = ARNeighbours(Catalogue(mods))
    c = neighbours.closure()
    assert c.closed_under_translates and c.closed_under_radical_and_socle_quotients
    assert not neighbours.closure(stop=True)
    neighbours.catalogue.add(_uniserial(algebra, 2))
    assert neighbours.closure(stop=True)


@pytest.mark.parametrize("name,middles,isos", [
    ("a4", 0, 0), ("a5", 0, 0), ("d4", 0, 0),
    ("nakayama2_rad2", 2, 0), ("nakayama3_rad3", 6, 0)])
def test_a_cold_build_builds_middles_only_on_periodic_orbits(name, middles, isos,
                                                              monkeypatch):
    # the stop test hands its closure to the certificate, proj_of_vertex
    # reads the projectives off the top test and tau X is identified
    # through the Nakayama functor, so none of them makes a Hom-basis
    # isomorphism test; a rep equal to a catalogue module is found without
    # one, and one whose arrow ranks differ is turned away without one, so
    # those left are the sweep's and the stop test's for reps that are
    # isomorphic to a found module but not equal to it, or share its ranks
    counts = {"almost_split_middle": 0, "_basis_has_iso": 0}
    for original in (ar.almost_split_middle, decompose._basis_has_iso):
        def spy(*args, _original=original):
            counts[_original.__name__] += 1
            return _original(*args)

        _spy_on(monkeypatch, original, spy)
    sweep_as_built(monkeypatch)
    assert ModuleUniverse(_d4() if name == "d4" else ORACLE_ALGEBRAS[name]()).certified
    assert counts["almost_split_middle"] == middles
    assert counts["_basis_has_iso"] == isos


ROOT = os.path.join(os.path.dirname(__file__), "..")
# file: (extension middles, Hom-basis isomorphism tests) of its cold build;
# E6 at --dim-bound 4, since the default cap refuses it
SWEEP_WORK = {
    "algebras/a2.json": (0, 0), "algebras/a3.json": (1, 0), "algebras/a3rad2.json": (0, 0),
    "algebras/d4.json": (13, 0), "algebras/loop_rad2.json": (0, 1),
    "algebras/nakayama2_rad3.json": (2, 2), "algebras/nakayama3_rad3.json": (3, 0),
    "perfbench/algebras/a2.json": (0, 0), "perfbench/algebras/a3.json": (1, 0),
    "perfbench/algebras/a3rad2.json": (0, 0), "perfbench/algebras/a3rad2_gf3.json": (0, 0),
    "perfbench/algebras/a4.json": (4, 0), "perfbench/algebras/a4_gf2.json": (4, 0),
    "perfbench/algebras/a4_gf3.json": (4, 0), "perfbench/algebras/a4_gf5.json": (4, 0),
    "perfbench/algebras/a4rad2.json": (0, 0), "perfbench/algebras/a5.json": (8, 0),
    "perfbench/algebras/a5_gf2.json": (8, 0), "perfbench/algebras/a5_gf3.json": (8, 0),
    "perfbench/algebras/a5_gf5.json": (8, 0), "perfbench/algebras/nakayama2_rad2.json": (0, 0),
    "algebras/scale/d5.json": (19, 2), "algebras/scale/e6.json": (56, 11),
}


def test_the_sweep_work_cases_cover_the_corpus():
    files = {"%s/%s" % (folder, n) for folder in ("algebras", "perfbench/algebras")
             for n in os.listdir(os.path.join(ROOT, folder)) if n.endswith(".json")}
    refused = {"algebras/loop.json", "perfbench/algebras/loop.json",
               "perfbench/algebras/kronecker.json"}
    assert refused <= files
    assert set(SWEEP_WORK) == files - refused | {"algebras/scale/d5.json",
                                                 "algebras/scale/e6.json"}


@pytest.mark.parametrize("path", sorted(SWEEP_WORK))
def test_a_certified_sweep_builds_no_middle_after_its_last_new_module(path, monkeypatch):
    # the stop test runs after the projectives and after every new module,
    # and the first list it finds closed ends the sweep
    events, isos = _spy_on_the_stop_test(monkeypatch), []
    build, iso = universe.extension_middle, decompose._basis_has_iso

    def middle_spy(*args):
        events.append("middle")
        return build(*args)

    def iso_spy(*args):
        isos.append(args)
        return iso(*args)

    _spy_on(monkeypatch, iso, iso_spy)
    monkeypatch.setattr(universe, "extension_middle", middle_spy)
    bound = (4,) * 6 if path.endswith("e6.json") else None
    u = ModuleUniverse(load_algebra_file(os.path.join(ROOT, path)), bound)
    assert u.certified
    tests = [event for event in events if event != "middle"]
    sizes = [size for size, _ in tests]
    assert sizes == list(range(sizes[0], len(u.modules) + 1))
    assert all(verdict is None for _, verdict in tests[:-1])
    assert isinstance(tests[-1][1], universe.Closure) and events[-1] == tests[-1]
    assert (events.count("middle"), len(isos)) == SWEEP_WORK[path]


def test_the_kronecker_refusal_at_dim_bound_2_does_pinned_work(monkeypatch):
    # (extension middles, End(M) builds, idempotent searches, Hom-basis
    # isomorphism tests) of the refused cold build: middles that an
    # automorphism of U splits are not built, a middle that is P(v) gets no
    # End test, over Q a trace form of rank 1 ends the End test, the
    # characteristic polynomials of End(M)'s basis end it before the
    # idempotent search, and a catalogue module with other arrow ranks or
    # another pencil det(x M_a + y M_b) up to a scalar gets no isomorphism
    # test: each of the 7 left finds the module isomorphic to the middle.
    # The invariant is computed once per rep: a module the sweep adds keeps
    # the one ``Catalogue.find`` measured
    counts = {"middle": 0, "end": 0, "idempotent": 0, "iso": 0, "ranks": 0}
    for key, owner, name in (("middle", universe, "extension_middle"),
                             ("end", EndAlgebra, "__init__"),
                             ("idempotent", decompose, "_idempotent_mod_radical"),
                             ("iso", universe, "_basis_has_iso"),
                             ("ranks", universe, "_arrow_ranks")):
        def spy(*args, _key=key, _original=getattr(owner, name)):
            counts[_key] += 1
            return _original(*args)

        monkeypatch.setattr(owner, name, spy)
    with pytest.raises(NotCertifiablyComplete):
        ModuleUniverse(load_algebra_file(os.path.join(BENCH_ALGEBRAS, "kronecker.json")),
                       (2, 2))
    assert counts == {"middle": 46, "end": 34, "idempotent": 0, "iso": 7, "ranks": 23}


def test_the_catalogue_tells_apart_reps_with_one_dimension_vector():
    # P1, P2 and S1 + S2 all have the dimension vector (1, 1); only the
    # projectives are modules, and the sum is identified summand by summand
    algebra = _nakayama2([["a", "b"], ["b", "a"]])
    u = ModuleUniverse(algebra)
    for v in range(u.n):
        assert u.identify(projective(algebra, v)) == u.proj_of_vertex[v]
    assert len(set(u.proj_of_vertex)) == 2
    sum_of_simples, _, _ = direct_sum([simple(algebra, 0), simple(algebra, 1)])
    assert sum_of_simples.dims == (1, 1)
    assert u.identify(sum_of_simples) is None
    simples = sorted(u.identify(simple(algebra, v)) for v in range(u.n))
    assert None not in simples
    assert u.identify_parts(sum_of_simples) == simples


def _check_almost_split(x, tau_x):
    e = almost_split_middle(x, tau_x)
    assert e.dims == tuple(a + b for a, b in zip(x.dims, tau_x.dims))
    split, _, _ = direct_sum([tau_x, x])
    assert not is_isomorphic(e, split)
    return e


@pytest.mark.parametrize("build", [lambda: _linear(3), lambda: _linear(4, 2),
                                   lambda: _nakayama2([["a", "b"], ["b", "a"]]),
                                   _loop_rad2, lambda: _loop(2, 2),
                                   lambda: _nakayama3([["a", "b", "c"], ["b", "c", "a"],
                                                       ["c", "a", "b"]])],
                         ids=["a3", "a4_gf2", "nakayama2_rad2", "loop_rad2",
                              "loop_rad2_gf2", "nakayama3_rad3"])
def test_every_almost_split_sequence_is_non_split(build):
    u = ModuleUniverse(build())
    for i, x in enumerate(u.modules):
        if not u.is_proj[i]:
            _check_almost_split(x, u.modules[u.tau_of[i]])


def test_almost_split_middles_on_linear_a3(a3):
    s1, s2, p1 = simple(a3, 0), simple(a3, 1), projective(a3, 0)
    p2 = projective(a3, 1)
    # 0 -> S2 -> M12 -> S1 -> 0 and 0 -> P2 -> P1 + S2 -> M12 -> 0
    m12 = _check_almost_split(s1, tau(s1))
    assert m12.dims == (1, 1, 0)
    assert is_isomorphic(tau(m12), p2)
    e = _check_almost_split(m12, tau(m12))
    assert is_isomorphic(e, direct_sum([p1, s2])[0])


def _uniserial(algebra, length, change=None):
    """k[x]/(x^length) over a loop algebra, in the basis given by change."""
    f = algebra.field
    shift = Mat.from_rows(f, [[f.one if c == r - 1 else f.zero for c in range(length)]
                              for r in range(length)])
    if change is not None:
        g = Mat.from_rows(f, change)
        shift = g.mul(shift).mul(inverse(g))
    return Rep(algebra, [length], [shift])


# changes of basis of k^2, invertible over Q and over GF(2)
CHANGES = [None, [[0, 1], [1, 0]], [[1, 1], [0, 1]], [[1, 0], [1, 1]], [[2, 1], [1, 1]]]


@pytest.mark.parametrize("characteristic", [0, 2])
def test_almost_split_class_lies_in_the_socle(characteristic):
    # over k[x]/(x^4), X = k[x]/(x^2) has End(X) = k[x]/(x^2) and a
    # two-dimensional Ext^1(X, X) with a one-dimensional socle; a class
    # outside the socle has the projective k[x]/(x^4) as its middle, the
    # almost split one the sum of the neighbours k and k[x]/(x^3)
    algebra = _loop(4, characteristic)
    neighbours, _, _ = direct_sum([_uniserial(algebra, 1), _uniserial(algebra, 3)])
    for change_x, change_t in itertools.product(CHANGES, CHANGES):
        x = _uniserial(algebra, 2, change_x)
        tau_x = _uniserial(algebra, 2, change_t)
        assert is_isomorphic(tau(x), tau_x)
        end = EndAlgebra(x)
        assert end.dim == 2
        e = _check_almost_split(x, tau_x)
        assert is_isomorphic(e, neighbours), (change_x, change_t)
        # pulled back along a radical endomorphism of X the class splits
        c = almost_split_cocycle(x, tau_x)
        split, _, _ = direct_sum([tau_x, x])
        for coords in end.core().radical_basis():
            r = end.morphism_of(coords)
            pulled = [blk.mul(r.maps[a.source]) for blk, a in zip(c, algebra.quiver.arrows)]
            assert is_isomorphic(extension_middle(x, tau_x, pulled), split)


def _old_bounded_multisets(found, allowed, total):
    """The list the sweep built before it took a generator."""
    out = []

    def rec(pos, remaining, acc):
        if remaining == 0:
            if acc:
                out.append(tuple(acc))
            return
        for k in range(pos, len(allowed)):
            idx, bound = allowed[k]
            d = found[idx].total_dim
            for mult in range(1, bound + 1):
                if mult * d > remaining:
                    break
                rec(k + 1, remaining - mult * d, acc + [idx] * mult)

    rec(0, total, [])
    return out


@pytest.mark.parametrize("build", [lambda: _linear(4), _d4,
                                   lambda: _nakayama2([["a", "b"], ["b", "a"]]),
                                   lambda: _nakayama2([["a", "b", "a"], ["b", "a", "b"]])],
                         ids=["a4", "d4", "nakayama2_rad2", "nakayama2_rad3"])
def test_bounded_multisets_are_yielded_in_the_old_order(build):
    u = ModuleUniverse(build())
    mods = u.modules
    top = max(m.total_dim for m in mods)
    compared = 0
    for v in range(u.n):
        sv = u.identify(simple(u.algebra, v))
        # the sweep's bounds, and doubled ones for deeper recursion
        for scale in (1, 2):
            for t in range(2, top + 3):
                allowed = [(idx, scale * u.ext[sv][idx]) for idx in range(len(mods))
                           if mods[idx].total_dim <= t - 1 and u.ext[sv][idx] > 0]
                got = ModuleUniverse._bounded_multisets(mods, allowed, t - 1)
                assert iter(got) is got
                want = _old_bounded_multisets(mods, allowed, t - 1)
                assert list(got) == want
                compared += len(want)
    assert compared > 0


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS) + ["d4", "kronecker_2",
                                                            "kronecker_3"])
def test_injectivity_and_tau_minus_agree_with_the_direct_routes(name):
    if name.startswith("kronecker"):
        # refused builds: the found list is not closed under tau^-
        bound = int(name[-1])
        u = ModuleUniverse(_bench("kronecker")(), (bound, bound),
                           require_certificate=False)
        assert not u.certified
    else:
        u = ModuleUniverse(_d4() if name == "d4" else ORACLE_ALGEBRAS[name]())
        assert u.certified
    preimage = {t: x for x, t in enumerate(u.tau_of) if t is not None}
    assert len(preimage) == sum(t is not None for t in u.tau_of)
    for i, m in enumerate(u.modules):
        assert u.is_inj[i] == is_injective_rep(m), u.labels[i]
        if not u.is_inj[i]:
            assert u.identify(tau_minus(m)) == preimage.get(i), u.labels[i]
            assert i in preimage or not u.certified
    direct = all(u.identify_parts(tau(m)) is not None
                 for i, m in enumerate(u.modules) if not u.is_proj[i]) and \
        all(u.identify_parts(tau_minus(m)) is not None
            for i, m in enumerate(u.modules) if not u.is_inj[i])
    assert u.certificate["closed_under_translates"] == direct


def _count_calls(monkeypatch, names):
    """Count calls to the named kernel functions wherever tauseq binds them."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        original = getattr(ar, name, None) or getattr(modules, name)

        def spy(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for mod in (modules, ar, universe):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    return counts


@pytest.mark.parametrize("route", ["thin_tree", "no_thin_tree", "dynkin"])
def test_a_cold_build_computes_one_presentation_per_non_projective(route, monkeypatch):
    # the first two routes patch the Dynkin reading off, which reads every
    # tau X, with no presentation, off the Coxeter matrix, and builds the
    # modules only when they are read, one tau-minus per non-injective
    if route != "dynkin":
        monkeypatch.setattr(universe, "_dynkin", lambda algebra: None)
    if route == "no_thin_tree":
        monkeypatch.setattr(universe, "_thin_tree", lambda *args: False)
    counts = _count_calls(monkeypatch, ["tau", "tau_minus", "transpose", "min_presentation",
                                        "projective_cover", "is_tau_of"])
    u = ModuleUniverse(_bench("a5")())
    built = dict(counts)
    assert len(u.modules) == 15 and u.certified
    # tau X is identified off the presentation, never built; the
    # presentation is read in path coordinates, with no cover of its own
    assert built["tau"] == built["tau_minus"] == built["transpose"] == 0
    assert counts["tau"] == counts["projective_cover"] == 0
    assert built["min_presentation"] == (0 if route == "dynkin" else 10) == \
        (0 if u._pres is None else sum(p is not None for p in u._pres))
    assert sum(not p for p in u.is_proj) == sum(not i for i in u.is_inj) == 10
    # reading the modules of the Dynkin build walks the tau-minus orbits:
    # each Tr D presents its dual once
    walks = 10 if route == "dynkin" else 0
    assert counts["tau_minus"] == counts["transpose"] == walks
    assert counts["min_presentation"] == built["min_presentation"] + walks
    # A5 has one module per dimension vector: one test per non-projective,
    # and none when each tau X, thin on a path, is the one module of its
    # bucket
    assert counts["is_tau_of"] == (10 if route == "no_thin_tree" else 0)


def _spy_on(monkeypatch, original, spy):
    """Rebind the function original to spy wherever tauseq binds it."""
    for mod in (modules, decompose, ar, universe, verify):
        if getattr(mod, original.__name__, None) is original:
            monkeypatch.setattr(mod, original.__name__, spy)


@pytest.mark.parametrize("name", ["a3", "a5", "nakayama2_rad3"])
def test_no_library_path_reaches_the_cover_route(name, monkeypatch):
    # the Ext rows and the projectivity test read the minimal presentation;
    # the projective cover and the kernel module stay for the oracles
    calls = []
    for original in (modules.projective_cover, modules.kernel):
        def spy(*args, _original=original):
            calls.append(_original.__name__)
            return _original(*args)

        _spy_on(monkeypatch, original, spy)
    u = ModuleUniverse(ORACLE_ALGEBRAS[name]())
    assert len(u.ext) == len(u.modules)
    assert verify.suite_enumeration(u).ok
    assert calls == []


@pytest.mark.parametrize("name", ["a5", "kronecker_2"])
def test_a_cold_build_builds_no_translate_and_reads_injectivity_off_the_socle(name,
                                                                             monkeypatch):
    translates, decomposed = [], []
    tau_, parts_ = ar.tau, decompose.indecomposable_parts

    def tau_spy(*args):
        translates.append(tau_(*args))
        return translates[-1]

    def parts_spy(m):
        decomposed.append(m)
        return parts_(m)

    def injective_oracle(m):
        raise AssertionError("the build called is_injective_rep")

    _spy_on(monkeypatch, tau_, tau_spy)
    _spy_on(monkeypatch, parts_, parts_spy)
    _spy_on(monkeypatch, ar.is_injective_rep, injective_oracle)
    if name == "a5":
        assert ModuleUniverse(_bench("a5")()).certified
    else:
        with pytest.raises(NotCertifiablyComplete):
            ModuleUniverse(_bench("kronecker")(), (2, 2))
    assert translates == []
    # rad P and I / soc I are read off the paths and P(v) is local, so
    # nothing is decomposed
    assert decomposed == []


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS) + ["d4", "kronecker_3"])
def test_the_socle_test_of_injectivity_matches_the_dual_cover(name):
    # every module, the tau image included, which the closure never tests
    if name == "kronecker_3":
        u = ModuleUniverse(_bench("kronecker")(), (3, 3), require_certificate=False)
    else:
        u = ModuleUniverse(_d4() if name == "d4" else ORACLE_ALGEBRAS[name]())
    neighbours = ARNeighbours(Catalogue(u.modules))
    vertices = [neighbours.injective_vertex(i) for i in range(len(u.modules))]
    flags = [v is not None for v in vertices]
    assert flags == [is_injective_rep(m) for m in u.modules]
    assert any(flags) and not all(flags)
    # the top of the dual is the socle: one simple S_v at the vertex
    for m, v in zip(u.modules, vertices):
        if v is not None:
            assert [span.cols for span in socle_spans(m)] == \
                [int(w == v) for w in range(u.n)]
    # the vertex is the socle's: the module is I(v), the dual of P(v) over
    # the opposite algebra
    op = opposite(u.algebra)
    assert all(is_isomorphic(m, dualize(projective(op, v)))
               for m, v in zip(u.modules, vertices) if v is not None)


@pytest.mark.parametrize("name", sorted(ORACLE_ALGEBRAS) + ["d4", "kronecker_3"])
def test_the_top_test_of_projectivity_matches_the_cover(name):
    if name == "kronecker_3":
        u = ModuleUniverse(_bench("kronecker")(), (3, 3), require_certificate=False)
    else:
        u = ModuleUniverse(_d4() if name == "d4" else ORACLE_ALGEBRAS[name]())
    vertices = [universe._projective_vertex(m) for m in u.modules]
    flags = [v is not None for v in vertices]
    # the syzygy of the cover is zero; the library reads the same off its
    # minimal presentation (``ar.is_projective_rep``)
    assert flags == [not presentation_by_covers(m).p1_vertices for m in u.modules] == \
        [ar.is_projective_rep(m) for m in u.modules]
    assert any(flags) and not all(flags)
    assert all(is_isomorphic(m, projective(u.algebra, v))
               for m, v in zip(u.modules, vertices) if v is not None)


def test_the_kronecker_refusal_identifies_one_translate(monkeypatch, capsys):
    # the first module in sorted order that is not projective is S1, whose
    # tau lies above the cap: that settles both translate keys.  Its one
    # presentation gives the dimension vector of tau S1, which no found
    # module has, so no candidate is tested and no translate is built.  The
    # stop test's first walk and the refusal's walk each end at S1; the
    # second resumes the first one's search and tests nothing
    counts = _count_calls(monkeypatch, ["tau", "min_presentation", "is_tau_of"])
    identified = []
    translate = ARNeighbours.translate

    def spy(self, i):
        identified.append(self.catalogue.modules[i].dims)
        return translate(self, i)

    monkeypatch.setattr(ARNeighbours, "translate", spy)
    code = main(["tes", os.path.join(BENCH_ALGEBRAS, "kronecker.json"), "enumerate",
                 "--dim-bound", "2"])
    assert code == 2 and "closed_under_translates': False" in capsys.readouterr().err
    assert identified == [(1, 0), (1, 0)]
    assert counts == {"tau": 0, "min_presentation": 1, "is_tau_of": 0}


def test_the_stop_test_ends_at_the_first_translate_it_cannot_identify(monkeypatch, capsys):
    # at the default bound the stop test runs after every module the
    # Kronecker sweep adds, until the guard stops it: a walk in canonical
    # order ends at the first module whose tau X is not found, and the list
    # gets no injective flags and no radical closure.  A call walks nothing
    # while that module's tau X has no new candidate, and the translates
    # found before are not tested again
    walks = []
    inside = []
    closure, translate, radical_closed = (ARNeighbours.closure, ARNeighbours.translate,
                                          ARNeighbours.radical_closed)

    def closure_spy(self, stop=False):
        assert stop, "the refused build computed the whole closure"
        walks.append([])
        inside.append(True)
        try:
            return closure(self, stop)
        finally:
            inside.pop()

    def translate_spy(self, i):
        t = translate(self, i)
        if inside:
            walks[-1].append(t)
        return t

    def radical_spy(self, *args):
        assert not inside, "the stop test closed a list with an unresolved tau"
        return radical_closed(self, *args)

    monkeypatch.setattr(ARNeighbours, "closure", closure_spy)
    monkeypatch.setattr(ARNeighbours, "translate", translate_spy)
    monkeypatch.setattr(ARNeighbours, "radical_closed", radical_spy)
    counts = _count_calls(monkeypatch, ["min_presentation"])
    code = main(["tes", os.path.join(BENCH_ALGEBRAS, "kronecker.json"), "enumerate"])
    assert code == 2 and "exceeds the sweep guard" in capsys.readouterr().err
    walked = [walk for walk in walks if walk]
    assert all(walk[-1] is None and None not in walk[:-1] for walk in walked)
    assert 1 < len(walked) < len(walks)
    # far fewer presentations than the 23 non-projective modules found
    assert counts["min_presentation"] == 6


@pytest.mark.parametrize("name,bound", [("kronecker", (2, 2)), ("kronecker", (3, 3)),
                                        ("a3", (1, 1, 1)), ("e6", None)]
                         + [(name, None) for name in sorted(ORACLE_ALGEBRAS)])
def test_the_sweep_adds_no_module_above_the_cap(name, bound, monkeypatch):
    # the sweep aborts at a module above the cap instead of adding it, so
    # the list it returns is the list the build keeps, and the count is
    # stable up to the cap plus one exactly when the sweep completed
    if name == "e6":
        algebra = load_algebra_file(os.path.join(ROOT, "algebras", "scale", "e6.json"))
    else:
        algebra = _linear(3) if name == "a3" else ORACLE_ALGEBRAS.get(name, _bench(name))()
    found = _spy_on_the_found_list(monkeypatch)
    u = ModuleUniverse(algebra, bound, require_certificate=False)
    assert all(universe._dims_leq(m.dims, u.dim_bound) for m in found)
    assert sorted(found, key=lambda m: (m.total_dim, m.dims)) == u.modules
    assert u.certificate["stable_under_cap_plus_one"] == u.certificate["sweep_completed"]
    reason = u.certificate.get("sweep_aborted_because", "")
    if bound == (2, 2):
        # the Kronecker sweep meets a module above this cap
        assert reason.startswith("indecomposable with dimension vector")
    assert u.certified == (bound is None and name != "e6")


@pytest.mark.parametrize("name,bound", [("kronecker", (2, 2)), ("kronecker", (3, 3)),
                                        ("a3", (1, 1, 1))])
def test_a_refused_certificate_equals_the_whole_closure(name, bound, monkeypatch):
    # A3 at the cap (1, 1, 1) is refused only for touching the cap; every
    # tau is found there, so the whole closure decides the keys
    algebra = _linear(3) if name == "a3" else _bench(name)()
    built = []
    check = ModuleUniverse._check_closure
    sweep_as_built(monkeypatch)

    def spy(self, *args):
        built.append(self)
        return check(self, *args)

    monkeypatch.setattr(ModuleUniverse, "_check_closure", spy)
    with pytest.raises(NotCertifiablyComplete):
        ModuleUniverse(algebra, bound)
    monkeypatch.undo()
    (u,) = built
    c = ARNeighbours(Catalogue(u.modules)).closure()
    expected = [("translate_table_complete", False)] if any(c.tau_unresolved) else []
    expected += [("closed_under_translates", c.closed_under_translates),
                 ("closed_under_radical_and_socle_quotients",
                  c.closed_under_radical_and_socle_quotients)]
    assert [(k, v) for k, v in u.certificate.items()
            if k in ("translate_table_complete", "closed_under_translates",
                     "closed_under_radical_and_socle_quotients")] == expected
    assert (name == "a3") == (not any(c.tau_unresolved))
    unrefused = ModuleUniverse(algebra, bound, require_certificate=False)
    assert list(unrefused.certificate.items()) == list(u.certificate.items())


@pytest.mark.parametrize("build", [lambda: _linear(4), _d4,
                                   lambda: _nakayama2([["a", "b"], ["b", "a"]])],
                         ids=["a4", "d4", "nakayama2_rad2"])
def test_the_refused_keys_match_the_closure_without_any_one_module(build):
    # dropping a module leaves some tau unfound, or a summand of a radical
    # or a socle quotient, or both, or neither
    u = ModuleUniverse(build())
    radical_fails = 0
    for i in range(len(u.modules)):
        rest = u.modules[:i] + u.modules[i + 1:]
        keys = ARNeighbours(Catalogue(rest)).refused_closure_keys()
        c = ARNeighbours(Catalogue(rest)).closure()
        if not any(c.tau_unresolved):
            assert keys is None
            continue
        assert keys == {"translate_table_complete": False, "closed_under_translates": False,
                        "closed_under_radical_and_socle_quotients":
                            c.closed_under_radical_and_socle_quotients}
        radical_fails += not c.closed_under_radical_and_socle_quotients
    assert radical_fails


def test_ext_rows_from_a_presentation_match_those_from_a_cover():
    u = ModuleUniverse(_linear(4))
    for m in u.modules:
        given, own = Ext1From(m, min_presentation(m)), Ext1From(m, presentation_by_covers(m))
        assert list(given.top) == list(own.top)
        assert given.syzygy.dims == own.syzygy.dims
        assert [given.dim(n) for n in u.modules] == [own.dim(n) for n in u.modules]
