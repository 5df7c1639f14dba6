"""The build's shortcuts are theorems: with them patched out, every build is
the same.

- ``universe._automorphism_splits`` skips a middle whose class an
  automorphism of U kills at some summand, so that summand splits off;
- ``universe._may_be_new`` reads P(v) off its dimension vector and its top;
- ``universe._thin_indecomposable`` reads a thin module's End(M) off its
  arrow graph: it is indecomposable when its nonzero arrows connect its
  support;
- ``universe._thin_tree`` finds tau X with no Hom solve when its dimension
  vector is thin on a tree, where every indecomposable is isomorphic;
- ``decompose._local_by_trace_form`` certifies End(M) local over Q by the
  rank of its trace form, the kernel of which is the radical (Dickson);
- ``decompose._by_characteristic_polynomials`` splits M, or certifies
  End(M) local, over Q from the factors of its basis elements' vertex
  characteristic polynomials;
- ``Catalogue.find`` turns a candidate away by its arrow ranks and its
  pencil determinants;
- ``universe._dynkin`` reads tau X, the projective and injective flags, the
  summands of rad P and I / soc I and tau-rigidity off the root system of a
  Dynkin quiver.

The oracles: the modules, their matrices and order, the labels, the
certificate and the translate table of every corpus build with and without
them; a spy that decomposes every middle the sweep skips; the trace-form
rank against the radical of the structure-constant algebra; and each shape
shortcut against the route it replaces, on the corpus builds and on drawn
modules.
"""

import glob
import itertools
import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tauseq import decompose, linalg, universe
from tauseq.ar import extension_middle, is_tau_of, tau_dims
from tauseq.cli import InputError, load_algebra_file
from tauseq.decompose import EndAlgebra, indecomposable_parts, is_isomorphic
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep, block_sum, min_presentation, projective, radical_spans, simple
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ModuleUniverse
from oracles import sweep_as_built

ROOT = os.path.join(os.path.dirname(__file__), "..")
KRONECKER = os.path.join(ROOT, "perfbench", "algebras", "kronecker.json")
E6 = os.path.join(ROOT, "algebras", "scale", "e6.json")
CASES = {os.path.relpath(path, ROOT): (path, None) for path in sorted(
    glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
    glob.glob(os.path.join(ROOT, "algebras", "scale", "*.json")) +
    glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json")))}
CASES["e6 --dim-bound 4"] = (E6, (4,) * 6)
for _bound in (2, 3):
    CASES["kronecker --dim-bound %d" % _bound] = (KRONECKER, (_bound, _bound))


def _patch_out(monkeypatch):
    monkeypatch.setattr(universe, "_automorphism_splits", lambda *args: False)
    monkeypatch.setattr(universe, "_may_be_new", decompose.is_indecomposable)
    monkeypatch.setattr(universe, "_thin_indecomposable", lambda m: None)
    monkeypatch.setattr(universe, "_thin_tree", lambda *args: False)
    monkeypatch.setattr(decompose, "_local_by_trace_form", lambda end: False)
    monkeypatch.setattr(decompose, "_by_characteristic_polynomials", lambda end: (False, None))
    monkeypatch.setattr(universe, "_arrow_ranks", lambda m: ())
    monkeypatch.setattr(universe, "_dynkin", lambda algebra: None)


def _build(path, bound):
    """What a build without the certificate gate reports, or its error."""
    try:
        u = ModuleUniverse(load_algebra_file(path), bound, require_certificate=False)
    except InputError as exc:
        return repr(exc)
    return ([(m.dims, m.mats) for m in u.modules], u.labels, list(u.certificate.items()),
            u.tau_of, u.tau_unresolved, u.is_inj, u.tau_rigid)


def test_the_cases_cover_the_corpus():
    assert {"algebras/d4.json", "algebras/scale/e6.json", "e6 --dim-bound 4",
            "perfbench/algebras/kronecker.json", "kronecker --dim-bound 2",
            "kronecker --dim-bound 3", "perfbench/algebras/a5_gf5.json"} <= set(CASES)
    assert len(CASES) == 8 + 2 + 16 + 3


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_shortcuts_change_no_build(name, monkeypatch):
    path, bound = CASES[name]
    fast = _build(path, bound)
    _patch_out(monkeypatch)
    assert fast == _build(path, bound)


# name: (middles an automorphism of U splits, middles that are P(v)), the
# middles each build skips
SKIPS = {"algebras/d4.json": (7, 3), "algebras/nakayama3_rad3.json": (0, 0),
         "algebras/scale/d5.json": (21, 3), "e6 --dim-bound 4": (214, 4),
         "perfbench/algebras/a5_gf5.json": (1, 2), "kronecker --dim-bound 2": (20, 12),
         "kronecker --dim-bound 3": (496, 12)}


@pytest.mark.parametrize("name", sorted(SKIPS))
def test_every_skipped_middle_is_decomposable_or_projective(name, monkeypatch):
    path, bound = CASES[name]
    algebra = load_algebra_file(path)
    splits, may_be_new = universe._automorphism_splits, universe._may_be_new
    skipped = {"split": 0, "projective": 0}

    def splits_spy(exts, tuples, pushed):
        verdict = splits(exts, tuples, pushed)
        if verdict:
            u = block_sum([x.module for x in exts])
            middle = extension_middle(simple(algebra, exts[0].vertex), u,
                                      universe._sum_cocycle(exts, tuples))
            assert len(indecomposable_parts(middle)) > 1
            skipped["split"] += 1
        return verdict

    def may_be_new_spy(middle):
        verdict = may_be_new(middle)
        if not verdict and decompose.is_indecomposable(middle):
            assert any(is_isomorphic(middle, projective(algebra, v))
                       for v in range(algebra.n))
            skipped["projective"] += 1
        return verdict

    monkeypatch.setattr(universe, "_automorphism_splits", splits_spy)
    monkeypatch.setattr(universe, "_may_be_new", may_be_new_spy)
    sweep_as_built(monkeypatch)
    ModuleUniverse(algebra, bound, require_certificate=False)
    assert (skipped["split"], skipped["projective"]) == SKIPS[name]


# every file over Q that builds certified at its default bound
RATIONAL = [name for name, (path, bound) in CASES.items() if bound is None and not any(
    word in name for word in ("kronecker", "loop.json", "e6", "_gf"))]


def test_the_trace_form_cases_are_over_q():
    assert len(RATIONAL) == 7 + 1 + 7
    for name in RATIONAL:
        assert load_algebra_file(CASES[name][0]).field.characteristic == 0, name


@pytest.mark.parametrize("name", RATIONAL)
def test_the_trace_form_rank_is_the_dimension_modulo_the_radical(name):
    # over Q the kernel of (x, y) -> tr_M(x y) is rad End(M), for every
    # module and every sum of two, local or not
    u = ModuleUniverse(load_algebra_file(CASES[name][0]))
    for m in list(u.modules) + [block_sum([a, b]) for a, b in
                                itertools.combinations_with_replacement(u.modules, 2)]:
        end = EndAlgebra(m)
        assert end.trace_form_rank() == end.dim - len(end.core().radical_basis())


def _thin_reps_asked(name, monkeypatch):
    """The build of the case and every module it asked the thin verdict
    about."""
    path, bound = CASES[name]
    asked, thin = [], universe._thin_indecomposable

    def spy(m):
        asked.append(m)
        return thin(m)

    monkeypatch.setattr(universe, "_thin_indecomposable", spy)
    u = ModuleUniverse(load_algebra_file(path), bound, require_certificate=False)
    monkeypatch.undo()
    return u, asked


# the cases that load: loop.json is refused as infinite-dimensional
BUILDS = sorted(name for name in CASES if os.path.basename(CASES[name][0]) != "loop.json")


@pytest.mark.parametrize("name", BUILDS)
def test_the_thin_verdict_is_the_end_test_on_every_corpus_build(name, monkeypatch):
    # every thin sweep middle the verdict decided, every thin module kept
    # and every sum of two kept thin modules with disjoint supports
    u, asked = _thin_reps_asked(name, monkeypatch)
    thin = [m for m in u.modules if universe._nonzero_arrows(m) is not None]
    sums = [block_sum([a, b]) for a, b in itertools.combinations(thin, 2)
            if not any(x and y for x, y in zip(a.dims, b.dims))]
    for m in asked + thin + sums:
        verdict = universe._thin_indecomposable(m)
        assert verdict is None or verdict == decompose.is_indecomposable(m)
    assert all(universe._thin_indecomposable(m) for m in thin)
    assert not any(universe._thin_indecomposable(m) for m in sums)


@pytest.mark.parametrize("name", BUILDS)
def test_a_thin_tree_translate_is_the_one_module_of_its_bucket(name):
    # the module the search takes without a Hom solve passes is_tau_of
    path, bound = CASES[name]
    u = ModuleUniverse(load_algebra_file(path), bound, require_certificate=False)
    taken = 0
    for m, proj in zip(u.modules, u.is_proj):
        if proj:
            continue
        pres = min_presentation(m)
        dims = tau_dims(pres)
        bucket = u._catalogue.bucket(dims)
        if universe._thin_tree(u.algebra, dims) and bucket:
            assert len(bucket) == 1 and is_tau_of(u.modules[bucket[0]], pres)
            taken += 1
    if name in ("perfbench/algebras/a5.json", "algebras/d4.json"):
        assert taken > 0


# small quivers whose thin modules have loops, parallel arrows and oriented
# cycles
_SHAPES = {
    "loops_and_parallel": (["1", "2"], [("x", "1", "1"), ("a", "1", "2"), ("b", "1", "2"),
                                        ("c", "2", "1"), ("y", "2", "2")],
                           [["x", "x"], ["y", "y"], ["a", "c"], ["b", "c"], ["c", "a"],
                            ["c", "b"], ["x", "a"], ["a", "y"], ["c", "x"], ["y", "c"]]),
    "cycle_and_chord": (["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1"),
                                          ("d", "1", "3"), ("e", "1", "2")],
                        [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"], ["d", "c"],
                         ["c", "d"], ["e", "b", "c"], ["c", "e"]]),
}


def _shape(name, characteristic):
    vertices, arrows, relations = _SHAPES[name]
    return build_algebra(Quiver(vertices, arrows), FieldSpec(characteristic), relations)


@pytest.mark.parametrize("characteristic", [0, 3])
@pytest.mark.parametrize("shape", sorted(_SHAPES))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_the_thin_shortcuts_agree_with_the_general_routes(shape, characteristic, data):
    algebra = _shape(shape, characteristic)
    f = algebra.field
    arrows = algebra.quiver.arrows
    dims = data.draw(st.lists(st.integers(0, 1), min_size=algebra.n, max_size=algebra.n))
    assume(any(dims))
    nonzero = {i for i, a in enumerate(arrows)
               if dims[a.source] and dims[a.target] and data.draw(st.booleans())}
    # the relations are monomial, so a thin module satisfies one exactly
    # when one of its arrows is zero
    for rel in algebra.relations:
        if set(rel) <= nonzero:
            nonzero.discard(rel[0])
    scalar = st.sampled_from([1, 2] if characteristic else [1, -1, Fraction(1, 2)])
    mats = [Mat.from_rows(f, [[f.coerce(data.draw(scalar)) if i in nonzero else f.zero]])
            if dims[a.source] and dims[a.target] else
            Mat.zeros(f, dims[a.target], dims[a.source]) for i, a in enumerate(arrows)]
    m = Rep(algebra, dims, mats)
    indecomposable = decompose.is_indecomposable(m)
    assert universe._thin_indecomposable(m) == indecomposable
    assert universe._top_dims(m) == [d - linalg.rank(span)
                                     for d, span in zip(m.dims, radical_spans(m))]
    if universe._thin_tree(algebra, m.dims) and indecomposable:
        # every arrow on the support is nonzero, and rescaling makes it 1
        ones = [Mat.from_rows(f, [[f.one]]) if x.rows and x.cols else x for x in m.mats]
        assert is_isomorphic(m, Rep(algebra, dims, ones))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_the_characteristic_polynomials_agree_with_the_idempotent_search(data):
    # on Kronecker modules over Q, mostly of dimension (2, 2), where every
    # vertex map is factored: when the factors decide, a split by g(x)
    # exactly when the search finds an idempotent modulo the radical
    algebra = load_algebra_file(KRONECKER)
    f = algebra.field
    dims = data.draw(st.sampled_from([(2, 2)] * 4 + [(3, 2), (2, 3)]))
    entry = st.sampled_from([0, 0, 1, -1, 2, Fraction(1, 2)])
    a, b = [Mat.from_rows(f, [[data.draw(entry) for _ in range(dims[0])]
                              for _ in range(dims[1])]) for _ in range(2)]
    m = Rep(algebra, dims, (a, b))
    end = EndAlgebra(m)
    decided, powers = decompose._by_characteristic_polynomials(end)
    if decided:
        assert (powers is None) == (decompose._idempotent_mod_radical(m, end) is None)


def test_the_characteristic_polynomials_decide_both_ways():
    # M(1, t) + M(1, 2t) on (2, 2): a = I and b = diag(0, 2) has two
    # eigenvalues; the sqrt 2 module has End(M) = Q(sqrt 2), whose basis
    # element b has the irreducible t^2 - 2 of degree 2 = dim End(M) / rad
    algebra = load_algebra_file(KRONECKER)
    f = algebra.field
    ident = Mat.from_rows(f, [[1, 0], [0, 1]])
    for b, local in (([[0, 0], [0, 2]], False), ([[0, 2], [1, 0]], True)):
        m = Rep(algebra, (2, 2), (ident, Mat.from_rows(f, b)))
        decided, powers = decompose._by_characteristic_polynomials(EndAlgebra(m))
        assert decided and (powers is None) == local == decompose.is_indecomposable(m)
