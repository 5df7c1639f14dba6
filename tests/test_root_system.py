"""The Dynkin reading of ``universe`` against the routes it replaces.

On the path algebra of a Dynkin quiver there is one indecomposable per
positive root, over every field (Gabriel), and dim tau X = Phi(dim X) for
the Coxeter matrix Phi = -E^-1 E^T (Auslander-Reiten-Smalo ch. VIII).  So
``universe._dynkin`` lets the build read tau X, the projective and
injective flags and tau-rigidity off dimension vectors, and a cold
``inspect`` solves nothing and sweeps for no module (``test_root_read``
compares the whole root-read universe with the swept one).  The oracles:

- Phi(dim X) against ``ar.tau_dims`` of a minimal presentation, for every
  non-projective X of every hereditary Dynkin file of the corpus, each also
  over GF(2), GF(3) and GF(5);
- the flags against the top test ``universe._projective_vertex`` and its
  dual, and tau-rigidity against dim Hom(X, tau X);
- Sylvester's test of the Tits form on the Dynkin trees in every
  orientation, and on quivers and algebras that are not Dynkin.
"""

import glob
import os

import pytest
from hypothesis import given, settings, strategies as st

from tauseq import ar, cli, decompose, modules, quiver, universe
from tauseq.ar import tau_dims
from tauseq.cli import load_algebra_file
from tauseq.fields import FieldSpec
from tauseq.modules import dualize, hom_dim, min_presentation
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ARNeighbours, Catalogue, ModuleUniverse

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
               glob.glob(os.path.join(ROOT, "algebras", "scale", "*.json")) +
               glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json")))
# the hereditary Dynkin files; E6 is certified from --dim-bound 4 on
DYNKIN_FILES = {
    name: (4,) * 6 if name.endswith("e6.json") else None for name in (
        "algebras/a2.json", "algebras/a3.json", "algebras/d4.json",
        "algebras/scale/d5.json", "algebras/scale/e6.json",
        "perfbench/algebras/a2.json", "perfbench/algebras/a3.json",
        "perfbench/algebras/a4.json", "perfbench/algebras/a4_gf2.json",
        "perfbench/algebras/a4_gf3.json", "perfbench/algebras/a4_gf5.json",
        "perfbench/algebras/a5.json", "perfbench/algebras/a5_gf2.json",
        "perfbench/algebras/a5_gf3.json", "perfbench/algebras/a5_gf5.json")}


def _load(name):
    return load_algebra_file(os.path.join(ROOT, name))


def _twin(algebra, characteristic):
    """The same quiver and relations over another field."""
    if characteristic is None:
        return algebra
    q = algebra.quiver
    return build_algebra(q, FieldSpec(characteristic),
                         [[q.arrows[a].name for a in rel] for rel in algebra.relations])


def test_the_dynkin_files_are_the_hereditary_certified_ones():
    # every file without relations but the Kronecker quiver and the loop,
    # which are refused
    names = []
    for path in FILES:
        name = os.path.relpath(path, ROOT)
        try:
            algebra = load_algebra_file(path)
        except cli.InputError:
            assert os.path.basename(name) == "loop.json"
            continue
        assert (universe._dynkin(algebra) is not None) == (name in DYNKIN_FILES)
        if not algebra.relations and name != "perfbench/algebras/kronecker.json":
            names.append(name)
    assert sorted(names) == sorted(DYNKIN_FILES)


@pytest.mark.parametrize("characteristic", [None, 2, 3, 5], ids=["own", "gf2", "gf3", "gf5"])
@pytest.mark.parametrize("name", sorted(DYNKIN_FILES))
def test_the_root_system_gives_what_the_modules_give(name, characteristic):
    algebra = _twin(_load(name), characteristic)
    phi = universe._dynkin(algebra)
    assert phi is not None
    u = ModuleUniverse(algebra, DYNKIN_FILES[name])
    assert u.certified
    # one indecomposable per positive root: no dimension vector repeats
    assert len({m.dims for m in u.modules}) == len(u.modules)
    neighbours = ARNeighbours(Catalogue(u.modules))
    for i, m in enumerate(u.modules):
        projective = universe._projective_vertex(m)
        assert neighbours.projective_vertex(i) == projective
        assert neighbours.injective_vertex(i) == universe._projective_vertex(dualize(m))
        assert (projective is not None) == u.is_proj[i]
        if projective is None:
            assert universe._coxeter(phi, m.dims) == tau_dims(min_presentation(m))
            assert u.modules[u.tau_of[i]].dims == universe._coxeter(phi, m.dims)
        else:
            # Phi(dim P(v)) = -dim I(v)
            assert universe._coxeter(phi, m.dims) == tuple(
                -d for d in dualize(modules.projective(quiver.opposite(algebra),
                                                       projective)).dims)
        t = u.tau_of[i]
        assert u.tau_rigid[i] == (t is None or hom_dim(m, u.modules[t]) == 0)


def _spy_calls(monkeypatch, names):
    """Count calls to the named functions wherever tauseq binds them."""
    calls = dict.fromkeys(names, 0)
    for name in names:
        original = next(getattr(mod, name) for mod in (modules, quiver, ar)
                        if hasattr(mod, name))

        def spy(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for mod in (modules, quiver, ar, decompose, universe, cli):
            if getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.mark.parametrize("name", ["perfbench/algebras/a5.json", "algebras/scale/d5.json",
                                  "algebras/scale/e6.json"])
def test_a_cold_dynkin_inspect_solves_nothing_the_roots_give(name, monkeypatch, capsys):
    # nor any sweep: no extension middle, no Ext^1(S, M), no Hom basis
    calls = _spy_calls(monkeypatch, ["min_presentation", "dualize", "opposite", "hom_dim",
                                     "extension_middle", "SimpleExt", "hom_basis"])
    argv = ["inspect", os.path.join(ROOT, name), "--json"]
    if name.endswith("e6.json"):
        argv += ["--dim-bound", "4"]
    assert cli.main(argv) == 0
    assert '"certified": true' in capsys.readouterr().out
    assert calls == dict.fromkeys(calls, 0)


@pytest.mark.parametrize("name", ["algebras/a3rad2.json", "perfbench/algebras/nakayama2_rad2.json"])
def test_off_the_root_system_only_an_injective_dimension_vector_is_dualized(name, monkeypatch):
    algebra = _load(name)
    assert universe._dynkin(algebra) is None
    op = quiver.opposite(algebra)
    injective_dims = {dualize(modules.projective(op, v)).dims for v in range(algebra.n)}
    dualized, dual = [], universe.dualize

    def spy(m):
        dualized.append(m.dims)
        return dual(m)

    monkeypatch.setattr(universe, "dualize", spy)
    u = ModuleUniverse(algebra)
    assert dualized and set(dualized) <= injective_dims
    # asked about every module, the tau image included, which the closure
    # never tests
    dualized.clear()
    neighbours = ARNeighbours(Catalogue(u.modules))
    flags = [neighbours.injective_vertex(i) is not None for i in range(len(u.modules))]
    assert dualized == [m.dims for m in u.modules if m.dims in injective_dims]
    assert len(dualized) < len(u.modules)
    assert flags == u.is_inj == [universe._projective_vertex(dual(m)) is not None
                                 for m in u.modules]


# the Dynkin trees, as edge lists on vertices 0..n-1
TREES = {
    "A2": [(0, 1)], "A3": [(0, 1), (1, 2)], "A4": [(0, 1), (1, 2), (2, 3)],
    "A5": [(0, 1), (1, 2), (2, 3), (3, 4)], "D4": [(0, 1), (1, 2), (1, 3)],
    "D5": [(0, 1), (1, 2), (2, 3), (2, 4)],
    "E6": [(0, 1), (1, 2), (2, 3), (3, 4), (2, 5)],
}


def _quiver(n, arrows):
    return Quiver([str(v) for v in range(n)],
                  [("a%d" % k, str(s), str(t)) for k, (s, t) in enumerate(arrows)])


def _oriented(name, flips, order):
    """The tree with each edge k reversed when flips[k], its vertices
    renamed by the permutation order."""
    edges = TREES[name]
    return _quiver(len(order), [(order[t], order[s]) if flip else (order[s], order[t])
                                for (s, t), flip in zip(edges, flips)])


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_every_orientation_of_a_dynkin_tree_is_definite(data):
    name = data.draw(st.sampled_from(sorted(TREES)))
    n = len(TREES[name]) + 1
    q = _oriented(name, data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)),
                  data.draw(st.permutations(range(n))))
    assert universe._tits_definite(q)
    assert universe._dynkin(build_algebra(q, FieldSpec(0))) is not None


@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_every_orientation_gets_its_translates_from_the_coxeter_matrix(data):
    # the build of a drawn orientation, in an unlisted field too, against
    # the presentation route
    name = data.draw(st.sampled_from(["A2", "A3", "A4", "D4", "D5"]))
    n = len(TREES[name]) + 1
    q = _oriented(name, data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)),
                  data.draw(st.permutations(range(n))))
    algebra = build_algebra(q, FieldSpec(data.draw(st.sampled_from([0, 2, 3]))))
    u = ModuleUniverse(algebra)
    phi = universe._dynkin(algebra)
    # a positive root per indecomposable: n (n + 1) / 2 in type A, n (n - 1) in type D
    assert len(u.modules) == (n * (n + 1) // 2 if name[0] == "A" else n * (n - 1))
    for m, proj, t in zip(u.modules, u.is_proj, u.tau_of):
        if not proj:
            assert universe._coxeter(phi, m.dims) == tau_dims(min_presentation(m)) == \
                u.modules[t].dims


NOT_DYNKIN = {
    "kronecker": (2, [(0, 1), (0, 1)]),
    "loop": (1, [(0, 0)]),
    "two-cycle": (2, [(0, 1), (1, 0)]),
    "A~2": (3, [(0, 1), (1, 2), (0, 2)]),
    "D~4": (5, [(0, 4), (1, 4), (2, 4), (3, 4)]),
}


@pytest.mark.parametrize("name", sorted(NOT_DYNKIN))
def test_a_quiver_outside_the_dynkin_diagrams_is_not_definite(name):
    n, arrows = NOT_DYNKIN[name]
    q = _quiver(n, arrows)
    assert not universe._tits_definite(q)
    if name in ("kronecker", "A~2", "D~4"):   # the others have unbounded paths
        assert universe._dynkin(build_algebra(q, FieldSpec(0))) is None


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_an_algebra_with_relations_gets_no_dynkin_reading(data):
    # a definite quiver bound by a zero relation of length two
    name = data.draw(st.sampled_from(["A3", "A4", "A5", "D4", "D5", "E6"]))
    n = len(TREES[name]) + 1
    q = _oriented(name, data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)),
                  list(range(n)))
    paths = [(a.name, b.name) for a in q.arrows for b in q.arrows if a.target == b.source]
    if not paths:
        return
    algebra = build_algebra(q, FieldSpec(0), [data.draw(st.sampled_from(paths))])
    assert universe._tits_definite(q) and universe._dynkin(algebra) is None


def test_every_corpus_algebra_with_relations_gets_no_dynkin_reading():
    for path in FILES:
        if os.path.basename(path) == "loop.json":
            continue
        algebra = load_algebra_file(path)
        if algebra.relations:
            assert universe._dynkin(algebra) is None, path


def test_sylvester_reads_the_leading_minors():
    # [[2, -1], [-1, 2]] is the A2 form; [[1, 2], [2, 1]] has minors 1, -3;
    # [[0, 1], [1, 0]] fails at the first minor; [[2, 2], [2, 2]] at the second
    assert universe._positive_definite([[2, -1], [-1, 2]])
    assert not universe._positive_definite([[1, 2], [2, 1]])
    assert not universe._positive_definite([[0, 1], [1, 0]])
    assert not universe._positive_definite([[2, 2], [2, 2]])
    assert universe._positive_definite([])
