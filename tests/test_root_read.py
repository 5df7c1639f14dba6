"""Dynkin builds read off the positive roots, against the build that sweeps.

On the path algebra of a Dynkin quiver whose positive roots all lie under
the cap, ``ModuleUniverse`` builds no module: the labels, dimension vectors,
tau, the flags, tau-rigidity and the certificate come off the roots, hom and
Ext off the Euler form, and ``modules`` walks the tau-minus orbit of each
projective on its first read.  The oracles:

- the same build with the root reading patched out
  (``oracles.sweep_as_built``), which sweeps, closes and solves as any other
  build does, entry for entry, on every hereditary Dynkin file, each also
  over GF(2), GF(3) and GF(5), and on drawn orientations;
- the modules that first read finds, which have the roots as dimension
  vectors in canonical order and are isomorphic, position by position, to
  the modules the swept build keeps;
- the reports recorded before the roots were read, for a Dynkin build with
  a root above its cap, which still sweeps, and for E7 at ``--dim-bound 5``
  (``golden/dynkin_fallback.json``, keyed by the command, E7 written from
  ``E7`` below);
- E8 at ``--dim-bound 7`` and the four orientations of E6 whose sweep the
  cocycle guard stops short: their modules are the roots, each identified
  at its own position.
"""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from tauseq import cli, universe
from tauseq.cli import load_algebra_file, main
from tauseq.decompose import _basis_has_iso
from tauseq.fields import FieldSpec
from tauseq.modules import simple
from tauseq.quiver import build_algebra
from tauseq.universe import ModuleUniverse
from oracles import sweep_as_built
from test_root_system import DYNKIN_FILES, FILES, ROOT, TREES, _load, _oriented, _twin

with open(os.path.join(os.path.dirname(__file__), "golden", "dynkin_fallback.json")) as fh:
    GOLDEN = json.load(fh)
GUARD = "extension space of dimension 7 exceeds the sweep guard"
TABLES = ("labels", "dims", "tau_of", "tau_unresolved", "is_proj", "is_inj", "tau_rigid",
          "proj_of_vertex", "hom", "ext")


def _path_algebra_file(path, n, arrows):
    with open(path, "w") as fh:
        json.dump({"field": {"characteristic": 0}, "vertices": [str(v) for v in range(1, n + 1)],
                   "arrows": [{"name": "a%d" % k, "from": str(s), "to": str(t)}
                              for k, (s, t) in enumerate(arrows)],
                   "relations": []}, fh)
    return str(path)


# 1 -> 2 -> ... with the short arm's arrow into vertex 3
E7 = (7, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (7, 3)])
E8 = (8, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (8, 3)])


def _swept(algebra, bound, monkeypatch):
    """The build with the root reading patched out, its tables solved."""
    with monkeypatch.context() as patch:
        sweep_as_built(patch)
        u = ModuleUniverse(algebra, bound, require_certificate=False)
    u.hom, u.ext
    return u


def _read_modules(u):
    """The modules of a root-read build, checked against its roots and its
    own identification."""
    assert [m.dims for m in u.modules] == universe._positive_roots(u.algebra) == u.dims
    assert [u.identify(m) for m in u.modules] == list(range(len(u.dims)))
    return u.modules


def _agree(algebra, bound, monkeypatch):
    """The root-read build of algebra against the swept one, table for
    table, then its modules against the swept build's, up to
    isomorphism: the tau-minus orbits build other bases."""
    read = ModuleUniverse(algebra, bound, require_certificate=False)
    assert read._modules is None
    swept = _swept(algebra, bound, monkeypatch)
    for table in TABLES:
        assert getattr(read, table) == getattr(swept, table), table
    assert list(read.certificate.items()) == list(swept.certificate.items())
    assert read.certified == swept.certified
    # the tables came off the roots and the Euler form
    assert read._modules is None
    assert len(_read_modules(read)) == len(swept.modules)
    assert all(_basis_has_iso(m, n) for m, n in zip(read.modules, swept.modules))
    return read


@pytest.mark.parametrize("characteristic", [None, 2, 3, 5], ids=["own", "gf2", "gf3", "gf5"])
@pytest.mark.parametrize("name", sorted(DYNKIN_FILES))
def test_the_roots_give_the_swept_and_solved_universe(name, characteristic, monkeypatch):
    algebra = _twin(_load(name), characteristic)
    assert _agree(algebra, DYNKIN_FILES[name], monkeypatch).certified


@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_every_orientation_reads_the_swept_universe_off_its_roots(data):
    name = data.draw(st.sampled_from(["A2", "A3", "A4", "A5", "D4", "D5", "E6"]))
    n = len(TREES[name]) + 1
    q = _oriented(name, data.draw(st.lists(st.booleans(), min_size=n - 1, max_size=n - 1)),
                  data.draw(st.permutations(range(n))))
    algebra = build_algebra(q, FieldSpec(data.draw(st.sampled_from([0, 2, 3]))))
    bound = (4,) * n if name == "E6" else None
    with pytest.MonkeyPatch.context() as monkeypatch:
        swept = _swept(algebra, bound, monkeypatch)
    if swept.certificate["sweep_completed"]:
        with pytest.MonkeyPatch.context() as monkeypatch:
            _agree(algebra, bound, monkeypatch)
        return
    # four of the 32 orientations of E6 meet the cocycle guard before the
    # stop test closes their list; the roots certify them all the same, and
    # the tau-minus orbits give their modules
    assert name == "E6" and swept.certificate["sweep_aborted_because"] == GUARD
    read = ModuleUniverse(algebra, bound)
    assert read.certified and len(read.labels) == 36
    assert len(_read_modules(read)) == 36


@pytest.mark.parametrize("flips", ["FTFFF", "FTFTF", "TTFFF", "TTFTF"])
def test_the_e6_orientations_the_guard_stops_read_their_modules(flips, monkeypatch):
    algebra = build_algebra(_oriented("E6", [f == "T" for f in flips], range(6)), FieldSpec(0))
    bound = (4,) * 6
    assert _swept(algebra, bound, monkeypatch).certificate["sweep_aborted_because"] == GUARD
    read = ModuleUniverse(algebra, bound)
    assert read.certified and len(_read_modules(read)) == 36


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_a_root_above_the_cap_and_e7_keep_their_recorded_reports(key, capsys, monkeypatch,
                                                                 tmp_path):
    # D4 at --dim-bound 1 and E6 at --dim-bound 2 have a root above the cap,
    # so they sweep, and their reports, the refusal's text included, follow
    # the sweep's order
    monkeypatch.chdir(ROOT)
    command, name, *rest = key.split()
    path = {"d4.json": "algebras/d4.json", "e6.json": "algebras/scale/e6.json"}.get(name)
    if name == "e7.json":
        path = _path_algebra_file(tmp_path / name, *E7)
    code = main([command, path] + rest + (["--json"] if command == "inspect" else []))
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == GOLDEN[key]


def test_the_fallback_records_are_the_sweeps():
    reports = {key: json.loads(r["stdout"])["algebra"] if r["stdout"] else None
               for key, r in GOLDEN.items()}
    assert sorted(reports) == ["inspect d4.json --dim-bound 1", "inspect e6.json --dim-bound 2",
                               "inspect e7.json --dim-bound 5",
                               "tes d4.json enumerate --dim-bound 1"]
    assert reports["inspect e7.json --dim-bound 5"]["certified"]
    assert len(reports["inspect e7.json --dim-bound 5"]["indecomposables"]) == 63
    for key in ("inspect d4.json --dim-bound 1", "inspect e6.json --dim-bound 2"):
        assert reports[key]["certificate"]["sweep_aborted_because"].startswith(
            "indecomposable with dimension vector")
    assert "(1, 1, 1, 2) above the cap" in GOLDEN["tes d4.json enumerate --dim-bound 1"]["stderr"]


def test_e8_is_certified_by_its_roots_and_reads_its_modules(capsys, tmp_path):
    path = _path_algebra_file(tmp_path / "e8.json", *E8)
    assert main(["inspect", path, "--dim-bound", "7", "--json"]) == 0
    report = json.loads(capsys.readouterr().out)["algebra"]
    assert report["certified"] and len(report["indecomposables"]) == 120
    assert "sweep_aborted_because" not in report["certificate"]
    u = ModuleUniverse(load_algebra_file(path), (7,) * 8)
    assert u.certified and len(u.labels) == 120
    # the sweep for them would meet the cocycle guard after 100 modules
    assert len(_read_modules(u)) == 120


def _spy(monkeypatch, owner, name, calls):
    original = getattr(owner, name)

    def spy(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


@pytest.mark.parametrize("name,walks", [("algebras/scale/d5.json", 15),
                                        ("algebras/scale/e6.json", 30)])
def test_the_first_read_builds_no_middle(name, walks, monkeypatch):
    # one tau-minus per non-injective module, and no extension middle, End
    # test, catalogue search or invariant
    calls = {}
    for owner, spied in ((universe, "extension_middle"), (universe, "is_indecomposable"),
                         (universe, "_basis_has_iso"), (universe, "_arrow_ranks"),
                         (universe, "tau_minus")):
        _spy(monkeypatch, owner, spied, calls)
    u = ModuleUniverse(_load(name), DYNKIN_FILES[name])
    assert calls == {}
    assert len(u.modules) == len(u.labels)
    assert calls == {"tau_minus": walks} and walks == sum(not i for i in u.is_inj)


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_the_simple_alias_is_the_module_with_a_unit_vector(path):
    try:
        algebra = load_algebra_file(path)
    except cli.InputError:
        return   # the free loop is refused
    u = ModuleUniverse(algebra, (4,) * algebra.n if path.endswith("e6.json") else None,
                       require_certificate=False)
    for v in range(algebra.n):
        assert u.id_of_label("S%d" % (v + 1)) == u.identify(simple(algebra, v))


def test_tes_enumerate_under_a_simple_reads_no_module(capsys, monkeypatch):
    calls = {}
    _spy(monkeypatch, ModuleUniverse, "_enumerate", calls)
    _spy(monkeypatch, universe, "_basis_has_iso", calls)
    monkeypatch.chdir(ROOT)
    assert main(["tes", "perfbench/algebras/a4.json", "enumerate", "--j", "S1", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["count"] == 1
    assert calls == {}
