"""The sweep's four shortcuts are theorems: with them patched out, every
build is the same.

- ``universe._automorphism_splits`` skips a middle whose class an
  automorphism of U kills at some summand, so that summand splits off;
- ``universe._may_be_new`` reads P(v) off its dimension vector and its top;
- ``decompose._local_by_trace_form`` certifies End(M) local over Q by the
  rank of its trace form, the kernel of which is the radical (Dickson);
- ``Catalogue.find`` turns a candidate away by its arrow ranks.

The oracles: the modules, their matrices and order, the labels, the
certificate and the translate table of every corpus build with and without
the four; a spy that decomposes every middle the sweep skips; and the
trace-form rank against the radical of the structure-constant algebra.
"""

import glob
import itertools
import os

import pytest

from tauseq import decompose, universe
from tauseq.ar import extension_middle
from tauseq.cli import InputError, load_algebra_file
from tauseq.decompose import EndAlgebra, indecomposable_parts, is_isomorphic
from tauseq.modules import block_sum, projective, simple
from tauseq.universe import ModuleUniverse

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
    monkeypatch.setattr(decompose, "_local_by_trace_form", lambda end: False)
    monkeypatch.setattr(universe, "_arrow_ranks", lambda m: ())


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
