"""The table core on a bare ``Tables``, and its support enumerations
against the pairwise route.

A universe's filled tables, copied into a ``Tables`` with no module behind
it, must give the same support objects, lattices, sequence families,
mutation tables and transitivity words: the table core reads nothing else.
The rigid sets and support objects, listed by the compatibility masks of
``Tables``, must equal the lists of the pairwise Hom(M, tau N) route of
``tests/oracles.py``, in order, on every certified corpus build.
"""

import functools
import glob
import os

import pytest

from tauseq.cli import load_algebra_file
from tauseq.sequences import enumerate_tau_es, mutation_table, transitivity_path
from tauseq.tables import Tables
from tauseq.universe import ModuleUniverse
from tauseq.wide import all_torsion_classes, all_wide_subcategories, context_from_members

from oracles import support_objects_by_pairs, tau_rigid_subsets_by_pairs

ROOT = os.path.join(os.path.dirname(__file__), "..")
STAND_IN = {
    "a3": "algebras/a3.json",
    "a3rad2": "algebras/a3rad2.json",
    "d4": "algebras/d4.json",
    "nakayama3_rad3": "algebras/nakayama3_rad3.json",
    "a4": "perfbench/algebras/a4.json",
    "d5": "algebras/scale/d5.json",
}
# every file of the corpus but the refused ones; E6 is certified at
# --dim-bound 4 only
REFUSED = {"loop.json", "kronecker.json", "e6.json"}
CORPUS = sorted(os.path.relpath(p, ROOT) for d in ("algebras", "algebras/scale", "perfbench/algebras")
                for p in glob.glob(os.path.join(ROOT, d, "*.json"))
                if os.path.basename(p) not in REFUSED)
BUILDS = [pytest.param(path, None, id=path) for path in CORPUS] + [
    pytest.param("algebras/scale/e6.json", (4,) * 6, id="algebras/scale/e6.json-dim-bound-4")]


@functools.lru_cache(maxsize=None)
def universe(path, bound=None):
    return ModuleUniverse(load_algebra_file(os.path.join(ROOT, path)), bound)


def stand_in(u: ModuleUniverse) -> Tables:
    """A bare Tables holding copies of the universe's filled tables."""
    return Tables(u.n, list(u.labels), [list(row) for row in u.hom],
                  [list(row) for row in u.ext], list(u.tau_of), list(u.tau_rigid),
                  list(u.is_proj), list(u.proj_of_vertex))


@pytest.mark.parametrize("name", sorted(STAND_IN))
def test_a_bare_tables_stands_in_for_the_universe(name):
    u = universe(STAND_IN[name])
    t = stand_in(u)
    assert not hasattr(t, "modules")
    assert t.all_tau_rigid_subsets() == u.all_tau_rigid_subsets()
    assert t.all_support_objects() == u.all_support_objects()
    assert all_torsion_classes(t) == all_torsion_classes(u)
    wides = all_wide_subcategories(t)
    assert wides == all_wide_subcategories(u)
    for w in wides:
        assert enumerate_tau_es(t, w) == enumerate_tau_es(u, w), sorted(w)
        mine, theirs = (mutation_table(x, context_from_members(x, w)) for x in (t, u))
        assert (mine.phi, mine.psi) == (theirs.phi, theirs.psi), sorted(w)
    complete = enumerate_tau_es(u, frozenset())
    middle = complete[len(complete) // 2]
    for src, dst in ((complete[0], complete[-1]), (complete[-1], complete[0]),
                     (complete[0], middle), (middle, complete[-1])):
        assert transitivity_path(t, src, dst).steps == transitivity_path(u, src, dst).steps


@pytest.mark.parametrize("path,bound", BUILDS)
def test_the_mask_walk_lists_what_the_pairwise_route_lists(path, bound):
    u = universe(path, bound)
    assert u.all_tau_rigid_subsets() == tau_rigid_subsets_by_pairs(u)
    assert u.all_support_objects() == support_objects_by_pairs(u)
