"""The ambient routes of tests/oracles.py against the library's tables."""

import functools
import os

import pytest

from tauseq.cli import load_algebra_file
from tauseq.sequences import enumerate_tau_es
from tauseq.tables import ZERO_OBJ, StrObj
from tauseq.universe import ModuleUniverse
from tauseq.wide import (
    all_wide_subcategories, ambient_context, compatible_in_context, rel_str_indecs,
)

from oracles import bongartz, indec_compatible, sequence_count

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = {
    "a2": ("algebras", "a2.json"),
    "a3": ("algebras", "a3.json"),
    "a3rad2": ("algebras", "a3rad2.json"),
    "nakayama2_rad2": ("perfbench", "algebras", "nakayama2_rad2.json"),
    "a4": ("perfbench", "algebras", "a4.json"),
    "d4": ("algebras", "d4.json"),
    "loop_rad2": ("algebras", "loop_rad2.json"),
    "nakayama2_rad3": ("algebras", "nakayama2_rad3.json"),
    "nakayama3_rad3": ("algebras", "nakayama3_rad3.json"),
    "a5": ("perfbench", "algebras", "a5.json"),
    "a3rad2_gf3": ("perfbench", "algebras", "a3rad2_gf3.json"),
    "d5": ("algebras", "scale", "d5.json"),
}


@functools.lru_cache(maxsize=None)
def universe(name):
    return ModuleUniverse(load_algebra_file(os.path.join(ROOT, *FILES[name])))


@pytest.mark.parametrize("name,pairs", [
    ("a2", 25), ("a3", 81), ("a3rad2", 64), ("nakayama2_rad2", 36),
    ("a4", 196), ("d4", 256),
])
def test_indec_compatible_matches_the_context_test(name, pairs):
    u = universe(name)
    amb = ambient_context(u)
    indecs = rel_str_indecs(u, amb)
    assert len(indecs) ** 2 == pairs
    for x in indecs:
        obj = ZERO_OBJ.with_indec(x)
        for y in indecs:
            assert indec_compatible(u, x, y) == compatible_in_context(u, amb, obj, y), (x, y)


@pytest.mark.parametrize("name,sets", [("a3", 21), ("a4", 89), ("d4", 119)])
def test_bongartz_completes_to_a_support_tilting_module(name, sets):
    u = universe(name)
    objects = set(u.all_support_objects())
    rigid = [ids for ids in u.all_tau_rigid_subsets() if ids]
    assert len(rigid) == sets
    for ids in rigid:
        t = StrObj.make(bongartz(u, ids))
        assert t in objects and t.delta == u.n and not t.shifts, ids


@pytest.mark.parametrize("name", sorted(FILES))
def test_the_count_by_recursion_is_the_length_of_each_family(name):
    # Sigma over U of count(J_W(U)) against the listed sequences, for every
    # wide subcategory w as the perpendicular category
    u = universe(name)
    for w in all_wide_subcategories(u):
        assert sequence_count(u, w) == len(enumerate_tau_es(u, w)), sorted(w)


@pytest.mark.parametrize("name,bound,complete", [
    # n! h^n / |W|: 5! 6^5 / 6!, 5! 8^5 / (2^4 5!) and 6! 12^6 / 51,840
    ("a5", None, 1296), ("d5", None, 2048), ("e6", (4,) * 6, 41472)])
def test_the_count_of_complete_sequences_on_dynkin_quivers(name, bound, complete):
    u = universe(name) if bound is None else ModuleUniverse(
        load_algebra_file(os.path.join(ROOT, "algebras", "scale", "e6.json")), bound)
    assert sequence_count(u) == complete
