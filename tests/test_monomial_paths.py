"""The simples of a monomial algebra read off its paths, against the module
routes.

rad P(v) is the sum of the arrow ideals aA, I(v) / soc I(v) the sum of the
duals of the opposite algebra's arrow ideals at v, and the one presentation
routine presents S_v by the sum of P(t a) -> P(v), with no special case.
dim Ext^1(S_v, M) follows from the minimal zero paths.  The oracles are the
routes the build took before: the presentation by covers, the projective
cover and its kernel, with Ext1From on its syzygy, and indecomposable_parts
of rad P and of I / soc I.
"""

import functools
import glob
import itertools
import os

import pytest

from tauseq import modules
from tauseq.ar import Ext1From, tau
from tauseq.cli import InputError, load_algebra_file
from tauseq.decompose import is_isomorphic
from tauseq.fields import FieldSpec
from tauseq.modules import (
    arrow_ideals, direct_sum, dual_arrow_ideals, dualize, min_presentation, projective,
    radical_spans, simple, simple_ext_dim, submodule_from_spans,
)
from tauseq.quiver import Quiver, build_algebra, opposite
from tauseq.universe import ModuleUniverse
from oracles import presentation_by_covers, socle_quotient

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
               glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json")))


def _a4rad2_redundant():
    # rad^2 = 0, with the relation abc listed although ab already kills it
    q = Quiver(["1", "2", "3", "4"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4")])
    return build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "c"], ["a", "b", "c"]])


def _builds(path):
    try:
        load_algebra_file(path)
    except InputError:
        return False
    return True


ALGEBRAS = {os.path.relpath(path, ROOT): functools.partial(load_algebra_file, path)
            for path in FILES if _builds(path)}
ALGEBRAS["a4rad2_redundant"] = _a4rad2_redundant


@functools.lru_cache(maxsize=None)
def _universe(name):
    # the Kronecker quiver is representation-infinite: its bounded list of
    # modules is uncertified, but every module in it is still a module
    return ModuleUniverse(ALGEBRAS[name](), require_certificate=False)


def test_the_corpus_is_covered():
    assert {"algebras/d4.json", "perfbench/algebras/kronecker.json",
            "perfbench/algebras/a5.json"} <= set(ALGEBRAS)
    # A4 and A5 over GF(2) and GF(3)
    assert {"perfbench/algebras/a%d_gf%d.json" % (n, p)
            for n in (4, 5) for p in (2, 3)} <= set(ALGEBRAS)
    assert not any(name.endswith("/loop.json") for name in ALGEBRAS)


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_ext_of_a_simple_read_off_the_paths_matches_its_syzygy(name):
    u = _universe(name)
    targets = list(u.modules) + [direct_sum([a, b])[0] for a, b in
                                 itertools.combinations_with_replacement(u.modules, 2)]
    for v in range(u.n):
        s = simple(u.algebra, v)
        oracle = Ext1From(s, presentation_by_covers(s))
        assert [simple_ext_dim(u.algebra, v, m) for m in targets] == \
            [oracle.dim(m) for m in targets], v


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_presentation_of_a_simple_has_the_arrows_as_its_relations(name):
    # the one presentation routine needs no special case for S_v: its P1
    # generators are the arrows leaving v, each mapped to itself
    u = _universe(name)
    for v in range(u.n):
        s = simple(u.algebra, v)
        pres, oracle = min_presentation(s), presentation_by_covers(s)
        arrows = u.algebra.quiver.arrows_from(v)
        assert pres.p0_vertices == oracle.p0_vertices == [v]
        assert sorted(pres.p1_vertices) == sorted(oracle.p1_vertices) == \
            sorted(u.algebra.quiver.arrows[a].target for a in arrows)
        assert sorted(row[0][0][0].arrows for row in pres.coeffs) == [(a,) for a in arrows]
        assert all(len(row[0]) == 1 and row[0][0][1] == 1 for row in pres.coeffs)
        syzygy = u.identify_parts(pres.syzygy)
        assert syzygy is not None and syzygy == u.identify_parts(oracle.syzygy)
        # the translate reads the map's path coefficients
        if pres.p1_vertices:
            assert is_isomorphic(tau(s, pres), tau(s, oracle))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_arrow_ideals_are_the_summands_of_the_radicals(name):
    u = _universe(name)
    algebra = u.algebra
    for v in range(u.n):
        p = projective(algebra, v)
        rad, _ = submodule_from_spans(p, radical_spans(p))
        ideals = [u.identify(i) for i in arrow_ideals(algebra, v)]
        assert None not in ideals
        assert sorted(ideals) == u.identify_parts(rad)
        injective = dualize(projective(opposite(algebra), v))
        duals = [u.identify(i) for i in dual_arrow_ideals(algebra, v)]
        assert None not in duals
        assert sorted(duals) == u.identify_parts(socle_quotient(injective))


def _contains(path, sub):
    return any(path[i:i + len(sub)] == sub for i in range(len(path) - len(sub) + 1))


@pytest.mark.parametrize("name", sorted(ALGEBRAS))
def test_the_zero_tails_are_those_of_the_minimal_zero_paths(name):
    # a minimal zero path is a listed relation that contains no other one:
    # in a4rad2_redundant, ab and bc but not abc
    algebra = ALGEBRAS[name]()
    minimal = [r for r in algebra.relations
               if not any(o != r and _contains(r, o) for o in algebra.relations)]
    expected = [sorted(r[1:] for r in minimal if r[0] == a)
                for a in range(len(algebra.quiver.arrows))]
    assert [sorted(t) for t in modules._zero_tails(algebra)] == expected

