"""The sweep's indecomposability predicate against the full decomposition.

``is_indecomposable`` and ``indecomposable_parts`` share one splitting
routine, a Fitting split by a basis element of End(M) or else by a preimage
of the idempotent the search finds modulo the radical; the predicate stops
at the first split, where the decomposition builds both summands.  They must
agree on every module: the extension middles the enumeration sweep really
builds, direct sums, direct sums in a random basis, non-brick modules and
the zero module.
"""

import functools
import itertools
import os
import random

import pytest

from tauseq import linalg, universe as universe_mod
from tauseq.cli import load_algebra_file
from tauseq.decompose import indecomposable_parts, is_indecomposable
from tauseq.linalg import Mat
from tauseq.modules import Rep, block_sum, direct_sum, projective, simple, zero_rep
from tauseq.universe import ModuleUniverse
from oracles import every_class_tuple, sweep_to_the_cap
from test_wide import LATTICE_ALGEBRAS, _linear


SWEEP_ALGEBRAS = {name: LATTICE_ALGEBRAS[name] for name in
                  ("a2", "a3", "a3rad2", "nakayama2_rad2", "a4", "a3rad2_gf3")}
SWEEP_ALGEBRAS["a4rad2"] = lambda: _linear(4, 0, [["a0", "a1"], ["a1", "a2"]])
SWEEP_ALGEBRAS["a4_gf5"] = lambda: _linear(4, 5)


def agrees(m):
    return is_indecomposable(m) == (len(indecomposable_parts(m)) == 1)


def sweep_middles(algebra, monkeypatch):
    """Every extension middle the full enumeration sweep builds.

    The sweep runs on the reference predicate, so the middles are those of
    a correct sweep even when the predicate under test is wrong (a sweep
    that keeps direct sums would not terminate in reasonable time).  Its
    stop by AR closure is switched off, so it runs every layer up to the
    dimension cap and meets the decomposable middles above the largest
    indecomposable too.  It walks every {0, +-1} coefficient tuple, not one
    per extension class up to summand scaling, so it also meets the
    middles that split because a class against a summand is zero.
    """
    middles = []
    build = universe_mod.extension_middle

    def spy(*args):
        middle = build(*args)
        middles.append(middle)
        return middle

    monkeypatch.setattr(universe_mod, "extension_middle", spy)
    monkeypatch.setattr(universe_mod, "is_indecomposable",
                        lambda m: len(indecomposable_parts(m)) == 1)
    sweep_to_the_cap(monkeypatch)
    monkeypatch.setattr(universe_mod, "_class_tuples", every_class_tuple)
    u = ModuleUniverse(algebra)
    monkeypatch.undo()
    assert u.certified
    return middles


@pytest.mark.parametrize("name", sorted(SWEEP_ALGEBRAS))
def test_predicate_agrees_on_every_sweep_middle(name, monkeypatch):
    middles = sweep_middles(SWEEP_ALGEBRAS[name](), monkeypatch)
    verdicts = [is_indecomposable(m) for m in middles]
    assert verdicts == [len(indecomposable_parts(m)) == 1 for m in middles]
    # the sweep meets decomposable middles only where rad^2 != 0
    assert any(verdicts)
    assert all(verdicts) == (name in ("a2", "a3rad2", "a3rad2_gf3", "a4rad2",
                                      "nakayama2_rad2"))


@pytest.mark.parametrize("name", ["a3", "a3rad2", "nakayama2_rad2", "a3rad2_gf3"])
def test_direct_sums_of_indecomposables_are_decomposable(name):
    # simples and projectives are indecomposable without any sweep
    algebra = SWEEP_ALGEBRAS[name]()
    indecs = [simple(algebra, v) for v in range(algebra.n)] + \
        [projective(algebra, v) for v in range(algebra.n)]
    for m in indecs:
        assert is_indecomposable(m) and agrees(m)
    for k in (2, 3):
        for combo in itertools.combinations_with_replacement(indecs, k):
            m, _, _ = direct_sum(list(combo))
            assert not is_indecomposable(m)
            assert agrees(m)


@pytest.mark.parametrize("name", ["loop_rad2", "nakayama2_rad3"])
def test_non_brick_projectives(name):
    # k[x]/(x^2) and the Nakayama 2-cycle with rad^3 = 0
    algebra = LATTICE_ALGEBRAS[name]()
    for v in range(algebra.n):
        p = projective(algebra, v)
        assert is_indecomposable(p) and agrees(p)
        double, _, _ = direct_sum([p, p])
        assert not is_indecomposable(double) and agrees(double)


def test_zero_module_is_not_indecomposable(a2):
    z = zero_rep(a2)
    assert not is_indecomposable(z)
    assert indecomposable_parts(z) == []


ROOT = os.path.join(os.path.dirname(__file__), "..")
RANDOM_SUM_FILES = {
    "a3": "algebras/a3.json",
    "nakayama2_rad3": "algebras/nakayama2_rad3.json",
    "nakayama3_rad3": "algebras/nakayama3_rad3.json",
    "a3rad2_gf3": "perfbench/algebras/a3rad2_gf3.json",
    "a4_gf2": "perfbench/algebras/a4_gf2.json",
    "d4": "algebras/d4.json",
    "nakayama2_rad2": "perfbench/algebras/nakayama2_rad2.json",
}


@functools.lru_cache(maxsize=None)
def _catalogue_universe(name):
    return ModuleUniverse(load_algebra_file(os.path.join(ROOT, RANDOM_SUM_FILES[name])))


def _random_invertible(f, d, rng):
    scalars = range(-2, 3) if f.characteristic == 0 else range(f.characteristic)
    while True:
        m = Mat(f, d, d, [[f.coerce(rng.choice(scalars)) for _ in range(d)]
                          for _ in range(d)])
        if linalg.rank(m) == d:
            return m


def _in_random_basis(m, rng):
    """m with the basis at each vertex v changed by a random invertible P_v:
    the arrow a: s -> t acts by P_t A P_s^-1."""
    f = m.algebra.field
    change = [_random_invertible(f, d, rng) for d in m.dims]
    mats = [change[a.target].mul(x).mul(linalg.inverse(change[a.source]))
            for a, x in zip(m.algebra.quiver.arrows, m.mats)]
    return Rep(m.algebra, m.dims, mats)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("name", sorted(RANDOM_SUM_FILES))
def test_random_sums_in_a_random_basis_split_into_their_summands(name, seed):
    u = _catalogue_universe(name)
    rng = random.Random("%s/%d" % (name, seed))
    for _ in range(40):
        ids = sorted(rng.randrange(len(u.modules)) for _ in range(rng.randint(1, 3)))
        m = _in_random_basis(block_sum([u.modules[i] for i in ids]), rng)
        assert u.identify_parts(m) == ids
        assert is_indecomposable(m) == (len(ids) == 1)
