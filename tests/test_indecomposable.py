"""The sweep's indecomposability predicate against the full decomposition.

``is_indecomposable`` and ``indecomposable_parts`` share one idempotent
search; the predicate stops where the decomposition would build summands.
They must agree on every module: the extension middles the enumeration sweep
really builds, direct sums, non-brick modules and the zero module.
"""

import itertools

import pytest

from tauseq import universe as universe_mod
from tauseq.decompose import indecomposable_parts, is_indecomposable
from tauseq.modules import direct_sum, projective, simple, zero_rep
from tauseq.universe import ModuleUniverse
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
    monkeypatch.setattr(universe_mod.ARNeighbours, "closed", lambda self, modules: False)
    monkeypatch.setattr(universe_mod, "_new_class_tuples", lambda field, images:
                        itertools.product(universe_mod.SWEEP_COEFFS, repeat=len(images)))
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
