import random

import pytest

from tauseq.errors import BoundTooSmall, NotCertifiablyComplete
from tauseq.fields import FieldSpec
from tauseq.modules import direct_sum, hom_dim
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import ModuleUniverse


def test_kronecker_is_not_certifiable():
    # two parallel arrows: infinitely many indecomposables, growing dimension
    # vectors; the certificate must refuse
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "1", "2")])
    alg = build_algebra(q, FieldSpec(0))
    with pytest.raises(NotCertifiablyComplete):
        ModuleUniverse(alg, dim_bound=(2, 2))
    u = ModuleUniverse(alg, dim_bound=(2, 2), require_certificate=False)
    assert not u.certified


@pytest.mark.parametrize("bound", [(3,), (3, 3), (3, 3, 3, 3), ()])
def test_a_cap_must_name_one_bound_per_vertex(a3, bound):
    # a cap compared through zip would read a short one as complete
    with pytest.raises(BoundTooSmall, match="for 3 vertices"):
        ModuleUniverse(a3, bound, require_certificate=False)
    assert ModuleUniverse(a3, (3, 3, 3)).certified


def test_universe_is_deterministic_across_builds(a3rad2):
    u1 = ModuleUniverse(a3rad2)
    u2 = ModuleUniverse(a3rad2)
    assert u1.labels == u2.labels
    assert [m.dims for m in u1.modules] == [m.dims for m in u2.modules]
    assert u1.hom == u2.hom
    assert u1.ext == u2.ext
    assert u1.tau_of == u2.tau_of


def test_single_vertex_algebra():
    q = Quiver(["1"], [])
    alg = build_algebra(q, FieldSpec(0))
    u = ModuleUniverse(alg)
    assert len(u.modules) == 1
    assert u.certified
    from tauseq.sequences import enumerate_tau_es
    assert enumerate_tau_es(u, frozenset()) == [(0,)]


def test_prime_field_universe():
    q = Quiver(["1", "2"], [("a", "1", "2")])
    alg = build_algebra(q, FieldSpec(5))
    u = ModuleUniverse(alg)
    assert len(u.modules) == 3
    assert u.certified
    from tauseq.sequences import enumerate_tau_es, mutation_graph
    assert len(enumerate_tau_es(u, frozenset())) == 3
    assert mutation_graph(u, frozenset()).is_connected()


def test_hom_additivity_on_random_triples(a3):
    u = ModuleUniverse(a3)
    rng = random.Random(11)
    mods = u.modules
    for _ in range(12):
        x = mods[rng.randrange(len(mods))]
        y = mods[rng.randrange(len(mods))]
        z = mods[rng.randrange(len(mods))]
        yz, _, _ = direct_sum([y, z])
        assert hom_dim(x, yz) == hom_dim(x, y) + hom_dim(x, z)
        assert hom_dim(yz, x) == hom_dim(y, x) + hom_dim(z, x)
