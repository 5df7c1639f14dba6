import glob
import itertools
import os

import pytest

from tauseq import linalg
from tauseq.ar import (
    ext1_dim, extension_cocycle_space, extension_middle, is_injective_rep,
    is_projective_rep, tau, tau_hom_dim, tau_minus,
)
from tauseq.cli import load_algebra_file
from tauseq.decompose import is_isomorphic
from tauseq.modules import direct_sum, hom_dim, projective, simple
from tauseq.universe import ModuleUniverse

from oracles import ext1_dim_cocycle, is_tau_rigid, mesh_violations, meshes

ROOT = os.path.join(os.path.dirname(__file__), "..")
# the Kronecker quiver and the free loop are refused
REFUSED = {"kronecker.json", "loop.json"}
CERTIFIED = sorted(path for path in glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
                   glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json"))
                   if os.path.basename(path) not in REFUSED) + \
    [os.path.join(ROOT, "algebras", "scale", "d5.json")]


def test_tau_on_a2(a2):
    s1, s2, p1 = simple(a2, 0), simple(a2, 1), projective(a2, 0)
    t = tau(s1)
    assert t.dims == (0, 1)
    assert tau(p1).total_dim == 0
    assert tau(s2).total_dim == 0  # s2 = P(2) is projective


def test_tau_on_a3(a3):
    s1, s2, s3 = (simple(a3, v) for v in range(3))
    assert tau(s1).dims == (0, 1, 0)
    assert tau(s2).dims == (0, 0, 1)
    # the length-two interval supported at {1,2} has tau = P(2)
    from tauseq.linalg import Mat
    from tauseq.modules import Rep
    m12 = Rep(a3, (1, 1, 0), (Mat.from_rows(a3.field, [[1]]),
                              Mat.zeros(a3.field, 0, 1)))
    t = tau(m12)
    assert t.dims == (0, 1, 1)
    assert is_isomorphic(t, projective(a3, 1))


def test_tau_on_a3rad2(a3rad2):
    s1, s2 = simple(a3rad2, 0), simple(a3rad2, 1)
    assert tau(s1).dims == (0, 1, 0)
    assert tau(s2).dims == (0, 0, 1)
    for v in range(3):
        assert tau(projective(a3rad2, v)).total_dim == 0


def test_tau_minus_inverts_tau(a3):
    s1, s2 = simple(a3, 0), simple(a3, 1)
    assert is_isomorphic(tau_minus(tau(s1)), s1)
    assert is_isomorphic(tau_minus(tau(s2)), s2)


def test_projective_injective_flags(a2):
    s1, s2, p1 = simple(a2, 0), simple(a2, 1), projective(a2, 0)
    assert is_projective_rep(p1) and is_projective_rep(s2)
    assert not is_projective_rep(s1)
    # injectives of a2 are S1 and P1
    assert is_injective_rep(s1) and is_injective_rep(p1)
    assert not is_injective_rep(s2)


def test_tau_hom_dim_matches_direct_computation(a2, a3, a3rad2):
    for alg in (a2, a3, a3rad2):
        mods = [projective(alg, v) for v in range(alg.n)] + \
               [simple(alg, v) for v in range(alg.n)]
        for m in mods:
            tm = tau(m)
            for n in mods:
                assert tau_hom_dim(m, n) == hom_dim(n, tm)


def test_ext_values_on_a2(a2):
    s1, s2, p1 = simple(a2, 0), simple(a2, 1), projective(a2, 0)
    assert ext1_dim(s1, s2) == 1
    assert ext1_dim(s1, p1) == 0
    assert ext1_dim(p1, s1) == 0
    assert tau_hom_dim(s1, s2) == 1
    assert tau_hom_dim(p1, s1) == 0


def test_ext_honest_vs_cocycle(a2, a3, a3rad2):
    for alg in (a2, a3, a3rad2):
        mods = [projective(alg, v) for v in range(alg.n)] + \
               [simple(alg, v) for v in range(alg.n)]
        for b in mods:
            for a in mods:
                assert ext1_dim(b, a) == ext1_dim_cocycle(b, a)


def test_surrogate_differs_from_ext_where_expected(a3rad2):
    # dim Hom(N, tau M) can exceed Ext^1(M, N): N = P(2) is injective here
    s1 = simple(a3rad2, 0)
    p2 = projective(a3rad2, 1)
    assert ext1_dim(s1, p2) == 0
    assert tau_hom_dim(s1, p2) == 1


def test_extension_middle_builds_p1(a2):
    s1, s2 = simple(a2, 0), simple(a2, 1)
    cocycles, cob = extension_cocycle_space(s1, s2)
    assert len(cocycles) - linalg.rank(cob) == 1
    e = extension_middle(s1, s2, cocycles[0])
    assert e.dims == (1, 1)
    assert is_isomorphic(e, projective(a2, 0))


def test_tau_rigidity_a2(a2):
    s1, s2, p1 = simple(a2, 0), simple(a2, 1), projective(a2, 0)
    both, _, _ = direct_sum([s1, p1])
    assert is_tau_rigid(both)
    assert is_tau_rigid(p1) and is_tau_rigid(s2)
    bad, _, _ = direct_sum([s1, s2])
    assert not is_tau_rigid(bad)


# --------------------------------------------------------------------------
# the AR meshes against the hom table
# --------------------------------------------------------------------------

@pytest.mark.parametrize("path", CERTIFIED, ids=lambda p: os.path.relpath(p, ROOT))
def test_every_mesh_satisfies_the_defect_formula(path):
    # dim Hom(M, tau X) - dim Hom(M, E) + dim Hom(M, X) = [M = X] for every
    # M, over the almost split sequence ending at X, or rad X in X for a
    # projective X
    u = ModuleUniverse(load_algebra_file(path))
    assert u.certified
    assert mesh_violations(meshes(u), u.hom) == []


@pytest.mark.parametrize("name,faults", [("a2", 5), ("a3", 15), ("a3rad2", 10),
                                         ("nakayama2_rad2", 10), ("a5", 70)])
def test_every_hom_fault_that_keeps_the_zero_pattern_breaks_a_mesh(name, faults):
    # the library reads only which hom entries are zero, so these faults are
    # the ones it cannot see; 22 of them on the first four algebras are off
    # the diagonal, 55 on a5
    u = ModuleUniverse(load_algebra_file(os.path.join(ROOT, "perfbench", "algebras",
                                                      name + ".json")))
    mesh_list = meshes(u)
    seen = 0
    for i, j in itertools.product(range(len(u.modules)), repeat=2):
        for step in (1, -1):
            old = u.hom[i][j]
            if old + step < 0 or (old == 0) != (old + step == 0):
                continue
            hom = [row[:] for row in u.hom]
            hom[i][j] = old + step
            seen += 1
            assert mesh_violations(mesh_list, hom), \
                "Hom(%s, %s) %d -> %d broke no mesh" % (u.labels[i], u.labels[j], old, old + step)
    assert seen == faults
