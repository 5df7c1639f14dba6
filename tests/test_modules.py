import os

import pytest

from tauseq.cli import load_algebra_file
from tauseq.errors import AlgebraMismatch
from tauseq.modules import (
    direct_sum, dualize, hom_basis, hom_dim, kernel, cokernel,
    min_presentation, projective, projective_cover, quotient, simple, trace,
)
from tauseq.universe import ModuleUniverse

from oracles import image

ALGEBRAS = os.path.join(os.path.dirname(__file__), "..", "algebras")


def test_projective_dim_vectors(a2):
    assert projective(a2, 0).dims == (1, 1)
    assert projective(a2, 1).dims == (0, 1)
    assert simple(a2, 0).dims == (1, 0)


def test_projective_dims_sum_to_algebra_dim(a2, a3, a3rad2):
    for alg in (a2, a3, a3rad2):
        assert sum(projective(alg, v).total_dim for v in range(alg.n)) == alg.dim


def test_hom_dims_a2(a2):
    p1, s1, s2 = projective(a2, 0), simple(a2, 0), simple(a2, 1)
    assert hom_dim(p1, s1) == 1
    assert hom_dim(s1, p1) == 0
    assert hom_dim(p1, s2) == 0
    assert hom_dim(s2, p1) == 1
    assert hom_dim(p1, p1) == 1


def test_hom_additive_in_target(a2):
    p1, s1, s2 = projective(a2, 0), simple(a2, 0), simple(a2, 1)
    both, _, _ = direct_sum([s1, s2])
    assert hom_dim(p1, both) == hom_dim(p1, s1) + hom_dim(p1, s2)


def test_hom_algebra_mismatch(a2, a3):
    with pytest.raises(AlgebraMismatch):
        hom_basis(simple(a2, 0), simple(a3, 0))


def test_kernel_cokernel_image(a2):
    p1, s1, s2 = projective(a2, 0), simple(a2, 0), simple(a2, 1)
    (f,) = hom_basis(s2, p1)
    k, _ = kernel(f)
    assert k.total_dim == 0
    c, _ = cokernel(f)
    assert c.dims == s1.dims
    (ident,) = hom_basis(p1, p1)
    kid, _ = kernel(ident)
    assert kid.total_dim == 0
    img, _, onto = image(f)
    assert img.dims == (0, 1)
    assert onto.is_iso()


def test_exactness_dimensions(a3):
    p1 = projective(a3, 0)
    s1 = simple(a3, 0)
    for f in hom_basis(p1, p1) + hom_basis(p1, s1):
        k, _ = kernel(f)
        img, _, _ = image(f)
        for v in range(a3.n):
            assert k.dims[v] + img.dims[v] == f.source.dims[v]


def test_trace_socle(a2):
    p1, s1, s2 = projective(a2, 0), simple(a2, 0), simple(a2, 1)
    t, _ = trace([s2], p1)
    assert t.dims == (0, 1)
    q, _ = quotient(p1, trace([s2], p1)[1])
    assert q.dims == (1, 0)
    t2, _ = trace([p1], p1)
    assert t2.dims == p1.dims
    t3, _ = trace([s1], p1)
    assert t3.total_dim == 0


def test_trace_quotient_has_no_maps_left(a3):
    # X / trace(S, X) receives nothing from S
    mods = [projective(a3, v) for v in range(3)] + [simple(a3, v) for v in range(3)]
    for s in mods:
        for x in mods:
            _, incl = trace([s], x)
            q, _ = quotient(x, incl)
            assert hom_dim(s, q) == 0 or q.total_dim == 0 or _all_zero_maps(s, q)


def _all_zero_maps(s, q):
    return all(m.is_zero() for f in hom_basis(s, q) for m in f.maps)


def test_projective_cover_of_simple(a2):
    s1 = simple(a2, 0)
    p, cover, verts = projective_cover(s1)
    assert verts == [0]
    assert p.dims == (1, 1)
    k, _ = kernel(cover)
    assert k.dims == (0, 1)


def test_cover_of_projective_is_itself(a3):
    for v in range(3):
        p, _, verts = projective_cover(projective(a3, v))
        assert verts == [v]
        assert p.dims == projective(a3, v).dims


def test_min_presentation_of_simple(a2):
    pres = min_presentation(simple(a2, 0))
    assert pres.p0_vertices == [0]
    assert pres.p1_vertices == [1]
    # the generator of P1 = P(2) goes to the arrow, and the syzygy is its
    # image, rad P(1) = P(2)
    assert [[[(p.arrows, c) for p, c in entry] for entry in row] for row in pres.coeffs] \
        == [[[((0,), 1)]]]
    assert pres.syzygy.dims == (0, 1)
    assert pres.syzygy == projective(a2, 1)


def test_dualize_involution(a2):
    p1 = projective(a2, 0)
    d = dualize(p1)
    assert d.algebra is not a2
    assert d.dims == (1, 1)
    dd = dualize(d)
    assert dd.algebra is a2
    assert dd.dims == p1.dims
    assert hom_dim(dd, p1) >= 1  # in fact isomorphic


@pytest.mark.parametrize("name", ["a3rad2", "nakayama2_rad3", "nakayama3_rad3", "loop_rad2"])
def test_the_dual_satisfies_the_opposite_relations(name):
    # dualize builds D M unvalidated; every module of these bound algebras,
    # and every sum of two, validates over the opposite algebra
    u = ModuleUniverse(load_algebra_file(os.path.join(ALGEBRAS, name + ".json")))
    assert u.algebra.relations
    for m in list(u.modules) + [direct_sum([a, b])[0] for a in u.modules for b in u.modules]:
        d = dualize(m)
        d._validate()
        assert (d.dims, [x.transpose() for x in d.mats]) == (m.dims, list(m.mats))


def test_dualize_simple(a2):
    d = dualize(simple(a2, 0))
    assert d.dims == (1, 0)
