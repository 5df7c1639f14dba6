import itertools

import pytest

from tauseq.tables import StrObj
from tauseq.transport import (
    abstract_tau, functor_image, gamma_algebra, rel_projective_oracle,
    tau_rigid_oracle,
)
from tauseq.universe import ModuleUniverse
from tauseq.wide import ambient_context, context_of, rel_tau_rigid


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3(a3):
    return ModuleUniverse(a3)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def test_oracle_matches_ambient_rigidity(u2, u3r):
    # over the ambient context the equivalence is the identity, so the
    # abstract route must reproduce the plain tau-rigidity table
    for u in (u2, u3r):
        amb = ambient_context(u)
        for i in range(len(u.modules)):
            assert tau_rigid_oracle(u, amb, (i,)) == u.tau_rigid[i]


def test_oracle_matches_ambient_pairs(u2):
    amb = ambient_context(u2)
    for i in range(len(u2.modules)):
        for j in range(i + 1, len(u2.modules)):
            fast = rel_tau_rigid(u2, amb, (i, j))
            slow = tau_rigid_oracle(u2, amb, (i, j))
            assert fast == slow


def test_oracle_matches_relative_rigidity_everywhere(u3, u3r):
    # for each perpendicular category of an indecomposable rigid module the
    # fast Ext-criterion must agree with the transport route, on singles
    # and pairs
    for u in (u3, u3r):
        amb = ambient_context(u)
        for x in range(len(u.modules)):
            if not u.tau_rigid[x]:
                continue
            ctx = context_of(u, amb, StrObj.make([x]))
            if not ctx.rel_proj:
                continue
            members = sorted(ctx.members)
            for i in members:
                assert rel_tau_rigid(u, ctx, (i,)) == tau_rigid_oracle(u, ctx, (i,))
            for i, j in itertools.combinations(members, 2):
                if rel_tau_rigid(u, ctx, (i,)) and rel_tau_rigid(u, ctx, (j,)):
                    assert rel_tau_rigid(u, ctx, (i, j)) == \
                        tau_rigid_oracle(u, ctx, (i, j))


def test_rel_projective_oracle(u3, u3r):
    for u in (u3, u3r):
        amb = ambient_context(u)
        for x in range(len(u.modules)):
            if not u.tau_rigid[x]:
                continue
            ctx = context_of(u, amb, StrObj.make([x]))
            if not ctx.rel_proj:
                continue
            for m in sorted(ctx.members):
                assert rel_projective_oracle(u, ctx, m) == (m in ctx.rel_proj)


def test_abstract_tau_on_ambient_matches_translate_dims(u2):
    amb = ambient_context(u2)
    gamma, p, end = gamma_algebra(u2, amb)
    for i in range(len(u2.modules)):
        fm = functor_image(u2, amb, (i,), gamma, p, end)
        t = abstract_tau(fm)
        ti = u2.tau_of[i]
        expected = 0 if ti is None else u2.modules[ti].total_dim
        assert t.dim == expected
