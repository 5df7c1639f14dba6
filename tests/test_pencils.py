"""The pencil determinants of ``universe._pencils``, an isomorphism
invariant that ``Catalogue.find`` reads beside the arrow ranks.

For parallel arrows a, b with square d x d blocks, det(x M_a + y M_b) is a
binary form of degree d, and a change of basis g_s, g_t multiplies it by
det g_t / det g_s.  So the form up to a scalar, read off d + 2 of its values
scaled to a leading 1, never turns an isomorphic module away.  The oracles:
drawn Kronecker and 3-arrow Kronecker modules under drawn changes of basis,
and every candidate pair the refused Kronecker builds meet, against the
Hom-basis test alone.
"""

import os
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from tauseq import linalg, universe
from tauseq.cli import load_algebra_file
from tauseq.decompose import _basis_has_iso
from tauseq.errors import NotCertifiablyComplete
from tauseq.fields import FieldSpec
from tauseq.linalg import Mat
from tauseq.modules import Rep
from tauseq.quiver import Quiver, build_algebra
from tauseq.universe import Catalogue, ModuleUniverse

KRONECKER = os.path.join(os.path.dirname(__file__), "..", "perfbench", "algebras",
                         "kronecker.json")


def _ranks(m):
    return [linalg.rank(x) for x in m.mats]


def _kronecker(arrows, characteristic):
    return build_algebra(Quiver(["1", "2"], [(name, "1", "2") for name in "abc"[:arrows]]),
                         FieldSpec(characteristic))


def _matrix(data, f, rows, cols):
    entry = st.sampled_from([0, 1, -1, 2, Fraction(1, 2), 3]) if f.characteristic == 0 \
        else st.integers(0, f.characteristic - 1)
    return Mat.from_rows(f, [[f.coerce(data.draw(entry)) for _ in range(cols)]
                             for _ in range(rows)])


@pytest.mark.parametrize("characteristic", [0, 3])
@pytest.mark.parametrize("arrows", [2, 3])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_change_of_basis_keeps_the_pencils(arrows, characteristic, data):
    algebra = _kronecker(arrows, characteristic)
    f = algebra.field
    dims = data.draw(st.sampled_from([(2, 2), (3, 3), (2, 3)]))
    m = Rep(algebra, dims, [_matrix(data, f, dims[1], dims[0]) for _ in range(arrows)])
    g_s, g_t = _matrix(data, f, dims[0], dims[0]), _matrix(data, f, dims[1], dims[1])
    assume(linalg.is_invertible(g_s) and linalg.is_invertible(g_t))
    moved = Rep(algebra, dims, [g_t.mul(x).mul(linalg.inverse(g_s)) for x in m.mats])
    pencils = universe._pencils(m)
    assert len(pencils) == (0 if dims == (2, 3) else arrows * (arrows - 1) // 2)
    assert universe._pencils(moved) == pencils
    assert universe._arrow_ranks(moved) == universe._arrow_ranks(m)


def test_the_pencils_tell_the_regular_kronecker_modules_apart():
    # R(lambda) = (I, lambda I + N) on (d, d), N nilpotent: det(M_a + c M_b)
    # is (1 + c lambda)^d, and no two of lambda = 0, 1, 2 give one form
    algebra = load_algebra_file(KRONECKER)
    f = algebra.field
    for d in (1, 2):
        seen = set()
        for lam in (0, 1, 2):
            ident = Mat.identity(f, d)
            b = Mat.from_rows(f, [[lam if r == c else int(c == r + 1) for c in range(d)]
                                  for r in range(d)])
            seen.add(universe._pencils(Rep(algebra, (d, d), [ident, b])))
        assert len(seen) == 3


@pytest.mark.parametrize("bound", [2, 3])
def test_every_find_of_the_refused_builds_is_the_hom_test_alone(bound, monkeypatch):
    # each candidate the ranks and pencils keep or turn away, against
    # _basis_has_iso: an isomorphic candidate is never turned away, so every
    # find returns what the Hom-basis test alone returns
    find, pairs = Catalogue.find, []

    def spy(self, rep, start=0):
        got = find(self, rep, start)
        bucket = self.bucket(rep.dims)[start:]
        alone = next((i for i in bucket if self.modules[i] == rep or
                      _basis_has_iso(rep, self.modules[i])), None)
        assert got == alone
        for i in bucket:
            other = self.modules[i]
            pairs.append((_ranks(other) == _ranks(rep),
                          self.ranks(i) == universe._arrow_ranks(rep),
                          other == rep or _basis_has_iso(rep, other)))
        return got

    monkeypatch.setattr(Catalogue, "find", spy)
    with pytest.raises(NotCertifiablyComplete):
        ModuleUniverse(load_algebra_file(KRONECKER), (bound, bound))
    assert not any(iso and not kept for _, kept, iso in pairs)
    # the pencils turn away candidates that the ranks keep
    assert any(by_ranks and not kept for by_ranks, kept, _ in pairs)
