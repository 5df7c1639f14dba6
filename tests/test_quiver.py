import pytest

from tauseq.errors import InfiniteDimensional, MalformedRelation
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra, opposite

from oracles import structurally_equal


def test_a2_path_basis(a2):
    # e1, e2, a
    assert a2.dim == 3
    assert a2.n == 2


def test_loop_is_infinite_dimensional():
    q = Quiver(["1"], [("l", "1", "1")])
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, FieldSpec(0))


def test_loop_with_square_zero_is_finite():
    q = Quiver(["1"], [("l", "1", "1")])
    alg = build_algebra(q, FieldSpec(0), [["l", "l"]])
    assert alg.dim == 2  # e1, l


def test_a3_rad_square_dim(a3rad2):
    # e1, e2, e3, a, b;  ab is dead
    assert a3rad2.dim == 5


def test_a3_hereditary_dim(a3):
    # e1, e2, e3, a, b, ab
    assert a3.dim == 6


def test_malformed_relations():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    with pytest.raises(MalformedRelation):
        build_algebra(q, FieldSpec(0), [["a"]])
    with pytest.raises(MalformedRelation):
        build_algebra(q, FieldSpec(0), [["b", "a"]])  # not composable in this order
    with pytest.raises(MalformedRelation):
        build_algebra(q, FieldSpec(0), [["a", "c"]])


def test_opposite_reverses_arrows(a2):
    op = opposite(a2)
    a = op.quiver.arrows[0]
    assert (op.quiver.vertex_labels[a.source], op.quiver.vertex_labels[a.target]) == ("2", "1")
    assert opposite(op) is a2


def test_opposite_reverses_relations(a3rad2):
    op = opposite(a3rad2)
    # relation (a, b) becomes (b, a) read in op arrow names
    names = [tuple(op.quiver.arrows[i].name for i in rel) for rel in op.relations]
    assert names == [("b", "a")]
    assert structurally_equal(opposite(op), a3rad2)


def test_involution_structural(a3):
    assert structurally_equal(opposite(opposite(a3)), a3)
