"""Bound quiver algebras: the path basis, the finiteness check and the
opposite algebra.  The path basis and its verdict are checked against a
brute-force oracle that extends alive words breadth first
(``oracles.alive_words``) on a few hundred seeded random quivers."""

import random

import pytest

from tauseq.errors import InfiniteDimensional, MalformedRelation
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra, opposite

from oracles import alive_words, structurally_equal


def test_a2_path_basis(a2):
    # e1, e2, a
    assert a2.dim == 3
    assert a2.n == 2


def test_loop_is_infinite_dimensional():
    q = Quiver(["1"], [("l", "1", "1")])
    with pytest.raises(InfiniteDimensional):
        build_algebra(q, FieldSpec(0))


def test_a_cycle_through_two_vertices_is_named_by_one_of_them():
    # a: 1 -> 2, b: 2 -> 3, c: 3 -> 2 with ab = 0: the only cycle is
    # 2 -> 3 -> 2, which no relation kills
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "2")])
    with pytest.raises(InfiniteDimensional) as err:
        build_algebra(q, FieldSpec(0), [["a", "b"]])
    assert str(err.value) in ["the relations leave an unbounded path family through "
                              "vertex %r" % v for v in ("2", "3")]


def _random_bound_quiver(rng):
    """At most 3 vertices and 3 arrows, and some composable pairs of arrows
    as relations."""
    vertices = [str(i + 1) for i in range(rng.randint(1, 3))]
    arrows = [("a%d" % i, rng.choice(vertices), rng.choice(vertices))
              for i in range(rng.randint(0, 3))]
    pairs = [[x, y] for x, _, t in arrows for y, s, _ in arrows if t == s]
    return Quiver(vertices, arrows), rng.sample(pairs, rng.randint(0, len(pairs)))


def test_the_path_basis_matches_the_breadth_first_oracle():
    rng = random.Random(29)
    infinite = 0
    for _ in range(400):
        q, relations = _random_bound_quiver(rng)
        words = alive_words(q, relations)
        if words is None:
            infinite += 1
            with pytest.raises(InfiniteDimensional, match="through vertex '[123]'"):
                build_algebra(q, FieldSpec(0), relations)
            continue
        alg = build_algebra(q, FieldSpec(0), relations)
        assert sorted(p.arrows for p in alg.path_basis if p.arrows) == sorted(words)
        assert [p.vertex for p in alg.path_basis if not p.arrows] == list(range(q.num_vertices))
    # both verdicts are well represented
    assert 50 < infinite < 350


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
