"""Bound quiver algebras with monomial relations.

Only zero relations are supported: that keeps the path basis and the
finite-dimensionality check purely combinatorial, and already covers
hereditary algebras, Nakayama algebras and radical powers.  One depth-first
walk over the alive paths gives both: it lists the basis, and it stops at
the first cycle that the relations never kill.

Path convention: a path (a, b) means "first traverse a, then b".  A relation
(a, b) therefore kills the composite "b after a".
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from tauseq.errors import (
    InfiniteDimensional, MalformedQuiver, MalformedRelation, UnknownVertex,
)
from tauseq.fields import FieldSpec


class Arrow:
    __slots__ = ("name", "source", "target")

    def __init__(self, name: str, source: int, target: int):
        self.name = name
        self.source = source
        self.target = target

    def __repr__(self):
        return "Arrow(%r, %d->%d)" % (self.name, self.source, self.target)


class Quiver:
    """Finite quiver; vertices are kept as user labels plus dense indices."""

    def __init__(self, vertices: Sequence[str], arrows: Sequence[Tuple[str, str, str]]):
        labels = [str(v) for v in vertices]
        if len(set(labels)) != len(labels):
            raise MalformedQuiver("duplicate vertex ids")
        self.vertex_labels: Tuple[str, ...] = tuple(labels)
        self._index: Dict[str, int] = {v: i for i, v in enumerate(labels)}
        arr: List[Arrow] = []
        names = set()
        for (name, src, tgt) in arrows:
            name = str(name)
            if name in names:
                raise MalformedQuiver("duplicate arrow name %r" % name)
            names.add(name)
            if str(src) not in self._index or str(tgt) not in self._index:
                raise UnknownVertex("arrow %r has endpoint outside the vertex set" % name)
            arr.append(Arrow(name, self._index[str(src)], self._index[str(tgt)]))
        self.arrows: Tuple[Arrow, ...] = tuple(arr)
        self._arrow_index: Dict[str, int] = {a.name: i for i, a in enumerate(self.arrows)}

    @property
    def num_vertices(self) -> int:
        return len(self.vertex_labels)

    def arrow_index(self, name: str) -> int:
        try:
            return self._arrow_index[str(name)]
        except KeyError:
            raise MalformedRelation("unknown arrow %r" % name)

    def arrows_from(self, v: int) -> List[int]:
        return [i for i, a in enumerate(self.arrows) if a.source == v]


# A path is a tuple of arrow indices; the stationary path at v is ((), v).

class Path:
    """Composable sequence of arrows; length 0 is the stationary path."""

    __slots__ = ("arrows", "vertex")

    def __init__(self, arrows: Tuple[int, ...], vertex: Optional[int] = None):
        self.arrows = arrows
        self.vertex = vertex  # only used when arrows is empty

    def __len__(self):
        return len(self.arrows)

    def source(self, quiver: Quiver) -> int:
        if self.arrows:
            return quiver.arrows[self.arrows[0]].source
        return self.vertex  # type: ignore[return-value]

    def target(self, quiver: Quiver) -> int:
        if self.arrows:
            return quiver.arrows[self.arrows[-1]].target
        return self.vertex  # type: ignore[return-value]

    def key(self) -> tuple:
        return (len(self.arrows), self.arrows, self.vertex if not self.arrows else -1)

    def __eq__(self, other):
        return isinstance(other, Path) and self.arrows == other.arrows and \
            (self.arrows or self.vertex == other.vertex)

    def __hash__(self):
        return hash((self.arrows, self.vertex if not self.arrows else -1))

    def __repr__(self):
        if not self.arrows:
            return "e_%s" % self.vertex
        return "Path(%s)" % ",".join(str(i) for i in self.arrows)


class BoundQuiverAlgebra:
    """A finite-dimensional path algebra modulo monomial relations."""

    def __init__(self, quiver: Quiver, field: FieldSpec,
                 relations: Sequence[Tuple[int, ...]], path_basis: Sequence[Path]):
        self.quiver = quiver
        self.field = field
        self.relations: Tuple[Tuple[int, ...], ...] = tuple(tuple(r) for r in relations)
        self.path_basis: Tuple[Path, ...] = tuple(path_basis)
        self.n = quiver.num_vertices
        self.dim = len(self.path_basis)
        # paths grouped by source vertex, by both ends and by target, in
        # global basis order; _place maps the arrows of an alive path to its
        # place among the paths with its ends
        n = self.n
        self._paths_from: List[List[Path]] = [[] for _ in range(n)]
        self._paths_between: List[List[List[Path]]] = [[[] for _ in range(n)]
                                                       for _ in range(n)]
        self._paths_into: List[List[Path]] = [[] for _ in range(n)]
        self._place: Dict[Tuple[int, ...], int] = {}
        for p in self.path_basis:
            v, w = p.source(quiver), p.target(quiver)
            self._paths_from[v].append(p)
            if p.arrows:
                self._place[p.arrows] = len(self._paths_between[v][w])
            self._paths_between[v][w].append(p)
            self._paths_into[w].append(p)
        self._opposite: Optional["BoundQuiverAlgebra"] = None
        self._cache: Dict = {}  # misc per-algebra memo space used by other modules

    def paths_from(self, v: int) -> List[Path]:
        return self._paths_from[v]

    def paths_between(self, v: int, w: int) -> List[Path]:
        """The paths v -> w in global basis order, the stationary one first:
        the basis of the projective P(v) at w."""
        return self._paths_between[v][w]

    def paths_into(self, w: int) -> List[Path]:
        """The paths ending at w, shortest first."""
        return self._paths_into[w]

    def place(self, arrows: Tuple[int, ...]) -> Optional[int]:
        """The place in ``paths_between`` of the path with these arrows, or
        None when it is dead; a stationary path (no arrows) is first."""
        return self._place.get(arrows) if arrows else 0

    def __repr__(self):
        return "BoundQuiverAlgebra(n=%d, dim=%d, %r)" % (self.n, self.dim, self.field)


def _validate_relations(quiver: Quiver, relations: Sequence[Sequence[str]]) -> List[Tuple[int, ...]]:
    out = []
    for rel in relations:
        idx = tuple(quiver.arrow_index(name) for name in rel)
        if len(idx) < 2:
            raise MalformedRelation("relation %r has length < 2" % (list(rel),))
        for a, b in zip(idx, idx[1:]):
            if quiver.arrows[a].target != quiver.arrows[b].source:
                raise MalformedRelation("relation %r is not composable" % (list(rel),))
        out.append(idx)
    return out


def _enumerate_alive_paths(quiver: Quiver, relations: List[Tuple[int, ...]]) -> List[Path]:
    """All relation-free paths, or raise InfiniteDimensional.

    Whether an alive path stays alive when extended depends only on its
    state: its end vertex and its last R-1 arrows, R the longest relation.
    One depth-first walk visits every alive path and keeps the states of the
    current one; a state repeated along it closes a cycle that the
    relations never kill, so the alive paths are infinitely many.
    """
    keep = max((len(r) for r in relations), default=1) - 1
    paths: List[Path] = []
    for v in range(quiver.num_vertices):
        paths.append(Path((), v))
        on_path = {(v, ())}
        # one frame per arrow of the current path: its arrows, its state and
        # the arrows still to try at its end
        walk = [((), (v, ()), iter(quiver.arrows_from(v)))]
        while walk:
            arrows, state, todo = walk[-1]
            ai = next(todo, None)
            if ai is None:
                walk.pop()
                on_path.remove(state)
                continue
            ext = arrows + (ai,)
            # only relations ending at the new arrow can kill the extension
            if any(ext[-len(rel):] == rel for rel in relations):
                continue
            target = quiver.arrows[ai].target
            nxt = (target, ext[-keep:] if keep else ())
            if nxt in on_path:
                raise InfiniteDimensional(
                    "the relations leave an unbounded path family through vertex %r"
                    % quiver.vertex_labels[target])
            on_path.add(nxt)
            paths.append(Path(ext))
            walk.append((ext, nxt, iter(quiver.arrows_from(target))))
    paths.sort(key=Path.key)
    return paths


def build_algebra(quiver: Quiver, field: FieldSpec,
                  relations: Sequence[Sequence[str]] = ()) -> BoundQuiverAlgebra:
    """Construct the bound quiver algebra, enumerating its path basis.

    Raises InfiniteDimensional when some cycle survives the relations and
    MalformedRelation for non-composable or too-short relations.
    """
    rel_idx = _validate_relations(quiver, relations)
    basis = _enumerate_alive_paths(quiver, rel_idx)
    return BoundQuiverAlgebra(quiver, field, rel_idx, basis)


def opposite(algebra: BoundQuiverAlgebra) -> BoundQuiverAlgebra:
    """The opposite algebra: arrows and relations reversed.

    The result is cached on the algebra and the cache is symmetric, so
    opposite(opposite(A)) is A itself.
    """
    if algebra._opposite is not None:
        return algebra._opposite
    q = algebra.quiver
    op_quiver = Quiver(
        q.vertex_labels,
        [(a.name, q.vertex_labels[a.target], q.vertex_labels[a.source]) for a in q.arrows],
    )
    op_relations = [tuple(q.arrows[i].name for i in reversed(rel)) for rel in algebra.relations]
    op = build_algebra(op_quiver, algebra.field, op_relations)
    algebra._opposite = op
    op._opposite = algebra
    return op
