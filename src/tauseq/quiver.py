"""Bound quiver algebras with monomial relations.

Only zero relations are supported: that keeps the path basis and the
finite-dimensionality check purely combinatorial, and already covers
hereditary algebras, Nakayama algebras and radical powers.

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

    Finiteness is decided on the suffix automaton whose states are (vertex,
    last R-1 arrows) with R the longest relation: the language of alive paths
    is infinite exactly when that automaton has a reachable cycle.
    """
    max_rel = max((len(r) for r in relations), default=1)
    keep = max_rel - 1

    def suffix_alive(arrows: Tuple[int, ...]) -> bool:
        # only relations ending at the last arrow need checking incrementally
        for rel in relations:
            m = len(rel)
            if m <= len(arrows) and arrows[-m:] == rel:
                return False
        return True

    # state graph over (vertex, suffix)
    states = set()
    edges: Dict[tuple, List[tuple]] = {}
    stack = [(v, ()) for v in range(quiver.num_vertices)]
    for s in stack:
        states.add(s)
    while stack:
        v, suf = stack.pop()
        key = (v, suf)
        outs = []
        for ai in quiver.arrows_from(v):
            a = quiver.arrows[ai]
            ext = suf + (ai,)
            if not suffix_alive(ext):
                continue
            nsuf = ext[-keep:] if keep > 0 else ()
            ns = (a.target, nsuf)
            outs.append(ns)
            if ns not in states:
                states.add(ns)
                stack.append(ns)
        edges[key] = outs

    # cycle detection (iterative three-color DFS)
    color = {s: 0 for s in states}
    for start in states:
        if color[start] != 0:
            continue
        dfs = [(start, 0)]
        while dfs:
            node, ei = dfs.pop()
            if ei == 0:
                if color[node] == 2:
                    continue
                color[node] = 1
            outs = edges.get(node, [])
            advanced = False
            for k in range(ei, len(outs)):
                nxt = outs[k]
                if color[nxt] == 1:
                    raise InfiniteDimensional(
                        "the relations leave an unbounded path family through vertex %r"
                        % quiver.vertex_labels[nxt[0]])
                if color[nxt] == 0:
                    dfs.append((node, k + 1))
                    dfs.append((nxt, 0))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2

    # acyclic: enumerate the (finite) path tree breadth first
    paths: List[Path] = [Path((), v) for v in range(quiver.num_vertices)]
    frontier: List[Tuple[int, Tuple[int, ...]]] = [(v, ()) for v in range(quiver.num_vertices)]
    while frontier:
        nxt: List[Tuple[int, Tuple[int, ...]]] = []
        for v, arrows in frontier:
            for ai in quiver.arrows_from(v):
                ext = arrows + (ai,)
                if suffix_alive(ext):
                    nxt.append((quiver.arrows[ai].target, ext))
                    paths.append(Path(ext))
        frontier = nxt
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
