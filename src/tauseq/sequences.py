"""Ordered rigid modules, their sequences, and left/right mutation.

Sequences are tuples of canonical module ids, written left to right; a
sequence of length L over an algebra of rank n occupies positions
n-L+1, ..., n, and mutation indices are the absolute positions, matching the
usual indexing of complete sequences by 1..n.

A sequence is omega of a TF-ordered tau-rigid module (Buan-Marsh).
``tf_orderings`` walks the orderings of a rigid set entry by entry, and
``omega`` reads TF-ness off the reduction: E_T(X) is shifted exactly when X
lies in Gen T.

Mutation is computed per pair context: all pairs of a context are grouped by
their perpendicular subcategory, the left formula is evaluated on every
left-regular pair, and in each group the (at most one) remaining pair is
matched to the (at most one) remaining value, since mutation restricts to a
bijection on each group.  The right operation is built the same way from the
right formula and checked to be the exact inverse.  Any ambiguity or
formula output landing in the wrong group aborts loudly.

Transitivity is certified by words: ``normalize`` mutates a sequence until
its preimage sum is gen-minimal, ``bridge`` connects two such normal forms
by transpositions, and both move preimage entries with one walk.  Each word
is built once and is plain data; it is checked by whoever applies it (the
``tes path`` command and the verify suite).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from tauseq.emap import engine_for
from tauseq.errors import (
    DifferentJ, IndexOutOfRange, IrregularAmbiguity, Mismatch, NoStrictIncrease,
    NotAPair, NotTauRigid, NotTFOrdered, OrbitExhausted, UnknownMutation,
)
from tauseq.tables import StrIndec, StrObj, Tables, ids_of
from tauseq.wide import (
    Context, ambient_context, context_of, gen_mask, rel_ext_projectives,
    rel_perp_tau, rel_str_indecs, rel_tau_rigid, rigid_index, torsion_handle,
)

Seq = Tuple[int, ...]
Pair = Tuple[int, int]


# --------------------------------------------------------------------------
# orderings and the correspondence with sequences
# --------------------------------------------------------------------------

def tf_orderings(u: Tables, ids: Sequence[int]) -> List[Tuple[int, ...]]:
    """The TF-orderings of a basic tau-rigid set, in itertools.permutations
    order, walked left to right: an entry may come next exactly when the
    entries still to place do not generate it.  The callers take the set
    from the rigid list, so its rigidity is not tested again."""
    ids = tuple(ids)
    if not ids:
        return [()]
    out = []
    for k, x in enumerate(ids):
        rest = ids[:k] + ids[k + 1:]
        if not gen_mask(u, rest) >> x & 1:
            out.extend((x,) + tail for tail in tf_orderings(u, rest))
    return out


def omega(u: Tables, tf: Sequence[int]) -> Seq:
    """The sequence attached to an ordered rigid module: each entry is the
    reduction of itself against the sum of its successors.  A reduction is
    shifted exactly when the entry is generated by its successors, so the
    first shifted one raises NotTFOrdered; E's compatibility test raises
    Incompatible on a sum that is not basic and tau-rigid."""
    ctx = ambient_context(u)
    e = engine_for(u)
    out = []
    for i in range(len(tf)):
        t = StrObj.make(tf[i + 1:])
        y = e.e_map(ctx, t, StrIndec(tf[i], 0))
        if y.shift:
            raise NotTFOrdered("%r is not TF-ordered" % (list(tf),))
        out.append(y.mod)
    return tuple(out)


def omega_inverse(u: Tables, seq: Seq) -> Tuple[int, ...]:
    """Right-to-left preimages under the reduction maps."""
    ctx = ambient_context(u)
    e = engine_for(u)
    ys: List[int] = []
    for i in range(len(seq) - 1, -1, -1):
        t = StrObj.make(ys)
        x = e.e_inverse(ctx, t, StrIndec(seq[i], 0))
        if x.shift:
            raise Mismatch("omega inverse produced a shifted object")
        ys.insert(0, x.mod)
    return tuple(ys)


def tail_context(u: Tables, tail: Seq) -> Context:
    """The wide subcategory left by a sequence: J of each entry in turn,
    from the right."""
    c = ambient_context(u)
    for x in reversed(tail):
        c = context_of(u, c, StrObj.make([x]))
    return c


# --------------------------------------------------------------------------
# pairs, regularity, and the mutation tables
# --------------------------------------------------------------------------

def regularity(u: Tables, ctx: Context, pair: Pair) -> Tuple[bool, bool]:
    """(left regular, right regular) for a pair its mutation table lists."""
    b, c = pair
    lifted = engine_for(u).e_inverse(ctx, StrObj.make([c]), StrIndec(b, 0))
    if lifted.shift:
        raise Mismatch("module should lift to a module")
    # left: second entry relatively projective, or not Ext-projective in the
    # class of everything perpendicular to the translate of the lifted first
    left = (c in ctx.rel_proj
            or c not in rel_ext_projectives(u, rel_perp_tau(u, ctx, (lifted.mod,))))
    # right: the lift of the first entry is Ext-projective against the
    # translate class of the second, or the second is not generated by it
    perp_c = rel_perp_tau(u, ctx, (c,))
    right = (lifted.mod in rel_ext_projectives(u, perp_c)
             or not gen_mask(u, (lifted.mod,)) >> c & 1)
    return left, right


def _left_formula(u: Tables, ctx: Context, pair: Pair) -> Pair:
    b, c = pair
    e = engine_for(u)
    if c in ctx.rel_proj:
        c_plus = StrIndec(c, 1)
        t = StrObj.make([], [c])
    else:
        c_plus = StrIndec(c, 0)
        t = StrObj.make([c])
    b_up = e.e_inverse(ctx, t, StrIndec(b, 0))
    if b_up.shift:
        raise Mismatch("lift of a module across the left formula is shifted")
    first = e.e_map(ctx, StrObj.make([b_up.mod]), c_plus)
    return (first.mod, b_up.mod)


def _right_formula(u: Tables, ctx: Context, pair: Pair) -> Pair:
    x, y = pair
    e = engine_for(u)
    sub = context_of(u, ctx, StrObj.make([y]))
    x_plus = StrIndec(x, 1) if x in sub.rel_proj else StrIndec(x, 0)
    x_up = e.e_inverse(ctx, StrObj.make([y]), x_plus)
    t = StrObj.make([x_up.mod]) if x_up.shift == 0 else StrObj.make([], [x_up.mod])
    first = e.e_map(ctx, t, StrIndec(y, 0))
    if first.shift:
        raise Mismatch("right formula produced a shifted first entry")
    return (first.mod, x_up.mod)


def _unknown_mutation(op: str) -> UnknownMutation:
    return UnknownMutation("unknown mutation %r: expected 'phi' or 'psi'" % (op,))


class MutationTable:
    """The left and right mutation bijections on all pairs of one context.

    It holds the context's pairs (B, C), C relatively rigid and B relatively
    rigid in J(C), grouped into cells by J(B) inside J(C)."""

    def __init__(self, u: Tables, ctx: Context):
        self.u = u
        self.ctx = ctx
        self.cells: Dict[FrozenSet[int], List[Pair]] = {}
        for c in rel_str_indecs(u, ctx):
            if c.shift:
                continue
            sub = context_of(u, ctx, StrObj.make([c.mod]))
            for b in rel_str_indecs(u, sub):
                if b.shift == 0:
                    cell = context_of(u, sub, StrObj.make([b.mod])).members
                    self.cells.setdefault(cell, []).append((b.mod, c.mod))
        self.phi: Dict[Pair, Pair] = {}
        self.psi: Dict[Pair, Pair] = {}
        self.left_irregular: List[Pair] = []
        self.right_irregular: List[Pair] = []
        for cell, members in sorted(self.cells.items(),
                                    key=lambda kv: sorted(kv[0])):
            self._build_cell(cell, members)
        for p, q in self.phi.items():
            if self.psi[q] != p:
                raise Mismatch("left and right mutation are not mutually inverse")

    def _build_cell(self, cell: FrozenSet[int], members: List[Pair]):
        u, ctx = self.u, self.ctx
        member_set = set(members)
        phi_known: Dict[Pair, Pair] = {}
        psi_known: Dict[Pair, Pair] = {}
        left_irr, right_irr = [], []
        for p in members:
            left, right = regularity(u, ctx, p)
            if left:
                q = _left_formula(u, ctx, p)
                if q not in member_set:
                    raise Mismatch("left mutation left its group: %r -> %r"
                                   % (p, q))
                phi_known[p] = q
            else:
                left_irr.append(p)
            if right:
                q = _right_formula(u, ctx, p)
                if q not in member_set:
                    raise Mismatch("right mutation left its group: %r -> %r"
                                   % (p, q))
                psi_known[p] = q
            else:
                right_irr.append(p)
        if len(left_irr) > 1 or len(right_irr) > 1:
            raise IrregularAmbiguity("more than one irregular pair in a group")
        self.left_irregular.extend(left_irr)
        self.right_irregular.extend(right_irr)
        for known, irregular in ((phi_known, left_irr), (psi_known, right_irr)):
            image = set(known.values())
            if len(image) != len(known):
                raise Mismatch("regular mutation formula is not injective")
            missing_src = [p for p in members if p not in known]
            missing_tgt = [q for q in members if q not in image]
            if len(missing_src) != len(missing_tgt) or len(missing_src) > 1:
                raise IrregularAmbiguity(
                    "leftover matching found %d sources and %d targets"
                    % (len(missing_src), len(missing_tgt)))
            if missing_src:
                known[missing_src[0]] = missing_tgt[0]
        self.phi.update(phi_known)
        self.psi.update(psi_known)

    def apply(self, op: str, pair: Pair) -> Pair:
        table = self.phi if op == "phi" else self.psi if op == "psi" else None
        if table is None:
            raise _unknown_mutation(op)
        if pair not in table:
            raise NotAPair("%r is not a pair of this context" % (pair,))
        return table[pair]

    def cell_size(self, pair: Pair) -> int:
        for cell, members in self.cells.items():
            if pair in members:
                return len(members)
        raise NotAPair("%r is not a pair of this context" % (pair,))


def mutation_table(u: Tables, ctx: Context) -> MutationTable:
    cache = u.cache.setdefault("mutation_tables", {})
    if ctx.members not in cache:
        cache[ctx.members] = MutationTable(u, ctx)
    return cache[ctx.members]


# --------------------------------------------------------------------------
# mutation of sequences
# --------------------------------------------------------------------------

def first_position(u: Tables, seq: Seq) -> int:
    return u.n - len(seq) + 1


def _split_at(u: Tables, seq: Seq, index: int) -> Tuple[Seq, Pair, Seq]:
    """The head, the adjacent pair at an absolute position, and the tail."""
    if len(seq) < 2:
        raise IndexOutOfRange("position %d not mutable: a sequence of length %d "
                              "has no adjacent pair" % (index, len(seq)))
    k = first_position(u, seq)
    offset = index - k
    if not 0 <= offset <= len(seq) - 2:
        raise IndexOutOfRange("position %d not mutable in a sequence at "
                              "positions %d..%d" % (index, k, u.n))
    return seq[:offset], (seq[offset], seq[offset + 1]), seq[offset + 2:]


def mutate(u: Tables, seq: Seq, op: str, index: int) -> Seq:
    """Apply a left or right mutation at an absolute position."""
    head, pair, tail = _split_at(u, seq, index)
    return head + mutation_table(u, tail_context(u, tail)).apply(op, pair) + tail


class MutationWord:
    """A composition of mutation steps (op, position, power), read left to
    right.  Plain data: applying it is left to the caller."""

    def __init__(self, steps: Sequence[Tuple[str, int, int]]):
        self.steps = tuple(steps)

    @property
    def length(self) -> int:
        return sum(power for _, _, power in self.steps)

    def inverse_steps(self) -> Tuple[Tuple[str, int, int], ...]:
        flip = {"phi": "psi", "psi": "phi"}
        for op, _, _ in self.steps:
            if op not in flip:
                raise _unknown_mutation(op)
        return tuple((flip[op], i, power) for op, i, power in reversed(self.steps))

    def display(self) -> str:
        if not self.steps:
            return "(empty)"
        bits = []
        for op, i, power in self.steps:
            s = "%s_%d" % (op, i)
            if power > 1:
                s += "^%d" % power
            bits.append(s)
        return ".".join(bits)


def apply_steps(u: Tables, seq: Seq,
                steps: Sequence[Tuple[str, int, int]]) -> Seq:
    for op, i, power in steps:
        for _ in range(power):
            seq = mutate(u, seq, op, i)
    return seq


# --------------------------------------------------------------------------
# gen-minimality
# --------------------------------------------------------------------------

def is_gen_minimal(u: Tables, ids: Sequence[int]) -> bool:
    """No summand of the rigid module is generated by the others.  The
    bijections suite checks this against the split-projective
    characterization."""
    idset = tuple(sorted(ids))
    for i in idset:
        if not u.tau_rigid[i]:
            raise NotTauRigid("gen-minimality is only defined for rigid modules")
    if not rel_tau_rigid(u, ambient_context(u), idset):
        raise NotTauRigid("the sum is not tau-rigid")
    for k, i in enumerate(idset):
        if gen_mask(u, idset[:k] + idset[k + 1:]) >> i & 1:
            return False
    return True


# --------------------------------------------------------------------------
# transpositions, normalization, transitivity
# --------------------------------------------------------------------------

def transposition_word(u: Tables, seq: Seq, index: int,
                       target: Seq) -> MutationWord:
    """The minimal power of a single mutation at one position carrying seq to
    target; exponents are searched in the order +1, -1, +2, -2, ..., along
    the pair's orbits in the one mutation table of the tail."""
    if seq == target:
        return MutationWord(())
    head, pair, tail = _split_at(u, seq, index)
    table = mutation_table(u, tail_context(u, tail))
    forward = backward = pair
    for power in range(1, table.cell_size(pair) + 2):
        forward = table.apply("phi", forward)
        if head + forward + tail == target:
            return MutationWord((("phi", index, power),))
        backward = table.apply("psi", backward)
        if head + backward + tail == target:
            return MutationWord((("psi", index, power),))
    raise OrbitExhausted("no power of the mutation at position %d connects the "
                         "two sequences" % index)


def _insertion(tf: Sequence[int], from_pos: int, to_slot: int) -> Tuple[int, ...]:
    ys = list(tf)
    y = ys.pop(from_pos)
    ys.insert(to_slot, y)
    return tuple(ys)


def _walk_left(u: Tables, seq: Seq, tf: Tuple[int, ...], p: int,
               stop: int, steps: List) -> Tuple[Seq, Tuple[int, ...], int]:
    """Move entry p of tf, the preimage ordering of seq, leftward toward
    position stop by adjacent transpositions between valid orderings,
    appending their words to steps, until it is there or the next move
    would break the ordering, which omega reports; returns the sequence,
    the ordering and the position reached."""
    k = first_position(u, seq)
    while p > stop:
        swapped = _insertion(tf, p, p - 1)
        try:
            target = omega(u, swapped)
        except NotTFOrdered:
            break
        steps.extend(transposition_word(u, seq, k + p - 1, target).steps)
        seq, tf = target, swapped
        p -= 1
    return seq, tf, p


def normalize(u: Tables, seq: Seq,
              trace: Optional[list] = None) -> Tuple[Seq, MutationWord]:
    """Mutate a sequence until the preimage sum is gen-minimal.

    Loop: take the ordered preimage; if its sum is gen-minimal, stop.
    Otherwise pick a non-split Ext-projective entry, move it leftward by
    single-position transpositions to the last slot where inserting it
    breaks the ordering, which omega reports, and apply one left mutation
    there.  Each round strictly enlarges the torsion class of the sequence,
    which bounds the number of rounds by the number of torsion classes,
    counted from the tables as support tau-tilting objects.

    When a list is passed as ``trace`` it receives the indecomposable member
    set of the torsion class after every round.
    """
    steps: List[Tuple[str, int, int]] = []
    cur = seq
    tf = omega_inverse(u, cur)
    members = frozenset(ids_of(gen_mask(u, tf)))
    for _ in range(u.support_tilting_count() + 1):
        if trace is not None:
            trace.append(members)
        if is_gen_minimal(u, tf):
            return cur, MutationWord(steps)
        handle = torsion_handle(u, members)
        candidates = [pos for pos, y in enumerate(tf) if y in handle.nonsplit]
        if not candidates:
            raise Mismatch("no non-split projective entry in a non-minimal sum")
        r_pos = min(candidates, key=lambda pos: tf[pos])
        # every insertion strictly right of s0, the last slot that breaks
        # the ordering, keeps it, so each adjacent move is a transposition
        # between two valid orderings
        cur, _, p = _walk_left(u, cur, tf, r_pos, 0, steps)
        if p == 0:
            raise Mismatch("expected a non-ordered insertion slot")
        s0 = p - 1
        index = first_position(u, cur) + s0
        cur = mutate(u, cur, "phi", index)
        steps.append(("phi", index, 1))
        tf = omega_inverse(u, cur)
        after = frozenset(ids_of(gen_mask(u, tf)))
        if not (members < after):
            raise NoStrictIncrease("left mutation failed to enlarge the "
                                   "torsion class")
        members = after
    raise NoStrictIncrease("normalization exceeded the torsion-class bound")


def bridge(u: Tables, n1: Seq, n2: Seq) -> List[Tuple[str, int, int]]:
    """The transpositions carrying one normal form to another.  Both
    preimages order the same gen-minimal sum; position by position, the
    entry the second ordering wants there is walked leftward into place."""
    tf1 = omega_inverse(u, n1)
    tf2 = omega_inverse(u, n2)
    if sorted(tf1) != sorted(tf2):
        raise Mismatch("gen-minimal preimage sums differ")
    steps: List[Tuple[str, int, int]] = []
    cur, tf = n1, tf1
    for pos, want in enumerate(tf2):
        cur, tf, _ = _walk_left(u, cur, tf, tf.index(want), pos, steps)
    if cur != n2:
        raise Mismatch("bridge did not reach the second normal form")
    return steps


def transitivity_path(u: Tables, seq1: Seq, seq2: Seq) -> MutationWord:
    """A mutation word carrying seq1 to seq2: the normalization word of
    seq1, the bridge between the two normal forms, and the inverse of the
    normalization word of seq2."""
    if len(seq1) != len(seq2):
        raise DifferentJ("sequences of different lengths")
    if tail_context(u, seq1).members != tail_context(u, seq2).members:
        raise DifferentJ("the sequences determine different wide subcategories")
    n1, w1 = normalize(u, seq1)
    n2, w2 = normalize(u, seq2)
    return MutationWord(w1.steps + tuple(bridge(u, n1, n2)) + w2.inverse_steps())


# --------------------------------------------------------------------------
# enumeration of sequences and the mutation graph
# --------------------------------------------------------------------------

def enumerate_tau_es(u: Tables, w_members: FrozenSet[int]) -> List[Seq]:
    """All sequences whose perpendicular subcategory is the given one, by
    running the TF-orderings of the rigid modules with that J through omega,
    once per walked ordering.  The rigid modules over each J are read off
    the universe's index (``wide.rigid_index``), which computes J once per
    rigid module."""
    out = []
    for subset in rigid_index(u).over.get(w_members, ()):
        out.extend(omega(u, perm) for perm in tf_orderings(u, subset))
    return sorted(set(out))


def enumerate_tau_es_recursive(u: Tables,
                               w_members: FrozenSet[int]) -> List[Seq]:
    """Independent enumeration straight from the recursive definition: pick a
    relatively rigid last entry, recurse into its perpendicular subcategory.
    No reduction maps or orderings are used."""
    amb = ambient_context(u)

    def rec(ctx: Context) -> List[Seq]:
        out: List[Seq] = []
        if ctx.members == w_members:
            out.append(())
        for x in sorted(ctx.members):
            if not rel_tau_rigid(u, ctx, (x,)):
                continue
            sub = context_of(u, ctx, StrObj.make([x]))
            if not w_members <= sub.members:
                continue
            for prefix in rec(sub):
                out.append(prefix + (x,))
        return out

    if not w_members <= amb.members:
        return []
    return sorted(set(rec(amb)))


def _bfs(start, neighbours, goal=None) -> Dict:
    """Breadth-first distances from start along neighbours(v), in the order
    they are found.  Returns as soon as goal is reached, so a lazy
    neighbours is read no further than the goal."""
    dist = {start: 0}
    frontier = [start]
    while frontier and goal not in dist:
        nxt = []
        for v in frontier:
            for w in neighbours(v):
                if w not in dist:
                    dist[w] = dist[v] + 1
                    if w == goal:
                        return dist
                    nxt.append(w)
        frontier = nxt
    return dist


class MutationGraph:
    def __init__(self, vertices: List[Seq], edges: List[Tuple[int, int, str, int]]):
        self.vertices = vertices
        self.edges = edges
        self.adjacent: List[List[int]] = [[] for _ in vertices]
        for a, b, _, _ in edges:
            self.adjacent[a].append(b)
            self.adjacent[b].append(a)

    def is_connected(self) -> bool:
        return not self.vertices or len(self.bfs_distances(0)) == len(self.vertices)

    def bfs_distances(self, start: int) -> Dict[int, int]:
        return _bfs(start, self.adjacent.__getitem__)


def mutation_distance(u: Tables, src: Seq, dst: Seq) -> Optional[int]:
    """Fewest single mutations from src to dst, or None if dst is out of
    reach.  Breadth-first over every phi_i and psi_i: psi_i inverts phi_i, so
    these are the undirected edges of the mutation graph."""
    k = first_position(u, src)

    def neighbours(v: Seq):
        return (mutate(u, v, op, index) for index in range(k, u.n) for op in ("phi", "psi"))

    return _bfs(src, neighbours, dst).get(dst)


def mutation_graph(u: Tables, w_members: FrozenSet[int]) -> MutationGraph:
    """Vertices are the sequences over the given wide subcategory, edges the
    single left mutations (each doubling as its inverse right mutation)."""
    vertices = enumerate_tau_es(u, w_members)
    index = {v: i for i, v in enumerate(vertices)}
    edges = []
    for v in vertices:
        k = first_position(u, v)
        for offset in range(len(v) - 1):
            w = mutate(u, v, "phi", k + offset)
            if w not in index:
                raise Mismatch("mutation left the sequence family")
            edges.append((index[v], index[w], "phi", k + offset))
    return MutationGraph(vertices, edges)
