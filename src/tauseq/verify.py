"""Named verification suites with counterexample certificates.

Every suite runs a family of exhaustive desk-scale checks and returns the
pass/fail counts together with a reproducible certificate (labels plus an
operation trace) for each failure.  ``Check.attempt`` turns a diagnostic
raised by the engine into a failed check, so a corrupted internal table
surfaces here instead of crashing the run: at item level where a check owns
the call, including the calls listing the items it iterates over, and at
suite level otherwise, as the one failed check "suite ran to completion".
Each suite computes every fact it reads once; Gen and the perp-translate
class of each rigid set are computed once for the bijections suite, and J of
each rigid set is read off the universe's index (``wide.rigid_index``).

Gen-minimality has one route in the library; the bijections suite checks it
against the split-projective characterization.  The library reads Gen, split
projectives and E off the hom and Ext tables; the module-level oracle (Gen
and FiltGen from traces, ``gen_set`` and ``filtgen_set``, and decomposed
trace quotients) is read by the checks on Ext vanishing on Gen, Gen of the
gen-minimal modules, split projectives, torsion closure, the wide map's
inverse, "two of Gen, perp-translate, J", the Gen-then-J factorization,
generation passing down E, FiltGen of a sequence, and the Serre chain.
The perp-translate class is read here off Hom into the translate
(``perp_tau_members``), where the library reads Ext^1 on Gen.

The transitivity suite normalizes each sequence once and assembles each
pair's word from the two normalizations and one bridge per pair of normal
forms; the pairs of a wide subcategory over PAIR_BUDGET are counted as
``skipped``.
"""

from __future__ import annotations

from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple, TypeVar

from tauseq.ar import is_injective_rep, tau_hom_dim
from tauseq.emap import engine_for
from tauseq.errors import NotTFOrdered, TauSeqError
from tauseq.modules import min_presentation
from tauseq.sequences import (
    apply_steps, bridge, enumerate_tau_es, enumerate_tau_es_recursive,
    first_position, is_gen_minimal, mutate, mutation_graph,
    mutation_table, normalize, omega, omega_inverse, tail_context,
    tf_orderings, transposition_word,
)
from tauseq.tables import ZERO_OBJ, StrIndec, StrObj, ids_of, left_perp, mask_of
from tauseq.universe import ModuleUniverse
from tauseq.wide import (
    all_torsion_classes, all_wide_subcategories, ambient_context,
    compatible_in_context, context_from_members, context_of, j_in_context,
    rel_str_indecs, rel_tau_rigid, rigid_j, torsion_handle,
)

T = TypeVar("T")


class Check:
    def __init__(self, name: str):
        self.name = name
        self.total = 0
        self.skipped = 0
        self.failures: List[dict] = []

    def count(self, ok: bool, certificate: Optional[dict] = None):
        self.total += 1
        if not ok:
            self.failures.append(certificate or {})

    def attempt(self, fn: Callable[[], T], certificate: dict) -> Optional[T]:
        """fn(); if it raises a diagnostic, one failure whose certificate
        names it, and None."""
        try:
            return fn()
        except TauSeqError as exc:
            self.count(False, dict(certificate, diagnostic="%s: %s"
                                   % (type(exc).__name__, exc)))
            return None

    def guard(self, fn: Callable[[], bool], certificate: dict):
        """Count one item: fn() is whether it holds."""
        ok = self.attempt(fn, certificate)
        if ok is not None:
            self.count(ok, certificate)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> dict:
        out = {"name": self.name, "total": self.total,
               "failed": len(self.failures), "failures": self.failures}
        if self.skipped:
            out["skipped"] = self.skipped
        return out


class SuiteReport:
    def __init__(self, name: str, checks: List[Check]):
        self.name = name
        self.checks = checks

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def as_dict(self) -> dict:
        return {"suite": self.name, "passed": self.ok,
                "checks": [c.as_dict() for c in self.checks]}

    def lines(self) -> List[str]:
        out = []
        for c in self.checks:
            status = "OK" if c.ok else "FAIL"
            if c.skipped:
                status += " (%d skipped)" % c.skipped
            out.append("%-42s %4d/%-4d %s"
                       % (c.name, c.total - len(c.failures), c.total, status))
        return out


def _labels(u: ModuleUniverse, ids) -> List[str]:
    return [u.labels[i] for i in sorted(ids)]


def perp_tau_members(u: ModuleUniverse, ids: Sequence[int]) -> FrozenSet[int]:
    """The modules with no nonzero map into tau of the sum, off the hom
    rows; the library reads Ext^1 on Gen instead (``wide.rel_perp_tau``)."""
    taus = mask_of(u.tau_of[m] for m in ids if u.tau_of[m] is not None)
    return frozenset(ids_of(left_perp(u.hom_out, taus)))


# --------------------------------------------------------------------------
# enumeration suite
# --------------------------------------------------------------------------

def suite_enumeration(u: ModuleUniverse) -> SuiteReport:
    cert = Check("certificate flags")
    for key, val in u.certificate.items():
        if key == "dim_bound":
            continue
        cert.count(bool(val), {"flag": key})

    # the build reads is_inj off the tau image, so the check asks the
    # module itself
    translate = Check("translate of non-projective is indecomposable non-injective")
    for i in range(len(u.modules)):
        if u.is_proj[i]:
            continue
        ti = u.tau_of[i]
        translate.count(ti is not None and not is_injective_rep(u.modules[ti]),
                        {"module": u.labels[i]})

    bridge = Check("hom-into-translate vanishing matches Ext vanishing on Gen")
    gens = [u.gen_set((n,)) for n in range(len(u.modules))]
    for m in range(len(u.modules)):
        tm = u.tau_of[m]
        for n in range(len(u.modules)):
            lhs = tm is None or u.hom[n][tm] == 0
            rhs = all(u.ext[m][y] == 0 for y in gens[n])
            bridge.count(lhs == rhs, {"m": u.labels[m], "n": u.labels[n],
                                      "hom_vanishes": lhs, "ext_vanishes": rhs})

    # one presentation per module, built here, not taken from the build:
    # dim Hom(N, tau M) read off it must match the hom table into the module
    # that the build identified as tau M
    surrogate = Check("presentation cokernel equals hom into the translate")
    for m in range(len(u.modules)):
        pres = min_presentation(u.modules[m])
        tm = u.tau_of[m]
        for n in range(len(u.modules)):
            expected = 0 if tm is None else u.hom[n][tm]
            surrogate.count(tau_hom_dim(u.modules[m], u.modules[n], pres) == expected,
                            {"m": u.labels[m], "n": u.labels[n]})

    counts = Check("tilting-size support objects match torsion classes")
    tilting, torsion = u.support_tilting_count(), len(all_torsion_classes(u))
    counts.count(tilting == torsion,
                 {"support_tilting": tilting, "torsion_classes": torsion})

    return SuiteReport("enumeration", [cert, translate, bridge, surrogate, counts])


# --------------------------------------------------------------------------
# bijection suite
# --------------------------------------------------------------------------

def suite_bijections(u: ModuleUniverse) -> SuiteReport:
    amb = ambient_context(u)
    hom_out = u.hom_out
    torsion = all_torsion_classes(u)
    wides = all_wide_subcategories(u)
    wide_set = set(wides)
    rigid_sets = u.all_tau_rigid_subsets()
    # Gen, the perp-translate class and J of each rigid set
    facts = {a: (u.gen_set(a), perp_tau_members(u, a), rigid_j(u, a))
             for a in rigid_sets}

    genmin_check = Check("gen-minimal definition matches characterization")
    genmin: List[Tuple[int, ...]] = []
    for ids in rigid_sets:
        def _run(ids=ids):
            # the characterization: the module is the split projective of
            # the torsion class left-perpendicular to its J
            g = is_gen_minimal(u, ids)
            perp = ids_of(left_perp(hom_out, mask_of(facts[ids][2])))
            if g != (set(torsion_handle(u, perp).split) == set(ids)):
                return False
            if g:
                genmin.append(ids)
            return True
        genmin_check.guard(_run, {"module": _labels(u, ids)})

    to_torsion = Check("gen-minimal modules biject onto torsion classes via Gen")
    images = [facts[ids][0] for ids in genmin]
    to_torsion.count(len(set(images)) == len(images), {"issue": "not injective"})
    to_torsion.count(sorted(images, key=lambda s: (len(s), sorted(s)))
                     == list(torsion),
                     {"issue": "image differs from the torsion-class list"})
    back = Check("split projectives invert Gen")
    for ids in genmin:
        h = torsion_handle(u, facts[ids][0])
        back.count(set(h.split) == set(ids),
                   {"module": _labels(u, ids), "split": _labels(u, h.split)})

    closure = Check("torsion classes are closed under quotients and extensions")
    for t in torsion:
        closure.guard(lambda t=t: u.gen_set(t) <= t and u.filtgen_set(t) == t,
                      {"torsion": _labels(u, t)})

    tw = Check("torsion classes biject onto wide subcategories")
    wide_of_torsion = {}
    for t in torsion:
        h = torsion_handle(u, t)
        w = j_in_context(u, amb, StrObj.make(h.nonsplit,
                                             [p for p in h.orthogonal_proj]))
        wide_of_torsion[t] = w
        tw.count(w in wide_set, {"torsion": _labels(u, t), "image": _labels(u, w)})
    tw.count(len(set(wide_of_torsion.values())) == len(torsion),
             {"issue": "torsion-to-wide map is not injective"})
    back_tw = Check("filtration closure inverts the wide map")
    for t, w in wide_of_torsion.items():
        back_tw.count(u.filtgen_set(w) == t,
                      {"torsion": _labels(u, t), "wide": _labels(u, w)})

    wide_are_perp = Check("every wide subcategory is a perpendicular category")
    perp_sets = {}
    for t in u.all_support_objects():
        perp_sets.setdefault(j_in_context(u, amb, t), t)
    for w in wides:
        wide_are_perp.count(w in perp_sets, {"wide": _labels(u, w)})
    perp_are_wide = Check("every perpendicular category is a wide subcategory")
    for w in perp_sets:
        perp_are_wide.count(w in wide_set, {"members": _labels(u, w)})

    rigid_unique = Check("two of Gen, perp-translate, J determine the third and the module")
    for a in rigid_sets:
        for b in rigid_sets:
            votes = [x == y for x, y in zip(facts[a], facts[b])]
            gen_eq, perp_eq, j_eq = votes
            two_imply_third = not (sum(votes) == 2)
            all_iff_equal = (all(votes) == (a == b))
            ok = two_imply_third and all_iff_equal
            rigid_unique.count(ok, None if ok else
                               {"a": _labels(u, a), "b": _labels(u, b),
                                "gen": gen_eq, "perp": perp_eq, "j": j_eq})

    jasso = Check("perp-translate class factors as Gen followed by J")
    from tauseq.modules import quotient, trace
    for ids in rigid_sets:
        if not ids:
            continue
        gen, perp, jm = facts[ids]
        gens = [u.modules[i] for i in ids]
        for x in sorted(perp):
            def _run(x=x, gens=gens, gen=gen, jm=jm):
                t, incl = trace(gens, u.modules[x])
                q, _ = quotient(u.modules[x], incl)
                t_ids = u.identify_parts(t)
                q_ids = u.identify_parts(q)
                return (t_ids is not None and q_ids is not None
                        and set(t_ids) <= gen and set(q_ids) <= jm)
            jasso.guard(_run, {"module": _labels(u, ids), "member": u.labels[x]})

    return SuiteReport("bijections", [
        genmin_check, to_torsion, back, closure, tw, back_tw, wide_are_perp,
        perp_are_wide, rigid_unique, jasso,
    ])


# --------------------------------------------------------------------------
# reduction-map suite
# --------------------------------------------------------------------------

def suite_emap(u: ModuleUniverse) -> SuiteReport:
    amb = ambient_context(u)
    e = engine_for(u)
    xs = rel_str_indecs(u, amb)

    bijective = Check("reduction is a bijection onto each perpendicular category")
    for t in u.all_support_objects():
        def _run(t=t):
            target = context_of(u, amb, t)
            domain = [x for x in xs if compatible_in_context(u, amb, t, x)]
            image = [e.e_map(amb, t, x) for x in domain]
            return (len(set(image)) == len(image)
                    and sorted(image) == sorted(rel_str_indecs(u, target)))
        bijective.guard(_run, {"T": u.label_of_obj(t)})

    composition = Check("reduction composes across sums")
    jsum = Check("perpendicular category of a sum by reduction")
    for z in xs:
        tz = ZERO_OBJ.with_indec(z)
        for y in xs:
            if not compatible_in_context(u, amb, tz, y):
                continue
            tyz = tz.with_indec(y)

            def _jsum(y=y, tz=tz, tyz=tyz):
                lhs = j_in_context(u, amb, tyz)
                sub = context_of(u, amb, tz)
                ey = e.e_map(amb, tz, y)
                return lhs == j_in_context(u, sub, ZERO_OBJ.with_indec(ey))
            jsum.guard(_jsum, {"X": u.label_of_indec(y), "Y": u.label_of_indec(z)})
            for x in xs:
                if not compatible_in_context(u, amb, tyz, x):
                    continue

                def _run(x=x, y=y, z=z, tz=tz, tyz=tyz):
                    lhs = e.e_map(amb, tyz, x)
                    sub = context_of(u, amb, tz)
                    ey = e.e_map(amb, tz, y)
                    ex = e.e_map(amb, tz, x)
                    rhs = e.e_map(sub, ZERO_OBJ.with_indec(ey), ex)
                    return lhs == rhs
                composition.guard(_run, {"X": u.label_of_indec(x),
                                         "Y": u.label_of_indec(y),
                                         "Z": u.label_of_indec(z)})

    passdown = Check("generation passes down the reduction")
    mods = [x.mod for x in xs if not x.shift]
    for z in mods:
        for y in mods:
            for x in mods:
                if len({x, y, z}) != 3:
                    continue
                if not rel_tau_rigid(u, amb, tuple(sorted({x, y, z}))):
                    continue
                if y in u.gen_set((z,)) or x in u.gen_set((z,)):
                    continue
                if x not in u.gen_set((y, z)):
                    continue

                def _run(x=x, y=y, z=z):
                    tz = StrObj.make([z])
                    ex = e.e_map(amb, tz, StrIndec(x, 0))
                    ey = e.e_map(amb, tz, StrIndec(y, 0))
                    return (ex.shift == 0 and ey.shift == 0
                            and ex.mod in u.gen_set((ey.mod,)))
                passdown.guard(_run, {"X": u.labels[x], "Y": u.labels[y],
                                      "Z": u.labels[z]})

    projbij = Check("torsion-free functor matches projectives across reduction")
    for ids in u.all_tau_rigid_subsets():
        if not ids:
            continue

        def _run(ids=ids):
            perp = perp_tau_members(u, ids)
            sources = [q for q in torsion_handle(u, perp).ext_proj if q not in ids]
            sub = context_of(u, amb, StrObj.make(ids))
            images = []
            for q in sources:
                img = e.e_map(amb, StrObj.make(ids), StrIndec(q, 0))
                if img.shift:
                    return False
                images.append(img.mod)
            return (len(set(images)) == len(images)
                    and sorted(images) == sorted(sub.rel_proj))
        projbij.guard(_run, {"module": _labels(u, ids)})

    roundtrip = Check("ordered preimages invert the sequence map")
    filt_bridge = Check("filtration closure of a sequence equals Gen of its preimage")
    for w in all_wide_subcategories(u):
        for s in roundtrip.attempt(lambda w=w: enumerate_tau_es(u, w),
                                   {"wide": _labels(u, w)}) or ():
            cert = {"sequence": _labels(u, s)}
            tf = roundtrip.attempt(lambda s=s: omega_inverse(u, s), cert)
            if tf is not None:
                roundtrip.guard(lambda s=s, tf=tf: omega(u, tf) == s, cert)
                filt_bridge.guard(lambda s=s, tf=tf: u.filtgen_set(frozenset(s))
                                  == u.gen_set(tf), cert)

    # pair uniqueness within each pair context cell
    pair_unique = Check("pairs over one subcategory are determined entrywise")
    table = pair_unique.attempt(lambda: mutation_table(u, amb), {})
    if table is not None:
        for cell, members in table.cells.items():
            firsts = [p[0] for p in members]
            seconds = [p[1] for p in members]
            pair_unique.count(len(set(firsts)) == len(firsts)
                              and len(set(seconds)) == len(seconds),
                              {"cell": _labels(u, cell)})

    tf_unique = Check("ordered rigid pairs with equal perpendicular agree")
    tf_pairs = [p for ids in u.all_tau_rigid_subsets() if len(ids) == 2
                for p in tf_orderings(u, ids)]
    pair_j = {p: rigid_j(u, p) for p in tf_pairs}
    for (x, y) in tf_pairs:
        for (z, y2) in tf_pairs:
            if y2 != y or x == z:
                continue
            tf_unique.count(pair_j[x, y] != pair_j[z, y],
                            {"X": u.labels[x], "Z": u.labels[z], "Y": u.labels[y]})

    return SuiteReport("emap", [
        bijective, composition, jsum, passdown, projbij, roundtrip,
        pair_unique, tf_unique, filt_bridge,
    ])


# --------------------------------------------------------------------------
# mutation suite
# --------------------------------------------------------------------------

def _sequence_contexts(u: ModuleUniverse) -> List:
    amb = ambient_context(u)
    out = [amb]
    for x in rel_str_indecs(u, amb):
        if x.shift:
            continue
        out.append(context_of(u, amb, StrObj.make([x.mod])))
    return out


def suite_mutation(u: ModuleUniverse) -> SuiteReport:
    inverse = Check("left and right mutation are mutually inverse")
    preserve = Check("mutation preserves the perpendicular subcategory")
    census = Check("at most one irregular pair per group, each side")
    for ctx in _sequence_contexts(u):
        # the table does not build unless psi inverts phi
        table = inverse.attempt(lambda ctx=ctx: mutation_table(u, ctx),
                                {"context_rank": ctx.rank})
        if table is None:
            continue
        inverse.count(True)
        for cell, members in table.cells.items():
            left_irr = [p for p in table.left_irregular if p in members]
            right_irr = [p for p in table.right_irregular if p in members]
            census.count(len(left_irr) <= 1 and len(right_irr) <= 1,
                         {"cell": _labels(u, cell)})
            for p in members:
                preserve.count(table.phi[p] in members,
                               {"pair": _labels(u, p)})

    local = Check("mutation changes exactly the chosen adjacent pair")
    for w in all_wide_subcategories(u):
        for s in local.attempt(lambda w=w: enumerate_tau_es(u, w),
                               {"wide": _labels(u, w)}) or ():
            k = first_position(u, s)
            for off in range(len(s) - 1):
                def _run(s=s, off=off, k=k):
                    t = mutate(u, s, "phi", k + off)
                    back = mutate(u, t, "psi", k + off)
                    untouched = all(t[i] == s[i] for i in range(len(s))
                                    if i not in (off, off + 1))
                    return untouched and back == s
                local.guard(_run, {"sequence": _labels(u, s), "position": k + off})

    return SuiteReport("mutation", [inverse, preserve, census, local])


# --------------------------------------------------------------------------
# transitivity suite
# --------------------------------------------------------------------------

PAIR_BUDGET = 40000


def suite_transitivity(u: ModuleUniverse) -> SuiteReport:
    counts = Check("sequence enumeration matches the recursive definition")
    connected = Check("mutation graph is connected")
    words = Check("normalization words connect all pairs of sequences")
    monotone = Check("normalization strictly grows the torsion class")
    unique_min = Check("one gen-minimal preimage sum per wide subcategory")
    bound = u.support_tilting_count()

    for w in all_wide_subcategories(u):
        seqs = counts.attempt(lambda w=w: enumerate_tau_es(u, w), {"wide": _labels(u, w)})
        if seqs is None:
            continue
        oracle = enumerate_tau_es_recursive(u, w)
        counts.count(seqs == oracle, {"wide": _labels(u, w),
                                      "primary": len(seqs), "oracle": len(oracle)})
        connected.guard(lambda w=w: mutation_graph(u, w).is_connected(),
                        {"wide": _labels(u, w)})
        def _unique(w=w, seqs=seqs):
            minimal_sums = set()
            for s in seqs:
                tf = omega_inverse(u, s)
                if is_gen_minimal(u, tf):
                    minimal_sums.add(tuple(sorted(tf)))
            return len(minimal_sums) <= 1
        unique_min.guard(_unique, {"wide": _labels(u, w)})
        normal: Dict = {}
        for s in seqs:
            trace: List = []
            def _run(s=s, trace=trace):
                normal[s] = normalize(u, s, trace=trace)
                sizes = [len(t) for t in trace]
                return (all(a < b for a, b in zip(sizes, sizes[1:]))
                        and len(trace) <= bound)
            monotone.guard(_run, {"sequence": _labels(u, s)})
        if len(seqs) ** 2 > PAIR_BUDGET:
            words.skipped += len(seqs) ** 2
            continue
        bridges: Dict = {}
        for s1 in seqs:
            for s2 in seqs:
                def _run(s1=s1, s2=s2):
                    # a sequence whose normalization failed raises again here
                    n1, w1 = normal[s1] if s1 in normal else normalize(u, s1)
                    n2, w2 = normal[s2] if s2 in normal else normalize(u, s2)
                    if (n1, n2) not in bridges:
                        bridges[n1, n2] = tuple(bridge(u, n1, n2))
                    steps = w1.steps + bridges[n1, n2] + w2.inverse_steps()
                    return apply_steps(u, s1, steps) == s2
                words.guard(_run, {"from": _labels(u, s1), "to": _labels(u, s2)})

    corank2 = Check("rank n-2 subcategories come from a gen-minimal pair")
    serre_chain = Check("right mutation chain descends through the split pair")
    for w in all_wide_subcategories(u):
        if context_from_members(u, w).rank != u.n - 2:
            continue
        handle = torsion_handle(u, ids_of(left_perp(u.hom_out, mask_of(w))))
        def _run(w=w, handle=handle):
            if len(handle.split) != 2:
                return False
            pair = tuple(sorted(handle.split))
            return is_gen_minimal(u, pair) and rigid_j(u, pair) == w
        corank2.guard(_run, {"wide": _labels(u, w), "split": _labels(u, handle.split)})
        if len(handle.split) == 2:
            uu, vv = handle.split
            if u.is_proj[uu] and u.is_proj[vv]:
                for first, second in ((uu, vv), (vv, uu)):
                    def _run_chain(first=first, second=second):
                        return _check_serre_chain(u, first, second)
                    serre_chain.guard(_run_chain,
                                      {"V": u.labels[first], "U": u.labels[second]})

    swaps = Check("adjacent transpositions are powers of one mutation")
    for ids in u.all_tau_rigid_subsets():
        if len(ids) < 2:
            continue
        orderings = tf_orderings(u, ids)
        valid = set(orderings)
        for perm in orderings:
            for pos in range(len(perm) - 1):
                swapped = perm[:pos] + (perm[pos + 1], perm[pos]) + perm[pos + 2:]
                if swapped not in valid:
                    continue

                def _run(perm=perm, swapped=swapped, pos=pos):
                    s1 = omega(u, perm)
                    s2 = omega(u, swapped)
                    k = first_position(u, s1)
                    word = transposition_word(u, s1, k + pos, s2)
                    ctx = tail_context(u, s1[pos + 2:])
                    cell = mutation_table(u, ctx).cell_size((s1[pos], s1[pos + 1]))
                    return word.length <= cell
                swaps.guard(_run, {"ordering": _labels(u, perm), "position": pos})

    return SuiteReport("transitivity", [
        counts, connected, monotone, words, unique_min, corank2, serre_chain,
        swaps,
    ])


def _check_serre_chain(u: ModuleUniverse, v_mod: int, u_mod: int) -> bool:
    """Iterate the right mutation from the sequence of (V, U); the second
    entries must strictly descend in Gen until they hit V, and the chain must
    end at the sequence of (U, V).  Each Gen is a torsion class, so a chain
    that descends strictly has at most as many steps as there are support
    tau-tilting objects."""
    try:
        seq = omega(u, (v_mod, u_mod))
    except NotTFOrdered:
        return True  # not an ordering; nothing to trace
    target = omega(u, (u_mod, v_mod))
    k = first_position(u, seq)
    prev_gen = None
    for _ in range(u.support_tilting_count() + 1):
        tf = omega_inverse(u, seq)
        u_l = tf[1]
        if u_l == v_mod:
            return tf[0] == u_mod and seq == target
        g = u.gen_set((u_l,))
        if prev_gen is not None and not (g < prev_gen):
            return False
        prev_gen = g
        seq = mutate(u, seq, "psi", k)
    return False


SUITES: Dict[str, Callable[[ModuleUniverse], SuiteReport]] = {
    "enumeration": suite_enumeration,
    "bijections": suite_bijections,
    "emap": suite_emap,
    "mutation": suite_mutation,
    "transitivity": suite_transitivity,
}


def run_suites(u: ModuleUniverse, names: Sequence[str]) -> List[SuiteReport]:
    """Run the named suites; a suite that raises a diagnostic is reported
    with the one failed check "suite ran to completion"."""
    if "all" in names:
        names = list(SUITES)
    out = []
    for n in names:
        if n not in SUITES:
            raise KeyError("unknown suite %r" % n)
        ran = Check("suite ran to completion")
        report = ran.attempt(lambda n=n: SUITES[n](u), {"suite": n})
        out.append(report or SuiteReport(n, [ran]))
    return out
