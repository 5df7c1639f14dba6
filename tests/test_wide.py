import itertools

import pytest

from tauseq.errors import Mismatch, NotInW, NotTauRigid, RankMismatch, TauSeqError
from tauseq.fields import FieldSpec
from tauseq.quiver import Quiver, build_algebra
from tauseq.sequences import is_gen_minimal
from tauseq.tables import StrIndec, StrObj
from tauseq.universe import ModuleUniverse
from tauseq.verify import suite_bijections
from tauseq.wide import (
    Context, all_torsion_classes, all_wide_subcategories, ambient_context,
    context_from_members, context_of, gen_mask, ids_of, j_in_context,
    rel_ext_projectives, rel_perp_tau, rel_str_indecs, rel_tau_rigid,
    torsion_handle, valid_rel_str_obj,
)

from oracles import bongartz, co_bongartz, j_set_ambient_direct, torsion_t_f


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3(a3):
    return ModuleUniverse(a3)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def ids(u, *labels):
    return tuple(u.id_of_label(x) for x in labels)


def test_a2_torsion_class_count(u2):
    assert len(all_torsion_classes(u2)) == 5


def test_a3_torsion_class_count(u3):
    assert len(all_torsion_classes(u3)) == 14


def test_wide_counts_match_torsion_counts(u2, u3r):
    # over a tau-tilting finite algebra the two families biject
    assert len(all_wide_subcategories(u2)) == len(all_torsion_classes(u2)) == 5
    assert len(all_wide_subcategories(u3r)) == len(all_torsion_classes(u3r))


def test_ext_projectives_of_gen_p1(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    members = u2.gen_set({p1})
    assert members == frozenset({p1, s1})
    h = torsion_handle(u2, members)
    assert set(h.ext_proj) == {p1, s1}
    assert h.split == (p1,)
    assert h.nonsplit == (s1,)
    # P1 + S1 is tilting-size, so no projective is orthogonal to Gen P1:
    # Hom(P2, P1) is the socle embedding
    assert h.orthogonal_proj == ()


def test_ext_projectives_of_extremes(u2):
    everything = frozenset(range(len(u2.modules)))
    h = torsion_handle(u2, everything)
    assert set(h.split) == {u2.id_of_label("P1"), u2.id_of_label("S2")}
    assert h.orthogonal_proj == ()
    h0 = torsion_handle(u2, frozenset())
    assert h0.ext_proj == ()
    assert len(h0.orthogonal_proj) == 2


def test_torsion_t_f(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    t, f = torsion_t_f(u2, {s2}, u2.modules[p1])
    assert t.dims == (0, 1) and f.dims == (1, 0)
    t, f = torsion_t_f(u2, u2.gen_set({p1}), u2.modules[p1])
    assert f.total_dim == 0
    t, f = torsion_t_f(u2, {s1}, u2.modules[s2])
    assert t.total_dim == 0 and f.dims == (0, 1)


def test_bongartz_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert set(bongartz(u2, (s1,))) == {s1, p1}
    assert set(bongartz(u2, (p1, s2))) == {p1, s2}
    ext_proj, orth = co_bongartz(u2, (s1,))
    assert set(ext_proj) == {s1} and set(orth) == {s2}


def test_bongartz_rejects_non_rigid(u3):
    s1, s2 = ids(u3, "S1", "S2")
    with pytest.raises(NotTauRigid):
        bongartz(u3, (s1, s2))  # Hom(S2, tau S1) != 0


def test_j_category_a2(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    ctx = context_of(u2, amb, StrObj.make([s1]))
    assert ctx.members == frozenset({p1})
    assert ctx.rank == 1
    # J of the whole algebra is zero
    ctx0 = context_of(u2, amb, StrObj.make([p1, s2]))
    assert ctx0.members == frozenset() and ctx0.rank == 0
    # Serre subcategory J(0, P2)
    serre = context_of(u2, amb, StrObj.make([], [s2]))
    assert serre.members == frozenset({s1})


def test_j_relative_matches_direct_ambient(u2, u3, u3r):
    for u in (u2, u3, u3r):
        amb = ambient_context(u)
        for t in u.all_support_objects():
            assert j_in_context(u, amb, t) == j_set_ambient_direct(u, t)


def test_rank_formula_everywhere(u2, u3, u3r):
    for u in (u2, u3, u3r):
        amb = ambient_context(u)
        for t in u.all_support_objects():
            ctx = context_of(u, amb, t)  # raises RankMismatch on failure
            assert ctx.rank == u.n - t.delta


def test_rel_tau_rigid_degenerate_case(u2):
    amb = ambient_context(u2)
    for i in range(len(u2.modules)):
        assert rel_tau_rigid(u2, amb, (i,)) == u2.tau_rigid[i]


def test_rel_str_indecs_of_serre_context(u3r):
    # J(S3) over the rad-square algebra: modules vanishing at vertex 3
    amb = ambient_context(u3r)
    s3 = u3r.id_of_label("S3")
    ctx = context_of(u3r, amb, StrObj.make([s3]))
    labels = sorted(u3r.labels[i] for i in ctx.members)
    assert labels == ["S1", "S2", "110#1"] or len(ctx.members) == 3
    xs = rel_str_indecs(u3r, ctx)
    assert len([x for x in xs if x.shift == 0]) == 3
    assert len([x for x in xs if x.shift == 1]) == 2


def test_gen_minimality_summandwise(u2):
    # the summand-by-summand test now lives in sequences.is_gen_minimal
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert is_gen_minimal(u2, (p1, s2))
    assert not is_gen_minimal(u2, (p1, s1))
    assert is_gen_minimal(u2, (s1,))
    assert is_gen_minimal(u2, ())


# --------------------------------------------------------------------------
# the bitmask layer against reference loops over frozensets
# --------------------------------------------------------------------------

def ref_gen_in(u, ctx, ids):
    return u.gen_set(ids) & ctx.members


def ref_rel_tau_rigid(u, ctx, ids):
    if not ids:
        return True
    for i in ids:
        if i not in ctx.members:
            raise NotInW("module %s lies outside the wide subcategory" % u.labels[i])
    targets = ref_gen_in(u, ctx, ids)
    return all(u.ext[m][y] == 0 for m in ids for y in targets)


def ref_rel_perp_tau(u, ctx, ids):
    return frozenset(z for z in sorted(ctx.members)
                     if all(u.ext[m][y] == 0 for m in ids
                            for y in ref_gen_in(u, ctx, (z,))))


def ref_rel_ext_projectives(u, members):
    ms = sorted(members)
    return tuple(q for q in ms if all(u.ext[q][y] == 0 for y in ms))


def ref_valid_rel_str_obj(u, ctx, t):
    if len(set(t.mods)) != len(t.mods) or len(set(t.shifts)) != len(t.shifts):
        return False
    if not set(t.mods) <= ctx.members or not set(t.shifts) <= set(ctx.rel_proj):
        return False
    if not ref_rel_tau_rigid(u, ctx, t.mods):
        return False
    return all(u.hom[p][m] == 0 for p in t.shifts for m in t.mods)


def ref_j_in_context(u, ctx, t):
    perp = ref_rel_perp_tau(u, ctx, t.mods)
    return frozenset(x for x in perp
                     if all(u.hom[i][x] == 0 for i in t.mods + t.shifts))


def ref_context_of(u, ctx, t):
    """(members, relative projectives, rank) of J(t), or the exception."""
    if not ref_valid_rel_str_obj(u, ctx, t):
        raise NotTauRigid("object %s is not support tau-rigid in the context"
                          % u.label_of_obj(t))
    members = ref_j_in_context(u, ctx, t)
    rel = ref_rel_ext_projectives(u, members)
    if len(rel) != ctx.rank - t.delta:
        raise RankMismatch("wide subcategory has %d relative projectives, expected "
                           "rank %d" % (len(rel), ctx.rank - t.delta))
    return members, rel, len(rel)


def outcome(f, *args):
    try:
        return f(*args)
    except TauSeqError as exc:
        return type(exc), str(exc)


def _linear(n, characteristic=0, relations=()):
    names = [str(v + 1) for v in range(n)]
    arrows = [("a%d" % v, names[v], names[v + 1]) for v in range(n - 1)]
    return build_algebra(Quiver(names, arrows), FieldSpec(characteristic), relations)


def _nakayama2(relations):
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return build_algebra(q, FieldSpec(0), relations)


MASK_ALGEBRAS = {
    "a2": lambda: _linear(2),
    "a3": lambda: _linear(3),
    "a3rad2": lambda: _linear(3, 0, [["a0", "a1"]]),
    "nakayama2_rad2": lambda: _nakayama2([["a", "b"], ["b", "a"]]),
    # its two length-two modules are not tau-rigid, but each is in the
    # J of a simple
    "nakayama2_rad3": lambda: _nakayama2([["a", "b", "a"], ["b", "a", "b"]]),
    "a3rad2_gf3": lambda: _linear(3, 3, [["a0", "a1"]]),
    "a4": lambda: _linear(4),
}


def objects_to_check(u, ctx):
    """Every support object of the ambient category, every combination of at
    most rank + 1 indecomposable support objects of the context, and objects
    that repeat a summand or put a projective on both sides."""
    indecs = [StrIndec(i, 0) for i in sorted(ctx.members)
              if ref_rel_tau_rigid(u, ctx, (i,))]
    indecs += [StrIndec(p, 1) for p in ctx.rel_proj]
    assert rel_str_indecs(u, ctx) == indecs
    out = set(u.all_support_objects())
    for r in range(ctx.rank + 2):
        for combo in itertools.combinations(indecs, r):
            t = StrObj((), ())
            for x in combo:
                t = t.with_indec(x)
            out.add(t)
    for i in sorted(ctx.members):
        out.add(StrObj((i, i), ()))
    for p in ctx.rel_proj:
        out.add(StrObj((), (p, p)))
        out.add(StrObj((p,), (p,)))
    return sorted(out)


@pytest.mark.parametrize("name", sorted(MASK_ALGEBRAS))
def test_mask_layer_matches_the_frozenset_loops(name):
    u = ModuleUniverse(MASK_ALGEBRAS[name]())
    amb = ambient_context(u)
    contexts = [amb] + [context_of(u, amb, x_obj)
                        for x_obj in (StrObj((), ()).with_indec(x)
                                      for x in rel_str_indecs(u, amb))]
    valid = 0
    for ctx in contexts:
        assert ctx.rel_proj == ref_rel_ext_projectives(u, ctx.members)
        assert rel_ext_projectives(u, ctx.members) == ctx.rel_proj
        for t in objects_to_check(u, ctx):
            where = (name, sorted(ctx.members), t)
            assert outcome(rel_tau_rigid, u, ctx, t.mods) == \
                outcome(ref_rel_tau_rigid, u, ctx, t.mods), where
            assert rel_perp_tau(u, ctx, t.mods) == ref_rel_perp_tau(u, ctx, t.mods), where
            assert valid_rel_str_obj(u, ctx, t) == ref_valid_rel_str_obj(u, ctx, t), where
            assert j_in_context(u, ctx, t) == ref_j_in_context(u, ctx, t), where
            got = outcome(context_of, u, ctx, t)
            if isinstance(got, Context):
                got = (got.members, got.rel_proj, got.rank)
                valid += 1
            assert got == outcome(ref_context_of, u, ctx, t), where
    assert valid > len(contexts)


@pytest.mark.parametrize("name", ["a3rad2", "nakayama2_rad2"])
def test_equal_member_sets_give_the_identical_context(name):
    u = ModuleUniverse(MASK_ALGEBRAS[name]())
    amb = ambient_context(u)
    assert context_from_members(u, range(len(u.modules))) is amb
    for t in u.all_support_objects():
        ctx = context_of(u, amb, t)
        assert context_of(u, amb, t) is ctx
        assert context_from_members(u, sorted(ctx.members, reverse=True)) is ctx
        assert j_in_context(u, amb, t) is ctx.members
        for x in rel_str_indecs(u, ctx):
            sub = context_of(u, ctx, StrObj((), ()).with_indec(x))
            assert context_from_members(u, set(sub.members)) is sub


# --------------------------------------------------------------------------
# the torsion and wide lattices against independent routes
# --------------------------------------------------------------------------

def _loop_rad2():
    return build_algebra(Quiver(["1"], [("x", "1", "1")]), FieldSpec(0), [["x", "x"]])


def _nakayama3_rad3():
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    return build_algebra(q, FieldSpec(0),
                         [["a", "b", "c"], ["b", "c", "a"], ["c", "a", "b"]])


LATTICE_ALGEBRAS = dict(MASK_ALGEBRAS, loop_rad2=_loop_rad2,
                        nakayama3_rad3=_nakayama3_rad3)


def by_size(sets):
    return sorted(sets, key=lambda s: (len(s), sorted(s)))


def ref_torsion_classes(u):
    """The filtration closure of every subset."""
    count = len(u.modules)
    return by_size({u.filtgen_set(frozenset(i for i in range(count) if bits >> i & 1))
                    for bits in range(2 ** count)})


# nakayama2_rad3 and loop_rad2 have indecomposables that are not bricks and
# ones that are not tau-rigid; a3rad2_gf3 is over GF(3), nakayama3_rad3 a cycle
@pytest.mark.parametrize("name", ["a2", "a3", "a3rad2", "nakayama2_rad2", "a4",
                                  "nakayama2_rad3", "a3rad2_gf3", "loop_rad2",
                                  "nakayama3_rad3"])
def test_torsion_classes_match_the_subset_loop(name):
    u = ModuleUniverse(LATTICE_ALGEBRAS[name]())
    assert all_torsion_classes(u) == ref_torsion_classes(u)


@pytest.mark.parametrize("name", sorted(LATTICE_ALGEBRAS))
def test_gen_mask_and_split_projectives_match_the_trace_oracle(name):
    u = ModuleUniverse(LATTICE_ALGEBRAS[name]())
    for ids in u.all_tau_rigid_subsets():
        assert frozenset(ids_of(gen_mask(u, ids))) == u.gen_set(ids), (name, ids)
    # on any single module the mask is the smallest torsion class holding it
    for z in range(len(u.modules)):
        assert frozenset(ids_of(gen_mask(u, (z,)))) == u.filtgen_set((z,)), (name, z)
    for t in all_torsion_classes(u):
        h = torsion_handle(u, t)
        inside = [q in u.gen_set(t - {q}) for q in h.ext_proj]
        assert h.nonsplit == tuple(q for q, i in zip(h.ext_proj, inside) if i)
        assert h.split == tuple(q for q, i in zip(h.ext_proj, inside) if not i)


# nakayama2_rad3 has two non-brick projectives, loop_rad2 a non-brick one
@pytest.mark.parametrize("name,count", [
    ("a2", 5), ("a3", 14), ("a4", 42), ("a3rad2_gf3", 12), ("nakayama2_rad3", 6),
    ("loop_rad2", 2), ("nakayama3_rad3", 20),
])
def test_wide_subcategories_are_the_perpendicular_categories(name, count):
    u = ModuleUniverse(LATTICE_ALGEBRAS[name]())
    amb = ambient_context(u)
    perps = by_size({j_in_context(u, amb, t) for t in u.all_support_objects()})
    assert all_wide_subcategories(u) == perps
    assert len(perps) == count == u.support_tilting_count()
    bricks = [i for i in range(len(u.modules)) if u.hom[i][i] == 1]
    assert len(bricks) == sum(u.tau_rigid)


def test_a5_lattices_have_the_catalan_count():
    u = ModuleUniverse(_linear(5))
    assert len(all_torsion_classes(u)) == len(all_wide_subcategories(u)) == 132


WIDE_CHECKS = ("torsion classes biject onto wide subcategories",
               "every wide subcategory is a perpendicular category",
               "every perpendicular category is a wide subcategory")


@pytest.mark.parametrize("name", ["a2", "a3", "a3rad2"])
def test_a_lost_map_between_bricks_is_reported(name):
    clean = ModuleUniverse(LATTICE_ALGEBRAS[name]())
    bricks = [i for i in range(len(clean.modules)) if clean.hom[i][i] == 1]
    faults = [(i, j) for i in bricks for j in bricks if i != j and clean.hom[i][j]]
    assert faults
    for i, j in faults:
        u = ModuleUniverse(LATTICE_ALGEBRAS[name]())
        assert not {"hom_out", "ext_out", "gens"} & vars(u).keys()
        u.hom[i][j] = 0
        try:
            report = suite_bijections(u)
        except Mismatch:
            continue
        failures = [f for c in report.checks if c.name in WIDE_CHECKS
                    for f in c.failures]
        assert failures and all(failures), (name, u.labels[i], u.labels[j])
