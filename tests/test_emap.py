import itertools

import pytest

from tauseq.errors import (
    Incompatible, MultiplePreimages, NoPreimage, TauSeqError,
)
from tauseq.emap import engine_for
from tauseq.fields import FieldSpec
from tauseq.modules import quotient, trace
from tauseq.quiver import Quiver, build_algebra
from tauseq.tables import StrIndec, StrObj, ZERO_OBJ
from tauseq.universe import ModuleUniverse
from tauseq.wide import (
    ambient_context, compatible_in_context, context_of, rel_str_indecs,
    rel_tau_rigid, valid_rel_str_obj,
)
from test_wide import MASK_ALGEBRAS


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def ids(u, *labels):
    return tuple(u.id_of_label(x) for x in labels)


def test_e_map_module_case(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    e = engine_for(u2)
    # P1 not generated by S2: quotient by the socle is S1
    assert e.e_map(amb, StrObj.make([s2]), StrIndec(p1, 0)) == StrIndec(s1, 0)
    # trace of S1 in P1 is zero, so P1 passes through unchanged
    assert e.e_map(amb, StrObj.make([s1]), StrIndec(p1, 0)) == StrIndec(p1, 0)


def test_e_map_shifted_case(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    e = engine_for(u2)
    # S1 lies in Gen P1, so it reduces to a shifted relative projective
    assert e.e_map(amb, StrObj.make([p1]), StrIndec(s1, 0)) == StrIndec(s2, 1)
    # shifted arguments always take the matching route
    assert e.e_map(amb, StrObj.make([s1]), StrIndec(s2, 1)) == StrIndec(p1, 1)


def test_e_map_zero_object_is_identity(u2):
    amb = ambient_context(u2)
    e = engine_for(u2)
    for x in rel_str_indecs(u2, amb):
        assert e.e_map(amb, ZERO_OBJ, x) == x


def test_e_map_incompatible(u2):
    s1, s2 = ids(u2, "S1", "S2")
    amb = ambient_context(u2)
    e = engine_for(u2)
    with pytest.raises(Incompatible):
        e.e_map(amb, StrObj.make([s1]), StrIndec(s2, 0))
    with pytest.raises(Incompatible):
        e.e_map(amb, StrObj.make([s1]), StrIndec(s1, 0))


def test_e_inverse_round_trips(u2):
    amb = ambient_context(u2)
    e = engine_for(u2)
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    assert e.e_inverse(amb, StrObj.make([s2]), StrIndec(s1, 0)) == StrIndec(p1, 0)
    assert e.e_inverse(amb, StrObj.make([p1]), StrIndec(s2, 1)) == StrIndec(s1, 0)
    assert e.e_inverse(amb, ZERO_OBJ, StrIndec(p1, 0)) == StrIndec(p1, 0)


def test_e_map_is_bijective_onto_target(u2, u3r):
    # for every support object T, E is a bijection from the compatible
    # indecomposables onto the indecomposable support objects of J(T)
    for u in (u2, u3r):
        amb = ambient_context(u)
        e = engine_for(u)
        for t in u.all_support_objects():
            target = context_of(u, amb, t)
            domain = [x for x in rel_str_indecs(u, amb)
                      if compatible_in_context(u, amb, t, x)]
            image = [e.e_map(amb, t, x) for x in domain]
            assert len(set(image)) == len(image)
            assert sorted(image) == sorted(rel_str_indecs(u, target))


def test_fault_injection_changes_output(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    e = engine_for(u2)
    key = e.key(amb, StrObj.make([s2]), StrIndec(p1, 0))
    honest = e.e_map(amb, StrObj.make([s2]), StrIndec(p1, 0))
    e.inject_fault(key, StrIndec(s2, 1))
    try:
        assert e.e_map(amb, StrObj.make([s2]), StrIndec(p1, 0)) == StrIndec(s2, 1)
    finally:
        e.clear_faults()
    assert e.e_map(amb, StrObj.make([s2]), StrIndec(p1, 0)) == honest


# --------------------------------------------------------------------------
# the inverse table against a scan of every indecomposable
# --------------------------------------------------------------------------

def scan_e_inverse(e, ctx, t, y):
    """E^-1 by scanning every indecomposable of the context, as a reference
    for the inverse table."""
    u = e.u
    target = context_of(u, ctx, t)
    if y.shift:
        if y.mod not in target.rel_proj:
            raise NoPreimage("%s is not a shifted relative projective of J(T)"
                             % u.label_of_indec(y))
    else:
        if y.mod not in target.members or not rel_tau_rigid(u, target, (y.mod,)):
            raise NoPreimage("%s is not support tau-rigid in J(T)"
                             % u.label_of_indec(y))
    found = None
    for x in rel_str_indecs(u, ctx):
        if not compatible_in_context(u, ctx, t, x):
            continue
        if e.e_map(ctx, t, x) == y:
            if found is not None:
                raise MultiplePreimages(
                    "both %s and %s reduce to %s" %
                    (u.label_of_indec(found), u.label_of_indec(x),
                     u.label_of_indec(y)))
            found = x
    if found is None:
        raise NoPreimage("nothing reduces to %s over %s"
                         % (u.label_of_indec(y), u.label_of_obj(t)))
    return found


def outcome(f, *args):
    try:
        return f(*args)
    except TauSeqError as exc:
        return type(exc), str(exc)


def support_objects_in(u, ctx):
    indecs = rel_str_indecs(u, ctx)
    out = []
    for r in range(len(indecs) + 1):
        for combo in itertools.combinations(indecs, r):
            t = ZERO_OBJ
            for x in combo:
                t = t.with_indec(x)
            if valid_rel_str_obj(u, ctx, t):
                out.append(t)
    return out


def _a3_rad2(characteristic):
    q = Quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    return build_algebra(q, FieldSpec(characteristic), [["a", "b"]])


def _nakayama2_rad2():
    q = Quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    return build_algebra(q, FieldSpec(0), [["a", "b"], ["b", "a"]])


@pytest.mark.parametrize("name", ["a2", "a3", "a3rad2", "nakayama2_rad2",
                                  "a3rad2_gf3"])
def test_e_inverse_table_matches_a_full_scan(name, request):
    builders = {"nakayama2_rad2": _nakayama2_rad2,
                "a3rad2_gf3": lambda: _a3_rad2(3)}
    alg = builders[name]() if name in builders else request.getfixturevalue(name)
    u = ModuleUniverse(alg)
    e = engine_for(u)
    amb = ambient_context(u)
    # one nested J(T): the largest proper perpendicular category
    nested = max((context_of(u, amb, t) for t in u.all_support_objects()
                  if t.delta == 1), key=lambda c: (len(c.members), sorted(c.members)))
    ys = [StrIndec(i, s) for i in range(len(u.modules)) for s in (0, 1)]
    checked = 0
    for ctx in (amb, nested):
        for t in support_objects_in(u, ctx):
            for y in ys:
                table = outcome(e.e_inverse, ctx, t, y)
                scan = outcome(scan_e_inverse, e, ctx, t, y)
                assert table == scan, (name, ctx.members, t, y)
                checked += isinstance(table, StrIndec)
    assert checked > 0


def test_fault_at_a_built_table_is_seen_and_cleared(u2):
    s1, s2, p1 = ids(u2, "S1", "S2", "P1")
    amb = ambient_context(u2)
    e = engine_for(u2)
    t = StrObj.make([s2])
    # E over S2 sends P1 to S1 and P1[1] to S1[1]; build the table first
    assert e.e_inverse(amb, t, StrIndec(s1, 0)) == StrIndec(p1, 0)
    assert e.e_inverse(amb, t, StrIndec(s1, 1)) == StrIndec(p1, 1)
    e.inject_fault(e.key(amb, t, StrIndec(p1, 0)), StrIndec(s1, 1))
    try:
        with pytest.raises(NoPreimage, match="nothing reduces to"):
            e.e_inverse(amb, t, StrIndec(s1, 0))
        with pytest.raises(MultiplePreimages, match="both 11#1 and 11#1\\[1\\]"):
            e.e_inverse(amb, t, StrIndec(s1, 1))
    finally:
        e.clear_faults()
    assert e.e_inverse(amb, t, StrIndec(s1, 0)) == StrIndec(p1, 0)
    assert e.e_inverse(amb, t, StrIndec(s1, 1)) == StrIndec(p1, 1)


def test_second_e_inverse_reads_the_table(a3rad2, monkeypatch):
    u = ModuleUniverse(a3rad2)
    e = engine_for(u)
    amb = ambient_context(u)
    calls = []
    real = e.e_map

    def spy(ctx, t, x):
        calls.append((ctx.members, t, x))
        return real(ctx, t, x)

    monkeypatch.setattr(e, "e_map", spy)
    t = next(t for t in u.all_support_objects() if t.delta == 1)
    image = rel_str_indecs(u, context_of(u, amb, t))
    assert len(image) >= 2
    assert e.e_inverse(amb, t, image[0]) is not None
    assert calls
    calls.clear()
    for y in image:
        e.e_inverse(amb, t, y)
    assert calls == []


# --------------------------------------------------------------------------
# the module case against the trace, quotient and decomposition route
# --------------------------------------------------------------------------

def reference_module_case(u, t, x):
    """E of a module outside Gen of the module part of T, at the module
    level: the quotient by the trace of the module part, decomposed."""
    rep = u.modules[x.mod]
    if t.mods:
        _, incl = trace([u.modules[i] for i in t.mods], rep)
        rep, _ = quotient(rep, incl)
    parts = u.identify_parts(rep)
    assert parts is not None and len(parts) == 1
    return StrIndec(parts[0], 0)


@pytest.mark.parametrize("name", sorted(MASK_ALGEBRAS))
def test_module_case_matches_the_trace_quotient_route(name):
    u = ModuleUniverse(MASK_ALGEBRAS[name]())
    e = engine_for(u)
    amb = ambient_context(u)
    contexts = [amb] + [context_of(u, amb, ZERO_OBJ.with_indec(x))
                        for x in rel_str_indecs(u, amb)]
    checked = 0
    for ctx in contexts:
        for t in support_objects_in(u, ctx):
            gen = u.gen_set(t.mods)
            for x in rel_str_indecs(u, ctx):
                if x.shift or not compatible_in_context(u, ctx, t, x):
                    continue
                got = e.e_map(ctx, t, x)
                where = (name, sorted(ctx.members), t, x)
                if x.mod in gen:
                    assert got.shift == 1, where
                else:
                    assert got == reference_module_case(u, t, x), where
                    checked += 1
    assert checked > len(contexts)
