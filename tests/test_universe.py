import pytest
from hypothesis import given, strategies as st

from tauseq.errors import BoundTooSmall
from tauseq.modules import projective, simple
from tauseq.tables import StrIndec, StrObj
from tauseq.universe import ModuleUniverse
from tauseq.wide import ambient_context, rel_str_indecs

from oracles import indec_compatible


@pytest.fixture(scope="module")
def u2(a2):
    return ModuleUniverse(a2)


@pytest.fixture(scope="module")
def u3(a3):
    return ModuleUniverse(a3)


@pytest.fixture(scope="module")
def u3r(a3rad2):
    return ModuleUniverse(a3rad2)


def test_a2_has_three_indecomposables(u2):
    assert len(u2.modules) == 3
    assert sorted(m.dims for m in u2.modules) == [(0, 1), (1, 0), (1, 1)]
    assert u2.certified


def test_a3_has_six_indecomposables(u3):
    assert len(u3.modules) == 6
    assert u3.certified


def test_a3rad2_has_five_indecomposables(u3r):
    assert len(u3r.modules) == 5
    assert sorted(m.dims for m in u3r.modules) == [
        (0, 0, 1), (0, 1, 0), (0, 1, 1), (1, 0, 0), (1, 1, 0)]
    assert u3r.certified


def test_identify_round_trip(u3):
    for i, m in enumerate(u3.modules):
        assert u3.identify(m) == i


def test_labels_are_stable_and_parse(u2):
    for i, lab in enumerate(u2.labels):
        assert u2.id_of_label(lab) == i
    assert u2.id_of_label("S1") == u2.identify(simple(u2.algebra, 0))
    assert u2.id_of_label("P1") == u2.identify(projective(u2.algebra, 0))
    assert u2.id_of_label("11") == u2.identify(projective(u2.algebra, 0))


def str_indecs(u):
    return rel_str_indecs(u, ambient_context(u))


def test_str_indec_count_a2(u2):
    # all three modules are tau-rigid; two projectives give two shifts
    assert len(str_indecs(u2)) == 5


def test_str_indec_count_a3(u3):
    assert len([x for x in str_indecs(u3) if x.shift == 0]) == 6
    assert len([x for x in str_indecs(u3) if x.shift == 1]) == 3


def test_str_indec_count_a3rad2(u3r):
    assert len([x for x in str_indecs(u3r) if x.shift == 0]) == 5
    assert len([x for x in str_indecs(u3r) if x.shift == 1]) == 3


def test_tau_table_a2(u2):
    s1 = u2.id_of_label("S1")
    s2 = u2.id_of_label("S2")
    assert u2.tau_of[s1] == s2
    assert u2.tau_of[s2] is None
    assert u2.tau_of[u2.id_of_label("P1")] is None


def test_gen_sets_a2(u2):
    s1, s2, p1 = (u2.id_of_label(x) for x in ("S1", "S2", "P1"))
    assert u2.gen_set({p1}) == {p1, s1}
    assert u2.gen_set({s1}) == {s1}
    assert u2.gen_set({s2}) == {s2}
    assert u2.filtgen_contains({s1, s2}, p1)  # extension of S1 by S2
    assert not u2.filtgen_contains({s1}, p1)


def test_compatibility_a2(u2):
    s1, s2, p1 = (u2.id_of_label(x) for x in ("S1", "S2", "P1"))
    assert indec_compatible(u2, StrIndec(s1, 0), StrIndec(p1, 0))
    assert not indec_compatible(u2, StrIndec(s1, 0), StrIndec(s2, 0))
    assert not indec_compatible(u2, StrIndec(s2, 0), StrIndec(s2, 1))
    # Hom(P1, S2) = 0, so S2 + P1[1] is a valid support object
    assert u2.hom[p1][s2] == 0
    assert indec_compatible(u2, StrIndec(s2, 0), StrIndec(p1, 1))
    # Hom(P1, S1) != 0 rules out S1 + P1[1]
    assert not indec_compatible(u2, StrIndec(s1, 0), StrIndec(p1, 1))


def test_tau_rigid_subsets_a2(u2):
    subsets = u2.all_tau_rigid_subsets()
    # (), (S1), (S2), (P1), (S1,P1), (S2,P1)
    assert len(subsets) == 6


def test_bound_too_small(a3):
    with pytest.raises(BoundTooSmall):
        ModuleUniverse(a3, dim_bound=(1, 1, 0))


def test_certificate_present(u3):
    assert u3.certificate["stable_under_cap_plus_one"]
    assert u3.certificate["closed_under_translates"]


ids_lists = st.lists(st.integers(0, 20), max_size=5)


@given(ids_lists, ids_lists, st.booleans())
def test_str_obj_make_sorts_both_tuples(mods, shifts, as_tuples):
    if as_tuples:
        mods, shifts = tuple(mods), tuple(shifts)
    t = StrObj.make(mods, shifts)
    assert type(t) is StrObj
    assert t == (tuple(sorted(mods)), tuple(sorted(shifts)))
    assert type(t.mods) is tuple and type(t.shifts) is tuple
