"""Path algebras of Dynkin quivers against closed formulas, and the sweep's
stop test beside its cocycle guard.

Over a Dynkin quiver of rank n with Coxeter number h, Weyl group W and
exponents e_1, ..., e_n, whatever the orientation and the field:

- the complete tau-exceptional sequences, which over a hereditary algebra
  are the complete exceptional sequences, number n! h^n / |W| (Obaid,
  Nauman, Al-Shammakh, Fakieh and Ringel, 2013);
- the torsion classes number prod (h + e_i + 1) / (e_i + 1), the Catalan
  number of W (Ingalls and Thomas, 2009).

The braid group on n strands acts on the complete exceptional sequences,
sigma_i mutating the pair at positions i and i + 1 (Crawley-Boevey, 1993;
Ringel, 1994), so the left mutations satisfy the braid relations.

E6 is the first Dynkin quiver whose full sweep meets a cocycle space above
the guard (``universe._Budget.MAX_COCYCLE_BASIS``).  The stop test runs
after the projectives and after every new module, so it finds E6's list
closed in the AR quiver, hence every indecomposable, before the sweep gets
there.  A guard or cap abort meets a list the stop test has already found
not closed.  A Dynkin build whose roots lie under the cap reads them and
runs no stop test, so these tests sweep as built (``oracles.sweep_as_built``).
"""

import math
import os

import pytest

from tauseq import universe
from tauseq.cli import load_algebra_file
from tauseq.sequences import enumerate_tau_es, mutate
from tauseq.universe import ARNeighbours, ModuleUniverse
from tauseq.wide import all_torsion_classes
from oracles import sweep_as_built, sweep_to_the_cap

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GUARD = "extension space of dimension %d exceeds the sweep guard"


def _file(path):
    return lambda: load_algebra_file(os.path.join(ROOT, path))


def _type_a(n):
    return n + 1, math.factorial(n + 1), list(range(1, n + 1))


def _type_d(n):
    return 2 * n - 2, 2 ** (n - 1) * math.factorial(n), list(range(1, 2 * n - 2, 2)) + [n - 1]


# name: (algebra, (Coxeter number, |W|, exponents))
DYNKIN = {
    "a2": (_file("perfbench/algebras/a2.json"), _type_a(2)),
    "a3": (_file("perfbench/algebras/a3.json"), _type_a(3)),
    "a4": (_file("perfbench/algebras/a4.json"), _type_a(4)),
    "a4_gf2": (_file("perfbench/algebras/a4_gf2.json"), _type_a(4)),
    "a5": (_file("perfbench/algebras/a5.json"), _type_a(5)),
    "d4": (_file("algebras/d4.json"), _type_d(4)),
    "d5": (_file("algebras/scale/d5.json"), _type_d(5)),
}


@pytest.mark.parametrize("name", sorted(DYNKIN))
def test_counts_match_the_closed_formulas(name):
    build, (h, order, exponents) = DYNKIN[name]
    u = ModuleUniverse(build())
    n = u.n
    assert len(exponents) == n
    complete = math.factorial(n) * h ** n // order
    torsion = math.prod(h + e + 1 for e in exponents) // math.prod(e + 1 for e in exponents)
    assert len(enumerate_tau_es(u, frozenset())) == complete
    assert len(all_torsion_classes(u)) == u.support_tilting_count() == torsion


def test_the_closed_formulas_give_the_recorded_values():
    # A2 to A5, D4, D5 and E6
    values = []
    for h, order, exponents in [_type_a(2), _type_a(3), _type_a(4), _type_a(5),
                                _type_d(4), _type_d(5),
                                (12, 51840, [1, 4, 5, 7, 8, 11])]:
        n = len(exponents)
        values.append((math.factorial(n) * h ** n // order,
                       math.prod(h + e + 1 for e in exponents)
                       // math.prod(e + 1 for e in exponents)))
    assert values == [(3, 5), (16, 14), (125, 42), (1296, 132), (162, 50),
                      (2048, 182), (41472, 833)]


@pytest.mark.parametrize("name", ["a3", "a4", "a5", "d4"])
def test_left_mutations_satisfy_the_braid_relations(name):
    u = ModuleUniverse(DYNKIN[name][0]())
    n = u.n
    memo = {}

    def sigma(i, seq):
        key = (i, seq)
        if key not in memo:
            memo[key] = mutate(u, seq, "phi", i)
        return memo[key]

    braids = commutes = 0
    for seq in enumerate_tau_es(u, frozenset()):
        for i in range(1, n - 1):
            assert sigma(i, sigma(i + 1, sigma(i, seq))) == \
                sigma(i + 1, sigma(i, sigma(i + 1, seq))), (seq, i)
            braids += 1
        for i in range(1, n):
            for j in range(i + 2, n):
                assert sigma(i, sigma(j, seq)) == sigma(j, sigma(i, seq)), (seq, i, j)
                commutes += 1
    # A5: 1,296 complete sequences, three relations of each kind on each
    assert (name, braids, commutes) in {("a3", 16, 0), ("a4", 250, 125),
                                        ("a5", 3888, 3888), ("d4", 324, 162)}


def _spy_on_the_stop_test(monkeypatch):
    """The verdicts of the stop test, whether each call walked the list (a
    call returns at once while the witness of an earlier failure stands),
    and the aborts raised, on every build, Dynkin ones included
    (``oracles.sweep_as_built``)."""
    sweep_as_built(monkeypatch)
    verdicts, walked, aborts, inside = [], [], [], []
    closure, translate = ARNeighbours.closure, ARNeighbours.translate

    def spy(self, stop=False):
        if not stop:
            return closure(self)
        walked.append(False)
        inside.append(True)
        try:
            verdicts.append(closure(self, stop))
        finally:
            inside.pop()
        return verdicts[-1]

    def translate_spy(self, i):
        if inside:
            walked[-1] = True
        return translate(self, i)

    class Abort(universe._Abort):
        def __init__(self, *args):
            super().__init__(*args)
            aborts.append(str(self))

    monkeypatch.setattr(ARNeighbours, "closure", spy)
    monkeypatch.setattr(ARNeighbours, "translate", translate_spy)
    monkeypatch.setattr(universe, "_Abort", Abort)
    return verdicts, walked, aborts


def test_e6_at_bound_4_is_closed_before_the_guard(monkeypatch):
    verdicts, _, aborts = _spy_on_the_stop_test(monkeypatch)
    u = ModuleUniverse(_file("algebras/scale/e6.json")(), (4,) * 6)
    # the stop test closed the list after its last new module
    assert aborts == []
    assert isinstance(verdicts[-1], universe.Closure)
    assert all(verdict is None for verdict in verdicts[:-1])
    assert u.certified and len(u.modules) == 36
    assert "sweep_aborted_because" not in u.certificate
    assert len(all_torsion_classes(u)) == 833
    # the closure handed on is the one the certificate would compute
    c = ARNeighbours(universe.Catalogue(u.modules)).closure()
    assert (u.tau_of, u.tau_unresolved, u.is_inj) == (c.tau_of, c.tau_unresolved, c.is_inj)
    # without the stop test the sweep goes on to the guard
    monkeypatch.undo()
    verdicts, _, aborts = _spy_on_the_stop_test(monkeypatch)
    sweep_to_the_cap(monkeypatch)
    u = ModuleUniverse(_file("algebras/scale/e6.json")(), (4,) * 6, require_certificate=False)
    assert aborts == [GUARD % 7] and u.certificate["sweep_aborted_because"] == GUARD % 7
    assert not u.certified and len(u.modules) == 36


def test_e6_at_the_default_bound_touches_the_cap():
    # the sweep completes, but the largest root (1, 2, 3, 2, 1, 2) has 3 at
    # the branch vertex, on the default cap of 3
    u = ModuleUniverse(_file("algebras/scale/e6.json")(), require_certificate=False)
    assert not u.certified and len(u.modules) == 36
    assert u.certificate["sweep_completed"] and u.certificate["stable_under_cap_plus_one"]
    assert not u.certificate["no_indecomposable_on_boundary"]


def test_a_guard_abort_meets_a_list_the_stop_test_found_not_closed(monkeypatch):
    verdicts, walked, aborts = _spy_on_the_stop_test(monkeypatch)
    sizes = []
    closure = ARNeighbours.closure

    def sized(self, stop=False):
        if stop:
            sizes.append(len(self.catalogue.modules))
        return closure(self, stop)

    monkeypatch.setattr(ARNeighbours, "closure", sized)
    u = ModuleUniverse(_file("perfbench/algebras/kronecker.json")(), require_certificate=False)
    assert aborts == [GUARD % 8]
    # the last list tested is the one the guard stopped: every module the
    # sweep found, all under the cap
    assert verdicts and all(verdict is None for verdict in verdicts)
    assert sizes[-1] == len(u.modules)
    assert walked[0] and not all(walked)
    assert not u.certified
    assert u.certificate["sweep_completed"] is False
    assert u.certificate["sweep_aborted_because"] == GUARD % 8


def test_a_cap_abort_meets_a_list_the_stop_test_walked_once(monkeypatch):
    # the walk after the projectives ends at S1, whose tau lies above the
    # cap; that witness stands through the sweep, so no later call walks
    verdicts, walked, aborts = _spy_on_the_stop_test(monkeypatch)
    u = ModuleUniverse(_file("perfbench/algebras/kronecker.json")(), (2, 2),
                       require_certificate=False)
    assert len(aborts) == 1 and aborts[0].startswith("indecomposable with dimension vector")
    assert len(verdicts) > 1 and all(verdict is None for verdict in verdicts)
    assert walked == [True] + [False] * (len(walked) - 1)
    assert u.certificate["sweep_aborted_because"] == aborts[0]
    assert u.certificate["stable_under_cap_plus_one"] is False
