"""tau X identified off its presentation, against tau X built.

The build never builds tau X.  ``ar.tau_dims`` reads its dimension vector
off the minimal presentation through 0 -> tau X -> nu P1 -> nu P0, and
``ar.is_tau_of`` tests a catalogue module Z against it through
Hom(Z, tau X), read as forms on Hom(P1, Z).  The oracle builds tau X: the
presentation by module covers (``oracles.presentation_by_covers``), the
transpose over the opposite algebra and its dual (``ar.tau``), and the
Hom-basis isomorphism test of the catalogue (``identify``).  Every module of
every corpus file is checked, over every field in the corpus, with D4, E6 at
the cap 4 and the uncertified Kronecker list at the cap (3, 3), whose
bucket (2, 2) holds 11 regular modules R with tau R = R.
"""

import functools
import glob
import os

import pytest

from tauseq.ar import is_tau_of, tau, tau_dims
from tauseq.cli import InputError, load_algebra_file
from tauseq.modules import min_presentation
from tauseq.universe import ARNeighbours, Catalogue, ModuleUniverse
from tauseq.verify import suite_enumeration
from oracles import presentation_by_covers

ROOT = os.path.join(os.path.dirname(__file__), "..")
FILES = sorted(glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
               glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json")))
SURROGATE = "presentation cokernel equals hom into the translate"


def _builds(path):
    try:
        load_algebra_file(path)
    except InputError:
        return False
    return True


# name: (file, cap, certified)
CASES = {os.path.relpath(path, ROOT): (path, None, True)
         for path in FILES if _builds(path) and not path.endswith("kronecker.json")}
CASES["algebras/scale/e6.json@4"] = (os.path.join(ROOT, "algebras/scale/e6.json"), (4,) * 6,
                                     True)
CASES["perfbench/algebras/kronecker.json@3"] = (
    os.path.join(ROOT, "perfbench/algebras/kronecker.json"), (3, 3), False)


@functools.lru_cache(maxsize=None)
def _universe(name):
    path, cap, _ = CASES[name]
    return ModuleUniverse(load_algebra_file(path), cap, require_certificate=False)


def test_the_cases_cover_the_corpus():
    assert {"algebras/d4.json", "algebras/nakayama3_rad3.json", "perfbench/algebras/a5.json",
            "perfbench/algebras/a5_gf5.json", "perfbench/algebras/a3rad2_gf3.json"} <= set(CASES)
    # the free loops are infinite-dimensional; every other file is a case
    assert {path for path, _, _ in CASES.values()} >= \
        {path for path in FILES if not path.endswith("loop.json")}


@pytest.mark.parametrize("name", sorted(CASES))
def test_the_identification_matches_the_built_translate(name):
    u = _universe(name)
    assert u.certified == CASES[name][2]
    catalogue = Catalogue(u.modules)
    neighbours = ARNeighbours(catalogue)
    refused = 0
    for i, m in enumerate(u.modules):
        if u.is_proj[i]:
            continue
        pres, oracle = min_presentation(m), presentation_by_covers(m)
        built = tau(m, oracle)
        assert tau_dims(pres) == tau_dims(oracle) == built.dims, u.labels[i]
        found = u.identify(built)
        assert neighbours.translate(i) == found, u.labels[i]
        assert u.tau_of[i] == found
        for j in catalogue.bucket(built.dims):
            z = u.modules[j]
            # both presentations are minimal, so both give one verdict
            assert is_tau_of(z, pres) == is_tau_of(z, oracle) == (j == found), \
                (u.labels[i], u.labels[j])
            refused += j != found
    if name.startswith("perfbench/algebras/kronecker"):
        # the eleven regular modules of dimension vector (2, 2) are their
        # own translates, and each refuses the other ten
        regular = [m for m in u.modules if m.dims == (2, 2)]
        assert len(regular) == 11 and refused >= 11 * 10


def test_a_wrong_translate_fails_the_presentation_check():
    # over the Nakayama 2-cycle with rad^3 = 0 some tau X shares its
    # dimension vector with another module; pointing tau_of there must
    # fail the verify check that reads Hom(N, tau X) off a presentation
    path = os.path.join(ROOT, "algebras", "nakayama2_rad3.json")
    clean = ModuleUniverse(load_algebra_file(path))
    assert suite_enumeration(clean).ok
    faults = 0
    for i, t in enumerate(clean.tau_of):
        if t is None:
            continue
        for wrong in Catalogue(clean.modules).bucket(clean.modules[t].dims):
            if wrong == t:
                continue
            u = ModuleUniverse(load_algebra_file(path))
            u.tau_of[i] = wrong
            check = next(c for c in suite_enumeration(u).checks if c.name == SURROGATE)
            assert not check.ok, (clean.labels[i], clean.labels[wrong])
            assert {f["m"] for f in check.failures} == {clean.labels[i]}
            faults += 1
    assert faults
