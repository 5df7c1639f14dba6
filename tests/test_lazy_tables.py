"""The build computes only what its caller reads.

``inspect`` reads the labels, dimension vectors, ``tau_rigid``, the
projective and injective flags and the certificate.  So a cold build
followed by ``cli.algebra_summary`` solves no hom space outside the sweep but
Hom(X, tau X) for each module whose tau was found, and no Ext row.  The hom
and Ext tables are properties that fill both on the first read of either.
The oracle is the eager loop every build once ran (``oracles.eager_tables``),
on every corpus file that builds certified.
"""

import glob
import os

import pytest

from tauseq import ar, cli, modules, universe
from tauseq.universe import ModuleUniverse
from oracles import eager_tables

ROOT = os.path.join(os.path.dirname(__file__), "..")
# the Kronecker quiver and the free loop are refused
REFUSED = {"kronecker.json", "loop.json"}
FILES = sorted(path for path in glob.glob(os.path.join(ROOT, "algebras", "*.json")) +
               glob.glob(os.path.join(ROOT, "perfbench", "algebras", "*.json"))
               if os.path.basename(path) not in REFUSED)


def _filled(u):
    """Whether the hom and Ext tables behind the properties are filled."""
    return u._hom is not None and u._ext is not None


def test_the_corpus_is_covered():
    assert len(FILES) >= 18


def test_a_cold_a5_summary_reads_no_table(monkeypatch):
    sweeping = []
    enumerate_ = ModuleUniverse._enumerate

    def enumerate_spy(self, cap):
        sweeping.append(True)
        try:
            return enumerate_(self, cap)
        finally:
            sweeping.pop()

    homs, ext_dims = [], []
    hom_dim, ext_dim = modules.hom_dim, ar.Ext1From.dim

    def hom_spy(m, n):
        if not sweeping:
            homs.append((m, n))
        return hom_dim(m, n)

    def ext_spy(self, n, hom_mn=None):
        if not sweeping:
            ext_dims.append((self.module, n))
        return ext_dim(self, n, hom_mn)

    monkeypatch.setattr(ModuleUniverse, "_enumerate", enumerate_spy)
    for mod in (modules, ar, universe):
        monkeypatch.setattr(mod, "hom_dim", hom_spy)
    monkeypatch.setattr(ar.Ext1From, "dim", ext_spy)
    u = ModuleUniverse(cli.load_algebra_file(os.path.join(ROOT, "perfbench", "algebras",
                                                          "a5.json")))
    summary = cli.algebra_summary(u)
    assert u.certified and len(u.modules) == 15
    assert [m["tau_rigid"] for m in summary["indecomposables"]] == u.tau_rigid
    # one Hom(X, tau X) per non-projective X
    assert homs == [(m, u.modules[t]) for m, t in zip(u.modules, u.tau_of)
                    if t is not None]
    assert len(homs) == 10
    assert ext_dims == []
    assert not _filled(u)
    assert len(u.hom) == 15
    assert _filled(u)
    assert len(ext_dims) == 15 * 15


@pytest.mark.parametrize("path", FILES, ids=lambda p: os.path.relpath(p, ROOT))
def test_tables_read_on_demand_equal_the_eager_loop(path):
    u = ModuleUniverse(cli.load_algebra_file(path))
    assert u.certified
    hom, ext = eager_tables(u)
    assert not _filled(u)
    # either table's first read fills both
    assert u.ext == ext
    assert _filled(u)
    assert u.hom == hom
