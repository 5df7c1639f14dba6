"""``tauseq tes perfbench/algebras/kronecker.json enumerate --dim-bound B``
for B = 2 and 3 against the output recorded before the sweep skipped
redundant extension classes: stdout, stderr and exit code, byte for byte.

The Kronecker quiver is representation-infinite, so both builds are refused
with exit 2 and the certificate in the diagnostic: at B = 2 an
indecomposable exceeds the cap, at B = 3 the cocycle guard trips.  The
record is ``golden/tes_kronecker_refusals.json``, keyed by B.  To re-record
after an intended change, run the command above from the repository root
for each B.
"""

import json
import os

import pytest

from tauseq.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
with open(os.path.join(os.path.dirname(__file__), "golden", "tes_kronecker_refusals.json")) as fh:
    GOLDEN = json.load(fh)


@pytest.mark.parametrize("bound", ["2", "3"])
def test_kronecker_refusal_is_byte_identical(bound, capsys, monkeypatch):
    # the diagnostic echoes no path, but run from the root as recorded
    monkeypatch.chdir(ROOT)
    code = main(["tes", "perfbench/algebras/kronecker.json", "enumerate",
                 "--dim-bound", bound])
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == GOLDEN[bound]
    assert code == 2
