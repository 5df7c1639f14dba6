"""``tauseq inspect <file> --json`` on every file in ``algebras/`` against
the output recorded before the sweep stopped by AR closure: stdout, stderr
and exit code, byte for byte.

The record is ``golden/inspect_algebras.json``, keyed by file name.  To
re-record after an intended change, run ``tauseq inspect algebras/<file>
--json`` from the repository root for each file.

``tauseq inspect perfbench/algebras/kronecker.json --json`` at the default
bound is pinned the same way in ``golden/inspect_kronecker.json``: the
Kronecker quiver is representation-infinite, so the report is uncertified
and carries the tau-rigid and injective flags of a found list that is not
closed, and the reason the sweep stopped, with exit code 0.
"""

import json
import os

import pytest

from tauseq.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
with open(os.path.join(os.path.dirname(__file__), "golden", "inspect_algebras.json")) as fh:
    GOLDEN = json.load(fh)
with open(os.path.join(os.path.dirname(__file__), "golden", "inspect_kronecker.json")) as fh:
    KRONECKER = json.load(fh)


def test_every_algebra_file_has_a_record():
    assert sorted(GOLDEN) == sorted(n for n in os.listdir(os.path.join(ROOT, "algebras"))
                                    if n.endswith(".json"))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_inspect_json_is_byte_identical(name, capsys, monkeypatch):
    # error messages echo the path as given, so run from the root as recorded
    monkeypatch.chdir(ROOT)
    code = main(["inspect", "algebras/" + name, "--json"])
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == GOLDEN[name]


def test_uncertified_kronecker_inspect_is_byte_identical(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(["inspect", "perfbench/algebras/kronecker.json", "--json"])
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == KRONECKER
    report = json.loads(captured.out)["algebra"]
    assert code == 0 and report["certified"] is False
    assert report["certificate"]["sweep_aborted_because"] == \
        "extension space of dimension 8 exceeds the sweep guard"
