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

``golden/inspect_scale.json`` pins ``tauseq inspect algebras/scale/<key>
--json`` the same way for D5, for E6 at the default bound, where the
largest root touches the cap and the report is uncertified, and for E6 at
``--dim-bound 4``, where the sweep tries the most extension classes.  Each
key is the file name followed by any further arguments.
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
with open(os.path.join(os.path.dirname(__file__), "golden", "inspect_scale.json")) as fh:
    SCALE = json.load(fh)


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


def test_the_scale_records_cover_d5_and_e6_at_two_bounds():
    assert sorted(SCALE) == ["d5.json", "e6.json", "e6.json --dim-bound 4"]
    certified = {key: json.loads(r["stdout"])["algebra"]["certified"] for key, r in SCALE.items()}
    assert certified == {"d5.json": True, "e6.json": False, "e6.json --dim-bound 4": True}


@pytest.mark.parametrize("key", sorted(SCALE))
def test_scale_inspect_json_is_byte_identical(key, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    name, *rest = key.split()
    code = main(["inspect", "algebras/scale/" + name, "--json"] + rest)
    captured = capsys.readouterr()
    assert {"exit": code, "stdout": captured.out, "stderr": captured.err} == SCALE[key]
