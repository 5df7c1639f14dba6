"""``tauseq verify perfbench/algebras/a4.json --suite transitivity --json``
against the output recorded before transitivity was certified per sequence:
stdout byte for byte, exit code 0 and nothing on stderr.

The record is ``golden/verify_a4_transitivity.json``.  To re-record after an
intended change, run the command above from the repository root and save
its stdout.
"""

import os

from tauseq.cli import main

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "verify_a4_transitivity.json")


def test_a4_transitivity_report_is_byte_identical(capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(["verify", "perfbench/algebras/a4.json", "--suite", "transitivity", "--json"])
    captured = capsys.readouterr()
    with open(GOLDEN) as fh:
        assert captured.out == fh.read()
    assert (code, captured.err) == (0, "")
