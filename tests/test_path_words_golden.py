"""The transitivity words against the ones recorded before the sequence layer
stopped re-applying them: ``display()`` and ``length`` of
``transitivity_path`` for every ordered pair in every wide subcategory's
family on a2, a3, a3rad2 and nakayama2_rad2, and first -> last on linear A4.

The record is ``golden/path_words.json``.  To re-record after an intended
change, run ``python tests/test_path_words_golden.py`` from the repository
root.
"""

import json
import os

from tauseq.cli import load_algebra_file, seq_label
from tauseq.sequences import enumerate_tau_es, transitivity_path
from tauseq.universe import ModuleUniverse
from tauseq.wide import all_wide_subcategories

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "path_words.json")
ALL_PAIRS = ("a2", "a3", "a3rad2", "nakayama2_rad2")


def _universe(name):
    return ModuleUniverse(load_algebra_file(
        os.path.join(ROOT, "perfbench", "algebras", name + ".json")))


def _entry(u, src, dst):
    word = transitivity_path(u, src, dst)
    return "%s -> %s: %s, length %d" % (seq_label(u, src), seq_label(u, dst),
                                        word.display(), word.length)


def path_words():
    doc = {}
    for name in ALL_PAIRS:
        u = _universe(name)
        families = []
        for w in all_wide_subcategories(u):
            seqs = enumerate_tau_es(u, w)
            families.append({"wide": sorted(u.labels[i] for i in w),
                             "paths": [_entry(u, a, b) for a in seqs for b in seqs]})
        doc[name] = families
    u = _universe("a4")
    seqs = enumerate_tau_es(u, frozenset())
    doc["a4_first_last"] = _entry(u, seqs[0], seqs[-1])
    return doc


def test_path_words_match_the_record():
    with open(GOLDEN) as fh:
        assert path_words() == json.load(fh)


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        json.dump(path_words(), fh, indent=1, sort_keys=True)
        fh.write("\n")
