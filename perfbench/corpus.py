"""Inputs of the benchmark: the algebra corpus, the CLI command list and the
golden outputs recorded from the reference commit.

Every path handed to tauseq is relative to the repository root, which is the
working directory of every benchmark process, so error messages that echo a
path read the same on every machine.
"""

import hashlib
import json
import os
import random

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
GOLDEN = os.path.join(HERE, "golden")
OUT = os.path.join(ROOT, ".perfbench_out")


def algebra(name):
    return "perfbench/algebras/%s.json" % name


# inspect: certified builds over Q, over prime fields, typed refusals, and the
# known IdempotentSplitFailure crashes (each paired with its Q twin, whose
# report it must equal up to the characteristic once the defect is fixed).
RATIONAL = ["a2", "a3", "a3rad2", "nakayama2_rad2", "a4rad2", "a4", "a5"]
PRIME = ["a3rad2_gf3", "a4_gf5", "a5_gf5"]
REFUSALS = {
    "kronecker": ["tes", algebra("kronecker"), "enumerate", "--dim-bound", "2"],
    "loop": ["inspect", algebra("loop"), "--json"],
}
DEFECTS = {"a4_gf2": ("a4", 2), "a4_gf3": ("a4", 3),
           "a5_gf2": ("a5", 2), "a5_gf3": ("a5", 3)}

# cli: small algebras whose path and mutate arguments the seed draws from the
# full pool of complete sequences, plus fixed commands on linear A4.
SMALL = ["a2", "a3", "nakayama2_rad2"]
A4_FIRST = "(0001#1,0100#1,0011#1,1111#1)"
A4_LAST = "(1111#1,1110#1,1100#1,1000#1)"


def fixed_commands():
    cmds = []
    for name in ["a2", "a3", "a3rad2", "nakayama2_rad2", "a4"]:
        cmds.append(["inspect", algebra(name), "--json"])
        cmds.append(["tes", algebra(name), "enumerate", "--json"])
    for name, j in [("a3", "P1"), ("a4", "S1"), ("a4", "(S1,S3)")]:
        cmds.append(["tes", algebra(name), "enumerate", "--j", j, "--json"])
    cmds.append(["tes", algebra("a4"), "mutate", "--seq", A4_FIRST,
                 "--op", "psi", "--index", "3", "--json"])
    cmds.append(["tes", algebra("a4"), "path", "--from", A4_FIRST,
                 "--to", A4_LAST, "--json"])
    for name in ["a3", "a4"]:
        cmds.append(["tes", algebra(name), "graph", "--dot",
                     ".perfbench_out/graph-%s.dot" % name])
    for name in ["a2", "a3", "a3rad2", "a3rad2_gf3", "nakayama2_rad2"]:
        cmds.append(["verify", algebra(name), "--suite", "all", "--json"])
    return cmds


def path_command(name, src, dst):
    return ["tes", algebra(name), "path", "--from", src, "--to", dst, "--json"]


def mutate_command(name, seq, op, index):
    return ["tes", algebra(name), "mutate", "--seq", seq, "--op", op,
            "--index", str(index), "--json"]


def seq_positions(seq_text):
    """Mutable positions of a complete sequence written as '(x,y,...)'."""
    return range(1, seq_text.count(",") + 1)


def pool_commands(pools):
    """Every path and mutate command the seed can draw on the small algebras."""
    cmds = []
    for name in SMALL:
        for a in pools[name]:
            for b in pools[name]:
                cmds.append(path_command(name, a, b))
            for op in ("phi", "psi"):
                for i in seq_positions(a):
                    cmds.append(mutate_command(name, a, op, i))
    return cmds


def cli_commands(seed, pools):
    """The command list of one cli run: the fixed commands plus one path and
    one mutate command per small algebra, drawn from the seed."""
    rng = random.Random(seed)
    cmds = fixed_commands()
    for name in SMALL:
        seqs = pools[name]
        cmds.append(path_command(name, rng.choice(seqs), rng.choice(seqs)))
        seq = rng.choice(seqs)
        cmds.append(mutate_command(name, seq, rng.choice(("phi", "psi")),
                                   rng.choice(list(seq_positions(seq)))))
    return cmds


def command_key(argv):
    return " ".join(argv)


def digest(text, size=64):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:size]


def load_golden(name):
    with open(os.path.join(GOLDEN, name + ".json")) as fh:
        return json.load(fh)


def save_golden(name, doc):
    os.makedirs(GOLDEN, exist_ok=True)
    with open(os.path.join(GOLDEN, name + ".json"), "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
