"""Record the golden outputs the benchmark compares against.

    python3 perfbench/record_golden.py

Run from the repository root at the reference commit.  Writes
perfbench/golden/{inspect,cli,session}.json: SHA-256 digests of every
inspect report and refusal, of the stdout, stderr and DOT file of every CLI
command the seed can draw, and 32-bit digests of every answer the session
query stream can ask for.  Takes a few minutes.
"""

import contextlib
import io
import json
import os
import sys

import corpus
import workloads


def capture(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record_inspect(cli):
    doc = {}
    for name in corpus.RATIONAL + corpus.PRIME + list(corpus.REFUSALS):
        code, out, err = workloads.inspect_case(cli, name)
        doc[name] = {"exit": code, "stdout": corpus.digest(out),
                     "stderr": corpus.digest(err)}
    corpus.save_golden("inspect", doc)


def record_cli(cli):
    pools = {}
    for name in corpus.SMALL:
        code, out, _ = capture(cli, ["tes", corpus.algebra(name), "enumerate", "--json"])
        pools[name] = json.loads(out)["sequences"]
    commands = {}
    for argv in corpus.fixed_commands() + corpus.pool_commands(pools):
        dot = argv[argv.index("--dot") + 1] if "--dot" in argv else None
        code, out, err = capture(cli, argv)
        entry = {"exit": code, "stdout": corpus.digest(out), "stderr": corpus.digest(err)}
        if dot:
            with open(dot) as fh:
                entry["dot"] = corpus.digest(fh.read())
        commands[corpus.command_key(argv)] = entry
    corpus.save_golden("cli", {"pools": pools, "commands": commands})


def record_session(cli, S, W):
    sess = workloads.Session(cli, S, W)
    u = sess.u
    doc = {"enumerate": {}, "path": {}, "mutate": {}}
    for w in sess.wides:
        fam = sess.families[w]
        key = sess.key(w)
        doc["enumerate"][key] = corpus.digest(
            ";".join(sess.label(s) for s in S.enumerate_tau_es(u, w)), 8)
        if w in sess.sub_j or not w:
            doc["path"][key] = "".join(
                corpus.digest(S.transitivity_path(u, a, b).display(), 8)
                for a in fam for b in fam)
        if w in sess.mutable:
            doc["mutate"][key] = "".join(
                corpus.digest(sess.label(S.mutate(u, a, "phi",
                                                  S.first_position(u, a) + off)), 8)
                for a in fam for off in range(len(a) - 1))
    corpus.save_golden("session", doc)


def main():
    os.chdir(corpus.ROOT)
    os.makedirs(corpus.OUT, exist_ok=True)
    sys.path.insert(0, corpus.SRC)
    from tauseq import cli, sequences, wide
    record_inspect(cli)
    record_cli(cli)
    record_session(cli, sequences, wide)
    return 0


if __name__ == "__main__":
    sys.exit(main())
