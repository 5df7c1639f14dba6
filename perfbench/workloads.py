"""The three workloads.  Each is a closed loop with one client, driven from
this process, and returns a ``Run`` with its timings and tallies.

inspect  cold certified builds of the corpus through library calls, typed
         refusals, and attempts at the known prime-field crashes; the kernel
         and the enumeration sweep do the work, no sequence layer runs.
session  a warm library session on linear A4: a seeded set of path, sub-J
         path, mutate round-trip and enumerate queries, run in rounds over
         cached combinatorial tables; the kernel is idle.
cli      complete ``tauseq ... --json`` commands, one process each, one at a
         time: every command pays the import and fills the caches from empty.
"""

import bisect
import contextlib
import gc
import io
import itertools
import json
import math
import os
import random
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction

import corpus
import tracing

CHILD_TIMEOUT_S = 170
SETUP_REPEATS_IMPORT = 5
SETUP_REPEATS_SESSION = 3
SESSION_QUERIES = 1000  # size of the seeded session query set
ROUND_QUANTUM_S = 0.1   # inspect time share per case per round
PROBE_INTERVAL_S = 0.25
REF_NOMINAL_S = 0.004   # reference loop time the reported seconds are scaled to


def reference_loop():
    """Fixed pure-Python work like tauseq's: integer arithmetic, dict updates
    and Fraction sums.  Returns its wall time."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i % 7
    sums = {}
    for i in range(600):
        k = i % 31
        sums[k] = sums.get(k, 0) + Fraction(i, 7)
    return time.perf_counter() - t0


class Timeline:
    """Measured intervals and reference-loop probes on one clock.

    The machine this benchmark was tuned on switches between speed regimes
    about 40 % apart, for seconds to minutes at a time: a fixed loop ran in
    anywhere from 14 to 23 ms, and run-to-run spreads of raw times reached
    0.45 of the median.  So a short fixed reference loop runs at least every
    PROBE_INTERVAL_S, and every interval is reported in seconds scaled by
    REF_NOMINAL_S over the probes around it, that is, seconds on a machine
    where the loop takes REF_NOMINAL_S.  Machine drift cancels; a change in
    tauseq does not, as the loop does not call it.

    Operations that run for seconds need probes while they run: ``ticker``
    probes from a SIGALRM handler, and the probe time inside an interval is
    taken out of it.
    """

    def __init__(self):
        self.starts, self.ends, self.probes = [], [], []
        self.probing = False
        self.probe()

    def probe(self, *_):
        if self.probing:   # a tick during a probe: the lists stay in time order
            return
        self.probing = True
        t0 = time.perf_counter()
        d = reference_loop()
        self.starts.append(t0)
        self.ends.append(t0 + d)
        self.probes.append(d)
        self.probing = False

    @contextlib.contextmanager
    def ticker(self):
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def begin(self):
        if time.perf_counter() - self.ends[-1] >= PROBE_INTERVAL_S:
            self.probe()
        return time.perf_counter()

    def end(self, t0):
        return (t0, time.perf_counter())

    def close(self):
        self.probe()

    def seconds(self, span):
        """Scaled length of a (start, end) span; call after close().  The
        scale is the mean over the probes inside the span and those within
        reach of it, at least the nearest one each side.  The reach is
        2 * PROBE_INTERVAL_S, or half the span if no probe ran inside it."""
        t0, t1 = span
        i = bisect.bisect_right(self.ends, t0)            # probes before t0: [:i]
        j = bisect.bisect_left(self.starts, t1)           # probes after t1: [j:]
        k = bisect.bisect_left(self.starts, t0, i)        # probes inside: [k:j]
        reach = 2 * PROBE_INTERVAL_S if k < j else max(2 * PROBE_INTERVAL_S, (t1 - t0) / 2)
        lo = min(i - 1, bisect.bisect_left(self.starts, t0 - reach))
        hi = max(j + 1, bisect.bisect_right(self.ends, t1 + reach))
        inside = self.probes[k:j]
        near = self.probes[max(0, lo):i] + inside + self.probes[j:hi]
        scale = statistics.fmean(REF_NOMINAL_S / p for p in near)
        return (t1 - t0 - sum(inside)) * scale

    def reference_ms(self):
        return statistics.median(self.probes) * 1e3


class Run:
    def __init__(self):
        self.setup = []          # seconds, one per set-up
        self.op_times = []       # seconds, the latency samples of the end-to-end metrics
        self.ops_per_s = 0.0
        self.tail_q = 0.75
        self.attempted = 0
        self.failed = 0
        self.known_defects = 0
        self.problems = []       # first few failure descriptions
        self.breakdown = {}      # workload-specific figures for the traced report
        self.info = {}
        self.trace = None        # merged tracer aggregates
        self.layer_phases = {}
        self.timeline = Timeline()

    def fail(self, what):
        self.failed += 1
        if len(self.problems) < 10:
            self.problems.append(what)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = corpus.SRC + (os.pathsep + env["PYTHONPATH"]
                                      if env.get("PYTHONPATH") else "")
    return env


def import_setup_spans(tl, n=SETUP_REPEATS_IMPORT):
    """A fresh interpreter importing the CLI, n times: what every tauseq
    process pays before its command starts."""
    spans = []
    for _ in range(n):
        t0 = tl.begin()
        subprocess.run([sys.executable, "-c", "import tauseq.cli"], env=child_env(),
                       check=True, timeout=CHILD_TIMEOUT_S)
        spans.append(tl.end(t0))
    return spans


def nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(round(q * len(ordered), 6)) - 1)]


def sampled_tail(values):
    """(quantile, value): the highest of p99, p90, p50 with at least ten
    samples beyond it."""
    for q in (0.99, 0.9, 0.5):
        if len(values) * (1 - q) >= 10:
            return q, nearest_rank(values, q)
    return 1.0, max(values)


def passes(seconds, run_pass):
    """Run whole passes while the next one is expected to end within the
    measuring window; always at least one."""
    start = time.perf_counter()
    count = 0
    while True:
        t0 = time.perf_counter()
        run_pass(count)
        count += 1
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return count


# --------------------------------------------------------------------------
# inspect
# --------------------------------------------------------------------------

def _inspect_report(cli, name):
    algebra = cli.load_algebra_file(corpus.algebra(name))
    u = cli.build_universe(algebra, None, require_certificate=False)
    doc = {"schema": cli.SCHEMA, "algebra": cli.algebra_summary(u)}
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def inspect_case(cli, name):
    """(exit code, stdout, stderr) of one case, as `tauseq` would print it."""
    if name in corpus.REFUSALS:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(corpus.REFUSALS[name])
        return code, out.getvalue(), err.getvalue()
    return 0, _inspect_report(cli, name), ""


def check_inspect(run, name, result, golden):
    code, out, err = result
    got = {"exit": code, "stdout": corpus.digest(out), "stderr": corpus.digest(err)}
    if got != golden[name]:
        run.fail("inspect %s: output differs from golden %r" % (name, got))


def attempt_defect(run, cli, errors, name, golden):
    """A known crash: counted apart from failures while it persists; once
    fixed, the report must equal its Q twin's up to the characteristic."""
    twin, p = corpus.DEFECTS[name]
    try:
        out = _inspect_report(cli, name)
    except errors.IdempotentSplitFailure:
        run.known_defects += 1
        return
    except Exception as exc:  # any other crash is a new failure
        run.fail("inspect %s: %s: %s" % (name, type(exc).__name__, exc))
        return
    as_rational = out.replace('"characteristic": %d,' % p, '"characteristic": 0,', 1)
    if corpus.digest(as_rational) != golden[twin]["stdout"]:
        run.fail("inspect %s: report differs from its Q twin %s" % (name, twin))


def inspect_workload(seed, seconds, trace):
    from tauseq import cli, errors
    run = Run()
    tl = run.timeline
    run.setup = import_setup_spans(tl)
    golden = corpus.load_golden("inspect")
    cases = corpus.RATIONAL + corpus.PRIME + list(corpus.REFUSALS)
    order_rng = random.Random(seed)
    samples = {name: [] for name in cases}
    spent = {name: 0.0 for name in cases}   # raw seconds, for scheduling
    tracer = None

    def sample(name):
        """Run one case once; returns its raw seconds, or None if it failed."""
        if tracer is not None:
            tracer.tag = name
        run.attempted += 1
        if name in corpus.DEFECTS:
            attempt_defect(run, cli, errors, name, golden)
            return None
        gc.collect()  # every build starts from a clean heap, as a fresh process does
        t0 = tl.begin()
        try:
            result = inspect_case(cli, name)
        except Exception as exc:
            run.fail("inspect %s: %s: %s" % (name, type(exc).__name__, exc))
            return None
        span = tl.end(t0)
        check_inspect(run, name, result, golden)
        samples[name].append(span)
        spent[name] += span[1] - span[0]
        return span[1] - span[0]

    def one_pass(fair_rounds=False):
        order = cases + list(corpus.DEFECTS)
        order_rng.shuffle(order)
        for r, name in enumerate(order, 1):
            sample(name)
            if fair_rounds:
                # Machine speed drifts within a run, so after every case each
                # case already seen runs again until it has had r quanta of
                # time: cheap cases are sampled all through the pass, medium
                # ones a few times, and slow ones once.
                for other in cases:
                    if samples[other] and spent[other] < r * ROUND_QUANTUM_S:
                        sample(other)

    if trace:
        for name in corpus.RATIONAL[:5]:   # first-call costs stay out of the comparison
            inspect_case(cli, name)
        t0 = time.perf_counter()
        one_pass()
        plain = time.perf_counter() - t0
        tracer = tracing.Tracer()
        tracer.install()
        t0 = time.perf_counter()
        one_pass()
        run.breakdown["trace.overhead_s"] = time.perf_counter() - t0 - plain
        tracer.uninstall()
        run.trace = tracing.merge([tracer.aggregates()])
        tracer.write_spans(os.path.join(corpus.OUT, "inspect-spans.tsv"))
        # the breakdown comes from the untraced pass
        samples = {name: s[:1] for name, s in samples.items()}
    else:
        # One pass over every case, then the rest of the window goes to the
        # case with the least time spent so far, so medium cases collect a few
        # more samples while the slow ones are built once.
        start = time.perf_counter()
        with tl.ticker():
            one_pass(fair_rounds=True)
            while time.perf_counter() - start < seconds:
                name = min(cases, key=lambda n: (spent[n], cases.index(n)))
                if spent[name] > seconds - (time.perf_counter() - start):
                    break
                if sample(name) is None:
                    spent[name] = math.inf
    run.info["samples"] = {name: len(s) for name, s in samples.items()}

    tl.close()
    times = {name: statistics.median(tl.seconds(sp) for sp in s)
             for name, s in samples.items() if s}
    run.op_times = list(times.values())
    run.ops_per_s = len(times) / sum(times.values())
    run.tail_q = 0.75
    run.breakdown["inspect_rational_s"] = sum(times.get(n, 0) for n in corpus.RATIONAL)
    run.breakdown["inspect_prime_s"] = sum(times.get(n, 0) for n in corpus.PRIME)
    run.breakdown["refuse_s"] = sum(times.get(n, 0) for n in corpus.REFUSALS)
    run.info["case_ms"] = {n: round(m * 1e3, 3) for n, m in sorted(times.items())}
    return run


# --------------------------------------------------------------------------
# session
# --------------------------------------------------------------------------

class Session:
    """Linear A4 with every wide subcategory's sequence family (the query
    pool), after one warm-up path that pays the brute-force torsion list."""

    def __init__(self, cli, S, W):
        self.cli, self.S = cli, S
        algebra = cli.load_algebra_file(corpus.algebra("a4"))
        u = self.u = cli.build_universe(algebra, None, require_certificate=True)
        ambient = W.ambient_context(u)
        wides = {W.j_in_context(u, ambient, t) for t in u.all_support_objects()}
        self.wides = sorted(wides, key=lambda w: (len(w), sorted(w)))
        self.families = {w: S.enumerate_tau_es(u, w) for w in self.wides}
        self.complete = self.families[frozenset()]
        S.transitivity_path(u, self.complete[0], self.complete[-1])
        self.sub_j = [w for w in self.wides if w and len(self.families[w]) >= 2]
        self.mutable = [w for w in self.wides
                        if self.families[w] and len(self.families[w][0]) >= 2]

    def key(self, w):
        return ",".join(sorted(self.u.labels[i] for i in w))

    def label(self, seq):
        return self.cli.seq_label(self.u, seq)


QUERY_MIX = [("path", 0.4), ("jpath", 0.2), ("mutate", 0.2), ("enumerate", 0.2)]


def draw_queries(sess, rng, count):
    """A seeded query set: (kind, wide subcategory, first index, second index
    or mutated offset).  The kinds come in the exact QUERY_MIX shares and the
    sub-J choices cycle through every candidate, so only the order, the
    sequence pairs and the mutated positions depend on the seed.  Indices
    refer to the families, which every set-up rebuilds identically."""
    kinds = [kind for kind, share in QUERY_MIX for _ in range(round(share * count))]
    rng.shuffle(kinds)
    cycles = {"path": itertools.cycle([frozenset()]),
              "jpath": itertools.cycle(sess.sub_j),
              "mutate": itertools.cycle(sess.mutable),
              "enumerate": itertools.cycle(sess.wides)}
    out = []
    for kind in kinds:
        w = next(cycles[kind])
        fam = sess.families[w]
        if kind in ("path", "jpath"):
            out.append((kind, w, rng.randrange(len(fam)), rng.randrange(len(fam))))
        elif kind == "mutate":
            out.append((kind, w, rng.randrange(len(fam)), rng.randrange(len(fam[0]) - 1)))
        else:
            out.append((kind, w, 0, 0))
    return out


def run_query(sess, query, golden, tl):
    """Run one query and check it.  Returns (span, problem or None)."""
    S, u = sess.S, sess.u
    kind, w, i, j = query
    fam = sess.families[w]
    if kind in ("path", "jpath"):
        t0 = tl.begin()
        word = S.transitivity_path(u, fam[i], fam[j])
        d = tl.end(t0)
        if S.apply_steps(u, fam[i], word.steps) != fam[j]:
            return d, "path word does not reach its target"
        want = golden["path"][sess.key(w)][8 * (i * len(fam) + j):][:8]
        got = word.display()
    elif kind == "mutate":
        index = S.first_position(u, fam[i]) + j
        t0 = tl.begin()
        out = S.mutate(u, fam[i], "phi", index)
        back = S.mutate(u, out, "psi", index)
        d = tl.end(t0)
        if back != fam[i]:
            return d, "psi does not undo phi"
        want = golden["mutate"][sess.key(w)][8 * (i * (len(fam[i]) - 1) + j):][:8]
        got = sess.label(out)
    else:
        t0 = tl.begin()
        seqs = S.enumerate_tau_es(u, w)
        d = tl.end(t0)
        want = golden["enumerate"][sess.key(w)]
        got = ";".join(sess.label(s) for s in seqs)
    if corpus.digest(got, 8) != want:
        return d, "answer differs from golden: %s" % got[:80]
    return d, None


def session_workload(seed, seconds, trace):
    from tauseq import cli, sequences as S, wide as W
    run = Run()
    golden = corpus.load_golden("session")

    tl = run.timeline

    def setup():
        t0 = tl.begin()
        sess = Session(cli, S, W)
        run.setup.append(tl.end(t0))
        return sess

    def one_round(sess, queries, spans):
        for k, query in enumerate(queries):
            run.attempted += 1
            try:
                span, problem = run_query(sess, query, golden, tl)
            except Exception as exc:
                run.fail("session %s: %s: %s" % (query[0], type(exc).__name__, exc))
                continue
            if problem:
                run.fail("session %s: %s" % (query[0], problem))
            spans.setdefault(k, []).append(span)

    sess = setup()
    queries = draw_queries(sess, random.Random(seed), SESSION_QUERIES)
    spans = {}
    if trace:
        t0 = time.perf_counter()
        one_round(sess, queries, spans)
        plain = time.perf_counter() - t0 + run.setup[-1][1] - run.setup[-1][0]
        tracer = tracing.Tracer()
        tracer.install()
        tracer.tag = "a4"
        t0 = time.perf_counter()
        sess = setup()
        after_setup = tracer.aggregates()
        one_round(sess, queries, {})
        run.breakdown["trace.overhead_s"] = time.perf_counter() - t0 - plain
        tracer.uninstall()
        run.trace = tracing.merge([tracer.aggregates()])
        run.layer_phases = {
            "setup": tracing.layer_self_seconds(after_setup),
            "queries": tracing.layer_self_seconds(
                {"self": {k: v - after_setup["self"][k]
                          for k, v in run.trace["self"].items()}}),
        }
        tracer.write_spans(os.path.join(corpus.OUT, "session-spans.tsv"))
        rounds = 1
    else:
        for _ in range(SETUP_REPEATS_SESSION - 1):
            sess = None   # free the previous universe first
            sess = setup()
        one_round(sess, queries, {})   # warm-up: the session is warm from here on
        rounds = passes(seconds, lambda _: one_round(sess, queries, spans))

    tl.close()
    times = {k: statistics.median(tl.seconds(sp) for sp in s) for k, s in spans.items()}
    run.op_times = list(times.values())
    run.ops_per_s = len(run.op_times) / sum(run.op_times)
    run.tail_q = 0.99
    paths = [times[k] for k, q in enumerate(queries) if q[0] == "path" and k in times]
    run.breakdown["path_p50_ms"] = statistics.median(paths) * 1e3
    q, tail = sampled_tail(paths)
    run.breakdown["path_tail_ms"] = tail * 1e3
    run.info["rounds"] = rounds
    run.info["queries"] = {kind: sum(1 for q in queries if q[0] == kind) for kind, _ in QUERY_MIX}
    run.info["path_tail_quantile"] = q
    return run


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def run_command(argv, golden, run, tl, traced=None):
    """Run one command in its own process and check it against the golden
    record.  Returns its span."""
    entry = golden[corpus.command_key(argv)]
    dot = argv[argv.index("--dot") + 1] if "--dot" in argv else None
    if dot and os.path.exists(dot):
        os.remove(dot)
    if traced is None:
        cmd = [sys.executable, "-m", "tauseq.cli"] + argv
    else:
        cmd = [sys.executable, os.path.join(corpus.HERE, "tracechild.py"), traced,
               os.path.splitext(os.path.basename(argv[1]))[0]] + argv
    t0 = tl.begin()
    proc = subprocess.run(cmd, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    span = tl.end(t0)
    got = {"exit": proc.returncode, "stdout": corpus.digest(proc.stdout),
           "stderr": corpus.digest(proc.stderr)}
    if dot:
        with open(dot) as fh:
            got["dot"] = corpus.digest(fh.read())
    if got != entry:
        run.fail("%s: differs from golden (exit %d, stderr %r)"
                 % (corpus.command_key(argv), proc.returncode, proc.stderr[-200:]))
    return span


def cli_workload(seed, seconds, trace):
    run = Run()
    tl = run.timeline
    run.setup = import_setup_spans(tl)
    golden = corpus.load_golden("cli")
    commands = corpus.cli_commands(seed, golden["pools"])
    keys = [corpus.command_key(c) for c in commands]
    samples = {k: [] for k in keys}
    order_rng = random.Random(seed)

    def one_pass(_, traced=None):
        order = list(commands)
        order_rng.shuffle(order)
        for k, argv in enumerate(order):
            run.attempted += 1
            agg_path = None
            if traced is not None:
                agg_path = os.path.join(corpus.OUT, "cli-child-%d.json" % k)
                traced.append(agg_path)
            try:
                span = run_command(argv, golden["commands"], run, tl, agg_path)
            except (subprocess.SubprocessError, OSError) as exc:
                run.fail("%s: %s" % (corpus.command_key(argv), exc))
                continue
            samples[corpus.command_key(argv)].append(span)

    if trace:
        t0 = time.perf_counter()
        one_pass(0)
        plain = time.perf_counter() - t0
        children = []
        t0 = time.perf_counter()
        one_pass(1, traced=children)
        run.breakdown["trace.overhead_s"] = time.perf_counter() - t0 - plain
        aggs = []
        for path in children:
            with open(path) as fh:
                aggs.append(json.load(fh))
        run.trace = tracing.merge(aggs)
        samples = {k: s[:1] for k, s in samples.items()}
        run.info["passes"] = 1
    else:
        run.info["passes"] = passes(seconds, one_pass)

    tl.close()
    times = [statistics.median(tl.seconds(sp) for sp in s) for s in samples.values() if s]
    run.op_times = times
    run.ops_per_s = len(times) / sum(times)
    run.tail_q = 0.75
    run.info["commands"] = len(commands)
    return run


WORKLOADS = {
    "inspect": inspect_workload,
    "session": session_workload,
    "cli": cli_workload,
}
