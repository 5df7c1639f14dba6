"""tauseq benchmark.

    python3 perfbench/run.py --workload {inspect,session,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the repository root; it imports tauseq from ./src and builds
nothing.  With --trace 0 the last line of stdout is a JSON object with the
end-to-end metrics; with --trace 1 one untraced and one traced pass of fixed
size run instead (--seconds is not used) and the object holds the per-layer
metrics.  The lines before it give the provenance and a readable summary.
Every output is checked against the golden records in perfbench/golden/,
which perfbench/record_golden.py writes.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys

import corpus
import tracing
import workloads

END_TO_END = [
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
]
WORKLOAD_LAYER_METRICS = [
    ("error_rate", "ratio", "lower"), ("trace.overhead_s", "s", "lower"),
    ("inspect_rational_s", "s", "lower"), ("inspect_prime_s", "s", "lower"),
    ("refuse_s", "s", "lower"), ("path_p50_ms", "ms", "lower"),
    ("path_tail_ms", "ms", "lower"),
]


def per_layer_specs():
    return WORKLOAD_LAYER_METRICS + tracing.metric_specs()


def git_sha():
    """The checked-out commit, read from .git without running git."""
    git = os.path.join(corpus.ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines():
    pkg = os.path.join(corpus.SRC, "tauseq")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


def peak_rss_mb(workload):
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(run, workload):
    values = {
        "setup_s": statistics.median(run.timeline.seconds(sp) for sp in run.setup),
        "peak_rss_mb": peak_rss_mb(workload),
        "ops_per_s": run.ops_per_s,
        "op_p50_ms": statistics.median(run.op_times) * 1e3,
        "op_tail_ms": workloads.nearest_rank(run.op_times, run.tail_q) * 1e3,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def per_layer(run):
    values = tracing.layer_metrics(run.trace)
    values.update(run.breakdown)
    values["error_rate"] = (run.failed + run.known_defects) / run.attempted
    return {name: {"value": values.get(name, 0), "unit": unit}
            for name, unit, _ in per_layer_specs()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(corpus.SRC, "tauseq", "cli.py")):
        print("perfbench: no tauseq sources in %s" % corpus.SRC, file=sys.stderr)
        return 2
    os.chdir(corpus.ROOT)
    os.makedirs(corpus.OUT, exist_ok=True)
    sys.path.insert(0, corpus.SRC)
    # One CPU for this process and its children: every timing and the
    # reference probes that scale it then run under the same conditions.
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except OSError as exc:
        print("perfbench: running unpinned: %s" % exc, file=sys.stderr)

    run = workloads.WORKLOADS[args.workload](args.seed, args.seconds, args.trace)

    provenance = {
        "git_sha": git_sha(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "src_lines": src_lines(),
    }
    summary = {
        "attempted": run.attempted, "failed": run.failed,
        "known_defects": run.known_defects,
        "error_rate": (run.failed + run.known_defects) / run.attempted,
        "op_samples": len(run.op_times), "tail_quantile": run.tail_q,
        "setup_samples_s": [round(run.timeline.seconds(sp), 4) for sp in run.setup],
        "reference_ms": round(run.timeline.reference_ms(), 4),
        "problems": run.problems,
    }
    summary.update(run.info)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"summary": summary}))
    if args.trace:
        layers = tracing.layer_self_seconds(run.trace)
        print(json.dumps({"layer_self_s": {k: round(v, 4) for k, v in
                                           sorted(layers.items(), key=lambda kv: -kv[1])},
                          "phases": run.layer_phases}))
        metrics = per_layer(run)
    else:
        metrics = end_to_end(run, args.workload)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
