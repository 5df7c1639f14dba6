"""Run one tauseq command under the span tracer.

    python3 perfbench/tracechild.py AGGREGATES.json TAG ARGS...

ARGS are the `tauseq` command-line arguments; TAG names the algebra for the
universe.build.<tag>.s metric.  The command's stdout, stderr and exit code
are passed through; the tracer aggregates go to AGGREGATES.json and the spans
beside it.
"""

import sys
import time

t0 = time.perf_counter()
import tauseq.cli  # noqa: E402  (the import is what cli.import.s measures)
import_s = time.perf_counter() - t0

import tracing  # noqa: E402


def main():
    agg_path, tag, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    tracer = tracing.Tracer()
    tracer.install()
    tracer.tag = tag
    tracer.counters["cli.import.s"] += import_s
    try:
        code = tauseq.cli.main(argv)
    finally:
        sys.stdout.flush()
        tracing.dump(tracer.aggregates(), agg_path)
        tracer.write_spans(agg_path[:-len(".json")] + "-spans.tsv")
    return code


if __name__ == "__main__":
    sys.exit(main())
