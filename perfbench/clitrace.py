"""Run `ilkit.cli.main` under the tracer, for the traced `large` workload.

    PYTHONPATH=src python3 perfbench/clitrace.py OUT 1 prove --json "p -> []p"

Writes OUT.json (counts, self times, the moment `main` was entered and
its duration) and, when the second argument is 1, the spans to
OUT.spans.tsv.gz; then exits with the CLI's exit code.
"""

import json
import sys
from time import perf_counter

import ilkit.cli
import tracer


def run(out: str, keep_spans: bool, argv: list[str]) -> int:
    entered = perf_counter()
    tr = tracer.Tracer(keep_spans)
    tracer.install(tr)
    tr.active = True
    try:
        code = ilkit.cli.main(argv)
    finally:
        tr.active = False
        main_s = perf_counter() - entered
        sys.stdout.flush()
        spans = tr.write_spans(out + ".spans.tsv.gz", entered) if keep_spans else 0
        summary = {"counts": tr.counts(), "self_s": tr.self_times(), "entered": entered, "main_s": main_s, "spans": spans}
        with open(out + ".json", "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2] == "1", sys.argv[3:]))
