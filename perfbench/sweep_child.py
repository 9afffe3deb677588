"""Traced sweep in a fresh interpreter, so that caches start cold as they
do for ``python -m tourmod sweep``.

Usage: python3 perfbench/sweep_child.py SUMMARY_JSON SPANS_JSONL
(with the checkout's src/ on PYTHONPATH).  Prints the sweep report lines
to stdout, writes the trace summary and spans, and exits with the
command's exit code.
"""

import json
import sys

from tourmod import cli

from tracing import Tracer

SWEEP_ARGS = ["sweep", "--max-n", "7", "--jobs", "1"]


def main(summary_path: str, spans_path: str) -> int:
    with Tracer() as tracer:
        rc = tracer.call(0, cli.main, SWEEP_ARGS)
    sys.stdout.flush()
    with open(summary_path, "w", encoding="ascii") as fh:
        json.dump(tracer.summary(), fh)
    tracer.write_jsonl(spans_path)
    return rc


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
