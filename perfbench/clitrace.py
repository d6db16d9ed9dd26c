"""One traced CLI invocation.

    python3 perfbench/clitrace.py TRACE_OUT.json ARGS...

Runs ``etaflow.cli.main(ARGS)`` exactly as ``python -m etaflow ARGS`` does,
with the per-layer tracer installed, and writes the tracer summary and the
in-process time of ``main`` to TRACE_OUT.json.
"""

import json
import sys
import time

import etaflow.cli
from tracer import Tracer


def main(argv):
    out_path, args = argv[0], argv[1:]
    tracer = Tracer()
    tracer.install()
    start = time.perf_counter()
    code = etaflow.cli.main(args)
    main_s = time.perf_counter() - start
    sys.stdout.flush()
    summary = tracer.summary()
    summary["main_s"] = main_s
    with open(out_path, "w") as fh:
        json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
