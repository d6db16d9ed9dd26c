"""One pass of a library workload in a fresh interpreter.

    python3 perfbench/worker.py SPEC.json MODE OUT.json

MODE is ``setup`` (import etaflow, resolve every manifold of the spec,
print ``ready`` and exit), ``pass`` (the same set-up, then every query once,
timed, with a host-speed calibration between queries) or ``trace`` (as
``pass`` with the per-layer tracer installed before the set-up).  Each pass
runs in its own process, so nothing one pass computes can be reused by the
next.  Results go to OUT.json.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction

from calib import calibrate


def _setup(spec):
    from etaflow.catalog import resolve_manifold

    return {base: resolve_manifold(base) for base in spec["bases"]}


def _run(entry, query):
    from etaflow.eta import eta_invariant, transgression_raw
    from etaflow.spectral import kernel_dimension, spectral_flow

    op = query["op"]
    r = Fraction(query["r"])
    eps = Fraction(query["eps"])
    if op == "eta":
        return eta_invariant(entry.manifold, entry.model, r, eps)
    if op == "tp":
        return transgression_raw(entry.manifold, r, eps, "paper_i")
    if op == "sf":
        return spectral_flow(entry.model, r, eps)
    if op == "kd":
        return kernel_dimension(entry.model, r, eps)
    if op == "cx":
        return spectral_flow(entry.model, r, eps, on_unknown="skip")
    raise ValueError(f"unknown op {op!r}")


def _answer(query, value):
    """JSON form of one answer, made after the timed pass."""
    if query["op"] == "kd":
        return value
    if query["op"] == "tp":
        if isinstance(value, Fraction):
            return {"re": str(value), "im": "0"}
        return {"re": str(value.re), "im": str(value.im)}
    return value.to_json()


def main(argv):
    spec_path, mode, out_path = argv
    spec = json.loads(open(spec_path).read())
    import etaflow  # noqa: F401  (the import is part of set-up)

    if spec.get("import_cli"):
        import etaflow.cli  # noqa: F401
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    entries = _setup(spec)
    print("ready", flush=True)
    if mode == "setup":
        return 0
    times = []
    calibrations = []
    values = []
    failures = []
    before = calibrate()
    for query in spec["queries"]:
        t0 = time.perf_counter()
        try:
            values.append(_run(entries[query["base"]], query))
        except Exception as exc:  # counted as a failed operation
            values.append(None)
            failures.append(f"{query}: {type(exc).__name__}: {exc}")
        times.append(time.perf_counter() - t0)
        after = calibrate()
        calibrations.append((before + after) / 2)
        before = after
    inproc_s = time.perf_counter() - start
    trace = tracer.summary() if tracer is not None else None
    answers = [None if v is None else _answer(q, v)
               for q, v in zip(spec["queries"], values)]
    out = {"inproc_s": inproc_s, "times": times, "calibrations": calibrations,
           "answers": answers, "failures": failures}
    if trace is not None:
        out["trace"] = trace
    with open(out_path, "w") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
