"""Benchmark of etaflow: class side, spectral side and CLI.

    python3 perfbench/run.py --workload eta-grid --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; etaflow is imported from ``src/``.
Workloads: eta-grid, flow-sweep, cli-batch (see README.md).  The load is
generated one step at a time: each pass of a library workload runs in a
fresh interpreter, and the CLI invocations run one at a time.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0`` and the per-layer metrics with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calib import calibrate, scaled  # noqa: E402
from checks import Checker  # noqa: E402

SETUP_PROBES_FIRST = 5  # cold starts before the first pass
SETUP_PROBES_BETWEEN = 2  # cold starts after every pass
SETUP_SAMPLES = 15  # at least this many cold starts per run


def _env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


class Child:
    """A finished child process: its wall time, peak resident memory and
    output, as measured by the spawner."""

    def __init__(self, spawner, argv, out_path: Path, err_path: Path, wait_for_ready=False):
        self.out_path = out_path
        self.err_path = err_path
        request = {"argv": argv, "stdout": str(out_path), "stderr": str(err_path),
                   "ready": wait_for_ready}
        spawner.stdin.write(json.dumps(request) + "\n")
        spawner.stdin.flush()
        reply = json.loads(spawner.stdout.readline())
        self.wall_s = reply["wall_s"]
        self.ready_s = reply["ready_s"]
        self.returncode = reply["returncode"]
        self.maxrss_mb = reply["maxrss_mb"]

    @property
    def stdout(self) -> bytes:
        return self.out_path.read_bytes()

    @property
    def stderr(self) -> str:
        return self.err_path.read_text(errors="replace")


class Run:
    def __init__(self, workload: str, seed: int, seconds: int, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = HERE / "_work" / f"{workload}-{seed}-{os.getpid()}"
        self.counter = 0
        self.failures = []
        self.problems = []

    def path(self, suffix: str) -> Path:
        self.counter += 1
        return self.work / f"{self.counter:05d}.{suffix}"

    # -- inputs -------------------------------------------------------------

    def prepare(self):
        if self.work.exists():
            shutil.rmtree(self.work)
        self.work.mkdir(parents=True)
        spec = workloads.EXPLICIT_CLI if self.workload == "cli-batch" else workloads.EXPLICIT_FLOW
        self.configs = workloads.write_explicit_configs(self.work, self.workload, self.seed, spec)
        self.checker = Checker(self.configs)
        if self.workload == "eta-grid":
            self.queries = workloads.eta_grid(self.seed)
        elif self.workload == "flow-sweep":
            self.queries = workloads.flow_sweep(self.seed, self.configs)
        else:
            self.queries = workloads.cli_batch(self.seed, self.configs)
        if self.workload == "cli-batch":
            bases = sorted({q["argv"][q["argv"].index("--manifold") + 1] for q in self.queries})
        else:
            bases = sorted({q["base"] for q in self.queries})
        self.spec_path = self.work / "spec.json"
        self.spec_path.write_text(json.dumps({
            "bases": bases,
            "import_cli": self.workload == "cli-batch",
            "queries": [] if self.workload == "cli-batch" else self.queries,
        }))

    # -- measurement --------------------------------------------------------

    def setup_probe(self) -> float:
        """One cold start, at reference speed."""
        before = calibrate()
        child = Child(self.spawner, [sys.executable, str(HERE / "worker.py"),
                                     str(self.spec_path), "setup", str(self.path("probe.json"))],
                      self.path("out"), self.path("err"), wait_for_ready=True)
        if child.returncode != 0 or child.ready_s is None:
            raise RuntimeError(f"set-up probe failed: {child.stderr}")
        return scaled(child.ready_s, (before + calibrate()) / 2)

    def library_pass(self, traced: bool) -> dict:
        out = self.path("pass.json")
        child = Child(self.spawner, [sys.executable, str(HERE / "worker.py"),
                                     str(self.spec_path), "trace" if traced else "pass", str(out)],
                      self.path("out"), self.path("err"), wait_for_ready=True)
        if child.returncode != 0:
            raise RuntimeError(f"pass worker failed: {child.stderr}")
        result = json.loads(out.read_text())
        self.failures += result["failures"]
        self.checker.problems.clear()
        answered = [(q, a) for q, a in zip(self.queries, result["answers"]) if a is not None]
        check = self.checker.eta_grid if self.workload == "eta-grid" else self.checker.flow_sweep
        try:
            check([q for q, _ in answered], [a for _, a in answered])
        except (KeyError, TypeError, ValueError) as exc:
            self.checker.problems.append(f"malformed answer: {exc!r}")
        self.problems += self.checker.problems
        return _pass_record(result["times"], result["calibrations"], child.maxrss_mb,
                            [json.dumps(a, sort_keys=True) for a in result["answers"]],
                            trace=result.get("trace"),
                            start_s=[child.wall_s - result["inproc_s"]])

    def cli_pass(self, traced: bool) -> dict:
        times, calibrations, rss, outputs, starts, traces = [], [], [], [], [], []
        bytes_out = 0
        before = calibrate()
        for query in self.queries:
            if traced:
                trace_path = self.path("trace.json")
                argv = [sys.executable, str(HERE / "clitrace.py"), str(trace_path)]
            else:
                argv = [sys.executable, "-m", "etaflow"]
            child = Child(self.spawner, argv + query["argv"], self.path("out"), self.path("err"))
            after = calibrate()
            times.append(child.wall_s)
            calibrations.append((before + after) / 2)
            before = after
            rss.append(child.maxrss_mb)
            text = child.stdout
            bytes_out += len(text)
            outputs.append(text)
            if child.returncode != 0:
                self.failures.append(f"{query['argv']}: exit {child.returncode}: {child.stderr}")
            if traced:
                summary = json.loads(trace_path.read_text())
                starts.append(child.wall_s - summary.pop("main_s"))
                traces.append(summary)
        self._check_cli(outputs)
        return _pass_record(times, calibrations, max(rss), outputs,
                            trace=_merge_traces(traces) if traced else None,
                            start_s=starts, bytes_out=bytes_out)

    def _check_cli(self, outputs):
        from etaflow.cli import load_report

        for i in range(0, len(self.queries), 2):
            argv = self.queries[i]["argv"][:-2]
            try:
                as_json = load_report(outputs[i].decode(), "json")
                as_csv = load_report(outputs[i + 1].decode(), "csv")
            except ValueError as exc:
                self.problems.append(f"{argv}: unreadable report: {exc}")
                continue
            if as_json != as_csv:
                self.problems.append(f"{argv}: JSON and CSV payloads differ")
            self.checker.problems.clear()
            try:
                self.checker.cli_result(argv, as_json)
            except (KeyError, TypeError, ValueError) as exc:
                self.checker.problems.append(f"{argv}: malformed payload: {exc!r}")
            self.problems += self.checker.problems

    def one_pass(self, traced=False) -> dict:
        if self.workload == "cli-batch":
            return self.cli_pass(traced)
        return self.library_pass(traced)

    def measure(self) -> dict:
        """Untraced passes for --seconds; returns the end-to-end metrics."""
        setups = [self.setup_probe() for _ in range(SETUP_PROBES_FIRST)]
        passes = []
        start = time.perf_counter()
        # the CLI needs a second pass to show that output repeats byte for byte
        min_passes = 2 if self.workload == "cli-batch" else 1
        while len(passes) < min_passes or time.perf_counter() - start < self.seconds:
            passes.append(self.one_pass())
            setups += [self.setup_probe() for _ in range(SETUP_PROBES_BETWEEN)]
        while len(setups) < SETUP_SAMPLES:
            setups.append(self.setup_probe())
        self._check_repeats(passes)
        self.passes = passes
        times = [t for p in passes for t in p["times"]]
        raw = statistics.median(p["raw_pass_s"] for p in passes)
        print(f"unscaled pass wall time: median {raw:.3f} s over {len(passes)} passes",
              file=sys.stderr)
        return {
            "setup_s": (statistics.median(setups), "s"),
            "pass_s": (statistics.median(p["pass_s"] for p in passes), "s"),
            "query_p50_ms": (_percentile(times, 50) * 1000, "ms"),
            "query_p90_ms": (_percentile(times, 90) * 1000, "ms"),
            "peak_rss_mb": (max(p["rss_mb"] for p in passes), "MB"),
        }

    def _check_repeats(self, passes):
        """Every pass gives the same answers; for the CLI, the same bytes."""
        for other in passes[1:]:
            for query, a, b in zip(self.queries, passes[0]["answers"], other["answers"]):
                if a != b:
                    self.problems.append(f"{query}: output differs between passes")

    def measure_traced(self) -> dict:
        """One untraced pass as reference, then traced passes for --seconds;
        returns the per-layer metrics."""
        reference = self.one_pass()
        traced = []
        start = time.perf_counter()
        while not traced or time.perf_counter() - start < self.seconds:
            traced.append(self.one_pass(traced=True))
        for p in traced:
            for query, a, b in zip(self.queries, reference["answers"], p["answers"]):
                if a != b:
                    self.problems.append(f"{query}: traced answer differs")
        self.passes = [reference] + traced
        metrics = _layer_metrics(traced)
        overhead = statistics.median(p["pass_s"] for p in traced) - reference["pass_s"]
        print(f"tracing overhead: {overhead:.3f} s per pass at reference speed "
              f"(untraced pass {reference['pass_s']:.3f} s)", file=sys.stderr)
        return metrics


def _pass_record(times, calibrations, rss_mb, answers, trace=None, start_s=(), bytes_out=0):
    """One pass: per-query times at reference speed and what was checked."""
    scaled_times = [scaled(t, c) for t, c in zip(times, calibrations)]
    return {"times": scaled_times, "pass_s": sum(scaled_times), "raw_pass_s": sum(times),
            "rss_mb": rss_mb, "answers": answers, "trace": trace,
            "start_s": list(start_s), "bytes_out": bytes_out}


def _percentile(values, pct):
    """Linear interpolation between closest ranks."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _merge_traces(traces):
    merged = {"self_s": {}, "counts": {}, "serialize_s": 0.0, "keys": {}}
    for t in traces:
        for layer, value in t["self_s"].items():
            merged["self_s"][layer] = merged["self_s"].get(layer, 0.0) + value
        for name, value in t["counts"].items():
            if name == "ring.peak_terms":
                merged["counts"][name] = max(merged["counts"].get(name, 0), value)
            else:
                merged["counts"][name] = merged["counts"].get(name, 0) + value
        merged["serialize_s"] += t["serialize_s"]
        for layer, keys in t["keys"].items():
            merged["keys"].setdefault(layer, []).extend(keys)
    return merged


def _repeat_ratio(keys):
    if not keys:
        return 0.0
    seen = set()
    repeats = 0
    for key in keys:
        repeats += key in seen
        seen.add(key)
    return repeats / len(keys)


def _layer_metrics(passes) -> dict:
    """Per-pass layer figures; times are medians over the traced passes."""
    def med(fn):
        return statistics.median(fn(p) for p in passes)

    def count(name):
        return med(lambda p: p["trace"]["counts"].get(name, 0))

    def self_s(layer):
        return med(lambda p: p["trace"]["self_s"].get(layer, 0.0))

    families = count("spectral.families")
    useful = count("spectral.useful")
    return {
        "ring.products": (count("ring.products"), "count"),
        "ring.peak_terms": (count("ring.peak_terms"), "count"),
        "ring.self_s": (self_s("ring"), "s"),
        "series.self_s": (self_s("series"), "s"),
        "exact.self_s": (self_s("exact"), "s"),
        "series.repeat_ratio": (med(lambda p: _repeat_ratio(p["trace"]["keys"].get("series", []))),
                                "ratio"),
        "eta.repeat_ratio": (med(lambda p: _repeat_ratio(p["trace"]["keys"].get("eta", []))),
                             "ratio"),
        "spectral.families": (families, "count"),
        "spectral.certified": (count("spectral.certified"), "count"),
        "spectral.crossings": (count("spectral.crossings"), "count"),
        "spectral.useful_ratio": (useful / families if families else 0.0, "ratio"),
        "spectral.self_s": (self_s("spectral"), "s"),
        "exact.quad_verdicts": (count("exact.quad_verdicts"), "count"),
        "catalog.self_s": (self_s("catalog"), "s"),
        "catalog.table_entries": (count("catalog.table_entries"), "count"),
        "cli.self_s": (self_s("cli"), "s"),
        "cli.serialize_s": (med(lambda p: p["trace"]["serialize_s"]), "s"),
        "cli.bytes_out": (med(lambda p: p["bytes_out"]), "bytes"),
        "process.start_s": (statistics.median(s for p in passes for s in p["start_s"]), "s"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "etaflow" / "__init__.py").is_file():
        print(f"perfbench: no etaflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # one CPU for the runner and every child, so that each calibration runs
    # where the sample it scales ran
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    run = Run(args.workload, args.seed, args.seconds, bool(args.trace))
    run.spawner = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                   stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                   text=True, env=_env(), cwd=ROOT)
    try:
        run.prepare()
        metrics = run.measure_traced() if run.trace else run.measure()
    finally:
        run.spawner.stdin.close()
        run.spawner.wait()
        shutil.rmtree(run.work, ignore_errors=True)
    for line in (run.failures + run.problems)[:20]:
        print(f"perfbench: {line}", file=sys.stderr)
    attempted = len(run.queries) * len(run.passes)
    result = {
        "correct": not run.problems,
        "attempted": attempted,
        "failed": len(run.failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
