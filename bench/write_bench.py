"""Write a BENCH_<n>.json record: perfbench at fixed seeds plus
class-side and spectral micro-cases, optionally against a baseline
revision.

    python3 bench/write_bench.py --out BENCH_23.json --baseline HEAD~1

Run it from anywhere inside a source checkout; it benchmarks the sources
of that checkout.  It uses the standard library only and runs
``perfbench/run.py`` unmodified, one run at a time.  Every Python process
it starts runs with ``PYTHONDONTWRITEBYTECODE=1``, and the ``__pycache__``
directories under ``src/`` and ``perfbench/`` are deleted first, so every
tree compiles its own sources in each process alike (the standard
library keeps its cache).

- Without ``--baseline``: eta-grid, flow-sweep and cli-batch at seeds 1-3
  with ``--trace 0`` (10 s runs, 20 s for cli-batch), summarized per
  metric as the median and quartiles over the seeds.
- With ``--baseline REV``: REV (from ``git archive``) and a copy of the
  checkout are put in two temporary trees at paths of the same length,
  and each workload runs in alternating REV/checkout pairs (``PAIRS``
  pairs of ``PAIR_SECONDS`` runs, seeds cycling 1-3, the side that runs
  first alternating) from those trees.  For each end-to-end metric of
  ``BENCHMARK.json`` the record holds both sides' values and quartiles,
  the ratio of the medians (checkout / REV), the pairs the checkout won
  and whether its median gain exceeds the interquartile range of REV.
  The import split, the compile times, the modules each command loads,
  the cold table resolve, the cold class side and the answer hashes run
  on both sides, and the record says whether the answers are equal.  A
  fresh tree holds no bytecode cache.
- The import split: the wall time of a fresh ``python3 -S -c pass``,
  ``python3 -c pass``, ``import etaflow`` and ``import etaflow.cli``, as
  seen by the parent process (median of 11 interleaved runs each), with
  the etaflow modules each one loads; and the cold ``resolve_manifold``
  of the generated flow-sweep x2 and x4 configs (seed 1, 424 and 609
  table entries; median of 7 interleaved fresh processes).
- The ``compile()`` seconds of each ``src/etaflow/*.py`` (the median of
  21 compiles within one process; the median of 5 interleaved processes),
  and for the first cli-batch invocation (seed 1) of each subcommand in
  each format, the sorted modules it loads, read from ``sys.modules`` in a
  fresh ``python3 -S`` child: the same lists on any machine with the same
  Python.
- The ``spectral.certify_no_crossing`` calls of one flow-sweep pass at
  seed 1, by family kind and outcome, counted in process by a wrapper of
  the module global that ``spectral_flow`` calls; with ``--baseline`` the
  record says whether both sides made the same calls.
- The class products, ``series.class_product`` and ``series.exp_class``
  calls, counted in process by wrappers of those module globals: of one
  eta-grid pass at seed 1 (with whether the pass loaded ``etaflow.series``
  at all), and of each seed-1 cli-batch ``check-identities`` invocation,
  run by ``cli.main`` with every memo of the package emptied first, as in a
  fresh process; with ``--baseline`` the record says whether both sides
  made the same calls.

Then, on the checkout:

- one eta-grid run and one flow-sweep run at seed 1 with ``--trace 1``
  for the per-layer counters and self times of the class side and of the
  spectral side;
- ``adiabatic_top`` on cp1x32 at a 401-digit r, in process: the first
  call (which builds the class-side tables) and the median of 5 further
  calls, with a sha256 of the exact answer;
- one ``adiabatic-limit --manifold cp1x32`` process at a 4100-digit r,
  whose answer is too long to print: its exit code, the limit its
  message names and its wall time;
- ``spectral_flow`` plus ``kernel_dimension`` in nakano mode on cp1x4 at
  r = 1, eps = 9999, in process: the first pair of calls and the median of
  20 further pairs, with a sha256 of the payload;
- the cold class side: the first ``eta_invariant`` on each of cp1xcp1,
  cp1x4, cp1x6, cp1x8 and cp1x32, each in 5 fresh processes (the median),
  with the number of Bernoulli memo misses and of Bernoulli numbers
  computed;
- one ``transgression --manifold cp1x32 --eps 1`` process at the
  4100-digit r: its exit code, the limit its message names and its wall
  time;
- flow-sweep at seed 1 split into its nakano, explicit and
  counterexample parts: one pass of its queries in a fresh process, as a
  perfbench worker runs it, with the time of each part summed over its
  queries; the median of 7 processes;
- a sha256 of the answers of every perfbench case (workload and seed):
  the library answers as ``perfbench/worker.py`` writes them, and for
  cli-batch each invocation's exit code and output, run from the
  directory of the generated configs so that no path enters the hash.

The whole record takes about five minutes, about eight with
``--baseline``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (1, 2, 3)
SECONDS = {"eta-grid": 10, "flow-sweep": 10, "cli-batch": 20}
# --baseline: pairs per workload and seconds per run; a cli-batch run always
# makes two passes of about 9 s, whatever its seconds, so it takes 27 s
PAIRS = {"eta-grid": 10, "flow-sweep": 10, "cli-batch": 2}
PAIR_SECONDS = {"eta-grid": 4, "flow-sweep": 4, "cli-batch": 1}
R_401 = f"{10**400 + 1}/{10**400 - 3}"
R_4100 = f"{10**4100 + 1}/{10**4100 - 3}"
COLD_BASES = ("cp1xcp1", "cp1x4", "cp1x6", "cp1x8", "cp1x32")

# adiabatic_top on cp1x32: argv[1] is r; prints first-call seconds, the
# median of 5 further calls and the sha256 of the answer's string form
_IN_PROCESS = """
import hashlib, json, statistics, sys, time
from fractions import Fraction
sys.set_int_max_str_digits(0)  # the answer has about 26000 digits
from etaflow.catalog import resolve_manifold
from etaflow.eta import adiabatic_top
spec = resolve_manifold("cp1x32").manifold
r = Fraction(sys.argv[1])
start = time.perf_counter()
value = adiabatic_top(spec, r)
first = time.perf_counter() - start
times = []
for _ in range(5):
    start = time.perf_counter()
    again = adiabatic_top(spec, r)
    times.append(time.perf_counter() - start)
    assert again == value
text = f"{value.numerator}/{value.denominator}"
print(json.dumps({"first_call_s": first, "median_s": statistics.median(times),
                  "times_s": times, "answer_digits": len(text),
                  "answer_sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""

# spectral_flow plus kernel_dimension on cp1x4 in nakano mode, r = 1,
# eps = 9999; prints first-pair seconds, the median of 20 further pairs and
# the sha256 of the payload {"flow": report JSON, "kernel": dimension}
_NAKANO = """
import hashlib, json, statistics, time
from etaflow.catalog import resolve_manifold
from etaflow.spectral import kernel_dimension, spectral_flow
model = resolve_manifold("cp1x4").model

def pair():
    start = time.perf_counter()
    payload = {"flow": spectral_flow(model, 1, 9999).to_json(),
               "kernel": kernel_dimension(model, 1, 9999)}
    return time.perf_counter() - start, json.dumps(payload, sort_keys=True)

first, text = pair()
times = []
for _ in range(20):
    elapsed, again = pair()
    times.append(elapsed)
    assert again == text
print(json.dumps({"first_call_s": first, "median_s": statistics.median(times),
                  "times_s": times,
                  "payload_sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""


# the first eta_invariant on a base (argv[1]) in a fresh process: its time,
# the Bernoulli memo misses and how many Bernoulli numbers were computed (the
# memo is in eta, or in series in trees before it moved)
_COLD = """
import importlib, json, sys, time
from fractions import Fraction
from etaflow import eta
from etaflow.catalog import resolve_manifold
from etaflow.eta import eta_invariant
home = eta if hasattr(eta, "_BERNOULLI") else importlib.import_module("etaflow.series")
entry = resolve_manifold(sys.argv[1])
start = time.perf_counter()
result = eta_invariant(entry.manifold, entry.model, Fraction(1, 3), Fraction(1, 2))
elapsed = time.perf_counter() - start
print(json.dumps({"first_call_s": elapsed,
                  "bernoulli_misses": home._bernoulli.cache_info().misses,
                  "bernoulli_computed": len(home._BERNOULLI) - 1,
                  "total": str(result.total)}))
"""

# the answers of one perfbench case (argv: checkout root, workload, seed),
# hashed: library queries answered as perfbench/worker.py answers them, CLI
# invocations run from the directory of the generated configs
_ANSWERS = """
import hashlib, json, os, subprocess, sys, tempfile
from pathlib import Path
root, workload, seed = Path(sys.argv[1]), sys.argv[2], int(sys.argv[3])
sys.path.insert(0, str(root / "perfbench"))
import workloads, worker
with tempfile.TemporaryDirectory() as tmp:
    work = Path(tmp)
    spec = workloads.EXPLICIT_CLI if workload == "cli-batch" else workloads.EXPLICIT_FLOW
    configs = workloads.write_explicit_configs(work, workload, seed, spec)
    if workload == "cli-batch":
        answers = []
        for query in workloads.cli_batch(seed, configs):
            argv = [Path(a).name if a.startswith(tmp) else a for a in query["argv"]]
            proc = subprocess.run([sys.executable, "-m", "etaflow", *argv], cwd=work,
                                  capture_output=True, text=True)
            answers.append([proc.returncode, proc.stdout])
    else:
        queries = (workloads.eta_grid(seed) if workload == "eta-grid"
                   else workloads.flow_sweep(seed, configs))
        entries = worker._setup({"bases": sorted({q["base"] for q in queries})})
        answers = []
        for query in queries:
            try:
                answers.append(worker._answer(query, worker._run(entries[query["base"]], query)))
            except Exception as exc:
                answers.append(f"{type(exc).__name__}: {exc}")
text = json.dumps(answers, sort_keys=True).replace(tmp, "")
print(json.dumps({"queries": len(answers),
                  "answers_sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""

# one flow-sweep pass (argv: checkout root, seed) in a fresh process: the
# seconds of the nakano, explicit and counterexample queries, summed per part
_FLOW_SPLIT = """
import json, sys, tempfile, time
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import workloads, worker
with tempfile.TemporaryDirectory() as tmp:
    configs = workloads.write_explicit_configs(Path(tmp), "flow-sweep", seed,
                                               workloads.EXPLICIT_FLOW)
    queries = workloads.flow_sweep(seed, configs)
    entries = worker._setup({"bases": sorted({q["base"] for q in queries})})
    parts = {"nakano": [0.0, 0], "explicit": [0.0, 0], "counterexample": [0.0, 0]}
    for query in queries:
        part = "counterexample" if query["op"] == "cx" else query["mode"]
        start = time.perf_counter()
        worker._run(entries[query["base"]], query)
        parts[part][0] += time.perf_counter() - start
        parts[part][1] += 1
print(json.dumps({part: {"seconds": s, "queries": n} for part, (s, n) in parts.items()}))
"""


# the cold resolve_manifold of the generated flow-sweep tables (argv: checkout
# root, seed) in a fresh process: seconds and table entries per config
_RESOLVE = """
import json, sys, tempfile, time
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import workloads
import etaflow
from etaflow.catalog import resolve_manifold
with tempfile.TemporaryDirectory() as tmp:
    configs = workloads.write_explicit_configs(Path(tmp), "flow-sweep", seed,
                                               workloads.EXPLICIT_FLOW)
    out = {}
    for name in workloads.EXPLICIT_FLOW:
        start = time.perf_counter()
        resolve_manifold(str(configs[name][0]))
        out[name] = {"seconds": time.perf_counter() - start,
                     "entries": len(configs[name][2])}
print(json.dumps(out))
"""

# the certify_no_crossing calls of one flow-sweep pass (argv: checkout root,
# seed), counted by family kind and outcome through a wrapper of the module
# global that spectral_flow calls
_CERTIFY = """
import json, sys, tempfile
from collections import Counter
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import workloads, worker
from etaflow import spectral
counts = Counter()
certify = spectral.certify_no_crossing

def counted(family, r, eps):
    outcome = certify(family, r, eps)
    counts[family.kind, outcome.status] += 1
    return outcome

spectral.certify_no_crossing = counted
with tempfile.TemporaryDirectory() as tmp:
    configs = workloads.write_explicit_configs(Path(tmp), "flow-sweep", seed,
                                               workloads.EXPLICIT_FLOW)
    queries = workloads.flow_sweep(seed, configs)
    entries = worker._setup({"bases": sorted({q["base"] for q in queries})})
    for query in queries:
        worker._run(entries[query["base"]], query)
by_kind = {}
for (kind, status), calls in sorted(counts.items()):
    by_kind.setdefault(kind, {})[status] = calls
print(json.dumps({"calls": sum(counts.values()), "by_kind": by_kind}))
"""

# the class products (argv: checkout root, seed) of one eta-grid pass, and of
# each cli-batch check-identities invocation run by cli.main after emptying
# every memo of the package, counted through wrappers of the module globals
# series.class_product and series.exp_class; the eta-grid pass runs first
# without them, to see whether it loads series, and again with them
_CLASS_PRODUCTS = """
import contextlib, io, json, sys, tempfile
from collections import Counter
from pathlib import Path
root, seed = Path(sys.argv[1]), int(sys.argv[2])
sys.path.insert(0, str(root / "perfbench"))
import workloads, worker
NAMES = ("class_product", "exp_class")

def eta_grid():
    queries = workloads.eta_grid(seed)
    entries = worker._setup({"bases": sorted({q["base"] for q in queries})})
    for query in queries:
        worker._run(entries[query["base"]], query)

def fresh():  # every memo of the package emptied, as in a new process
    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "etaflow":
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()

eta_grid()
loaded = "etaflow.series" in sys.modules
from etaflow import cli, series
counts = Counter()
for name in NAMES:
    def counted(*args, name=name, call=getattr(series, name)):
        counts[name] += 1
        return call(*args)
    setattr(series, name, counted)
fresh()
eta_grid()
record = {"eta_grid": {"series_loaded": loaded, **{name: counts[name] for name in NAMES}},
          "check_identities": []}
with tempfile.TemporaryDirectory() as tmp:
    configs = workloads.write_explicit_configs(Path(tmp), "cli-batch", seed,
                                               workloads.EXPLICIT_CLI)
    argvs = [query["argv"] for query in workloads.cli_batch(seed, configs)
             if query["argv"][0] == "check-identities"]
for argv in argvs:
    fresh()
    counts.clear()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    record["check_identities"].append({"argv": " ".join(argv), "exit_code": code,
                                       **{name: counts[name] for name in NAMES}})
print(json.dumps(record))
"""

# the compile() seconds of each module of a package directory (argv[1]), as
# an import compiles it: the median of 21 compiles within this one process
_COMPILE = """
import json, statistics, sys, time
from pathlib import Path
out = {}
for path in sorted(Path(sys.argv[1]).glob("*.py")):
    text, times = path.read_text(), []
    for _ in range(21):
        start = time.perf_counter()
        compile(text, str(path), "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    out[path.name] = statistics.median(times)
print(json.dumps(out))
"""

# the modules that the first cli-batch invocation (seed 1) of each subcommand
# and format loads (argv[1] is the checkout root), each read from sys.modules
# in a fresh ``python -S`` child that imports nothing else first
_LOADED_BY = """
import json, subprocess, sys, tempfile
from pathlib import Path
root = Path(sys.argv[1])
sys.path.insert(0, str(root / "perfbench"))
import workloads
probe = ("import io, json, sys; argv = json.loads(sys.argv[1]); "
         "stdout, sys.stdout = sys.stdout, io.StringIO(); "
         "from etaflow.cli import main; code = main(argv); sys.stdout = stdout; "
         "print(json.dumps([code, sorted(sys.modules)]))")
out = {}
with tempfile.TemporaryDirectory() as tmp:
    configs = workloads.write_explicit_configs(Path(tmp), "cli-batch", 1,
                                               workloads.EXPLICIT_CLI)
    for query in workloads.cli_batch(1, configs):
        argv = query["argv"]
        key = f"{argv[0]} --format {argv[argv.index('--format') + 1]}"
        if key not in out:
            proc = subprocess.run([sys.executable, "-S", "-c", probe, json.dumps(argv)],
                                  capture_output=True, text=True, check=True)
            code, modules = json.loads(proc.stdout)
            out[key] = {"exit_code": code, "modules": modules}
print(json.dumps(out, sort_keys=True))
"""

# what a fresh process pays before any query: interpreter start without and
# with site, then each import of the package (name -> python arguments)
IMPORT_CASES = {"python -S -c pass": ["-S", "-c", "pass"], "python -c pass": ["-c", "pass"],
                "import etaflow": ["-c", "import etaflow"],
                "import etaflow.cli": ["-c", "import etaflow.cli"]}
_LOADED = ("; import json, sys; "
           "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'etaflow')))")


def _env(root=ROOT):
    return dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")


def _drop_bytecode(root: Path) -> None:
    """Delete the bytecode caches of a tree's sources and of its perfbench."""
    for part in ("src", "perfbench"):
        for cache in list((root / part).rglob("__pycache__")):
            shutil.rmtree(cache)


def _perfbench(workload: str, seed: int, seconds: int, trace: int, root=ROOT) -> dict:
    argv = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=root, env=_env(root), capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench {workload} seed {seed} failed: {proc.stderr[-500:]}")
    return json.loads(lines[-1])


def _summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def _workload(workload: str) -> dict:
    runs = []
    for seed in SEEDS:
        result = _perfbench(workload, seed, SECONDS[workload], 0)
        runs.append({"seed": seed, **result})
        print(f"{workload} seed {seed}: pass_s "
              f"{result['metrics']['pass_s']['value']:.4f}", file=sys.stderr)
    metrics = {}
    for name, first in runs[0]["metrics"].items():
        values = [run["metrics"][name]["value"] for run in runs]
        metrics[name] = {"unit": first["unit"], "seeds": list(SEEDS),
                         "values": values, **_summary(values)}
    return {"seconds": SECONDS[workload], "runs": runs, "metrics": metrics,
            "all_correct": all(run["correct"] for run in runs),
            "failed": sum(run["failed"] for run in runs)}


def _in_process(case: str, code: str, *args) -> dict:
    proc = subprocess.run([sys.executable, "-c", code, *args], env=_env(),
                          capture_output=True, text=True, check=True)
    return {"case": case, **json.loads(proc.stdout)}


def _cli_case(*args) -> dict:
    argv = [sys.executable, "-m", "etaflow", *args, "--r", R_4100]
    start = time.perf_counter()
    proc = subprocess.run(argv, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - start
    return {"case": f"etaflow {' '.join(args)} --r (10^4100 + 1)/(10^4100 - 3)",
            "exit_code": proc.returncode, "wall_s": wall,
            "names_MAX_RATIONAL_DIGITS": "MAX_RATIONAL_DIGITS" in proc.stderr,
            "stderr": proc.stderr.strip()}


def _cold_class_side(root=ROOT) -> dict:
    cases = {}
    for base in COLD_BASES:
        runs = [json.loads(subprocess.run([sys.executable, "-c", _COLD, base], env=_env(root),
                                          capture_output=True, text=True, check=True).stdout)
                for _ in range(5)]
        times = [run.pop("first_call_s") for run in runs]
        assert all(run == runs[0] for run in runs)
        cases[base] = {"first_call_s": times, **_summary(times), **runs[0]}
    return {"case": "first eta_invariant(r = 1/3, eps = 1/2) per base, fresh processes",
            "bases": cases}


def _import_split(roots: dict, processes: int = 11) -> dict:
    """Wall time of each of IMPORT_CASES in each tree of ``roots`` ({side:
    root}), as seen by the parent of a fresh process; the median of
    ``processes`` interleaved runs each, with the etaflow modules the case
    loads."""
    times = {side: {case: [] for case in IMPORT_CASES} for side in roots}
    for _ in range(processes):
        for case, args in IMPORT_CASES.items():
            for side, root in roots.items():
                start = time.perf_counter()
                subprocess.run([sys.executable, *args], env=_env(root), check=True)
                times[side][case].append(time.perf_counter() - start)
    split = {"case": f"fresh-process wall time, {processes} interleaved runs each"}
    for side, root in roots.items():
        split[side] = {}
        for case, args in IMPORT_CASES.items():
            probe = [sys.executable, *args[:-1], args[-1] + _LOADED]
            loaded = subprocess.run(probe, env=_env(root), capture_output=True, text=True,
                                    check=True).stdout
            split[side][case] = {"seconds": times[side][case], **_summary(times[side][case]),
                                 "etaflow_modules": json.loads(loaded)}
    return split


def _per_tree(code: str, roots: dict, arg=lambda root: root, rounds: int = 1) -> dict:
    """``rounds`` children per tree of ``roots`` ({side: root}), interleaved,
    each running ``code`` with ``arg(root)`` as argv[1]: their JSON outputs
    per side."""
    runs = {side: [] for side in roots}
    for _ in range(rounds):
        for side, root in roots.items():
            proc = subprocess.run([sys.executable, "-c", code, str(arg(root))],
                                  env=_env(root), capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    return runs


def _compile_times(roots: dict, rounds: int = 5) -> dict:
    """The compile() seconds of each module in each tree of ``roots``: per
    module, the median over ``rounds`` interleaved processes of the median
    of 21 compiles within each."""
    runs = _per_tree(_COMPILE, roots, lambda root: root / "src" / "etaflow", rounds)
    record = {"case": "compile() seconds of each src/etaflow/*.py: median of 21 "
                      f"compiles in one process, {rounds} interleaved processes"}
    for side, side_runs in runs.items():
        record[side] = {}
        for name in side_runs[0]:
            times = [run[name] for run in side_runs]
            record[side][name] = {"seconds": times, **_summary(times)}
    return record


def _modules_loaded(roots: dict) -> dict:
    runs = _per_tree(_LOADED_BY, roots)
    return {"case": "sorted sys.modules after the first cli-batch seed 1 invocation "
                    "of each subcommand and format, python -S",
            **{side: side_runs[0] for side, side_runs in runs.items()}}


def _cold_resolve(roots: dict, seed: int = 1, processes: int = 7) -> dict:
    """The first resolve_manifold of each generated flow-sweep table in a
    fresh process, in each tree of ``roots`` ({side: root}), interleaved;
    the median of ``processes`` runs each."""
    runs = {side: [] for side in roots}
    for _ in range(processes):
        for side, root in roots.items():
            proc = subprocess.run([sys.executable, "-c", _RESOLVE, str(root), str(seed)],
                                  env=_env(root), capture_output=True, text=True, check=True)
            runs[side].append(json.loads(proc.stdout))
    record = {"case": f"first resolve_manifold of the flow-sweep seed {seed} explicit "
                      f"configs, fresh processes ({processes}, interleaved)"}
    for side, side_runs in runs.items():
        record[side] = {}
        for name, first in side_runs[0].items():
            times = [run[name]["seconds"] for run in side_runs]
            record[side][name] = {"entries": first["entries"], "seconds": times,
                                  **_summary(times)}
    return record


def _counts(code: str, case: str, roots: dict, seed: int = 1) -> dict:
    """The JSON output of ``code`` (argv: checkout root, ``seed``), a
    counting script, in each tree of ``roots`` ({side: root})."""
    record = {"case": case}
    for side, root in roots.items():
        proc = subprocess.run([sys.executable, "-c", code, str(root), str(seed)],
                              env=_env(root), capture_output=True, text=True, check=True)
        record[side] = json.loads(proc.stdout)
    return record


def _certify_calls(roots: dict) -> dict:
    return _counts(_CERTIFY, "spectral.certify_no_crossing calls of one flow-sweep seed 1 "
                             "pass, by family kind and outcome", roots)


def _class_products(roots: dict) -> dict:
    return _counts(_CLASS_PRODUCTS, "series.class_product and series.exp_class calls of "
                                    "one eta-grid seed 1 pass and of each cli-batch seed 1 "
                                    "check-identities invocation, memos emptied first", roots)


def _flow_split(seed: int = 1, processes: int = 7) -> dict:
    argv = [sys.executable, "-c", _FLOW_SPLIT, str(ROOT), str(seed)]
    runs = [json.loads(subprocess.run(argv, env=_env(), capture_output=True, text=True,
                                      check=True).stdout)
            for _ in range(processes)]
    parts = {}
    for part, first in runs[0].items():
        times = [run[part]["seconds"] for run in runs]
        parts[part] = {"queries": first["queries"], "seconds": times, **_summary(times)}
    return {"case": f"flow-sweep seed {seed}, one pass per fresh process, "
                    f"seconds per part ({processes} processes)", "parts": parts}


def _answer_hashes(root=ROOT) -> dict:
    hashes = {}
    for workload in SECONDS:
        hashes[workload] = {}
        for seed in SEEDS:
            proc = subprocess.run([sys.executable, "-c", _ANSWERS, str(root), workload,
                                   str(seed)], env=_env(root), capture_output=True, text=True,
                                  check=True)
            hashes[workload][str(seed)] = json.loads(proc.stdout)
    return hashes


def _machine() -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"platform": platform.platform(), "machine": platform.machine(),
            "cpu_model": model, "cpu_count": os.cpu_count()}


def _git(*args) -> str:
    proc = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip()


@contextmanager
def _trees(revision: str):
    """(REV, checkout) as two temporary trees at paths of the same length,
    removed on exit: REV unpacked from ``git archive``, and a copy of the
    checkout's tracked and untracked, not ignored, files, uncommitted edits
    included.  Eta-grid peak RSS read about 0.12 MB lower in the checkout
    than in a temporary tree on the same code, so neither side runs from
    the checkout itself."""
    with tempfile.TemporaryDirectory(prefix="bench-trees-") as tmp:
        base, head = Path(tmp) / "base", Path(tmp) / "head"
        archive = subprocess.run(["git", "archive", "--format=tar", revision], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(base, filter="data")
        names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
        for name in filter(None, names.split("\0")):
            if (ROOT / name).is_file():
                (head / name).parent.mkdir(parents=True, exist_ok=True)
                shutil.copy2(ROOT / name, head / name)
        yield base, head


def _paired(workload: str, baseline: Path, head: Path) -> dict:
    """Alternating baseline/checkout perfbench runs of one workload."""
    roots = {"baseline": baseline, "head": head}
    runs = {"baseline": [], "head": []}
    for i in range(PAIRS[workload]):
        seed = SEEDS[i % len(SEEDS)]
        order = ("baseline", "head") if i % 2 == 0 else ("head", "baseline")
        for side in order:
            result = _perfbench(workload, seed, PAIR_SECONDS[workload], 0, roots[side])
            runs[side].append({"seed": seed, "ran_first": side == order[0], **result})
        print(f"{workload} pair {i + 1}: pass_s " + " -> ".join(
            f"{runs[side][-1]['metrics']['pass_s']['value']:.4f}" for side in roots),
            file=sys.stderr)
    better = {m["name"]: m["better"]
              for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    metrics = {}
    for name, direction in better.items():
        sign = 1 if direction == "lower" else -1
        base, head = ([run["metrics"][name]["value"] for run in runs[side]]
                      for side in roots)
        b, h = _summary(base), _summary(head)
        metrics[name] = {
            "better": direction, "baseline": {"values": base, **b},
            "head": {"values": head, **h}, "ratio": h["median"] / b["median"],
            "pairs_won": sum(sign * (x - y) > 0 for x, y in zip(base, head)),
            "gain_exceeds_baseline_iqr": sign * (b["median"] - h["median"]) > b["q3"] - b["q1"]}
    return {"pairs": PAIRS[workload], "seconds": PAIR_SECONDS[workload], "runs": runs,
            "metrics": metrics,
            "all_correct": all(run["correct"] for side in runs.values() for run in side),
            "failed": sum(run["failed"] for side in runs.values() for run in side)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, help="path of the JSON record")
    parser.add_argument("--baseline", metavar="REV",
                        help="run each workload in alternating pairs against REV")
    args = parser.parse_args(argv)
    started = time.perf_counter()
    _drop_bytecode(ROOT)
    record = {
        "git_revision": _git("rev-parse", "HEAD"),
        "git_dirty_paths": _git("status", "--porcelain").splitlines(),
        "python": sys.version,
        "machine": _machine(),
        "bytecode": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ under src/ or perfbench/",
    }
    if args.baseline:
        record["baseline_revision"] = _git("rev-parse", f"{args.baseline}^{{commit}}")
        with _trees(record["baseline_revision"]) as (baseline, head):
            record["paired"] = {w: _paired(w, baseline, head) for w in SECONDS}
            record["import_split"] = _import_split({"baseline": baseline, "head": head})
            record["compile_times"] = _compile_times({"baseline": baseline, "head": head})
            record["modules_loaded"] = _modules_loaded({"baseline": baseline, "head": head})
            record["cold_resolve"] = _cold_resolve({"baseline": baseline, "head": head})
            record["certify_calls"] = _certify_calls({"baseline": baseline, "head": head})
            record["certify_calls_equal_baseline"] = (
                record["certify_calls"]["baseline"] == record["certify_calls"]["head"])
            record["class_products"] = _class_products({"baseline": baseline, "head": head})
            record["class_products_equal_baseline"] = (
                record["class_products"]["baseline"] == record["class_products"]["head"])
            record["baseline_cold_class_side"] = _cold_class_side(baseline)
            record["baseline_answers"] = _answer_hashes(baseline)
    else:
        record["perfbench"] = {w: _workload(w) for w in SECONDS}
        record["import_split"] = _import_split({"head": ROOT})
        record["compile_times"] = _compile_times({"head": ROOT})
        record["modules_loaded"] = _modules_loaded({"head": ROOT})
        record["cold_resolve"] = _cold_resolve({"head": ROOT})
        record["certify_calls"] = _certify_calls({"head": ROOT})
        record["class_products"] = _class_products({"head": ROOT})
    record["perfbench_traced"] = {
        w: {"seed": 1, "seconds": SECONDS[w], **_perfbench(w, 1, SECONDS[w], 1)}
        for w in ("eta-grid", "flow-sweep")}
    record["micro"] = [
        _in_process("adiabatic_top(cp1x32, r), r = (10^400 + 1)/(10^400 - 3)",
                    _IN_PROCESS, R_401),
        _cli_case("adiabatic-limit", "--manifold", "cp1x32"),
        _in_process("spectral_flow + kernel_dimension, nakano, cp1x4, r = 1, eps = 9999",
                    _NAKANO),
        _cold_class_side(),
        _cli_case("transgression", "--manifold", "cp1x32", "--eps", "1"),
        _flow_split(),
    ]
    record["answers"] = _answer_hashes()
    if args.baseline:
        record["answers_equal_baseline"] = record["answers"] == record["baseline_answers"]
    record["elapsed_s"] = time.perf_counter() - started
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {record['elapsed_s']:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
