"""Write a BENCH_<n>.json record: perfbench in alternating pairs against a
baseline revision, plus class-side and spectral micro-cases.

    python3 bench/write_bench.py --out BENCH_28.json --baseline HEAD~1

Run it from anywhere inside a source checkout to benchmark its sources.
It uses the standard library only and runs ``perfbench/run.py``
unmodified, one run at a time.  Every Python process it starts runs with
``PYTHONDONTWRITEBYTECODE=1``, after the ``__pycache__`` directories under
``src/`` and ``perfbench/`` are deleted, so every tree compiles its own
sources in each process alike (the standard library keeps its cache).

REV (from ``git archive``) and a copy of the checkout are put in two
temporary trees at paths of the same length; a fresh tree holds no
bytecode cache.  From those trees, on both sides, interleaved:

- each workload in alternating REV/checkout pairs (``PAIRS`` pairs of
  ``PAIR_SECONDS`` runs, seeds cycling 1-3, the side that runs first
  alternating).  For each end-to-end metric of ``BENCHMARK.json`` the
  record holds both sides' values and quartiles, the ratio of the medians
  (checkout / REV), the pairs the checkout won and whether its median
  gain exceeds the interquartile range of REV;
- the import split: the wall time of a fresh ``python3 -S -c pass``,
  ``python3 -c pass``, ``import etaflow`` and ``import etaflow.cli``, as
  seen by the parent process (median of 11 interleaved runs each), with
  the etaflow modules each one loads;
- the ``compile()`` seconds of each ``src/etaflow/*.py`` (the median of
  21 compiles within one process; the median of 5 processes), and the
  sorted ``sys.modules`` of the first cli-batch invocation (seed 1) of
  each subcommand in each format, in a fresh ``python3 -S`` child: the
  same lists on any machine with the same Python;
- the cold ``resolve_manifold`` of the generated flow-sweep x2 and x4
  configs (seed 1, 424 and 609 table entries; median of 7 processes);
- the ``spectral.certify_no_crossing`` calls of one flow-sweep pass at
  seed 1, by family kind and outcome, counted in process by a wrapper of
  the module global that ``spectral_flow`` calls;
- the cold class side: the first ``eta_invariant`` on each of cp1xcp1,
  cp1x4, cp1x6, cp1x8 and cp1x32, each in 5 fresh processes (the median);
- deterministic cost counts: the Python bytecodes executed and the Python
  calls made by one eta-grid pass and one flow-sweep pass at seed 1, as
  ``sys.settrace`` with ``f_trace_opcodes`` sees them, with the ten
  functions that executed the most.  Both trees run under this one
  interpreter, since bytecode differs between Python versions, and a
  second run of a tree gives the same counts.  Work done in C is not
  counted: big-integer arithmetic, ``math.comb`` and ``math.gcd``, the
  ``json`` encoder and the ``lru_cache`` lookup, so a change whose cost is
  in long integers still needs wall time.  Tracing slows a pass about
  17-fold, so the probe takes about 5 s;
- a sha256 of the answers of every perfbench case (workload and seed):
  the library answers as ``perfbench/worker.py`` writes them, and for
  cli-batch each invocation's exit code and output, run from the
  directory of the generated configs so that no path enters the hash.

The record says whether both sides gave the same answers and certify
calls.  Then, on the checkout itself:

- one eta-grid run and one flow-sweep run at seed 1 with ``--trace 1``
  for the per-layer counters and self times of the class side and of the
  spectral side;
- ``adiabatic_top`` on cp1x32 at a 401-digit r, in process: the first
  call (which builds the class-side tables) and the median of 5 further
  calls, with a sha256 of the exact answer;
- ``spectral_flow`` plus ``kernel_dimension`` in nakano mode on cp1x4 at
  r = 1, eps = 9999, in process: the first pair of calls and the median of
  20 further pairs, with a sha256 of the payload;
- flow-sweep at seed 1 split into its nakano, explicit and
  counterexample parts: one pass of its queries in a fresh process, as a
  perfbench worker runs it, with the time of each part summed over its
  queries; the median of 7 processes.

``section_s`` holds the wall seconds of each of these blocks.  The whole
record takes about seven minutes.
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
SECONDS = 10  # each --trace 1 run
# pairs per workload and seconds per run; a cli-batch run always makes two
# passes of about 9 s, whatever its seconds, so it takes about 18 s
PAIRS = {"eta-grid": 10, "flow-sweep": 10, "cli-batch": 2}
PAIR_SECONDS = {"eta-grid": 4, "flow-sweep": 4, "cli-batch": 1}
R_401 = f"{10**400 + 1}/{10**400 - 3}"
COLD_BASES = ("cp1xcp1", "cp1x4", "cp1x6", "cp1x8", "cp1x32")

# prepended to every probe, whose argv is the root of the tree it measures,
# a seed, then its own arguments (``args``); perfbench's modules load only
# when a probe asks for its configs or queries
_PRELUDE = """
import json, sys, tempfile, time
from pathlib import Path
root, seed, args = Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3:]
sys.path.insert(0, str(root / "perfbench"))
TMP = tempfile.TemporaryDirectory()

def configs(workload):
    import workloads
    spec = workloads.EXPLICIT_CLI if workload == "cli-batch" else workloads.EXPLICIT_FLOW
    return workloads.write_explicit_configs(Path(TMP.name), workload, seed, spec)

def queries(workload):
    # (queries, worker._setup entries of their bases, or None for cli-batch)
    import workloads, worker
    if workload == "cli-batch":
        return workloads.cli_batch(seed, configs(workload)), None
    found = (workloads.eta_grid(seed) if workload == "eta-grid"
             else workloads.flow_sweep(seed, configs(workload)))
    return found, worker._setup({"bases": sorted({q["base"] for q in found})})
"""

# adiabatic_top on cp1x32 at r = args[0]: first-call seconds, the median of
# 5 further calls and the sha256 of the answer's string form
_IN_PROCESS = """
import hashlib, statistics
from fractions import Fraction
sys.set_int_max_str_digits(0)  # the answer has about 26000 digits
from etaflow.catalog import resolve_manifold
from etaflow.eta import adiabatic_top
spec = resolve_manifold("cp1x32").manifold
r = Fraction(args[0])
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
# eps = 9999: first-pair seconds, the median of 20 further pairs and the
# sha256 of the payload {"flow": report JSON, "kernel": dimension}
_NAKANO = """
import hashlib, statistics
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

# the first eta_invariant on a base (args[0]): its time and the total
_COLD = """
from fractions import Fraction
from etaflow.catalog import resolve_manifold
from etaflow.eta import eta_invariant
entry = resolve_manifold(args[0])
start = time.perf_counter()
result = eta_invariant(entry.manifold, entry.model, Fraction(1, 3), Fraction(1, 2))
elapsed = time.perf_counter() - start
print(json.dumps({"first_call_s": elapsed, "total": str(result.total)}))
"""

# the answers of one perfbench case (workload args[0]), hashed: library
# queries answered as perfbench/worker.py answers them, CLI invocations run
# from the directory of the generated configs
_ANSWERS = """
import hashlib, subprocess, worker
found, entries = queries(args[0])
answers = []
for query in found:
    if entries is None:
        argv = [Path(a).name if a.startswith(TMP.name) else a for a in query["argv"]]
        proc = subprocess.run([sys.executable, "-m", "etaflow", *argv], cwd=TMP.name,
                              capture_output=True, text=True)
        answers.append([proc.returncode, proc.stdout])
        continue
    try:
        answers.append(worker._answer(query, worker._run(entries[query["base"]], query)))
    except Exception as exc:
        answers.append(f"{type(exc).__name__}: {exc}")
text = json.dumps(answers, sort_keys=True).replace(TMP.name, "")
print(json.dumps({"queries": len(answers),
                  "answers_sha256": hashlib.sha256(text.encode()).hexdigest()}))
"""

# one flow-sweep pass: the seconds of the nakano, explicit and
# counterexample queries, summed per part
_FLOW_SPLIT = """
import worker
found, entries = queries("flow-sweep")
parts = {"nakano": [0.0, 0], "explicit": [0.0, 0], "counterexample": [0.0, 0]}
for query in found:
    part = "counterexample" if query["op"] == "cx" else query["mode"]
    start = time.perf_counter()
    worker._run(entries[query["base"]], query)
    parts[part][0] += time.perf_counter() - start
    parts[part][1] += 1
print(json.dumps({part: {"seconds": s, "queries": n} for part, (s, n) in parts.items()}))
"""

# the cold resolve_manifold of the generated flow-sweep tables: seconds and
# table entries per config
_RESOLVE = """
paths = configs("flow-sweep")
import workloads
import etaflow
from etaflow.catalog import resolve_manifold
out = {}
for name in workloads.EXPLICIT_FLOW:
    start = time.perf_counter()
    resolve_manifold(str(paths[name][0]))
    out[name] = {"seconds": time.perf_counter() - start, "entries": len(paths[name][2])}
print(json.dumps(out))
"""

# the certify_no_crossing calls of one flow-sweep pass, counted by family
# kind and outcome through a wrapper of the module global that
# spectral_flow calls
_CERTIFY = """
import worker
from collections import Counter
from etaflow import spectral
counts = Counter()
certify = spectral.certify_no_crossing

def counted(family, r, eps):
    outcome = certify(family, r, eps)
    counts[family.kind, outcome.status] += 1
    return outcome

spectral.certify_no_crossing = counted
found, entries = queries("flow-sweep")
for query in found:
    worker._run(entries[query["base"]], query)
by_kind = {}
for (kind, status), calls in sorted(counts.items()):
    by_kind.setdefault(kind, {})[status] = calls
print(json.dumps({"calls": sum(counts.values()), "by_kind": by_kind}))
"""

# the executed bytecodes and Python calls of one pass of a workload (args[0])
# at the seed, counted by sys.settrace with f_trace_opcodes from the first
# query to the last, after the set-up (imports and resolve_manifold), and
# the ten functions, by file stem and qualified name, that executed the most
_COSTS = """
import worker
from collections import Counter
found, entries = queries(args[0])
by_code, calls = Counter(), 0

def trace(frame, event, arg):
    global calls
    if event == "call":
        calls += 1
        frame.f_trace_opcodes = True
    elif event == "opcode":
        by_code[frame.f_code] += 1
    return trace

sys.settrace(trace)
for query in found:
    worker._run(entries[query["base"]], query)
sys.settrace(None)
by_name = Counter()
for code, count in by_code.items():
    by_name[f"{Path(code.co_filename).stem}:{code.co_qualname}"] += count
print(json.dumps({"queries": len(found), "bytecodes": by_name.total(), "calls": calls,
                  "top_functions": by_name.most_common(10)}))
"""

# the compile() seconds of each module of src/etaflow, as an import compiles
# it: the median of 21 compiles within this one process
_COMPILE = """
import statistics
out = {}
for path in sorted((root / "src" / "etaflow").glob("*.py")):
    text, times = path.read_text(), []
    for _ in range(21):
        start = time.perf_counter()
        compile(text, str(path), "exec", dont_inherit=True)
        times.append(time.perf_counter() - start)
    out[path.name] = {"seconds": statistics.median(times)}
print(json.dumps(out))
"""

# the modules that the first cli-batch invocation of each subcommand and
# format loads, each read from sys.modules in a fresh ``python -S`` child
# that imports nothing else first
_LOADED_BY = """
import subprocess
probe = ("import io, json, sys; argv = json.loads(sys.argv[1]); "
         "stdout, sys.stdout = sys.stdout, io.StringIO(); "
         "from etaflow.cli import main; code = main(argv); sys.stdout = stdout; "
         "print(json.dumps([code, sorted(sys.modules)]))")
out = {}
for query in queries("cli-batch")[0]:
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


def _probe(code: str, roots: dict, *args, rounds: int = 1, seed: int = 1) -> dict:
    """``rounds`` fresh processes per tree of ``roots`` ({side: root}),
    interleaved, each running ``_PRELUDE + code`` with the argv (root,
    ``seed``, ``args``): their JSON outputs per side."""
    runs = {side: [] for side in roots}
    for _ in range(rounds):
        for side, root in roots.items():
            argv = [sys.executable, "-c", _PRELUDE + code, str(root), str(seed), *args]
            proc = subprocess.run(argv, env=_env(root), capture_output=True, text=True,
                                  check=True)
            runs[side].append(json.loads(proc.stdout))
    return runs


def _timed(runs: list) -> dict:
    """Per name in the output of the first of ``runs`` ({name: {"seconds",
    other fields}}): its seconds over the runs, their median and quartiles,
    and the other fields of the first run."""
    out = {}
    for name, first in runs[0].items():
        times = [run[name]["seconds"] for run in runs]
        out[name] = {**first, "seconds": times, **_summary(times)}
    return out


def _cold_class_side(roots: dict) -> dict:
    """{side: the first eta_invariant on each of COLD_BASES in 5 fresh
    processes per tree of ``roots``}."""
    bases = {side: {} for side in roots}
    for base in COLD_BASES:
        for side, runs in _probe(_COLD, roots, base, rounds=5).items():
            times = [run.pop("first_call_s") for run in runs]
            assert all(run == runs[0] for run in runs)
            bases[side][base] = {"first_call_s": times, **_summary(times), **runs[0]}
    return {side: {"case": "first eta_invariant(r = 1/3, eps = 1/2) per base, "
                           "fresh processes", "bases": cases}
            for side, cases in bases.items()}


def _cost_counts(roots: dict) -> dict:
    """{side: {workload: the counts of one pass at seed 1}} for eta-grid and
    flow-sweep, one process per tree of ``roots`` each (``_COSTS``)."""
    counts = {side: {} for side in roots}
    for workload in ("eta-grid", "flow-sweep"):
        for side, runs in _probe(_COSTS, roots, workload).items():
            counts[side][workload] = runs[0]
    return {"case": "bytecodes and Python calls of one pass at seed 1, sys.settrace",
            **counts}


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


def _answer_hashes(roots: dict) -> dict:
    """{side: {workload: {seed: the hash of its answers}}}."""
    hashes = {side: {workload: {} for workload in PAIRS} for side in roots}
    for workload in PAIRS:
        for seed in SEEDS:
            for side, runs in _probe(_ANSWERS, roots, workload, seed=seed).items():
                hashes[side][workload][str(seed)] = runs[0]
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
    parser.add_argument("--baseline", metavar="REV", required=True,
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
        "baseline_revision": _git("rev-parse", f"{args.baseline}^{{commit}}"),
    }
    seconds = record["section_s"] = {}

    @contextmanager
    def section(name):  # the wall seconds of a block go to section_s[name]
        start = time.perf_counter()
        yield
        seconds[name] = time.perf_counter() - start

    with _trees(record["baseline_revision"]) as (baseline, head):
        roots = {"baseline": baseline, "head": head}
        record["paired"] = {}
        for w in PAIRS:
            with section(f"paired {w}"):
                record["paired"][w] = _paired(w, baseline, head)
        with section("import_split"):
            record["import_split"] = _import_split(roots)
        # a probe run in several processes per tree is timed (_timed)
        for key, code, rounds, case in (
                ("compile_times", _COMPILE, 5, "compile() seconds of each src/etaflow/*.py: "
                 "median of 21 compiles in one process, 5 interleaved processes"),
                ("cold_resolve", _RESOLVE, 7, "first resolve_manifold of the flow-sweep "
                 "seed 1 explicit configs, fresh processes (7, interleaved)"),
                ("modules_loaded", _LOADED_BY, 1, "sorted sys.modules after the first "
                 "cli-batch seed 1 invocation of each subcommand and format, python -S"),
                ("certify_calls", _CERTIFY, 1, "spectral.certify_no_crossing calls of one "
                 "flow-sweep seed 1 pass, by family kind and outcome")):
            with section(key):
                runs = _probe(code, roots, rounds=rounds)
            record[key] = {"case": case, **{side: _timed(side_runs) if rounds > 1 else
                                            side_runs[0] for side, side_runs in runs.items()}}
        record["certify_calls_equal_baseline"] = (record["certify_calls"]["baseline"]
                                                  == record["certify_calls"]["head"])
        with section("cost_counts"):
            record["cost_counts"] = _cost_counts(roots)
        with section("cold_class_side"):
            cold = _cold_class_side(roots)
        record["baseline_cold_class_side"] = cold["baseline"]
        with section("answers"):
            answers = _answer_hashes(roots)
        record["baseline_answers"], record["answers"] = answers["baseline"], answers["head"]
        record["answers_equal_baseline"] = answers["baseline"] == answers["head"]
    with section("perfbench_traced"):
        record["perfbench_traced"] = {w: {"seed": 1, "seconds": SECONDS,
                                          **_perfbench(w, 1, SECONDS, 1)}
                                      for w in ("eta-grid", "flow-sweep")}
    here = {"head": ROOT}
    with section("micro"):
        split = _timed(_probe(_FLOW_SPLIT, here, rounds=7)["head"])
        record["micro"] = [
            {"case": "adiabatic_top(cp1x32, r), r = (10^400 + 1)/(10^400 - 3)",
             **_probe(_IN_PROCESS, here, R_401)["head"][0]},
            {"case": "spectral_flow + kernel_dimension, nakano, cp1x4, r = 1, eps = 9999",
             **_probe(_NAKANO, here)["head"][0]},
            cold["head"],
            {"case": "flow-sweep seed 1, one pass per fresh process, seconds per part "
                     "(7 processes)", "parts": split},
        ]
    record["elapsed_s"] = time.perf_counter() - started
    Path(args.out).write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out} in {record['elapsed_s']:.0f} s", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
