"""The claim arithmetic of ``bench/write_bench.py``, on canned perfbench
results: no benchmark process runs."""

import contextlib
import importlib.util
import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def write_bench():
    spec = importlib.util.spec_from_file_location("write_bench",
                                                  ROOT / "bench" / "write_bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# per pair: (baseline, head) of a lower-is-better and a higher-is-better metric
PASS_S = [(10, 8), (11, 9), (12, 12), (13, 10), (14, 15),
           (10, 7), (11, 9), (12, 10), (13, 11), (14, 12)]
THROUGHPUT = [(100, 101), (99, 100), (102, 103), (98, 99), (101, 101),
              (99, 98), (101, 102), (100, 101), (99, 100), (101, 102)]


def test_paired_claim_arithmetic(write_bench, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "pass_s", "better": "lower"}, {"name": "throughput", "better": "higher"}]}))
    calls, pass_pairs = [], PASS_S

    def canned(workload, seed, seconds, trace, root):
        side = 0 if root == "base-tree" else 1
        pair = sum(1 for call in calls if call[1] == side)
        calls.append((seed, side))
        return {"correct": True, "failed": side,
                "metrics": {"pass_s": {"value": pass_pairs[pair][side]},
                            "throughput": {"value": THROUGHPUT[pair][side]}}}

    monkeypatch.setattr(write_bench, "ROOT", tmp_path)
    monkeypatch.setattr(write_bench, "_perfbench", canned)
    record = write_bench._paired("eta-grid", "base-tree", "head-tree")
    capsys.readouterr()

    assert record["pairs"] == len(PASS_S) == write_bench.PAIRS["eta-grid"]
    # the side that runs first alternates, and the seeds cycle 1-3
    assert [side for _, side in calls] == [0, 1, 1, 0] * 5
    for side in ("baseline", "head"):
        runs = record["runs"][side]
        assert [run["seed"] for run in runs] == [1, 2, 3, 1, 2, 3, 1, 2, 3, 1]
        assert [run["ran_first"] for run in runs] == [(i % 2 == 0) == (side == "baseline")
                                                      for i in range(10)]
    assert record["all_correct"] and record["failed"] == 10

    pass_s, throughput = record["metrics"]["pass_s"], record["metrics"]["throughput"]
    assert pass_s["baseline"]["values"] == [b for b, _ in PASS_S]
    assert pass_s["head"]["values"] == [h for _, h in PASS_S]
    assert pass_s["ratio"] == statistics.median(h for _, h in PASS_S) / 12
    assert pass_s["pairs_won"] == 8  # one tie, one loss
    # the baseline's quartiles are 11 and 13; the gain of the medians is 2
    assert pass_s["baseline"]["q1"] == 11 and pass_s["baseline"]["q3"] == 13
    assert pass_s["head"]["median"] == 10 and not pass_s["gain_exceeds_baseline_iqr"]
    assert throughput["better"] == "higher"
    assert throughput["pairs_won"] == 8
    assert throughput["ratio"] == 101 / 100
    assert throughput["baseline"]["q3"] - throughput["baseline"]["q1"] == 2
    assert not throughput["gain_exceeds_baseline_iqr"]  # a gain of 1, not above 2

    # a gain above the baseline's interquartile range is claimed
    pass_pairs = [(b, b - 3) for b, _ in PASS_S]
    calls.clear()
    pass_s = write_bench._paired("eta-grid", "base-tree", "head-tree")["metrics"]["pass_s"]
    assert pass_s["pairs_won"] == 10 and pass_s["gain_exceeds_baseline_iqr"]


def test_timed_blocks(write_bench):
    runs = [{"x2": {"seconds": 0.3, "entries": 424}, "x4": {"seconds": 1.0, "entries": 609}},
            {"x2": {"seconds": 0.1, "entries": 424}, "x4": {"seconds": 2.0, "entries": 609}},
            {"x2": {"seconds": 0.2, "entries": 424}, "x4": {"seconds": 3.0, "entries": 609}}]
    assert write_bench._timed(runs) == {
        "x2": {"entries": 424, "seconds": [0.3, 0.1, 0.2], "median": 0.2,
               "q1": pytest.approx(0.15), "q3": pytest.approx(0.25)},
        "x4": {"entries": 609, "seconds": [1.0, 2.0, 3.0], "median": 2.0, "q1": 1.5,
               "q3": 2.5}}


# the top-level blocks of a record; the deleted probes' keys must not come back
KEPT = {"git_revision", "git_dirty_paths", "python", "machine", "bytecode",
        "baseline_revision", "paired", "import_split", "compile_times", "cold_resolve",
        "modules_loaded", "certify_calls", "certify_calls_equal_baseline",
        "baseline_cold_class_side", "baseline_answers", "answers", "answers_equal_baseline",
        "perfbench_traced", "micro", "elapsed_s"}
DELETED = {"class_products", "class_products_equal_baseline", "fraction_constructions"}


def test_record_blocks_and_their_seconds(write_bench, tmp_path, monkeypatch, capsys):
    @contextlib.contextmanager
    def trees(revision):
        yield "base-tree", "head-tree"

    def perfbench(workload, seed, seconds, trace, root=None):
        return {"correct": True, "failed": 0, "metrics": {
            name: {"value": 1.0} for name in
            ("setup_s", "pass_s", "query_p50_ms", "query_p90_ms", "peak_rss_mb")}}

    def probe(code, roots, *args, rounds=1, seed=1):
        run = ({"first_call_s": 0.1, "total": "1/2"} if code == write_bench._COLD
               else {"part": {"seconds": 0.1}})
        return {side: [dict(run) for _ in range(rounds)] for side in roots}

    for name, stub in (("_trees", trees), ("_perfbench", perfbench), ("_probe", probe),
                       ("_import_split", lambda roots: {"case": "stub"}),
                       ("_drop_bytecode", lambda root: None),
                       ("_git", lambda *args: "0" * 40)):
        monkeypatch.setattr(write_bench, name, stub)
    out = tmp_path / "BENCH.json"
    assert write_bench.main(["--out", str(out), "--baseline", "HEAD"]) == 0
    capsys.readouterr()
    record = json.loads(out.read_text())

    assert set(record) == KEPT | {"section_s"} and not DELETED & set(record)
    assert set(record["section_s"]) == {
        "paired eta-grid", "paired flow-sweep", "paired cli-batch", "import_split",
        "compile_times", "cold_resolve", "modules_loaded", "certify_calls",
        "cold_class_side", "answers", "perfbench_traced", "micro"}
    assert all(seconds >= 0 for seconds in record["section_s"].values())
    assert record["answers_equal_baseline"] and record["certify_calls_equal_baseline"]
    assert all(record["paired"][w]["all_correct"] for w in write_bench.PAIRS)
    # four micro cases: no CLI process at a 4100-digit r, no Bernoulli counts
    assert len(record["micro"]) == 4
    assert record["micro"][2]["bases"]["cp1x32"].keys() == {
        "first_call_s", "median", "q1", "q3", "total"}
