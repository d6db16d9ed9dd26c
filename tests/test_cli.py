import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

import etaflow

from etaflow import cli, eta, series, spectral
from etaflow.catalog import load_config, resolve_manifold
from etaflow.cli import (
    EXIT_ERROR,
    EXIT_INDETERMINATE,
    EXIT_OK,
    MAX_DECIMAL_DIGITS,
    MAX_SERIES_ORDER,
    build_parser,
    load_report,
    main,
)
from etaflow.exact import MAX_RATIONAL_DIGITS

ROOT = Path(__file__).resolve().parents[1]


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code in (EXIT_OK, EXIT_INDETERMINATE), err
    return code, json.loads(out)


def test_eta_spin_case(capsys):
    code, payload = run_json(
        capsys, "eta", "--manifold", "cp1xcp1", "--r", "0", "--eps", "1"
    )
    assert code == EXIT_OK
    assert payload["result"]["total"] == "0"
    assert payload["result"]["spectral_flow"] == 0
    assert payload["provenance"]["schema_version"] == 1


def test_counterexample_reports_crossing(capsys):
    code, payload = run_json(
        capsys, "counterexample", "--manifold", "hyp:n=4,d=8", "--eps", "1"
    )
    assert code == EXIT_OK
    result = payload["result"]
    assert result["crossing_found"] is True
    assert result["spectral_flow_nonzero"] is True
    assert result["crossings"][0]["delta_star"] == "1/2"
    assert result["partial"] is True


def test_check_identities_passes(capsys):
    code, payload = run_json(
        capsys, "check-identities", "--manifold", "cp1x4", "--order", "12"
    )
    assert code == EXIT_OK
    assert payload["result"]["all_pass"] is True


def test_check_identities_at_order_100(capsys):
    # the closed-form series keep the largest accepted order cheap
    code, payload = run_json(
        capsys, "check-identities", "--manifold", "cp1xcp1", "--r", "1/2",
        "--order", "100",
    )
    assert code == EXIT_OK
    assert payload["result"]["all_pass"] is True


def test_check_identities_order_sizes_only_the_dump(capsys, monkeypatch):
    # the suite reads only the constant term of eta-hat, so --order changes
    # neither the report nor the series the suite builds
    asked = []
    series_eta_hat = series.series_eta_hat

    def counted(r, order):
        asked.append(order)
        return series_eta_hat(r, order)

    monkeypatch.setattr(series, "series_eta_hat", counted)
    for r in ("1/2", "3"):
        base = ["check-identities", "--manifold", "cp1xcp1", "--r", r]
        plain = run_cli(capsys, *base)
        assert plain[0] == EXIT_OK
        assert run_cli(capsys, *base, "--order", "100") == plain
    assert 100 not in asked
    code, out, _ = run_cli(capsys, "check-identities", "--manifold", "cp1xcp1",
                           "--r", "1/2", "--order", "100", "--dump-series")
    assert code == EXIT_OK and len(json.loads(out)["result"]["series"]["eta_hat"]) == 101
    assert asked.count(100) == 1


def test_check_identities_builds_each_class_once(capsys, monkeypatch):
    # the suite builds each class once, at the order n = 2 whatever --order
    # says, and the corollary check reads the integer tables: p is built once
    # for A-hat (to n), once for Omega and p' (to n + 1) and twice for the
    # fixed p' check
    eta._class_tables.cache_clear()
    orders = []
    series_p = series.series_p

    def counted(order):
        orders.append(order)
        return series_p(order)

    monkeypatch.setattr(series, "series_p", counted)
    code, payload = run_json(
        capsys, "check-identities", "--manifold", "cp1xcp1", "--r", "1/2",
        "--order", "100",
    )
    assert code == EXIT_OK and payload["result"]["all_pass"] is True
    assert sorted(orders) == [2, 3, 13, 13]


def test_dump_series(capsys):
    code, payload = run_json(
        capsys, "check-identities", "--manifold", "cp1xcp1", "--r", "1/2",
        "--dump-series",
    )
    series = payload["result"]["series"]
    assert series["p"][2] == "-1/48"
    assert series["p_prime"][1] == "-1/24"
    assert series["eta_hat"][1] == "-1/12"


def test_byte_identical_output(tmp_path, capsys):
    argv = ["spectral-flow", "--manifold", "cp1xcp1", "--r", "1/2", "--eps", "2"]
    _, out1, _ = run_cli(capsys, *argv)
    _, out2, _ = run_cli(capsys, *argv)
    assert out1 == out2
    out_file = tmp_path / "report.json"
    main(argv + ["--out", str(out_file)])
    capsys.readouterr()
    assert out_file.read_text() == out1


def test_csv_json_round_trip(capsys):
    argv = ["aps-index", "--manifold", "cp1xcp1", "--eps", "1"]
    _, json_out, _ = run_cli(capsys, *argv)
    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert load_report(csv_out, "csv") == load_report(json_out, "json")
    # rationals are encoded as the same strings in both formats
    assert '"-1"' in csv_out and json.loads(json_out)["result"]["index"] == "-1"


def test_csv_round_trip_with_nested_lists(capsys):
    argv = ["counterexample", "--manifold", "hyp:n=4,d=8", "--eps", "1"]
    _, json_out, _ = run_cli(capsys, *argv)
    _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert load_report(csv_out, "csv") == load_report(json_out, "json")


def test_decimal_display_column(capsys):
    _, payload = run_json(
        capsys, "adiabatic-limit", "--manifold", "cp1xcp1", "--r", "1/2",
        "--decimal", "6",
    )
    assert payload["result"]["value"] == "-1/24"
    assert payload["result"]["value_decimal"] == "-0.041667"


def test_decimal_digits_limit(capsys):
    # a negative count once printed "0.", an oversized one dropped the field
    # silently, and 100000000 digits ran on with no output
    for digits in ("-3", "10000", "100000000"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "adiabatic-limit", "--manifold", "cp1xcp1", "--r", "1/3",
            "--decimal", digits,
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "MAX_DECIMAL_DIGITS" in err and str(MAX_DECIMAL_DIGITS) in err
    # the largest count is answered in full, below Python's 4300-digit limit
    assert MAX_DECIMAL_DIGITS < 4300
    _, payload = run_json(
        capsys, "adiabatic-limit", "--manifold", "cp1xcp1", "--r", "1/3",
        "--decimal", str(MAX_DECIMAL_DIGITS),
    )
    assert payload["result"]["value"] == "-1/81"
    assert payload["result"]["value_decimal"] == "-0." + ("012345679" * 112)[:1000]


def test_answer_digit_limit(capsys):
    # the transgression grows as eps^2: at eps = 10^3000 its numerator
    # has 6000 digits, past Python's 4300-digit limit for printing
    code, out, err = run_cli(
        capsys, "transgression", "--manifold", "cp1xcp1", "--r", "1/2",
        "--eps", "1" + "0" * 3000,
    )
    assert code == EXIT_ERROR and out == ""
    assert f"MAX_RATIONAL_DIGITS = {MAX_RATIONAL_DIGITS}" in err
    # at 10^1900 the value (3800 digits) prints, but its decimal form with
    # 1000 more digits does not
    eps = "1" + "0" * 1900
    _, payload = run_json(capsys, "transgression", "--manifold", "cp1xcp1",
                          "--r", "1/2", "--eps", eps)
    numerator, denominator = payload["result"]["value"].lstrip("-").split("/")
    assert len(numerator) == 3800 and denominator == "3"
    code, out, err = run_cli(
        capsys, "transgression", "--manifold", "cp1xcp1", "--r", "1/2",
        "--eps", eps, "--decimal", str(MAX_DECIMAL_DIGITS),
    )
    assert code == EXIT_ERROR and out == ""
    assert f"MAX_RATIONAL_DIGITS = {MAX_RATIONAL_DIGITS}" in err


def test_unprintable_multiplicity_refused(capsys):
    # the Type 1 family at k near r = 10^3998 has h^{q,k} of about (k+1)^4,
    # some 16000 digits: refused by the MAX_RATIONAL_DIGITS check of the
    # serializers, not by Python's 4300-digit message
    argv = ["spectral-flow", "--manifold", "cp1x4", "--r", "1" + "0" * 3998,
            "--eps", "1/1000000"]
    message = (f"etaflow: cannot print a rational of more than MAX_RATIONAL_DIGITS = "
               f"{MAX_RATIONAL_DIGITS} digits\n")
    for fmt in ("json", "csv"):
        assert run_cli(capsys, *argv, "--format", fmt) == (EXIT_ERROR, "", message)
    # any integer of a payload; the query itself is answered
    longest = 10**MAX_RATIONAL_DIGITS - 1
    for serialize in (cli.payload_to_json, cli.payload_to_csv):
        assert str(longest) in serialize({"result": {"entries": [{"h": longest}]}})
        with pytest.raises(ValueError, match="MAX_RATIONAL_DIGITS"):
            serialize({"result": {"entries": [{"h": -longest - 1}]}})
    model = resolve_manifold("cp1x4").model
    assert spectral.spectral_flow(model, 10**3998, F(1, 10**6)).is_exact


R_4100 = f"{10**4100 + 1}/{10**4100 - 3}"


def test_unprintable_r_refused_before_evaluating(capsys, monkeypatch):
    # the payload echoes r (and eps) through rational_str: an r too long to
    # print is refused with the same message, before the class side runs
    def never(*args):
        raise AssertionError("evaluated")

    for module, name in ((eta, "adiabatic_limit_eta"), (cli, "adiabatic_limit_eta"),
                         (eta, "transgression_raw"), (cli, "transgression_raw")):
        monkeypatch.setattr(module, name, never)
    message = (f"etaflow: cannot print a rational of more than MAX_RATIONAL_DIGITS = "
               f"{MAX_RATIONAL_DIGITS} digits\n")
    for argv in (["adiabatic-limit", "--manifold", "cp1x32"],
                 ["transgression", "--manifold", "cp1x32", "--eps", "1"],
                 ["transgression", "--manifold", "cp1x32", "--eps", "1" + "0" * 4001]):
        start = time.perf_counter()
        assert run_cli(capsys, *argv, "--r", R_4100) == (EXIT_ERROR, "", message)
        assert time.perf_counter() - start < 0.1
    # a negative eps is still refused first, by transgression_raw
    monkeypatch.undo()
    assert run_cli(capsys, "transgression", "--manifold", "cp1x32", "--eps", "-1",
                   "--r", R_4100) == (EXIT_ERROR, "", "etaflow: eps must be >= 0\n")


def test_exit_codes(capsys):
    code, _, err = run_cli(
        capsys, "spectral-flow", "--manifold", "cp1xcp1", "--r", "9/4",
        "--eps", "1",
    )
    assert code == EXIT_INDETERMINATE

    code, _, err = run_cli(
        capsys, "eta", "--manifold", "hyp:n=4,d=8", "--r", "0", "--eps", "1"
    )
    assert code == EXIT_ERROR and "no characteristic-class data" in err

    code, _, err = run_cli(
        capsys, "aps-index", "--manifold", "hyp:n=4,d=8", "--eps", "1"
    )
    assert code == EXIT_ERROR and "not tabulated" in err

    code, _, err = run_cli(capsys, "eta", "--manifold", "cp1xcp1",
                           "--r", "0", "--eps", "1", "--bogus")
    assert code == EXIT_ERROR

    code, _, err = run_cli(capsys, "eta", "--manifold", "nonsense",
                           "--r", "0", "--eps", "1")
    assert code == EXIT_ERROR and "unknown manifold" in err

    code, _, err = run_cli(capsys, "eta", "--manifold", "cp1xcp1",
                           "--r", "zebra", "--eps", "1")
    assert code == EXIT_ERROR


def test_explicit_mode_requires_table(capsys):
    code, _, err = run_cli(
        capsys, "spectral-flow", "--manifold", "cp1xcp1", "--r", "0",
        "--eps", "1", "--mode", "explicit",
    )
    assert code == EXIT_ERROR and "laplacian_table" in err


def test_explicit_mode_with_config(tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps({
        "half_mu_sq_max": "10", "k_min": -8, "k_max": 8,
        "entries": [{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}],
    }))
    cfg = tmp_path / "man.json"
    cfg.write_text(json.dumps({
        "type": "product_cp1", "factors": 2, "laplacian_table": "spec.json",
    }))
    code, payload = run_json(
        capsys, "spectral-flow", "--manifold", str(cfg), "--r", "1/2",
        "--eps", "1", "--mode", "explicit",
    )
    assert code == EXIT_OK
    assert payload["result"]["mode"] == "explicit_spectrum"
    assert payload["result"]["total"] == 0


def test_nakano_mode_keeps_the_shipped_table(tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps({
        "half_mu_sq_max": "10", "k_min": -8, "k_max": 8,
        "entries": [{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}],
    }))
    cfg = tmp_path / "man.json"
    cfg.write_text(json.dumps({
        "type": "product_cp1", "factors": 2, "laplacian_table": "spec.json",
    }))
    entry = load_config(cfg)
    table = entry.model.spectrum
    model = cli._model_for(entry, "nakano")
    assert model.spectrum is None and model.table is entry.model.table
    assert (model.n, model.kappa) == (entry.model.n, entry.model.kappa)
    assert model.manifold is entry.manifold is not None  # the copy keeps the spec
    assert entry.model.spectrum is table and table is not None
    assert cli._model_for(entry, "explicit") is entry.model
    _, payload = run_json(capsys, "spectral-flow", "--manifold", str(cfg),
                          "--r", "1/2", "--eps", "1")
    assert payload["result"]["mode"] == "nakano_certified"


def test_kernel_dim_command(capsys):
    _, payload = run_json(
        capsys, "kernel-dim", "--manifold", "cp1xcp1", "--r", "3/2",
        "--eps", "1/2",
    )
    assert payload["result"]["kernel_dimension"] == 1


def test_transgression_command_conventions(capsys):
    _, real = run_json(
        capsys, "transgression", "--manifold", "cp1xcp1", "--r", "1/2",
        "--eps", "1",
    )
    _, paper = run_json(
        capsys, "transgression", "--manifold", "cp1xcp1", "--r", "1/2",
        "--eps", "1", "--convention", "paper_i",
    )
    assert real["result"]["value"] != paper["result"]["value"]


def run_module(*argv):
    """``python -m etaflow ARGV`` in a child that imports the same etaflow
    as this process, installed or not."""
    package_root = str(Path(etaflow.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root,
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "etaflow", *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
    )


def test_module_entry_point():
    proc = run_module("aps-index", "--manifold", "cp1xcp1", "--eps", "3/7")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["index"] == "0"


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    # -S keeps site from preloading modules, so only etaflow's own import
    # path counts; dataclasses, and the inspect it pulls in, cost about a
    # fifth of a CLI start
    package_root = str(Path(etaflow.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import etaflow.cli, sys; "
         "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=package_root),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def run_python(code, *args):
    """``python -S -c CODE ARGS`` with this process's etaflow on the path."""
    package_root = str(Path(etaflow.__file__).resolve().parents[1])
    proc = subprocess.run([sys.executable, "-S", "-c", code, *args], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=package_root))
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


# whether etaflow.series is loaded after each step: importing the package and
# the CLI, then every command in turn (argv[1] is the JSON list of argvs)
_SERIES_PROBE = """
import contextlib, io, json, sys
loaded = lambda: "etaflow.series" in sys.modules
import etaflow
steps = [["import etaflow", 0, loaded()]]
import etaflow.cli
steps.append(["import etaflow.cli", 0, loaded()])
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = etaflow.cli.main(argv)
    steps.append([" ".join(argv), code, loaded()])
print(json.dumps(steps))
"""


def test_series_loads_only_for_check_identities():
    explicit = str(ROOT / "configs" / "cp1xcp1_explicit.json")
    commands = [
        ["eta", "--manifold", "cp1x4", "--r", "1/3", "--eps", "1", "--order", "8"],
        ["eta", "--manifold", explicit, "--r", "5/2", "--eps", "3", "--mode", "explicit",
         "--format", "csv", "--decimal", "5"],
        ["adiabatic-limit", "--manifold", "cp1x8", "--r", "-2/3", "--order", "20"],
        ["transgression", "--manifold", "cp1x4", "--r", "1/3", "--eps", "2",
         "--convention", "paper_i"],
        ["spectral-flow", "--manifold", explicit, "--r", "5/2", "--eps", "3",
         "--mode", "explicit"],
        ["aps-index", "--manifold", "cp1xcp1", "--eps", "3/7"],
        ["kernel-dim", "--manifold", "cp1x4", "--r", "1", "--eps", "1"],
        ["counterexample", "--manifold", "hyp:n=4,d=8", "--r", "0", "--eps", "3"],
        ["check-identities", "--manifold", "cp1xcp1", "--r", "1/2"],
    ]
    steps = run_python(_SERIES_PROBE, json.dumps(commands))
    assert [code for _, code, _ in steps] == [EXIT_OK] * len(steps)
    assert [name for name, _, loaded in steps if loaded] == [" ".join(commands[-1])]


def test_series_exports_load_on_first_use():
    code = """
import json, sys
import etaflow
from etaflow.catalog import resolve_manifold
check = etaflow.corollary_check(resolve_manifold("cp1x4").manifold)
before = "etaflow.series" in sys.modules
one = etaflow.constant_class((1, 0))
from etaflow import exp_class, series_p
print(json.dumps([check.both_terms_zero, before, etaflow.class_product(one, one) == one,
                  str(series_p(4)[4]), etaflow.series.exp_class is exp_class,
                  etaflow.convention_integral is etaflow.series.convention_integral,
                  "series_p" in etaflow.__all__]))
"""
    assert run_python(code) == [True, False, True, "1/5760", True, True, True]


# every operation of a library benchmark worker, after its set-up (import
# etaflow, resolve each base): the first query, with the eta and spectral
# imports that perfbench/worker.py makes inside its timed loop, must import
# nothing (argv[1] is the explicit config)
_FIRST_QUERY_PROBE = """
import json, sys
from fractions import Fraction
import etaflow
from etaflow.catalog import resolve_manifold
bases = {name: resolve_manifold(name) for name in ("cp1x4", "hyp:n=4,d=8", sys.argv[1])}
before = set(sys.modules)
from etaflow.eta import eta_invariant, transgression_raw
from etaflow.spectral import kernel_dimension, spectral_flow
r, eps = Fraction(5, 2), Fraction(3)
for name, entry in bases.items():
    if entry.manifold is not None:
        eta_invariant(entry.manifold, entry.model, r, eps)
        transgression_raw(entry.manifold, r, eps, "paper_i")
        kernel_dimension(entry.model, r, eps)
    spectral_flow(entry.model, r, eps, on_unknown="skip")
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def test_first_library_query_imports_no_module():
    explicit = str(ROOT / "configs" / "cp1xcp1_explicit.json")
    assert run_python(_FIRST_QUERY_PROBE, explicit) == []


def test_kernel_dim_rejects_negative_multiplicity(tmp_path, capsys):
    (tmp_path / "spec.json").write_text(json.dumps({
        "half_mu_sq_max": "1000", "k_min": -200, "k_max": 200,
        "entries": [
            {"q": 0, "k": 0, "halfMuSq": "2", "mult": 5},
            {"q": 1, "k": 0, "halfMuSq": "2", "mult": 2},
        ],
    }))
    cfg = tmp_path / "man.json"
    cfg.write_text(json.dumps({
        "type": "product_cp1", "factors": 2, "laplacian_table": "spec.json",
    }))
    code, out, err = run_cli(
        capsys, "kernel-dim", "--manifold", str(cfg), "--mode", "explicit",
        "--r=-8", "--eps", "16",
    )
    assert code == EXIT_ERROR and out == ""
    assert "negative alternating multiplicity" in err


def test_exponent_literals_fail_fast(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "spectral-flow", "--manifold", "cp1xcp1", "--r", "0",
        "--eps", "1e1000000",
    )
    assert time.perf_counter() - start < 1
    assert code == EXIT_ERROR and out == ""
    assert "p/q" in err


@pytest.mark.parametrize("command", [
    ["eta", "--eps", "1"], ["adiabatic-limit"], ["transgression", "--eps", "1"],
    ["spectral-flow", "--eps", "1"], ["kernel-dim", "--eps", "1"],
])
def test_negative_r_as_a_separate_argument(capsys, command):
    # argparse would take "-1/2" for an option; "--r -1/2" must give the
    # bytes of "--r=-1/2"
    base = command[:1] + ["--manifold", "cp1xcp1"] + command[1:]
    for value in ("-1/2", "-1", "-0.5"):
        joined = run_cli(capsys, *base, f"--r={value}")
        assert joined[0] == EXIT_OK, joined[2]
        assert run_cli(capsys, *base, "--r", value) == joined


def test_negative_eps_as_a_separate_argument(capsys):
    for command in ("eta", "spectral-flow", "kernel-dim"):
        code, out, err = run_cli(capsys, command, "--manifold", "cp1xcp1",
                                 "--r", "-1/2", "--eps", "-1/2")
        assert (code, out) == (EXIT_ERROR, "")
        assert err == "etaflow: eps must be positive\n"
    # a value that is not a number is still an argparse error
    code, _, err = run_cli(capsys, "adiabatic-limit", "--manifold", "cp1xcp1", "--r", "-x")
    assert code == EXIT_ERROR and "expected one argument" in err


def test_product_size_limit(capsys):
    from etaflow.catalog import MAX_CP1_FACTORS

    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "adiabatic-limit", "--manifold", "cp1x100000", "--r", "1/2",
    )
    assert time.perf_counter() - start < 1
    assert code == EXIT_ERROR and out == ""
    assert "MAX_CP1_FACTORS" in err and str(MAX_CP1_FACTORS) in err
    code, payload = run_json(
        capsys, "adiabatic-limit", "--manifold", "cp1x24", "--r", "1/2",
    )
    assert code == EXIT_OK and payload["result"]["value"]


@pytest.mark.parametrize("manifold, factors", [("cp1x0", 0), ("cp1x3", 3)])
def test_product_factor_count_is_named(capsys, manifold, factors):
    # 0 is even: the message names the condition that the count broke
    code, out, err = run_cli(capsys, "spectral-flow", "--manifold", manifold,
                             "--r", "1/2", "--eps", "1")
    assert (code, out) == (EXIT_ERROR, "")
    assert err == ("etaflow: the product model needs a positive even number of "
                   f"factors, got {factors}\n")


def test_insufficient_order_is_a_hard_error(capsys):
    # an order below the nilpotency degree must error, never silently
    # truncate, and the message names the condition
    code, out, err = run_cli(
        capsys, "adiabatic-limit", "--manifold", "cp1x4", "--r", "1/2",
        "--order", "1",
    )
    assert (code, out) == (EXIT_ERROR, "")
    assert err == "etaflow: series order 1 is below the complex dimension n = 4 of cp1x4\n"


def test_check_identities_order_zero_is_rejected(capsys):
    # order 0 is an explicit order below the nilpotency degree, not a
    # request for the default order
    code, out, err = run_cli(
        capsys, "check-identities", "--manifold", "cp1xcp1", "--order", "0",
    )
    assert code == EXIT_ERROR and out == ""
    assert "series order 0 is below" in err


ORDER_ARGS = {
    "eta": ["--r", "1/2", "--eps", "1"],
    "adiabatic-limit": ["--r", "1/2"],
    "transgression": ["--r", "1/2", "--eps", "1"],
    "check-identities": ["--r", "1/2"],
}


@pytest.mark.parametrize("name, n", [("cp1xcp1", 2), ("cp1x4", 4), ("cp1x6", 6)])
@pytest.mark.parametrize("command", sorted(ORDER_ARGS))
def test_order_is_checked_once_and_never_changes_a_report(capsys, command, name, n):
    # the classes are built to order n whatever --order says: any accepted
    # order prints the bytes of the default run, and an order below n is
    # refused by one check with one message, before any class is built
    base = [command, "--manifold", name, *ORDER_ARGS[command]]
    expected = run_cli(capsys, *base)
    assert expected[0] in (EXIT_OK, EXIT_INDETERMINATE)
    for order in (n, n + 1, 2 * n + 2, MAX_SERIES_ORDER):
        assert run_cli(capsys, *base, "--order", str(order)) == expected
    for order in (-1, 0, n - 1):
        assert run_cli(capsys, *base, "--order", str(order)) == (
            EXIT_ERROR, "", f"etaflow: series order {order} is below the "
            f"complex dimension n = {n} of {name}\n")


def test_series_order_limit(capsys):
    # refused while parsing, before any series is built, by every
    # class-side command, check-identities included
    for command in (["adiabatic-limit"], ["transgression", "--eps", "1"],
                    ["eta", "--eps", "1"], ["check-identities"]):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, *command, "--manifold", "cp1xcp1", "--r", "1/2",
            "--order", "100000",
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "MAX_SERIES_ORDER" in err and str(MAX_SERIES_ORDER) in err
    # the default order of the largest product base is accepted
    assert MAX_SERIES_ORDER >= 2 * 32 + 2
    args = build_parser().parse_args(
        ["adiabatic-limit", "--manifold", "cp1xcp1",
         "--order", str(MAX_SERIES_ORDER)])
    assert args.order == MAX_SERIES_ORDER


# values an option may get: valid ones of the options without choices, and
# bad, empty, negative or out-of-range ones; stray tokens for anywhere
_GOOD = {"manifold": ["cp1xcp1", "cp1x4"], "r": ["1/2", "0"], "eps": ["1", "3/7"],
         "order": ["4", "100"], "out": ["out.json"], "decimal": ["0", "6", "1000"]}
_BAD = ["", "-", "-1/2", "-5", "-1", "101", "abc", "1001", "xml", "exact", "both"]
_STRAY = ["-h", "--help", "--", "--bogus", "-x", "--=1", "cp1xcp1", "-1"]


@st.composite
def _command_lines(draw):
    """Command lines near well-formed ones: a command, then most of its
    options in any order, each spelled exactly (mostly), abbreviated or
    misspelt, with a separate or an = value that is mostly valid; then up
    to two stray tokens anywhere."""
    def mostly(common, rare):  # from common nine times in ten
        return draw(st.sampled_from(rare if draw(st.integers(0, 9)) == 9 else common))

    command = mostly(list(cli._COMMANDS), ["bogus", "-h"])
    names = cli._COMMANDS[command][2] if command in cli._COMMANDS else tuple(cli._OPTIONS)
    argv = [command]
    for name in draw(st.permutations(names)):
        if draw(st.integers(0, 4)) == 4:
            continue
        default, choices, *_ = cli._OPTIONS[name]
        option = mostly([f"--{name}"], [f"--{name}"[:3 + len(name) // 3], f"__{name}"])
        if default is False:
            argv.append(mostly([option], [option + "=1"]))
        else:
            value = mostly(list(choices or _GOOD[name]), _BAD)
            argv += draw(st.sampled_from([[option, value], [f"{option}={value}"]]))
    for _ in range(draw(st.integers(0, 2))):
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(_STRAY)))
    return argv


_PARSER = build_parser()


def _argparse_outcome(argv):
    """vars() of what argparse parses from ``argv``, or None where it
    refuses it or prints help."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(_PARSER.parse_args(argv))
        except (cli.CliError, SystemExit):
            return None


@settings(max_examples=600, deadline=None)
@given(argv=_command_lines())
@example(argv=["check-identities", "--manifold", "cp1xcp1", "--dump-series=1"])
@example(argv=["adiabatic-limit", "--manifold", "cp1xcp1", "--r", "-1/2"])
@example(argv=["adiabatic-limit", "--man", "cp1xcp1"])
def test_strict_reader_agrees_with_argparse(argv):
    # the reader either declines or gives exactly argparse's attributes;
    # every line that argparse refuses, the reader declines
    read = cli._read_args(argv)
    if read is not None:
        assert vars(read) == _argparse_outcome(argv)


def test_strict_reader_takes_every_golden_command_line():
    cases = json.loads((ROOT / "tests" / "golden" / "cases.json").read_text())
    for case in cases:
        read = cli._read_args(case["argv"])
        assert read is not None, case["argv"]
        assert vars(read) == _argparse_outcome(case["argv"])


# the optional modules loaded by one command (argv[1] is its JSON argv)
_LOADS_PROBE = """
import contextlib, io, json, sys
import etaflow.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = etaflow.cli.main(json.loads(sys.argv[1]))
optional = {"argparse", "gettext", "locale", "csv", "etaflow.series"}
print(json.dumps([code, sorted(optional & set(sys.modules))]))
"""


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_well_formed_command_loads_only_what_it_runs(fmt):
    # argparse (with gettext and locale) only for help and errors, csv only
    # for CSV, the series layer only for check-identities
    explicit = str(ROOT / "configs" / "cp1xcp1_explicit.json")
    commands = [
        ["eta", "--manifold", "cp1x4", "--r", "1/3", "--eps", "1", "--decimal", "4"],
        ["adiabatic-limit", "--manifold", "cp1xcp1", "--r", "-2/3", "--order", "4"],
        ["transgression", "--manifold", "cp1x4", "--r=1/3", "--eps", "2",
         "--convention", "paper_i"],
        ["spectral-flow", "--manifold", explicit, "--r", "5/2", "--eps", "3",
         "--mode", "explicit"],
        ["aps-index", "--manifold", "cp1xcp1", "--eps", "3/7"],
        ["kernel-dim", "--manifold", "cp1x4", "--r", "1", "--eps", "1"],
        ["check-identities", "--manifold", "cp1xcp1", "--r", "1/2", "--dump-series"],
        ["counterexample", "--manifold", "hyp:n=4,d=8", "--r", "0", "--eps", "3"],
    ]
    for argv in commands:
        code, loaded = run_python(_LOADS_PROBE, json.dumps(argv + ["--format", fmt]))
        expected = ["csv"] * (fmt == "csv") + ["etaflow.series"] * (argv[0] == "check-identities")
        assert (code, loaded) == (EXIT_OK, expected), argv


@pytest.mark.parametrize("r, q", [(-6, 2), (1, 0)])
def test_bound_level_zero_meets_zero_only_at_start(capsys, r, q):
    # a Nakano bound of 0 stands for eigenvalues mu^2/2 > 0, whose Q(eps) is
    # positive, so no zero at eps; at k = r, A(0) = 0 for every eigenvalue
    argv = ["--manifold", "cp1xcp1", "--r", str(r), "--eps", "1/2"]
    code, payload = run_json(capsys, "spectral-flow", *argv)
    zeros = payload["result"]["endpoint_zeros"]
    assert code == EXIT_OK and payload["result"]["total"] == 0
    assert [z["where"] for z in zeros if z["multiplicity"] is None] == ["start"]
    assert {"k": r, "kind": "type2+", "muSq": "0", "muSqIsBound": True,
            "multiplicity": None, "q": q, "where": "start"} in zeros
    assert run_json(capsys, "kernel-dim", *argv)[1]["result"]["kernel_dimension"] == 0


def test_spectral_window_limit(capsys):
    # a complete table refuses by the families its k-ranges list
    for command in ("spectral-flow", "kernel-dim", "counterexample"):
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, command, "--manifold", "cp1xcp1", "--r", "1000000",
            "--eps", "1000000",
        )
        assert time.perf_counter() - start < 1
        assert code == EXIT_ERROR and out == ""
        assert "MAX_FAMILIES" in err


def test_partial_table_reports_runs_at_large_eps(capsys):
    # a partial table lists the unknown cells of its window as runs of k,
    # so a window of 20 million cells gives a report of 7 entries
    start = time.perf_counter()
    code, payload = run_json(capsys, "counterexample", "--manifold", "hyp:n=4,d=8",
                             "--r", "1", "--eps", "1000000")
    assert time.perf_counter() - start < 1
    assert code == EXIT_OK and payload["result"]["partial"] is True
    assert len(json.dumps(payload)) < 10_000
    assert payload["result"]["skipped"][:2] == [
        "h^{0,k} unknown in table 'hyp:n=4,d=8' for k in -1999999..-2",
        "h^{0,k} unknown in table 'hyp:n=4,d=8' for k in 0..2000001"]
    assert len(payload["result"]["skipped"]) == 7
    # the refusals name the first run, and the kernel the cell at its zero
    for command, message in (
            ("spectral-flow", "h^{0,k} unknown in table 'hyp:n=4,d=8' for k in -1999999..-2"),
            ("kernel-dim", "h^{0,-1999999} unknown in table 'hyp:n=4,d=8'")):
        code, out, err = run_cli(capsys, command, "--manifold", "hyp:n=4,d=8", "--r", "1",
                                 "--eps", "1000000")
        assert code == EXIT_ERROR and out == ""
        assert err == f"etaflow: {message}\n"


def test_complete_table_answers_past_the_cell_limit(capsys):
    # cp1x4 at r = 1: the window grows with eps, its k-ranges do not
    for command in ("spectral-flow", "kernel-dim"):
        start = time.perf_counter()
        code, payload = run_json(capsys, command, "--manifold", "cp1x4", "--r", "1",
                                 "--eps", "10000000")
        assert time.perf_counter() - start < 1
        assert code == EXIT_OK
    assert payload["result"]["kernel_dimension"] == 0


def test_hypersurface_dimension_limit(capsys):
    from etaflow.catalog import MAX_HYPERSURFACE_DIM

    start = time.perf_counter()
    code, out, err = run_cli(
        capsys, "counterexample", "--manifold", "hyp:n=400,d=404", "--eps", "1",
    )
    assert time.perf_counter() - start < 1
    assert code == EXIT_ERROR and out == ""
    assert "MAX_HYPERSURFACE_DIM" in err and str(MAX_HYPERSURFACE_DIM) in err
    code, payload = run_json(
        capsys, "counterexample", "--manifold", "hyp:n=32,d=36", "--eps", "1",
    )
    assert code == EXIT_OK and payload["result"]


TABLE_CONFIG = json.dumps({
    "type": "product_cp1", "factors": 2, "laplacian_table": "spec.json",
})
FAIL_FAST_CASES = {
    # (files written to the test directory, arguments after the command,
    # then any text the message must contain)
    "config_not_an_object": (
        {"man.json": "[1, 2]"}, ["--manifold", "{dir}/man.json"]),
    "table_entry_not_an_object": (
        {"man.json": TABLE_CONFIG, "spec.json": "[5]"},
        ["--manifold", "{dir}/man.json"]),
    "table_k_min_without_k_max": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps({
            "k_min": -8, "entries": [{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}],
        })},
        ["--manifold", "{dir}/man.json"]),
    "hypersurface_n_not_a_number": (
        {"man.json": json.dumps({"type": "hypersurface_general_type",
                                 "n": [4], "d": 8})},
        ["--manifold", "{dir}/man.json"]),
    "table_entries_not_an_array": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps({"entries": 5})},
        ["--manifold", "{dir}/man.json"]),
    "table_entry_q_null": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps(
            [{"q": None, "k": 2, "halfMuSq": "3", "mult": 1}])},
        ["--manifold", "{dir}/man.json"]),
    "table_path_not_a_string": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": 2,
                                 "laplacian_table": 5})},
        ["--manifold", "{dir}/man.json"]),
    # a present 'laplacian_table' must name a file, even when it is falsy
    **{f"table_path_{name}": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": 2,
                                 "laplacian_table": value})},
        ["--manifold", "{dir}/man.json"],
        "'laplacian_table' must be a path")
       for name, value in [("false", False), ("zero", 0), ("empty_string", ""),
                           ("empty_list", []), ("empty_object", {}), ("null", None)]},
    "out_to_missing_directory": (
        {}, ["--manifold", "cp1xcp1", "--out", "{dir}/missing/x.json"]),
    # an OSError names the path in front and behind, both quoted
    "out_long_name": (
        {}, ["--manifold", "cp1xcp1", "--out", "{dir}/" + "o" * 10000],
        "cannot write report '", "'...: [Errno ", "'...\n"),
    "table_cutoff_exponent_literal": (
        {"man.json": TABLE_CONFIG, "spec.json": '{"half_mu_sq_max": 1e3, "entries": '
         '[{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}]}'},
        ["--manifold", "{dir}/man.json"],
        "cannot read Laplacian table {dir}/spec.json: spectrum table 'half_mu_sq_max': "
        "not a rational: '1e3'"),
    "table_half_mu_sq_not_a_number": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps(
            [{"q": 0, "k": 2, "halfMuSq": "x", "mult": 1}])},
        ["--manifold", "{dir}/man.json"],
        "cannot read Laplacian table {dir}/spec.json: spectrum entry 'halfMuSq': "
        "not a rational: 'x'"),
    "table_truncated_json": (
        {"man.json": TABLE_CONFIG, "spec.json": '[{"q": 0, "k": 2 "halfMuSq"'},
        ["--manifold", "{dir}/man.json"],
        "cannot read Laplacian table {dir}/spec.json: Expecting ',' delimiter"),
    # Python reads at most sys.get_int_max_str_digits() digits of an integer
    "r_over_the_int_digit_limit": (
        {}, ["--manifold", "cp1xcp1", "--r", "7" * 5000],
        "not a rational: '77777777777777777777'... has more than "
        f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()} digits"),
    "product_factors_negative": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": -2})},
        ["--manifold", "{dir}/man.json"],
        "the product model needs a positive even number of factors, got -2"),
    "product_factors_true": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": True})},
        ["--manifold", "{dir}/man.json"],
        "product_cp1 config 'factors' must be an integer, got True"),
    # a value read from outside is echoed whole only up to exact.MAX_QUOTED
    # characters, then as the repr of its first 20 characters and '...'
    "r_long_letters": (
        {}, ["--manifold", "cp1xcp1", "--r", "x" * 10000],
        "not a rational: 'xxxxxxxxxxxxxxxxxxxx'...\n"),
    "decimal_long_letters": (
        {}, ["--manifold", "cp1xcp1", "--decimal", "y" * 10000],
        "invalid decimal_digits value: 'yyyyyyyyyyyyyyyyyyyy'...\n"),
    "manifold_too_long_for_a_path": (
        {}, ["--manifold", "y" * 10000], "unknown manifold 'yyyyyyyyyyyyyyyyyyyy'...: "),
    "cp1x_long_digits": (
        {}, ["--manifold", "cp1x" + "2" * 3000],
        "cp1x'22222222222222222222'... has more than MAX_CP1_FACTORS"),
    # a window k has more digits than eps, and the report prints it
    "eps_window_long_digits": (
        {}, ["--manifold", "hyp:n=4,d=8", "--eps", "9" * 4299],
        "search window for eps = '99999999999999999999'... has a k of more than "
        "MAX_RATIONAL_DIGITS = 4000 digits\n"),
    "product_factors_long_string": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": "z" * 10000})},
        ["--manifold", "{dir}/man.json"],
        "'factors' must be an integer, got 'zzzzzzzzzzzzzzzzzzzz'...\n"),
    "config_type_long_string": (
        {"man.json": json.dumps({"type": "t" * 10000, "factors": 2})},
        ["--manifold", "{dir}/man.json"], "unknown manifold type 'tttttttttttttttttttt'... in"),
    "hypersurface_degree_long_digits": (
        {"man.json": json.dumps({"type": "hypersurface_general_type", "n": 4,
                                 "d": 10**4000})},
        ["--manifold", "{dir}/man.json"],
        "unknown in table 'hyp:n=4,d=1000000000'... for k in -1..2\n"),
    "table_path_long_list": (
        {"man.json": json.dumps({"type": "product_cp1", "factors": 2,
                                 "laplacian_table": list(range(3000))})},
        ["--manifold", "{dir}/man.json"],
        "'laplacian_table' must be a path, got '[0, 1, 2, 3, 4, 5, 6'...\n"),
    "table_entry_long_list": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps([list(range(3000))])},
        ["--manifold", "{dir}/man.json"],
        "spectrum entry '[0, 1, 2, 3, 4, 5, 6'... is not an object"),
    "table_entry_long_without_q": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps(
            [{"k": 2, "halfMuSq": "3", "mult": 1, "pad": "p" * 10000}])},
        ["--manifold", "{dir}/man.json"],
        "spectrum entry \"{{'k': 2, 'halfMuSq':\"... lacks 'q'"),  # str.format
    "table_entry_long_q": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps(
            [{"q": 10**4000, "k": 2, "halfMuSq": "3", "mult": 1}])},
        ["--manifold", "{dir}/man.json"],
        "entry (q='10000000000000000000'..., k=2): q outside 0..2"),
    "table_k_min_long_string": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps({
            "k_min": "m" * 10000, "k_max": 8,
            "entries": [{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}]})},
        ["--manifold", "{dir}/man.json"],
        "'k_min' must be an integer, got 'mmmmmmmmmmmmmmmmmmmm'...\n"),
    "table_half_mu_sq_long_string": (
        {"man.json": TABLE_CONFIG, "spec.json": json.dumps(
            [{"q": 0, "k": 2, "halfMuSq": "h" * 10000, "mult": 1}])},
        ["--manifold", "{dir}/man.json"],
        "spectrum entry 'halfMuSq': not a rational: 'hhhhhhhhhhhhhhhhhhhh'...\n"),
}


@pytest.mark.parametrize("case", sorted(FAIL_FAST_CASES))
def test_malformed_input_fails_fast(tmp_path, case):
    files, argv, *expected = FAIL_FAST_CASES[case]
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [arg.format(dir=tmp_path) for arg in argv]
    proc = run_module("spectral-flow", "--r", "1/2", "--eps", "1", *argv)
    assert proc.returncode == EXIT_ERROR
    assert proc.stderr.startswith("etaflow:"), proc.stderr
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr) < 500  # a message, never an echo of a huge input
    assert proc.stdout == ""
    for text in expected:
        assert text.format(dir=tmp_path) in proc.stderr


def test_check_identities_catches_a_perturbed_transgression_form(capsys, monkeypatch):
    # a suite that passed whatever W it read would still match the goldens;
    # one perturbed coefficient of W = Omega_2 e^{Omega_0} must show
    transgression_forms = series.transgression_forms

    def perturbed(manifold):
        omega0, omega2, w = transgression_forms(manifold)
        k = manifold.n - 1
        return omega0, omega2, w[:k] + ((w[k][0] + 1,) + w[k][1:],) + w[k + 1:]

    monkeypatch.setattr(series, "transgression_forms", perturbed)
    code, out, _ = run_cli(capsys, "check-identities", "--manifold", "cp1xcp1")
    checks = {c["name"]: c["pass"] for c in json.loads(out)["result"]["checks"]}
    failing = {"transgression_derivative_paper_i",
               "fundamental_theorem_r=0_eps=1/3", "fundamental_theorem_r=1/2_eps=1"}
    assert {name for name, ok in checks.items() if not ok} == failing
    assert code == EXIT_ERROR
