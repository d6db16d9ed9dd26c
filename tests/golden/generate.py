"""Write the golden CLI corpus: ``cases.json`` and one file per payload.

Run from the root of a source checkout whose outputs are the reference:

    PYTHONPATH=src python tests/golden/generate.py

The corpus is a byte-identity gate for refactors, so regenerate it only
from code whose outputs are known good, never to make a changed output
pass.  ``tests/test_golden.py`` replays every case in-process.

``messages.json`` pins the help and error output of the command line:
stdout, stderr and exit code of each case, with ``COLUMNS=80`` so that
help text wraps the same on any terminal.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

EXPLICIT_CFG = "configs/cp1xcp1_explicit.json"
HYP_CFG = "configs/hyp_n4_d8.json"
MANIFOLDS = {
    "cp1xcp1": "cp1xcp1",
    "cp1x4": "cp1x4",
    "hyp": "hyp:n=4,d=8",
    "cfg-explicit": EXPLICIT_CFG,
    "cfg-hyp": HYP_CFG,
}
DIMENSIONS = {"cp1xcp1": 2, "cp1x4": 4}

# the arguments each subcommand gets in the manifold sweep
COMMANDS = {
    "eta": ["--r", "1/2", "--eps", "1"],
    "adiabatic-limit": ["--r", "1/2"],
    "transgression": ["--r", "1/2", "--eps", "1"],
    "spectral-flow": ["--r", "1/2", "--eps", "2"],
    "aps-index": ["--eps", "1"],
    "kernel-dim": ["--r", "3/2", "--eps", "1/2"],
    "check-identities": ["--r", "1/2"],
    "counterexample": ["--r", "0", "--eps", "1"],
}
CLASS_COMMANDS = ("eta", "adiabatic-limit", "transgression", "check-identities")
FORMATS = ("json", "csv")


def cases():
    """(id, argv, pin_output) for every case; pin_output=False pins only
    the exit code."""
    out = []

    def add(case_id, argv, pin_output=True):
        for fmt in FORMATS:
            out.append((f"{case_id}.{fmt}", argv + ["--format", fmt], pin_output))

    for label, manifold in MANIFOLDS.items():
        for command, args in COMMANDS.items():
            add(f"{command}__{label}", [command, "--manifold", manifold] + args)
    for command in ("eta", "spectral-flow", "kernel-dim"):
        for label in ("cfg-explicit", "cp1xcp1"):
            add(f"{command}__{label}__explicit",
                [command, "--manifold", MANIFOLDS[label], "--mode", "explicit"]
                + COMMANDS[command])
    add("spectral-flow__cfg-explicit__explicit__r5_2_eps2",
        ["spectral-flow", "--manifold", EXPLICIT_CFG, "--mode", "explicit",
         "--r", "5/2", "--eps", "2"])
    add("spectral-flow__cp1xcp1__standard",
        ["spectral-flow", "--manifold", "cp1xcp1", "--r", "1/2", "--eps", "2",
         "--sf-sign", "standard"])
    add("counterexample__hyp__standard",
        ["counterexample", "--manifold", "hyp:n=4,d=8", "--eps", "1",
         "--sf-sign", "standard"])
    add("aps-index__cp1x4__eps1_2",
        ["aps-index", "--manifold", "cp1x4", "--eps", "1/2"])

    for label in ("cp1xcp1", "cp1x4"):
        manifold = MANIFOLDS[label]
        n = DIMENSIONS[label]
        add(f"transgression__{label}__paper_i",
            ["transgression", "--manifold", manifold, "--r", "1/2", "--eps", "1",
             "--convention", "paper_i"])
        add(f"eta__{label}__paper_i",
            ["eta", "--manifold", manifold, "--r", "1/2", "--eps", "1",
             "--convention", "paper_i"])
        add(f"check-identities__{label}__dump-series",
            ["check-identities", "--manifold", manifold, "--r", "1/2",
             "--dump-series"])
        add(f"check-identities__{label}__dump-series__r1",
            ["check-identities", "--manifold", manifold, "--r", "1",
             "--dump-series"])
        for command in ("eta", "adiabatic-limit", "transgression", "aps-index"):
            add(f"{command}__{label}__decimal6",
                [command, "--manifold", manifold, "--decimal", "6"]
                + COMMANDS[command])
        for r in ("0", "-2/3", "1", "5/4"):
            tag = r.replace("/", "_").replace("-", "m")
            add(f"adiabatic-limit__{label}__r{tag}",
                ["adiabatic-limit", "--manifold", manifold, f"--r={r}"])
            add(f"transgression__{label}__r{tag}__eps1_3",
                ["transgression", "--manifold", manifold, f"--r={r}",
                 "--eps", "1/3"])
            add(f"transgression__{label}__r{tag}__eps1_3__paper_i",
                ["transgression", "--manifold", manifold, f"--r={r}",
                 "--eps", "1/3", "--convention", "paper_i"])
        for command in CLASS_COMMANDS:
            base = [command, "--manifold", manifold] + COMMANDS[command]
            add(f"{command}__{label}__order{n}", base + ["--order", str(n)])
            add(f"{command}__{label}__order{n - 1}",
                base + ["--order", str(n - 1)], pin_output=False)
            # every order from 0 to 2n + 2 keeps its exit code;
            # check-identities at order 0 has its own test in test_cli.py
            for order in range(0, 2 * n + 3):
                if order in (n - 1, n) or (command == "check-identities"
                                           and order == 0):
                    continue
                add(f"{command}__{label}__order{order}__code",
                    base + ["--order", str(order)], pin_output=False)
    return out


# help, usage errors and unusual spellings: (id, argv)
_BASE = ["adiabatic-limit", "--manifold", "cp1xcp1"]
_FLOW = ["spectral-flow", "--manifold", "cp1xcp1", "--eps", "1"]
MESSAGES = [
    ("help", ["-h"]),
    *((f"help__{command}", [command, "-h"]) for command in COMMANDS),
    ("unknown_command", ["bogus", "--manifold", "cp1xcp1"]),
    ("no_command", []),
    ("missing_manifold", ["aps-index", "--eps", "1"]),
    ("missing_eps", ["spectral-flow", "--manifold", "cp1xcp1"]),
    ("bad_mode", _FLOW + ["--mode", "exact"]),
    ("bad_format", _BASE + ["--format", "xml"]),
    ("bad_convention", ["transgression", "--manifold", "cp1xcp1", "--eps", "1",
                        "--convention", "imaginary"]),
    ("bad_sf_sign", _FLOW + ["--sf-sign", "both"]),
    ("order_101", _BASE + ["--order", "101"]),
    ("order_abc", _BASE + ["--order", "abc"]),
    ("decimal_1001", _BASE + ["--decimal", "1001"]),
    ("decimal_minus_1", _BASE + ["--decimal", "-1"]),
    ("dump_series_with_value", ["check-identities", "--manifold", "cp1xcp1",
                                "--dump-series=1"]),
    ("bare_r", _BASE + ["--r"]),
    ("double_dash", _BASE + ["--", "--r", "1/2"]),
    ("unrecognised_option", _BASE + ["--bogus", "1"]),
    ("abbreviated_manifold", ["adiabatic-limit", "--man", "cp1xcp1", "--r", "1/2"]),
]


def run_message(argv):
    """Run the CLI in-process with ``COLUMNS=80``; return (exit code,
    stdout text, stderr text), help's SystemExit counted as its code."""
    import os

    from etaflow.cli import main

    os.environ["COLUMNS"] = "80"
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stdout.getvalue(), stderr.getvalue()


def run(argv):
    """Run the CLI in-process; return (exit code, stdout text)."""
    from etaflow.cli import main

    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(list(argv))
    return code, stdout.getvalue()


def main():
    sys.path.insert(0, str(ROOT / "src"))
    import os

    os.chdir(ROOT)
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    manifest = []
    for case_id, argv, pin_output in cases():
        code, text = run(argv)
        entry = {"id": case_id, "argv": argv, "exit_code": code, "stdout": None}
        if pin_output:
            entry["stdout"] = f"out/{case_id}"
            (out_dir / case_id).write_text(text)
        manifest.append(entry)
    (HERE / "cases.json").write_text(json.dumps(manifest, indent=1) + "\n")
    messages = []
    for case_id, argv in MESSAGES:
        code, out, err = run_message(argv)
        messages.append({"id": case_id, "argv": argv, "exit_code": code,
                         "stdout": out, "stderr": err})
    (HERE / "messages.json").write_text(json.dumps(messages, indent=1) + "\n")
    print(f"{len(manifest)} cases and {len(messages)} messages written to {HERE}")


if __name__ == "__main__":
    main()
