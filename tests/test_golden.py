"""Byte-identity gate: every case of the golden CLI corpus must reproduce
its stored exit code and, where one is stored, its exact stdout bytes.

The corpus lives in ``tests/golden`` (see ``generate.py`` there).  Cases
stored without output pin only the exit code, e.g. the series orders
below the nilpotency degree, whose error text is not part of the
contract.  ``messages.json`` pins the help and error output byte for
byte: stdout, stderr and exit code, with ``COLUMNS=80``.
"""

import json
from pathlib import Path

import pytest

from etaflow.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ROOT = GOLDEN.parents[1]
CASES = json.loads((GOLDEN / "cases.json").read_text())
MESSAGES = json.loads((GOLDEN / "messages.json").read_text())


@pytest.mark.parametrize("case", CASES, ids=[c["id"] for c in CASES])
def test_golden_case(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    code = main(list(case["argv"]))
    out = capsys.readouterr().out
    assert code == case["exit_code"]
    if case["stdout"] is not None:
        assert out == (GOLDEN / case["stdout"]).read_text()


@pytest.mark.parametrize("case", MESSAGES, ids=[c["id"] for c in MESSAGES])
def test_golden_message(case, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setenv("COLUMNS", "80")
    try:
        code = main(list(case["argv"]))
    except SystemExit as exc:  # help exits through argparse
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        case["exit_code"], case["stdout"], case["stderr"])
