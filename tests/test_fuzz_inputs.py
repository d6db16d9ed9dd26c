"""A fuzzer over the command line's outside inputs: manifold configs,
Laplacian tables, the values of --r, --eps, --order and --decimal, and the
words that argparse refuses: subcommand names, option names and the values
of the options with choices.

Each case runs ``cli.main`` in process, from the case's own directory, on
one of the subcommands.  It must return 0, 1 or 2 with no exception
escaping (help exits 0 through SystemExit); a refusal (exit 1, or exit 2
without a report) must write one short message that starts with
"etaflow:", never an echo of a large input; and the case must finish
within a generous time budget.
"""

import contextlib
import io
import json
import os
import tempfile
import time
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from etaflow import cli
from etaflow.cli import EXIT_ERROR, EXIT_INDETERMINATE, EXIT_OK, main

ROOT = Path(__file__).resolve().parents[1]
BUDGET_S = 5
MAX_MESSAGE = 500  # bytes of stderr on a refusal

CONFIGS = [
    {"name": "fuzz", "type": "product_cp1", "factors": 2, "laplacian_table": "table.json"},
    {"name": "fuzz", "type": "hypersurface_general_type", "n": 4, "d": 8},
]
TABLE = json.loads((ROOT / "configs" / "sample_spectrum.json").read_text())

# a JSON value of a wrong type for a field: null, a bool, a float literal, a
# huge or negative int, a string, a list or a nested object
WRONG = st.one_of(
    st.none(), st.booleans(), st.floats(),
    st.integers(-10**40, 10**40), st.sampled_from([10**4000, -10**4000]),
    st.text(max_size=300), st.lists(st.integers(-9, 9), max_size=200),
    st.dictionaries(st.text(max_size=8), st.integers() | st.text(max_size=8), max_size=4),
)


@st.composite
def mutated(draw, valid: dict):
    """``valid`` with each field kept, dropped or given a WRONG value."""
    out = {}
    for key, value in valid.items():
        choice = draw(st.sampled_from(["keep"] * 4 + ["drop", "wrong"]))
        if choice != "drop":
            out[key] = value if choice == "keep" else draw(WRONG)
    return out


@st.composite
def table_text(draw):
    """A bare array or an object of entries, some malformed or replaced."""
    entries = [draw(mutated(entry)) if draw(st.integers(0, 3)) else draw(WRONG)
               for entry in TABLE["entries"]]
    table = entries if draw(st.booleans()) else draw(mutated({**TABLE, "entries": entries}))
    return json.dumps(table)


NUMBER_TEXT = st.one_of(
    st.text(max_size=40),
    st.integers(-10**40, 10**40).map(str),
    st.builds("{}/{}".format, st.integers(-10**6, 10**6), st.integers(-3, 10**6)),
    st.sampled_from(["1/0", "0", "-1", "0.5", "1e3", "inf", "nan", " 1/2", "9" * 4000,
                     "1/" + "7" * 3000, "7" * 5000]),
)


@st.composite
def cases(draw):
    """(files to write, argv with {dir} for their directory)."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    names = cli._COMMANDS[command][2]
    files = {}
    if draw(st.booleans()):
        files["man.json"] = json.dumps(draw(mutated(draw(st.sampled_from(CONFIGS)))))
        files["table.json"] = draw(table_text())
        manifold = "{dir}/man.json"
    else:
        manifold = draw(st.sampled_from(["cp1xcp1", "cp1x4",
                                         str(ROOT / "configs" / "cp1xcp1_explicit.json")]))
    argv = [command, "--manifold", manifold]
    if "mode" in names and draw(st.booleans()):
        argv += ["--mode", "explicit"]
    for name in ("r", "eps", "order", "decimal"):
        if name in names and draw(st.integers(0, 3)):
            argv.append(f"--{name}={draw(NUMBER_TEXT)}")
    return files, argv


def _config(**fields):
    return {"man.json": json.dumps({"type": "product_cp1", "factors": 2, **fields})}


def _table(table):
    return {**_config(laplacian_table="table.json"), "table.json": json.dumps(table)}


ENTRY = {"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}
MAN = ["spectral-flow", "--manifold", "{dir}/man.json", "--eps=1"]


@settings(max_examples=300, deadline=None)
@given(cases())
# refusals that echoed their whole input
@example(({}, ["spectral-flow", "--manifold", "cp1xcp1", "--eps=1", "--r=" + "x" * 10000]))
@example(({}, ["spectral-flow", "--manifold", "y" * 10000, "--eps=1"]))
@example(({}, ["spectral-flow", "--manifold", "cp1x" + "2" * 3000, "--eps=1"]))
@example((_config(factors="z" * 10000), MAN))
@example(({"man.json": json.dumps({"type": "t" * 10000})}, MAN))
@example((_config(laplacian_table=list(range(3000))), MAN))
@example((_table([list(range(3000))]), MAN))
@example((_table([{"k": 2, "halfMuSq": "3", "mult": 1, "pad": "p" * 10000}]), MAN))
@example((_table({"k_min": "m" * 10000, "k_max": 8, "entries": [ENTRY]}), MAN))
@example((_table([{**ENTRY, "halfMuSq": "h" * 10000}]), MAN))
@example(({}, ["check-identities", "--manifold", "cp1xcp1", "--order=" + "x" * 10000]))
@example(({}, ["eta", "--manifold", "cp1xcp1", "--eps=1", "--decimal=" + "9" * 3000]))
@example(({}, ["spectral-flow", "--manifold", "cp1x4", "--eps=" + "9" * 4000]))
@example((_table([{**ENTRY, "q": 10**4000, "k": 10**4000}]), MAN))
@example((_table([{**ENTRY, "k": -10**4000}]), MAN))
@example(({"man.json": json.dumps({"type": "hypersurface_general_type", "n": 4,
                                   "d": 10**4000})}, MAN))
# unknown cells and an undecided kernel whose k has about 4000 digits
@example(({}, ["spectral-flow", "--manifold", "hyp:n=4,d=8", "--r=1" + "0" * 3998,
               "--eps=1/1000000"]))
@example(({}, ["kernel-dim", "--manifold", "hyp:n=4,d=8", "--r=1" + "0" * 3998,
               "--eps=1/1000000"]))
@example(({}, ["aps-index", "--manifold", "hyp:n=4,d=8", "--eps=1" + "0" * 3990]))
@example(({}, ["kernel-dim", "--manifold", str(ROOT / "configs" / "cp1xcp1_explicit.json"),
               "--mode", "explicit", "--r=1" + "0" * 3998, "--eps=1/1000000"]))
@example(({}, ["kernel-dim", "--manifold", "cp1x4", "--r=1" + "0" * 3998 + "1/2", "--eps=1"]))
def test_outside_input_gets_an_answer_or_a_short_refusal(case):
    _check(*case)


# a word that argparse echoes when it refuses it: any short text, or long
# letters, words or quotes
WORD = st.one_of(st.text(max_size=300),
                 st.sampled_from(["m" * 10000, "a b" * 4000, "'\"" * 3000, "-h" + "q" * 5000]))
CHOICE_OPTIONS = [name for name, option in cli._OPTIONS.items() if option[1]]


@st.composite
def parser_cases(draw):
    """A valid command line whose subcommand, one option name or the
    value of one option with choices is a fuzzed WORD."""
    command = draw(st.sampled_from(list(cli._COMMANDS)))
    names = cli._COMMANDS[command][2]
    argv = [command, "--manifold", "cp1xcp1", *(["--eps=1"] if "eps" in names else [])]
    kind = draw(st.sampled_from(["command", "option", "choice"]))
    if kind == "command":
        argv[0] = draw(WORD)
    elif kind == "option":
        argv.append("--" + draw(WORD))
    else:
        name = draw(st.sampled_from([n for n in CHOICE_OPTIONS if n in names]))
        value = draw(WORD)
        argv += [f"--{name}={value}"] if draw(st.booleans()) else [f"--{name}", value]
    return {}, argv


@settings(max_examples=200, deadline=None)
@given(parser_cases())
# argparse refusals that echoed their whole input
@example(({}, ["spectral-flow", "--manifold", "cp1xcp1", "--eps", "1", "--mode", "m" * 10000]))
@example(({}, ["spectral-flow", "--manifold", "cp1xcp1", "--eps", "1", "--" + "x" * 10000]))
@example(({}, ["s" * 10000, "--manifold", "cp1xcp1"]))
@example(({}, ["check-identities", "--manifold", "cp1xcp1", "--d=" + "a b" * 4000]))
@example(({}, ["check-identities", "--manifold", "cp1xcp1", "-h" + "q" * 5000]))
@example(({}, ["adiabatic-limit", "--manifold", "cp1xcp1", *["x"] * 3000]))
def test_refused_words_are_quoted_not_echoed(case):
    _check(*case)


def _check(files, argv):
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in files.items():
            (Path(tmp) / name).write_text(text)
        argv = [arg.replace("{dir}", tmp) for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        cwd = os.getcwd()
        os.chdir(tmp)  # an abbreviated --out (--ou=x, say) writes its report in tmp
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except SystemExit as exc:  # help
            code = exc.code
        finally:
            os.chdir(cwd)
        elapsed = time.perf_counter() - start
    assert code in (EXIT_OK, EXIT_ERROR, EXIT_INDETERMINATE)
    message = err.getvalue()
    if code == EXIT_ERROR or message:
        assert message.startswith("etaflow:"), message[:200]
        assert len(message.encode()) < MAX_MESSAGE, message[:200]
    assert code == EXIT_ERROR or out.getvalue() or message  # a report or a message
    assert elapsed < BUDGET_S, argv
