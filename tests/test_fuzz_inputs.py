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

import pytest
from hypothesis import example, given, settings, strategies as st

from etaflow import cli
from etaflow.catalog import MAX_CP1_FACTORS, MAX_HYPERSURFACE_DIM
from etaflow.exact import MAX_RATIONAL_DIGITS
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
    return code, message


# each builtin form, with {} for one of its numbers, and the limit that bounds
# it; the degree d has no limit of its own but its number of digits
BUILTIN_FORMS = {"cp1x{}": ("MAX_CP1_FACTORS", MAX_CP1_FACTORS),
                 "hyp:n={},d=8": ("MAX_HYPERSURFACE_DIM", MAX_HYPERSURFACE_DIM),
                 "hyp:n=4,d={}": ("MAX_RATIONAL_DIGITS", None)}


@st.composite
def builtin_names(draw):
    """(name, the limit its refusal must name or None): a builtin form whose
    number is a run of up to 5000 digits after 0 to 5000 leading zeros."""
    form = draw(st.sampled_from(sorted(BUILTIN_FORMS)))
    length = draw(st.one_of(st.integers(1, 4), st.integers(1, 5000)))
    lead, rest = draw(st.sampled_from("123456789")), draw(st.sampled_from("0123456789"))
    digits = lead + rest * (length - 1)
    run = "0" * draw(st.sampled_from([0, 0, 1, 3, 3999, 5000])) + digits
    name, limit = BUILTIN_FORMS[form]
    # past MAX_RATIONAL_DIGITS digits a name is unknown, and the refusal names
    # every limit; below it, only a value past a limit must name it
    if len(run) > MAX_RATIONAL_DIGITS or (limit is not None and
                                          (length > 2 or int(digits) > limit)):
        return form.format(run), name
    return form.format(run), None


@settings(max_examples=100, deadline=None)
@given(builtin_names())
@example(("cp1x" + "9" * 5000, "MAX_CP1_FACTORS"))
@example(("hyp:n=" + "9" * 5000 + ",d=8", "MAX_HYPERSURFACE_DIM"))
@example(("hyp:n=4,d=" + "8" * 5000, "MAX_RATIONAL_DIGITS"))
@example(("cp1x" + "0" * 5000 + "4", "MAX_CP1_FACTORS"))
@example(("cp1x0004", None))
@example(("", "etaflow: unknown manifold '': expected cp1xcp1, cp1x<2m> with 2m <= "
              "MAX_CP1_FACTORS"))  # not the current directory
def test_builtin_names_past_a_limit_are_refused_by_it(case):
    # a case names the text its refusal must hold, or None when it may answer
    name, expected = case
    code, message = _check({}, ["aps-index", "--manifold", name, "--eps=1"])
    if expected is not None:
        assert code == EXIT_ERROR and expected in message, (name[:30], message)
    assert message.count("\n") <= 1


# a directory of about 2000 characters, ten names of 199; each file is a
# config or table that the command refuses, naming its path
LONG_DIR = "/".join(["d" * 199] * 10)
REFUSED_FILES = {
    "config_not_json": {"man.json": "{not json"},
    "config_json_array": {"man.json": "[]"},
    "config_unknown_type": {"man.json": json.dumps({"type": "t"})},
    "table_not_json": {**_config(laplacian_table="table.json"), "table.json": "{not json"},
    "table_bad_half_mu_sq": _table([{**ENTRY, "halfMuSq": "h"}]),
}


@pytest.mark.parametrize("files", REFUSED_FILES.values(), ids=list(REFUSED_FILES))
def test_long_paths_are_quoted(files):
    # a short path is printed whole; a long one as the repr of its first 20
    # characters and '...' (exact.quoted), so the refusal stays short
    messages = []
    for sub in ("short", LONG_DIR):
        with tempfile.TemporaryDirectory() as tmp:
            folder = Path(tmp) / sub
            folder.mkdir(parents=True)
            for name, text in files.items():
                (folder / name).write_text(text)
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                assert main([*MAN[:2], str(folder / "man.json"), *MAN[3:]]) == EXIT_ERROR
            messages.append(err.getvalue().replace(str(folder), "{folder}"))
    short, long = messages
    assert short.startswith("etaflow: ") and "{folder}/" in short, short
    assert long.startswith("etaflow: ") and len(long.encode()) < MAX_MESSAGE, long[:200]
    assert "'..." in long and "d" * 199 not in long, long[:200]
