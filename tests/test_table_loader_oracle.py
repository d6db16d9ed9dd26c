"""Oracle for the integer Laplacian-table loader.

``catalog.laplacian_table_load`` reads the usual ``halfMuSq`` strings and
JSON ints in integers and builds one Fraction per eigenvalue level.  The
reference below is the loader as it was before, validating every entry in
``Fraction`` arithmetic.  On valid and malformed tables alike both must give
the same ``LaplacianSpectrum``, or the same exception class and message.
The reference shares no code with the loader but ``parse_rational``, the
error class and the record it returns.
"""

import json
import tempfile
from fractions import Fraction as F
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaflow.catalog import TableValidationError, laplacian_table_load
from etaflow.exact import parse_rational
from etaflow.spectral import LaplacianSpectrum


# ------------------------------------------------------ the Fraction loader

def _reference_quoted(text, value):
    """A message's form of ``value`` printed as ``text``: past 100
    characters, the repr of its first 20 characters and '...'."""
    return text if len(text) <= 100 else repr(str(value)[:20]) + "..."


def _reference_integer(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, F)) \
            or value.denominator != 1:
        raise TableValidationError(
            f"{field} must be an integer, got {_reference_quoted(str(value), value)}")
    return int(value)


def _reference_field(entry, key):
    if not isinstance(entry, dict):
        raise TableValidationError(
            f"spectrum entry {_reference_quoted(repr(entry), entry)} is not an object")
    if key not in entry:
        raise TableValidationError(
            f"spectrum entry {_reference_quoted(str(entry), entry)} lacks {key!r}")
    return entry[key]


def _reference_number(text):
    try:
        return parse_rational(text)
    except ValueError:
        return text


def reference_table_load(path, n, kappa):
    """The Fraction loader: the same checks, in the same order."""
    def rational(value, field):
        try:
            return parse_rational(str(value))
        except ValueError as exc:
            raise TableValidationError(
                f"cannot read Laplacian table {path}: {field}: {exc}") from exc

    try:
        raw = json.loads(Path(path).read_text(), parse_float=_reference_number)
    except OSError as exc:
        raise TableValidationError(
            f"cannot read Laplacian table {_reference_quoted(str(path), path)}: "
            f"[Errno {exc.errno}] {exc.strerror}: {_reference_quoted(repr(str(path)), path)}"
        ) from exc
    except ValueError as exc:
        raise TableValidationError(f"cannot read Laplacian table {path}: {exc}") from exc
    if isinstance(raw, list):
        entries_raw, declared_cutoff, declared_range = raw, None, None
    elif isinstance(raw, dict):
        entries_raw = raw.get("entries", [])
        if not isinstance(entries_raw, list):
            raise TableValidationError("spectrum table 'entries' must be a JSON array")
        declared_cutoff = raw.get("half_mu_sq_max")
        if declared_cutoff is not None:
            declared_cutoff = rational(declared_cutoff, "spectrum table 'half_mu_sq_max'")
        declared_range = None
        if "k_min" in raw or "k_max" in raw:
            for key in ("k_min", "k_max"):
                if key not in raw:
                    raise TableValidationError(f"spectrum table lacks {key!r}")
            declared_range = tuple(_reference_integer(raw[key], f"spectrum table {key!r}")
                                   for key in ("k_min", "k_max"))
    else:
        raise TableValidationError("spectrum file must be a JSON array or object")
    if not entries_raw:
        return None
    if kappa < 0:
        raise ValueError("kappa must be >= 0")
    half_kappa = F(kappa) / 2
    levels = {}
    for entry in entries_raw:
        q, k = (_reference_integer(_reference_field(entry, key), f"spectrum entry {key!r}")
                for key in ("q", "k"))
        half = rational(_reference_field(entry, "halfMuSq"), "spectrum entry 'halfMuSq'")
        mult = _reference_integer(_reference_field(entry, "mult"), "spectrum entry 'mult'")
        qs, ks, halfs = (_reference_quoted(str(x), x) for x in (q, k, half))
        if not 0 <= q <= n:
            raise TableValidationError(f"entry (q={qs}, k={ks}): q outside 0..{n}")
        if half <= 0:
            raise TableValidationError(
                f"entry (q={qs}, k={ks}): halfMuSq must be positive, got {halfs}")
        if mult < 1:
            raise TableValidationError(f"entry (q={qs}, k={ks}): multiplicity must be >= 1")
        bound = max(q * (k + half_kappa), (n - q) * (half_kappa - k))
        if half < bound:
            raise TableValidationError(
                f"entry (q={qs}, k={ks}, halfMuSq={halfs}) violates the curvature "
                f"lower bound {_reference_quoted(str(bound), bound)}")
        level = levels.setdefault((k, half), {})
        if q in level:
            raise TableValidationError(
                f"duplicate eigenvalue for (q,k)={_reference_quoted(str((q, k)), (q, k))}")
        level[q] = (half, mult)
    entries = {}
    for (k, _), level in levels.items():
        d = 0
        for q in range(max(level) + 1):
            half, mult = level.get(q, (None, 0))
            d = mult - d
            if half is not None:
                if d < 0:
                    ds, ks, halfs = (_reference_quoted(str(x), x) for x in (d, k, half))
                    raise TableValidationError(f"negative alternating multiplicity {ds} "
                                               f"at (q={q}, k={ks}, mu^2/2={halfs})")
                entries.setdefault((q, k), []).append((half, d))
    entries = {key: tuple(sorted(values)) for key, values in entries.items()}
    ks = [k for (_, k) in entries]
    k_range = declared_range or (min(ks), max(ks))
    cutoff = declared_cutoff
    if cutoff is None:
        cutoff = max(h for values in entries.values() for h, _ in values)
    return LaplacianSpectrum(entries, cutoff, k_range)


# ---------------------------------------------------------------- helpers

def outcome(load, path, n, kappa):
    """What ``load`` gives: ("value", the spectrum with the type of every
    number) or ("error", class, message)."""
    try:
        spectrum = load(path, n, kappa)
    except Exception as exc:  # compared below, class and message
        return ("error", type(exc), str(exc))
    if spectrum is None:
        return ("value", None)
    typed = {key: tuple((h, type(h), d, type(d)) for h, d in values)
             for key, values in spectrum.entries.items()}
    cutoff = spectrum.half_mu_sq_max
    return ("value", typed, (cutoff, type(cutoff)),
            tuple((x, type(x)) for x in spectrum.k_range))


def both_loaders(text, n=4, kappa=F(2)):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spectrum.json"
        path.write_text(text, encoding="utf-8")
        expected = outcome(reference_table_load, path, n, kappa)
        return expected, outcome(laplacian_table_load, path, n, kappa)


def entry_text(q="0", k="1", half='"7/2"', mult="1", drop=()):
    """A table entry as JSON text from its field texts, without ``drop``."""
    fields = {"q": q, "k": k, "halfMuSq": half, "mult": mult}
    return "{" + ", ".join(f'"{key}": {value}' for key, value in fields.items()
                           if key not in drop) + "}"


# ------------------------------------------------------------ fixed cases

HALF_LITERALS = [
    '"2/4"', '"-0"', '"-0/5"', '"0"', '"+3/4"', '" 3/4"', '"3/4 "', '"1/0"', '"1/00"',
    '"007/014"', '"0.5"', '"1e3"', '"1E3"', '"٣/٤"', '"3/٤"',
    '"²"', '"1_000"', '""', '"abc"', '"-5/3"', '"9/2"', '"10/2"',
    "4", "-4", "0", "4.5", "2.0", "1e3", "1E-2", "true", "false", "null",
    '{"p": 3}', "[3, 4]", '"' + "1" * 5000 + '"', '"1/' + "7" * 5000 + '"',
]


@pytest.mark.parametrize("half", HALF_LITERALS)
def test_half_mu_sq_literals_match_the_reference(half):
    # q = 0, k = 1: the Nakano bound is 0, so every positive value loads
    text = '{"half_mu_sq_max": "9", "entries": [' + entry_text(half=half) + "]}"
    expected, got = both_loaders(text)
    assert got == expected


INTEGER_LITERALS = ["1", "2.0", "0.7", "1e3", "-0", "true", "false", "null",
                    '"1"', "[1]", "99999999999999999999999",
                    # quoted past 100 characters
                    '"' + "z" * 200 + '"', "-" + "1" * 3000, "0." + "5" * 3000]


@pytest.mark.parametrize("field", ["q", "k", "mult"])
@pytest.mark.parametrize("value", INTEGER_LITERALS)
def test_integer_fields_match_the_reference(field, value):
    text = "[" + entry_text(**{field: value}, half='"99/2"') + "]"
    expected, got = both_loaders(text)
    assert got == expected


@pytest.mark.parametrize("text", [
    "[" + entry_text(drop=(key,)) + "]" for key in ("q", "k", "halfMuSq", "mult")
] + [
    "[" + entry_text(drop=("q", "mult")) + "]",
    "[3]", '["q"]', "[[0, 1]]", "[null]", "[true]", "[1.5]",
    "[" + json.dumps(list(range(100))) + "]",
    "[" + entry_text(drop=("q",))[:-1] + ', "pad": "' + "p" * 200 + '"}]',
    "[" + entry_text() + ", 7]",
    "{}", '{"entries": []}', "[]", '{"entries": {}}', '"table"', "3", "not json",
    '{"k_min": -3, "entries": [' + entry_text() + "]}",
    '{"k_min": -3, "k_max": 2.0, "entries": [' + entry_text() + "]}",
    '{"k_min": -3, "k_max": 0.5, "entries": [' + entry_text() + "]}",
    '{"half_mu_sq_max": "1e9", "entries": [' + entry_text() + "]}",
    '{"half_mu_sq_max": 12.5, "entries": [' + entry_text() + "]}",
    "[" + entry_text() + ", " + entry_text(half='"14/4"') + "]",
    "[" + entry_text(q="1", half='"5"') + ", " + entry_text(q="0", half='"5"', mult="2")
    + ", " + entry_text(q="2", half='"5"', mult="1") + "]",
    "[" + entry_text(q="1", k="3", half='"12"', mult="1") + ", "
    + entry_text(q="2", k="3", half='"12"', mult="4") + "]",
])
def test_malformed_and_edge_tables_match_the_reference(text):
    expected, got = both_loaders(text)
    assert got == expected


def test_reference_sees_the_listed_errors():
    # the fixed cases above reach the messages they are meant to reach; at
    # q = 0, k = -1 the Nakano bound is 8 on n = 4
    def reference(half, k="1"):
        return both_loaders("[" + entry_text(k=k, half=half) + "]")[0]

    def message(half, k="1"):
        return reference(half, k)[-1]

    assert "not a rational: '1/0'" in message('"1/0"')
    assert message('"-0"').endswith("halfMuSq must be positive, got 0")
    assert message('"15/2"', k="-1").endswith("violates the curvature lower bound 8")
    assert "no exponents" in message('"1e3"')
    loaded = ("value", {(0, 1): ((F(3, 4), F, 1, int),)}, (F(3, 4), F), ((1, int), (1, int)))
    assert reference('" 3/4"') == reference('"+6/8"') == loaded


# ------------------------------------------------------------- hypothesis

def _bound(q, k, n, half_kappa):
    return max(q * (k + half_kappa), (n - q) * (half_kappa - k))


@st.composite
def field_text(draw, valid, clean):
    """JSON text of an integer field: ``valid``, or when not ``clean``
    sometimes a malformed literal."""
    forms = [str(valid)] * 4 + [f"{valid}.0"]
    return draw(st.sampled_from(forms if clean else forms * 8 + INTEGER_LITERALS))


@st.composite
def half_text(draw, bound, clean):
    """JSON text of a halfMuSq value above ``bound``, or when not ``clean``
    near it or malformed."""
    value = bound + F(draw(st.integers(1, 12) if clean else st.integers(-6, 6)),
                      draw(st.integers(1, 6)))
    scale = draw(st.integers(1, 3))
    p, q = value.numerator * scale, value.denominator * scale
    forms = [f'"{p}/{q}"', f'"{p}/{q}"', f'"{p}/{q}"', f'"{value}"', f'" {p}/{q}"',
             f'"+{p}/{q}"']
    if q == 1:
        forms += [str(p), f"{p}.0", f'"{p}"']
    if value.denominator in (1, 2, 4, 5, 8, 10):
        forms.append(str(value.numerator / value.denominator))  # an exact decimal
    if not clean:
        forms = forms * 4 + [f'"{p}/0"', f'"{value}e0"'] + HALF_LITERALS[:20]
    return draw(st.sampled_from(forms))


LEVELS = ['"20"', '"40/2"', "20", '"83/4"']


@st.composite
def table_text(draw):
    """(JSON text, n, kappa): a table whose fields are all well formed
    (``clean``), or one with malformed entries and fields mixed in."""
    n = draw(st.sampled_from([2, 4]))
    kappa = draw(st.sampled_from([F(2), F(1), F(3, 2), F(0)]))
    half_kappa, clean = kappa / 2, draw(st.booleans())
    entries = []
    for _ in range(draw(st.integers(0, 12))):
        if not clean and draw(st.integers(0, 9)) == 0:
            entries.append(draw(st.sampled_from(["3", "null", '"q"', "[0, 1]", "1.5"])))
            continue
        q = draw(st.integers(0, n) if clean else st.integers(-1, n + 1))
        if draw(st.integers(0, 2)):
            k = draw(st.integers(-3, 3))
            half = draw(half_text(_bound(q, k, n, half_kappa), clean))
        else:
            # a shared level above every bound, at another q or the same: an
            # alternating sum that may turn negative, or a duplicate
            k, half = draw(st.sampled_from([1, 2])), draw(st.sampled_from(LEVELS))
        drop = () if clean or draw(st.integers(0, 9)) else (
            draw(st.sampled_from(["q", "k", "halfMuSq", "mult"])),)
        mult = draw(st.integers(1 if clean else 0, 4))
        entries.append(entry_text(q=draw(field_text(q, clean)), k=draw(field_text(k, clean)),
                                  half=half, mult=draw(field_text(mult, clean)), drop=drop))
    body = "[" + ", ".join(entries) + "]"
    shape = draw(st.integers(0, 3))
    if shape == 0:
        return body, n, kappa
    head = []
    if shape >= 2:
        cutoffs = ["9", '"40/3"', "12.5", "null"] if clean else ["9", "12.5", "1e2", "[]"]
        head.append(f'"half_mu_sq_max": {draw(st.sampled_from(cutoffs))}')
    if shape == 3:
        k_max = ["4", "4.0"] if clean else ["4", "4.5", '"4"']
        head.append('"k_min": -4, "k_max": ' + draw(st.sampled_from(k_max)))
    return "{" + ", ".join(head + [f'"entries": {body}']) + "}", n, kappa


@settings(max_examples=400, deadline=None)
@given(table_text())
@example(("[" + entry_text(half='"2/4"') + "]", 4, F(2)))
@example(('{"entries": [' + entry_text(q="4", k="-1", half='"9"') + ", "
          + entry_text(q="4", k="-1", half='"18/2"') + "]}", 4, F(2)))
def test_fast_loader_matches_the_fraction_reference(case):
    text, n, kappa = case
    expected, got = both_loaders(text, n, kappa)
    assert got == expected
