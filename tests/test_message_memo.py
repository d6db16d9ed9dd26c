"""Unknown cells reported as runs of k, against a per-cell reference.

A partial cohomology table reports the cells of its Type 1 window that it
does not list, and a tabulated spectrum the cells of its Type 2 window
outside its k-range, as one skipped entry per degree q and maximal run of
k.  The reference here asks about every cell of the window on its own and
collapses the unknown ones into maximal runs (``collapse``); it shares no
code with ``spectral``.  It is compared with ``enumerate_families``,
``spectral_flow`` in both on_unknown modes and ``kernel_dimension``, over
query sequences on fixed models and over random partial tables and
explicit spectra.  ``test_spectral`` and ``test_fast_path_oracles`` read
the collapse and the message texts from here.
"""

import json
import math
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from etaflow.catalog import PartialCohomology, resolve_manifold
from etaflow.spectral import (IndeterminateSpectralFlow, LaplacianSpectrum, SpectralModel,
                              UnknownCohomologyError, enumerate_families,
                              kernel_dimension, spectral_flow)

NO_RICCI_BOUND = ("Type 2 certification needs a Ricci lower bound or an explicit "
                  "Laplacian spectrum")


def collapse(cells):
    """The maximal runs (q, lo, hi) of consecutive k at one q in a list of
    (q, k) cells given in (q, k) order."""
    runs = []
    for q, k in cells:
        if runs and runs[-1][0] == q and runs[-1][2] == k - 1:
            runs[-1][2] = k
        else:
            runs.append([q, k, k])
    return [tuple(run) for run in runs]


def unknown_message(q, lo, hi, name):
    """The entry of the unknown cells (q, lo..hi) of a cohomology table."""
    if lo == hi:
        return f"h^{{{q},{lo}}} unknown in table {name!r}"
    return f"h^{{{q},k}} unknown in table {name!r} for k in {lo}..{hi}"


def missing_message(q, lo, hi, k_range):
    """The entry of the cells (q, lo..hi) outside a spectrum's k-range."""
    ks = f"k={lo}" if lo == hi else f"k in {lo}..{hi}"
    return f"Laplacian spectrum missing (q={q}, {ks}); covered k-range is {tuple(k_range)}"


def window(width, r, eps, factor=1):
    """The k with |k - r| <= eps*factor*width/2: width n for Type 1 and
    n + 2 for Type 2."""
    radius = eps * factor * width / 2
    return range(math.ceil(r - radius), math.floor(r + radius) + 1)


def reference_skipped(model, r, eps, factor=1):
    """The skipped list of a flow, from every cell of both windows."""
    n, table, spectrum = model.n, model.table, model.spectrum
    cells = [(q, k) for q in range(n + 1) for k in window(n, r, eps, factor)
             if not table.is_known(q, k)]
    out = [unknown_message(q, lo, hi, table.name) for q, lo, hi in collapse(cells)]
    if spectrum is not None:
        lo, hi = spectrum.k_range
        cells = [(q, k) for q in range(n + 1) for k in window(n + 2, r, eps, factor)
                 if not lo <= k <= hi]
        out += [missing_message(q, a, b, spectrum.k_range) for q, a, b in collapse(cells)]
    elif model.kappa is None:
        out.append(NO_RICCI_BOUND)
    return out


def reference_kernel_refusal(model, r, eps):
    """The message kernel_dimension refuses with, or None: the first unknown
    Type 1 cell at a zero k = r + eps(q - n/2), else the first Type 2 entry."""
    n = model.n
    for q in range(n + 1):
        k = r + eps * (q - Fraction(n, 2))
        if k.denominator == 1 and not model.table.is_known(q, int(k)):
            return unknown_message(q, int(k), int(k), model.table.name)
    rest = [text for text in reference_skipped(model, r, eps) if not text.startswith("h^")]
    return rest[0] if rest else None


def entry_bound(model, r, eps, factor=1):
    """(n + 1)(known cells of the Type 1 window + 1) + 1, or two runs per q
    and a spectrum: what bounds a report whatever eps is."""
    n, table = model.n, model.table
    known = sum(table.is_known(q, k) for q in range(n + 1) for k in window(n, r, eps, factor))
    if model.spectrum is not None:
        return 2 * (n + 1)
    return (n + 1) * (known + 1) + 1


def check(model, r, eps, factor=1):
    """Every reader of the runs against the reference; returns the report."""
    expected = reference_skipped(model, r, eps, factor)
    assert enumerate_families(model, r, eps, factor, on_unknown="skip")[1] == expected
    report = spectral_flow(model, r, eps, window_factor=factor, on_unknown="skip")
    assert report.skipped == expected
    assert len(expected) <= entry_bound(model, r, eps, factor)
    if expected:
        with pytest.raises(UnknownCohomologyError) as caught:
            spectral_flow(model, r, eps, window_factor=factor)
        assert str(caught.value) == expected[0]
    else:
        assert spectral_flow(model, r, eps, window_factor=factor) == report
    refusal = reference_kernel_refusal(model, r, eps)
    if refusal is None:
        try:
            kernel_dimension(model, r, eps)
        except IndeterminateSpectralFlow:  # bound-only mode may not decide
            pass
    else:
        with pytest.raises(UnknownCohomologyError) as caught:
            kernel_dimension(model, r, eps)
        assert str(caught.value) == refusal
    return report


def _partial_model():
    """n = 2, several known k per q, a Ricci bound: no Type 2 message."""
    entries = {(0, -3): 1, (0, 0): 2, (0, 4): 0, (1, -1): 1, (1, 1): 3, (1, 2): 0,
               (2, -5): 1, (2, 3): 1, (2, 6): 2}
    return SpectralModel(2, Fraction(1), PartialCohomology("memo-test", entries))


def _explicit_model(n, k_range):
    model = resolve_manifold(f"cp1x{n}").model
    model.spectrum = LaplacianSpectrum({}, Fraction(10**40), k_range)
    return model


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The builtin octic, a hypersurface config of another name and n, a
    hand-made partial table, and explicit spectra covering part of, none
    of and an empty k-range."""
    config = tmp_path_factory.mktemp("memo") / "hyp.json"
    config.write_text(json.dumps({"name": "memo-sextic", "type": "hypersurface_general_type",
                                  "n": 2, "d": 6}))
    return [resolve_manifold("hyp:n=4,d=8").model, resolve_manifold(str(config)).model,
            _partial_model(), _explicit_model(2, (-4, 3)), _explicit_model(4, (30, 40)),
            _explicit_model(2, (5, 2))]


RATIONAL_R = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4))
FAR_R = st.builds(lambda sign, r: sign * 10**6 + r, st.sampled_from([-1, 1]), RATIONAL_R)
EPS = st.builds(Fraction, st.integers(1, 24), st.integers(1, 4))
QUERIES = st.lists(st.tuples(st.integers(0, 5), st.one_of(RATIONAL_R, FAR_R), EPS,
                             st.sampled_from([1, 2])),
                   min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(queries=QUERIES)
def test_skipped_lists_match_the_reference_over_query_sequences(models, queries):
    for index, r, eps, factor in queries:
        check(models[index], r, eps, factor)


@st.composite
def random_models(draw):
    """A partial table of random known cells near the origin, with no Ricci
    bound or a random one, or a (P^1)^n table with an empty spectrum of
    random k-range, empty when its ends cross."""
    n = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):
        cells = draw(st.lists(st.tuples(st.integers(0, n), st.integers(-20, 20)),
                              max_size=40, unique=True))
        kappa = draw(st.one_of(st.none(), st.fractions(0, 4, max_denominator=6)))
        table = PartialCohomology("partial", {cell: 1 for cell in cells})
        return SpectralModel(n, kappa, table)
    return _explicit_model(n, (draw(st.integers(-30, 30)), draw(st.integers(-30, 30))))


@settings(max_examples=200, deadline=None)
@given(model=random_models(),
       r=st.fractions(min_value=-12, max_value=12, max_denominator=6),
       eps=st.fractions(min_value=0, max_value=10, max_denominator=6).filter(lambda e: e > 0),
       factor=st.sampled_from([1, 2]))
def test_random_tables_and_spectra_match_the_reference(model, r, eps, factor):
    check(model, r, eps, factor)


def test_collapse_finds_maximal_runs():
    cells = [(0, -2), (0, 0), (0, 1), (0, 2), (1, 2), (1, 3), (2, 3), (2, 5)]
    assert collapse(cells) == [(0, -2, -2), (0, 0, 2), (1, 2, 3), (2, 3, 3), (2, 5, 5)]
    assert collapse([]) == []


def test_a_far_query_builds_only_its_own_window(models):
    # far from the one known cell of hyp:n=4,d=8, every q is one run
    model = models[0]
    report = check(model, 10**6, 2)
    lo, hi = window(model.n, 10**6, 2)[0], window(model.n, 10**6, 2)[-1]
    assert report.skipped == [unknown_message(q, lo, hi, model.table.name)
                              for q in range(model.n + 1)] + [NO_RICCI_BOUND]


def test_reports_do_not_grow_with_eps(models):
    # one entry per q and run: once the window holds every known cell, the
    # report at eps = 10^30 is as long as at 1000
    for model in models:
        sizes = set()
        for eps in (1000, 10**6, 10**30):
            start = time.perf_counter()
            report = spectral_flow(model, 0, eps, on_unknown="skip")
            assert time.perf_counter() - start < 1
            assert len(json.dumps(report.to_json())) < 10_000
            sizes.add(len(report.skipped))
        assert len(sizes) == 1


def test_concurrent_queries_read_consistent_messages(models):
    # no state is shared between queries: threads switching often give
    # every report its own reference list
    model = models[2]
    queries = [(r, eps) for r in range(-30, 31, 3) for eps in (1, 2, 3)] * 4
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(4) as pool:
            reports = list(pool.map(
                lambda query: spectral_flow(model, *query, on_unknown="skip"), queries))
    finally:
        sys.setswitchinterval(interval)
    for (r, eps), report in zip(queries, reports):
        assert report.skipped == reference_skipped(model, r, eps)


@pytest.mark.parametrize("r, eps", [(0, 1), (Fraction(1, 2), Fraction(1, 2)), (3, 2),
                                    (-7, Fraction(3, 2)), (10**6, 1)])
def test_kernel_dimension_messages_are_unchanged(models, r, eps):
    for model in models[:3]:
        n = model.n
        # the first q whose Type 1 zero at eps, k = r + eps(q - n/2), is an
        # integer cell that the table does not list, named in the cell form
        cells = [(q, r + eps * (q - Fraction(n, 2))) for q in range(n + 1)]
        unknown = [(q, int(k)) for q, k in cells
                   if k.denominator == 1 and (q, int(k)) not in model.table.entries]
        if not unknown:
            continue
        q, k = unknown[0]
        with pytest.raises(UnknownCohomologyError) as caught:
            kernel_dimension(model, r, eps)
        assert str(caught.value) == unknown_message(q, k, k, model.table.name)
