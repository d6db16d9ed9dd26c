"""The shared messages of partial cohomology tables, against a reference.

``spectral`` builds each "h^{q,k} unknown in table <name>" message once per
(table name, n, q, k) and lets every report on the table share it.  The
reference here rebuilds every report's ``skipped`` list from the window
formula alone, sharing no code with ``spectral``, and the memo is checked
after every query: it holds one contiguous k-range per key, inside the
windows asked for, with at most MAX_WINDOW_CELLS messages.
"""

import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from etaflow import spectral
from etaflow.catalog import PartialCohomology, resolve_manifold
from etaflow.spectral import (SpectralModel, SpectralWindowError, UnknownCohomologyError,
                              kernel_dimension, spectral_flow)

NO_RICCI_BOUND = ("Type 2 certification needs a Ricci lower bound or an explicit "
                  "Laplacian spectrum")


def _partial_model():
    """n = 2, several known k per q, a Ricci bound: no Type 2 message."""
    entries = {(0, -3): 1, (0, 0): 2, (0, 4): 0, (1, -1): 1, (1, 1): 3, (1, 2): 0,
               (2, -5): 1, (2, 3): 1, (2, 6): 2}
    return SpectralModel("memo-test", 2, Fraction(1), PartialCohomology("memo-test", entries))


@pytest.fixture(scope="module")
def models(tmp_path_factory):
    """The builtin octic, a hypersurface config of another name and n, and
    a hand-made partial table."""
    config = tmp_path_factory.mktemp("memo") / "hyp.json"
    config.write_text(json.dumps({"name": "memo-sextic", "type": "hypersurface_general_type",
                                  "n": 2, "d": 6}))
    return [resolve_manifold("hyp:n=4,d=8").model, resolve_manifold(str(config)).model,
            _partial_model()]


def window(n, r, eps):
    """The Type 1 window |k - r| <= eps n/2."""
    return math.ceil(r - eps * n / 2), math.floor(r + eps * n / 2)


def message(q, k, name):
    return f"h^{{{q},{k}}} unknown in table {name!r}"


def reference_skipped(model, r, eps):
    lo, hi = window(model.n, r, eps)
    known = model.table.entries
    out = [message(q, k, model.table.name)
           for q in range(model.n + 1) for k in range(lo, hi + 1) if (q, k) not in known]
    return out + ([NO_RICCI_BOUND] if model.kappa is None else [])


def held(model):
    """(k0, rows) of the memo of the model's table."""
    return spectral._held_messages(model.table.name, model.n)[1]


def check_memo(model, asked):
    """The memo of ``model``'s table: one k-range k0..k0 + L - 1 for every q,
    inside the k in ``asked``, of at most MAX_WINDOW_CELLS messages, each
    the text of its cell."""
    k0, rows = held(model)
    width = len(rows[0])
    assert all(len(row) == width for row in rows)
    assert set(range(k0, k0 + width)) <= asked
    assert (model.n + 1) * width <= spectral.MAX_WINDOW_CELLS
    for q, row in enumerate(rows):
        assert list(row) == [message(q, k, model.table.name) for k in range(k0, k0 + width)]


def run(model, r, eps):
    report = spectral_flow(model, r, eps, on_unknown="skip")
    assert report.skipped == reference_skipped(model, r, eps)
    # every Type 1 message is the memo's own object
    k0, rows = held(model)
    for text in report.skipped:
        if text != NO_RICCI_BOUND:
            q, k = (int(part) for part in text[2:text.index("}")].strip("{").split(","))
            assert text is rows[q][k - k0]
    return report


RATIONAL_R = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 4))
FAR_R = st.builds(lambda sign, r: sign * 10**6 + r, st.sampled_from([-1, 1]), RATIONAL_R)
EPS = st.builds(Fraction, st.integers(1, 24), st.integers(1, 4))
QUERIES = st.lists(st.tuples(st.integers(0, 2), st.one_of(RATIONAL_R, FAR_R), EPS),
                   min_size=1, max_size=12)


@settings(max_examples=60, deadline=None)
@given(queries=QUERIES, limit=st.sampled_from([spectral.MAX_WINDOW_CELLS, 150]))
def test_skipped_lists_match_the_reference_over_query_sequences(models, queries, limit):
    spectral._held_messages.cache_clear()
    asked = {}
    with mock.patch.object(spectral, "MAX_WINDOW_CELLS", limit):
        for index, r, eps in queries:
            model = models[index]
            try:
                run(model, r, eps)
            except SpectralWindowError:  # a window over the patched limit
                continue
            lo, hi = window(model.n, r, eps)
            asked.setdefault(index, set()).update(range(lo, hi + 1))
            for seen in asked:
                check_memo(models[seen], asked[seen])


def test_growing_shrinking_abutting_and_disjoint_windows_share_or_rebuild(models):
    spectral._held_messages.cache_clear()
    model = models[2]
    first = run(model, 0, 1)  # k in -1..1
    assert held(model)[0] == -1 and len(held(model)[1][0]) == 3
    grown = run(model, 0, 3)  # -3..3: only the new k are built
    assert {id(t) for t in first.skipped} <= {id(t) for t in grown.skipped}
    shrunk = run(model, Fraction(1, 2), 1)  # 0..1, inside: nothing built
    assert held(model)[0] == -3 and len(held(model)[1][0]) == 7
    assert {id(t) for t in shrunk.skipped} <= {id(t) for t in grown.skipped}
    assert run(model, 40 + Fraction(1, 2), Fraction(1, 4)).skipped == []  # k in 41..40
    assert held(model)[0] == -3 and len(held(model)[1][0]) == 7
    run(model, 5, 1)  # 4..6 abuts -3..3: widened
    assert held(model)[0] == -3 and len(held(model)[1][0]) == 10
    run(model, 12, 1)  # 11..13 leaves a gap: started again
    assert held(model)[0] == 11 and len(held(model)[1][0]) == 3
    check_memo(model, set(range(11, 14)))


def test_memo_starts_again_when_the_union_would_exceed_the_cell_limit(models):
    spectral._held_messages.cache_clear()
    model = models[2]  # n = 2: 3 messages per k
    with mock.patch.object(spectral, "MAX_WINDOW_CELLS", 30):
        for r, k0, width in ((0, -1, 3), (3, -1, 6), (6, -1, 9), (9, 8, 3)):
            run(model, r, 1)  # k in r - 1..r + 1, abutting the last window
            assert (held(model)[0], len(held(model)[1][0])) == (k0, width)


def test_a_far_query_builds_only_its_own_window(models):
    spectral._held_messages.cache_clear()
    model = models[0]  # hyp:n=4,d=8, no Ricci bound
    near = [run(model, 0, eps) for eps in (1, 2, Fraction(5, 2))]
    before = {id(t) for report in near for t in report.skipped}
    before |= {id(t) for row in held(model)[1] for t in row}
    far = run(model, 10**6, 2)
    lo, hi = window(model.n, 10**6, 2)
    memo = {id(t) for row in held(model)[1] for t in row}
    # the memo now holds one new message per cell of the far window and
    # nothing else, and the far report lists exactly those
    assert not memo & before
    assert len(memo) == (model.n + 1) * (hi - lo + 1)
    assert {id(t) for t in far.skipped if t != NO_RICCI_BOUND} == memo
    check_memo(model, set(range(lo, hi + 1)))


def test_memo_is_held_per_table_name_and_bounded_in_keys(models):
    spectral._held_messages.cache_clear()
    for model in models:
        run(model, 0, 1)
    assert spectral._held_messages.cache_info().currsize == 3
    for i in range(12):
        table = PartialCohomology(f"memo-{i}", {})
        run(SpectralModel(table.name, 2, Fraction(1), table), 0, 1)
    assert spectral._held_messages.cache_info().currsize == 8


def test_concurrent_queries_read_consistent_messages(models):
    # a widening replaces the memo's (k0, rows) whole, so a thread switch
    # between any two steps leaves every reader a consistent pair
    spectral._held_messages.cache_clear()
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
    for model in models:
        n = model.n
        # the first q whose Type 1 zero at eps, k = r + eps(q - n/2), is an
        # integer cell that the table does not list
        cells = [(q, r + eps * (q - Fraction(n, 2))) for q in range(n + 1)]
        unknown = [(q, int(k)) for q, k in cells
                   if k.denominator == 1 and (q, int(k)) not in model.table.entries]
        if not unknown:
            continue
        with pytest.raises(UnknownCohomologyError) as caught:
            kernel_dimension(model, r, eps)
        assert str(caught.value) == message(*unknown[0], model.table.name)
