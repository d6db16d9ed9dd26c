import inspect
import json
import math
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from etaflow import spectral
from etaflow.catalog import (
    KunnethCohomology,
    PartialCohomology,
    TableValidationError,
    general_type_hypersurface_model,
    laplacian_table_load,
    product_cp1_model,
    resolve_manifold,
)
from etaflow.eta import eta_invariant
from etaflow.exact import SqrtValue, rational_str, sqrt_sign
from etaflow.spectral import (
    CERTIFIED,
    CROSSING,
    CertOutcome,
    Crossing,
    EigenvalueFamily,
    EndpointZero,
    INDETERMINATE,
    IndeterminateSpectralFlow,
    LaplacianSpectrum,
    MAX_FAMILIES,
    MODE_EXPLICIT,
    MODE_NAKANO,
    MUST_VANISH,
    ON_UNKNOWN_SKIP,
    SF_SIGN_PAPER,
    SF_SIGN_STANDARD,
    SpectralFlowReport,
    SpectralModel,
    SpectralWindowError,
    TYPE1,
    TYPE2_MINUS,
    TYPE2_PLUS,
    UNCONSTRAINED,
    UnknownCohomologyError,
    _plan,
    certify_no_crossing,
    enumerate_families,
    kernel_dimension,
    spectral_flow,
    spin_vanishing_predicate,
)
from test_message_memo import collapse, missing_message, unknown_message


def make_model(factors=2, spectrum=None):
    spec, table = product_cp1_model(factors)
    model = SpectralModel(spec.name, spec.n, spec.kappa, table)
    if spectrum is not None:
        model.spectrum = spectrum
    return spec, model


def hyp_model(n=4, d=8):
    spec, table = general_type_hypersurface_model(n, d)
    return spec, SpectralModel(spec.name, n, None, table)


# ------------------------------------------------------------- basic ops


def nakano_bound(q, k, kappa, n):
    """The Nakano lower bound max(q(k + kappa/2), (n - q)(-k + kappa/2)) on
    every positive mu^2/2 of degree q and twist k, in Fractions."""
    half = F(kappa) / 2
    return max(q * (k + half), (n - q) * (-k + half))


def type1_affine(family, r):
    """(value at delta = 0, slope) of the Type 1 eigenvalue
    (-1)^q (k - delta(q - n/2) - r), in Fractions."""
    s = (-1) ** family.q
    return s * (family.k - r), -s * (F(family.q) - F(family.n, 2))


def type2_a(family, r, delta):
    """A(delta) = (2k - delta(2q + 1 - n) - 2r)^2 + 4 mu^2 delta of a Type 2
    family, in Fractions: its branches vanish where A(delta) = delta^2."""
    C = 2 * family.q + 1 - family.n
    return (2 * family.k - delta * C - 2 * F(r)) ** 2 + 8 * family.half_mu_sq * delta


def cmp_value(value, q):
    """Sign of value - q for a Fraction or a SqrtValue."""
    if isinstance(value, SqrtValue):
        return sqrt_sign(value.a - q, value.b, value.radicand)
    return (value > q) - (value < q)


def type1_reference(family, r, eps):
    """The certification of a Type 1 family from its affine form."""
    a0, slope = type1_affine(family, r)
    if slope == 0:
        return CertOutcome(CERTIFIED, zero_at_start=a0 == 0, zero_at_eps=a0 == 0)
    root = -a0 / slope
    if 0 < root < eps:
        return CertOutcome(CROSSING, crossings=((root, 1 if a0 > 0 else -1),))
    return CertOutcome(CERTIFIED, zero_at_start=root == 0, zero_at_eps=root == eps)


def test_spin_vanishing_examples():
    assert spin_vanishing_predicate(1, 0, 2, 2) == MUST_VANISH
    assert spin_vanishing_predicate(0, 5, 2, 2) == UNCONSTRAINED
    assert spin_vanishing_predicate(0, -1, 2, 2) == MUST_VANISH


# ------------------------------------------------------------ enumeration


def test_enumerate_contains_expected_type1_family():
    # at r = 1 the h^{0,1} = 1 family of cp1xcp1 vanishes at the start
    _, model = make_model(2)
    families, skipped, _ = enumerate_families(model, 1, 2)
    assert not skipped
    matches = [
        f for f in families if f.kind == TYPE1 and f.q == 0 and f.k == 1
    ]
    assert len(matches) == 1 and matches[0].multiplicity == 1
    a0, slope = type1_affine(matches[0], 1)
    assert (a0, slope) == (0, 1)  # lambda(delta) = delta
    zeros = spectral_flow(model, 1, 2).endpoint_zeros
    assert any(z.family == matches[0] and z.where == "start" for z in zeros)


def test_enumerate_rejects_odd_or_zero_dimension():
    _, model = make_model(2)
    for n in (0, 3):
        model.n = n
        with pytest.raises(ValueError, match="even complex dimension"):
            spectral_flow(model, 0, 1)


def test_enumerate_type2_empty_for_small_eps():
    # with eps = 1/10 the k-window shrinks to {0}, where the curvature
    # bound exceeds the mu^2 window for every q
    _, model = make_model(2)
    families, _, _ = enumerate_families(model, 0, F(1, 10))
    assert all(f.kind == TYPE1 for f in families)


def test_enumerate_hypersurface_known_entry():
    _, model = hyp_model(4, 8)
    families, skipped, _ = enumerate_families(
        model, 0, 1, on_unknown=ON_UNKNOWN_SKIP
    )
    assert skipped  # the partial table leaves most of the window unknown
    assert [(f.q, f.k) for f in families] == [(0, -1)]
    a0, slope = type1_affine(families[0], 0)
    assert (a0, slope) == (-1, 2)  # lambda(delta) = -1 + 2 delta

    with pytest.raises(UnknownCohomologyError):
        enumerate_families(model, 0, 1)


def test_enumerate_window_error_names_missing_range(tmp_path):
    path = tmp_path / "small.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "1/100", "k_min": -1, "k_max": 1,
        "entries": [{"q": 0, "k": 1, "halfMuSq": "1/200", "mult": 1}],
    }))
    spectrum = laplacian_table_load(path, 2, 2)
    _, model = make_model(2, spectrum)
    with pytest.raises(SpectralWindowError):
        enumerate_families(model, 0, 2)  # needs cutoff 1/4


# ------------------------------------------------------------ certification


def test_certify_type1_examples():
    fam = EigenvalueFamily(TYPE1, 0, 1, 2, 1)
    assert certify_no_crossing(fam, 0, 4).status == CERTIFIED

    fam = EigenvalueFamily(TYPE1, 0, -1, 4, 1)
    out = certify_no_crossing(fam, 0, 1)
    assert out.status == CROSSING
    assert out.crossings == ((F(1, 2), -1),)  # negative-to-positive

    # endpoint zero: root exactly at eps counts as kernel, not flow
    out = certify_no_crossing(fam, 0, F(1, 2))
    assert out.status == CERTIFIED and out.zero_at_eps

    # an identically zero family is a zero at both ends
    fam = EigenvalueFamily(TYPE1, 1, 0, 2, 1)
    out = certify_no_crossing(fam, 0, 1)
    assert out.status == CERTIFIED and out.zero_at_start and out.zero_at_eps


def test_certify_type2_strict_branch_unconditional():
    # q even: lambda_- is strictly negative; q odd: lambda_+ strictly positive
    fam = EigenvalueFamily(TYPE2_MINUS, 0, 5, 2, 3, half_mu_sq=F(1, 100))
    assert certify_no_crossing(fam, 4, 10).status == CERTIFIED
    fam = EigenvalueFamily(TYPE2_PLUS, 1, 5, 2, 3, half_mu_sq=F(1, 100))
    assert certify_no_crossing(fam, 4, 10).status == CERTIFIED


def sympy_rational(x):
    return sp.Rational(x.numerator, x.denominator)


@settings(max_examples=150, deadline=None)
@given(n=st.sampled_from([2, 4, 6]), data=st.data(),
       r=st.fractions(min_value=-8, max_value=8, max_denominator=12),
       half=st.fractions(min_value=0, max_value=20, max_denominator=12)
       .filter(lambda h: h > 0),
       eps=st.fractions(min_value=0, max_value=20, max_denominator=12)
       .filter(lambda e: e > 0),
       t=st.fractions(min_value=0, max_value=1, max_denominator=12).filter(lambda t: t > 0),
       kappa=st.fractions(min_value=0, max_value=4, max_denominator=6))
def test_unbuilt_type2_branch_is_strictly_signed(explicit_model, n, data, r, half,
                                                 eps, t, kappa):
    # the branch ((-1)^{q+1} delta -+ sqrt(A))/2, - for even q and + for odd
    # q, has the sign (-1)^{q+1} at every delta in (0, eps]: it never reports
    q, k = data.draw(st.integers(0, n)), data.draw(st.integers(-20, 20))
    delta = eps * t
    a = (2 * k - delta * (2 * q + 1 - n) - 2 * r) ** 2 + 8 * half * delta
    sign = (-1) ** (q + 1)
    branch = sign * (sympy_rational(delta) + sp.sqrt(sympy_rational(a))) / 2
    assert sp.sign(branch) == sign
    # so each (q, k, level) is built once, in the branch that can vanish
    spec, table = product_cp1_model(n)
    for model in (SpectralModel(spec.name, n, kappa, table), explicit_model):
        families, _, _ = enumerate_families(model, r, eps, on_unknown=ON_UNKNOWN_SKIP)
        type2 = [f for f in families if f.kind != TYPE1]
        levels = Counter((f.q, f.k, f.half_mu_sq) for f in type2)
        assert all(count == 1 for count in levels.values())
        assert all(f.kind == (TYPE2_MINUS if f.q % 2 else TYPE2_PLUS) for f in type2)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([2, 4, 6]), data=st.data(), k=st.integers(-30, 30),
       eps=st.fractions(min_value=0, max_value=20, max_denominator=12)
       .filter(lambda e: e > 0),
       t=st.fractions(min_value=0, max_value=1, max_denominator=12)
       .filter(lambda t: 0 < t < 1),
       case=st.sampled_from(["below", "zero", "inside", "eps", "above",
                             "flat zero", "flat"]))
def test_type1_certification_matches_affine_reference(n, data, k, eps, t, case):
    # r is placed so that the root (k - r)/(q - n/2) falls where ``case``
    # says; q = n/2 gives a constant family, zero when k = r
    if case.startswith("flat"):
        q = n // 2
        r = F(k) if case == "flat zero" else k + eps * t
    else:
        q = data.draw(st.sampled_from([j for j in range(n + 1) if 2 * j != n]))
        root = {"below": -eps * t, "zero": 0, "inside": eps * t, "eps": eps,
                "above": eps * (1 + t)}[case]
        r = k - root * (q - F(n, 2))
    family = EigenvalueFamily(TYPE1, q, k, n, 1)
    want = type1_reference(family, r, eps)
    assert certify_no_crossing(family, r, eps) == want
    assert (want.status == CROSSING) == (case == "inside")
    assert want.zero_at_start == (case in ("zero", "flat zero"))
    assert want.zero_at_eps == (case in ("eps", "flat zero"))
    # a partial table lists every known cell of its window, so a flow on it
    # certifies roots outside [0, eps] too
    model = SpectralModel("one", n, None, PartialCohomology("one", {(q, k): 1}))
    families, _, _ = enumerate_families(model, r, eps, window_factor=2,
                                        on_unknown=ON_UNKNOWN_SKIP)
    assert families == [family]


def test_certify_type2_nakano_regime():
    # inside |r| <= kappa/2 the bound-level quadratic is always nonnegative
    n, kappa = 2, F(2)
    for q in range(n + 1):
        for k in range(-6, 7):
            lam = nakano_bound(q, k, kappa, n)
            for kind in (TYPE2_PLUS, TYPE2_MINUS):
                fam = EigenvalueFamily(
                    kind, q, k, n, None, half_mu_sq=lam, half_mu_sq_is_bound=True
                )
                for r in (F(-1), F(-1, 2), F(0), F(1, 2), F(1)):
                    out = certify_no_crossing(fam, r, 4)
                    assert out.status == CERTIFIED


def test_certify_type2_explicit_crossing():
    # q = 0, k = 2, half = 1/100, r = 9/4: Q = -(23/25) delta + 1/4
    fam = EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100))
    out = certify_no_crossing(fam, F(9, 4), 1)
    assert out.status == CROSSING
    assert out.crossings == ((F(25, 92), 1),)  # positive-to-negative


def test_certify_type2_bound_failure_is_indeterminate():
    fam = EigenvalueFamily(
        TYPE2_PLUS, 0, 2, 2, None, half_mu_sq=F(0), half_mu_sq_is_bound=True
    )
    out = certify_no_crossing(fam, F(9, 4), 1)
    assert out.status == INDETERMINATE


def test_spectral_records_are_values():
    fam = EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100))
    same = EigenvalueFamily(kind=TYPE2_PLUS, q=0, k=2, n=2, multiplicity=3,
                            half_mu_sq=F(1, 100), half_mu_sq_is_bound=False,
                            mult_is_lower_bound=False)
    assert fam == same and hash(fam) == hash(same)
    assert fam != EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 99))
    assert fam != EigenvalueFamily(TYPE2_MINUS, 0, 2, 2, 3, half_mu_sq=F(1, 100))
    out = certify_no_crossing(fam, F(9, 4), 1)
    assert out == CertOutcome(CROSSING, crossings=((F(25, 92), 1),))
    assert hash(out) == hash(CertOutcome(CROSSING, ((F(25, 92), 1),), False, False, ""))
    assert Crossing(fam, F(1, 2), 1, 3) == Crossing(same, F(1, 2), 1, 3)
    assert hash(Crossing(fam, F(1, 2), 1, 3)) == hash(Crossing(same, F(1, 2), 1, 3))
    assert EndpointZero(fam, "eps", 3) == EndpointZero(same, where="eps", multiplicity=3)
    assert EndpointZero(fam, "eps", 3) != EndpointZero(fam, "start", 3)
    # a spectrum needs its entries, cutoff and k-range
    with pytest.raises(TypeError):
        LaplacianSpectrum()
    table = LaplacianSpectrum({}, F(100), (0, 0))
    assert table == LaplacianSpectrum(entries={}, half_mu_sq_max=F(100), k_range=(0, 0))
    # a model and a report can be changed after construction: equal by value,
    # not hashable; bound-only mode is spectrum=None
    _, model = make_model(4)
    assert model.spectrum is None and model.mode == MODE_NAKANO
    assert model == SpectralModel(model.name, model.n, model.kappa, model.table,
                                  spectrum=None)
    explicit = SpectralModel(model.name, model.n, model.kappa, model.table, table)
    assert model != explicit and explicit.mode == MODE_EXPLICIT
    report = spectral_flow(model, 0, 3)
    assert report == spectral_flow(model, 0, 3)
    for record in (model, report):
        with pytest.raises(TypeError):
            hash(record)


def test_branch_exactness_sampling():
    # for q even, sign(lambda_+) at rational sample points equals
    # sqrt_sign(-delta, 1, A(delta)), the sign of Q(delta) = A(delta) - delta^2
    fam = EigenvalueFamily(TYPE2_PLUS, 0, 2, 2, 3, half_mu_sq=F(1, 100))
    r, eps = F(9, 4), F(1)
    for j in range(1, 21):
        delta = eps * j / 20
        a_val = type2_a(fam, r, delta)
        q_val = a_val - delta * delta
        assert sqrt_sign(-delta, 1, a_val) == (
            1 if q_val > 0 else (-1 if q_val < 0 else 0)
        )


# ------------------------------------------------------------ spectral flow


def test_spectral_flow_vanishes_on_fano():
    _, model = make_model(2)
    report = spectral_flow(model, F(1, 2), 3)
    assert report.total == 0 and report.mode == MODE_NAKANO
    assert not report.indeterminate

    report = spectral_flow(model, 0, 10)
    assert report.total == 0


def test_spectral_flow_counterexample():
    _, model = hyp_model(4, 8)
    report = spectral_flow(model, 0, 1, on_unknown=ON_UNKNOWN_SKIP)
    assert report.partial
    assert report.total_paper != 0
    assert len(report.crossings) == 1
    crossing = report.crossings[0]
    assert crossing.delta_star == F(1, 2)
    assert crossing.multiplicity >= 1
    assert crossing.direction == -1  # rises through zero
    assert report.total_standard == -report.total_paper


def test_spectral_flow_sign_conventions():
    _, model = hyp_model(4, 8)
    paper = spectral_flow(model, 0, 1, on_unknown=ON_UNKNOWN_SKIP)
    standard = spectral_flow(
        model, 0, 1, sf_sign=SF_SIGN_STANDARD, on_unknown=ON_UNKNOWN_SKIP
    )
    assert paper.total == -standard.total
    assert paper.total_paper == standard.total_paper


def test_spectral_flow_indeterminate_outside_regime():
    _, model = make_model(2)
    report = spectral_flow(model, F(9, 4), 1)
    assert report.indeterminate and not report.is_exact


def test_spectral_flow_explicit_mode(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "10", "k_min": -8, "k_max": 8,
        "entries": [
            {"q": 0, "k": 2, "halfMuSq": "1/100", "mult": 3},
            {"q": 1, "k": 3, "halfMuSq": "4", "mult": 2},
        ],
    }))
    spectrum = laplacian_table_load(path, 2, 2)
    _, model = make_model(2, spectrum)
    assert model.mode == MODE_EXPLICIT

    # in the theorem regime the explicit data confirms vanishing
    report = spectral_flow(model, F(1, 2), 1)
    assert report.total == 0 and not report.indeterminate

    # outside it, the explicit eigenvalue resolves what the bound cannot
    report = spectral_flow(model, F(9, 4), 1)
    assert not report.indeterminate
    kinds = {(c.family.kind, c.family.q, c.family.k) for c in report.crossings}
    assert (TYPE2_PLUS, 0, 2) in kinds
    assert (TYPE1, 0, 2) in kinds
    assert report.total_paper == -1  # 3 down (type2) vs 4 up (type1)


def test_window_soundness():
    _, model = make_model(2)
    grid_r = [F(i, 10) for i in range(-10, 11, 5)]
    grid_eps = [F(1, 10), F(1, 2), F(1), F(2), F(4)]
    for r in grid_r:
        for eps in grid_eps:
            base = spectral_flow(model, r, eps).total
            for factor in (2, 4):
                widened = spectral_flow(model, r, eps, window_factor=factor)
                assert widened.total == base == 0


def cell_walk_type2_levels(model, r, eps, factor):
    """(q, k, bound) for every cell of the Type 2 window whose Nakano bound
    is at most the window's mu^2/2, found by visiting every cell."""
    n = model.n
    radius = eps * (n + 2) / 2 * factor
    half_mu_max = eps / 8 * factor
    levels = []
    for q in range(n + 1):
        for k in range(math.ceil(r - radius), math.floor(r + radius) + 1):
            bound = nakano_bound(q, k, model.kappa, n)
            if bound <= half_mu_max:
                levels.append((q, k, bound))
    return levels


@settings(max_examples=80, deadline=None)
@given(n=st.sampled_from([2, 4, 6]), factor=st.sampled_from([1, 2]),
       kappa=st.fractions(min_value=0, max_value=4, max_denominator=6),
       r=st.fractions(min_value=-6, max_value=6, max_denominator=12),
       eps=st.fractions(min_value=0, max_value=40, max_denominator=12)
       .filter(lambda e: e > 0))
def test_nakano_type2_window_matches_cell_walk(n, factor, kappa, r, eps):
    # the enumerator lists a subset of the walked Type 2 families that
    # holds every one whose certification reports anything
    spec, table = product_cp1_model(n)
    model = SpectralModel(spec.name, n, kappa, table)
    families, _, _ = enumerate_families(model, r, eps, window_factor=factor)
    type2 = [f for f in families if f.kind != TYPE1]
    walked = [EigenvalueFamily(kind, q, k, n, None, half_mu_sq=bound,
                               half_mu_sq_is_bound=True)
              for q, k, bound in cell_walk_type2_levels(model, r, eps, factor)
              for kind in (TYPE2_PLUS, TYPE2_MINUS)]
    assert set(type2) <= set(walked)
    assert len(set(type2)) == len(type2)
    reporting = [f for f in walked if reports(certify_no_crossing(f, r, eps))]
    assert set(reporting) <= set(type2)


def reports(outcome):
    """Whether a certification outcome puts a line in the flow report."""
    return bool(outcome.status == INDETERMINATE or outcome.crossings
                or outcome.zero_at_start or outcome.zero_at_eps)


def walk_flow(model, r, eps, factor):
    """The flow report assembled from every cell of the search window: each
    Type 1 cell with h != 0 and each Type 2 level (the Nakano bound of every
    cell it does not exclude) becomes a family and is certified."""
    n = model.n
    radius1 = eps * n / 2 * factor
    radius2 = eps * (n + 2) / 2 * factor
    half_mu_max = eps / 8 * factor
    type1_ks = range(math.ceil(r - radius1), math.floor(r + radius1) + 1)
    type2_ks = range(math.ceil(r - radius2), math.floor(r + radius2) + 1)
    families = []
    for q in range(n + 1):
        for k in type1_ks:
            if model.table.h(q, k):
                families.append(EigenvalueFamily(TYPE1, q, k, n,
                                                 model.table.h(q, k)))
        for k in type2_ks:
            bound = nakano_bound(q, k, model.kappa, n)
            if bound <= half_mu_max:
                families += [EigenvalueFamily(kind, q, k, n, None,
                                              half_mu_sq=bound,
                                              half_mu_sq_is_bound=True)
                             for kind in (TYPE2_PLUS, TYPE2_MINUS)]
    window = {
        "type1_k": [type1_ks.start, type1_ks.stop - 1],
        "type2_k": [type2_ks.start, type2_ks.stop - 1],
        "half_mu_sq_max": rational_str(half_mu_max),
        "factor": rational_str(F(factor)),
    }
    return certify_all(families, r, eps, MODE_NAKANO, [], window)


def certify_all(families, r, eps, mode, skipped, window):
    """The flow report of certifying every family on its own."""
    crossings, zeros, indeterminate = [], [], []
    total = 0
    # the report lists families by (q, k, kind, mu^2/2)
    for family in sorted(families, key=lambda f: (f.q, f.k, f.kind,
                                                  f.half_mu_sq or 0)):
        outcome = certify_no_crossing(family, r, eps)
        if outcome.status == INDETERMINATE:
            indeterminate.append(f"{family.label()}: {outcome.note}")
            continue
        for delta_star, direction in outcome.crossings:
            crossings.append(Crossing(family, delta_star, direction,
                                      family.multiplicity))
            total += direction * family.multiplicity
        for where, hit in (("start", outcome.zero_at_start),
                           ("eps", outcome.zero_at_eps)):
            if hit:
                zeros.append(EndpointZero(family, where, family.multiplicity))
    return SpectralFlowReport(mode, SF_SIGN_PAPER, crossings, zeros,
                              indeterminate, skipped, window, total)


def walk_kernel(model, r, eps):
    """dim ker at eps from every cell: Type 1 zeros at k = r + eps(q - n/2),
    and an IndeterminateSpectralFlow at the first Type 2 level whose
    vanishing eigenvalue half* is positive and not below the Nakano bound."""
    n = model.n
    total = 0
    for q in range(n + 1):
        kv = r + eps * (q - F(n, 2))
        if kv.denominator == 1:
            total += model.table.h(q, int(kv))
    radius = eps * (n + 2) / 2
    for q in range(n + 1):
        for k in range(math.ceil(r - radius), math.floor(r + radius) + 1):
            bound = nakano_bound(q, k, model.kappa, n)
            if bound > eps / 8:
                continue
            half_star = (eps * eps - (2 * (k - r) - (2 * q + 1 - n) * eps) ** 2) \
                / (8 * eps)
            if half_star > 0 and half_star >= bound:
                raise IndeterminateSpectralFlow(
                    f"kernel at eps={eps} hinges on whether mu^2/2 = "
                    f"{half_star} occurs at (q={q}, k={k}); supply an "
                    "explicit spectrum"
                )
    return total


def outcome_of(call):
    try:
        return call()
    except IndeterminateSpectralFlow as exc:
        return f"indeterminate: {exc}"


@settings(max_examples=120, deadline=None)
@given(n=st.sampled_from([2, 4, 6]), factor=st.sampled_from([1, 2]),
       kappa=st.fractions(min_value=0, max_value=4, max_denominator=6),
       r=st.one_of(st.integers(min_value=-6, max_value=6).map(F),
                   st.fractions(min_value=-6, max_value=6, max_denominator=12)),
       eps=st.fractions(min_value=0, max_value=50, max_denominator=12)
       .filter(lambda e: e > 0))
# large |r| makes the c1 < 0 k-interval of q = 0 or q = n tens of k wide,
# which the kernel then filters: two undecidable kernels at eps = 200 and
# three decidable ones, the last with a Type 1 zero
@example(n=2, factor=1, kappa=F(2), r=F(40), eps=F(200))
@example(n=4, factor=1, kappa=F(0), r=F(-40), eps=F(200))
@example(n=2, factor=1, kappa=F(2), r=F(-29), eps=F(371, 12))
@example(n=4, factor=1, kappa=F(2), r=F(-107, 3), eps=F(32))
@example(n=4, factor=1, kappa=F(2), r=F(-30), eps=F(29, 2))
def test_range_path_matches_cell_walk(n, factor, kappa, r, eps):
    spec, table = product_cp1_model(n)
    model = SpectralModel(spec.name, n, kappa, table)
    report = spectral_flow(model, r, eps, window_factor=factor)
    assert report.to_json() == walk_flow(model, r, eps, factor).to_json()
    assert outcome_of(lambda: kernel_dimension(model, r, eps)) == \
        outcome_of(lambda: walk_kernel(model, r, eps))


def test_endpoint_zero_reporting():
    _, model = make_model(2)
    # r = k + eps at q = 0 puts a Type 1 zero exactly at delta = eps
    eps = F(1, 2)
    r = 1 + eps
    report = spectral_flow(model, r, eps)
    type1_end = [
        z for z in report.endpoint_zeros
        if z.family.kind == TYPE1 and z.where == "eps"
    ]
    assert any(z.family.k == 1 and z.multiplicity == 1 for z in type1_end)
    assert report.total == 0  # endpoint zeros never count as flow


# ------------------------------------------------------------ kernel


def test_kernel_dimension_examples():
    _, model = make_model(2)
    assert kernel_dimension(model, 0, F(7, 10)) == 0
    # zero multiplicity at a Type 1 resonance contributes nothing
    assert kernel_dimension(model, 0, 1) == 0
    # force a Type 1 zero: r = k + eps with k = 1
    eps = F(1, 2)
    assert kernel_dimension(model, 1 + eps, eps) == 1


def test_kernel_indeterminate_in_bound_mode():
    _, model = make_model(2)
    with pytest.raises(IndeterminateSpectralFlow):
        kernel_dimension(model, F(5, 4), 1)


def test_unsupported_dimension_refused_before_any_work():
    # the kernel refuses what the flow refuses, rather than answering 0 for
    # odd n or raising IndeterminateSpectralFlow for n = 1 and n = 0
    for n in (3, 1, 0, -2):
        model = SpectralModel("odd", n, 2, KunnethCohomology(max(n, 0)))
        for call in (spectral_flow, kernel_dimension):
            with pytest.raises(ValueError, match="only positive even complex dimension"):
                call(model, F(1, 3), 5)


def test_mistyped_on_unknown_refused():
    cp1, hyp = resolve_manifold("cp1x4"), resolve_manifold("hyp:n=4,d=8")
    message = "on_unknown must be 'error' or 'skip', got 'skipp'"
    for entry in (cp1, hyp):
        for call in (enumerate_families, spectral_flow):
            with pytest.raises(ValueError, match=message):
                call(entry.model, 0, 1, on_unknown="skipp")


def test_kernel_refuses_skip_mode():
    # a kernel that skipped unknown cells would be a partial count with no
    # sign of it: on hyp:n=4,d=8 at r = 0, eps = 1 the flow skips 24 cells
    # in 6 runs of k and lacks a Ricci bound, and kernel_dimension has no
    # skip mode
    hyp, cp1 = resolve_manifold("hyp:n=4,d=8"), resolve_manifold("cp1x4")
    assert len(spectral_flow(hyp.model, 0, 1, on_unknown="skip").skipped) == 7
    for model, eps in ((hyp.model, 1), (cp1.model, 1), (cp1.model, -1)):
        # refused by the call itself, before any work or the eps check
        with pytest.raises(TypeError, match="on_unknown"):
            kernel_dimension(model, 0, eps, on_unknown="skip")
    with pytest.raises(UnknownCohomologyError, match="unknown"):
        kernel_dimension(hyp.model, 0, 1)
    assert kernel_dimension(cp1.model, 0, 1) == 0


def test_query_signatures():
    # the options no caller set are gone; spectral_flow keeps both
    assert str(inspect.signature(eta_invariant)) == (
        "(manifold: 'ManifoldSpec', model: 'SpectralModel', r, eps, *, N=1, "
        "convention='real', sf_sign='paper') -> 'EtaResult'")
    assert str(inspect.signature(kernel_dimension)) == (
        "(model: 'SpectralModel', r, eps) -> 'int'")
    assert {"window_factor", "on_unknown"} <= set(inspect.signature(spectral_flow).parameters)


def test_kernel_resolved_by_explicit_spectrum(tmp_path):
    # the borderline case above: a zero at eps needs mu^2/2 = 3/32 at
    # (q=0, k=1); decide it both ways with explicit tables
    for half, expected in (("3/32", 5), ("1/16", 0)):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({
            "half_mu_sq_max": "1", "k_min": -4, "k_max": 4,
            "entries": [{"q": 0, "k": 1, "halfMuSq": half, "mult": 5}],
        }))
        spectrum = laplacian_table_load(path, 2, 2)
        _, model = make_model(2, spectrum)
        assert kernel_dimension(model, F(5, 4), 1) == expected


# ------------------------------------------------------------ consistency


def test_inconsistent_alternating_multiplicity_rejected(tmp_path):
    # same eigenvalue with a larger multiplicity one level below gives a
    # negative alternating sum at q = 1: the loader refuses the data
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "3", "k_min": -40, "k_max": 40,
        "entries": [
            {"q": 0, "k": 0, "halfMuSq": "5/2", "mult": 3},
            {"q": 1, "k": 0, "halfMuSq": "5/2", "mult": 1},
        ],
    }))
    with pytest.raises(TableValidationError, match=r"negative alternating "
                       r"multiplicity -2 at \(q=1, k=0, mu\^2/2=5/2\)"):
        laplacian_table_load(path, 2, 2)


def negative_multiplicity_table(tmp_path):
    """Table whose Type 2 family at (q=1, k=0, mu^2/2=2) has the
    alternating multiplicity 2 - 5 = -3."""
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "1000", "k_min": -200, "k_max": 200,
        "entries": [
            {"q": 0, "k": 0, "halfMuSq": "2", "mult": 5},
            {"q": 1, "k": 0, "halfMuSq": "2", "mult": 2},
        ],
    }))
    return path


def test_kernel_dimension_rejects_negative_multiplicity(tmp_path):
    # at r = -8, eps = 16 the inconsistent family would vanish exactly at
    # eps and add -3 to the kernel; the loader refuses the table first
    with pytest.raises(TableValidationError, match="negative alternating "
                       "multiplicity -3 at"):
        laplacian_table_load(negative_multiplicity_table(tmp_path), 2, 2)


def test_inconsistency_outside_every_window_is_refused(tmp_path):
    # the inconsistent level at k = 30 lies outside the Type 2 window of
    # every query with |r| + 2 eps < 30 on (P^1)^2; the table is still
    # refused as a whole
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "100", "k_min": -40, "k_max": 40,
        "entries": [
            {"q": 0, "k": 1, "halfMuSq": "1/16", "mult": 1},
            {"q": 1, "k": 30, "halfMuSq": "31", "mult": 1},
            {"q": 0, "k": 30, "halfMuSq": "31", "mult": 2},
        ],
    }))
    with pytest.raises(TableValidationError, match=r"negative alternating "
                       r"multiplicity -1 at \(q=1, k=30, mu\^2/2=31\)"):
        laplacian_table_load(path, 2, 2)


def test_nakano_consistency_of_tabulated_spectra(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps({
        "half_mu_sq_max": "10", "k_min": -8, "k_max": 8,
        "entries": [
            {"q": 0, "k": 2, "halfMuSq": "1/100", "mult": 3},
            {"q": 1, "k": 3, "halfMuSq": "4", "mult": 2},
            {"q": 2, "k": -4, "halfMuSq": "11", "mult": 1},
        ],
    }))
    spectrum = laplacian_table_load(path, 2, 2)
    for (q, k), entries in spectrum.entries.items():
        bound = nakano_bound(q, k, 2, 2)
        for half, _ in entries:
            assert half >= bound


def test_report_json_shape():
    _, model = make_model(2)
    data = spectral_flow(model, F(1, 2), 1).to_json()
    assert data["mode"] == MODE_NAKANO
    assert data["total"] == 0
    assert data["crossings"] == []
    assert data["indeterminate"] == []
    assert set(data["window"]) == {"type1_k", "type2_k", "half_mu_sq_max", "factor"}

    _, hmodel = hyp_model(4, 8)
    data = spectral_flow(hmodel, 0, 1, on_unknown=ON_UNKNOWN_SKIP).to_json()
    assert data["partial"] is True
    assert data["crossings"][0]["delta_star"] == "1/2"
    assert data["crossings"][0]["kind"] == TYPE1


# ------------------------------------------------------- large windows


def test_large_eps_reports_list_one_entry_per_run():
    # r = 1, eps = 100000: the Type 1 window of a partial table holds
    # 5 * 400001 cells on hyp:n=4,d=8, and the Type 2 window 5 * (600001 - 81)
    # cells outside a spectrum's k-range on cp1x4 with k in [-40, 40]; each
    # is listed as at most (n + 1)(known cells + 1) + 1 runs
    _, partial = hyp_model(4, 8)
    _, explicit = make_model(4, LaplacianSpectrum({}, F(10**6), (-40, 40)))
    name = "'hyp:n=4,d=8'"
    runs = [
        (partial, [f"h^{{0,k}} unknown in table {name} for k in -199999..-2",
                   f"h^{{0,k}} unknown in table {name} for k in 0..200001"]
         + [f"h^{{{q},k}} unknown in table {name} for k in -199999..200001"
            for q in range(1, 5)]
         + ["Type 2 certification needs a Ricci lower bound or an explicit "
            "Laplacian spectrum"]),
        (explicit, [f"Laplacian spectrum missing (q={q}, k in {lo}..{hi}); covered "
                    "k-range is (-40, 40)"
                    for q in range(5) for lo, hi in ((-299999, -41), (41, 300001))]),
    ]
    for model, expected in runs:
        assert len(expected) <= 5 * (1 + 1) + 1
        start = time.perf_counter()
        assert enumerate_families(model, 1, 100000, on_unknown=ON_UNKNOWN_SKIP)[1] == expected
        assert spectral_flow(model, 1, 100000, on_unknown=ON_UNKNOWN_SKIP).skipped == expected
        for call in (enumerate_families, spectral_flow):
            with pytest.raises(UnknownCohomologyError) as caught:
                call(model, 1, 100000)
            assert str(caught.value) == expected[0]
        with pytest.raises(UnknownCohomologyError, match="^(h|Laplacian)"):
            kernel_dimension(model, 1, 100000)
        assert time.perf_counter() - start < 1


def test_window_digit_limit_counts_the_widened_window():
    # a window k is printed, so it may have at most MAX_RATIONAL_DIGITS
    # digits: on n = 4 the Type 2 window reaches 3 eps, 6 * 10^3999 at
    # eps = 2 * 10^3999, and twice that widened twice
    eps = 2 * 10**3999
    _, partial = hyp_model(4, 8)
    _, complete = make_model(4)
    for model in (partial, complete):
        report = spectral_flow(model, 0, eps, on_unknown=ON_UNKNOWN_SKIP)
        assert report.window["type2_k"] == [-3 * eps, 3 * eps]
        for call in (enumerate_families, spectral_flow):
            start = time.perf_counter()
            with pytest.raises(SpectralWindowError, match=(
                    r"^search window for eps = '20000000000000000000'\.\.\. has a k of "
                    r"more than MAX_RATIONAL_DIGITS = 4000 digits$")):
                call(model, 0, eps, window_factor=2)
            assert time.perf_counter() - start < 1
        with pytest.raises(SpectralWindowError, match="MAX_RATIONAL_DIGITS"):
            kernel_dimension(model, 0, 5 * eps)


def test_complete_tables_answer_far_past_the_cell_limit():
    # cp1x4 at r = 1: the window grows with eps, the k-ranges do not
    _, model = make_model(4)
    small = spectral_flow(model, 1, 9999).to_json()
    for eps in (100000, 10**7, 10**30):
        start = time.perf_counter()
        report = spectral_flow(model, 1, eps).to_json()
        kernel_dimension(model, 1, eps)
        assert time.perf_counter() - start < 0.5
        assert len(report["crossings"]) == len(small["crossings"])
        assert report["window"]["type1_k"] == [1 - 2 * eps, 1 + 2 * eps]


def test_family_limit_refuses_before_building_families(monkeypatch):
    # cp1xcp1 at r = eps = 10^6: 10^6 Type 1 k for q = 0 alone
    _, model = make_model(2)
    monkeypatch.setattr(spectral, "EigenvalueFamily",
                        lambda *a, **k: pytest.fail("a family was built"))
    for call in (enumerate_families, spectral_flow, kernel_dimension):
        start = time.perf_counter()
        with pytest.raises(SpectralWindowError, match=f"^more than MAX_FAMILIES = "
                           f"{MAX_FAMILIES} candidate families in the search window "
                           "for eps = 1000000$"):
            call(model, 10**6, 10**6)
        assert time.perf_counter() - start < 1


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4]),
       r=st.fractions(min_value=-40, max_value=40, max_denominator=4),
       eps=st.fractions(min_value=0, max_value=60, max_denominator=4)
       .filter(lambda e: e > 0))
def test_family_limit_counts_the_families_listed(n, r, eps):
    # with the Nakano bound on a (P^1)^n table every candidate is listed:
    # a Type 1 k of q = 0 or n has h != 0, and a Type 2 k has one level
    _, model = make_model(n)
    listed = len(enumerate_families(model, r, eps)[0])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(spectral, "MAX_FAMILIES", listed)
        assert len(enumerate_families(model, r, eps)[0]) == listed
        patch.setattr(spectral, "MAX_FAMILIES", listed - 1)
        for call in (enumerate_families, kernel_dimension):
            with pytest.raises(SpectralWindowError, match="MAX_FAMILIES"):
                call(model, r, eps)


# ------------------------------------------------------- jump law

EXPLICIT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / \
    "cp1xcp1_explicit.json"


@pytest.fixture(scope="module")
def explicit_model():
    return resolve_manifold(str(EXPLICIT_CONFIG)).model


@settings(max_examples=60, deadline=None)
@given(r=st.fractions(min_value=1, max_value=3, max_denominator=12)
       .filter(lambda r: r > 1),
       eps=st.lists(st.fractions(min_value=0, max_value=2, max_denominator=12)
                    .filter(lambda e: e > 0), min_size=2, max_size=2, unique=True))
def test_flow_jump_law(explicit_model, r, eps):
    eps1, eps2 = sorted(eps)
    before = spectral_flow(explicit_model, r, eps1)
    after = spectral_flow(explicit_model, r, eps2)
    # the flow changes by the signed multiplicities crossing in [eps1, eps2)
    jump = sum(c.direction * c.multiplicity for c in after.crossings
               if cmp_value(c.delta_star, eps1) >= 0)
    assert after.total_paper - before.total_paper == jump
    # and the crossings before eps1 are exactly those seen up to eps2
    assert before.crossings == [c for c in after.crossings
                                if cmp_value(c.delta_star, eps1) < 0]


# ------------------------------------------------------- Serre duality


@pytest.mark.parametrize("name, r_max, eps_max", [
    ("explicit", 3, 2), ("cp1xcp1", 6, 50), ("cp1x4", 6, 50),
])
@settings(max_examples=40, deadline=None)
@given(r=st.fractions(min_value=0, max_value=1, max_denominator=24),
       eps=st.fractions(min_value=0, max_value=1, max_denominator=24)
       .filter(lambda e: e > 0))
def test_flow_is_odd_in_r(name, r_max, eps_max, r, eps):
    # Serre duality maps the data at (q, k) to (n - q, -k), so
    # SF(-r, eps) = -SF(r, eps) whenever both reports are exact
    model = resolve_manifold(
        str(EXPLICIT_CONFIG) if name == "explicit" else name).model
    r, eps = r * r_max, eps * eps_max
    plus = spectral_flow(model, r, eps)
    minus = spectral_flow(model, -r, eps)
    if plus.is_exact and minus.is_exact:
        assert minus.total_paper == -plus.total_paper


# ------------------------------------------------------- cost guard


def test_nakano_flow_certifies_as_many_families_at_any_eps(monkeypatch):
    import etaflow.spectral as spectral

    _, model = make_model(4)
    calls = []
    certify = spectral.certify_no_crossing
    monkeypatch.setattr(spectral, "certify_no_crossing",
                        lambda *args: calls.append(args) or certify(*args))
    counts = []
    for eps in (99, 9999):
        calls.clear()
        report = spectral_flow(model, 1, eps)
        assert report.total == 0 and len(report.endpoint_zeros) == 6
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4 * (model.n + 1)


def test_nakano_kernel_at_large_eps():
    # the value the per-cell walk gives (1.6 s there)
    _, model = make_model(4)
    assert kernel_dimension(model, 1, 9999) == 0


# ------------------------------------------- explicit spectra, cell walk


def write_table(path, entries, cutoff, k_range):
    """Write (q, k, mu^2/2, mult) entries as a Laplacian table file."""
    path.write_text(json.dumps({
        "half_mu_sq_max": str(cutoff), "k_min": k_range[0], "k_max": k_range[1],
        "entries": [{"q": q, "k": k, "halfMuSq": str(half), "mult": mult}
                    for q, k, half, mult in entries],
    }))


def explicit_cell_walk(n, entries, cutoff, k_range, r, eps, factor):
    """(families, skipped, window) of a tabulated spectrum, found by visiting
    every cell of both windows, the missing ones collapsed into runs of k;
    each Type 2 multiplicity is the alternating sum over the raw per-degree
    multiplicities of the table."""
    table = KunnethCohomology(n)
    raw = {(q, k, half): mult for q, k, half, mult in entries}
    radius1 = eps * n / 2 * factor
    radius2 = eps * (n + 2) / 2 * factor
    half_mu_max = eps / 8 * factor
    type1_ks = range(math.ceil(r - radius1), math.floor(r + radius1) + 1)
    type2_ks = range(math.ceil(r - radius2), math.floor(r + radius2) + 1)
    families = [EigenvalueFamily(TYPE1, q, k, n, table.h(q, k))
                for q in range(n + 1) for k in type1_ks if table.h(q, k)]
    if cutoff < half_mu_max:
        raise SpectralWindowError(f"spectrum cutoff mu^2/2 <= {cutoff} below the "
                                  f"required {half_mu_max} for eps = {eps}")
    missing = []
    for q in range(n + 1):
        for k in type2_ks:
            if not k_range[0] <= k <= k_range[1]:
                missing.append((q, k))
                continue
            for half in sorted(h for j, kk, h in raw if (j, kk) == (q, k)):
                mult = sum((-1) ** (q - j) * raw.get((j, k, half), 0)
                           for j in range(q + 1))
                if half <= half_mu_max and mult:
                    families += [EigenvalueFamily(kind, q, k, n, mult,
                                                  half_mu_sq=half)
                                 for kind in (TYPE2_PLUS, TYPE2_MINUS)]
    skipped = [missing_message(q, lo, hi, k_range) for q, lo, hi in collapse(missing)]
    window = {
        "type1_k": [type1_ks.start, type1_ks.stop - 1],
        "type2_k": [type2_ks.start, type2_ks.stop - 1],
        "half_mu_sq_max": rational_str(half_mu_max),
        "factor": rational_str(F(factor)),
    }
    return families, skipped, window


def explicit_walk_flow(n, entries, cutoff, k_range, r, eps, factor, skip):
    families, skipped, window = explicit_cell_walk(n, entries, cutoff, k_range,
                                                   r, eps, factor)
    if skipped and not skip:
        raise UnknownCohomologyError(skipped[0])
    return certify_all(families, r, eps, MODE_EXPLICIT, skipped, window)


def explicit_walk_kernel(n, entries, cutoff, k_range, r, eps):
    """dim ker at eps from every cell: Type 1 zeros at k = r + eps(q - n/2)
    and every Type 2 family whose Q vanishes at eps."""
    families, skipped, _ = explicit_cell_walk(n, entries, cutoff, k_range,
                                              r, eps, 1)
    if skipped:
        raise UnknownCohomologyError(skipped[0])
    total = 0
    for family in families:
        if family.kind == TYPE1:
            a0, slope = type1_affine(family, r)
            total += family.multiplicity * (a0 + slope * eps == 0)
        elif family.kind == TYPE2_PLUS:
            total += family.multiplicity * (type2_a(family, r, eps) == eps * eps)
    return total


def result_of(call):
    try:
        return call()
    except (SpectralWindowError, UnknownCohomologyError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def explicit_tables(draw):
    """(n, entries, cutoff, k_range, r, eps): a random consistent table on
    (P^1)^n (kappa = 2), a twist |r| > kappa/2 and an eps that most tables
    make a Type 2 zero of: a level mu^2/2 = half*(k) is added at one cell."""
    n = draw(st.sampled_from([2, 4]))
    if draw(st.booleans()):
        r = F(draw(st.integers(min_value=2, max_value=6)))
    else:
        r = draw(st.fractions(min_value=1, max_value=6, max_denominator=6)
                 .filter(lambda r: r > 1 and r.denominator > 1))
    r *= draw(st.sampled_from([1, -1]))
    eps = draw(st.fractions(min_value=0, max_value=16, max_denominator=6)
               .filter(lambda e: e > 0))
    rng = draw(st.randoms(use_true_random=False))
    radius = eps * (n + 2) / 2
    # mostly covering the window and reaching its cutoff, sometimes not
    k_range = [math.floor(r - radius) - rng.choice([0, 0, 1, 2, -1]),
               math.ceil(r + radius) + rng.choice([0, 0, 1, 2, -1])]
    cutoff = eps / 8 + rng.choice([0, 0, F(1, 3), 2, 2, 2, -F(1, 24)])

    def bound(q, k):
        return nakano_bound(q, k, 2, n)

    levels = {}  # (k, mu^2/2) -> set of q
    zeros = []
    for q in range(n + 1):
        for k in range(k_range[0], k_range[1] + 1):
            C = 2 * q + 1 - n
            half_star = (eps * eps - (2 * (k - r) - C * eps) ** 2) / (8 * eps)
            if half_star > 0 and half_star >= bound(q, k):
                zeros.append((q, k, half_star))
            if rng.random() < 0.3:
                half = bound(q, k) + F(rng.randrange(0 if bound(q, k) else 1, 17), 8)
                levels.setdefault((k, half), set()).add(q)
    if zeros and rng.random() < 0.8:
        q, k, half = rng.choice(zeros)
        levels.setdefault((k, half), set()).add(q)
    # a far eigenvalue keeps every table nonempty, hence tabulated
    entries = [(0, max(k_range) + 100, F(1), 1)]
    for (k, half), qs in levels.items():
        # share the level with other degrees whose bound allows it
        qs |= {j for j in range(n + 1) if bound(j, k) <= half and rng.random() < 0.3}
        alternating = 0
        for q in range(max(qs) + 1):
            mult = 0
            if q in qs:
                # e_q >= d_{q-1} keeps d_q = e_q - d_{q-1} >= 0
                mult = max(1, alternating) + rng.choice([0, 0, 1, 2])
                entries.append((q, k, half, mult))
            alternating = mult - alternating
    return n, entries, cutoff, k_range, r, eps


@settings(max_examples=150, deadline=None)
@given(case=explicit_tables(), factor=st.sampled_from([1, 2]))
def test_explicit_path_matches_cell_walk(tmp_path_factory, case, factor):
    n, entries, cutoff, k_range, r, eps = case
    path = tmp_path_factory.mktemp("table") / "spec.json"
    write_table(path, entries, cutoff, k_range)
    _, model = make_model(n, laplacian_table_load(path, n, 2))
    assert model.mode == MODE_EXPLICIT
    for skip in (False, True):
        on_unknown = ON_UNKNOWN_SKIP if skip else "error"
        got = result_of(lambda: spectral_flow(model, r, eps, window_factor=factor,
                                              on_unknown=on_unknown).to_json())
        want = result_of(lambda: explicit_walk_flow(
            n, entries, cutoff, k_range, r, eps, factor, skip).to_json())
        assert got == want
    assert result_of(lambda: kernel_dimension(model, r, eps)) == \
        result_of(lambda: explicit_walk_kernel(n, entries, cutoff, k_range, r, eps))


def test_explicit_flow_certifies_as_many_families_at_any_eps(tmp_path, monkeypatch):
    import etaflow.spectral as spectral

    # every cell of the eps = 2000 window is covered, and every cell whose
    # Nakano bound is 0 has the eigenvalue 1/3, so a walk over the window
    # would certify about 100 times as many families at eps = 2000
    r = F(5, 2)
    entries = [(0, k, F(1, 3), 1) for k in range(1, 4011)]
    entries += [(2, k, F(1, 3), 1) for k in range(-4010, 0)]
    path = tmp_path / "spec.json"
    write_table(path, entries, 250, (-4010, 4010))
    _, model = make_model(2, laplacian_table_load(path, 2, 2))
    calls = []
    certify = spectral.certify_no_crossing
    monkeypatch.setattr(spectral, "certify_no_crossing",
                        lambda *args: calls.append(args) or certify(*args))
    counts = []
    for eps in (20, 2000):
        calls.clear()
        report = spectral_flow(model, r, eps)
        assert report.is_exact and report.total_paper == -4
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 4 * (model.n + 1)


# ------------------------------------------- kernel against the flow


def eps_zeros(report):
    """The summed multiplicities of a report's zeros at delta = eps, where
    the kernel decides.  No bound-only family (multiplicity None) meets zero
    there: its bound would be 0, which stands for no eigenvalue, since
    mu^2/2 > 0."""
    zeros = [z for z in report.endpoint_zeros if z.where == "eps"]
    assert all(z.multiplicity is not None for z in zeros)
    return sum(z.multiplicity for z in zeros)


def decided_kernel(model, r, eps):
    """kernel_dimension, or None where the data cannot decide it."""
    try:
        return kernel_dimension(model, r, eps)
    except (IndeterminateSpectralFlow, SpectralWindowError, UnknownCohomologyError):
        return None


@pytest.fixture(scope="module")
def kernel_models():
    return {name: resolve_manifold(name).model
            for name in (str(EXPLICIT_CONFIG), "cp1xcp1", "cp1x4")}


@pytest.mark.parametrize("name", [str(EXPLICIT_CONFIG), "cp1xcp1", "cp1x4"],
                         ids=["explicit", "cp1xcp1", "cp1x4"])
@settings(max_examples=150, deadline=None)
@given(r=st.integers(-24, 24).map(lambda a: F(a, 4)),
       eps=st.integers(1, 48).map(lambda b: F(b, 6)))
@example(r=F(-6), eps=F(1))  # 25 Type 1 zeros, none from the bound 0
@example(r=F(5, 2), eps=F(3, 2))
def test_kernel_equals_flow_zeros_at_eps(kernel_models, name, r, eps):
    # two derivations of the zeros at delta = eps: the kernel's
    # half* = N/(8ED) against certify_no_crossing's Q(eps) = 0
    model = kernel_models[name]
    kernel = decided_kernel(model, r, eps)
    if kernel is not None:
        assert eps_zeros(spectral_flow(model, r, eps)) == kernel


@settings(max_examples=100, deadline=None)
@given(case=explicit_tables())
def test_kernel_equals_flow_zeros_on_generated_tables(tmp_path_factory, case):
    n, entries, cutoff, k_range, r, eps = case
    path = tmp_path_factory.mktemp("table") / "spec.json"
    write_table(path, entries, cutoff, k_range)
    _, model = make_model(n, laplacian_table_load(path, n, 2))
    kernel = decided_kernel(model, r, eps)
    if kernel is not None:
        assert eps_zeros(spectral_flow(model, r, eps)) == kernel


# ------------------------------------------------------- window factor


@pytest.mark.parametrize("factor", [F(1, 2), 0, -1])
def test_narrowing_window_factor_is_refused(explicit_model, factor):
    # a narrower window drops crossing families yet reported an exact
    # total: -4 at factor 1/2 and 0 at factor 0 against -5 at factor 1
    r, eps = F(5, 2), 2
    assert spectral_flow(explicit_model, r, eps).total == -5
    entry = resolve_manifold(str(EXPLICIT_CONFIG))
    for call in (lambda: enumerate_families(explicit_model, r, eps, window_factor=factor),
                 lambda: spectral_flow(explicit_model, r, eps, window_factor=factor)):
        with pytest.raises(ValueError, match=f"window_factor must be >= 1, got {factor}"):
            call()
    assert eta_invariant(entry.manifold, entry.model, r, eps).total == F(-135, 8)


# ------------------------------------------------- partial tables, cell walk


def partial_walk(model, r, eps, factor):
    """(families, skipped, window) of a partial cohomology table, found by
    asking the table about every cell of both windows, the unknown ones
    collapsed into runs of k."""
    n = model.n
    radius1 = eps * n / 2 * factor
    radius2 = eps * (n + 2) / 2 * factor
    half_mu_max = eps / 8 * factor
    type1_ks = range(math.ceil(r - radius1), math.floor(r + radius1) + 1)
    type2_ks = range(math.ceil(r - radius2), math.floor(r + radius2) + 1)
    families, unknown = [], []
    for q in range(n + 1):
        for k in type1_ks:
            if not model.table.is_known(q, k):
                unknown.append((q, k))
            elif model.table.h(q, k):
                families.append(EigenvalueFamily(
                    TYPE1, q, k, n, model.table.h(q, k),
                    mult_is_lower_bound=model.table.is_lower_bound(q, k)))
    skipped = [unknown_message(q, lo, hi, model.table.name)
               for q, lo, hi in collapse(unknown)]
    if model.kappa is None:
        skipped.append("Type 2 certification needs a Ricci lower bound or an "
                       "explicit Laplacian spectrum")
    else:
        for q in range(n + 1):
            for k in type2_ks:
                bound = nakano_bound(q, k, model.kappa, n)
                if bound <= half_mu_max:
                    families += [EigenvalueFamily(kind, q, k, n, None, half_mu_sq=bound,
                                                  half_mu_sq_is_bound=True)
                                 for kind in (TYPE2_PLUS, TYPE2_MINUS)]
    window = {
        "type1_k": [type1_ks.start, type1_ks.stop - 1],
        "type2_k": [type2_ks.start, type2_ks.stop - 1],
        "half_mu_sq_max": rational_str(half_mu_max),
        "factor": rational_str(F(factor)),
    }
    return families, skipped, window


@st.composite
def partial_models(draw):
    """A SpectralModel on a random PartialCohomology table: n in {2, 4},
    random known cells near the origin with random h and lower-bound
    flags, and no Ricci bound or a random one."""
    n = draw(st.sampled_from([2, 4]))
    cells = draw(st.lists(st.tuples(st.integers(0, n), st.integers(-30, 30)),
                          max_size=40, unique=True))
    entries = {cell: draw(st.integers(0, 3)) for cell in cells}
    lower_bounds = [cell for cell in cells if draw(st.booleans())]
    kappa = draw(st.one_of(st.none(), st.just(F(0)),
                           st.fractions(min_value=0, max_value=4, max_denominator=6)))
    return SpectralModel("partial", n, kappa,
                         PartialCohomology("partial", entries, lower_bounds))


@settings(max_examples=150, deadline=None)
@given(model=partial_models(),
       r=st.fractions(min_value=-8, max_value=8, max_denominator=6),
       eps=st.fractions(min_value=0, max_value=8, max_denominator=6)
       .filter(lambda e: e > 0),
       factor=st.sampled_from([1, 2]))
def test_partial_table_matches_cell_walk(model, r, eps, factor):
    families, skipped, window = partial_walk(model, r, eps, factor)
    got = enumerate_families(model, r, eps, window_factor=factor,
                             on_unknown=ON_UNKNOWN_SKIP)[1]
    assert got == skipped
    report = spectral_flow(model, r, eps, window_factor=factor,
                           on_unknown=ON_UNKNOWN_SKIP)
    assert report.to_json() == certify_all(families, r, eps, MODE_NAKANO,
                                           skipped, window).to_json()
    error = result_of(lambda: spectral_flow(model, r, eps, window_factor=factor).to_json())
    if skipped:
        assert error == ("UnknownCohomologyError", skipped[0])
    else:
        assert error == report.to_json()


def test_partial_table_is_consulted_equally_often_at_any_eps(monkeypatch):
    # the unknown cells are listed as runs, so the table answers the same
    # questions at eps = 10 and eps = 1000 (7 skipped entries at both)
    _, model = hyp_model(4, 8)
    calls = []
    for name in ("h", "is_known", "known_ks", "is_lower_bound"):
        method = getattr(model.table, name, None)
        if method is None:
            continue
        monkeypatch.setattr(model.table, name,
                            lambda *args, method=method: calls.append(args) or method(*args))
    counts = []
    for eps, skipped in ((10, 7), (1000, 7)):
        calls.clear()
        report = spectral_flow(model, 0, eps, on_unknown=ON_UNKNOWN_SKIP)
        assert len(report.skipped) == skipped
        counts.append(len(calls))
    assert counts[0] == counts[1] <= 3 * (model.n + 1)


# ----------------------------------------------- integer per-q bounds


def fraction_nakano_k_range(q, n, kappa, k_lo, k_hi, half_mu_max):
    """The Nakano k-range in Fractions."""
    half = kappa / 2
    lo, hi = k_lo, k_hi
    if q > 0:
        hi = min(hi, math.floor(half_mu_max / q - half))
    if q < n:
        lo = max(lo, math.ceil(half - half_mu_max / (n - q)))
    return lo, hi


def fraction_flow_ks(q, lo, hi, n, kappa, r):
    """The k where c1 < 0 or B = 0, in Fractions."""
    C = 2 * q + 1 - n
    start = max(lo, math.floor(((n - q) * kappa + C * r) / (n + 1)) + 1)
    stop = min(hi, math.ceil(-(q * kappa + C * r) / (n - 1)) - 1)
    ks = set(range(start, stop + 1))
    if r.denominator == 1 and lo <= r <= hi:
        ks.add(int(r))
    return sorted(ks)


@settings(max_examples=300, deadline=None)
@given(n=st.sampled_from([2, 4, 6]),
       kappa=st.one_of(st.just(F(0)),
                       st.fractions(min_value=0, max_value=4, max_denominator=12)),
       r=st.fractions(min_value=-12, max_value=12, max_denominator=12),
       eps=st.fractions(min_value=0, max_value=40, max_denominator=12)
       .filter(lambda e: e > 0),
       factor=st.sampled_from([1, 2, F(5, 3)]))
@example(n=2, kappa=F(0), r=F(-3), eps=F(1, 12), factor=1)
@example(n=4, kappa=F(2), r=F(-5, 2), eps=F(7, 3), factor=1)
@example(n=6, kappa=F(1, 12), r=F(1, 12), eps=F(12), factor=2)
def test_integer_bounds_match_fraction_formulas(n, kappa, r, eps, factor):
    half_mu_max = eps / 8 * factor
    radius = eps * (n + 2) / 2 * factor
    k_lo, k_hi = math.ceil(r - radius), math.floor(r + radius)
    spec, table = product_cp1_model(n)
    (D, R, E, G, K), _, _, type2, _ = _plan(SpectralModel(spec.name, n, kappa, table),
                                          r, eps, factor)
    assert (F(R, D), F(E, D), F(G, D), F(K, D)) == (r, eps, factor, kappa)
    for q in range(n + 1):
        lo, hi = fraction_nakano_k_range(q, n, kappa, k_lo, k_hi, half_mu_max)
        flow_ks = [k for j, k, _, _ in type2 if j == q]
        assert flow_ks == fraction_flow_ks(q, lo, hi, n, kappa, r)
        assert [(bound, levels) for j, _, bound, levels in type2 if j == q] == \
            [(8 * D * D * nakano_bound(q, k, kappa, n), None) for k in flow_ks]
        # the kernel reads the flow's k: filtered by half* > 0 and
        # half* >= bound, they are every k of the range where the vanishing
        # eigenvalue half* is allowed
        C = 2 * q + 1 - n

        def allowed(k):
            half_star = (eps * eps - (2 * (k - r) - C * eps) ** 2) / (8 * eps)
            return 0 < half_star >= nakano_bound(q, k, kappa, n)

        assert [k for k in flow_ks if allowed(k)] == \
            [k for k in range(lo, hi + 1) if allowed(k)]
