"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line.  Run with `pytest -s tests/test_acceptance.py` to see the lines.
All comparisons are exact (Fraction equality, integer equality)."""

import json
import math
import random
from contextlib import contextmanager
from fractions import Fraction as F

import pytest

from etaflow.catalog import (
    TableValidationError,
    general_type_hypersurface_model,
    laplacian_table_load,
    resolve_manifold,
)
from etaflow.eta import adiabatic_limit_eta, aps_index, corollary_check, eta_invariant
from etaflow.series import (
    class_product,
    eta_hat_series_from_alpha,
    eta_hat_series_integer,
    exp_class,
    omega_forms,
    series_eta_hat,
)
from etaflow.spectral import (
    MODE_NAKANO,
    MUST_VANISH,
    ON_UNKNOWN_SKIP,
    SpectralModel,
    TYPE1,
    spectral_flow,
    spin_vanishing_predicate,
)


@contextmanager
def criterion(number, description):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} FAIL {description}")
        raise
    print(f"ACCEPTANCE {number} PASS {description}")


def models():
    out = {}
    for factors in (2, 4):
        entry = resolve_manifold(f"cp1x{factors}")
        out[factors] = (entry.manifold, entry.model)
    return out


CATALOG = models()
R_GRID = [F(i, 10) for i in range(-10, 11)]  # 21 points
EPS_GRID = [F(1, 10), F(1, 2), F(1), F(2), F(4)]


def test_criterion_1_corollary_vanishing():
    with criterion(1, "corollary vanishing at r=0 (exact, both products)"):
        for factors in (2, 4):
            spec, model = CATALOG[factors]
            assert corollary_check(spec).both_terms_zero
            for eps in (F(1, 10), F(1), F(4)):
                result = eta_invariant(spec, model, 0, eps)
                assert result.total == 0
                assert result.total_paper_sf == 0
                assert result.total_standard_sf == 0


def test_criterion_2_spectral_flow_vanishing():
    with criterion(2, "spectral flow 0 on the 21 x 5 (r, eps) grid"):
        spec, model = CATALOG[2]
        assert spec.kappa == 2
        for r in R_GRID:
            for eps in EPS_GRID:
                report = spectral_flow(model, r, eps)
                assert report.mode == MODE_NAKANO
                assert not report.indeterminate
                assert report.total == 0


def test_criterion_3_counterexample():
    with criterion(3, "general-type crossing at delta=1/2 with flow != 0"):
        hyp, table = general_type_hypersurface_model(4, 8)
        model = SpectralModel(4, None, table)
        report = spectral_flow(model, 0, 1, on_unknown=ON_UNKNOWN_SKIP)
        type1 = [c for c in report.crossings if c.family.kind == TYPE1]
        assert len(type1) == 1
        assert type1[0].delta_star == F(1, 2)
        assert type1[0].multiplicity >= 1
        assert report.total_paper != 0
        assert report.total_standard != 0


def test_criterion_4_adiabatic_values():
    with criterion(4, "adiabatic limits: -1/24 at r=1/2 and 0 at r=0"):
        spec, _ = CATALOG[2]
        # golden value -1/24 was first derived from the independent
        # series oracle (see test_eta.adiabatic_series_oracle)
        assert adiabatic_limit_eta(spec, F(1, 2)) == F(-1, 24)
        assert adiabatic_limit_eta(spec, 0) == 0


def test_criterion_5_transgression_identities():
    with criterion(5, "transgression identities (derivative, FTC, parity)"):
        from etaflow.series import a_hat_class, constant_class, convention_integral, horner

        for factors in (2, 4):
            spec, _ = CATALOG[factors]
            n = spec.n
            two_c = constant_class((0, 2) + (0,) * (n - 1))
            omega0, omega2 = omega_forms(spec.power_sums)
            # (a) derivative identity, symbolically in delta
            assert tuple(tuple(d * a for d, a in enumerate(row))[1:] + (0,)
                         for row in omega0) == class_product(two_c, omega2)
            # (b) fundamental theorem of calculus in delta
            ahat = a_hat_class(spec.power_sums)
            w = class_product(omega2, exp_class(omega0))
            for r in (F(0), F(1, 2)):
                erc = exp_class(constant_class((0, r) + (0,) * (n - 1)))
                for eps in (F(1, 3), F(1)):
                    lhs = convention_integral(
                        tuple(a * spec.top_integral for a in
                              class_product(class_product(two_c, w), erc)[n]),
                        eps,
                    )
                    at_eps = exp_class(constant_class([horner(row, eps)
                                                       for row in omega0]))
                    rhs = class_product(
                        tuple(tuple(a - b for a, b in zip(x, y))
                              for x, y in zip(at_eps, ahat)), erc
                    )[n]
                    assert tuple(a * spec.top_integral for a in rhs) == \
                        (lhs,) + (0,) * n
            # (c) the r=0 integrand has no top-degree component at all
            assert not any(w[n])


def test_criterion_6_eta_hat_structure():
    with criterion(6, "eta-hat series structure (average, parity, constant)"):
        avg = tuple((a + b) / 2 for a, b in zip(eta_hat_series_from_alpha(1, 12),
                                                eta_hat_series_from_alpha(-1, 12)))
        assert avg == eta_hat_series_integer(12)
        eh0 = series_eta_hat(0, 12)
        assert all(not eh0[j] for j in range(0, 13, 2))
        rng = random.Random(101)
        seen = 0
        while seen < 10:
            r = F(rng.randint(-40, 40), rng.randint(1, 12))
            if r.denominator == 1:
                continue
            seen += 1
            alpha = 1 - 2 * (r - math.floor(r))
            assert series_eta_hat(r, 8)[0] == alpha


def test_criterion_7_aps_index():
    with criterion(7, "APS index: 0 at eps=3/7 and -1 at eps=1"):
        spec, model = CATALOG[2]
        table = model.table

        def brute_force(eps):
            total = 0
            for p in (0, 1, 2):
                k = -eps * (F(p) - 1)
                if k.denominator == 1:
                    total += table.h(p, int(k))
            return -F(total, 2)

        assert brute_force(F(3, 7)) == 0
        assert brute_force(F(1)) == -1
        assert aps_index(spec.n, table, F(3, 7)) == brute_force(F(3, 7)) == 0
        assert aps_index(spec.n, table, 1) == brute_force(F(1)) == -1


def test_criterion_8_nakano_vanishing_cross_checks(tmp_path):
    with criterion(8, "vanishing predicate on tables; loader rejects bad entries"):
        for factors in (2, 4):
            spec, model = CATALOG[factors]
            for q in range(factors + 1):
                for k in range(-20, 21):
                    if spin_vanishing_predicate(q, k, spec.kappa, factors) \
                            == MUST_VANISH:
                        assert model.table.h(q, k) == 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(
            [{"q": 1, "k": 3, "halfMuSq": "1", "mult": 1}]
        ))
        with pytest.raises(TableValidationError) as err:
            laplacian_table_load(bad, 2, 2)
        assert "q=1" in str(err.value) and "k=3" in str(err.value)


def test_criterion_9_window_soundness():
    with criterion(9, "doubling/quadrupling windows changes no flow total"):
        _, model = CATALOG[2]
        for r in R_GRID:
            for eps in EPS_GRID:
                base = spectral_flow(model, r, eps)
                for factor in (2, 4):
                    widened = spectral_flow(model, r, eps, window_factor=factor)
                    assert widened.total == base.total
                    assert not widened.indeterminate
