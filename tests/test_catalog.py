import itertools
import json
from fractions import Fraction as F

import pytest

from etaflow.catalog import (
    MAX_HYPERSURFACE_DIM,
    CatalogEntry,
    ConfigError,
    HypersurfaceSpec,
    KunnethCohomology,
    ManifoldSpec,
    TableValidationError,
    cohomology_line_cp1,
    general_type_hypersurface_model,
    laplacian_table_load,
    load_config,
    product_cp1_model,
    resolve_manifold,
)
from etaflow.eta import adiabatic_limit_eta, transgression_integrand_poly
from etaflow.spectral import (
    LaplacianSpectrum,
    MODE_EXPLICIT,
    MUST_VANISH,
    spin_vanishing_predicate,
)


def h0_by_monomial_count(d):
    """Independent count: global sections of O(d) on P^1 are the degree-d
    monomials in two variables."""
    return sum(1 for i in range(d + 1) if 0 <= i <= d) if d >= 0 else 0


def test_cohomology_line_cp1_examples():
    assert cohomology_line_cp1(0) == (1, 0)
    assert cohomology_line_cp1(3) == (4, 0)
    assert h0_by_monomial_count(3) == 4
    # duality oracle: h^1(O(d)) = h^0(O(-2-d))
    assert cohomology_line_cp1(-1) == (0, 0)
    for d in range(-8, 8):
        h0, h1 = cohomology_line_cp1(d)
        assert h0 == h0_by_monomial_count(d)
        assert h1 == h0_by_monomial_count(-2 - d)


def kunneth_oracle(factors, q, k):
    """Subset enumeration: pick which factors contribute h^1."""
    h0, h1 = cohomology_line_cp1(k - 1)
    total = 0
    for subset in itertools.combinations(range(factors), q):
        term = 1
        for i in range(factors):
            term *= h1 if i in subset else h0
        total += term
    return total


@pytest.mark.parametrize("factors", [2, 4])
def test_kunneth_table_matches_enumeration(factors):
    table = KunnethCohomology(factors)
    for q in range(factors + 1):
        for k in range(-4, 5):
            assert table.h(q, k) == kunneth_oracle(factors, q, k)


def test_kunneth_closed_forms():
    table = KunnethCohomology(2)
    for k in range(1, 8):
        assert table.h(0, k) == k * k
        assert table.h(2, -k) == k * k
    for k in range(-8, 9):
        assert table.h(1, k) == 0
    assert table.h(0, 0) == table.h(1, 0) == table.h(2, 0) == 0
    assert KunnethCohomology(4).h(0, 2) == 2**4


def test_kunneth_duality():
    for factors in (2, 4):
        table = KunnethCohomology(factors)
        for q in range(factors + 1):
            for k in range(-20, 21):
                assert table.h(q, k) == table.h(factors - q, -k)


def test_product_model_ring_and_curvature():
    spec, table = product_cp1_model(2)
    assert spec.name == "cp1xcp1" and spec.n == 2
    assert spec.kappa == 2
    # Ricci bound at the level of first Chern classes: c1(K*) = s_1 c = 2c
    assert spec.power_sums[1] == 2
    # adjunction: c1 of the canonical square root is -(1/2) sum of roots = -c
    assert spec.power_sums[1] * F(-1, 2) == -1
    # the roots 2a_i square to zero: s_0 = n and s_k = 0 for k >= 2
    assert spec.power_sums == (2, 2, 0)
    assert product_cp1_model(4)[0].power_sums == (4, 2, 0, 0, 0)
    # c^n = n! a_1 ... a_n integrates to n!
    assert spec.top_integral == 2
    assert product_cp1_model(6)[0].top_integral == 720
    with pytest.raises(ConfigError):
        product_cp1_model(3)


def test_product_tables_satisfy_spin_vanishing():
    for factors in (2, 4):
        spec, table = product_cp1_model(factors)
        for q in range(factors + 1):
            for k in range(-20, 21):
                if spin_vanishing_predicate(q, k, spec.kappa, factors) == MUST_VANISH:
                    assert table.h(q, k) == 0


def test_hypersurface_examples():
    spec, table = general_type_hypersurface_model(4, 8)
    assert spec.k0 == -1
    assert table.h(0, -1) == 1
    assert table.is_lower_bound(0, -1)
    assert not table.is_known(0, 0)
    with pytest.raises(LookupError):
        table.h(0, 2)
    # predicted Type 1 crossing parameter -2 k0 / n
    assert F(-2 * spec.k0, spec.n) == F(1, 2)

    spec2, _ = general_type_hypersurface_model(2, 6)
    assert spec2.k0 == -1  # K_X^* = O(-2), negative

    with pytest.raises(ConfigError):
        general_type_hypersurface_model(3, 8)  # odd dimension
    with pytest.raises(ConfigError):
        general_type_hypersurface_model(4, 7)  # odd degree
    with pytest.raises(ConfigError):
        general_type_hypersurface_model(4, 6)  # d <= n + 2


def test_laplacian_loader_empty_falls_back(tmp_path):
    # an empty table, as an array or as an object, loads as bound-only mode
    path = tmp_path / "empty.json"
    for text in ("[]", '{"half_mu_sq_max": "10", "entries": []}'):
        path.write_text(text)
        assert laplacian_table_load(path, 2, 2) is None


def test_laplacian_loader_rejects_bound_violation(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(
        [{"q": 1, "k": 3, "halfMuSq": "1", "mult": 2}]
    ))
    # the Nakano bound max(q(k + kappa/2), (n - q)(kappa/2 - k)) at q = 1,
    # k = 3, kappa = 2, n = 2 is max(4, -2) = 4
    with pytest.raises(TableValidationError, match="lower bound 4$") as err:
        laplacian_table_load(path, 2, 2)
    assert "q=1" in str(err.value) and "k=3" in str(err.value)


def test_laplacian_loader_accepts_bound_equality(tmp_path):
    path = tmp_path / "ok.json"
    path.write_text(json.dumps(
        [{"q": 1, "k": 3, "halfMuSq": "4", "mult": 2}]
    ))
    spectrum = laplacian_table_load(path, 2, 2)
    assert spectrum == LaplacianSpectrum({(1, 3): ((F(4), 2),)}, F(4), (3, 3))
    assert spectrum.eigenvalues(1, 3) == ((F(4), 2),)
    assert spectrum.eigenvalues(0, 3) == ()


def test_laplacian_loader_schema_errors(tmp_path):
    for payload in (
        [{"q": 0, "k": 1, "halfMuSq": "-1", "mult": 1}],  # nonpositive
        [{"q": 0, "k": 1, "halfMuSq": "1", "mult": 0}],  # zero multiplicity
        [{"q": 5, "k": 1, "halfMuSq": "1", "mult": 1}],  # q out of range
        [{"k": 1, "halfMuSq": "1", "mult": 1}],  # missing q
        [{"q": 0, "k": 1, "halfMuSq": "1", "mult": 1}] * 2,  # duplicate
    ):
        path = tmp_path / "case.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(TableValidationError):
            laplacian_table_load(path, 2, 2)


def test_float_literal_gets_the_string_forms_refusal(tmp_path):
    # a JSON number literal keeps its exact decimal value: read through a
    # float, 1.99999999999999999 would become 2 and pass the bound of 2
    # the Nakano bound max(q(k + kappa/2), (n - q)(kappa/2 - k)) at q = k = 0
    # is max(0, 2) = 2
    messages = []
    for value in ('"1.99999999999999999"', "1.99999999999999999"):
        path = tmp_path / "near.json"
        path.write_text(f'[{{"q": 0, "k": 0, "halfMuSq": {value}, "mult": 1}}]')
        with pytest.raises(TableValidationError, match="violates the curvature "
                           "lower bound 2") as err:
            laplacian_table_load(path, 2, 2)
        messages.append(str(err.value))
    assert messages[0] == messages[1]
    # an exponent literal is refused as on the command line
    path.write_text('[{"q": 0, "k": 2, "halfMuSq": 1e400, "mult": 1}]')
    with pytest.raises(ValueError, match="accepted forms"):
        laplacian_table_load(path, 2, 2)


def test_declared_cutoff_literal_keeps_its_exact_value(tmp_path):
    path = tmp_path / "cutoff.json"
    path.write_text('{"half_mu_sq_max": 100.00000000000000001, "entries": '
                    '[{"q": 0, "k": 2, "halfMuSq": 3, "mult": 1}]}')
    spectrum = laplacian_table_load(path, 2, 2)
    assert spectrum.half_mu_sq_max == F(10000000000000000001, 10**17)


@pytest.mark.parametrize("field", ["q", "k", "mult", "k_min", "n", "d"])
def test_non_integral_fields_are_refused_not_truncated(tmp_path, field):
    entry = {"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}
    table = {"k_min": -5, "k_max": 5, "entries": [entry]}
    config = {"type": "product_cp1", "factors": 2, "laplacian_table": "spec.json"}
    if field in ("n", "d"):
        config = {"type": "hypersurface_general_type", "n": 4, "d": 8}
    target = entry if field in entry else table if field in table else config
    target[field] = 0.7 if field != "d" else 8.5
    (tmp_path / "spec.json").write_text(json.dumps(table))
    (tmp_path / "man.json").write_text(json.dumps(config))
    error = ConfigError if field in ("n", "d") else TableValidationError
    with pytest.raises(error, match=f"'{field}' must be an integer, got "):
        load_config(tmp_path / "man.json")
    # an integral literal such as 2.0 is the integer it spells
    target[field] = {"q": 0.0, "k": 2.0, "mult": 3.0, "k_min": -5.0,
                     "n": 4.0, "d": 8.0}[field]
    (tmp_path / "spec.json").write_text(json.dumps(table))
    (tmp_path / "man.json").write_text(json.dumps(config))
    assert load_config(tmp_path / "man.json").model.n in (2, 4)


def test_catalog_records_are_values():
    first, second = resolve_manifold("cp1x4"), resolve_manifold("cp1x4")
    assert first.manifold is not second.manifold
    assert first.manifold == second.manifold
    assert hash(first.manifold) == hash(second.manifold)
    spec = first.manifold
    assert spec == ManifoldSpec(name=spec.name, n=spec.n,
                                top_integral=spec.top_integral,
                                power_sums=spec.power_sums, kappa=spec.kappa)
    assert spec != ManifoldSpec(spec.name, spec.n, spec.top_integral,
                                spec.power_sums, None)
    hyp = general_type_hypersurface_model(4, 8)[0]
    assert hyp == HypersurfaceSpec(n=4, degree=8)
    assert hash(hyp) == hash(HypersurfaceSpec(4, 8)) and hyp != HypersurfaceSpec(4, 10)
    # a catalog entry can be renamed in place, so it compares by value but
    # has no hash
    assert CatalogEntry("x", second.model) == CatalogEntry("x", second.model)
    with pytest.raises(TypeError):
        hash(first)


def test_manifold_spec_is_immutable_and_hashed_once():
    hashed = []

    class Counted(F):
        def __hash__(self):
            hashed.append(self)
            return super().__hash__()

    spec = ManifoldSpec("counted", 2, Counted(2), (2, 2, 0), F(2))
    assert len(hashed) == 1  # at construction
    assert hash(spec) == hash(spec) and len(hashed) == 1
    assert spec == ManifoldSpec("counted", 2, F(2), (2, 2, 0), F(2))
    assert repr(spec) == ("ManifoldSpec(name='counted', n=2, top_integral=Counted(2, 1), "
                          "power_sums=(2, 2, 0), kappa=Fraction(2, 1))")
    for field, value in (("n", 4), ("kappa", None), ("extra", 1)):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(spec, field, value)
    assert spec.n == 2 and spec.kappa == 2 and not hasattr(spec, "extra")


def test_manifold_spec_validation():
    with pytest.raises(ValueError, match="^complex dimension must be >= 1$"):
        ManifoldSpec("bad", 0, 1, (0,), None)
    with pytest.raises(ValueError, match="^top integral must be nonzero$"):
        ManifoldSpec("bad", 1, 0, (1, 0), None)
    with pytest.raises(TypeError):
        ManifoldSpec("bad", 1, 0.5, (1, 0), None)
    spec = ManifoldSpec("ok", 2, 3, (2, 2, 0), F(2))
    assert type(spec.top_integral) is F and spec.top_integral == 3
    # a value: equal fields give equal, equally hashed specs
    assert spec == ManifoldSpec(name="ok", n=2, top_integral=F(3),
                                power_sums=(2, 2, 0), kappa=F(2))
    assert hash(spec) == hash(ManifoldSpec("ok", 2, F(3), (2, 2, 0), F(2)))
    assert spec != ManifoldSpec("ok", 2, 1, (2, 2, 0), F(2))
    assert repr(spec) == ("ManifoldSpec(name='ok', n=2, top_integral=Fraction(3, 1), "
                          "power_sums=(2, 2, 0), kappa=Fraction(2, 1))")


def test_top_integral_counts_square_free_monomials():
    # on (CP1)^2, c = a + b with a^2 = b^2 = 0, so c^2 = 2ab integrates to 2
    assert product_cp1_model(2)[0].top_integral == 2
    # (a+b+c+d)^4 on (CP1)^4: the multinomial count of square-free
    # degree-8 monomials is the number of orderings of {a,b,c,d} = 4!
    count = sum(
        1
        for perm in itertools.product(range(4), repeat=4)
        if sorted(perm) == [0, 1, 2, 3]
    )
    assert count == 24 == product_cp1_model(4)[0].top_integral


def test_nonunit_top_integral_scales_both_terms():
    # the same power sums with the integral of c^n equal to 1 and to 3
    sums = (2, 2, 2)
    unit = ManifoldSpec("unit", 2, 1, sums, None)
    tripled = ManifoldSpec("tripled", 2, 3, sums, None)
    for r in (F(1, 2), F(1, 3)):
        assert adiabatic_limit_eta(tripled, r) == 3 * adiabatic_limit_eta(unit, r) != 0
        poly = transgression_integrand_poly(unit, r)
        assert any(poly)
        assert transgression_integrand_poly(tripled, r) == tuple(3 * a for a in poly)


def test_spec_checks_keep_their_messages():
    with pytest.raises(ValueError, match=r"^need one power sum for each k = 0\.\.n$"):
        ManifoldSpec("m", 2, 2, (2, 2), F(2))
    cases = [
        ((3, 8), "^complex dimension n must be a positive even integer$"),
        ((0, 8), "^complex dimension n must be a positive even integer$"),
        ((34, 38), "^hypersurface dimension n = 34 exceeds MAX_HYPERSURFACE_DIM = 32$"),
        ((4, 7), "^degree must be even for a spin square root$"),
        ((4, 6), r"^need degree d > n \+ 2 for general type$"),
    ]
    for (n, d), message in cases:
        with pytest.raises(ConfigError, match=message):
            HypersurfaceSpec(n, d)


def test_resolve_builtins():
    assert resolve_manifold("cp1xcp1").model.n == 2
    assert resolve_manifold("cp1x4").model.n == 4
    entry = resolve_manifold("hyp:n=4,d=8")
    assert entry.manifold is None and general_type_hypersurface_model(4, 8)[0].k0 == -1
    assert entry.model.table.entries == {(0, -1): 1}
    with pytest.raises(ConfigError):
        resolve_manifold("nonexistent-thing")


def test_load_config_round_trip(tmp_path):
    table = tmp_path / "spec.json"
    table.write_text(json.dumps({
        "half_mu_sq_max": "10",
        "k_min": -5,
        "k_max": 5,
        "entries": [{"q": 0, "k": 2, "halfMuSq": "3", "mult": 1}],
    }))
    cfg = tmp_path / "man.json"
    cfg.write_text(json.dumps({
        "name": "custom", "type": "product_cp1", "factors": 2,
        "laplacian_table": "spec.json",
    }))
    entry = load_config(cfg)
    assert entry.name == "custom"
    assert entry.model.mode == MODE_EXPLICIT
    assert entry.model.spectrum.half_mu_sq_max == 10
    assert entry.model.spectrum.k_range == (-5, 5)

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"type": "flag-variety"}))
    with pytest.raises(ConfigError):
        load_config(bad)


def test_product_size_limit(tmp_path):
    from etaflow.catalog import MAX_CP1_FACTORS

    assert product_cp1_model(MAX_CP1_FACTORS)[0].n == MAX_CP1_FACTORS
    for make in (lambda: product_cp1_model(MAX_CP1_FACTORS + 2),
                 lambda: resolve_manifold("cp1x100000")):
        with pytest.raises(ConfigError) as err:
            make()
        assert f"MAX_CP1_FACTORS = {MAX_CP1_FACTORS}" in str(err.value)
    cfg = tmp_path / "big.json"
    cfg.write_text(json.dumps({"type": "product_cp1", "factors": 1000}))
    with pytest.raises(ConfigError):
        load_config(cfg)


def test_hypersurface_dimension_limit(tmp_path):
    assert MAX_HYPERSURFACE_DIM == 32
    spec, _ = general_type_hypersurface_model(32, 36)
    assert spec.n == MAX_HYPERSURFACE_DIM
    with pytest.raises(ConfigError, match="MAX_HYPERSURFACE_DIM = 32"):
        general_type_hypersurface_model(34, 38)
    with pytest.raises(ConfigError, match="MAX_HYPERSURFACE_DIM"):
        resolve_manifold("hyp:n=400,d=404")
    path = tmp_path / "hyp.json"
    path.write_text(json.dumps({"type": "hypersurface_general_type",
                                "n": 400, "d": 404}))
    with pytest.raises(ConfigError, match="MAX_HYPERSURFACE_DIM"):
        load_config(path)
