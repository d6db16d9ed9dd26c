"""etaflow: exact eta-invariant, spectral-flow and APS-index calculator
for unit circle bundles of positive line bundles over Fano manifolds.

All arithmetic is exact (rationals and one-square-root sign tests; a
paper_i transgression is returned as its rational real and imaginary
parts); a characteristic class is a triangular table of rationals, row k
holding the delta-polynomial coefficient of c^k; and spectral-flow
vanishing is certified from curvature lower bounds rather than sampled
numerically.  ``series``, the ``Fraction`` reference layer of
``check-identities``, loads only when one of its names is used.
"""

__version__ = "0.1.0"

from .exact import (
    GaussianRational,
    SqrtValue,
    parse_rational,
    rational_str,
    sqrt_sign,
)
from .spectral import (
    EigenvalueFamily,
    LaplacianSpectrum,
    SpectralFlowReport,
    SpectralModel,
    certify_no_crossing,
    enumerate_families,
    kernel_dimension,
    spectral_flow,
    spin_vanishing_predicate,
)
from .catalog import (
    CatalogEntry,
    HypersurfaceSpec,
    ManifoldSpec,
    cohomology_line_cp1,
    general_type_hypersurface_model,
    laplacian_table_load,
    product_cp1_model,
    resolve_manifold,
)
from .eta import (
    CONVENTION_PAPER_I,
    CONVENTION_REAL,
    EtaResult,
    adiabatic_limit_eta,
    aps_index,
    corollary_check,
    eta_invariant,
    transgression_raw,
)

# the reference layer and its exports, loaded on first use of one of them
_SERIES = ("a_hat_class", "class_product", "constant_class", "convention_integral", "exp_class",
           "omega_forms", "series", "series_eta_hat", "series_p", "series_p_prime")

__all__ = sorted({name for name in dir() if not name.startswith("_")} | set(_SERIES))


def __getattr__(name):
    if name in _SERIES:
        from importlib import import_module

        series = import_module(".series", __name__)
        return series if name == "series" else getattr(series, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
