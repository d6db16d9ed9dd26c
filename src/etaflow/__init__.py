"""etaflow: exact eta-invariant, spectral-flow and APS-index calculator
for unit circle bundles of positive line bundles over Fano manifolds.

All arithmetic is exact (rationals and one-square-root sign tests; a
paper_i transgression is returned as its rational real and imaginary
parts); a characteristic class is a triangular table of rationals, row k
holding the delta-polynomial coefficient of c^k; and spectral-flow
vanishing is certified from curvature lower bounds rather than sampled
numerically.
"""

__version__ = "0.1.0"

from .exact import (
    GaussianRational,
    SqrtValue,
    parse_rational,
    rational_str,
    sqrt_sign,
)
from .series import (
    a_hat_class,
    class_product,
    constant_class,
    exp_class,
    omega_forms,
    series_eta_hat,
    series_p,
    series_p_prime,
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
    convention_integral,
    corollary_check,
    eta_invariant,
    transgression_raw,
)

__all__ = [name for name in dir() if not name.startswith("_")]
