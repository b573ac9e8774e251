"""Stability theory of perturbed sinc bases, made computable.

The package evaluates closed-form stability thresholds for perturbed
cardinal-series systems, estimates Riesz bounds of truncated systems
numerically, and reconstructs bandlimited functions from nonuniform samples.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    complex_bound_L,
    complex_master,
    critical_A,
    kadec_transfer_lambda,
    lemma_sum_bound,
    power_law_certificate,
    power_law_threshold,
    series_majorant_margin,
    table_lambda,
    table_rows,
)
from .framekit import (
    GramSummary,
    SynthesisMatrix,
    TruncationWindow,
    gram_matrix,
    paley_wiener_check,
    perturbation_norm,
    riesz_bounds_estimate,
    synthesis_matrix,
)
from .grids import (
    PerturbedGrid,
    grid_from_file,
    ingham_grid,
    max_deviation,
    power_law_grid,
    uniform_offset_grid,
)
from .reconstruct import (
    BandlimitedSignal,
    ConvergenceError,
    ReconstructionResult,
    evaluate_reconstruction,
    reconstruction_error,
    sample_signal,
    solve_coefficients,
)
from .specfun import (
    BranchedWValue,
    OseenConstant,
    lamb_oseen_alpha,
    lambert_w0,
    lambert_wm1,
    riemann_zeta,
    sinc,
    sinc_complex,
    zeta_minus_one,
)

__all__ = [
    "__version__",
    "BandlimitedSignal",
    "BoundReport",
    "BranchedWValue",
    "ConvergenceError",
    "GramSummary",
    "OseenConstant",
    "PerturbedGrid",
    "ReconstructionResult",
    "SynthesisMatrix",
    "TruncationWindow",
    "complex_bound_L",
    "complex_master",
    "critical_A",
    "evaluate_reconstruction",
    "gram_matrix",
    "grid_from_file",
    "ingham_grid",
    "kadec_transfer_lambda",
    "lamb_oseen_alpha",
    "lambert_w0",
    "lambert_wm1",
    "lemma_sum_bound",
    "max_deviation",
    "paley_wiener_check",
    "perturbation_norm",
    "power_law_certificate",
    "power_law_grid",
    "power_law_threshold",
    "reconstruction_error",
    "riemann_zeta",
    "riesz_bounds_estimate",
    "sample_signal",
    "series_majorant_margin",
    "sinc",
    "sinc_complex",
    "solve_coefficients",
    "synthesis_matrix",
    "table_lambda",
    "table_rows",
    "uniform_offset_grid",
    "zeta_minus_one",
]
