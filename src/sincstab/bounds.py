"""Closed-form stability thresholds for perturbed sinc systems.

Every estimator returns a :class:`BoundReport` whose ``lambda_value`` is an
upper bound for the relative-deviation constant of the perturbed system; the
system is certified as a Riesz basis when that constant is below 1.  Reports
never raise on a violated bound -- ``satisfies_pw`` goes false instead;
exceptions are reserved for domain errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from .grids import PerturbedGrid, max_deviation
from .specfun import lamb_oseen_alpha, riemann_zeta, sinc, sinc_array, zeta_minus_one

__all__ = [
    "BOUND_NAMES",
    "BoundReport",
    "kadec_transfer_lambda",
    "lemma_sum_bound",
    "power_law_threshold",
    "power_law_certificate",
    "complex_bound_L",
    "complex_master",
    "table_lambda",
    "critical_A",
    "table_rows",
    "series_majorant_margin",
]

BOUND_NAMES = (
    "kadec_transfer",
    "lemma_sum",
    "power_law_threshold",
    "complex_master",
    "table_lambda",
    "empirical_norm",
)

KADEC_EDGE = 0.25
SERIES_TOL = 1e-13  # alternating series stop: tail bounded by first omitted term
CRITICAL_TOL = 1e-6  # bracket width at which the critical-amplitude bisection stops


@dataclass(frozen=True)
class BoundReport:
    """A stability verdict: attained lambda versus the lambda < 1 criterion."""

    bound_name: str
    inputs: dict
    lambda_value: float
    threshold: Optional[float]
    satisfies_pw: bool
    components: Optional[dict] = None
    cross_check: Optional["BoundReport"] = None

    def __post_init__(self):
        if self.bound_name not in BOUND_NAMES:
            raise ValueError(f"unknown bound name {self.bound_name!r}")
        if self.lambda_value < 0.0:
            raise ValueError("lambda estimates are nonnegative by construction")


def kadec_transfer_lambda(L: float) -> BoundReport:
    """Deviation constant transferred from the classical 1/4 estimate.

    lambda = 1 - cos(pi*L) + sin(pi*L), valid and below 1 for 0 <= L < 1/4.
    For L >= 1/4 the report carries satisfies_pw = False (the estimate is
    clamped to >= 1 there: 1/4 is the optimality edge).
    """
    L = float(L)
    if not math.isfinite(L) or L < 0.0:
        raise ValueError(f"deviation bound L must be >= 0, got {L!r}")
    lam = 1.0 - math.cos(math.pi * L) + math.sin(math.pi * L)
    if L >= KADEC_EDGE:
        lam = max(lam, 1.0)
    return BoundReport(
        bound_name="kadec_transfer",
        inputs={"L": L},
        lambda_value=lam,
        threshold=KADEC_EDGE,
        satisfies_pw=lam < 1.0,
    )


def lemma_sum_bound(grid: PerturbedGrid) -> BoundReport:
    """lambda = 2 * sum_n [1 - sinc(lambda_n - n)] over the grid's indices.

    Stated for real grids only; unperturbed indices contribute exactly 0.
    """
    if grid.is_complex:
        raise ValueError("the sum bound applies to real grids only")
    lam = 2.0 * float(np.sum(1.0 - sinc_array(grid.nodes - grid.indices)))
    lam = max(lam, 0.0)
    return BoundReport(
        bound_name="lemma_sum",
        inputs={"nodes": len(grid), "max_deviation": max_deviation(grid)},
        lambda_value=lam,
        threshold=None,
        satisfies_pw=lam < 1.0,
    )


def power_law_threshold(alpha_exponent: float) -> float:
    """Critical amplitude 1/(pi*sqrt(2*sqrt(2)*zeta(2*alpha))).

    Any 0 < A below it makes the power-law grid a certified Riesz basis.
    """
    alpha = float(alpha_exponent)
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(
            f"threshold requires alpha > 1/2 (zeta(2*alpha) finite), got {alpha!r}"
        )
    return 1.0 / (math.pi * math.sqrt(2.0 * math.sqrt(2.0) * riemann_zeta(2.0 * alpha)))


def power_law_certificate(A: float, alpha_exponent: float) -> BoundReport:
    """Certificate lambda = 2*sqrt(2)*(pi*A)^2*zeta(2*alpha) for power-law grids.

    The derivation confines the per-node phase pi*A/n^alpha to (0, pi/4], so
    A may not exceed 1/4.
    """
    A = float(A)
    alpha = float(alpha_exponent)
    if not math.isfinite(A) or A <= 0.0:
        raise ValueError(f"amplitude must satisfy A > 0, got {A!r}")
    if math.pi * A > math.pi / 4.0:
        raise ValueError(
            f"certificate requires pi*A in (0, pi/4], i.e. A <= 1/4; got A = {A!r}"
        )
    threshold = power_law_threshold(alpha)  # validates alpha
    lam = 2.0 * math.sqrt(2.0) * (math.pi * A) ** 2 * riemann_zeta(2.0 * alpha)
    return BoundReport(
        bound_name="power_law_threshold",
        inputs={"A": A, "alpha_exponent": alpha},
        lambda_value=lam,
        threshold=threshold,
        satisfies_pw=lam < 1.0,
    )


def complex_bound_L() -> float:
    """Deviation radius (1/pi)*sqrt(3*alpha/8) below which complex grids are safe.

    alpha is the Lamb-Oseen constant; numerically the radius is 0.218492...,
    strictly below the real-perturbation edge 1/4.
    """
    alpha = lamb_oseen_alpha()
    return math.sqrt(3.0 * alpha / 8.0) / math.pi


def complex_master(L: float) -> BoundReport:
    """Master bound lambda = (e^x - x - 1)/x with x = (8/3)*pi^2*L^2.

    Equals 1 exactly when x is the Lamb-Oseen constant, i.e. when L equals
    complex_bound_L(); tends to 0 as L -> 0.
    """
    L = float(L)
    if not math.isfinite(L) or L < 0.0:
        raise ValueError(f"deviation bound L must be >= 0, got {L!r}")
    x = (8.0 / 3.0) * math.pi ** 2 * L * L
    if x == 0.0:
        lam = 0.0
    elif x < 1e-4:
        # series x/2 + x^2/6 + x^3/24 avoids the e^x - x - 1 cancellation
        lam = x / 2.0 + x * x / 6.0 + x ** 3 / 24.0
    else:
        lam = (math.expm1(x) - x) / x
    return BoundReport(
        bound_name="complex_master",
        inputs={"L": L},
        lambda_value=lam,
        threshold=complex_bound_L(),
        satisfies_pw=lam < 1.0,
    )


def _lambda_series(alpha: float):
    """The split estimate at one exponent, as a function A -> (lambda1, lambda2).

    The zeta weight zeta(2*l*alpha) - 1 of term l does not depend on A, so it
    is computed once, on first use, and kept in a list that lives as long as
    the returned function.  The alternating series is summed until the next
    term falls below SERIES_TOL (at most 199 terms).
    """
    weights: list[float] = []

    def evaluate(A: float) -> tuple[float, float]:
        lambda1 = 2.0 * (1.0 - sinc(A))
        piA2 = (math.pi * A) ** 2
        lambda2 = 0.0
        power = piA2  # (pi*A)^(2l)
        fact = 6.0   # (2l+1)!
        sign = 1.0
        for l in range(1, 200):
            if l > len(weights):
                weights.append(zeta_minus_one(2.0 * l * alpha))
            term = 2.0 * sign * power / fact * weights[l - 1]
            lambda2 += term
            if abs(term) < SERIES_TOL:
                break
            power *= piA2
            fact *= (2.0 * l + 2.0) * (2.0 * l + 3.0)
            sign = -sign
        return lambda1, lambda2

    return evaluate


def _check_exponent(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(f"exponent must satisfy alpha > 1/2, got {alpha!r}")


def _check_amplitude(A: float) -> None:
    if not math.isfinite(A) or A <= 0.0:
        raise ValueError(f"amplitude must satisfy A > 0, got {A!r}")


def _split_report(A: float, alpha: float, series) -> BoundReport:
    """The table_lambda report at A, evaluated on alpha's series."""
    lambda1, lambda2 = series(A)
    lam = lambda1 + lambda2
    return BoundReport(
        bound_name="table_lambda",
        inputs={"A": A, "alpha_exponent": alpha},
        lambda_value=lam,
        threshold=None,
        satisfies_pw=lam < 1.0,
        components={"lambda1": lambda1, "lambda2": lambda2},
    )


def table_lambda(A: float, alpha_exponent: float) -> BoundReport:
    """Split estimate lambda = lambda1 + lambda2 for power-law grids.

    lambda1 = 2*(1 - sinc(A)) collects the n = 1 contribution with zeta
    replaced by 1; lambda2 = 2*sum_l (-1)^(l+1) (pi*A)^(2l)/(2l+1)! *
    [zeta(2*l*alpha) - 1] carries the remaining zeta weight.  The alternating
    series is summed until the next term falls below 1e-13.
    """
    A = float(A)
    alpha = float(alpha_exponent)
    _check_amplitude(A)
    _check_exponent(alpha)
    return _split_report(A, alpha, _lambda_series(alpha))


def _critical_root(series) -> float:
    """Bisection for the root of lambda1 + lambda2 = 1 on one series, down
    to a bracket of width CRITICAL_TOL."""

    def f(A: float) -> float:
        lambda1, lambda2 = series(A)
        return lambda1 + lambda2 - 1.0

    lo, hi = 1e-6, 0.5
    while f(hi) < 0.0:
        if hi >= 1.0:
            raise ValueError(
                f"no sign change: table estimate stays below 1 up to A = {hi}"
            )
        hi = min(hi + 0.1, 1.0)
    values = [f(a) for a in np.linspace(lo, hi, 25).tolist()]
    if not all(b > a for a, b in zip(values, values[1:])):
        raise ValueError("table estimate is not strictly increasing on the bracket")
    if f(lo) >= 0.0:
        raise ValueError(f"no sign change in bracket [{lo}, {hi}]")
    while hi - lo > CRITICAL_TOL:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_A(alpha_exponent: float) -> float:
    """Root A* of table_lambda(A, alpha) = 1, located by bisection.

    The estimate is verified to be strictly increasing in A on the bracket
    before root-finding.  The bracket starts at [1e-6, 0.5] and is widened
    (up to A = 1) when the estimate has not yet crossed 1, which happens for
    large alpha where the zeta weight vanishes.  Every evaluation (about 46
    per root) runs on one _lambda_series for alpha, so each zeta weight
    zeta(2*l*alpha) - 1 is computed once per call: 7 zeta evaluations per
    root at alpha = 1, 8 at alpha = 0.55, about 0.3 ms per root on a 2-core
    VM.  The values are bit-identical to table_lambda's.
    """
    alpha = float(alpha_exponent)
    _check_exponent(alpha)
    return _critical_root(_lambda_series(alpha))


def table_rows(alpha_exponent: float, amplitudes, critical: bool = False
               ) -> list[BoundReport]:
    """table_lambda(A, alpha) for each amplitude, followed, when critical is
    set, by the report at critical_A(alpha).

    Every row and the root are evaluated on one _lambda_series, so each zeta
    weight of the exponent is computed once for the whole list rather than
    once per row; the reports are bit-identical to table_lambda's.
    """
    alpha = float(alpha_exponent)
    _check_exponent(alpha)
    amplitudes = [float(A) for A in amplitudes]
    for A in amplitudes:
        _check_amplitude(A)
    series = _lambda_series(alpha)
    if critical:
        amplitudes.append(_critical_root(series))
    return [_split_report(A, alpha, series) for A in amplitudes]


def series_majorant_margin(k: int) -> Fraction:
    """Exact margin (8/3)^k/(k+1) - 2(k+1)/(2k+1) of the master-series step.

    Nonnegative for every k >= 1, with equality exactly at k = 1; computed
    in rational arithmetic so the equality case is exact.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return Fraction(8 ** k, 3 ** k * (k + 1)) - Fraction(2 * (k + 1), 2 * k + 1)
