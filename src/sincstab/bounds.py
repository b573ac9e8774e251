"""Closed-form stability thresholds for perturbed sinc systems.

Every estimator returns a :class:`BoundReport` whose ``lambda_value`` is an
upper bound for the relative-deviation constant of the perturbed system; the
system is certified as a Riesz basis when that constant is below 1, as every
report's ``satisfies_pw`` says.  Reports never raise on a violated bound;
exceptions are for domain errors.  The module needs the standard library
alone: lemma_sum_bound and the split table both sum specfun.column_energy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .specfun import column_energy, lamb_oseen_alpha, riemann_zeta, zeta_minus_one

if TYPE_CHECKING:
    from .grids import PerturbedGrid

__all__ = [
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

KADEC_EDGE = 0.25
SERIES_TOL = 1e-13  # alternating series stop: tail bounded by first omitted term
CRITICAL_TOL = 2.0 * sys.float_info.epsilon  # A* stop on |lambda - 1|: 2 ulps above 1, 4 below
LOG_DBL_MAX = math.log(sys.float_info.max)  # largest x with a finite e^x

MAX_TABLE_AMPLITUDE = 10.0  # largest split-table A; its head has N0 <= 246 terms


@dataclass(frozen=True)
class BoundReport:
    """A closed-form bound: lambda (+inf on overflow) and its inputs."""

    bound_name: str
    inputs: dict
    lambda_value: float
    threshold: Optional[float]
    components: Optional[dict] = None

    def __post_init__(self):
        if not self.lambda_value >= 0.0:  # also refuses nan
            raise ValueError(f"lambda estimates are nonnegative by construction, "
                             f"got {self.lambda_value!r}")

    @property
    def satisfies_pw(self) -> bool:
        """The criterion of both theorems: a Riesz basis when lambda < 1."""
        return self.lambda_value < 1.0


def _deviation_bound(L: float) -> float:
    """L as a float, refused unless it is a finite deviation bound >= 0."""
    L = float(L)
    if not math.isfinite(L) or L < 0.0:
        raise ValueError(f"deviation bound L must be >= 0, got {L!r}")
    return L


def _edge_report(bound_name: str, L: float, lam: float, edge: float) -> BoundReport:
    """The report of a deviation-radius bound with its edge as threshold.

    lambda is clamped to >= 1 from the edge on, so the report fails the
    criterion at every L >= edge, whatever the rounded formula reads there.
    """
    if L >= edge:
        lam = max(lam, 1.0)
    return BoundReport(bound_name=bound_name, inputs={"L": L}, lambda_value=lam, threshold=edge)


def kadec_transfer_lambda(L: float) -> BoundReport:
    """Deviation constant transferred from the classical 1/4 estimate.

    lambda = 1 - cos(pi*L) + sin(pi*L), valid and below 1 for 0 <= L < 1/4.
    1/4 is the optimality edge, where _edge_report's clamp starts.
    """
    L = _deviation_bound(L)
    # the period of cos(pi*L) and sin(pi*L) is 2, and fmod reduces by it
    # exactly; pi*L itself overflows from L = 5.7e307
    x = math.pi * math.fmod(L, 2.0)
    lam = 1.0 - math.cos(x) + math.sin(x)
    return _edge_report("kadec_transfer", L, lam, KADEC_EDGE)


def lemma_sum_bound(grid: PerturbedGrid) -> BoundReport:
    """lambda = 2 * sum_n [1 - sinc(delta_n)] over the grid's indices.

    Stated for real grids only; unperturbed indices contribute exactly 0.
    The sum and the reported max |delta_n| read the deviations the grid
    stores, so a tiny delta_n is not rounded to the spacing of doubles at n.
    """
    if grid.is_complex:
        raise ValueError("the sum bound applies to real grids only")
    return BoundReport(
        bound_name="lemma_sum",
        inputs={"nodes": len(grid), "max_deviation": float(max(map(abs, grid.deviations)))},
        lambda_value=math.fsum(map(column_energy, grid.deviations)),
        threshold=None,
    )


def power_law_threshold(alpha_exponent: float) -> float:
    """Critical amplitude 1/(pi*sqrt(2*sqrt(2)*zeta(2*alpha))).

    Any 0 < A below it makes the power-law grid a certified Riesz basis.
    """
    alpha = float(alpha_exponent)
    _check_exponent(alpha)  # zeta(2*alpha) is finite
    return 1.0 / (math.pi * math.sqrt(2.0 * math.sqrt(2.0) * riemann_zeta(2.0 * alpha)))


def power_law_certificate(A: float, alpha_exponent: float) -> BoundReport:
    """Certificate lambda = 2*sqrt(2)*(pi*A)^2*zeta(2*alpha) for power-law grids.

    The derivation confines the per-node phase pi*A/n^alpha to (0, pi/4], so
    A may not exceed 1/4.  lambda is computed as (A / threshold)^2, the same
    quantity, so the verdict agrees with A < threshold at every double: a
    rounded quotient below 1 is at most 1 - 2^-53, whose square is below 1.
    """
    A = float(A)
    alpha = float(alpha_exponent)
    _check_amplitude(A)
    if math.pi * A > math.pi / 4.0:
        raise ValueError(
            f"certificate requires pi*A in (0, pi/4], i.e. A <= 1/4; got A = {A!r}"
        )
    threshold = power_law_threshold(alpha)  # validates alpha
    lam = (A / threshold) ** 2
    return BoundReport(
        bound_name="power_law_threshold",
        inputs={"A": A, "alpha_exponent": alpha},
        lambda_value=lam,
        threshold=threshold,
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

    lambda is 1 exactly at L* = (1/pi)*sqrt(3*alpha/8), alpha the Lamb-Oseen
    constant, and +inf where e^x overflows (x > ln DBL_MAX, from L = 5.19).
    The formula reads 0.9999999999999997 at complex_bound_L(), the smallest
    double above L* (by 1.07e-17; the next one below is 1.70e-17 under L*, by
    a 50-digit root of e^a = 2a + 1), so it is the edge of _edge_report's
    clamp, as 1/4 is kadec_transfer_lambda's: a double L fails iff L > L*.
    """
    L = _deviation_bound(L)
    x = (8.0 / 3.0) * math.pi ** 2 * L * L
    if x < 1e-4:
        # series x/2 + x^2/6 + x^3/24 avoids the e^x - x - 1 cancellation
        lam = x / 2.0 + x * x / 6.0 + x ** 3 / 24.0
    elif x > LOG_DBL_MAX:  # also x = inf, where L * L overflows
        lam = math.inf
    else:
        lam = (math.expm1(x) - x) / x
    return _edge_report("complex_master", L, lam, complex_bound_L())


def _lambda_series(alpha: float):
    """The split estimate at one exponent, as a function A -> (lambda1, lambda2).

    lambda1 = column_energy(A); lambda2 = sum_{2<=n<=N0} column_energy(A/n^alpha)
    + 2 sum_l (-1)^(l+1) (pi*A)^(2l)/(2l+1)! * w_l, w_l = sum_{n>N0} n^(-2*l*alpha).
    N0, the least n >= 1 with pi*A/(n+1)^alpha <= 2, caps the series' cancellation
    at r(2) = (sinh 2/2 - 1)/(1 - sin 2/2) = 1.49; N0 = 1 at A <= 2/pi, where w_l =
    zeta(2*l*alpha) - 1.  Each w_l is computed once per N0, on first use.
    """
    weights: dict[int, list[float]] = {}

    def evaluate(A: float) -> tuple[float, float]:
        n0, lambda2 = 1, 0.0
        if math.pi * A > 2.0:  # else N0 = 1 at every alpha
            n0 = max(1, math.ceil((math.pi * A / 2.0) ** (1.0 / alpha)) - 1)
            lambda2 = math.fsum(column_energy(A * n ** -alpha) for n in range(2, n0 + 1))
        tail = weights.setdefault(n0, [])
        piA2 = (math.pi * A) ** 2
        power = piA2  # (pi*A)^(2l)
        fact = 6.0   # (2l+1)!
        sign = 1.0
        for l in range(1, 200):
            if l > len(tail):
                tail.append(zeta_minus_one(2.0 * l * alpha, n0 + 1))
            term = 2.0 * sign * power / fact * tail[l - 1]
            lambda2 += term
            if abs(term) < SERIES_TOL:
                break
            power *= piA2
            fact *= (2.0 * l + 2.0) * (2.0 * l + 3.0)
            sign = -sign
        return column_energy(A), lambda2

    return evaluate


def _check_exponent(alpha: float) -> None:
    if not math.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(f"exponent must satisfy alpha > 1/2, got {alpha!r}")


def _check_amplitude(A: float) -> None:
    if not math.isfinite(A) or A <= 0.0:
        raise ValueError(f"amplitude must satisfy A > 0, got {A!r}")


def table_lambda(A: float, alpha_exponent: float) -> BoundReport:
    """Split estimate lambda = lambda1 + lambda2 for power-law grids.

    lambda = 2 sum_{n>=1} (1 - sinc(A/n^alpha)) is ||S - I||_HS^2 over every
    column n >= 1 of the power-law grid, lemma_sum_bound over listed columns;
    the certificate 2*sqrt(2)*(pi*A)^2*zeta(2*alpha) is 6*sqrt(2) times its
    quadratic bound (pi*A)^2*zeta(2*alpha)/3.  lambda1 is the n = 1 term and
    lambda2 the rest.  A may not exceed MAX_TABLE_AMPLITUDE.
    """
    return table_rows(alpha_exponent, [A])[0]


def critical_A(alpha_exponent: float) -> float:
    """Root A* of table_lambda(A, alpha) = 1: the amplitude of the critical
    row of table_rows, which states how it is found."""
    return table_rows(alpha_exponent, [], critical=True)[0].inputs["A"]


def table_rows(alpha_exponent: float, amplitudes, critical: bool = False
               ) -> list[BoundReport]:
    """table_lambda(A, alpha) for each amplitude, followed, when critical is
    set, by the report at the critical amplitude A*, the root of lambda = 1.

    All rows share one _lambda_series, so each weight is computed once.

    Every term of lambda(A) = 2 sum_{n>=1} (1 - sinc(A/n^alpha)) grows with A
    on [0, 0.61] (sinc decreases on [0, 1.43]), so lambda rises from 0 to
    lambda(0.61) >= lambda1(0.61) = 1.018 at every exponent.
    A* is found on that bracket by a secant on h(A) = sqrt(lambda) - 1, close
    to linear since lambda grows like A^2, from h(0) = -1 and a probe at 0.3.
    A secant point outside the bracket, or a step not under half the last
    one, is replaced by the midpoint (Dekker's and Brent's safeguard).  The
    search stops at |lambda - 1| <= CRITICAL_TOL or a 4-ulp bracket, and its
    last evaluation is the critical row: 3 series evaluations just above
    alpha = 1/2, 6 at alpha = 1, 7 at 50 and at 1e308.
    """
    alpha = float(alpha_exponent)
    _check_exponent(alpha)
    amplitudes = [float(A) for A in amplitudes]
    for A in amplitudes:
        _check_amplitude(A)
        if A > MAX_TABLE_AMPLITUDE:
            raise ValueError(f"the split estimate takes A <= {MAX_TABLE_AMPLITUDE:g}, got {A!r}")
    series = _lambda_series(alpha)
    rows = [(A, *series(A)) for A in amplitudes]
    if critical:
        lo, hi = 0.0, 0.61
        a, ha, b = 0.0, -1.0, 0.3  # h(0) = -1: lambda(0) = 0
        step = hi - lo
        while True:
            lambda1, lambda2 = series(b)
            lam = lambda1 + lambda2
            if lam < 1.0:
                lo = b
            else:
                hi = b
            if abs(lam - 1.0) <= CRITICAL_TOL or hi - lo <= 4.0 * math.ulp(hi):
                break
            hb = math.sqrt(lam) - 1.0
            x = b - hb * (b - a) / (hb - ha) if hb != ha else hi  # hi: bisect
            if not (lo < x < hi and abs(x - b) < 0.5 * abs(step)):
                x = 0.5 * (lo + hi)
            a, ha, b, step = b, hb, x, x - b
        rows.append((b, lambda1, lambda2))
    return [BoundReport(
        bound_name="table_lambda",
        inputs={"A": A, "alpha_exponent": alpha},
        lambda_value=lambda1 + lambda2,
        threshold=None,
        components={"lambda1": lambda1, "lambda2": lambda2},
    ) for A, lambda1, lambda2 in rows]


def series_majorant_margin(k: int) -> Fraction:
    """Exact margin (8/3)^k/(k+1) - 2(k+1)/(2k+1) of the master-series step.

    Nonnegative for every k >= 1, with equality exactly at k = 1; computed
    in rational arithmetic so the equality case is exact.
    """
    k = int(k)
    if k < 1:
        raise ValueError(f"k must be a positive integer, got {k!r}")
    return Fraction(8 ** k, 3 ** k * (k + 1)) - Fraction(2 * (k + 1), 2 * k + 1)
