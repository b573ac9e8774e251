"""Bandlimited reconstruction from nonuniform samples.

Reference signals are finite combinations of sinc translates, exactly
bandlimited, so error measurements carry no model error.  Expansion
coefficients over a perturbed grid come from solving the Gram system
G c = samples by conjugate gradients; in the certified Riesz regime G is
symmetric positive definite with a known eigenvalue sandwich, so CG
convergence is guaranteed.  G is held as its moved block and its rows at
the unmoved integers (framekit.GramRows), so no n x n matrix is made for
the solve.  The expansion is evaluated by specfun.sinc_sum, from two
weighted sums per point streamed in row blocks, without an evaluation
matrix.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .framekit import MAX_ITERATIONS, TOLERANCE, GramRows, gram_rows
from .grids import MAX_NODE_REAL, PerturbedGrid
from .specfun import SINC_BLOCK, sinc_array, sinc_sum

__all__ = [
    "BandlimitedSignal",
    "ReconstructionResult",
    "ConvergenceError",
    "sample_signal",
    "solve_coefficients",
    "evaluate_reconstruction",
    "reconstruction_error",
    "write_csv",
]


logger = logging.getLogger(__name__)

RITZ_WARNING_FLOOR = 0.5  # smallest Ritz value below this flags a degrading basis


class ConvergenceError(ValueError):
    """Raised when the Gram solve fails to reach the residual tolerance; a
    ValueError, as numpy's LinAlgError is."""

    def __init__(self, message: str, iterations: int, residual: float):
        super().__init__(message)
        self.iterations = iterations
        self.residual = residual


@dataclass(frozen=True)
class BandlimitedSignal:
    """f(t) = sum_j c_j * sinc(t - mu_j) for real shifts mu_j.

    Evaluation is exact from the representation.
    """

    shifts: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        shifts = np.asarray(self.shifts, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if shifts.ndim != 1 or shifts.shape != weights.shape or shifts.size == 0:
            raise ValueError("shifts and weights must be aligned nonempty 1-d arrays")
        if not (np.all(np.isfinite(shifts)) and np.all(np.isfinite(weights))):
            raise ValueError("signal representation must be finite")
        if np.max(np.abs(shifts)) >= MAX_NODE_REAL:
            raise ValueError("signal shifts must satisfy |mu| < 2^52, as grid nodes do")
        # W = sum |c_j| <= 2^256 keeps every value finite.  Samples and reference
        # values are at most W (|sinc| <= 1).  The dense limit admits n < 2^14
        # Gram nodes, so ||G|| <= n and ||b||^2 < 2^14 W^2.  With CG's iterates
        # and the coefficients c within g ||b|| (|f_hat| <= sqrt(n) ||c||), CG's
        # inner products stay below 2^28 g^2 W^2 and the trapezoid integrals of
        # squares over an interval shorter than 2^53 below 2^82 g^2 W^2: finite
        # for any g < 2^215.  A float sum overflows to inf silently; inf is refused.
        if sum(map(abs, weights.tolist())) > 2.0 ** 256:
            raise ValueError("signal weights must satisfy sum |c_j| <= 2^256, where the "
                             "samples, the Gram solve and the error quadrature stay finite")
        shifts.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "shifts", shifts)
        object.__setattr__(self, "weights", weights)

    def __call__(self, t) -> np.ndarray:
        """f at each point of t, from SINC_BLOCK sinc terms at a time."""
        t = np.asarray(t, dtype=np.float64)
        flat = t.reshape(-1)
        out = np.empty(flat.size)
        step = max(1, SINC_BLOCK // self.shifts.size)
        for i0 in range(0, flat.size, step):
            block = flat[i0:i0 + step, None] - self.shifts
            out[i0:i0 + step] = sinc_array(block) @ self.weights
        return out.reshape(t.shape)


@dataclass(frozen=True)
class ReconstructionResult:
    """Solved expansion coefficients and the final state of the solver."""

    coefficients: np.ndarray
    residual_norm: float
    solver_iterations: int


def sample_signal(signal: BandlimitedSignal, grid: PerturbedGrid) -> np.ndarray:
    """Evaluate the signal at the grid nodes (real grids only)."""
    if grid.is_complex:
        raise ValueError("reconstruction is implemented for real grids only")
    return signal(grid.nodes)


def _conjugate_gradient(G: GramRows | np.ndarray, b: np.ndarray, rtol: float,
                        max_iterations: int
                        ) -> tuple[np.ndarray, float, int, Optional[float]]:
    """Plain CG for symmetric positive definite G, an array or GramRows:
    only G @ p is taken.

    Returns (x, relative_residual, iterations, smallest Ritz value).  The
    Ritz value comes from the Lanczos tridiagonal implied by the CG
    coefficients and upper-bounds the smallest eigenvalue of G, giving a
    free conditioning probe.
    """
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return np.zeros_like(b), 0.0, 0, None
    x = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rs = float(r @ r)
    alphas: list[float] = []
    betas: list[float] = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        Gp = G @ p
        alpha = rs / float(p @ Gp)
        alphas.append(alpha)
        x += alpha * p
        r -= alpha * Gp
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= rtol * b_norm:
            break
        beta = rs_new / rs
        betas.append(beta)
        p = r + beta * p
        rs = rs_new
    # recompute the true residual; CG's recurrence can drift
    rel = float(np.linalg.norm(b - G @ x)) / b_norm
    return x, rel, iterations, _smallest_ritz(alphas, betas)


def _smallest_ritz(alphas: Sequence[float], betas: Sequence[float]
                   ) -> Optional[float]:
    """Smallest eigenvalue of the Lanczos tridiagonal built from CG steps."""
    if not alphas:
        return None
    from scipy.linalg import eigvalsh_tridiagonal  # here: a CLI start need not load scipy
    a = np.asarray(alphas)
    b = np.asarray(betas[:len(alphas) - 1])  # a capped run ends with one beta too many
    diagonal = 1.0 / a
    diagonal[1:] += b / a[:-1]
    return float(eigvalsh_tridiagonal(diagonal, np.sqrt(b) / a[:-1],
                                      select="i", select_range=(0, 0))[0])


def solve_coefficients(samples: Sequence[float], grid: PerturbedGrid
                       ) -> ReconstructionResult:
    """Solve G c = samples for the expansion coefficients over the grid.

    G is the (real) Gram matrix of the grid's atoms, held as its m x m
    moved block and its u x m rows at the unmoved integers
    (framekit.gram_rows): each CG product streams the block once and the
    rows twice, and no n x n array is formed.  CG runs to the relative
    residual framekit.TOLERANCE, capped at min(framekit.MAX_ITERATIONS,
    5 * n) iterations; failure to converge raises ConvergenceError with the
    iteration count and final residual.
    """
    if grid.is_complex:
        raise ValueError("reconstruction is implemented for real grids only")
    b = np.asarray(samples, dtype=np.float64)
    if b.shape != grid.indices.shape:
        raise ValueError(f"{b.size} samples do not align with {len(grid)} grid nodes")
    x, rel, iterations, ritz_min = _conjugate_gradient(
        gram_rows(grid), b, TOLERANCE, min(MAX_ITERATIONS, 5 * len(grid)))
    if rel > TOLERANCE:
        raise ConvergenceError(
            f"Gram solve stalled at relative residual {rel:.3e} "
            f"after {iterations} iterations (tolerance {TOLERANCE:.1e})",
            iterations=iterations, residual=rel)
    if ritz_min is not None and ritz_min < RITZ_WARNING_FLOOR:
        logger.warning(
            "Gram system looks poorly conditioned: smallest Ritz value %.4f "
            "(the sampling set is degrading the basis)", ritz_min)
    return ReconstructionResult(coefficients=x, residual_norm=rel,
                                solver_iterations=iterations)


def evaluate_reconstruction(result: ReconstructionResult, grid: PerturbedGrid,
                            t_values: Sequence[float]) -> np.ndarray:
    """Evaluate f_hat(t) = sum_n c_n * sinc(t - lambda_n) at the requested t,
    which must be finite, as specfun.sinc_sum(t, nodes, c): streamed in row
    blocks, so no evaluation matrix is made."""
    t = np.asarray(t_values, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("evaluation points must be finite")
    return sinc_sum(t, grid.nodes, result.coefficients)


def reconstruction_error(t: np.ndarray, f_ref: np.ndarray, f_hat: np.ndarray) -> float:
    """Relative L2 error of the reconstruction f_hat against the reference
    signal f_ref, both sampled at the points t.

    Composite trapezoidal quadrature over t (uniform points in the CLI); the
    integrands are entire and slowly varying, so the scheme is adequate at
    this scale.  Both integrals run over u = (t - t[0]) / (t[-1] - t[0]),
    which leaves their ratio as it is and keeps a squared error times a
    spacing of a short window (t in [0, 1e-300], say) from underflowing to
    0.  t must increase from t[0] to t[-1].
    """
    if not t[-1] > t[0]:
        raise ValueError("evaluation points must run from t[0] up to a larger t[-1]")
    u = (t - t[0]) / (t[-1] - t[0])
    ref_norm = math.sqrt(float(np.trapezoid(f_ref ** 2, u)))
    if ref_norm == 0.0:
        raise ValueError("reference signal vanishes on the evaluation window")
    err_norm = math.sqrt(float(np.trapezoid((f_hat - f_ref) ** 2, u)))
    return err_norm / ref_norm


def write_csv(path, result: ReconstructionResult, grid: PerturbedGrid,
              t: np.ndarray, f_ref: np.ndarray, f_hat: np.ndarray,
              relative_l2_error: float) -> None:
    """Export t, f_ref, f_hat, abs_err rows behind a JSON metadata header
    that records relative_l2_error (from reconstruction_error).  The rows
    are converted to Python floats SINC_BLOCK at a time, so the export
    holds no list of every point."""
    meta = {
        "solver_iterations": result.solver_iterations,
        "residual_norm": result.residual_norm,
        "relative_l2_error": relative_l2_error,
        "nodes": len(grid),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,f_ref,f_hat,abs_err\n")
        for i0 in range(0, t.size, SINC_BLOCK):
            block = (x[i0:i0 + SINC_BLOCK].tolist() for x in (t, f_ref, f_hat))
            for ti, ri, hi_ in zip(*block):
                fh.write(f"{ti!r},{ri!r},{hi_!r},{abs(hi_ - ri)!r}\n")
