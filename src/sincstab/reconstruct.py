"""Bandlimited reconstruction from nonuniform samples.

Reference signals are finite combinations of sinc translates, exactly
bandlimited, so error measurements carry no model error.  Expansion
coefficients over a perturbed grid come from solving the Gram system
G c = samples by conjugate gradients; in the certified Riesz regime G is
symmetric positive definite with a known eigenvalue sandwich, so CG
convergence is guaranteed.  G is held as its moved rows
(framekit.GramRows), so no n x n matrix is made for the solve.  The
expansion is evaluated from two weighted sums per point, streamed in row
blocks, without an evaluation matrix.
"""

from __future__ import annotations

import json
import logging
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .framekit import GramRows, TruncationWindow, gram_rows
from .grids import MAX_NODE_REAL, PerturbedGrid
from .specfun import SINC_BLOCK, _near_pairs, _sin_cos_pi, sinc_array, sinc_complex_array

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


class ConvergenceError(RuntimeError):
    """Raised when the Gram solve fails to reach the residual tolerance."""

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


def solve_coefficients(samples: Sequence[float], grid: PerturbedGrid,
                       window: Optional[TruncationWindow] = None
                       ) -> ReconstructionResult:
    """Solve G c = samples for the expansion coefficients over the grid.

    G is the (real) Gram matrix of the grid's atoms, held as its moved
    rows (framekit.gram_rows): each CG product streams the m x n moved rows
    and their unmoved columns, and no n x n array is formed.  CG runs to the
    window's relative residual tolerance, capped at min(window cap, 5 * n)
    iterations; failure to converge raises ConvergenceError with the
    iteration count and final residual.
    """
    if grid.is_complex:
        raise ValueError("reconstruction is implemented for real grids only")
    b = np.asarray(samples, dtype=np.float64)
    if b.shape != grid.indices.shape:
        raise ValueError(f"{b.size} samples do not align with {len(grid)} grid nodes")
    if window is None:
        window = TruncationWindow.for_grid(grid)
    G = gram_rows(grid)
    n = len(grid)
    max_iterations = min(window.max_iterations, 5 * n)
    x, rel, iterations, ritz_min = _conjugate_gradient(
        G, b, window.norm_tolerance, max_iterations)
    if rel > window.norm_tolerance:
        raise ConvergenceError(
            f"Gram solve stalled at relative residual {rel:.3e} "
            f"after {iterations} iterations (tolerance {window.norm_tolerance:.1e})",
            iterations=iterations, residual=rel)
    if ritz_min is not None and ritz_min < RITZ_WARNING_FLOOR:
        logger.warning(
            "Gram system looks poorly conditioned: smallest Ritz value %.4f "
            "(the sampling set is degrading the basis)", ritz_min)
    return ReconstructionResult(coefficients=x, residual_norm=rel,
                                solver_iterations=iterations)


def evaluate_reconstruction(result: ReconstructionResult, grid: PerturbedGrid,
                            t_values: Sequence[float]) -> np.ndarray:
    """Evaluate f_hat(t) = sum_n c_n * sinc(t - lambda_n) at the requested t.

    With W_in = 1/(pi (t_i - lambda_n)), f_hat(t_i) is sin(pi t_i) sum_n
    W_in c_n cos(pi lambda_n) - cos(pi t_i) sum_n W_in c_n sin(pi lambda_n).
    W is formed SINC_BLOCK entries at a time in one scratch array, so no
    evaluation matrix is made.  Its near pairs, |Re(t_i - lambda_n)| < 1,
    are zeroed and taken from the direct kernel instead.
    """
    t = np.asarray(t_values, dtype=np.float64)
    if not np.all(np.isfinite(t)):
        raise ValueError("evaluation points must be finite")
    nodes, c = grid.nodes, result.coefficients
    kernel = sinc_complex_array if grid.is_complex else sinc_array
    sin_l, cos_l = _sin_cos_pi(nodes)
    weights = np.stack([c * cos_l, c * sin_l], axis=1)
    sums = np.empty((t.size, 2), dtype=weights.dtype)
    f = np.zeros(t.size, dtype=weights.dtype)
    step = max(1, SINC_BLOCK // max(nodes.size, 1))
    scratch = np.empty((min(step, t.size), nodes.size), dtype=nodes.dtype)
    with np.errstate(divide="ignore"):  # t_i = lambda_n: zeroed, a near pair
        for r0, r1, rows, cols, d in _near_pairs(t, nodes):
            np.add.at(f, rows, c[cols] * kernel(d))
            starts = range(r0, r1, step)
            cuts = np.searchsorted(rows, [*starts, r1]).tolist()
            for i0, a, b in zip(starts, cuts, cuts[1:]):
                i1 = min(i0 + step, r1)
                W = scratch[:i1 - i0]
                np.subtract(t[i0:i1, None], nodes, out=W)
                np.divide(1.0 / np.pi, W, out=W)
                W[rows[a:b] - i0, cols[a:b]] = 0.0
                np.matmul(W, weights, out=sums[i0:i1])
    sin_t, cos_t = _sin_cos_pi(t)
    return f + sin_t * sums[:, 0] - cos_t * sums[:, 1]


def reconstruction_error(t: np.ndarray, f_ref: np.ndarray, f_hat: np.ndarray) -> float:
    """Relative L2 error of the reconstruction f_hat against the reference
    signal f_ref, both sampled at the points t.

    Composite trapezoidal quadrature over t (uniform points in the CLI); the
    integrands are entire and slowly varying, so the scheme is adequate at
    this scale.
    """
    ref_norm = math.sqrt(float(np.trapezoid(f_ref ** 2, t)))
    if ref_norm == 0.0:
        raise ValueError("reference signal vanishes on the evaluation window")
    err_norm = math.sqrt(float(np.trapezoid((f_hat - f_ref) ** 2, t)))
    return err_norm / ref_norm


def write_csv(path, result: ReconstructionResult, grid: PerturbedGrid,
              t: np.ndarray, f_ref: np.ndarray, f_hat: np.ndarray,
              relative_l2_error: float) -> None:
    """Export t, f_ref, f_hat, abs_err rows behind a JSON metadata header
    that records relative_l2_error (from reconstruction_error)."""
    meta = {
        "solver_iterations": result.solver_iterations,
        "residual_norm": result.residual_norm,
        "relative_l2_error": relative_l2_error,
        "nodes": len(grid),
    }
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("# " + json.dumps(meta, sort_keys=True) + "\n")
        fh.write("t,f_ref,f_hat,abs_err\n")
        for ti, ri, hi_ in zip(t.tolist(), f_ref.tolist(), f_hat.tolist()):
            fh.write(f"{ti!r},{ri!r},{hi_!r},{abs(hi_ - ri)!r}\n")
