"""Finite truncations of the perturbed sinc system and their diagnostics.

The synthesis matrix S holds the expansion coefficients sinc(lambda_n - k)
of the perturbed atoms over the integer-translate basis; S - I measures the
perturbation, and its spectral norm is the empirical deviation constant.
Gram matrices and their extremal eigenvalues estimate the Riesz bounds.
Everything is dense: window sizes here are desk-scale (<= ~4001 rows).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np
import scipy.sparse.linalg

from .bounds import BoundReport, complex_master, lemma_sum_bound
from .grids import PerturbedGrid, max_deviation
from .specfun import sinc_array, sinc_complex_array

__all__ = [
    "TruncationWindow",
    "SynthesisMatrix",
    "GramSummary",
    "synthesis_matrix",
    "perturbation_norm",
    "gram_matrix",
    "riesz_bounds_estimate",
    "paley_wiener_check",
    "dump_matrix",
]

logger = logging.getLogger(__name__)

DEFAULT_PAD_FACTOR = 4
DEFAULT_ROW_CAP = 4001
DENSE_EIG_CUTOFF = 800


@dataclass(frozen=True)
class TruncationWindow:
    """Row range and tolerances governing all matrix truncations.

    row_range is an inclusive (lo, hi) pair of integer translates k; it must
    cover the grid indices n, which label the columns.  norm_tolerance and
    max_iterations drive the iterative estimators (power iteration, CG).
    """

    row_range: tuple[int, int]
    norm_tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.row_range[1] < self.row_range[0]:
            raise ValueError("window row range must be nonempty")
        if not (self.norm_tolerance > 0.0):
            raise ValueError("norm_tolerance must be positive")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")

    @property
    def rows(self) -> np.ndarray:
        return np.arange(self.row_range[0], self.row_range[1] + 1)

    @classmethod
    def symmetric(cls, radius: int, **kwargs) -> "TruncationWindow":
        radius = int(radius)
        return cls(row_range=(-radius, radius), **kwargs)

    @classmethod
    def for_grid(cls, grid: PerturbedGrid, pad_factor: int = DEFAULT_PAD_FACTOR,
                 row_cap: int = DEFAULT_ROW_CAP, **kwargs) -> "TruncationWindow":
        """Default window: grid range padded by pad_factor times the grid
        radius on each side, capped at row_cap rows.  Sinc columns decay like
        1/|k|, so the padding controls the truncation error."""
        lo = int(grid.indices[0])
        hi = int(grid.indices[-1])
        radius = max(abs(lo), abs(hi), 1)
        pad = pad_factor * radius
        excess = (hi - lo + 1) + 2 * pad - row_cap
        if excess > 0:
            pad = max(pad - (excess + 1) // 2, 0)
        return cls(row_range=(lo - pad, hi + pad), **kwargs)


@dataclass(frozen=True)
class SynthesisMatrix:
    """Truncated synthesis matrix: entry (k, n) = sinc(lambda_n - k)."""

    window: TruncationWindow
    row_indices: np.ndarray
    col_indices: np.ndarray
    entries: np.ndarray

    def perturbation(self) -> np.ndarray:
        """S - I, where I is the synthesis matrix of the unperturbed system
        on the same index sets (entry delta_{k,n}, inside the rows)."""
        E = self.entries.copy()
        E[self.col_indices - self.row_indices[0], np.arange(E.shape[1])] -= 1.0
        return E


@dataclass(frozen=True)
class GramSummary:
    """Diagnostics of a truncated system: perturbation norm, extremal Gram
    eigenvalues, and the Riesz bounds they imply."""

    window: TruncationWindow
    perturbation_norm: float
    min_eigenvalue: Optional[float] = None
    max_eigenvalue: Optional[float] = None
    implied_riesz_lower: Optional[float] = None
    implied_riesz_upper: Optional[float] = None
    iterations_used: int = 0
    converged: bool = True


def synthesis_matrix(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
                     ) -> SynthesisMatrix:
    """Build the truncated synthesis matrix of a grid.

    Rows span window.row_range; columns are the grid's listed indices, which
    must lie inside it.  Real grids produce real matrices.
    """
    if window is None:
        window = TruncationWindow.for_grid(grid)
    if int(grid.indices[0]) < window.row_range[0] or int(grid.indices[-1]) > window.row_range[1]:
        raise ValueError("window rows do not cover the grid indices")
    k = window.rows.astype(np.float64)
    if grid.is_complex:
        entries = sinc_complex_array(grid.nodes[None, :] - k[:, None])
    else:
        entries = sinc_array(grid.nodes[None, :] - k[:, None])
    return SynthesisMatrix(window=window, row_indices=window.rows,
                           col_indices=grid.indices.copy(), entries=entries)


def _power_iteration_norm(E: np.ndarray, tol: float, max_iterations: int,
                          seed: int) -> tuple[float, int, bool]:
    """Largest singular value of E by power iteration on E^H E.

    Returns (estimate, iterations, converged).  The Rayleigh quotient
    approaches the top eigenvalue from below; convergence is declared when
    the eigen-residual drops below tol relative to the current estimate.
    """
    rng = np.random.default_rng(seed)
    n = E.shape[1]
    if np.iscomplexobj(E):
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    else:
        v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    rho = 0.0
    for iteration in range(1, max_iterations + 1):
        u = E @ v
        w = E.conj().T @ u
        rho = float(np.real(np.vdot(v, w)))  # = ||E v||^2 for unit v
        resid = float(np.linalg.norm(w - rho * v))
        if resid <= tol * max(rho, 1e-300):
            return math.sqrt(max(rho, 0.0)), iteration, True
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0, iteration, True
        v = w / norm_w
    return math.sqrt(max(rho, 0.0)), max_iterations, False


def perturbation_norm(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                      seed: int = 0, method: str = "power") -> GramSummary:
    """Spectral norm of S - I on the truncation: the empirical deviation
    constant of the perturbed system.

    method "power" (default) uses seeded power iteration with the window's
    tolerance and iteration cap; "dense" computes a full SVD and suits small
    windows.  The converged flag is honest: a non-converged run reports the
    best estimate with converged = False.
    """
    if window is None:
        window = TruncationWindow.for_grid(grid)
    E = synthesis_matrix(grid, window).perturbation()
    if method == "dense":
        norm = float(np.linalg.svd(E, compute_uv=False)[0]) if E.size else 0.0
        iterations, converged = 0, True
    elif method == "power":
        norm, iterations, converged = _power_iteration_norm(
            E, window.norm_tolerance, window.max_iterations, seed)
    else:
        raise ValueError(f"unknown norm method {method!r}")
    return GramSummary(window=window, perturbation_norm=norm,
                       implied_riesz_lower=(1.0 - norm) ** 2 if norm < 1.0 else None,
                       implied_riesz_upper=(1.0 + norm) ** 2,
                       iterations_used=iterations, converged=converged)


def gram_matrix(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
                ) -> np.ndarray:
    """Gram matrix of the grid's atoms.

    Real grids use the closed form G(m, n) = sinc(lambda_m - lambda_n)
    (symmetric, unit diagonal).  Complex grids are routed to the
    window-truncated S^H S, which converges to the Gram as the window grows.
    """
    if grid.is_complex:
        logger.info("complex grid: Gram computed as S^H S on the truncation")
        S = synthesis_matrix(grid, window).entries
        return S.conj().T @ S
    return sinc_array(grid.nodes[:, None] - grid.nodes[None, :])


def _extremal(G: np.ndarray) -> tuple[float, float, bool]:
    """(min, max, converged) eigenvalues of symmetric G: dense for small
    systems, else Lanczos on both ends (nan when it stops with none)."""
    if G.shape[0] <= DENSE_EIG_CUTOFF:
        eigenvalues = np.linalg.eigvalsh(G)
        return float(eigenvalues[0]), float(eigenvalues[-1]), True
    try:
        emin = float(scipy.sparse.linalg.eigsh(
            G, k=1, which="SA", return_eigenvectors=False)[0])
        emax = float(scipy.sparse.linalg.eigsh(
            G, k=1, which="LA", return_eigenvectors=False)[0])
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        ev = exc.eigenvalues
        if not ev.size:
            return math.nan, math.nan, False
        return float(np.min(ev)), float(np.max(ev)), False
    return emin, emax, True


def riesz_bounds_estimate(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                          seed: int = 0) -> GramSummary:
    """Extremal eigenvalues of the truncated Gram matrix plus the bounds
    implied by the perturbation norm.

    G is released before S - I is built, so the two never share memory.
    """
    emin, emax, converged = _extremal(gram_matrix(grid, window))
    summary = perturbation_norm(grid, window, seed=seed)
    return replace(summary,
                   min_eigenvalue=max(emin, 0.0) if math.isfinite(emin) else emin,
                   max_eigenvalue=emax,
                   converged=summary.converged and converged)


def paley_wiener_check(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                       seed: int = 0) -> BoundReport:
    """Empirical stability verdict: lambda = ||S - I|| on the truncation.

    The report passes only when the estimate converged and lies below 1.
    Where an analytic bound applies (real grids: the deviation sum; complex
    constant-offset grids: the master bound) it is attached as cross_check.
    """
    summary = perturbation_norm(grid, window, seed=seed)
    window = summary.window
    cross: Optional[BoundReport] = None
    if not grid.is_complex:
        cross = lemma_sum_bound(grid)
    else:
        offsets = grid.nodes - grid.indices
        if np.allclose(offsets, offsets[0], rtol=0.0, atol=1e-14):
            cross = complex_master(max_deviation(grid))
    lam = summary.perturbation_norm
    return BoundReport(
        bound_name="empirical_norm",
        inputs={"nodes": len(grid), "max_deviation": max_deviation(grid),
                "window_rows": int(window.row_range[1] - window.row_range[0] + 1),
                "converged": summary.converged,
                "iterations": summary.iterations_used},
        lambda_value=lam,
        threshold=None,
        satisfies_pw=(lam < 1.0) and summary.converged,
        cross_check=cross,
    )


def dump_matrix(matrix: np.ndarray, path, row_offset: int = 0, col_offset: int = 0
                ) -> None:
    """Write a matrix as plain text, one ``k n re im`` record per entry."""
    M = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                z = complex(M[i, j])
                fh.write(f"{i + row_offset} {j + col_offset} {z.real!r} {z.imag!r}\n")
