"""Finite truncations of the perturbed sinc system and their diagnostics.

The synthesis matrix S holds the expansion coefficients sinc(lambda_n - k)
of the perturbed atoms over the integer-translate basis; S - I measures the
perturbation.  Its spectral norm on a row window is only a lower bound for
the grid's deviation constant, so this module gives no verdict: only bounds,
which it does not import, certifies lambda < 1.  Gram matrices and their
extremal eigenvalues estimate the Riesz bounds.  A grid takes the complex
paths below exactly when grids.PerturbedGrid has made it complex.
S is a dense array (synthesis_matrix returns S itself), built in one pass
of row blocks by specfun.sinc_matrix from per-node sines and cosines (a
rank-2 numerator over pi times the node difference, one term on integer
rows, so on every row of S; pairs closer than 1, found once per matrix by
a search of the sorted nodes, evaluated directly); a matrix over
specfun.MAX_DENSE_BYTES is refused with ValueError before anything of its
size is allocated.  The norm holds S - I on the moved columns only.
A Gram matrix is held as its moved rows (GramRows): an unmoved atom is
an integer translate, so its row is a unit vector and its column mirrors
the moved rows.  A real grid's moved rows are sinc_matrix(moved nodes,
nodes); a complex grid's are the window's S^H S, assembled from the
norm's S - I (see _norm_and_gram), so a complex riesz_bounds_estimate
builds S - I once for its norm and G, and a real one builds S - I,
releases it, then builds G's moved rows.  Either hands G back with its
summary.  Eigenvalues are exact (eigvalsh) for every complex matrix and
up to DENSE_EIG_CUTOFF columns otherwise, from one real ARPACK run above
("LA" for the norm, "BE" for a Gram matrix, whose products stream the
moved rows and form no n x n array): ARPACK's complex path needs a run
per end, is slower and stalls once |Im lambda| ~ 1.  The dense Gram
matrix is formed only for eigvalsh, a dump and gram_matrix; ARPACK and
reconstruct's CG apply G @ p to the moved rows.  A smallest
Gram eigenvalue below the solve's resolution, or above what G's 2 x 2
principal minors allow, is reported as None.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .grids import PerturbedGrid
from .specfun import SINC_BLOCK, check_dense_size, sinc_array, sinc_matrix

__all__ = [
    "TruncationWindow",
    "GramSummary",
    "GramRows",
    "synthesis_matrix",
    "perturbation_norm",
    "gram_rows",
    "gram_matrix",
    "riesz_bounds_estimate",
    "dump_matrix",
]

DEFAULT_PAD_FACTOR = 4
DEFAULT_ROW_CAP = 4001
DENSE_EIG_CUTOFF = 800


@dataclass(frozen=True)
class TruncationWindow:
    """Row range and tolerances governing all matrix truncations.

    row_range is an inclusive (lo, hi) pair of integer translates k; it must
    cover the grid indices n, which label the columns.  norm_tolerance and
    max_iterations drive the iterative estimators: ARPACK's tolerance and
    restart cap, and CG's relative residual and step cap.
    """

    row_range: tuple[int, int]
    norm_tolerance: float = 1e-10
    max_iterations: int = 10_000

    def __post_init__(self):
        if self.row_range[1] < self.row_range[0]:
            raise ValueError("window row range must be nonempty")
        if not (0.0 < self.norm_tolerance < 1.0):  # x = 0 meets a relative residual of 1
            raise ValueError("norm_tolerance must lie strictly between 0 and 1")
        if not 1 <= self.max_iterations <= 2**31 - 1:  # ARPACK's Fortran integer is 32-bit
            raise ValueError("max_iterations must lie between 1 and 2^31 - 1")

    @classmethod
    def for_grid(cls, grid: PerturbedGrid, **kwargs) -> "TruncationWindow":
        """Default window: grid range padded by DEFAULT_PAD_FACTOR times the
        grid radius on each side, capped at DEFAULT_ROW_CAP rows.  Sinc
        columns decay like 1/|k|, so the padding controls the truncation
        error."""
        lo = int(grid.indices[0])
        hi = int(grid.indices[-1])
        radius = max(abs(lo), abs(hi), 1)
        pad = max(min(DEFAULT_PAD_FACTOR * radius, (DEFAULT_ROW_CAP - (hi - lo + 1)) // 2), 0)
        return cls(row_range=(lo - pad, hi + pad), **kwargs)


@dataclass(frozen=True)
class GramSummary:
    """Diagnostics of a truncated system: perturbation norm, extremal Gram
    eigenvalues, and the Riesz bounds they imply.  The Gram eigenvalues are
    None in perturbation_norm's summary; in riesz_bounds_estimate's, a None
    min_eigenvalue is one the solve did not resolve."""

    window: TruncationWindow
    perturbation_norm: float
    min_eigenvalue: Optional[float] = None
    max_eigenvalue: Optional[float] = None
    implied_riesz_lower: Optional[float] = None
    implied_riesz_upper: Optional[float] = None
    iterations_used: int = 0
    converged: bool = True


def _run(positions: np.ndarray):
    """Sorted distinct positions as a slice when they form one run (or
    none), so that indexing with them gives views, else as they are."""
    if positions.size == 0:
        return slice(0, 0)
    if positions[-1] - positions[0] < positions.size:
        return slice(int(positions[0]), int(positions[-1]) + 1)
    return positions


class GramRows:
    """An n x n Hermitian Gram matrix G held as its moved rows.

    rows is R = G[moved], m x n for the m nodes with lambda_n != n.  Every
    unmoved row of G is the unit vector at its own position (an unmoved
    atom is the integer translate sinc(t - n)), so every unmoved column is
    the conjugate mirror of R.  moved and unmoved are slices when they form
    one run, as on every generated grid, so that sub-blocks of R are views.
    g @ p is G p: R p on the moved entries and p + R[:, unmoved]^H p[moved]
    on the unmoved ones, streaming R once and its unmoved columns once, with
    no copy of R.  dense() forms the n x n matrix on its first call.
    """

    def __init__(self, rows: np.ndarray, moved: np.ndarray):
        self.rows = rows
        self.dtype = rows.dtype
        self.moved = _run(moved)
        self.unmoved = _run(np.setdiff1d(np.arange(rows.shape[1]), moved))
        self._dense: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.rows.shape[1]

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        R, moved, unmoved = self.rows, self.moved, self.unmoved
        out = np.array(p, dtype=np.result_type(R, p))
        out[moved] = R @ p
        if isinstance(unmoved, slice):
            out[unmoved] += (p[moved].conj() @ R[:, unmoved]).conj()
        else:  # R[:, unmoved] would be a copy: take every column's sum and index it
            out[unmoved] += (p[moved].conj() @ R).conj()[unmoved]
        return out

    def dense(self) -> np.ndarray:
        """G as an n x n array, formed once: R on the moved rows, its
        conjugate mirror on the unmoved rows (copied SINC_BLOCK entries at
        a time) and I on the unmoved block.  With every node moved it is R."""
        if self._dense is None:
            R, n = self.rows, len(self)
            G = R
            if len(R) < n:
                G = np.zeros((n, n), dtype=R.dtype)
                G[self.moved] = R
                moved, unmoved = np.arange(n)[self.moved], np.arange(n)[self.unmoved]
                step = max(1, SINC_BLOCK // max(moved.size, 1))
                for i0 in range(0, unmoved.size, step):
                    block = unmoved[i0:i0 + step]
                    G[np.ix_(block, moved)] = R[:, block].T.conj()
                G[unmoved, unmoved] = 1.0
            self._dense = G
        return self._dense


def _window_rows(grid: PerturbedGrid, window: TruncationWindow) -> np.ndarray:
    """The window's rows, checked to cover the grid and to fit rows x len(grid)."""
    lo, hi = window.row_range
    if int(grid.indices[0]) < lo or int(grid.indices[-1]) > hi:
        raise ValueError("window rows do not cover the grid indices")
    check_dense_size(hi - lo + 1, len(grid), grid.is_complex)
    return np.arange(lo, hi + 1)


def synthesis_matrix(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
                     ) -> np.ndarray:
    """The truncated synthesis matrix of a grid, as sinc_matrix's array.

    Rows span window.row_range; columns are the grid's listed indices, which
    must lie inside it.  Real grids produce real matrices.  S(k, n) is
    built as sinc(k - lambda_n), which equals it because sinc is even.  An
    oversized S is refused before its rows are listed.
    """
    return sinc_matrix(_window_rows(grid, window or TruncationWindow.for_grid(grid)),
                       grid.nodes)


def _extremes(dense: Optional[np.ndarray], n: int, matvec, which: str,
              window: TruncationWindow, seed: int) -> tuple[list[float], int]:
    """Extremal eigenvalues of an n x n Hermitian matrix and the operator
    products spent.  which is ARPACK's: "LA" gives [largest], "BE"
    [smallest, largest].  eigvalsh of dense when it is given, else ARPACK
    on the real symmetric matvec with the window's tolerance and restart
    cap from a seeded start vector (nan if it fails).
    """
    if dense is not None:
        eigenvalues = np.linalg.eigvalsh(dense)
        return eigenvalues[[0, -1] if which == "BE" else [-1]].tolist(), 0
    import scipy.sparse.linalg  # here, not at the top: a CLI start need not load scipy

    products = 0

    def counted(v):
        nonlocal products
        products += 1
        return matvec(v)

    v0 = np.random.default_rng(seed).standard_normal(n)
    operator = scipy.sparse.linalg.LinearOperator((n, n), matvec=counted, dtype=np.float64)
    k = 2 if which == "BE" else 1
    try:
        found = np.sort(scipy.sparse.linalg.eigsh(
            operator, k=k, which=which, tol=window.norm_tolerance,
            maxiter=window.max_iterations, v0=v0, return_eigenvectors=False))
    except scipy.sparse.linalg.ArpackError:  # includes ArpackNoConvergence
        found = np.full(k, math.nan)
    return found.tolist(), products


def _norm_and_gram(grid: PerturbedGrid, window: TruncationWindow, seed: int,
                   norm: bool = True, gram: bool = False
                   ) -> tuple[Optional[GramSummary], Optional[GramRows]]:
    """perturbation_norm's summary (None unless norm) and, if gram, the
    complex Gram matrix S^H S as its moved rows, from the same E = S - I.

    E holds the m moved columns, of which a complex grid, the only kind G
    is asked for, has at least one; M = E^H E is formed when the norm is
    exact, as a complex one is.  S = E + P, where P has a 1 at row n of each
    moved column n, and an unmoved column of S is the unit vector at row n.
    So with C the rows of E at the grid indices and B those at the moved
    ones, the moved rows of S^H S are C^H, except on the moved block,
    M + B + B^H + I.  One assembly serves every complex grid: R = C^T is
    copied from E, M takes B and then B^H (R conjugated in place between
    the two, which leaves C^H), and R's moved block takes M and 1 on its
    diagonal, with no temporary over m x m.
    """
    rows = _window_rows(grid, window)
    moved = np.flatnonzero(grid.nodes != grid.indices)
    top, products, G = 0.0, 0, None  # for E = 0, on which ARPACK cannot start
    if moved.size:
        E = sinc_matrix(rows, grid.nodes[moved])
        E[grid.indices[moved] - window.row_range[0], np.arange(moved.size)] -= 1.0
        exact = grid.is_complex or moved.size <= DENSE_EIG_CUTOFF
        M = E.conj().T @ E if exact else None
        if norm:
            (top,), products = _extremes(M, moved.size, lambda v: (E @ v) @ E, "LA", window, seed)
        if gram:
            G = GramRows(np.ascontiguousarray(E[_run(grid.indices - window.row_range[0])].T),
                         moved)
            R, at = G.rows, G.moved  # R[:, at] is B^T
            M += R[:, at].T
            np.conjugate(R, out=R)
            M += R[:, at]
            R[:, at] = M
            R[np.arange(moved.size), moved] += 1.0
    if not norm:
        return None, G
    norm_value = float(np.sqrt(np.maximum(top, 0.0)))  # rounding can leave top just below 0
    return GramSummary(window=window, perturbation_norm=norm_value,
                       implied_riesz_lower=(1.0 - norm_value) ** 2 if norm_value < 1.0 else None,
                       implied_riesz_upper=(1.0 + norm_value) ** 2,
                       iterations_used=products, converged=math.isfinite(norm_value)), G


def perturbation_norm(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                      seed: int = 0) -> GramSummary:
    """Spectral norm of S - I on the truncation: the empirical deviation
    constant of the perturbed system.

    S - I is built on the moved columns (lambda_n != n) only: sinc_matrix is
    exact at the integers, so an unmoved column of S - I is exactly 0.  The
    norm is the square root of the top eigenvalue of (S - I)^H (S - I),
    found by the module's eigenvalue rule: exact for a complex grid or up to
    DENSE_EIG_CUTOFF moved columns, ARPACK on v -> (S - I)^T ((S - I) v)
    above.  iterations_used counts those products (0 when exact or when no
    column moved).  When ARPACK stops without an eigenvalue the norm is nan and
    converged is False.  S is turned into S - I in place (I: entry 1 at row
    k = n of column n), after the window's rows x len(grid) is checked.
    """
    if window is None:
        window = TruncationWindow.for_grid(grid)
    return _norm_and_gram(grid, window, seed)[0]


def gram_rows(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
              ) -> GramRows:
    """Gram matrix of the grid's atoms, as its moved rows (see GramRows).

    Real grids use the closed form G(m, n) = sinc(lambda_m - lambda_n)
    (symmetric, unit diagonal): R = sinc_matrix(moved nodes, nodes), and
    the window is not read.  A complex grid's is the window-truncated
    S^H S, which converges to the Gram as the window grows; its moved rows
    are assembled from S - I on the moved columns in O(rows m^2 + m n) for
    m moved of n columns, as riesz_bounds_estimate assembles them (see
    _norm_and_gram).
    """
    if grid.is_complex:
        return _norm_and_gram(grid, window or TruncationWindow.for_grid(grid), 0,
                              norm=False, gram=True)[1]
    moved = np.flatnonzero(grid.nodes != grid.indices)
    return GramRows(sinc_matrix(grid.nodes[moved], grid.nodes), moved)


def gram_matrix(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
                ) -> np.ndarray:
    """Gram matrix of the grid's atoms as a dense n x n array: gram_rows'
    dense().  On a real grid it equals sinc_matrix(nodes, nodes) value for
    value; the unmoved block off the diagonal is +0.0."""
    return gram_rows(grid, window).dense()


def riesz_bounds_estimate(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                          seed: int = 0) -> tuple[GramSummary, GramRows]:
    """Extremal eigenvalues of the truncated Gram matrix plus the bounds
    implied by the perturbation norm, and the Gram matrix itself as its
    moved rows.

    A real grid's S - I is released before G's moved rows are built, so the
    two never share memory.  A complex grid builds S - I once, for both: its
    norm comes from E^H E exactly as perturbation_norm's does, and G's moved
    rows are assembled from E^H E and a copy of E's rows at the grid
    indices (see _norm_and_gram).  G is returned so that a caller writing
    it out need not build it again.  Both solves follow the module's eigen
    rule: eigvalsh of G.dense(), the only n x n array formed, and ARPACK on
    G @ p above the cutoff, where no n x n array is made; iterations_used
    counts the ARPACK products.  A smallest eigenvalue below the solve's
    resolution, len(G) * eps * lambda_max for eigvalsh and norm_tolerance *
    lambda_max for ARPACK, has no reliable digit.  By Cauchy interlacing on
    the 2 x 2 principal minors of a real, unit-diagonal G, lambda_min <=
    1 - |sinc(lambda_i - lambda_j)|; an ARPACK reading above that for two
    neighbouring nodes, as when nodes (nearly) coincide, is wrong.  Either
    way min_eigenvalue is reported as None.
    """
    if window is None:
        window = TruncationWindow.for_grid(grid)
    if grid.is_complex:
        summary, G = _norm_and_gram(grid, window, seed, gram=True)
    else:
        summary, G = perturbation_norm(grid, window, seed=seed), gram_rows(grid)
    exact = grid.is_complex or len(G) <= DENSE_EIG_CUTOFF
    (emin, emax), products = _extremes(G.dense() if exact else None, len(G),
                                       lambda v: G @ v, "BE", window, seed)
    resolution = (len(G) * np.finfo(float).eps if exact else window.norm_tolerance) * emax
    resolved = not emin < resolution  # a nan from a failed ARPACK run stays as it is
    if not exact:
        neighbours = np.abs(sinc_array(np.diff(np.sort(grid.nodes)))).max()
        resolved &= not emin > 1.0 - neighbours + resolution
    return replace(summary,
                   min_eigenvalue=emin if resolved else None,
                   max_eigenvalue=emax,
                   iterations_used=summary.iterations_used + products,
                   converged=summary.converged and math.isfinite(emin + emax)), G


def dump_matrix(matrix: np.ndarray, path, row_labels, col_labels) -> None:
    """Write a matrix as plain text, one ``k n re im`` record per entry.

    k and n are the entry's row and column labels from row_labels and
    col_labels (for a Gram matrix, both are the grid's indices); re and im
    are its real and imaginary parts (im is 0.0 for a real matrix), written
    with repr, the shortest string that reads back as the same double, so
    the file reads back exactly.  The rows are taken in blocks of at most
    8 * SINC_BLOCK doubles (one row when a row alone is longer), and each
    distinct bit pattern of a block is formatted once: Gram matrices repeat
    most of their values, since entries depend on node differences and
    exact zeros are common.  -0.0 and 0.0 are distinct patterns, so each
    keeps its sign.
    """
    M = np.asarray(matrix)
    rows, cols = np.asarray(row_labels).tolist(), np.asarray(col_labels).tolist()
    if M.shape != (len(rows), len(cols)):
        raise ValueError(f"{len(rows)} x {len(cols)} labels for a matrix of shape {M.shape}")
    is_complex = np.iscomplexobj(M)
    dtype, tail = (np.complex128, "\n") if is_complex else (np.float64, " 0.0\n")
    step = max(1, 8 * SINC_BLOCK // max(len(cols) * (2 if is_complex else 1), 1))
    cols = [f"{n} " for n in cols]
    with open(path, "w", encoding="utf-8") as fh:
        if not cols:  # a row of no entries writes no record, not its label
            return
        for r0 in range(0, len(rows), step):
            # the block's doubles, a complex row as re, im pairs; copied
            # only when M is not already C-ordered doubles
            block = np.ascontiguousarray(M[r0:r0 + step], dtype=dtype).view(np.float64)
            bits, inverse = np.unique(block.view(np.int64), return_inverse=True)
            inverse = inverse.reshape(block.shape)  # 1-d or block-shaped, by numpy version
            reprs = np.array(list(map(repr, bits.view(np.float64).tolist())), dtype=object)
            if is_complex:
                strings = reprs[inverse[:, 0::2]] + " " + reprs[inverse[:, 1::2]]
            else:
                strings = reprs[inverse]
            for k, row in zip(rows[r0:r0 + step], strings.tolist()):
                k = f"{k} "
                fh.write(k + (tail + k).join(map(operator.add, cols, row)) + tail)
