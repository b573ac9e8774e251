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
A Gram matrix is held as two blocks (GramRows): the m x m block of the
moved atoms, the only part that depends on the kind of grid, and the
rows of S at the unmoved integers on the moved columns, since an
unmoved atom is the integer translate itself.  A real grid's two blocks
are the row slices of one sinc_matrix whose columns are the moved nodes
and whose rows are those nodes, then the unmoved integers; a complex
grid's block is the window's S^H S.
One builder, _norm_and_gram, makes S - I once and returns the norm, its
Lanczos products and, on a complex grid, G assembled from that S - I; each
public function builds its GramSummary once from those numbers.  So a
complex riesz_bounds_estimate builds S - I once for its norm and G, and
a real one takes perturbation_norm's summary, whose S - I is released,
then builds G's blocks.  Either hands G back with its summary.
Eigenvalues are exact (eigvalsh) for every complex matrix and up to
DENSE_EIG_CUTOFF columns otherwise, from one real Lanczos run above
(_extremes: "LA" for the norm, "BE" for a Gram matrix, whose products
stream the two blocks and form no n x n array).  The run tests its Ritz
residuals after every product and stops at the first that passes, so it
spends no product past convergence.  The dense Gram matrix is formed
only for eigvalsh, a dump and gram_matrix; the Lanczos run and
reconstruct's CG apply G @ p to the blocks.  A smallest
Gram eigenvalue below the solve's resolution, or above what G's 2 x 2
principal minors allow, is reported as None.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .grids import PerturbedGrid
from .specfun import MAX_DENSE_BYTES, SINC_BLOCK, check_dense_size, sinc_array, sinc_matrix

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
TOLERANCE = 1e-10  # Lanczos' Ritz residuals over |theta_max|; CG's relative residual
MAX_ITERATIONS = 10_000  # Lanczos' product cap and CG's step cap


@dataclass(frozen=True)
class TruncationWindow:
    """Row range of the synthesis matrix S and its truncations.

    row_range is an inclusive (lo, hi) pair of integer translates k; it must
    cover the grid indices n, which label the columns.
    """

    row_range: tuple[int, int]

    def __post_init__(self):
        if self.row_range[1] < self.row_range[0]:
            raise ValueError("window row range must be nonempty")

    @classmethod
    def for_grid(cls, grid: PerturbedGrid) -> "TruncationWindow":
        """Default window: grid range padded by DEFAULT_PAD_FACTOR times the
        grid radius on each side, capped at DEFAULT_ROW_CAP rows.  Sinc
        columns decay like 1/|k|, so the padding controls the truncation
        error."""
        lo = int(grid.indices[0])
        hi = int(grid.indices[-1])
        radius = max(abs(lo), abs(hi), 1)
        pad = max(min(DEFAULT_PAD_FACTOR * radius, (DEFAULT_ROW_CAP - (hi - lo + 1)) // 2), 0)
        return cls(row_range=(lo - pad, hi + pad))


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


class GramRows:
    """An n x n Hermitian Gram matrix G held as the two blocks that define it.

    block is G[moved, moved], m x m for the m nodes with lambda_n != n, and
    cross is G[unmoved, moved], u x m.  An unmoved atom is the integer
    translate sinc(t - n), so its Gram row is the unit vector at its own
    position and, on the moved columns, the row of the synthesis matrix S
    at k = n: cross is S's rows at the unmoved integers, on real and complex
    grids alike.  moved and unmoved are position arrays, so in (moved,
    unmoved) order G = [[block, cross^H], [cross, I]]; a real grid's block
    and cross are row slices of one array (gram_rows).  g @ p is G p,
    streaming block once and cross twice; dense() forms the n x n matrix on
    its first call.
    """

    def __init__(self, block: np.ndarray, cross: np.ndarray, moved: np.ndarray,
                 unmoved: np.ndarray):
        self.block, self.cross = block, cross
        self.moved, self.unmoved = moved, unmoved
        self.dtype = block.dtype
        self._dense: Optional[np.ndarray] = None

    def __len__(self) -> int:
        return self.moved.size + self.unmoved.size

    def __matmul__(self, p: np.ndarray) -> np.ndarray:
        block, cross, moved, unmoved = self.block, self.cross, self.moved, self.unmoved
        out = np.empty(len(self), dtype=np.result_type(block, p))
        out[moved] = block @ p[moved] + (p[unmoved].conj() @ cross).conj()
        out[unmoved] = p[unmoved] + cross @ p[moved]
        return out

    def dense(self) -> np.ndarray:
        """G as an n x n array, formed once: block itself when every node
        moved, else zero-filled with block, cross, cross's conjugate mirror
        (copied SINC_BLOCK entries at a time) and I on the unmoved diagonal.
        Each run of consecutive moved (or unmoved) positions is copied as
        one slice of columns, so the one or two runs of a generated grid
        take a few copies rather than a scatter of every entry."""
        if self._dense is None:
            G, moved, unmoved = self.block, self.moved, self.unmoved
            if unmoved.size:
                G = np.zeros((len(self), len(self)), dtype=self.dtype)
                for j0, j1 in _runs(moved):
                    columns = slice(moved[j0], moved[j0] + j1 - j0)
                    G[moved, columns] = self.block[:, j0:j1]
                    G[unmoved, columns] = self.cross[:, j0:j1]
                step = max(1, SINC_BLOCK // max(moved.size, 1))
                for i0, i1 in _runs(unmoved):
                    for k0 in range(i0, i1, step):
                        k1 = min(k0 + step, i1)
                        G[moved, unmoved[k0]:unmoved[k0] + k1 - k0] = self.cross[k0:k1].T.conj()
                G[unmoved, unmoved] = 1.0
            self._dense = G
        return self._dense


def _runs(positions: np.ndarray) -> list[tuple[int, int]]:
    """The (start, stop) slices of a sorted array of positions (>= 0) that
    hold its runs of consecutive positions."""
    starts = np.flatnonzero(np.diff(positions, prepend=-2) != 1).tolist()
    return list(zip(starts, starts[1:] + [positions.size]))


def _moved(grid: PerturbedGrid) -> tuple[np.ndarray, np.ndarray]:
    """Positions of the grid's moved nodes (lambda_n != n) and of the rest.

    This compares nodes, not deviations, because sinc_matrix reads nodes: a
    deviation below ulp(n)/2 rounds its node onto n, which gives S the column
    e_n.  So lambda_n != n is exactly the set of columns where S - I is not
    zero.  Counting those zero columns as moved would only slow the norm.
    """
    at = grid.nodes != grid.indices
    return np.flatnonzero(at), np.flatnonzero(~at)


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


def _ritz_pair(stebz, stein, d: np.ndarray, e: np.ndarray, i: int) -> tuple[float, float]:
    """The i-th smallest eigenvalue of the symmetric tridiagonal matrix with
    diagonal d and off-diagonal e, and the last entry of its unit
    eigenvector.  LAPACK's bisection (stebz) and inverse iteration (stein)
    are called as scipy.linalg.eigh_tridiagonal(select="i") calls them, so
    the pair is the same to the bit, without its per-call argument checks;
    a 1 x 1 matrix is its own pair.  A nonzero LAPACK info raises."""
    if d.size == 1:
        return float(d[0]), 1.0
    _, w, iblock, isplit, info = stebz(d, e, 2, 0.0, 1.0, i + 1, i + 1, 0.0, "B")
    if not info:
        z, info = stein(d, e, w[:1], iblock, isplit)
    if info:
        raise np.linalg.LinAlgError(f"tridiagonal eigensolver failed with LAPACK info {info}")
    return float(w[0]), float(z[-1, 0])


def _extremes(dense: Optional[np.ndarray], n: int, matvec, which: str,
              seed: int) -> tuple[list[float], int]:
    """Extremal eigenvalues of an n x n Hermitian matrix and the operator
    products spent.  which is "LA" for [largest] or "BE" for [smallest,
    largest].  eigvalsh of dense when it is given, else a Lanczos run on
    the real symmetric matvec from a seeded start vector.

    Each product's vector is taken off the last two basis vectors by the
    three-term recurrence, then off the whole basis (full
    reorthogonalisation); the basis grows by doubling with the steps taken.
    After every product only the wanted Ritz pairs (theta, s) of the
    tridiagonal T are computed (_ritz_pair, one index each), and the
    run stops once each has residual |beta s_last| <= TOLERANCE *
    |theta_max|, which beta = 0 (an invariant subspace) satisfies.  It takes
    at most min(n, MAX_ITERATIONS) products, and fewer when a basis of that
    many vectors would pass MAX_DENSE_BYTES; a run that reaches the cap
    unconverged returns nan.
    """
    if dense is not None:
        eigenvalues = np.linalg.eigvalsh(dense)
        return eigenvalues[[0, -1] if which == "BE" else [-1]].tolist(), 0
    from scipy.linalg import get_lapack_funcs  # here: a CLI start need not load scipy

    cap = min(n, MAX_ITERATIONS, MAX_DENSE_BYTES // (8 * n))
    q = np.random.default_rng(seed).standard_normal(n)
    Q = np.empty((min(cap, 16), n))
    Q[0] = q / np.linalg.norm(q)
    lapack = get_lapack_funcs(("stebz", "stein"), (Q,))
    alpha, beta, wanted = np.empty(cap), np.empty(cap), 2 if which == "BE" else 1
    for j in range(cap):
        w = matvec(Q[j])
        alpha[j] = Q[j] @ w
        w -= alpha[j] * Q[j]
        if j:
            w -= beta[j - 1] * Q[j - 1]
        w -= (Q[:j + 1] @ w) @ Q[:j + 1]
        beta[j] = math.sqrt(w @ w)
        found = []  # the largest first: the smallest is computed once it has converged
        for end in (j, 0)[:wanted]:
            theta, s_last = _ritz_pair(*lapack, alpha[:j + 1], beta[:j], end)
            found.append(theta)
            if beta[j] * abs(s_last) > TOLERANCE * abs(found[0]):
                break
        else:
            return found[::-1], j + 1
        if j + 1 < cap:
            if j + 1 == len(Q):  # grow the basis by doubling, up to the cap
                Q = np.concatenate((Q, np.empty((min(len(Q), cap - len(Q)), n))))
            Q[j + 1] = w / beta[j]
    return [math.nan] * wanted, cap


def _norm_and_gram(grid: PerturbedGrid, window: TruncationWindow, seed: int
                   ) -> tuple[float, int, Optional[GramRows]]:
    """(norm, products, G) from one E = S - I on the window: the spectral
    norm of E, the Lanczos products spent on it, and for a complex grid its
    Gram matrix S^H S as GramRows (None for a real grid).  With no moved
    node, which only a real grid can have, E is 0 and the result is (0.0,
    0, None), with no product spent.

    E holds the m moved columns; M = E^H E is formed when the norm is
    exact, as a complex one is.  S = E + P, where P has a 1 at row n of each
    moved column n, and an unmoved column of S is the unit vector at row n.
    So with B the rows of E at the moved indices, G's moved block is
    M + B + B^H + I, formed in M once the norm is read: M takes the copy B,
    then, with B conjugated in place, B^T, then 1 on its diagonal.  cross
    is E's rows at the unmoved indices, which are S's.
    """
    rows, lo = _window_rows(grid, window), window.row_range[0]
    moved, unmoved = _moved(grid)
    if not moved.size:
        return 0.0, 0, None
    at = grid.indices[moved] - lo
    E = sinc_matrix(rows, grid.nodes[moved])
    E[at, np.arange(moved.size)] -= 1.0
    exact = grid.is_complex or moved.size <= DENSE_EIG_CUTOFF
    M = E.conj().T @ E if exact else None
    (top,), products = _extremes(M, moved.size, lambda v: (E @ v) @ E, "LA", seed)
    G = None
    if grid.is_complex:
        B = E[at]
        M += B
        np.conjugate(B, out=B)
        M += B.T
        M.ravel()[::moved.size + 1] += 1.0
        G = GramRows(M, E[grid.indices[unmoved] - lo], moved, unmoved)
    return float(np.sqrt(np.maximum(top, 0.0))), products, G  # rounding can leave top below 0


def _implied_bounds(norm: float) -> dict:
    """GramSummary's Riesz bounds implied by a perturbation norm:
    (1 - norm)^2, only when norm < 1, and (1 + norm)^2."""
    return {"implied_riesz_lower": (1.0 - norm) ** 2 if norm < 1.0 else None,
            "implied_riesz_upper": (1.0 + norm) ** 2}


def perturbation_norm(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                      seed: int = 0) -> GramSummary:
    """Spectral norm of S - I on the truncation: the empirical deviation
    constant of the perturbed system.

    S - I is built on the moved columns (lambda_n != n) only: sinc_matrix is
    exact at the integers, so an unmoved column of S - I is exactly 0.  The
    norm is the square root of the top eigenvalue of (S - I)^H (S - I),
    found by the module's eigenvalue rule: exact for a complex grid or up to
    DENSE_EIG_CUTOFF moved columns, a Lanczos run on v -> (S - I)^T ((S -
    I) v) above.  iterations_used counts those products (0 when exact or
    when no column moved).  When the run reaches its cap unconverged the
    norm is nan and converged is False.  S is turned into S - I in place
    (I: entry 1 at row k = n of column n), after the window's rows x
    len(grid) is checked.  On a complex grid the Gram matrix that
    _norm_and_gram assembles from the same S - I is discarded.
    """
    window = window or TruncationWindow.for_grid(grid)
    norm, products, _ = _norm_and_gram(grid, window, seed)
    return GramSummary(window=window, perturbation_norm=norm, **_implied_bounds(norm),
                       iterations_used=products, converged=math.isfinite(norm))


def gram_rows(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
              ) -> GramRows:
    """Gram matrix of the grid's atoms, as its moved block and its rows at
    the unmoved integers (see GramRows).

    Real grids use the closed form G(m, n) = sinc(lambda_m - lambda_n)
    (symmetric, unit diagonal), and the window is not read.  One
    sinc_matrix with the moved nodes x as its columns and x, then the
    unmoved indices, as its rows gives both blocks as row slices: block,
    sinc(x, x), is its first m rows and cross, sinc(unmoved indices, x),
    the rest.  So x's sines, cosines and sorted search are made once, and
    the dense limit applies to the n x m array.  A complex grid's is the
    window-truncated S^H S, which converges to the Gram as the window
    grows; it is assembled from S - I on the moved columns in O(rows m^2 +
    m n) for m moved of n columns, by the _norm_and_gram call
    riesz_bounds_estimate makes, whose norm (one m x m eigvalsh) is
    discarded here.
    """
    if grid.is_complex:
        return _norm_and_gram(grid, window or TruncationWindow.for_grid(grid), 0)[2]
    moved, unmoved = _moved(grid)
    x = grid.nodes[moved]
    rows = sinc_matrix(np.concatenate((x, grid.indices[unmoved])), x)
    return GramRows(rows[:moved.size], rows[moved.size:], moved, unmoved)


def gram_matrix(grid: PerturbedGrid, window: Optional[TruncationWindow] = None
                ) -> np.ndarray:
    """Gram matrix of the grid's atoms as a dense n x n array: gram_rows'
    dense().  On a real grid it equals sinc_matrix(nodes, nodes) value for
    value; the unmoved block off the diagonal is +0.0."""
    return gram_rows(grid, window).dense()


def riesz_bounds_estimate(grid: PerturbedGrid, window: Optional[TruncationWindow] = None,
                          seed: int = 0) -> tuple[GramSummary, GramRows]:
    """Extremal eigenvalues of the truncated Gram matrix plus the bounds
    implied by the perturbation norm, and the Gram matrix itself as
    GramRows.

    A real grid's norm is perturbation_norm's, whose S - I is released
    before G's blocks are built, so the two never share memory.  A complex
    grid takes its norm and G from one _norm_and_gram call, which builds
    S - I once: the norm from E^H E, G's blocks from E^H E and copies of
    E's rows at the grid indices.  The summary is built once, from the
    norm and the Gram eigenvalues.  G is returned so that a caller writing
    it out need not build it again.  Both solves follow the module's eigen
    rule: eigvalsh of G.dense(), the only n x n array formed, and a Lanczos
    run on G @ p above the cutoff, where no n x n array is made;
    iterations_used counts the Lanczos products of both runs.  A smallest
    eigenvalue below the solve's resolution, len(G) * eps * lambda_max for
    eigvalsh and TOLERANCE * lambda_max for the Lanczos run, has no
    reliable digit.  By Cauchy interlacing on the 2 x 2 principal minors of
    a real, unit-diagonal G, lambda_min <= 1 - |sinc(lambda_i -
    lambda_j)|; an iterative reading above that for two neighbouring
    nodes, as when nodes (nearly) coincide, is wrong.  Either way
    min_eigenvalue is reported as None.
    """
    window = window or TruncationWindow.for_grid(grid)
    if grid.is_complex:
        norm, products, G = _norm_and_gram(grid, window, seed)
    else:
        summary, G = perturbation_norm(grid, window, seed=seed), gram_rows(grid)
        norm, products = summary.perturbation_norm, summary.iterations_used
    exact = grid.is_complex or len(G) <= DENSE_EIG_CUTOFF
    (emin, emax), gram_products = _extremes(G.dense() if exact else None, len(G),
                                            lambda v: G @ v, "BE", seed)
    resolution = (len(G) * np.finfo(float).eps if exact else TOLERANCE) * emax
    resolved = not emin < resolution  # a nan from a capped Lanczos run stays as it is
    if not exact:
        neighbours = np.abs(sinc_array(np.diff(np.sort(grid.nodes)))).max()
        resolved &= not emin > 1.0 - neighbours + resolution
    return GramSummary(window=window, perturbation_norm=norm,
                       min_eigenvalue=emin if resolved else None, max_eigenvalue=emax,
                       **_implied_bounds(norm), iterations_used=products + gram_products,
                       converged=math.isfinite(norm) and math.isfinite(emin + emax)), G


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
    keeps its sign.  Each row is written by one join of its records'
    slots, so no string is built per entry of a real matrix; a row with no
    entries joins nothing, so a matrix with no columns writes an empty file.
    """
    M = np.asarray(matrix)
    rows, cols = np.asarray(row_labels).tolist(), np.asarray(col_labels).tolist()
    if M.shape != (len(rows), len(cols)):
        raise ValueError(f"{len(rows)} x {len(cols)} labels for a matrix of shape {M.shape}")
    is_complex = np.iscomplexobj(M)
    dtype, tail = (np.complex128, "\n") if is_complex else (np.float64, " 0.0\n")
    step = max(1, 8 * SINC_BLOCK // max(len(cols) * (2 if is_complex else 1), 1))
    # a row's records as 4 slots each, "k ", "n ", value, tail: only the
    # k and value slots change from row to row, and one join writes the row
    parts = [tail] * (4 * len(cols))
    parts[1::4] = [f"{n} " for n in cols]
    with open(path, "w", encoding="utf-8") as fh:
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
                parts[0::4] = [f"{k} "] * len(cols)
                parts[2::4] = row
                fh.write("".join(parts))
