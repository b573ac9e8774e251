"""Construction and validation of perturbed sampling sequences {lambda_n}.

A grid pairs ordered integer indices n with deviations delta_n (real or
complex) and records nothing else; its nodes lambda_n = n + delta_n are
derived from them.  Generators store the deviations they compute: the
power-law family delta_n = A/n^alpha, constant offsets, the classical
+/- 1/4 counterexample sequence, and explicit node lists loaded from text
files.  Grids are immutable after construction, and PerturbedGrid alone
decides whether a grid is complex: deviations whose imaginary parts are all
0.0 or -0.0 make a real grid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "PerturbedGrid",
    "power_law_grid",
    "uniform_offset_grid",
    "ingham_grid",
    "grid_from_file",
    "max_deviation",
]

# Nodes lie in |Re lambda| < MAX_NODE_REAL and |Im lambda| <= MAX_NODE_IMAG.
# The sinc kernels read the nodes, not the deviations.  Below 2^52 doubles
# are at most 1/2 apart, so a node keeps its offset from its index; from
# 2^52 on they are 1 apart and every node is an integer.
# By Parseval a column of S with |Im lambda| = y has squared norm at most
# sinh(2 pi y) / (2 pi y), and the dense limit allows at most 8192 complex
# columns, so trace(S^H S), which bounds every entry and eigenvalue of S^H S
# and of (S - I)^H (S - I), stays finite up to y = 112.69.  framekit
# assembles a complex S^H S as M + R + R^H + I from M = (S - I)^H (S - I)
# and R, rows of S - I; each term's entries are bounded by those traces or
# by 1, so the sum stays within 4 times them.  At y = 100 the trace is
# below DBL_MAX / 3e34, headroom for that sum and the eigen-solvers' own.
MAX_NODE_REAL = 2.0 ** 52
MAX_NODE_IMAG = 100.0


@dataclass(frozen=True)
class PerturbedGrid:
    """A sampling set {lambda_n = n + delta_n} over an ordered integer index set.

    The grid stores the deviations delta_n as given, so every consumer of
    delta reads them exactly; nodes = indices + deviations is derived once,
    after sorting, and is read-only.  deviations (and so nodes) are
    complex128 if an imaginary part is nonzero, else float64 (a complex
    deviation's real part, bit for bit)."""

    indices: np.ndarray
    deviations: np.ndarray
    nodes: np.ndarray = field(init=False)

    def __post_init__(self):
        indices = np.asarray(self.indices, dtype=np.int64)
        if not np.array_equal(indices, self.indices):  # the cast truncates
            raise ValueError("grid indices must be integers")
        delta = np.asarray(self.deviations)
        if delta.dtype.kind == "c" and not np.any(delta.imag):  # 0.0 and -0.0 alike
            delta = delta.real
        delta = delta.astype(np.complex128 if delta.dtype.kind == "c" else np.float64)
        if indices.ndim != 1 or delta.shape != indices.shape:
            raise ValueError("indices and deviations must be aligned 1-d sequences")
        if indices.size == 0:
            raise ValueError("grid must contain at least one node")
        if np.unique(indices).size != indices.size:
            raise ValueError("grid indices must be distinct")
        if not np.all(np.isfinite(delta)):
            raise ValueError("grid nodes must be finite")
        order = np.argsort(indices)
        indices = indices[order]
        delta = delta[order]
        nodes = indices + delta
        if np.max(np.abs(nodes.real)) >= MAX_NODE_REAL:
            raise ValueError("grid nodes must satisfy |Re lambda| < 2^52, where a double "
                             "still resolves a node's offset from its index")
        if np.max(np.abs(nodes.imag)) > MAX_NODE_IMAG:
            raise ValueError(f"grid nodes must satisfy |Im lambda| <= {MAX_NODE_IMAG:g}, "
                             "where S and S^H S stay finite")
        for name, value in [("indices", indices), ("deviations", delta), ("nodes", nodes)]:
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def is_complex(self) -> bool:
        return self.deviations.dtype.kind == "c"


def power_law_grid(
    A: float,
    alpha_exponent: float,
    N: int,
    extend_nonpositive: bool = False,
) -> PerturbedGrid:
    """Grid with lambda_n = n + A/n^alpha for n = 1..N.

    With extend_nonpositive the index window becomes -N..N and lambda_n = n
    for n <= 0, so the grid perturbs a complete orthonormal system.
    Requires A > 0 and alpha_exponent > 1/2.
    """
    A = float(A)
    alpha = float(alpha_exponent)
    if not np.isfinite(A) or A <= 0.0:
        raise ValueError(f"power-law amplitude must satisfy A > 0, got {A!r}")
    if not np.isfinite(alpha) or alpha <= 0.5:
        raise ValueError(
            f"power-law exponent must satisfy alpha > 1/2, got {alpha!r}"
        )
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    if extend_nonpositive:
        indices = np.arange(-N, N + 1, dtype=np.int64)
    else:
        indices = np.arange(1, N + 1, dtype=np.int64)
    deviations = np.zeros(indices.size)
    pos = indices >= 1
    deviations[pos] = A / indices[pos].astype(np.float64) ** alpha
    return PerturbedGrid(indices=indices, deviations=deviations)


def uniform_offset_grid(offsets: Sequence, base) -> PerturbedGrid:
    """Grid with lambda_n = n + offset_n over an integer index range.

    base is an inclusive (lo, hi) pair; the offsets (real or complex) are
    the grid's deviations as given, so PerturbedGrid refuses offsets that do
    not align with it or are not finite.  Offsets with no nonzero imaginary
    part yield a real grid.
    """
    lo, hi = int(base[0]), int(base[1])
    if hi < lo:
        raise ValueError(f"empty index range {base!r}")
    indices = np.arange(lo, hi + 1, dtype=np.int64)
    return PerturbedGrid(indices=indices, deviations=offsets)


def ingham_grid(N: int) -> PerturbedGrid:
    """The sequence lambda_n = n + 1/4 (n > 0), 0 (n = 0), n - 1/4 (n < 0).

    Index window -N..N; maximal deviation exactly 1/4.  This grid witnesses
    sharpness of the 1/4 stability threshold.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    indices = np.arange(-N, N + 1, dtype=np.int64)
    deviations = 0.25 * np.sign(indices).astype(np.float64)
    return PerturbedGrid(indices=indices, deviations=deviations)


def grid_from_file(path) -> PerturbedGrid:
    """Load an explicit grid from a text file.

    One record per line: ``index<TAB>re<TAB>im`` with the imaginary part
    optional (default 0); a file whose imaginary parts are all zero gives a
    real grid.  ``#`` starts a comment; blank lines are skipped.
    Indices must be distinct and below 2^52 in size; nodes must be finite.
    Parse errors report the offending line number.

    The grid stores the deviation re - n.  That subtraction is exact when
    n = 0 or re lies on n's side of zero with |re| >= |n|/2 (Sterbenz's
    lemma up to |re| = 2|n|; beyond it re - n is a multiple of ulp(re) no
    larger than |re|), so those nodes read back bit for bit.  Other nodes,
    such as ``5 -0.1`` across zero from its index, read back as
    n + fl(re - n), which may round.
    """
    path = Path(path)
    indices: list[int] = []
    deviations: list[complex] = []
    seen: set[int] = set()
    with path.open("r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) not in (2, 3):
                raise ValueError(
                    f"{path}:{lineno}: expected 'index re [im]', got {raw.rstrip()!r}"
                )
            try:
                n = int(parts[0])
                re = float(parts[1])
                im = float(parts[2]) if len(parts) == 3 else 0.0
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {exc}") from None
            if abs(n) >= MAX_NODE_REAL:  # also keeps n inside int64
                raise ValueError(f"{path}:{lineno}: index {n} is outside |n| < 2^52")
            if n in seen:
                raise ValueError(f"{path}:{lineno}: duplicate index {n}")
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ValueError(f"{path}:{lineno}: non-finite node")
            seen.add(n)
            indices.append(n)
            deviations.append(complex(re - n, im))
    if not indices:
        raise ValueError(f"{path}: no grid records found")
    return PerturbedGrid(indices=indices, deviations=deviations)


def max_deviation(grid: PerturbedGrid) -> float:
    """max |delta_n| over the listed indices (complex modulus)."""
    return float(np.max(np.abs(grid.deviations)))
