"""Construction and validation of perturbed sampling sequences {lambda_n}.

A grid pairs an ordered set of integer indices n with nodes lambda_n (real
or complex).  Generators cover the power-law family lambda_n = n + A/n^alpha,
constant offsets, the classical n +/- 1/4 counterexample sequence, and
explicit node lists loaded from text files.  Grids are immutable after
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

__all__ = [
    "GRID_KINDS",
    "PerturbedGrid",
    "power_law_grid",
    "uniform_offset_grid",
    "ingham_grid",
    "grid_from_file",
    "max_deviation",
]

GRID_KINDS = ("power_law", "uniform_offset", "complex_offset", "ingham", "explicit")


@dataclass(frozen=True)
class PerturbedGrid:
    """A sampling set {lambda_n} aligned with an ordered integer index set."""

    kind: str
    indices: np.ndarray
    nodes: np.ndarray

    def __post_init__(self):
        if self.kind not in GRID_KINDS:
            raise ValueError(f"unknown grid kind {self.kind!r}")
        indices = np.asarray(self.indices, dtype=np.int64)
        nodes = np.asarray(self.nodes)
        if nodes.dtype.kind == "c":
            nodes = nodes.astype(np.complex128)
        else:
            nodes = nodes.astype(np.float64)
        if indices.ndim != 1 or nodes.shape != indices.shape:
            raise ValueError("indices and nodes must be aligned 1-d sequences")
        if indices.size == 0:
            raise ValueError("grid must contain at least one node")
        if np.unique(indices).size != indices.size:
            raise ValueError("grid indices must be distinct")
        if not np.all(np.isfinite(nodes.view(np.float64))):
            raise ValueError("grid nodes must be finite")
        order = np.argsort(indices)
        indices = indices[order]
        nodes = nodes[order]
        indices.setflags(write=False)
        nodes.setflags(write=False)
        object.__setattr__(self, "indices", indices)
        object.__setattr__(self, "nodes", nodes)

    def __len__(self) -> int:
        return int(self.indices.size)

    @property
    def is_complex(self) -> bool:
        return self.nodes.dtype.kind == "c"

    def deviations(self) -> np.ndarray:
        """|lambda_n - n| for every listed index."""
        return np.abs(self.nodes - self.indices)


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
    nodes = indices.astype(np.float64)
    pos = indices >= 1
    nodes[pos] += A / indices[pos].astype(np.float64) ** alpha
    return PerturbedGrid(kind="power_law", indices=indices, nodes=nodes)


def uniform_offset_grid(offsets: Sequence, base) -> PerturbedGrid:
    """Grid with lambda_n = n + offset_n over an integer index range.

    base is an inclusive (lo, hi) pair or a range; offsets (real or complex)
    must align with it.  Real offsets yield a real grid.
    """
    if isinstance(base, range):
        indices = np.array(list(base), dtype=np.int64)
    else:
        lo, hi = int(base[0]), int(base[1])
        if hi < lo:
            raise ValueError(f"empty index range {base!r}")
        indices = np.arange(lo, hi + 1, dtype=np.int64)
    offs = np.asarray(offsets)
    if offs.shape != indices.shape:
        raise ValueError(
            f"{offs.size} offsets do not align with {indices.size} indices"
        )
    if not np.all(np.isfinite(offs.view(np.float64) if offs.dtype.kind == "c" else offs)):
        raise ValueError("offsets must be finite")
    is_complex = offs.dtype.kind == "c" and np.any(offs.imag != 0.0)
    if offs.dtype.kind == "c" and not is_complex:
        offs = offs.real
    nodes = indices + offs
    return PerturbedGrid(kind="complex_offset" if is_complex else "uniform_offset",
                         indices=indices, nodes=nodes)


def ingham_grid(N: int) -> PerturbedGrid:
    """The sequence lambda_n = n + 1/4 (n > 0), 0 (n = 0), n - 1/4 (n < 0).

    Index window -N..N; maximal deviation exactly 1/4.  This grid witnesses
    sharpness of the 1/4 stability threshold.
    """
    N = int(N)
    if N < 1:
        raise ValueError(f"N must be a positive integer, got {N!r}")
    indices = np.arange(-N, N + 1, dtype=np.int64)
    nodes = indices + 0.25 * np.sign(indices).astype(np.float64)
    return PerturbedGrid(kind="ingham", indices=indices, nodes=nodes)


def grid_from_file(path) -> PerturbedGrid:
    """Load an explicit grid from a text file.

    One record per line: ``index<TAB>re<TAB>im`` with the imaginary part
    optional (default 0).  ``#`` starts a comment; blank lines are skipped.
    Indices must be distinct; nodes must be finite.  Parse errors report the
    offending line number.
    """
    path = Path(path)
    indices: list[int] = []
    values: list[complex] = []
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
            if n in seen:
                raise ValueError(f"{path}:{lineno}: duplicate index {n}")
            if not (np.isfinite(re) and np.isfinite(im)):
                raise ValueError(f"{path}:{lineno}: non-finite node")
            seen.add(n)
            indices.append(n)
            values.append(complex(re, im))
    if not indices:
        raise ValueError(f"{path}: no grid records found")
    arr = np.array(values, dtype=np.complex128)
    nodes = arr.real if np.all(arr.imag == 0.0) else arr
    return PerturbedGrid(kind="explicit", indices=np.array(indices, dtype=np.int64),
                         nodes=nodes)


def max_deviation(grid: PerturbedGrid) -> float:
    """max |lambda_n - n| over the listed indices (complex modulus)."""
    return float(np.max(grid.deviations()))
