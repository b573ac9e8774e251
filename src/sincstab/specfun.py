"""Scalar special functions used throughout the package.

Normalized sinc (real and complex), the column energy 2(1 - sinc x), the
dense matrix sinc(u_i - v_j) and its product with a vector (sinc_sum, which
forms no matrix), the Lamb-Oseen constant alpha (the Newton root of
exp(a) = 2a + 1) and Riemann zeta for real s > 1.  sinc_matrix fills rows at
integer nodes with one term; both find their near pairs by one search of the
sorted nodes.  All are pure and thread-safe.  The scalar functions return
floats and use only the standard library; the array functions import numpy
when they run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "sinc",
    "column_energy",
    "sinc_array",
    "sinc_complex_array",
    "sinc_matrix",
    "sinc_sum",
    "check_dense_size",
    "lamb_oseen_alpha",
    "riemann_zeta",
    "zeta_minus_one",
]

# sinc_matrix refuses a result larger than this (1 GiB, a 11585^2 real
# matrix) instead of allocating it, and fills its output, and lists its
# near-pair candidates, this many entries at a time.
MAX_DENSE_BYTES = 1 << 30
SINC_BLOCK = 1 << 15


def sinc(x: float) -> float:
    """Normalized sinc, sin(pi*x)/(pi*x), with sinc(0) = 1.

    Even in x and bounded by 1 in absolute value.  Integer arguments give
    exactly 0 (or 1 at zero): sin(pi*n) vanishes identically, and the
    cardinal interpolation identities rely on the Kronecker values being
    exact.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"sinc requires a finite argument, got {x!r}")
    if x == math.floor(x):
        return 1.0 if x == 0.0 else 0.0
    px = math.pi * x
    return math.sin(px) / px


# c_7..c_1 of 2(y - sin y)/y = sum_k c_k y^(2k); c_8 adds 1.1e-18 relative at |y| = 0.5
_ENERGY_COEFFS = [(-1) ** (k + 1) * 2.0 / math.factorial(2 * k + 1) for k in range(7, 0, -1)]


def column_energy(x: float) -> float:
    """2*(1 - sinc(x)), the squared norm of a column of S - I whose node moved
    by the real x.  Below |pi*x| = 0.5, where the difference cancels, it is the
    Taylor series in y = pi*x, so it keeps its relative accuracy as x -> 0."""
    y = math.pi * float(x)
    if abs(y) < 0.5:
        y2 = y * y
        total = 0.0
        for c in _ENERGY_COEFFS:
            total = total * y2 + c
        return total * y2
    return 2.0 * (1.0 - sinc(x))


def _sinc_kernel(x: np.ndarray) -> np.ndarray:
    """np.sinc (exactly 1 at 0) with exact zeros at the nonzero real integers,
    the only points where x == floor(x.real) for real and complex x alike.
    np.asarray makes np.sinc's scalar result for 0-d input writable."""
    import numpy as np
    y = np.asarray(np.sinc(x))
    y[(x == np.floor(x.real)) & (x != 0)] = 0.0
    return y


def sinc_array(x) -> np.ndarray:
    """Vectorized real sinc with exact Kronecker values at the integers."""
    import numpy as np
    return _sinc_kernel(np.asarray(x, dtype=np.float64))


def sinc_complex_array(z) -> np.ndarray:
    """Vectorized complex sinc, exact on the real integers.  The direct
    quotient keeps full relative accuracy near 0, so it needs no series."""
    import numpy as np
    return _sinc_kernel(np.asarray(z, dtype=np.complex128))


def _sin_cos_pi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi*x) and cos(pi*x) from the exact split x = a + r, a = round(Re x):
    (-1)^a sin(pi*r) and (-1)^a cos(pi*r), exactly 0 and +-1 at the integers."""
    import numpy as np
    a = np.round(x.real)
    r = np.pi * (x - a)
    sign = 1.0 - 2.0 * np.mod(a, 2.0)
    return sign * np.sin(r), sign * np.cos(r)


def _near_pairs(u, v):
    """Yield the pairs (i, j) with |Re(u_i - v_j)| < 1 as (r0, r1, i, j, u_i - v_j),
    i ascending within consecutive row ranges [r0, r1) that tile the rows.
    Row i's candidates, the Re v within 2 of Re u_i, are found by binary
    search of the sorted Re v, listed whole rows and at most SINC_BLOCK (or
    one row) at a time, and trimmed by the exact test on the difference."""
    import numpy as np
    order = np.argsort(v.real, kind="stable")
    sorted_v = v.real[order]
    first = np.searchsorted(sorted_v, u.real - 2.0, side="right")
    count = np.searchsorted(sorted_v, u.real + 2.0, side="left") - first
    ends = np.cumsum(count)
    offset = first + count - ends  # candidate p of row i is column order[p + offset[i]]
    r0 = 0
    while r0 < u.size:
        p0 = ends[r0] - count[r0]
        r1 = max(r0 + 1, int(np.searchsorted(ends, p0 + SINC_BLOCK, side="right")))
        p = np.arange(p0, ends[r1 - 1])
        rows = np.searchsorted(ends, p, side="right")
        cols = order[p + offset[rows]]
        d = u[rows] - v[cols]
        near = np.abs(d.real) < 1.0
        yield r0, r1, rows[near], cols[near], d[near]
        r0 = r1


def _sinc_nodes(u, v):
    """Whether the pair is complex, then u and v as sinc_matrix and sinc_sum
    take them (1-d node arrays, at most one complex, as floating point),
    each with its sin(pi x) and cos(pi x)."""
    import numpy as np
    u, v = np.asarray(u), np.asarray(v)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("sinc nodes must be two 1-d arrays")
    if np.iscomplexobj(u) and np.iscomplexobj(v):
        raise ValueError("sinc nodes may have at most one complex array")
    u = u.astype(np.result_type(u, np.float64), copy=False)
    v = v.astype(np.result_type(v, np.float64), copy=False)
    is_complex = np.iscomplexobj(u) or np.iscomplexobj(v)
    return is_complex, (u, *_sin_cos_pi(u)), (v, *_sin_cos_pi(v))


def sinc_matrix(u, v) -> np.ndarray:
    """M[i, j] = sinc(u_i - v_j) for 1-d node arrays u and v, at most one complex.

    Each entry is the rank-2 quotient (sin(pi u_i) cos(pi v_j) - cos(pi u_i)
    sin(pi v_j)) / (pi (u_i - v_j)) of per-node sines and cosines, filled
    elementwise into the output SINC_BLOCK entries at a time, so no
    full-size temporary is made.  A row block whose u_i are all integers
    (sin(pi u_i) exactly 0) is filled with the one remaining term,
    sin(pi v_j) / (pi (u_i - v_j) * -cos(pi u_i)) in 3 passes instead of 6:
    cos(pi u_i) = +-1 multiplies exactly, so every nonzero entry keeps the
    quotient's bits.
    M(u, u) is symmetric up to the signs of mirrored exact zeros.  Pairs with
    |Re(u_i - v_j)| < 1 are then overwritten with the direct kernel
    (sinc_array or sinc_complex_array) of the difference: that keeps the
    exact 1 at u_i = v_j and avoids cancellation between close nodes.  They
    are found once per call by the sorted search of _near_pairs.  Raises
    ValueError, before allocating, when M would take more than
    MAX_DENSE_BYTES.
    """
    import numpy as np
    is_complex, (u, su, cu), (v, sv, cv) = _sinc_nodes(u, v)
    check_dense_size(u.size, v.size, is_complex)
    dtype = np.dtype(np.complex128 if is_complex else np.float64)
    kernel = sinc_complex_array if is_complex else sinc_array
    out = np.empty((u.size, v.size), dtype=dtype)
    step = max(1, SINC_BLOCK // max(v.size, 1))
    scratch = np.empty((min(step, u.size), v.size), dtype=dtype)
    with np.errstate(divide="ignore", invalid="ignore"):  # u_i = v_j: redone below
        for i0 in range(0, u.size, step):
            rows = slice(i0, i0 + step)
            block = out[rows]
            work = scratch[:len(block)]
            if su[rows].any():
                np.multiply(su[rows, None], cv, out=block)
                np.multiply(cu[rows, None], sv, out=work)
                block -= work
                np.subtract(u[rows, None], v, out=work)
                work *= np.pi
                block /= work
            else:  # integer rows: -cos(pi u_i) = -+1 moves exactly into the denominator
                np.subtract(u[rows, None], v, out=work)
                work *= -np.pi * cu[rows, None]
                np.divide(sv, work, out=block)
    for _, _, rows, cols, d in _near_pairs(u, v):
        out[rows, cols] = kernel(d)
    return out


def sinc_sum(u, v, w) -> np.ndarray:
    """sinc_matrix(u, v) @ w for node arrays u and v, as sinc_matrix takes
    them, and weights w aligned with v, without forming the matrix.

    With W_ij = 1/(pi (u_i - v_j)), the sum is sin(pi u_i) sum_j W_ij w_j
    cos(pi v_j) - cos(pi u_i) sum_j W_ij w_j sin(pi v_j).  W is formed
    SINC_BLOCK entries at a time in one scratch array.  Its near pairs,
    |Re(u_i - v_j)| < 1, found by the sorted search sinc_matrix uses, are
    zeroed and taken from the direct kernel instead.
    """
    import numpy as np
    is_complex, (u, su, cu), (v, sv, cv) = _sinc_nodes(u, v)
    kernel = sinc_complex_array if is_complex else sinc_array
    w = np.asarray(w)
    weights = np.stack([w * cv, w * sv], axis=1)
    sums = np.empty((u.size, 2), dtype=weights.dtype)
    f = np.zeros(u.size, dtype=weights.dtype)
    step = max(1, SINC_BLOCK // max(v.size, 1))
    scratch = np.empty((min(step, u.size), v.size),
                       dtype=np.complex128 if is_complex else np.float64)
    with np.errstate(divide="ignore"):  # u_i = v_j: zeroed, a near pair
        for r0, r1, rows, cols, d in _near_pairs(u, v):
            np.add.at(f, rows, w[cols] * kernel(d))
            starts = range(r0, r1, step)
            cuts = np.searchsorted(rows, [*starts, r1]).tolist()
            for i0, a, b in zip(starts, cuts, cuts[1:]):
                i1 = min(i0 + step, r1)
                W = scratch[:i1 - i0]
                np.subtract(u[i0:i1, None], v, out=W)
                np.divide(1.0 / np.pi, W, out=W)
                W[rows[a:b] - i0, cols[a:b]] = 0.0
                np.matmul(W, weights, out=sums[i0:i1])
    return f + su * sums[:, 0] - cu * sums[:, 1]


def check_dense_size(rows: int, cols: int, is_complex: bool) -> None:
    """Raise ValueError when a rows x cols sinc matrix (complex or real
    doubles) would take more than MAX_DENSE_BYTES; callers check a size
    here before they allocate anything that grows with it."""
    nbytes = int(rows) * int(cols) * (16 if is_complex else 8)
    if nbytes > MAX_DENSE_BYTES:
        raise ValueError(
            f"a {rows} x {cols} sinc matrix needs {nbytes} bytes, over the "
            f"dense limit of {MAX_DENSE_BYTES} bytes")


def lamb_oseen_alpha() -> float:
    """The Lamb-Oseen constant alpha ~ 1.25643, the positive root of
    exp(a) = 2a + 1.

    Five Newton steps on f(a) = exp(a) - 2a - 1 from a = 1.25.  The fourth
    already returns the correctly rounded root, 1.2564312086261697, and the
    fifth leaves it there.  The count is fixed because near the root a step
    made of rounding noise can still move a by an ulp.
    """
    a = 1.25
    for _ in range(5):
        ea = math.exp(a)
        a -= (ea - 2.0 * a - 1.0) / (ea - 2.0)
    return a


# Bernoulli numbers B_{2k} for the Euler-Maclaurin corrections, k = 1..8.  Over
# s from 1 + 1e-15 to 1e308 and start from 2 to 10^6 the relative stop below
# ends the loop by k = 7; B_16 keeps the first omitted term computable.
_B2K = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30), Fraction(5, 66),
    Fraction(-691, 2730), Fraction(7, 6), Fraction(-3617, 510),
]
# B_{2k} / (2k)! as floats.
_EM_COEFFS = [float(b / math.factorial(2 * (k + 1))) for k, b in enumerate(_B2K)]
_EM_HEAD = 22  # explicit head terms; keep the asymptotic-series remainder < 1e-14


def zeta_minus_one(s: float, start: int = 2) -> float:
    """zeta(s) - 1 = sum_{n>=2} n^-s for real s > 1 (0 at s = inf), or the
    tail sum_{n>=start} n^-s from any start >= 2, without cancellation near 1.

    Euler-Maclaurin summation: an explicit head of 22 terms from start plus
    the integral term, the half-sample correction and Bernoulli corrections.
    The corrections stop after the first one of at most 1e-18 times the head
    and integral terms' sum, which with 22 head terms comes by the 7th, well
    before the asymptotic series turns.
    """
    s = float(s)
    if s == math.inf:
        return 0.0  # the limit, already reached at every finite s >= 1076
    if not math.isfinite(s) or s <= 1.0:
        raise ValueError(f"zeta is only evaluated for real s > 1, got {s!r}")
    n = start + _EM_HEAD
    head = 0.0
    for k in range(start, n):
        head += k ** -s
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    power = n ** (-s - 1.0)  # n^{1-s-2k} at k = 1
    poch = s                 # s(s+1)...(s+2k-2) at k = 1
    corr = 0.0
    for k, c in enumerate(_EM_COEFFS, start=1):
        term = c * poch * power
        corr += term
        if abs(term) <= 1e-18 * abs(head + tail):
            break
        power /= n * n
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return head + tail + corr


def riemann_zeta(s: float) -> float:
    """Riemann zeta for real s > 1, absolute accuracy ~1e-13 on the tail."""
    return 1.0 + zeta_minus_one(s)
