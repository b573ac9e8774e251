"""Scalar special functions used throughout the package.

Normalized sinc (real and complex) and the dense matrix sinc(u_i - v_j), the
two real branches of the Lambert W function on [-1/e, 0), the Lamb-Oseen
constant, and the Riemann zeta function for real argument s > 1.  The scalar
functions return plain floats (complex for sinc_complex).  All functions are
pure and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

__all__ = [
    "sinc",
    "sinc_complex",
    "sinc_array",
    "sinc_complex_array",
    "sinc_matrix",
    "check_dense_size",
    "lambert_w0",
    "lambert_wm1",
    "lamb_oseen_alpha",
    "riemann_zeta",
    "zeta_minus_one",
]

# Branch point of W.  -1/e is not exactly representable; arguments up to
# _BRANCH_SLACK below the rounded value are clamped onto it.
_NEG_INV_E = -math.exp(-1.0)
_BRANCH_SLACK = 1e-14

# sinc_matrix refuses a result larger than this (1 GiB, a 11585^2 real
# matrix) instead of allocating it, and fills its output this many entries
# at a time.
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


def sinc_complex(z: complex) -> complex:
    """Analytic continuation sin(pi*z)/(pi*z) of the normalized sinc."""
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"sinc_complex requires a finite argument, got {z!r}")
    return complex(sinc_complex_array(z))


def _sinc_kernel(x: np.ndarray) -> np.ndarray:
    """np.sinc (exactly 1 at 0) with exact zeros at the nonzero real integers,
    the only points where x == floor(x.real) for real and complex x alike.
    np.asarray makes np.sinc's scalar result for 0-d input writable."""
    y = np.asarray(np.sinc(x))
    y[(x == np.floor(x.real)) & (x != 0)] = 0.0
    return y


def sinc_array(x) -> np.ndarray:
    """Vectorized real sinc with exact Kronecker values at the integers."""
    return _sinc_kernel(np.asarray(x, dtype=np.float64))


def sinc_complex_array(z) -> np.ndarray:
    """Vectorized complex sinc, exact on the real integers.  The direct
    quotient keeps full relative accuracy near 0, so it needs no series."""
    return _sinc_kernel(np.asarray(z, dtype=np.complex128))


def _sin_cos_pi(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sin(pi*x) and cos(pi*x) from the exact split x = a + r, a = round(Re x):
    (-1)^a sin(pi*r) and (-1)^a cos(pi*r), exactly 0 and +-1 at the integers."""
    a = np.round(x.real)
    r = np.pi * (x - a)
    sign = 1.0 - 2.0 * np.mod(a, 2.0)
    return sign * np.sin(r), sign * np.cos(r)


def sinc_matrix(u, v) -> np.ndarray:
    """M[i, j] = sinc(u_i - v_j) for 1-d node arrays u and v, at most one complex.

    Each entry is the rank-2 quotient (sin(pi u_i) cos(pi v_j) - cos(pi u_i)
    sin(pi v_j)) / (pi (u_i - v_j)) of per-node sines and cosines, filled
    elementwise into the output SINC_BLOCK entries at a time, so no
    full-size temporary is made and M(u, u) is bitwise symmetric.  Pairs
    with |Re(u_i - v_j)| < 1, marked on each block's own differences before
    they are scaled by pi, are then overwritten with the direct kernel
    (sinc_array or sinc_complex_array) of the difference: that keeps the
    exact 1 at u_i = v_j and avoids cancellation between close nodes.
    Raises ValueError, before allocating, when M would take more than
    MAX_DENSE_BYTES.
    """
    u, v = np.asarray(u), np.asarray(v)
    if u.ndim != 1 or v.ndim != 1:
        raise ValueError("sinc_matrix takes two 1-d node arrays")
    if np.iscomplexobj(u) and np.iscomplexobj(v):
        raise ValueError("sinc_matrix takes at most one complex node array")
    is_complex = np.iscomplexobj(u) or np.iscomplexobj(v)
    dtype = np.dtype(np.complex128 if is_complex else np.float64)
    check_dense_size(u.size, v.size, is_complex)
    u = u.astype(np.result_type(u, np.float64), copy=False)
    v = v.astype(np.result_type(v, np.float64), copy=False)
    kernel = sinc_complex_array if is_complex else sinc_array
    su, cu = _sin_cos_pi(u)
    sv, cv = _sin_cos_pi(v)
    out = np.empty((u.size, v.size), dtype=dtype)
    step = max(1, SINC_BLOCK // max(v.size, 1))
    scratch = np.empty((min(step, u.size), v.size), dtype=dtype)
    with np.errstate(divide="ignore", invalid="ignore"):  # u_i = v_j: redone below
        for i0 in range(0, u.size, step):
            block = out[i0:i0 + step]
            work = scratch[:len(block)]
            np.multiply(su[i0:i0 + step, None], cv, out=block)
            np.multiply(cu[i0:i0 + step, None], sv, out=work)
            block -= work
            np.subtract(u[i0:i0 + step, None], v, out=work)
            near = np.abs(work.real) < 1.0
            d = work[near]
            work *= np.pi
            block /= work
            block[near] = kernel(d)
    return out


def check_dense_size(rows: int, cols: int, is_complex: bool) -> None:
    """Raise ValueError when a rows x cols sinc matrix (complex or real
    doubles) would take more than MAX_DENSE_BYTES; callers check a size
    here before they allocate anything that grows with it."""
    nbytes = int(rows) * int(cols) * (16 if is_complex else 8)
    if nbytes > MAX_DENSE_BYTES:
        raise ValueError(
            f"a {rows} x {cols} sinc matrix needs {nbytes} bytes, over the "
            f"dense limit of {MAX_DENSE_BYTES} bytes")


def _halley_w(x: float, w: float) -> float:
    """Refine a Lambert W seed by Halley's method on f(w) = w*exp(w) - x."""
    for _ in range(80):
        ew = math.exp(w)
        f = w * ew - x
        w1 = w + 1.0
        if w1 == 0.0:
            break
        dw = f / (ew * w1 - (w + 2.0) * f / (2.0 * w1))
        w -= dw
        if abs(dw) <= 1e-16 * (1.0 + abs(w)):
            break
    return w


def _check_w_domain(x: float, name: str) -> float:
    x = float(x)
    if not math.isfinite(x) or x >= 0.0 or x < _NEG_INV_E - _BRANCH_SLACK:
        raise ValueError(f"{name} is defined on [-1/e, 0), got {x!r}")
    return max(x, _NEG_INV_E)


def lambert_w0(x: float) -> float:
    """Principal branch W0 on [-1/e, 0): the w in [-1, 0) with w*exp(w) = x."""
    x = _check_w_domain(x, "lambert_w0")
    # p parametrizes the distance to the branch point: p^2 = 2(1 + e*x)
    q = max(2.0 * (1.0 + math.e * x), 0.0)
    p = math.sqrt(q)
    if p < 1e-5 or x < -0.3:
        w = -1.0 + p - p * p / 3.0 + 11.0 * p ** 3 / 72.0
    else:
        w = x * math.exp(-x)
    if p >= 1e-5:
        w = _halley_w(x, w)
    return max(w, -1.0)


def lambert_wm1(x: float) -> float:
    """Secondary real branch W-1 on [-1/e, 0): the w <= -1 with w*exp(w) = x."""
    x = _check_w_domain(x, "lambert_wm1")
    q = max(2.0 * (1.0 + math.e * x), 0.0)
    p = math.sqrt(q)
    if p < 1e-5:
        w = -1.0 - p - p * p / 3.0 - 11.0 * p ** 3 / 72.0
    else:
        if x < -0.25:
            w = -1.0 - p - p * p / 3.0
        else:
            lx = math.log(-x)
            w = lx - math.log(-lx)
        w = _halley_w(x, w)
    return min(w, -1.0)


def lamb_oseen_alpha() -> float:
    """The constant alpha = -1/2 - W_{-1}(-exp(-1/2)/2), approx 1.25643.

    alpha is the positive solution of exp(a) = 2a + 1.
    """
    arg = -0.5 * math.exp(-0.5)
    return -0.5 - lambert_wm1(arg)


# Bernoulli numbers B_{2k} for the Euler-Maclaurin corrections, k = 1..15.
_B2K = [
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
]
# B_{2k} / (2k)! as floats.
_EM_COEFFS = [float(b / math.factorial(2 * (k + 1))) for k, b in enumerate(_B2K)]
_EM_HEAD = 24  # head length; keeps the asymptotic-series remainder < 1e-14


def zeta_minus_one(s: float) -> float:
    """zeta(s) - 1 for real s > 1, computed without cancellation near 1.

    Euler-Maclaurin summation: an explicit head of length 24 plus the
    integral term, the half-sample correction and Bernoulli corrections.
    The series is alternating-asymptotic; summation stops at the smallest
    term, whose size bounds the remainder (well below 1e-14 here).
    """
    s = float(s)
    if not math.isfinite(s) or s <= 1.0:
        raise ValueError(f"zeta is only evaluated for real s > 1, got {s!r}")
    n = _EM_HEAD
    head = 0.0
    for k in range(2, n):
        head += k ** -s
    tail = n ** (1.0 - s) / (s - 1.0) + 0.5 * n ** -s
    power = n ** (-s - 1.0)  # n^{1-s-2k} at k = 1
    poch = s                 # s(s+1)...(s+2k-2) at k = 1
    corr = 0.0
    prev = math.inf
    for k, c in enumerate(_EM_COEFFS, start=1):
        term = c * poch * power
        if abs(term) >= prev:
            break  # asymptotic series turned; stop at the smallest term
        corr += term
        prev = abs(term)
        if abs(term) < 1e-18 * (abs(head + tail) + 1e-30):
            break
        power /= n * n
        poch *= (s + 2 * k - 1) * (s + 2 * k)
    return head + tail + corr


def riemann_zeta(s: float) -> float:
    """Riemann zeta for real s > 1, absolute accuracy ~1e-13 on the tail."""
    return 1.0 + zeta_minus_one(s)
