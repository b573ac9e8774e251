"""Special-function tests: frozen oracle values, identities, domains."""

import math

import numpy as np
import pytest

from sincstab import specfun
from sincstab.specfun import (
    MAX_DENSE_BYTES,
    lamb_oseen_alpha,
    lambert_w0,
    lambert_wm1,
    riemann_zeta,
    sinc,
    sinc_complex,
    sinc_array,
    sinc_complex_array,
    sinc_matrix,
    zeta_minus_one,
)

NEG_INV_E = -math.exp(-1.0)
X_HALF = -0.5 * math.exp(-0.5)


def bisect_w(target, lo, hi, iters=200):
    """Independent Lambert oracle: bisection on xi*exp(xi) = target."""
    f = lambda xi: xi * math.exp(xi) - target
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0.0) == (flo < 0.0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# sinc

def test_sinc_reference_values():
    assert sinc(0.0) == 1.0
    assert sinc(3.0) == pytest.approx(0.0, abs=1e-15)
    # frozen from an arbitrary-precision evaluation of sin(1.25*pi)/(1.25*pi)
    assert sinc(1.25) == pytest.approx(-0.18006326323142121, abs=1e-15)


def test_sinc_even_and_bounded():
    rng = np.random.default_rng(7)
    for x in rng.uniform(-50.0, 50.0, size=500):
        assert sinc(x) == sinc(-x)  # bitwise
        assert abs(sinc(x)) <= 1.0


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_sinc_domain(bad):
    with pytest.raises(ValueError):
        sinc(bad)


@pytest.mark.parametrize("mu", [0.3, 0.5, 2.7])
def test_sinc_square_sums_to_one(mu):
    # partial sums of sum_k sinc^2(mu - k) are nondecreasing and reach 1
    previous = 0.0
    for N in (10, 100, 1000, 10_000):
        k = np.arange(-N, N + 1)
        total = float(np.sum(np.sinc(mu - k) ** 2))
        assert total >= previous - 1e-15
        previous = total
    assert abs(previous - 1.0) < 1e-3


# ---------------------------------------------------------------------------
# complex sinc

def test_sinc_complex_reference_values():
    assert sinc_complex(0.0 + 0.0j) == 1.0 + 0.0j
    assert sinc_complex(1.0 + 0.0j) == pytest.approx(0.0, abs=1e-15)
    # sin(0.25j*pi)/(0.25j*pi) = sinh(0.25*pi)/(0.25*pi); frozen from the
    # arbitrary-precision sinh oracle
    expected = math.sinh(0.25 * math.pi) / (0.25 * math.pi)
    assert expected == pytest.approx(1.1060262195271029, abs=1e-15)
    assert sinc_complex(0.25j) == pytest.approx(expected, abs=1e-13)


def test_sinc_complex_matches_real_axis():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-20.0, 20.0, size=200):
        z = sinc_complex(complex(x, 0.0))
        assert z.imag == 0.0
        assert abs(z.real - sinc(x)) <= 1e-15


def test_sinc_complex_series_window_is_smooth():
    # values just inside and outside |pi z| = 0.1 agree
    for z in (0.0318, 0.0318j, 0.02 + 0.02j):
        inner = sinc_complex(z * 0.999)
        outer = sinc_complex(z * 1.001)
        assert abs(inner - outer) < 1e-5


def test_sinc_complex_array_against_mpmath():
    # np.sinc's direct quotient near 0, where sin(pi z) and pi z both vanish,
    # against a 40-digit oracle.  Off the real axis and on it inside |z| <= 1/2
    # sinc has no zero nearby, so its relative error measures the kernel
    # rather than the conditioning of sin(pi z) at its roots.
    mp = pytest.importorskip("mpmath")
    radii = np.logspace(-12.0, math.log10(3.0), 60)
    rays = [radii * np.exp(1j * math.pi * k / 12.0) for k in range(1, 12)]
    real = radii[radii <= 0.5]
    z = np.concatenate(rays + [real, -real]).astype(np.complex128)
    values = sinc_complex_array(z)
    with mp.workdps(40):
        for zi, vi in zip(z, values):
            w = mp.pi * mp.mpc(zi.real, zi.imag)
            expected = mp.sin(w) / w
            assert abs(mp.mpc(vi.real, vi.imag) - expected) <= 2e-15 * abs(expected)


def test_sinc_complex_domain():
    with pytest.raises(ValueError):
        sinc_complex(complex(math.inf, 0.0))


# ---------------------------------------------------------------------------
# dense sinc matrices

def _mp_sinc(mp, a, b):
    """sinc(a - b) at the exact values of the doubles a and b."""
    d = mp.mpmathify(complex(a)) - mp.mpmathify(complex(b))
    return mp.mpf(1) if d == 0 else mp.sin(mp.pi * d) / (mp.pi * d)


def test_sinc_matrix_real_against_mpmath():
    # far pairs up to |u| ~ 1e5, near pairs |u - v| < 1, equal and integer pairs
    mp = pytest.importorskip("mpmath")
    rng = np.random.default_rng(7)
    far = rng.uniform(-1e5, 1e5, 25)
    u = np.concatenate([far, rng.uniform(-3.0, 3.0, 8), np.arange(-3.0, 4.0)])
    v = np.concatenate([far + rng.uniform(-1.0, 1.0, 25), far + rng.uniform(-30.0, 30.0, 25),
                        far[:5], [0.0, 0.5, 1.0, -2.5, 1e-9]])
    M = sinc_matrix(u, v)
    assert M.dtype == np.float64 and M.shape == (u.size, v.size)
    with mp.workdps(40):
        for i, j in np.ndindex(M.shape):
            assert abs(M[i, j] - _mp_sinc(mp, u[i], v[j])) <= 1e-15, (u[i], v[j])


def test_sinc_matrix_complex_against_mpmath():
    # nodes n + 0.1 + 2.0i against integer rows: |entries| reach ~80, so the
    # comparison is relative; the full-size np.sinc kernel loses ~3e-13 here
    mp = pytest.importorskip("mpmath")
    rows = np.arange(-60.0, 61.0)
    nodes = np.arange(-20, 21) + (0.1 + 2.0j)
    M = sinc_matrix(rows, nodes)
    assert M.dtype == np.complex128
    with mp.workdps(40):
        for i, j in np.ndindex(M.shape):
            expected = _mp_sinc(mp, rows[i], nodes[j])
            assert abs(mp.mpc(M[i, j]) - expected) <= 2e-15 * abs(expected)


@pytest.mark.parametrize("shape", [(1, 1), (1, 40), (40, 1), (13, 5), (37, 29)])
def test_sinc_matrix_blocks_do_not_change_values(monkeypatch, shape):
    # sizes that are no multiple of the block: a 7-entry block gives bitwise
    # the matrix of one block, and both agree with the direct kernel
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    u = np.sort(rng.uniform(-10.0, 10.0, shape[0]))
    v = np.concatenate([u[: shape[1]], rng.uniform(-10.0, 10.0, max(shape[1] - shape[0], 0))])
    whole = sinc_matrix(u, v)
    monkeypatch.setattr(specfun, "SINC_BLOCK", 7)
    blocked = sinc_matrix(u, v)
    assert np.array_equal(blocked, whole)
    assert np.max(np.abs(whole - sinc_array(u[:, None] - v))) <= 1e-15
    z = v + 0.3j
    assert np.max(np.abs(sinc_matrix(u, z) - sinc_complex_array(u[:, None] - z))) <= 1e-15


def _sorted_search_sinc_matrix(u, v):
    """sinc_matrix with its near pairs selected by a binary search of the
    sorted Re v instead of a test on each block's differences: candidate
    columns with Re v within 2 of Re u_i, trimmed by |Re(u_i - v_j)| < 1."""
    u, v = np.asarray(u), np.asarray(v)
    is_complex = np.iscomplexobj(u) or np.iscomplexobj(v)
    dtype = np.complex128 if is_complex else np.float64
    u = u.astype(np.result_type(u, np.float64), copy=False)
    v = v.astype(np.result_type(v, np.float64), copy=False)
    kernel = sinc_complex_array if is_complex else sinc_array
    su, cu = specfun._sin_cos_pi(u)
    sv, cv = specfun._sin_cos_pi(v)
    order = np.argsort(v.real, kind="stable")
    sorted_v = v.real[order]
    first = np.searchsorted(sorted_v, u.real - 2.0, side="right")
    count = np.searchsorted(sorted_v, u.real + 2.0, side="left") - first
    out = np.empty((u.size, v.size), dtype=dtype)
    step = max(1, specfun.SINC_BLOCK // max(v.size, 1))
    with np.errstate(divide="ignore", invalid="ignore"):
        for i0 in range(0, u.size, step):
            block = out[i0:i0 + step]
            block[...] = su[i0:i0 + step, None] * cv - cu[i0:i0 + step, None] * sv
            block /= (u[i0:i0 + step, None] - v) * np.pi
            hits = count[i0:i0 + step]
            if hits.any():
                rows = np.repeat(np.arange(i0, i0 + len(block)), hits)
                start = first[i0:i0 + step] - (np.cumsum(hits) - hits)
                cols = order[np.arange(rows.size) + np.repeat(start, hits)]
                d = u[rows] - v[cols]
                near = np.abs(d.real) < 1.0
                out[rows[near], cols[near]] = kernel(d[near])
    return out


def _near_pair_cases():
    from sincstab.grids import ingham_grid, power_law_grid

    power = power_law_grid(0.2, 1.0, 150, extend_nonpositive=True).nodes
    ingham = ingham_grid(40).nodes
    k = np.arange(-300.0, 301.0)
    one = np.array([1.0, -1.0])
    ulp = np.concatenate([one, np.nextafter(one, 0.0), np.nextafter(one, 2 * one)])
    close = 0.3 + 1e-9 * np.arange(12)
    yield "power-law G", power, power
    yield "power-law S", k, power
    yield "evaluation", np.linspace(-20.0, 20.0, 401), power
    yield "Ingham S", k[100:-100], ingham
    for im in (0.1, 2.0):
        nodes = np.arange(-40.0, 41.0) + 0.1 + 1j * im
        yield f"complex columns, Im {im}", k[200:-200], nodes
        yield f"complex rows, Im {im}", nodes, k[200:-200]
    yield "nodes 1e-9 apart", close, close[::-1]
    yield "differences one ulp from +-1", np.zeros(3), ulp
    yield "differences one ulp from +-1, swapped", ulp, np.zeros(3)
    yield "empty rows", np.array([]), power
    yield "empty columns", power, np.array([])


@pytest.mark.parametrize("name, u, v", list(_near_pair_cases()),
                         ids=[case[0] for case in _near_pair_cases()])
def test_sinc_matrix_near_pairs_match_sorted_search(name, u, v):
    # marking near pairs on each block's differences selects the same pairs,
    # and so the same bits, as the binary search it replaced
    expected = _sorted_search_sinc_matrix(u, v)
    M = sinc_matrix(u, v)
    assert M.shape == expected.shape and M.dtype == expected.dtype
    assert np.array_equal(M.view(np.uint8), expected.view(np.uint8))


def test_sinc_matrix_input_checks(monkeypatch):
    with pytest.raises(ValueError, match="at most one complex"):
        sinc_matrix(np.array([0.5j]), np.array([1.0j]))
    with pytest.raises(ValueError, match="1-d"):
        sinc_matrix(np.zeros((2, 2)), np.zeros(2))
    # a default-window synthesis matrix of 2001 complex columns stays well inside
    assert 4 * 4001 * 2001 * 16 < MAX_DENSE_BYTES
    # the footprint is checked before allocating, against a lowered limit here
    monkeypatch.setattr(specfun, "MAX_DENSE_BYTES", 800)
    assert sinc_matrix(np.zeros(10), np.zeros(10)).shape == (10, 10)
    with pytest.raises(ValueError, match="a 10 x 11 sinc matrix needs 880 bytes, over "
                                         "the dense limit of 800 bytes"):
        sinc_matrix(np.zeros(10), np.zeros(11))
    with pytest.raises(ValueError, match="needs 1600 bytes"):
        sinc_matrix(np.zeros(10), np.full(10, 1j))


# ---------------------------------------------------------------------------
# Lambert W branches

def test_w0_reference_values():
    assert lambert_w0(NEG_INV_E) == pytest.approx(-1.0, abs=1e-12)
    assert lambert_w0(X_HALF) == pytest.approx(-0.5, abs=1e-13)
    # frozen from the bisection oracle on [-1, 0)
    assert lambert_w0(-0.1) == pytest.approx(-0.11183255915896296, abs=1e-13)
    assert lambert_w0(-0.1) == pytest.approx(bisect_w(-0.1, -1.0, 0.0), abs=1e-13)


def test_wm1_reference_values():
    assert lambert_wm1(NEG_INV_E) == pytest.approx(-1.0, abs=1e-12)
    # frozen from the bisection oracle on (-inf, -1]
    assert lambert_wm1(X_HALF) == pytest.approx(-1.7564312086261697, abs=1e-13)
    assert lambert_wm1(-0.05) == pytest.approx(-4.499755288523487, abs=1e-13)
    assert lambert_wm1(-0.05) == pytest.approx(bisect_w(-0.05, -50.0, -1.0), abs=1e-13)


def test_branch_ranges_and_metadata():
    for x in np.linspace(NEG_INV_E, -1e-6, 64):
        w0 = lambert_w0(float(x))
        wm1 = lambert_wm1(float(x))
        assert -1.0 <= w0 < 0.0
        assert wm1 <= -1.0
        assert type(w0) is float and type(wm1) is float


def test_defining_identity_roundtrip():
    # w*exp(w) = x to 1e-13 relative on 1000 points per branch
    rng = np.random.default_rng(3)
    xs = rng.uniform(NEG_INV_E, -1e-12, size=1000)
    for x in xs:
        for fn in (lambert_w0, lambert_wm1):
            w = fn(float(x))
            assert abs(w * math.exp(w) - x) <= 1e-13 * abs(x)


def test_inverse_roundtrip():
    # dW/dx ~ 1/(1+xi) near the branch point, so recovering xi to 1e-12 in
    # doubles needs |1 + xi| >= ~1e-4; the near-branch regime is tested
    # separately with a conditioning-scaled tolerance.
    rng = np.random.default_rng(5)
    for xi in rng.uniform(-1.0 + 1e-4, -1e-9, size=1000):
        assert lambert_w0(xi * math.exp(xi)) == pytest.approx(xi, abs=1e-12)
    for xi in rng.uniform(-30.0, -1.0 - 1e-4, size=1000):
        assert lambert_wm1(xi * math.exp(xi)) == pytest.approx(
            xi, abs=1e-12 * max(1.0, abs(xi)))


def test_inverse_roundtrip_near_branch_point():
    rng = np.random.default_rng(9)
    for xi in rng.uniform(-1.0, -1.0 + 1e-4, size=200):
        allowed = 1e-12 + 5e-16 / abs(1.0 + xi + 1e-16)
        assert abs(lambert_w0(xi * math.exp(xi)) - xi) <= allowed
    for xi in rng.uniform(-1.0 - 1e-4, -1.0, size=200):
        allowed = 1e-12 + 5e-16 / abs(1.0 + xi - 1e-16)
        assert abs(lambert_wm1(xi * math.exp(xi)) - xi) <= allowed


@pytest.mark.parametrize("bad", [0.0, 0.5, NEG_INV_E - 1e-10, -1.0, math.nan])
def test_w_domain_errors(bad):
    with pytest.raises(ValueError):
        lambert_w0(bad)
    with pytest.raises(ValueError):
        lambert_wm1(bad)


def test_branch_point_clamp():
    # arguments a hair below -1/e are treated as the branch point
    x = NEG_INV_E - 5e-15
    assert lambert_w0(x) == pytest.approx(-1.0, abs=1e-7)
    assert lambert_wm1(x) == pytest.approx(-1.0, abs=1e-7)


# ---------------------------------------------------------------------------
# Lamb-Oseen constant

def test_oseen_value():
    alpha = lamb_oseen_alpha()
    assert type(alpha) is float
    assert abs(alpha - 1.25643) < 5e-6
    assert alpha == pytest.approx(1.2564312086261697, abs=1e-12)


def test_oseen_identities():
    alpha = lamb_oseen_alpha()
    assert abs(math.exp(alpha) - 2.0 * alpha - 1.0) <= 1e-12
    assert abs(alpha - (-0.5 - lambert_wm1(X_HALF))) <= 1e-12


# ---------------------------------------------------------------------------
# Riemann zeta

def test_zeta_closed_forms():
    assert abs(riemann_zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-13
    assert abs(riemann_zeta(4.0) - math.pi ** 4 / 90.0) <= 1e-13


def test_zeta_direct_summation_oracle():
    # oracle: 10^7 explicit terms plus the integral tail bracket
    s = 1.2
    n = 10_000_000
    head = float(np.sum(np.arange(1, n + 1, dtype=np.float64) ** -s))
    tail_hi = n ** (1.0 - s) / (s - 1.0)            # integral from n
    tail_lo = (n + 1) ** (1.0 - s) / (s - 1.0)      # integral from n+1
    value = riemann_zeta(s)
    assert head + tail_lo - 1e-9 <= value <= head + tail_hi + 1e-9
    # frozen high-precision value
    assert value == pytest.approx(5.591582441177751, abs=1e-12)


def test_zeta_reference_values():
    assert riemann_zeta(1.5) == pytest.approx(2.6123753486854883, abs=1e-13)


def test_zeta_strictly_decreasing_and_limit():
    grid = np.linspace(1.05, 40.0, 200)
    values = [riemann_zeta(float(s)) for s in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert riemann_zeta(50.0) - 1.0 < 1e-15
    assert zeta_minus_one(50.0) == pytest.approx(2.0 ** -50.0, rel=1e-6)


def test_zeta_against_mpmath_ladder():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in np.concatenate([np.linspace(1.01, 3.0, 40), np.linspace(3.5, 80.0, 40)]):
        expected = float(mp.zeta(mp.mpf(float(s))))
        assert riemann_zeta(float(s)) == pytest.approx(expected, abs=1e-13, rel=1e-13)


@pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan])
def test_zeta_domain(bad):
    with pytest.raises(ValueError):
        riemann_zeta(bad)
