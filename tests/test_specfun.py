"""Special-function tests: frozen oracle values, identities, domains."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from sincstab import specfun
from sincstab.specfun import (
    MAX_DENSE_BYTES,
    column_energy,
    lamb_oseen_alpha,
    riemann_zeta,
    sinc,
    sinc_array,
    sinc_complex_array,
    sinc_matrix,
    zeta_minus_one,
)


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


def test_column_energy_against_mpmath():
    # 2(1 - sinc x) in 40 digits.  Below |pi x| = 0.5 the Taylor series keeps
    # 2.3 ulps where the difference itself is all rounding at x = 1e-8; above
    # it column_energy is that difference, 16 ulps off just past the cutoff
    # and 3 from |pi x| = 1 on
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(np.float64).eps
    xs = np.concatenate([np.logspace(-12.0, 1.0, 600), np.linspace(0.5, 1.0, 200) / math.pi])
    with mp.workdps(40):
        for x in map(float, xs):
            y = mp.pi * x
            ref = 2 * (1 - mp.sin(y) / y)
            ulps = 16.0 if 0.5 <= math.pi * x < 1.0 else 4.0
            for v in (x, -x):
                assert abs(column_energy(v) - ref) <= ulps * eps * ref, v


def test_column_energy_is_the_difference_from_the_cutoff_on():
    # the split table's critical rows keep their bits because column_energy
    # is 2(1 - sinc x) itself wherever |pi x| >= 0.5
    rng = np.random.default_rng(11)
    for x in np.concatenate([rng.uniform(0.5 / math.pi, 12.0, 500), [0.5 / math.pi, 0.3]]):
        assert column_energy(x) == 2.0 * (1.0 - sinc(x)), x
    assert column_energy(0.0) == 0.0
    assert column_energy(3.0) == column_energy(-7.0) == 2.0
    for bad in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            column_energy(bad)


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
    assert complex(sinc_complex_array(0.0 + 0.0j)) == 1.0 + 0.0j
    assert complex(sinc_complex_array(1.0 + 0.0j)) == pytest.approx(0.0, abs=1e-15)
    # sin(0.25j*pi)/(0.25j*pi) = sinh(0.25*pi)/(0.25*pi); frozen from the
    # arbitrary-precision sinh oracle
    expected = math.sinh(0.25 * math.pi) / (0.25 * math.pi)
    assert expected == pytest.approx(1.1060262195271029, abs=1e-15)
    assert complex(sinc_complex_array(0.25j)) == pytest.approx(expected, abs=1e-13)


def test_sinc_complex_matches_real_axis():
    rng = np.random.default_rng(11)
    for x in rng.uniform(-20.0, 20.0, size=200):
        z = complex(sinc_complex_array(complex(x, 0.0)))
        assert z.imag == 0.0
        assert abs(z.real - sinc(x)) <= 1e-15


def test_sinc_complex_series_window_is_smooth():
    # values just inside and outside |pi z| = 0.1 agree
    for z in (0.0318, 0.0318j, 0.02 + 0.02j):
        inner = complex(sinc_complex_array(z * 0.999))
        outer = complex(sinc_complex_array(z * 1.001))
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


def test_sinc_matrix_integer_rows_against_mpmath(monkeypatch):
    # blocks of 3 rows: all-integer blocks take the one-term fill (odd and
    # even rows, so cos(pi u_i) is -1 and 1), and the blocks that mix
    # integer and non-integer rows, either first, keep the rank-2 quotient
    mp = pytest.importorskip("mpmath")
    u = np.array([-7.0, -6.0, -5.0, 0.0, 1.0, 1.5, 2.25, 3.0, 4.0, 9.0, 10.0, 1e5 + 1.0])
    rng = np.random.default_rng(12)
    v = np.concatenate([rng.uniform(-12.0, 12.0, 30), [-6.0, 0.0, 3.0, 1e5 + 0.3, 1e5 - 7.6]])
    monkeypatch.setattr(specfun, "SINC_BLOCK", 3 * v.size)
    M = sinc_matrix(u, v)
    Z = sinc_matrix(u, v + 0.3j)
    with mp.workdps(40):
        for i, j in np.ndindex(M.shape):
            assert abs(M[i, j] - _mp_sinc(mp, u[i], v[j])) <= 1e-15, (u[i], v[j])
            expected = _mp_sinc(mp, u[i], v[j] + 0.3j)
            assert abs(mp.mpc(Z[i, j]) - expected) <= 2e-15 * abs(expected), (u[i], v[j])


def _integer_row_cases():
    from sincstab.grids import power_law_grid

    power = power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True).nodes
    k = np.arange(-1200.0, 1201.0)
    complex_nodes = np.arange(-300.0, 301.0) + 0.1 + 0.1j
    yield "S, real columns", k, power
    yield "S, complex columns", k, complex_nodes
    yield "S, complex integer rows", k.astype(np.complex128), power
    # 1001 unmoved rows, then 1000 moved; the row block over 992..1007 mixes both
    yield "Gram with unmoved rows", power, power
    # 16-row blocks: rows 16..31 end in one moved row, 32..40 are all moved
    straddling = np.arange(-20.0, 21.0) + 0.5 * (np.arange(41) > 30)
    yield "block straddling the integer rows", straddling, power


@pytest.mark.parametrize("name, u, v", list(_integer_row_cases()),
                         ids=[case[0] for case in _integer_row_cases()])
def test_sinc_matrix_integer_rows_keep_quotient_bits(name, u, v):
    # the one-term fill equals the rank-2 quotient, and its nonzero real and
    # imaginary parts have the same bits: only the signs of zeros may differ
    M = sinc_matrix(u, v)
    rank2 = _masked_sinc_matrix(u, v, one_term=False)
    assert np.array_equal(M, rank2)
    parts, expected = M.view(np.float64), rank2.view(np.float64)
    nonzero = parts != 0.0
    assert np.array_equal(parts[nonzero].view(np.int64), expected[nonzero].view(np.int64))


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


def _masked_sinc_matrix(u, v, one_term=True):
    """sinc_matrix with its near pairs marked by testing every difference,
    |Re(u_i - v_j)| < 1 on the whole matrix, instead of a binary search.
    With one_term, its row blocks of integer u_i take the one-term fill, as
    sinc_matrix's do, so that the signs of exact zeros agree too; without,
    every far entry is the rank-2 quotient."""
    u, v = np.asarray(u), np.asarray(v)
    u = u.astype(np.result_type(u, np.float64), copy=False)
    v = v.astype(np.result_type(v, np.float64), copy=False)
    kernel = sinc_complex_array if np.iscomplexobj(u) or np.iscomplexobj(v) else sinc_array
    su, cu = specfun._sin_cos_pi(u)
    sv, cv = specfun._sin_cos_pi(v)
    d = u[:, None] - v
    with np.errstate(divide="ignore", invalid="ignore"):
        out = (su[:, None] * cv - cu[:, None] * sv) / (d * np.pi)
        step = max(1, specfun.SINC_BLOCK // max(v.size, 1))
        for i0 in range(0, u.size, step):
            rows = slice(i0, i0 + step)
            if one_term and not np.any(su[rows]):
                out[rows] = sv / (d[rows] * np.pi) * -cu[rows, None]
    near = np.abs(d.real) < 1.0
    out[near] = kernel(d[near])
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
    # the sorted search selects the pairs that a test of every difference
    # marks, and so the same bits
    expected = _masked_sinc_matrix(u, v)
    M = sinc_matrix(u, v)
    assert M.shape == expected.shape and M.dtype == expected.dtype
    assert np.array_equal(M.view(np.uint8), expected.view(np.uint8))


def test_sinc_matrix_symmetric_up_to_signs_of_zeros():
    # M(u, u) equals its transpose, and its bits differ from the mirror's
    # only at exact zeros: on the Ingham nodes n + sign(n)/4, M[-3, -2] is
    # -0.0 and M[-2, -3] is 0.0
    n = np.arange(-3, 4)
    ingham = sinc_matrix(n + 0.25 * np.sign(n), n + 0.25 * np.sign(n))
    assert np.signbit(ingham[0, 1]) and not np.signbit(ingham[1, 0])
    x = np.sort(np.random.default_rng(4).uniform(-20.0, 20.0, 300))
    for M in (ingham, sinc_matrix(x, x)):
        assert np.array_equal(M, M.T)
        differ = M.view(np.int64) != M.T.view(np.int64)
        assert not np.any(differ & (M != 0.0))


def test_sinc_matrix_clustered_nodes_in_small_chunks(monkeypatch):
    # 1500 nodes within 2 of each other make every pair a near-pair
    # candidate; they are expanded whole rows at a time, at most SINC_BLOCK
    # of them or one row, which changes no bit
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.9, 0.9, 1500)
    monkeypatch.setattr(specfun, "SINC_BLOCK", x.size ** 2)
    whole = sinc_matrix(x, x)
    for block in (1000, 4099):  # one row, longer than a block, and two rows per chunk
        monkeypatch.setattr(specfun, "SINC_BLOCK", block)
        assert np.array_equal(sinc_matrix(x, x).view(np.uint8), whole.view(np.uint8))
    assert np.max(np.abs(whole - sinc_array(x[:, None] - x))) <= 1e-15
    # at the default block the candidates cost no more than the output
    monkeypatch.undo()
    tracemalloc.start()
    try:
        sinc_matrix(x, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.2 * whole.nbytes


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
# Lamb-Oseen constant

def test_oseen_value():
    alpha = lamb_oseen_alpha()
    assert type(alpha) is float
    assert abs(alpha - 1.25643) < 5e-6
    assert alpha == pytest.approx(1.2564312086261697, abs=1e-12)


def test_oseen_identities():
    alpha = lamb_oseen_alpha()
    assert abs(math.exp(alpha) - 2.0 * alpha - 1.0) <= 1e-12


def test_oseen_is_the_correctly_rounded_root():
    # the 50-digit root of e^a = 2a + 1 rounds to the double returned
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        root = mp.findroot(lambda t: mp.exp(t) - 2 * t - 1, 1.25)
    assert lamb_oseen_alpha() == float(root)


# ---------------------------------------------------------------------------
# Riemann zeta

def test_euler_maclaurin_coefficients_are_correctly_rounded():
    # B_2k / (2k)! from the exact (p, q) pairs, rounded once as a Fraction
    expected = [float(Fraction(p, q) / math.factorial(2 * k))
                for k, (p, q) in enumerate(specfun._B2K, start=1)]
    assert len(expected) == 8 and specfun._B2K[-1] == (-3617, 510)  # B_16
    assert specfun._EM_COEFFS == expected


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
    assert zeta_minus_one(50.0) == pytest.approx(2.0 ** -50.0, rel=1e-6, abs=0)
    # the limit, which 2 alpha reaches when it overflows
    assert zeta_minus_one(math.inf) == 0.0 == zeta_minus_one(1076.0) == zeta_minus_one(1e300)


def test_zeta_against_mpmath_ladder():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for s in np.concatenate([np.linspace(1.01, 3.0, 40), np.linspace(3.5, 80.0, 40)]):
        expected = float(mp.zeta(mp.mpf(float(s))))
        assert riemann_zeta(float(s)) == pytest.approx(expected, abs=1e-13, rel=1e-13)


@pytest.mark.parametrize("start", [2, 3, 10, 57, 150, 247])
def test_zeta_tail_from_start_against_mpmath(start):
    # sum_{n>=start} n^-s, the split table's weights past its head; the oracle
    # sums 2000 terms directly, since mpmath's Hurwitz zeta(40, 150) is
    # 4e-12 off, and adds zeta(s, start + 2000) for the rest
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for s in (1.0001, 1.1, 1.5, 2.0, 3.3, 5.0, 10.0, 40.0, 100.0):
            ref = (mp.fsum(mp.mpf(n) ** -s for n in range(start, start + 2000))
                   + mp.zeta(s, start + 2000))
            assert zeta_minus_one(s, start) == pytest.approx(float(ref), rel=2e-15, abs=0.0), s
    assert zeta_minus_one(3.0, 2) == zeta_minus_one(3.0)


@pytest.mark.parametrize("bad", [1.0, 0.5, -2.0, math.nan, -math.inf])
def test_zeta_domain(bad):
    with pytest.raises(ValueError):
        riemann_zeta(bad)
