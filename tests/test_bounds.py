"""Closed-form bound estimators against frozen oracles and paper-grade tables."""

import copy
import json
import math
import pickle
import sys
from fractions import Fraction

import numpy as np
import pytest

from sincstab.bounds import (
    complex_bound_L,
    complex_master,
    critical_A,
    kadec_transfer_lambda,
    lemma_sum_bound,
    power_law_certificate,
    power_law_threshold,
    series_majorant_margin,
    table_lambda,
    table_rows,
)
from sincstab import bounds, cli
from sincstab.grids import PerturbedGrid, power_law_grid, uniform_offset_grid
from sincstab.specfun import column_energy, zeta_minus_one


# ---------------------------------------------------------------------------
# Kadec-transfer estimate

def test_kadec_values():
    assert kadec_transfer_lambda(0.0).lambda_value == 0.0
    assert abs(kadec_transfer_lambda(0.25).lambda_value - 1.0) <= 1e-12
    # frozen from arbitrary-precision 1 - cos(0.1*pi) + sin(0.1*pi)
    assert kadec_transfer_lambda(0.1).lambda_value == pytest.approx(
        0.35796047807979385, abs=1e-15)


def test_kadec_flags_and_threshold():
    good = kadec_transfer_lambda(0.2)
    assert good.satisfies_pw and good.threshold == 0.25
    edge = kadec_transfer_lambda(0.25)
    assert not edge.satisfies_pw
    below = kadec_transfer_lambda(math.nextafter(0.25, 0.0))  # the last double under the edge
    assert below.satisfies_pw and below.lambda_value == 0.9999999999999999
    beyond = kadec_transfer_lambda(0.3)
    assert not beyond.satisfies_pw and beyond.lambda_value > 1.0
    far = kadec_transfer_lambda(1e308)  # pi*L overflows
    assert not far.satisfies_pw and far.lambda_value >= 1.0


def test_kadec_strictly_increasing():
    ladder = np.linspace(0.0, 0.25, 100)
    values = [kadec_transfer_lambda(float(L)).lambda_value for L in ladder]
    assert all(b > a for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("L", [-0.01, math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("bound", [kadec_transfer_lambda, complex_master],
                         ids=["kadec", "complex"])
def test_deviation_bound_domain(bound, L):
    with pytest.raises(ValueError, match="deviation bound L must be >= 0"):
        bound(L)


# ---------------------------------------------------------------------------
# deviation-sum estimate

def test_lemma_sum_unperturbed():
    g = uniform_offset_grid([0.0] * 9, (-4, 4))
    assert lemma_sum_bound(g).lambda_value == 0.0


def test_lemma_sum_single_node():
    g = uniform_offset_grid([0.5], (1, 1))
    # 2*(1 - sinc(0.5)) = 2*(1 - 2/pi)
    assert lemma_sum_bound(g).lambda_value == pytest.approx(
        2.0 * (1.0 - 2.0 / math.pi), abs=1e-15)
    assert lemma_sum_bound(g).lambda_value == pytest.approx(0.7267604552648373,
                                                            abs=1e-15)


def test_lemma_sum_of_tiny_deviations_matches_mpmath():
    # the sum reads the stored delta_n = A/n, not n + delta_n rounded to
    # ulp(n) and subtracted back, which is 1.2e-7 off here
    mp = pytest.importorskip("mpmath")
    A, N = 1e-8, 1000
    with mp.workdps(40):
        x = mp.pi * mp.mpf(A)
        exact = float(mp.fsum(2 * (1 - mp.sin(x / n) / (x / n)) for n in range(1, N + 1)))
    report = lemma_sum_bound(power_law_grid(A, 1.0, N))
    assert report.lambda_value == pytest.approx(exact, rel=1e-14, abs=0.0)
    assert report.inputs["max_deviation"] == A


def test_lemma_sum_converges_to_table_split():
    # the infinite deviation sum at alpha = 1 equals lambda1 + lambda2; this
    # rests on the identity test_table_is_the_deviation_sum_plus_its_tail checks
    table = table_lambda(0.25, 1.0).lambda_value
    partial = lemma_sum_bound(power_law_grid(0.25, 1.0, 200_000)).lambda_value
    assert partial < table  # partial sums increase towards the series value
    assert table - partial < 2e-6


def test_lemma_sum_of_complex_typed_real_nodes():
    # complex-typed nodes with zero imaginary parts make a real grid
    indices = np.arange(-50, 51)
    typed = lemma_sum_bound(PerturbedGrid(indices=indices, deviations=[0.2 + 0j] * 101))
    assert typed == lemma_sum_bound(uniform_offset_grid([0.2] * 101, (-50, 50)))


def test_lemma_sum_rejects_complex():
    g = uniform_offset_grid([0.1j] * 3, (-1, 1))
    with pytest.raises(ValueError):
        lemma_sum_bound(g)


# ---------------------------------------------------------------------------
# power-law threshold and certificate

def test_threshold_values():
    # frozen from high-precision arithmetic with zeta(2) = pi^2/6
    assert power_law_threshold(1.0) == pytest.approx(0.14757180287400492, abs=1e-14)
    # zeta(1.5) = 2.6123753486854883
    assert power_law_threshold(0.75) == pytest.approx(0.11710079461328488, abs=1e-14)
    # alpha -> inf limit: 1/(pi*2^(3/4))
    assert power_law_threshold(200.0) == pytest.approx(0.18926819071273510, abs=1e-14)
    assert power_law_threshold(1e308) == pytest.approx(0.18926819071273510, abs=1e-14)


def test_threshold_domain():
    with pytest.raises(ValueError):
        power_law_threshold(0.5)


def test_certificate_values():
    rep = power_law_certificate(0.1, 1.0)
    # frozen: 2*sqrt(2)*(0.1*pi)^2*zeta(2)
    assert rep.lambda_value == pytest.approx(0.459190858795739, abs=1e-13)
    assert rep.satisfies_pw
    assert rep.threshold == pytest.approx(power_law_threshold(1.0))


def test_certificate_saturates_at_threshold():
    assert power_law_certificate(0.147576, 1.0).lambda_value == pytest.approx(
        1.0, abs=1e-4)
    eps = 1e-9
    below = power_law_certificate(power_law_threshold(1.0) - eps, 1.0)
    assert below.satisfies_pw and below.lambda_value < 1.0


@pytest.mark.parametrize("alpha", [math.nextafter(0.5, 1.0), 0.55, 0.75, 1.0, 2.0, 1e308])
@pytest.mark.parametrize("step", [-1, 0, 1])
def test_certificate_verdict_is_amplitude_below_threshold(alpha, step):
    # the theorem certifies exactly the A below the threshold; at the
    # threshold and one double either side the verdict must say the same
    threshold = power_law_threshold(alpha)
    A = threshold if step == 0 else math.nextafter(threshold, step * math.inf)
    assert power_law_certificate(A, alpha).satisfies_pw == (A < threshold)


def test_certificate_domain():
    with pytest.raises(ValueError, match="pi/4"):
        power_law_certificate(0.26, 1.0)
    with pytest.raises(ValueError):
        power_law_certificate(-0.1, 1.0)
    with pytest.raises(ValueError):
        power_law_certificate(0.1, 0.4)


def test_cross_bound_consistency():
    # the grid's deviation sum never exceeds the closed-form certificate
    for A, alpha in [(0.1, 0.75), (0.2, 1.0), (0.25, 1.5)]:
        grid_value = lemma_sum_bound(power_law_grid(A, alpha, 100_000)).lambda_value
        cert = power_law_certificate(A, alpha).lambda_value
        assert grid_value <= cert + 1e-6


# ---------------------------------------------------------------------------
# complex-regime master bound

def test_complex_bound_value():
    # frozen: (1/pi)*sqrt(3*alpha/8) with alpha the Lamb-Oseen constant
    assert complex_bound_L() == pytest.approx(0.2184917880806764, abs=1e-12)
    assert abs(complex_bound_L() - 0.218492) < 1e-6
    assert complex_bound_L() < 0.25


def test_master_values():
    assert complex_master(0.0).lambda_value == 0.0
    rep = complex_master(0.1)
    # frozen: x = (8/3)*pi^2*0.01 = 0.2631894506957162, (e^x - x - 1)/x
    assert rep.lambda_value == pytest.approx(0.14394092935186429, abs=1e-14)
    assert complex_master(complex_bound_L()).lambda_value == pytest.approx(
        1.0, abs=1e-10)
    rep = complex_master(0.3)
    # frozen from the series evaluation at x = (8/3)*pi^2*0.09
    assert rep.lambda_value == pytest.approx(3.0881192458317549, abs=1e-10)
    assert not rep.satisfies_pw


def test_master_series_agreement():
    # closed form equals the series sum_k x^k/(k+1)! within 1e-12 for x <= 10
    for x in np.linspace(1e-3, 10.0, 60):
        L = math.sqrt(x * 3.0 / 8.0) / math.pi
        series = 0.0
        term_num = 1.0
        for k in range(1, 80):
            term_num *= x
            term = term_num / math.factorial(k + 1)
            series += term
            if term < 1e-18 * series:
                break
        lam = complex_master(L).lambda_value
        assert lam == pytest.approx(series, rel=1e-12, abs=1e-12)


def test_master_monotone_and_flags():
    ladder = np.linspace(0.0, 0.4, 100)
    values = [complex_master(float(L)).lambda_value for L in ladder]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert complex_master(0.2).satisfies_pw
    assert not complex_master(0.22).satisfies_pw


def test_master_edge_is_decided_at_the_exact_root(capsys):
    # L* = (1/pi) sqrt(3a/8), a the root of e^a = 2a + 1 (the Lamb-Oseen
    # constant), to 50 digits: complex_bound_L() is the smallest double above
    # L*, where the rounded formula reads 0.9999999999999997, so the clamp at
    # complex_bound_L() makes it fail and the double below it pass
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        a = mp.findroot(lambda t: mp.exp(t) - 2 * t - 1, 1.25)
        exact = mp.sqrt(3 * a / 8) / mp.pi
        d = complex_bound_L()
        below = math.nextafter(d, 0.0)
        assert mp.mpf(below) < exact < mp.mpf(d)
    assert not complex_master(d).satisfies_pw
    assert complex_master(below).satisfies_pw
    assert cli.main(["bounds", "--complex", "--L", repr(d), "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["results"]["verdict"] == "fail"


def test_master_is_infinite_where_the_exponential_overflows():
    # x = (8/3) pi^2 L^2 passes ln(DBL_MAX) = 709.78 at L = 5.1931
    edge = math.sqrt(3.0 * math.log(sys.float_info.max) / 8.0) / math.pi
    assert edge == pytest.approx(5.1931, abs=1e-4)
    assert math.isfinite(complex_master(5.193).lambda_value)
    for L in (5.2, 6.0, 1e200, 1e300):
        rep = complex_master(L)
        assert rep.lambda_value == math.inf
        assert not rep.satisfies_pw


def test_report_refuses_nan_and_negative_lambda():
    for value in (math.nan, -1e-300):
        with pytest.raises(ValueError, match="nonnegative"):
            bounds.BoundReport(bound_name="lemma_sum", inputs={}, lambda_value=value,
                               threshold=None)
    assert bounds.BoundReport(bound_name="lemma_sum", inputs={}, lambda_value=0.999,
                              threshold=None).satisfies_pw


def test_report_is_an_immutable_record():
    # the contract of the frozen dataclass it replaced: construction by
    # position or keyword in field order, components None by default, no
    # assignment, the dataclass repr, equality over every field, and copies
    # and pickles that compare equal
    report = bounds.BoundReport("kadec_transfer", {"L": 0.2}, 0.75, 0.25)
    assert report == bounds.BoundReport(bound_name="kadec_transfer", inputs={"L": 0.2},
                                        lambda_value=0.75, threshold=0.25, components=None)
    assert report != bounds.BoundReport("kadec_transfer", {"L": 0.2}, 0.75, 0.25, {})
    with pytest.raises(AttributeError):
        report.lambda_value = 0.5
    with pytest.raises(AttributeError):
        report.verdict = "pass"
    assert repr(report) == ("BoundReport(bound_name='kadec_transfer', inputs={'L': 0.2}, "
                            "lambda_value=0.75, threshold=0.25, components=None)")
    row = table_lambda(0.1, 1.0)
    for original in (report, row):
        assert copy.deepcopy(original) == original
        assert pickle.loads(pickle.dumps(original)) == original


def test_series_majorant_inequality():
    # 2(k+1)/(2k+1) <= (8/3)^k/(k+1) for k = 1..50, equality only at k = 1
    for k in range(1, 51):
        margin = series_majorant_margin(k)
        assert margin >= 0
        assert (margin == 0) == (k == 1)
    assert series_majorant_margin(2) == Fraction(158, 135)


@pytest.mark.parametrize("k", [0, -3])
def test_series_majorant_margin_domain(k):
    with pytest.raises(ValueError, match=f"k must be a positive integer, got {k}"):
        series_majorant_margin(k)


# ---------------------------------------------------------------------------
# table evaluator

TABLE_A_FIXED = [
    # alpha, lambda1, lambda2, lambda  (A = 0.25 throughout)
    (0.7, 0.199367, 0.431376, 0.630743),
    (0.65, 0.199367, 0.600929, 0.800296),
    (0.63, 0.199367, 0.705618, 0.904986),
    (0.62, 0.199367, 0.771134, 0.970502),
    (0.61599, 0.199367, 0.800596, 0.999963),
]

TABLE_ALPHA_ONE = [
    # A, lambda1, lambda2, lambda  (alpha = 1 throughout)
    (0.25, 0.199367, 0.132089, 0.331456),
    (0.35, 0.379336, 0.257921, 0.637257),
    (0.4, 0.486347, 0.336085, 0.822432),
    (0.42, 0.531859, 0.370154, 0.902013),
    (0.44, 0.578765, 0.405809, 0.984574),
    (0.44366, 0.587491, 0.412505, 0.999996),
]


@pytest.mark.parametrize("alpha,l1,l2,lam", TABLE_A_FIXED)
def test_table_fixed_amplitude(alpha, l1, l2, lam):
    rep = table_lambda(0.25, alpha)
    assert rep.components["lambda1"] == pytest.approx(l1, abs=1e-5)
    assert rep.components["lambda2"] == pytest.approx(l2, abs=1e-5)
    assert rep.lambda_value == pytest.approx(lam, abs=1e-5)


@pytest.mark.parametrize("A,l1,l2,lam", TABLE_ALPHA_ONE)
def test_table_fixed_exponent(A, l1, l2, lam):
    rep = table_lambda(A, 1.0)
    assert rep.components["lambda1"] == pytest.approx(l1, abs=1e-5)
    assert rep.components["lambda2"] == pytest.approx(l2, abs=1e-5)
    assert rep.lambda_value == pytest.approx(lam, abs=1e-5)


def test_table_lambda2_vanishes_for_large_exponent():
    assert table_lambda(0.25, 20.0).components["lambda2"] < 1e-10


def test_table_monotone_in_amplitude():
    ladder = np.linspace(0.01, 0.5, 100)
    values = [table_lambda(float(A), 1.0).lambda_value for A in ladder]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_table_domain():
    with pytest.raises(ValueError):
        table_lambda(0.0, 1.0)
    with pytest.raises(ValueError):
        table_lambda(0.25, 0.5)
    limit = bounds.MAX_TABLE_AMPLITUDE
    for A in (math.nextafter(limit, math.inf), 20.0, 1e308):
        with pytest.raises(ValueError, match="A <= 10"):
            table_lambda(A, 1.0)
        with pytest.raises(ValueError, match="A <= 10"):
            table_rows(1.0, [0.25, A])


def _mp_deviation_tail(A, alpha, N, mp):
    """2 sum_{n>N} (1 - sinc(A/n^alpha)), exactly: the sine series of each
    term summed over n first, as Hurwitz zeta values zeta(2*l*alpha, N + 1)."""
    x, a = mp.pi * mp.mpf(A), mp.mpf(alpha)
    total, l = mp.mpf(0), 1
    while True:
        term = (2 * (-1) ** (l + 1) * x ** (2 * l) / mp.factorial(2 * l + 1)
                * mp.zeta(2 * l * a, N + 1))
        total += term
        if abs(term) < mp.mpf(10) ** -40 * abs(total):
            return total
        l += 1


def _mp_table_lambda(A, alpha, mp, head=300):
    """lambda(A, alpha) = 2 sum_{n>=1} (1 - sinc(A/n^alpha)) in 40 digits: the
    first terms directly (each sine series converges for any A), the rest
    by _mp_deviation_tail."""
    x, a = mp.pi * mp.mpf(A), mp.mpf(alpha)
    direct = mp.fsum(2 * (1 - mp.sin(x / n ** a) / (x / n ** a)) for n in range(1, head + 1))
    return direct + _mp_deviation_tail(A, alpha, head, mp)


AMPLITUDES = [1e-12, 1e-10, 1e-8, 1e-6, 1e-4, 1e-3, 1e-2, 0.1, 0.3, 0.44366, 0.61,
              1.0, 2.0, 3.0, 5.0, 7.5, 10.0]


@pytest.mark.parametrize("alpha", [0.55, 1.0, 2.0])
def test_table_lambda_matches_mpmath_at_every_amplitude(alpha):
    # 2(1 - sinc A) loses all its digits as A -> 0 (0.21 off at A = 1e-8,
    # alpha = 1) and the alternating series cancels as A grows (1.7e-12 off
    # at A = 10, alpha = 0.55); column_energy and the head up to N0 keep the
    # table within 1e-15.  Just above pi*A = 0.5, where column_energy is
    # 2(1 - sinc A) itself, lambda can be 1.5e-15 off (A = 0.16, alpha = 2)
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        for A in AMPLITUDES:
            ref = _mp_table_lambda(A, alpha, mp)
            lam = table_lambda(A, alpha).lambda_value
            assert abs(lam - ref) <= 1e-15 * ref, (A, lam, ref)


@pytest.mark.parametrize("alpha", [0.55, 1.0, 2.0])
def test_table_is_the_deviation_sum_plus_its_tail(alpha):
    # column n of the all-rows S - I has squared norm column_energy(delta_n), so
    # lemma_sum_bound is ||S - I||_HS^2 over the listed columns and the table
    # lambda is the same sum over every n >= 1.  test_lemma_sum_converges_to_
    # table_split and test_norm_dominated_by_deviation_sum rest on this
    # identity.
    mp = pytest.importorskip("mpmath")
    N = 400
    for A in (1e-8, 1e-6, 0.01, 0.1, 0.44366, 2.0, 10.0):
        listed = lemma_sum_bound(power_law_grid(A, alpha, N)).lambda_value
        with mp.workdps(40):
            tail = float(_mp_deviation_tail(A, alpha, N, mp))
        lam = table_lambda(A, alpha).lambda_value
        assert lam == pytest.approx(listed + tail, rel=1e-14, abs=0.0), (A, alpha)


@pytest.mark.parametrize("alpha", [math.nextafter(0.5, 1.0), 0.55, 1.0])
def test_table_head_at_the_amplitude_limit(monkeypatch, alpha):
    # MAX_TABLE_AMPLITUDE bounds the head: at A = 10, N0 <= 246 terms of
    # column_energy, the most as alpha -> 1/2 (N0 + 1 >= (5 pi)^(1/alpha))
    energies = []

    def counting(x):
        energies.append(x)
        return column_energy(x)

    monkeypatch.setattr(bounds, "column_energy", counting)
    table_lambda(bounds.MAX_TABLE_AMPLITUDE, alpha)
    n0 = len(energies)
    assert n0 <= 246
    assert math.pi * 10.0 / (n0 + 1) ** alpha <= 2.0 < math.pi * 10.0 / n0 ** alpha


@pytest.mark.parametrize("alpha", [0.55, 1.0, 2.0])
def test_table_at_the_amplitude_limit_matches_mpmath(alpha):
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        x = mp.pi * 10
        lam = 2 * (1 - mp.sin(x) / x)
        l = 1
        while True:
            term = (2 * (-1) ** (l + 1) * x ** (2 * l) / mp.factorial(2 * l + 1)
                    * (mp.zeta(2 * l * mp.mpf(alpha)) - 1))
            lam += term
            if abs(term) < mp.mpf(10) ** -30 * abs(lam):
                break
            l += 1
        assert table_lambda(10.0, alpha).lambda_value == pytest.approx(float(lam), rel=1e-11)


# ---------------------------------------------------------------------------
# critical amplitude

def test_critical_amplitude_at_one():
    a_star = critical_A(1.0)
    assert abs(a_star - 0.44366) < 1e-4
    assert table_lambda(a_star, 1.0).lambda_value == pytest.approx(1.0, abs=1e-5)


def test_critical_exponent_inverse_check():
    # at fixed A = 0.25 the estimate crosses 1 near alpha = 0.61599
    assert table_lambda(0.25, 0.61599).lambda_value == pytest.approx(
        0.999963, abs=1e-5)


def test_critical_amplitude_large_exponent_limit():
    # as the zeta weight vanishes, A* approaches the root of 2*(1 - sinc(A)) = 1
    f = lambda A: 2.0 * (1.0 - math.sin(math.pi * A) / (math.pi * A)) - 1.0
    lo, hi = 0.4, 0.9
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    pure_root = 0.5 * (lo + hi)
    assert critical_A(50.0) == pytest.approx(pure_root, abs=1e-5)
    # zeta(2 alpha) - 1 is 0 once 2 alpha overflows to inf
    assert critical_A(1e308) == pytest.approx(pure_root, abs=1e-5)


def _per_term_split(A, alpha):
    """The split estimate with the tail weight recomputed inside every term."""
    n0 = 1
    while math.pi * A / (n0 + 1) ** alpha > 2.0:
        n0 += 1
    lambda1 = column_energy(A)
    lambda2 = math.fsum(column_energy(A * n ** -alpha) for n in range(2, n0 + 1))
    piA2 = (math.pi * A) ** 2
    power, fact, sign = piA2, 6.0, 1.0
    for l in range(1, 200):
        term = 2.0 * sign * power / fact * zeta_minus_one(2.0 * l * alpha, n0 + 1)
        lambda2 += term
        if abs(term) < 1e-13:
            break
        power *= piA2
        fact *= (2.0 * l + 2.0) * (2.0 * l + 3.0)
        sign = -sign
    return lambda1, lambda2


def test_table_lambda_bit_identical_to_per_term_loop():
    rng = np.random.default_rng(20160328)
    # A in (0, 1] and alpha in (0.5, 50]; A = 2 and 10 run the series further
    # and, at alpha = 0.55 and 1, add head terms (N0 = 8 and 3 at A = 2)
    pairs = [(1.0 - float(u), 50.0 - float(v)) for u, v in zip(rng.uniform(0.0, 1.0, 200),
                                                             rng.uniform(0.0, 49.5, 200))]
    pairs += [(2.0, 0.55), (2.0, 1.0), (2.0, 7.5), (1.0, 0.5 + 1e-9), (10.0, 0.55),
              (10.0, 1.0)]
    for A, alpha in pairs:
        rep = table_lambda(A, alpha)
        lambda1, lambda2 = _per_term_split(A, alpha)
        assert rep.components["lambda1"] == lambda1, (A, alpha)
        assert rep.components["lambda2"] == lambda2, (A, alpha)
        assert rep.lambda_value == lambda1 + lambda2, (A, alpha)


def test_critical_amplitude_computes_each_zeta_weight_once(monkeypatch):
    calls = []

    def counting(s, start=2):
        calls.append(s)
        return zeta_minus_one(s, start)

    monkeypatch.setattr(bounds, "zeta_minus_one", counting)
    a_star = critical_A(1.0)
    assert len(calls) <= 10  # one per series term, not one per term per evaluation
    assert len(set(calls)) == len(calls)
    monkeypatch.undo()
    assert a_star == pytest.approx(_mp_critical_amplitude(1.0), rel=1e-12)


def _mp_critical_amplitude(alpha):
    """A* from the split series in 30-digit mpmath, zeta(s, 2) = zeta(s) - 1."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(alpha)

        def excess(A):  # lambda(A) - 1
            x = mp.pi * A
            total, l = 1 - 2 * mp.sin(x) / x, 1
            while True:
                term = (2 * (-1) ** (l + 1) * x ** (2 * l) / mp.factorial(2 * l + 1)
                        * mp.zeta(2 * l * a, 2))
                total += term
                if abs(term) < mp.mpf(10) ** -35:
                    return total
                l += 1

        return float(mp.findroot(excess, (mp.mpf("0.01"), mp.mpf("0.61")),
                                 solver="anderson"))


@pytest.mark.parametrize("alpha", [0.55, 0.75, 1.0, 2.0, 50.0])
def test_critical_amplitude_matches_mpmath(alpha):
    assert critical_A(alpha) == pytest.approx(_mp_critical_amplitude(alpha), rel=1e-12)


@pytest.mark.parametrize("alphas", [
    [math.nextafter(0.5, 1.0)], [0.5000000000001], [0.500000001], [0.5000001],
    [0.55], [1.0], [50.0], [1e308], [0.55 + 0.0025 * i for i in range(181)],
], ids=lambda alphas: f"{len(alphas)}-exponents" if len(alphas) > 1 else repr(alphas[0]))
def test_critical_row_is_at_lambda_one(alphas):
    # the search stops on |lambda - 1| itself, so the root holds at every
    # exponent, however close to 1/2
    for alpha in alphas:
        row = table_rows(alpha, [], critical=True)[0]
        assert abs(row.lambda_value - 1.0) <= 1e-12, alpha
        assert 0.0 < row.inputs["A"] < 0.61


@pytest.mark.parametrize("alpha", [math.nextafter(0.5, 1.0), 0.55, 1.0, 50.0, 1e308])
def test_critical_amplitude_series_evaluations(monkeypatch, alpha):
    evaluations = []
    make_series = bounds._lambda_series

    def counting_series(a):
        series = make_series(a)

        def evaluate(A):
            evaluations.append(A)
            return series(A)

        return evaluate

    monkeypatch.setattr(bounds, "_lambda_series", counting_series)
    critical_A(alpha)
    assert len(evaluations) <= 8


def test_critical_search_falls_back_to_bisection(monkeypatch):
    # a jump of lambda from 0 to 2 at A = 0.4 stalls the secant, so the
    # midpoints pin the jump to a 4-ulp bracket in about bisection's
    # log2(0.61 / (4 ulp(0.4))) = 52 evaluations
    evaluations = []

    def step_series(alpha):
        def evaluate(A):
            evaluations.append(A)
            return (0.0 if A < 0.4 else 2.0), 0.0

        return evaluate

    monkeypatch.setattr(bounds, "_lambda_series", step_series)
    a_star = critical_A(1.0)
    assert 0.4 <= a_star <= 0.4 + 4 * math.ulp(0.4)
    assert len(evaluations) <= 56


@pytest.mark.parametrize("alpha", [0.55, 1.0, 7.5])
def test_table_rows_share_each_zeta_weight(monkeypatch, alpha):
    amplitudes = (0.05, 0.2, 0.3, 0.45)
    calls = []

    def counting(s, start=2):
        calls.append(s)
        return zeta_minus_one(s, start)

    monkeypatch.setattr(bounds, "zeta_minus_one", counting)
    reports = table_rows(alpha, amplitudes, critical=True)
    shared = len(calls)
    calls.clear()
    singly = [table_lambda(A, alpha) for A in amplitudes]
    a_star = critical_A(alpha)
    singly.append(table_lambda(a_star, alpha))
    # one zeta call per series term of the exponent, however many rows
    assert shared <= 10
    assert shared < len(calls)
    monkeypatch.undo()
    assert reports == singly  # every field, every float compared with ==


def test_table_rows_validate_inputs():
    with pytest.raises(ValueError, match="alpha > 1/2"):
        table_rows(0.5, [0.1])
    with pytest.raises(ValueError, match="A > 0"):
        table_rows(1.0, [0.1, -0.2])
    assert table_rows(1.0, []) == []


@pytest.mark.parametrize("alpha", [0.5, math.nan, math.inf])
def test_critical_amplitude_domain(alpha):
    with pytest.raises(ValueError, match="alpha > 1/2"):
        critical_A(alpha)
