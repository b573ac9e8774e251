"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one pass/fail line
per criterion (with wall-clock time) on stdout.
"""

import json
import math
import time
from contextlib import contextmanager

import numpy as np

import sincstab as ss
from sincstab.cli import main as cli_main
from sincstab.framekit import TruncationWindow, synthesis_matrix


@contextmanager
def criterion(number, label):
    start = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"criterion {number:2d} ({label}): FAIL")
        raise
    elapsed_ms = (time.perf_counter() - start) * 1e3
    print(f"criterion {number:2d} ({label}): PASS [{elapsed_ms:.1f} ms]")


def perturbation(grid, window):
    """S - I: the grid's synthesis matrix less 1 at row k = n of column n."""
    E = synthesis_matrix(grid, window)
    E[grid.indices - window.row_range[0], np.arange(len(grid))] -= 1.0
    return E


def per_call_seconds(fn, repeats):
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats


def test_criterion_01_lamb_oseen_constant(capsys):
    with criterion(1, "Lamb-Oseen constant"):
        code = cli_main(["oseen", "--format", "json"])
        reported = json.loads(capsys.readouterr().out)["results"]
        assert code == 0
        assert abs(reported["alpha"] - 1.25643) < 5e-6
        assert abs(reported["residual"]) < 1e-12
        alpha = ss.lamb_oseen_alpha()
        assert abs(alpha - 1.25643) < 5e-6
        assert abs(math.exp(alpha) - 2.0 * alpha - 1.0) < 1e-12
        assert per_call_seconds(ss.lamb_oseen_alpha, 200) < 1e-3


def test_criterion_02_complex_threshold():
    with criterion(2, "complex threshold"):
        L = ss.complex_bound_L()
        assert abs(L - 0.218492) < 1e-6
        assert abs(ss.complex_master(L).lambda_value - 1.0) < 1e-4
        assert per_call_seconds(
            lambda: ss.complex_master(ss.complex_bound_L()), 200) < 1e-3


TABLE_1 = [
    (0.7, 0.199367, 0.431376, 0.630743),
    (0.65, 0.199367, 0.600929, 0.800296),
    (0.63, 0.199367, 0.705618, 0.904986),
    (0.62, 0.199367, 0.771134, 0.970502),
    (0.61599, 0.199367, 0.800596, 0.999963),
]

TABLE_2 = [
    (0.25, 0.331456),
    (0.35, 0.637257),
    (0.4, 0.822432),
    (0.42, 0.902013),
    (0.44, 0.984574),
    (0.44366, 0.999996),
]


def test_criterion_03_table_one_reproduction():
    with criterion(3, "table at fixed amplitude"):
        start = time.perf_counter()
        for alpha, l1, l2, lam in TABLE_1:
            report = ss.table_lambda(0.25, alpha)
            assert abs(report.components["lambda1"] - l1) <= 1e-5
            assert abs(report.components["lambda2"] - l2) <= 1e-5
            assert abs(report.lambda_value - lam) <= 1e-5
        assert time.perf_counter() - start < 1.0


def test_criterion_04_table_two_reproduction():
    with criterion(4, "table at unit exponent"):
        start = time.perf_counter()
        for A, lam in TABLE_2:
            assert abs(ss.table_lambda(A, 1.0).lambda_value - lam) <= 1e-5
        assert abs(ss.critical_A(1.0) - 0.44366) <= 1e-4
        assert time.perf_counter() - start < 1.0


def test_criterion_05_deviation_sum_dominance():
    # ||S - I||^2 <= ||S - I||_HS^2, which lemma_sum_bound sums over the listed
    # columns (tests/test_bounds.py::test_table_is_the_deviation_sum_plus_its_tail)
    with criterion(5, "deviation-sum dominance"):
        start = time.perf_counter()
        window = TruncationWindow(row_range=(-1000, 1000))
        for A in (0.1, 0.2):
            for alpha in (0.75, 1.0, 2.0):
                grid = ss.power_law_grid(A, alpha, 1000, extend_nonpositive=True)
                summary = ss.perturbation_norm(grid, window)
                assert summary.converged
                bound = ss.lemma_sum_bound(grid).lambda_value
                assert summary.perturbation_norm ** 2 <= bound + 1e-6
        assert time.perf_counter() - start < 30.0


def test_criterion_06_oracle_equivalence():
    with criterion(6, "estimators match dense oracles"):
        start = time.perf_counter()
        rng = np.random.default_rng(20240817)
        for trial in range(20):
            m = int(rng.integers(3, 41))
            half = (m - 1) // 2
            offsets = rng.uniform(-0.15, 0.15, size=m)
            grid = ss.uniform_offset_grid(offsets, (-half, -half + m - 1))
            radius = int(rng.integers(max(half + 1, 25), 61))
            window = TruncationWindow(row_range=(-radius, radius))
            # spectral norm: exact eigenvalues of E^H E vs dense SVD
            estimate = ss.perturbation_norm(grid, window, seed=trial)
            assert estimate.converged
            E = perturbation(grid, window)
            exact = float(np.linalg.svd(E, compute_uv=False)[0])
            assert abs(estimate.perturbation_norm - exact) <= 1e-8
            # Gram solve: CG vs dense direct solve
            samples = rng.standard_normal(m)
            result = ss.solve_coefficients(samples, grid)
            dense = np.linalg.solve(ss.gram_matrix(grid), samples)
            assert float(np.max(np.abs(result.coefficients - dense))) <= 1e-8
        # above DENSE_EIG_CUTOFF columns the norm comes from ARPACK
        grid = ss.uniform_offset_grid(rng.uniform(-0.15, 0.15, size=901), (-450, 450))
        window = TruncationWindow(row_range=(-450, 450))
        estimate = ss.perturbation_norm(grid, window, seed=20)
        assert estimate.converged and estimate.iterations_used > 0
        E = perturbation(grid, window)
        exact = float(np.linalg.svd(E, compute_uv=False)[0])
        assert abs(estimate.perturbation_norm - exact) <= 1e-8
        assert time.perf_counter() - start < 10.0


def test_criterion_07_kadec_edge():
    with criterion(7, "quarter-deviation edge"):
        start = time.perf_counter()
        assert abs(ss.kadec_transfer_lambda(0.25).lambda_value - 1.0) <= 1e-12
        ladder = np.linspace(0.0, 0.25, 100)
        values = [ss.kadec_transfer_lambda(float(L)).lambda_value for L in ladder]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert time.perf_counter() - start < 0.1
        assert per_call_seconds(lambda: ss.kadec_transfer_lambda(0.25), 500) < 1e-3


def test_criterion_08_ingham_degradation():
    with criterion(8, "counterexample-grid degradation"):
        start = time.perf_counter()
        minima = []
        for N in (8, 16, 32, 64):
            summary, _ = ss.riesz_bounds_estimate(ss.ingham_grid(N))
            assert summary.converged
            minima.append(summary.min_eigenvalue)
        assert all(b < a for a, b in zip(minima, minima[1:]))
        assert time.perf_counter() - start < 60.0


def test_criterion_09_reconstruction():
    with criterion(9, "nonuniform reconstruction"):
        start = time.perf_counter()
        signal = ss.BandlimitedSignal([0.3], [1.0])
        errors = []
        for N in (25, 50, 100, 200):
            grid = ss.power_law_grid(0.2, 1.0, N, extend_nonpositive=True)
            samples = ss.sample_signal(signal, grid)
            result = ss.solve_coefficients(samples, grid)
            t = np.linspace(-20.0, 20.0, 2001)
            errors.append(ss.reconstruction_error(
                t, signal(t), ss.evaluate_reconstruction(result, grid, t)))
        assert errors[-1] < 1e-2
        for before, after in zip(errors, errors[1:]):
            assert after <= 1.1 * before  # nonincreasing within 10%
        assert time.perf_counter() - start < 60.0


def test_criterion_10_master_series_inequality():
    with criterion(10, "master-series majorant"):
        start = time.perf_counter()
        for k in range(1, 51):
            margin = ss.series_majorant_margin(k)
            assert margin >= 0
            assert (margin == 0) == (k == 1)
        assert time.perf_counter() - start < 1e-3


def test_criterion_11_special_function_identities():
    with criterion(11, "special-function identities"):
        start = time.perf_counter()
        assert abs(ss.riemann_zeta(2.0) - math.pi ** 2 / 6.0) <= 1e-13
        assert abs(ss.riemann_zeta(4.0) - math.pi ** 4 / 90.0) <= 1e-13
        assert time.perf_counter() - start < 1.0
