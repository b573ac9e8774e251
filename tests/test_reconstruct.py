"""Nonuniform reconstruction: Gram solves, interpolation, error behavior."""

import json
import math
from dataclasses import FrozenInstanceError

import numpy as np
import pytest

from sincstab import reconstruct
from sincstab.framekit import TOLERANCE, gram_matrix
from sincstab.grids import (
    PerturbedGrid,
    grid_from_file,
    ingham_grid,
    power_law_grid,
    uniform_offset_grid,
)
from sincstab.reconstruct import (
    BandlimitedSignal,
    ConvergenceError,
    ReconstructionResult,
    _conjugate_gradient,
    _smallest_ritz,
    evaluate_reconstruction,
    reconstruction_error,
    sample_signal,
    solve_coefficients,
    write_csv,
)


def integer_grid(radius):
    return uniform_offset_grid([0.0] * (2 * radius + 1), (-radius, radius))


def error_on(sig, result, grid, interval, n_points):
    """reconstruction_error on n_points uniform points of the interval."""
    t = np.linspace(interval[0], interval[1], n_points)
    return reconstruction_error(t, sig(t), evaluate_reconstruction(result, grid, t))


# ---------------------------------------------------------------------------
# signals and sampling

def test_signal_evaluation():
    sig = BandlimitedSignal([0.3], [1.0])
    assert sig(0.3) == 1.0
    assert sig(np.array([0.3, 1.3]))[1] == 0.0  # integer offset from the shift
    combo = BandlimitedSignal(shifts=np.array([0.0, 2.5]),
                              weights=np.array([1.0, -0.5]))
    t = 1.1
    expected = np.sinc(t) - 0.5 * np.sinc(t - 2.5)
    assert combo(t) == pytest.approx(expected, abs=1e-15)


def test_signal_evaluation_makes_no_points_by_atoms_matrix():
    # the one-piece evaluation of 20001 points on 200 atoms peaked at 128 MB,
    # four times its 32 MB matrix; in blocks it stays near the output's size
    import tracemalloc

    from sincstab.specfun import SINC_BLOCK, sinc_array

    rng = np.random.default_rng(7)
    sig = BandlimitedSignal(rng.uniform(-50.0, 50.0, 200), rng.standard_normal(200))
    t = np.linspace(-60.0, 60.0, 20001)
    tracemalloc.start()
    try:
        values = sig(t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < t.nbytes + 8 * SINC_BLOCK * 8  # the output and 8 block temporaries
    dense = sinc_array(t[:, None] - sig.shifts) @ sig.weights
    # |f| <= sum |c_j|, so this is 1e-15 relative to the signal's scale
    np.testing.assert_allclose(values, dense, rtol=0.0,
                               atol=1e-15 * np.abs(sig.weights).sum())
    assert sig(t.reshape(3, 6667)).shape == (3, 6667)


def test_signal_validation():
    with pytest.raises(ValueError):
        BandlimitedSignal(shifts=np.array([0.0]), weights=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        BandlimitedSignal(shifts=np.array([np.inf]), weights=np.array([1.0]))
    with pytest.raises(ValueError, match="weights"):
        BandlimitedSignal(shifts=np.array([0.0, 1.0]), weights=np.array([2.0 ** 256, 1e62]))


def test_sampling_integer_grid_is_kronecker():
    sig = BandlimitedSignal([0.0], [1.0])
    samples = sample_signal(sig, integer_grid(3))
    assert samples.tolist() == [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]


def test_sampling_hits_node_exactly():
    grid = uniform_offset_grid([0.3], (0, 0))
    assert sample_signal(BandlimitedSignal([0.3], [1.0]), grid)[0] == 1.0


def test_sampling_reference_value():
    grid = uniform_offset_grid([0.25], (1, 1))  # node at 1.25
    value = sample_signal(BandlimitedSignal([0.0], [1.0]), grid)[0]
    assert value == pytest.approx(-0.18006326323142121, abs=1e-15)


def test_sampling_rejects_complex_grid():
    grid = uniform_offset_grid([0.1j] * 3, (-1, 1))
    with pytest.raises(ValueError):
        sample_signal(BandlimitedSignal([0.0], [1.0]), grid)


# ---------------------------------------------------------------------------
# coefficient solves

def test_integer_grid_returns_samples():
    # G = I, so the coefficients are the samples themselves, bitwise
    grid = integer_grid(20)
    samples = sample_signal(BandlimitedSignal([0.3], [1.0]), grid)
    result = solve_coefficients(samples, grid)
    assert np.array_equal(result.coefficients, samples)
    assert result.residual_norm == 0.0


def test_two_node_closed_form_solve():
    grid = uniform_offset_grid([0.0, 0.25], (0, 1))
    result = solve_coefficients([1.0, 0.0], grid)
    # oracle: closed-form inverse of [[1, g], [g, 1]] applied to (1, 0)
    g = np.sinc(1.25)
    det = 1.0 - g * g
    assert result.coefficients[0] == pytest.approx(1.0 / det, abs=1e-10)
    assert result.coefficients[1] == pytest.approx(-g / det, abs=1e-10)
    assert result.coefficients[0] == pytest.approx(1.0335092413006932, abs=1e-9)
    assert result.coefficients[1] == pytest.approx(0.18609704587052026, abs=1e-9)


def test_cg_matches_dense_solve():
    rng = np.random.default_rng(17)
    for _ in range(5):
        m = int(rng.integers(5, 41))
        offsets = rng.uniform(-0.15, 0.15, size=m)
        grid = uniform_offset_grid(offsets, (0, m - 1))
        samples = rng.standard_normal(m)
        result = solve_coefficients(samples, grid)
        from sincstab.framekit import gram_matrix
        dense = np.linalg.solve(gram_matrix(grid), samples)
        assert np.max(np.abs(result.coefficients - dense)) <= 1e-8


def test_cg_matches_dense_solve_on_every_unmoved_layout(tmp_path):
    # CG's products G @ p take the moved block and the rows at the unmoved
    # integers by position: no node moved, one run unmoved, unmoved nodes
    # scattered between index gaps, and every node moved
    scattered = tmp_path / "scattered.txt"
    scattered.write_text("-7 -7\n-5 -4.8\n-4 -4\n0 0.3\n1 1\n2 2\n6 6.25\n9 9\n10 10.1\n")
    rng = np.random.default_rng(19)
    for grid in (integer_grid(6), power_law_grid(0.2, 1.0, 30, extend_nonpositive=True),
                 grid_from_file(scattered), power_law_grid(0.2, 1.0, 30)):
        samples = rng.standard_normal(len(grid))
        result = solve_coefficients(samples, grid)
        dense = np.linalg.solve(gram_matrix(grid), samples)
        assert np.max(np.abs(result.coefficients - dense)) <= 1e-8 * np.linalg.norm(dense)


def test_interpolation_consistency():
    grid = power_law_grid(0.2, 1.0, 60, extend_nonpositive=True)
    samples = sample_signal(BandlimitedSignal([0.3], [1.0]), grid)
    result = solve_coefficients(samples, grid)
    values = evaluate_reconstruction(result, grid, grid.nodes)
    tolerance = 10.0 * 1e-10 * float(np.linalg.norm(samples))
    assert np.max(np.abs(values - samples)) <= max(tolerance, 1e-12)


def test_solver_misalignment_rejected():
    grid = integer_grid(2)
    with pytest.raises(ValueError):
        solve_coefficients([1.0, 2.0], grid)


def test_zero_samples_solve_to_zero_without_iterating():
    grid = power_law_grid(0.2, 1.0, 5)
    result = solve_coefficients(np.zeros(5), grid)
    assert np.array_equal(result.coefficients, np.zeros(5))
    assert result.residual_norm == 0.0 and result.solver_iterations == 0


@pytest.mark.parametrize("call, message", [
    (lambda: solve_coefficients([1.0] * 3, uniform_offset_grid([0.1j] * 3, (-1, 1))),
     "reconstruction is implemented for real grids only"),
    (lambda: evaluate_reconstruction(ReconstructionResult(np.ones(3), 0.0, 0),
                                     integer_grid(1), [0.5, np.nan]),
     "evaluation points must be finite"),
    (lambda: evaluate_reconstruction(ReconstructionResult(np.ones(3), 0.0, 0),
                                     integer_grid(1), [-np.inf]),
     "evaluation points must be finite"),
])
def test_reconstruct_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_solver_nonconvergence_reports_diagnostics():
    # node 1 at 1e-7, next to node 0, makes the Gram matrix so near singular
    # that CG stalls short of TOLERANCE
    indices = np.arange(-20, 21)
    grid = PerturbedGrid(indices=indices, deviations=np.where(indices == 1, 1e-7 - 1.0, 0.0))
    samples = sample_signal(BandlimitedSignal([0.3], [1.0]), grid)
    with pytest.raises(ConvergenceError) as err:
        solve_coefficients(samples, grid)
    assert err.value.iterations > 0
    assert err.value.residual > TOLERANCE
    assert isinstance(err.value, ValueError)


# ---------------------------------------------------------------------------
# evaluation and error metrics

def test_shannon_partial_sum_at_shift():
    grid = integer_grid(200)
    samples = sample_signal(BandlimitedSignal([0.3], [1.0]), grid)
    result = solve_coefficients(samples, grid)
    value = evaluate_reconstruction(result, grid, [0.3])[0]
    assert abs(value - 1.0) < 1e-3


def test_far_field_decay_envelope():
    grid = power_law_grid(0.2, 1.0, 30, extend_nonpositive=True)
    samples = sample_signal(BandlimitedSignal([0.3], [1.0]), grid)
    result = solve_coefficients(samples, grid)
    t = 250.0
    value = evaluate_reconstruction(result, grid, [t])[0]
    distance = t - float(np.max(grid.nodes.real))
    envelope = float(np.sum(np.abs(result.coefficients))) / (math.pi * distance)
    assert abs(value) <= envelope


def _evaluation_points(nodes):
    """Points on a node, 1e-9 off one, one ulp either side of node +-1,
    at an integer and far away."""
    node = float(nodes.real[len(nodes) // 2 + 3])
    edges = [node + 1.0, node - 1.0]
    ulps = [np.nextafter(e, d) for e in edges for d in (-np.inf, np.inf)]
    return np.array([node, node + 1e-9, node - 1e-9, *edges, *ulps, 0.0, 7.0, -2.75, 250.5])


@pytest.mark.parametrize("grid", [
    power_law_grid(0.2, 1.0, 20, extend_nonpositive=True),
    uniform_offset_grid([0.1 + 0.1j] * 41, (-20, 20)),
], ids=["power-law", "complex-offset"])
@pytest.mark.parametrize("block_rows", [None, 3])
def test_evaluation_against_mpmath(monkeypatch, grid, block_rows):
    # 14 points, no multiple of a 3-row block: the streamed sums with their
    # near pairs from the kernel, against 40 digits and the kernel on every pair
    mp = pytest.importorskip("mpmath")
    from sincstab import specfun

    if block_rows:
        monkeypatch.setattr(specfun, "SINC_BLOCK", block_rows * len(grid))
    t = _evaluation_points(grid.nodes)
    c = np.random.default_rng(5).standard_normal(len(grid))
    result = ReconstructionResult(coefficients=c, residual_norm=0.0, solver_iterations=0)
    values = evaluate_reconstruction(result, grid, t)
    kernel = specfun.sinc_complex_array if grid.is_complex else specfun.sinc_array
    bound = 1e-15 * np.sum(np.abs(c))
    assert np.max(np.abs(values - kernel(t[:, None] - grid.nodes) @ c)) <= bound
    with mp.workdps(40):
        for ti, value in zip(t, values):
            exact = mp.fsum(float(cj) * _mp_sinc(mp, ti, node) for cj, node in zip(c, grid.nodes))
            assert abs(mp.mpc(value) - exact) <= bound, ti


def _mp_sinc(mp, a, b):
    """sinc(a - b) at the exact values of the doubles a and b."""
    d = mp.mpmathify(complex(a)) - mp.mpmathify(complex(b))
    return mp.mpf(1) if d == 0 else mp.sin(mp.pi * d) / (mp.pi * d)


def test_evaluation_makes_no_evaluation_matrix():
    # 4001 points on 2001 nodes: the old evaluation matrix took 64 MB
    import tracemalloc

    grid = power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True)
    c = np.random.default_rng(6).standard_normal(len(grid))
    result = ReconstructionResult(coefficients=c, residual_norm=0.0, solver_iterations=0)
    t = np.linspace(-20.0, 20.0, 4001)
    tracemalloc.start()
    try:
        values = evaluate_reconstruction(result, grid, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.shape == t.shape
    assert peak < t.size * len(grid) * 8 / 16


def test_half_unmoved_solve_makes_no_n_squared_array():
    # 1001 nodes, the 501 at n <= 0 unmoved: CG runs on the Gram matrix's
    # 500 x 1001 moved rows R (4 MB), so the peak stays near R where a
    # 1001^2 G would take 8 MB
    import tracemalloc

    import scipy.linalg  # noqa: F401  (imported here: the traced peak leaves out its import)

    grid = power_law_grid(0.2, 1.0, 500, extend_nonpositive=True)
    samples = np.sin(0.37 * np.arange(len(grid)))
    r_bytes = 500 * 1001 * 8
    tracemalloc.start()
    try:
        result = solve_coefficients(samples, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.residual_norm <= 1e-10
    assert peak < r_bytes + (1 << 20)


def test_self_expansion_error_is_solver_limited():
    # a signal living exactly on the grid atoms reconstructs to solver accuracy
    grid = power_law_grid(0.2, 1.0, 30, extend_nonpositive=True)
    sig = BandlimitedSignal(shifts=grid.nodes.copy(),
                            weights=np.ones(len(grid)) / len(grid))
    samples = sample_signal(sig, grid)
    result = solve_coefficients(samples, grid)
    error = error_on(sig, result, grid, (-10.0, 10.0), 4001)
    assert error <= 1e-8
    with pytest.raises(FrozenInstanceError):
        result.residual_norm = 0.0


def test_error_decreases_with_grid_size():
    sig = BandlimitedSignal([0.3], [1.0])
    errors = []
    for N in (25, 50, 100, 200):
        grid = power_law_grid(0.2, 1.0, N, extend_nonpositive=True)
        result = solve_coefficients(sample_signal(sig, grid), grid)
        errors.append(error_on(sig, result, grid, (-20.0, 20.0), 2001))
    for small, large in zip(errors[1:], errors[:-1]):
        assert small <= 1.1 * large  # nonincreasing within 10%
    assert errors[-1] < 1e-2


def test_degradation_with_amplitude():
    sig = BandlimitedSignal([0.3], [1.0])
    errors, iterations = [], []
    for A in (0.1, 0.2, 0.3, 0.4):
        grid = power_law_grid(A, 1.0, 100, extend_nonpositive=True)
        result = solve_coefficients(sample_signal(sig, grid), grid)
        errors.append(error_on(sig, result, grid, (-20.0, 20.0), 2001))
        iterations.append(result.solver_iterations)
    assert all(b >= a * 0.99 for a, b in zip(errors, errors[1:]))
    assert all(b >= a for a, b in zip(iterations, iterations[1:]))


def test_conditioning_warning(caplog):
    import logging

    sig = BandlimitedSignal([0.3], [1.0])
    with caplog.at_level(logging.WARNING, logger="sincstab.reconstruct"):
        grid = ingham_grid(64)
        solve_coefficients(sample_signal(sig, grid), grid)
    assert any("Ritz" in record.message for record in caplog.records)
    caplog.clear()
    with caplog.at_level(logging.WARNING, logger="sincstab.reconstruct"):
        grid = power_law_grid(0.2, 1.0, 64, extend_nonpositive=True)
        solve_coefficients(sample_signal(sig, grid), grid)
    assert not caplog.records


def _dense_tridiagonal_ritz(alphas, betas):
    """The probe from a dense Lanczos tridiagonal, filled entry by entry."""
    k = len(alphas)
    T = np.zeros((k, k))
    T[0, 0] = 1.0 / alphas[0]
    for i in range(1, k):
        T[i, i] = 1.0 / alphas[i] + betas[i - 1] / alphas[i - 1]
        T[i, i - 1] = T[i - 1, i] = math.sqrt(betas[i - 1]) / alphas[i - 1]
    return float(np.linalg.eigvalsh(T)[0])


def test_ritz_probe_matches_dense_smallest_eigenvalue():
    # CG run to the residual floor has met G's smallest eigenvalue, so the
    # probe reads it
    rng = np.random.default_rng(5)
    for grid in (ingham_grid(3), ingham_grid(10),
                 power_law_grid(0.2, 1.0, 10, extend_nonpositive=True)):
        G = gram_matrix(grid)
        *_, ritz = _conjugate_gradient(G, rng.standard_normal(len(grid)), 1e-15, len(grid))
        assert ritz == pytest.approx(np.linalg.eigvalsh(G)[0], rel=1e-12)
    # betas has k - 1 entries after a converged run and k after a capped one
    for k in range(1, 201):
        alphas, betas = rng.uniform(0.5, 2.0, k).tolist(), rng.uniform(0.0, 1.0, k).tolist()
        for used in (betas[:k - 1], betas):
            assert _smallest_ritz(alphas, used) == pytest.approx(
                _dense_tridiagonal_ritz(alphas, used), rel=1e-12)
    assert _smallest_ritz([], []) is None


def test_ingham_grid_reconstructs_worse():
    sig = BandlimitedSignal([0.3], [1.0])
    N = 64
    power = power_law_grid(0.2, 1.0, N, extend_nonpositive=True)
    result_p = solve_coefficients(sample_signal(sig, power), power)
    err_p = error_on(sig, result_p, power, (-20.0, 20.0), 2001)
    ingham = ingham_grid(N)
    result_i = solve_coefficients(sample_signal(sig, ingham), ingham)
    err_i = error_on(sig, result_i, ingham, (-20.0, 20.0), 2001)
    assert err_i > err_p
    assert result_i.solver_iterations > result_p.solver_iterations


def test_error_metric_validation():
    # too few points and an empty interval are refused by the CLI, before t
    # is made (tests/test_cli.py), and points that do not end above where
    # they start by the metric itself; sinc(t) vanishes exactly at the
    # integer quadrature points 1, 2, 3
    grid = integer_grid(3)
    sig = BandlimitedSignal([0.0], [1.0])
    result = solve_coefficients(sample_signal(sig, grid), grid)
    with pytest.raises(ValueError, match="vanishes"):
        error_on(sig, result, grid, (1.0, 3.0), 3)
    for interval in ((2.0, 2.0), (3.0, 1.0)):
        with pytest.raises(ValueError, match="larger t"):
            error_on(sig, result, grid, interval, 5)


def test_error_metric_does_not_underflow_on_a_short_interval():
    # the error is a ratio of two integrals, which an affine map of t leaves
    # as it is; on [0, 1e-300] the squared error times the spacing fell
    # below the smallest subnormal and the error read 0
    grid = ingham_grid(3)
    sig = BandlimitedSignal([0.3], [1.0])
    result = solve_coefficients(sample_signal(sig, grid), grid)
    short, longer = (error_on(sig, result, grid, (0.0, hi), 2001) for hi in (1e-300, 1e-200))
    assert longer > 0.0
    assert abs(short - longer) <= 1e-12 * longer


# ---------------------------------------------------------------------------
# CSV export

def test_write_csv(tmp_path):
    grid = integer_grid(10)
    sig = BandlimitedSignal([0.3], [1.0])
    result = solve_coefficients(sample_signal(sig, grid), grid)
    t = np.linspace(-5.0, 5.0, 101)
    f_ref, f_hat = sig(t), evaluate_reconstruction(result, grid, t)
    error = reconstruction_error(t, f_ref, f_hat)
    path = tmp_path / "recon.csv"
    write_csv(path, result, grid, t, f_ref, f_hat, error)
    lines = path.read_text().splitlines()
    meta = json.loads(lines[0].lstrip("# "))
    assert meta["nodes"] == 21
    assert meta["relative_l2_error"] == error
    assert lines[1] == "t,f_ref,f_hat,abs_err"
    assert len(lines) == 103
    t0, ref0, hat0, err0 = (float(v) for v in lines[2].split(","))
    assert t0 == -5.0
    assert err0 == abs(hat0 - ref0)
