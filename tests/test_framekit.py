"""Truncated-system linear algebra against dense oracles."""

import math
import tracemalloc
from dataclasses import FrozenInstanceError

import numpy as np
import pytest
import scipy.linalg

from sincstab import framekit, specfun
from sincstab.framekit import (
    DENSE_EIG_CUTOFF,
    TruncationWindow,
    dump_matrix,
    gram_matrix,
    gram_rows,
    perturbation_norm,
    riesz_bounds_estimate,
    synthesis_matrix,
)
from sincstab.grids import (
    PerturbedGrid,
    grid_from_file,
    ingham_grid,
    power_law_grid,
    uniform_offset_grid,
)
from sincstab.reconstruct import ReconstructionResult, evaluate_reconstruction
from sincstab.specfun import sinc_array, sinc_complex_array, sinc_matrix


def integer_grid(radius):
    return uniform_offset_grid([0.0] * (2 * radius + 1), (-radius, radius))


def perturbation(grid, window):
    """S - I: the grid's synthesis matrix less 1 at row k = n of column n."""
    E = synthesis_matrix(grid, window)
    E[grid.indices - window.row_range[0], np.arange(len(grid))] -= 1.0
    return E


def random_grid(rng, max_nodes=40, spread=0.15):
    m = int(rng.integers(3, max_nodes + 1))
    half = (m - 1) // 2
    indices = np.arange(-half, -half + m)
    offsets = rng.uniform(-spread, spread, size=m)
    return uniform_offset_grid(offsets, (int(indices[0]), int(indices[-1])))


# ---------------------------------------------------------------------------
# windows

def test_window_validation():
    with pytest.raises(ValueError):
        TruncationWindow(row_range=(3, 1))


def test_window_for_grid_padding_and_cap():
    w = TruncationWindow.for_grid(ingham_grid(10))
    assert w.row_range == (-50, 50)  # radius 10 padded by 4x
    capped = TruncationWindow.for_grid(
        power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True))
    assert capped.row_range == (-2000, 2000)
    assert capped.row_range[1] - capped.row_range[0] + 1 == 4001


def test_window_must_cover_grid():
    with pytest.raises(ValueError):
        synthesis_matrix(ingham_grid(5), TruncationWindow(row_range=(-3, 3)))


# ---------------------------------------------------------------------------
# synthesis matrix

@pytest.mark.parametrize("radius", [1, 7, 30])
def test_unperturbed_synthesis_is_identity(radius):
    grid = integer_grid(radius)
    S = synthesis_matrix(grid, TruncationWindow(row_range=(-radius, radius)))
    assert np.array_equal(S, np.eye(2 * radius + 1))


def test_unperturbed_identity_in_tall_window():
    grid = integer_grid(2)
    E = perturbation(grid, TruncationWindow(row_range=(-6, 6)))
    assert np.all(E == 0.0)


def test_single_node_column():
    grid = uniform_offset_grid([0.5], (0, 0))
    S = synthesis_matrix(grid, TruncationWindow(row_range=(-1, 1)))
    column = S[:, 0]
    # sinc(1.5), sinc(0.5), sinc(-0.5) = -2/(3*pi), 2/pi, 2/pi
    assert column == pytest.approx(
        [-2.0 / (3.0 * math.pi), 2.0 / math.pi, 2.0 / math.pi], abs=1e-15)


def test_ingham_column_direct_evaluation():
    grid = ingham_grid(1)
    window = TruncationWindow(row_range=(-4, 4))
    S = synthesis_matrix(grid, window)
    k = np.arange(-4, 5)
    assert S[:, 2] == pytest.approx(np.sinc(1.25 - k), abs=1e-15)


def test_real_grid_gives_real_matrix():
    S = synthesis_matrix(ingham_grid(2))
    assert S.dtype == np.float64
    Sc = synthesis_matrix(uniform_offset_grid([0.1j] * 3, (-1, 1)))
    assert Sc.dtype == np.complex128


def test_integer_grid_in_tall_window_is_exact():
    # 101 columns over 801 rows fill several row blocks of the builder
    grid = integer_grid(50)
    window = TruncationWindow(row_range=(-400, 400))
    assert np.array_equal(synthesis_matrix(grid, window), np.eye(801, 101, k=-350))
    assert np.all(perturbation(grid, window) == 0.0)


W1_GRID = power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True)


@pytest.mark.parametrize("grid, window", [
    (W1_GRID, TruncationWindow(row_range=(-1000, 1000))),
    (ingham_grid(200), None),
    (uniform_offset_grid([0.1 + 0.1j] * 201, (-100, 100)), None),
], ids=["w1-power-law", "ingham-200", "complex-offset"])
def test_matrices_agree_with_direct_kernel(grid, window):
    # S, G and the evaluation matrix against the kernel on the full difference
    window = window or TruncationWindow.for_grid(grid)
    kernel = sinc_complex_array if grid.is_complex else sinc_array
    rows = np.arange(window.row_range[0], window.row_range[1] + 1, dtype=np.float64)
    direct_S = kernel(grid.nodes[None, :] - rows[:, None])
    assert np.max(np.abs(synthesis_matrix(grid, window) - direct_S)) <= 1e-15
    if grid.is_complex:
        # the exact product of S's entries, summed in long double: a float
        # S^H S is itself 1.5e-15 away from it
        direct_S = direct_S.astype(np.clongdouble)
        direct_G = direct_S.conj().T @ direct_S
    else:
        direct_G = sinc_array(grid.nodes[:, None] - grid.nodes[None, :])
    assert np.max(np.abs(gram_matrix(grid, window) - direct_G)) <= 1e-15
    t = np.linspace(-20.0, 20.0, 401)
    c = np.random.default_rng(3).standard_normal(len(grid))
    result = ReconstructionResult(coefficients=c, residual_norm=0.0, solver_iterations=0)
    direct_f = kernel(t[:, None] - grid.nodes[None, :]) @ c
    # entries within 1e-15 move each value by at most 1e-15 * sum |c|
    error = np.max(np.abs(evaluate_reconstruction(result, grid, t) - direct_f))
    assert error <= 1e-15 * np.sum(np.abs(c))


@pytest.mark.parametrize("radius", [50, 200, 800])
def test_column_normalization(radius):
    grid = uniform_offset_grid([0.37, -0.2, 0.11], (-1, 1))
    S = synthesis_matrix(grid, TruncationWindow(row_range=(-radius, radius)))
    sums = np.sum(S ** 2, axis=0)
    assert np.all(sums <= 1.0 + 1e-9)
    # approaches 1 from below as the window grows: tail ~ 1/radius
    assert np.all(sums >= 1.0 - 3.0 / radius)


# ---------------------------------------------------------------------------
# perturbation norm

def test_norm_of_unperturbed_grid_is_zero(monkeypatch):
    # no column is moved, so no matrix is built
    def unreachable(*args, **kwargs):
        raise AssertionError("sinc matrix built for an unperturbed grid")

    monkeypatch.setattr(framekit, "sinc_matrix", unreachable)
    for radius in (10, 401):  # 803 columns are past the dense cutoff
        summary = perturbation_norm(integer_grid(radius))
        assert summary.perturbation_norm == 0.0
        assert summary.converged and summary.iterations_used == 0


def test_norm_uses_moved_columns_only():
    # 450 of the 901 columns are moved, under the dense cutoff: the norm is
    # exact and equals that of the whole S - I
    grid = power_law_grid(0.2, 1.0, 450, extend_nonpositive=True)
    window = TruncationWindow(row_range=(-450, 450))
    summary = perturbation_norm(grid, window)
    assert summary.converged and summary.iterations_used == 0
    exact = scipy.linalg.svdvals(perturbation(grid, window))[0]
    assert abs(summary.perturbation_norm - exact) <= 1e-12


def test_norm_checks_the_whole_window_first(monkeypatch):
    # the dense-size check counts every column, moved or not, before any
    # array is made
    grid = power_law_grid(0.2, 1.0, 10, extend_nonpositive=True)  # 10 of 21 moved
    monkeypatch.setattr(specfun, "MAX_DENSE_BYTES", 201 * 21 * 8 - 1)
    with pytest.raises(ValueError, match="a 201 x 21 sinc matrix needs 33768 bytes"):
        perturbation_norm(grid, TruncationWindow(row_range=(-100, 100)))


def test_norm_single_half_shift():
    # rank-one column: norm -> sqrt(2 - 4/pi) from below as the window grows;
    # the squared tail beyond radius K is ~2/(pi^2 K)
    limit = math.sqrt(2.0 - 4.0 / math.pi)
    assert limit == pytest.approx(0.8525024664274217, abs=1e-15)
    grid = uniform_offset_grid([0.5], (0, 0))
    previous = 0.0
    for radius in (500, 2000, 20_000):
        window = TruncationWindow(row_range=(-radius, radius))
        value = perturbation_norm(grid, window).perturbation_norm
        tail = 2.0 / (math.pi ** 2 * radius)
        assert previous < value <= limit
        assert limit - value <= tail  # |limit^2 - value^2| bounded by the tail
        previous = value
    assert limit - previous < 1e-5


def test_norm_matches_dense_svd():
    rng = np.random.default_rng(42)
    for _ in range(10):
        grid = random_grid(rng)
        radius = int(rng.integers(25, 61))
        window = TruncationWindow(row_range=(-radius, radius))
        estimate = perturbation_norm(grid, window).perturbation_norm
        E = perturbation(grid, window)
        exact = np.linalg.svd(E, compute_uv=False)[0]
        assert abs(estimate - exact) <= 1e-8


@pytest.mark.parametrize("grid, radius", [
    (power_law_grid(0.2, 1.0, 900, extend_nonpositive=True), 900),
    (uniform_offset_grid([0.1 + 0.1j] * 801, (-400, 400)), 400),
], ids=["real", "complex"])
def test_norm_above_the_cutoff_matches_svdvals(grid, radius):
    # more moved columns than DENSE_EIG_CUTOFF: a real grid's norm comes
    # from a Lanczos run, a complex grid's from eigvalsh at any size
    window = TruncationWindow(row_range=(-radius, radius))
    summary = perturbation_norm(grid, window)
    assert summary.converged and (summary.iterations_used == 0) == grid.is_complex
    exact = scipy.linalg.svdvals(perturbation(grid, window))[0]
    assert abs(summary.perturbation_norm - exact) <= 1e-8


def test_dense_eig_cutoff_boundary():
    assert DENSE_EIG_CUTOFF == 800
    window = TruncationWindow(row_range=(-400, 400))
    dense = perturbation_norm(uniform_offset_grid([0.1] * 800, (-399, 400)), window)
    lanczos = perturbation_norm(uniform_offset_grid([0.1] * 801, (-400, 400)), window)
    assert dense.iterations_used == 0 and dense.converged
    assert lanczos.iterations_used > 0 and lanczos.converged


def test_norm_holds_no_copy_of_s():
    # 401 columns over 8001 rows take the dense eigen path; S - I is made
    # from S in place, so the peak stays near one rows x n array
    grid = uniform_offset_grid([0.1] * 401, (-200, 200))
    window = TruncationWindow(row_range=(-4000, 4000))
    s_bytes = 8001 * 401 * 8
    tracemalloc.start()
    try:
        summary = perturbation_norm(grid, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.converged and summary.perturbation_norm > 0.0
    assert peak < 1.5 * s_bytes


def test_complex_norm_peak_memory():
    # a complex norm is exact at any size, so 801 moved columns form
    # M = E^H E: E, the conjugate copy it is multiplied from and M are held
    # at once, and nothing else over 1 MiB beside them
    grid = uniform_offset_grid([0.1 + 0.1j] * 801, (-400, 400))
    window = TruncationWindow(row_range=(-400, 400))
    e_bytes, m_bytes = 801 * 801 * 16, 801 ** 2 * 16
    tracemalloc.start()
    try:
        summary = perturbation_norm(grid, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.converged and summary.iterations_used == 0
    assert peak < 2 * e_bytes + m_bytes + 2 ** 20


def test_norm_window_growth_monotone():
    grid = power_law_grid(0.2, 1.0, 50, extend_nonpositive=True)
    previous = -1.0
    for radius in (50, 100, 200, 400):
        window = TruncationWindow(row_range=(-radius, radius))
        value = perturbation_norm(grid, window).perturbation_norm
        assert value >= previous - 1e-9
        previous = value


def test_norm_dominated_by_deviation_sum():
    # ||S - I||^2 <= ||S - I||_HS^2, which lemma_sum_bound sums over the listed
    # columns and table_lambda over all of them: this rests on the identity
    # tests/test_bounds.py::test_table_is_the_deviation_sum_plus_its_tail checks
    from sincstab.bounds import lemma_sum_bound
    for A, alpha in [(0.2, 1.0), (0.25, 0.75)]:
        grid = power_law_grid(A, alpha, 300)
        window = TruncationWindow(row_range=(-500, 500))
        norm = perturbation_norm(grid, window).perturbation_norm
        assert norm ** 2 <= lemma_sum_bound(grid).lambda_value + 1e-6
    # on the default window the norm stays below sqrt of the split-table
    # estimate table_lambda(0.25, 1) = 0.3315
    assert perturbation_norm(power_law_grid(0.25, 1.0, 500)).perturbation_norm < 0.576


def test_norm_seed_determinism():
    # 900 moved columns, above the dense cutoff, where the seed sets the
    # Lanczos start vector
    grid = power_law_grid(0.2, 1.0, 900, extend_nonpositive=True)
    window = TruncationWindow(row_range=(-900, 900))
    a = perturbation_norm(grid, window, seed=3)
    b = perturbation_norm(grid, window, seed=3)
    assert a.iterations_used > 0
    assert a.perturbation_norm == b.perturbation_norm
    assert a.iterations_used == b.iterations_used


def test_nonconvergence_is_flagged(monkeypatch):
    # one Lanczos product cannot resolve the clustered top of a real
    # offset's spectrum above the dense cutoff
    monkeypatch.setattr(framekit, "MAX_ITERATIONS", 1)
    grid = uniform_offset_grid([0.1] * 801, (-400, 400))
    window = TruncationWindow(row_range=(-400, 400))
    summary = perturbation_norm(grid, window)
    assert not summary.converged
    assert summary.iterations_used > 0
    assert math.isnan(summary.perturbation_norm)


# ---------------------------------------------------------------------------
# Gram matrices and Riesz bounds

def test_gram_two_node_closed_form():
    grid = uniform_offset_grid([0.0, 0.25], (0, 1))
    G = gram_matrix(grid)
    g = np.sinc(1.25)
    assert G == pytest.approx(np.array([[1.0, g], [g, 1.0]]), abs=1e-15)
    summary, _ = riesz_bounds_estimate(grid)
    assert summary.min_eigenvalue == pytest.approx(0.8199367367685788, abs=1e-12)
    assert summary.max_eigenvalue == pytest.approx(1.1800632632314212, abs=1e-12)
    with pytest.raises(FrozenInstanceError):
        summary.min_eigenvalue = 0.0


def test_gram_unit_diagonal_and_symmetry():
    grid = power_law_grid(0.3, 0.8, 12)
    G = gram_matrix(grid)
    assert np.array_equal(np.diag(G), np.ones(12))
    assert np.array_equal(G, G.T)


def test_large_power_law_gram_is_bitwise_symmetric():
    grid = power_law_grid(0.2, 1.0, 600, extend_nonpositive=True)  # 1201 nodes
    G = gram_matrix(grid)
    assert np.array_equal(np.diag(G), np.ones(1201))
    # mirrored exact zeros may differ in sign (see sinc_matrix), so the bits
    # are compared on the nonzero entries and the zeros by value
    assert np.array_equal(G, G.T)
    nonzero = G != 0.0
    assert np.array_equal(G.view(np.int64)[nonzero], G.T.view(np.int64)[nonzero])


def test_gram_matches_truncated_cross_products():
    # entrywise agreement with S^T S improves like 1/radius
    grid = uniform_offset_grid([0.0, 0.25], (0, 1))
    G = gram_matrix(grid)
    errors = []
    for radius in (501, 2001, 8001):
        window = TruncationWindow(row_range=(-radius, radius))
        S = synthesis_matrix(grid, window)
        errors.append(float(np.max(np.abs(G - S.T @ S))))
    assert errors[0] < 3e-4
    assert errors[2] < errors[1] < errors[0]
    assert errors[2] < 2e-5


def test_complex_gram_via_cross_products():
    grid = uniform_offset_grid([0.1j] * 11, (-5, 5))
    G = gram_matrix(grid, TruncationWindow(row_range=(-300, 300)))
    assert G.shape == (11, 11)
    assert np.allclose(G, G.conj().T)
    assert np.all(G.diagonal().real > 1.0)  # complex atoms carry extra energy
    # at 0.3i the window norm of S - I already exceeds 1, as the master
    # bound complex_master(0.3) = 3.088 does
    grid = uniform_offset_grid([0.3j] * 101, (-50, 50))
    assert perturbation_norm(grid).perturbation_norm > 1.0


def odd_moved_grid(radius):
    """Nodes n + 0.1 + 0.1i at odd n, unmoved integers at even n."""
    indices = np.arange(-radius, radius + 1)
    return PerturbedGrid(indices=indices,
                         deviations=np.where(indices % 2 == 1, 0.1 + 0.1j, 0.0))


COMPLEX_GRIDS = [
    (uniform_offset_grid([0.1 + 0.1j] * 201, (-100, 100)), None),
    (uniform_offset_grid([0.3 + 0.2j] * 101, (-50, 50)), None),
    (odd_moved_grid(50), TruncationWindow(row_range=(-500, 500))),
    # one run of moved columns between unmoved ones, and two runs one apart
    (uniform_offset_grid([0.0] * 20 + [0.1 + 0.1j] * 30 + [0.0] * 51, (-50, 50)), None),
    (uniform_offset_grid([0.0] * 20 + [0.1 + 0.1j] * 15 + [0.0] + [0.1 + 0.1j] * 14
                         + [0.0] * 51, (-50, 50)), None),
]
COMPLEX_IDS = ["complex-offset", "offset-0.3+0.2i", "odd-moved", "moved-run", "moved-runs"]


@pytest.mark.parametrize("grid, window", COMPLEX_GRIDS, ids=COMPLEX_IDS)
def test_complex_gram_against_long_double_product(grid, window):
    # G is assembled from S - I, not formed as S^H S; against the product
    # of S's own entries summed in long double it is within 1e-15, where a
    # float S^H S is 1.3e-15 to 2.2e-15 away
    window = window or TruncationWindow.for_grid(grid)
    S = synthesis_matrix(grid, window).astype(np.clongdouble)
    G = gram_matrix(grid, window)
    assert G.dtype == np.complex128 and G.shape == (len(grid), len(grid))
    assert np.max(np.abs(G - S.conj().T @ S)) <= 1e-15


@pytest.mark.parametrize("grid, window", COMPLEX_GRIDS, ids=COMPLEX_IDS)
def test_riesz_bounds_returns_the_complex_gram_bitwise(grid, window):
    # riesz_bounds_estimate assembles G from the S - I it takes the norm of,
    # gram_matrix from an S - I of its own: the bits agree
    summary, G = riesz_bounds_estimate(grid, window)
    G = G.dense()
    assert np.array_equal(G.view(np.uint8), gram_matrix(grid, window).view(np.uint8))
    assert summary.min_eigenvalue == np.linalg.eigvalsh(G)[0]


@pytest.mark.parametrize("moved", [800, 801])
def test_complex_norm_is_perturbation_norms_bitwise(moved):
    # riesz_bounds_estimate builds S - I once for the norm and G: on either
    # side of the cutoff (eigvalsh of E^H E for a complex grid at any size)
    # the norm is the one perturbation_norm gives
    grid = uniform_offset_grid([0.1 + 0.1j] * moved, (-400, moved - 401))
    window = TruncationWindow(row_range=(-400, 400))
    summary, _ = riesz_bounds_estimate(grid, window, seed=5)
    alone = perturbation_norm(grid, window, seed=5)
    assert summary.perturbation_norm == alone.perturbation_norm > 0.0
    assert alone.iterations_used == 0


def test_complex_typed_unmoved_grid_is_real():
    # complex-typed nodes that all sit at their indices make a real grid,
    # whose Gram matrix sinc(m - n) is exactly the identity
    grid = PerturbedGrid(indices=np.arange(-2, 3), deviations=np.zeros(5, dtype=complex))
    summary, G = riesz_bounds_estimate(grid)
    assert not grid.is_complex and G.dtype == np.float64 and np.array_equal(G.dense(), np.eye(5))
    assert summary.perturbation_norm == 0.0 and summary.min_eigenvalue == 1.0


def test_complex_typed_real_nodes_get_the_real_estimate():
    # n + 0.2 + 0j is the real grid n + 0.2: its Gram matrix is the exact
    # sinc(lambda_m - lambda_n), about I, not a window's S^H S (0.9715)
    indices = np.arange(-50, 51)
    typed = riesz_bounds_estimate(PerturbedGrid(indices=indices, deviations=[0.2 + 0j] * 101))
    real = riesz_bounds_estimate(PerturbedGrid(indices=indices, deviations=[0.2] * 101))
    assert typed[0] == real[0] and np.array_equal(typed[1].dense(), real[1].dense())
    assert typed[0].min_eigenvalue == pytest.approx(1.0, abs=1e-13)


def test_unresolved_min_eigenvalue_is_reported_as_none(monkeypatch):
    # below len(G) * eps * lambda_max (eigvalsh, up to the cutoff) or
    # TOLERANCE * lambda_max (a Lanczos run, above it) the smallest
    # eigenvalue has no reliable digit
    small, large = ingham_grid(4), power_law_grid(0.2, 1.0, DENSE_EIG_CUTOFF + 1)
    eps = np.finfo(float).eps
    cases = [(small, 9 * eps * 1.01, True), (small, 9 * eps * 0.99, False),
             (small, -1e-16, False), (large, 1.01e-10, True), (large, 0.99e-10, False)]
    for grid, emin, resolved in cases:
        monkeypatch.setattr(framekit, "_extremes",
                            lambda dense, n, matvec, which, seed:
                            ([emin, 1.0], 0) if which == "BE" else ([0.25], 0))
        window = TruncationWindow(row_range=(int(grid.indices[0]), int(grid.indices[-1])))
        summary, _ = riesz_bounds_estimate(grid, window)
        assert summary.min_eigenvalue == (emin if resolved else None)
        assert summary.converged


def test_coinciding_nodes_leave_the_minimum_unresolved_above_the_cutoff(lanczos_runs):
    # lambda_1 = 6 and lambda_5 = 6 + gap make the 821-node G singular to
    # rounding (eigvalsh: -1.2e-15 to 2.4e-16), so the minimum is not
    # reported: the Lanczos run reads about 1e-16, below its resolution,
    # and a reading above the ceiling 1 - |G_15| that the 2 x 2 principal
    # minor of the two nodes sets would be refused too
    base = power_law_grid(5.0, 1.0, 410, extend_nonpositive=True)
    for gap in (0.0, 1e-9, 1e-6):
        lanczos_runs.clear()
        # (6 + gap) - 5 is exact, so lambda_5 is 6 + gap rounded once
        grid = PerturbedGrid(indices=base.indices,
                             deviations=np.where(base.indices == 5, 6.0 + gap - 5.0,
                                                 base.deviations))
        summary, G = riesz_bounds_estimate(grid)
        assert len(grid) > DENSE_EIG_CUTOFF and lanczos_runs == ["BE"]
        assert summary.min_eigenvalue is None and summary.converged
        assert summary.max_eigenvalue == pytest.approx(np.linalg.eigvalsh(G.dense())[-1],
                                                       rel=1e-10)


def test_riesz_bounds_returns_its_gram_matrix():
    grid = ingham_grid(20)
    window = TruncationWindow.for_grid(grid)
    summary, G = riesz_bounds_estimate(grid, window)
    G = G.dense()
    assert np.array_equal(G.view(np.uint8), gram_matrix(grid, window).view(np.uint8))
    eigenvalues = np.linalg.eigvalsh(G)
    assert summary.min_eigenvalue == eigenvalues[0]
    assert summary.max_eigenvalue == eigenvalues[-1]


def test_riesz_bounds_never_hold_s_and_g_together():
    # 801 moved columns over 801 rows take the Lanczos path, and S and G have
    # the same size: S - I is released before G is built, so the peak stays
    # near one of them (holding both would read about 2x)
    grid = power_law_grid(0.2, 1.0, 801)
    window = TruncationWindow(row_range=(1, 801))
    s_bytes = 801 * len(grid) * 8
    tracemalloc.start()
    try:
        summary, G = riesz_bounds_estimate(grid, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) > DENSE_EIG_CUTOFF and G.dense().nbytes == s_bytes
    assert summary.converged
    assert peak < 1.5 * s_bytes


@pytest.mark.parametrize("grid, window, e_factor, g_factor", [
    # E is 1001 x 201 and G 201^2: E's build peaks the parent and the change
    (uniform_offset_grid([0.1 + 0.1j] * 201, (-100, 100)), None, 2.25, 1.0),
    # E is 1001 x 500 and G 1001^2: G's two blocks, E^H E assembled in
    # place and E's rows at the unmoved integers, take E's size, so the
    # peak is those blocks and G, E + 1.0 G; holding another copy of
    # E^H E beside them would read E + 1.25 G
    (odd_moved_grid(500), TruncationWindow(row_range=(-500, 500)), 1.0, 1.2),
    # E and G are both 801^2: E, its conjugate and E^H E peak the norm at
    # 3.0 E, and the assembly holds E, E^H E and E's rows at the grid
    # indices, and G is E^H E itself; an assembly holding two more n^2
    # arrays would read 4.0
    (uniform_offset_grid([0.1 + 0.1j] * 801, (-400, 400)),
     TruncationWindow(row_range=(-400, 400)), 2.0, 1.25),
], ids=["complex-offset", "half-moved", "all-moved-square"])
def test_complex_riesz_bounds_peak_memory(grid, window, e_factor, g_factor):
    window = window or TruncationWindow.for_grid(grid)
    rows = window.row_range[1] - window.row_range[0] + 1
    moved = int(np.count_nonzero(grid.nodes != grid.indices))
    e_bytes, g_bytes = rows * moved * 16, len(grid) ** 2 * 16
    tracemalloc.start()
    try:
        summary, G = riesz_bounds_estimate(grid, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert summary.converged and G.dense().nbytes == g_bytes
    assert peak < e_factor * e_bytes + g_factor * g_bytes


# ---------------------------------------------------------------------------
# a Gram matrix held as its moved block and the synthesis rows at the
# unmoved integers

def real_layouts(tmp_path):
    """Real grids whose moved nodes lie in every arrangement GramRows handles."""
    scattered = tmp_path / "scattered.txt"  # index gaps, moved and unmoved interleaved
    scattered.write_text("-7 -7\n-5 -4.8\n-4 -4\n0 0.3\n1 1\n2 2\n6 6.25\n9 9\n10 10.1\n")
    # lambda_2 = 5 lands on the unmoved lambda_5: G is 1 at (2, 5) and (5, 2)
    landing = PerturbedGrid(indices=np.arange(-3, 6),
                            deviations=np.array([0.0, 0.0, 0.0, 0.0, 0.0, 3.0, 0.0, 0.0, 0.0]))
    return {"none-moved": (integer_grid(6), slice(0, 0)),
            "one-run": (power_law_grid(0.2, 1.0, 30, extend_nonpositive=True), slice(31, 61)),
            "scattered": (grid_from_file(scattered), np.array([1, 3, 6, 8])),
            "all-moved": (power_law_grid(0.2, 1.0, 30), slice(0, 30)),
            "landing": (landing, slice(5, 6))}


def test_real_gram_rows_match_the_dense_gram(tmp_path):
    rng = np.random.default_rng(11)
    for name, (grid, moved) in real_layouts(tmp_path).items():
        G = gram_rows(grid)
        dense = G.dense()
        assert len(G) == len(grid) and G.dtype == np.float64, name
        assert np.array_equal(G.moved, np.arange(len(grid))[moved]), name
        assert np.array_equal(dense, sinc_matrix(grid.nodes, grid.nodes)), name
        assert G.dense() is dense, name
        p = rng.standard_normal(len(grid))
        assert np.max(np.abs(G @ p - dense @ p)) <= 1e-15 * np.linalg.norm(p), name
    assert dense[5, 8] == dense[8, 5] == 1.0  # the landing grid, last in the loop


@pytest.mark.parametrize("grid", [
    power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True),
    ingham_grid(240),
    uniform_offset_grid([1.0] * 41, (-20, 20)),
    PerturbedGrid(np.arange(-30, 31), np.where(np.arange(61) % 3, 0.3, 0.0)),
], ids=["real-pipeline", "ingham-240", "offset-1", "mixed"])
def test_real_gram_blocks_equal_their_separate_builds(grid):
    # block and cross are row slices of one sinc_matrix over the moved nodes
    # x: bit for bit the separate sinc_matrix(x, x) and sinc_matrix(unmoved
    # indices, x), on real-pipeline's grid, where one row block holds both
    # moved and unmoved rows, and on uniform offset 1, whose moved nodes all
    # sit on integers
    G = gram_rows(grid)
    x = grid.nodes[G.moved]
    for got, want in ((G.block, sinc_matrix(x, x)),
                      (G.cross, sinc_matrix(grid.indices[G.unmoved], x))):
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
    assert G.block.base is G.cross.base is not None


def test_real_gram_cross_zero_signs_follow_their_row_block():
    # lambda_1 = 2 sits on an integer among moved nodes that do not: the
    # unmoved rows that share a row block with x take the rank-2 quotient,
    # whose exact zeros can carry the other sign than the one-term fill of a
    # separate build, so only the values are the same there
    grid = power_law_grid(1.0, 1.0, 100, extend_nonpositive=True)
    G = gram_rows(grid)
    want = sinc_matrix(grid.indices[G.unmoved], grid.nodes[G.moved])
    assert np.array_equal(G.cross, want)
    differ = G.cross.view(np.int64) != want.view(np.int64)
    assert differ.any() and not G.cross[differ].any()


def _embedded_complex_gram(grid, window):
    """The complex S^H S as a zero-filled n x n embedding of the rows of
    E = S - I at the grid indices, C^H on the moved rows and C on the moved
    columns: the assembly that GramRows.dense() reproduces bit for bit."""
    moved = np.flatnonzero(grid.nodes != grid.indices)
    E = perturbation(grid, window)[:, moved]
    M = E.conj().T @ E
    C = E[grid.indices - window.row_range[0]]
    M += C[moved]
    np.conjugate(C, out=C)
    M += C.T[:, moved]
    np.conjugate(M, out=M)
    C[moved] = M
    G = np.zeros((len(grid), len(grid)), dtype=C.dtype)
    G[moved] = C.T
    np.conjugate(C, out=C)
    G[:, moved] = C
    G.ravel()[::len(grid) + 1] += 1.0
    return G


@pytest.mark.parametrize("grid, window", COMPLEX_GRIDS, ids=COMPLEX_IDS)
def test_complex_gram_rows_match_the_embedded_gram(grid, window):
    window = window or TruncationWindow.for_grid(grid)
    G = gram_rows(grid, window)
    dense = G.dense()
    assert G.dtype == np.complex128 and dense.flags.c_contiguous
    assert np.array_equal(dense.view(np.uint8),
                          _embedded_complex_gram(grid, window).view(np.uint8))
    rng = np.random.default_rng(12)
    for p in (rng.standard_normal(len(grid)),
              rng.standard_normal(len(grid)) + 1j * rng.standard_normal(len(grid))):
        assert np.max(np.abs(G @ p - dense @ p)) <= 1e-15 * np.linalg.norm(p)


def test_gram_cross_is_the_synthesis_rows_at_the_unmoved_integers(tmp_path):
    # an unmoved atom is the integer translate: its Gram row on the moved
    # columns is S's row at k = n, bit for bit on the nonzeros (an exact
    # zero may carry another sign where a moved node lands on an integer)
    layouts = [(grid, None) for grid, _ in real_layouts(tmp_path).values()]
    for grid, window in layouts + COMPLEX_GRIDS:
        window = window or TruncationWindow.for_grid(grid)
        G = gram_rows(grid, window)
        S = synthesis_matrix(grid, window)
        cross = S[np.ix_(grid.indices[G.unmoved] - window.row_range[0], G.moved)]
        assert np.array_equal(G.cross, cross) and G.cross.dtype == cross.dtype
        nonzero = cross != 0
        assert np.array_equal(G.cross[nonzero].view(np.uint8), cross[nonzero].view(np.uint8))
        if not grid.is_complex:
            x = grid.nodes[G.moved]
            assert np.array_equal(G.block.view(np.uint8), sinc_matrix(x, x).view(np.uint8))


def _scattered_dense(G):
    """G's n x n array placed by np.ix_ scatters of its blocks."""
    dense = np.zeros((len(G), len(G)), dtype=G.dtype)
    dense[np.ix_(G.moved, G.moved)] = G.block
    dense[np.ix_(G.unmoved, G.moved)] = G.cross
    dense[np.ix_(G.moved, G.unmoved)] = G.cross.T.conj()
    dense[G.unmoved, G.unmoved] = 1.0
    return dense


def test_dense_gram_copies_runs_bit_for_bit(tmp_path):
    # dense() copies each run of moved or unmoved positions as a slice:
    # Ingham's two runs, the odd-moved grid's runs of one and every real
    # layout give the scattered array, exact zeros' signs included
    grids = [ingham_grid(220), odd_moved_grid(50)]
    for grid in grids + [grid for grid, _ in real_layouts(tmp_path).values()]:
        G = gram_rows(grid)
        assert np.array_equal(G.dense().view(np.uint8), _scattered_dense(G).view(np.uint8))


def test_half_unmoved_riesz_bounds_make_no_n_squared_array():
    # 1001 nodes, the 501 at n <= 0 unmoved, over 1001 window rows.  The
    # norm holds E = S - I (1001 x 500) and E^T E (500^2) and releases
    # them; a Lanczos run then streams G's 500^2 moved block and 501 x 500
    # rows at the unmoved integers, 500 x 1001 together.  A 1001^2 G (8 MB,
    # as much as E and those blocks together) would read E + M or G plus
    # the builder's blocks, over the bound
    grid = power_law_grid(0.2, 1.0, 500, extend_nonpositive=True)
    window = TruncationWindow(row_range=(-500, 500))
    e_bytes, m_bytes, r_bytes = 1001 * 500 * 8, 500 ** 2 * 8, 500 * 1001 * 8
    tracemalloc.start()
    try:
        summary, G = riesz_bounds_estimate(grid, window)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(grid) > DENSE_EIG_CUTOFF and summary.converged
    assert G.block.nbytes + G.cross.nbytes == r_bytes
    assert np.array_equal(G.moved, np.arange(501, 1001))
    assert peak < max(e_bytes + m_bytes, r_bytes) + (1 << 20)


def test_riesz_bounds_unperturbed():
    summary, _ = riesz_bounds_estimate(integer_grid(8))
    assert summary.min_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert summary.max_eigenvalue == pytest.approx(1.0, abs=1e-12)
    assert summary.perturbation_norm == 0.0


def test_ingham_min_eigenvalue_decreases():
    minima = []
    for N in (8, 16, 32):
        summary, _ = riesz_bounds_estimate(ingham_grid(N))
        minima.append(summary.min_eigenvalue)
    assert minima[0] > minima[1] > minima[2]


def test_gram_sandwich():
    for grid in (ingham_grid(16),
                 power_law_grid(0.2, 1.0, 50, extend_nonpositive=True),
                 power_law_grid(0.25, 1.0, 30)):
        summary, _ = riesz_bounds_estimate(grid)
        delta = summary.perturbation_norm
        assert delta < 1.0
        assert summary.min_eigenvalue >= (1.0 - delta) ** 2 - 1e-6
        assert summary.max_eigenvalue <= (1.0 + delta) ** 2 + 1e-6
        assert summary.implied_riesz_lower == pytest.approx((1.0 - delta) ** 2)
        assert summary.implied_riesz_upper == pytest.approx((1.0 + delta) ** 2)


@pytest.fixture
def lanczos_runs(monkeypatch):
    """The which of every iterative _extremes run (one given no dense
    matrix), in order."""
    runs = []
    extremes = framekit._extremes

    def recorded(dense, n, matvec, which, seed):
        if dense is None:
            runs.append(which)
        return extremes(dense, n, matvec, which, seed)

    monkeypatch.setattr(framekit, "_extremes", recorded)
    return runs


def test_lanczos_stops_at_the_module_tolerance_and_cap(monkeypatch):
    # the Gram matrix of the benchmark's real-pipeline grid, 2001 nodes.
    # The run stops at the first product whose Ritz residuals are within
    # TOLERANCE: capped one product earlier, by MAX_ITERATIONS or by a
    # basis over MAX_DENSE_BYTES, it returns nan, and a looser tolerance
    # stops it sooner
    assert (framekit.TOLERANCE, framekit.MAX_ITERATIONS) == (1e-10, 10_000)
    G = gram_rows(power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True))

    def run():
        return framekit._extremes(None, len(G), lambda v: G @ v, "BE", 0)

    found, products = run()
    monkeypatch.setattr(framekit, "MAX_ITERATIONS", products)
    assert run() == (found, products)
    for name, value in (("MAX_ITERATIONS", products - 1),
                        ("MAX_DENSE_BYTES", (products - 1) * len(G) * 8)):
        with monkeypatch.context() as patch:
            patch.setattr(framekit, name, value)
            capped, spent = run()
        assert spent == products - 1 and all(map(math.isnan, capped))
    monkeypatch.setattr(framekit, "TOLERANCE", 1e-4)
    assert run()[1] < products


def test_ritz_pair_matches_eigh_tridiagonal_bit_for_bit():
    # the direct stebz/stein call against scipy's wrapper of the same two
    # routines, at both ends, on random tridiagonals of every size from 1,
    # some split into blocks by a zero off-diagonal
    lapack = scipy.linalg.get_lapack_funcs(("stebz", "stein"), (np.empty(0),))
    rng = np.random.default_rng(5)
    for k in [*range(1, 41), *range(41, 400, 37)]:
        d = rng.standard_normal(k) * rng.choice([1e-8, 1.0, 1e6])
        e = np.abs(rng.standard_normal(k - 1))
        if k > 2 and k % 3 == 0:
            e[k // 2] = 0.0
        for i in (0, k - 1):
            theta, s = scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=(i, i),
                                                     check_finite=False)
            assert framekit._ritz_pair(*lapack, d, e, i) == (theta[0], s[-1, 0])
    with pytest.raises(np.linalg.LinAlgError):
        framekit._ritz_pair(*lapack, np.array([1.0, math.nan, 2.0]), np.array([0.5, 0.5]), 0)


def test_lanczos_ends_on_an_invariant_subspace():
    # the smallest of 120 eigenvalues spread from 1e-8 to 1 converges only
    # once the basis spans the whole space: kept orthonormal, it does so at
    # the 120th product (without full reorthogonalisation the run reaches
    # its cap unconverged)
    d = np.geomspace(1e-8, 1.0, 120)
    (smallest, largest), products = framekit._extremes(None, d.size, lambda v: d * v, "BE", 0)
    assert products <= d.size
    assert abs(smallest - 1e-8) <= 1e-14 and abs(largest - 1.0) <= 1e-14


def test_real_pipeline_grid_converges_in_few_products(lanczos_runs):
    # the benchmark's real-pipeline grid and window: 1000 moved of 2001
    # nodes, above the cutoff, so the norm and the Gram matrix each take a
    # Lanczos run, which stops once converged
    grid = power_law_grid(0.2, 1.0, 1000, extend_nonpositive=True)
    window = TruncationWindow(row_range=(-1000, 1000))
    summary, G = riesz_bounds_estimate(grid, window)
    assert lanczos_runs == ["LA", "BE"] and summary.converged
    assert summary.iterations_used <= 25
    norm = scipy.linalg.svdvals(perturbation(grid, window))[0]
    eigenvalues = np.linalg.eigvalsh(G.dense())
    assert abs(summary.perturbation_norm - norm) <= 1e-8
    assert abs(summary.min_eigenvalue - eigenvalues[0]) <= 1e-8
    assert abs(summary.max_eigenvalue - eigenvalues[-1]) <= 1e-8


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unmoved_grid_gram_takes_one_product(seed):
    # every node n + 1e-300/n rounds onto n: the norm needs no product, and
    # G = I makes the start vector an eigenvector, so one product ends the
    # Gram run
    summary, _ = riesz_bounds_estimate(power_law_grid(1e-300, 1.0, 900), seed=seed)
    assert summary.perturbation_norm == 0.0 and summary.converged
    assert summary.iterations_used <= 1
    assert abs(summary.min_eigenvalue - 1.0) <= 1e-15
    assert abs(summary.max_eigenvalue - 1.0) <= 1e-15


def test_complex_gram_is_solved_exactly_above_the_cutoff(lanczos_runs):
    # 1001 nodes of which the 500 odd ones move, and 801 nodes that all
    # move: a complex norm and Gram matrix are exact at any size, so no
    # Lanczos run is made
    for grid, radius in ((odd_moved_grid(500), 500),
                         (uniform_offset_grid([0.1 + 0.1j] * 801, (-400, 400)), 400)):
        window = TruncationWindow(row_range=(-radius, radius))
        alone = perturbation_norm(grid, window)
        summary, _ = riesz_bounds_estimate(grid, window)
        eigenvalues = np.linalg.eigvalsh(gram_matrix(grid, window))
        assert len(grid) > DENSE_EIG_CUTOFF and lanczos_runs == []
        assert alone.iterations_used == summary.iterations_used == 0 and summary.converged
        assert summary.min_eigenvalue == eigenvalues[0] > 0.0
        assert summary.max_eigenvalue == eigenvalues[-1]


def test_lanczos_path_matches_dense(lanczos_runs):
    # 1001 nodes exceeds the dense cutoff; cross-check extremes densely.
    # The norm's 500 moved columns take the dense path, so the only Lanczos
    # run is the Gram matrix's, which gives both ends
    grid = power_law_grid(0.2, 1.0, 500, extend_nonpositive=True)
    summary, _ = riesz_bounds_estimate(grid)
    eigenvalues = np.linalg.eigvalsh(gram_matrix(grid))
    assert lanczos_runs == ["BE"]
    assert summary.min_eigenvalue == pytest.approx(eigenvalues[0], abs=1e-10)
    assert summary.max_eigenvalue == pytest.approx(eigenvalues[-1], abs=1e-10)
    assert summary.converged


# ---------------------------------------------------------------------------
# matrix dump

def test_dump_matrix_roundtrip(tmp_path):
    grid = uniform_offset_grid([0.0, 0.25], (0, 1))
    G = gram_matrix(grid)
    path = tmp_path / "gram.txt"
    dump_matrix(G, path, grid.indices, grid.indices)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 4
    k, n, re, im = lines[1].split()
    assert (int(k), int(n)) == (0, 1)
    assert float(re) == pytest.approx(np.sinc(1.25))
    assert float(im) == 0.0


def _dump_per_entry(matrix, path, row_labels, col_labels):
    """The per-entry writer the row-wise dump must reproduce byte for byte."""
    M = np.asarray(matrix)
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(M.shape[0]):
            for j in range(M.shape[1]):
                z = complex(M[i, j])
                fh.write(f"{int(row_labels[i])} {int(col_labels[j])} {z.real!r} {z.imag!r}\n")


def test_dump_matrix_matches_per_entry_writer(tmp_path, monkeypatch):
    rng = np.random.default_rng(7)
    signed_zero = rng.standard_normal((4, 6))
    signed_zero[0, 0] = signed_zero[2, 3] = -0.0
    complex_matrix = rng.standard_normal((5, 3)) + 1j * rng.standard_normal((5, 3))
    complex_matrix[1, 1] = complex(-0.0, -0.0)
    # G[-3, -2] is -0.0 and its mirror G[-2, -3] is 0.0: a writer that merges
    # values by == or copies the upper triangle writes one sign for both
    ingham = gram_matrix(ingham_grid(3))
    assert np.signbit(ingham[0, 1]) and not np.signbit(ingham[1, 0]) and ingham[0, 1] == 0.0
    # lambda_n = 1.1 n: Toeplitz in exact arithmetic, 206 distinct of 1681 entries
    toeplitz = gram_matrix(uniform_offset_grid(0.1 * np.arange(-20, 21), (-20, 20)))
    hermitian = gram_matrix(uniform_offset_grid(np.full(9, 0.1 + 0.1j), (-4, 4)),
                            TruncationWindow(row_range=(-30, 30)))
    cases = [(gram_matrix(ingham_grid(6)), (np.arange(-6, 7),) * 2),
             (complex_matrix, (np.arange(2, 7), np.array([-1, 3, 40]))),
             (signed_zero, (np.arange(4), np.arange(6))),
             (ingham, (np.arange(-3, 4),) * 2),
             (toeplitz, (np.arange(-20, 21),) * 2),
             (hermitian, (np.arange(-4, 5),) * 2),
             (np.zeros((3, 0)), (np.arange(3), np.arange(0)))]
    for matrix, labels in cases:
        dump_matrix(matrix, tmp_path / "rows.txt", *labels)
        _dump_per_entry(matrix, tmp_path / "entries.txt", *labels)
        assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "entries.txt").read_bytes()
    with pytest.raises(ValueError, match="labels"):
        dump_matrix(signed_zero, tmp_path / "rows.txt", np.arange(4), np.arange(5))

    # blocks of at most 16 doubles: 7 x 5 real rows go 3, 3, 1 and 7 x 3
    # complex rows (6 doubles each) 2, 2, 2, 1; np.unique sees one block a call
    unique_sizes = []
    unique = np.unique

    def recorded(values, **kwargs):
        unique_sizes.append(values.size)
        return unique(values, **kwargs)

    monkeypatch.setattr(framekit, "SINC_BLOCK", 2)
    monkeypatch.setattr(np, "unique", recorded)
    for matrix, labels, sizes in (
            (toeplitz[:7, :5], (np.arange(7), np.arange(5)), [15, 15, 5]),
            (hermitian[:7, :3], (np.arange(7), np.arange(3)), [12, 12, 12, 6])):
        unique_sizes.clear()
        dump_matrix(matrix, tmp_path / "rows.txt", *labels)
        _dump_per_entry(matrix, tmp_path / "entries.txt", *labels)
        assert (tmp_path / "rows.txt").read_bytes() == (tmp_path / "entries.txt").read_bytes()
        assert unique_sizes == sizes and max(unique_sizes) <= 8 * framekit.SINC_BLOCK
