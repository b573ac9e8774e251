"""Grid generators: invariants, determinism, file loading."""

import math
import re

import numpy as np
import pytest

from sincstab.grids import (
    PerturbedGrid,
    grid_from_file,
    ingham_grid,
    max_deviation,
    power_law_grid,
    uniform_offset_grid,
)


def test_power_law_nodes():
    g = power_law_grid(0.25, 1.0, 3)
    assert g.indices.tolist() == [1, 2, 3]
    assert g.nodes[0] == 1.25
    assert g.nodes[1] == 2.125
    assert g.nodes[2] == pytest.approx(3.0833333333333333, abs=1e-15)
    assert not g.is_complex


def test_power_law_single_node_deviation():
    g = power_law_grid(0.25, 1.0, 1)
    assert g.nodes[0] == 1.25
    assert max_deviation(g) == 0.25


def test_power_law_beyond_quarter():
    g = power_law_grid(0.44366, 1.0, 1)
    assert max_deviation(g) == pytest.approx(0.44366, abs=1e-15)
    assert max_deviation(g) > 0.25


def test_power_law_extension_is_unperturbed():
    g = power_law_grid(0.3, 0.8, 5, extend_nonpositive=True)
    assert g.indices.tolist() == list(range(-5, 6))
    nonpos = g.indices <= 0
    assert np.array_equal(g.nodes[nonpos], g.indices[nonpos].astype(float))
    assert np.all(g.nodes[~nonpos] > g.indices[~nonpos])


def test_power_law_exact_formula():
    A, alpha = 0.2, 1.3
    g = power_law_grid(A, alpha, 50)
    n = g.indices.astype(float)
    assert np.array_equal(g.deviations, A / n ** alpha)
    assert np.array_equal(g.nodes, n + A / n ** alpha)


def test_power_law_deviations_strictly_decreasing():
    g = power_law_grid(0.25, 0.7, 100)
    d = np.abs(g.deviations)
    assert np.all(np.diff(d) < 0)
    assert max_deviation(g) == 0.25  # attained at n = 1


@pytest.mark.parametrize("A,alpha,N", [(-0.1, 1.0, 5), (0.0, 1.0, 5),
                                       (0.1, 0.5, 5), (0.1, 0.2, 5), (0.1, 1.0, 0)])
def test_power_law_rejects(A, alpha, N):
    with pytest.raises(ValueError):
        power_law_grid(A, alpha, N)


def test_uniform_offset_zero():
    g = uniform_offset_grid([0.0] * 5, (-2, 2))
    assert not g.is_complex
    assert np.array_equal(g.nodes, g.indices.astype(float))
    assert max_deviation(g) == 0.0


def test_uniform_offset_real():
    g = uniform_offset_grid([0.1] * 5, (-2, 2))
    assert max_deviation(g) == pytest.approx(0.1, abs=1e-16)
    assert not g.is_complex


def test_uniform_offset_complex():
    g = uniform_offset_grid([0.2j] * 5, (-2, 2))
    assert g.is_complex
    assert max_deviation(g) == pytest.approx(0.2, abs=1e-16)


def test_uniform_offset_errors():
    with pytest.raises(ValueError):
        uniform_offset_grid([0.1] * 4, (-2, 2))  # length mismatch
    with pytest.raises(ValueError):
        uniform_offset_grid([np.inf] * 5, (-2, 2))


def test_ingham_nodes():
    g = ingham_grid(1)
    assert g.indices.tolist() == [-1, 0, 1]
    assert g.nodes.tolist() == [-1.25, 0.0, 1.25]
    g2 = ingham_grid(2)
    assert g2.nodes[-1] == 2.25 and g2.nodes[0] == -2.25
    for N in (1, 3, 5, 17):
        assert max_deviation(ingham_grid(N)) == 0.25


def test_grid_determinism():
    a = power_law_grid(0.21, 0.9, 64, extend_nonpositive=True)
    b = power_law_grid(0.21, 0.9, 64, extend_nonpositive=True)
    assert np.array_equal(a.nodes, b.nodes)
    assert np.array_equal(a.indices, b.indices)


def test_grids_are_immutable():
    g = ingham_grid(3)
    with pytest.raises(ValueError):
        g.nodes[0] = 99.0


def test_grid_from_file(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text(
        "# perturbed nodes\n"
        "0\t0.0\n"
        "1\t1.25\n"
        "-1\t-1.1\t0.0\n"
        "2\t2.0\t0.3\n",
        encoding="utf-8",
    )
    g = grid_from_file(path)
    assert g.indices.tolist() == [-1, 0, 1, 2]  # sorted on load
    assert g.is_complex
    assert g.nodes[3] == 2.0 + 0.3j


def test_grid_from_file_stores_re_minus_n(tmp_path):
    # re - n is exact when re lies within a factor 2 of n, or n = 0, so
    # those nodes read back bit for bit; a node across zero from its index
    # reads back as n + fl(re - n), rounded
    path = tmp_path / "grid.txt"
    path.write_text("1000 1000.3\n0 0.3\n5 -0.1\n-7 0.3\n", encoding="utf-8")
    g = grid_from_file(path)
    assert g.indices.tolist() == [-7, 0, 5, 1000]
    assert g.deviations.tolist() == [0.3 - -7, 0.3 - 0, -0.1 - 5, 1000.3 - 1000]
    assert g.nodes[1] == 0.3 and g.nodes[3] == 1000.3
    assert g.nodes[0] != 0.3 and g.nodes[2] != -0.1


def test_grid_from_file_real_when_imag_absent(tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("1 1.2\n2 2.1\n", encoding="utf-8")
    g = grid_from_file(path)
    assert not g.is_complex


@pytest.mark.parametrize("content,fragment", [
    ("1\t1.0\n1\t1.1\n", "duplicate"),
    ("1\t1.0\n2\tinf\n", "non-finite"),
    ("1\t1.0\nnot a row\n", ":2: invalid literal"),
    ("1\n", "expected"),
    ("1\t1.0\n-4503599627370496\t0.5\n", ":2: index -4503599627370496 is outside"),
    ("", "no grid records"),
])
def test_grid_from_file_errors(tmp_path, content, fragment):
    path = tmp_path / "bad.txt"
    path.write_text(content, encoding="utf-8")
    with pytest.raises(ValueError) as err:
        grid_from_file(path)
    assert fragment in str(err.value)


@pytest.mark.parametrize("imag", [0.0, -0.0])
def test_complex_nodes_on_the_real_axis_make_a_real_grid(tmp_path, imag):
    # PerturbedGrid alone decides the dtype: complex deviations whose
    # imaginary parts are all zero are stored as their real parts bit for
    # bit, -0.0 included, though its node 0 + (-0.0) is +0.0
    deviations = np.empty(3, dtype=np.complex128)
    deviations.real, deviations.imag = [-0.25, -0.0, 0.5], imag
    path = tmp_path / "grid.txt"
    path.write_text(f"-1 -1.25 {imag!r}\n0 -0.0 {imag!r}\n1 1.5 0\n", encoding="utf-8")
    for grid in [PerturbedGrid(indices=[-1, 0, 1], deviations=deviations),
                 grid_from_file(path), uniform_offset_grid(deviations, (-1, 1))]:
        assert not grid.is_complex and grid.deviations.dtype == np.float64
        assert grid.deviations.tobytes() == deviations.real.tobytes()
        assert grid.nodes.dtype == np.float64 and grid.nodes.tolist() == [-1.25, 0.0, 1.5]


@pytest.mark.parametrize("make, message", [
    (lambda: PerturbedGrid(indices=[0, 1], deviations=[0.5]), "aligned 1-d sequences"),
    (lambda: PerturbedGrid(indices=[[0]], deviations=[[0.5]]), "aligned 1-d sequences"),
    (lambda: PerturbedGrid(indices=[], deviations=[]), "at least one node"),
    (lambda: PerturbedGrid(indices=[0.5, 1.7], deviations=[0.0, 0.0]),
     "grid indices must be integers"),
    (lambda: PerturbedGrid(indices=[0, 1], deviations=[0.5, np.nan]), "must be finite"),
    (lambda: PerturbedGrid(indices=[0], deviations=[complex(0.5, np.inf)]), "must be finite"),
    (lambda: uniform_offset_grid([0.1] * 4, (-2, 2)), "aligned 1-d sequences"),
    (lambda: uniform_offset_grid([], (1, 0)), "empty index range (1, 0)"),
    (lambda: uniform_offset_grid([math.nan], (0, 0)), "must be finite"),
    (lambda: uniform_offset_grid([complex(0.1, math.inf)], (0, 0)), "must be finite"),
    (lambda: ingham_grid(0), "N must be a positive integer, got 0"),
])
def test_grid_input_checks(make, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        make()


def test_duplicate_index_rejected_in_constructor():
    with pytest.raises(ValueError):
        PerturbedGrid(indices=np.array([1, 1]), deviations=np.array([0.0, 0.5]))


def test_node_bounds():
    # the real part of a node (not of its deviation) stays below 2^52, where
    # doubles are 1 apart; the imaginary part at most 100, where S^H S stays
    # finite
    edge = 2.0 ** 52 - 0.5
    grid = PerturbedGrid(indices=[0, 1], deviations=[-edge, -1 + 100j])
    assert grid.nodes[0] == -edge and grid.nodes[1] == 100j
    for n, delta, fragment in [(0, 2.0 ** 52, "|Re lambda| < 2^52"),
                               (0, -1e17, "|Re lambda| < 2^52"),
                               (2 ** 52 - 1, 1.0, "|Re lambda| < 2^52"),
                               (0, 1 - 100.5j, "|Im lambda| <= 100")]:
        with pytest.raises(ValueError, match=re.escape(fragment)):
            PerturbedGrid(indices=[n], deviations=[delta])

