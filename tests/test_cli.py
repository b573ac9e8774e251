"""CLI behavior: subcommands, formats, determinism, exit codes."""

import csv
import json
import math
import os
import pathlib
import re
import shlex
import subprocess
import sys

import pytest

from sincstab import cli, grids, specfun
from sincstab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# oseen

def test_oseen_human(capsys):
    code, out, _ = run(capsys, "oseen")
    assert code == 0
    assert "1.25643" in out
    assert "0.218492" in out


def test_oseen_json_fields(capsys):
    code, out, _ = run(capsys, "oseen", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "oseen"
    results = payload["results"]
    assert set(results) == {"alpha", "residual", "w0", "wm1", "complex_bound"}
    assert abs(results["residual"]) < 1e-12
    assert abs(results["alpha"] - 1.25643) < 5e-6
    assert results["w0"] == pytest.approx(-0.5)
    assert payload["meta"]["version"]
    assert "runtime_ms" in payload["meta"]


# ---------------------------------------------------------------------------
# bounds

def test_bounds_complex_pass_and_fail(capsys):
    code, out, _ = run(capsys, "bounds", "--complex", "--L", "0.2")
    assert code == 0 and "pass" in out
    code, out, _ = run(capsys, "bounds", "--complex", "--L", "0.22")
    assert code == 0 and "fail" in out


def test_bounds_power_law_value(capsys):
    code, out, _ = run(capsys, "bounds", "--power-law", "--alpha", "1",
                       "--A", "0.1", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    # 2*sqrt(2)*(0.1*pi)^2*zeta(2), frozen from high-precision arithmetic
    assert results["lambda"] == pytest.approx(0.459190857, abs=1e-6)
    assert results["verdict"] == "pass"
    assert results["threshold"] == pytest.approx(0.147572, abs=1e-6)


def test_bounds_kadec(capsys):
    code, out, _ = run(capsys, "bounds", "--kadec", "--L", "0.1", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["lambda"] == pytest.approx(0.357960, abs=1e-6)


def test_bounds_domain_error_exits_nonzero(capsys):
    code, _, err = run(capsys, "bounds", "--power-law", "--alpha", "1", "--A", "0.3")
    assert code == 1
    assert "pi/4" in err


def test_bounds_requires_regime(capsys):
    code, _, err = run(capsys, "bounds", "--L", "0.1")
    assert code == 1 and "regime" in err


# ---------------------------------------------------------------------------
# table

def test_table_row_matches_reference(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.7", "--A", "0.25",
                       "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "alpha,A,lambda1,lambda2,lambda"
    cells = [float(v) for v in lines[1].split(",")]
    assert cells == pytest.approx([0.7, 0.25, 0.199367, 0.431376, 0.630743],
                                  abs=1e-5)


def test_table_alpha_one_row(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "1", "--A", "0.35",
                       "--format", "json")
    row = json.loads(out)["results"]["rows"][0]
    assert row["lambda"] == pytest.approx(0.637257, abs=1e-5)


def test_table_critical(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "1", "--critical",
                       "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    assert rows[-1]["critical"] is True
    assert rows[-1]["A"] == pytest.approx(0.44366, abs=1e-4)
    assert rows[-1]["lambda"] == pytest.approx(1.0, abs=1e-4)


def test_table_multiple_parameters(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.7,1", "--A", "0.25,0.35",
                       "--format", "csv")
    assert code == 0
    assert len(out.strip().splitlines()) == 5  # header + 2x2 rows


def test_table_range_syntax_curve_data(capsys):
    # lambda versus alpha at fixed A: curve data for plotting
    code, out, _ = run(capsys, "table", "--alpha", "0.55:1.0:0.05",
                       "--A", "0.25", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 11  # header + 10 exponents
    lambdas = [float(line.split(",")[4]) for line in lines[1:]]
    assert all(b < a for a, b in zip(lambdas, lambdas[1:]))  # decreasing in alpha


@pytest.mark.parametrize("values", ["0.6:inf:0.1", "-inf:0.7:0.1", "0.6:0.7:nan",
                                    "0.6:0.7:inf", "0.7:0.6:0.1", "0.6:0.7:0",
                                    "-1e308:1e308:1"])
def test_table_rejects_unusable_range(capsys, values):
    code, out, err = run(capsys, "table", f"--alpha={values}", "--critical")
    assert code == 1
    assert out == ""
    assert err.startswith("error: range ") and len(err.splitlines()) == 1


def test_table_range_length_is_capped(capsys):
    # a 1e-300 step is rejected by its count, before any value is made
    assert cli._range_count(0.6, 0.7, 1e-300) > 10 ** 298
    assert cli._range_count(0.55, 1.0, 0.05) == 10
    over = f"0.001:{0.001 + cli.MAX_RANGE_VALUES * 1e-6}:1e-6"
    assert cli._range_count(*map(float, over.split(":"))) == cli.MAX_RANGE_VALUES + 1
    code, out, err = run(capsys, "table", "--alpha", "1", "--A", over)
    assert code == 1
    assert out == ""
    assert err == (f"error: range {over!r} has {cli.MAX_RANGE_VALUES + 1} values, "
                   f"over the limit of {cli.MAX_RANGE_VALUES}\n")


def test_full_paper_tables_via_cli(capsys):
    code, out, _ = run(capsys, "table", "--alpha", "0.7,0.65,0.63,0.62,0.61599",
                       "--A", "0.25", "--format", "json")
    assert code == 0
    rows = json.loads(out)["results"]["rows"]
    expected = [0.630743, 0.800296, 0.904986, 0.970502, 0.999963]
    for row, lam in zip(rows, expected):
        assert row["lambda"] == pytest.approx(lam, abs=1e-5)
    code, out, _ = run(capsys, "table", "--alpha", "1",
                       "--A", "0.25,0.35,0.4,0.42,0.44,0.44366", "--format", "json")
    rows = json.loads(out)["results"]["rows"]
    expected = [0.331456, 0.637257, 0.822432, 0.902013, 0.984574, 0.999996]
    for row, lam in zip(rows, expected):
        assert row["lambda"] == pytest.approx(lam, abs=1e-5)


def test_table_csv_deterministic(capsys):
    _, first, _ = run(capsys, "table", "--alpha", "0.7,0.65", "--A", "0.25",
                      "--format", "csv")
    _, second, _ = run(capsys, "table", "--alpha", "0.7,0.65", "--A", "0.25",
                       "--format", "csv")
    assert first == second


def test_json_deterministic_modulo_runtime(capsys):
    scrub = lambda text: re.sub(r'"runtime_ms": [0-9.e+-]+', '"runtime_ms": 0', text)
    _, first, _ = run(capsys, "gram", "--ingham", "--N", "8", "--seed", "5",
                      "--format", "json")
    _, second, _ = run(capsys, "gram", "--ingham", "--N", "8", "--seed", "5",
                       "--format", "json")
    assert scrub(first) == scrub(second)


# ---------------------------------------------------------------------------
# gram

def test_gram_unperturbed(capsys):
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0", "--N", "50",
                       "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["perturbation_norm"] == 0.0
    assert results["min_eigenvalue"] == pytest.approx(1.0, abs=1e-12)
    assert results["max_eigenvalue"] == pytest.approx(1.0, abs=1e-12)
    assert results["converged"] is True
    assert results["gram_method"] == "analytic_sinc"


def test_gram_ingham_min_eigenvalue_shrinks(capsys):
    minima = []
    for N in ("8", "64"):
        code, out, _ = run(capsys, "gram", "--ingham", "--N", N,
                           "--window", "512", "--format", "json")
        assert code == 0
        minima.append(json.loads(out)["results"]["min_eigenvalue"])
    assert minima[1] < minima[0]


def test_gram_power_law_passes(capsys):
    code, out, _ = run(capsys, "gram", "--power-law", "--A", "0.25", "--alpha", "1",
                       "--N", "200", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["perturbation_norm"] < 1.0


def test_gram_complex_offset_method(capsys):
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0.0", "--imag", "0.1",
                       "--N", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["gram_method"] == "s_h_s"


def test_gram_grid_file(capsys, tmp_path):
    path = tmp_path / "grid.txt"
    path.write_text("0\t0.0\n1\t1.25\n", encoding="utf-8")
    code, out, _ = run(capsys, "gram", "--grid-file", str(path), "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["min_eigenvalue"] == pytest.approx(0.819937, abs=1e-6)
    assert results["max_eigenvalue"] == pytest.approx(1.180063, abs=1e-6)


def test_gram_dump_matrix(capsys, tmp_path):
    dump = tmp_path / "gram_dump.txt"
    code, _, _ = run(capsys, "gram", "--ingham", "--N", "2",
                     "--dump-matrix", str(dump))
    assert code == 0
    lines = dump.read_text().strip().splitlines()
    assert len(lines) == 25
    assert all(len(line.split()) == 4 for line in lines)


def test_gram_json_writes_nonfinite_as_null(capsys, monkeypatch):
    # Lanczos that stops with no eigenvalues reports nan; JSON has no NaN
    from sincstab import framekit

    def stalled(grid, window, seed=0):
        return framekit.GramSummary(window=window, perturbation_norm=0.5,
                                    min_eigenvalue=math.nan, max_eigenvalue=math.inf,
                                    implied_riesz_lower=0.25, implied_riesz_upper=2.25,
                                    converged=False), framekit.gram_matrix(grid, window)

    def reject(token):
        raise AssertionError(f"invalid JSON constant {token}")

    monkeypatch.setattr(framekit, "riesz_bounds_estimate", stalled)
    code, out, _ = run(capsys, "gram", "--ingham", "--N", "4", "--format", "json")
    assert code == 1
    results = json.loads(out, parse_constant=reject)["results"]
    assert results["min_eigenvalue"] is None
    assert results["max_eigenvalue"] is None
    assert results["perturbation_norm"] == 0.5


def test_gram_dump_builds_gram_matrix_once(capsys, tmp_path, monkeypatch):
    # the dump writes the Gram matrix that the eigenvalues were taken of
    from sincstab import framekit

    calls = []
    original = framekit.gram_matrix

    def counted(grid, window=None):
        calls.append(len(grid))
        return original(grid, window)

    monkeypatch.setattr(framekit, "gram_matrix", counted)
    code, _, _ = run(capsys, "gram", "--ingham", "--N", "10",
                     "--dump-matrix", str(tmp_path / "gram.txt"))
    assert code == 0
    assert calls == [21]


@pytest.mark.parametrize("flags, message", [
    (("--power-law", "--A", "0.2", "--alpha", "1", "--N", "5", "--window=-5"),
     "--window must be at least 0"),
    (("--ingham", "--N", "3", "--seed=-1"), "--seed must be at least 0"),     # dense
    (("--ingham", "--N", "401", "--seed=-1"), "--seed must be at least 0"),   # ARPACK
])
def test_gram_rejects_negative_window_and_seed(capsys, flags, message):
    code, out, err = run(capsys, "gram", *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv", [
    ("oseen",),
    ("bounds", "--complex", "--L", "0.2"),
    ("table", "--alpha", "1", "--critical"),
    ("reconstruct", "--signal", "0.3", "--ingham", "--N", "3"),
])
def test_seed_is_a_gram_flag_only(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main([*argv, "--seed", "1"])
    assert exit_info.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_meta_carries_seed_only_for_gram(capsys):
    code, out, _ = run(capsys, "gram", "--ingham", "--N", "3", "--seed", "5",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["meta"]["seed"] == 5
    code, out, _ = run(capsys, "oseen", "--format", "json")
    assert code == 0
    assert set(json.loads(out)["meta"]) == {"version", "runtime_ms"}


@pytest.mark.parametrize("argv", [
    ("gram", "--ingham", "--N", "5"),
    ("gram", "--power-law", "--A", "0.1", "--alpha", "1", "--N", "11"),
    ("gram", "--power-law", "--A", "0.1", "--alpha", "1", "--N", "5",
     "--extend-nonpositive"),
    ("reconstruct", "--signal", "0.3", "--uniform-offset", "0.1", "--N", "5"),
])
def test_oversized_grid_is_refused_before_it_is_built(capsys, monkeypatch, argv):
    # every request here has 11 nodes, and its 11 x 11 matrix is over a
    # lowered limit; the generators must not run
    def unreachable(*args, **kwargs):
        raise AssertionError("grid generator called for an oversized grid")

    monkeypatch.setattr(specfun, "MAX_DENSE_BYTES", 8 * 100)
    for name in ("power_law_grid", "uniform_offset_grid", "ingham_grid"):
        monkeypatch.setattr(grids, name, unreachable)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == ("error: a 11 x 11 sinc matrix needs 968 bytes, over the dense "
                   "limit of 800 bytes\n")


def test_gram_oversized_request_fails_before_allocating(capsys):
    # the 1e6 x 1e6 Gram would take 8e12 bytes; it is refused, not allocated
    code, out, err = run(capsys, "gram", "--power-law", "--A", "0.1", "--alpha", "1",
                         "--N", "1000000")
    assert code == 1
    assert out == ""
    assert err == (f"error: a 1000000 x 1000000 sinc matrix needs {8 * 10 ** 12} bytes, "
                   f"over the dense limit of {specfun.MAX_DENSE_BYTES} bytes\n")


@pytest.mark.parametrize("argv, shape", [
    (("gram", "--ingham", "--N", "3", "--window", str(10 ** 15)), (2 * 10 ** 15 + 1, 7)),
    (("reconstruct", "--signal", "0.3", "--ingham", "--N", "3",
      "--eval-points", str(10 ** 15)), (10 ** 15, 7)),
    (("reconstruct", "--signal", "0.3", "--uniform-offset", "0.1", "--N", str(10 ** 23)),
     (2 * 10 ** 23 + 1, 2 * 10 ** 23 + 1)),
], ids=["window-rows", "eval-points", "grid-nodes"])
def test_oversized_rows_or_points_fail_before_allocating(capsys, argv, shape):
    # the rows of S, the evaluation points and the grid nodes are counted,
    # not listed, first
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == (f"error: a {shape[0]} x {shape[1]} sinc matrix needs "
                   f"{shape[0] * shape[1] * 8} bytes, over the dense limit of "
                   f"{specfun.MAX_DENSE_BYTES} bytes\n")


def test_gram_dump_labels_entries_by_grid_index(capsys, tmp_path):
    # indices 0, 2, 7 label the dumped Gram entries, not positions 0, 1, 2
    nodes = {0: 0.1, 2: 2.2, 7: 7.05}
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{n}\t{x!r}\n" for n, x in nodes.items()), encoding="utf-8")
    dump = tmp_path / "gram.txt"
    code, _, _ = run(capsys, "gram", "--grid-file", str(path), "--dump-matrix", str(dump))
    assert code == 0
    records = [line.split() for line in dump.read_text().splitlines()]
    assert [(int(k), int(n)) for k, n, _, _ in records] == [(k, n) for k in nodes for n in nodes]
    for k, n, re_, _ in records:
        assert float(re_) == pytest.approx(specfun.sinc(nodes[int(k)] - nodes[int(n)]), abs=1e-15)


def test_gram_close_nodes_from_grid_file(capsys, tmp_path):
    # node gaps down to 1e-9, read from a file, against 40-digit mpmath
    mp = pytest.importorskip("mpmath")
    nodes = [0.3, 0.3 + 1e-9, 1.0, 1.0 + 1e-6, 2.7, 2.7 - 1e-3, 3.75, 4.25]
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{n}\t{x!r}\n" for n, x in enumerate(nodes)), encoding="utf-8")
    dump = tmp_path / "gram.txt"
    code, _, _ = run(capsys, "gram", "--grid-file", str(path), "--dump-matrix", str(dump))
    assert code == 0
    with mp.workdps(40):
        for line in dump.read_text().splitlines():
            m, n, re_, im = line.split()
            d = mp.mpf(nodes[int(m)]) - mp.mpf(nodes[int(n)])
            expected = 1 if d == 0 else mp.sin(mp.pi * d) / (mp.pi * d)
            assert abs(float(re_) - expected) <= 1e-15 and float(im) == 0.0


def test_gram_nonconverged_exits_nonzero(capsys):
    # 801 columns take ARPACK, which one restart leaves short of the tolerance
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0.1", "--imag", "0.1",
                       "--N", "400", "--window", "400", "--max-iter", "1",
                       "--format", "json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["converged"] is False
    assert results["perturbation_norm"] is None


# ---------------------------------------------------------------------------
# reconstruct

def test_reconstruct_exact_regime(capsys):
    # the grid contains the signal's atom (node 0.3 at index 0), so the
    # expansion is exact and the error is solver-limited
    code, out, _ = run(capsys, "reconstruct", "--signal", "0.3",
                       "--uniform-offset", "0.3", "--N", "60", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["relative_l2_error"] <= 1e-8


def test_reconstruct_integer_grid_truncation_limited(capsys):
    # on the plain integer grid the cardinal-series tail dominates the error
    code, out, _ = run(capsys, "reconstruct", "--signal", "0.3",
                       "--uniform-offset", "0", "--N", "60", "--format", "json")
    assert code == 0
    error = json.loads(out)["results"]["relative_l2_error"]
    assert error < 0.05


def test_reconstruct_power_law(capsys):
    code, out, _ = run(capsys, "reconstruct", "--signal", "0.3", "--power-law",
                       "--A", "0.2", "--alpha", "1", "--N", "200",
                       "--extend-nonpositive", "--window", "1200",
                       "--format", "json")
    assert code == 0
    assert json.loads(out)["results"]["relative_l2_error"] < 1e-2


def test_reconstruct_csv_output(capsys, tmp_path):
    csv_path = tmp_path / "recon.csv"
    code, _, _ = run(capsys, "reconstruct", "--signal", "0.3:1,2.5:-0.5",
                     "--uniform-offset", "0", "--N", "30",
                     "--eval-points", "41", "--csv", str(csv_path))
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0].startswith("# {")
    assert lines[1] == "t,f_ref,f_hat,abs_err"
    assert len(lines) == 43


def test_reconstruct_csv_evaluates_once(capsys, tmp_path, monkeypatch):
    # the report's error and the CSV rows share one 41 x 61 evaluation matrix
    from sincstab import framekit, reconstruct

    shapes = []

    def counted(u, v):
        out = specfun.sinc_matrix(u, v)
        shapes.append(out.shape)
        return out

    for module in (framekit, reconstruct):
        monkeypatch.setattr(module, "sinc_matrix", counted)
    code, _, _ = run(capsys, "reconstruct", "--signal", "0.3", "--uniform-offset", "0",
                     "--N", "30", "--eval-points", "41", "--csv", str(tmp_path / "r.csv"))
    assert code == 0
    assert shapes.count((41, 61)) == 1


def test_reconstruct_csv_report_has_two_fields_per_row(capsys):
    argv = ("reconstruct", "--signal", "0.3", "--uniform-offset", "0.1", "--N", "30",
            "--eval-points", "41")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0
    head = json.loads(out)["results"]["coefficients_head"]
    code, out, _ = run(capsys, *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert all(len(row) == 2 for row in rows)
    parsed = json.loads(dict(rows)["coefficients_head"])
    assert len(parsed) == 8 and parsed == head


@pytest.mark.parametrize("flags, message", [
    (("--eval-points", "1"), "--eval-points must be at least 2"),
    (("--eval-lo", "3", "--eval-hi", "3"), "evaluation interval must have positive length"),
    (("--eval-lo", "nan"), "evaluation interval must have positive length"),
    (("--eval-hi", "inf"), "evaluation interval must be finite"),
    (("--eval-lo=-inf",), "evaluation interval must be finite"),
    (("--eval-lo=-1e308", "--eval-hi", "1e308"), "evaluation interval must be finite"),
])
def test_reconstruct_rejects_bad_evaluation_points(capsys, flags, message):
    code, out, err = run(capsys, "reconstruct", "--signal", "0.3",
                         "--uniform-offset", "0", "--N", "5", *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_reconstruct_rejects_complex_grid(capsys):
    code, _, err = run(capsys, "reconstruct", "--signal", "0.3",
                       "--uniform-offset", "0.1", "--imag", "0.1", "--N", "5")
    assert code == 1
    assert "real" in err


def test_reconstruct_negative_shift_with_equals(capsys):
    code, out, _ = run(capsys, "reconstruct", "--signal=-3.2:0.5",
                       "--uniform-offset", "0", "--N", "10", "--format", "json")
    assert code == 0
    assert json.loads(out)["params"]["signal"] == "-3.2:0.5"


def test_reconstruct_bad_signal(capsys):
    code, _, err = run(capsys, "reconstruct", "--signal", ",",
                       "--uniform-offset", "0", "--N", "5")
    assert code == 1


# ---------------------------------------------------------------------------
# output plumbing

def test_out_writes_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "oseen", "--format", "json", "--out", str(path))
    assert code == 0
    assert out == ""
    payload = json.loads(path.read_text())
    assert payload["command"] == "oseen"


@pytest.mark.parametrize("argv", [
    ("gram", "--grid-file", "{missing}/grid.txt"),
    ("oseen", "--out", "{missing}/report.json"),
    ("gram", "--ingham", "--N", "2", "--dump-matrix", "{missing}/gram.txt"),
])
def test_missing_paths_fail_cleanly(capsys, tmp_path, argv):
    missing = tmp_path / "no-such-dir"
    code, out, err = run(capsys, *(a.format(missing=missing) for a in argv))
    assert code == 1
    assert err.startswith("error:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("command, signal", [("gram", ()),
                                             ("reconstruct", ("--signal", "0.3"))])
def test_unusable_tolerance_fails_cleanly(capsys, command, signal):
    for flag, value in (("--tol", "inf"), ("--tol", "1"), ("--max-iter", "0")):
        code, out, err = run(capsys, command, *signal, "--ingham", "--N", "3",
                             flag, value)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {flag} ") and len(err.splitlines()) == 1


def test_cli_import_leaves_scipy_unloaded():
    # scipy.sparse is loaded only by an ARPACK eigen-solve; a table run needs none
    code = (
        "import sys\n"
        "from sincstab.cli import main\n"
        "assert 'scipy.sparse' not in sys.modules\n"
        "assert main(['table', '--alpha', '1', '--critical']) == 0\n"
        "assert 'scipy.sparse' not in sys.modules\n"
    )
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(critical)" in proc.stdout


def test_csv_format_for_scalar_reports(capsys):
    code, out, _ = run(capsys, "oseen", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    assert any(line.startswith("alpha,") for line in lines)


def readme_cli_examples():
    """The sincstab lines of README's CLI block, continuations joined."""
    readme = pathlib.Path(__file__).resolve().parents[1] / "README.md"
    block = re.findall(r"```sh\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)[1]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True) for line in lines
            if line.startswith("sincstab ")]


@pytest.mark.parametrize("argv", readme_cli_examples(), ids=lambda argv: argv[1])
def test_readme_cli_examples_run(capsys, monkeypatch, tmp_path, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv[1:])
    assert code == 0, err
