"""CLI behavior: subcommands, formats, determinism, exit codes."""

import argparse
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

from sincstab import cli, framekit, grids, specfun
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
    assert set(results) == {"alpha", "residual", "complex_bound"}
    assert abs(results["residual"]) < 1e-12
    assert abs(results["alpha"] - 1.25643) < 5e-6
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


@pytest.mark.parametrize("flags, regime", [
    (("--kadec", "--complex", "--power-law"), "complex"),
    (("--kadec", "--power-law"), "kadec"),
])
def test_bounds_regime_precedence(capsys, flags, regime):
    # with several regime flags, complex goes before kadec, and kadec before power-law
    code, out, err = run(capsys, "bounds", *flags, "--L", "0.1", "--A", "0.1",
                         "--alpha", "1", "--format", "json")
    assert code == 0, err
    assert json.loads(out)["params"]["regime"] == regime


def reject_constant(name):
    raise ValueError(f"report holds {name}")


@pytest.mark.parametrize("L", ["6", "1e200"])
def test_complex_bound_overflow_is_a_fail(capsys, L):
    # e^x overflows from L = 5.19; lambda is +inf, which JSON writes as null
    code, out, err = run(capsys, "bounds", "--complex", "--L", L, "--format", "json")
    assert code == 0, err
    payload = json.loads(out, parse_constant=reject_constant)
    json.dumps(payload, allow_nan=False)
    assert payload["results"]["lambda"] is None
    assert payload["results"]["verdict"] == "fail"
    code, out, _ = run(capsys, "bounds", "--complex", "--L", L)
    assert code == 0 and "lambda = inf" in out and "verdict = fail" in out


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


def test_parser_is_built_once_and_keeps_no_request(capsys):
    assert cli.build_parser() is cli.build_parser()
    code, out, _ = run(capsys, "table", "--alpha", "1", "--A", "0.1", "--critical",
                       "--format", "json")
    assert code == 0 and json.loads(out)["results"]["rows"][-1]["critical"] is True
    code, out, _ = run(capsys, "table", "--alpha", "1", "--A", "0.1", "--format", "json")
    assert code == 0
    assert [row.get("critical") for row in json.loads(out)["results"]["rows"]] == [None]


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


def test_table_skips_empty_list_tokens(capsys):
    code, out, err = run(capsys, "table", "--alpha", "1,", "--A", ",0.1", "--format", "csv")
    assert code == 0 and err == ""
    assert out == run(capsys, "table", "--alpha", "1", "--A", "0.1", "--format", "csv")[1]


@pytest.mark.parametrize("A", ["20", "30", "100", "1e3", "1e308"])
def test_table_refuses_amplitudes_past_the_float_series(capsys, A):
    # the split table takes A <= 10, where its head has at most 246 terms;
    # a larger A is refused with one error line
    for fmt in ("human", "json", "csv"):
        code, out, err = run(capsys, "table", "--alpha", "1", "--A", A, "--format", fmt)
        assert code == 1
        assert out == ""
        assert err.startswith("error: the split estimate takes A <= 10, got ")
        assert len(err.splitlines()) == 1
    code, out, _ = run(capsys, "table", "--alpha", "0.55,1,2", "--A", "10", "--format", "json")
    assert code == 0
    rows = json.loads(out, parse_constant=reject_constant)["results"]["rows"]
    assert all(math.isfinite(row["lambda"]) and row["lambda"] > 1.0 for row in rows)


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


def test_table_size_is_capped(capsys, monkeypatch):
    # a list holds at most MAX_RANGE_VALUES values, each range counted before
    # it is expanded, and the table at most 2 * MAX_RANGE_VALUES rows: one
    # full list with one value in the other list and --critical
    alphas, amps = "0.55:1:0.000005", "0.001:0.45:0.000005"
    rows = len(cli._parse_float_list(alphas)) * len(cli._parse_float_list(amps))
    code, out, err = run(capsys, "table", "--alpha", alphas, "--A", amps)
    assert code == 1
    assert out == ""
    assert err == (f"error: the table has {rows} rows, over the limit of "
                   f"{2 * cli.MAX_RANGE_VALUES}\n")

    monkeypatch.setattr(cli, "MAX_RANGE_VALUES", 4)
    for argv in (("--alpha", "1,2,3,4", "--A", "0.1", "--critical"),
                 ("--alpha", "1", "--A", "0.1:0.25:0.05", "--critical"),
                 ("--alpha", "1:2:0.5,3", "--A", "0.1"),
                 ("--alpha", "1,2", "--A", "0.1:1:0.3")):
        code, out, err = run(capsys, "table", *argv, "--format", "csv")
        assert code == 0 and err == ""
    for argv, message in (
            (("--alpha", "1,2,3", "--A", "0.1,0.2", "--critical"),
             "the table has 9 rows, over the limit of 8"),
            (("--alpha", "1,2,3,4,5", "--A", "0.1"),
             "list '1,2,3,4,5' has more than 4 values"),
            (("--alpha", "1", "--A", "0.1,0.2:1e300:1e-300"),  # 1e600 values, never made
             "range '0.2:1e300:1e-300' has inf values, over the limit of 4"),
            (("--alpha", "1", "--A", "0.1,0.2:0.5:0.1"),
             "list '0.1,0.2:0.5:0.1' has more than 4 values")):
        code, out, err = run(capsys, "table", *argv)
        assert code == 1
        assert out == ""
        assert err == f"error: {message}\n"


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


@pytest.mark.parametrize("argv", [
    ("oseen",),
    ("bounds", "--kadec", "--L", "0.1"),
    ("bounds", "--complex", "--L", "0.2"),
    ("bounds", "--complex", "--L", "6"),  # lambda = inf, written as null
    ("bounds", "--power-law", "--A", "0.1", "--alpha", "1"),
    ("table", "--alpha", "0.7,1", "--A", "0.25", "--critical"),
    ("gram", "--ingham", "--N", "4"),
    ("gram", "--uniform-offset", "0.1", "--imag", "0.1", "--N", "5"),
    ("reconstruct", "--signal", "0.3", "--ingham", "--N", "8"),
])
def test_json_report_is_one_line_with_sorted_keys(capsys, argv):
    # json.dumps without indent takes the C encoder; the report's layout is
    # exactly what sort_keys alone gives
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0, err
    assert len(out.splitlines()) == 1 and out.endswith("\n")
    assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


def test_emit_writes_nested_nonfinite_floats_as_null(capsys):
    # the encoder rejects a non-finite float anywhere in the report, and
    # _emit then writes each one as null
    args = argparse.Namespace(format="json", out=None)
    rows = [{"lambda": math.inf}, {"lambda": 0.5}, {"lambda": [math.nan, -math.inf]}]
    cli._emit(args, "table", {"alpha": [1.0]}, {"rows": rows}, 2.5)
    out = capsys.readouterr().out
    assert len(out.splitlines()) == 1
    payload = json.loads(out, parse_constant=reject_constant)
    json.dumps(payload, allow_nan=False)
    assert payload["results"]["rows"] == [{"lambda": None}, {"lambda": 0.5},
                                          {"lambda": [None, None]}]
    assert payload["params"] == {"alpha": [1.0]}
    assert payload["meta"]["runtime_ms"] == 2.5


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


def test_gram_of_real_nodes_is_the_same_from_every_source(capsys, tmp_path):
    # a zero imaginary part, given or not, makes the same real grid
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{n} {n + 0.2!r} 0.0\n" for n in range(-50, 51)),
                    encoding="utf-8")
    sources = [("--uniform-offset", "0.2", "--N", "50"),
               ("--uniform-offset", "0.2", "--imag", "0", "--N", "50"),
               ("--grid-file", str(path))]
    reports = []
    for i, flags in enumerate(sources):
        dump = tmp_path / f"gram{i}.txt"
        code, out, _ = run(capsys, "gram", *flags, "--format", "json",
                           "--dump-matrix", str(dump))
        assert code == 0
        reports.append((json.loads(out)["results"], dump.read_bytes()))
    assert reports[0][0]["gram_method"] == "analytic_sinc"
    assert reports[1] == reports[0] and reports[2] == reports[0]


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
    # the dump writes the Gram matrix that the eigenvalues were taken of:
    # its moved block and its rows at the unmoved integers are built once
    # and formed into the one array that eigvalsh solves and dump_matrix
    # writes
    import numpy as np

    from sincstab import framekit

    builds, solved, dumped = [], [], []
    sinc_matrix, eigvalsh, dump_matrix = (framekit.sinc_matrix, np.linalg.eigvalsh,
                                          framekit.dump_matrix)

    def built(u, v):
        builds.append((len(u), len(v)))
        return sinc_matrix(u, v)

    def solve(matrix):
        solved.append(matrix)
        return eigvalsh(matrix)

    def dump(matrix, *args):
        dumped.append(matrix)
        return dump_matrix(matrix, *args)

    monkeypatch.setattr(framekit, "sinc_matrix", built)
    monkeypatch.setattr(np.linalg, "eigvalsh", solve)
    monkeypatch.setattr(framekit, "dump_matrix", dump)
    code, out, _ = run(capsys, "gram", "--ingham", "--N", "10", "--format", "json",
                       "--dump-matrix", str(tmp_path / "gram.txt"))
    assert code == 0
    # the norm's S - I (101 window rows, 20 moved columns), then the 21-node
    # Gram matrix's 20 x 20 moved block and its row at the unmoved n = 0,
    # built as one 21 x 20 matrix
    assert builds == [(101, 20), (21, 20)]
    assert [matrix.shape for matrix in solved] == [(20, 20), (21, 21)]
    assert len(dumped) == 1 and dumped[0] is solved[1]
    results = json.loads(out)["results"]
    assert [results["min_eigenvalue"], results["max_eigenvalue"]] == \
        eigvalsh(dumped[0])[[0, -1]].tolist()


@pytest.mark.parametrize("flags, message", [
    (("--power-law", "--A", "0.2", "--alpha", "1", "--N", "5", "--window=-5"),
     "--window must be at least 0"),
    (("--ingham", "--N", "3", "--seed=-1"), "--seed must be at least 0"),     # dense
    (("--ingham", "--N", "401", "--seed=-1"), "--seed must be at least 0"),   # Lanczos
])
def test_gram_rejects_negative_window_and_seed(capsys, flags, message):
    code, out, err = run(capsys, "gram", *flags)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("argv, message", [
    (("bounds", "--complex"), "--complex requires --L"),
    (("bounds", "--kadec"), "--kadec requires --L"),
    (("bounds", "--power-law", "--A", "0.1"), "--power-law requires --A and --alpha"),
    (("table", "--alpha", "x"), "expected numbers or lo:hi:step ranges, got 'x'"),
    (("table", "--alpha", "0.6:0.7"), "expected numbers or lo:hi:step ranges, got '0.6:0.7'"),
    (("table", "--alpha", ","), "--alpha must list at least one exponent"),
    (("table", "--alpha", "1"), "provide --A values and/or --critical"),
    (("gram", "--power-law", "--A", "0.1", "--N", "5"),
     "--power-law requires --A, --alpha and --N"),
    (("gram", "--ingham"), "--ingham requires --N"),
    (("reconstruct", "--signal", "0.3", "--uniform-offset", "0.1"),
     "--uniform-offset requires --N"),
])
def test_incomplete_requests_fail_cleanly(capsys, argv, message):
    code, out, err = run(capsys, *argv)
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


def _matrix_refusal(rows, cols):
    return (f"a {rows} x {cols} sinc matrix needs {rows * cols * 8} bytes, over the "
            f"dense limit of {specfun.MAX_DENSE_BYTES} bytes")


@pytest.mark.parametrize("argv, message", [
    (("gram", "--ingham", "--N", "3", "--window", str(10 ** 15)),
     _matrix_refusal(2 * 10 ** 15 + 1, 7)),
    (("reconstruct", "--signal", "0.3", "--ingham", "--N", "3",
      "--eval-points", str(10 ** 15)),
     f"{10 ** 15} points x 7 nodes = {7 * 10 ** 15} terms, over the limit of "
     f"{specfun.MAX_DENSE_BYTES // 8} terms"),
    (("reconstruct", "--signal", "0.3", "--uniform-offset", "0.1", "--N", str(10 ** 23)),
     _matrix_refusal(2 * 10 ** 23 + 1, 2 * 10 ** 23 + 1)),
], ids=["window-rows", "eval-points", "grid-nodes"])
def test_oversized_rows_or_points_fail_before_allocating(capsys, argv, message):
    # the rows of S, the evaluation points and the grid nodes are counted,
    # not listed, first; the evaluation makes no matrix, so its refusal
    # names its points x nodes terms
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("flags, shape", [
    (("--ingham", "--N", "1", "--eval-points", "10"), (10, "points", 4, "atoms")),
    (("--ingham", "--N", "1", "--eval-points", "2"), (3, "nodes", 4, "atoms")),
    (("--ingham", "--N", "1", "--eval-points", "5"), (5, "points", 3, "nodes")),
    (("--ingham", "--N", "1", "--eval-points", "20"), (20, "points", 12, "arrays")),
])
def test_oversized_signal_fails_before_sampling(capsys, monkeypatch, flags, shape):
    # the evaluation's points x nodes terms and the reference signal's terms
    # at the points and at the nodes make no matrix; each count is bounded as
    # a real matrix's entries would be (MAX_DENSE_BYTES / 8), and so are the
    # 12 point-length arrays the evaluation holds; a request one term over
    # the lowered limit is refused before anything is evaluated
    from sincstab import reconstruct

    def unreachable(*args, **kwargs):
        raise AssertionError("signal sampled for an oversized request")

    rows, row_name, cols, col_name = shape
    limit = rows * cols * 8 - 1
    monkeypatch.setattr(specfun, "MAX_DENSE_BYTES", limit)
    monkeypatch.setattr(reconstruct, "sample_signal", unreachable)
    code, out, err = run(capsys, "reconstruct", "--signal", "0.5,1.5,2.5,3.5", *flags)
    assert code == 1
    assert out == ""
    assert err == (f"error: {rows} {row_name} x {cols} {col_name} = {rows * cols} terms, "
                   f"over the limit of {rows * cols - 1} terms\n")


def test_largest_admitted_evaluation_peaks_within_the_dense_limit(capsys, monkeypatch):
    # the point-length arrays are counted as 12 doubles a point: the largest
    # count admitted under a lowered limit peaks within it under tracemalloc,
    # and one more point is refused before the signal is sampled.  The
    # evaluation takes about 11.2 doubles a point plus about 1.1 MiB of
    # SINC_BLOCK-sized buffers, so the limit is lowered only to 32 MiB, where
    # those buffers fit the 0.8 doubles a point to spare
    import tracemalloc

    from sincstab import reconstruct

    limit = 1 << 25
    largest = limit // 8 // 12
    monkeypatch.setattr(specfun, "MAX_DENSE_BYTES", limit)
    argv = ("reconstruct", "--signal=0.5", "--power-law", "--A", "0.1", "--alpha", "1",
            "--N", "1")
    assert run(capsys, *argv)[0] == 0  # imports what a first request loads, untraced
    tracemalloc.start()
    try:
        code, out, err = run(capsys, *argv, "--eval-points", str(largest))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and err == ""
    assert peak <= limit

    def unreachable(*args, **kwargs):
        raise AssertionError("signal sampled for an oversized request")

    monkeypatch.setattr(reconstruct, "sample_signal", unreachable)
    code, out, err = run(capsys, *argv, "--eval-points", str(largest + 1))
    assert code == 1
    assert out == ""
    assert err == (f"error: {largest + 1} points x 12 arrays = {12 * (largest + 1)} terms, "
                   f"over the limit of {limit // 8} terms\n")


@pytest.mark.parametrize("flags, message", [
    (("--uniform-offset", "1e17"), "|Re lambda| < 2^52"),   # all 7 nodes round to 1e17
    (("--uniform-offset", "1e308"), "|Re lambda| < 2^52"),
    (("--uniform-offset", "0.1", "--imag", "300"), "|Im lambda| <= 100"),
    (("--uniform-offset", "0.1", "--imag=-100.5"), "|Im lambda| <= 100"),
])
def test_gram_refuses_unrepresentable_nodes(capsys, flags, message):
    code, out, err = run(capsys, "gram", *flags, "--N", "3")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: grid nodes must satisfy {message}, ")
    assert err.count("\n") == 1


def test_gram_accepts_nodes_at_the_bounds(capsys):
    # the largest imaginary part keeps every reported number finite, and
    # nodes that coincide at ordinary magnitudes (lambda_1 = lambda_5 = 6)
    # give a singular Gram matrix, not an error
    code, out, err = run(capsys, "gram", "--uniform-offset", "0.1", "--imag", "100",
                         "--N", "3", "--format", "json")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert 1e269 < results["max_eigenvalue"] < 1e270
    code, out, err = run(capsys, "gram", "--power-law", "--A", "5", "--alpha", "1",
                         "--N", "6", "--format", "json")
    assert code == 0 and err == ""
    # its smallest eigenvalue, 0 up to rounding, is below eigvalsh's
    # resolution 6 * eps * lambda_max = 3.2e-15 (6 nodes)
    results = json.loads(out)["results"]
    assert results["min_eigenvalue"] is None and results["min_eigenvalue_resolved"] is False


def test_gram_coinciding_nodes_above_the_cutoff_are_unresolved(capsys, tmp_path):
    # 821 nodes with lambda_1 = 6 and lambda_5 = 6 + gap: the Gram matrix's
    # smallest eigenvalue is 0 to rounding, which no solve resolves, so it is
    # not reported; the run still converged.  gap = 0 is the generated grid,
    # the others are read from a file
    flags = [("--power-law", "--A", "5", "--alpha", "1", "--N", "410", "--extend-nonpositive")]
    grid = grids.power_law_grid(5.0, 1.0, 410, extend_nonpositive=True)
    for gap in (1e-9, 1e-6):
        path = tmp_path / f"grid-{gap}.txt"
        path.write_text("".join(f"{n}\t{6.0 + gap if n == 5 else x!r}\n"
                                for n, x in zip(grid.indices.tolist(), grid.nodes.tolist())),
                        encoding="utf-8")
        flags.append(("--grid-file", str(path)))
    for grid_flags in flags:
        code, out, err = run(capsys, "gram", *grid_flags, "--format", "json")
        assert code == 0 and err == ""
        results = json.loads(out)["results"]
        assert results["iterations_used"] > 0 and results["converged"] is True
        assert results["min_eigenvalue"] is None and results["min_eigenvalue_resolved"] is False


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


def test_gram_nonconverged_exits_nonzero(capsys, monkeypatch):
    # 801 real columns take a Lanczos run, which one product leaves short
    # of the tolerance
    monkeypatch.setattr(framekit, "MAX_ITERATIONS", 1)
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0.1",
                       "--N", "400", "--window", "400", "--format", "json")
    assert code == 1
    results = json.loads(out)["results"]
    assert results["converged"] is False
    assert results["perturbation_norm"] is None


def test_gram_complex_grid_above_the_cutoff_is_exact(capsys, monkeypatch):
    # 801 complex columns are solved by eigvalsh, so the restart cap that
    # stops the real grid above does not apply
    monkeypatch.setattr(framekit, "MAX_ITERATIONS", 1)
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0.1", "--imag", "0.1",
                       "--N", "400", "--window", "400", "--format", "json")
    assert code == 0
    results = json.loads(out)["results"]
    assert results["converged"] is True and results["iterations_used"] == 0


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
    # the report's error and the CSV rows share one evaluation on the 41 points
    from sincstab import reconstruct

    calls = []

    def counted(result, grid, t_values):
        calls.append((len(t_values), len(grid)))
        return evaluate(result, grid, t_values)

    evaluate = reconstruct.evaluate_reconstruction
    monkeypatch.setattr(reconstruct, "evaluate_reconstruction", counted)
    code, _, _ = run(capsys, "reconstruct", "--signal", "0.3", "--uniform-offset", "0",
                     "--N", "30", "--eval-points", "41", "--csv", str(tmp_path / "r.csv"))
    assert code == 0
    assert calls == [(41, 61)]


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


WEIGHTS_MESSAGE = ("signal weights must satisfy sum |c_j| <= 2^256, where the samples, "
                   "the Gram solve and the error quadrature stay finite")


@pytest.mark.parametrize("flags, message", [
    (("--signal", "1e308:1e308"), "signal shifts must satisfy |mu| < 2^52, as grid nodes do"),
    (("--signal", "0.3:1,1e16:1"), "signal shifts must satisfy |mu| < 2^52, as grid nodes do"),
    (("--signal", "0.3", "--eval-lo", "0", "--eval-hi", "1.7e308"),
     "evaluation interval must lie inside (-2^52, 2^52), as grid nodes do"),
    (("--signal", "0.3", "--uniform-offset", "1e17"),
     "grid nodes must satisfy |Re lambda| < 2^52, where a double still resolves a "
     "node's offset from its index"),
])
def test_reconstruct_refuses_unrepresentable_input(capsys, flags, message):
    grid = () if "--uniform-offset" in flags else ("--ingham",)
    code, out, err = run(capsys, "reconstruct", *flags, *grid, "--N", "3")
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("signal", [
    "0:1e200",  # its samples overflowed CG's r @ r
    "0:1e308,1:1e308",  # the sum itself overflows
])
def test_reconstruct_refuses_weights_above_the_bound(capsys, signal):
    code, out, err = run(capsys, "reconstruct", "--signal", signal, "--ingham", "--N", "3")
    assert code == 1
    assert out == ""
    assert err == f"error: {WEIGHTS_MESSAGE}\n"


@pytest.mark.parametrize("interval", [(), ("--eval-lo=-4503599627370495",
                                           "--eval-hi", "4503599627370495",
                                           "--eval-points", "2")])
def test_reconstruct_accepts_weights_at_the_bound(capsys, interval):
    # sum |c_j| = 2^256 exactly; a RuntimeWarning would fail the test
    code, out, err = run(capsys, "reconstruct",
                         "--signal", "0:5.78960446186581e+76,3.5:-5.78960446186581e+76",
                         "--ingham", "--N", "3", *interval, "--format", "json")
    assert code == 0 and err == ""
    results = json.loads(out)["results"]
    assert all(math.isfinite(v) for v in results["coefficients_head"])
    assert math.isfinite(results["relative_l2_error"])


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


@pytest.mark.parametrize("command", ["gram", "reconstruct"])
def test_imag_is_echoed_for_uniform_offset_only(capsys, tmp_path, command):
    path = tmp_path / "grid.txt"
    path.write_text("0 0.25\n1 1.0\n", encoding="utf-8")
    signal = ("--signal", "0.3", "--eval-points", "11") if command == "reconstruct" else ()
    for flags, imag in ((("--uniform-offset", "0.1", "--N", "3"), 0.0),
                        (("--power-law", "--A", "0.1", "--alpha", "1", "--N", "3"), None),
                        (("--ingham", "--N", "3"), None),
                        (("--grid-file", str(path)), None)):
        code, out, _ = run(capsys, command, *flags, *signal, "--format", "json")
        assert code == 0
        assert json.loads(out)["params"].get("imag") == imag


def test_reconstruct_bad_signal(capsys):
    for spec, message in ((",", "empty signal specification ','"),
                          ("0.5:", "could not convert string to float: ''"),
                          (":1", "could not convert string to float: ''"),
                          ("abc", "could not convert string to float: 'abc'"),
                          ("0.5:1:2", "could not convert string to float: '1:2'")):
        code, out, err = run(capsys, "reconstruct", f"--signal={spec}",
                             "--uniform-offset", "0", "--N", "5")
        assert code == 1, spec
        assert out == ""
        assert err == f"error: {message}\n"


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


def test_grid_file_index_beyond_node_range_fails_cleanly(capsys, tmp_path):
    # int64 holds it no more than a double resolves a node there
    path = tmp_path / "grid.txt"
    path.write_text("0 0.1\n100000000000000000000 1.0\n", encoding="utf-8")
    code, out, err = run(capsys, "gram", "--grid-file", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {path}:2: index 100000000000000000000 ")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command, signal", [("gram", ()),
                                             ("reconstruct", ("--signal", "0.3"))])
@pytest.mark.parametrize("flag, value", [("--tol", "1e-12"), ("--max-iter", "100")])
def test_solver_settings_are_not_options(capsys, command, signal, flag, value):
    # the solvers' tolerance and step cap are framekit's constants
    with pytest.raises(SystemExit) as exit_:
        main([command, *signal, "--ingham", "--N", "3", flag, value])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def run_fresh(*args, timeout):
    """python *args in a fresh interpreter that imports sincstab from src/."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True,
                          text=True, timeout=timeout)


def test_complex_gram_with_large_imaginary_part_finishes():
    # an iterative complex solve never converged here (901 nodes, |Im lambda| = 3);
    # a subprocess with a timeout keeps a regression from hanging the suite
    proc = run_fresh("-m", "sincstab.cli", "gram", "--uniform-offset", "0.1", "--imag", "3",
                     "--N", "450", "--format", "json", timeout=60)
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)["results"]
    assert results["converged"] is True
    # ||G|| = 1.46e8, so eigvalsh resolves nothing below 901 * eps * 1.46e8
    # = 2.9e-5: the smallest eigenvalue (about 5e-9) has no reliable digit
    assert 1e8 < results["max_eigenvalue"] < math.inf
    assert results["min_eigenvalue"] is None and results["min_eigenvalue_resolved"] is False
    assert results["implied_riesz_upper"] > results["max_eigenvalue"]


def test_gram_resolved_min_eigenvalue_has_no_flag(capsys):
    # a well-conditioned complex grid: the smallest eigenvalue is far above
    # the resolution, so it is reported and the flag is left out
    code, out, _ = run(capsys, "gram", "--uniform-offset", "0.1", "--imag", "0.1",
                       "--N", "20", "--format", "json")
    results = json.loads(out)["results"]
    assert code == 0 and "min_eigenvalue_resolved" not in results
    assert 0.1 < results["min_eigenvalue"] < 1.0 < results["max_eigenvalue"]


def test_cli_import_leaves_scipy_unloaded():
    # the closed-form subcommands run on the standard library: numpy loads
    # with gram or reconstruct, and scipy.sparse never, not even with a
    # real gram above the dense cutoff (1000 moved columns, 2001 nodes)
    code = (
        "import sys\n"
        "import sincstab\n"
        "assert 'numpy' not in sys.modules\n"
        "from sincstab import bounds\n"  # asks the package for 'bounds' first
        "assert 'sincstab.framekit' not in sys.modules\n"
        "from sincstab.cli import main\n"
        "assert 'numpy' not in sys.modules and 'scipy' not in sys.modules\n"
        "for argv in (['table', '--alpha', '1', '--critical'],\n"
        "             ['bounds', '--kadec', '--L', '0.2'],\n"
        "             ['bounds', '--complex', '--L', '0.2'],\n"
        "             ['bounds', '--power-law', '--A', '0.1', '--alpha', '1'],\n"
        "             ['table', '--alpha', '0.5000000000001,1e308', '--A', '0.1',\n"
        "              '--critical'],\n"
        "             ['bounds', '--kadec', '--L', '1e308'],\n"
        "             ['bounds', '--power-law', '--A', '0.1', '--alpha', '1e308'],\n"
        "             ['oseen']):\n"
        "    assert main(argv) == 0\n"
        "    assert 'numpy' not in sys.modules and 'scipy' not in sys.modules, argv\n"
        "assert main(['gram', '--ingham', '--N', '3']) == 0\n"
        "assert 'numpy' in sys.modules and 'scipy.sparse' not in sys.modules\n"
        "assert main(['gram', '--power-law', '--A', '0.2', '--alpha', '1', '--N', '900',\n"
        "             '--extend-nonpositive']) == 0\n"
        "assert 'scipy.linalg' in sys.modules and 'scipy.sparse' not in sys.modules\n"
    )
    proc = run_fresh("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "(critical)" in proc.stdout
    # and the numerics layer holds no verdict: it does not load the bounds
    proc = run_fresh("-c", "import sys\n"
                           "import sincstab.framekit\n"
                           "assert 'sincstab.bounds' not in sys.modules\n", timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_closed_form_commands_load_no_dataclasses_or_fractions():
    # a start of oseen, bounds or table is mostly the import of the CLI:
    # dataclasses (with inspect, ast and dis) and fractions (with decimal)
    # would cost it about 10 ms and serve none of these commands
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "from sincstab.cli import main\n"
        "for argv in (['oseen'], ['bounds', '--kadec', '--L', '0.2'],\n"
        "             ['bounds', '--complex', '--L', '0.2', '--format', 'json'],\n"
        "             ['bounds', '--power-law', '--A', '0.1', '--alpha', '1'],\n"
        "             ['table', '--alpha', '1', '--A', '0.1', '--critical', '--format', 'csv']):\n"
        "    assert main(argv) == 0\n"
        "loaded = set(sys.modules) - before\n"
        "unwanted = {'dataclasses', 'inspect', 'fractions', 'decimal'} & loaded\n"
        "assert not unwanted, sorted(unwanted)\n"
    )
    proc = run_fresh("-c", code, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_stalled_gram_solve_is_one_error_line(tmp_path):
    # a fresh interpreter, so reconstruct (which defines ConvergenceError)
    # is first loaded inside the reconstruct run that raises it.  Node 1 at
    # 1e-7, next to node 0, makes the Gram matrix so near singular that CG
    # stalls short of its tolerance
    path = tmp_path / "grid.txt"
    path.write_text("".join(f"{k} {1e-7 if k == 1 else k}\n" for k in range(-20, 21)),
                    encoding="utf-8")
    proc = run_fresh("-m", "sincstab.cli", "reconstruct", "--signal", "0.3",
                     "--grid-file", str(path), timeout=120)
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: Gram solve stalled")
    assert proc.stderr.endswith("(tolerance 1.0e-10)\n")
    assert len(proc.stderr.splitlines()) == 1


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
