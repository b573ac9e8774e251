"""Correctness oracles for the benchmark's requests.

Each workload has a checker with three entry points:

* ``prepare(call)`` runs once before timing (the paper's table rows);
* ``check(request, reports)`` runs after every request, outside its timed
  span, and returns (problems, accuracy values);
* ``check_dense(request, reports)`` recomputes a request's numbers with dense
  linear algebra.  It costs seconds per large input, so the benchmark runs
  it after the timed loop, once the peak memory has been read, on a seeded
  sample of ``dense_samples`` requests.

Oracles build their matrices from the grid's defining formula with numpy and
scipy, not through sincstab.
"""

from __future__ import annotations

import json
import math
import random

import mpmath
import numpy as np
import scipy.linalg

from workloads import TABLE_AMPLITUDES, TABLE_STEP, Request

DENSE_TOL = 1e-8        # norm and extremal eigenvalues against svd / eigvalsh
COEFF_TOL = 1e-8        # CG coefficients against a dense solve, relative to ||c||
CRITICAL_TOL = 1e-5     # lambda at the reported critical amplitude
PAPER_TOL = 1e-5        # the paper's printed digits
SERIES_TOL = 1e-11      # table lambda against a 30-digit mpmath series
ENTRY_TOL = 1e-14       # dumped Gram entries against math.sin
CG_TOL = 1e-10          # the CLI's default --tol
DUMP_SAMPLES = 16
EVERY_REQUEST = 10 ** 9  # a dense_samples that keeps every request

# Paper Table 1: (alpha, lambda1, lambda2, lambda) at A = 1/4.
TABLE_1 = [(0.7, 0.199367, 0.431376, 0.630743), (0.65, 0.199367, 0.600929, 0.800296),
           (0.63, 0.199367, 0.705618, 0.904986), (0.62, 0.199367, 0.771134, 0.970502),
           (0.61599, 0.199367, 0.800596, 0.999963)]
# Paper Table 2: (A, lambda) at alpha = 1, and the critical amplitude A*(1).
TABLE_2 = [(0.25, 0.331456), (0.35, 0.637257), (0.4, 0.822432), (0.42, 0.902013),
           (0.44, 0.984574), (0.44366, 0.999996)]
CRITICAL_A_1 = 0.44366


def exact_sinc(x) -> np.ndarray:
    """sin(pi x)/(pi x) with exact Kronecker values at real integers."""
    x = np.asarray(x)
    y = np.sinc(x)
    if x.dtype.kind != "c":
        y[(x == np.round(x)) & (x != 0.0)] = 0.0
    return y


def _flag(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


def _close(a, b, tol: float) -> bool:
    return a is not None and b is not None and abs(a - b) <= tol


def _arg(argv, flag: str) -> str:
    return argv[argv.index(flag) + 1]


def _signal(argv) -> tuple[np.ndarray, np.ndarray]:
    spec = next(a for a in argv if a.startswith("--signal=")).split("=", 1)[1]
    atoms = [tok.split(":") for tok in spec.split(",")]
    return (np.array([float(m) for m, _ in atoms]), np.array([float(w) for _, w in atoms]))


def _grid(argv) -> tuple[np.ndarray, np.ndarray]:
    """(indices, nodes) of the grid a gram/reconstruct argv describes."""
    N = int(_arg(argv, "--N"))
    idx = np.arange(-N, N + 1)
    if "--power-law" in argv:
        A, alpha = float(_arg(argv, "--A")), float(_arg(argv, "--alpha"))
        nodes = idx.astype(np.float64)
        pos = idx >= 1
        nodes[pos] += A / idx[pos].astype(np.float64) ** alpha
    elif "--ingham" in argv:
        nodes = idx + 0.25 * np.sign(idx)
    else:
        offset = float(_arg(argv, "--uniform-offset")) + 1j * float(_arg(argv, "--imag"))
        nodes = idx + offset
    return idx, nodes


def dense_gram(argv, rows: tuple[int, int]) -> dict:
    """||S - I|| by SVD and the Gram matrix's extremal eigenvalues by eigvalsh."""
    idx, nodes = _grid(argv)
    k = np.arange(rows[0], rows[1] + 1)
    S = exact_sinc(nodes[None, :] - k[:, None])
    E = S.copy()
    inside = (idx >= k[0]) & (idx <= k[-1])
    E[idx[inside] - k[0], np.nonzero(inside)[0]] -= 1.0
    if np.iscomplexobj(S):
        G = S.conj().T @ S
    else:
        G = exact_sinc(nodes[:, None] - nodes[None, :])
    ev = np.linalg.eigvalsh(G)
    return {"norm": float(scipy.linalg.svdvals(E)[0]), "emin": float(ev[0]),
            "emax": float(ev[-1]), "G": G, "nodes": nodes}


def _check_gram_report(report: dict, problems: list) -> dict:
    res = report.get("results", {})
    values = [res.get(k) for k in ("perturbation_norm", "min_eigenvalue", "max_eigenvalue")]
    _flag(problems, report.get("command") == "gram", "gram report missing")
    _flag(problems, res.get("converged") is True, "gram did not converge")
    _flag(problems, all(isinstance(v, float) and math.isfinite(v) for v in values),
          f"non-finite gram results {values}")
    if not problems:
        _flag(problems, 0.0 < values[1] <= values[2], f"eigenvalues out of order {values}")
    return res


def _compare_dense(res: dict, oracle: dict, problems: list) -> None:
    for key, ref in (("perturbation_norm", "norm"), ("min_eigenvalue", "emin"),
                     ("max_eigenvalue", "emax")):
        _flag(problems, _close(res.get(key), oracle[ref], DENSE_TOL),
              f"{key} {res.get(key)!r} != dense {oracle[ref]!r}")


def _check_recon_report(report: dict, limit: float, problems: list) -> dict:
    res = report.get("results", {})
    err = res.get("relative_l2_error")
    _flag(problems, report.get("command") == "reconstruct", "reconstruct report missing")
    _flag(problems, isinstance(err, float) and 0.0 < err < limit,
          f"relative_l2_error {err!r} outside (0, {limit})")
    residual = res.get("residual_norm")
    _flag(problems, isinstance(residual, float) and residual <= CG_TOL,
          f"CG residual {residual!r} above {CG_TOL}")
    return res


def _check_coefficients(argv, res: dict, oracle: dict, problems: list) -> None:
    """The reported leading coefficients solve G c = f(lambda) densely."""
    shifts, weights = _signal(argv)
    b = exact_sinc(oracle["nodes"][:, None] - shifts[None, :]) @ weights
    c = np.linalg.solve(oracle["G"], b)
    head = np.array(res.get("coefficients_head") or [np.nan])
    gap = float(np.max(np.abs(head - c[:head.size])))
    _flag(problems, gap <= COEFF_TOL * float(np.linalg.norm(c)),
          f"CG coefficients differ from dense solve by {gap:.3e}")


class Checker:
    """No shared preparation and no dense sample unless a workload needs them."""

    dense_samples = 0

    def prepare(self, call) -> list[str]:
        return []

    def check_dense(self, request: Request, reports: list[dict]) -> list[str]:
        return []


class CertifySweep(Checker):
    """table --critical: lambda = lambda1 + lambda2 on every row, lambda ~ 1 on
    critical rows, one seeded row per request against mpmath."""

    def prepare(self, call) -> list[str]:
        problems: list[str] = []
        alphas = ",".join(str(a) for a, *_ in TABLE_1)
        rows = call(["table", "--alpha", alphas, "--A", "0.25"])["results"]["rows"]
        for (alpha, l1, l2, lam), row in zip(TABLE_1, rows):
            _flag(problems, all(_close(row[k], v, PAPER_TOL) for k, v in
                                (("lambda1", l1), ("lambda2", l2), ("lambda", lam))),
                  f"Table 1 row alpha={alpha} reads {row}")
        amps = ",".join(str(A) for A, _ in TABLE_2)
        rows = call(["table", "--alpha", "1", "--A", amps, "--critical"])["results"]["rows"]
        for (A, lam), row in zip(TABLE_2, rows):
            _flag(problems, _close(row["lambda"], lam, PAPER_TOL),
                  f"Table 2 row A={A} reads {row}")
        _flag(problems, _close(rows[-1]["A"], CRITICAL_A_1, PAPER_TOL),
              f"A*(1) reads {rows[-1]['A']!r}")
        return problems

    def check(self, request: Request, reports: list[dict]):
        problems: list[str] = []
        argv = request.calls[0]
        lo, hi, _ = (float(v) for v in _arg(argv, "--alpha").split(":"))
        amps = [float(a) for a in _arg(argv, "--A").split(",")]
        rows = reports[0].get("results", {}).get("rows", [])
        alphas = [lo + i * TABLE_STEP for i in range(round((hi - lo) / TABLE_STEP) + 1)]
        _flag(problems, len(rows) == len(alphas) * (TABLE_AMPLITUDES + 1),
              f"{len(rows)} rows for {len(alphas)} exponents")
        misses = []
        for i, row in enumerate(rows):
            alpha = alphas[i // (TABLE_AMPLITUDES + 1)]
            _flag(problems, _close(row["alpha"], alpha, 1e-12), f"row {i} alpha {row['alpha']}")
            _flag(problems, _close(row["lambda"], row["lambda1"] + row["lambda2"], 1e-14),
                  f"row {i}: lambda != lambda1 + lambda2")
            if row.get("critical"):
                misses.append(abs(row["lambda"] - 1.0))
                _flag(problems, misses[-1] <= CRITICAL_TOL, f"row {i}: critical lambda {row}")
            else:
                _flag(problems, row["A"] == amps[i % (TABLE_AMPLITUDES + 1)],
                      f"row {i}: amplitude {row['A']}")
        if request.check_row < len(rows):
            row = rows[request.check_row]
            ref = table_lambda_mp(row["A"], row["alpha"])
            _flag(problems, _close(row["lambda"], ref, SERIES_TOL),
                  f"row {request.check_row}: lambda {row['lambda']!r} != mpmath {ref!r}")
        return problems, misses


def table_lambda_mp(A: float, alpha: float) -> float:
    """lambda1 + lambda2 of the paper's split estimate, in 30-digit arithmetic."""
    with mpmath.workdps(30):
        x = mpmath.pi * mpmath.mpf(A)
        lam = 2 * (1 - mpmath.sin(x) / x)
        for l in range(1, 400):
            term = (2 * (-1) ** (l + 1) * x ** (2 * l) / mpmath.factorial(2 * l + 1)
                    * (mpmath.zeta(2 * l * mpmath.mpf(alpha)) - 1))
            lam += term
            if abs(term) < 1e-25:
                break
        return float(lam)


class RealPipeline(Checker):
    """gram then reconstruct on one power-law grid."""

    dense_samples = 1
    recon_limit = 1e-2

    def check(self, request: Request, reports: list[dict]):
        problems: list[str] = []
        _check_gram_report(reports[0], problems)
        res = _check_recon_report(reports[1], self.recon_limit, problems)
        return problems, [res.get("relative_l2_error")] if not problems else []

    def check_dense(self, request: Request, reports: list[dict]) -> list[str]:
        problems: list[str] = []
        rows = reports[0]["params"]["window_rows"]
        oracle = dense_gram(request.calls[0], rows)
        _compare_dense(reports[0]["results"], oracle, problems)
        _check_coefficients(request.calls[1], reports[1]["results"], oracle, problems)
        return problems


def exact_norm(argv) -> float:
    """The infinite system's ||S - I|| on the grid n + delta, which is
    max_{|xi| <= 1/2} |exp(-2 pi i delta xi) - 1|, sampled on 20001 points."""
    delta = float(_arg(argv, "--uniform-offset")) + 1j * float(_arg(argv, "--imag"))
    xi = np.linspace(-0.5, 0.5, 20_001)
    return float(np.max(np.abs(np.exp(-2j * np.pi * delta * xi) - 1.0)))


class ComplexOffset(Checker):
    """gram on the fixed complex grid n + 0.1 + 0.1i: the accuracy value is the
    relative gap between the window's ||S - I|| and the infinite system's
    norm; after the loop every request must match the one dense oracle."""

    dense_samples = EVERY_REQUEST

    def __init__(self):
        self.oracle = None

    def check(self, request: Request, reports: list[dict]):
        problems: list[str] = []
        res = _check_gram_report(reports[0], problems)
        if problems:
            return problems, []
        exact = exact_norm(request.calls[0])
        return problems, [abs(res["perturbation_norm"] - exact) / exact]

    def check_dense(self, request: Request, reports: list[dict]) -> list[str]:
        problems: list[str] = []
        if self.oracle is None:
            self.oracle = dense_gram(request.calls[0], reports[0]["params"]["window_rows"])
        _compare_dense(reports[0]["results"], self.oracle, problems)
        return problems


class ExportIngham(RealPipeline):
    """gram --dump-matrix then reconstruct --csv on an Ingham grid: the dump
    holds one line per Gram entry and sampled entries equal sinc(l_m - l_n);
    the CSV holds one row per evaluation point and matches the report."""

    dense_samples = 2
    recon_limit = 0.5

    def check(self, request: Request, reports: list[dict]):
        problems, accuracy = super().check(request, reports)
        gram_argv, recon_argv = request.calls
        _check_dump(gram_argv, random.Random(repr(request.calls)), problems)
        _check_csv(recon_argv, reports[1], problems)
        return problems, accuracy if not problems else []


def _check_dump(argv, rng: random.Random, problems: list) -> None:
    """Streams the dump, keeping only the sampled lines, so the check adds
    little to the process's peak memory."""
    idx, nodes = _grid(argv)
    n = idx.size
    wanted = {rng.randrange(n * n) for _ in range(DUMP_SAMPLES)}
    sampled = {}
    count = 0
    with open(_arg(argv, "--dump-matrix"), "rb") as fh:
        for count, line in enumerate(fh, 1):
            if count - 1 in wanted:
                sampled[count - 1] = line
    _flag(problems, count == n * n, f"dump has {count} lines for {n}x{n} entries")
    for line_no, line in sorted(sampled.items()):
        i, j = divmod(line_no, n)
        k, m, re, im = line.split()
        x = float(nodes[i] - nodes[j])
        ref = 1.0 if x == 0.0 else math.sin(math.pi * x) / (math.pi * x)
        _flag(problems, (int(k), int(m)) == (idx[i], idx[j]) and float(im) == 0.0
              and abs(float(re) - ref) <= ENTRY_TOL,
              f"dump line {line_no} reads {line!r}, expected {ref!r}")


def _check_csv(argv, report: dict, problems: list) -> None:
    shifts, weights = _signal(argv)
    points = 2001  # the CLI's default --eval-points
    with open(_arg(argv, "--csv"), encoding="utf-8") as fh:
        meta = json.loads(fh.readline()[2:])
        header = fh.readline().strip()
        rows = [tuple(float(v) for v in line.split(",")) for line in fh]
    _flag(problems, header == "t,f_ref,f_hat,abs_err" and len(rows) == points,
          f"csv has header {header!r} and {len(rows)} rows")
    _flag(problems, meta.get("relative_l2_error") == report["results"]["relative_l2_error"],
          "csv metadata disagrees with the report")
    for t, f_ref, f_hat, err in rows[:: points // 8]:
        ref = float(exact_sinc(t - shifts) @ weights)
        _flag(problems, abs(f_ref - ref) <= ENTRY_TOL and err == abs(f_hat - f_ref),
              f"csv row t={t!r} reads {(f_ref, f_hat, err)}")


CHECKERS = {
    "certify-sweep": CertifySweep,
    "real-pipeline": RealPipeline,
    "complex-offset": ComplexOffset,
    "export-ingham": ExportIngham,
}
