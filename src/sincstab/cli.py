"""Command-line front end.

Subcommands: oseen | bounds | table | gram | reconstruct.  Output is
human-readable (6 significant digits), JSON, or CSV; JSON and CSV carry full
double precision.  A JSON report is one line with sorted keys, and a
non-finite float in it is written as null.  Exit status is 0 only when every
requested computation converged and no domain error occurred.  oseen, bounds
and table run on the standard library alone; gram and reconstruct load numpy
and the numerics modules when they start.  build_parser makes the parser once
per process, and each subcommand's parser binds its handler, which main calls.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from typing import TYPE_CHECKING

from . import __version__
from . import bounds as bounds_mod
from . import specfun

if TYPE_CHECKING:
    from . import framekit, grids, reconstruct

OK = 0
FAILURE = 1


MAX_RANGE_VALUES = 100_000  # longest lo:hi:step range a list may expand
TABLE_COLUMNS = ("alpha", "A", "lambda1", "lambda2", "lambda")


def _range_count(lo: float, hi: float, step: float) -> float:
    """Number of values in the inclusive range lo:hi:step, counted without
    making them; rejects non-finite parts and empty or backward ranges."""
    if not all(math.isfinite(x) for x in (lo, hi, step)):
        raise ValueError(f"range {lo!r}:{hi!r}:{step!r} has a non-finite part")
    if step <= 0 or hi < lo:
        raise ValueError(f"range {lo!r}:{hi!r}:{step!r} needs step > 0 and lo <= hi")
    steps = (hi - lo) / step
    return math.inf if math.isinf(steps) else round(steps) + 1  # hi - lo may overflow


def _parse_float_list(text: str) -> list[float]:
    """Comma-separated values; 'lo:hi:step' tokens expand to inclusive ranges
    of at most MAX_RANGE_VALUES values."""
    values: list[float] = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        try:
            parts = [float(v) for v in tok.split(":")]
        except ValueError:
            raise ValueError(
                f"expected numbers or lo:hi:step ranges, got {text!r}") from None
        if len(parts) == 1:
            values.extend(parts)
            continue
        if len(parts) != 3:
            raise ValueError(f"expected numbers or lo:hi:step ranges, got {text!r}")
        lo, hi, step = parts
        count = _range_count(lo, hi, step)
        if count > MAX_RANGE_VALUES:
            raise ValueError(f"range {tok!r} has {float(count):.6g} values, over the limit of "
                             f"{MAX_RANGE_VALUES}")
        values.extend(lo + i * step for i in range(count) if lo + i * step <= hi + 1e-12)
    return values


def _parse_signal(text: str) -> reconstruct.BandlimitedSignal:
    """Parse 'mu' or 'mu:c,mu:c,...' into a sinc-translate combination."""
    from . import reconstruct

    shifts, weights = [], []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        if ":" in tok:
            mu, c = tok.split(":", 1)
            shifts.append(float(mu))
            weights.append(float(c))
        else:
            shifts.append(float(tok))
            weights.append(1.0)
    if not shifts:
        raise ValueError(f"empty signal specification {text!r}")
    return reconstruct.BandlimitedSignal(shifts=shifts, weights=weights)


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("human", "json", "csv"), default="human")
    p.add_argument("--out", metavar="PATH", default=None,
                   help="write the report to PATH instead of stdout")


def _add_grid_flags(p: argparse.ArgumentParser) -> None:
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--power-law", action="store_true",
                      help="lambda_n = n + A/n^alpha for n = 1..N")
    kind.add_argument("--uniform-offset", type=float, metavar="F",
                      help="lambda_n = n + F (+ i*IMAG) over -N..N")
    kind.add_argument("--ingham", action="store_true",
                      help="lambda_n = n +/- 1/4 over -N..N")
    kind.add_argument("--grid-file", metavar="PATH",
                      help="explicit grid: 'index re [im]' per line")
    p.add_argument("--A", type=float, help="power-law amplitude")
    p.add_argument("--alpha", type=float, help="power-law exponent")
    p.add_argument("--N", type=int, help="index radius / count")
    p.add_argument("--extend-nonpositive", action="store_true",
                   help="extend a power-law grid by lambda_n = n for n <= 0")
    p.add_argument("--imag", type=float, default=0.0,
                   help="imaginary part for --uniform-offset")
    p.add_argument("--window", type=int, default=None, metavar="INT",
                   help="gram: symmetric row radius of S (default: grid-derived); "
                        "reconstruct accepts it but does not use it, since its Gram "
                        "matrix sinc(lambda_m - lambda_n) is exact")


def _resolve_grid(args) -> grids.PerturbedGrid:
    """The requested grid.  gram can form the dense n x n Gram matrix of an
    n-node grid (for eigvalsh up to framekit.DENSE_EIG_CUTOFF nodes, for
    --dump-matrix, and always on a complex grid), and reconstruct's m x m
    moved block and u x m rows at the unmoved integers (m + u = n) are no
    larger, so a generated grid is refused before any of its arrays is made
    when a real n x n matrix would be over the dense limit."""
    from . import grids

    if args.grid_file is not None:
        return grids.grid_from_file(args.grid_file)
    if args.power_law:
        if args.A is None or args.alpha is None or args.N is None:
            raise ValueError("--power-law requires --A, --alpha and --N")
    elif args.N is None:
        raise ValueError(f"--{'ingham' if args.ingham else 'uniform-offset'} requires --N")
    n = args.N if args.power_law and not args.extend_nonpositive else 2 * args.N + 1
    if n > 0:  # the generators refuse N < 1 themselves
        specfun.check_dense_size(n, n, is_complex=False)
    if args.power_law:
        return grids.power_law_grid(args.A, args.alpha, args.N,
                                    extend_nonpositive=args.extend_nonpositive)
    if args.ingham:
        return grids.ingham_grid(args.N)
    return grids.uniform_offset_grid([args.uniform_offset + 1j * args.imag] * n,
                                     (-args.N, args.N))


def _resolve_window(args, grid) -> framekit.TruncationWindow:
    from . import framekit

    if args.window is None:
        return framekit.TruncationWindow.for_grid(grid)
    if args.window < 0:
        raise ValueError("--window must be at least 0")
    lo = min(-args.window, int(grid.indices[0]))
    hi = max(args.window, int(grid.indices[-1]))
    return framekit.TruncationWindow(row_range=(lo, hi))


def _grid_params(args) -> dict:
    """The grid flags given; --imag only with --uniform-offset, the grid it applies to."""
    keys = ("power_law", "uniform_offset", "ingham", "grid_file", "A", "alpha",
            "N", "extend_nonpositive") + (("imag",) if args.uniform_offset is not None else ())
    return {key: value for key in keys
            if (value := getattr(args, key)) is not None and value is not False}


# ---------------------------------------------------------------------------
# subcommands

def _run_oseen(args):
    a = specfun.lamb_oseen_alpha()
    results = {
        "alpha": a,
        "residual": math.exp(a) - 2.0 * a - 1.0,
        "complex_bound": bounds_mod.complex_bound_L(),
    }
    return {}, results, True


# bounds' regime flags in precedence order, each with its estimator and the
# flags that estimator takes
_REGIMES = {
    "complex": (bounds_mod.complex_master, ("L",)),
    "kadec": (bounds_mod.kadec_transfer_lambda, ("L",)),
    "power_law": (bounds_mod.power_law_certificate, ("A", "alpha")),
}


def _run_bounds(args):
    regime = next((flag for flag in _REGIMES if getattr(args, flag)), None)
    if regime is None:
        raise ValueError("select a regime: --kadec, --complex or --power-law")
    estimator, flags = _REGIMES[regime]
    if any(getattr(args, flag) is None for flag in flags):
        raise ValueError(f"--{regime.replace('_', '-')} requires "
                         + " and ".join(f"--{flag}" for flag in flags))
    params = {"regime": regime, **{flag: getattr(args, flag) for flag in flags}}
    report = estimator(*(params[flag] for flag in flags))
    results = {
        "bound_name": report.bound_name,
        "lambda": report.lambda_value,
        "threshold": report.threshold,
        "satisfies_pw": report.satisfies_pw,
        "verdict": "pass" if report.satisfies_pw else "fail",
    }
    return params, results, True


def _run_table(args):
    alphas = _parse_float_list(args.alpha)
    amps = _parse_float_list(args.A) if args.A else []
    if not alphas:
        raise ValueError("--alpha must list at least one exponent")
    if not amps and not args.critical:
        raise ValueError("provide --A values and/or --critical")
    rows = []
    for alpha in alphas:
        reports = bounds_mod.table_rows(alpha, amps, critical=args.critical)
        for i, rep in enumerate(reports):
            row = dict(zip(TABLE_COLUMNS, (alpha, rep.inputs["A"], rep.components["lambda1"],
                                           rep.components["lambda2"], rep.lambda_value)))
            if i == len(amps):  # the row appended at the critical amplitude
                row["critical"] = True
            rows.append(row)
    params = {"alpha": alphas, "A": amps, "critical": bool(args.critical)}
    return params, {"rows": rows}, True


def _run_gram(args):
    from . import framekit

    if args.seed < 0:
        raise ValueError("--seed must be at least 0")
    grid = _resolve_grid(args)
    window = _resolve_window(args, grid)
    summary, G = framekit.riesz_bounds_estimate(grid, window, seed=args.seed)
    if args.dump_matrix:
        framekit.dump_matrix(G.dense(), args.dump_matrix, grid.indices, grid.indices)
    params = _grid_params(args)
    params["window_rows"] = [int(window.row_range[0]), int(window.row_range[1])]
    results = {"gram_method": "s_h_s" if grid.is_complex else "analytic_sinc"}
    for key in ("perturbation_norm", "min_eigenvalue", "max_eigenvalue", "implied_riesz_lower",
                "implied_riesz_upper", "iterations_used", "converged"):
        results[key] = getattr(summary, key)
    if summary.min_eigenvalue is None:  # unresolved; the key appears only then
        results["min_eigenvalue_resolved"] = False
    return params, results, summary.converged


def _run_reconstruct(args):
    import numpy as np

    from . import grids, reconstruct

    grid = _resolve_grid(args)
    _resolve_window(args, grid)  # checks --window, which the exact Gram matrix does not read
    signal = _parse_signal(args.signal)
    if args.eval_points < 2:
        raise ValueError("--eval-points must be at least 2")
    if not (args.eval_hi > args.eval_lo):
        raise ValueError("evaluation interval must have positive length")
    if not math.isfinite(args.eval_hi - args.eval_lo):
        raise ValueError("evaluation interval must be finite")
    if max(abs(args.eval_lo), abs(args.eval_hi)) >= grids.MAX_NODE_REAL:
        raise ValueError("evaluation interval must lie inside (-2^52, 2^52), as grid nodes do")
    # no matrix is made, but each count of terms is bounded as a real matrix's entries
    p, n, a = args.eval_points, len(grid), len(signal.shifts)
    limit = specfun.MAX_DENSE_BYTES // 8
    for work, terms in ((f"{p} points x {n} nodes", p * n), (f"{p} points x {a} atoms", p * a),
                        (f"{n} nodes x {a} atoms", n * a)):
        if terms > limit:
            raise ValueError(f"{work} = {terms} terms, over the limit of {limit} terms")
    samples = reconstruct.sample_signal(signal, grid)
    result = reconstruct.solve_coefficients(samples, grid)
    t = np.linspace(args.eval_lo, args.eval_hi, args.eval_points)
    f_ref = signal(t)
    f_hat = reconstruct.evaluate_reconstruction(result, grid, t)
    error = reconstruct.reconstruction_error(t, f_ref, f_hat)
    if args.csv:
        reconstruct.write_csv(args.csv, result, grid, t, f_ref, f_hat, error)
    params = _grid_params(args)
    params.update({"signal": args.signal,
                   "eval_window": [args.eval_lo, args.eval_hi],
                   "eval_points": args.eval_points})
    results = {
        "relative_l2_error": error,
        "residual_norm": result.residual_norm,
        "solver_iterations": result.solver_iterations,
        "coefficients_head": result.coefficients[:8].tolist(),
    }
    return params, results, True


# ---------------------------------------------------------------------------
# rendering

def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _render_human(command: str, results: dict) -> str:
    lines = []
    if command == "table":
        lines.append("  ".join(f"{h:>10s}" for h in TABLE_COLUMNS))
        for row in results["rows"]:
            cells = [f"{_fmt(row[h]):>10s}" for h in TABLE_COLUMNS]
            if row.get("critical"):
                cells.append("(critical)")
            lines.append("  ".join(cells))
    else:
        for key, value in results.items():
            lines.append(f"{key} = {_fmt(value)}")
    return "\n".join(lines) + "\n"


def _render_csv(command: str, results: dict) -> str:
    lines = []
    if command == "table":
        lines.append(",".join(TABLE_COLUMNS))
        for row in results["rows"]:
            lines.append(",".join(repr(float(row[h])) for h in TABLE_COLUMNS))
    else:
        lines.append("key,value")
        for key, value in results.items():
            text = repr(value) if isinstance(value, float) else str(value)
            lines.append(f'{key},"{text}"' if "," in text else f"{key},{text}")  # a list
    return "\n".join(lines) + "\n"


def _json_safe(value):
    """value with every non-finite float replaced by None, so that the
    report stays valid JSON (which has no NaN or Infinity).  _emit calls it
    only after encoding the report as it is has failed on such a float."""
    if isinstance(value, dict):
        return {key: _json_safe(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_json_safe(item) for item in value]
    return None if isinstance(value, float) and not math.isfinite(value) else value


def _emit(args, command: str, params: dict, results: dict, runtime_ms: float) -> None:
    """Write the report in args.format to args.out, or to stdout.

    A JSON report is one line with sorted keys and each float's repr:
    json.dumps without indent encodes it in C, and any indent falls back to
    the slower pure-Python encoder.  The report is encoded as it is first,
    since its floats are nearly always finite, and scrubbed by _json_safe
    only when the encoder rejects one."""
    if args.format == "json":
        payload = {
            "command": command,
            "params": params,
            "results": results,
            "meta": {"version": __version__, "runtime_ms": runtime_ms},
        }
        if command == "gram":
            payload["meta"]["seed"] = args.seed
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError:  # a NaN or infinity, which JSON cannot hold
            text = json.dumps(_json_safe(payload), sort_keys=True, allow_nan=False)
        text += "\n"
    elif args.format == "csv":
        text = _render_csv(command, results)
    else:
        text = _render_human(command, results)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sincstab",
        description="Stability bounds and numerical probes for perturbed sinc bases.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("oseen", help="the Lamb-Oseen constant and the complex threshold")
    p.set_defaults(handler=_run_oseen)
    _add_common_flags(p)

    p = sub.add_parser("bounds", help="closed-form stability verdicts")
    p.set_defaults(handler=_run_bounds)
    _add_common_flags(p)
    p.add_argument("--kadec", action="store_true", help="real constant-offset regime")
    p.add_argument("--complex", action="store_true", help="complex-offset regime")
    p.add_argument("--power-law", action="store_true", help="power-law certificate")
    p.add_argument("--L", type=float, help="deviation bound for --kadec/--complex")
    p.add_argument("--A", type=float, help="power-law amplitude")
    p.add_argument("--alpha", type=float, help="power-law exponent")

    p = sub.add_parser("table", help="lambda = lambda1 + lambda2 over parameter lists")
    p.set_defaults(handler=_run_table)
    _add_common_flags(p)
    p.add_argument("--alpha", required=True, help="comma-separated exponents")
    p.add_argument("--A", default=None, help="comma-separated amplitudes")
    p.add_argument("--critical", action="store_true",
                   help="append the root of lambda = 1 per exponent")

    p = sub.add_parser("gram", help="truncated-system diagnostics")
    p.set_defaults(handler=_run_gram)
    _add_common_flags(p)
    _add_grid_flags(p)
    p.add_argument("--seed", type=int, default=0,
                   help="ARPACK's start seed, for a real grid with more moved norm "
                        "columns or Gram nodes than framekit.DENSE_EIG_CUTOFF (a "
                        "complex grid is solved exactly)")
    p.add_argument("--dump-matrix", metavar="PATH", default=None,
                   help="dump the Gram matrix as text, one 'k n re im' record per "
                        "entry, k and n its grid indices")

    p = sub.add_parser("reconstruct", help="reconstruct a bandlimited signal")
    p.set_defaults(handler=_run_reconstruct)
    _add_common_flags(p)
    _add_grid_flags(p)
    p.add_argument("--signal", required=True,
                   help="sinc-translate combination, e.g. '0.3' or '0.3:1,2.5:-0.7'; "
                        "write a negative first shift as --signal=-3.2:0.5")
    p.add_argument("--eval-lo", type=float, default=-20.0)
    p.add_argument("--eval-hi", type=float, default=20.0)
    p.add_argument("--eval-points", type=int, default=2001)
    p.add_argument("--csv", metavar="PATH", default=None,
                   help="write t,f_ref,f_hat,abs_err rows to PATH")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    start = time.perf_counter()
    try:
        params, results, converged = args.handler(args)
        runtime_ms = (time.perf_counter() - start) * 1e3
        _emit(args, args.command, params, results, runtime_ms)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return FAILURE
    return OK if converged else FAILURE


if __name__ == "__main__":
    raise SystemExit(main())
