"""Benchmark of the sincstab command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports ``sincstab`` from
``src/`` and exits non-zero without a result when that is missing.

Each request is one or two in-process ``sincstab.cli.main(argv)`` calls with
``--format json --out <file>``, as ``workloads.py`` generates them from the
seed.  One client sends them in a closed loop from this process until the
requests have taken ``--seconds`` in total (and at least 11 have run, so a
tail percentile exists); BLAS uses one thread per available core.
Before each request its output files are removed, so a call that exits 0
without writing fails its check.  After every request, outside its timed
span, ``checks.py`` verifies the reports; a request fails on a non-zero
exit, an exception (``SystemExit`` included) or a failed check.  Dense
oracles check a seeded sample of requests (every request on complex-offset)
after the loop, once the peak memory has been read.

With ``--trace 0`` the last line carries the end-to-end metrics:

  setup_s          median of 12 fresh interpreters' time to import sincstab.cli,
                   spread evenly over the loop's request time (between
                   requests, outside their timed spans), after one discarded
                   import before the loop that absorbs a cold page cache
  latency_tail_s   highest percentile of request latency with at least 10
                   requests beyond it (the percentile and the sample count are
                   printed above the result)
  peak_rss_mb      peak resident memory of this process when the loop ends,
                   before any dense oracle is built
  result_rel_error median relative error of each request's headline number:
                   certify-sweep   |lambda - 1| at the critical amplitudes
                   real-pipeline,  relative_l2_error reported by reconstruct
                   export-ingham
                   complex-offset  gap between the window's ||S - I|| and the
                                   infinite system's norm, relative to it

Printed above the result line but not part of it:

  latency_p50_s    median request latency
  throughput_rps   requests completed per second of request time
  error_rate       failed / attempted, also carried by the result's
                   ``failed`` and ``attempted`` keys

The median and the throughput stay out of the result because they do not
repeat on a host whose CPU speed shifts for minutes at a time.  On a 2-core
Xeon VM where a plain Python loop ran up to 1.5x slower in such phases,
certify-sweep's median spread 27% (quartile distance over median) across ten
runs and its throughput 22%, while its tail, which falls in a slow phase in
every run, spread 4%.  error_rate reads 0 whenever the program is correct.

With ``--trace 1`` traced and untraced requests alternate.  The last line
carries the per-layer metrics of ``tracing.py``, per traced request, plus
``trace.overhead_s``: the median traced latency minus the median untraced
one.  The spans are written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from workloads import WORKLOADS, requests

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 12
IMPORT_PROBE = ("import time; t = time.perf_counter(); import sincstab.cli; "
                "print(time.perf_counter() - t)")
MIN_REQUESTS = 11
WALL_LIMIT_S = 120.0  # stop sending requests past this, so a run ends within 180 s
PRINTED_ONLY = ("latency_p50_s", "throughput_rps")
OUTPUT_FLAGS = ("--out", "--dump-matrix", "--csv")


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not args.seconds > 0:
        p.error("--seconds must be positive")
    return args


def limit_blas_threads() -> None:
    """One BLAS thread per available core; set before numpy loads."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)


def import_time() -> float:
    """Seconds a fresh interpreter takes to import sincstab.cli from src/."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                          capture_output=True, text=True, timeout=60, check=True)
    return float(done.stdout)


def blas_threads():
    """OpenBLAS's own thread count, or the configured one if it cannot be asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line}
        for lib in libs:
            handle = ctypes.CDLL(lib)
            for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    getter = getattr(handle, symbol)
                    getter.restype = ctypes.c_int
                    return getter()
    except OSError:
        pass
    return os.environ["OPENBLAS_NUM_THREADS"]


def machine_notes(np, scipy) -> dict:
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"nproc": NPROC, "blas": f"{blas['name']} {blas['version']}",
            "blas_threads": blas_threads(), "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version(),
            "setup_s": f"median of {SETUP_PROBES} imports spread over the loop, "
                       "after 1 discarded cold one"}


def run_request(request, main):
    """Run a request's CLI calls; returns (latency seconds, error or None)."""
    start = time.perf_counter()
    error = None
    for argv in request.calls:
        try:
            code = main(list(argv))
        except SystemExit as exc:
            error = f"{argv[0]} raised SystemExit({exc.code})"
        except Exception:
            traceback.print_exc()
            error = f"{argv[0]} raised"
        else:
            if code != 0:
                error = f"{argv[0]} exited {code}"
        if error:
            break
    return time.perf_counter() - start, error


def clear_outputs(request) -> None:
    """Remove what an earlier request wrote to this request's output files."""
    for argv in request.calls:
        for flag, path in zip(argv, argv[1:]):
            if flag in OUTPUT_FLAGS:
                Path(path).unlink(missing_ok=True)


def read_reports(request) -> list[dict]:
    reports = []
    for argv in request.calls:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            reports.append(json.load(fh))
    return reports


def checked(request, latency_error, checker):
    """(latency, problems, accuracy values, reports) of a finished request."""
    latency, error = latency_error
    if error:
        return latency, [error], [], None
    try:
        reports = read_reports(request)
        problems, accuracy = checker.check(request, reports)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return latency, [f"unreadable output: {exc!r}"], [], None
    return latency, problems, accuracy, reports


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least 10 samples beyond it, and which
    percentile that is; the maximum when there are 10 samples or fewer."""
    xs = sorted(latencies)
    k = len(xs) - 10 if len(xs) > 10 else len(xs)
    return xs[k - 1], 100.0 * k / len(xs)


def report_problems(label: str, problems: list[str]) -> None:
    for problem in problems[:5]:
        print(f"{label}: {problem}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (SRC / "sincstab" / "cli.py").is_file():
        print(f"error: no sincstab sources under {SRC}", file=sys.stderr)
        return 2
    limit_blas_threads()
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import sincstab.cli
    from checks import CHECKERS
    from tracing import Tracer

    if not Path(sincstab.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: sincstab imported from {sincstab.cli.__file__}", file=sys.stderr)
        return 2

    scratch = ROOT / ".bench_tmp" / f"{args.workload}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        checker = CHECKERS[args.workload]()

        def call(argv):
            out = scratch / "prepare.json"
            out.unlink(missing_ok=True)
            if sincstab.cli.main([*argv, "--format", "json", "--out", str(out)]) != 0:
                raise RuntimeError(f"{argv} failed")
            return json.loads(out.read_text(encoding="utf-8"))

        pre_problems = checker.prepare(call)
        stream = requests(args.workload, args.seed, str(scratch))
        warm = next(stream)
        clear_outputs(warm)
        _, problems, _, _ = checked(warm, run_request(warm, sincstab.cli.main), checker)
        pre_problems += problems
        report_problems("before timing", pre_problems)

        tracer = Tracer() if args.trace else None
        traced_main = tracer.span("cli.main", sincstab.cli.main) if tracer else None
        latencies: list[float] = []
        traced_latencies: list[float] = []
        accuracy: list[float] = []
        sample_rng = random.Random(f"dense:{args.workload}:{args.seed}")
        samples: list = []
        attempted = failed = passed = 0
        busy = 0.0
        setup: list[float] = []
        if not tracer:
            import_time()  # discarded: absorbs a cold page cache
        for i, request in enumerate(stream):
            if busy >= args.seconds and attempted >= MIN_REQUESTS:
                break
            if time.monotonic() - started > WALL_LIMIT_S:
                break
            if not tracer and busy >= len(setup) * args.seconds / SETUP_PROBES:
                setup.append(import_time())
            clear_outputs(request)
            if tracer and i % 2:
                tracer.request = i
                tracer.install()
                try:
                    outcome = run_request(request, traced_main)
                finally:
                    tracer.uninstall()
            else:
                outcome = run_request(request, sincstab.cli.main)
            latency, problems, values, reports = checked(request, outcome, checker)
            attempted += 1
            busy += latency
            if problems:
                failed += 1
                report_problems(f"request {i}", problems)
                continue
            (traced_latencies if tracer and i % 2 else latencies).append(latency)
            accuracy += values
            k = checker.dense_samples
            if len(samples) < k:
                samples.append((request, reports))
            elif k and (j := sample_rng.randrange(passed + 1)) < k:
                samples[j] = (request, reports)
            passed += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not tracer and len(setup) < SETUP_PROBES:
            setup.append(import_time())

        for request, reports in samples:
            problems = checker.check_dense(request, reports)
            if problems:
                failed += 1
                report_problems("dense oracle", problems)

        if tracer:
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if not latencies or (tracer and not traced_latencies):
        print("error: no request completed", file=sys.stderr)
        return 1
    print("machine: " + json.dumps(machine_notes(np, scipy)))
    tail_s, tail_pct = tail(latencies)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{attempted} requests, {failed} failed, error_rate = {failed / attempted!r}; "
          f"{len(latencies)} untraced samples, latency_tail_s is their p{tail_pct:.1f}")
    if tracer:
        metrics = tracer.layer_metrics(len(traced_latencies), sum(traced_latencies))
        untraced = statistics.median(latencies)
        overhead = statistics.median(traced_latencies) - untraced
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_share"] = (overhead / untraced, "ratio")
    else:
        print("setup probes: " + " ".join(f"{t:.4f}" for t in setup))
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "latency_p50_s": (statistics.median(latencies), "s"),
            "latency_tail_s": (tail_s, "s"),
            "throughput_rps": (len(latencies) / busy, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "result_rel_error": (statistics.median(accuracy), "ratio"),
        }
    for name, (value, unit) in metrics.items():
        note = "  (printed only)" if name in PRINTED_ONLY else ""
        print(f"  {name:42s} {value!r} {unit}{note}")
    result = {"correct": not pre_problems and failed == 0, "attempted": attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()
                          if name not in PRINTED_ONLY}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
