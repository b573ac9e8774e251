"""Seeded request streams for the sincstab benchmark.

A request is one or two ``sincstab.cli.main(argv)`` calls that a user would
make back to back; the two calls of one request share a grid.  Every stream
is a pure function of its workload seed, and no stream yields the same
request twice, so a cache spanning calls cannot win by seeing a request
again.  This module imports neither numpy nor sincstab.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

WORKLOADS = ("certify-sweep", "real-pipeline", "complex-offset", "export-ingham")

TABLE_STEP = 0.0025
TABLE_SPAN = 0.45
TABLE_AMPLITUDES = 3
REAL_GRID = ("--alpha", "1", "--N", "1000", "--extend-nonpositive", "--window", "1000")
REAL_ATOMS = 5


@dataclass(frozen=True)
class Request:
    """The argv of each CLI call, plus the seeded choices the checks need.

    ``check_row`` picks the table row that certify-sweep verifies against an
    mpmath evaluation; the other workloads ignore it.
    """

    calls: tuple[tuple[str, ...], ...]
    check_row: int = 0


def _json_out(scratch: str, call: int) -> tuple[str, ...]:
    return ("--format", "json", "--out", f"{scratch}/call{call}.json")


def _gram_seed(rng: random.Random) -> str:
    return str(rng.randrange(2 ** 31))


def _signal(rng: random.Random, atoms: int) -> str:
    """Atoms at distinct even integers plus a fraction near 1/2, with positive
    weights.  The reconstruction's truncation error scales with
    sum_j w_j sin(pi mu_j) / ||f||, which this family keeps within a narrow
    band, so the median error of a run is steady across seeds.  Shifts may be
    negative; the caller passes ``--signal=<spec>`` because argparse reads a
    separate argument starting with '-' as an option."""
    evens = rng.sample(range(-10, 11, 2), atoms)
    return ",".join(f"{m + rng.uniform(0.4, 0.6):.4f}:{rng.uniform(0.5, 1.5):.4f}"
                    for m in evens)


def _certify_sweep(rng: random.Random, scratch: str) -> Request:
    lo = rng.uniform(0.55, 0.56)
    amps = ",".join(f"{rng.uniform(0.001, 0.45):.6f}" for _ in range(TABLE_AMPLITUDES))
    alphas = f"{lo:.6f}:{lo + TABLE_SPAN:.6f}:{TABLE_STEP}"
    rows = round(TABLE_SPAN / TABLE_STEP + 1) * (TABLE_AMPLITUDES + 1)
    argv = ("table", "--alpha", alphas, "--A", amps, "--critical")
    return Request(calls=(argv + _json_out(scratch, 0),), check_row=rng.randrange(rows))


def _real_pipeline(rng: random.Random, scratch: str) -> Request:
    grid = ("--power-law", "--A", f"{rng.uniform(0.15, 0.25):.6f}") + REAL_GRID
    gram = ("gram", "--seed", _gram_seed(rng)) + grid + _json_out(scratch, 0)
    recon = (("reconstruct", f"--signal={_signal(rng, REAL_ATOMS)}") + grid
             + _json_out(scratch, 1))
    return Request(calls=(gram, recon))


def _complex_offset(rng: random.Random, scratch: str) -> Request:
    argv = ("gram", "--uniform-offset", "0.1", "--imag", "0.1", "--N", "100",
            "--seed", _gram_seed(rng))
    return Request(calls=(argv + _json_out(scratch, 0),))


def _export_ingham(rng: random.Random, scratch: str) -> Request:
    grid = ("--ingham", "--N", str(rng.randint(200, 240)))
    gram = (("gram", "--seed", _gram_seed(rng)) + grid
            + ("--dump-matrix", f"{scratch}/matrix.txt") + _json_out(scratch, 0))
    # One atom near the origin, where the Ingham grid's degradation sets the
    # reconstruction error; the error then varies little between requests.
    signal = f"{rng.uniform(0.4, 0.6):.4f}:{rng.uniform(0.5, 1.5):.4f}"
    recon = (("reconstruct", f"--signal={signal}") + grid
             + ("--csv", f"{scratch}/recon.csv") + _json_out(scratch, 1))
    return Request(calls=(gram, recon))


_MAKERS = {
    "certify-sweep": _certify_sweep,
    "real-pipeline": _real_pipeline,
    "complex-offset": _complex_offset,
    "export-ingham": _export_ingham,
}


def requests(workload: str, seed: int, scratch: str) -> Iterator[Request]:
    """Endless stream of distinct requests, determined by (workload, seed).

    ``scratch`` is the directory the requests write their reports and
    exports to.
    """
    make = _MAKERS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seen: set[tuple] = set()
    while True:
        request = make(rng, scratch)
        if request.calls not in seen:
            seen.add(request.calls)
            yield request
