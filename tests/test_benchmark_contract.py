"""The benchmark's requests run and pass its per-request checks, untraced and
traced.

perfbench/ drives sincstab.cli.main with the argv its workloads generate,
and its tracer wraps named sincstab functions.  A change that drops an
option a workload passes (reconstruct's --window, gram's --seed) or a name
the tracer wraps breaks only benchmark runs; this test catches it in tier-1.
It uses only what perfbench/run.py uses: the workloads' request streams,
each checker's check(), and the tracer's install() and uninstall().  The
dense oracles (check_dense) are left to the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from checks import CHECKERS
from tracing import Tracer
from workloads import WORKLOADS, requests

from sincstab import cli


def run_and_check(workload, request):
    """Run a request's calls through cli.main; return the checker's problems."""
    for argv in request.calls:
        assert cli.main(list(argv)) == 0, argv
    reports = []
    for argv in request.calls:
        with open(argv[argv.index("--out") + 1], encoding="utf-8") as fh:
            reports.append(json.load(fh))
    problems, _ = CHECKERS[workload]().check(request, reports)
    return problems


@pytest.mark.parametrize("workload", WORKLOADS)
def test_first_request_passes_its_check_untraced_and_traced(workload, tmp_path):
    request = next(requests(workload, 1, str(tmp_path)))
    assert run_and_check(workload, request) == []
    tracer = Tracer()
    tracer.install()
    try:
        assert run_and_check(workload, request) == []
    finally:
        tracer.uninstall()
    assert tracer.spans or tracer.counts  # the wrappers saw the request's layers
