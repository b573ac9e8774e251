"""The benchmark's request streams are seeded, reproducible and free of repeats."""

import itertools

import pytest

from workloads import WORKLOADS, requests

RUN_LENGTH = 400  # more requests than one benchmark run sends


def take(workload, seed, count=RUN_LENGTH):
    return list(itertools.islice(requests(workload, seed, "scratch"), count))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_one_seed_always_yields_the_same_sequence(workload):
    assert take(workload, 7) == take(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_different_seeds_yield_different_requests(workload):
    first, second = take(workload, 7, 50), take(workload, 8, 50)
    assert not set(r.calls for r in first) & set(r.calls for r in second)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_run_contains_two_identical_requests(workload):
    calls = [r.calls for r in take(workload, 11)]
    assert len(set(calls)) == len(calls)


@pytest.mark.parametrize("workload", ["real-pipeline", "export-ingham"])
def test_the_calls_of_a_request_share_one_grid(workload):
    grid_flags = ("--power-law", "--ingham", "--A", "--alpha", "--N",
                  "--extend-nonpositive", "--window")
    for request in take(workload, 3, 20):
        gram, recon = request.calls
        assert [gram[0], recon[0]] == ["gram", "reconstruct"]
        grids = [[(a, argv[i + 1]) for i, a in enumerate(argv) if a in grid_flags]
                 for argv in (gram, recon)]
        assert grids[0] == grids[1]
