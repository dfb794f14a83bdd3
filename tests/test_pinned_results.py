"""Pinned output bytes of whole solves.

Each test runs a small solve and compares the sha256 of its result's bytes
with a digest taken before: the associations, the alive mask, the
objective trace and each cluster's theta, the fields the benchmark's
``score()`` digests, in that order.  A change that is meant to keep the
numerics (a new memory layout, a reused buffer, a reordered loop) must pass
these unedited; a change that moves the numerics on purpose retakes them
and lists the old and new digests with the accuracy shift.

The digests were taken with numpy 2.4.6 on Python 3.11.7, linked to
OpenBLAS 0.3.31 (the scipy-openblas build, 64-bit integers, DYNAMIC_ARCH,
Haswell kernels) on an x86-64 Xeon.  The blur runs through BLAS ``matmul``,
so another BLAS build or CPU may give other bytes; a mismatch there is a
finding about portability, not by itself a fault.
"""
import hashlib

import numpy as np
import pytest

from evseg.solver import ClusterSet, SolverConfig, initialize_greedy, segment, segment_stream
from evseg.variants import segment_fuzzy, segment_mixture
from evseg.warps import WarpParams


def digest(results) -> str:
    h = hashlib.sha256()
    for r in results:
        for arr in [r.associations, r.clusters.alive, r.objective_trace] + [
            p.theta for p in r.clusters.params
        ]:
            h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


@pytest.fixture(scope="module")
def shared_init(mini_recording):
    return initialize_greedy(mini_recording.packet, 2, "flow2", SolverConfig(max_iters=8))


PINNED_METHODS = {
    "layered": "2e79a189f49707795f93db659464c2bcbb38e8a25741b04398ddb950e8e0f949",
    "mixture": "9d3e7f541b5bbb1cdbb1a4d4455349c1a3721403b520881efc35c8ec282e0271",
    "fuzzy": "d166ef4ae98a3f5b5a56238648cd4c6e8b6f1307a7c4e428eb03c25ecd7e771b",
}


@pytest.mark.parametrize("method", sorted(PINNED_METHODS))
def test_three_methods_from_one_greedy_init(mini_recording, shared_init, method):
    # the compare_methods protocol: one greedy init, a fixed budget
    run = {"layered": segment, "mixture": segment_mixture, "fuzzy": segment_fuzzy}[method]
    result = run(
        mini_recording.packet, 2, "flow2", SolverConfig(max_iters=8),
        init=shared_init, early_stop=False,
    )
    assert digest([result]) == PINNED_METHODS[method]


def test_stream_over_three_windows(mini_recording):
    # one cold window and two warm starts, so the carried-motion check and
    # the carried associations are covered
    packet = mini_recording.packet
    pairs = list(
        segment_stream(
            packet, 2, "flow2", SolverConfig(max_iters=10),
            window_events=packet.n // 2, stride_events=packet.n // 4,
        )
    )
    assert len(pairs) == 3 and all(r is not None for _, r in pairs)
    assert digest([r for _, r in pairs]) == (
        "cba5af66a5c36e07124774ff9b23af037612091d8dbdf83b076780f1702f0128"
    )


def test_greedy_layered_solve_with_deaths(mini_recording):
    # four clusters on a two-object scene: two die, so dead columns pass
    # through the association refresh and the collapse
    result = segment(mini_recording.packet, 4, "flow2")
    assert result.clusters.alive.tolist() == [True, True, False, False]
    assert digest([result]) == (
        "bb522c4458837690880dc8a4dccdfff0ddfb1bd8dd1a0e644269e596c73cb229"
    )


def test_fixed_budget_j6_flow2_without_deaths(mini_recording):
    # the gate-07 protocol: a random flow2 start, uniform associations, no
    # deaths, a fixed budget
    packet = mini_recording.packet
    j = 6
    rng = np.random.default_rng(0)
    params = [WarpParams("flow2", rng.uniform(-60.0, 60.0, 2)) for _ in range(j)]
    init = (ClusterSet(params, np.ones(j, dtype=bool)), np.full((packet.n, j), 1.0 / j))
    config = SolverConfig(max_iters=3, collapse_frac=1e-12)
    result = segment(packet, j, "flow2", config, init=init, early_stop=False)
    assert result.clusters.alive.all()
    assert digest([result]) == (
        "2380252a74fca5253070b1035a027b82a0cbf4a2ca3ac707d5e88cdba90274bc"
    )


def test_fixed_budget_j12_flow2_with_deaths(mini_recording):
    # a wide table: a random flow2 start over greedy init's velocity bound,
    # the default collapse floor, so columns die during the run and the
    # refreshes and collapses see 12 columns with dead ones among them
    packet = mini_recording.packet
    j = 12
    rng = np.random.default_rng(0)
    params = [WarpParams("flow2", rng.uniform(-300.0, 300.0, 2)) for _ in range(j)]
    init = (ClusterSet(params, np.ones(j, dtype=bool)), np.full((packet.n, j), 1.0 / j))
    result = segment(packet, j, "flow2", SolverConfig(max_iters=12), init=init, early_stop=False)
    assert result.clusters.n_alive == 8
    assert digest([result]) == (
        "fe427ba8b6fc0394f211fe6a336702b17a8fb44ed0a0a861a4911f3b754273b1"
    )


def test_fixed_budget_rotation_flow2_and_fourdof(mini_recording):
    # one cluster of each model from a given start
    packet = mini_recording.packet
    params = [
        WarpParams("rotation", np.array([60.0, 45.0, 2.0])),
        WarpParams("flow2", np.array([40.0, 0.0])),
        WarpParams("fourdof", np.array([50.0, 5.0, 0.5, 0.1])),
    ]
    init = (ClusterSet(params, np.ones(3, dtype=bool)), np.full((packet.n, 3), 1.0 / 3))
    result = segment(
        packet, 3, ["rotation", "flow2", "fourdof"], SolverConfig(max_iters=4),
        init=init, early_stop=False,
    )
    assert digest([result]) == (
        "e8bddf4f8f8b2b8e30c777d9552cb51dc2c49ad0b569bf256adeaf7acde6be87"
    )
