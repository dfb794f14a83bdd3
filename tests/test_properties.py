"""Invariants checked on generated inputs: association tables keep rows that
sum to one and dead columns at zero through every row normalisation, the
window count agrees with the windows actually yielded, and a settled cluster
of the layered solver never moves or steps again."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evseg.events import ImageGeometry, count_windows, make_packet, sliding_windows
import evseg.solver as solver
from evseg.solver import ClusterSet, SolverConfig, apply_collapse, segment
from evseg.variants import FuzzyState, MixtureState, fuzzy_e_step, mixture_e_step
from evseg.warps import WarpParams, zero_params

from conftest import build_drift_packet

ROW_TOL = 1e-12


@st.composite
def tables(draw):
    """A small non-negative (events, clusters) table with exact zeros mixed
    in, and an alive mask with at least one live cluster."""
    n = draw(st.integers(1, 12))
    j = draw(st.integers(1, 5))
    values = st.one_of(st.just(0.0), st.floats(1e-6, 10.0))
    table = draw(arrays(np.float64, (n, j), elements=values, fill=st.nothing()))
    alive = draw(arrays(np.bool_, j))
    alive[draw(st.integers(0, j - 1))] = True
    return table, alive


def clusters_of(alive):
    return ClusterSet([zero_params("flow2") for _ in alive], alive.copy())


def assert_rows_normalised(rows, alive):
    assert np.all(np.abs(rows.sum(axis=1) - 1.0) <= ROW_TOL)
    assert (rows >= 0.0).all()
    assert not rows[:, ~alive].any()


# death thresholds up to five times a cluster's fair share, so that any number
# of clusters dies, down to the one the collapse always keeps
@given(tables(), st.floats(0.01, 5.0))
def test_apply_collapse_keeps_rows_normalised(drawn, collapse_frac):
    table, alive = drawn
    # a valid association table: live columns only, every row summing to one
    assoc = np.where(alive, table, 0.0)
    assoc[assoc.sum(axis=1) == 0.0] = np.where(alive, 1.0, 0.0)
    assoc /= assoc.sum(axis=1, keepdims=True)
    clusters, out = apply_collapse(
        clusters_of(alive), assoc, SolverConfig(collapse_frac=collapse_frac)
    )
    assert clusters.alive.any()
    assert not (clusters.alive & ~alive).any()
    assert_rows_normalised(out, clusters.alive)


@given(tables())
def test_mixture_e_step_keeps_rows_normalised(drawn):
    table, alive = drawn
    likelihoods = np.where(alive, table, 0.0)
    mixing = np.where(alive, 1.0, 0.0) / alive.sum()
    state = MixtureState(clusters_of(alive), np.zeros_like(table), mixing)
    # the likelihood table is given, so the packet is never read
    out = mixture_e_step(state, None, SolverConfig(), likelihoods)
    assert_rows_normalised(out.membership, alive)
    assert abs(out.mixing.sum() - 1.0) <= ROW_TOL


@given(tables(), st.floats(1.5, 4.0))
def test_fuzzy_e_step_keeps_rows_normalised(drawn, b):
    # dead columns hold affinities too: the step must ignore them
    table, alive = drawn
    state = FuzzyState(clusters_of(alive), np.zeros_like(table), b)
    out = fuzzy_e_step(state, None, SolverConfig(), table)
    assert_rows_normalised(out.membership, alive)


@given(
    st.integers(0, 400),
    st.integers(1, 80),
    st.one_of(st.none(), st.integers(1, 40)),
)
def test_count_windows_matches_sliding_windows(n, window, stride):
    t = np.arange(n, dtype=np.float64)
    packet = make_packet(t % 7, t % 5, t, np.ones(n), ImageGeometry(8, 8))
    windows = list(sliding_windows(packet, window, stride))
    assert count_windows(n, window, stride) == len(windows)
    assert all(w.n == window for w in windows)


velocities = st.tuples(st.floats(-40.0, 40.0), st.floats(-25.0, 25.0))


@given(
    st.lists(velocities, min_size=1, max_size=2),
    st.lists(velocities, min_size=2, max_size=3),
    st.integers(0, 1000),
)
def test_settled_cluster_never_moves_or_steps_again(truth, starts, seed):
    packet, _ = build_drift_packet(truth, n_sources=12, n_times=10, seed=seed)
    j = len(starts)
    init = (
        ClusterSet([WarpParams("flow2", np.array(v)) for v in starts], np.ones(j, dtype=bool)),
        np.full((packet.n, j), 1.0 / j),
    )
    budget = 20
    config = SolverConfig(max_iters=budget)
    # line searches per iteration and cluster, the cluster found by the
    # identity of the params the ascent hands to the line search
    calls = []
    ascend, line_search = solver.ascend_motion, solver._line_search_step

    def counting_ascend(packet, clusters, *args, **kwargs):
        calls.append([clusters.params, []])
        return ascend(packet, clusters, *args, **kwargs)

    def counting_line_search(evaluate, params, *args, **kwargs):
        owners, stepped = calls[-1]
        stepped.append(next(k for k, prm in enumerate(owners) if prm is params))
        return line_search(evaluate, params, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver, "ascend_motion", counting_ascend)
        mp.setattr(solver, "_line_search_step", counting_line_search)
        full = segment(packet, j, "flow2", config, init=init, early_stop=False)
    assert len(calls) == budget
    for c, k in enumerate(full.diagnostics["settled"]):
        if k < 0:
            continue
        assert 1 <= k <= budget
        # it settled in the iteration of its last line search
        assert c in calls[k - 1][1]
        assert not any(c in stepped for _, stepped in calls[k:])
        short = segment(packet, j, "flow2", SolverConfig(max_iters=int(k)), init=init,
                        early_stop=False)
        assert short.clusters.params[c].theta.tobytes() == full.clusters.params[c].theta.tobytes()
