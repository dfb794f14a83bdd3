import numpy as np
import pytest

from evseg.events import ImageGeometry, make_packet
from evseg.metrics import per_event_accuracy
from evseg.solver import (
    EPSILON_C,
    ClusterSet,
    SolverConfig,
    build_count,
    initialize_greedy,
    segment,
)
from evseg.variants import (
    FuzzyState,
    MixtureState,
    component_likelihood,
    fuzzy_affinity,
    _column_table,
    fuzzy_e_step,
    fuzzy_m_step,
    mixture_e_step,
    mixture_m_step,
    segment_fuzzy,
    segment_mixture,
)
from evseg.warps import WarpParams, zero_params


def two_cluster_state(pk, thetas, mixing=(0.5, 0.5)):
    clusters = ClusterSet(
        [WarpParams("flow2", np.asarray(t, dtype=float)) for t in thetas],
        np.ones(len(thetas), dtype=bool),
    )
    n = pk.n
    membership = np.full((n, len(thetas)), 1.0 / len(thetas))
    return MixtureState(clusters, membership, np.asarray(mixing, dtype=float))


def test_component_likelihood_floor_and_contrast(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=30)
    cfg = SolverConfig()
    aligned = component_likelihood(pk, WarpParams("flow2", np.array([30.0, 0.0])), cfg)
    off = component_likelihood(pk, WarpParams("flow2", np.array([-40.0, 25.0])), cfg)
    assert (aligned >= EPSILON_C).all()
    # events under their own motion sit on dense pixels of the density
    assert np.median(aligned) > np.median(off)


def test_mixture_e_step_matches_bayes_by_hand(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig()
    state = two_cluster_state(pk, [(30.0, 0.0), (-24.0, 14.0)], mixing=(0.7, 0.3))
    like = np.stack(
        [
            component_likelihood(pk, state.clusters.params[0], cfg),
            component_likelihood(pk, state.clusters.params[1], cfg),
        ],
        axis=1,
    )
    new = mixture_e_step(state, pk, cfg)
    weighted = like * np.array([0.7, 0.3])
    expect = weighted / weighted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(new.membership, expect, atol=1e-12)
    np.testing.assert_allclose(new.mixing, expect.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(new.membership.sum(axis=1), 1.0, atol=1e-9)


def m_step_case(pk, method):
    """Two clusters near the motions of the two-motion drift packet ``pk``,
    with the method's column builder and M-step."""
    state = two_cluster_state(pk, [(26.0, 2.0), (-20.0, 11.0)])
    if method == "fuzzy":
        return FuzzyState(state.clusters, state.membership, 2.0), fuzzy_affinity, fuzzy_m_step
    return state, component_likelihood, mixture_m_step


@pytest.mark.parametrize("method", ["mixture", "fuzzy"])
def test_m_step_table_equals_rebuild_at_new_motions(drift_packet, method):
    # the M-steps keep the columns their line searches built last; those
    # must be the columns at the accepted motions
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig()
    state, column, m_step = m_step_case(pk, method)
    table = _column_table(column, pk, state.clusters, cfg)
    before = table.copy()
    settled = np.zeros(2, dtype=bool)
    new, refreshed = m_step(state, pk, cfg, table, settled)
    moved = [
        not np.array_equal(a.theta, b.theta)
        for a, b in zip(new.clusters.params, state.clusters.params)
    ]
    assert all(moved)
    assert not settled.any()
    expect = _column_table(column, pk, new.clusters, cfg)
    assert refreshed.tobytes() == expect.tobytes()
    np.testing.assert_array_equal(table, before)


@pytest.mark.parametrize("method", ["mixture", "fuzzy"])
def test_m_step_skips_settled_and_marks_failed_clusters(drift_packet, method):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig(step_mu=0.0)     # every line search fails
    state, column, m_step = m_step_case(pk, method)
    table = _column_table(column, pk, state.clusters, cfg)
    settled = np.array([False, True])
    start = build_count()
    new, refreshed = m_step(state, pk, cfg, table, settled)
    # cluster 0 built its four differences and failed; settled cluster 1
    # built nothing
    assert build_count() - start == 4
    np.testing.assert_array_equal(settled, [True, True])
    assert all(a is b for a, b in zip(new.clusters.params, state.clusters.params))
    assert refreshed.tobytes() == table.tobytes()


def test_mixture_e_step_separates_true_clusters(drift_packet):
    pk, labels = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=25, n_times=30)
    state = two_cluster_state(pk, [(30.0, 0.0), (-24.0, 14.0)])
    state = mixture_e_step(state, pk, SolverConfig())
    own = np.where(labels == 1, state.membership[:, 0], state.membership[:, 1])
    assert own.mean() > 0.75


def test_fuzzy_membership_single_example():
    # affinities (2, 1) at b=2 split memberships (2/3, 1/3)
    geom = ImageGeometry(8, 8)
    pk = make_packet([4.0], [4.0], [0.0], [1], geom, t_ref=0.0)
    state = FuzzyState(
        ClusterSet([zero_params("flow2")] * 2, np.ones(2, dtype=bool)),
        np.full((1, 2), 0.5),
        2.0,
    )
    out = fuzzy_e_step(state, pk, SolverConfig(), affinities=np.array([[2.0, 1.0]]))
    np.testing.assert_allclose(out.membership, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_fuzzy_membership_large_b_is_nearly_uniform():
    geom = ImageGeometry(8, 8)
    pk = make_packet([4.0], [4.0], [0.0], [1], geom, t_ref=0.0)
    state = FuzzyState(
        ClusterSet([zero_params("flow2")] * 2, np.ones(2, dtype=bool)),
        np.full((1, 2), 0.5),
        21.0,
    )
    out = fuzzy_e_step(state, pk, SolverConfig(), affinities=np.array([[2.0, 1.0]]))
    assert abs(out.membership[0, 0] - 0.5) < 0.05
    assert out.membership[0, 0] > 0.5


def test_fuzzy_zero_affinity_rows_become_uniform():
    geom = ImageGeometry(8, 8)
    pk = make_packet([4.0], [4.0], [0.0], [1], geom, t_ref=0.0)
    state = FuzzyState(
        ClusterSet([zero_params("flow2")] * 3, np.ones(3, dtype=bool)),
        np.full((1, 3), 1.0 / 3.0),
        2.0,
    )
    out = fuzzy_e_step(state, pk, SolverConfig(), affinities=np.zeros((1, 3)))
    np.testing.assert_allclose(out.membership, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


def test_fuzzy_affinity_is_log1p_of_image(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=30)
    aff = fuzzy_affinity(pk, WarpParams("flow2", np.array([30.0, 0.0])), SolverConfig())
    assert (aff >= 0.0).all()
    # log1p keeps affinities far below raw pixel mass on dense pixels
    assert aff.max() < 50.0


def test_fuzzy_rejects_bad_fuzziness(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=10, n_times=5)
    with pytest.raises(ValueError):
        segment_fuzzy(pk, 2, "flow2", b=1.0)


@pytest.mark.parametrize("b", [np.nan, np.inf])
def test_fuzzy_rejects_non_finite_fuzziness(drift_packet, b):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=10, n_times=5)
    with pytest.raises(ValueError, match="finite"):
        segment_fuzzy(pk, 2, "flow2", b=b)


def test_mixture_run_invariants(balanced_recording):
    res = segment_mixture(balanced_recording.packet, 2, "flow2")
    p = res.associations
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    assert (p >= 0.0).all()
    own = res.diagnostics["own_trace"]
    assert len(own) == res.iterations
    # log-likelihood climbs; tiny E-step dips allowed, never more than 1%
    rel = np.diff(own) / np.maximum(np.abs(own[:-1]), 1e-12)
    assert rel.min() > -0.01
    mixing = res.diagnostics["mixing"]
    assert mixing.shape == (2,)
    assert mixing.sum() == pytest.approx(1.0, abs=1e-9)
    assert res.diagnostics["method"] == "mixture"


def test_fuzzy_run_invariants(balanced_recording):
    res = segment_fuzzy(balanced_recording.packet, 2, "flow2")
    p = res.associations
    np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)
    own = res.diagnostics["own_trace"]
    rel = np.diff(own) / np.maximum(np.abs(own[:-1]), 1e-12)
    assert rel.min() > -0.01
    assert res.diagnostics["method"] == "fuzzy"


def test_variants_track_layered_on_balanced_scene(balanced_recording):
    packet, labels = balanced_recording.packet, balanced_recording.labels
    layered = segment(packet, 2, "flow2")
    acc_layered = per_event_accuracy(
        layered.associations, labels, layered.clusters.alive
    ).accuracy
    for runner in (segment_mixture, segment_fuzzy):
        res = runner(packet, 2, "flow2")
        acc = per_event_accuracy(res.associations, labels, res.clusters.alive).accuracy
        assert acc_layered - acc <= 0.10


def test_variants_reduce_to_single_cluster(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=30)
    for runner in (segment_mixture, segment_fuzzy):
        res = runner(pk, 1, "flow2")
        assert res.associations.shape == (pk.n, 1)
        np.testing.assert_allclose(res.associations, 1.0, atol=1e-12)
        assert abs(res.clusters.params[0].theta[0] - 30.0) < 4.0


def test_variants_accept_shared_init(mini_recording):
    init = initialize_greedy(mini_recording.packet, 2, "flow2")
    a = segment_mixture(mini_recording.packet, 2, "flow2", init=init)
    b = segment_mixture(mini_recording.packet, 2, "flow2", init=init)
    np.testing.assert_array_equal(a.associations, b.associations)
    np.testing.assert_array_equal(init[1], initialize_greedy(mini_recording.packet, 2, "flow2")[1])
