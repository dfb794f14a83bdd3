import numpy as np
import pytest

from evseg.iwe import sample_local
from evseg.metrics import per_event_accuracy
from evseg.solver import (
    EPSILON_C,
    ClusterSet,
    SolverConfig,
    _alternate,
    build_count,
    cluster_image,
    initialize_greedy,
    objective,
    segment,
)
from evseg.variants import (
    component_likelihood,
    fuzzy_affinity,
    _column_table,
    _log_likelihood,
    fuzzy_e_step,
    fuzzy_m_step,
    mixture_e_step,
    mixture_m_step,
    segment_fuzzy,
    segment_mixture,
)
from evseg.warps import WarpParams, warp_packet


def flow2_clusters(thetas):
    return ClusterSet(
        [WarpParams("flow2", np.asarray(t, dtype=float)) for t in thetas],
        np.ones(len(thetas), dtype=bool),
    )


def test_component_likelihood_floor_and_contrast(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0)], n_sources=25, n_times=30)
    cfg = SolverConfig()
    aligned = component_likelihood(pk, WarpParams("flow2", np.array([30.0, 0.0])), cfg)
    off = component_likelihood(pk, WarpParams("flow2", np.array([-40.0, 25.0])), cfg)
    assert (aligned >= EPSILON_C).all()
    # events under their own motion sit on dense pixels of the density
    assert np.median(aligned) > np.median(off)


@pytest.mark.parametrize(
    "params",
    [
        WarpParams("flow2", np.array([30.0, 0.0])),
        # these two carry some events off the sensor
        WarpParams("rotation", np.array([20.0, 20.0, 2.5])),
        WarpParams("fourdof", np.array([-80.0, 14.0, 0.5, 0.3])),
    ],
    ids=lambda p: p.model,
)
@pytest.mark.parametrize("column", [component_likelihood, fuzzy_affinity])
def test_columns_equal_a_build_read_out_by_sample_local(drift_packet, params, column):
    # both columns read their build out where it deposited each event, from
    # the deposit's footprint: the bytes of sample_local at those positions
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig()
    img = cluster_image(pk, params, np.ones(pk.n), cfg)
    values = sample_local(img, *warp_packet(pk, params))
    if column is component_likelihood:
        values /= img.total_mass
        np.maximum(values, EPSILON_C, out=values)
    else:
        np.log1p(np.maximum(values, 0.0, out=values), out=values)
    assert column(pk, params, cfg).tobytes() == values.tobytes()
    out = np.empty(pk.n)
    assert column(pk, params, cfg, out=out) is out
    assert out.tobytes() == values.tobytes()


def test_mixture_e_step_matches_bayes_by_hand(drift_packet):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig()
    clusters = flow2_clusters([(30.0, 0.0), (-24.0, 14.0)])
    like = np.stack(
        [
            component_likelihood(pk, clusters.params[0], cfg),
            component_likelihood(pk, clusters.params[1], cfg),
        ],
        axis=1,
    )
    table = _column_table(component_likelihood, pk, clusters, cfg)
    membership, mixing = mixture_e_step(table, np.array([0.7, 0.3]), clusters.alive)
    weighted = like * np.array([0.7, 0.3])
    expect = weighted / weighted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(membership, expect, atol=1e-12)
    np.testing.assert_allclose(mixing, expect.mean(axis=0), atol=1e-12)
    np.testing.assert_allclose(membership.sum(axis=1), 1.0, atol=1e-9)


def m_step_case(pk, method):
    """Two clusters near the motions of the two-motion drift packet ``pk``,
    with the method's column builder and its M-step at even memberships and
    mixing weights."""
    clusters = flow2_clusters([(26.0, 2.0), (-20.0, 11.0)])
    if method == "fuzzy":
        membership = np.full((pk.n, 2), 0.5)
        return clusters, fuzzy_affinity, lambda *a: fuzzy_m_step(*a, membership, 2.0)
    return clusters, component_likelihood, lambda *a: mixture_m_step(*a, np.array([0.5, 0.5]))


@pytest.mark.parametrize("method", ["mixture", "fuzzy"])
def test_m_step_table_equals_rebuild_at_new_motions(drift_packet, method):
    # the M-steps keep the columns their line searches built last; those
    # must be the columns at the accepted motions
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig()
    clusters, column, m_step = m_step_case(pk, method)
    table = _column_table(column, pk, clusters, cfg)
    before = table.copy()
    settled = np.zeros(2, dtype=bool)
    new, refreshed = m_step(pk, clusters, table, cfg, settled)
    moved = [not np.array_equal(a.theta, b.theta) for a, b in zip(new.params, clusters.params)]
    assert all(moved)
    assert not settled.any()
    expect = _column_table(column, pk, new, cfg)
    assert refreshed.tobytes() == expect.tobytes()
    np.testing.assert_array_equal(table, before)


@pytest.mark.parametrize("method", ["mixture", "fuzzy"])
def test_m_step_skips_settled_and_marks_failed_clusters(drift_packet, method):
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig(step_mu=0.0)     # every line search fails
    clusters, column, m_step = m_step_case(pk, method)
    table = _column_table(column, pk, clusters, cfg)
    settled = np.array([False, True])
    start = build_count()
    new, refreshed = m_step(pk, clusters, table, cfg, settled)
    # cluster 0 built its four differences and failed; settled cluster 1
    # built nothing
    assert build_count() - start == 4
    np.testing.assert_array_equal(settled, [True, True])
    assert all(a is b for a, b in zip(new.params, clusters.params))
    assert refreshed.tobytes() == table.tobytes()


@pytest.mark.parametrize("n_clusters, dead", [(1, None), (2, None), (2, 1), (3, None), (3, 0)])
def test_log_likelihood_with_a_column_equals_it_with_the_column_in_the_table(n_clusters, dead):
    # the M-step scores a candidate column in place of column j rather than
    # in a copy of the table; both add the same columns in the same order
    rng = np.random.default_rng(n_clusters)
    table = np.asfortranarray(rng.random((257, n_clusters)) + 1e-3)
    mixing = rng.random(n_clusters) + 0.1
    if dead is not None:
        table[:, dead] = 0.0
        mixing[dead] = 0.0
    mixing /= mixing.sum()
    for j in range(n_clusters):
        for column in (rng.random(257), np.zeros(257)):
            trial = np.copy(table)
            trial[:, j] = column
            want = _log_likelihood(trial, mixing)
            assert _log_likelihood(table, mixing, j, column).hex() == want.hex()


def test_mixture_e_step_separates_true_clusters(drift_packet):
    pk, labels = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=25, n_times=30)
    clusters = flow2_clusters([(30.0, 0.0), (-24.0, 14.0)])
    table = _column_table(component_likelihood, pk, clusters, SolverConfig())
    membership, _ = mixture_e_step(table, np.array([0.5, 0.5]), clusters.alive)
    own = np.where(labels == 1, membership[:, 0], membership[:, 1])
    assert own.mean() > 0.75


def test_fuzzy_membership_single_example():
    # affinities (2, 1) at b=2 split memberships (2/3, 1/3)
    out = fuzzy_e_step(np.array([[2.0, 1.0]]), 2.0, np.ones(2, dtype=bool))
    np.testing.assert_allclose(out, [[2.0 / 3.0, 1.0 / 3.0]], atol=1e-12)


def test_fuzzy_membership_large_b_is_nearly_uniform():
    out = fuzzy_e_step(np.array([[2.0, 1.0]]), 21.0, np.ones(2, dtype=bool))
    assert abs(out[0, 0] - 0.5) < 0.05
    assert out[0, 0] > 0.5


def test_fuzzy_zero_affinity_rows_become_uniform():
    out = fuzzy_e_step(np.zeros((1, 3)), 2.0, np.ones(3, dtype=bool))
    np.testing.assert_allclose(out, [[1 / 3, 1 / 3, 1 / 3]], atol=1e-12)


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


def test_fuzzy_fixed_point_keeps_the_bytes_of_running_every_iteration(drift_packet):
    # once every live cluster is settled and the affinity table repeats, the
    # fuzzy solve hands back the previous iteration's result; the same
    # alternation run without that shortcut must give the same bytes
    pk, _ = drift_packet([(30.0, 0.0), (-24.0, 14.0)], n_sources=20, n_times=15)
    cfg = SolverConfig(max_iters=12)
    init = initialize_greedy(pk, 2, "flow2", cfg)
    table = None

    def step(packet, clusters, membership, config, settled):
        nonlocal table
        if table is None:
            table = _column_table(fuzzy_affinity, packet, clusters, config)
        membership = fuzzy_e_step(table, 2.0, clusters.alive)
        clusters, table = fuzzy_m_step(packet, clusters, table, config, settled, membership, 2.0)
        weighted = np.power(membership, 2.0, order="C")
        own = float(np.multiply(weighted, table, out=weighted).sum())
        return clusters, membership, objective(packet, clusters, membership, config), own

    results = []
    for run in (
        lambda: _alternate(pk, 2, "flow2", cfg, init, False, "fuzzy", step),
        lambda: segment_fuzzy(pk, 2, "flow2", cfg, init=init, early_stop=False),
    ):
        start = build_count()
        result = run()
        results.append((result, build_count() - start))
    (expect, full_builds), (got, builds) = results
    assert builds < full_builds, "no iteration was repeated, so nothing was tested"
    for a, b in (
        (expect.associations, got.associations),
        (expect.objective_trace, got.objective_trace),
        (expect.diagnostics["own_trace"], got.diagnostics["own_trace"]),
        (expect.diagnostics["settled"], got.diagnostics["settled"]),
    ):
        assert a.tobytes() == b.tobytes()
    assert [p.theta.tobytes() for p in expect.clusters.params] == [
        p.theta.tobytes() for p in got.clusters.params
    ]
