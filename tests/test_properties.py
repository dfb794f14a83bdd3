"""Invariants checked on generated inputs: association tables keep rows that
sum to one and dead columns at zero through every row normalisation and
association refresh, and give the same bytes in C and in column-major
order; splatting and sampling are adjoint; the variance score gives the
bytes of ``np.var``; every warp is the identity at its reference time; the
window count agrees with the windows actually yielded, a settled cluster
of any back-end never moves or steps again, a layered solve that stops
because everything settled holds the motions and liveness of the same
solve run to its full budget, the solver's hard labels equal
``hard_assignments``, swapping the two initial
clusters of a layered solve swaps its outputs, every finite packet
either segments into a finite, normalised result or raises
``DegenerateInitError``, a layered solve's objective never falls by
more than 1% in one iteration, zero-weight events change no byte of an
image build or of greedy init's coarse score, and builds and reads whose
footprint comes from a slot give the bytes of footprints computed afresh,
for any packet, never another packet's."""

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evseg.events import ImageGeometry, count_windows, make_packet, sliding_windows
import evseg.iwe as iwe
from evseg.iwe import (
    Iwe,
    accumulate_weighted,
    hold_footprints,
    sample_local,
    variance_contrast,
)
from evseg.metrics import hard_assignments
import evseg.solver as solver
import evseg.variants as variants
from evseg.solver import (
    ClusterSet,
    DegenerateInitError,
    SolverConfig,
    _column_sums,
    _normalize_rows,
    apply_collapse,
    cluster_image,
    segment,
    update_associations,
)
from evseg.variants import fuzzy_e_step, mixture_e_step, segment_fuzzy, segment_mixture
from evseg.warps import MODEL_PARAM_COUNT, WarpParams, warp_packet, warp_points, zero_params

from conftest import build_drift_packet, in_fresh_thread

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


def valid_associations(table, alive):
    """``table`` made a valid association table: live columns only, every
    row summing to one."""
    assoc = np.where(alive, table, 0.0)
    assoc[assoc.sum(axis=1) == 0.0] = np.where(alive, 1.0, 0.0)
    assoc /= assoc.sum(axis=1, keepdims=True)
    return assoc


# death thresholds up to five times a cluster's fair share, so that any number
# of clusters dies, down to the one the collapse always keeps
@given(tables(), st.floats(0.01, 5.0))
def test_apply_collapse_keeps_rows_normalised(drawn, collapse_frac):
    table, alive = drawn
    assoc = valid_associations(table, alive)
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
    membership, mixing = mixture_e_step(likelihoods, mixing, alive)
    assert_rows_normalised(membership, alive)
    assert abs(mixing.sum() - 1.0) <= ROW_TOL


@given(tables(), st.floats(1.5, 4.0))
def test_fuzzy_e_step_keeps_rows_normalised(drawn, b):
    # dead columns hold affinities too: the step must ignore them
    table, alive = drawn
    assert_rows_normalised(fuzzy_e_step(table, b, alive), alive)


@st.composite
def refreshes(draw):
    """A small packet on a small sensor, flow2 clusters with an alive mask, a
    valid association table, and which live clusters have their image
    passed in."""
    table, alive = draw(tables())
    n, j = table.shape
    width, height = draw(st.integers(2, 12)), draw(st.integers(2, 12))

    def floats(size, lo, hi):
        return draw(arrays(np.float64, size, elements=st.floats(lo, hi)))

    packet = make_packet(
        floats(n, 0.0, width - 1),
        floats(n, 0.0, height - 1),
        np.sort(floats(n, 0.0, 0.1)),
        np.ones(n),
        ImageGeometry(width, height),
    )
    params = [WarpParams("flow2", floats(2, -60.0, 60.0)) for _ in range(j)]
    reuse = draw(arrays(np.bool_, j))
    return packet, ClusterSet(params, alive), valid_associations(table, alive), reuse


def copied(image):
    return Iwe(image.pixels.copy(), image.geometry)


@given(refreshes(), st.sampled_from([0.0, 0.5, 1.0]))
def test_update_associations_keeps_rows_normalised_and_reuses_images(drawn, sigma):
    packet, clusters, assoc, reuse = drawn
    config = SolverConfig(sigma=sigma)
    rebuilt = update_associations(packet, clusters, assoc, config)
    assert_rows_normalised(rebuilt, clusters.alive)
    # a build's image lives in scratch until the next build: keep copies
    images = {
        j: copied(cluster_image(packet, clusters.params[j], assoc[:, j], config))
        for j in np.flatnonzero(clusters.alive & reuse)
    }
    reused = update_associations(packet, clusters, assoc, config, images=images)
    assert reused.tobytes() == rebuilt.tobytes()


@pytest.mark.parametrize("sigma", [0.0, 1.0])
@pytest.mark.parametrize(
    "velocities, alive",
    [
        (((30.0, 0.0), (-24.0, 14.0)), (True, True)),
        (((30.0, 0.0), (-24.0, 14.0), (4.0, -22.0)), (True, True, True)),
        (((30.0, 0.0), (-24.0, 14.0), (4.0, -22.0)), (True, False, True)),
    ],
)
def test_update_associations_reuses_every_live_image(drift_packet, velocities, alive, sigma):
    # the generated refreshes above rarely pass two or more live images:
    # here every live cluster's image is passed, the clusters move apart
    # and the rows are far from uniform, so a mixed-up image shows
    packet, labels = drift_packet(velocities, n_sources=20, n_times=12)
    alive = np.array(alive)
    clusters = ClusterSet([WarpParams("flow2", np.array(v)) for v in velocities], alive)
    rng = np.random.default_rng(3)
    table = rng.uniform(0.05, 0.3, (packet.n, alive.size))
    table[np.arange(packet.n), labels - 1] += 1.0
    assoc = valid_associations(table, alive)
    config = SolverConfig(sigma=sigma)
    rebuilt = update_associations(packet, clusters, assoc, config)
    live = np.flatnonzero(alive)
    assert np.ptp(rebuilt[:, live], axis=1).mean() > 0.2
    images = {
        j: copied(cluster_image(packet, clusters.params[j], assoc[:, j], config))
        for j in live
    }
    reused = update_associations(packet, clusters, assoc, config, images=images)
    assert reused.tobytes() == rebuilt.tobytes()
    mixed = dict(images)
    mixed[live[1]] = images[live[0]]
    wrong = update_associations(packet, clusters, assoc, config, images=mixed)
    assert np.abs(wrong - rebuilt).max() > 0.1


LAYOUTS = (np.ascontiguousarray, np.asfortranarray)


def assert_layout_free(run, table):
    """``run`` gives the same arrays, compared as C-ordered bytes, on a
    C-ordered and on a column-major copy of ``table``."""
    c, f = ([np.ascontiguousarray(a).tobytes() for a in run(layout(table))] for layout in LAYOUTS)
    assert c == f


# at most 5 clusters, so a sum over clusters adds in sequence in either
# order; up to 12 events, so a column sum over events of 8 or more would
# switch to numpy's pairwise summation if it read a contiguous column
@given(tables(), st.floats(0.01, 5.0), st.floats(1.5, 4.0))
def test_table_steps_give_the_same_bytes_in_either_layout(drawn, collapse_frac, b):
    table, alive = drawn
    assoc = valid_associations(table, alive)
    likelihoods = np.where(alive, table, 0.0)
    mixing = np.where(alive, 1.0, 0.0) / alive.sum()
    config = SolverConfig(collapse_frac=collapse_frac)

    def collapse(t):
        clusters, out = apply_collapse(clusters_of(alive), t, config)
        return clusters.alive, out

    def mixture(t):
        return mixture_e_step(t, mixing, alive)

    def fuzzy(t):
        return (fuzzy_e_step(t, b, alive),)

    assert_layout_free(lambda t: (_normalize_rows(t, alive),), table)
    assert_layout_free(collapse, assoc)
    assert_layout_free(mixture, likelihoods)
    assert_layout_free(fuzzy, table)


@given(tables())
def test_column_sums_add_rows_in_order_in_either_layout(drawn):
    # numpy's sum over the rows of a C-ordered table is the reference
    table, _ = drawn
    reference = np.ascontiguousarray(table).sum(axis=0).tobytes()
    for layout in LAYOUTS:
        assert _column_sums(layout(table)).tobytes() == reference


@given(refreshes(), st.sampled_from([0.0, 1.0]))
def test_update_associations_gives_the_same_bytes_in_either_layout(drawn, sigma):
    packet, clusters, assoc, _ = drawn
    config = SolverConfig(sigma=sigma)
    assert_layout_free(lambda t: (update_associations(packet, clusters, t, config),), assoc)


@st.composite
def deposits(draw):
    """A small sensor, a signed image on it, and weighted positions that
    reach past every border and far off the sensor."""
    width, height = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    n = draw(st.integers(1, 30))
    near_x = st.floats(-3.0, width + 2.0)
    near_y = st.floats(-3.0, height + 2.0)
    far = st.floats(-1e6, 1e6)
    wx = draw(arrays(np.float64, n, elements=st.one_of(near_x, far)))
    wy = draw(arrays(np.float64, n, elements=st.one_of(near_y, far)))
    weights = draw(arrays(np.float64, n, elements=st.floats(0.0, 10.0)))
    pixels = draw(arrays(np.float64, (height, width), elements=st.floats(-10.0, 10.0)))
    return ImageGeometry(width, height), pixels, wx, wy, weights


@given(deposits())
def test_splat_and_sample_are_adjoint_on_generated_positions(drawn):
    geometry, pixels, wx, wy, weights = drawn
    image = Iwe(pixels, geometry)
    read = float((weights * sample_local(image, wx, wy)).sum())
    deposited = float((pixels * accumulate_weighted(wx, wy, weights, geometry).pixels).sum())
    # relative to the sum of the terms' magnitudes: signed pixels may cancel
    scale = float((weights * sample_local(Iwe(np.abs(pixels), geometry), wx, wy)).sum())
    assert abs(read - deposited) <= 1e-9 * scale


@st.composite
def images(draw):
    """An image with exact zeros mixed in, as its own array or as the
    interior of a zero-padded one (the layout of the kernels' grids)."""
    height, width = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    values = st.one_of(st.just(0.0), st.floats(-1e3, 1e3))
    pixels = draw(arrays(np.float64, (height, width), elements=values))
    if draw(st.booleans()):
        padded = np.zeros((height + 4, width + 4))
        padded[2:-2, 2:-2] = pixels
        pixels = padded[2:-2, 2:-2]
    return Iwe(pixels, ImageGeometry(width, height))


@given(images())
def test_variance_contrast_gives_the_bytes_of_np_var(image):
    expect = np.var(image.pixels)
    assert np.float64(variance_contrast(image)).tobytes() == expect.tobytes()


@given(st.sampled_from(sorted(MODEL_PARAM_COUNT)), st.data())
def test_every_warp_is_the_identity_at_the_reference_time(model, data):
    def floats(size, bound):
        return data.draw(arrays(np.float64, size, elements=st.floats(-bound, bound)))

    n = data.draw(st.integers(1, 20))
    x, y = floats(n, 500.0), floats(n, 500.0)
    t_ref = data.draw(st.floats(-10.0, 10.0))
    center = tuple(floats(2, 500.0))
    params = WarpParams(model, floats(MODEL_PARAM_COUNT[model], 500.0))
    wx, wy = warp_points(x, y, np.full(n, t_ref), params, t_ref, center)
    # recentring models round-trip through (x - c) + c, costing an ulp
    np.testing.assert_allclose(wx, x, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(wy, y, rtol=0.0, atol=1e-12)


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

# each back-end and the module and name of its per-iteration motion step;
# every motion step takes the clusters as its second argument
MOTION_STEPS = {
    "layered": (segment, solver, "ascend_motion"),
    "mixture": (segment_mixture, variants, "mixture_m_step"),
    "fuzzy": (segment_fuzzy, variants, "fuzzy_m_step"),
}


@pytest.mark.parametrize("method", list(MOTION_STEPS))
@given(
    st.lists(velocities, min_size=1, max_size=2),
    st.lists(velocities, min_size=2, max_size=3),
    st.integers(0, 1000),
)
def test_settled_cluster_never_moves_or_steps_again(method, truth, starts, seed):
    run, module, step_name = MOTION_STEPS[method]
    packet, _ = build_drift_packet(truth, n_sources=12, n_times=10, seed=seed)
    j = len(starts)
    init = (
        ClusterSet([WarpParams("flow2", np.array(v)) for v in starts], np.ones(j, dtype=bool)),
        np.full((packet.n, j), 1.0 / j),
    )
    budget = 20
    config = SolverConfig(max_iters=budget)
    # line searches per iteration and cluster, the cluster found by the
    # identity of the params the motion step hands to the line search
    calls = []
    motion_step, line_search = getattr(module, step_name), solver._line_search_step

    def counting_step(*args, **kwargs):
        calls.append([args[1].params, []])
        return motion_step(*args, **kwargs)

    def counting_line_search(evaluate, params, *args, **kwargs):
        owners, stepped = calls[-1]
        stepped.append(next(k for k, prm in enumerate(owners) if prm is params))
        return line_search(evaluate, params, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, step_name, counting_step)
        mp.setattr(solver, "_line_search_step", counting_line_search)
        full = run(packet, j, "flow2", config, init=init, early_stop=False)
    settled_at = full.diagnostics["settled"]
    # one motion step per iteration; a fuzzy solve makes none from the
    # iteration after its last cluster settles, which repeats the one before
    repeats = method == "fuzzy" and (settled_at > 0).all()
    assert len(calls) == (settled_at.max() if repeats else budget)
    for c, k in enumerate(settled_at):
        if k < 0:
            continue
        assert 1 <= k <= budget
        # it settled in the iteration of its last line search
        assert c in calls[k - 1][1]
        assert not any(c in stepped for _, stepped in calls[k:])
        short = run(packet, j, "flow2", SolverConfig(max_iters=int(k)), init=init,
                    early_stop=False)
        assert short.clusters.params[c].theta.tobytes() == full.clusters.params[c].theta.tobytes()


@given(
    st.lists(velocities, min_size=1, max_size=2),
    st.lists(st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)), min_size=2, max_size=2),
    st.lists(velocities, max_size=1),
    st.integers(0, 1000),
)
def test_settled_stop_changes_no_motion(truth, offsets, extra, seed):
    # starts near the truth (plus perhaps one stray cluster) settle within a
    # few iterations, so the settled rule ends about a quarter of these runs
    packet, _ = build_drift_packet(truth, n_sources=12, n_times=10, seed=seed)
    starts = [np.add(v, d) for v, d in zip(truth, offsets)] + [np.array(v) for v in extra]
    j = len(starts)
    init = (
        ClusterSet([WarpParams("flow2", v) for v in starts], np.ones(j, dtype=bool)),
        np.full((packet.n, j), 1.0 / j),
    )
    config = SolverConfig(max_iters=20)
    early = segment(packet, j, "flow2", config, init=init)
    assume(early.diagnostics["stop"] == "settled")
    assert early.converged
    full = segment(packet, j, "flow2", config, init=init, early_stop=False)
    assert full.diagnostics["stop"] == "budget" and full.iterations == config.max_iters
    assert [p.theta.tobytes() for p in early.clusters.params] == [
        p.theta.tobytes() for p in full.clusters.params
    ]
    assert early.clusters.alive.tobytes() == full.clusters.alive.tobytes()


@given(tables(), st.booleans())
def test_hard_labels_match_hard_assignments(drawn, fortran):
    # exact zeros among the drawn values give ties, which go to the lowest index
    table, _ = drawn
    if fortran:
        table = np.asfortranarray(table)
    np.testing.assert_array_equal(solver._hard_labels(table), hard_assignments(table))


# J=2 and the layered back-end only: a sum of two floats is the same in
# either order, but a sum over three or more clusters depends on their order,
# the mixture's M-step updates clusters in index order, and the fuzzy
# back-end's own objective sums its table in memory order
@given(
    st.lists(velocities, min_size=1, max_size=2),
    st.lists(velocities, min_size=2, max_size=2, unique=True),
    st.integers(0, 1000),
)
def test_swapping_the_two_initial_clusters_swaps_every_layered_output(truth, starts, seed):
    packet, _ = build_drift_packet(truth, n_sources=12, n_times=10, seed=seed)
    share = np.random.default_rng(seed).uniform(0.1, 0.9, packet.n)
    assoc = np.column_stack([share, 1.0 - share])
    params = [WarpParams("flow2", np.array(v)) for v in starts]
    config = SolverConfig(max_iters=8)
    alive = np.ones(2, dtype=bool)
    ab = segment(packet, 2, "flow2", config, init=(ClusterSet(params, alive), assoc))
    ba = segment(
        packet, 2, "flow2", config,
        init=(ClusterSet(params[::-1], alive), np.ascontiguousarray(assoc[:, ::-1])),
    )
    assert [p.theta.tobytes() for p in ba.clusters.params] == [
        p.theta.tobytes() for p in ab.clusters.params[::-1]
    ]
    assert ba.clusters.alive.tobytes() == ab.clusters.alive[::-1].tobytes()
    assert ba.associations.tobytes() == np.ascontiguousarray(ab.associations[:, ::-1]).tobytes()
    assert ba.objective_trace.tobytes() == ab.objective_trace.tobytes()


@st.composite
def small_packets(draw):
    """A small drift packet of one or two motions (either may stand still),
    as drawn, on integer coordinates, or with every event at one time."""
    truth = draw(st.lists(st.one_of(st.just((0.0, 0.0)), velocities), min_size=1, max_size=2))
    packet, _ = build_drift_packet(
        truth, n_sources=12, n_times=10, seed=draw(st.integers(0, 1000))
    )
    x, y, t, t_ref = packet.x, packet.y, packet.t, packet.t_ref
    kind = draw(st.sampled_from(["drift", "integral", "one_time"]))
    if kind == "integral":
        x, y = np.round(x), np.round(y)
    elif kind == "one_time":
        t = np.full_like(t, t[0])
        t_ref = None  # the packet's own time
    return make_packet(x, y, t, packet.polarity, packet.geometry, t_ref=t_ref)


@pytest.mark.parametrize("model", list(MODEL_PARAM_COUNT))
@given(small_packets(), st.integers(1, 3), st.integers(1, 3))
def test_every_packet_segments_or_raises_degenerate(model, packet, j, max_iters):
    try:
        result = segment(packet, j, model, SolverConfig(max_iters=max_iters))
    except DegenerateInitError:
        return
    assoc = result.associations
    assert np.isfinite(assoc).all() and np.isfinite(result.objective_trace).all()
    assert all(np.isfinite(p.theta).all() for p in result.clusters.params)
    assert np.all(np.abs(assoc.sum(axis=1) - 1.0) <= 1e-9)
    assert not assoc[:, ~result.clusters.alive].any()


@st.composite
def moving_packets(draw):
    """A small drift packet of one to three motions, as drawn or on integer
    coordinates."""
    truth = draw(st.lists(velocities, min_size=1, max_size=3))
    packet, _ = build_drift_packet(
        truth, n_sources=12, n_times=10, seed=draw(st.integers(0, 1000))
    )
    if draw(st.booleans()):
        packet = make_packet(np.round(packet.x), np.round(packet.y), packet.t,
                             packet.polarity, packet.geometry, t_ref=packet.t_ref)
    return packet


@given(
    moving_packets(),
    st.integers(1, 3),
    st.one_of(st.none(), st.lists(velocities, min_size=3, max_size=3)),
    st.integers(0, 1000),
)
def test_objective_falls_at_most_one_percent_per_iteration(packet, j, starts, seed):
    # greedy init when no starts are drawn, else the drawn motions and a
    # random association table
    init = None
    if starts is not None:
        params = [WarpParams("flow2", np.array(v)) for v in starts[:j]]
        table = np.random.default_rng(seed).dirichlet(np.ones(j), packet.n)
        init = (ClusterSet(params, np.ones(j, dtype=bool)), table)
    try:
        result = segment(packet, j, "flow2", SolverConfig(max_iters=8), init=init,
                         early_stop=False)
    except DegenerateInitError:
        return
    trace = result.objective_trace
    assert np.all(trace[1:] >= trace[:-1] - 0.01 * np.abs(trace[:-1]))


def params_for(model, velocity, spin):
    """A motion of the given model from a drawn velocity and spin (rad/s):
    rotation turns about a point near the drift packet's sources, fourdof
    also zooms at a quarter of its spin."""
    vx, vy = velocity
    if model == "flow2":
        return WarpParams(model, np.array([vx, vy]))
    if model == "rotation":
        return WarpParams(model, np.array([42.0 + vx / 4, 35.0 + vy / 4, spin]))
    return WarpParams(model, np.array([vx, vy, spin, spin / 4]))


@st.composite
def zero_weight_events(draw):
    """A weighted drift packet, and the same packet with zero-weight events
    put among its rows: on the sensor, far off it and at NaN."""
    truth = draw(st.lists(velocities, min_size=1, max_size=2))
    packet, _ = build_drift_packet(
        truth, n_sources=10, n_times=8, seed=draw(st.integers(0, 1000))
    )
    weights = draw(
        arrays(np.float64, packet.n, elements=st.one_of(st.just(1.0), st.floats(1e-3, 2.0)))
    )
    kinds = draw(st.lists(st.sampled_from(["on", "off", "nan"]), min_size=1, max_size=12))
    x, y = [], []
    for kind in kinds:
        if kind == "on":
            x.append(draw(st.floats(0.0, 95.0)))
            y.append(draw(st.floats(0.0, 71.0)))
        elif kind == "off":
            x.append(draw(st.floats(-1e4, -5.0)))
            y.append(draw(st.floats(80.0, 1e4)))
        else:
            x.append(np.nan)
            y.append(draw(st.one_of(st.just(np.nan), st.floats(0.0, 71.0))))
    k = len(kinds)
    rows = draw(arrays(np.int64, k, elements=st.integers(0, packet.n)))
    t = draw(arrays(np.float64, k, elements=st.floats(0.0, 0.5)))

    def put(a, extra):
        return np.insert(a, rows, extra)

    padded = make_packet(
        put(packet.x, x), put(packet.y, y), put(packet.t, t),
        put(packet.polarity, np.ones(k)), packet.geometry, t_ref=packet.t_ref,
    )
    return packet, weights, padded, put(weights, np.zeros(k))


@pytest.mark.parametrize("model", sorted(MODEL_PARAM_COUNT))
@given(zero_weight_events(), velocities, st.floats(-2.0, 2.0))
def test_zero_weight_events_change_no_build_byte(model, drawn, velocity, spin):
    # what lets greedy init deposit only the events its residual weights: a
    # zero-weight event adds +0.0 to pixels that are never negative, and the
    # deposit adds the other events in their order.  Under 6,000 events, so
    # the coarse scan's subsample takes every row
    packet, weights, padded, padded_weights = drawn
    assert padded.n < 2 * solver.INIT_SCAN_EVENTS
    params = params_for(model, velocity, spin)
    config = SolverConfig()
    img = cluster_image(packet, params, weights, config)
    expect = img.pixels.tobytes()
    img = cluster_image(padded, params, padded_weights, config)
    assert img.pixels.tobytes() == expect
    coarse = solver._coarse_eval_factory(packet, weights)(params)
    padded_coarse = solver._coarse_eval_factory(padded, padded_weights)(params)
    assert np.float64(padded_coarse).tobytes() == np.float64(coarse).tobytes()


@st.composite
def slot_sequences(draw):
    """A small packet with lattice or fractional coordinates, some events off
    the sensor; two to four motions, non-finite ones among them; and a run
    of holds of a few of those motions, and of builds and reads at one, each
    build with unit weights or weights that may be zero."""
    geometry = ImageGeometry(24, 18)
    n = draw(st.integers(1, 30))
    x = draw(arrays(np.float64, n, elements=st.floats(-4.0, 28.0)))
    y = draw(arrays(np.float64, n, elements=st.floats(-4.0, 22.0)))
    if draw(st.booleans()):
        x, y = np.round(x), np.round(y)
    t = np.sort(draw(arrays(np.float64, n, elements=st.floats(0.0, 0.1))))
    packet = make_packet(x, y, t, np.ones(n), geometry, t_ref=float(t[n // 2]))
    weights = [
        np.ones(n),
        draw(arrays(np.float64, n, elements=st.one_of(st.just(0.0), st.floats(0.0, 3.0)))),
    ]
    value = st.one_of(st.floats(-300.0, 300.0), st.sampled_from([np.nan, np.inf, -np.inf]))
    motions = []
    for _ in range(draw(st.integers(2, 4))):
        model = draw(st.sampled_from(sorted(MODEL_PARAM_COUNT)))
        theta = draw(arrays(np.float64, MODEL_PARAM_COUNT[model], elements=value))
        motions.append(WarpParams(model, theta))
    index = st.integers(0, len(motions) - 1)
    use = st.tuples(st.sampled_from(["build", "read"]), st.tuples(index, st.integers(0, 1)))
    hold = st.tuples(st.just("hold"), st.lists(index, max_size=3))
    step = st.one_of(use, use, hold)
    return packet, weights, motions, draw(st.lists(step, min_size=4, max_size=20))


@given(slot_sequences())
def test_footprint_slots_give_the_bytes_of_fresh_footprints(drawn):
    # builds and reads named by (packet, motion) take their footprint from
    # a slot whenever one holds it.  Over drawn holds, each must give the
    # bytes of a build or read whose footprint is computed afresh from the
    # warped positions, and a keyed read right after a build computes none;
    # the thread never has more slots than one per held motion plus the
    # spare, and a held motion's footprint, once in a slot, stays there and
    # is not computed again while it is held
    packet, weights, motions, steps = drawn
    geometry = packet.geometry
    field = Iwe(np.random.default_rng(packet.n).normal(size=(18, 24)), geometry)
    keys = [solver._footprint_key(packet, m) for m in motions]
    with np.errstate(invalid="ignore", over="ignore"):
        warped = [warp_packet(packet, m) for m in motions]
        expect_build = {
            (m, k): accumulate_weighted(*warped[m], weights[k], geometry).pixels.tobytes()
            for m in range(len(motions))
            for k in range(2)
        }
        expect_read = [sample_local(field, *xy).tobytes() for xy in warped]
    computed = []
    footprint = iwe._footprint

    def counted(*args):
        computed.append(None)
        footprint(*args)

    def run():
        held, kept = set(), set()   # held tags; those of them with a footprint
        with np.errstate(invalid="ignore", over="ignore"):
            for kind, arg in steps:
                if kind == "hold":
                    held = {keys[m][1] for m in arg}
                    kept = {key[1] for key in keys if key[1] in held and iwe.has_footprint(key)}
                    hold_footprints([keys[m] for m in arg])
                    assert all(iwe.has_footprint(key) for key in keys if key[1] in kept)
                    continue
                m, k = arg
                tag = keys[m][1]
                before = len(computed)
                if kind == "read":
                    got = solver._sample_warped(field, packet, motions[m])
                    assert got.tobytes() == expect_read[m]
                else:
                    key, wx, wy = solver._warped(packet, motions[m])
                    img = accumulate_weighted(wx, wy, weights[k], geometry, key=key)
                    assert img.pixels.tobytes() == expect_build[m, k]
                    after_build = len(computed)
                    got = solver._sample_warped(field, packet, motions[m])
                    assert got.tobytes() == expect_read[m]
                    assert len(computed) == after_build
                if tag in kept:
                    assert len(computed) == before
                elif tag in held:
                    kept.add(tag)
                assert len(iwe._scratch.slots) <= len(held) + 1
                assert all(iwe.has_footprint(key) for key in keys if key[1] in kept)

    iwe._footprint = counted
    try:
        in_fresh_thread(run)
    finally:
        iwe._footprint = footprint


def test_a_new_packet_never_gets_a_dropped_packets_footprint():
    # a packet made after another is dropped often takes the dropped one's
    # id(); the footprints that packet left in the slots, held ones
    # included, must never serve the new one
    geometry = ImageGeometry(24, 18)
    params = WarpParams("flow2", np.array([30.0, -20.0]))
    rng = np.random.default_rng(31)
    field = Iwe(rng.normal(size=(18, 24)), geometry)
    config = SolverConfig(sigma=0.0)
    ids = set()
    for i in range(40):
        t = np.sort(rng.uniform(0.0, 0.1, 30))
        packet = make_packet(
            rng.uniform(-2, 26, 30), rng.uniform(-2, 20, 30), t, np.ones(30), geometry
        )
        ids.add(id(packet))
        # every other packet's footprint is held, as a solve holds its own
        hold_footprints([solver._footprint_key(packet, params)] if i % 2 else [])
        # keyed first, while the dropped packet's footprints are in the
        # slots; the slot-free references after
        built = cluster_image(packet, params, np.ones(30), config).pixels.tobytes()
        read = solver._sample_warped(field, packet, params).tobytes()
        wx, wy = warp_packet(packet, params)
        assert built == accumulate_weighted(wx, wy, np.ones(30), geometry).pixels.tobytes()
        assert read == sample_local(field, wx, wy).tobytes()
        del packet
    hold_footprints(())
    assert len(ids) < 40, "no packet took a dropped packet's id, so nothing was tested"
