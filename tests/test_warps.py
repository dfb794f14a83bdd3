import numpy as np
import pytest

from evseg.events import ImageGeometry, make_packet
from evseg.warps import (
    MODEL_PARAM_COUNT,
    WarpParams,
    displacement_sensitivity,
    numeric_warp_jacobian,
    warp_packet,
    warp_point,
    warp_points,
    zero_params,
)


MODELS = list(MODEL_PARAM_COUNT)


def rotation_jacobian_oracle(x, y, cx, cy, omega, dt):
    """Closed-form derivative of a rotated point with respect to the rate.

    The warp rotates (x, y) about (cx, cy) by angle a = -omega * dt, so
    d/d omega = dR/da * (x - c, y - c) * (-dt).
    """
    a = -omega * dt
    ux, uy = x - cx, y - cy
    dx = dt * (np.sin(a) * ux + np.cos(a) * uy)
    dy = dt * (-np.cos(a) * ux + np.sin(a) * uy)
    return dx, dy


def test_param_counts():
    assert MODEL_PARAM_COUNT == {"flow2": 2, "rotation": 3, "fourdof": 4}
    for m in MODELS:
        assert zero_params(m).theta.shape == (MODEL_PARAM_COUNT[m],)


def test_params_shape_validated():
    with pytest.raises(ValueError):
        WarpParams("flow2", np.zeros(3))
    with pytest.raises(ValueError):
        WarpParams("unknown", np.zeros(2))


def test_flow_simple_arithmetic():
    p = WarpParams("flow2", np.array([20.0, -10.0]))
    wx, wy = warp_point(10.0, 5.0, 0.1, p, t_ref=0.0)
    assert wx == pytest.approx(8.0, abs=1e-15)
    assert wy == pytest.approx(6.0, abs=1e-15)


def test_identity_at_reference_time_all_models():
    rng = np.random.default_rng(1)
    x = rng.uniform(0, 50, 64)
    y = rng.uniform(0, 50, 64)
    t = np.full(64, 0.37)
    for m in MODELS:
        p = WarpParams(m, rng.uniform(-2, 2, MODEL_PARAM_COUNT[m]))
        wx, wy = warp_points(x, y, t, p, t_ref=0.37, center=(25.0, 25.0))
        # recentring models round-trip through (x - c) + c, costing an ulp
        np.testing.assert_allclose(wx, x, atol=1e-12)
        np.testing.assert_allclose(wy, y, atol=1e-12)


def test_rotation_quarter_turn():
    # a point at (1, 0) after a quarter turn at rate pi/2 over dt=1
    p = WarpParams("rotation", np.array([0.0, 0.0, np.pi / 2]))
    wx, wy = warp_point(1.0, 0.0, 1.0, p, t_ref=0.0)
    assert wx == pytest.approx(0.0, abs=1e-12)
    assert wy == pytest.approx(-1.0, abs=1e-12)


def test_rotation_preserves_radius():
    rng = np.random.default_rng(2)
    x = rng.uniform(-20, 20, 200)
    y = rng.uniform(-20, 20, 200)
    t = rng.uniform(-1, 1, 200)
    p = WarpParams("rotation", np.array([3.0, -1.0, 2.2]))
    wx, wy = warp_points(x, y, t, p, t_ref=0.25)
    r0 = np.hypot(x - 3.0, y + 1.0)
    r1 = np.hypot(wx - 3.0, wy + 1.0)
    np.testing.assert_allclose(r1, r0, atol=1e-9)


def test_flow_round_trip():
    # transporting to t_ref and translating forward again restores the input
    rng = np.random.default_rng(3)
    x = rng.uniform(0, 100, 128)
    y = rng.uniform(0, 100, 128)
    t = rng.uniform(0, 1, 128)
    v = np.array([17.0, -4.0])
    wx, wy = warp_points(x, y, t, WarpParams("flow2", v), t_ref=0.4)
    np.testing.assert_allclose(wx + (t - 0.4) * v[0], x, atol=1e-12)
    np.testing.assert_allclose(wy + (t - 0.4) * v[1], y, atol=1e-12)


def test_fourdof_reduces_to_flow_without_spin_or_zoom():
    rng = np.random.default_rng(4)
    x = rng.uniform(0, 60, 50)
    y = rng.uniform(0, 60, 50)
    t = rng.uniform(0, 1, 50)
    four = WarpParams("fourdof", np.array([12.0, -7.0, 0.0, 0.0]))
    flow = WarpParams("flow2", np.array([12.0, -7.0]))
    fx, fy = warp_points(x, y, t, four, t_ref=0.0, center=(30.0, 30.0))
    gx, gy = warp_points(x, y, t, flow, t_ref=0.0)
    np.testing.assert_allclose(fx, gx, atol=1e-12)
    np.testing.assert_allclose(fy, gy, atol=1e-12)


def test_fourdof_zoom_contracts_about_center():
    # pure expansion rate s: a point r from centre maps to r * exp(-s dt)
    c = (10.0, 10.0)
    p = WarpParams("fourdof", np.array([0.0, 0.0, 0.0, 0.5]))
    wx, wy = warp_point(14.0, 10.0, 1.0, p, t_ref=0.0, center=c)
    assert wx == pytest.approx(10.0 + 4.0 * np.exp(-0.5), rel=1e-12)
    assert wy == pytest.approx(10.0, abs=1e-12)


def test_warp_packet_uses_geometry_center():
    geom = ImageGeometry(21, 11)
    pk = make_packet([12.0], [5.0], [1.0], [1], geom, t_ref=0.0)
    p = WarpParams("fourdof", np.array([0.0, 0.0, 0.0, 1.0]))
    wx, wy = warp_packet(pk, p)
    # centre is (10, 5): radius 2 contracts by exp(-1)
    assert wx[0] == pytest.approx(10.0 + 2.0 * np.exp(-1.0), rel=1e-12)
    assert wy[0] == pytest.approx(5.0, abs=1e-12)


def test_flow_jacobian_is_exact():
    # the flow warp is linear in its parameters, so central differences
    # are exact to rounding: d x'/d vx = -(t - t_ref), d y'/d vy likewise
    p = WarpParams("flow2", np.array([5.0, 2.0]))
    jac = numeric_warp_jacobian(7.0, 3.0, 0.8, p, t_ref=0.3)
    dt = 0.5
    np.testing.assert_allclose(jac[0], [-dt, 0.0], atol=1e-10)
    np.testing.assert_allclose(jac[1], [0.0, -dt], atol=1e-10)


def test_rotation_rate_jacobian_matches_analytic_at_zero():
    x, y, cx, cy, dt = 12.0, 7.0, 4.0, 5.0, 0.6
    p = WarpParams("rotation", np.array([cx, cy, 0.0]))
    jac = numeric_warp_jacobian(x, y, dt, p, t_ref=0.0)
    dx, dy = rotation_jacobian_oracle(x, y, cx, cy, 0.0, dt)
    assert jac[2, 0] == pytest.approx(dx, abs=1e-3)
    assert jac[2, 1] == pytest.approx(dy, abs=1e-3)


def test_rotation_jacobian_error_shrinks_quadratically():
    # central differences have O(h^2) truncation error; halving h must
    # shrink the error against the closed form by about 4x
    x, y, cx, cy, om, dt = 9.0, -2.0, 1.0, 3.0, 1.7, 0.9
    p = WarpParams("rotation", np.array([cx, cy, om]))
    dx, dy = rotation_jacobian_oracle(x, y, cx, cy, om, dt)

    def err(h):
        jac = numeric_warp_jacobian(x, y, dt, p, t_ref=0.0, h=h)
        return abs(jac[2, 0] - dx) + abs(jac[2, 1] - dy)

    e1, e2 = err(2e-2), err(1e-2)
    assert 3.5 < e1 / e2 < 4.5


def test_vectorised_warp_matches_scalar_loop_exactly():
    rng = np.random.default_rng(5)
    n = 1000
    x = rng.uniform(0, 200, n)
    y = rng.uniform(0, 150, n)
    t = rng.uniform(0, 0.5, n)
    for m in MODELS:
        p = WarpParams(m, rng.uniform(-3, 3, MODEL_PARAM_COUNT[m]))
        wx, wy = warp_points(x, y, t, p, t_ref=0.2, center=(99.5, 74.5))
        for i in range(0, n, 97):
            sx, sy = warp_point(x[i], y[i], t[i], p, t_ref=0.2, center=(99.5, 74.5))
            assert wx[i] == sx and wy[i] == sy


@pytest.mark.parametrize("model", MODELS)
def test_vectorised_jacobian_matches_scalar_calls_exactly(model):
    # one difference loop serves points and arrays: the array Jacobian, shape
    # (p, 2) + the input shape, is the per-point Jacobians stacked
    rng = np.random.default_rng(8)
    x = rng.uniform(0, 200, (3, 7))
    y = rng.uniform(0, 150, (3, 7))
    t = rng.uniform(0, 0.5, (3, 7))
    p = WarpParams(model, rng.uniform(-3, 3, MODEL_PARAM_COUNT[model]))
    jac = numeric_warp_jacobian(x, y, t, p, 0.2, center=(99.5, 74.5))
    assert jac.shape == (p.param_count, 2, 3, 7)
    stacked = np.stack(
        [
            numeric_warp_jacobian(xi, yi, ti, p, 0.2, center=(99.5, 74.5))
            for xi, yi, ti in zip(x.ravel(), y.ravel(), t.ravel())
        ],
        axis=-1,
    ).reshape(jac.shape)
    assert jac.tobytes() == stacked.tobytes()


def test_displacement_sensitivity_flow_equals_max_dt():
    geom = ImageGeometry(64, 48)
    t = np.array([0.0, 0.05, 0.2])
    pk = make_packet([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], t, [1, 1, 1], geom, t_ref=0.0)
    kappa = displacement_sensitivity(pk, zero_params("flow2"))
    # unit change of vx moves the latest event by its time offset
    np.testing.assert_allclose(kappa, [0.2, 0.2], rtol=1e-6)


def test_displacement_sensitivity_positive_floor():
    geom = ImageGeometry(64, 48)
    pk = make_packet([1.0], [1.0], [0.5], [1], geom, t_ref=0.5)
    kappa = displacement_sensitivity(pk, zero_params("flow2"))
    assert (kappa > 0).all()
