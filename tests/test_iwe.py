import math

import numpy as np
import pytest

from evseg.events import ImageGeometry
from evseg.iwe import (
    Iwe,
    NegativeWeightError,
    accumulate_unweighted,
    accumulate_weighted,
    sample_local,
    smooth,
    variance_contrast,
)


GEOM = ImageGeometry(16, 12)


def gaussian_kernel_oracle(sigma):
    """Direct normalised 1-D kernel truncated at radius ceil(3 sigma)."""
    r = int(np.ceil(3.0 * sigma))
    u = np.arange(-r, r + 1, dtype=np.float64)
    k = np.exp(-0.5 * (u / sigma) ** 2)
    return k / k.sum()


def bilinear_oracle(wx, wy, geometry):
    """Per-event, per-corner bilinear footprint with explicit bounds checks:
    a list of (event, row, column, weight) for every in-sensor corner."""
    out = []
    for k, (x, y) in enumerate(zip(wx, wy)):
        if not (math.isfinite(x) and math.isfinite(y)):
            continue
        x0, y0 = math.floor(x), math.floor(y)
        ax, ay = x - x0, y - y0
        for dx, dy, cw in (
            (0, 0, (1.0 - ax) * (1.0 - ay)),
            (1, 0, ax * (1.0 - ay)),
            (0, 1, (1.0 - ax) * ay),
            (1, 1, ax * ay),
        ):
            c, r = x0 + dx, y0 + dy
            if 0 <= c < geometry.width and 0 <= r < geometry.height:
                out.append((k, r, c, cw))
    return out


def variance_oracle(img):
    """Two-pass population variance, no numpy shortcuts."""
    flat = [float(v) for row in img for v in row]
    mean = sum(flat) / len(flat)
    return sum((v - mean) ** 2 for v in flat) / len(flat)


def test_lattice_deposit():
    iwe = accumulate_weighted([3.0], [4.0], [2.0], GEOM)
    assert iwe.pixels[4, 3] == 2.0
    assert iwe.total_mass == 2.0
    assert np.count_nonzero(iwe.pixels) == 1


def test_half_offset_splits_mass_in_two():
    iwe = accumulate_weighted([2.5], [3.0], [1.0], GEOM)
    assert iwe.pixels[3, 2] == pytest.approx(0.5)
    assert iwe.pixels[3, 3] == pytest.approx(0.5)
    assert iwe.total_mass == pytest.approx(1.0)


def test_quarter_offsets_split_four_ways():
    iwe = accumulate_weighted([2.5], [3.5], [1.0], GEOM)
    for r, c in ((3, 2), (3, 3), (4, 2), (4, 3)):
        assert iwe.pixels[r, c] == pytest.approx(0.25)


def test_partial_mass_at_border():
    # only the in-bounds corner receives its share
    iwe = accumulate_weighted([-0.5], [0.0], [1.0], GEOM)
    assert iwe.pixels[0, 0] == pytest.approx(0.5)
    assert iwe.total_mass == pytest.approx(0.5)
    far = accumulate_weighted([-5.0], [-5.0], [1.0], GEOM)
    assert far.total_mass == 0.0


def test_negative_weights_rejected():
    with pytest.raises(NegativeWeightError):
        accumulate_weighted([1.0], [1.0], [-0.1], GEOM)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_weights_rejected(bad):
    # rejected off the sensor too: a zero corner weight times inf is NaN
    with pytest.raises(ValueError, match="finite"):
        accumulate_weighted([1.0, -9.0], [1.0, -9.0], [1.0, bad], GEOM)


def test_unweighted_equals_unit_weights():
    rng = np.random.default_rng(0)
    wx = rng.uniform(-1, GEOM.width, 300)
    wy = rng.uniform(-1, GEOM.height, 300)
    a = accumulate_unweighted(wx, wy, GEOM)
    b = accumulate_weighted(wx, wy, np.ones(300), GEOM)
    np.testing.assert_array_equal(a.pixels, b.pixels)


def test_accumulation_order_invariant():
    rng = np.random.default_rng(1)
    wx = rng.uniform(0, GEOM.width - 1, 500)
    wy = rng.uniform(0, GEOM.height - 1, 500)
    w = rng.uniform(0, 2, 500)
    perm = rng.permutation(500)
    a = accumulate_weighted(wx, wy, w, GEOM)
    b = accumulate_weighted(wx[perm], wy[perm], w[perm], GEOM)
    np.testing.assert_allclose(b.pixels, a.pixels, atol=1e-9 * max(1.0, a.total_mass))


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError):
        accumulate_weighted([1.0, 2.0], [1.0], [1.0, 1.0], GEOM)


def test_iwe_shape_checked():
    with pytest.raises(ValueError):
        Iwe(np.zeros((5, 5)), GEOM)


def test_smooth_zero_sigma_is_identity():
    iwe = accumulate_weighted([3.0], [4.0], [1.0], GEOM)
    assert smooth(iwe, 0.0) is iwe


def test_smooth_negative_sigma_rejected():
    iwe = accumulate_weighted([3.0], [4.0], [1.0], GEOM)
    with pytest.raises(ValueError):
        smooth(iwe, -1.0)


def test_smooth_impulse_matches_kernel_oracle():
    geom = ImageGeometry(21, 21)
    iwe = accumulate_weighted([10.0], [10.0], [1.0], geom)
    out = smooth(iwe, 1.0)
    k = gaussian_kernel_oracle(1.0)
    expect = np.zeros((21, 21))
    r = len(k) // 2
    expect[10 - r : 10 + r + 1, 10 - r : 10 + r + 1] = np.outer(k, k)
    np.testing.assert_allclose(out.pixels, expect, atol=1e-12)
    assert out.total_mass == pytest.approx(1.0, abs=1e-6)


def test_smooth_leaks_mass_at_border():
    iwe = accumulate_weighted([0.0], [0.0], [1.0], GEOM)
    assert smooth(iwe, 1.5).total_mass < 1.0


def test_variance_trivial_cases():
    assert variance_contrast(Iwe(np.zeros((4, 4)), ImageGeometry(4, 4))) == 0.0
    assert variance_contrast(Iwe(np.full((4, 4), 3.0), ImageGeometry(4, 4))) == 0.0
    two_pixel = np.array([[4.0, 0.0]])
    assert variance_contrast(Iwe(two_pixel, ImageGeometry(2, 1))) == pytest.approx(4.0)


def test_variance_matches_two_pass_oracle():
    rng = np.random.default_rng(2)
    img = rng.uniform(0, 5, (12, 16))
    iwe = Iwe(img, GEOM)
    assert variance_contrast(iwe) == pytest.approx(variance_oracle(img), rel=1e-12)


def test_concentration_raises_variance():
    # same mass on fewer pixels must score sharper
    spread = accumulate_weighted(np.linspace(2, 13, 12), np.full(12, 5.0), np.ones(12), GEOM)
    stacked = accumulate_weighted(np.full(12, 7.0), np.full(12, 5.0), np.ones(12), GEOM)
    assert variance_contrast(stacked) > variance_contrast(spread)


def test_sample_at_nodes_and_midpoint():
    img = np.zeros((12, 16))
    img[5, 7] = 2.0
    img[5, 8] = 4.0
    iwe = Iwe(img, GEOM)
    assert sample_local(iwe, np.array([7.0]), np.array([5.0]))[0] == 2.0
    assert sample_local(iwe, np.array([7.5]), np.array([5.0]))[0] == pytest.approx(3.0)
    assert sample_local(iwe, np.array([-1.2]), np.array([5.0]))[0] == 0.0
    assert sample_local(iwe, np.array([7.0]), np.array([40.0]))[0] == 0.0


def test_splat_and_sample_are_adjoint():
    # <splat(w), f> == <w, sample(f)> for any field f and weights w
    rng = np.random.default_rng(3)
    n = 400
    wx = rng.uniform(-1, GEOM.width, n)
    wy = rng.uniform(-1, GEOM.height, n)
    w = rng.uniform(0, 3, n)
    field = rng.normal(size=(GEOM.height, GEOM.width))
    lhs = float((accumulate_weighted(wx, wy, w, GEOM).pixels * field).sum())
    rhs = float((w * sample_local(Iwe(field, GEOM), wx, wy)).sum())
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_splat_and_sample_match_per_corner_oracle():
    # positions over [-2, w+1] x [-2, h+1] reach all four border strips and
    # beyond; NaN and infinite positions must deposit and read nothing
    rng = np.random.default_rng(4)
    n = 600
    wx = rng.uniform(-2, GEOM.width + 1, n)
    wy = rng.uniform(-2, GEOM.height + 1, n)
    wx[:40] = np.round(wx[:40])  # lattice points and exact border lines
    wy[40:80] = np.round(wy[40:80])
    wx[80:84] = [np.nan, np.inf, -np.inf, 1e300]
    wy[84:88] = [np.nan, np.inf, -np.inf, -1e300]
    w = rng.uniform(0, 3, n)
    field = rng.normal(size=(GEOM.height, GEOM.width))
    expect_img = np.zeros((GEOM.height, GEOM.width))
    expect_read = np.zeros(n)
    for k, r, c, cw in bilinear_oracle(wx, wy, GEOM):
        expect_img[r, c] += w[k] * cw
        expect_read[k] += cw * field[r, c]
    with np.errstate(invalid="ignore"):  # casting NaN and inf to int warns
        img = accumulate_weighted(wx, wy, w, GEOM).pixels
        read = sample_local(Iwe(field, GEOM), wx, wy)
    np.testing.assert_allclose(img, expect_img, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(read, expect_read, rtol=1e-12, atol=1e-12)
    assert np.all(read[80:88] == 0.0)
    # the border strips do receive mass, so the check above covers them
    assert expect_img[:, -1].sum() > 0 and expect_img[-1, :].sum() > 0
    assert expect_img[:, 0].sum() > 0 and expect_img[0, :].sum() > 0
