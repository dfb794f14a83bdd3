import math
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

import evseg.iwe as iwe_module
import evseg.solver as solver_module
from evseg.events import ImageGeometry, make_packet
from evseg.iwe import (
    Iwe,
    NegativeWeightError,
    accumulate_unweighted,
    accumulate_weighted,
    hold_footprints,
    sample_local,
    smooth,
    variance_contrast,
)
from evseg.solver import SolverConfig, cluster_contrast, cluster_image
from evseg.warps import WarpParams, warp_packet, warp_points

from conftest import in_fresh_thread


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


@pytest.mark.parametrize("height, width", [(1, 1), (5, 3), (21, 21), (45, 60), (181, 239)])
@pytest.mark.parametrize("sigma", [0.75, 1.0, 2.3, 9.0])
def test_scratch_smooth_matches_gaussian_filter_to_rounding(height, width, sigma):
    # the banded products cut their edge bands to the image, which must act
    # as gaussian_filter's zero padding also on images smaller than a block
    # or than the kernel, and whatever the layout of the input; a fresh blur
    # is a copy of the same output.  scratch is looped here rather than
    # parametrized so that the test keeps its ids
    from scipy import ndimage

    rng = np.random.default_rng(height * width)
    geom = ImageGeometry(width, height)
    # one image per layout and kind of result, blurred in turn by this
    # thread's one blur
    for scratch in (True, False):
        for layout in (np.asarray, lambda a: np.pad(a, 2)[2:-2, 2:-2], np.asfortranarray):
            pixels = rng.uniform(0, 3, (height, width))
            expect = ndimage.gaussian_filter(
                pixels, sigma=sigma, mode="constant", cval=0.0, radius=int(np.ceil(3 * sigma))
            )
            out = smooth(Iwe(layout(pixels), geom), sigma, scratch=scratch).pixels
            np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14 * expect.max())


def test_scratch_smooth_reads_each_new_deposit():
    # builds blur the same deposit grid every time, through windows made
    # once per thread: the windows must see each new deposit.  The reference
    # is scipy's, since a fresh smooth would give the blur another source
    from scipy import ndimage

    geom = ImageGeometry(40, 30)
    rng = np.random.default_rng(5)
    for _ in range(3):
        wx, wy = rng.uniform(-1, 41, 500), rng.uniform(-1, 31, 500)
        w = rng.uniform(0, 2, 500)
        expect = ndimage.gaussian_filter(
            accumulate_weighted(wx, wy, w, geom).pixels, sigma=1.0, mode="constant", radius=3
        )
        deposit = accumulate_weighted(wx, wy, w, geom, scratch=True)
        out = smooth(deposit, 1.0, scratch=True).pixels
        np.testing.assert_allclose(out, expect, rtol=0, atol=1e-14 * expect.max())


def _thread_buffers():
    """Every array in this thread's kernel scratch."""
    s = iwe_module._scratch
    out = [s.work, s.deviations]
    out += [slot.buffer for slot in s.slots]
    out += [flat for flat, _ in s.grids.values()]
    for blur in s.blurs.values():
        out += [blur.mid, blur.result]
    return out


@pytest.mark.parametrize("kernel", ["deposit", "blur"])
def test_fresh_result_is_an_unshared_copy_of_the_scratch_result(kernel):
    # one kernel per job: a fresh deposit or blur has the bytes of the
    # scratch one, owns its memory, and keeps its bytes through later calls
    geom = ImageGeometry(40, 30)
    rng = np.random.default_rng(11)

    def draw():
        return rng.uniform(-1, 41, 500), rng.uniform(-1, 31, 500), rng.uniform(0, 2, 500)

    def run(wx, wy, w, scratch):
        if kernel == "deposit":
            return accumulate_weighted(wx, wy, w, geom, scratch=scratch).pixels
        deposit = accumulate_weighted(wx, wy, w, geom, scratch=True)
        return smooth(deposit, 1.0, scratch=scratch).pixels

    args = draw()
    fresh = run(*args, scratch=False)
    kept = fresh.tobytes()
    assert run(*args, scratch=True).tobytes() == kept
    assert fresh.flags.owndata
    assert not any(np.shares_memory(fresh, buf) for buf in _thread_buffers())
    for scratch in (False, True, False, True):
        run(*draw(), scratch=scratch)
    assert fresh.tobytes() == kept


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
    # beyond; NaN and infinite positions must deposit and read nothing, and
    # the edges of the clamp into the padding ring must keep their footprint
    rng = np.random.default_rng(4)
    n = 600
    wx = rng.uniform(-2, GEOM.width + 1, n)
    wy = rng.uniform(-2, GEOM.height + 1, n)
    wx[:40] = np.round(wx[:40])  # lattice points and exact border lines
    wy[40:80] = np.round(wy[40:80])
    wx[80:84] = [np.nan, np.inf, -np.inf, 1e300]
    wy[84:88] = [np.nan, np.inf, -np.inf, -1e300]
    width, height = GEOM.width, GEOM.height
    wx[88:95] = [-1.5, -1.0, width - 1, width, width + 0.5, 1e300, -1e300]
    wy[95:102] = [-1.5, -1.0, height - 1, height, height + 0.5, 1e300, -1e300]
    edges = [-1.5, -1.0, -0.25, height - 1, height - 0.75, height, height + 0.5]
    wy[102:109] = wx[102:109] = edges
    w = rng.uniform(0, 3, n)
    field = rng.normal(size=(GEOM.height, GEOM.width))
    expect_img = np.zeros((GEOM.height, GEOM.width))
    expect_read = np.zeros(n)
    for k, r, c, cw in bilinear_oracle(wx, wy, GEOM):
        expect_img[r, c] += w[k] * cw
        expect_read[k] += cw * field[r, c]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # NaN and inf positions must not warn
        img = accumulate_weighted(wx, wy, w, GEOM).pixels
        read = sample_local(Iwe(field, GEOM), wx, wy)
    np.testing.assert_allclose(img, expect_img, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(read, expect_read, rtol=1e-12, atol=1e-12)
    assert np.all(read[80:88] == 0.0)
    # all but w - 1 (h - 1) put their whole weight off the sensor
    assert np.all(np.delete(read[88:102], [2, 9]) == 0.0)
    # the border strips do receive mass, so the check above covers them
    assert expect_img[:, -1].sum() > 0 and expect_img[-1, :].sum() > 0
    assert expect_img[:, 0].sum() > 0 and expect_img[0, :].sum() > 0


def test_sample_at_a_row_and_a_column_reads_their_broadcast_positions():
    # a row of x and a column of y give the bytes of the flat positions they
    # broadcast to, off-grid, NaN and infinite entries included
    rng = np.random.default_rng(12)
    field = Iwe(rng.normal(size=(GEOM.height, GEOM.width)), GEOM)
    xs = np.concatenate([rng.uniform(-3, GEOM.width + 2, 15), [np.nan, np.inf, -np.inf, -1.0, 15.0, 3.0]])
    ys = np.concatenate([rng.uniform(-3, GEOM.height + 2, 11), [np.nan, -np.inf, 1e300, 11.0, -0.5]])
    row, col = xs[None, :], ys[:, None]
    flat_x, flat_y = (a.ravel().copy() for a in np.broadcast_arrays(row, col))
    expect = sample_local(field, flat_x, flat_y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = sample_local(field, row, col)
        swapped = sample_local(field, xs[:, None], ys[None, :])
    assert got.shape == (ys.size, xs.size)
    assert got.tobytes() == expect.tobytes()
    assert swapped.tobytes() == sample_local(
        field, *(a.ravel().copy() for a in np.broadcast_arrays(xs[:, None], ys[None, :]))
    ).tobytes()
    # into a caller's array of the broadcast shape, here a strided one
    out = np.full((ys.size, 2 * xs.size), 5.0)[:, ::2]
    assert sample_local(field, row, col, out=out) is out
    assert out.tobytes() == expect.tobytes()
    with pytest.raises(ValueError, match="broadcast"):
        sample_local(field, xs, ys)
    with pytest.raises(ValueError, match="out must be"):
        sample_local(field, row, col, out=np.empty(expect.size))


def test_keyed_read_after_a_weighted_deposit_reads_as_a_fresh_read():
    # a deposit multiplies its weights outside the footprint, so a read with
    # the deposit's key, which takes the footprint from its slot and reads
    # no positions, has the bytes of a read that computes it afresh
    rng = np.random.default_rng(8)
    n = 5_000
    geom = ImageGeometry(60, 45)
    wx = rng.uniform(-3, geom.width + 2, n)
    wy = rng.uniform(-3, geom.height + 2, n)
    wx[:3] = [np.nan, np.inf, -np.inf]
    field = Iwe(rng.normal(size=(geom.height, geom.width)), geom)
    expect = sample_local(field, wx, wy).tobytes()
    unread = np.full(n, np.nan), np.full(n, np.nan)

    class Owner:
        pass

    def run():
        owner = Owner()
        key = (owner, "deposit")
        accumulate_weighted(wx, wy, rng.uniform(0, 2, n), geom, scratch=True, key=key)
        got = [sample_local(field, *unread, key=key).tobytes()]
        out = np.empty(n)
        assert sample_local(field, *unread, out=out, key=key) is out
        got.append(out.tobytes())
        # a held footprint stays through keyless calls, which take the spare
        hold_footprints([key])
        accumulate_weighted(wx[:10], wy[:10], np.full(10, 3.0), geom)
        sample_local(field, wx[:10], wy[:10])
        accumulate_weighted(*unread, rng.uniform(0, 2, n), geom, key=key)
        got.append(sample_local(field, *unread, key=key).tobytes())
        return got

    assert in_fresh_thread(run) == [expect] * 3


def test_slots_follow_the_held_keys():
    # a held key's footprint keeps a slot of its own, every other footprint
    # goes into the first slot holding no held key (a new one when there is
    # none), and a hold frees the slots beyond one per held key and one
    # spare, wherever the held ones lie
    geom = ImageGeometry(20, 15)
    rng = np.random.default_rng(3)
    wx, wy = rng.uniform(0, 20, 50), rng.uniform(0, 15, 50)

    class Owner:
        pass

    def run():
        owner = Owner()
        keys = [(owner, tag) for tag in "abcd"]
        a, b, c, d = keys
        slots = iwe_module._scratch.slots
        seen = []

        def build(*named):
            for key in named:
                accumulate_weighted(wx, wy, np.ones(50), geom, key=key)
            seen.append(("".join(k[1] for k in keys if iwe_module.has_footprint(k)), len(slots)))

        build(None)
        build(a, b)
        hold_footprints([a, b])
        build(a, c)
        build(d)
        hold_footprints([d])
        build()
        build(c)
        hold_footprints([])
        build()
        return seen

    assert in_fresh_thread(run) == [
        ("", 1), ("b", 1), ("abc", 3), ("abd", 3), ("bd", 2), ("cd", 2), ("d", 1)
    ]


def test_scratch_reuse_across_sizes_and_geometries():
    # 40k, 3k and 40k positions on the full sensor, the coarse-scan grid and
    # a pattern patch, called in turn: each result must equal the bytes of a
    # fresh call, and results kept from earlier calls must not change
    rng = np.random.default_rng(5)
    flow = WarpParams("flow2", np.array([60.0, -50.0]))
    cases = []
    for n, geom in (
        (40_000, ImageGeometry(240, 180)),
        (3_000, ImageGeometry(60, 45)),
        (40_000, ImageGeometry(209, 78)),
    ):
        x = rng.uniform(-2, geom.width + 1, n)
        y = rng.uniform(-2, geom.height + 1, n)
        x[:3] = [np.nan, np.inf, -np.inf]
        t = rng.uniform(0.0, 0.12, n)
        w = rng.uniform(0, 2, n)
        field = Iwe(rng.normal(size=(geom.height, geom.width)), geom)
        cases.append((geom, x, y, t, w, field))

    def run(case):
        geom, x, y, t, w, field = case
        wx, wy = warp_points(x, y, t, flow, 0.06)
        return [wx, wy, accumulate_weighted(wx, wy, w, geom).pixels, sample_local(field, wx, wy)]

    def as_bytes(outs):
        return [a.tobytes() for a in outs]

    fresh = [as_bytes(in_fresh_thread(lambda c=c: run(c))) for c in cases]
    kept = [run(c) for c in cases]
    for k in (1, 0, 2, 1, 0):
        assert as_bytes(run(cases[k])) == fresh[k]
    assert [as_bytes(outs) for outs in kept] == fresh


def test_concurrent_threads_keep_their_own_scratch():
    # more threads than cores, switching often: a scratch shared between
    # threads would mix their footprints, deposit grids, blur buffers or
    # warped positions
    geom = ImageGeometry(120, 90)
    flow = WarpParams("flow2", np.array([40.0, -30.0]))
    config = SolverConfig()
    inputs = []
    for seed in range(4):
        rng = np.random.default_rng(10 + seed)
        n = 20_000 + 1_000 * seed
        wx = rng.uniform(-2, geom.width + 1, n)
        wy = rng.uniform(-2, geom.height + 1, n)
        t = rng.uniform(0.0, 0.1, n)
        packet = make_packet(wx, wy, t, np.ones(n), geom, t_ref=0.05)
        inputs.append((wx, wy, rng.uniform(0, 2, n), packet))

    def run(k):
        wx, wy, w, packet = inputs[k]
        img = accumulate_weighted(wx, wy, w, geom)
        out = [img.pixels, sample_local(img, wx, wy)]
        # this thread's packet and the next thread's, at one motion: each
        # build and read must use the footprint of the packet it names
        for _, _, weights, pk in (inputs[k], inputs[(k + 1) % len(inputs)]):
            built = cluster_image(pk, flow, weights, config)
            out += [built.pixels, solver_module._sample_warped(built, pk, flow)]
            bx, by = warp_packet(pk, flow)
            out += [bx, by, sample_local(built, bx, by), solver_module._sample_warped(built, pk, flow)]
        return b"".join(a.tobytes() for a in out)

    expect = [run(k) for k in range(len(inputs))]
    mismatches = []

    def worker(k):
        for _ in range(10):
            if run(k) != expect[k]:
                mismatches.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(4)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert mismatches == []


def test_steady_state_builds_do_not_page_fault(standard_recording):
    # a build hands no grid- or position-sized buffer back to the allocator,
    # so once its scratch has grown it pages nothing in; builds that freed
    # their buffers made 230-376 minor faults each in a faulting process.
    # A solve at J = 2 holds two motions' footprints: builds cycled through
    # those two and two unheld motions find the held footprints in their
    # slots and compute every other into the one spare slot
    resource = pytest.importorskip("resource")
    pk = standard_recording.packet
    config = SolverConfig()

    def run():
        for n in (100, pk.n):
            packet = make_packet(
                pk.x[:n], pk.y[:n], pk.t[:n], pk.polarity[:n], pk.geometry, t_ref=pk.t_ref
            )
            weights = np.ones(n)
            motions = [WarpParams("flow2", np.array([50.0 + k, 0.0])) for k in range(4)]
            keys = [solver_module._footprint_key(packet, p) for p in motions]
            hold_footprints(keys[:2])

            def build(i):
                cluster_contrast(packet, motions[i % 4], weights, config)

            for i in range(20):
                build(i)
            assert len(iwe_module._scratch.slots) == 3
            assert [iwe_module.has_footprint(k) for k in keys] == [True, True, False, True]
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            for i in range(50):
                build(i)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            assert faults < 50, f"{faults} minor faults in 50 builds of {n} events"
            # whether freed buffers fault depends on the allocator's state,
            # so check the cause too: nothing grid-sized (345,600 bytes) is
            # allocated
            peak = _peak_bytes(lambda: [build(i) for i in range(4)])
            assert peak < 200_000

    in_fresh_thread(run)


def _peak_bytes(fn) -> int:
    fn()  # warm-up: the first call grows this thread's scratch
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_kernels_allocate_no_position_sized_temporaries():
    # with position-sized temporaries each kernel call below peaks at about
    # 5.5 MB, and the flow2 warp at four position-sized arrays
    rng = np.random.default_rng(6)
    n = 40_000
    geom = ImageGeometry(240, 180)
    wx = rng.uniform(-2, geom.width + 1, n)
    wy = rng.uniform(-2, geom.height + 1, n)
    w = rng.uniform(0, 2, n)
    t = rng.uniform(0.0, 0.12, n)
    img = accumulate_weighted(wx, wy, w, geom)
    assert _peak_bytes(lambda: accumulate_weighted(wx, wy, w, geom)) < 1_500_000
    assert _peak_bytes(lambda: sample_local(img, wx, wy)) < 2_000_000
    flow = WarpParams("flow2", np.array([60.0, -50.0]))
    assert _peak_bytes(lambda: warp_points(wx, wy, t, flow, 0.06)) <= 3 * wx.nbytes + 16_384
