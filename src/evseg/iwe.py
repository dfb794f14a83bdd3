"""Images of warped events: accumulation, smoothing, contrast, sampling.

A warped-event image is a per-pixel sum of event mass after transport to
the reference time.  Sharpness of that image (its per-pixel variance) is
the score every solver in this package climbs.

Mass deposit uses bilinear splatting onto the four neighbouring pixel
centres; sampling uses the matching bilinear interpolation.  Both take each
position's footprint from one helper, :func:`_footprint`, which makes
deposit and read-out adjoint to one another.  A deposit of unit weights
leaves its footprint intact in scratch, and :func:`sample_deposited` reads
an image out at that deposit's positions from it, without computing the
footprint a second time.  The footprint indexes the sensor grid padded by
a ring of ``RING`` pixels: a position is clamped into the ring first, so
one that lands off the sensor (NaN and infinite ones included) puts all
four corners on padding.  Events landing outside the sensor contribute
only the in-bounds fraction of their mass; sampling outside returns zero.

Every image build would otherwise allocate, and free, about eight
grid-sized or position-sized arrays, and freeing them lets the allocator
hand their pages back to the system, so the next build page-faults them all
in again.  So the kernels work in per-thread scratch (``threading.local``):
footprint rows that grow to the largest footprint seen, padded grids kept
per image shape, and blurs kept per image shape and sigma.

There is one deposit and one blur.  The deposit scatters every corner into
this thread's deposit grid; the blur computes ``gaussian_filter``'s
weighted sums as banded matrix products (see :class:`_BandedBlur`), a few
BLAS calls in place of a scalar loop over every pixel, and agrees with
``gaussian_filter`` to rounding (a few ulp), not to the byte.  What each
function hands back:

* by default, fresh arrays: ``accumulate_weighted`` and ``smooth`` copy
  what the kernel left in scratch, and ``sample_local`` fills a new array
  unless given ``out``;
* with ``scratch=True``, the scratch itself: ``accumulate_weighted`` the
  deposit grid and ``smooth`` the output of the blur kept for that image
  shape and sigma.  A scratch view lasts until the thread's next call of
  the same function for the same shape (and sigma), fresh or scratch.

``variance_contrast`` works in scratch and returns a float.
"""
from __future__ import annotations

import threading
from dataclasses import dataclass

import numpy as np

from .events import ImageGeometry

RING = 2    # padding pixels around every grid a footprint indexes


class NegativeWeightError(ValueError):
    """Raised when event weights passed to accumulation are negative."""


@dataclass(frozen=True)
class Iwe:
    """A float64 image of accumulated event mass plus its geometry."""

    pixels: np.ndarray
    geometry: ImageGeometry

    def __post_init__(self) -> None:
        if self.pixels.shape != (self.geometry.height, self.geometry.width):
            raise ValueError(
                f"pixel array {self.pixels.shape} does not match geometry "
                f"{self.geometry.height}x{self.geometry.width}"
            )

    @property
    def total_mass(self) -> float:
        return float(self.pixels.sum())


class _Scratch(threading.local):
    """One thread's work arrays: the footprint rows, as long as the largest
    footprint seen in this thread; padded grids kept per image shape, each
    with its sensor-sized interior view; the blurs kept per image shape and
    sigma; and the deviations of ``variance_contrast``.  Fresh and scratch
    calls share them."""

    def __init__(self) -> None:
        self.size = -1
        # (geometry, n) of the unit-weight deposit whose footprint the rows
        # still hold, or None
        self.deposited = None
        self.grids: dict = {}
        self.blurs: dict = {}
        self.deviations = np.empty(0)

    def rows(self, n: int):
        """(4, n) corner indices, (4, n) corner weights and one free row."""
        if n > self.size:
            # flat, so the (4, n) views of a shorter footprint stay contiguous
            self.index = np.empty(4 * n, dtype=np.int64)
            self.weight = np.empty(4 * n)
            self.work = np.empty(n)
            self.size = n
        return (
            self.index[: 4 * n].reshape(4, n),
            self.weight[: 4 * n].reshape(4, n),
            self.work[:n],
        )

    def grid(self, geometry: ImageGeometry, kind: str):
        """This thread's flat padded grid of one kind for one image shape and
        its interior view.  A new grid is zero, ring included."""
        key = (geometry.height, geometry.width, kind)
        found = self.grids.get(key)
        if found is None:
            if len(self.grids) >= 12:     # a few shapes in turn, not a leak
                self.grids.clear()
            h, w = geometry.height, geometry.width
            flat = np.zeros((h + 2 * RING) * (w + 2 * RING))
            found = self.grids[key] = (flat, _interior(flat, geometry))
        return found

    def blur(self, geometry: ImageGeometry, sigma: float) -> "_BandedBlur":
        """This thread's banded blur for one image shape and sigma."""
        key = (geometry.height, geometry.width, sigma)
        found = self.blurs.get(key)
        if found is None:
            if len(self.blurs) >= 4:
                self.blurs.clear()
            found = self.blurs[key] = _BandedBlur(geometry.height, geometry.width, sigma)
        return found


_scratch = _Scratch()


def _interior(flat: np.ndarray, geometry: ImageGeometry) -> np.ndarray:
    """The sensor-sized view of a flat grid padded by ``RING``."""
    h, w = geometry.height, geometry.width
    return flat.reshape(h + 2 * RING, w + 2 * RING)[RING:-RING, RING:-RING]


def _footprint(wx, wy, geometry: ImageGeometry):
    """Bilinear footprint of each position on the sensor grid padded by
    ``RING`` pixels on every side.

    ``wx`` and ``wy`` are flat float64 arrays of one length n.  Returns
    scratch views: the (4, n) flat padded indices and (4, n) weights of each
    position's corners, in the order 00, 10, 01, 11, and a free (n,) row.
    Positions are clamped into [-RING, w] x [-RING, h] first (``fmax`` maps
    NaN to the low edge), which leaves every footprint that reaches the
    sensor as it is and puts every other one, NaN and infinite positions
    included, wholly on padding.  All three are overwritten by the next
    footprint computed in this thread.
    """
    w, h = geometry.width, geometry.height
    stride = w + 2 * RING
    _scratch.deposited = None
    index, weight, fx = _scratch.rows(wx.size)
    # fy and the floors live in the weight rows until the weights overwrite
    # them, so the footprint needs one row beyond its output
    w00, w10, w01, w11 = weight
    fy = w10
    np.fmin(np.fmax(wx, -RING, out=fx), w, out=fx)
    np.fmin(np.fmax(wy, -RING, out=fy), h, out=fy)
    x0 = np.floor(fx, out=w00)
    y0 = np.floor(fy, out=w01)
    base = index[0]
    np.copyto(base, y0, casting="unsafe")
    base *= stride
    np.copyto(index[1], x0, casting="unsafe")
    base += index[1]
    base += RING * stride + RING
    np.add(base, 1, out=index[1])
    np.add(base, stride, out=index[2])
    np.add(base, stride + 1, out=index[3])
    fx -= x0
    fy -= y0
    # (1-fx)(1-fy), fx(1-fy), (1-fx)fy and fx fy, in an order that writes
    # each row after its last read
    np.multiply(fx, fy, out=w11)
    np.multiply(np.subtract(1.0, fx, out=w01), fy, out=w01)
    one_y = np.subtract(1.0, fy, out=w10)
    np.multiply(np.subtract(1.0, fx, out=w00), one_y, out=w00)
    np.multiply(fx, one_y, out=w10)
    return index, weight, fx


def _splat(wx, wy, weights, geometry: ImageGeometry, scratch: bool, unit: bool) -> np.ndarray:
    index, value, _ = _footprint(wx.ravel(), wy.ravel(), geometry)
    # w * 1.0 is w to the byte, so unit weights leave the footprint's
    # weights as they are, for sample_deposited to read with
    if not unit:
        value *= weights.ravel()
    # one scatter of all corners, corner after corner, into this thread's
    # deposit grid: each pixel sums its deposits in a fixed order
    padded, pixels = _scratch.grid(geometry, "deposit")
    padded.fill(0.0)
    np.add.at(padded, index.ravel(), value.ravel())
    if unit:
        _scratch.deposited = (geometry, wx.size)
    return pixels if scratch else pixels.copy()


def accumulate_weighted(
    wx: np.ndarray,
    wy: np.ndarray,
    weights: np.ndarray,
    geometry: ImageGeometry,
    *,
    scratch: bool = False,
) -> Iwe:
    """Deposit per-event mass ``weights`` at warped positions by bilinear
    splatting.  Weights must be finite and non-negative.

    With ``scratch`` the image is this thread's deposit grid for its shape,
    overwritten by its next deposit of that shape; otherwise it is a fresh
    copy of that grid."""
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (wx.shape == wy.shape == weights.shape):
        raise ValueError("coordinate and weight arrays must share a shape")
    unit = False
    if weights.size:
        low, high = float(weights.min()), float(weights.max())
        if low < 0.0:
            raise NegativeWeightError("event weights must be non-negative")
        if not np.isfinite(high):
            raise ValueError("event weights must be finite")
        unit = low == high == 1.0
    return Iwe(_splat(wx, wy, weights, geometry, scratch, unit), geometry)


def accumulate_unweighted(wx: np.ndarray, wy: np.ndarray, geometry: ImageGeometry) -> Iwe:
    """Deposit unit mass per event (all weights one)."""
    wx = np.asarray(wx, dtype=np.float64)
    return accumulate_weighted(wx, wy, np.ones(wx.shape), geometry)


def _windows(a: np.ndarray, count: int, step: int, length: int, axis: int) -> np.ndarray:
    """``count`` windows of ``length`` rows (axis 0) or columns (axis 1) of
    the 2-D array ``a``, one every ``step``, stacked on a new first axis: a
    view, read-only when the windows overlap."""
    s0, s1 = a.strides
    if axis == 0:
        shape, strides = (count, length, a.shape[1]), (step * s0, s0, s1)
    else:
        shape, strides = (count, a.shape[0], length), (step * s1, s0, s1)
    return np.lib.stride_tricks.as_strided(a, shape, strides, writeable=step >= length)


class _BandedBlur:
    """Gaussian blur of one image shape as two banded matrix products.

    Each axis pass splits its output into blocks of ``BLOCK`` rows (or
    columns).  A block reads its own rows and r more on each side, r the
    kernel radius, so it is one small dense product with a band matrix.
    The blocks whose reads all fall on the image share one band and go to
    ``np.matmul`` as one stack of overlapping windows; a block at an edge
    reads only the image's rows, with its band cut to match, which is the
    zero padding of ``gaussian_filter``'s ``mode="constant"``.  So the
    first pass reads the image where it lies, with no copy.  It writes into
    a buffer with r zero columns on each side, which the second pass reads
    as one stack; columns past the image in the last block of the second
    pass compute discarded values.  All buffers live as long as the blur."""

    # a block does BLOCK + 2r multiply-adds per pixel, a direct filter 2r + 1,
    # but BLAS runs a smaller product less efficiently: 8 was the fastest of
    # 4 to 30 for a 240x180 image at sigma 1 (2-vCPU Xeon VM, OpenBLAS 0.3.31)
    BLOCK = 8

    def __init__(self, height: int, width: int, sigma: float) -> None:
        # gaussian_filter's kernel: normalised, truncated at radius
        # ceil(3*sigma), computed as scipy computes it; it is symmetric, so
        # correlating with it is convolving with it
        self.radius = r = int(np.ceil(3.0 * sigma))
        x = np.arange(-r, r + 1)
        phi = np.exp(-0.5 / (sigma * sigma) * x**2)
        self.taps = phi / phi.sum()
        b = self.BLOCK
        # row blocks first .. last-1 read only image rows, through one band
        self.first = -(-r // b)
        self.last = max(self.first, (height - r) // b)
        self.band = self._band(r, r + b, 0, b + 2 * r)
        self.edges = []
        for s in range(0, height, b):
            if not self.first * b <= s < self.last * b:
                e, lo, hi = min(height, s + b), max(0, s - r), min(height, s + b + r)
                self.edges.append((s, e, lo, hi, self._band(s, e, lo, hi)))
        self.source = None
        col_blocks = -(-width // b)
        mid = np.zeros((height, col_blocks * b + 2 * r))
        self.mid = mid[:, r : r + width]
        self.row_out = _windows(self.mid[self.first * b :], self.last - self.first, b, b, 0)
        self.col_windows = _windows(mid, col_blocks, b, b + 2 * r, 1)
        self.band_t = np.ascontiguousarray(self.band.T)
        out = np.zeros((height, col_blocks * b))
        self.col_out = _windows(out, col_blocks, b, b, 1)
        self.result = out[:, :width]

    def _band(self, start: int, stop: int, lo: int, hi: int) -> np.ndarray:
        """Weights of input rows [lo, hi) in output rows [start, stop)."""
        offset = np.arange(lo, hi)[None, :] - np.arange(start, stop)[:, None]
        band = np.zeros(offset.shape)
        near = np.abs(offset) <= self.radius
        band[near] = self.taps[offset[near] + self.radius]
        return band

    def __call__(self, pixels: np.ndarray) -> np.ndarray:
        """The blurred image, in this blur's output buffer."""
        if pixels.strides[1] != pixels.itemsize:
            pixels = np.ascontiguousarray(pixels)
        if pixels is not self.source:
            # the windows are views, so a build, which blurs the same
            # deposit grid every time, makes them once per thread
            b, r = self.BLOCK, self.radius
            self.row_windows = _windows(
                pixels[self.first * b - r :], self.last - self.first, b, b + 2 * r, 0
            )
            self.source = pixels
        if self.last > self.first:
            np.matmul(self.band, self.row_windows, out=self.row_out)
        for s, e, lo, hi, band in self.edges:
            np.matmul(band, pixels[lo:hi], out=self.mid[s:e])
        np.matmul(self.col_windows, self.band_t, out=self.col_out)
        return self.result


def smooth(iwe: Iwe, sigma: float, *, scratch: bool = False) -> Iwe:
    """Gaussian blur with a normalised kernel truncated at radius
    ceil(3*sigma); sigma == 0 is the identity.

    Zero padding outside the sensor, so mass near borders leaks out rather
    than reflecting back (a warped-out event should not brighten the edge).
    The blur is this thread's :class:`_BandedBlur` for the image's shape and
    sigma: equal to ``gaussian_filter`` to rounding.  With ``scratch`` the
    blurred image is that blur's output, overwritten by its next call, fresh
    or scratch; otherwise it is a fresh copy of that output.
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return iwe
    blurred = _scratch.blur(iwe.geometry, float(sigma))(iwe.pixels)
    return Iwe(blurred if scratch else blurred.copy(), iwe.geometry)


def variance_contrast(iwe: Iwe) -> float:
    """Population variance of pixel values: the sharpness score.

    The same arithmetic as ``np.var``, and so the same bytes, with the
    deviations kept in this thread's scratch instead of a fresh array."""
    pixels = iwe.pixels
    size = pixels.size
    if _scratch.deviations.size < size:
        _scratch.deviations = np.empty(size)
    deviations = _scratch.deviations[:size].reshape(pixels.shape)
    mean = np.add.reduce(pixels, axis=None, keepdims=True)
    np.true_divide(mean, size, out=mean)
    np.subtract(pixels, mean, out=deviations)
    np.square(deviations, out=deviations)
    return float(np.add.reduce(deviations, axis=None) / size)


def _bordered(iwe: Iwe) -> np.ndarray:
    """The image inside a flat zero ring of ``RING`` pixels: a copy in this
    thread's read grid."""
    padded, pixels = _scratch.grid(iwe.geometry, "read")
    pixels[...] = iwe.pixels
    return padded


def sample_local(
    iwe: Iwe, wx: np.ndarray, wy: np.ndarray, *, out: np.ndarray | None = None
) -> np.ndarray:
    """Bilinear read-out of the image at fractional positions; zero outside.

    Adjoint of :func:`accumulate_weighted`'s deposit: both use
    :func:`_footprint`.  ``out``, a one-dimensional float64 array as long as
    one-dimensional ``wx`` (a table column, say), receives the values and is
    returned; without it the values come back in a fresh array.
    """
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    if wx.shape != wy.shape:
        raise ValueError("coordinate arrays must share a shape")
    if out is None:
        out = np.empty(wx.shape)
    elif out.dtype != np.float64 or out.ndim != 1 or out.shape != wx.shape:
        raise ValueError("out must be a 1-D float64 array shaped like wx")
    padded = _bordered(iwe)
    index, weight, work = _footprint(wx.ravel(), wy.ravel(), iwe.geometry)
    return _read(padded, index, weight, work, out)


def sample_deposited(iwe: Iwe, *, out: np.ndarray | None = None) -> np.ndarray:
    """:func:`sample_local` at the positions of this thread's last deposit,
    read with the footprint that deposit computed: the same bytes, without
    computing the footprint again.

    That deposit must have had unit weights (every weight 1.0) and
    ``iwe``'s geometry, and no other deposit nor :func:`sample_local` may
    have run in this thread since; otherwise ``ValueError`` is raised.
    ``out`` is as for :func:`sample_local`.
    """
    deposited = _scratch.deposited
    if deposited is None or deposited[0] != iwe.geometry:
        raise ValueError("no unit-weight deposit of this geometry to read at")
    n = deposited[1]
    if out is None:
        out = np.empty(n)
    elif out.dtype != np.float64 or out.shape != (n,):
        raise ValueError("out must be a 1-D float64 array as long as the deposit")
    padded = _bordered(iwe)
    index, weight, work = _scratch.rows(n)
    return _read(padded, index, weight, work, out)


def _read(padded, index, weight, work, out: np.ndarray) -> np.ndarray:
    """Sum each position's four corners of the padded image, weighted by its
    footprint, into ``out``."""
    flat = out.reshape(-1)
    flat.fill(0.0)
    for k in range(4):
        # every index is in range; "clip" lets take() write into work directly
        np.take(padded, index[k], out=work, mode="clip")
        flat += np.multiply(weight[k], work, out=work)
    return out
