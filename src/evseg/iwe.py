"""Images of warped events: accumulation, smoothing, contrast, sampling.

A warped-event image is a per-pixel sum of event mass after transport to
the reference time.  Sharpness of that image (its per-pixel variance) is
the score every solver in this package climbs.

Mass deposit uses bilinear splatting onto the four neighbouring pixel
centres; sampling uses the matching bilinear interpolation.  Both take each
position's footprint from one helper, :func:`_footprint`, which makes
deposit and read-out adjoint to one another.  A footprint indexes the
sensor grid padded by a ring of ``RING`` pixels: one int64 row holds each
position's top-left corner as a flat index, and four rows hold the weights
of its corners 00, 10, 01 and 11, which lie at fixed offsets from the
first.  A deposit scatters, and a read takes, corner by corner through
views of the padded grid at those offsets.  A position is clamped into the
ring first, so one that lands off the sensor (NaN and infinite ones
included) puts all four corners on padding.  Events landing outside
the sensor contribute only the in-bounds fraction of their mass; sampling
outside returns zero.

Every footprint is computed into one of this thread's footprint slots, 40
bytes per position each.  A deposit or read may name its positions with a
``key``, an ``(owner, tag)`` pair: ``owner`` is any object that takes weak
references, compared by identity, and ``tag`` a hashable value compared by
equality.  A deposit or read whose key a slot holds uses that slot's
footprint and reads neither ``wx`` nor ``wy`` (only their shape is
checked), so a key must name the same positions on the same grid for as
long as its owner lives.  The solver keys a warp by the packet, which is
immutable, and by the motion's model and parameter bytes.  Which
footprints stay follows from the keys :func:`hold_footprints` holds: a
held key's footprint keeps a slot of its own, and every other footprint
goes into one spare slot.  A new footprint takes the first slot that holds
no held key, or a new slot when every slot holds one, so a thread never
has more than one slot beyond its held keys.  A deposit never writes its
weights into the footprint, so a keyed read after a weighted deposit reads
with the footprint that deposit computed.

Every image build would otherwise allocate, and free, about eight
grid-sized or position-sized arrays, and freeing them lets the allocator
hand their pages back to the system, so the next build page-faults them all
in again.  So the kernels work in per-thread scratch (``threading.local``):
the footprint slots, one work row that grows to the largest footprint seen,
padded grids kept per image shape, and blurs kept per image shape and
sigma.

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

import math
import threading
import weakref
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


def _no_owner() -> None:
    """The owner reference of a slot whose footprint no key names."""
    return None


class _Slot:
    """One footprint slot: the corner-00 indices and corner weights of ``n``
    positions on ``geometry``'s padded grid, with the corners' flat offsets
    from corner 00, in one buffer as long as the largest footprint it has
    held; and a weak reference to the owner of the key that names them, and
    its tag."""

    def __init__(self) -> None:
        self.owner, self.tag, self.size = _no_owner, None, -1

    def rows(self, n: int, geometry: ImageGeometry):
        """The (n,) index row and (4, n) weight rows for a new footprint on
        ``geometry``, which no key names yet; this thread's work row is made
        at least as long."""
        if n > self.size:
            # the old buffer goes first, so it and the new one never coexist
            self.index = self.weight = self.buffer = None
            self.buffer, self.size = np.empty(5 * n), n
        if n > _scratch.work.size:
            _scratch.work = np.empty(n)
        stride = geometry.width + 2 * RING
        self.owner, self.tag = _no_owner, None
        self.n, self.geometry = n, geometry
        self.offsets = (0, 1, stride, stride + 1)
        # the index row is the buffer's first n entries read as int64, and
        # the weight rows follow it, so a shorter footprint stays contiguous
        self.index = self.buffer[:n].view(np.int64)
        self.weight = self.buffer[n : 5 * n].reshape(4, n)
        return self.index, self.weight


class _Scratch(threading.local):
    """One thread's work arrays: the footprint slots and the held keys; one
    free work row, as long as the largest footprint seen in this thread;
    padded grids kept per image shape, each with its sensor-sized interior
    view; the blurs kept per image shape and sigma; and the deviations of
    ``variance_contrast``.  Fresh and scratch calls share them."""

    def __init__(self) -> None:
        self.slots: list = []
        # (id(owner), tag) of each held key; the holder keeps the owners alive
        self.held: set = set()
        self.work = np.empty(0)
        self.grids: dict = {}
        self.blurs: dict = {}
        self.deviations = np.empty(0)

    def find(self, key):
        """The slot that holds ``key``'s footprint, or None."""
        if key is not None:
            owner, tag = key
            for slot in self.slots:
                if slot.tag == tag and slot.owner() is owner:
                    return slot
        return None

    def holds(self, slot: _Slot) -> bool:
        """Whether ``slot`` holds a held key's footprint."""
        owner = slot.owner()
        return owner is not None and (id(owner), slot.tag) in self.held

    def spare(self) -> _Slot:
        """The slot for a new footprint: the first that holds no held key,
        or a new one when every slot holds one."""
        for slot in self.slots:
            if not self.holds(slot):
                return slot
        self.slots.append(_Slot())
        return self.slots[-1]

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


def hold_footprints(keys) -> None:
    """Hold the footprints of ``keys`` in this thread's slots in place of the
    keys held before: a held key's footprint, once computed, keeps its slot
    until its key is released.  Slots beyond one per held key and one spare
    are freed, the held ones kept."""
    _scratch.held = {(id(owner), tag) for owner, tag in keys}
    # a stable sort, so the spare is still the first slot holding no held key
    _scratch.slots.sort(key=lambda slot: not _scratch.holds(slot))
    del _scratch.slots[len(_scratch.held) + 1 :]


def has_footprint(key) -> bool:
    """Whether one of this thread's slots holds the footprint ``key`` names,
    so that a deposit or read with that key reads no positions."""
    return _scratch.find(key) is not None


def _slot_for(wx, wy, geometry: ImageGeometry, key) -> _Slot:
    """This thread's slot holding the footprint of the positions ``key``
    names, or, with no key or no slot holding it, a slot with the footprint
    of ``wx`` and ``wy`` computed into it under ``key``."""
    slot = _scratch.find(key)
    if slot is None:
        slot = _scratch.spare()
        _footprint(wx, wy, geometry, slot)
        if key is not None:
            slot.owner, slot.tag = weakref.ref(key[0]), key[1]
    return slot


def _interior(flat: np.ndarray, geometry: ImageGeometry) -> np.ndarray:
    """The sensor-sized view of a flat grid padded by ``RING``."""
    h, w = geometry.height, geometry.width
    return flat.reshape(h + 2 * RING, w + 2 * RING)[RING:-RING, RING:-RING]


def _footprint(wx, wy, geometry: ImageGeometry, slot: _Slot) -> None:
    """Bilinear footprint of each position on the sensor grid padded by
    ``RING`` pixels on every side, computed into ``slot``.

    ``wx`` and ``wy`` are float64 arrays whose shapes broadcast together, to
    n positions in all: two flat arrays of one length, say, or a row of x
    and a column of y.  The slot receives, each row in the broadcast shape's
    C order, the flat padded index of each position's corner 00 and the
    weights of its corners 00, 10, 01 and 11.  Positions are clamped into
    [-RING, w] x [-RING, h] first (``fmax`` maps NaN to the low edge), which
    leaves every footprint that reaches the sensor as it is and puts every
    other one, NaN and infinite positions included, wholly on padding.  Each
    axis is clamped, floored and split at its own shape, and only the
    corner index and weights are formed at the broadcast shape, so a row
    and a column give the bytes the flat positions they broadcast to would.
    The thread's work row is overwritten.
    """
    w, h = geometry.width, geometry.height
    stride = w + 2 * RING
    same = wx.shape == wy.shape
    shape = wx.shape if same else np.broadcast_shapes(wx.shape, wy.shape)
    n = math.prod(shape)
    index, weight = slot.rows(n, geometry)
    w00, w10, w01, w11 = weight.reshape((4,) + shape)
    if same:
        # each axis's fraction and floor live in rows that the corners
        # overwrite after their last read, so the footprint needs one row
        # beyond its output
        fx, x0, fy, y0 = _scratch.work[:n].reshape(shape), w00, w10, w01
    else:
        # an axis is as long as one side of the positions, not all of them
        fx, x0, fy, y0 = (np.empty(a.shape) for a in (wx, wx, wy, wy))
    np.fmin(np.fmax(wx, -RING, out=fx), w, out=fx)
    np.fmin(np.fmax(wy, -RING, out=fy), h, out=fy)
    np.floor(fx, out=x0)
    np.floor(fy, out=y0)
    fx -= x0
    fy -= y0
    # corner 00's flat index, exact in float64 (small integers), cast as
    # the last sum is stored
    y0 *= stride
    corner = np.add(y0, x0, out=w01)
    np.add(corner, RING * stride + RING, out=index.reshape(shape), casting="unsafe")
    # fx fy, (1-fx)fy, (1-fx)(1-fy) and fx(1-fy), with 1-fx in x0 and 1-fy
    # in fy, in an order that writes each row after its last read
    np.multiply(fx, fy, out=w11)
    one_x = np.subtract(1.0, fx, out=x0)
    np.multiply(one_x, fy, out=w01)
    one_y = np.subtract(1.0, fy, out=fy)
    np.multiply(one_x, one_y, out=w00)
    np.multiply(fx, one_y, out=w10)


def _splat(slot: _Slot, weights, unit: bool, scratch: bool) -> np.ndarray:
    # corner after corner into this thread's deposit grid, so each pixel
    # sums its deposits in a fixed order; weighted corners go through the
    # work row, which leaves the footprint as it was
    padded, pixels = _scratch.grid(slot.geometry, "deposit")
    padded.fill(0.0)
    work = _scratch.work[: slot.n]
    for k, offset in enumerate(slot.offsets):
        value = slot.weight[k] if unit else np.multiply(slot.weight[k], weights, out=work)
        np.add.at(padded[offset:], slot.index, value)
    return pixels if scratch else pixels.copy()


def accumulate_weighted(
    wx: np.ndarray,
    wy: np.ndarray,
    weights: np.ndarray,
    geometry: ImageGeometry,
    *,
    scratch: bool = False,
    key=None,
) -> Iwe:
    """Deposit per-event mass ``weights`` at warped positions by bilinear
    splatting.  Weights must be finite and non-negative.

    With ``scratch`` the image is this thread's deposit grid for its shape,
    overwritten by its next deposit of that shape; otherwise it is a fresh
    copy of that grid.  ``key`` names the positions (see the module
    docstring): when one of this thread's slots holds its footprint,
    ``wx`` and ``wy`` are not read."""
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
    slot = _slot_for(wx, wy, geometry, key)
    return Iwe(_splat(slot, weights.ravel(), unit, scratch), geometry)


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


def gaussian_kernel(sigma: float, radius: int) -> np.ndarray:
    """The normalised Gaussian kernel of ``sigma`` on offsets -radius ..
    radius, computed as ``scipy.ndimage`` computes it, so a filter that
    sums with scipy's order also gets scipy's bytes.  It is symmetric."""
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    return phi / phi.sum()


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
        # gaussian_filter's kernel truncated at radius ceil(3*sigma); it is
        # symmetric, so correlating with it is convolving with it
        self.radius = r = int(np.ceil(3.0 * sigma))
        self.taps = gaussian_kernel(sigma, r)
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
    iwe: Iwe, wx: np.ndarray, wy: np.ndarray, *, out: np.ndarray | None = None, key=None
) -> np.ndarray:
    """Bilinear read-out of the image at fractional positions; zero outside.

    Adjoint of :func:`accumulate_weighted`'s deposit: both use
    :func:`_footprint`.  ``wx`` and ``wy`` need only broadcast together: a
    row of x and a column of y read the grid they span, with the bytes of
    reading it at the broadcast positions.  ``out``, a float64 array of the
    broadcast shape (a table column, say), receives the values and is
    returned; without it the values come back in a fresh array.  ``key``
    names the positions, as for :func:`accumulate_weighted`.
    """
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    shape = np.broadcast_shapes(wx.shape, wy.shape)
    if out is None:
        out = np.empty(shape)
    elif out.dtype != np.float64 or out.shape != shape:
        raise ValueError("out must be a float64 array of the positions' broadcast shape")
    padded = _bordered(iwe)
    return _read(padded, _slot_for(wx, wy, iwe.geometry, key), out)


def _read(padded, slot: _Slot, out: np.ndarray) -> np.ndarray:
    """Sum each position's four corners of the padded image, weighted by its
    footprint in ``slot``, into ``out``, whose C order is the footprint's."""
    out.fill(0.0)
    work = _scratch.work[: slot.n]
    term = work.reshape(out.shape)
    for k, offset in enumerate(slot.offsets):
        # every index is in range; "clip" lets take() write into work directly
        np.take(padded[offset:], slot.index, out=work, mode="clip")
        np.multiply(slot.weight[k], work, out=work)
        out += term
    return out
