"""Images of warped events: accumulation, smoothing, contrast, sampling.

A warped-event image is a per-pixel sum of event mass after transport to
the reference time.  Sharpness of that image (its per-pixel variance) is
the score every solver in this package climbs.

Mass deposit uses bilinear splatting onto the four neighbouring pixel
centres; sampling uses the matching bilinear interpolation.  Both take each
position's footprint from one helper, :func:`_corners`, which makes deposit
and read-out adjoint to one another.  Events landing outside the sensor
contribute only the in-bounds fraction of their mass; sampling outside
returns zero.

Every footprint is computed in per-thread scratch arrays rather than in
position-sized temporaries: freeing a dozen such temporaries per call let
the allocator hand their pages back to the system, and the next image build
page-faulted them all in again.  The scratch is ``threading.local``, grows
to the largest footprint seen in its thread and is used through ``[:n]``
views, so a footprint's arrays are valid only until the next footprint is
computed in that thread.  Arrays returned to callers never alias it.
"""
from __future__ import annotations

import functools
import threading
from dataclasses import dataclass

import numpy as np
from scipy import ndimage

from .events import ImageGeometry


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
    """One thread's work arrays for :func:`_corners`: four float rows, two
    integer rows and two flag rows, each as long as the largest footprint
    seen in this thread."""

    def __init__(self) -> None:
        self.size = -1

    def take(self, n: int):
        if n > self.size:
            self.reals = np.empty((4, n))
            self.ints = np.empty((2, n), dtype=np.int64)
            self.flags = np.empty((2, n), dtype=bool)
            self.size = n
        return self.reals[:, :n], self.ints[:, :n], self.flags[:, :n]


_scratch = _Scratch()


def _corners(wx, wy, geometry: ImageGeometry):
    """Bilinear footprint of each position on the sensor grid padded by one
    pixel on every side, one corner at a time.

    ``wx`` and ``wy`` are flat float64 arrays of one length.  Yields, in the
    fixed order 00, 10, 01, 11, the flat padded index of each position's
    corner, its corner weight and a free work array of the same length.  A
    position whose 2x2 footprint misses the sensor, or has a NaN or infinite
    coordinate, gets a padding cell (index 0 at corner 00) and weight 0.
    All three arrays are scratch views, overwritten at the next corner.
    """
    w, h = geometry.width, geometry.height
    (ax, ay, cw, work), (base, index), (bad, edge) = _scratch.take(wx.size)
    # NaN and inf positions are cast and subtracted too, then masked out
    with np.errstate(invalid="ignore"):
        np.floor(wx, out=ax)
        np.floor(wy, out=ay)
        # bad = not (-1 <= floor(x) < w and -1 <= floor(y) < h), tested on
        # the floats: NaN fails every comparison, whatever its cast gives
        np.greater_equal(ax, -1.0, out=bad)
        bad &= np.less(ax, w, out=edge)
        bad &= np.greater_equal(ay, -1.0, out=edge)
        bad &= np.less(ay, h, out=edge)
        np.logical_not(bad, out=bad)
        np.copyto(base, ay, casting="unsafe")
        base *= w + 2
        np.copyto(index, ax, casting="unsafe")
        base += index
        base += w + 3
        np.subtract(wx, ax, out=ax)
        np.subtract(wy, ay, out=ay)
    np.copyto(base, 0, where=bad)

    def corner(off):
        # zeroed by copy, not by multiplying with the mask: NaN * 0 is NaN
        np.copyto(cw, 0.0, where=bad)
        return np.add(base, off, out=index), cw, work

    np.subtract(1.0, ax, out=cw)
    cw *= np.subtract(1.0, ay, out=work)
    yield corner(0)
    np.multiply(ax, np.subtract(1.0, ay, out=work), out=cw)
    yield corner(1)
    np.subtract(1.0, ax, out=cw)
    cw *= ay
    yield corner(w + 2)
    np.multiply(ax, ay, out=cw)
    yield corner(w + 3)


def _splat(wx, wy, weights, geometry: ImageGeometry) -> np.ndarray:
    w, h = geometry.width, geometry.height
    size = (w + 2) * (h + 2)
    weights = weights.ravel()
    deposits = (
        np.bincount(index, weights=np.multiply(weights, cw, out=work), minlength=size)
        for index, cw, work in _corners(wx.ravel(), wy.ravel(), geometry)
    )
    # four corners summed in fixed order keeps the reduction deterministic;
    # the first deposit is the grid itself (adding it to zeros would change
    # no bit: bincount never returns -0.0)
    padded = next(deposits)
    for deposit in deposits:
        padded += deposit
    return padded.reshape(h + 2, w + 2)[1:-1, 1:-1]


def accumulate_weighted(
    wx: np.ndarray, wy: np.ndarray, weights: np.ndarray, geometry: ImageGeometry
) -> Iwe:
    """Deposit per-event mass ``weights`` at warped positions by bilinear
    splatting.  Weights must be finite and non-negative."""
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if not (wx.shape == wy.shape == weights.shape):
        raise ValueError("coordinate and weight arrays must share a shape")
    if weights.size:
        if float(weights.min()) < 0.0:
            raise NegativeWeightError("event weights must be non-negative")
        if not np.isfinite(weights.max()):
            raise ValueError("event weights must be finite")
    return Iwe(_splat(wx, wy, weights, geometry), geometry)


def accumulate_unweighted(wx: np.ndarray, wy: np.ndarray, geometry: ImageGeometry) -> Iwe:
    """Deposit unit mass per event (all weights one)."""
    wx = np.asarray(wx, dtype=np.float64)
    return accumulate_weighted(wx, wy, np.ones(wx.shape), geometry)


@functools.lru_cache(maxsize=16)
def _gaussian_taps(sigma: float) -> np.ndarray:
    """Normalised 1-D Gaussian truncated at radius ceil(3*sigma), computed
    as ``scipy.ndimage.gaussian_filter`` computes its kernel.  It is
    symmetric, so correlating with it is convolving with it.  Read-only,
    because every caller shares it."""
    radius = int(np.ceil(3.0 * sigma))
    x = np.arange(-radius, radius + 1)
    phi = np.exp(-0.5 / (sigma * sigma) * x**2)
    taps = phi / phi.sum()
    taps.flags.writeable = False
    return taps


def smooth(iwe: Iwe, sigma: float) -> Iwe:
    """Gaussian blur with a normalised kernel truncated at radius
    ceil(3*sigma); sigma == 0 is the identity.

    Zero padding outside the sensor, so mass near borders leaks out rather
    than reflecting back (a warped-out event should not brighten the edge).
    """
    if sigma < 0:
        raise ValueError("sigma must be non-negative")
    if sigma == 0:
        return iwe
    # the two passes ndimage.gaussian_filter makes (along axis 0, then along
    # axis 1 in place) with the kernel cached: gaussian_filter's set-up per
    # call cost up to a fifth of the blur, paid by every image build however
    # few its events
    taps = _gaussian_taps(float(sigma))
    blurred = np.empty(iwe.pixels.shape)
    ndimage.correlate1d(iwe.pixels, taps, 0, blurred, mode="constant", cval=0.0)
    ndimage.correlate1d(blurred, taps, 1, blurred, mode="constant", cval=0.0)
    return Iwe(blurred, iwe.geometry)


def variance_contrast(iwe: Iwe) -> float:
    """Population variance of pixel values: the sharpness score."""
    return float(np.var(iwe.pixels))


def sample_local(iwe: Iwe, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
    """Bilinear read-out of the image at fractional positions; zero outside.

    Adjoint of :func:`accumulate_weighted`'s deposit: both use :func:`_corners`.
    """
    wx = np.asarray(wx, dtype=np.float64)
    wy = np.asarray(wy, dtype=np.float64)
    if wx.shape != wy.shape:
        raise ValueError("coordinate arrays must share a shape")
    padded = np.pad(iwe.pixels, 1).ravel()
    out = np.zeros(wx.shape)
    flat = out.reshape(-1)
    for index, cw, work in _corners(wx.ravel(), wy.ravel(), iwe.geometry):
        # every index is in range; "clip" lets take() write into work directly
        np.take(padded, index, out=work, mode="clip")
        flat += np.multiply(cw, work, out=work)
    return out
