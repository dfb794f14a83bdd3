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
"""
from __future__ import annotations

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


def _corners(wx, wy, geometry: ImageGeometry):
    """Bilinear footprint of each position on the sensor grid padded by one
    pixel on every side.

    Returns the flat padded index of each position's top-left corner, the
    four corner weights and the four corner offsets, both in the fixed order
    00, 10, 01, 11.  A position whose 2x2 footprint misses the sensor, or has
    a NaN or infinite coordinate, gets index 0 (a padding cell) and weight 0.
    """
    w, h = geometry.width, geometry.height
    x0f = np.floor(wx)
    y0f = np.floor(wy)
    ax = wx - x0f
    ay = wy - y0f
    x0 = x0f.astype(np.int64)
    y0 = y0f.astype(np.int64)
    ok = (x0 >= -1) & (x0 < w) & (y0 >= -1) & (y0 < h)
    index = np.where(ok, (y0 + 1) * (w + 2) + (x0 + 1), 0)
    bx = 1.0 - ax
    by = 1.0 - ay
    weights = [np.where(ok, cw, 0.0) for cw in (bx * by, ax * by, bx * ay, ax * ay)]
    return index, weights, (0, 1, w + 2, w + 3)


def _splat(wx, wy, weights, geometry: ImageGeometry) -> np.ndarray:
    w, h = geometry.width, geometry.height
    index, corner_weights, offsets = _corners(wx.ravel(), wy.ravel(), geometry)
    weights = weights.ravel()
    padded = np.zeros((w + 2) * (h + 2))
    # four corners in fixed order keeps the reduction deterministic
    for off, cw in zip(offsets, corner_weights):
        padded += np.bincount(index + off, weights=weights * cw, minlength=padded.size)
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
    radius = int(np.ceil(3.0 * sigma))
    blurred = ndimage.gaussian_filter(
        iwe.pixels, sigma=sigma, mode="constant", cval=0.0, radius=radius
    )
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
    index, corner_weights, offsets = _corners(wx, wy, iwe.geometry)
    padded = np.pad(iwe.pixels, 1).ravel()
    out = np.zeros(wx.shape)
    for off, cw in zip(offsets, corner_weights):
        out += cw * padded[index + off]
    return out
