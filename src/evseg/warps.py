"""Parametric motion models that transport events to a reference time.

Each model maps an event at (x, y, t) to the position the same scene point
had at t_ref.  All models are the identity at t == t_ref, so a cluster's
parameters describe motion *forward* in time while the warp runs backward.

Models
------
flow2     (vx, vy)            constant image-plane velocity, px/s
rotation  (cx, cy, omega)     rigid rotation about (cx, cy), rad/s
fourdof   (vx, vy, omega, s)  translation plus rotation and exponential
                              scaling about the image centre (isotropic
                              expansion rate s, 1/s)
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .events import subsample_stride

MODEL_PARAM_COUNT = {"flow2": 2, "rotation": 3, "fourdof": 4}


@dataclass(frozen=True)
class WarpParams:
    """A motion model name plus its parameter vector."""

    model: str
    theta: np.ndarray

    def __post_init__(self) -> None:
        if self.model not in MODEL_PARAM_COUNT:
            raise ValueError(f"unknown warp model {self.model!r}")
        th = np.asarray(self.theta, dtype=np.float64)
        if th.shape != (MODEL_PARAM_COUNT[self.model],):
            raise ValueError(
                f"{self.model} takes {MODEL_PARAM_COUNT[self.model]} parameters, got shape {th.shape}"
            )
        object.__setattr__(self, "theta", th)

    @property
    def param_count(self) -> int:
        return MODEL_PARAM_COUNT[self.model]

    def replace_theta(self, theta: np.ndarray) -> "WarpParams":
        return WarpParams(self.model, np.asarray(theta, dtype=np.float64))


def zero_params(model: str) -> WarpParams:
    return WarpParams(model, np.zeros(MODEL_PARAM_COUNT[model]))


def warp_points(
    x: np.ndarray,
    y: np.ndarray,
    t: np.ndarray,
    params: WarpParams,
    t_ref: float,
    center: tuple[float, float] = (0.0, 0.0),
    out: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised warp of positions sampled at times ``t`` back to ``t_ref``.

    ``center`` is only used by the fourdof model (its rotation/scaling
    pivot, normally the image centre).  ``out``, a pair of float64 arrays
    of the broadcast shape, receives the warped positions and is returned;
    without it they come back in fresh arrays.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    t = np.asarray(t, dtype=np.float64)
    th = params.theta
    if params.model == "flow2":
        if out is None:
            out = np.empty(np.broadcast(x, t).shape), np.empty(np.broadcast(y, t).shape)
        rx, ry = out
        # t - t_ref once, in ry when t is as large (it broadcasts to both
        # outputs), then times each velocity into its output and subtracted
        # in place, so nothing is allocated beyond the outputs
        dt = np.subtract(t, t_ref, out=ry) if t.shape == ry.shape else t - t_ref
        np.multiply(dt, th[0], out=rx)
        np.multiply(dt, th[1], out=ry)
        return np.subtract(x, rx, out=rx), np.subtract(y, ry, out=ry)
    dt = t - t_ref
    if params.model == "rotation":
        cx, cy, omega = th
        ang = -omega * dt
        ca, sa = np.cos(ang), np.sin(ang)
        ux, uy = x - cx, y - cy
        wx, wy = cx + ca * ux - sa * uy, cy + sa * ux + ca * uy
    elif params.model == "fourdof":
        vx, vy, omega, s = th
        cx, cy = center
        ux = x - dt * vx - cx
        uy = y - dt * vy - cy
        ang = -omega * dt
        ca, sa = np.cos(ang), np.sin(ang)
        rx = ca * ux - sa * uy
        ry = sa * ux + ca * uy
        scale = np.exp(-s * dt)
        wx, wy = cx + scale * rx, cy + scale * ry
    else:
        raise ValueError(f"unknown warp model {params.model!r}")
    if out is None:
        return wx, wy
    out[0][...] = wx
    out[1][...] = wy
    return out[0], out[1]


def warp_packet(
    packet, params: WarpParams, out: tuple[np.ndarray, np.ndarray] | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Warp all events of a packet to its reference time, into ``out`` if
    given (see :func:`warp_points`)."""
    return warp_points(
        packet.x, packet.y, packet.t, params, packet.t_ref, packet.geometry.center, out
    )


def numeric_warp_jacobian(
    x: float | np.ndarray,
    y: float | np.ndarray,
    t: float | np.ndarray,
    params: WarpParams,
    t_ref: float,
    h: float = 1e-2,
    center: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Central-difference sensitivity of the warped positions to each
    parameter, shape (param_count, 2) + the broadcast shape of ``x``, ``y``
    and ``t``: entry [i, 0] is d(warped x)/d(theta_i), [i, 1] the same for
    warped y.  Scalars give shape (param_count, 2)."""
    out = np.empty((params.param_count, 2) + np.broadcast(x, y, t).shape)
    for i in range(params.param_count):
        tp = params.theta.copy()
        tp[i] += h
        xp, yp = warp_points(x, y, t, params.replace_theta(tp), t_ref, center)
        tm = params.theta.copy()
        tm[i] -= h
        xm, ym = warp_points(x, y, t, params.replace_theta(tm), t_ref, center)
        out[i, 0] = (xp - xm) / (2.0 * h)
        out[i, 1] = (yp - ym) / (2.0 * h)
    return out


def displacement_sensitivity(packet, params: WarpParams) -> np.ndarray:
    """Per-parameter bound on how far warped positions move per unit change
    of that parameter: the largest length of :func:`numeric_warp_jacobian`'s
    (d warped x, d warped y) over a subsample of at least 512 events (every
    event of a smaller packet), at its default step 1e-2.

    Used to express pixel-unit step limits and perturbations in native
    parameter units.
    """
    # strided views of the subsample's rows, not fancy-indexed copies
    step = subsample_stride(packet.n, 512)
    dx, dy = numeric_warp_jacobian(
        packet.x[::step], packet.y[::step], packet.t[::step], params, packet.t_ref,
        center=packet.geometry.center,
    ).swapaxes(0, 1)
    kappa = np.sqrt(dx * dx + dy * dy).max(axis=1)
    # a parameter with no positional effect gets a tiny floor so step
    # clamps expressed as pixels/kappa stay finite
    return np.maximum(kappa, 1e-12)
