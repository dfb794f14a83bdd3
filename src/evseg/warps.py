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

from .events import subsample_indices

MODEL_PARAM_COUNT = {"flow2": 2, "rotation": 3, "fourdof": 4}

MODEL_PARAM_NAMES = {
    "flow2": ("vx", "vy"),
    "rotation": ("cx", "cy", "omega"),
    "fourdof": ("vx", "vy", "omega", "s"),
}


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
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorised warp of positions sampled at times ``t`` back to ``t_ref``.

    ``center`` is only used by the fourdof model (its rotation/scaling
    pivot, normally the image centre).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    dt = np.asarray(t, dtype=np.float64) - t_ref
    th = params.theta
    if params.model == "flow2":
        # dt * theta goes straight into each output and is subtracted in
        # place, so the two outputs are the only arrays allocated after dt
        rx = np.multiply(dt, th[0], out=np.empty(np.broadcast(x, dt).shape))
        ry = np.multiply(dt, th[1], out=np.empty(np.broadcast(y, dt).shape))
        return np.subtract(x, rx, out=rx), np.subtract(y, ry, out=ry)
    if params.model == "rotation":
        cx, cy, omega = th
        ang = -omega * dt
        ca, sa = np.cos(ang), np.sin(ang)
        ux, uy = x - cx, y - cy
        return cx + ca * ux - sa * uy, cy + sa * ux + ca * uy
    if params.model == "fourdof":
        vx, vy, omega, s = th
        cx, cy = center
        ux = x - dt * vx - cx
        uy = y - dt * vy - cy
        ang = -omega * dt
        ca, sa = np.cos(ang), np.sin(ang)
        rx = ca * ux - sa * uy
        ry = sa * ux + ca * uy
        scale = np.exp(-s * dt)
        return cx + scale * rx, cy + scale * ry
    raise ValueError(f"unknown warp model {params.model!r}")


def warp_point(
    x: float,
    y: float,
    t: float,
    params: WarpParams,
    t_ref: float,
    center: tuple[float, float] = (0.0, 0.0),
) -> tuple[float, float]:
    """Scalar convenience wrapper around :func:`warp_points`."""
    wx, wy = warp_points(
        np.float64(x), np.float64(y), np.float64(t), params, t_ref, center
    )
    return float(wx), float(wy)


def warp_packet(packet, params: WarpParams) -> tuple[np.ndarray, np.ndarray]:
    """Warp all events of a packet to its reference time."""
    return warp_points(
        packet.x, packet.y, packet.t, params, packet.t_ref, packet.geometry.center
    )


def numeric_warp_jacobian(
    x: float,
    y: float,
    t: float,
    params: WarpParams,
    t_ref: float,
    h: float = 1e-2,
    center: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Central-difference sensitivity of the warped position to each
    parameter, shape (param_count, 2)."""
    out = np.empty((params.param_count, 2))
    for i in range(params.param_count):
        tp = params.theta.copy()
        tp[i] += h
        xp, yp = warp_point(x, y, t, params.replace_theta(tp), t_ref, center)
        tm = params.theta.copy()
        tm[i] -= h
        xm, ym = warp_point(x, y, t, params.replace_theta(tm), t_ref, center)
        out[i, 0] = (xp - xm) / (2.0 * h)
        out[i, 1] = (yp - ym) / (2.0 * h)
    return out


def displacement_sensitivity(
    packet,
    params: WarpParams,
    h: float = 1e-2,
    max_points: int = 512,
) -> np.ndarray:
    """Per-parameter bound on how far warped positions move per unit change
    of that parameter, estimated on an event subsample.

    Used to express pixel-unit step limits and perturbations in native
    parameter units.
    """
    idx = subsample_indices(packet.n, max_points)
    xs, ys, ts = packet.x[idx], packet.y[idx], packet.t[idx]
    center = packet.geometry.center
    kappa = np.empty(params.param_count)
    for i in range(params.param_count):
        tp = params.theta.copy()
        tp[i] += h
        xp, yp = warp_points(xs, ys, ts, params.replace_theta(tp), packet.t_ref, center)
        tm = params.theta.copy()
        tm[i] -= h
        xm, ym = warp_points(xs, ys, ts, params.replace_theta(tm), packet.t_ref, center)
        dx = (xp - xm) / (2.0 * h)
        dy = (yp - ym) / (2.0 * h)
        kappa[i] = float(np.sqrt(dx * dx + dy * dy).max())
    # a parameter with no positional effect gets a tiny floor so step
    # clamps expressed as pixels/kappa stay finite
    return np.maximum(kappa, 1e-12)
