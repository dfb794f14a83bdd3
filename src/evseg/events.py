"""Core event containers, validation and sliding-window slicing.

Events are kept as a structure of numpy arrays rather than one object per
event; every downstream kernel (warping, accumulation, clustering) is
vectorised over whole packets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator, NamedTuple

import numpy as np


class EmptyPacketError(ValueError):
    """Raised when an operation requires at least one event."""


class OutOfBoundsError(ValueError):
    """Raised in strict validation when event coordinates leave the sensor.

    Carries the offending row indices in ``indices``.
    """

    def __init__(self, message: str, indices: np.ndarray):
        super().__init__(message)
        self.indices = indices


class Event(NamedTuple):
    """A single camera measurement: position, time and polarity sign."""

    x: float
    y: float
    t: float
    polarity: int


@dataclass(frozen=True)
class ImageGeometry:
    """Sensor size in pixels.  Pixel centres sit at integer coordinates,
    so valid positions span [0, width-1] x [0, height-1]."""

    width: int
    height: int

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError(f"geometry must be positive, got {self.width}x{self.height}")

    @property
    def n_pixels(self) -> int:
        return self.width * self.height

    @property
    def center(self) -> tuple[float, float]:
        return ((self.width - 1) / 2.0, (self.height - 1) / 2.0)

    def contains(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        return (x >= 0.0) & (x <= self.width - 1) & (y >= 0.0) & (y <= self.height - 1)


@dataclass(frozen=True)
class EventPacket:
    """A time-sorted batch of events sharing one reference time.

    ``t_ref`` is the instant events are transported to before scoring
    cluster sharpness; it must lie inside [t[0], t[-1]].
    Treated as immutable after construction.
    """

    x: np.ndarray
    y: np.ndarray
    t: np.ndarray
    polarity: np.ndarray
    geometry: ImageGeometry
    t_ref: float = 0.0

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def duration(self) -> float:
        return float(self.t[-1] - self.t[0]) if self.n else 0.0

    def __getitem__(self, i: int) -> Event:
        return Event(float(self.x[i]), float(self.y[i]), float(self.t[i]), int(self.polarity[i]))

    def __iter__(self) -> Iterator[Event]:
        for i in range(self.n):
            yield self[i]


def make_packet(x, y, t, polarity, geometry: ImageGeometry, t_ref: float | None = None) -> EventPacket:
    """Build a packet from array-likes, coercing dtypes.

    ``t_ref`` defaults to the first timestamp.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    t = np.ascontiguousarray(t, dtype=np.float64)
    polarity = np.ascontiguousarray(polarity, dtype=np.int8)
    if not (x.shape == y.shape == t.shape == polarity.shape) or x.ndim != 1:
        raise ValueError("event component arrays must be 1-D and equally sized")
    if t_ref is None:
        t_ref = float(t[0]) if t.size else 0.0
    return EventPacket(x=x, y=y, t=t, polarity=polarity, geometry=geometry, t_ref=float(t_ref))


def subsample_indices(n: int, max_points: int) -> np.ndarray:
    """Rows ``0, s, 2s, ...`` of ``n`` events at stride
    ``s = max(1, n // max_points)``: every row when ``n < 2 * max_points``,
    otherwise at least ``max_points`` and fewer than twice as many."""
    step = max(1, n // max_points)
    return np.arange(0, n, step)


def validate_packet(packet: EventPacket, strict: bool = True) -> EventPacket:
    """Normalise a packet: sort by time, check bounds, clamp ``t_ref`` into
    the kept time span (a NaN ``t_ref`` becomes the first time).

    In strict mode events outside the sensor raise :class:`OutOfBoundsError`
    with the offending indices, and a NaN or infinite timestamp raises
    ``ValueError`` naming the first bad row; otherwise both kinds of row are
    dropped.  Polarities must be -1 or +1.  Idempotent: validating a
    validated packet is a no-op (modulo array copies).
    """
    if packet.n == 0:
        raise EmptyPacketError("packet holds no events")
    x, y, t, p = packet.x, packet.y, packet.t, packet.polarity

    bad_p = (p != 1) & (p != -1)
    if bad_p.any():
        raise ValueError(f"polarities must be -1 or +1; first bad row {int(np.argmax(bad_p))}")

    finite_t = np.isfinite(t)
    if strict and not finite_t.all():
        raise ValueError(f"timestamps must be finite; first bad row {int(np.argmin(finite_t))}")

    inside = packet.geometry.contains(x, y)
    keep = inside & finite_t
    if not keep.all():
        if strict:
            idx = np.flatnonzero(~inside)
            raise OutOfBoundsError(
                f"{idx.size} events outside {packet.geometry.width}x{packet.geometry.height}", idx
            )
        x, y, t, p = x[keep], y[keep], t[keep], p[keep]
        if x.size == 0:
            raise EmptyPacketError("no valid events left after filtering")

    order = np.argsort(t, kind="stable")
    if not np.array_equal(order, np.arange(order.size)):
        x, y, t, p = x[order], y[order], t[order], p[order]

    # a packet made from rows whose first time was NaN carries a NaN t_ref
    t_ref = float(t[0]) if np.isnan(packet.t_ref) else packet.t_ref
    t_ref = min(max(t_ref, float(t[0])), float(t[-1]))
    return EventPacket(x=x, y=y, t=t, polarity=p, geometry=packet.geometry, t_ref=t_ref)


def with_t_ref(packet: EventPacket, mode: str = "first") -> EventPacket:
    """Return the packet with ``t_ref`` at its first timestamp or midpoint."""
    if packet.n == 0:
        raise EmptyPacketError("packet holds no events")
    if mode == "first":
        t_ref = float(packet.t[0])
    elif mode == "midpoint":
        t_ref = float(0.5 * (packet.t[0] + packet.t[-1]))
    else:
        raise ValueError(f"unknown t_ref mode {mode!r}")
    return replace(packet, t_ref=t_ref)


def sliding_windows(
    events: EventPacket,
    window_events: int,
    stride_events: int | None = None,
    t_ref_mode: str = "first",
) -> Iterator[EventPacket]:
    """Yield fixed-count windows over a time-sorted recording.

    Each window holds exactly ``window_events`` events; starts advance by
    ``stride_events`` (default: half a window, rounded down, at least 1).
    A trailing partial window is dropped.  Every yielded packet gets its own
    ``t_ref`` per ``t_ref_mode``.
    """
    if window_events <= 0:
        raise ValueError("window_events must be positive")
    if stride_events is None:
        stride_events = max(1, window_events // 2)
    if stride_events <= 0:
        raise ValueError("stride_events must be positive")
    n = events.n
    for start in range(0, n - window_events + 1, stride_events):
        stop = start + window_events
        win = EventPacket(
            x=events.x[start:stop],
            y=events.y[start:stop],
            t=events.t[start:stop],
            polarity=events.polarity[start:stop],
            geometry=events.geometry,
            t_ref=events.t_ref,
        )
        yield with_t_ref(win, t_ref_mode)


def count_windows(n_events: int, window_events: int, stride_events: int | None = None) -> int:
    """Number of complete windows a recording of ``n_events`` yields."""
    if stride_events is None:
        stride_events = max(1, window_events // 2)
    if n_events < window_events:
        return 0
    return (n_events - window_events) // stride_events + 1
