"""Core event containers, validation and sliding-window slicing.

Events are kept as a structure of numpy arrays rather than one object per
event; every downstream kernel (warping, accumulation, clustering) is
vectorised over whole packets.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterator

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
    """A batch of events in time order sharing one reference time.

    ``t_ref`` is the instant events are transported to before scoring
    cluster sharpness; it must lie inside [t[0], t[-1]].  Treated as
    immutable after construction; :func:`validate_packet` checks a packet
    and :meth:`take` cuts one.
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

    def take(self, rows) -> "EventPacket":
        """The events at ``rows`` on the same sensor and reference time:
        views of the arrays for a slice, copies for a boolean mask or an
        index array."""
        return replace(
            self, x=self.x[rows], y=self.y[rows], t=self.t[rows], polarity=self.polarity[rows]
        )


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


def subsample_stride(n: int, max_points: int) -> int:
    """Stride ``s = max(1, n // max_points)`` of a subsample ``[::s]`` of
    ``n`` events: every row when ``n < 2 * max_points``, otherwise at least
    ``max_points`` rows and fewer than twice as many."""
    return max(1, n // max_points)


def validate_packet(packet: EventPacket, strict: bool = True) -> EventPacket:
    """Check a packet and clamp ``t_ref`` into the kept time span (a NaN
    ``t_ref`` becomes the first time).

    In strict mode events outside the sensor raise :class:`OutOfBoundsError`
    with the offending indices, and a NaN or infinite timestamp raises
    ``ValueError`` naming the first bad row; otherwise both kinds of row are
    dropped.  Polarities must be -1 or +1.  In both modes the kept rows must
    be in time order, or ``ValueError`` names the first pair out of order
    by their rows in ``packet``: every per-event output pairs with the
    caller's rows by position, so rows are never reordered.  Idempotent:
    validating a validated packet is a no-op (modulo array copies).
    """
    if packet.n == 0:
        raise EmptyPacketError("packet holds no events")

    bad_p = (packet.polarity != 1) & (packet.polarity != -1)
    if bad_p.any():
        raise ValueError(f"polarities must be -1 or +1; first bad row {int(np.argmax(bad_p))}")

    finite_t = np.isfinite(packet.t)
    if strict and not finite_t.all():
        raise ValueError(f"timestamps must be finite; first bad row {int(np.argmin(finite_t))}")

    inside = packet.geometry.contains(packet.x, packet.y)
    keep = inside & finite_t
    kept = packet
    if not keep.all():
        if strict:
            idx = np.flatnonzero(~inside)
            raise OutOfBoundsError(
                f"{idx.size} events outside {packet.geometry.width}x{packet.geometry.height}", idx
            )
        kept = packet.take(keep)
        if kept.n == 0:
            raise EmptyPacketError("no valid events left after filtering")

    back = np.diff(kept.t) < 0.0
    if back.any():
        rows = np.flatnonzero(keep)
        i = int(np.argmax(back))
        raise ValueError(
            f"event times must not decrease: row {rows[i + 1]} is earlier "
            f"than row {rows[i]} (rows counted from 0)"
        )

    first, last = float(kept.t[0]), float(kept.t[-1])
    # a packet made from rows whose first time was NaN carries a NaN t_ref
    t_ref = first if np.isnan(packet.t_ref) else packet.t_ref
    return replace(kept, t_ref=min(max(t_ref, first), last))


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


def window_stride(window_events: int, stride_events: int | None = None) -> int:
    """Events between window starts: ``stride_events``, or half a window
    (rounded down, at least 1) when it is None.  Raises ``ValueError`` unless
    the window and the stride are positive."""
    if window_events <= 0:
        raise ValueError("window_events must be positive")
    if stride_events is None:
        return max(1, window_events // 2)
    if stride_events <= 0:
        raise ValueError("stride_events must be positive")
    return stride_events


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
    stride = window_stride(window_events, stride_events)
    for start in range(0, events.n - window_events + 1, stride):
        yield with_t_ref(events.take(slice(start, start + window_events)), t_ref_mode)


def count_windows(n_events: int, window_events: int, stride_events: int | None = None) -> int:
    """Number of complete windows a recording of ``n_events`` yields; raises
    ``ValueError`` for the same arguments :func:`sliding_windows` does."""
    stride = window_stride(window_events, stride_events)
    if n_events < window_events:
        return 0
    return (n_events - window_events) // stride + 1
