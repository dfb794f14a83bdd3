"""Text and image formats plus run configuration parsing.

Event files are whitespace-separated ``t x y p`` lines with ``#`` comments;
a ``# width W height H`` comment states the sensor size.  Polarity may be
0/1 or -1/+1 on disk and is always -1/+1 in memory.  Floats are written
with ``repr`` so a write/read round trip reproduces values exactly.
"""
from __future__ import annotations

import colorsys
from dataclasses import dataclass, fields as dc_fields, replace
from pathlib import Path

import numpy as np

from .events import EventPacket, ImageGeometry, make_packet
from .iwe import Iwe
from .solver import SegmentationResult, SolverConfig, cluster_image
from .warps import MODEL_PARAM_COUNT, WarpParams


class ParseError(ValueError):
    """Raised for malformed lines; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        if line_number is not None:
            message = f"line {line_number}: {message}"
        super().__init__(message)
        self.line_number = line_number


class MissingGeometryError(ValueError):
    """Raised when neither the file header nor the caller supplies a sensor
    size."""


def _fmt(value: float) -> str:
    return repr(float(value))


def _text_lines(path):
    """``(line number, stripped line)`` for each non-blank line of a text
    file, numbered from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line:
                yield lineno, line


def read_events_text(
    path, geometry: ImageGeometry | None = None
) -> tuple[EventPacket, ImageGeometry]:
    """Load a ``t x y p`` event file.

    A ``# width W height H`` header line sets the sensor size unless the
    caller overrides it.  Raises :class:`ParseError` with the line number on
    malformed rows and :class:`MissingGeometryError` when no size is known.
    """
    ts, xs, ys, ps = [], [], [], []
    file_geometry = None
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            parts = line[1:].split()
            if len(parts) >= 4 and parts[0] == "width" and parts[2] == "height":
                try:
                    file_geometry = ImageGeometry(int(parts[1]), int(parts[3]))
                except ValueError as exc:
                    raise ParseError(f"bad geometry header: {exc}", lineno)
            continue
        parts = line.split()
        if len(parts) != 4:
            raise ParseError(f"expected 4 fields, got {len(parts)}", lineno)
        try:
            t = float(parts[0])
            x = float(parts[1])
            y = float(parts[2])
        except ValueError:
            raise ParseError(f"non-numeric field in {line!r}", lineno)
        if parts[3] in ("1", "+1"):
            p = 1
        elif parts[3] in ("0", "-1"):
            p = -1
        else:
            raise ParseError(f"polarity must be 0/1 or -1/+1, got {parts[3]!r}", lineno)
        ts.append(t)
        xs.append(x)
        ys.append(y)
        ps.append(p)
    geom = geometry or file_geometry
    if geom is None:
        raise MissingGeometryError(
            f"{path} has no '# width W height H' header and no override was given"
        )
    packet = make_packet(xs, ys, ts, ps, geom)
    return packet, geom


def write_events_text(path, packet: EventPacket) -> None:
    """Write events with a geometry header; floats keep full precision."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# width {packet.geometry.width} height {packet.geometry.height}\n")
        for i in range(packet.n):
            fh.write(
                f"{_fmt(packet.t[i])} {_fmt(packet.x[i])} {_fmt(packet.y[i])} "
                f"{1 if packet.polarity[i] > 0 else 0}\n"
            )


def write_ground_truth(path, labels: np.ndarray, truth: dict) -> None:
    """Write per-event labels with the true motion of each label in comment
    headers (``# motion <label> <model> <theta...>``)."""
    with open(path, "w", encoding="utf-8") as fh:
        for label in sorted(truth):
            prm = truth[label]
            theta = " ".join(_fmt(v) for v in prm.theta)
            fh.write(f"# motion {label} {prm.model} {theta}\n")
        for lab in labels:
            fh.write(f"{int(lab)}\n")


def read_ground_truth(path) -> tuple[np.ndarray, dict]:
    """Per-event labels (0 for noise, objects from 1) and the true motion of
    each label.  Raises :class:`ParseError` with the line number for a label
    that is not a non-negative integer or a bad ``# motion`` header."""
    labels = []
    truth: dict = {}
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "motion":
                try:
                    label = int(parts[1])
                    model = parts[2]
                    theta = np.array([float(v) for v in parts[3:]])
                    truth[label] = WarpParams(model, theta)
                except (IndexError, ValueError) as exc:
                    raise ParseError(f"bad motion header: {exc}", lineno)
            continue
        try:
            label = int(line)
        except ValueError:
            raise ParseError(f"label must be an integer, got {line!r}", lineno)
        if label < 0:
            raise ParseError(f"label must not be negative, got {label}", lineno)
        labels.append(label)
    return np.asarray(labels, dtype=np.int32), truth


def write_associations_csv(path, result: SegmentationResult) -> None:
    """One row per event with that event's cluster shares; comment headers
    record which clusters are live and their motion parameters."""
    alive = result.clusters.alive
    live = [str(j + 1) for j in np.flatnonzero(alive)]
    n_clusters = result.clusters.n_clusters
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# live {' '.join(live)}\n")
        for j, prm in enumerate(result.clusters.params):
            theta = " ".join(_fmt(v) for v in prm.theta)
            state = "alive" if alive[j] else "dead"
            fh.write(f"# cluster {j + 1} {prm.model} {state} {theta}\n")
        fh.write(",".join(f"p_{j + 1}" for j in range(n_clusters)) + "\n")
        for row in result.associations:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def read_associations_csv(path) -> tuple[np.ndarray, np.ndarray, list]:
    """Returns (associations, alive mask, cluster params list).

    Raises :class:`ParseError` with the line number for a row whose field
    count differs from the column header's, for a share that is not a
    finite non-negative number, for a ``# live`` entry that is not a column
    number (1 to the column count), and for ``# cluster`` headers that
    disagree with the table: numbered out of sequence, more or fewer of them
    than columns, or an ``alive``/``dead`` state that contradicts
    ``# live``.  A file without ``# cluster`` headers carries no
    params."""
    rows = []
    live_line = None
    live: list = []
    params: list = []
    states: list = []  # (line number, state) of each cluster header
    width = width_line = None
    for lineno, line in _text_lines(path):
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and parts[0] == "live":
                live_line, live = lineno, parts[1:]
            elif parts and parts[0] == "cluster":
                try:
                    index, model, state = parts[1], parts[2], parts[3]
                    theta = np.array([float(v) for v in parts[4:]])
                    params.append(WarpParams(model, theta))
                except (IndexError, ValueError) as exc:
                    raise ParseError(f"bad cluster header: {exc}", lineno)
                if index != str(len(params)):
                    raise ParseError(
                        f"cluster header {index!r} out of sequence, expected {len(params)}",
                        lineno,
                    )
                if state not in ("alive", "dead"):
                    raise ParseError(f"cluster state must be alive or dead, got {state!r}", lineno)
                states.append((lineno, state))
            continue
        fields = line.split(",")
        if width is None:
            width, width_line = len(fields), lineno  # the p_1,...,p_J column row
            continue
        if len(fields) != width:
            raise ParseError(f"expected {width} fields, got {len(fields)}", lineno)
        try:
            row = [float(v) for v in fields]
        except ValueError:
            raise ParseError(f"non-numeric association row {line!r}", lineno)
        if not all(0.0 <= v < np.inf for v in row):
            raise ParseError(f"shares must be finite and non-negative, got {line!r}", lineno)
        rows.append(row)
    if not rows:
        raise ParseError(f"{path} holds no association rows")
    alive = np.zeros(width, dtype=bool)
    for v in live:
        if not (v.isdecimal() and 1 <= int(v) <= width):
            raise ParseError(f"live cluster {v!r} is not a column from 1 to {width}", live_line)
        alive[int(v) - 1] = True
    if params and len(params) != width:
        raise ParseError(f"{len(params)} cluster headers for {width} columns", width_line)
    for j, (lineno, state) in enumerate(states):
        if (state == "alive") != alive[j]:
            raise ParseError(f"cluster {j + 1} is {state} but '# live' says otherwise", lineno)
    return np.asarray(rows), alive, params


def write_params_csv(path, result: SegmentationResult) -> None:
    """Cluster summary table: model, liveness, association mass, theta."""
    mass = result.associations.sum(axis=0)
    max_p = max(MODEL_PARAM_COUNT.values())
    with open(path, "w", encoding="utf-8") as fh:
        cols = ",".join(f"theta_{i}" for i in range(max_p))
        fh.write(f"cluster,model,alive,mass,{cols}\n")
        for j, prm in enumerate(result.clusters.params):
            theta = list(prm.theta) + [np.nan] * (max_p - prm.param_count)
            fh.write(
                f"{j + 1},{prm.model},{int(result.clusters.alive[j])},{_fmt(mass[j])},"
                + ",".join(_fmt(v) for v in theta)
                + "\n"
            )


def _write_netpbm(path, magic: str, levels: np.ndarray) -> None:
    """Binary 8-bit PGM (``P5``) or PPM (``P6``) of ``levels`` on a 0-255
    scale, rounded and clipped."""
    data = np.clip(np.rint(levels), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(f"{magic}\n{levels.shape[1]} {levels.shape[0]}\n255\n".encode("ascii"))
        fh.write(data.tobytes())


def write_pgm(path, iwe: Iwe) -> None:
    """Binary 8-bit PGM of an event image, scaled so the peak maps to 255."""
    img = iwe.pixels
    peak = float(img.max())
    _write_netpbm(path, "P5", (img / peak * 255.0) if peak > 0 else np.zeros_like(img))


def cluster_palette(n_clusters: int) -> np.ndarray:
    """Evenly spaced fully saturated hues, one per cluster."""
    return np.array(
        [colorsys.hsv_to_rgb(j / n_clusters, 1.0, 1.0) for j in range(n_clusters)]
    )


def _live_images(packet: EventPacket, result: SegmentationResult,
                 config: SolverConfig | None):
    """``(j, image)`` for each live cluster j: its shares of the events,
    deposited at its warped positions and blurred.  Each image is the
    solver's scratch (see :func:`cluster_image`), valid only until the next
    one is built."""
    config = config or SolverConfig()
    for j in np.flatnonzero(result.clusters.alive):
        yield j, cluster_image(
            packet, result.clusters.params[j], result.associations[:, j], config
        )


def render_segmentation(
    packet: EventPacket, result: SegmentationResult, config: SolverConfig | None = None
) -> np.ndarray:
    """Float RGB composite: each live cluster deposits its share of every
    event at that cluster's warped position in its own hue."""
    geom = packet.geometry
    rgb = np.zeros((geom.height, geom.width, 3))
    palette = cluster_palette(result.clusters.n_clusters)
    for j, img in _live_images(packet, result, config):
        rgb += img.pixels[:, :, None] * palette[j]
    peak = float(rgb.max())
    if peak > 0:
        rgb = np.sqrt(rgb / peak)  # compress so faint structure stays visible
    return rgb


def write_ppm(path, rgb: np.ndarray) -> None:
    """Binary 8-bit PPM from a float RGB array in [0, 1]."""
    _write_netpbm(path, "P6", rgb * 255.0)


def write_segmentation_ppm(path, packet: EventPacket, result: SegmentationResult,
                           config: SolverConfig | None = None) -> None:
    write_ppm(path, render_segmentation(packet, result, config))


def write_cluster_pgms(
    out_dir, packet: EventPacket, result: SegmentationResult,
    config: SolverConfig | None = None, suffix: str = "",
) -> list:
    """Per-live-cluster warped images as PGM files, ``cluster_<j><suffix>.pgm``
    with j counted from 1; returns the paths."""
    paths = []
    for j, img in _live_images(packet, result, config):
        paths.append(Path(out_dir) / f"cluster_{j + 1}{suffix}.pgm")
        write_pgm(paths[-1], img)
    return paths


# ---------------------------------------------------------------------------
# run configuration


@dataclass
class RunConfig(SolverConfig):
    """Bundle of run settings the command line and config files populate:
    the solver settings it inherits, checked when it is made, plus the
    run's own."""

    method: str = "layered"
    n_clusters: int = 2
    models: str = "flow2"
    window_events: int = 0          # 0: whole file as one packet
    stride_events: int = 0          # 0: half window
    t_ref_mode: str = "first"
    fuzziness: float = 2.0

    def model_list(self) -> list:
        return [m.strip() for m in self.models.split(",") if m.strip()]


def read_config_file(path, base: RunConfig | None = None) -> RunConfig:
    """Apply ``key = value`` lines to a run configuration.

    Unknown keys and untypeable values raise :class:`ParseError` with the
    line number; a solver setting that :class:`SolverConfig` rejects raises
    its ``ValueError`` once the file is read.
    """
    cfg = base or RunConfig()
    known = {f.name for f in dc_fields(RunConfig)}
    values = {}
    for lineno, line in _text_lines(path):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"expected key=value, got {line!r}", lineno)
        key, _, value = (part.strip() for part in line.partition("="))
        if key not in known:
            raise ParseError(f"unknown setting {key!r}", lineno)
        try:
            values[key] = type(getattr(cfg, key))(value)
        except ValueError as exc:
            raise ParseError(str(exc), lineno)
    return replace(cfg, **values)
