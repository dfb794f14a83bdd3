"""Per-layer spans recorded from outside the program.

A traced run replaces evseg functions with wrappers that record one span per
call: layer name, start, end, parent span and a work count.  The solver,
variants, simulate and metrics modules bind ``iwe`` and ``warps`` functions
with ``from ... import``, so each name is replaced in every module that binds
it; replacing it only where it is defined would leave those calls unseen.
A name that is no longer bound where it is expected is listed in
``Tracer.missing`` and reported, never skipped silently.

Spans stay in memory and are reduced to the per-layer table at the end.  A
span's self time is its duration minus the time its wrapped children cover.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

# function name -> (layer, evseg modules expected to bind the name)
TARGETS = {
    "accumulate_weighted": ("iwe.accumulate", ("iwe", "solver")),
    "accumulate_unweighted": ("iwe.accumulate", ("iwe", "variants")),
    "smooth": ("iwe.smooth", ("iwe", "solver", "variants")),
    "sample_local": ("iwe.sample_local", ("iwe", "solver", "variants", "simulate")),
    "variance_contrast": ("iwe.variance_contrast", ("iwe", "solver", "variants")),
    "warp_points": ("warps.warp", ("warps", "solver", "simulate")),
    "warp_packet": ("warps.warp", ("warps", "solver", "variants")),
    "displacement_sensitivity": (
        "warps.displacement_sensitivity",
        ("warps", "solver", "variants"),
    ),
    "initialize_greedy": ("solver.init", ("solver", "variants", "metrics")),
    "update_associations": ("solver.assoc", ("solver",)),
    "ascend_motion": ("solver.ascent", ("solver",)),
    "objective": ("solver.objective", ("solver", "variants")),
    "apply_collapse": ("solver.collapse", ("solver",)),
    "segment": ("solver.segment", ("solver", "metrics")),
    "segment_stream": ("solver.stream", ("solver",)),
    "sliding_windows": ("events.sliding_windows", ("events", "solver")),
    "segment_mixture": ("variants.mixture", ("variants", "metrics")),
    "segment_fuzzy": ("variants.fuzzy", ("variants", "metrics")),
    "mixture_e_step": ("variants.e_step", ("variants",)),
    "fuzzy_e_step": ("variants.e_step", ("variants",)),
    "mixture_m_step": ("variants.m_step", ("variants",)),
    "simulate": ("simulate.simulate", ("simulate", "metrics")),
    "render_scene": ("simulate.render_scene", ("simulate",)),
    "per_event_accuracy": ("metrics.per_event_accuracy", ("metrics",)),
}

# spans that run a whole solver; builds and iterations are charged to them
CALLS = ("solver.segment", "solver.stream", "variants.mixture", "variants.fuzzy")
PHASES = (
    "solver.init",
    "solver.assoc",
    "solver.ascent",
    "solver.objective",
    "solver.collapse",
    "variants.e_step",
    "variants.m_step",
)

# per-layer metric -> (unit, better, the end-to-end metric and workloads it
# should move); self times unless the name ends in wall_s
_LINKS = {
    "iwe.accumulate": "solve_s on two_strip, many_clusters most; three_methods least",
    "iwe.smooth": "solve_s on stream; barely on two_strip",
    "iwe.sample_local": "solve_s on three_methods; little elsewhere",
    "iwe.variance_contrast": "solve_s on all workloads",
    "warps.warp": "solve_s on fan_coin; no change on two_strip",
    "warps.displacement_sensitivity": "solve_s on fan_coin; no change on two_strip",
    "solver.init": "solve_s on two_strip, fan_coin; many_clusters must not move",
    "solver.assoc": "solve_s on every layered workload",
    "solver.ascent": "solve_s on every layered workload",
    "solver.objective": "solve_s on every layered workload",
    "solver.collapse": "solve_s on every layered workload",
    "solver.builds_per_iter": "solve_s on every layered workload (the main cost unit)",
    "solver.iterations": "solve_s on stream; accuracy and motion_err guard it",
    "solver.converged_frac": "solve_s on stream; accuracy and motion_err guard it",
    "solver.stream": "solve_s on stream only",
    "variants": "solve_s on three_methods only (through its layered third elsewhere)",
    "simulate": "setup_s, mostly on fan_coin",
    "events.sliding_windows": "solve_s on stream; expected negligible",
    "metrics.per_event_accuracy": "nothing: scoring is kept out of solve_s",
    "result": "quality of the traced pass; repeats exactly for a seed",
    "process": "solve_s on all: page faults on fresh numpy buffers (untraced; not exact)",
    "trace": "describes the tracing itself",
}


def _link(name: str) -> str:
    prefix = max((k for k in _LINKS if name == k or name.startswith(k + ".")), key=len)
    return _LINKS[prefix]


PER_LAYER = {
    name: (unit, better, _link(name))
    for name, unit, better in (
        ("iwe.accumulate.calls", "count", "lower"),
        ("iwe.accumulate.events", "count", "lower"),
        ("iwe.accumulate.self_s", "s", "lower"),
        ("iwe.accumulate.ns_per_event", "ns/event", "lower"),
        ("iwe.smooth.calls", "count", "lower"),
        ("iwe.smooth.self_s", "s", "lower"),
        ("iwe.smooth.ns_per_pixel", "ns/pixel", "lower"),
        ("iwe.sample_local.calls", "count", "lower"),
        ("iwe.sample_local.events", "count", "lower"),
        ("iwe.sample_local.self_s", "s", "lower"),
        ("iwe.sample_local.ns_per_event", "ns/event", "lower"),
        ("iwe.variance_contrast.calls", "count", "lower"),
        ("iwe.variance_contrast.self_s", "s", "lower"),
        ("warps.warp.calls", "count", "lower"),
        ("warps.warp.events", "count", "lower"),
        ("warps.warp.self_s", "s", "lower"),
        ("warps.warp.ns_per_event", "ns/event", "lower"),
        ("warps.displacement_sensitivity.calls", "count", "lower"),
        ("warps.displacement_sensitivity.self_s", "s", "lower"),
        ("solver.init.wall_s", "s", "lower"),
        ("solver.init.builds", "count", "lower"),
        ("solver.init.scan_evals", "count", "lower"),
        ("solver.assoc.wall_s", "s", "lower"),
        ("solver.assoc.builds", "count", "lower"),
        ("solver.ascent.wall_s", "s", "lower"),
        ("solver.ascent.builds", "count", "lower"),
        ("solver.ascent.builds_per_step", "builds/step", "lower"),
        ("solver.objective.wall_s", "s", "lower"),
        ("solver.objective.builds", "count", "lower"),
        ("solver.collapse.wall_s", "s", "lower"),
        ("solver.builds_per_iter", "builds/iter", "lower"),
        ("solver.iterations", "count", "lower"),
        ("solver.converged_frac", "ratio", "higher"),
        ("solver.stream.warm_frac", "ratio", "higher"),
        ("solver.stream.check_builds", "count", "lower"),
        ("variants.mixture.wall_s", "s", "lower"),
        ("variants.fuzzy.wall_s", "s", "lower"),
        ("variants.e_step.wall_s", "s", "lower"),
        ("variants.m_step.wall_s", "s", "lower"),
        ("variants.builds_per_iter", "builds/iter", "lower"),
        ("simulate.simulate.wall_s", "s", "lower"),
        ("simulate.render_scene.calls", "count", "lower"),
        ("simulate.render_scene.self_s", "s", "lower"),
        ("events.sliding_windows.wall_s", "s", "lower"),
        ("metrics.per_event_accuracy.wall_s", "s", "lower"),
        ("result.accuracy", "ratio", "higher"),
        ("result.motion_err", "ratio", "lower"),
        ("result.objective", "sharpness", "higher"),
        ("process.minor_faults", "count", "lower"),
        ("process.sys_s", "s", "lower"),
        ("trace.overhead_frac", "ratio", "lower"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.missing_names", "count", "lower"),
    )
}

_END = object()


@dataclass
class Span:
    layer: str
    parent: int
    start: float
    end: float = 0.0
    child: float = 0.0      # time covered by direct children
    events: int = 0         # events or pixels the call worked on
    full: bool = False      # an image built on the sensor grid
    info: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.end - self.start - self.child


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _size(a) -> int:
    return int(np.size(a)) if a is not None else 0


class Tracer:
    """Installs the wrappers and holds the spans of one traced run."""

    def __init__(self) -> None:
        self.spans: list = []
        self.missing: list = []
        self.sensor = None
        self._stack: list = []
        self._saved: list = []

    # -- spans ---------------------------------------------------------------

    def open(self, layer: str, events: int = 0, full: bool = False) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(layer, parent, 0.0, events=events, full=full))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        self.spans[idx].start = time.perf_counter()
        return idx

    def close(self, idx: int) -> None:
        end = time.perf_counter()
        span = self.spans[idx]
        span.end = end
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child += end - span.start

    @contextmanager
    def root(self, name: str):
        """A top-level span: ``setup``, ``solve`` or ``score``."""
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    # -- wrappers ------------------------------------------------------------

    def _measure(self, name, args, kwargs):
        """Work count and full-grid flag of one call, taken before timing."""
        if name == "accumulate_weighted":
            geo = _arg(args, kwargs, 3, "geometry")
            return _size(_arg(args, kwargs, 0, "wx")), geo == self.sensor
        if name == "accumulate_unweighted":
            geo = _arg(args, kwargs, 2, "geometry")
            return _size(_arg(args, kwargs, 0, "wx")), geo == self.sensor
        if name == "smooth":
            img = _arg(args, kwargs, 0, "iwe")
            return (_size(img.pixels) if img is not None else 0), False
        if name == "sample_local":
            return _size(_arg(args, kwargs, 1, "wx")), False
        if name == "warp_points":
            return _size(_arg(args, kwargs, 0, "x")), False
        if name == "warp_packet":
            pk = _arg(args, kwargs, 0, "packet")
            return (pk.n if pk is not None else 0), False
        return 0, False

    def _wrap(self, name: str, layer: str, orig):
        tracer = self
        if inspect.isgeneratorfunction(orig):
            # the work happens as the caller iterates: one span per item

            @functools.wraps(orig)
            def generator(*args, **kwargs):
                it = orig(*args, **kwargs)
                while True:
                    idx = tracer.open(layer)
                    try:
                        item = next(it, _END)
                    finally:
                        tracer.close(idx)
                    if item is _END:
                        return
                    yield item

            return generator

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            # warp_packet calls warp_points, accumulate_unweighted calls
            # accumulate_weighted: count the outer call only
            if stack and tracer.spans[stack[-1]].layer == layer:
                return orig(*args, **kwargs)
            events, full = tracer._measure(name, args, kwargs)
            idx = tracer.open(layer, events, full)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if layer in CALLS:
                info = tracer.spans[idx].info
                info["iterations"] = int(out.iterations)
                info["converged"] = bool(out.converged)
                info["warm"] = _arg(args, kwargs, 4, "init") is not None
            return out

        return wrapper

    def install(self) -> None:
        """Replace every target name in every module expected to bind it."""
        if self._saved:
            return
        self.missing = []
        wrappers: dict = {}
        for name, (layer, modules) in TARGETS.items():
            for mod_name in modules:
                module = importlib.import_module(f"evseg.{mod_name}")
                orig = getattr(module, name, None)
                if not callable(orig):
                    self.missing.append(f"evseg.{mod_name}.{name}")
                    continue
                if id(orig) not in wrappers:
                    wrappers[id(orig)] = self._wrap(name, layer, orig)
                self._saved.append((module, name, orig))
                setattr(module, name, wrappers[id(orig)])

    def uninstall(self) -> None:
        for module, name, orig in reversed(self._saved):
            setattr(module, name, orig)
        self._saved = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Reduce the spans under the roots ``setup``, ``solve`` and ``score`` to
    the per-layer table.

    Counts (calls, builds, events, iterations) repeat exactly for a seed;
    times are self times unless the name ends in ``wall_s``.
    """
    spans = tracer.spans
    n = len(spans)
    roots = {s.layer: i for i, s in enumerate(spans) if s.parent < 0}
    # score is missing when the traced solver call raised
    setup, solve, score = roots["setup"], roots["solve"], roots.get("score", -1)
    root = [0] * n
    call = [-1] * n
    phase = [-1] * n
    for i, s in enumerate(spans):
        p = s.parent
        root[i] = i if p < 0 else root[p]
        call[i] = i if s.layer in CALLS else (call[p] if p >= 0 else -1)
        phase[i] = i if s.layer in PHASES else (phase[p] if p >= 0 else -1)

    def layer_of(idx):
        return spans[idx].layer if idx >= 0 else None

    def under(r, layer):
        return [i for i in range(n) if root[i] == r and spans[i].layer == layer]

    def total(idxs, attr="self_time"):
        return float(sum(getattr(spans[i], attr) for i in idxs))

    def events(idxs):
        return int(sum(spans[i].events for i in idxs))

    m = {}
    for layer, per in (
        ("iwe.accumulate", "ns_per_event"),
        ("iwe.smooth", "ns_per_pixel"),
        ("iwe.sample_local", "ns_per_event"),
        ("iwe.variance_contrast", None),
        ("warps.warp", "ns_per_event"),
        ("warps.displacement_sensitivity", None),
    ):
        idxs = under(solve, layer)
        m[f"{layer}.calls"] = len(idxs)
        m[f"{layer}.self_s"] = total(idxs)
        if per == "ns_per_event":
            m[f"{layer}.events"] = events(idxs)
        if per:
            m[f"{layer}.{per}"] = _ratio(total(idxs), events(idxs), 1e9)

    builds = [i for i in under(solve, "iwe.accumulate") if spans[i].full]
    scans = [i for i in under(solve, "iwe.accumulate") if not spans[i].full]

    def builds_in_phase(layer, call_layer=None):
        return sum(
            1
            for i in builds
            if layer_of(phase[i]) == layer
            and (call_layer is None or layer_of(call[i]) == call_layer)
        )

    m["solver.init.wall_s"] = total(under(solve, "solver.init"), "duration")
    m["solver.init.builds"] = builds_in_phase("solver.init")
    m["solver.init.scan_evals"] = sum(1 for i in scans if layer_of(phase[i]) == "solver.init")
    for key, layer in (("assoc", "solver.assoc"), ("ascent", "solver.ascent")):
        m[f"solver.{key}.wall_s"] = total(under(solve, layer), "duration")
        m[f"solver.{key}.builds"] = builds_in_phase(layer)
    steps = sum(
        1
        for i in under(solve, "warps.displacement_sensitivity")
        if layer_of(phase[i]) == "solver.ascent"
    )
    m["solver.ascent.builds_per_step"] = _ratio(m["solver.ascent.builds"], steps)
    layered_obj = [
        i for i in under(solve, "solver.objective") if layer_of(call[i]) == "solver.segment"
    ]
    m["solver.objective.wall_s"] = total(layered_obj, "duration")
    m["solver.objective.builds"] = builds_in_phase("solver.objective", "solver.segment")
    m["solver.collapse.wall_s"] = total(under(solve, "solver.collapse"), "duration")

    segs = under(solve, "solver.segment")
    iters = sum(spans[i].info.get("iterations", 0) for i in segs)
    loop_builds = sum(
        1
        for i in builds
        if layer_of(call[i]) == "solver.segment" and layer_of(phase[i]) != "solver.init"
    )
    m["solver.builds_per_iter"] = _ratio(loop_builds, iters)
    m["solver.iterations"] = iters
    m["solver.converged_frac"] = _ratio(
        sum(1 for i in segs if spans[i].info.get("converged")), len(segs)
    )
    windows = [i for i in segs if layer_of(call[spans[i].parent]) == "solver.stream"]
    m["solver.stream.warm_frac"] = _ratio(
        sum(1 for i in windows if spans[i].info.get("warm")), len(windows)
    )
    m["solver.stream.check_builds"] = sum(
        1 for i in builds if layer_of(call[i]) == "solver.stream"
    )

    mixture = under(solve, "variants.mixture")
    fuzzy = under(solve, "variants.fuzzy")
    m["variants.mixture.wall_s"] = total(mixture, "duration")
    m["variants.fuzzy.wall_s"] = total(fuzzy, "duration")
    m["variants.e_step.wall_s"] = total(under(solve, "variants.e_step"), "duration")
    # the fuzzy motion step is inline in its loop: charge it whatever of the
    # fuzzy call is not its e-step, its contrast trace or an initialisation
    fuzzy_m = 0.0
    for f in fuzzy:
        kids = [
            i
            for i in range(f + 1, n)
            if spans[i].parent == f
            and spans[i].layer in ("variants.e_step", "solver.objective", "solver.init")
        ]
        fuzzy_m += spans[f].duration - total(kids, "duration")
    m["variants.m_step.wall_s"] = total(under(solve, "variants.m_step"), "duration") + fuzzy_m
    variant_iters = sum(spans[i].info.get("iterations", 0) for i in mixture + fuzzy)
    m["variants.builds_per_iter"] = _ratio(
        sum(1 for i in builds if layer_of(call[i]) in ("variants.mixture", "variants.fuzzy")),
        variant_iters,
    )

    m["simulate.simulate.wall_s"] = total(under(setup, "simulate.simulate"), "duration")
    renders = under(setup, "simulate.render_scene")
    m["simulate.render_scene.calls"] = len(renders)
    m["simulate.render_scene.self_s"] = total(renders)
    m["events.sliding_windows.wall_s"] = total(under(solve, "events.sliding_windows"), "duration")
    m["metrics.per_event_accuracy.wall_s"] = total(
        under(score, "metrics.per_event_accuracy"), "duration"
    )

    # what the table leaves unexplained: self time of the root and of whole
    # solver calls (their loop glue)
    solve_wall = spans[solve].duration
    glue = spans[solve].self_time + total(
        [i for i in range(n) if root[i] == solve and spans[i].layer in CALLS]
    )
    m["trace.coverage"] = _ratio(solve_wall - glue, solve_wall)
    m["trace.missing_names"] = len(tracer.missing)
    return m
