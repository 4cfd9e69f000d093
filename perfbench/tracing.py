"""Layer-boundary tracing for the benchmark's traced run.

The tracer replaces public functions of the program with timing wrappers,
at the name the calling module looks them up under (for example
`berrypick.controller.capture_rig`, which the controller calls, rather than
`berrypick.camera.capture_rig`). Each wrapper records a span: name, start,
end and the enclosing span. Spans are aggregated per op into calls, total
time and self time (total minus the time covered by child spans), and the
spans of the first few ops are kept whole for the trace file. Everything
stays in memory until the run ends.

A target that the program no longer has is reported as missing; the
metrics that depend on it read 0 and the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

# (module the caller looks the name up in, attribute, span name)
TARGETS = [
    ("berrypick.cli", "run_one", "cli.run_one"),
    ("berrypick.cli", "build_scenario", "config.build_scenario"),
    ("berrypick.cli", "run_harvest", "controller.run_harvest"),
    ("berrypick.controller", "capture_rig", "camera.capture_rig"),
    ("berrypick.camera", "sample_surface_arrays", "scene.sample_surface_arrays"),
    ("berrypick.controller", "localize", "localization.localize"),
    ("berrypick.localization", "localize", "localization.localize"),
    ("berrypick.localization", "transform_cloud", "localization.transform"),
    ("berrypick.localization", "merge_clouds", "localization.merge"),
    ("berrypick.localization", "crop_window", "localization.crop"),
    ("berrypick.localization", "threshold_red", "localization.threshold"),
    ("berrypick.localization", "cluster_indices", "localization.cluster"),
    ("berrypick.localization", "boxes_of", "localization.boxes"),
    ("berrypick.controller", "laser_step", "cutter.laser_step"),
    ("berrypick.controller", "robot_move", "motion.robot_move"),
]

# ops whose spans are kept whole for the trace file
RAW_OPS = 2


def _count_len(key):
    def count(tracer, result, _ctx):
        tracer.add(key, len(result))
    return count


def _count_cloud_pair(tracer, result, _ctx):
    tracer.add("camera.points_out", sum(len(c) for c in result))


def _count_batch(tracer, result, _ctx):
    tracer.add("scene.points_sampled", len(result.xyz))


def _count_events(tracer, result, _ctx):
    tracer.add("controller.events", len(result[0]))


def _count_clusters(tracer, _result, telemetry):
    for key in ("n_clusters_raw", "discarded_small", "discarded_large"):
        if telemetry is not None and key in telemetry:
            tracer.add("localization." + key, telemetry[key])


COUNTERS = {
    "scene.sample_surface_arrays": _count_batch,
    "camera.capture_rig": _count_cloud_pair,
    "localization.localize": _count_len("localization.n_boxes"),
    "localization.merge": _count_len("localization.n_merged"),
    "localization.crop": _count_len("localization.n_cropped"),
    "localization.threshold": _count_len("localization.n_red"),
    "localization.cluster": _count_clusters,
    "controller.run_harvest": _count_events,
}


def _telemetry_injector(fn):
    """Hand `fn` a telemetry dict when its caller passed none, so the
    cluster counts it already computes can be read; None if `fn` takes no
    telemetry argument."""
    try:
        params = list(inspect.signature(fn).parameters)
    except (TypeError, ValueError):
        return None
    if "telemetry" not in params:
        return None
    pos = params.index("telemetry")

    def prepare(args, kwargs):
        if len(args) > pos:
            if args[pos] is None:
                args = args[:pos] + ({},) + args[pos + 1:]
            return args, kwargs, args[pos]
        if kwargs.get("telemetry") is None:
            kwargs = dict(kwargs, telemetry={})
        return args, kwargs, kwargs["telemetry"]

    return prepare


class Tracer:
    def __init__(self):
        self.missing: list[str] = []
        self.ops: list[tuple[dict, dict]] = []
        self.raw: list[tuple] = []
        self._saved: list[tuple] = []
        self._stack: list[list] = []
        self._op_index = -1
        self._stats: dict = {}
        self._counts: dict = {}

    # -- installation -------------------------------------------------

    def install(self) -> None:
        self.missing = []
        for module_name, attr, span in TARGETS:
            try:
                module = importlib.import_module(module_name)
                fn = getattr(module, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{module_name}.{attr}")
                continue
            prepare = _telemetry_injector(fn) if span == "localization.cluster" else None
            if span == "localization.cluster" and prepare is None:
                self.missing.append(f"{module_name}.{attr}(telemetry=)")
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(span, fn, prepare, COUNTERS.get(span)))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    def _wrap(self, name, fn, prepare, counter):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            ctx = None
            if prepare is not None:
                args, kwargs, ctx = prepare(args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self._close(name, t0, t1, frame[1])
            if counter is not None:
                counter(self, result, ctx)
            return result

        return wrapper

    # -- recording ----------------------------------------------------

    def _close(self, name, t0, t1, child_s) -> None:
        dur = t1 - t0
        if self._stack:
            self._stack[-1][1] += dur
        s = self._stats.get(name)
        if s is None:
            s = self._stats[name] = [0, 0.0, 0.0]
        s[0] += 1
        s[1] += dur
        s[2] += dur - child_s
        if self._op_index < RAW_OPS:
            parent = self._stack[-1][0] if self._stack else None
            self.raw.append((self._op_index, name, parent, t0, t1))

    def add(self, key: str, n) -> None:
        self._counts[key] = self._counts.get(key, 0) + n

    def begin_op(self) -> None:
        self._op_index += 1
        self._stats = {}
        self._counts = {}

    def end_op(self) -> None:
        self.ops.append((self._stats, self._counts))

    # -- results ------------------------------------------------------

    def spans(self) -> list[dict]:
        return [
            {"op": op, "name": name, "parent": parent, "start_s": t0, "end_s": t1}
            for op, name, parent, t0, t1 in self.raw
        ]


def _ratio(a, b):
    return a / b if b else 0.0


# per-layer metric: (name, unit, value of one op from its span stats and counts)
def _ms(span, col=1):
    return lambda st, _c: st[span][col] * 1e3 if span in st else 0.0


def _calls(span):
    return lambda st, _c: st[span][0] if span in st else 0


def _count(key):
    return lambda _st, c: c.get(key, 0)


LAYER_METRICS = [
    ("camera.capture_rig_ms", "ms", _ms("camera.capture_rig")),
    ("camera.self_ms", "ms", _ms("camera.capture_rig", 2)),
    ("scene.sample_surface_arrays_ms", "ms", _ms("scene.sample_surface_arrays")),
    ("scene.sample_calls", "count", _calls("scene.sample_surface_arrays")),
    ("scene.points_sampled", "count", _count("scene.points_sampled")),
    ("camera.points_out", "count", _count("camera.points_out")),
    ("camera.visible_ratio", "ratio",
     lambda st, c: _ratio(c.get("camera.points_out", 0), c.get("scene.points_sampled", 0))),
    ("localization.cluster_ms", "ms", _ms("localization.cluster")),
    ("localization.n_clusters_raw", "count", _count("localization.n_clusters_raw")),
    ("localization.discarded_small", "count", _count("localization.discarded_small")),
    ("localization.discarded_large", "count", _count("localization.discarded_large")),
    ("localization.n_boxes", "count", _count("localization.n_boxes")),
    ("localization.kept_ratio", "ratio",
     lambda st, c: _ratio(c.get("localization.n_boxes", 0), c.get("localization.n_clusters_raw", 0))),
    ("localization.localize_ms", "ms", _ms("localization.localize")),
    ("localization.transform_ms", "ms", _ms("localization.transform")),
    ("localization.merge_ms", "ms", _ms("localization.merge")),
    ("localization.crop_ms", "ms", _ms("localization.crop")),
    ("localization.threshold_ms", "ms", _ms("localization.threshold")),
    ("localization.boxes_ms", "ms", _ms("localization.boxes")),
    ("localization.n_merged", "count", _count("localization.n_merged")),
    ("localization.n_cropped", "count", _count("localization.n_cropped")),
    ("localization.n_red", "count", _count("localization.n_red")),
    ("controller.run_harvest_ms", "ms", _ms("controller.run_harvest")),
    ("controller.self_ms", "ms", _ms("controller.run_harvest", 2)),
    ("cutter.laser_step_ms", "ms", _ms("cutter.laser_step")),
    ("cutter.laser_steps", "count", _calls("cutter.laser_step")),
    ("motion.moves", "count", _calls("motion.robot_move")),
    ("controller.events", "count", _count("controller.events")),
    ("config.build_scenario_ms", "ms", _ms("config.build_scenario")),
    ("cli.run_one_ms", "ms", _ms("cli.run_one")),
    ("cli.self_ms", "ms", _ms("cli.run_one", 2)),
    ("cli.artifact_bytes", "bytes", _count("cli.artifact_bytes")),
]


def layer_metrics(tracer: Tracer, overhead_ms: float) -> dict:
    """Median over the traced ops of every per-layer metric, plus the
    tracing overhead (traced p50 minus untraced p50)."""
    out = {}
    for name, unit, value in LAYER_METRICS:
        out[name] = {"value": statistics.median(value(st, c) for st, c in tracer.ops), "unit": unit}
    out["trace.overhead_ms"] = {"value": overhead_ms, "unit": "ms"}
    return out
