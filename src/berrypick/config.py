"""Scenario configuration: JSON schema, defaults, units, component builders.

A scenario file is a JSON object whose sections mirror the simulator
components. Unknown keys are rejected, every missing key falls back to the
default of the component that consumes it, and the `units` field ("m",
"cm" or "mm") rescales the length-dimensioned fields the file gives once
at load time; defaults and everything downstream are in meters. Speeds
are always m/s, energy densities always J/m^2, and `sweep.offsets_mm` is
always millimeters (the key carries its unit).

The file is merged over `DEFAULTS` in one walk. It rejects unknown keys,
gives each value the file sets inside a section the type of its default,
and only then rescales it if it is a length; the first fault in walk
order is the one named. This module also checks the keys no component
consumes. Every range rule belongs to its component: resolving a config
builds its components once, then checks each sweep point by building
the one component that the point's axis sets, and a rejected value
becomes a `ConfigError` naming its dotted key. The robot workspace, the
localization crop window inflated by `robot.workspace_margin`, is built
here only. So are the rules that read it or the crop window: a box
offset is at most the workspace's size (`build_box_offset`), and where
any fruit is ripe, the layout must hang every fruit inside the window
and, where the cameras make the boxes, in front of the trough.

The resolved (defaulted, meter-converted) dictionary is hashed with
SHA-256 and the hash is embedded in every artifact, so artifacts can be
traced back to the exact configuration that produced them.
"""

from __future__ import annotations

import copy
import hashlib
import inspect
import json
import math
from contextlib import contextmanager
from dataclasses import asdict

from .camera import DEFAULT_RIG, CameraRig, make_camera
from .controller import BuiltScenario
from .cutter import CutModel, ToolGeometry
from .errors import ConfigError
from .geometry import Aabb, Vec3
from .localization import MAX_WORKSPACE_SPAN, LocalizationParams
from .motion import DEFAULT_HOME, RobotState
from .scene import FRUIT_X_JITTER, MAX_STEM_BEND, Scene, generate_scene

CONFIG_VERSION = 1

_UNIT_SCALE = {"m": 1.0, "cm": 0.01, "mm": 0.001}

_ROBOT = inspect.signature(RobotState).parameters

# Each default below is read from the component that consumes it; only
# the keys no component consumes state their own.
DEFAULTS: dict = {
    "version": CONFIG_VERSION,
    "units": "m",
    "name": "scenario",
    "scene": {
        "seed": None,
        **{
            name: list(p.default) if isinstance(p.default, tuple) else p.default
            for name, p in inspect.signature(generate_scene).parameters.items()
            if p.default is not p.empty
        },
    },
    "rig": copy.deepcopy(DEFAULT_RIG),
    "localization": asdict(LocalizationParams()),
    "robot": {
        "home": [DEFAULT_HOME.x, DEFAULT_HOME.y, DEFAULT_HOME.z],
        "velocity_scale": _ROBOT["velocity_scale"].default,
        "max_speed": _ROBOT["max_speed"].default,
        "workspace_margin": 0.10,
    },
    "tool": asdict(ToolGeometry()),
    "cut": asdict(CutModel()),
    "boxes": {
        "source": "cameras",
        "offset": [0.0, 0.0, 0.0],
    },
    "sweep": {
        "offsets_mm": [],
        "velocity_scales": [],
        "powers": [],
        "noise_sigmas": [],
    },
    "seeds": [1],
    "out": None,
}

# dotted paths of length-dimensioned fields rescaled by `units`
_LENGTH_FIELDS = {
    "scene.bend_sigma",
    "scene.spacing",
    "scene.fruit_x",
    "scene.fruit_z_band",
    "scene.radius_band",
    "scene.stem_diameter",
    "scene.trough_height",
    "scene.base_height",
    "scene.occluders",
    *(f"rig.{cam}.{key}" for cam in DEFAULT_RIG for key in ("eye", "target", "min_range", "max_range", "depth_noise_sigma")),
    "localization.x_plus",
    "localization.x_minus",
    "localization.y_plus",
    "localization.y_minus",
    "localization.z_plus",
    "localization.z_minus",
    "localization.tol",
    "robot.home",
    "robot.workspace_margin",
    "tool.groove_width",
    "tool.trapper_width",
    "tool.focal_length",
    "tool.lens_stroke",
    "tool.interrupter_drop",
    "boxes.offset",
    "sweep.noise_sigmas",
}


def _merge(defaults, given, path: str, scale: float):
    """`given` merged over `defaults` in one walk. Inside a section each
    given value first takes the type of its default, then, if it is a
    length, is rescaled to meters; the defaults are meters already."""
    if isinstance(defaults, dict):
        if not isinstance(given, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        out = {}
        for key, dval in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in given:
                out[key] = _merge(dval, given[key], sub, scale)
            else:
                out[key] = copy.deepcopy(dval)
        for key in given:
            if key not in defaults:
                sub = f"{path}.{key}" if path else key
                raise ConfigError(f"unknown key: {sub}")
        return out
    value = copy.deepcopy(given)
    if "." in path:  # top-level scalars have their rules in `_validate`
        _check_type(value, defaults, path)
        # a scale of 1 keeps each value's type: an int stays an int in the hash
        if scale != 1.0 and path in _LENGTH_FIELDS:
            value = _scaled(value, scale)
    return value


def _scaled(v, scale: float):
    if isinstance(v, list):
        return [_scaled(x, scale) for x in v]
    return v * scale if _is_finite(v) else v  # a bad value left for `_validate` to name


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_seed(v) -> bool:
    """numpy seeds its generators from integers >= 0 only."""
    return _is_int(v) and v >= 0


def _is_finite(v) -> bool:
    try:
        return isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key} {message}")


def _check_triple(v, key: str) -> None:
    _require(
        isinstance(v, list) and len(v) == 3 and all(_is_finite(x) for x in v),
        key, "must be an [x, y, z] triple of finite numbers",
    )


def _check_type(v, default, key: str) -> None:
    """Give a value the type of its default: an integer for an int, a
    finite number for a float, and for a non-empty list a list of as many
    finite numbers. Other leaves have their own rules in `_validate`."""
    if isinstance(default, int):
        _require(_is_int(v), key, "must be an integer")
    elif isinstance(default, float):
        _require(_is_finite(v), key, "must be a finite number")
    elif isinstance(default, list) and default:
        _require(
            isinstance(v, list) and len(v) == len(default) and all(_is_finite(x) for x in v),
            key, f"must be a list of {len(default)} finite numbers",
        )


def _check_distinct(values: list, key: str) -> None:
    """No two entries equal as numbers: a sweep groups its aggregate rows
    with `==` and names a run directory by value and seed, so a repeated
    entry would count its runs twice. Equal numbers hash alike, so 0, 0.0
    and -0.0 are one entry."""
    first = {}
    for i, v in enumerate(values):
        j = first.setdefault(v, i)
        _require(j == i, key, f"entries must differ as numbers: [{i}] = {v!r} repeats [{j}] = {values[j]!r}")


def _validate(cfg: dict) -> None:
    """The rules of keys that no component consumes and `_merge` does not
    type; the components check every other range when `build_scenario`
    runs."""
    _require(cfg["version"] == CONFIG_VERSION, "version", f"must be {CONFIG_VERSION}")
    _require(isinstance(cfg["name"], str) and cfg["name"] != "", "name", "must be a non-empty string")
    # `name` and `out` become directory names, and no path may hold a NUL byte
    _require("\0" not in cfg["name"], "name", "must not contain a NUL byte")

    sc = cfg["scene"]
    _require(sc["seed"] is None or _is_seed(sc["seed"]), "scene.seed", "must be an integer >= 0 or null")
    _require(isinstance(sc["occluders"], list), "scene.occluders", "must be a list of [min, max] corner pairs")
    for i, occ in enumerate(sc["occluders"]):
        key = f"scene.occluders[{i}]"
        _require(isinstance(occ, list) and len(occ) == 2, key, "must be a [min, max] pair of [x, y, z] corners")
        _check_triple(occ[0], f"{key}[0]")
        _check_triple(occ[1], f"{key}[1]")

    _require(cfg["robot"]["workspace_margin"] >= 0, "robot.workspace_margin", "must be >= 0")

    for key in ("cut_energy_per_area", "duty"):
        _require(cfg["cut"][key] is None or _is_finite(cfg["cut"][key]), f"cut.{key}", "must be a finite number or null")

    _require(cfg["boxes"]["source"] in ("cameras", "truth"), "boxes.source", "must be 'cameras' or 'truth'")

    for key, values in cfg["sweep"].items():
        _require(isinstance(values, list), f"sweep.{key}", "must be a list")
        _require(all(_is_finite(v) for v in values), f"sweep.{key}", "entries must be finite numbers")
        _check_distinct(values, f"sweep.{key}")

    _require(isinstance(cfg["seeds"], list) and len(cfg["seeds"]) > 0, "seeds", "must be a non-empty list")
    _require(all(_is_seed(s) for s in cfg["seeds"]), "seeds", "entries must be integers >= 0")
    _check_distinct(cfg["seeds"], "seeds")
    _require(cfg["out"] is None or isinstance(cfg["out"], str), "out", "must be a string path")
    _require(cfg["out"] is None or "\0" not in cfg["out"], "out", "must not contain a NUL byte")


def apply_sweep_value(cfg: dict, axis: str, value) -> dict:
    """A copy of `cfg` with one sweep axis set to `value`."""
    point = copy.deepcopy(cfg)
    if axis == "offset":
        point["boxes"]["offset"] = [0.0, value / 1000.0, 0.0]
    elif axis == "velocity":
        point["robot"]["velocity_scale"] = value
    elif axis == "power":
        point["cut"]["laser_power"] = value
    elif axis == "noise":
        point["rig"]["cam1"]["depth_noise_sigma"] = value
        point["rig"]["cam2"]["depth_noise_sigma"] = value
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    return point


def resolve_config(raw: dict) -> dict:
    """Merge over defaults (type-checking and converting to meters on the
    way), validate. Returns the canonical resolved dictionary (units
    always 'm').

    Validation builds the components for the first seed once, and checks
    each sweep point with the builder of the one component its axis sets,
    so every range rule is the component's own. That builder alone
    checks the point as a whole build would: no axis changes the scene,
    the crop window, the workspace, the box source or a camera's
    geometry, and the rules that read two components read only these
    and the component they check."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    units = raw.get("units", "m")
    if not isinstance(units, str) or units not in _UNIT_SCALE:
        raise ConfigError(f"units must be one of {sorted(_UNIT_SCALE)}")
    cfg = _merge(DEFAULTS, raw, "", _UNIT_SCALE[units])
    cfg["units"] = "m"
    _validate(cfg)
    seed = cfg["seeds"][0]
    build_scenario(cfg, seed)
    for axis, (key, _, build) in SWEEP_AXES.items():
        for i, value in enumerate(cfg["sweep"][key]):
            try:
                build(apply_sweep_value(cfg, axis, value))
            except ConfigError as e:
                raise ConfigError(f"sweep.{key}[{i}] = {value}: {e}") from e
    return cfg


def load_config(path) -> dict:
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as e:
            raise ConfigError(f"invalid JSON in {path}: {e}") from e
    return resolve_config(raw)


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(
        json.dumps(cfg, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()


# component field -> config key, where the two names differ
_CONFIG_KEYS = {"h_fov": "h_fov_deg", "v_fov": "v_fov_deg", "bin_res": "bin_res_deg", "radius": "radius_band"}


@contextmanager
def _keyed(section: str):
    """Re-raise a component's ValueError, whose message starts with the
    field it rejects, as a ConfigError naming that field's dotted key."""
    try:
        yield
    except ValueError as e:
        field, _, rest = str(e).partition(" ")
        raise ConfigError(f"{section}.{_CONFIG_KEYS.get(field, field)} {rest}") from e


def _workspace(cfg: dict) -> Aabb:
    loc = cfg["localization"]
    crop = Aabb(
        Vec3(loc["x_minus"], loc["y_minus"], loc["z_minus"]),
        Vec3(loc["x_plus"], loc["y_plus"], loc["z_plus"]),
    )
    return crop.inflate(cfg["robot"]["workspace_margin"])


def build_scene(cfg: dict, run_seed: int) -> Scene:
    sc = cfg["scene"]
    seed = sc["seed"] if sc["seed"] is not None else run_seed
    occluders = []
    for i, (lo, hi) in enumerate(sc["occluders"]):
        try:
            occluders.append(Aabb(Vec3(*map(float, lo)), Vec3(*map(float, hi))))
        except ValueError as e:
            raise ConfigError(f"scene.occluders[{i}] must have min <= max on every axis") from e
    layout = {key: tuple(v) if isinstance(v, list) else v for key, v in sc.items() if key not in ("seed", "occluders")}
    with _keyed("scene"):
        return generate_scene(seed=seed, occluders=tuple(occluders), **layout)


def build_rig(cfg: dict) -> CameraRig:
    cams = []
    for frame in ("cam1", "cam2"):
        with _keyed(f"rig.{frame}"):
            cams.append(make_camera(frame, **cfg["rig"][frame]))
    return CameraRig(*cams)


def build_localization(cfg: dict) -> LocalizationParams:
    with _keyed("localization"):
        return LocalizationParams(**cfg["localization"])


def build_robot(cfg: dict) -> RobotState:
    rb = cfg["robot"]
    home = Vec3(*rb["home"])
    with _keyed("robot"):
        return RobotState(
            velocity_scale=rb["velocity_scale"],
            max_speed=rb["max_speed"],
            home=home,
            workspace=_workspace(cfg),
        )


def build_tool(cfg: dict) -> ToolGeometry:
    with _keyed("tool"):
        return ToolGeometry(**cfg["tool"])


def build_cut(cfg: dict) -> CutModel:
    with _keyed("cut"):
        return CutModel(**cfg["cut"])


def build_box_offset(cfg: dict) -> Vec3:
    """The box offset. Every box lies in the workspace, so an offset
    larger than the workspace on some axis moves every box out of reach.
    With the workspace at most MAX_WORKSPACE_SPAN wide, which the crop
    window already is, the bound also keeps the distance from a box to
    its fruit within the float range."""
    offset = Vec3(*cfg["boxes"]["offset"])
    ws = _workspace(cfg)
    size = (ws.max.x - ws.min.x, ws.max.y - ws.min.y, ws.max.z - ws.min.z)
    _require(
        all(s <= MAX_WORKSPACE_SPAN for s in size), "robot.workspace_margin",
        f"must leave the workspace at most {MAX_WORKSPACE_SPAN:.4g} m wide on each axis",
    )
    _require(
        all(abs(o) <= s for o, s in zip((offset.x, offset.y, offset.z), size)), "boxes.offset",
        f"must be at most the workspace's size on each axis, ({size[0]:g}, {size[1]:g}, {size[2]:g}) m",
    )
    return offset


# sweep axis -> the `sweep` list holding its values, the BuiltScenario
# field a value sets, and that field's builder from a sweep point's config,
# which checks the point (`resolve_config`) and builds its component for
# every run seed of a sweep (`cli.cmd_sweep`)
SWEEP_AXES = {
    "offset": ("offsets_mm", "box_offset", build_box_offset),
    "velocity": ("velocity_scales", "robot", build_robot),
    "power": ("powers", "cut", build_cut),
    "noise": ("noise_sigmas", "rig", build_rig),
}


def _require_ripe_in_view(cfg: dict, scene: Scene, p: LocalizationParams) -> None:
    """The scene rules that keep ripe fruit where the boxes are found.
    Where any fruit is ripe, `fruit_x` (give or take its jitter),
    `fruit_z_band` and the row's y extent (stem bend included) lie inside
    the crop window, which `localize` crops to (strictly); and where the
    cameras make the boxes, `fruit_x` (with its jitter) lies in front of
    the trough, whose box hides the fruit hung inside it."""
    if not any(s.ripe for s in scene.strawberries):
        return
    sc = cfg["scene"]
    x, (z_lo, z_hi) = sc["fruit_x"], sc["fruit_z_band"]
    _require(
        p.x_minus < x - FRUIT_X_JITTER and x + FRUIT_X_JITTER < p.x_plus, "scene.fruit_x",
        f"must lie within ({p.x_minus + FRUIT_X_JITTER:g}, {p.x_plus - FRUIT_X_JITTER:g}) m"
        " so that ripe fruit stay in the crop window",
    )
    front = scene.trough.min.x
    _require(
        cfg["boxes"]["source"] != "cameras" or x + FRUIT_X_JITTER < front, "scene.fruit_x",
        f"must lie below {front - FRUIT_X_JITTER:g} m so that ripe fruit hang in front of the trough"
        f" (x = {front:g} m), where the cameras see them",
    )
    _require(
        p.z_minus < z_lo and z_hi < p.z_plus, "scene.fruit_z_band",
        f"must lie within ({p.z_minus:g}, {p.z_plus:g}) m so that ripe fruit stay in the crop window",
    )
    half = (sc["n_straw"] - 1) * sc["spacing"] / 2 + MAX_STEM_BEND
    _require(
        p.y_minus < -half and half < p.y_plus, "scene.n_straw",
        f"{sc['n_straw']} at spacing {sc['spacing']:g} m hangs fruit out to y = +/-{half:g} m with stem bend;"
        f" the row must fit the crop window y ({p.y_minus:g}, {p.y_plus:g}) m",
    )


def build_scenario(cfg: dict, run_seed: int) -> BuiltScenario:
    """Build every component of a resolved config for one run seed. A
    component that rejects a value raises a ConfigError naming its key."""
    # the crop window first: the workspace is built from it
    params = build_localization(cfg)
    robot = build_robot(cfg)
    box_offset = build_box_offset(cfg)
    scene = build_scene(cfg, run_seed)
    _require_ripe_in_view(cfg, scene, params)
    cut = build_cut(cfg)
    return BuiltScenario(
        scene=scene,
        rig=build_rig(cfg),
        params=params,
        robot=robot,
        geom=build_tool(cfg),
        cut=cut,
        box_source=cfg["boxes"]["source"],
        box_offset=box_offset,
    )
