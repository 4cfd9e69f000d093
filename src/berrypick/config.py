"""Scenario configuration: JSON schema, defaults, units, component builders.

A scenario file is a JSON object whose sections mirror the simulator
components. Unknown keys are rejected, every missing key falls back to the
default of the component that consumes it, and the `units` field ("m",
"cm" or "mm") rescales the length-dimensioned fields the file gives once
at load time; defaults and everything downstream are in meters. Speeds
are always m/s, energy densities always J/m^2, and `sweep.offsets_mm` is
always millimeters (the key carries its unit).

This module checks types and the keys no component consumes. Every range
rule belongs to its component: resolving a config builds the components
for it and for each sweep point, and a rejected value becomes a
`ConfigError` naming its dotted key. The robot workspace, the
localization crop window inflated by `robot.workspace_margin`, is built
here only, and so are the scene rules that read it.

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
from .localization import LocalizationParams
from .motion import DEFAULT_HOME, RobotState
from .scene import FRUIT_X_JITTER, Scene, generate_scene

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
    "cut": {
        "laser_power": CutModel().laser_power,
        "cut_energy_per_area": None,
        "duty": None,
        "dt": 0.01,  # simulation timestep, s
        "laser_timeout": 10.0,  # s
    },
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
_LENGTH_FIELDS = [
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
]


def _merge(defaults, override, path: str):
    if isinstance(defaults, dict):
        if not isinstance(override, dict):
            raise ConfigError(f"{path or 'config'} must be an object")
        out = {}
        for key, dval in defaults.items():
            sub = f"{path}.{key}" if path else key
            if key in override:
                out[key] = _merge(dval, override[key], sub)
            else:
                out[key] = copy.deepcopy(dval)
        for key in override:
            if key not in defaults:
                sub = f"{path}.{key}" if path else key
                raise ConfigError(f"unknown key: {sub}")
        return out
    return copy.deepcopy(override)


def _scale_lengths(cfg: dict, raw: dict, scale: float) -> None:
    """Rescale the lengths the file gives; the defaults are meters already."""
    def scaled(v):
        if isinstance(v, list):
            return [scaled(x) for x in v]
        if _is_number(v):
            return v * scale
        return v  # None, or a bad value left for _validate to name

    for path in _LENGTH_FIELDS:
        *parents, key = path.split(".")
        node, given = cfg, raw
        for p in parents:
            node, given = node[p], given.get(p, {})
        if key in given:
            node[key] = scaled(node[key])


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    try:
        return _is_number(v) and math.isfinite(v)
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


def _check_types(node: dict, defaults: dict, path: str) -> None:
    """Give each value the type of its default: an integer for an int, a
    finite number for a float, and for a non-empty list a list of as many
    finite numbers. Other leaves have their own rules in `_validate`."""
    for key, d in defaults.items():
        sub = f"{path}.{key}"
        v = node[key]
        if isinstance(d, dict):
            _check_types(v, d, sub)
        elif isinstance(d, int):
            _require(_is_int(v), sub, "must be an integer")
        elif isinstance(d, float):
            _require(_is_finite(v), sub, "must be a finite number")
        elif isinstance(d, list) and d:
            _require(
                isinstance(v, list) and len(v) == len(d) and all(_is_finite(x) for x in v),
                sub, f"must be a list of {len(d)} finite numbers",
            )


def _validate(cfg: dict) -> None:
    """Types, and the rules of keys that no component consumes; the
    components check every other range when `build_scenario` runs."""
    _require(cfg["version"] == CONFIG_VERSION, "version", f"must be {CONFIG_VERSION}")
    _require(isinstance(cfg["name"], str) and cfg["name"] != "", "name", "must be a non-empty string")
    for section, defaults in DEFAULTS.items():
        if isinstance(defaults, dict):
            _check_types(cfg[section], defaults, section)

    sc = cfg["scene"]
    _require(sc["seed"] is None or _is_int(sc["seed"]), "scene.seed", "must be an integer or null")
    _require(isinstance(sc["occluders"], list), "scene.occluders", "must be a list of [min, max] corner pairs")
    for i, occ in enumerate(sc["occluders"]):
        key = f"scene.occluders[{i}]"
        _require(isinstance(occ, list) and len(occ) == 2, key, "must be a [min, max] pair of [x, y, z] corners")
        _check_triple(occ[0], f"{key}[0]")
        _check_triple(occ[1], f"{key}[1]")

    _require(cfg["robot"]["workspace_margin"] >= 0, "robot.workspace_margin", "must be >= 0")

    ct = cfg["cut"]
    for key in ("cut_energy_per_area", "duty"):
        _require(ct[key] is None or _is_finite(ct[key]), f"cut.{key}", "must be a finite number or null")
    for key in ("dt", "laser_timeout"):
        _require(ct[key] > 0, f"cut.{key}", "must be > 0")

    _require(cfg["boxes"]["source"] in ("cameras", "truth"), "boxes.source", "must be 'cameras' or 'truth'")

    for key, values in cfg["sweep"].items():
        _require(isinstance(values, list), f"sweep.{key}", "must be a list")
        _require(all(_is_finite(v) for v in values), f"sweep.{key}", "entries must be finite numbers")

    _require(isinstance(cfg["seeds"], list) and len(cfg["seeds"]) > 0, "seeds", "must be a non-empty list")
    _require(all(_is_int(s) for s in cfg["seeds"]), "seeds", "entries must be integers")
    _require(cfg["out"] is None or isinstance(cfg["out"], str), "out", "must be a string path")


# sweep axis -> the `sweep` list holding its values
SWEEP_AXES = {
    "offset": "offsets_mm",
    "velocity": "velocity_scales",
    "power": "powers",
    "noise": "noise_sigmas",
}


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
    """Merge over defaults, convert units to meters, validate. Returns the
    canonical resolved dictionary (units always 'm').

    Validation builds the components for the first seed, once for the
    config and once for every sweep point, so every range rule is the
    component's own."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    units = raw.get("units", "m")
    if not isinstance(units, str) or units not in _UNIT_SCALE:
        raise ConfigError(f"units must be one of {sorted(_UNIT_SCALE)}")
    cfg = _merge(DEFAULTS, raw, "")
    scale = _UNIT_SCALE[cfg["units"]]
    if scale != 1.0:
        _scale_lengths(cfg, raw, scale)
        cfg["units"] = "m"
    _validate(cfg)
    seed = cfg["seeds"][0]
    build_scenario(cfg, seed)
    for axis, key in SWEEP_AXES.items():
        for i, value in enumerate(cfg["sweep"][key]):
            try:
                build_scenario(apply_sweep_value(cfg, axis, value), seed)
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
            tool_pos=home,
            velocity_scale=rb["velocity_scale"],
            max_speed=rb["max_speed"],
            home=home,
            workspace=_workspace(cfg),
        )


def build_tool(cfg: dict) -> ToolGeometry:
    with _keyed("tool"):
        return ToolGeometry(**cfg["tool"])


def build_cut(cfg: dict) -> tuple[CutModel, bool]:
    ct = cfg["cut"]
    kwargs = {key: ct[key] for key in ("laser_power", "cut_energy_per_area", "duty") if ct[key] is not None}
    with _keyed("cut"):
        return CutModel(**kwargs), ct["duty"] is None


def _require_ripe_in_workspace(cfg: dict, scene: Scene, ws: Aabb) -> None:
    """The scene rules that read the robot workspace: where any fruit is
    ripe, `fruit_x` (give or take its jitter) and `fruit_z_band` lie in it."""
    if not any(s.ripe for s in scene.strawberries):
        return
    x, (z_lo, z_hi) = cfg["scene"]["fruit_x"], cfg["scene"]["fruit_z_band"]
    _require(
        ws.min.x <= x - FRUIT_X_JITTER and x + FRUIT_X_JITTER <= ws.max.x, "scene.fruit_x",
        f"must lie within [{ws.min.x + FRUIT_X_JITTER:g}, {ws.max.x - FRUIT_X_JITTER:g}] m"
        " so that ripe fruit stay in the workspace",
    )
    _require(
        ws.min.z <= z_lo and z_hi <= ws.max.z, "scene.fruit_z_band",
        f"must lie within [{ws.min.z:g}, {ws.max.z:g}] m so that ripe fruit stay in the workspace",
    )


def build_scenario(cfg: dict, run_seed: int) -> BuiltScenario:
    """Build every component of a resolved config for one run seed. A
    component that rejects a value raises a ConfigError naming its key."""
    # the crop window first: the workspace is built from it
    params = build_localization(cfg)
    robot = build_robot(cfg)
    scene = build_scene(cfg, run_seed)
    _require_ripe_in_workspace(cfg, scene, robot.workspace)
    cut, derive_duty = build_cut(cfg)
    return BuiltScenario(
        scene=scene,
        rig=build_rig(cfg),
        params=params,
        robot=robot,
        geom=build_tool(cfg),
        cut=cut,
        derive_duty=derive_duty,
        dt=cfg["cut"]["dt"],
        laser_timeout=cfg["cut"]["laser_timeout"],
        box_source=cfg["boxes"]["source"],
        box_offset=Vec3(*cfg["boxes"]["offset"]),
    )
