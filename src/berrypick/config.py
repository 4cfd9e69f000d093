"""Scenario configuration: JSON schema, defaults, units, component builders.

A scenario file is a JSON object whose sections mirror the simulator
components. Unknown keys are rejected, every missing key falls back to the
documented default, and the `units` field ("m", "cm" or "mm") rescales all
length-dimensioned fields once at load time; everything downstream works
in meters. Speeds are always m/s, energy densities always J/m^2, and
`sweep.offsets_mm` is always millimeters (the key carries its unit).

The resolved (defaulted, meter-converted) dictionary is hashed with
SHA-256 and the hash is embedded in every artifact, so artifacts can be
traced back to the exact configuration that produced them.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
from dataclasses import dataclass

from .camera import CameraModel, CameraRig, look_at_pose
from .cutter import CutModel, ToolGeometry
from .errors import ConfigError
from .geometry import Aabb, Vec3
from .localization import LocalizationParams
from .motion import RobotState
from .scene import Scene, generate_scene

CONFIG_VERSION = 1

_UNIT_SCALE = {"m": 1.0, "cm": 0.01, "mm": 0.001}

DEFAULTS: dict = {
    "version": CONFIG_VERSION,
    "units": "m",
    "name": "scenario",
    "scene": {
        "seed": None,
        "n_straw": 9,
        "ripe_fraction": 1.0,
        "bend_sigma": 0.0,
        "spacing": 0.06,
        "fruit_x": 0.42,
        "fruit_z_band": [0.38, 0.42],
        "radius_band": [0.012, 0.0175],
        "stem_diameter": 0.003,
        "trough_height": 1.03,
        "base_height": 0.55,
        "surface_density": 60000.0,
        "occluders": [],
    },
    "rig": {
        "cam1": {
            "eye": [-0.05, 0.0, 0.45],
            "target": [0.45, 0.0, 0.40],
            "h_fov_deg": 87.0,
            "v_fov_deg": 58.0,
            "min_range": 0.15,
            "max_range": 2.0,
            "depth_noise_sigma": 0.002,
            "dropout_rate": 0.02,
            "bin_res_deg": 0.3,
        },
        "cam2": {
            "eye": [0.15, 0.0, 0.05],
            "target": [0.42, 0.0, 0.40],
            "h_fov_deg": 87.0,
            "v_fov_deg": 58.0,
            "min_range": 0.15,
            "max_range": 2.0,
            "depth_noise_sigma": 0.002,
            "dropout_rate": 0.02,
            "bin_res_deg": 0.3,
        },
    },
    "localization": {
        "x_plus": 0.55,
        "x_minus": 0.25,
        "y_plus": 0.30,
        "y_minus": -0.30,
        "z_plus": 0.50,
        "z_minus": 0.30,
        "r_th": 100,
        "g_th": 70,
        "b_th": 70,
        "tol": 0.02,
        "s_min": 20,
        "s_max": 1000,
    },
    "robot": {
        "home": [0.20, -0.35, 0.44],
        "velocity_scale": 0.5,
        "max_speed": 0.1,
        "workspace_margin": 0.10,
    },
    "tool": {
        "groove_width": 0.035,
        "trapper_width": 0.030,
        "focal_length": 0.25,
        "lens_stroke": 0.006,
        "interrupter_drop": 0.05,
    },
    "cut": {
        "laser_power": 50.0,
        "cut_energy_per_area": None,
        "duty": None,
        "dt": 0.01,
        "laser_timeout": 10.0,
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
    "rig.cam1.eye",
    "rig.cam1.target",
    "rig.cam1.min_range",
    "rig.cam1.max_range",
    "rig.cam1.depth_noise_sigma",
    "rig.cam2.eye",
    "rig.cam2.target",
    "rig.cam2.min_range",
    "rig.cam2.max_range",
    "rig.cam2.depth_noise_sigma",
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


def _scale_lengths(cfg: dict, scale: float) -> None:
    def scaled(v):
        if isinstance(v, list):
            return [scaled(x) for x in v]
        if _is_number(v):
            return v * scale
        return v  # None, or a bad value left for _validate to name

    for path in _LENGTH_FIELDS:
        parts = path.split(".")
        node = cfg
        for p in parts[:-1]:
            node = node[p]
        node[parts[-1]] = scaled(node[parts[-1]])


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_finite(v) -> bool:
    return _is_number(v) and math.isfinite(v)


def _require(cond: bool, key: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{key} {message}")


def _check_number(cfg_section: dict, section: str, key: str, *, integer=False, positive=False, nonneg=False):
    v = cfg_section[key]
    name = f"{section}.{key}"
    if integer:
        _require(isinstance(v, int) and not isinstance(v, bool), name, "must be an integer")
    else:
        _require(_is_number(v), name, "must be a number")
    if positive:
        _require(v > 0, name, "must be > 0")
    if nonneg:
        _require(v >= 0, name, "must be >= 0")


def _check_triple(v, key: str) -> None:
    _require(
        isinstance(v, list) and len(v) == 3 and all(_is_finite(x) for x in v),
        key, "must be an [x, y, z] triple of finite numbers",
    )


def _validate(cfg: dict) -> None:
    _require(cfg["version"] == CONFIG_VERSION, "version", f"must be {CONFIG_VERSION}")
    _require(cfg["units"] in _UNIT_SCALE, "units", f"must be one of {sorted(_UNIT_SCALE)}")
    _require(isinstance(cfg["name"], str) and cfg["name"] != "", "name", "must be a non-empty string")

    sc = cfg["scene"]
    if sc["seed"] is not None:
        _check_number(sc, "scene", "seed", integer=True)
    _check_number(sc, "scene", "n_straw", integer=True, nonneg=True)
    _check_number(sc, "scene", "ripe_fraction", nonneg=True)
    _require(sc["ripe_fraction"] <= 1.0, "scene.ripe_fraction", "must be <= 1")
    _check_number(sc, "scene", "bend_sigma", nonneg=True)
    for key in ("spacing", "fruit_x", "stem_diameter", "trough_height", "base_height", "surface_density"):
        _check_number(sc, "scene", key, positive=True)
    for key in ("fruit_z_band", "radius_band"):
        v = sc[key]
        _require(
            isinstance(v, list) and len(v) == 2 and all(_is_finite(x) for x in v),
            f"scene.{key}", "must be a [low, high] pair of finite numbers",
        )
        _require(v[0] <= v[1], f"scene.{key}", "must be ordered low <= high")
    _require(isinstance(sc["occluders"], list), "scene.occluders", "must be a list of [min, max] corner pairs")
    for i, occ in enumerate(sc["occluders"]):
        key = f"scene.occluders[{i}]"
        _require(isinstance(occ, list) and len(occ) == 2, key, "must be a [min, max] pair of [x, y, z] corners")
        _check_triple(occ[0], f"{key}[0]")
        _check_triple(occ[1], f"{key}[1]")
        _require(all(a <= b for a, b in zip(*occ)), key, "must have min <= max on every axis")

    for cam_key in ("cam1", "cam2"):
        cam = cfg["rig"][cam_key]
        sect = f"rig.{cam_key}"
        for key in ("eye", "target"):
            _check_triple(cam[key], f"{sect}.{key}")
        for key in ("h_fov_deg", "v_fov_deg", "min_range", "max_range", "bin_res_deg"):
            _check_number(cam, sect, key, positive=True)
        _require(cam["h_fov_deg"] < 180 and cam["v_fov_deg"] < 180, f"{sect}.h_fov_deg", "must be < 180")
        _require(cam["min_range"] < cam["max_range"], f"{sect}.min_range", "must be < max_range")
        _check_number(cam, sect, "depth_noise_sigma", nonneg=True)
        _check_number(cam, sect, "dropout_rate", nonneg=True)
        _require(cam["dropout_rate"] <= 1.0, f"{sect}.dropout_rate", "must be <= 1")

    loc = cfg["localization"]
    for key in ("x_plus", "x_minus", "y_plus", "y_minus", "z_plus", "z_minus", "tol"):
        _check_number(loc, "localization", key)
    _require(loc["tol"] > 0, "localization.tol", "must be > 0")
    for lo, hi in (("x_minus", "x_plus"), ("y_minus", "y_plus"), ("z_minus", "z_plus")):
        _require(loc[lo] < loc[hi], f"localization.{lo}", f"must be < {hi}")
    for key in ("r_th", "g_th", "b_th"):
        _check_number(loc, "localization", key, integer=True)
        _require(0 <= loc[key] <= 255, f"localization.{key}", "must be in [0, 255]")
    _check_number(loc, "localization", "s_min", integer=True, positive=True)
    _check_number(loc, "localization", "s_max", integer=True, positive=True)
    _require(loc["s_min"] <= loc["s_max"], "localization.s_min", "must be <= s_max")

    rb = cfg["robot"]
    _check_triple(rb["home"], "robot.home")
    _check_number(rb, "robot", "velocity_scale", positive=True)
    _require(rb["velocity_scale"] <= 1.0, "robot.velocity_scale", "must be <= 1")
    _check_number(rb, "robot", "max_speed", positive=True)
    _check_number(rb, "robot", "workspace_margin", nonneg=True)

    for key in cfg["tool"]:
        _check_number(cfg["tool"], "tool", key, positive=True)
    _require(
        cfg["tool"]["trapper_width"] <= cfg["tool"]["groove_width"],
        "tool.trapper_width", "must be <= tool.groove_width",
    )

    ct = cfg["cut"]
    _check_number(ct, "cut", "laser_power", positive=True)
    if ct["cut_energy_per_area"] is not None:
        _check_number(ct, "cut", "cut_energy_per_area", positive=True)
    if ct["duty"] is not None:
        _check_number(ct, "cut", "duty", positive=True)
        _require(ct["duty"] <= 1.0, "cut.duty", "must be <= 1")
    _check_number(ct, "cut", "dt", positive=True)
    _check_number(ct, "cut", "laser_timeout", positive=True)

    bx = cfg["boxes"]
    _require(bx["source"] in ("cameras", "truth"), "boxes.source", "must be 'cameras' or 'truth'")
    _check_triple(bx["offset"], "boxes.offset")

    sw = cfg["sweep"]
    for key in ("offsets_mm", "velocity_scales", "powers", "noise_sigmas"):
        _require(isinstance(sw[key], list), f"sweep.{key}", "must be a list")
        for v in sw[key]:
            _require(_is_finite(v), f"sweep.{key}", "entries must be finite numbers")
    for vs in sw["velocity_scales"]:
        _require(0 < vs <= 1.0, "sweep.velocity_scales", "entries must be in (0, 1]")
    for p in sw["powers"]:
        _require(p > 0, "sweep.powers", "entries must be > 0")
    for sigma in sw["noise_sigmas"]:
        _require(sigma >= 0, "sweep.noise_sigmas", "entries must be >= 0")

    _require(isinstance(cfg["seeds"], list) and len(cfg["seeds"]) > 0, "seeds", "must be a non-empty list")
    for s in cfg["seeds"]:
        _require(isinstance(s, int) and not isinstance(s, bool), "seeds", "entries must be integers")
    if cfg["out"] is not None:
        _require(isinstance(cfg["out"], str), "out", "must be a string path")


def resolve_config(raw: dict) -> dict:
    """Merge over defaults, convert units to meters, validate. Returns the
    canonical resolved dictionary (units always 'm')."""
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    units = raw.get("units", "m")
    if units not in _UNIT_SCALE:
        raise ConfigError(f"units must be one of {sorted(_UNIT_SCALE)}")
    cfg = _merge(DEFAULTS, raw, "")
    scale = _UNIT_SCALE[cfg["units"]]
    if scale != 1.0:
        _scale_lengths(cfg, scale)
        cfg["units"] = "m"
    _validate(cfg)
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


@dataclass(frozen=True)
class BuiltScenario:
    """Simulator components assembled from a resolved config for one seed."""

    scene: Scene
    rig: CameraRig
    params: LocalizationParams
    robot: RobotState
    geom: ToolGeometry
    cut: CutModel
    derive_duty: bool
    dt: float
    laser_timeout: float
    box_source: str
    box_offset: Vec3


def _workspace(cfg: dict) -> Aabb:
    loc = cfg["localization"]
    margin = cfg["robot"]["workspace_margin"]
    return Aabb(
        Vec3(loc["x_minus"] - margin, loc["y_minus"] - margin, loc["z_minus"] - margin),
        Vec3(loc["x_plus"] + margin, loc["y_plus"] + margin, loc["z_plus"] + margin),
    )


def build_scene(cfg: dict, run_seed: int) -> Scene:
    sc = cfg["scene"]
    seed = sc["seed"] if sc["seed"] is not None else run_seed
    occluders = tuple(
        Aabb(Vec3(*map(float, o[0])), Vec3(*map(float, o[1]))) for o in sc["occluders"]
    )
    return generate_scene(
        seed=seed,
        n_straw=sc["n_straw"],
        ripe_fraction=sc["ripe_fraction"],
        bend_sigma=sc["bend_sigma"],
        spacing=sc["spacing"],
        fruit_x=sc["fruit_x"],
        fruit_z_band=tuple(sc["fruit_z_band"]),
        radius_band=tuple(sc["radius_band"]),
        stem_diameter=sc["stem_diameter"],
        trough_height=sc["trough_height"],
        base_height=sc["base_height"],
        surface_density=sc["surface_density"],
        occluders=occluders,
    )


def _build_camera(cam_cfg: dict, frame: str) -> CameraModel:
    return CameraModel(
        pose=look_at_pose(Vec3(*cam_cfg["eye"]), Vec3(*cam_cfg["target"]), frame),
        frame=frame,
        h_fov=math.radians(cam_cfg["h_fov_deg"]),
        v_fov=math.radians(cam_cfg["v_fov_deg"]),
        min_range=cam_cfg["min_range"],
        max_range=cam_cfg["max_range"],
        depth_noise_sigma=cam_cfg["depth_noise_sigma"],
        dropout_rate=cam_cfg["dropout_rate"],
        bin_res=math.radians(cam_cfg["bin_res_deg"]),
    )


def build_rig(cfg: dict) -> CameraRig:
    return CameraRig(
        cam1=_build_camera(cfg["rig"]["cam1"], "cam1"),
        cam2=_build_camera(cfg["rig"]["cam2"], "cam2"),
    )


def build_localization(cfg: dict) -> LocalizationParams:
    return LocalizationParams(**cfg["localization"])


def build_robot(cfg: dict) -> RobotState:
    rb = cfg["robot"]
    home = Vec3(*rb["home"])
    return RobotState(
        tool_pos=home,
        velocity_scale=rb["velocity_scale"],
        max_speed=rb["max_speed"],
        home=home,
        workspace=_workspace(cfg),
    )


def build_tool(cfg: dict) -> ToolGeometry:
    return ToolGeometry(**cfg["tool"])


def build_cut(cfg: dict) -> tuple[CutModel, bool]:
    ct = cfg["cut"]
    kwargs = {"laser_power": ct["laser_power"]}
    if ct["cut_energy_per_area"] is not None:
        kwargs["cut_energy_per_area"] = ct["cut_energy_per_area"]
    derive_duty = ct["duty"] is None
    if not derive_duty:
        kwargs["duty"] = ct["duty"]
    return CutModel(**kwargs), derive_duty


def build_scenario(cfg: dict, run_seed: int) -> BuiltScenario:
    cut, derive_duty = build_cut(cfg)
    return BuiltScenario(
        scene=build_scene(cfg, run_seed),
        rig=build_rig(cfg),
        params=build_localization(cfg),
        robot=build_robot(cfg),
        geom=build_tool(cfg),
        cut=cut,
        derive_duty=derive_duty,
        dt=cfg["cut"]["dt"],
        laser_timeout=cfg["cut"]["laser_timeout"],
        box_source=cfg["boxes"]["source"],
        box_offset=Vec3(*cfg["boxes"]["offset"]),
    )
