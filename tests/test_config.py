import copy
import json
import math
import re
from dataclasses import asdict

import pytest

from berrypick.camera import MAX_BINS, capture_rig
from berrypick.config import (
    _LENGTH_FIELDS,
    DEFAULTS,
    SWEEP_AXES,
    apply_sweep_value,
    build_cut,
    build_localization,
    build_rig,
    build_robot,
    build_scenario,
    build_scene,
    config_hash,
    load_config,
    resolve_config,
)
from berrypick.cutter import MAX_TIMESTEPS, CutModel
from berrypick.errors import ConfigError
from berrypick.scene import MAX_SURFACE_SAMPLES
from test_extremes import BASE, EXTREMES

# the paper9 scenario's scene
PAPER9_SCENE = {"seed": 7, "n_straw": 9, "ripe_fraction": 1.0, "bend_sigma": 0.001}

# configs a run could not survive, and the key each is rejected by: a
# scene whose surface sampling would allocate terabytes or more (at a
# high density, around a huge occluder, or along stems 1e300 m long), a
# directory name holding a NUL byte, a box offset so large that the
# distance from a box to its fruit leaves the float range, and a depth
# noise so large that a noisy ray leaves it
UNSAFE_CONFIGS = {
    "density": ({"scene": {"seed": 7, "surface_density": 1e15}}, "scene.surface_density"),
    "vast_occluder": ({"scene": {"occluders": [[[-1e150] * 3, [-0.9, 1e150, 1e150]]]}}, "scene.surface_density"),
    "large_occluder": ({"scene": {"occluders": [[[-1e6] * 3, [-0.9, 1e6, 1e6]]]}}, "scene.surface_density"),
    "long_stems": ({"scene": {"seed": 7, "trough_height": 1e300}}, "scene.surface_density"),
    "nul_name": ({"name": "a\0b", "boxes": {"source": "truth"}, "scene": {"n_straw": 1, "seed": 3}}, "name"),
    "nul_out": ({"out": "o\0x", "boxes": {"source": "truth"}, "scene": {"n_straw": 1, "seed": 3}}, "out"),
    "far_offset": ({"boxes": {"source": "truth", "offset": [0, 1e300, 0]}, "scene": {"n_straw": 2, "seed": 3}},
                   "boxes.offset"),
    # a window or a margin this wide once let the offset through, and matching a box to its fruit overflowed
    "wide_window": ({"localization": {"y_plus": 1e300, "y_minus": -1e300, "tol": 1e290},
                     "boxes": {"source": "truth", "offset": [0, 1e300, 0]}, "scene": {"n_straw": 2, "seed": 3}},
                    "localization.y_plus"),
    "wide_margin": ({"robot": {"workspace_margin": 1e300},
                     "boxes": {"source": "truth", "offset": [0, 1e300, 0]}, "scene": {"n_straw": 2, "seed": 3}},
                    "robot.workspace_margin"),
    # each value is > 0, but the speed, their product, underflows to 0 or to a subnormal
    "zero_speed": ({"robot": {"velocity_scale": 5e-324}}, "robot.velocity_scale"),
    "subnormal_speed": ({"robot": {"velocity_scale": 1e-300, "max_speed": 1e-20}}, "robot.velocity_scale"),
    # each once ended in "cloud contains non-finite positions"
    "noisy_cam1": ({"rig": {"cam1": {"depth_noise_sigma": 1e308}}}, "rig.cam1.depth_noise_sigma"),
    "noisy_cam2": ({"rig": {"cam2": {"depth_noise_sigma": 1e308}}}, "rig.cam2.depth_noise_sigma"),
    "noisy_sweep": ({"sweep": {"noise_sigmas": [1e308]}}, "sweep.noise_sigmas[0]"),
}


class TestResolve:
    def test_empty_config_uses_defaults(self):
        cfg = resolve_config({})
        assert cfg["localization"]["tol"] == 0.02
        assert cfg["robot"]["velocity_scale"] == 0.5
        assert cfg["scene"]["n_straw"] == 9

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError, match="scene.fruitiness"):
            resolve_config({"scene": {"fruitiness": 1}})

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="lasers"):
            resolve_config({"lasers": {}})

    def test_negative_s_min_named(self):
        with pytest.raises(ConfigError, match="localization.s_min"):
            resolve_config({"localization": {"s_min": -3}})

    def test_window_ordering_checked(self):
        with pytest.raises(ConfigError, match="localization.x_minus"):
            resolve_config({"localization": {"x_minus": 0.9}})

    def test_bad_units(self):
        with pytest.raises(ConfigError, match="units"):
            resolve_config({"units": "furlong"})

    def test_non_string_units(self):
        with pytest.raises(ConfigError, match="units"):
            resolve_config({"units": ["m"]})

    def test_seeds_must_be_integers(self):
        with pytest.raises(ConfigError, match="seeds"):
            resolve_config({"seeds": [1.5]})

    @pytest.mark.parametrize("payload, key", [
        ({"seeds": [-1]}, "seeds"),
        ({"scene": {"seed": 3}, "seeds": [2, -1]}, "seeds"),
        ({"scene": {"seed": -1}}, "scene.seed"),
    ], ids=["run_seed", "run_seed_fixed_scene", "scene_seed"])
    def test_negative_seed_named(self, payload, key):
        # numpy seeds only from integers >= 0
        with pytest.raises(ConfigError, match=f"^{key} "):
            resolve_config(payload)

    @pytest.mark.parametrize("tol", [1e-7, 1e-300])
    def test_tol_too_small_for_window_named(self, tol):
        # once a silent int64 wrap of the clustering grid's cell keys
        with pytest.raises(ConfigError, match="^localization.tol "):
            resolve_config({"localization": {"tol": tol}})

    @pytest.mark.parametrize("bin_res_deg", [1e-300, 3.30e-8])
    def test_bin_res_too_fine_for_z_buffer_named(self, bin_res_deg):
        # once an OverflowError in the z-buffer's int64 bin numbers; the
        # limit, a grid of 2^62 bins, lies between 3.30e-8 and 3.31e-8 degrees
        with pytest.raises(ConfigError, match=r"^rig\.cam1\.bin_res_deg "):
            resolve_config({"rig": {"cam1": {"bin_res_deg": bin_res_deg}}})

    def test_finest_bin_res_views(self):
        cfg = resolve_config({"scene": {"seed": 7}, "rig": {"cam1": {"bin_res_deg": 3.31e-8}}})
        cam1 = build_rig(cfg).cam1
        bins = (math.ceil(cam1.h_fov / cam1.bin_res) + 1) * (math.ceil(cam1.v_fov / cam1.bin_res) + 1)
        assert 0.99 * MAX_BINS < bins < MAX_BINS
        c1, _ = capture_rig(build_scene(cfg, 1), build_rig(cfg), 1)
        assert len(c1) > 0

    def test_timesteps_a_cut_bounded(self):
        # a cut burns up to laser_timeout / dt timesteps: at the limit, one step
        # over it, and dt 1e-8 s, which once took seconds a fruit
        assert resolve_config({"cut": {"dt": 1.0, "laser_timeout": float(MAX_TIMESTEPS)}})
        for cut in ({"dt": 1.0, "laser_timeout": MAX_TIMESTEPS + 1.0}, {"dt": 1e-8}):
            with pytest.raises(ConfigError, match=r"^cut\.dt "):
                resolve_config({"cut": cut})

    @pytest.mark.parametrize("case", sorted(UNSAFE_CONFIGS))
    def test_unsafe_config_named(self, case):
        payload, key = UNSAFE_CONFIGS[case]
        with pytest.raises(ConfigError, match=f"^{re.escape(key)} "):
            resolve_config(payload)

    def test_box_offset_bounded_by_workspace_size(self):
        ws = build_robot(resolve_config({})).workspace
        size = [ws.max.x - ws.min.x, ws.max.y - ws.min.y, ws.max.z - ws.min.z]
        for axis in range(3):
            for sign in (1.0, -1.0):
                offset = [0.0, 0.0, 0.0]
                offset[axis] = sign * size[axis]
                resolve_config({"boxes": {"offset": offset}})
                offset[axis] = sign * math.nextafter(size[axis], math.inf)
                with pytest.raises(ConfigError, match=r"^boxes\.offset must be at most the workspace's size "):
                    resolve_config({"boxes": {"offset": offset}})

    def test_surface_samples_bounded(self):
        # only resolved: a scene at the limit would draw 10^7 samples
        area = build_scene(resolve_config({"scene": PAPER9_SCENE}), 1).surface_area
        limit = MAX_SURFACE_SAMPLES / area
        resolve_config({"scene": {**PAPER9_SCENE, "surface_density": limit * (1 - 1e-9)}})
        with pytest.raises(ConfigError, match=rf"^scene\.surface_density .* {area:.6g} m\^2 "):
            resolve_config({"scene": {**PAPER9_SCENE, "surface_density": limit * (1 + 1e-9)}})

    def test_velocity_scale_range(self):
        with pytest.raises(ConfigError, match="robot.velocity_scale"):
            resolve_config({"robot": {"velocity_scale": 1.5}})

    def test_boxes_source(self):
        with pytest.raises(ConfigError, match="boxes.source"):
            resolve_config({"boxes": {"source": "psychic"}})

    def test_negative_noise_sigma_named(self):
        with pytest.raises(ConfigError, match="sweep.noise_sigmas"):
            resolve_config({"sweep": {"noise_sigmas": [0.001, -1]}})

    def test_non_numeric_sweep_entry_named(self):
        with pytest.raises(ConfigError, match="sweep.velocity_scales"):
            resolve_config({"sweep": {"velocity_scales": ["fast"]}})

    @pytest.mark.parametrize("payload, message", [
        ({"sweep": {"offsets_mm": [0, 0, 20]}}, r"sweep\.offsets_mm .*\[1\] = 0 repeats \[0\] = 0"),
        ({"sweep": {"offsets_mm": [0, 20, 0.0]}}, r"sweep\.offsets_mm .*\[2\] = 0\.0 repeats \[0\] = 0"),
        ({"sweep": {"offsets_mm": [-0.0, 0.0]}}, r"sweep\.offsets_mm .*\[1\] = 0\.0 repeats \[0\] = -0\.0"),
        ({"sweep": {"velocity_scales": [0.5, 1.0, 0.5]}}, r"sweep\.velocity_scales "),
        ({"sweep": {"powers": [50, 50.0]}}, r"sweep\.powers "),
        ({"units": "mm", "sweep": {"noise_sigmas": [2, 2.0]}}, r"sweep\.noise_sigmas "),
        ({"seeds": [1, 2, 1]}, r"seeds .*\[2\] = 1 repeats \[0\] = 1"),
    ], ids=["offsets", "int_and_float", "signed_zeros", "velocity", "powers", "scaled_noise", "seeds"])
    def test_repeated_entry_named(self, payload, message):
        # a sweep groups its aggregate rows with ==, so a repeat counts its runs twice
        with pytest.raises(ConfigError, match=f"^{message}"):
            resolve_config(payload)

    def test_distinct_entries_accepted(self):
        cfg = resolve_config({"sweep": {"offsets_mm": [0, 1e-300, -1e-300]}, "seeds": [0, 1, 2]})
        assert cfg["sweep"]["offsets_mm"] == [0, 1e-300, -1e-300]

    @pytest.mark.parametrize("occ, key", [
        ([[1, 2]], r"scene\.occluders\[0\]"),
        ([[[0, 0, 0], [1, 1, 1]], 5], r"scene\.occluders\[1\]"),
        ([[[0, 0, 0], [1, 1]]], r"scene\.occluders\[0\]\[1\]"),
        ([[[0, 0, "a"], [1, 1, 1]]], r"scene\.occluders\[0\]\[0\]"),
        ([[[0, 2, 0], [1, 1, 1]]], r"scene\.occluders\[0\] must have min <= max"),
        ({"min": [0, 0, 0]}, r"scene\.occluders must be a list"),
    ])
    def test_malformed_occluder_named(self, occ, key):
        with pytest.raises(ConfigError, match=key):
            resolve_config({"scene": {"occluders": occ}})

    def test_non_numeric_band_named(self):
        with pytest.raises(ConfigError, match="scene.radius_band"):
            resolve_config({"scene": {"radius_band": ["a", "b"]}})

    def test_zero_thickness_occluder_allowed(self):
        cfg = resolve_config({"scene": {"occluders": [[[0.21, -0.05, 0.3], [0.21, 0.05, 0.55]]]}})
        (occ,) = build_scene(cfg, 1).occluders
        assert occ.min.x == occ.max.x

    def test_non_numeric_length_named_in_scaled_units(self):
        with pytest.raises(ConfigError, match=r"rig\.cam1\.eye"):
            resolve_config({"units": "cm", "rig": {"cam1": {"eye": [0, "up", 40]}}})


# a value each sweep axis accepts, in m and in mm
SWEEP_VALID = {"offset": 5, "velocity": 0.5, "power": 50.0, "noise": 0.002}


class TestSweepPoints:
    """`resolve_config` checks each sweep point with the builder of the
    component its axis sets; it refuses a point exactly where building
    the whole point would, with that message."""

    @pytest.mark.parametrize("units", ["m", "mm"])
    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    def test_point_refused_as_its_whole_build(self, axis, units):
        key, _, _ = SWEEP_AXES[axis]
        base = resolve_config({**BASE, "units": units})
        refused = []
        for value in (SWEEP_VALID[axis], *EXTREMES):
            # the value in meters, as `resolve_config` rescales it
            meters = value * 0.001 if units == "mm" and f"sweep.{key}" in _LENGTH_FIELDS else value
            try:
                build_scenario(apply_sweep_value(base, axis, meters), base["seeds"][0])
                want = None
            except ConfigError as e:
                want = f"sweep.{key}[0] = {meters}: {e}"
            try:
                resolve_config({**BASE, "units": units, "sweep": {key: [value]}})
                got = None
            except ConfigError as e:
                got = str(e)
            assert got == want, (axis, units, value)
            refused.append(want is not None)
        assert not refused[0] and any(refused)


class TestUnits:
    def test_cm_config_matches_meter_defaults(self):
        # the stock crop window expressed in centimeters
        cm_cfg = resolve_config(
            {
                "units": "cm",
                "localization": {
                    "x_plus": 55, "x_minus": 25,
                    "y_plus": 30, "y_minus": -30,
                    "z_plus": 50, "z_minus": 30,
                    "tol": 2,
                },
                "tool": {
                    "groove_width": 3.5, "trapper_width": 3.0,
                    "focal_length": 25, "lens_stroke": 0.6,
                    "interrupter_drop": 5,
                },
            }
        )
        m_cfg = resolve_config({})
        for key, value in m_cfg["localization"].items():
            assert cm_cfg["localization"][key] == pytest.approx(value)
        for key, value in m_cfg["tool"].items():
            assert cm_cfg["tool"][key] == pytest.approx(value)
        assert cm_cfg["units"] == "m"

    def test_color_thresholds_not_scaled(self):
        cfg = resolve_config({"units": "mm"})
        assert cfg["localization"]["r_th"] == 100

    def test_defaults_stay_meters(self):
        # units rescale the values the file gives, never the defaults
        cfg = resolve_config({"units": "mm", "scene": {"spacing": 50}})
        assert cfg["scene"]["spacing"] == pytest.approx(0.05)
        assert cfg["scene"]["radius_band"] == DEFAULTS["scene"]["radius_band"]
        assert cfg["localization"]["tol"] == DEFAULTS["localization"]["tol"]

    def test_mm_scaling(self):
        cfg = resolve_config({"units": "mm", "tool": {"trapper_width": 30, "groove_width": 35}})
        assert cfg["tool"]["trapper_width"] == pytest.approx(0.030)

    def test_int_length_in_meters_keeps_its_type(self):
        # units "m" rescale nothing, so the hash reads the int the file gave
        cfg = resolve_config({"localization": {"x_plus": 1}})
        assert type(cfg["localization"]["x_plus"]) is int
        expected = copy.deepcopy(DEFAULTS)
        expected["localization"]["x_plus"] = 1
        assert config_hash(cfg) == config_hash(expected)
        assert config_hash(cfg) != config_hash(resolve_config({"localization": {"x_plus": 1.0}}))

    def test_resolved_config_resolves_to_itself(self):
        cfg = resolve_config({"units": "mm", "scene": {"spacing": 50, "occluders": [[[210, -50, 300], [220, 50, 350]]]}})
        again = resolve_config(copy.deepcopy(cfg))
        assert again == cfg and config_hash(again) == config_hash(cfg)


class TestHash:
    def test_stable(self):
        a = config_hash(resolve_config({}))
        b = config_hash(resolve_config({}))
        assert a == b
        assert len(a) == 64

    def test_sensitive_to_values(self):
        a = config_hash(resolve_config({}))
        b = config_hash(resolve_config({"robot": {"velocity_scale": 0.75}}))
        assert a != b

    def test_key_order_does_not_matter(self):
        a = resolve_config({"robot": {"max_speed": 0.2, "velocity_scale": 0.5}})
        b = resolve_config({"robot": {"velocity_scale": 0.5, "max_speed": 0.2}})
        assert config_hash(a) == config_hash(b)


class TestBuilders:
    def test_build_scene_uses_run_seed_when_null(self):
        cfg = resolve_config({"scene": {"seed": None, "n_straw": 3}})
        a = build_scene(cfg, 11)
        b = build_scene(cfg, 12)
        assert a.rng_seed == 11
        assert b.rng_seed == 12
        assert a != b

    def test_build_scene_fixed_seed(self):
        cfg = resolve_config({"scene": {"seed": 5, "n_straw": 3}})
        assert build_scene(cfg, 99).rng_seed == 5

    def test_build_rig_frames(self):
        rig = build_rig(resolve_config({}))
        assert rig.cam1.frame == "cam1"
        assert rig.cam2.frame == "cam2"

    def test_build_localization_defaults(self):
        p = build_localization(resolve_config({}))
        assert (p.s_min, p.s_max) == (20, 1000)

    @pytest.mark.parametrize("payload", [{"localization": {"y_minus": 0}}, {"robot": {"workspace_margin": 0}}])
    def test_home_outside_the_workspace_names_what_builds_it(self, payload):
        # the rule is robot.home's, and the workspace is built from two other keys
        with pytest.raises(ConfigError, match=r"^robot\.home .*, the localization crop window inflated by robot\.workspace_margin$"):
            resolve_config(payload)

    def test_build_robot_workspace_margin(self):
        cfg = resolve_config({})
        robot = build_robot(cfg)
        loc = cfg["localization"]
        assert robot.workspace.min.x == pytest.approx(loc["x_minus"] - 0.10)
        assert robot.workspace.max.z == pytest.approx(loc["z_plus"] + 0.10)

    def test_build_cut_duty_modes(self):
        # field for field: a null duty stays null, to be derived per stem
        assert build_cut(resolve_config({})) == CutModel()
        cfg = resolve_config({"cut": {"duty": 0.8, "dt": 0.02}})
        assert asdict(build_cut(cfg)) == cfg["cut"]
        assert DEFAULTS["cut"] == asdict(CutModel())

    def test_build_scenario_bundle(self):
        built = build_scenario(resolve_config({}), 1)
        assert (built.cut.dt, built.cut.laser_timeout) == (0.01, 10.0)
        assert built.box_source == "cameras"


class TestLoadConfig:
    def test_load_from_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"name": "mini", "scene": {"n_straw": 2}}))
        cfg = load_config(path)
        assert cfg["name"] == "mini"
        assert cfg["scene"]["n_straw"] == 2

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError, match="invalid JSON"):
            load_config(path)

    def test_defaults_are_valid(self):
        resolve_config(json.loads(json.dumps(DEFAULTS)))
