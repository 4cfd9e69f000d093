import copy
import json
import os
from dataclasses import fields

import numpy as np
import pytest

from berrypick import camera, cli, config
from berrypick.bench import N_BLOBS, RED_FRACTION, make_bench_clouds
from berrypick.camera import CameraModel, capture_rig, default_rig
from berrypick.cli import (
    apply_sweep_value,
    cycles_to_csv,
    main,
    metrics_to_json,
    resolve_config_arg,
    run_one,
)
from berrypick.config import SWEEP_AXES, build_rig, build_scenario, load_config, resolve_config, sweep_point
from berrypick.controller import BuiltScenario, HarvestEventLog, run_harvest
from berrypick.errors import ConfigError
from berrypick.geometry import dump_cloud
from berrypick.localization import LocalizationParams, localize
from berrypick.scene import generate_scene

from test_config import UNSAFE_CONFIGS


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_SCENE = {"seed": 3, "n_straw": 2, "ripe_fraction": 1.0, "bend_sigma": 0.0,
              "surface_density": 20000.0}


class TestRoundTrips:
    def test_cycles_csv_identity(self):
        log = HarvestEventLog()
        log.append(0.0, "begin", n_ripe=2)
        log.append(8.125, "cycle", fruit=0, cycle_time=8.125, cut_time=2.3000000000000003, outcome="harvested")
        log.append(8.125, "release", fruit=1)
        log.append(11.625, "cycle", fruit=1, cycle_time=3.5, cut_time=0.0, outcome="missed_trap")
        log.append(11.625, "end")
        assert cycles_to_csv(log) == (
            "fruit_id,cycle_time,cut_time,outcome\n"
            "0,8.125,2.3000000000000003,harvested\n"
            "1,3.5,0.0,missed_trap\n"
        )

    def test_metrics_json_identity(self):
        metrics = {"mean_cycle_time": 7.25, "success_rate": 1.0, "n_ripe": 9, "none_field": None}
        text = metrics_to_json(metrics)
        assert metrics_to_json(json.loads(text)) == text


class TestPackagedScenarios:
    @pytest.mark.parametrize("name", ["paper9", "robustness", "bench", "noise"])
    def test_resolvable(self, name):
        cfg = resolve_config_arg(name)
        assert cfg["name"] == name

    def test_missing_config_is_config_error(self, capsys):
        rc = main(["run", "--config", "no_such_scenario"])
        assert rc == 2
        assert "config not found" in capsys.readouterr().err

    def test_directory_does_not_shadow_a_scenario(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bench").mkdir()
        assert main(["run", "--config", "bench", "--seed", "1", "--out", "out"]) == 0
        assert json.loads((tmp_path / "out" / "seed1" / "metrics.json").read_text())["seed"] == 1


class TestRunCommand:
    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("case", sorted(UNSAFE_CONFIGS))
    def test_unsafe_config_is_config_error(self, tmp_path, monkeypatch, capsys, command, case):
        payload, key = UNSAFE_CONFIGS[case]
        cfg_path = write_cfg(tmp_path, {**payload, "sweep": {"offsets_mm": [0], **payload.get("sweep", {})}})
        # no --out: the output directory comes from `name` or `out`, under the working directory
        monkeypatch.chdir(tmp_path)
        argv = [command, "--config", cfg_path] + (["--axis", "offset"] if command == "sweep" else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5]})
        out = tmp_path / "out"
        rc = main(["run", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        run_dir = out / "seed5"
        for name in ("events.jsonl", "cycles.csv", "metrics.json", "wallclock.json"):
            assert (run_dir / name).exists()
        metrics = json.loads((run_dir / "metrics.json").read_text())
        assert metrics["n_ripe"] == 2
        assert metrics["seed"] == 5
        assert len(metrics["config_hash"]) == 64
        assert "localization_ms" not in metrics  # wall data only in the sidecar
        wall = json.loads((run_dir / "wallclock.json").read_text())
        assert wall["localization_ms"] > 0

    def test_largest_depth_noise_runs(self, tmp_path):
        # 1e300 m of depth noise is allowed, and every noisy ray stays finite
        payload = {"scene": FAST_SCENE, "rig": {cam: {"depth_noise_sigma": 1e300} for cam in ("cam1", "cam2")}}
        assert main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "out")]) == 0

    def test_fall_past_the_cut_budget_finishes(self, tmp_path):
        # 1e11 timesteps of fall at dt 1e-12 s, against a cut budget of 5e6:
        # every stem severs at once, and no fall is seen within laser_timeout
        payload = {"scene": {"seed": 7}, "cut": {"dt": 1e-12, "laser_timeout": 5e-6, "cut_energy_per_area": 1e-300}}
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 0
        records = map(json.loads, (out / "seed1" / "events.jsonl").read_text().splitlines())
        cycles = [r for r in records if r["event"] == "cycle"]
        assert len(cycles) == 9 and all(c["outcome"] == "not_detected" for c in cycles)

    def test_truth_boxes_have_no_localization_time(self, tmp_path):
        payload = {"name": "mini", "scene": FAST_SCENE, "boxes": {"source": "truth"}, "seeds": [5]}
        out = tmp_path / "out"
        assert main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(out)]) == 0
        wall = json.loads((out / "seed5" / "wallclock.json").read_text())
        assert wall["localization_ms"] is None and wall["wall_s"] > 0

    def test_rerun_byte_identical_excluding_sidecar(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5]})
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
            outs.append(out / "seed5")
        for name in ("events.jsonl", "cycles.csv", "metrics.json", "manifest.json"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    def test_manifest_checksums_artifacts(self, tmp_path):
        import hashlib

        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--out", str(out)]) == 0
        run_dir = out / "seed5"
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["seed"] == 5
        for name, digest in manifest["files"].items():
            assert hashlib.sha256((run_dir / name).read_bytes()).hexdigest() == digest
        assert "wallclock.json" not in manifest["files"]

    def test_seed_override(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5, 6]})
        out = tmp_path / "out"
        assert main(["run", "--config", cfg_path, "--seed", "9", "--out", str(out)]) == 0
        assert (out / "seed9").exists()
        assert not (out / "seed5").exists()

    def test_dump_clouds(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5]})
        out = tmp_path / "out"
        dump = tmp_path / "clouds"
        assert main(["run", "--config", cfg_path, "--out", str(out), "--dump-clouds", str(dump)]) == 0
        for name in ("cam1.txt", "cam2.txt", "merged_base.txt"):
            assert (dump / "seed5" / name).exists()

    def test_dump_clouds_samples_once(self, tmp_path, sample_calls):
        run_one(resolve_config_arg("paper9"), 1, tmp_path / "run", tmp_path / "clouds")
        assert (tmp_path / "clouds" / "merged_base.txt").exists()
        assert len(sample_calls) == 1

    def test_config_error_names_key(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"localization": {"s_min": -1}})
        rc = main(["run", "--config", cfg_path])
        assert rc == 2
        assert "localization.s_min" in capsys.readouterr().err

    def test_malformed_occluder_is_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"scene": {"occluders": [[1, 2]]}})
        rc = main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "scene.occluders[0]" in err and "Traceback" not in err

    @pytest.mark.parametrize("payload, key", [
        ({"scene": {"stem_diameter": 0.01}}, "scene.stem_diameter"),
        ({"scene": {"radius_band": [0.001, 0.002]}}, "scene.radius_band"),
        ({"scene": {"fruit_z_band": [0.2, 0.6]}}, "scene.fruit_z_band"),
        ({"scene": {"fruit_x": 0.9}}, "scene.fruit_x"),
        ({"rig": {"cam1": {"target": [-0.05, 0.0, 0.45]}}}, "rig.cam1.target"),
        # a narrowed crop window narrows the workspace: the default fruit_x lies outside it
        ({"localization": {"x_minus": 0.20, "x_plus": 0.30}, "scene": {"seed": 7}, "boxes": {"source": "truth"}},
         "scene.fruit_x"),
        # ... and can leave the robot's HOME outside it
        ({"localization": {"x_minus": 0.35, "x_plus": 0.55}}, "robot.home"),
        # ripe fruit hung inside the workspace but beyond the crop window, in x ...
        ({"scene": {"seed": 7, "fruit_x": 0.62}}, "scene.fruit_x"),
        # ... and in y, where the row is wider than a narrowed window
        ({"localization": {"y_minus": -0.1, "y_plus": 0.1}, "robot": {"home": [0.2, -0.15, 0.44]}, "scene": {"seed": 7}},
         "scene.n_straw"),
        # ripe fruit inside the crop window but behind the trough's front face, hidden from the cameras
        ({"scene": {"seed": 7, "fruit_x": 0.52}}, "scene.fruit_x"),
        # a z-buffer grid of 2^62 bins or more, once an OverflowError
        ({"rig": {"cam1": {"bin_res_deg": 1e-300}}}, "rig.cam1.bin_res_deg"),
    ])
    def test_component_rule_is_config_error(self, tmp_path, capsys, payload, key):
        # rules only the components hold: the config is rejected when they are built
        cfg_path = write_cfg(tmp_path, payload)
        rc = main(["run", "--config", cfg_path, "--out", str(tmp_path / "r")])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"config error: {key} " in err and "Traceback" not in err

    def test_widened_window_reaches_fruit(self, tmp_path, capsys):
        payload = {"localization": {"x_plus": 0.85}, "scene": {"fruit_x": 0.7, "n_straw": 2},
                   "boxes": {"source": "truth"}}
        rc = main(["run", "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "r")])
        assert rc == 0
        assert "seed 1: 2/2 harvested" in capsys.readouterr().out

    def test_paper9_has_nine_cycle_rows(self, tmp_path):
        out = tmp_path / "p9"
        assert main(["run", "--config", "paper9", "--out", str(out)]) == 0
        rows = (out / "seed1" / "cycles.csv").read_text().splitlines()
        assert len(rows) == 10  # header + nine cycles
        assert all(r.endswith("harvested") for r in rows[1:])

    def test_io_error_exit_code(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [5]})
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        rc = main(["run", "--config", cfg_path, "--out", str(blocker / "nested")])
        assert rc == 3

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_far_sweep_offset_is_config_error(self, tmp_path, capsys, command):
        payload = {"boxes": {"source": "truth"}, "scene": {"n_straw": 2, "seed": 3}, "sweep": {"offsets_mm": [0, 1e303]}}
        argv = [command, "--config", write_cfg(tmp_path, payload), "--out", str(tmp_path / "r")]
        assert main(argv + (["--axis", "offset"] if command == "sweep" else [])) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep.offsets_mm[1] = 1e+303: boxes.offset ") and "Traceback" not in err
        assert not (tmp_path / "r").exists()


class TestAtomicWrites:
    def test_no_tmp_file_left(self, tmp_path):
        run_one(resolve_config_arg("paper9"), 1, tmp_path / "run")
        payload = {"boxes": {"source": "truth"}, "scene": {"n_straw": 2, "seed": 3}, "sweep": {"offsets_mm": [0, 20]}}
        sweep_out = tmp_path / "sweep"
        assert main(["sweep", "--config", write_cfg(tmp_path, payload), "--axis", "offset", "--out", str(sweep_out)]) == 0
        assert len(list(sweep_out.glob("*/manifest.json"))) == 2
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "cycles.csv", "events.jsonl", "manifest.json", "metrics.json", "wallclock.json"]
        assert list(tmp_path.rglob("*.tmp")) == []

    def test_failed_write_is_io_error_and_keeps_the_old_file(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["run", "--seed", "5", "--out", str(out), "--config"]
        cfg = {"name": "first", "scene": FAST_SCENE, "boxes": {"source": "truth"}}
        assert main([*argv, write_cfg(tmp_path, cfg)]) == 0
        events = out / "seed5" / "events.jsonl"
        before = events.read_bytes()
        (out / "seed5" / "events.jsonl.tmp").mkdir()
        # another name, another config hash: the run would write other bytes
        assert main([*argv, write_cfg(tmp_path, {**cfg, "name": "second"})]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and "events.jsonl.tmp" in err and "Traceback" not in err
        assert events.read_bytes() == before

    def test_failed_replace_removes_its_tmp_file(self, tmp_path, capsys):
        # events.jsonl is a directory: the tmp file is written, and the replace fails
        run_dir = tmp_path / "out" / "seed1"
        (run_dir / "events.jsonl").mkdir(parents=True)
        (run_dir / "events.jsonl" / "keep").write_text("kept")
        assert main(["run", "--config", "paper9", "--seed", "1", "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("io error: ") and "events.jsonl" in err and "Traceback" not in err
        assert list(tmp_path.rglob("*.tmp")) == []
        assert [p.name for p in (run_dir / "events.jsonl").iterdir()] == ["keep"]
        assert (run_dir / "events.jsonl" / "keep").read_text() == "kept"

    def test_short_writes_are_resumed(self, tmp_path, monkeypatch):
        real_write, calls = os.write, []

        def one_byte(fd, data):
            calls.append(len(data))
            return real_write(fd, bytes(data[:1]))

        monkeypatch.setattr(os, "write", one_byte)
        text = "events: \u00e9\u4e2d\U0001f353\n" * 20
        path = tmp_path / "f.txt"
        assert cli._write_text(path, text) == text.encode()
        assert path.read_bytes() == text.encode()
        assert len(calls) == len(text.encode())
        assert list(tmp_path.iterdir()) == [path]


class TestSweepCommand:
    def test_velocity_sweep_monotone(self, tmp_path):
        cfg_path = write_cfg(
            tmp_path,
            {
                "name": "mini",
                "scene": FAST_SCENE,
                "boxes": {"source": "truth"},
                "sweep": {"velocity_scales": [0.25, 0.5, 1.0]},
                "seeds": [1],
            },
        )
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg_path, "--axis", "velocity", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        data = [dict(zip(header, r.split(","))) for r in rows[1:]]
        per_seed = [d for d in data if d["aggregate"] == "0"]
        assert len(per_seed) == 3
        times = [float(d["mean_cycle_time"]) for d in sorted(per_seed, key=lambda d: float(d["value"]))]
        assert times[0] > times[1] > times[2]
        aggregates = [d for d in data if d["aggregate"] == "1"]
        assert len(aggregates) == 3
        assert (out / "sweep_wallclock.csv").exists()

    def test_offset_axis_applies_to_boxes(self):
        cfg = resolve_config_arg("robustness")
        point = apply_sweep_value(cfg, "offset", 15)
        assert point["boxes"]["offset"] == [0.0, 0.015, 0.0]

    def test_noise_axis_applies_to_both_cameras(self):
        cfg = resolve_config_arg("paper9")
        point = apply_sweep_value(cfg, "noise", 0.004)
        assert point["rig"]["cam1"]["depth_noise_sigma"] == 0.004
        assert point["rig"]["cam2"]["depth_noise_sigma"] == 0.004

    def test_empty_axis_rejected(self, tmp_path):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "seeds": [1]})
        rc = main(["sweep", "--config", cfg_path, "--axis", "power", "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_negative_noise_is_config_error(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"name": "mini", "scene": FAST_SCENE, "sweep": {"noise_sigmas": [-1]}})
        rc = main(["sweep", "--config", cfg_path, "--axis", "noise", "--out", str(tmp_path / "s")])
        assert rc == 2
        assert "sweep.noise_sigmas" in capsys.readouterr().err

    @pytest.mark.parametrize("threads", ["1", "2"])
    @pytest.mark.parametrize("payload, key", [
        ({"sweep": {"offsets_mm": [0, 0, 20]}, "seeds": [1, 2]}, "sweep.offsets_mm"),
        ({"sweep": {"offsets_mm": [0, 20]}, "seeds": [1] * 12}, "seeds"),
    ], ids=["offsets", "seeds"])
    def test_repeated_entry_is_config_error(self, tmp_path, monkeypatch, capsys, threads, payload, key):
        # a repeated value once counted its runs twice in the aggregate row, and
        # two workers wrote into its run directory at the same time
        cfg_path = write_cfg(tmp_path, {**TRUTH_MINI, **payload})
        monkeypatch.setenv("BERRYPICK_THREADS", threads)
        out = tmp_path / "s"
        assert main(["sweep", "--config", cfg_path, "--axis", "offset", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {key} ") and "Traceback" not in err
        assert not out.exists()

    def test_power_sweep_halves_cut_time(self, tmp_path):
        payload = {
            "name": "mini",
            "scene": FAST_SCENE,
            "boxes": {"source": "truth"},
            "sweep": {"powers": [50.0, 100.0]},
            "seeds": [1],
        }
        cfg_path = write_cfg(tmp_path, payload)
        out = tmp_path / "power"
        assert main(["sweep", "--config", cfg_path, "--axis", "power", "--out", str(out)]) == 0
        rows = (out / "sweep.csv").read_text().splitlines()
        header = rows[0].split(",")
        data = [dict(zip(header, r.split(","))) for r in rows[1:]]
        cut = {float(d["value"]): float(d["mean_cut_time"]) for d in data if d["aggregate"] == "0"}
        assert abs(cut[50.0] / cut[100.0] - 2.0) <= 0.01 / cut[100.0]

    def test_parallel_workers_match_sequential(self, tmp_path, monkeypatch):
        payload = {
            "name": "mini",
            "scene": FAST_SCENE,
            "boxes": {"source": "truth"},
            "sweep": {"powers": [50.0, 100.0]},
            "seeds": [1, 2],
        }
        cfg_path = write_cfg(tmp_path, payload)
        monkeypatch.delenv("BERRYPICK_THREADS", raising=False)
        seq = tmp_path / "seq"
        assert main(["sweep", "--config", cfg_path, "--axis", "power", "--out", str(seq)]) == 0
        monkeypatch.setenv("BERRYPICK_THREADS", "2")
        par = tmp_path / "par"
        assert main(["sweep", "--config", cfg_path, "--axis", "power", "--out", str(par)]) == 0
        assert (seq / "sweep.csv").read_bytes() == (par / "sweep.csv").read_bytes()

    @staticmethod
    def _record_chunks(monkeypatch) -> list:
        """Stand in for ProcessPoolExecutor with two workers; the returned
        list fills with the chunks `map` would hand them."""
        chunks = []

        class ChunkRecordingPool:
            def __init__(self, max_workers):
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs, chunksize=1):
                jobs = list(jobs)
                chunks.extend(jobs[i:i + chunksize] for i in range(0, len(jobs), chunksize))
                return map(fn, jobs)

        # cmd_sweep imports the pool where it starts one
        monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", ChunkRecordingPool)
        monkeypatch.setenv("BERRYPICK_THREADS", "2")
        return chunks

    def test_each_worker_chunk_is_one_seed(self, tmp_path, monkeypatch):
        chunks = self._record_chunks(monkeypatch)
        powers = [50.0, 75.0, 100.0]
        # a scene per seed, boxes from the cameras, as many seeds as workers
        payload = {"name": "mini", "scene": {**FAST_SCENE, "seed": None},
                   "sweep": {"powers": powers}, "seeds": [1, 2]}
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_cfg(tmp_path, payload), "--axis", "power", "--out", str(out)]) == 0
        # every chunk holds exactly one seed's points, all of them
        assert [sorted({job[3] for job in chunk}) for chunk in chunks] == [[1], [2]]
        assert all(sorted(job[2] for job in chunk) == powers for chunk in chunks)

    @pytest.mark.parametrize("scene_seed, boxes, seeds", [
        (3, "cameras", [1, 2]),      # one scene for every seed
        (None, "truth", [1, 2]),     # no camera runs
        (None, "cameras", [1]),      # fewer seeds than workers
    ])
    def test_points_go_one_per_chunk_where_no_view_is_shared(self, tmp_path, monkeypatch, scene_seed, boxes, seeds):
        chunks = self._record_chunks(monkeypatch)
        payload = {"name": "mini", "scene": {**FAST_SCENE, "seed": scene_seed}, "boxes": {"source": boxes},
                   "sweep": {"powers": [50.0, 100.0]}, "seeds": seeds}
        out = tmp_path / "s"
        assert main(["sweep", "--config", write_cfg(tmp_path, payload), "--axis", "power", "--out", str(out)]) == 0
        assert [len(chunk) for chunk in chunks] == [1] * 2 * len(seeds)

    def test_noise_sweep_views_each_scene_once(self, tmp_path, monkeypatch, sample_calls):
        monkeypatch.delenv("BERRYPICK_THREADS", raising=False)
        cfg = resolve_config_arg("noise")
        out = tmp_path / "noise"
        assert main(["sweep", "--config", "noise", "--axis", "noise", "--out", str(out)]) == 0
        # a new scene per seed, viewed once for all of its noise levels
        assert len(sample_calls) == len(cfg["seeds"])
        rows = [r.split(",") for r in (out / "sweep.csv").read_text().splitlines()[1:]]
        per_seed = [(value, seed) for _, value, seed, aggregate, *_ in rows if aggregate == "0"]
        values = cfg["sweep"]["noise_sigmas"]
        assert per_seed == [(repr(v), str(s)) for v in values for s in cfg["seeds"]]

    def test_bad_threads_env_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BERRYPICK_THREADS", "abc")
        rc = main(["sweep", "--config", "robustness", "--axis", "offset", "--out", str(tmp_path / "s")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "BERRYPICK_THREADS" in err and "Traceback" not in err

    @pytest.mark.parametrize("threads", ["", "-3", "0"])
    def test_empty_or_negative_threads_run_sequentially(self, tmp_path, monkeypatch, threads):
        payload = {
            "name": "mini",
            "scene": FAST_SCENE,
            "boxes": {"source": "truth"},
            "sweep": {"powers": [50.0]},
            "seeds": [1],
        }
        cfg_path = write_cfg(tmp_path, payload)
        monkeypatch.setenv("BERRYPICK_THREADS", threads)
        assert main(["sweep", "--config", cfg_path, "--axis", "power", "--out", str(tmp_path / "s")]) == 0


@pytest.fixture
def builds(monkeypatch):
    """Record each scenario `run_one` builds, at the name it calls."""
    calls = []

    def counting(cfg, seed):
        calls.append(seed)
        return build_scenario(cfg, seed)

    monkeypatch.setattr(cli, "build_scenario", counting)
    return calls


def _with(raw: dict, path: str, value) -> dict:
    """A copy of a raw config with the dotted key `path` set to `value`."""
    out = copy.deepcopy(raw)
    *sections, leaf = path.split(".")
    node = out
    for key in sections:
        node = node.setdefault(key, {})
    node[leaf] = value
    return out


def _artifacts(root) -> dict:
    """Every file under `root` but the wall-clock sidecars, by relative path."""
    return {str(f.relative_to(root)): f.read_bytes() for f in sorted(root.rglob("*"))
            if f.is_file() and f.name != "wallclock.json"}


TRUTH_MINI = {"name": "mini", "scene": FAST_SCENE, "boxes": {"source": "truth"}}


class TestKeptScenario:
    """`run_one` reuses the last built scenario only for the same config
    hash and scene seed."""

    @pytest.mark.parametrize("cfg, seeds, n_builds", [
        (resolve_config_arg("paper9"), [1, 2, 3, 4], 1),
        # a scene per run seed
        (resolve_config({"name": "mini", "scene": {**FAST_SCENE, "seed": None}}), [1, 2, 3], 3),
    ], ids=["paper9", "scene_seed_null"])
    def test_warm_runs_write_the_files_of_cold_runs(self, tmp_path, monkeypatch, builds, cfg, seeds, n_builds):
        for seed in seeds:
            run_one(cfg, seed, tmp_path / "warm" / f"seed{seed}", tmp_path / "warm" / f"clouds{seed}")
        assert len(builds) == n_builds
        for seed in seeds:
            monkeypatch.setattr(cli, "_last_built", None)
            run_one(cfg, seed, tmp_path / "cold" / f"seed{seed}", tmp_path / "cold" / f"clouds{seed}")
        warm, cold = _artifacts(tmp_path / "warm"), _artifacts(tmp_path / "cold")
        assert len(warm) == 7 * len(seeds) and warm == cold

    def test_warm_run_samples_nothing(self, tmp_path, sample_calls):
        cfg = resolve_config_arg("paper9")
        run_one(cfg, 1, tmp_path / "a")
        assert len(sample_calls) == 1
        # a new run seed of the fixed scene: the kept build holds the views
        run_one(cfg, 2, tmp_path / "b", tmp_path / "clouds")
        assert len(sample_calls) == 1 and (tmp_path / "clouds" / "merged_base.txt").exists()

    def test_same_config_and_scene_seed_hit(self, tmp_path, builds):
        cfg = resolve_config(TRUTH_MINI)
        run_one(cfg, 1, tmp_path / "a")
        run_one(copy.deepcopy(cfg), 1, tmp_path / "b")
        # scene.seed is fixed, so a new run seed builds the same scenario
        run_one(cfg, 2, tmp_path / "c")
        assert builds == [1]

    @pytest.mark.parametrize("path, value", [
        ("name", "other"),
        ("scene.spacing", 0.07),
        ("rig.cam1.dropout_rate", 0.03),
        ("localization.s_min", 21),
        ("robot.velocity_scale", 0.6),
        ("tool.focal_length", 0.26),
        ("cut.laser_power", 60.0),
        ("boxes.offset", [0.0, 0.001, 0.0]),
        ("sweep.powers", [50.0]),
        ("seeds", [1, 2]),
    ])
    def test_changed_value_misses(self, tmp_path, builds, path, value):
        run_one(resolve_config(TRUTH_MINI), 1, tmp_path / "a")
        run_one(resolve_config(_with(TRUTH_MINI, path, value)), 1, tmp_path / "b")
        assert builds == [1, 1]

    @pytest.mark.parametrize("path, value", [("boxes.offset", [0.0, -0.0, 0.0]), ("cut.laser_power", 50)])
    def test_value_equal_under_eq_but_not_in_json_misses(self, tmp_path, builds, path, value):
        base, changed = resolve_config(TRUTH_MINI), resolve_config(_with(TRUTH_MINI, path, value))
        assert changed == base
        run_one(base, 1, tmp_path / "a")
        run_one(changed, 1, tmp_path / "b")
        assert builds == [1, 1]

    def test_new_run_seed_misses_where_each_draws_its_scene(self, tmp_path, builds):
        cfg = resolve_config(_with(TRUTH_MINI, "scene.seed", None))
        run_one(cfg, 1, tmp_path / "a")
        run_one(cfg, 2, tmp_path / "b")
        run_one(cfg, 2, tmp_path / "c")
        assert builds == [1, 2]

    def test_config_error_raises_again(self, tmp_path, builds):
        cfg = resolve_config(TRUTH_MINI)
        run_one(cfg, 1, tmp_path / "a")
        bad = _with(cfg, "localization.s_min", -1)
        for run in ("b", "c"):
            with pytest.raises(ConfigError, match="^localization.s_min "):
                run_one(bad, 1, tmp_path / run)
        assert builds == [1, 1, 1]


def _same_build(a, b) -> bool:
    """Two builds equal component by component, each camera's pose
    compared as the bytes of its rotation and translation."""
    for f in fields(BuiltScenario):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name != "rig":
            if x != y:
                return False
            continue
        for c, d in ((x.cam1, y.cam1), (x.cam2, y.cam2)):
            if (c.pose.rotation.tobytes(), c.pose.translation.to_array().tobytes()) != (
                    d.pose.rotation.tobytes(), d.pose.translation.to_array().tobytes()):
                return False
            if (c.pose.source_frame, c.pose.target_frame) != (d.pose.source_frame, d.pose.target_frame):
                return False
            if any(getattr(c, g.name) != getattr(d, g.name) for g in fields(CameraModel) if g.name != "pose"):
                return False
    return True


# paper9 with one value on every sweep axis, and a scene per run seed
EVERY_AXIS = {"name": "every_axis", "scene": {"seed": None, "n_straw": 9, "ripe_fraction": 1.0, "bend_sigma": 0.001},
              "sweep": {"offsets_mm": [5], "velocity_scales": [0.25], "powers": [25.0], "noise_sigmas": [0.01]},
              "seeds": [2, 3]}


class TestSweepDerivation:
    """A sweep builds each seed once and derives each point from that
    build: the point is what building it anew gives, and a camera point
    senses the views of the seed's build."""

    @pytest.mark.parametrize("name, axis, counts", [
        # 42 validation builds (the config and its 41 points) and one build per seed
        ("robustness", "offset", (52, 10, 0)),
        ("noise", "noise", (12, 5, 5)),
    ])
    def test_sweep_builds_each_seed_once(self, tmp_path, monkeypatch, builds, sample_calls, name, axis, counts):
        monkeypatch.delenv("BERRYPICK_THREADS", raising=False)
        scenes = []

        def counting(*args, **kwargs):
            scenes.append(kwargs["seed"])
            return generate_scene(*args, **kwargs)

        monkeypatch.setattr(config, "generate_scene", counting)
        assert main(["sweep", "--config", name, "--axis", axis, "--out", str(tmp_path / "s")]) == 0
        assert (len(scenes), len(builds), len(sample_calls)) == counts
        assert builds == resolve_config_arg(name)["seeds"]

    @pytest.mark.parametrize("axis", sorted(SWEEP_AXES))
    def test_point_is_its_fresh_build(self, sample_calls, axis):
        cfg = resolve_config(EVERY_AXIS)
        for seed in cfg["seeds"]:
            built = build_scenario(cfg, seed)
            for value in cfg["sweep"][SWEEP_AXES[axis]]:
                point = apply_sweep_value(cfg, axis, value)
                derived, fresh = sweep_point(built, point, axis), build_scenario(point, seed)
                assert _same_build(derived, fresh) and not _same_build(derived, built)
                # the views of the seed's build, carried, and the bits a fresh render gives
                assert derived.views is built.views and derived.reds is built.reds
                rendered = camera.rig_views(fresh.scene, fresh.rig)
                for kept, anew in zip(derived.views, rendered):
                    assert [a.tobytes() for a in kept] == [a.tobytes() for a in anew]
                for kept, anew in zip(derived.reds, camera.view_reds(rendered, fresh.params)):
                    assert (kept[0].tobytes(), kept[1]) == (anew[0].tobytes(), anew[1])
        assert len(sample_calls) == 2 * len(cfg["seeds"])

    def test_truth_point_views_nothing(self, sample_calls):
        cfg = resolve_config_arg("robustness")
        built = build_scenario(cfg, 1)
        point = sweep_point(built, apply_sweep_value(cfg, "offset", 5), "offset")
        run_harvest(point, 1)
        assert "views" not in vars(point) and "views" not in vars(built) and sample_calls == []


class TestBenchCommand:
    @pytest.mark.parametrize("argv, flag", [
        (["--size", "-5"], "--size"),
        (["--size", "0"], "--size"),
        (["--size", "abc"], "--size"),
        (["--size", "10", "--reps", "0"], "--reps"),
        (["--size", "10", "--reps", "-1"], "--reps"),
        (["--size", "10", "--seed", "-1"], "--seed"),
        # a cloud of more than 10**7 points, which could exhaust memory
        (["--size", "10000001"], "--size"),
        (["--size", "1000000000000000"], "--size"),
    ])
    def test_bad_count_flag_exits_2(self, capsys, argv, flag):
        with pytest.raises(SystemExit) as exc:
            main(["bench", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}" in err and "Traceback" not in err

    def test_small_bench_runs(self, tmp_path, capsys):
        out = tmp_path / "bench.json"
        rc = main(["bench", "--size", "2000", "--reps", "3", "--out", str(out)])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["size"] == 2000
        assert report["reps"] == 3
        assert report["max_ms"] >= report["p50_ms"] > 0
        assert json.loads(out.read_text()) == report

    def test_size_one(self, capsys):
        rc = main(["bench", "--size", "1", "--reps", "2"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["p50_ms"] > 0
        assert report["blob_recall"] == 0

    def test_reports_blob_recall(self, capsys):
        rc = main(["bench", "--size", "5000", "--reps", "1", "--seed", "0"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        params = LocalizationParams()
        rig = default_rig()
        c1, c2 = make_bench_clouds(5000, 0, params, rig)
        load = {}
        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params, load)
        assert {k: report[k] for k in ("n_red", "n_cells", "n_cell_pairs", "n_clusters_raw")} == {
            k: load[k] for k in ("n_red", "n_cells", "n_cell_pairs", "n_clusters_raw")}
        span = params.y_plus - params.y_minus
        found = 0
        for k in range(N_BLOBS):
            c = np.array([(params.x_minus + params.x_plus) / 2, params.y_minus + span * (k + 1) / (N_BLOBS + 1),
                          (params.z_minus + params.z_plus) / 2])
            found += any(np.all(c >= b.box.min.to_array()) and np.all(c <= b.box.max.to_array()) for b in boxes)
        assert report["blob_recall"] == found == N_BLOBS

    def test_noise_where_the_blobs_leave_no_room(self):
        # a tol so wide that no red noise clears the blobs: the background
        # takes its points, and every red point left is a blob's
        params, rig = LocalizationParams(tol=0.3), default_rig()
        c1, c2 = make_bench_clouds(20_000, 0, params, rig)
        assert len(c1) + len(c2) == 20_000
        load = {}
        localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params, load)
        assert load["n_red"] == N_BLOBS * int(20_000 * RED_FRACTION / N_BLOBS)


class TestLocalizeCommand:
    def test_matches_direct_call(self, tmp_path, capsys):
        cfg_path = write_cfg(tmp_path, {"rig": {
            "cam1": {"depth_noise_sigma": 0.0, "dropout_rate": 0.0},
            "cam2": {"depth_noise_sigma": 0.0, "dropout_rate": 0.0},
        }})
        scene = generate_scene(3, 2, 1.0, 0.0, surface_density=20000.0)
        rig = build_rig(load_config(cfg_path))
        c1, c2 = capture_rig(scene, rig, 4)
        p1, p2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        dump_cloud(c1, p1)
        dump_cloud(c2, p2)
        rc = main(["localize", "--cloud1", str(p1), "--cloud2", str(p2), "--params", cfg_path])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)

        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, LocalizationParams())
        assert len(payload["boxes"]) == len(boxes) == 2
        for got, expect in zip(payload["boxes"], boxes):
            assert got["point_count"] == expect.point_count
            assert got["min"] == [expect.box.min.x, expect.box.min.y, expect.box.min.z]
            assert got["max"] == [expect.box.max.x, expect.box.max.y, expect.box.max.z]

    @pytest.mark.parametrize("text, line", [
        ("frame=cam1 count=1\n0.4 0.0 0.4 300 10 10\n", 2),
        ("frame=cam1 count=1\n0.4 0.0 0.4 -1 10 10\n", 2),
        ("frame=cam1 count=3\n0.4 0.0 0.4 200 10 10\n", 3),
        ("frame=cam1 count=1\nnan 0.0 0.4 200 10 10\n", 2),
        ("hello world\n0.4 0.0 0.4 200 10 10\n", 1),
        ("frame=cam1 count=x\n", 1),
        ("frame=cam1 count=1\n0.4 abc 0.4 200 10 10\n", 2),
        # finite in the file, past the float range in the base frame; pytest
        # turns warnings into errors, so a numpy overflow warning fails here
        ("frame=cam1 count=1\n1.7e308 1.7e308 1.7e308 200 10 10\n", 2),
        ("frame=cam1 count=2\n0.4 0.0 0.4 200 10 10\n-1.7e308 -1.7e308 -1.7e308 200 10 10\n", 3),
    ], ids=["color_300", "color_negative", "short", "nan", "no_key_value", "count_x", "non_numeric",
            "overflow_in_base_frame", "overflow_second_point"])
    def test_malformed_cloud_names_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        good = tmp_path / "good.txt"
        good.write_text("frame=cam2 count=0\n")
        rc = main(["localize", "--cloud1", str(bad), "--cloud2", str(good), "--params", "paper9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err and "Traceback" not in err
