import json

import numpy as np
import pytest

from berrypick.bench import N_BLOBS, make_bench_clouds
from berrypick.camera import capture_rig, default_rig
from berrypick.cli import (
    apply_sweep_value,
    cycles_to_csv,
    main,
    metrics_to_json,
    resolve_config_arg,
    run_one,
)
from berrypick.controller import CycleReport
from berrypick.geometry import dump_cloud
from berrypick.localization import LocalizationParams, localize
from berrypick.scene import generate_scene


def write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


FAST_SCENE = {"seed": 3, "n_straw": 2, "ripe_fraction": 1.0, "bend_sigma": 0.0,
              "surface_density": 20000.0}


class TestRoundTrips:
    def test_cycles_csv_identity(self):
        reports = [
            CycleReport(0, 8.125, 2.3000000000000003, "harvested"),
            CycleReport(1, 3.5, 0.0, "missed_trap"),
        ]
        assert cycles_to_csv(reports) == (
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


class TestRunCommand:
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
        assert metrics["localization_ms"] is None  # wall data only in the sidecar
        wall = json.loads((run_dir / "wallclock.json").read_text())
        assert wall["localization_ms"] > 0

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


class TestBenchCommand:
    @pytest.mark.parametrize("argv, flag", [
        (["--size", "-5"], "--size"),
        (["--size", "0"], "--size"),
        (["--size", "abc"], "--size"),
        (["--size", "10", "--reps", "0"], "--reps"),
        (["--size", "10", "--reps", "-1"], "--reps"),
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
        boxes = localize(c1, c2, rig.cam1.pose, rig.cam2.pose, params)
        span = params.y_plus - params.y_minus
        found = 0
        for k in range(N_BLOBS):
            c = np.array([(params.x_minus + params.x_plus) / 2, params.y_minus + span * (k + 1) / (N_BLOBS + 1),
                          (params.z_minus + params.z_plus) / 2])
            found += any(np.all(c >= b.box.min.to_array()) and np.all(c <= b.box.max.to_array()) for b in boxes)
        assert report["blob_recall"] == found == N_BLOBS


class TestLocalizeCommand:
    def test_matches_direct_call(self, tmp_path, capsys):
        scene = generate_scene(3, 2, 1.0, 0.0, surface_density=20000.0)
        rig = default_rig(depth_noise_sigma=0.0, dropout_rate=0.0)
        c1, c2 = capture_rig(scene, rig, 4)
        p1, p2 = tmp_path / "c1.txt", tmp_path / "c2.txt"
        dump_cloud(c1, p1)
        dump_cloud(c2, p2)
        cfg_path = write_cfg(tmp_path, {"rig": {
            "cam1": {"depth_noise_sigma": 0.0, "dropout_rate": 0.0},
            "cam2": {"depth_noise_sigma": 0.0, "dropout_rate": 0.0},
        }})
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
    ], ids=["color_300", "color_negative", "short", "nan", "no_key_value", "count_x", "non_numeric"])
    def test_malformed_cloud_names_line(self, tmp_path, capsys, text, line):
        bad = tmp_path / "bad.txt"
        bad.write_text(text)
        good = tmp_path / "good.txt"
        good.write_text("frame=cam2 count=0\n")
        rc = main(["localize", "--cloud1", str(bad), "--cloud2", str(good), "--params", "paper9"])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err and "Traceback" not in err
