"""Recorded mutants: known-wrong versions of the program that the tests
must catch.

Each entry names a file of the `berrypick` package, an exact snippet of
it, the snippet's replacement, and the pytest node ids of the tests that
must fail once the replacement is made. Run

    python tests/mutants.py [name ...]

to apply each mutant (or the named ones) in a temporary copy of `src/`,
run its tests against that copy with `pytest -x`, and exit 1 naming
every mutant that survives: one whose tests all pass, or that breaks the
collection rather than a test. `tests/test_mutants.py` checks only that
each snippet occurs exactly once and that each named test exists, so a
change that moves or rewrites the code must update its entry here.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "berrypick"


class Mutant(NamedTuple):
    name: str
    file: str                # path under src/berrypick
    snippet: str             # occurs exactly once in the file
    replacement: str
    tests: tuple[str, ...]   # node ids, relative to the repository root


MUTANTS = [
    Mutant(
        "z-buffer table: ties go to the latest sample",
        "camera.py",
        "        winner = np.full(n_bins, n, dtype=np.int32)\n"
        "        np.minimum.at(winner, bins.take(nearest), nearest.astype(np.int32))\n"
        "        return winner.compress(winner < n)\n",
        "        winner = np.full(n_bins, -1, dtype=np.int32)\n"
        "        np.maximum.at(winner, bins.take(nearest), nearest.astype(np.int32))\n"
        "        return winner.compress(winner >= 0)\n",
        ("tests/test_camera.py::TestCullingEquivalence::test_z_ties_go_to_the_earliest_sample",),
    ),
    Mutant(
        "z-buffer sort: ties go to the latest sample",
        "camera.py",
        "    order = np.lexsort((z, bins))\n",
        "    order = np.lexsort((-np.arange(n), z, bins))\n",
        ("tests/test_camera.py::TestCullingEquivalence::test_z_ties_go_to_the_earliest_sample",),
    ),
    Mutant(
        "face roles: the skip rule takes a face whose plane holds the eye",
        "camera.py",
        "        outer = np.stack([eye < lo, eye > hi], axis=1).ravel()\n",
        "        outer = np.stack([eye <= lo, eye >= hi], axis=1).ravel()\n",
        ("tests/test_camera.py::TestFaceRoles::test_roles_on_random_boxes",),
    ),
    Mutant(
        "face roles: the cull rule takes a face whose plane holds the eye",
        "camera.py",
        "        faces[np.stack([eye > lo, eye < hi], axis=1).ravel()] = CULLED\n",
        "        faces[np.stack([eye >= lo, eye < hi], axis=1).ravel()] = CULLED\n",
        ("tests/test_camera.py::TestFaceRoles::test_roles_on_random_boxes",),
    ),
    Mutant(
        "red capture: normals drawn for the red rows alone",
        "camera.py",
        "    dr = noise_rng.standard_normal(int(rows[-1]) + 1 if len(rows) else 0)\n",
        "    dr = np.zeros(int(rows[-1]) + 1 if len(rows) else 0)\n"
        "    dr[rows] = noise_rng.standard_normal(len(rows))\n",
        ("tests/test_camera.py::TestRedCapture::test_paper9",),
    ),
    Mutant(
        "camera: no upper bound on depth noise sigma",
        "camera.py",
        "        if not 0 <= self.depth_noise_sigma <= MAX_DEPTH_NOISE_SIGMA:\n",
        "        if not 0 <= self.depth_noise_sigma:\n",
        ("tests/test_extremes.py::test_every_numeric_leaf_at_extremes",),
    ),
    Mutant(
        "cutter: burn memo keyed without max_steps",
        "cutter.py",
        "    return _burn(required_cut_energy(cut, stem), inc, cut.max_steps)\n",
        '    memo = laser_step.__dict__.setdefault("memo", {})\n'
        "    key = (required_cut_energy(cut, stem), inc)\n"
        "    if key not in memo:\n"
        "        memo[key] = _burn(*key, cut.max_steps)\n"
        "    return memo[key]\n",
        ("tests/test_cutter.py::TestBurnEqualsStepLoop::test_timeout",),
    ),
    Mutant(
        "cutter: free_fall_detect never steps down from the closed form",
        "cutter.py",
        "    while k > 0 and 0.5 * GRAVITY * ((k - 1) * dt) * ((k - 1) * dt) >= drop:\n"
        "        k -= 1\n",
        "",
        ("tests/test_cutter.py::TestFreeFall::test_first_reaching_step_of_long_falls",),
    ),
    Mutant(
        "clustering: packed key sort shifts the key one bit short",
        "localization.py",
        "        sk = np.sort(keys << bits | np.arange(n))\n",
        "        sk = np.sort(keys << (bits - 1) | np.arange(n))\n",
        ("tests/test_localization.py::TestClustering::test_oracle_equivalence_random_clouds",),
    ),
    Mutant(
        "clustering: a pair with a one-point cell is dropped unless both cells hold more",
        "localization.py",
        "((counts.take(us) > 1) | (counts.take(vs) > 1))",
        "((counts.take(us) > 1) & (counts.take(vs) > 1))",
        ("tests/test_localization.py::TestClustering::test_one_point_cell_beside_a_larger_one_links",),
    ),
    Mutant(
        "kept build: views carried into a point whose scene differs",
        "cli.py",
        "    key = (chash, seed if scene_seed is None else scene_seed)\n",
        "    key = (chash, scene_seed)\n",
        ("tests/test_cli.py::TestSweepDerivation::test_sweep_builds_each_seed_once",
         "tests/test_cli.py::TestKeptScenario::test_new_run_seed_misses_where_each_draws_its_scene"),
    ),
    Mutant(
        "sweep: a seed job runs every point on the first seed's build",
        "cli.py",
        "    built = _kept_build(cfg, chash, seed)\n",
        "    built = _kept_build(cfg, chash, cfg[\"seeds\"][0])\n",
        ("tests/test_cli.py::TestSweepDerivation::test_sweep_builds_each_seed_once",
         "tests/test_cli.py::TestSweepCommand::test_noise_sweep_views_each_scene_once"),
    ),
    Mutant(
        "sweep: rows put back seed-major",
        "cli.py",
        "for v, value in enumerate(values) for s, seed in enumerate(seeds)]",
        "for s, seed in enumerate(seeds) for v, value in enumerate(values)]",
        ("tests/test_cli.py::TestSweepCommand::test_noise_sweep_views_each_scene_once",),
    ),
    Mutant(
        "build: red rows picked for another build's thresholds",
        "controller.py",
        "        return view_reds(self.views, self.params)\n",
        "        return view_reds(self.views, LocalizationParams())\n",
        ("tests/test_camera.py::TestRedCapture::test_thresholds_switch_on_a_kept_view",),
    ),
    Mutant(
        "sweep: a noise point replaces cam1 only, and cam2 keeps the default noise",
        "config.py",
        '    "noise": ("noise_sigmas", "rig", build_rig),\n',
        '    "noise": ("noise_sigmas", "rig",'
        ' lambda point: CameraRig(build_rig(point).cam1, make_camera("cam2", **DEFAULT_RIG["cam2"]))),\n',
        ("tests/test_cli.py::TestSweepDerivation::test_point_is_its_fresh_build",),
    ),
    Mutant(
        "localize: a lone red row of a larger cloud moves by the one-row routine",
        "localization.py",
        "    if len(rows) == 1 < n_whole:\n",
        "    if False:\n",
        ("tests/test_localization.py::TestLocalize::test_lone_red_row_rounding_apart_moves_as_in_whole_cloud",),
    ),
    Mutant(
        "capture: cam2 sensed with cam1's seed",
        "camera.py",
        "_sense(*v2, rig.cam2, int(s2), r2)",
        "_sense(*v2, rig.cam2, int(s1), r2)",
        ("tests/test_camera.py::TestSensingWorker::test_error_reaches_the_caller",
         "tests/test_camera.py::TestRedCapture::test_paper9"),
    ),
    Mutant(
        "box offset: no bound by the workspace's size",
        "config.py",
        "        all(abs(o) <= s for o, s in zip((offset.x, offset.y, offset.z), size)), \"boxes.offset\",\n",
        "        True, \"boxes.offset\",\n",
        ("tests/test_config.py::TestResolve::test_box_offset_bounded_by_workspace_size",),
    ),
    Mutant(
        "resolve: sweep points go unchecked",
        "config.py",
        "                build(apply_sweep_value(cfg, axis, value))\n",
        "                pass\n",
        ("tests/test_extremes.py::test_every_sweep_axis_at_extremes",
         "tests/test_config.py::TestSweepPoints::test_point_refused_as_its_whole_build"),
    ),
]


def mutated(mutant: Mutant, package: Path) -> None:
    """Apply `mutant` to the copy of the package at `package`."""
    path = package / mutant.file
    text = path.read_text()
    if text.count(mutant.snippet) != 1:
        raise SystemExit(f"{mutant.name}: the snippet occurs {text.count(mutant.snippet)} times in {mutant.file}")
    path.write_text(text.replace(mutant.snippet, mutant.replacement))


def killed(mutant: Mutant) -> tuple[bool, str]:
    """Whether a test of `mutant` fails against a mutated copy of src/,
    and pytest's last line of output."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        mutated(mutant, src / PACKAGE.name)
        env = {**os.environ, "PYTHONPATH": str(src), "PYTHONDONTWRITEBYTECODE": "1"}
        cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *mutant.tests]
        r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True)
    lines = r.stdout.strip().splitlines()
    # exit code 1: tests ran and one failed; any other code is no kill
    return r.returncode == 1, lines[-1] if lines else r.stderr.strip()


def main(names: list[str]) -> int:
    chosen = [m for m in MUTANTS if not names or m.name in names]
    if names and len(chosen) != len(names):
        raise SystemExit(f"no such mutant among {sorted(set(names) - {m.name for m in chosen})}")
    survivors = []
    for mutant in chosen:
        start = time.perf_counter()
        dead, last = killed(mutant)
        print(f"{'killed ' if dead else 'SURVIVED'} {time.perf_counter() - start:5.1f} s  {mutant.name}: {last}")
        if not dead:
            survivors.append(mutant.name)
    if survivors:
        print(f"{len(survivors)} of {len(chosen)} mutants survived: {survivors}")
        return 1
    print(f"all {len(chosen)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
