"""Every numeric config leaf at extreme values: a run exits 0, or exits 2
with a config error, and never ends in a traceback.

The cases are derived from `config.DEFAULTS`, so a leaf added there is
walked too. Each case sets one numeric leaf (or one element of a numeric
list) over a fixed scene and runs `berrypick run` in-process; each sweep
axis is then run once with each value, in m and in mm, by `berrypick
sweep`. A config error names the key of the rule that refuses the value:
the leaf's own, or for a rule that ties it to another value (a window's
two sides, a row of fruit and the window it must fit), that value's. A
sweep value's error must name its `sweep.*` entry."""

import contextlib
import copy
import io
import json

import pytest

from berrypick.cli import main
from berrypick.config import DEFAULTS, SWEEP_AXES

EXTREMES = [1e308, -1e308, 1e-308, 5e-324, 0, -1, 1e300, -1e300, 1e-300, 1e12]

# a fixed scene, so the runs share one camera view
BASE = {"scene": {"seed": 7}}


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def numeric_leaves(tree=DEFAULTS, path=()):
    """(path, index) of each numeric leaf of `tree`, with index None, and
    of each number in a list of numbers, with its index."""
    for key, value in tree.items():
        sub = (*path, key)
        if isinstance(value, dict):
            yield from numeric_leaves(value, sub)
        elif _is_number(value):
            yield sub, None
        elif isinstance(value, list):
            yield from ((sub, i) for i, v in enumerate(value) if _is_number(v))


def with_leaf(path, index, value) -> dict:
    """BASE with the leaf at `path` (its element `index`) set to `value`."""
    cfg = copy.deepcopy(BASE)
    node, default = cfg, DEFAULTS
    for key in path[:-1]:
        node, default = node.setdefault(key, {}), default[key]
    if index is None:
        node[path[-1]] = value
    else:
        node[path[-1]] = [value if i == index else v for i, v in enumerate(default[path[-1]])]
    return cfg


def run_case(tmp_path, argv, cfg) -> tuple[int, str]:
    """Exit code and stderr of `berrypick <argv> --config <cfg>`; an
    exception that escapes `main` propagates."""
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main([*argv, "--config", str(path), "--out", str(tmp_path / "out")])
    return rc, err.getvalue()


def walk(tmp_path, cases) -> list[str]:
    """The cases that neither exit 0 nor exit 2 with an error that starts
    with their `refusal`."""
    failures = []
    for n, (key, argv, cfg, refusal) in enumerate(cases):
        case_dir = tmp_path / str(n)
        case_dir.mkdir()
        try:
            rc, err = run_case(case_dir, argv, cfg)
        except Exception as e:  # every escape, a traceback on the command line, is a failure
            failures.append(f"{key} in {json.dumps(cfg)}: {type(e).__name__}: {e}")
            continue
        if not (rc == 0 or (rc == 2 and err.startswith(refusal))):
            failures.append(f"{key} in {json.dumps(cfg)}: exit {rc}: {err.strip()}")
    return failures


def leaf_cases():
    for path, index in numeric_leaves():
        for value in EXTREMES:
            yield ".".join(path), ["run"], with_leaf(path, index, value), "config error: "


def sweep_cases():
    for axis, (key, _, _) in SWEEP_AXES.items():
        for units in ("m", "mm"):
            for value in EXTREMES:
                cfg = {**BASE, "units": units, "sweep": {key: [value]}}
                yield f"sweep.{key}[0]", ["sweep", "--axis", axis], cfg, f"config error: sweep.{key}"


@pytest.fixture
def serial(monkeypatch):
    monkeypatch.delenv("BERRYPICK_THREADS", raising=False)


def test_cases_cover_the_defaults():
    leaves = {".".join(path) for path, _ in numeric_leaves()}
    assert {"version", "seeds", "scene.n_straw", "rig.cam2.eye", "localization.tol", "cut.dt", "boxes.offset"} <= leaves


def test_every_numeric_leaf_at_extremes(tmp_path, serial):
    failures = walk(tmp_path, leaf_cases())
    assert not failures, "\n".join(failures)


def test_every_sweep_axis_at_extremes(tmp_path, serial):
    failures = walk(tmp_path, sweep_cases())
    assert not failures, "\n".join(failures)
