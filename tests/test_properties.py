"""Property tests of the error contract on the input surfaces, and of
clustering against its oracle.

Each contract test mutates a valid input (a config, a cloud file, a
command line and the `BERRYPICK_THREADS` variable) and checks that the
program either accepts it or rejects it with its own error type:
`ConfigError` for configs, `CloudFormatError` for cloud files, and exit
code 0, 2 or 3 with no traceback from the CLI. The clustering test draws
small clouds full of ties and checks `cluster_indices` against
`oracles.brute_force_clusters`, and its cell counts against an O(m^2)
count. The event log test draws flat records whose strings hold the
brackets, commas and quotes the one-call encoder splits on, and checks
`HarvestEventLog.to_jsonl` against `oracles.per_record_jsonl`. Runs are
derandomized and keep no example database, so every run tries the same
inputs.
"""

import contextlib
import copy
import io
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from berrypick.cli import main
from berrypick.config import DEFAULTS, resolve_config
from berrypick.controller import HarvestEventLog
from berrypick.errors import CloudFormatError, ConfigError
from berrypick.geometry import VALID_FRAMES, dump_cloud, load_cloud
from berrypick.localization import cluster_indices

from oracles import brute_force_clusters, per_record_jsonl
from test_localization import brute_force_cell_counts

PROPERTY_SETTINGS = settings(
    derandomize=True,
    database=None,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6)
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=8,
)


def _paths(node, prefix=()):
    """Every path into a JSON tree: object keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


# a config that names every key, with one sweep entry per axis
BASE_CONFIG = copy.deepcopy(DEFAULTS)
BASE_CONFIG["sweep"] = {"offsets_mm": [5], "velocity_scales": [0.5], "powers": [50.0], "noise_sigmas": [0.002]}
BASE_PATHS = list(_paths(BASE_CONFIG))


@st.composite
def mutated_configs(draw):
    """BASE_CONFIG with one to three values replaced, scaled or deleted,
    or an unknown key added."""
    cfg = copy.deepcopy(BASE_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(BASE_PATHS))
        parent = cfg
        try:
            for key in path[:-1]:
                parent = parent[key]
            if not isinstance(parent, (dict, list)):
                raise TypeError
            old = parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation replaced this branch
        op = draw(st.sampled_from(["replace", "scale", "delete", "unknown"]))
        if op == "scale" and type(old) is int:
            parent[path[-1]] = old * draw(st.sampled_from([-1, 0, 2, 10, 10**6, 10**30]))
        elif op == "scale" and type(old) is float:
            parent[path[-1]] = old * draw(st.sampled_from([-1.0, 0.0, 0.5, 2.0, 10.0, 1e6, 1e300]))
        elif op == "delete" and isinstance(parent, dict):
            del parent[path[-1]]
        elif op == "unknown" and isinstance(old, dict):
            old[draw(st.text(min_size=1, max_size=6))] = draw(JSON_SCALARS)
        else:
            parent[path[-1]] = draw(JSON_VALUES)
    return cfg


def _base_with(section: str, key: str, value, **more) -> dict:
    """BASE_CONFIG with `section.key` (and any `section.<more>`) set."""
    cfg = copy.deepcopy(BASE_CONFIG)
    cfg[section].update({key: value, **more})
    return cfg


def _huge_lengths(test):
    """Examples with an integer beyond the float range in each shape of
    length (a scalar, a triple, an occluder corner, a sweep entry), in
    each unit that rescales it."""
    for units in ("cm", "mm"):
        for section, key, value in [
            ("scene", "spacing", 10**400),
            ("rig", "cam1", {**BASE_CONFIG["rig"]["cam1"], "target": [0.45, 0.0, 10**400]}),
            ("scene", "occluders", [[[0.2, -0.05, 10**400], [0.21, 0.05, 0.35]]]),
            ("sweep", "noise_sigmas", [10**400]),
        ]:
            test = example({**_base_with(section, key, value), "units": units})(test)
    return test


class TestConfigContract:
    def test_base_config_resolves(self):
        resolve_config(copy.deepcopy(BASE_CONFIG))

    @PROPERTY_SETTINGS
    @given(mutated_configs())
    # a row too long for the trough is rejected before any fruit is laid
    # out, ripe or not
    @example(_base_with("scene", "n_straw", 10**20))
    @example(_base_with("scene", "n_straw", 10**20, ripe_fraction=0.0))
    # a radius band and spacing near zero do not lift that bound
    @example(_base_with("scene", "radius_band", [0, 0], spacing=1e-9, n_straw=10**9))
    # a camera far enough out that |target - eye| overflows: once a NaN pose
    @example(_base_with("rig", "cam2", {**BASE_CONFIG["rig"]["cam2"], "eye": [1.5e299, 0.0, 0.05]}))
    @_huge_lengths
    def test_mutated_config_resolves_or_raises_config_error(self, cfg):
        try:
            resolve_config(cfg)
        except ConfigError:
            pass


def _cloud_text(frame, points) -> bytes:
    lines = [f"frame={frame} count={len(points)}\n"]
    lines += [f"{x!r} {y!r} {z!r} {r} {g} {b}\n" for (x, y, z), (r, g, b) in points]
    return "".join(lines).encode()


# coordinates near the workspace or any finite float; or a point at the
# float limit on every axis, which a rigid transform can carry past it
FINITE = st.floats(min_value=-10.0, max_value=10.0) | st.floats(allow_nan=False, allow_infinity=False)
HUGE = st.sampled_from([1.7e308, -1.7e308, 1.7976931348623157e308, -1.7976931348623157e308])
XYZ = st.tuples(FINITE, FINITE, FINITE) | st.tuples(HUGE, HUGE, HUGE)
POINTS = st.lists(st.tuples(XYZ, st.tuples(*[st.integers(0, 255)] * 3)), max_size=5)
TOKENS = st.sampled_from(["", " ", "\n", "\r", "=", "nan", "inf", "-0", "1e999", "256", "-1", "1_0", "0x10", "count=9",
                          "frame=tool", "\x00", "\xe9"])
CHUNKS = st.one_of(TOKENS.map(str.encode), st.text(max_size=4).map(str.encode), st.binary(max_size=4))


@st.composite
def cloud_files(draw, frame=st.sampled_from(VALID_FRAMES)):
    """The bytes of a valid cloud file with up to three edits: a chunk
    inserted, a span deleted or the file cut short."""
    data = bytearray(_cloud_text(draw(frame), draw(POINTS)))
    for _ in range(draw(st.integers(0, 3))):
        at = draw(st.integers(0, len(data)))
        op = draw(st.sampled_from(["insert", "delete", "truncate"]))
        if op == "insert":
            data[at:at] = draw(CHUNKS)
        elif op == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


@pytest.fixture(scope="module")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("properties")


def _same_cloud(a, b) -> bool:
    return a.frame == b.frame and a.xyz.tobytes() == b.xyz.tobytes() and a.rgb.tobytes() == b.rgb.tobytes()


class TestCloudContract:
    @PROPERTY_SETTINGS
    @given(data=cloud_files())
    @example(data=b"\x80")  # not UTF-8: once a bare UnicodeDecodeError
    @example(data=b"frame=cam1 count=2\n0.4 0.0 0.4 200 10 10\n0.4 \xff 0.4 200 10 10\n")
    def test_mutated_cloud_loads_or_raises_cloud_format_error(self, work_dir, data):
        path = work_dir / "cloud.txt"
        path.write_bytes(data)
        try:
            cloud = load_cloud(path)
        except CloudFormatError:
            return
        # an accepted cloud round-trips
        again = work_dir / "again.txt"
        dump_cloud(cloud, again)
        assert _same_cloud(load_cloud(again), cloud)

    @PROPERTY_SETTINGS
    @given(data1=cloud_files(frame=st.just("cam1")), data2=cloud_files(frame=st.just("cam2")))
    @example(data1=b"frame=cam1 count=0\n", data2=b"\x80frame=cam2 count=0\n")
    def test_localize_command_exits_0_2_or_3(self, work_dir, data1, data2):
        p1, p2 = work_dir / "cam1.txt", work_dir / "cam2.txt"
        p1.write_bytes(data1)
        p2.write_bytes(data2)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["localize", "--cloud1", str(p1), "--cloud2", str(p2), "--params", "paper9"])
        assert rc in (0, 2, 3)
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            assert "boxes" in json.loads(out.getvalue())


# one valid command line per subcommand; {name} is a file in the work dir
VALID_ARGV = {
    "run": ["run", "--seed", "2", "--config", "{cfg}", "--out", "{dir}", "--dump-clouds", "{dump}"],
    "sweep": ["sweep", "--config", "{cfg}", "--axis", "offset", "--out", "{dir}"],
    "bench": ["bench", "--seed", "1", "--size", "300", "--reps", "1", "--config", "{cfg}", "--out", "{json}"],
    "localize": ["localize", "--cloud1", "{cam1}", "--cloud2", "{cam2}", "--params", "{cfg}", "--out", "{json}"],
}
# a scene drawn from the run seed, truth boxes and one sweep point: each
# run reads its seed and takes a few ms, and with one sweep job no worker
# process starts whatever BERRYPICK_THREADS says
CLI_CONFIG = {
    "scene": {"seed": None, "n_straw": 2, "ripe_fraction": 1.0, "bend_sigma": 0.0},
    "boxes": {"source": "truth"},
    "sweep": {"offsets_mm": [5]},
    "seeds": [1],
}
BAD_VALUES = st.sampled_from(["", "abc", "1.5", "-1", "0", "--seed"])
# (what, k, value): the k-th flag of the command line (counted round)
# dropped with or without its value, repeated or given a bad value, or an
# unknown flag added
EDITS = st.lists(
    st.tuples(st.sampled_from(["missing", "no_value", "duplicated", "value", "unknown"]), st.integers(0, 4), BAD_VALUES),
    min_size=1, max_size=2,
)
THREADS = st.none() | st.sampled_from(["", " ", "0", "-1", "1", "2", "99", "abc", "1.5", "2x"])


def _edited(argv: list, edits) -> list:
    argv = list(argv)
    for what, k, value in edits:
        flags = [i for i, tok in enumerate(argv) if tok.startswith("--")]
        if what == "unknown" or not flags:
            argv += ["--bogus", value]
            continue
        i = flags[k % len(flags)]
        if what == "missing":
            argv[i:i + 2] = []
        elif what == "no_value":
            argv[i + 1:i + 2] = []
        elif what == "duplicated":
            argv += argv[i:i + 2]
        else:
            argv[i + 1:i + 2] = [value]
    return argv


@pytest.fixture(scope="module")
def cli_files(work_dir):
    files = {name: work_dir / file for name, file in [
        ("cfg", "cfg.json"), ("cam1", "cam1.txt"), ("cam2", "cam2.txt"),
        ("dir", "out"), ("json", "out.json"), ("dump", "clouds"),
    ]}
    files["cfg"].write_text(json.dumps({**CLI_CONFIG, "out": str(work_dir / "default_out")}))
    files["cam1"].write_text("frame=cam1 count=2\n0.0 0.0 0.4 200 10 10\n0.0 0.01 0.4 200 10 10\n")
    files["cam2"].write_text("frame=cam2 count=1\n0.0 0.0 0.4 200 10 10\n")
    return {name: str(path) for name, path in files.items()}


class TestCliContract:
    def test_valid_argv_exits_0(self, work_dir, cli_files, monkeypatch):
        monkeypatch.chdir(work_dir)
        monkeypatch.delenv("BERRYPICK_THREADS", raising=False)
        for argv in VALID_ARGV.values():
            with contextlib.redirect_stdout(io.StringIO()):
                assert main([tok.format(**cli_files) for tok in argv]) == 0

    @pytest.mark.parametrize("command", sorted(VALID_ARGV))
    @PROPERTY_SETTINGS
    @given(edits=EDITS, threads=THREADS)
    # a negative --seed once reached numpy's seeding: a traceback from
    # `bench`, and from `run` where the cameras read the run seed
    @example(edits=[("value", 0, "-1")], threads=None)
    def test_mutated_argv_exits_0_2_or_3(self, work_dir, cli_files, command, edits, threads):
        argv = [tok.format(**cli_files) for tok in _edited(VALID_ARGV[command], edits)]
        out, err = io.StringIO(), io.StringIO()
        # a mutated --out or --dump-clouds may name a relative path
        with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            mp.chdir(work_dir)
            if threads is None:
                mp.delenv("BERRYPICK_THREADS", raising=False)
            else:
                mp.setenv("BERRYPICK_THREADS", threads)
            try:
                rc = main(argv)
            except SystemExit as e:  # argparse rejects the command line
                rc = e.code
        assert rc in (0, 2, 3), (argv, threads, err.getvalue())
        assert "Traceback" not in err.getvalue()


@st.composite
def clustering_inputs(draw):
    """(xyz, tol, s_min, s_max) with at most 400 points: points on a
    lattice of tol/4 steps, where many pairs lie exactly tol apart, points
    anywhere in the lattice's box, clumps round random centres, and
    repeats of earlier points, shuffled."""
    tol = draw(st.sampled_from([0.25, 0.5, 1.0, 2.0]))  # powers of two: lattice distances are exact
    span = draw(st.integers(1, 16))
    parts = [
        draw(hnp.arrays(np.int64, (draw(st.integers(0, 150)), 3), elements=st.integers(0, span))) * (tol / 4),
        draw(hnp.arrays(np.float64, (draw(st.integers(0, 150)), 3), elements=st.floats(0.0, span * tol / 4))),
    ]
    for _ in range(draw(st.integers(0, 4))):
        centre = draw(hnp.arrays(np.float64, 3, elements=st.floats(0.0, span * tol / 4)))
        spread = draw(st.sampled_from([0.0, tol / 8, tol / 2, tol]))
        parts.append(centre + draw(hnp.arrays(np.float64, (draw(st.integers(1, 20)), 3), elements=st.floats(-1.0, 1.0))) * spread)
    xyz = np.concatenate(parts)
    if len(xyz):
        xyz = np.concatenate([xyz, xyz[draw(st.lists(st.integers(0, len(xyz) - 1), max_size=20))]])
    xyz = xyz[np.random.default_rng(draw(st.integers(0, 2**32 - 1))).permutation(len(xyz))]
    s_min = draw(st.integers(1, 30))
    return xyz, tol, s_min, draw(st.integers(s_min, 400))


class TestClusteringOracle:
    @PROPERTY_SETTINGS
    @given(clustering_inputs())
    def test_cluster_indices_matches_brute_force(self, case):
        xyz, tol, s_min, s_max = case
        tel = {}
        mine = cluster_indices(xyz, tol, s_min, s_max, tel)
        oracle = brute_force_clusters(xyz, tol, s_min, s_max)
        assert [c.tolist() for c in mine] == oracle
        sizes = [len(c) for c in brute_force_clusters(xyz, tol, 1, len(xyz))]
        n_cells, n_cell_pairs = brute_force_cell_counts(xyz, tol)
        assert tel == {
            "n_cells": n_cells,
            "n_cell_pairs": n_cell_pairs,
            "n_clusters_raw": len(sizes),
            "discarded_small": sum(1 for k in sizes if k < s_min),
            "discarded_large": sum(1 for k in sizes if k > s_max),
        }


# strings made of the characters the one-call encoder splits on, with
# escapes and non-ASCII text
LOG_STRINGS = st.sampled_from(["},{", '"},{"', "}", "{", "", "é},{ü"]) | st.text(
    st.sampled_from(["}", ",", "{", '"', "\\", "\n", "a", "é", "草", "🍓"]), max_size=8
)
LOG_VALUES = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | LOG_STRINGS
    | st.lists(st.floats() | st.booleans(), max_size=3)
)


# (event, fields) of each record of a log, in order
EVENT_RECORDS = st.lists(
    st.tuples(LOG_STRINGS, st.dictionaries(LOG_STRINGS.filter(lambda k: k not in ("t", "event")), LOG_VALUES, max_size=4)),
    max_size=6,
)


class TestEventLogEncoding:
    @PROPERTY_SETTINGS
    @given(EVENT_RECORDS)
    @example([])
    @example([("begin", {"note": "},{"}), ("end", {})])
    def test_to_jsonl_matches_per_record_encoding(self, records):
        log = HarvestEventLog()
        for t, (event, fields) in enumerate(records):
            log.append(float(t), event, **fields)
        assert log.to_jsonl() == per_record_jsonl(log.records)
