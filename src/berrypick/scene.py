"""Ground-truth synthetic world: trough, strawberries on bending stems.

The scene is the single source of truth for both rendering (virtual
cameras sample these surfaces) and scoring (the harness compares pipeline
output against fruit centers stored here). Fruits are spheres, stems are
straight thin cylinders whose fruit end may be laterally offset to mimic
natural stem bending, and the trough is a box. Heights are expressed in
the arm base frame; the trough lip sits at `trough_height - base_height`.

The scene holds no workspace. Which fruit a run can reach is the
robot's workspace, which only `config` builds: it checks `scene.fruit_x`
and `scene.fruit_z_band` against it, and the controller harvests the
ripe fruit inside it.

Randomness uses numpy's counter-based Philox generator so scenes are
reproducible across platforms; every log records the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .errors import ConfigError, StateError
from .geometry import Aabb, Vec3

# color bands: ripe strictly passes the red threshold, unripe strictly fails it
RIPE_R = (150, 255)
RIPE_GB = (0, 69)
UNRIPE_G = (100, 255)
UNRIPE_RB = (0, 99)
NEUTRAL_GREY = (120, 180)

MAX_STEM_BEND = 0.015

# a fruit hangs within this distance in x of the layout's fruit_x
FRUIT_X_JITTER = 0.005

# owner kinds for sampled surface points
KIND_FRUIT = 0
KIND_STEM = 1
KIND_TROUGH = 2
KIND_OCCLUDER = 3


@dataclass(frozen=True)
class StrawberryTruth:
    id: int
    center: Vec3
    radius: float
    ripe: bool
    stem_top: Vec3
    stem_bend: float
    stem_diameter: float
    detached: bool = False

    def __post_init__(self):
        if not 0.005 <= self.radius <= 0.0175:
            raise ValueError(f"radius must lie within [0.005, 0.0175] m, got {self.radius}")
        if self.stem_top.z <= self.center.z:
            raise ValueError("fruit must hang below its stem attachment")
        if not 0.001 <= self.stem_diameter <= 0.005:
            raise ValueError(f"stem_diameter must lie within [0.001, 0.005] m, got {self.stem_diameter}")

    @property
    def stem_attach(self) -> Vec3:
        """Point where the stem meets the fruit (top of the sphere)."""
        return Vec3(self.center.x, self.center.y, self.center.z + self.radius)


@dataclass(frozen=True)
class Scene:
    strawberries: tuple[StrawberryTruth, ...]
    rng_seed: int
    trough: Aabb | None
    occluders: tuple[Aabb, ...]
    surface_density: float

    def __post_init__(self):
        ids = [s.id for s in self.strawberries]
        if len(ids) != len(set(ids)):
            raise ValueError("strawberry ids must be unique")


def _scene_rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed, spawn_key=(stream,))))


def generate_scene(
    seed: int,
    n_straw: int = 9,
    ripe_fraction: float = 1.0,
    bend_sigma: float = 0.0,
    *,
    spacing: float = 0.06,
    fruit_x: float = 0.42,
    fruit_z_band: tuple[float, float] = (0.38, 0.42),
    radius_band: tuple[float, float] = (0.012, 0.0175),
    stem_diameter: float = 0.003,
    trough_height: float = 1.03,
    base_height: float = 0.55,
    surface_density: float = 60000.0,
    occluders: tuple[Aabb, ...] = (),
) -> Scene:
    """Deterministically lay out `n_straw` fruits along the trough y-axis.

    Fruits sit `spacing` apart, centered on y=0, hanging from the front lip
    of the trough. Stem bend is drawn from N(0, bend_sigma) and clamped to
    +/-15 mm; ripeness is assigned to a random subset of round(n * fraction).
    The same arguments always produce an identical scene.

    These keyword defaults are the `scene` defaults of a scenario config,
    and each `ConfigError` message starts with the argument it rejects.
    """
    if n_straw < 0:
        raise ConfigError("n_straw must be >= 0")
    if bend_sigma < 0:
        raise ConfigError("bend_sigma must be >= 0")
    if not 0.0 <= ripe_fraction <= 1.0:
        raise ConfigError("ripe_fraction must be in [0, 1]")
    for name, value in (
        ("spacing", spacing), ("fruit_x", fruit_x), ("trough_height", trough_height),
        ("base_height", base_height), ("surface_density", surface_density),
    ):
        if value <= 0:
            raise ConfigError(f"{name} must be > 0")
    for name, band in (("fruit_z_band", fruit_z_band), ("radius_band", radius_band)):
        if band[0] > band[1]:
            raise ConfigError(f"{name} must be ordered low <= high")
    lip_z = trough_height - base_height
    if fruit_z_band[1] >= lip_z:
        raise ConfigError(f"fruit_z_band must lie below the trough lip at z = {lip_z:g} m")
    if n_straw > 0:
        half_span = (n_straw - 1) * spacing / 2.0
        if half_span > 0.28:
            raise ConfigError(
                f"n_straw {n_straw} at spacing {spacing} m exceeds the workspace y-span"
            )
    rng = _scene_rng(seed, 0)
    trough = Aabb(Vec3(0.50, -0.60, lip_z - 0.30), Vec3(0.70, 0.60, lip_z))

    n_ripe = int(round(n_straw * ripe_fraction))
    ripe_ids = set(rng.choice(n_straw, size=n_ripe, replace=False).tolist()) if n_straw else set()

    fruits = []
    for i in range(n_straw):
        y_nominal = (i - (n_straw - 1) / 2.0) * spacing
        radius = float(rng.uniform(radius_band[0], radius_band[1]))
        z = float(rng.uniform(fruit_z_band[0], fruit_z_band[1]))
        x = fruit_x + float(rng.uniform(-FRUIT_X_JITTER, FRUIT_X_JITTER))
        bend = float(np.clip(rng.normal(0.0, bend_sigma), -MAX_STEM_BEND, MAX_STEM_BEND)) if bend_sigma > 0 else 0.0
        fruits.append(
            StrawberryTruth(
                id=i,
                center=Vec3(x, y_nominal + bend, z),
                radius=radius,
                ripe=i in ripe_ids,
                stem_top=Vec3(trough.min.x, y_nominal, lip_z),
                stem_bend=bend,
                stem_diameter=stem_diameter,
            )
        )
    return Scene(
        strawberries=tuple(fruits),
        rng_seed=seed,
        trough=trough,
        occluders=tuple(occluders),
        surface_density=surface_density,
    )


def detach_fruit(scene: Scene, fruit_id: int) -> Scene:
    """Mark one fruit as detached; later captures will not see it."""
    found = False
    fruits = []
    for s in scene.strawberries:
        if s.id == fruit_id:
            if s.detached:
                raise StateError(f"strawberry {fruit_id} is already detached")
            fruits.append(replace(s, detached=True))
            found = True
        else:
            fruits.append(s)
    if not found:
        raise StateError(f"no strawberry with id {fruit_id}")
    return replace(scene, strawberries=tuple(fruits))


class SurfaceBatch(NamedTuple):
    """Array form of sampled surfaces, used by the virtual cameras."""

    xyz: np.ndarray    # (n, 3) float64
    rgb: np.ndarray    # (n, 3) uint8
    kind: np.ndarray   # (n,) int8
    owner: np.ndarray  # (n,) int32; fruit/stem: fruit id, occluder: index, trough: -1


def _sphere_points(rng, center: Vec3, radius: float, n: int) -> np.ndarray:
    dirs = rng.normal(size=(n, 3))
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    return center.to_array() + radius * dirs / norms


def _cylinder_points(rng, a: Vec3, b: Vec3, diameter: float, n: int) -> np.ndarray:
    axis = b.to_array() - a.to_array()
    length = np.linalg.norm(axis)
    if length == 0:
        return np.empty((0, 3))
    axis = axis / length
    ref = np.array([1.0, 0.0, 0.0]) if abs(axis[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    u = np.cross(axis, ref)
    u /= np.linalg.norm(u)
    v = np.cross(axis, u)
    t = rng.random(n)[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)[:, None]
    radial = (diameter / 2.0) * (np.cos(theta) * u + np.sin(theta) * v)
    return a.to_array() + t * (length * axis) + radial


def _box_points(rng, box: Aabb, density: float) -> np.ndarray:
    lo = box.min.to_array()
    hi = box.max.to_array()
    size = hi - lo
    chunks = []
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        area = size[others[0]] * size[others[1]]
        n_face = int(round(density * area))
        for fixed in (lo[axis], hi[axis]):
            if n_face == 0:
                continue
            pts = np.empty((n_face, 3))
            pts[:, axis] = fixed
            pts[:, others[0]] = rng.uniform(lo[others[0]], hi[others[0]], size=n_face)
            pts[:, others[1]] = rng.uniform(lo[others[1]], hi[others[1]], size=n_face)
            chunks.append(pts)
    if not chunks:
        return np.empty((0, 3))
    return np.concatenate(chunks)


def sample_surface_arrays(scene: Scene, density: float) -> SurfaceBatch:
    """Sample every scene surface at `density` points per square meter.

    Detached fruits are still sampled here (the draw order never changes
    with state) and filtered out by the cameras, so detaching one fruit
    leaves every other sampled point bit-identical.
    """
    if density <= 0:
        raise ValueError("density must be > 0")
    rng = _scene_rng(scene.rng_seed, 1)
    xyz_parts: list[np.ndarray] = []
    rgb_parts: list[np.ndarray] = []
    kind_parts: list[np.ndarray] = []
    owner_parts: list[np.ndarray] = []

    def add(xyz: np.ndarray, rgb: np.ndarray, kind: int, owner: int) -> None:
        if len(xyz) == 0:
            return
        xyz_parts.append(xyz)
        rgb_parts.append(rgb)
        kind_parts.append(np.full(len(xyz), kind, dtype=np.int8))
        owner_parts.append(np.full(len(xyz), owner, dtype=np.int32))

    for s in scene.strawberries:
        n = int(round(density * 4.0 * math.pi * s.radius**2))
        pts = _sphere_points(rng, s.center, s.radius, n)
        rgbv = np.empty((n, 3), dtype=np.uint8)
        if s.ripe:
            rgbv[:, 0] = rng.integers(RIPE_R[0], RIPE_R[1] + 1, size=n)
            rgbv[:, 1] = rng.integers(RIPE_GB[0], RIPE_GB[1] + 1, size=n)
            rgbv[:, 2] = rng.integers(RIPE_GB[0], RIPE_GB[1] + 1, size=n)
        else:
            rgbv[:, 0] = rng.integers(UNRIPE_RB[0], UNRIPE_RB[1] + 1, size=n)
            rgbv[:, 1] = rng.integers(UNRIPE_G[0], UNRIPE_G[1] + 1, size=n)
            rgbv[:, 2] = rng.integers(UNRIPE_RB[0], UNRIPE_RB[1] + 1, size=n)
        add(pts, rgbv, KIND_FRUIT, s.id)

    for s in scene.strawberries:
        length = math.dist(
            (s.stem_top.x, s.stem_top.y, s.stem_top.z),
            (s.stem_attach.x, s.stem_attach.y, s.stem_attach.z),
        )
        n = int(round(density * math.pi * s.stem_diameter * length))
        pts = _cylinder_points(rng, s.stem_top, s.stem_attach, s.stem_diameter, n)
        rgbv = np.empty((len(pts), 3), dtype=np.uint8)
        rgbv[:, 0] = rng.integers(UNRIPE_RB[0], UNRIPE_RB[1] + 1, size=len(pts))
        rgbv[:, 1] = rng.integers(UNRIPE_G[0], UNRIPE_G[1] + 1, size=len(pts))
        rgbv[:, 2] = rng.integers(UNRIPE_RB[0], UNRIPE_RB[1] + 1, size=len(pts))
        add(pts, rgbv, KIND_STEM, s.id)

    if scene.trough is not None:
        trough_pts = _box_points(rng, scene.trough, density)
        grey = rng.integers(NEUTRAL_GREY[0], NEUTRAL_GREY[1] + 1, size=len(trough_pts)).astype(np.uint8)
        add(trough_pts, np.stack([grey, grey, grey], axis=1), KIND_TROUGH, -1)

    for i, occ in enumerate(scene.occluders):
        pts = _box_points(rng, occ, density)
        grey = rng.integers(NEUTRAL_GREY[0], NEUTRAL_GREY[1] + 1, size=len(pts)).astype(np.uint8)
        add(pts, np.stack([grey, grey, grey], axis=1), KIND_OCCLUDER, i)

    if not xyz_parts:
        return SurfaceBatch(
            np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8),
            np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int32),
        )
    return SurfaceBatch(
        np.concatenate(xyz_parts),
        np.concatenate(rgb_parts),
        np.concatenate(kind_parts),
        np.concatenate(owner_parts),
    )
