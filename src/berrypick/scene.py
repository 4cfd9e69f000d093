"""Ground-truth synthetic world: trough, strawberries on bending stems.

The scene is the single source of truth for both rendering (virtual
cameras sample these surfaces) and scoring (the harness compares pipeline
output against fruit centers stored here). Fruits are spheres, stems are
straight thin cylinders whose fruit end may be laterally offset to mimic
natural stem bending, and the trough is a box. Heights are expressed in
the arm base frame; the trough lip sits at `trough_height - base_height`.

The scene holds no workspace and no crop window. `config` builds both:
it checks that `scene.fruit_x`, `scene.fruit_z_band` and the row's y
extent hang ripe fruit inside the crop window, and the controller
harvests the ripe fruit inside the robot's workspace.

Randomness uses numpy's counter-based Philox generator so scenes are
reproducible across platforms; every log records the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigError
from .geometry import Aabb, Vec3

# color bands: ripe strictly passes the red threshold, unripe strictly fails it
RIPE_R = (150, 255)
RIPE_GB = (0, 69)
UNRIPE_G = (100, 255)
UNRIPE_RB = (0, 99)
NEUTRAL_GREY = (120, 180)
# the (red, green, blue) bands of a ripe fruit, and of an unripe fruit or a stem
RIPE = (RIPE_R, RIPE_GB, RIPE_GB)
UNRIPE = (UNRIPE_RB, UNRIPE_G, UNRIPE_RB)

MAX_STEM_BEND = 0.015

# a fruit hangs within this distance in x of the layout's fruit_x
FRUIT_X_JITTER = 0.005

# the smallest fruit radius a StrawberryTruth accepts
MIN_RADIUS = 0.005

# owner kinds for sampled surface points
KIND_FRUIT = 0
KIND_STEM = 1
KIND_TROUGH = 2
KIND_OCCLUDER = 3

# a box sample within this distance of an edge of its face is on no face
# (SurfaceBatch.face -1); the cameras cull only samples on a face
FACE_MARGIN = 1e-6

# surface samples a scene may draw, surface_density times its surface
# area; the default paper9 scene draws 81,293
MAX_SURFACE_SAMPLES = 10**7


@dataclass(frozen=True)
class StrawberryTruth:
    """One fruit on its stem; the stem's bend is `center.y - stem_top.y`."""

    id: int
    center: Vec3
    radius: float
    ripe: bool
    stem_top: Vec3
    stem_diameter: float

    def __post_init__(self):
        if not MIN_RADIUS <= self.radius <= 0.0175:
            raise ValueError(f"radius must lie within [{MIN_RADIUS}, 0.0175] m, got {self.radius}")
        if self.stem_top.z <= self.center.z:
            raise ValueError("fruit must hang below its stem attachment")
        if not 0.001 <= self.stem_diameter <= 0.005:
            raise ValueError(f"stem_diameter must lie within [0.001, 0.005] m, got {self.stem_diameter}")

    @property
    def stem_attach(self) -> Vec3:
        """Point where the stem meets the fruit (top of the sphere)."""
        return Vec3(self.center.x, self.center.y, self.center.z + self.radius)

    @property
    def stem_length(self) -> float:
        """Length of the stem, from `stem_top` to `stem_attach`."""
        a, b = self.stem_top, self.stem_attach
        return math.dist((a.x, a.y, a.z), (b.x, b.y, b.z))


@dataclass(frozen=True)
class Scene:
    strawberries: tuple[StrawberryTruth, ...]
    rng_seed: int
    trough: Aabb
    occluders: tuple[Aabb, ...]
    surface_density: float

    def __post_init__(self):
        ids = [s.id for s in self.strawberries]
        if len(ids) != len(set(ids)):
            raise ValueError("strawberry ids must be unique")
        if not self.surface_density > 0:
            raise ValueError("surface_density must be > 0")
        area = self.surface_area
        # `not <=`, so that an area that overflows to inf or nan fails too
        if not self.surface_density * area <= MAX_SURFACE_SAMPLES:
            raise ValueError(
                f"surface_density must draw at most {MAX_SURFACE_SAMPLES:,} surface samples, but"
                f" {self.surface_density:g} per m^2 over the scene's {area:.6g} m^2 of fruit, stem and box"
                f" surface draws {self.surface_density * area:.6g}"
            )

    @property
    def boxes(self) -> tuple[Aabb, ...]:
        """The trough, then each occluder: the order in which boxes are
        sampled and numbered (`SurfaceBatch.owner`)."""
        return (self.trough,) + self.occluders

    @property
    def surface_area(self) -> float:
        """The area `sample_surface_arrays` samples, in m^2: each fruit's
        sphere, each stem's wall and the six faces of each box."""
        area = 0.0
        for s in self.strawberries:
            area += 4.0 * math.pi * s.radius * s.radius
            area += math.pi * s.stem_diameter * s.stem_length
        for box in self.boxes:
            x, y, z = box.max.x - box.min.x, box.max.y - box.min.y, box.max.z - box.min.z
            area += 2.0 * (x * y + y * z + z * x)
        return area


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
        ("spacing", spacing), ("fruit_x", fruit_x), ("trough_height", trough_height), ("base_height", base_height),
    ):
        if value <= 0:
            raise ConfigError(f"{name} must be > 0")
    for name, band in (("fruit_z_band", fruit_z_band), ("radius_band", radius_band)):
        if band[0] > band[1]:
            raise ConfigError(f"{name} must be ordered low <= high")
    lip_z = trough_height - base_height
    if fruit_z_band[1] >= lip_z:
        raise ConfigError(f"fruit_z_band must lie below the trough lip at z = {lip_z:g} m")
    trough = Aabb(Vec3(0.50, -0.60, lip_z - 0.30), Vec3(0.70, 0.60, lip_z))
    # every stem hangs from the trough lip; a spacing below two of the
    # smallest radii counts as that floor, so at most 121 stems are laid
    # out (compared as int > float, which cannot overflow)
    if n_straw - 1 > 2 * trough.max.y / max(spacing, 2 * MIN_RADIUS):
        raise ConfigError(
            f"n_straw {n_straw} at spacing {spacing:g} m does not fit the trough: stems hang within"
            f" y +/-{trough.max.y:g} m, counted at least {2 * MIN_RADIUS:g} m apart"
        )
    rng = _scene_rng(seed, 0)

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


class SurfaceBatch(NamedTuple):
    """Array form of sampled surfaces, used by the virtual cameras."""

    xyz: np.ndarray    # (n, 3) float64
    rgb: np.ndarray    # (n, 3) uint8
    kind: np.ndarray   # (n,) int8
    owner: np.ndarray  # (n,) int32; fruit/stem: fruit id, trough/occluder: index in Scene.boxes
    face: np.ndarray   # (n,) int8; box sample: face of its own box (see _box_points), fruit/stem: -1


def draw_rgb(rng: np.random.Generator, n: int, bands) -> np.ndarray:
    """`n` uint8 colours, each channel drawn uniformly from its inclusive
    (low, high) band in `bands`, one channel after another: red, green,
    blue."""
    rgb = np.empty((n, 3), dtype=np.uint8)
    for c, (lo, hi) in enumerate(bands):
        rgb[:, c] = rng.integers(lo, hi + 1, size=n)
    return rgb


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


def _box_points(rng, box: Aabb, density: float) -> tuple[np.ndarray, np.ndarray]:
    """Samples on the six faces of `box`, drawn face by face, and the face
    each lies on: 2*axis for the face at the box's min on that axis,
    2*axis + 1 for the face at its max. A sample within `FACE_MARGIN` of
    an edge of its face gets -1, and so does every sample of a box no
    thicker than twice the margin on some axis: a zero-thickness box
    blocks nothing, so none of its samples may be culled."""
    lo = box.min.to_array()
    hi = box.max.to_array()
    size = hi - lo
    thick = bool((size > 2 * FACE_MARGIN).all())
    chunks = [np.empty((0, 3))]
    faces = [np.empty(0, dtype=np.int8)]
    for axis in range(3):
        others = [i for i in range(3) if i != axis]
        area = size[others[0]] * size[others[1]]
        n_face = int(round(density * area))
        for side, fixed in enumerate((lo[axis], hi[axis])):
            if n_face == 0:
                continue
            pts = np.empty((n_face, 3))
            pts[:, axis] = fixed
            inner = np.full(n_face, thick)
            for i in others:
                u = rng.uniform(lo[i], hi[i], size=n_face)
                pts[:, i] = u
                inner &= (u >= lo[i] + FACE_MARGIN) & (u <= hi[i] - FACE_MARGIN)
            chunks.append(pts)
            faces.append(np.where(inner, np.int8(2 * axis + side), np.int8(-1)))
    return np.concatenate(chunks), np.concatenate(faces)


def sample_surface_arrays(scene: Scene) -> SurfaceBatch:
    """Sample every scene surface at `scene.surface_density` points per
    square meter.

    The draws come from one stream of the scene seed, in a fixed order:
    each fruit, then each stem, then each box in `Scene.boxes` order. So a
    scene's samples are a pure function of the scene.
    """
    density = scene.surface_density
    rng = _scene_rng(scene.rng_seed, 1)
    # an empty part first, so that a scene with no surfaces concatenates too
    parts = [(
        np.empty((0, 3)), np.empty((0, 3), dtype=np.uint8),
        np.empty(0, dtype=np.int8), np.empty(0, dtype=np.int32), np.empty(0, dtype=np.int8),
    )]

    def add(xyz: np.ndarray, rgb: np.ndarray, kind: int, owner: int, face: np.ndarray | int = -1) -> None:
        n = len(xyz)
        parts.append((
            xyz, rgb, np.full(n, kind, dtype=np.int8), np.full(n, owner, dtype=np.int32), np.full(n, face, dtype=np.int8),
        ))

    for s in scene.strawberries:
        n = int(round(density * 4.0 * math.pi * s.radius**2))
        pts = _sphere_points(rng, s.center, s.radius, n)
        add(pts, draw_rgb(rng, n, RIPE if s.ripe else UNRIPE), KIND_FRUIT, s.id)

    for s in scene.strawberries:
        n = int(round(density * math.pi * s.stem_diameter * s.stem_length))
        pts = _cylinder_points(rng, s.stem_top, s.stem_attach, s.stem_diameter, n)
        add(pts, draw_rgb(rng, len(pts), UNRIPE), KIND_STEM, s.id)

    for b, box in enumerate(scene.boxes):
        pts, face = _box_points(rng, box, density)
        grey = rng.integers(NEUTRAL_GREY[0], NEUTRAL_GREY[1] + 1, size=len(pts)).astype(np.uint8)
        kind = KIND_TROUGH if b == 0 else KIND_OCCLUDER
        add(pts, np.stack([grey, grey, grey], axis=1), kind, b, face)

    return SurfaceBatch(*(np.concatenate(column) for column in zip(*parts)))
