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

import itertools
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
        sampled and numbered (`SurfaceBatch.face`)."""
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
    face: np.ndarray   # (n,) int32; sample of box b: 6*b + its face (see _box_points), fruit/stem: -1


def draw_rgb(rng: np.random.Generator, n: int, bands, out: np.ndarray | None = None) -> np.ndarray:
    """`n` uint8 colours, each channel drawn uniformly from its inclusive
    (low, high) band in `bands`, one channel after another: red, green,
    blue; written into `out` when one is given."""
    rgb = np.empty((n, 3), dtype=np.uint8) if out is None else out
    for c, (lo, hi) in enumerate(bands):
        rgb[:, c] = rng.integers(lo, hi + 1, size=n)
    return rgb


def _sphere_points(rng, center: Vec3, radius: float, out: np.ndarray) -> None:
    """Fill `out` with samples on the sphere, bit for bit
    `center + radius * dirs / norms`."""
    dirs = rng.normal(size=out.shape)
    norms = np.linalg.norm(dirs, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    np.multiply(dirs, radius, out=out)
    out /= norms
    out += center.to_array()


def _cross(a, b) -> list[float]:
    """a x b as np.cross computes it, a1*b2 - a2*b1 and so on, in Python
    floats, which round alike, signed zeros included."""
    a0, a1, a2 = a
    b0, b1, b2 = b
    return [a1 * b2 - a2 * b1, a2 * b0 - a0 * b2, a0 * b1 - a1 * b0]


def _stem_frame(a: Vec3, b: Vec3) -> tuple[np.ndarray, float, np.ndarray, np.ndarray] | None:
    """The stem's unit axis from a to b, its length and two unit vectors
    across it, or None for a stem of zero length."""
    axis = b.to_array() - a.to_array()
    length = np.linalg.norm(axis)
    if length == 0:
        return None
    axis = axis / length
    w = axis.tolist()
    u = np.array(_cross(w, (1.0, 0.0, 0.0) if abs(w[0]) < 0.9 else (0.0, 1.0, 0.0)))
    u /= np.linalg.norm(u)
    return axis, length, u, np.array(_cross(w, u.tolist()))


def _cylinder_points(rng, a: Vec3, frame, diameter: float, out: np.ndarray) -> None:
    """Fill `out` with samples on the stem wall from `a`, along `frame`
    as `_stem_frame` gives it."""
    axis, length, u, v = frame
    n = len(out)
    t = rng.random(n)[:, None]
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)[:, None]
    radial = (diameter / 2.0) * (np.cos(theta) * u + np.sin(theta) * v)
    np.multiply(t, length * axis, out=out)
    out += a.to_array()
    out += radial


def _face_counts(box: Aabb, density: float) -> list[int]:
    """Samples on each face of `box` at `density`, one count per axis, for
    each of the two faces at that axis's ends."""
    size = box.max.to_array() - box.min.to_array()
    counts = []
    for axis in range(3):
        i, j = (k for k in range(3) if k != axis)
        counts.append(int(round(density * (size[i] * size[j]))))
    return counts


def _box_points(rng, box: Aabb, density: float, xyz: np.ndarray, face: np.ndarray, code: int) -> None:
    """Fill `xyz` with samples on the six faces of `box`, drawn face by
    face, and `face` with the code of the face each lies on: `code` plus
    2*axis for the face at the box's min on that axis, plus 2*axis + 1 for
    the face at its max; both hold 2 * sum(_face_counts(box, density))
    rows. A sample within `FACE_MARGIN` of an edge of its face gets -1,
    and so does every sample of a box no thicker than twice the margin on
    some axis: a zero-thickness box blocks nothing, so none of its samples
    may be culled."""
    lo = box.min.to_array()
    hi = box.max.to_array()
    thick = bool((hi - lo > 2 * FACE_MARGIN).all())
    start = 0
    for axis, n_face in enumerate(_face_counts(box, density)):
        others = [i for i in range(3) if i != axis]
        for side, fixed in enumerate((lo[axis], hi[axis])):
            if n_face == 0:
                continue
            pts = xyz[start:start + n_face]
            pts[:, axis] = fixed
            inner = np.full(n_face, thick)
            for i in others:
                u = rng.uniform(lo[i], hi[i], size=n_face)
                pts[:, i] = u
                inner &= (u >= lo[i] + FACE_MARGIN) & (u <= hi[i] - FACE_MARGIN)
            face[start:start + n_face] = np.where(inner, code + 2 * axis + side, -1)
            start += n_face


def sample_surface_arrays(scene: Scene) -> SurfaceBatch:
    """Sample every scene surface at `scene.surface_density` points per
    square meter.

    The draws come from one stream of the scene seed, in a fixed order:
    each fruit, then each stem, then each box in `Scene.boxes` order. So a
    scene's samples are a pure function of the scene. So is every part's
    size, so the output arrays are allocated once and each part is drawn
    straight into its rows: no part is copied.
    """
    density = scene.surface_density
    rng = _scene_rng(scene.rng_seed, 1)
    fruit, boxes = scene.strawberries, scene.boxes
    frames = [_stem_frame(s.stem_top, s.stem_attach) for s in fruit]
    sizes = (
        [int(round(density * 4.0 * math.pi * s.radius**2)) for s in fruit]
        + [0 if f is None else int(round(density * math.pi * s.stem_diameter * s.stem_length))
           for s, f in zip(fruit, frames)]
        + [2 * sum(_face_counts(box, density)) for box in boxes]
    )
    n = sum(sizes)
    batch = SurfaceBatch(np.empty((n, 3)), np.empty((n, 3), dtype=np.uint8), np.full(n, -1, dtype=np.int32))
    parts = [(slice(end - size, end), size) for size, end in zip(sizes, itertools.accumulate(sizes))]

    for s, (rows, size) in zip(fruit, parts):
        _sphere_points(rng, s.center, s.radius, batch.xyz[rows])
        draw_rgb(rng, size, RIPE if s.ripe else UNRIPE, batch.rgb[rows])

    for s, frame, (rows, size) in zip(fruit, frames, parts[len(fruit):]):
        if frame is not None:
            _cylinder_points(rng, s.stem_top, frame, s.stem_diameter, batch.xyz[rows])
        draw_rgb(rng, size, UNRIPE, batch.rgb[rows])

    for b, (box, (rows, size)) in enumerate(zip(boxes, parts[2 * len(fruit):])):
        _box_points(rng, box, density, batch.xyz[rows], batch.face[rows], 6 * b)
        batch.rgb[rows] = rng.integers(NEUTRAL_GREY[0], NEUTRAL_GREY[1] + 1, size=size)[:, None]
    return batch
