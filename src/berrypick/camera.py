"""Virtual RGB-D cameras: visibility-culled, noise-perturbed scene clouds.

`capture_rig` is the one capture: both cameras of a rig, in two steps.
The view (`_view`) is the seed-free geometry: which surface samples a
camera sees and where, in its own frame; the scene surfaces are sampled
once and viewed from each camera. The sensor (`_sense`) then perturbs
each view with a seed derived from the capture seed: cam1's on the
calling thread and, at the same time, cam2's on the sensing worker.

Viewing runs four visibility passes, cheapest first. The first three
only drop points, so the z-buffer sees the survivors in sampling order:

1. Back-face cull. A box sample (trough, occluder) on a face of its own
   box that is turned away from the eye is provably blocked by that box,
   so it is dropped before any ray is cast. The scene sampler tags each
   box sample with the face it draws it on; each camera only decides
   which faces are turned away from it.
2. Frustum. Points outside the range band or the field of view go.
3. Slab test. Box-shaped geometry blocks rays exactly via a vectorized
   slab test, so anything behind a box is absent regardless of sampling
   density.
4. Angular z-buffer. The nearest sample per (azimuth, elevation) bin
   wins, which handles curved-surface self-occlusion at cloud granularity
   without ray tracing.

Sensing applies depth noise along each visible ray, and dropout removes
points independently. Both randomness streams derive from the capture
seed, so a capture is a pure function of (scene, rig, seed).

Rows are gathered with `take` along axis 0, from index arrays that
`flatnonzero` makes of each mask, and never by fancy indexing: the values
are the same, and on numpy 2.4.6 `q.take(idx, axis=0)` gathers 50k rows
of an (n, 3) array in 0.38 ms where `q[idx]` takes 1.37 ms. A view
carries one index array through the frustum and slab stages and gathers
positions and colours once, at the end. A view also holds the length of
each of its rays, which sensing needs and which does not depend on the
seed: a row's length is the same bits whichever rows are gathered with it.

The views of the last capture are kept, one entry only, and reused when
the next capture has an equal key: the frozen `Scene` (fruit and their
detached flags, trough, occluders, surface density, scene seed) and,
for each of the rig's cameras, every `CameraModel` field but depth noise
and dropout, the pose as bytes. Within one process, then, a scene is
viewed once for the runs of a fixed scene over several run seeds, for
each seed's points of a sweep (`berrypick sweep` runs them one after
another, and gives each worker whole seeds), and for the
`--dump-clouds` re-capture of a run; a scene that changes with every
run is viewed every time. The kept arrays (positions, colours and ray
lengths) are read-only.

The sensing worker is one thread, started by the first capture in a
process, with `concurrent.futures` imported only then; a process that
never captures starts no thread. It runs nothing but `_sense`, a pure
function of read-only view arrays, a camera and a seed; the views, the
kept-view entry and everything else stay on the calling thread. Each
camera draws from its own Philox streams, so the clouds are the bits a
serial capture gives. Before any `os.fork()` the worker is shut down
and joined, so no thread crosses a fork (a `sweep` with workers forks
them); the next capture, in parent or child, starts a new one. Like
the kept views, the worker assumes one capture at a time per process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .geometry import ColoredPointCloud, RigidTransform, Vec3, sq_lengths
from .scene import KIND_FRUIT, Scene, sample_surface_arrays


# The default rig in scenario-config units (degrees for angles): both
# cameras share one set of optics, cam1 faces the trough and cam2 sits
# below it looking up. CameraModel, default_rig and the config's `rig`
# defaults all read this table.
_OPTICS = {
    "h_fov_deg": 87.0,
    "v_fov_deg": 58.0,
    "min_range": 0.15,
    "max_range": 2.0,
    "depth_noise_sigma": 0.002,
    "dropout_rate": 0.02,
    "bin_res_deg": 0.3,
}
DEFAULT_RIG = {
    "cam1": {"eye": [-0.05, 0.0, 0.45], "target": [0.45, 0.0, 0.40], **_OPTICS},
    "cam2": {"eye": [0.15, 0.0, 0.05], "target": [0.42, 0.0, 0.40], **_OPTICS},
}

# bins a camera's angular z-buffer grid must stay below, so that `_view`'s
# int64 bin numbers, row * (columns) + column, cannot overflow
MAX_BINS = 2**62


@dataclass(frozen=True)
class CameraModel:
    pose: RigidTransform          # camera frame -> base frame
    frame: str = "cam1"
    h_fov: float = math.radians(_OPTICS["h_fov_deg"])
    v_fov: float = math.radians(_OPTICS["v_fov_deg"])
    min_range: float = _OPTICS["min_range"]
    max_range: float = _OPTICS["max_range"]
    depth_noise_sigma: float = _OPTICS["depth_noise_sigma"]
    dropout_rate: float = _OPTICS["dropout_rate"]
    bin_res: float = math.radians(_OPTICS["bin_res_deg"])   # angular z-buffer bin size

    def __post_init__(self):
        if not 0 < self.h_fov < math.pi:
            raise ValueError("h_fov must lie in (0, 180) degrees")
        if not 0 < self.v_fov < math.pi:
            raise ValueError("v_fov must lie in (0, 180) degrees")
        if self.min_range <= 0:
            raise ValueError("min_range must be > 0")
        if self.min_range >= self.max_range:
            raise ValueError("min_range must be < max_range")
        if self.depth_noise_sigma < 0:
            raise ValueError("depth_noise_sigma must be >= 0")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must be in [0, 1]")
        if self.bin_res <= 0:
            raise ValueError("bin_res must be > 0")
        per_axis = (self.h_fov / self.bin_res, self.v_fov / self.bin_res)
        if not all(map(math.isfinite, per_axis)) or math.prod(math.ceil(n) + 1 for n in per_axis) >= MAX_BINS:
            raise ValueError("bin_res must leave the z-buffer fewer than 2^62 angular bins over the field of view")


@dataclass(frozen=True)
class CameraRig:
    cam1: CameraModel
    cam2: CameraModel

    def __post_init__(self):
        if self.cam1.frame != "cam1" or self.cam2.frame != "cam2":
            raise ValueError("rig cameras must be labeled cam1 and cam2")


def look_at_pose(eye: Vec3, target: Vec3, frame: str) -> RigidTransform:
    """Camera pose with +z pointing from eye toward target (z-forward convention)."""
    with np.errstate(over="ignore"):
        fwd = target.to_array() - eye.to_array()
        n = np.linalg.norm(fwd)
    if n == 0:
        raise ValueError("target must differ from eye")
    if not math.isfinite(n):
        raise ValueError("target lies too far from eye: |target - eye| overflows")
    z = fwd / n
    up = np.array([0.0, 0.0, 1.0])
    if abs(float(z @ up)) > 0.999:
        up = np.array([0.0, 1.0, 0.0])
    x = np.cross(z, up)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    rot = np.stack([x, y, z], axis=1)
    return RigidTransform(rot, eye, source_frame=frame, target_frame="base")


def make_camera(
    frame: str, *, eye, target, h_fov_deg: float, v_fov_deg: float, bin_res_deg: float, **optics
) -> CameraModel:
    """A camera from its entry in `DEFAULT_RIG` form: eye and target as
    [x, y, z] and angles in degrees; the rest passes to CameraModel."""
    return CameraModel(
        pose=look_at_pose(Vec3(*eye), Vec3(*target), frame),
        frame=frame,
        h_fov=math.radians(h_fov_deg),
        v_fov=math.radians(v_fov_deg),
        bin_res=math.radians(bin_res_deg),
        **optics,
    )


def default_rig(
    depth_noise_sigma: float = _OPTICS["depth_noise_sigma"], dropout_rate: float = _OPTICS["dropout_rate"]
) -> CameraRig:
    """Two-view arrangement: one camera facing the trough, one below looking up."""
    noise = {"depth_noise_sigma": depth_noise_sigma, "dropout_rate": dropout_rate}
    return CameraRig(*(make_camera(frame, **{**DEFAULT_RIG[frame], **noise}) for frame in ("cam1", "cam2")))


def _occluded_by_box(eye: np.ndarray, pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Mask of points whose eye->point segment crosses the box strictly
    before reaching the point (slab method; a point on the box's own
    surface is not occluded by it). Rows reduce column by column, as
    `sq_lengths` does, rather than through a slower row-wise reduce."""
    d = pts - eye
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - eye) / d
        t1 = (hi - eye) / d
    parallel = np.abs(d) < 1e-15
    tmin = np.where(parallel, -np.inf, np.minimum(t0, t1))
    tmax = np.where(parallel, np.inf, np.maximum(t0, t1))
    entry = np.maximum(np.maximum(tmin[:, 0], tmin[:, 1]), tmin[:, 2])
    exit_ = np.minimum(np.minimum(tmax[:, 0], tmax[:, 1]), tmax[:, 2])
    miss = parallel & ((eye < lo) | (eye > hi))
    return (entry <= exit_) & (exit_ > 1e-9) & (entry < 1.0 - 1e-9) & ~(miss[:, 0] | miss[:, 1] | miss[:, 2])


def _back_faces(bounds: list[tuple[np.ndarray, np.ndarray]], eye: np.ndarray) -> np.ndarray:
    """Lookup table over face codes 6*box + face (box in `Scene.boxes`
    order, face as `SurfaceBatch.face` numbers it), with a final False
    entry for code -1: True where the face is turned away from the eye.

    The slab test of a box blocks every sample of such a face that lies at
    least `scene.FACE_MARGIN` inside each of its edges, as every sample
    with a face code does: the eye->sample segment enters the box at
    t <= 1 - margin/|eye - p|, below the slab test's 1 - 1e-9 cut-off for
    any sample nearer than 1 km, and leaves it through the face at t = 1.
    Faces of a box that does not hold the eye strictly outside stay False.
    """
    table = np.zeros(6 * len(bounds) + 1, dtype=bool)
    for b, (lo, hi) in enumerate(bounds):
        if ((eye < lo) | (eye > hi)).any():
            # the face at lo has outward normal -e_axis, the face at hi +e_axis
            table[6 * b:6 * b + 6:2] = eye > lo
            table[6 * b + 1:6 * b + 6:2] = eye < hi
    return table


class _Surfaces(NamedTuple):
    """A scene sampled once for any number of cameras."""

    xyz: np.ndarray      # (n, 3) samples, detached fruit dropped
    rgb: np.ndarray      # (n, 3) uint8
    face: np.ndarray     # (n,) code 6*box + face into the _back_faces table, or -1
    bounds: list         # (lo, hi) of each box in Scene.boxes, in slab-test order


def _surfaces(scene: Scene) -> _Surfaces:
    """Sample the scene and number each box sample's face across all the
    boxes; none of this depends on the camera."""
    batch = sample_surface_arrays(scene, scene.surface_density)
    face = np.where(batch.face < 0, -1, 6 * batch.owner + batch.face)
    bounds = [(box.min.to_array(), box.max.to_array()) for box in scene.boxes]

    detached = np.array([s.id for s in scene.strawberries if s.detached], dtype=np.int32)
    if len(detached):
        keep = np.flatnonzero(~((batch.kind == KIND_FRUIT) & np.isin(batch.owner, detached)))
        return _Surfaces(batch.xyz.take(keep, axis=0), batch.rgb.take(keep, axis=0), face.take(keep), bounds)
    return _Surfaces(batch.xyz, batch.rgb, face, bounds)


def _frustum(cam: CameraModel, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Camera-frame points, azimuths and elevations of base-frame points,
    and the mask of those inside the range band and the field of view."""
    q = cam.pose.inverse().apply_to(xyz)
    z = q[:, 2]
    az = np.arctan2(q[:, 0], z)
    el = np.arctan2(q[:, 1], z)
    inside = (
        (z >= cam.min_range) & (z <= cam.max_range)
        & (np.abs(az) <= cam.h_fov / 2) & (np.abs(el) <= cam.v_fov / 2)
    )
    return q, az, el, inside


def _view(surf: _Surfaces, cam: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Camera-frame positions, colours and ray lengths of the samples one
    camera sees, one per angular bin in bin order; read-only, as they may
    be reused."""
    eye = cam.pose.translation.to_array()
    kept = np.flatnonzero((~_back_faces(surf.bounds, eye)).take(surf.face))
    q, az, el, inside = _frustum(cam, surf.xyz.take(kept, axis=0))
    # `idx` indexes the culled rows (q, az, el); `pts` holds their base-frame positions
    idx = np.flatnonzero(inside)
    pts = surf.xyz.take(kept.take(idx), axis=0)
    for lo, hi in surf.bounds:
        if len(idx) == 0:
            break
        clear = np.flatnonzero(~_occluded_by_box(eye, pts, lo, hi))
        idx, pts = idx.take(clear), pts.take(clear, axis=0)

    n_az = int(math.ceil(cam.h_fov / cam.bin_res)) + 1
    bi = np.floor((az.take(idx) + cam.h_fov / 2) / cam.bin_res).astype(np.int64)
    bj = np.floor((el.take(idx) + cam.v_fov / 2) / cam.bin_res).astype(np.int64)
    bins = bj * n_az + bi
    # nearest point per angular bin wins; lexsort is stable, so ties
    # resolve to the earliest sample
    order = np.lexsort((q[:, 2].take(idx), bins))
    sorted_bins = bins.take(order)
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_bins[1:] != sorted_bins[:-1]
    sel = idx.take(order.compress(first))
    q = q.take(sel, axis=0)
    rgb = surf.rgb.take(kept.take(sel), axis=0)
    ranges = np.sqrt(sq_lengths(q))
    for a in (q, rgb, ranges):
        a.setflags(write=False)
    return q, rgb, ranges


def _sense(q: np.ndarray, rgb: np.ndarray, ranges: np.ndarray, cam: CameraModel, seed: int) -> ColoredPointCloud:
    """The cloud one camera reports for a view: depth noise along each ray,
    then dropout, from two streams derived from `seed`. Each sample draws
    its noise whether or not it drops out, so only the kept rows are
    gathered, once, and perturbed, in place.

    The draws are `standard_normal` scaled by sigma. `normal(0.0, 1.0)`
    returns 0.0 + 1.0*z, which is z but for the sign of a zero draw, and
    that sign is lost in `ranges + dr` as every range is > 0; so the
    points are the bits `normal` gives. A pure function of read-only
    arrays, so `capture_rig` runs one camera's on its sensing worker."""
    ss = np.random.SeedSequence(seed)
    noise_rng, dropout_rng = (np.random.Generator(np.random.Philox(c)) for c in ss.spawn(2))
    dr = noise_rng.standard_normal(len(q))
    dr *= cam.depth_noise_sigma
    kept = np.flatnonzero(dropout_rng.random(len(q)) >= cam.dropout_rate)

    ranges = ranges.take(kept)
    scale = dr.take(kept)
    scale += ranges
    scale /= ranges
    q = q.take(kept, axis=0)
    q *= scale[:, None]
    return ColoredPointCloud(cam.frame, q, rgb.take(kept, axis=0))


# CameraModel fields that only perturb a view; every other field shapes it
_SENSOR_FIELDS = ("depth_noise_sigma", "dropout_rate")


def _view_key(cam: CameraModel) -> tuple:
    """What a camera's view depends on: each CameraModel field but the
    sensor's, the pose as the bytes of its rotation and translation."""
    return tuple(
        cam.pose.rotation.tobytes() + cam.pose.translation.to_array().tobytes()
        if f.name == "pose"
        else getattr(cam, f.name)
        for f in fields(CameraModel)
        if f.name not in _SENSOR_FIELDS
    )


# (key, views) of the last capture; see the module docstring
_last_views: tuple | None = None


def _views(scene: Scene, rig: CameraRig) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The view of `scene` from each of the rig's cameras, from one surface
    sampling, or the last capture's views when scene and camera geometry
    are equal."""
    global _last_views
    cams = (rig.cam1, rig.cam2)
    key = (scene, tuple(_view_key(cam) for cam in cams))
    if _last_views is not None and _last_views[0] == key:
        return _last_views[1]
    surf = _surfaces(scene)
    views = tuple(_view(surf, cam) for cam in cams)
    _last_views = (key, views)
    return views


# the sensing worker: one thread, started by the first capture and shut
# down before any fork; see the module docstring
_sensor = None


def _drop_sensor() -> None:
    """Join and drop the sensing worker, so that no thread crosses a fork:
    a forked child would hold a worker whose thread is gone, and its first
    capture would wait on cam2 forever. The next capture starts a new one."""
    global _sensor
    if _sensor is not None:
        _sensor.shutdown()
        _sensor = None


os.register_at_fork(before=_drop_sensor)


def capture_rig(scene: Scene, rig: CameraRig, seed: int) -> tuple[ColoredPointCloud, ColoredPointCloud]:
    """Capture both cameras from one surface sampling, each as a cloud in
    its own frame, with independent noise streams derived from `seed`.

    Each cloud's order follows the angular bin index, which is
    deterministic for a fixed (scene, rig, seed).

    The views are made here; cam2 is then sensed on the sensing worker
    while this thread senses cam1. The two draw from separate streams and
    numpy fills them without the GIL, so they run side by side with the
    bits a serial capture gives. cam2's sensing is waited for even when
    cam1's raises, and an error from either reaches the caller.
    """
    global _sensor
    s1, s2 = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    v1, v2 = _views(scene, rig)
    if _sensor is None:
        # imported here, so that a process that never captures starts no thread
        from concurrent.futures import ThreadPoolExecutor

        _sensor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="berrypick-sense")
    cam2 = _sensor.submit(_sense, *v2, rig.cam2, int(s2))
    try:
        cloud1 = _sense(*v1, rig.cam1, int(s1))
    finally:
        cam2.exception()  # waits, and leaves cam2's error to result()
    return cloud1, cam2.result()
