"""Virtual RGB-D cameras: visibility-culled, noise-perturbed scene clouds.

`capture_rig` is the one capture: both cameras of a rig, in two steps.
The view (`_view`) is the seed-free geometry: which surface samples a
camera sees and where, in its own frame; the scene surfaces are sampled
once and viewed from each camera. The sensor (`_sense`) then perturbs
each view with a seed derived from the capture seed: cam1's on the
calling thread and, at the same time, cam2's on the sensing worker.

Viewing runs four visibility passes, cheapest first. The first three
only drop points, so the z-buffer sees the survivors in sampling order.
The scene sampler gives each box sample the scene-wide code of the face
it is drawn on, 6*box + face (`SurfaceBatch.face`), and each camera
builds one table over those codes (`_face_roles`) that both of the first
and third passes read:

1. Back-face cull. A box sample (trough, occluder) on a face of its own
   box that is turned away from the eye is provably blocked by that box,
   so it is dropped before any ray is cast.
2. Frustum. Points outside the range band or the field of view go. The
   frustum stage's arrays then keep only the rows that go on.
3. Slab test. Box-shaped geometry blocks rays exactly via a vectorized
   slab test, so anything behind a box is absent regardless of sampling
   density. A box's test skips its own samples on the faces that look at
   the eye, which it provably cannot block, so each box is tested only
   against what another box may hide: on `paper9`, the ~2,100 fruit,
   stem and edge samples of cam1's ~21,000 in the frustum.
4. Angular z-buffer. The nearest sample per (azimuth, elevation) bin
   wins, which handles curved-surface self-occlusion at cloud granularity
   without ray tracing. Two scatters over a table of every bin
   (`CameraModel.grid`) find it, ties going to the earliest sample; a
   grid too fine for the table sorts the samples instead
   (`_nearest_per_bin`).

The scene sampler draws every part of a scene straight into one set of
output arrays, as each part's size is a function of the scene, and each
box's six faces into its rows of them; both cameras view that one batch.
A cold `paper9` capture, both views included, peaks at ~5.3 MB of traced
allocations: the 81,293 samples as the sampler draws them (2.5 MB),
cam1's view, and cam2's 38,095 culled rows moved to its frame.

Sensing applies depth noise along each visible ray, and dropout removes
points independently. Both randomness streams derive from the capture
seed, so a capture is a pure function of (scene, rig, seed).

A harvest run senses only what `localize` reads: given localization
params, `capture_rig` returns each camera's red rows alone, as a
`RedCloud`, with the bits of the whole cloud's red rows. A view's colours
do not depend on the seed, so its red rows are found before sensing
(`view_reds`), once for all the runs that sense the view.
Each row is perturbed on its own by the draws at its own index, and
Philox fills draws in sequence, so drawing normals only up to the last
red row gives a prefix of the whole view's draws and every red row the
draw it gets there; gathering the selected rows then skips the rest.
The dropout uniforms are still drawn over the whole view, so a red
cloud knows how many rows its whole cloud holds, which `localize`
counts as `n_merged` and needs to move a lone red row as the whole
cloud moves it. cam1's 14,486-row `paper9` view holds 818 red rows, none
past row 6,654; cam2's 11,537 rows hold 876, none past row 2,471.

Rows are gathered with `take` along axis 0, from index arrays that
`flatnonzero` makes of each mask, and never by fancy indexing: the values
are the same, and on numpy 2.4.6 `q.take(idx, axis=0)` gathers 50k rows
of an (n, 3) array in 0.38 ms where `q[idx]` takes 1.37 ms. A view
carries one index array through the frustum and slab stages and gathers
positions and colours once, at the end. A view also holds the length of
each of its rays, which sensing needs and which does not depend on the
seed: a row's length is the same bits whichever rows are gathered with it.

Views live on the build. A view is a pure function of the scene and of
one camera's geometry, and a `controller.BuiltScenario` holds both: it
makes its views (`rig_views`) and their red rows for its own colour
thresholds (`view_reds`) on first use and keeps them, and a harvest run
and its `--dump-clouds` re-capture sense those. Within one process,
then, a scene is viewed once for the runs of a fixed scene over several
run seeds (`cli.run_one` keeps the last build), and once for each seed
of a sweep, whose points run on that seed's build with their axis's one
component replaced (`BuiltScenario.derive`): no sweep axis changes the
scene or a camera's geometry. Any other build views its scene anew, one
that `dataclasses.replace` makes included, as does `capture_rig` when it
is given no views. The kept arrays (positions, colours, ray lengths and
red rows) are read-only.

The sensing worker is one thread, started by the first capture in a
process, with `concurrent.futures` imported only then; a process that
never captures starts no thread. It runs nothing but `_sense`, a pure
function of read-only view arrays, a camera and a seed; the views and
everything else stay on the calling thread. Each camera draws from its
own Philox streams, so the clouds are the bits a serial capture gives.
Before any `os.fork()` the worker is shut down and joined, so no thread
crosses a fork (a `sweep` with workers forks them); the next capture, in
parent or child, starts a new one. The worker assumes one capture at a
time per process.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .geometry import ColoredPointCloud, RigidTransform, Vec3, sq_lengths
from .localization import LocalizationParams, RedCloud, red_rows
from .scene import Scene, SurfaceBatch, sample_surface_arrays


# The default rig in scenario-config units (degrees for angles): both
# cameras share one set of optics, cam1 faces the trough and cam2 sits
# below it looking up. default_rig and the config's `rig` defaults read
# DEFAULT_RIG, and make_camera turns an entry into a CameraModel.
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

# numpy's normal draws lie within +/-14 (the ziggurat's tail returns
# r + -ln(u)/r for r ~ 3.654 and u >= 2^-53), and a sensed ray is at
# least min_range long. With sigma at most MAX_DEPTH_NOISE_SIGMA and
# min_range at least MIN_RANGE, a perturbed range, its ratio to the ray's
# length (below 1.4e307) and the moved point all stay finite
MAX_DEPTH_NOISE_SIGMA = 1e300
MIN_RANGE = 1e-6


@dataclass(frozen=True)
class CameraModel:
    pose: RigidTransform   # camera frame -> base frame
    frame: str
    h_fov: float
    v_fov: float
    min_range: float
    max_range: float
    depth_noise_sigma: float
    dropout_rate: float
    bin_res: float         # angular z-buffer bin size

    def __post_init__(self):
        if not 0 < self.h_fov < math.pi:
            raise ValueError("h_fov must lie in (0, 180) degrees")
        if not 0 < self.v_fov < math.pi:
            raise ValueError("v_fov must lie in (0, 180) degrees")
        if not self.min_range >= MIN_RANGE:
            raise ValueError(f"min_range must be at least {MIN_RANGE:g} m")
        if self.min_range >= self.max_range:
            raise ValueError("min_range must be < max_range")
        if not 0 <= self.depth_noise_sigma <= MAX_DEPTH_NOISE_SIGMA:
            raise ValueError(f"depth_noise_sigma must be in [0, {MAX_DEPTH_NOISE_SIGMA:g}] m, so that noisy rays stay finite")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise ValueError("dropout_rate must be in [0, 1]")
        if self.bin_res <= 0:
            raise ValueError("bin_res must be > 0")
        per_axis = (self.h_fov / self.bin_res, self.v_fov / self.bin_res)
        if not all(map(math.isfinite, per_axis)) or math.prod(self.grid) >= MAX_BINS:
            raise ValueError("bin_res must leave the z-buffer fewer than 2^62 angular bins over the field of view")

    @property
    def grid(self) -> tuple[int, int]:
        """Columns and rows of the angular z-buffer: the azimuth and the
        elevation bins over the field of view."""
        return math.ceil(self.h_fov / self.bin_res) + 1, math.ceil(self.v_fov / self.bin_res) + 1


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


def default_rig() -> CameraRig:
    """Two-view arrangement: one camera facing the trough, one below looking up."""
    return CameraRig(*(make_camera(frame, **DEFAULT_RIG[frame]) for frame in ("cam1", "cam2")))


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


# roles of a face in a camera's face table (`_face_roles`); a face that
# is neither culled nor tested has role b, the index of its box
CULLED = -2
TESTED = -1


def _face_roles(bounds: list[tuple[np.ndarray, np.ndarray]], eye: np.ndarray) -> np.ndarray:
    """The role of each face for a camera at `eye`, as a table over face
    codes 6*b + face (box b of `bounds`, in `Scene.boxes` order, face as
    `SurfaceBatch.face` numbers it) with a final entry for code -1:

    - `CULLED`: box b holds the eye strictly outside and the face is
      turned away from it. b's slab test blocks each of the face's samples.
    - b: the face's plane has the eye strictly on its outer side. b's slab
      test blocks none of the face's samples, so b's pass skips them.
    - `TESTED`: everything else. That is code -1 (fruit, stems, samples
      within `scene.FACE_MARGIN` of a face edge, boxes too thin to cull),
      every face of a box that holds the eye, and a face whose plane holds
      the eye, where its samples' rays run in the plane and b blocks them
      edge-on.

    Both proofs rest on `_occluded_by_box` and on the sampler setting a
    face sample's coordinate on the face's axis to the plane's, say
    p_x = lo_x. A turned-away face (eye_x > lo_x, the eye outside on
    another axis) holds only samples at least `scene.FACE_MARGIN` inside
    each of its edges, so the eye->sample segment enters the box at
    t <= 1 - margin/|eye - p|, below the slab test's 1 - 1e-9 cut-off for
    any sample nearer than 1 km, and leaves it through the face at t = 1.
    For a face whose plane has the eye outside (eye_x < lo_x), d_x = p_x -
    eye_x is the bits of lo_x - eye_x, so the plane's t is exactly 1 and
    the farther plane's t is at least 1: the segment stays on the eye's
    side of the plane until t = 1, `entry` is at least 1 and the test's
    `entry < 1 - 1e-9` is False. Where |d_x| < 1e-15 the axis counts as
    parallel with the eye outside the slab, a miss.
    """
    roles = np.full(6 * len(bounds) + 1, TESTED, dtype=np.int64)
    for b, (lo, hi) in enumerate(bounds):
        # face 2*axis lies at lo[axis], outward normal -e_axis, and face
        # 2*axis + 1 at hi[axis], outward normal +e_axis
        outer = np.stack([eye < lo, eye > hi], axis=1).ravel()
        faces = roles[6 * b:6 * b + 6]
        faces[outer] = b
        if outer.any():
            faces[np.stack([eye > lo, eye < hi], axis=1).ravel()] = CULLED
    return roles


def _frustum(cam: CameraModel, q: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Azimuths and elevations of camera-frame points, and the mask of
    those inside the range band and the field of view."""
    z = q[:, 2]
    az = np.arctan2(q[:, 0], z)
    el = np.arctan2(q[:, 1], z)
    inside = (
        (z >= cam.min_range) & (z <= cam.max_range)
        & (np.abs(az) <= cam.h_fov / 2) & (np.abs(el) <= cam.v_fov / 2)
    )
    return az, el, inside


def _zbuffer_fits(n_bins: int, n: int) -> bool:
    """Whether `_nearest_per_bin` scatters `n` samples into tables over
    all `n_bins` bins: at most 4 bins a sample plus 2^16, so its float64
    and int32 tables take at most 0.75 MB plus 48 bytes a sample, about
    what sorting them takes. Finer grids (a small `bin_res`, up to
    `MAX_BINS`) sort the samples instead."""
    return n_bins <= 4 * n + 2**16


def _nearest_per_bin(bins: np.ndarray, z: np.ndarray, n_bins: int) -> np.ndarray:
    """Index of the nearest sample (least z) in each occupied bin of
    0..n_bins-1, in bin order; ties go to the earliest sample.

    Under `_zbuffer_fits`, one `np.minimum.at` takes each bin's least z
    and a second the lowest index among the samples at that z, so the
    winners read out in bin order. No z is NaN (each passed the range
    band), so a sample equals its bin's least z exactly when it is nearest.
    Every sample index fits the int32 winner table, as a scene draws at
    most `scene.MAX_SURFACE_SAMPLES`. Otherwise a stable `lexsort` by
    (bin, z) puts each bin's winner first."""
    n = len(bins)
    if _zbuffer_fits(n_bins, n):
        least = np.full(n_bins, np.inf)
        np.minimum.at(least, bins, z)
        nearest = np.flatnonzero(z == least.take(bins))
        winner = np.full(n_bins, n, dtype=np.int32)
        np.minimum.at(winner, bins.take(nearest), nearest.astype(np.int32))
        return winner.compress(winner < n)
    order = np.lexsort((z, bins))
    sorted_bins = bins.take(order)
    first = np.ones(n, dtype=bool)
    first[1:] = sorted_bins[1:] != sorted_bins[:-1]
    return order.compress(first)


def _unblocked(batch: SurfaceBatch, bounds: list, roles: np.ndarray, eye: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Mask of the surface samples `rows` that no box blocks from `eye`:
    the slab passes of `_view`, box b's skipping the faces whose role is b.
    A sample one box blocks is not tested again."""
    role = roles.take(batch.face.take(rows))
    clear = np.ones(len(rows), dtype=bool)
    for b, (lo, hi) in enumerate(bounds):
        tested = np.flatnonzero(clear & (role != b))
        if len(tested):
            pts = batch.xyz.take(rows.take(tested), axis=0)
            clear[tested.compress(_occluded_by_box(eye, pts, lo, hi))] = False
    return clear


def _view(batch: SurfaceBatch, bounds: list, cam: CameraModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Camera-frame positions, colours and ray lengths of the samples one
    camera sees, one per angular bin in bin order; read-only, as they may
    be reused. `bounds` holds (lo, hi) of each box in `Scene.boxes`.

    The camera's face table (`_face_roles`) culls the faces turned away
    from the eye, and each box's slab pass skips the faces it cannot
    block. Before the z-buffer, the frustum stage's arrays (q, az, el)
    keep only the rows that passed the frustum and the slabs.
    """
    eye = cam.pose.translation.to_array()
    roles = _face_roles(bounds, eye)
    kept = np.flatnonzero((roles != CULLED).take(batch.face))
    q = cam.pose.inverse().apply_to(batch.xyz.take(kept, axis=0))
    az, el, inside = _frustum(cam, q)
    # `idx` indexes the culled rows (q, az, el), `rows` the surface samples
    idx = np.flatnonzero(inside)
    rows = kept.take(idx)
    del kept, inside  # before the copies below, which set cam1's peak
    clear = _unblocked(batch, bounds, roles, eye, rows)
    idx, rows = idx.compress(clear), rows.compress(clear)
    q = q.take(idx, axis=0)
    az = az.take(idx)
    el = el.take(idx)

    n_az, n_el = cam.grid
    bi = np.floor((az + cam.h_fov / 2) / cam.bin_res).astype(np.int64)
    bj = np.floor((el + cam.v_fov / 2) / cam.bin_res).astype(np.int64)
    sel = _nearest_per_bin(bj * n_az + bi, q[:, 2], n_az * n_el)
    q = q.take(sel, axis=0)
    rgb = batch.rgb.take(rows.take(sel), axis=0)
    ranges = np.sqrt(sq_lengths(q))
    for a in (q, rgb, ranges):
        a.setflags(write=False)
    return q, rgb, ranges


def _sense(
    q: np.ndarray, rgb: np.ndarray, ranges: np.ndarray, cam: CameraModel, seed: int,
    red: tuple[np.ndarray, tuple[int, int, int]] | None = None,
) -> ColoredPointCloud:
    """The cloud one camera reports for a view: depth noise along each ray,
    then dropout, from two streams derived from `seed`; given `red`, the
    view's red rows and the colour thresholds that picked them, its
    `RedCloud` instead. Only the selected rows, those that survive dropout
    or of those the red ones, are gathered, once, and perturbed, in place, each
    by the draw at its own index. The normals are drawn only up to the
    last selected row, a prefix of the whole view's, and the dropout
    uniforms over the whole view (see the module docstring).

    The draws are `standard_normal` scaled by sigma. `normal(0.0, 1.0)`
    returns 0.0 + 1.0*z, which is z but for the sign of a zero draw, and
    that sign is lost in `ranges + dr` as every range is > 0; so the
    points are the bits `normal` gives. A pure function of read-only
    arrays, so `capture_rig` runs one camera's on its sensing worker."""
    ss = np.random.SeedSequence(seed)
    noise_rng, dropout_rng = (np.random.Generator(np.random.Philox(c)) for c in ss.spawn(2))
    survives = dropout_rng.random(len(q)) >= cam.dropout_rate
    if red is None:
        rows = np.flatnonzero(survives)
    else:
        rows = red[0].compress(survives.take(red[0]))
    dr = noise_rng.standard_normal(int(rows[-1]) + 1 if len(rows) else 0)

    ranges = ranges.take(rows)
    scale = dr.take(rows)
    scale *= cam.depth_noise_sigma
    scale += ranges
    scale /= ranges
    q = q.take(rows, axis=0)
    q *= scale[:, None]
    rgb = rgb.take(rows, axis=0)
    if red is None:
        return ColoredPointCloud(cam.frame, q, rgb)
    return RedCloud(cam.frame, q, rgb, int(np.count_nonzero(survives)), red[1])


def rig_views(scene: Scene, rig: CameraRig) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """The view of `scene` from each of the rig's cameras, from one surface
    sampling, as `_view` gives it."""
    batch = sample_surface_arrays(scene)
    bounds = [(box.min.to_array(), box.max.to_array()) for box in scene.boxes]
    return tuple(_view(batch, bounds, cam) for cam in (rig.cam1, rig.cam2))


def view_reds(views: tuple, p: LocalizationParams) -> tuple[tuple[np.ndarray, tuple[int, int, int]], ...]:
    """(red rows, thresholds) of each view for p's colour thresholds, as
    `_sense` takes them; the rows are read-only."""
    rgb_th = (p.r_th, p.g_th, p.b_th)
    reds = tuple((red_rows(rgb, p), rgb_th) for _, rgb, _ in views)
    for rows, _ in reds:
        rows.setflags(write=False)
    return reds


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


def capture_rig(
    scene: Scene, rig: CameraRig, seed: int, red: LocalizationParams | None = None, *,
    views: tuple | None = None, reds: tuple | None = None,
) -> tuple[ColoredPointCloud, ColoredPointCloud]:
    """Capture both cameras from one surface sampling, each as a cloud in
    its own frame, with independent noise streams derived from `seed`.
    Given localization params `red`, each cloud is a `RedCloud`: the rows
    of the whole cloud that pass red's colour thresholds, which are all
    that `localize` reads of it, with the same bits (see `_sense`).

    Each cloud's order follows the angular bin index, which is
    deterministic for a fixed (scene, rig, seed).

    `views` and `reds`, when given, must be what `rig_views(scene, rig)`
    and `view_reds(views, red)` return; each is made here when it is not
    given (a `BuiltScenario` keeps both). cam2 is then sensed on the
    sensing worker while this thread senses cam1. The two draw from
    separate streams and numpy fills them without the GIL, so they run
    side by side with the bits a serial capture gives. cam2's sensing is
    waited for even when cam1's raises, and an error from either reaches
    the caller.
    """
    global _sensor
    s1, s2 = np.random.SeedSequence(seed).generate_state(2, np.uint64)
    if views is None:
        views = rig_views(scene, rig)
    if reds is None:
        reds = (None, None) if red is None else view_reds(views, red)
    (v1, v2), (r1, r2) = views, reds
    if _sensor is None:
        # imported here, so that a process that never captures starts no thread
        from concurrent.futures import ThreadPoolExecutor

        _sensor = ThreadPoolExecutor(max_workers=1, thread_name_prefix="berrypick-sense")
    cam2 = _sensor.submit(_sense, *v2, rig.cam2, int(s2), r2)
    try:
        cloud1 = _sense(*v1, rig.cam1, int(s1), r1)
    finally:
        cam2.exception()  # waits, and leaves cam2's error to result()
    return cloud1, cam2.result()
