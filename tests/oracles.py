"""Independent brute-force oracles used to cross-check the implementation.

Everything here is deliberately written without reusing the package's
algorithms: clustering runs a full O(n^2) pairwise union-find, filters are
plain Python loops, and physics checks use closed forms. The camera
reference is the straightforward renderer (slab-test every sample, then
clip to the frustum) that the culling renderer must match bit for bit.
Box face codes are read off each sample's coordinates, not off the face
the sampler drew it on. The sensor reference keeps the out-of-place
formula the in-place sensor must match, and the event log reference
encodes one record at a time.
"""

import json
import math

import numpy as np

from berrypick.geometry import ColoredPointCloud
from berrypick.scene import KIND_FRUIT, sample_surface_arrays


def brute_force_clusters(xyz: np.ndarray, tol: float, s_min: int, s_max: int) -> list[list[int]]:
    """Connected components under d <= tol via full pairwise union-find."""
    n = len(xyz)
    if n == 0:
        return []
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    d2 = ((xyz[:, None, :] - xyz[None, :, :]) ** 2).sum(-1)
    adj = d2 <= tol * tol
    ii, jj = np.nonzero(np.triu(adj, 1))
    for i, j in zip(ii.tolist(), jj.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[rj] = ri

    comps: dict[int, list[int]] = {}
    for i in range(n):
        comps.setdefault(find(i), []).append(i)
    clusters = [idx for idx in comps.values() if s_min <= len(idx) <= s_max]

    def centroid(idx):
        pts = xyz[idx]
        c = pts.mean(axis=0)
        return (c[1], c[0], c[2])

    return sorted(clusters, key=centroid)


def linear_crop(points: list[tuple], bounds) -> list[int]:
    """Indices of points strictly inside the window; bounds is (x-,x+,y-,y+,z-,z+)."""
    xm, xp, ym, yp, zm, zp = bounds
    kept = []
    for i, (x, y, z) in enumerate(points):
        if xm < x < xp and ym < y < yp and zm < z < zp:
            kept.append(i)
    return kept


def linear_red_filter(colors: list[tuple], r_th: int, g_th: int, b_th: int) -> list[int]:
    kept = []
    for i, (r, g, b) in enumerate(colors):
        if r > r_th and g < g_th and b < b_th:
            kept.append(i)
    return kept


def ray_hits_box(origin, direction, t_max, lo, hi) -> bool:
    """Slab-method segment/AABB intersection over t in [0, t_max]."""
    t0, t1 = 0.0, t_max
    for k in range(3):
        d = direction[k]
        if abs(d) < 1e-15:
            if not lo[k] <= origin[k] <= hi[k]:
                return False
            continue
        ta = (lo[k] - origin[k]) / d
        tb = (hi[k] - origin[k]) / d
        if ta > tb:
            ta, tb = tb, ta
        t0 = max(t0, ta)
        t1 = min(t1, tb)
        if t0 > t1:
            return False
    return True


def fall_time_closed_form(drop: float, g: float = 9.81) -> float:
    return math.sqrt(2.0 * drop / g)


def cut_time_closed_form(power: float, duty: float, energy_per_area: float, stem_diameter: float) -> float:
    required = energy_per_area * math.pi * (stem_diameter / 2.0) ** 2
    return required / (power * duty)


def point_to_segment_distance(p, a, b) -> float:
    ap = p - a
    ab = b - a
    denom = float(ab @ ab)
    t = 0.0 if denom == 0 else float(np.clip(ap @ ab / denom, 0.0, 1.0))
    closest = a + t * ab
    return float(np.linalg.norm(p - closest))


# kept apart from berrypick.scene.FACE_MARGIN, so that a change to the
# sampler's margin shows up against this judge
_FACE_MARGIN = 1e-6


def face_codes(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Face of the box [lo, hi] whose interior each surface sample lies in:
    2*axis for the face at lo[axis], 2*axis + 1 for the face at hi[axis],
    and -1 for a sample within `_FACE_MARGIN` of a face edge.

    A box no thicker than twice the margin on some axis gets -1 throughout:
    a zero-thickness box blocks nothing, so none of its samples may be
    culled.
    """
    codes = np.full(len(pts), -1, dtype=np.int16)
    if not (hi - lo > 2 * _FACE_MARGIN).all():
        return codes
    inner = (pts >= lo + _FACE_MARGIN) & (pts <= hi - _FACE_MARGIN)
    for axis in range(3):
        face_interior = inner[:, (axis + 1) % 3] & inner[:, (axis + 2) % 3]
        codes[face_interior & (pts[:, axis] == lo[axis])] = 2 * axis
        codes[face_interior & (pts[:, axis] == hi[axis])] = 2 * axis + 1
    return codes


def _reference_occluded_by_box(eye, pts, lo, hi):
    d = pts - eye
    with np.errstate(divide="ignore", invalid="ignore"):
        t0 = (lo - eye) / d
        t1 = (hi - eye) / d
    tmin = np.minimum(t0, t1)
    tmax = np.maximum(t0, t1)
    parallel = np.abs(d) < 1e-15
    outside = (eye < lo) | (eye > hi)
    tmin[parallel] = -np.inf
    tmax[parallel] = np.inf
    entry = tmin.max(axis=1)
    exit_ = tmax.min(axis=1)
    miss = (parallel & outside).any(axis=1)
    return (entry <= exit_) & (exit_ > 1e-9) & (entry < 1.0 - 1e-9) & ~miss


def reference_capture(scene, cam, seed) -> ColoredPointCloud:
    """One camera view, rendered without culling: every sample is
    slab-tested against every box before the frustum clip."""
    batch = sample_surface_arrays(scene, scene.surface_density)
    detached = np.array([s.id for s in scene.strawberries if s.detached], dtype=np.int32)
    keep = np.ones(len(batch.xyz), dtype=bool)
    if len(detached):
        keep &= ~((batch.kind == KIND_FRUIT) & np.isin(batch.owner, detached))
    xyz = batch.xyz[keep]
    rgb = batch.rgb[keep]

    eye = cam.pose.translation.to_array()
    boxes = ([scene.trough] if scene.trough is not None else []) + list(scene.occluders)
    for box in boxes:
        if len(xyz) == 0:
            break
        blocked = _reference_occluded_by_box(eye, xyz, box.min.to_array(), box.max.to_array())
        xyz = xyz[~blocked]
        rgb = rgb[~blocked]

    inv = cam.pose.inverse()
    q = inv.apply_to(xyz)
    z = q[:, 2]
    az = np.arctan2(q[:, 0], z)
    el = np.arctan2(q[:, 1], z)
    vis = (
        (z >= cam.min_range) & (z <= cam.max_range)
        & (np.abs(az) <= cam.h_fov / 2) & (np.abs(el) <= cam.v_fov / 2)
    )
    q = q[vis]
    rgb = rgb[vis]
    az = az[vis]
    el = el[vis]
    z = z[vis]

    if len(q) == 0:
        return ColoredPointCloud.empty(cam.frame)

    n_az = int(math.ceil(cam.h_fov / cam.bin_res)) + 1
    bi = np.floor((az + cam.h_fov / 2) / cam.bin_res).astype(np.int64)
    bj = np.floor((el + cam.v_fov / 2) / cam.bin_res).astype(np.int64)
    bins = bj * n_az + bi
    # nearest point per angular bin wins; ties resolve to the earliest sample
    order = np.lexsort((np.arange(len(bins)), z, bins))
    sorted_bins = bins[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = sorted_bins[1:] != sorted_bins[:-1]
    sel = order[first]
    q = q[sel]
    rgb = rgb[sel]

    ss = np.random.SeedSequence(seed)
    noise_rng, dropout_rng = (np.random.Generator(np.random.Philox(c)) for c in ss.spawn(2))

    ranges = np.linalg.norm(q, axis=1)
    dr = noise_rng.normal(0.0, 1.0, size=len(q)) * cam.depth_noise_sigma
    q = q * ((ranges + dr) / ranges)[:, None]

    u = dropout_rng.random(len(q))
    kept = u >= cam.dropout_rate
    return ColoredPointCloud(cam.frame, q[kept], rgb[kept])


def reference_sense(q, rgb, ranges, cam, seed) -> ColoredPointCloud:
    """The sensor as first written: noise drawn with `normal(0.0, 1.0)`
    and each ray rescaled out of place."""
    ss = np.random.SeedSequence(seed)
    noise_rng, dropout_rng = (np.random.Generator(np.random.Philox(c)) for c in ss.spawn(2))
    dr = noise_rng.normal(0.0, 1.0, size=len(q)) * cam.depth_noise_sigma
    kept = np.flatnonzero(dropout_rng.random(len(q)) >= cam.dropout_rate)

    ranges = ranges.take(kept)
    q = q.take(kept, axis=0) * ((ranges + dr.take(kept)) / ranges)[:, None]
    return ColoredPointCloud(cam.frame, q, rgb.take(kept, axis=0))


def per_record_jsonl(records: list[dict]) -> str:
    """Canonical JSON lines, each record encoded on its own."""
    return "".join(json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in records)
