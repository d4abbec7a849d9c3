"""Volumetric frame I/O and the deterministic synthetic scene generator.

Frame file format (whitespace-separated ASCII, one point per line):

    #frame N
    #viewpoint x y z
    #anchor x y z
    x y z r g b [sensitivity]

Color channels are whole numbers in [0, 255]. ``sensitivity`` is 0
(none) or 1 (sensitive) and defaults to 0 when the column is absent.
Header comments are optional; viewpoint and anchor must be finite and
default to the origin.

The generator emits human-like test scenes with a fully specified layout:
a "user" cluster of 13 compact blobs (head/hands) carrying the sensitive
labels, orbiting near the user anchor, plus 40 static clutter patches
forming a background shell along the walls of a cubic room. Blob centers
sit at half-cell positions of a fixed spatial lattice so that uniform
voxelization yields one stable cube per blob; two pinned corner points fix
the scene bounding box exactly. All randomness comes from the documented
64-bit MCG (see privis.rng), so identical SceneSpecs produce byte-identical
frame sequences in any implementation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import FrameParseError, ValidationError
from .rng import Mcg64

__all__ = [
    "PointCloudFrame",
    "SceneSpec",
    "load_frame",
    "write_frame",
    "generate_scene",
    "generate_frame",
]


@dataclass
class PointCloudFrame:
    """One timestamped frame. Arrays are row-aligned: row i is point i."""

    frame_id: int
    positions: np.ndarray  # (N, 3) float64, meters
    colors: np.ndarray  # (N, 3) uint8
    sensitivity: np.ndarray  # (N,) uint8, 0 or 1
    viewpoint: np.ndarray  # (3,) float64
    user_anchor: np.ndarray  # (3,) float64

    def __post_init__(self):
        self.positions = np.atleast_2d(np.asarray(self.positions, dtype=np.float64))
        if self.positions.size == 0:
            self.positions = self.positions.reshape(0, 3)
        self.colors = np.asarray(self.colors, dtype=np.uint8).reshape(-1, 3)
        self.sensitivity = np.asarray(self.sensitivity, dtype=np.uint8).reshape(-1)
        self.viewpoint = np.asarray(self.viewpoint, dtype=np.float64).reshape(3)
        self.user_anchor = np.asarray(self.user_anchor, dtype=np.float64).reshape(3)
        n = len(self.positions)
        if len(self.colors) != n or len(self.sensitivity) != n:
            raise ValidationError(
                f"frame {self.frame_id}: mismatched array lengths "
                f"({n} positions, {len(self.colors)} colors, {len(self.sensitivity)} labels)"
            )
        if n and not np.isfinite(self.positions).all():
            raise ValidationError(f"frame {self.frame_id}: non-finite coordinate")
        if not (np.isfinite(self.viewpoint).all() and np.isfinite(self.user_anchor).all()):
            raise ValidationError(f"frame {self.frame_id}: non-finite viewpoint or anchor")

    @property
    def num_points(self) -> int:
        return len(self.positions)


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a synthetic scene; the sole input of the generator."""

    seed: int
    frame_count: int
    points_per_frame: int
    sensitive_fraction: float
    motion_amplitude: float  # meters per frame, cluster centroid step length

    def __post_init__(self) -> None:
        if self.frame_count < 1:
            raise ValidationError("frame_count must be >= 1")
        if self.points_per_frame < 0:
            raise ValidationError("points_per_frame must be >= 0")
        if not 0.0 <= self.sensitive_fraction <= 1.0:
            raise ValidationError("sensitive_fraction must be in [0, 1]")
        if self.motion_amplitude < 0:
            raise ValidationError("motion_amplitude must be >= 0")


# ---------------------------------------------------------------------------
# file format


def _parse_vec3(parts: list[str], lineno: int) -> np.ndarray:
    if len(parts) != 3:
        raise FrameParseError(f"line {lineno}: expected 3 coordinates")
    try:
        return np.array([float(v) for v in parts], dtype=np.float64)
    except ValueError as e:
        raise FrameParseError(f"line {lineno}: {e}") from None


def load_frame(path, frame_id: int | None = None) -> PointCloudFrame:
    """Parse a frame file.

    An explicit ``frame_id`` argument overrides the ``#frame`` header;
    with neither, the id defaults to 0.
    """
    viewpoint = np.zeros(3)
    anchor = np.zeros(3)
    header_frame_id = 0
    rows: list[tuple[float, ...]] = []
    with open(path, "r", encoding="ascii") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line[1:].split()
                if not parts:
                    continue
                tag = parts[0]
                if tag == "viewpoint":
                    viewpoint = _parse_vec3(parts[1:], lineno)
                elif tag == "anchor":
                    anchor = _parse_vec3(parts[1:], lineno)
                elif tag == "frame":
                    try:
                        header_frame_id = int(parts[1])
                    except (IndexError, ValueError):
                        raise FrameParseError(f"line {lineno}: bad #frame header") from None
                continue
            fields = line.split()
            if len(fields) not in (6, 7):
                raise FrameParseError(
                    f"line {lineno}: expected 6 or 7 fields, got {len(fields)}"
                )
            try:
                vals = [float(v) for v in fields]
            except ValueError:
                raise FrameParseError(f"line {lineno}: non-numeric field") from None
            if not all(math.isfinite(v) for v in vals[:3]):
                raise ValidationError(f"line {lineno}: non-finite coordinate")
            if not all(0 <= c <= 255 and c.is_integer() for c in vals[3:6]):
                raise ValidationError(f"line {lineno}: color channel not a whole number in [0, 255]")
            sens = vals[6] if len(vals) == 7 else 0
            if sens not in (0, 1):
                raise ValidationError(f"line {lineno}: sensitivity must be 0 or 1")
            rows.append((*vals[:6], sens))

    n = len(rows)
    arr = np.array(rows, dtype=np.float64).reshape(n, 7)
    return PointCloudFrame(
        frame_id=header_frame_id if frame_id is None else frame_id,
        positions=arr[:, 0:3],
        colors=arr[:, 3:6],
        sensitivity=arr[:, 6],
        viewpoint=viewpoint,
        user_anchor=anchor,
    )


def write_frame(frame: PointCloudFrame, path) -> None:
    """Write a frame in the plain-text format; inverse of load_frame."""
    with open(path, "w", encoding="ascii") as f:
        f.write(f"#frame {frame.frame_id}\n")
        f.write("#viewpoint %.17g %.17g %.17g\n" % tuple(frame.viewpoint))
        f.write("#anchor %.17g %.17g %.17g\n" % tuple(frame.user_anchor))
        for pos, col, sens in zip(frame.positions, frame.colors, frame.sensitivity):
            f.write(
                "%.17g %.17g %.17g %d %d %d %d\n"
                % (pos[0], pos[1], pos[2], col[0], col[1], col[2], sens)
            )


# ---------------------------------------------------------------------------
# synthetic scenes
#
# Fixed layout constants. The room is a cube of side GRID_CELLS * PITCH;
# blob centers sit at (site + 0.5) * PITCH so that a uniform grid with edge
# near PITCH puts each blob in its own cell, far from every boundary.

PITCH = 0.26875  # meters; lattice pitch = room side / GRID_CELLS
GRID_CELLS = 16
ROOM_SIDE = PITCH * GRID_CELLS  # 4.3 m
BLOB_JITTER = 0.01  # radius of the per-blob point cloud

CLUSTER_BLOBS = 13
BACKGROUND_PATCHES = 40
# background budget ramp endpoints relative to the patch mean
_BG_RAMP = (0.928, 1.072)
_CLUSTER_RAMP = (0.975, 1.025)

_ANCHOR_SITE = (8, 8, 8)
# 12 neighbor offsets around the anchor site: 6 axis steps + 6 diagonals
_CLUSTER_OFFSETS = [
    (0, 0, 0),
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    (1, 1, 0), (-1, -1, 0), (1, 0, 1), (-1, 0, -1), (0, 1, 1), (0, -1, -1),
]

# 20 patch pairs on the walls; each pair occupies adjacent sites along x or y
# with the even-numbered site first so both land in one 2x2x2 site block.
_WALL_PAIRS = [
    ((0, 0, 0), (1, 0, 0)),       # pinned room corner (origin)
    ((14, 15, 15), (15, 15, 15)),  # pinned far corner
    ((4, 2, 0), (5, 2, 0)),
    ((10, 5, 0), (11, 5, 0)),
    ((2, 11, 0), (3, 11, 0)),
    ((12, 12, 0), (13, 12, 0)),
    ((6, 8, 15), (7, 8, 15)),
    ((10, 3, 15), (11, 3, 15)),
    ((2, 6, 15), (3, 6, 15)),
    ((8, 13, 15), (9, 13, 15)),
    ((4, 0, 6), (5, 0, 6)),
    ((10, 0, 3), (11, 0, 3)),
    ((12, 0, 10), (13, 0, 10)),
    ((2, 15, 4), (3, 15, 4)),
    ((8, 15, 9), (9, 15, 9)),
    ((12, 15, 13), (13, 15, 13)),
    ((0, 4, 9), (0, 5, 9)),
    ((0, 10, 12), (0, 11, 12)),
    ((15, 6, 2), (15, 7, 2)),
    ((15, 12, 7), (15, 13, 7)),
]

_VIEW_OFFSET = np.array([0.0, -0.45, 0.1])  # camera sits just in front of the user
_ORBIT_PERIOD = 12  # frames per cluster orbit


def _site_center(site) -> np.ndarray:
    return (np.asarray(site, dtype=np.float64) + 0.5) * PITCH


def _ramp_budgets(total: int, n: int, lo_frac: float, hi_frac: float) -> list[int]:
    """Split ``total`` points over ``n`` blobs along a linear size ramp.

    Deterministic: round the ramp, then fix the remainder one point at a
    time round-robin so the budgets sum exactly to ``total``.
    """
    if n == 0 or total <= 0:
        return [0] * n
    mean = total / n
    if n == 1:
        return [total]
    raw = [mean * (lo_frac + (hi_frac - lo_frac) * i / (n - 1)) for i in range(n)]
    budgets = [max(0, round(v)) for v in raw]
    diff = total - sum(budgets)
    i = 0
    step = 1 if diff > 0 else -1
    while diff != 0:
        if budgets[i % n] + step >= 0:
            budgets[i % n] += step
            diff -= step
        i += 1
    return budgets


@lru_cache(maxsize=8)
def _static_layout(spec: SceneSpec):
    """Everything frame-independent: background points, cluster base shape,
    colors, labels. Cached because frames only translate the cluster."""
    total = spec.points_per_frame
    sens_total = round(spec.sensitive_fraction * total)
    bg_total = total - sens_total

    rng = Mcg64(spec.seed)

    # background: 40 wall patches, two of which pin the room bounding box
    bg_budgets = _ramp_budgets(bg_total, BACKGROUND_PATCHES, *_BG_RAMP)
    sites = [s for pair in _WALL_PAIRS for s in pair]
    bg_chunks = []
    for patch_idx, (site, budget) in enumerate(zip(sites, bg_budgets)):
        if budget <= 0:
            continue
        pts = rng.ball_points(budget, _site_center(site), BLOB_JITTER)
        # the two corner patches each contribute one pinned extreme point so
        # the scene bounding box is exactly the room cube
        if patch_idx == 0:
            pts[0] = (0.0, 0.0, 0.0)
        if site == (15, 15, 15):
            pts[0] = np.full(3, ROOM_SIDE - 1e-9)
        bg_chunks.append(pts)
    bg_pos = np.concatenate(bg_chunks) if bg_chunks else np.zeros((0, 3))

    # cluster: 13 blobs around the anchor site, carrying all sensitive labels
    cl_budgets = _ramp_budgets(sens_total, CLUSTER_BLOBS, *_CLUSTER_RAMP)
    anchor_base = _site_center(_ANCHOR_SITE)
    cl_chunks = []
    for off, budget in zip(_CLUSTER_OFFSETS, cl_budgets):
        if budget <= 0:
            continue
        center = anchor_base + np.asarray(off, dtype=np.float64) * PITCH
        cl_chunks.append(rng.ball_points(budget, center, BLOB_JITTER))
    cl_pos = np.concatenate(cl_chunks) if cl_chunks else np.zeros((0, 3))

    n_bg, n_cl = len(bg_pos), len(cl_pos)
    colors = (rng.batch_uniform(3 * (n_bg + n_cl)).reshape(-1, 3) * 256).astype(np.uint8)
    sensitivity = np.concatenate(
        [np.zeros(n_bg, dtype=np.uint8), np.ones(n_cl, dtype=np.uint8)]
    )
    return bg_pos, cl_pos, colors, sensitivity, anchor_base


def _orbit_offset(spec: SceneSpec, index: int) -> np.ndarray:
    """Cluster centroid displacement for a frame.

    The centroid walks a circle in the xy-plane with per-frame step length
    equal to motion_amplitude, so displacement between consecutive frames
    is exactly the configured amplitude while total drift stays bounded.
    """
    if spec.motion_amplitude == 0.0:
        return np.zeros(3)
    radius = spec.motion_amplitude / (2.0 * math.sin(math.pi / _ORBIT_PERIOD))
    a0 = -math.pi / 2.0
    a = a0 + 2.0 * math.pi * index / _ORBIT_PERIOD
    return np.array(
        [radius * (math.cos(a) - math.cos(a0)), radius * (math.sin(a) - math.sin(a0)), 0.0]
    )


def generate_frame(spec: SceneSpec, index: int) -> PointCloudFrame:
    """Frame ``index`` of the scene; pure function of (spec, index)."""
    if not 0 <= index < spec.frame_count:
        raise ValidationError(f"frame index {index} outside [0, {spec.frame_count})")
    bg_pos, cl_pos, colors, sensitivity, anchor_base = _static_layout(spec)
    offset = _orbit_offset(spec, index)
    positions = np.concatenate([bg_pos, cl_pos + offset]) if len(cl_pos) else bg_pos.copy()
    anchor = anchor_base + offset
    return PointCloudFrame(
        frame_id=index,
        positions=positions,
        colors=colors.copy(),
        sensitivity=sensitivity.copy(),
        viewpoint=anchor + _VIEW_OFFSET,
        user_anchor=anchor,
    )


def generate_scene(spec: SceneSpec) -> list[PointCloudFrame]:
    """All frames of the scene, in order."""
    return [generate_frame(spec, i) for i in range(spec.frame_count)]
