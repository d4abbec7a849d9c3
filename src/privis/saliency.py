"""Joint perceptual-privacy saliency scoring per cube.

Each cube gets s = alpha * phi_p + (1 - alpha) * phi_s where both component
scores are convex combinations of normalized cues:

    phi_p: point density (relative to the fullest cube in the frame),
           centroid motion against the previous boundary-matched cube,
           and proximity to the viewpoint;
    phi_s: fraction of points carrying the sensitive label, and proximity
           to the user anchor.

Proximities use the soft falloff 1 / (1 + distance / scale) so scores stay
in (0, 1] without hard cutoffs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .frame_io import PointCloudFrame
from .partition import CubeId, CubeSet

__all__ = [
    "SaliencyConfig",
    "SaliencyScore",
    "score_cubes",
]


@dataclass(frozen=True)
class SaliencyConfig:
    alpha: float = 0.5
    w_density: float = 1.0 / 3.0
    w_motion: float = 1.0 / 3.0
    w_view: float = 1.0 / 3.0
    w_identity: float = 0.5
    w_user: float = 0.5
    motion_scale: float = 0.5  # meters of per-frame displacement mapping to motion=1
    proximity_scale: float = 1.0  # meters; softness of both proximity cues

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValidationError("alpha must be in [0, 1]")
        for name in ("w_density", "w_motion", "w_view", "w_identity", "w_user"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")
        if abs(self.w_density + self.w_motion + self.w_view - 1.0) > 1e-9:
            raise ValidationError("perceptual weights must sum to 1")
        if abs(self.w_identity + self.w_user - 1.0) > 1e-9:
            raise ValidationError("privacy weights must sum to 1")
        if self.motion_scale <= 0 or self.proximity_scale <= 0:
            raise ValidationError("scales must be positive")


@dataclass(frozen=True)
class SaliencyScore:
    cube_id: CubeId
    phi_p: float
    phi_s: float
    s: float


def _row_norms(d: np.ndarray) -> np.ndarray:
    """np.linalg.norm of each row of an (N, 3) array, to the bit.

    norm(row) is sqrt(row.dot(row)), and that dot goes through BLAS ddot,
    whose optimized kernels fuse multiply-adds. sqrt((d * d).sum(1)) or
    einsum therefore differ in the last bit on a sizeable share of rows,
    which would change scores and everything keyed on them. A stacked
    (1, 3) @ (3, 1) matmul takes the same dot path. np.vecdot would too,
    but needs numpy >= 2.0.
    """
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def _clamp01(x: np.ndarray) -> np.ndarray:
    """min(1.0, max(0.0, x)) elementwise, with Python's semantics (NaN -> 0)."""
    x = np.where(x > 0.0, x, 0.0)
    return np.where(x < 1.0, x, 1.0)


def score_cubes(
    cubes: CubeSet,
    frame: PointCloudFrame,
    prev_cubes: CubeSet | None,
    cfg: SaliencyConfig = SaliencyConfig(),
) -> list[SaliencyScore]:
    """Score every cube; result sorted by s descending, CubeId breaking ties.

    One array pass over all cubes, equal to the bit to the cues above
    computed cube by cube with Python floats. Motion is measured against the
    nearest previous centroid within two grid edges, not against the cube
    with the same id: content that moved across a cell boundary would
    otherwise lose its motion history exactly when it matters. Counts,
    centroids and label counts are read from the CubeSet's columns, built
    with its cubes; reuse carries them over for the cubes it keeps.
    """
    if not cubes.cubes:
        return []
    counts, centroids = cubes.columns.counts, cubes.columns.centroids
    if not counts.all():
        raise ValidationError("saliency of an empty cube")

    motion = np.zeros(len(counts))
    # columns that reuse carried over whole match every centroid to itself,
    # at distance 0: no motion
    if prev_cubes is not None and prev_cubes.cubes and prev_cubes.columns is not cubes.columns:
        prev_centroids = prev_cubes.columns.centroids
        d2 = np.sum((prev_centroids[None, :, :] - centroids[:, None, :]) ** 2, axis=2)
        best = np.argmin(d2, axis=1)
        radius = 2.0 * cubes.grid_edge
        matched = np.take_along_axis(d2, best[:, None], axis=1)[:, 0] < radius * radius
        disp = _row_norms(centroids[matched] - prev_centroids[best[matched]])
        motion[matched] = np.minimum(disp / cfg.motion_scale, 1.0)
    density = counts / counts.max()
    view = 1.0 / (1.0 + _row_norms(centroids - frame.viewpoint) / cfg.proximity_scale)
    phi_p = _clamp01(cfg.w_density * density + cfg.w_motion * motion + cfg.w_view * view)

    # integer label counts keep the exposure equal to the per-cube float mean
    exposure = cubes.columns.sensitive / counts
    user = 1.0 / (1.0 + _row_norms(centroids - frame.user_anchor) / cfg.proximity_scale)
    phi_s = _clamp01(cfg.w_identity * exposure + cfg.w_user * user)

    s = cfg.alpha * phi_p + (1.0 - cfg.alpha) * phi_s
    scores = [
        SaliencyScore(cube.id, p, q, joint)
        for cube, p, q, joint in zip(cubes.cubes, phi_p.tolist(), phi_s.tolist(), s.tolist())
    ]
    scores.sort(key=lambda r: (-r.s, r.cube_id))
    return scores
