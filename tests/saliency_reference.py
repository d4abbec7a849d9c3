"""Per-cube saliency as plain Python floats: the reference that
privis.saliency.score_cubes must equal to the bit, and the unit tests of
each cue use directly."""

import math

import numpy as np

from privis.errors import ValidationError
from privis.frame_io import PointCloudFrame
from privis.partition import Cube
from privis.saliency import SaliencyConfig


def _proximity(a: np.ndarray, b: np.ndarray, scale: float) -> float:
    return 1.0 / (1.0 + float(np.linalg.norm(a - b)) / scale)


def perceptual_saliency(
    cube: Cube,
    frame: PointCloudFrame,
    centroid: np.ndarray,
    prev_centroid: np.ndarray | None,
    cfg: SaliencyConfig,
    max_points: int | None = None,
) -> float:
    """phi_p for one cube whose members' mean is ``centroid``.

    ``max_points`` is the size of the fullest cube in the frame's cube set
    (the density normalizer); it defaults to this cube's own size, which is
    only correct for single-cube frames.
    """
    if cube.num_points == 0:
        raise ValidationError("perceptual saliency of an empty cube")
    norm = max_points if max_points is not None else cube.num_points
    density = cube.num_points / norm if norm > 0 else 0.0
    if prev_centroid is None:
        motion = 0.0
    else:
        disp = float(np.linalg.norm(centroid - np.asarray(prev_centroid)))
        motion = min(1.0, disp / cfg.motion_scale)
    view = _proximity(centroid, frame.viewpoint, cfg.proximity_scale)
    phi = cfg.w_density * density + cfg.w_motion * motion + cfg.w_view * view
    return min(1.0, max(0.0, phi))


def privacy_saliency(cube: Cube, frame: PointCloudFrame, centroid: np.ndarray, cfg: SaliencyConfig) -> float:
    """phi_s for one cube whose members' mean is ``centroid``: label
    exposure plus user proximity."""
    if cube.num_points == 0:
        raise ValidationError("privacy saliency of an empty cube")
    exposure = float(frame.sensitivity[cube.point_indices].mean())
    user = _proximity(centroid, frame.user_anchor, cfg.proximity_scale)
    phi = cfg.w_identity * exposure + cfg.w_user * user
    return min(1.0, max(0.0, phi))


def joint_saliency(phi_p: float, phi_s: float, alpha: float) -> float:
    """s = alpha * phi_p + (1 - alpha) * phi_s."""
    for name, v in (("phi_p", phi_p), ("phi_s", phi_s), ("alpha", alpha)):
        if not (math.isfinite(v) and 0.0 <= v <= 1.0):
            raise ValidationError(f"{name}={v} outside [0, 1]")
    return alpha * phi_p + (1.0 - alpha) * phi_s
