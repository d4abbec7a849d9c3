"""The one-pass grouping stage against the plain per-point, per-cube path.

Grid reuse with a change mask must give the same CubeSet as locating every
point again, and the array form of score_cubes must give the same scores,
to the bit, as perceptual_saliency and privacy_saliency applied cube by
cube. Both run over moving, churning and static scenes, through reused
and re-partitioned grids and a point-count change.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from privis.bench import _changed_mask, default_scene, leakage_scene
from privis.frame_io import generate_frame
from privis.partition import PartitionConfig, partition_frame, reuse_or_repartition
from privis.saliency import (
    SaliencyConfig,
    SaliencyScore,
    joint_saliency,
    perceptual_saliency,
    privacy_saliency,
    score_cubes,
)

FRAMES = 12  # one orbit period


def _orbit(points=20_000):
    return default_scene(frames=FRAMES, points=points)


SCENES = {
    "orbit": lambda: [generate_frame(_orbit(), i) for i in range(FRAMES)],
    # a quarter of the points move: the grid is re-partitioned every frame
    "churn": lambda: [
        generate_frame(replace(_orbit(), sensitive_fraction=0.25), i) for i in range(FRAMES)
    ],
    "static": lambda: [generate_frame(leakage_scene(frames=FRAMES), i) for i in range(FRAMES)],
    # the point count drops halfway through, then stays put
    "resized": lambda: [
        generate_frame(_orbit(20_000 if i < FRAMES // 2 else 16_000), i) for i in range(FRAMES)
    ],
}


@pytest.fixture(scope="module", params=sorted(SCENES))
def frames(request):
    return request.param, SCENES[request.param]()


def _grouped(frames, cfg=PartitionConfig()):
    """(cubes, previous cubes, frame) per frame, the grid reused with the mask."""
    out = []
    prev = prev_frame = None
    for frame in frames:
        if prev is None:
            cubes = partition_frame(frame, cfg.target_cubes)
        else:
            cubes = reuse_or_repartition(prev, frame, cfg, _changed_mask(frame, prev_frame))
        out.append((cubes, prev, frame))
        prev, prev_frame = cubes, frame
    return out


def _assert_same_cube_set(a, b):
    assert (a.frame_id, a.boundary_epoch, a.grid_edge) == (b.frame_id, b.boundary_epoch, b.grid_edge)
    assert a.grid_origin.tobytes() == b.grid_origin.tobytes()
    assert [c.id for c in a.cubes] == [c.id for c in b.cubes]
    for x, y in zip(a.cubes, b.cubes):
        assert np.array_equal(x.point_indices, y.point_indices)
        for field in ("centroid", "aabb_min", "aabb_max"):
            assert getattr(x, field).tobytes() == getattr(y, field).tobytes(), (x.id, field)
    assert a.point_cells.tobytes() == b.point_cells.tobytes()
    assert (a.point_keys is None) == (b.point_keys is None)
    if a.point_keys is not None:
        assert a.point_keys.tobytes() == b.point_keys.tobytes()


@pytest.mark.parametrize("threshold", [0.2, 1.0])
def test_masked_reuse_matches_full_relocation(frames, threshold):
    name, frames = frames
    cfg = PartitionConfig(change_threshold=threshold)
    epochs = []
    for cubes, prev, frame in _grouped(frames, cfg)[1:]:
        _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame, cfg))
        epochs.append(cubes.boundary_epoch)
    if threshold == 1.0 or name in ("orbit", "static"):
        assert epochs == [0] * len(epochs)
    elif name == "churn":
        assert epochs == list(range(1, FRAMES))
    else:  # only the point-count change re-partitions
        assert epochs == [0] * (FRAMES // 2 - 1) + [1] * (FRAMES // 2)


def _reference_scores(cubes, frame, prev_cubes, cfg):
    """score_cubes as a loop over cubes: nearest previous centroid within two
    grid edges, then the per-cube saliency functions."""
    max_points = max(c.num_points for c in cubes.cubes)
    radius = 2.0 * cubes.grid_edge
    prev_centroids = None
    if prev_cubes is not None and prev_cubes.cubes:
        prev_centroids = np.array([c.centroid for c in prev_cubes.cubes])
    scores = []
    for cube in cubes.cubes:
        prev_c = None
        if prev_centroids is not None:
            d2 = np.sum((prev_centroids - cube.centroid) ** 2, axis=1)
            best = int(np.argmin(d2))
            if d2[best] < radius * radius:
                prev_c = prev_centroids[best]
        phi_p = perceptual_saliency(cube, frame, prev_c, cfg, max_points)
        phi_s = privacy_saliency(cube, frame, cfg)
        scores.append(SaliencyScore(cube.id, phi_p, phi_s, joint_saliency(phi_p, phi_s, cfg.alpha)))
    scores.sort(key=lambda r: (-r.s, r.cube_id))
    return scores


@pytest.mark.parametrize(
    "cfg",
    [
        SaliencyConfig(),
        # small motion scale: motion saturates at 1 for the moving cluster
        SaliencyConfig(
            alpha=0.7, w_density=0.2, w_motion=0.5, w_view=0.3, w_identity=0.8, w_user=0.2,
            motion_scale=0.01, proximity_scale=0.3,
        ),
    ],
    ids=["default", "skewed"],
)
def test_vectorized_scores_match_per_cube_reference(frames, cfg):
    _name, frames = frames
    for cubes, prev, frame in _grouped(frames):
        got = score_cubes(cubes, frame, prev, cfg)
        want = _reference_scores(cubes, frame, prev, cfg)
        # repr pins the bits and the types (Python floats, CubeId of ints)
        assert [repr(astuple(r)) for r in got] == [repr(astuple(r)) for r in want]
