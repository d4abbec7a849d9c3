"""The one-pass grouping stage against the plain per-point, per-cube path.

Grid reuse with a change mask must give the same CubeSet as locating every
point again, while keeping the previous Cube object for every cell that no
changed point left or entered; and the array form of score_cubes must give
the same scores, to the bit, as perceptual_saliency and privacy_saliency
applied cube by cube. Both run over moving, churning and static scenes,
through reused and re-partitioned grids and a point-count change.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from privis.bench import _changed_mask, default_scene, leakage_scene
from privis.frame_io import PointCloudFrame, generate_frame
from privis.partition import (
    CubeId,
    PartitionConfig,
    _cells_for,
    _count_nonempty,
    _unpack_keys,
    partition_frame,
    reuse_or_repartition,
)
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
        assert x.centroid.tobytes() == y.centroid.tobytes(), x.id
        assert x.sensitive_points == y.sensitive_points, x.id
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


def _touched(cubes, prev, changed):
    """Cells a changed point left or entered."""
    points = np.flatnonzero(changed)
    return prev.cube_ids_of(points) | cubes.cube_ids_of(points)


def test_reuse_rebuilds_exactly_the_touched_cells(frames):
    """rebuilt_since names the touched cells under a reused grid, and every
    cube at frame 0, after a re-partition and after a point-count change."""
    name, frames = frames
    reused = 0
    prev_frame = None
    for cubes, prev, frame in _grouped(frames):
        ids = {c.id for c in cubes.cubes}
        if (
            prev is not None
            and cubes.boundary_epoch == prev.boundary_epoch
            and frame.num_points == prev_frame.num_points
        ):
            touched = _touched(cubes, prev, _changed_mask(frame, prev_frame))
            assert cubes.rebuilt_since(prev) == touched & ids
            reused += 1
        else:
            assert cubes.rebuilt_since(prev) == ids
        prev_frame = frame
    assert reused == {"orbit": 11, "churn": 0, "static": 11, "resized": 10}[name]


def test_orbit_spill_rebuilds_cells_points_enter_and_leave():
    """Frame 6 of the orbit spills the cluster into cells of the static
    background, frame 7 leaves them again: those cells keep their other
    points, and each is rebuilt in the frame its membership changes."""
    frames = SCENES["orbit"]()
    grouped = _grouped(frames)
    for i in (6, 7):
        cubes, prev, frame = grouped[i]
        changed = _changed_mask(frame, frames[i - 1])
        moved = set(np.flatnonzero(changed).tolist())
        both = {c.id for c in prev.cubes} & {c.id for c in cubes.cubes}
        shared = {
            cid for cid in both & _touched(cubes, prev, changed)
            if not set(prev.by_id()[cid].point_indices.tolist()) <= moved
            and not set(cubes.by_id()[cid].point_indices.tolist()) <= moved
        }
        assert shared, f"frame {i}: no cell holds both moved and unmoved points"
        assert shared <= cubes.rebuilt_since(prev)
        _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame))


def test_recolor_only_change_rebuilds_its_cube():
    frames = SCENES["static"]()[:2]
    prev = partition_frame(frames[0])
    colors = frames[0].colors.copy()
    colors[123] ^= 1
    frame = replace(frames[0], frame_id=1, colors=colors)
    changed = _changed_mask(frame, frames[0])
    assert np.flatnonzero(changed).tolist() == [123]
    cubes = reuse_or_repartition(prev, frame, PartitionConfig(), changed)
    assert cubes.rebuilt_since(prev) == prev.cube_ids_of(np.array([123]))
    _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame))


def _far_apart_frame(frame_id):
    """A line of 64 unit-spaced points and one point 1e9 away: a target-sized
    cube would need more than 2**20 cells per axis."""
    positions = np.zeros((65, 3))
    positions[:64, 0] = np.arange(64)
    positions[64] = 1e9
    n = len(positions)
    return PointCloudFrame(
        frame_id=frame_id,
        positions=positions,
        colors=np.full((n, 3), 128, dtype=np.uint8),
        sensitivity=np.zeros(n, dtype=np.uint8),
        viewpoint=np.zeros(3),
        user_anchor=np.zeros(3),
    )


def test_far_apart_frame_packs_and_a_jump_beyond_the_grid_repartitions():
    """The bisection stops at an edge of extent / 2**20 at the finest, so
    every cell packs; under reuse, a point that jumps out of the packable
    range re-partitions the frame, however few points moved."""
    first = _far_apart_frame(0)
    prev = partition_frame(first)
    assert prev.grid_edge >= 1e9 / 2**20
    cells = _cells_for(first.positions, prev.grid_origin, prev.grid_edge)
    assert _unpack_keys(prev.point_keys).tobytes() == cells.tobytes()
    moved = _far_apart_frame(1)
    moved.positions[5, 0] += 0.5  # stays in its cell
    cubes = reuse_or_repartition(prev, moved, PartitionConfig(), _changed_mask(moved, first))
    assert (cubes.boundary_epoch, cubes.grid_edge) == (prev.boundary_epoch, prev.grid_edge)
    _assert_same_cube_set(cubes, reuse_or_repartition(prev, moved))
    for jump, epoch in ((1e12, prev.boundary_epoch), (1e16, prev.boundary_epoch + 1)):
        jumped = _far_apart_frame(2)
        jumped.positions[7, 0] += jump  # 1e12: 2,000 cells on; 1e16: 2e7, beyond 2**20
        for threshold in (0.2, 1.0):  # one point in 65 is below either
            cfg = PartitionConfig(change_threshold=threshold)
            again = reuse_or_repartition(cubes, jumped, cfg, _changed_mask(jumped, moved))
            assert again.boundary_epoch == epoch
            if epoch == prev.boundary_epoch:
                _assert_same_cube_set(again, reuse_or_repartition(cubes, jumped, cfg))
            else:
                _assert_same_cube_set(again, partition_frame(jumped, boundary_epoch=epoch))


def test_cube_ids_of_matches_unique_reference(frames):
    _name, frames = frames
    rng = np.random.default_rng(5)
    for cubes, _prev, frame in _grouped(frames):
        for size in (0, 1, 50, frame.num_points // 3):
            points = rng.choice(frame.num_points, size=size, replace=False)
            rows = np.unique(_unpack_keys(cubes.point_keys[points]), axis=0).tolist()
            assert cubes.cube_ids_of(points) == {CubeId(*row) for row in rows}


def test_cold_count_matches_unique_reference():
    frame = SCENES["orbit"]()[0]
    origin = frame.positions.min(axis=0)
    for edge in (4.0, 0.5, 0.11, 0.03):
        cells = _cells_for(frame.positions, origin, edge)
        count, keys = _count_nonempty(frame.positions, origin, edge)
        assert count == len(np.unique(cells, axis=0))
        assert _unpack_keys(keys).tobytes() == cells.tobytes()


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
