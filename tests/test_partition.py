import numpy as np
import pytest

from conftest import make_frame
from privis.frame_io import SceneSpec, generate_frame
from privis.partition import (
    CubeId,
    PartitionConfig,
    membership_change_fraction,
    partition_frame,
    reuse_or_repartition,
)


def assert_partition_property(cube_set, frame):
    """Every point index appears in exactly one cube."""
    if not cube_set.cubes:
        assert frame.num_points == 0
        return
    seen = np.concatenate([c.point_indices for c in cube_set.cubes])
    assert len(seen) == frame.num_points
    assert len(np.unique(seen)) == frame.num_points


def test_empty_frame_gives_empty_cubeset():
    frame = make_frame(np.zeros((0, 3)))
    cs = partition_frame(frame, 64)
    assert cs.cubes == []
    assert cs.point_keys.dtype == np.int64 and len(cs.point_keys) == 0
    # points after an empty frame are a point-count change: a total change
    # re-partitions, a threshold of 1.0 keeps the grid
    points = make_frame([(0.0, 0.0, 0.0), (2.5, 0.0, 0.0)], frame_id=1)
    again = reuse_or_repartition(cs, points, PartitionConfig())
    assert again.boundary_epoch == 1
    kept = reuse_or_repartition(cs, points, PartitionConfig(change_threshold=1.0))
    assert (kept.boundary_epoch, kept.grid_edge) == (0, cs.grid_edge)
    assert [c.id for c in kept.cubes] == [CubeId(0, 0, 0), CubeId(2, 0, 0)]


def test_eight_corner_points():
    corners = [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    frame = make_frame(corners)
    cs = partition_frame(frame, 8)
    assert len(cs.cubes) == 8
    assert all(c.num_points == 1 for c in cs.cubes)
    assert_partition_property(cs, frame)


def test_synthetic_scene_count_band_and_partition_property():
    spec = SceneSpec(7, 1, 1000, 0.2, 0.0)
    frame = generate_frame(spec, 0)
    cs = partition_frame(frame, 64)
    assert 32 <= len(cs.cubes) <= 128
    assert_partition_property(cs, frame)


def test_centroid_inside_its_cell(small_cubes):
    """A cell is convex, so the mean of its points lies inside it."""
    edge, origin = small_cubes.grid_edge, small_cubes.grid_origin
    for cube, centroid in zip(small_cubes.cubes, small_cubes.columns.centroids):
        lo = origin + np.array(cube.id) * edge
        assert (centroid >= lo - 1e-6 * edge).all(), cube.id
        assert (centroid <= lo + edge + 1e-6 * edge).all(), cube.id


def test_cube_ids_unique_and_sorted(small_cubes):
    ids = [c.id for c in small_cubes.cubes]
    assert ids == sorted(ids)
    assert len(set(ids)) == len(ids)


def test_determinism(small_frames):
    a = partition_frame(small_frames[0], 64)
    b = partition_frame(small_frames[0], 64)
    assert a.grid_edge == b.grid_edge
    assert [c.id for c in a.cubes] == [c.id for c in b.cubes]
    for ca, cb in zip(a.cubes, b.cubes):
        assert np.array_equal(ca.point_indices, cb.point_indices)


def test_identical_frames_reuse_boundaries(small_frames):
    cs0 = partition_frame(small_frames[0], 64)
    cs1 = reuse_or_repartition(cs0, small_frames[0], PartitionConfig())
    assert cs1.boundary_epoch == cs0.boundary_epoch
    assert cs1.grid_edge == cs0.grid_edge
    assert membership_change_fraction(cs0, small_frames[0]) == 0.0


def test_teleport_forces_repartition(small_frames):
    frame = small_frames[0]
    cs0 = partition_frame(frame, 64)
    moved = make_frame(frame.positions + 10.0 * cs0.grid_edge)
    # same grid: every point lands in a different cell
    assert membership_change_fraction(cs0, moved) == 1.0
    cs1 = reuse_or_repartition(cs0, moved, PartitionConfig(change_threshold=0.1))
    assert cs1.boundary_epoch == cs0.boundary_epoch + 1


def test_low_motion_sequence_keeps_epoch(small_scene, small_frames):
    cur = partition_frame(small_frames[0], 64)
    for frame in small_frames[1:11]:
        frac = membership_change_fraction(cur, frame)
        assert frac <= 0.2, f"brute-force change fraction {frac} breached threshold"
        cur = reuse_or_repartition(cur, frame, PartitionConfig(64, 0.2))
        assert cur.boundary_epoch == 0
        assert_partition_property(cur, frame)


def test_epoch_nondecreasing_across_mixed_sequence(small_frames):
    cur = partition_frame(small_frames[0], 64)
    epochs = [cur.boundary_epoch]
    for i, frame in enumerate(small_frames[1:6], start=1):
        if i == 3:
            frame = make_frame(frame.positions + 7.0)
        cur = reuse_or_repartition(cur, frame, PartitionConfig())
        epochs.append(cur.boundary_epoch)
    assert all(b >= a for a, b in zip(epochs, epochs[1:]))
    assert epochs[-1] > 0


def test_point_count_change_counts_as_full_change(small_frames):
    cs0 = partition_frame(small_frames[0], 64)
    shrunk = make_frame(small_frames[0].positions[:100])
    assert membership_change_fraction(cs0, shrunk) == 1.0


def test_membership_change_brute_force_agreement(small_frames):
    """Vectorized fraction equals a per-point brute-force recomputation."""
    cs0 = partition_frame(small_frames[0], 64)
    frame = small_frames[1]
    fast = membership_change_fraction(cs0, frame)
    prev_assign = {}
    for cube in cs0.cubes:
        for idx in cube.point_indices:
            prev_assign[int(idx)] = cube.id
    changed = 0
    edge = cs0.grid_edge * (1.0 + 1e-9)
    for idx in range(frame.num_points):
        cell = CubeId(*(int(v) for v in np.floor((frame.positions[idx] - cs0.grid_origin) / edge)))
        if cell != prev_assign[idx]:
            changed += 1
    assert fast == pytest.approx(changed / frame.num_points, abs=1e-12)


def test_invalid_target_rejected(small_frames):
    with pytest.raises(Exception):
        partition_frame(small_frames[0], 0)
