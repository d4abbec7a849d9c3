"""The one-pass grouping stage against the plain per-point, per-cube path.

Grid reuse with the changed-point indices must give the same CubeSet as
locating every point again, while keeping the previous Cube object for
every cell that no changed point left, entered or touched; and the array
form of score_cubes must give the same scores, to the bit, as
perceptual_saliency and privacy_saliency applied cube by cube. Both run over moving, churning and static scenes,
through reused and re-partitioned grids and a point-count change.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from privis.bench import _changed_points, default_scene, leakage_scene
from privis.frame_io import PointCloudFrame, generate_frame
from privis.partition import (
    CubeId,
    PartitionConfig,
    _cells_for,
    _count_nonempty,
    _distinct,
    _unpack_keys,
    membership_change_fraction,
    partition_frame,
    reuse_or_repartition,
)
from privis.saliency import SaliencyConfig, SaliencyScore, score_cubes
from privis.seal import serialize_cube
from saliency_reference import joint_saliency, perceptual_saliency, privacy_saliency

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


def _cube_ids_of(cubes, points):
    """Ids of the cubes holding the given point indices."""
    rows = _unpack_keys(_distinct(np.take(cubes.point_keys, points)))
    return {CubeId(*row) for row in rows.tolist()}


def _grouped(frames, cfg=PartitionConfig()):
    """(cubes, previous cubes, frame) per frame, the grid reused with the
    changed points."""
    out = []
    prev = prev_frame = None
    for frame in frames:
        if prev is None:
            cubes = partition_frame(frame, cfg.target_cubes)
        else:
            cubes = reuse_or_repartition(prev, frame, cfg, _changed_points(frame, prev_frame))
        out.append((cubes, prev, frame))
        prev, prev_frame = cubes, frame
    return out


def _assert_same_cube_set(a, b, frame):
    assert (a.frame_id, a.boundary_epoch, a.grid_edge) == (b.frame_id, b.boundary_epoch, b.grid_edge)
    assert a.grid_origin.tobytes() == b.grid_origin.tobytes()
    assert [c.id for c in a.cubes] == [c.id for c in b.cubes]
    for x, y in zip(a.cubes, b.cubes):
        assert np.array_equal(x.point_indices, y.point_indices)
    assert a.point_keys.tobytes() == b.point_keys.tobytes()
    for cs in (a, b):
        _assert_columns_match_cubes(cs, frame)
    for x, y in zip(a.columns, b.columns):
        assert (x.dtype, x.tobytes()) == (y.dtype, y.tobytes())


def _assert_columns_match_cubes(cs, frame):
    """Row j of the columns describes cube j of ``frame``."""
    keys, counts, centroids, sensitive = cs.columns
    assert [CubeId(*row) for row in _unpack_keys(keys).tolist()] == [c.id for c in cs.cubes]
    assert counts.tolist() == [c.num_points for c in cs.cubes]
    assert sensitive.tolist() == [int(frame.sensitivity[c.point_indices].sum()) for c in cs.cubes]
    means = [frame.positions[c.point_indices].mean(axis=0) for c in cs.cubes]
    np.testing.assert_allclose(centroids, np.reshape(means, (-1, 3)), rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("threshold", [0.2, 1.0])
def test_masked_reuse_matches_full_relocation(frames, threshold):
    name, frames = frames
    cfg = PartitionConfig(change_threshold=threshold)
    epochs = []
    for cubes, prev, frame in _grouped(frames, cfg)[1:]:
        _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame, cfg), frame)
        epochs.append(cubes.boundary_epoch)
    if threshold == 1.0 or name in ("orbit", "static"):
        assert epochs == [0] * len(epochs)
    elif name == "churn":
        assert epochs == list(range(1, FRAMES))
    else:  # only the point-count change re-partitions
        assert epochs == [0] * (FRAMES // 2 - 1) + [1] * (FRAMES // 2)


def _touched(cubes, prev, changed):
    """Cells a changed point left, entered or touched."""
    return _cube_ids_of(prev, changed) | _cube_ids_of(cubes, changed)


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
            touched = _touched(cubes, prev, _changed_points(frame, prev_frame))
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
        changed = _changed_points(frame, frames[i - 1])
        moved = set(changed.tolist())
        both = {c.id for c in prev.cubes} & {c.id for c in cubes.cubes}
        shared = {
            cid for cid in both & _touched(cubes, prev, changed)
            if not set(prev.by_id()[cid].point_indices.tolist()) <= moved
            and not set(cubes.by_id()[cid].point_indices.tolist()) <= moved
        }
        assert shared, f"frame {i}: no cell holds both moved and unmoved points"
        assert shared <= cubes.rebuilt_since(prev)
        _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame), frame)


def test_recolor_only_change_rebuilds_its_cube():
    frames = SCENES["static"]()[:2]
    prev = partition_frame(frames[0])
    colors = frames[0].colors.copy()
    colors[123] ^= 1
    frame = replace(frames[0], frame_id=1, colors=colors)
    changed = _changed_points(frame, frames[0])
    assert changed.tolist() == [123]
    cubes = reuse_or_repartition(prev, frame, PartitionConfig(), changed)
    assert cubes.rebuilt_since(prev) == _cube_ids_of(prev, np.array([123]))
    _assert_same_cube_set(cubes, reuse_or_repartition(prev, frame), frame)


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
    range re-partitions the frame, however few points moved, and the change
    measure reads that frame as a total change."""
    first = _far_apart_frame(0)
    prev = partition_frame(first)
    assert prev.grid_edge >= 1e9 / 2**20
    cells = _cells_for(first.positions, prev.grid_origin, prev.grid_edge)
    assert _unpack_keys(prev.point_keys).tobytes() == cells.tobytes()
    moved = _far_apart_frame(1)
    moved.positions[5, 0] += 0.5  # stays in its cell
    cubes = reuse_or_repartition(prev, moved, PartitionConfig(), _changed_points(moved, first))
    assert (cubes.boundary_epoch, cubes.grid_edge) == (prev.boundary_epoch, prev.grid_edge)
    _assert_same_cube_set(cubes, reuse_or_repartition(prev, moved), moved)
    for jump, epoch in ((1e12, prev.boundary_epoch), (1e16, prev.boundary_epoch + 1)):
        jumped = _far_apart_frame(2)
        jumped.positions[7, 0] += jump  # 1e12: 2,000 cells on; 1e16: 2e7, beyond 2**20
        assert membership_change_fraction(cubes, jumped) == (1 / 65 if epoch == prev.boundary_epoch else 1.0)
        for threshold in (0.2, 1.0):  # one point in 65 is below either
            cfg = PartitionConfig(change_threshold=threshold)
            again = reuse_or_repartition(cubes, jumped, cfg, _changed_points(jumped, moved))
            assert again.boundary_epoch == epoch
            if epoch == prev.boundary_epoch:
                _assert_same_cube_set(again, reuse_or_repartition(cubes, jumped, cfg), jumped)
            else:
                _assert_same_cube_set(again, partition_frame(jumped, boundary_epoch=epoch), jumped)


def test_cube_ids_of_matches_unique_reference(frames):
    _name, frames = frames
    rng = np.random.default_rng(5)
    for cubes, _prev, frame in _grouped(frames):
        for size in (0, 1, 50, frame.num_points // 3):
            points = rng.choice(frame.num_points, size=size, replace=False)
            rows = np.unique(_unpack_keys(cubes.point_keys[points]), axis=0).tolist()
            assert _cube_ids_of(cubes, points) == {CubeId(*row) for row in rows}


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
        prev_centroids = prev_cubes.columns.centroids
    scores = []
    for cube, centroid in zip(cubes.cubes, cubes.columns.centroids):
        prev_c = None
        if prev_centroids is not None:
            d2 = np.sum((prev_centroids - centroid) ** 2, axis=1)
            best = int(np.argmin(d2))
            if d2[best] < radius * radius:
                prev_c = prev_centroids[best]
        phi_p = perceptual_saliency(cube, frame, centroid, prev_c, cfg, max_points)
        phi_s = privacy_saliency(cube, frame, centroid, cfg)
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


def _reference_changed(frame, prev):
    """Per-column change mask as indices; None for no previous frame or a
    point-count change."""
    if prev is None or prev.num_points != frame.num_points:
        return None
    changed = frame.sensitivity != prev.sensitivity
    for col in range(3):
        changed |= frame.positions[:, col] != prev.positions[:, col]
        changed |= frame.colors[:, col] != prev.colors[:, col]
    return np.flatnonzero(changed)


def _edited(frame, cubes, kind, rng):
    """A copy of ``frame`` as the next frame, with a seeded set of edits of
    one kind; ``cubes`` supplies the grid."""
    positions, colors = frame.positions.copy(), frame.colors.copy()
    labels = frame.sensitivity.copy()
    n = frame.num_points
    points = rng.choice(n, size=int(rng.integers(1, 40)), replace=False)
    edge, origin = cubes.grid_edge, cubes.grid_origin
    if kind == "within-cell":  # to the centre of the point's own cell
        cells = _cells_for(positions[points], origin, edge)
        positions[points] = origin + (cells + 0.5) * edge
    elif kind == "across-cells":
        positions[points, rng.integers(0, 3)] += edge * rng.choice([-1.0, 1.0, 2.0], size=len(points))
    elif kind == "recolor":
        colors[points, rng.integers(0, 3)] ^= 0x55
    elif kind == "relabel":
        labels[points] ^= 1
    elif kind == "signed-zero":  # -0.0 against 0.0 is no change
        positions[points, 0] = -0.0
    elif kind == "resize":
        keep = np.sort(rng.choice(n, size=n - len(points), replace=False))
        positions, colors, labels = positions[keep], colors[keep], labels[keep]
    return replace(frame, frame_id=frame.frame_id + 1, positions=positions, colors=colors, sensitivity=labels)


KINDS = ["within-cell", "across-cells", "recolor", "relabel", "none", "signed-zero", "resize"]


@pytest.mark.parametrize("kind", KINDS)
def test_seeded_edits_match_the_per_column_reference(kind):
    """The changed indices equal the per-column reference, and reuse with
    them equals reuse with every point marked, under both thresholds."""
    base = SCENES["static"]()[0]
    if kind == "signed-zero":
        base = replace(base, positions=base.positions.copy())
        base.positions[:, 0] = 0.0
    prev = partition_frame(base)
    for seed in range(6):
        frame = _edited(base, prev, kind, np.random.default_rng(seed))
        changed = _changed_points(frame, base)
        want = _reference_changed(frame, base)
        if want is None:
            assert changed is None
        else:
            assert changed.dtype.kind == "i"
            assert changed.tolist() == want.tolist()
            assert (len(changed) == 0) == (kind in ("none", "signed-zero"))
        for threshold in (0.2, 1.0):
            cfg = PartitionConfig(change_threshold=threshold)
            got = reuse_or_repartition(prev, frame, cfg, changed)
            _assert_same_cube_set(got, reuse_or_repartition(prev, frame, cfg), frame)
            if changed is not None and got.boundary_epoch == prev.boundary_epoch:
                ids = {c.id for c in got.cubes}
                assert got.rebuilt_since(prev) == _touched(got, prev, changed) & ids


def test_static_pair_reuses_everything_and_serializes_once():
    """With no changed point, reuse shares the previous cubes, columns and
    point keys, rebuilds nothing, and serialize_cube returns the plaintext
    each Cube already holds without gathering again."""
    first, second = SCENES["static"]()[:2]
    changed = _changed_points(second, first)
    assert changed is not None and len(changed) == 0
    prev = partition_frame(first)
    held = [serialize_cube(first, cube) for cube in prev.cubes]
    cubes = reuse_or_repartition(prev, second, PartitionConfig(), changed)
    assert cubes.frame_id == second.frame_id
    assert cubes.cubes is prev.cubes
    assert cubes.point_keys is prev.point_keys
    assert cubes.columns is prev.columns
    assert cubes.rebuilt_since(prev) == set()
    # a frame of other content shows the bytes come from the Cube, not the frame
    blank = replace(second, colors=np.zeros_like(second.colors))
    assert all(serialize_cube(blank, c) is plain for c, plain in zip(cubes.cubes, held))


def test_epoch_moves_exactly_when_the_change_fraction_exceeds_the_threshold():
    """Seeded property: whatever share of the points moves (none to all,
    by up to two cell edges, so every cell still packs), reuse_or_repartition
    re-partitions, moving the boundary epoch by one, exactly when
    membership_change_fraction exceeds change_threshold, whether it is
    given the changed points or marks every point."""
    base = SCENES["static"]()[0]
    prev = partition_frame(base)
    n, edge = base.num_points, prev.grid_edge
    rng = np.random.default_rng(2024)
    shares = [0.0, 1.0, *rng.uniform(0.0, 1.0, size=34)]
    for share in shares:
        points = rng.choice(n, size=int(round(share * n)), replace=False)
        positions = base.positions.copy()
        positions[points] += rng.uniform(-2.0, 2.0, size=(len(points), 3)) * edge
        frame = replace(base, frame_id=1, positions=positions)
        fraction = membership_change_fraction(prev, frame)
        for threshold in (0.0, 0.2, 1.0):
            cfg = PartitionConfig(change_threshold=threshold)
            for changed in (None, _changed_points(frame, base)):
                got = reuse_or_repartition(prev, frame, cfg, changed)
                moved = fraction > threshold
                assert got.boundary_epoch == prev.boundary_epoch + moved, (share, threshold, fraction)
