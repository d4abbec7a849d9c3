"""Spatial cube partitioning with temporal boundary reuse.

Frames are decomposed on a uniform voxel grid. The grid edge is auto-tuned
by bisection so the number of non-empty cubes lands within
[target/2, 2*target]; boundaries are then reused across frames until the
fraction of points changing cell membership exceeds a threshold, at which
point the frame is re-partitioned and the boundary epoch increments.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .errors import ValidationError
from .frame_io import PointCloudFrame

__all__ = [
    "CubeId",
    "Cube",
    "CubeSet",
    "PartitionConfig",
    "partition_frame",
    "reuse_or_repartition",
    "membership_change_fraction",
]

_BISECT_MAX_ITERS = 24


class CubeId(NamedTuple):
    """Grid cell index; tuple ordering doubles as the lexicographic order."""

    ix: int
    iy: int
    iz: int


@dataclass
class Cube:
    """One non-empty grid cell of a frame."""

    id: CubeId
    point_indices: np.ndarray  # indices into the frame's point arrays
    centroid: np.ndarray  # (3,)
    aabb_min: np.ndarray  # (3,)
    aabb_max: np.ndarray  # (3,)

    @property
    def num_points(self) -> int:
        return len(self.point_indices)


@dataclass
class CubeSet:
    """All cubes of one frame plus the grid geometry they came from.

    The cubes are in CubeId order. Under a reused grid, consecutive
    CubeSets share every Cube whose cell no changed point left or entered:
    the same object, not a copy, so nothing may mutate a Cube or its
    arrays once built.

    The per-point cell record is ``point_keys`` (one packed int64 key per
    point) whenever the cells pack into 21 bits per axis; ``point_cells``
    then derives the (N, 3) rows from it on demand. Only grids whose cells
    do not pack store the rows themselves.
    """

    frame_id: int
    cubes: list[Cube]
    boundary_epoch: int
    grid_edge: float
    grid_origin: np.ndarray  # (3,)
    point_keys: np.ndarray | None = None  # (N,) packed cell per point, reuse cache
    unpacked_cells: np.ndarray | None = None  # (N, 3), only when the cells do not pack

    @property
    def point_cells(self) -> np.ndarray | None:
        """(N, 3) cell per point, or None when no per-point record is kept."""
        if self.point_keys is not None:
            return _unpack_keys(self.point_keys)
        return self.unpacked_cells

    def by_id(self) -> dict[CubeId, Cube]:
        return {c.id: c for c in self.cubes}

    def cube_ids_of(self, points: np.ndarray) -> set[CubeId]:
        """Ids of the cubes holding the given point indices."""
        if self.point_keys is not None:
            rows = _unpack_keys(_distinct(np.take(self.point_keys, points)))
        else:
            rows = np.unique(np.take(self.unpacked_cells, points, axis=0), axis=0)
        return {CubeId(*row) for row in rows.tolist()}


@dataclass(frozen=True)
class PartitionConfig:
    target_cubes: int = 64
    change_threshold: float = 0.2

    def __post_init__(self) -> None:
        if self.target_cubes < 1:
            raise ValidationError("target_cubes must be >= 1")
        if not 0.0 <= self.change_threshold <= 1.0:
            raise ValidationError("change_threshold must be in [0, 1]")


def _cells_for(positions: np.ndarray, origin: np.ndarray, edge: float) -> np.ndarray:
    """Integer cell index per point, shape (N, 3).

    The relative slack keeps points lying exactly on the outer bounding-box
    face inside the last cell instead of spilling into a phantom index.
    """
    scaled = np.subtract(positions, origin)
    scaled /= edge * (1.0 + 1e-9)
    return np.floor(scaled, out=scaled).astype(np.int64)


_PACK_BIAS = 1 << 20  # 21 bits per axis fills an int64 exactly


def _pack_cells(cells: np.ndarray) -> np.ndarray | None:
    """Bijective int64 key per cell row; None when indices exceed 21 bits."""
    if cells.size and (cells.min() < -_PACK_BIAS or cells.max() >= _PACK_BIAS):
        return None
    biased = cells + _PACK_BIAS
    return (biased[:, 0] << 42) | (biased[:, 1] << 21) | biased[:, 2]


def _unpack_keys(keys: np.ndarray) -> np.ndarray:
    """Inverse of _pack_cells: (N, 3) cell rows."""
    axis_mask = (1 << 21) - 1
    return np.stack([keys >> 42, (keys >> 21) & axis_mask, keys & axis_mask], axis=1) - _PACK_BIAS


def _distinct(keys: np.ndarray) -> np.ndarray:
    """Sorted distinct values of a 1-D array: one sort and a neighbour
    compare. np.unique gives the same values, but numpy 2.3+ routes it
    through a hash table that is several times slower on int64 keys."""
    ordered = np.sort(keys)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _count_nonempty(positions: np.ndarray, origin: np.ndarray, edge: float) -> int:
    cells = _cells_for(positions, origin, edge)
    keys = _pack_cells(cells)
    if keys is None:  # degenerate tiny edges on small frames
        return len(np.unique(cells, axis=0))
    return len(_distinct(keys))


def _build_cubes(
    positions: np.ndarray,
    labels: np.ndarray,
    points: np.ndarray | None = None,
    cells: np.ndarray | None = None,
) -> list[Cube]:
    """Group points by cell label; returns the cubes in id order.

    ``labels`` holds one label per point of the frame: the packed cell key,
    or, when the cells do not pack, np.unique's inverse over the ``cells``
    rows. Both order cells lexicographically, so the groups come out sorted
    by CubeId. ``points``, ascending, restricts the grouping to those point
    indices; each cube then gets the same bits as from grouping all points,
    since its members arrive in the same ascending order.
    """
    if points is not None:
        labels = np.take(labels, points)
    n = len(labels)
    order = np.argsort(labels, kind="stable")
    members = order if points is None else np.take(points, order)
    sorted_labels = np.take(labels, order)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_labels[1:], sorted_labels[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=n)
    sorted_pos = np.take(positions, members, axis=0)
    sums = np.add.reduceat(sorted_pos, starts, axis=0)
    mins = np.minimum.reduceat(sorted_pos, starts, axis=0)
    maxs = np.maximum.reduceat(sorted_pos, starts, axis=0)
    centroids = sums / counts[:, None]
    if cells is None:
        ids = _unpack_keys(np.take(sorted_labels, starts)).tolist()
    else:
        ids = np.take(cells, np.take(members, starts), axis=0).tolist()
    bounds = np.append(starts, n).tolist()
    return [
        Cube(CubeId(*cid), members[a:b], centroid, lo, hi)
        for cid, a, b, centroid, lo, hi in zip(ids, bounds, bounds[1:], centroids, mins, maxs)
    ]


def _cube_set(
    frame: PointCloudFrame, boundary_epoch: int, edge: float, origin: np.ndarray, cells: np.ndarray
) -> CubeSet:
    keys = _pack_cells(cells)
    if keys is None:
        labels = np.unique(cells, axis=0, return_inverse=True)[1].reshape(-1)
        cubes = _build_cubes(frame.positions, labels, cells=cells)
        return CubeSet(frame.frame_id, cubes, boundary_epoch, edge, origin, unpacked_cells=cells)
    cubes = _build_cubes(frame.positions, keys)
    return CubeSet(frame.frame_id, cubes, boundary_epoch, edge, origin, point_keys=keys)


def partition_frame(
    frame: PointCloudFrame,
    target_cubes: int = 64,
    boundary_epoch: int = 0,
) -> CubeSet:
    """Voxelize a frame with a bisection-tuned grid edge.

    The bisection runs on [0, extent] where extent is the largest bounding
    box dimension: a larger edge gives fewer cubes, so the search is
    monotone in practice. It stops at the first edge whose non-empty cube
    count falls within [ceil(target/2), 2*target]; after the iteration cap
    the closest count wins, ties resolved toward more cubes.
    """
    if target_cubes < 1:
        raise ValidationError("target_cubes must be >= 1")
    if frame.num_points == 0:
        return CubeSet(frame.frame_id, [], boundary_epoch, 1.0, np.zeros(3))

    origin = frame.positions.min(axis=0)
    extent = float((frame.positions.max(axis=0) - origin).max())
    if extent <= 0.0:  # all points coincide
        return _cube_set(frame, boundary_epoch, 1.0, origin, _cells_for(frame.positions, origin, 1.0))

    band_lo = (target_cubes + 1) // 2
    band_hi = 2 * target_cubes
    lo, hi = 0.0, extent
    best_edge, best_count = extent, _count_nonempty(frame.positions, origin, extent)
    for _ in range(_BISECT_MAX_ITERS):
        mid = (lo + hi) / 2.0
        if mid <= 0.0:
            break
        count = _count_nonempty(frame.positions, origin, mid)
        better = abs(count - target_cubes) < abs(best_count - target_cubes) or (
            abs(count - target_cubes) == abs(best_count - target_cubes)
            and count > best_count
        )
        if better:
            best_edge, best_count = mid, count
        if band_lo <= count <= band_hi:
            best_edge = mid
            break
        if count < band_lo:  # too few cubes: shrink cells
            hi = mid
        else:  # too many cubes: grow cells
            lo = mid
    return _cube_set(
        frame, boundary_epoch, best_edge, origin, _cells_for(frame.positions, origin, best_edge)
    )


def _prev_cells_of(prev: CubeSet) -> np.ndarray:
    cells = prev.point_cells
    if cells is not None:
        return cells
    n = sum(c.num_points for c in prev.cubes)
    cells = np.empty((n, 3), dtype=np.int64)
    for cube in prev.cubes:
        cells[cube.point_indices] = cube.id
    return cells


def _changed_fraction(now: np.ndarray, before: np.ndarray, total: int) -> float:
    """Share of ``total`` points whose cell row in ``now`` differs from the
    one in ``before``. ORing per-column compares gives the same bits as
    ``np.any(now != before, axis=1)`` at a fraction of its cost."""
    differ = (now[:, 0] != before[:, 0]) | (now[:, 1] != before[:, 1]) | (now[:, 2] != before[:, 2])
    return np.count_nonzero(differ) / total


def membership_change_fraction(prev: CubeSet, frame: PointCloudFrame) -> float:
    """Fraction of points whose grid cell under ``prev``'s boundaries
    differs from their assignment in ``prev``. Index-aligned; a point-count
    change counts as total change."""
    prev_cells = _prev_cells_of(prev)
    if frame.num_points != len(prev_cells):
        return 1.0
    if frame.num_points == 0:
        return 0.0
    now_cells = _cells_for(frame.positions, prev.grid_origin, prev.grid_edge)
    return _changed_fraction(now_cells, prev_cells, frame.num_points)


def _regroup(
    prev_cubes: list[Cube], positions: np.ndarray, keys: np.ndarray, touched: np.ndarray
) -> list[Cube]:
    """The cubes for ``keys`` when only the cells keyed in ``touched`` can
    differ from ``prev_cubes``: other cubes are kept as they are, touched
    ones are grouped again from their previous members. Every point now in
    a touched cell was in one before (a point that entered one moved, and
    the cell it left is touched too), so those members are all there is."""
    touched_ids = {CubeId(*row) for row in _unpack_keys(_distinct(touched)).tolist()}
    kept, stale = [], []
    for cube in prev_cubes:
        (stale if cube.id in touched_ids else kept).append(cube)
    if not stale:
        return kept
    members = np.sort(np.concatenate([c.point_indices for c in stale]))
    return sorted(kept + _build_cubes(positions, keys, members), key=attrgetter("id"))


def reuse_or_repartition(
    prev: CubeSet,
    frame: PointCloudFrame,
    cfg: PartitionConfig = PartitionConfig(),
    moved: np.ndarray | None = None,
) -> CubeSet:
    """Keep the previous grid when the scene is stable, else re-partition.

    Reuse keeps boundaries (origin, edge) and the boundary epoch but
    reassigns point indices; a re-partition re-tunes the grid and
    increments the epoch.

    ``moved`` is an optional per-point mask that is True at least wherever
    the position differs from the frame ``prev`` was built from. Unmarked
    points keep their cell under a reused grid, so only the marked ones are
    located again, and only the cubes whose cells a marked point left or
    entered are grouped again; the others are ``prev``'s Cube objects. The
    result is the same CubeSet as without the mask, to the bit.
    """
    n = frame.num_points
    if n == 0:
        return CubeSet(frame.frame_id, [], prev.boundary_epoch, prev.grid_edge, prev.grid_origin)
    origin, edge = prev.grid_origin, prev.grid_edge
    if moved is not None and prev.point_keys is not None and len(prev.point_keys) == n:
        idx = np.flatnonzero(moved)
        located = _pack_cells(_cells_for(np.take(frame.positions, idx, axis=0), origin, edge))
        if located is not None:
            before = np.take(prev.point_keys, idx)
            if np.count_nonzero(located != before) / n > cfg.change_threshold:
                return partition_frame(frame, cfg.target_cubes, boundary_epoch=prev.boundary_epoch + 1)
            keys = prev.point_keys.copy()
            keys[idx] = located
            cubes = _regroup(prev.cubes, frame.positions, keys, np.concatenate([before, located]))
            return CubeSet(frame.frame_id, cubes, prev.boundary_epoch, edge, origin, point_keys=keys)
    # every point located again: no mask, a point-count change, or cells
    # that do not pack
    prev_cells = _prev_cells_of(prev)
    cells = None
    if n != len(prev_cells):
        fraction = 1.0
    else:
        cells = _cells_for(frame.positions, origin, edge)
        fraction = _changed_fraction(cells, prev_cells, n)
    if fraction > cfg.change_threshold:
        return partition_frame(frame, cfg.target_cubes, boundary_epoch=prev.boundary_epoch + 1)
    if cells is None:
        cells = _cells_for(frame.positions, origin, edge)
    return _cube_set(frame, prev.boundary_epoch, edge, origin, cells)
