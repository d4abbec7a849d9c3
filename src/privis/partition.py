"""Spatial cube partitioning with temporal boundary reuse.

Frames are decomposed on a uniform voxel grid. The grid edge is auto-tuned
by bisection so the number of non-empty cubes lands within
[target/2, 2*target]; boundaries are then reused across frames until the
fraction of points changing cell membership exceeds a threshold, at which
point the frame is re-partitioned and the boundary epoch increments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ValidationError
from .frame_io import PointCloudFrame

if TYPE_CHECKING:
    from .seal import CubePlaintext

__all__ = [
    "CubeId",
    "Cube",
    "CubeColumns",
    "CubeSet",
    "PartitionConfig",
    "partition_frame",
    "reuse_or_repartition",
    "membership_change_fraction",
]

# Step n of the bisection tries an edge of at least extent / 2**n, so after
# 20 steps every cell index of a partitioned frame lies in [0, 2**20) and
# packs into a key (see _pack_cells).
_BISECT_MAX_ITERS = 20


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
    # the serialized content, held by seal.serialize_cube after its first call
    plaintext: CubePlaintext | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def num_points(self) -> int:
        return len(self.point_indices)


class CubeColumns(NamedTuple):
    """Per-cube columns of a CubeSet, row j for its cube j: built with the
    cubes, so scoring reads arrays instead of gathering from every Cube."""

    keys: np.ndarray  # (K,) packed cell key, ascending
    counts: np.ndarray  # (K,) int64 point count
    centroids: np.ndarray  # (K, 3)
    sensitive: np.ndarray  # (K,) int64 sensitive-point count

    def take(self, rows: np.ndarray) -> CubeColumns:
        return CubeColumns(*(col[rows] for col in self))


@dataclass
class CubeSet:
    """All cubes of one frame plus the grid geometry they came from.

    The cubes are in CubeId order. Under a reused grid, consecutive
    CubeSets share every Cube whose cell no changed point left, entered or
    touched: the same object, not a copy, so nothing may mutate a Cube or
    its arrays once built, apart from the plaintext that serialize_cube
    holds on it. A frame with no changed point shares ``prev``'s cube
    list, columns and ``point_keys`` whole.

    The per-point cell record is ``point_keys``, one packed int64 key per
    point (see _pack_cells). Every grid partition_frame picks packs, and
    reuse re-partitions rather than keep a cell that does not.

    ``frame`` is the frame the cubes were built from: the next
    reuse_or_repartition compares with it, so it is not mutated either.
    ``changed_points`` counts the points that differ from the previous
    CubeSet's frame, every point when there is none or the count changed.
    """

    frame: PointCloudFrame
    cubes: list[Cube]
    boundary_epoch: int
    grid_edge: float
    grid_origin: np.ndarray  # (3,)
    point_keys: np.ndarray  # (N,) packed cell per point
    columns: CubeColumns
    changed_points: int

    @property
    def frame_id(self) -> int:
        return self.frame.frame_id

    def by_id(self) -> dict[CubeId, Cube]:
        return {c.id: c for c in self.cubes}

    def rebuilt_since(self, prev: CubeSet | None) -> set[CubeId]:
        """Ids of the cubes that are not ``prev``'s object for their id: all
        of them with no ``prev``, after a re-partition or a point-count
        change, else the cells a changed point left, entered or touched."""
        if prev is not None and self.cubes is prev.cubes:
            return set()  # reuse kept the whole list
        before = {} if prev is None else prev.by_id()
        return {c.id for c in self.cubes if before.get(c.id) is not c}


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


def _distinct(keys: np.ndarray, kind: str = "quicksort") -> np.ndarray:
    """Sorted distinct values of a 1-D array: one sort of ``kind`` and a
    neighbour compare. numpy's own unique gives the same values, but numpy
    2.3+ routes it through a hash table that is several times slower on
    int64 keys."""
    ordered = np.sort(keys, kind=kind)
    first = np.empty(len(ordered), dtype=bool)
    first[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return ordered[first]


def _count_nonempty(positions: np.ndarray, origin: np.ndarray, edge: float) -> tuple[int, np.ndarray]:
    """Non-empty cell count at ``edge`` and the packed cell key per point.
    ``edge`` is one the bisection tries, so the cells pack."""
    keys = _pack_cells(_cells_for(positions, origin, edge))
    return len(_distinct(keys)), keys


def _build_cubes(
    frame: PointCloudFrame, keys: np.ndarray, points: np.ndarray | None = None
) -> tuple[list[Cube], CubeColumns]:
    """Group a frame's points by packed cell key; returns the cubes in id
    order and their columns, which carry each cube's centroid and
    sensitive-point count.

    ``keys`` holds one key per point of the frame. Keys order cells
    lexicographically, so the groups come out sorted by CubeId. ``points``,
    ascending, restricts the grouping to those point indices; each cube
    then gets the same bits as from grouping all points, since its members
    arrive in the same ascending order.
    """
    if points is not None:
        keys = np.take(keys, points)
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    members = order if points is None else np.take(points, order)
    sorted_keys = np.take(keys, order)
    first = np.empty(n, dtype=bool)
    first[0] = True
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(starts, append=n)
    sorted_pos = np.take(frame.positions, members, axis=0)
    centroids = np.add.reduceat(sorted_pos, starts, axis=0) / counts[:, None]
    labels = np.add.reduceat(np.take(frame.sensitivity, members), starts, dtype=np.int64)
    cell_keys = np.take(sorted_keys, starts)
    ids = _unpack_keys(cell_keys).tolist()
    bounds = np.append(starts, n).tolist()
    cubes = [Cube(CubeId(*cid), members[a:b]) for cid, a, b in zip(ids, bounds, bounds[1:])]
    return cubes, CubeColumns(cell_keys, counts, centroids, labels)


def _cube_set(
    frame: PointCloudFrame, boundary_epoch: int, edge: float, origin: np.ndarray, keys: np.ndarray
) -> CubeSet:
    cubes, columns = _build_cubes(frame, keys)
    return CubeSet(frame, cubes, boundary_epoch, edge, origin, keys, columns, frame.num_points)


def _empty(frame: PointCloudFrame, boundary_epoch: int, edge: float, origin: np.ndarray) -> CubeSet:
    empty = np.empty(0, dtype=np.int64)
    columns = CubeColumns(empty, empty, np.empty((0, 3)), empty)
    return CubeSet(frame, [], boundary_epoch, edge, origin, empty, columns, 0)


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
        return _empty(frame, boundary_epoch, 1.0, np.zeros(3))

    origin = frame.positions.min(axis=0)
    extent = float((frame.positions.max(axis=0) - origin).max())
    if extent <= 0.0:  # all points coincide
        return _cube_set(frame, boundary_epoch, 1.0, origin, _count_nonempty(frame.positions, origin, 1.0)[1])

    band_lo = (target_cubes + 1) // 2
    band_hi = 2 * target_cubes
    lo, hi = 0.0, extent
    best_edge = extent
    best_count, best_keys = _count_nonempty(frame.positions, origin, extent)
    for _ in range(_BISECT_MAX_ITERS):
        mid = (lo + hi) / 2.0
        if mid <= 0.0:
            break
        count, keys = _count_nonempty(frame.positions, origin, mid)
        if band_lo <= count <= band_hi:
            best_edge, best_keys = mid, keys
            break
        if abs(count - target_cubes) < abs(best_count - target_cubes) or (
            abs(count - target_cubes) == abs(best_count - target_cubes)
            and count > best_count
        ):
            best_edge, best_count, best_keys = mid, count, keys
        if count < band_lo:  # too few cubes: shrink cells
            hi = mid
        else:  # too many cubes: grow cells
            lo = mid
    return _cube_set(frame, boundary_epoch, best_edge, origin, best_keys)


def membership_change_fraction(prev: CubeSet, frame: PointCloudFrame) -> float:
    """Fraction of points whose packed cell key under ``prev``'s boundaries
    differs from their key in ``prev``, the measure reuse_or_repartition
    compares with its threshold. Index-aligned; a point-count change, or a
    point whose cell does not pack, counts as total change."""
    n = frame.num_points
    if n != len(prev.point_keys):
        return 1.0
    if n == 0:
        return 0.0
    now = _pack_cells(_cells_for(frame.positions, prev.grid_origin, prev.grid_edge))
    if now is None:
        return 1.0
    return np.count_nonzero(now != prev.point_keys) / n


def _regroup(
    prev: CubeSet, frame: PointCloudFrame, keys: np.ndarray, touched: np.ndarray
) -> tuple[list[Cube], CubeColumns]:
    """The cubes for ``keys`` when only the cells keyed in ``touched`` can
    differ from ``prev``'s: other cubes are kept as they are, touched ones
    are grouped again from their previous members. Every point now in a
    touched cell was in one before (a point that entered one moved, and
    the cell it left is touched too), so those members are all there is.
    The kept and the regrouped cubes hold disjoint cells, and both runs are
    in key order, so one stable argsort of their keys merges them."""
    cell_keys = prev.columns.keys
    touched = _distinct(touched)  # a few cells: searching them is cheap
    at = np.minimum(np.searchsorted(cell_keys, touched), len(cell_keys) - 1)
    stale = np.zeros(len(cell_keys), dtype=bool)
    stale[at[cell_keys[at] == touched]] = True
    members = np.sort(np.concatenate([prev.cubes[j].point_indices for j in np.flatnonzero(stale).tolist()]))
    built, built_columns = _build_cubes(frame, keys, members)
    kept_rows = np.flatnonzero(~stale)
    kept_columns = prev.columns.take(kept_rows)
    pool = [prev.cubes[j] for j in kept_rows.tolist()] + built
    order = np.argsort(np.concatenate([kept_columns.keys, built_columns.keys]), kind="stable")
    columns = CubeColumns(*(np.concatenate(pair) for pair in zip(kept_columns, built_columns))).take(order)
    return [pool[j] for j in order.tolist()], columns


def _changed_points(frame: PointCloudFrame, prev: PointCloudFrame) -> np.ndarray | None:
    """Ascending indices of the points moved, recolored or relabeled since
    ``prev``, None for a point-count change. One flat ``!=`` per array, its
    hits divided down to rows, so -0.0 against 0.0 is no change."""
    if prev.num_points != frame.num_points:
        return None
    hits = [
        np.flatnonzero(frame.positions != prev.positions) // 3,
        np.flatnonzero(frame.colors != prev.colors) // 3,
        np.flatnonzero(frame.sensitivity != prev.sensitivity),
    ]
    return _distinct(np.concatenate(hits), kind="stable")  # merges the ascending runs


def reuse_or_repartition(
    prev: CubeSet,
    frame: PointCloudFrame,
    cfg: PartitionConfig = PartitionConfig(),
) -> CubeSet:
    """Keep the previous grid when the scene is stable, else re-partition.

    Reuse keeps boundaries (origin, edge) and the boundary epoch but
    reassigns point indices; a re-partition re-tunes the grid and
    increments the epoch. A point-count change counts as a total change.
    A point whose cell under the previous grid does not pack into a key
    always re-partitions the frame.

    The changed points are those whose position, color or label differs
    from ``prev.frame``. Under a reused grid only they are located again,
    and only the cubes whose cells a changed point left, entered or touched
    are grouped again; every other cube is ``prev``'s object, so its row of
    the columns and the plaintext serialize_cube holds on it stay right
    (CubeSet.rebuilt_since names the others). With no changed point the
    result shares ``prev``'s cubes, columns and ``point_keys`` outright.
    Either way it is the same CubeSet, to the bit, as grouping every point
    of the frame under ``prev``'s grid.
    """
    n = frame.num_points
    origin, edge = prev.grid_origin, prev.grid_edge
    if n == 0:
        return _empty(frame, prev.boundary_epoch, edge, origin)
    changed = _changed_points(frame, prev.frame)
    if changed is None:  # a point-count change: a change fraction of 1.0
        keys = _pack_cells(_cells_for(frame.positions, origin, edge))
        if keys is None or 1.0 > cfg.change_threshold:
            return partition_frame(frame, cfg.target_cubes, boundary_epoch=prev.boundary_epoch + 1)
        return _cube_set(frame, prev.boundary_epoch, edge, origin, keys)
    if not len(changed):
        return replace(prev, frame=frame, changed_points=0)
    located = _pack_cells(_cells_for(np.take(frame.positions, changed, axis=0), origin, edge))
    before = np.take(prev.point_keys, changed)
    if located is None or np.count_nonzero(located != before) / n > cfg.change_threshold:
        cubes = partition_frame(frame, cfg.target_cubes, boundary_epoch=prev.boundary_epoch + 1)
        return replace(cubes, changed_points=len(changed))
    keys = prev.point_keys.copy()
    keys[changed] = located
    cubes, columns = _regroup(prev, frame, keys, np.concatenate([before, located]))
    return CubeSet(frame, cubes, prev.boundary_epoch, edge, origin, keys, columns, len(changed))
