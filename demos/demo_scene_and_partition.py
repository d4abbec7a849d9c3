"""Scene generation, frame files, and cube partitioning.

Generates a synthetic telepresence scene (a moving user cluster in front
of a static room shell), writes one frame to the plain-text format and
reads it back, then partitions the frames into spatial cubes and shows
how the grid boundaries survive ordinary motion but not a scene change.
"""

import tempfile
from dataclasses import replace

import numpy as np

from privis import (
    PartitionConfig,
    SceneSpec,
    generate_scene,
    load_frame,
    membership_change_fraction,
    partition_frame,
    reuse_or_repartition,
    write_frame,
)

spec = SceneSpec(
    seed=7,
    frame_count=8,
    points_per_frame=12_000,
    sensitive_fraction=0.2,
    motion_amplitude=0.12,
)
frames = generate_scene(spec)
f0 = frames[0]
print(f"scene: {spec.frame_count} frames x {f0.num_points} points, "
      f"{int(f0.sensitivity.sum())} sensitive")
print(f"viewpoint {np.round(f0.viewpoint, 2)}, user anchor {np.round(f0.user_anchor, 2)}")

# round-trip through the text format
with tempfile.NamedTemporaryFile("w", suffix=".txt", delete=False) as tmp:
    path = tmp.name
write_frame(f0, path)
reloaded = load_frame(path)
assert np.array_equal(reloaded.positions, f0.positions)
print(f"frame file round-trip ok ({path})")

# partition and inspect
cubes = partition_frame(f0, target_cubes=64)
sizes = sorted(c.num_points for c in cubes.cubes)
print(f"\npartitioned into {len(cubes.cubes)} cubes, edge {cubes.grid_edge:.4f} m")
print(f"cube sizes: min {sizes[0]}, median {sizes[len(sizes)//2]}, max {sizes[-1]}")

# temporal reuse: the user moves, the grid stays
cur = cubes
for frame in frames[1:]:
    frac = membership_change_fraction(cur, frame)
    cur = reuse_or_repartition(cur, frame, PartitionConfig(64, 0.2))
    print(f"frame {frame.frame_id}: membership change {frac:5.1%} "
          f"-> boundary epoch {cur.boundary_epoch}")

# a teleport-scale change forces new boundaries
jumped = replace(frames[-1], positions=frames[-1].positions + 10 * cur.grid_edge)
bumped = reuse_or_repartition(cur, jumped, PartitionConfig(64, 0.2))
print(f"teleported frame: membership change 100% -> boundary epoch {bumped.boundary_epoch}")
