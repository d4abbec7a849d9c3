"""The three-configuration latency benchmark, miniature edition.

Runs raw streaming, whole-frame encryption, and the adaptive pipeline on
one scene with shared seeds, and prints the per-stage latency breakdown.
The headline effect: the adaptive pipeline's encryption cost sits far
below whole-frame AEAD because only rotated or changed cubes are
re-sealed each frame, while raw streaming pays no crypto at all.

The CLI wraps exactly this comparison at full scale:

    privis-bench --frames 60 --points 80000 --out results/
"""

import time

from privis import RunConfig, compare_modes, default_scene

base = RunConfig(
    mode="privis",
    scene=default_scene(frames=24, points=40_000),
    root_key_hex="4d" * 32,
)
t0 = time.perf_counter()
comparison = compare_modes(base)
wall = time.perf_counter() - t0

means = {m: r.mean.as_dict() for m, r in comparison.results.items()}
print(f"{'component':<22}" + "".join(f"{m:>12}" for m in means))
for stage in means["noenc"]:
    print(f"{stage:<22}" + "".join(f"{means[m][stage]:12.3f}" for m in means))

print(f"\nprivis - noenc:  {comparison.privis_minus_noenc:7.3f} ms")
print(f"uniform - noenc: {comparison.uniform_minus_noenc:7.3f} ms")
print(f"ordering noenc <= privis <= uniform: {comparison.ordering_ok}")
print(f"(wall time {wall:.1f} s for {3 * base.scene.frame_count} frames, warmup included)")

privis = comparison.results["privis"]
sent = [r["sent_units"] for r in privis.frame_rows]
print(f"\nadaptive refresh: frame 0 sends {sent[0]} units, steady state {min(sent[1:6])}"
      f" of {privis.frame_rows[1]['cubes']} cubes, interval-6 rotation peaks at {max(sent[1:])}")
