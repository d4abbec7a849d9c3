"""Selective traffic shaping and the mutual-information leakage bound.

Runs the adaptive pipeline twice on the leakage-evaluation scene, once
with shaping disabled and once enabled, and estimates how much a traffic
observer learns about cube sensitivity from flow features alone. With
shaping off, high-saliency flows are plainly distinguishable; padding and
bucketing collapse that channel to well under the leakage budget.
"""

from dataclasses import replace

from privis import (
    LeakageConfig,
    NetConfig,
    PolicyConfig,
    RunConfig,
    estimate_mi,
    leakage_scene,
    run_session,
)

base = RunConfig(
    mode="privis",
    scene=leakage_scene(frames=24),
    root_key_hex="3c" * 32,
    policy=PolicyConfig(t_low=0.45, t_high=0.5),
    net=NetConfig(mtu=6400, seed=3),
    adaptation_enabled=False,
    keep_units=True,  # keep the per-flow leakage samples
)

for label, enabled in (("shaping disabled", False), ("shaping enabled", True)):
    result = run_session(replace(base, shaping_enabled=enabled))
    samples = [(1 if lvl == 2 else 0, f) for lvl, f in result.mi_samples if lvl in (0, 2)]
    report = estimate_mi(samples, LeakageConfig(saliency_classes=2))
    hi = sorted(f[0] for c, f in samples if c == 1)
    lo = sorted(f[0] for c, f in samples if c == 0)
    print(f"{label}:")
    print(f"  high-saliency flow sizes: {hi[0]:.0f}..{hi[-1]:.0f} bytes")
    print(f"  low-saliency flow sizes:  {lo[0]:.0f}..{lo[-1]:.0f} bytes")
    print(f"  estimated leakage: {report.mi_bits:.3f} bits "
          f"(budget {report.epsilon}, violated: {report.violated})")
    print(f"  per feature: { {k: round(v, 3) for k, v in report.per_feature.items()} }\n")

# sabotage the padding and watch stage 4 ratchet the threshold down
from privis import LeakageConfig as LC
from privis.shaping import ShapingConfig

leaky = replace(
    base,
    scene=leakage_scene(frames=24),
    shaping=ShapingConfig(pad_max_fraction=0.0, bucket_bytes=1),
    leakage=LC(window_frames=6),
    adaptation_enabled=True,
)
result = run_session(leaky)
print("with ineffective padding, the threshold tightens every window:")
for w in result.leakage_windows:
    print(f"  window ending frame {w['window_end_frame']:2d}: MI {w['mi_bits']:.3f} bits "
          f"> {w['epsilon']} -> theta {w['theta_after']:.1f}")
