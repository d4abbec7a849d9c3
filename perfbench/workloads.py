"""The benchmark's workloads: privis-mode sessions built from a seed.

The seed is the only input. It becomes the scene seed, the channel seed
(``NetConfig.seed``) and the shaping seed (``ShapingConfig.rng_seed``). The
root key is a fixed constant, so a seed names one byte-exact run.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from privis.bench import RunConfig, default_scene, leakage_scene
from privis.frame_io import SceneSpec
from privis.netw import NetConfig
from privis.shaping import ShapingConfig

ROOT_KEY_HEX = "5eed" * 16  # never secure-random: outputs must repeat per seed

# generate_frame only checks the index against frame_count; the scene content
# repeats every 12 frames, so the bound just has to exceed any run's length.
SCENE_FRAMES = 1_000_000

# Frame-level behaviour repeats every lcm(LOW rekey 6, MED rekey 3, orbit 12,
# leakage window 30) = 60 frames. Timed loops cover whole periods so every
# run times the same mix of rekey frames and window closes.
PERIOD = 60

# The leakage loop can lower theta from 0.6 to 0 in 0.1 steps, one step per
# 30-frame window: six windows. Frames before that are warm-up, not steady state.
WARMUP_FRAMES = 180

# Every run times at least this many frames (four periods; p95 then has
# twelve samples beyond it). The deterministic figures and peak RSS are taken
# over exactly these first timed frames, so they do not depend on run speed.
FIXED_FRAMES = 240


@dataclass(frozen=True)
class Workload:
    name: str
    scene: Callable[[int], SceneSpec]
    net: NetConfig  # seed filled in per run

    def config(self, seed: int) -> RunConfig:
        return RunConfig(
            mode="privis",
            scene=self.scene(seed),
            net=replace(self.net, seed=seed),
            shaping=replace(ShapingConfig(), rng_seed=seed),
            root_key_hex=ROOT_KEY_HEX,
        )


def _orbit(seed: int) -> SceneSpec:
    return default_scene(seed=seed, frames=SCENE_FRAMES)


def _churn(seed: int) -> SceneSpec:
    return replace(default_scene(seed=seed, frames=SCENE_FRAMES), sensitive_fraction=0.25)


def _static(seed: int) -> SceneSpec:
    return leakage_scene(seed=seed, frames=SCENE_FRAMES)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("orbit-80k", _orbit, NetConfig(mtu=1200)),
        Workload("churn-80k", _churn, NetConfig(mtu=1200)),
        Workload("static-lossy-17k", _static, NetConfig(mtu=9000, loss_prob=0.05, reorder_prob=0.05)),
    )
}
