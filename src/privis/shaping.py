"""Selective traffic shaping: padding, jitter, and guard-window pacing.

Every function takes the flow's shaping strength sigma from its
protection policy, which is the saliency score s above the policy's
threshold theta and 0 at or below it. At sigma = 0 a flow passes through
byte- and time-identical to the unshaped pipeline. For shaped flows:

    padding: delta ~ uniform{0 .. round(sigma * pad_max_fraction * len)},
             then the padded length rounds up to the next bucket multiple;
    jitter:  eta ~ uniform[0, sigma * jitter_max_ms) added to the send time;
    pacing:  consecutive packets of one flow keep gaps of at least
             guard_min_ms * sigma.

Uniform distributions with saliency-scaled support are the maximum-entropy
choice on a bounded interval; bucketing collapses the residual length
ordering that random padding alone would leave observable. All draws come
from a per-(flow, frame) substream of the documented MCG, in a fixed
order (one padding delta for the unit, then one jitter per fragment), so
shaped traces are deterministic under a fixed seed and independent of
flow scheduling order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConfigError
from .partition import CubeId
from .rng import INV_2_53, MASK64, MCG_MULT, Mcg64, mix64

__all__ = [
    "ShapingConfig",
    "pad_length",
    "flow_rng",
    "shape_times",
]


@dataclass(frozen=True)
class ShapingConfig:
    pad_max_fraction: float = 0.25
    jitter_max_ms: float = 4.0
    guard_min_ms: float = 2.0
    bucket_bytes: int = 256
    mtp_budget_ms: float = 20.0
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.pad_max_fraction < 0 or self.jitter_max_ms < 0 or self.guard_min_ms < 0:
            raise ConfigError("shaping bounds must be >= 0")
        if self.bucket_bytes < 1:
            raise ConfigError("bucket_bytes must be >= 1")
        if self.mtp_budget_ms <= 0:
            raise ConfigError("mtp_budget_ms must be positive")
        if self.jitter_max_ms > self.mtp_budget_ms:
            raise ConfigError("jitter_max_ms must not exceed the MTP budget")


def _bucket_up(length: int, bucket: int) -> int:
    return ((length + bucket - 1) // bucket) * bucket


def pad_length(length: int, sigma: float, cfg: ShapingConfig, rng: Mcg64) -> int:
    """Padded length for one unit; equals ``length`` at sigma = 0.

    Consumes exactly one draw when shaped, none otherwise.
    """
    if length < 0:
        raise ConfigError("length must be >= 0")
    if sigma <= 0.0:
        return length
    delta_max = round(sigma * cfg.pad_max_fraction * length)
    delta = rng.randint(0, delta_max) if delta_max > 0 else 0
    return _bucket_up(length + delta, cfg.bucket_bytes)


def flow_rng(cfg: ShapingConfig, flow_id: CubeId, frame_id: int) -> Mcg64:
    """The shaping substream for one (flow, frame).

    One substream per flow and frame keeps shaping independent of the
    order flows are processed in: the pipeline draws the padding delta
    first (it must land in the sealed header before packetization), then
    one jitter per fragment, from this same stream.
    """
    return Mcg64(mix64(cfg.rng_seed, flow_id[0], flow_id[1], flow_id[2], frame_id))


def shape_times(
    times: list[float], sigma: float, cfg: ShapingConfig, rng: Mcg64
) -> tuple[list[float], list[float]]:
    """Jitter each packet then enforce guard gaps; returns (times, jitters).

    The motion-to-photon budget governs: when guard pacing of a long burst
    would displace a packet more than mtp_budget_ms past its original send
    time, the displacement is capped there and the pacing gap compresses.
    Masking bursts is best-effort inside the latency budget, never beyond.

    Bit-equal to jittering each packet with one ``rng.uniform(0, sigma *
    jitter_max_ms)`` draw, then the guard sweep over the jittered times,
    then the cap, in one pass: the MCG step runs on a local copy of the
    state, written back once at the end (a negative send time raises
    before that, leaving the stream where it was). The guard chain runs on
    the uncapped times.
    """
    if sigma <= 0.0:
        if any(t < 0 for t in times):
            raise ConfigError("send time must be >= 0")
        return list(times), [0.0] * len(times)
    span = sigma * cfg.jitter_max_ms
    tau = cfg.guard_min_ms * sigma
    budget = cfg.mtp_budget_ms
    mult, mask, inv53 = MCG_MULT, MASK64, INV_2_53
    state = rng.state
    prev = -math.inf  # the first packet has no predecessor to keep a gap to
    shaped: list[float] = []
    jitters: list[float] = []
    for t in times:
        if t < 0:
            raise ConfigError("send time must be >= 0")
        state = mult * state & mask
        j = t + span * ((state >> 11) * inv53)
        g = prev + tau
        prev = g if g > j else j
        c = t + budget
        shaped.append(c if c < prev else prev)
        jitters.append(j - t)
    rng.state = state
    return shaped, jitters
