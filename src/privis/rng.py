"""Deterministic random number generation shared by the scene generator,
traffic shaping, and the network emulator.

The generator is a 64-bit multiplicative congruential generator (MCG) so
that any language can reproduce identical streams from the same seed:

    state_0   = (2 * seed + 1) mod 2**64        (forced odd)
    state_n+1 = (6364136223846793005 * state_n) mod 2**64
    u_n       = (state_n+1 >> 11) * 2**-53      in [0, 1)

The multiplier is Knuth's MMIX constant; forcing the state odd keeps the
maximal period of the multiplicative recurrence. All derived draws
(integers, ball points) are defined purely in terms of the u_n stream, in
documented order, so shaped traces and scenes are bit-reproducible.
"""

from __future__ import annotations

import numpy as np

# the MCG's documented constants: multiplier, state mask, and the scale of
# a 53-bit draw; callers that inline the step use these names
MCG_MULT = 6364136223846793005
MASK64 = (1 << 64) - 1
INV_2_53 = float(2.0**-53)

# splitmix64 finalizer constants, used only to derive substream seeds
_MIX_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB


def mix64(*values: int) -> int:
    """Collapse a tuple of integers into one well-mixed 64-bit value.

    Used to derive independent substream seeds, e.g. per (flow, frame).
    Sequential splitmix64 finalization over the inputs.
    """
    h = 0x9E3779B97F4A7C15
    for v in values:
        h = (h + (v & MASK64) + _MIX_GAMMA) & MASK64
        h ^= h >> 30
        h = (h * _MIX_A) & MASK64
        h ^= h >> 27
        h = (h * _MIX_B) & MASK64
        h ^= h >> 31
    return h


class Mcg64:
    """The project-wide deterministic uniform generator."""

    __slots__ = ("state",)

    def __init__(self, seed: int):
        self.state = ((2 * seed + 1)) & MASK64

    def next_uniform(self) -> float:
        """One double in [0, 1)."""
        self.state = (MCG_MULT * self.state) & MASK64
        return (self.state >> 11) * INV_2_53

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * self.next_uniform()

    def randint(self, lo: int, hi: int) -> int:
        """Integer uniform on [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty integer range")
        span = hi - lo + 1
        v = int(self.next_uniform() * span)
        if v == span:  # guard the u == 1 - ulp edge
            v = span - 1
        return lo + v

    def batch_uniform(self, n: int) -> np.ndarray:
        """Vectorized equivalent of n consecutive next_uniform() calls.

        Relies on uint64 wraparound: states are state_0 * MULT**k mod 2**64.
        """
        if n == 0:
            return np.zeros(0)
        mults = np.full(n, MCG_MULT, dtype=np.uint64)
        with np.errstate(over="ignore"):
            powers = np.cumprod(mults)  # MULT**1 .. MULT**n mod 2**64
            states = powers * np.uint64(self.state)
        self.state = int(states[-1])
        return (states >> np.uint64(11)).astype(np.float64) * INV_2_53

    def ball_points(self, n: int, center, radius: float) -> np.ndarray:
        """n points uniform in a 3D ball, from 3n consecutive uniforms.

        Draw order per point: z-cosine, azimuth, radial. Uniform-in-volume
        via the cube-root radial transform.
        """
        u = self.batch_uniform(3 * n).reshape(n, 3)
        z = 2.0 * u[:, 0] - 1.0
        phi = 2.0 * np.pi * u[:, 1]
        r = radius * np.cbrt(u[:, 2])
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        pts = np.empty((n, 3))
        pts[:, 0] = r * s * np.cos(phi)
        pts[:, 1] = r * s * np.sin(phi)
        pts[:, 2] = r * z
        return pts + np.asarray(center, dtype=np.float64)
