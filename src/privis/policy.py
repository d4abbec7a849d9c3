"""Saliency-to-protection mapping and per-frame cost budgeting.

Each cube's protection tuple is (key rotation interval, encryption scope,
shaping strength). The level table is fixed; shaping strength follows the
saliency score directly once it crosses the shaping threshold. A greedy
budget pass downgrades the least salient non-Low cubes one level at a time
until the estimated per-frame protection cost fits the budget.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass, replace

from .errors import BudgetExceededWarning, ConfigError, ValidationError

__all__ = [
    "ProtectionLevel",
    "Scope",
    "ProtectionPolicy",
    "PolicyConfig",
    "CostModel",
    "PolicyBudget",
    "protection_level",
    "assign_policy",
    "enforce_budget",
]


class ProtectionLevel(enum.IntEnum):
    LOW = 0
    MED = 1
    HIGH = 2


class Scope(enum.IntEnum):
    GEOMETRY_ONLY = 0
    FULL_PAYLOAD = 1


@dataclass(frozen=True)
class ProtectionPolicy:
    level: ProtectionLevel
    key_rotation_interval: int  # frames between rotations
    scope: Scope
    shaping_strength: float  # sigma in [0, 1]

    def dominates(self, other: "ProtectionPolicy") -> bool:
        """Component-wise protection ordering (>= on every dimension)."""
        return (
            self.level >= other.level
            and self.key_rotation_interval <= other.key_rotation_interval
            and self.scope >= other.scope
            and self.shaping_strength >= other.shaping_strength - 1e-12
        )


@dataclass(frozen=True)
class PolicyConfig:
    t_low: float = 0.33
    t_high: float = 0.66
    theta: float = 0.6  # shaping threshold; sigma = s above it, 0 below
    interval_high: int = 1
    interval_med: int = 3
    interval_low: int = 6

    def __post_init__(self) -> None:
        if not 0.0 <= self.t_low < self.t_high <= 1.0:
            raise ConfigError("thresholds must satisfy 0 <= t_low < t_high <= 1")
        if not 0.0 <= self.theta <= 1.0:
            raise ConfigError("theta must be in [0, 1]")
        if not 0 < self.interval_high <= self.interval_med <= self.interval_low:
            raise ConfigError("rotation intervals must be ordered high <= med <= low")


@dataclass(frozen=True)
class CostModel:
    """Linear per-frame protection cost model, all terms in milliseconds."""

    per_byte_ms: float = 2.0e-7
    per_rekey_ms: float = 0.005
    shaping_delay_ms: float = 2.0  # cost bound per shaped cube at sigma = 1


@dataclass(frozen=True)
class PolicyBudget:
    gamma_ms: float = 50.0  # per-frame protection cost budget
    cost_model: CostModel = CostModel()

    def __post_init__(self) -> None:
        if self.gamma_ms <= 0:
            raise ConfigError("gamma_ms must be positive")


def protection_level(s: float, thresholds: tuple[float, float] = (0.33, 0.66)) -> ProtectionLevel:
    """Three-way discretization of the saliency score."""
    t_low, t_high = thresholds
    if not 0.0 <= t_low < t_high <= 1.0:
        raise ConfigError("thresholds must satisfy 0 <= t_low < t_high <= 1")
    if s < t_low:
        return ProtectionLevel.LOW
    if s < t_high:
        return ProtectionLevel.MED
    return ProtectionLevel.HIGH


def _level_tuple(level: ProtectionLevel, cfg: PolicyConfig) -> tuple[int, Scope]:
    if level is ProtectionLevel.HIGH:
        return cfg.interval_high, Scope.FULL_PAYLOAD
    if level is ProtectionLevel.MED:
        return cfg.interval_med, Scope.FULL_PAYLOAD
    return cfg.interval_low, Scope.GEOMETRY_ONLY


def assign_policy(s: float, cfg: PolicyConfig = PolicyConfig()) -> ProtectionPolicy:
    """Map a saliency score to its protection tuple."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"saliency {s} outside [0, 1]")
    level = protection_level(s, (cfg.t_low, cfg.t_high))
    interval, scope = _level_tuple(level, cfg)
    sigma = s if s > cfg.theta else 0.0
    return ProtectionPolicy(level, interval, scope, sigma)


def _estimate_cost(
    entries: list[tuple[int, int, float, ProtectionPolicy]], model: CostModel
) -> float:
    """Total per-frame cost of (geometry_bytes, attribute_bytes, s, policy) entries.

    Rekey cost is amortized over the rotation interval; encryption cost
    covers only bytes inside the confidentiality scope.
    """
    total = 0.0
    for geo_bytes, attr_bytes, _s, pol in entries:
        in_scope = geo_bytes + (attr_bytes if pol.scope is Scope.FULL_PAYLOAD else 0)
        total += in_scope * model.per_byte_ms
        total += model.per_rekey_ms / pol.key_rotation_interval
        total += model.shaping_delay_ms * pol.shaping_strength
    return total


def enforce_budget(
    policies: list[tuple[object, float, ProtectionPolicy]],
    budget: PolicyBudget,
    cfg: PolicyConfig = PolicyConfig(),
) -> tuple[list[tuple[object, float, ProtectionPolicy]], float, bool]:
    """Downgrade until the estimated cost fits gamma.

    ``policies`` holds (cube, s, policy); a cube's (geometry_bytes,
    attribute_bytes) are its point count times the serialization strides.
    Returns (adjusted, estimated_cost, exhausted) where exhausted means the
    budget was unattainable even with every cube at LOW; in that case a
    BudgetExceededWarning is emitted and all cubes are LOW (protection
    never drops below the floor).

    Downgrades go to the lowest-saliency cube above LOW, one level at a
    time, which preserves the dominance ordering.
    """
    adjusted = list(policies)

    def sizes(cube) -> tuple[int, int]:
        n = getattr(cube, "num_points", 0)
        return 12 * n, 4 * n

    def entries():
        return [(*sizes(c), s, p) for (c, s, p) in adjusted]

    cost = _estimate_cost(entries(), budget.cost_model)
    while cost > budget.gamma_ms:
        candidates = [
            (s, i) for i, (_c, s, p) in enumerate(adjusted) if p.level > ProtectionLevel.LOW
        ]
        if not candidates:
            warnings.warn(
                f"protection cost {cost:.3f} ms exceeds budget {budget.gamma_ms} ms "
                "with every cube at LOW",
                BudgetExceededWarning,
            )
            return adjusted, cost, True
        _s, idx = min(candidates)
        cube, s, pol = adjusted[idx]
        new_level = ProtectionLevel(pol.level - 1)
        interval, scope = _level_tuple(new_level, cfg)
        adjusted[idx] = (cube, s, replace(pol, level=new_level, key_rotation_interval=interval, scope=scope))
        cost = _estimate_cost(entries(), budget.cost_model)
    return adjusted, cost, False
