"""Saliency-to-protection mapping and per-frame cost budgeting.

Each cube's protection tuple is (key rotation interval, encryption scope,
shaping strength sigma). ``PolicyConfig.levels`` is the protection table,
built once per config: one row per level, the level's sigma = 0 policy.
HIGH and MED cover the full payload, LOW the geometry only, each rotating
on its configured interval. A score at or below the shaping threshold
theta gets its level's row as is; above it, the row with sigma = s. A
greedy budget pass downgrades the least salient non-LOW cubes one row at a
time, keeping sigma, until the estimated per-frame protection cost fits
the budget.
"""

from __future__ import annotations

import enum
import warnings
from dataclasses import dataclass
from functools import cached_property

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

    @cached_property
    def levels(self) -> tuple[ProtectionPolicy, ...]:
        """The protection table: row ``level`` is that level's sigma = 0 policy."""
        return (
            ProtectionPolicy(ProtectionLevel.LOW, self.interval_low, Scope.GEOMETRY_ONLY, 0.0),
            ProtectionPolicy(ProtectionLevel.MED, self.interval_med, Scope.FULL_PAYLOAD, 0.0),
            ProtectionPolicy(ProtectionLevel.HIGH, self.interval_high, Scope.FULL_PAYLOAD, 0.0),
        )


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


def _shaped(row: ProtectionPolicy, sigma: float) -> ProtectionPolicy:
    """``row`` at shaping strength ``sigma``; the shared row itself at 0."""
    if sigma == 0.0:
        return row
    return ProtectionPolicy(row.level, row.key_rotation_interval, row.scope, sigma)


def assign_policy(s: float, cfg: PolicyConfig = PolicyConfig()) -> ProtectionPolicy:
    """Map a saliency score to its protection tuple: its level's row of
    ``cfg.levels``, with sigma = s above theta."""
    if not 0.0 <= s <= 1.0:
        raise ValidationError(f"saliency {s} outside [0, 1]")
    row = cfg.levels[protection_level(s, (cfg.t_low, cfg.t_high))]
    return _shaped(row, s if s > cfg.theta else 0.0)


def _estimate_cost(entries: list[tuple[object, float, ProtectionPolicy]], model: CostModel) -> float:
    """Total per-frame cost of (cube, s, policy) entries.

    A cube's geometry and attribute bytes are its ``num_points`` times the
    serialization strides, 12 and 4. Rekey cost is amortized over the
    rotation interval; encryption cost covers only bytes inside the
    confidentiality scope.
    """
    total = 0.0
    for cube, _s, pol in entries:
        n = cube.num_points
        in_scope = 12 * n + (4 * n if pol.scope is Scope.FULL_PAYLOAD else 0)
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

    ``policies`` holds (cube, s, policy), each cube with a ``num_points``.
    Returns (adjusted, estimated_cost, exhausted) where exhausted means the
    budget was unattainable even with every cube at LOW; in that case a
    BudgetExceededWarning is emitted and all cubes are LOW (protection
    never drops below the floor).

    Downgrades go to the lowest-saliency cube above LOW, one row of
    ``cfg.levels`` at a time with sigma kept, which preserves the dominance
    ordering.
    """
    adjusted = list(policies)
    cost = _estimate_cost(adjusted, budget.cost_model)
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
        adjusted[idx] = (cube, s, _shaped(cfg.levels[pol.level - 1], pol.shaping_strength))
        cost = _estimate_cost(adjusted, budget.cost_model)
    return adjusted, cost, False
