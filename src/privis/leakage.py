"""Mutual-information leakage estimation and threshold adaptation.

The estimator is the plug-in (maximum likelihood) estimator over a joint
table of (saliency class, binned feature): each traffic feature is
discretized into equal-width bins over its sample range, MI is computed
from the empirical joint distribution, and the reported figure is the
maximum over features. Taking the max treats each feature as its own side
channel and measures the strongest one. It is a lower bound on the joint
leakage, not a conservative estimate: by the chain rule,
I(C; F1, F2, F3) >= max_i I(C; F_i), so an observer who combines the
features can learn more than this figure.

Bin counts default to 4: at desk-scale sample sizes, finer bins inflate
plug-in MI estimates through sparse-cell bias.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import sub

import numpy as np

from .errors import ConfigError, InsufficientData

__all__ = [
    "LeakageConfig",
    "LeakageReport",
    "FEATURE_NAMES",
    "trace_features",
    "estimate_mi",
    "leakage_check_and_adapt",
]

FEATURE_NAMES = ("total_bytes", "packet_count", "mean_gap_ms")


@dataclass(frozen=True)
class LeakageConfig:
    epsilon: float = 0.25  # tolerable leakage budget, bits
    theta_step: float = 0.1  # threshold decrement on violation
    size_bins: int = 4
    time_bins: int = 4
    saliency_classes: int = 3
    window_frames: int = 30  # MI needs sample mass; adapt per window

    def __post_init__(self) -> None:
        if self.epsilon < 0:
            raise ConfigError("epsilon must be >= 0")
        if self.theta_step <= 0:
            raise ConfigError("theta_step must be positive")
        if self.size_bins < 2 or self.time_bins < 2:
            raise ConfigError("bin counts must be >= 2")
        if self.saliency_classes < 2:
            raise ConfigError("need at least 2 saliency classes")
        if self.window_frames < 1:
            raise ConfigError("window_frames must be >= 1")


@dataclass(frozen=True)
class LeakageReport:
    mi_bits: float
    epsilon: float
    violated: bool
    per_feature: dict[str, float]
    sample_count: int


def trace_features(records: list[tuple[int, float]]) -> tuple[float, float, float]:
    """(total_bytes, packet_count, mean inter-send gap in ms) of one flow's
    trace, the list of (wire length, send time) records netw.transmit returns."""
    n = len(records)
    if n == 0:
        return (0.0, 0.0, 0.0)
    lengths, times = zip(*records)
    total = float(sum(lengths))
    if n == 1:
        return (total, 1.0, 0.0)
    # the gaps summed in send order, as a list of b - a would be
    return (total, float(n), sum(map(sub, times[1:], times)) / (n - 1))


def _bin_indices(values: np.ndarray, bins: int) -> np.ndarray:
    lo, hi = float(values.min()), float(values.max())
    if hi <= lo:
        return np.zeros(len(values), dtype=np.int64)
    idx = ((values - lo) / (hi - lo) * bins).astype(np.int64)
    return np.minimum(idx, bins - 1)


def _mi_from_joint(joint: np.ndarray) -> float:
    """MI in bits from a (classes x bins) count table."""
    total = joint.sum()
    if total == 0:
        return 0.0
    p = joint / total
    px = p.sum(axis=1, keepdims=True)
    py = p.sum(axis=0, keepdims=True)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(p > 0, p / (px @ py), 1.0)
        terms = np.where(p > 0, p * np.log2(ratio), 0.0)
    return float(max(0.0, terms.sum()))


def estimate_mi(
    samples: list[tuple[int, tuple[float, float, float]]],
    cfg: LeakageConfig = LeakageConfig(),
) -> LeakageReport:
    """Plug-in MI between saliency class and each traffic feature.

    ``samples`` holds (class_index, feature_vector) pairs, one per
    observed flow-frame. Classes must lie in [0, saliency_classes).
    """
    if len(samples) < 2:
        raise InsufficientData(f"MI estimation needs >= 2 samples, got {len(samples)}")
    classes = np.array([c for c, _f in samples], dtype=np.int64)
    if classes.min() < 0 or classes.max() >= cfg.saliency_classes:
        raise ConfigError("class index outside [0, saliency_classes)")
    features = np.array([f for _c, f in samples], dtype=np.float64)
    bins_per_feature = (cfg.size_bins, cfg.size_bins, cfg.time_bins)

    per_feature: dict[str, float] = {}
    for col, (name, bins) in enumerate(zip(FEATURE_NAMES, bins_per_feature)):
        binned = _bin_indices(features[:, col], bins)
        joint = np.zeros((cfg.saliency_classes, bins), dtype=np.int64)
        np.add.at(joint, (classes, binned), 1)
        per_feature[name] = _mi_from_joint(joint)

    mi = max(per_feature.values())
    return LeakageReport(
        mi_bits=mi,
        epsilon=cfg.epsilon,
        violated=mi > cfg.epsilon,
        per_feature=per_feature,
        sample_count=len(samples),
    )


def leakage_check_and_adapt(
    report: LeakageReport, theta: float, cfg: LeakageConfig = LeakageConfig()
) -> float:
    """Tighten the shaping threshold when the leakage budget is violated.

    Returns the new theta; it never goes below 0 and never moves when the
    budget holds.
    """
    if not 0.0 <= theta <= 1.0:
        raise ConfigError("theta must be in [0, 1]")
    if not report.violated:
        return theta
    new_theta = max(0.0, theta - cfg.theta_step)
    if new_theta < 1e-12:  # snap float dust so the floor is exact
        new_theta = 0.0
    return new_theta

