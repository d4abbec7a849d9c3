import math
from collections import Counter

import pytest

from privis.errors import ConfigError, InsufficientData
from privis.leakage import (
    FEATURE_NAMES,
    LeakageConfig,
    LeakageReport,
    estimate_mi,
    leakage_check_and_adapt,
    trace_features,
)
from privis.rng import Mcg64


def brute_force_mi(pairs):
    """Independent oracle: joint probability table from raw dicts, MI by the
    definition. ``pairs`` holds (class, discrete_feature_value) tuples."""
    n = len(pairs)
    joint = Counter(pairs)
    px = Counter(c for c, _v in pairs)
    py = Counter(v for _c, v in pairs)
    mi = 0.0
    for (c, v), k in joint.items():
        p_cv = k / n
        mi += p_cv * math.log2(p_cv / ((px[c] / n) * (py[v] / n)))
    return mi


def bin_value(v, lo, hi, bins):
    if hi <= lo:
        return 0
    return min(int((v - lo) / (hi - lo) * bins), bins - 1)


def test_trace_features_two_packets():
    trace = [(100, 0.0), (100, 2.0)]
    assert trace_features(trace) == (200.0, 2.0, 2.0)


def test_trace_features_empty():
    assert trace_features([]) == (0.0, 0.0, 0.0)


def test_trace_features_single_packet_gap_zero():
    assert trace_features([(50, 1.0)]) == (50.0, 1.0, 0.0)


def test_constant_features_carry_no_information():
    samples = [(i % 3, (100.0, 1.0, 0.0)) for i in range(60)]
    report = estimate_mi(samples)
    assert report.mi_bits == 0.0
    assert not report.violated or report.epsilon < 0


def test_two_balanced_classes_disjoint_sizes_one_bit():
    samples = []
    for i in range(50):
        samples.append((0, (100.0 + i, 1.0, 0.0)))
        samples.append((1, (900.0 + i, 1.0, 0.0)))
    report = estimate_mi(samples, LeakageConfig(saliency_classes=2))
    assert report.mi_bits == pytest.approx(1.0, abs=1e-9)
    assert report.violated


def test_three_balanced_classes_log2_3():
    samples = []
    for i in range(30):
        for cls, base in ((0, 100.0), (1, 1000.0), (2, 2000.0)):
            samples.append((cls, (base + i, 1.0, 0.0)))
    report = estimate_mi(samples, LeakageConfig(size_bins=3))
    assert report.mi_bits == pytest.approx(math.log2(3), abs=1e-9)


def test_plug_in_matches_brute_force_oracle_on_random_sets():
    """Estimator equals the from-scratch joint-table computation to 1e-9
    on randomized sample sets up to 1000 samples."""
    rng = Mcg64(41)
    cfg = LeakageConfig(size_bins=5, time_bins=4)
    for trial in range(20):
        n = rng.randint(2, 1000)
        samples = []
        for _ in range(n):
            cls = rng.randint(0, 2)
            f = (
                rng.uniform(0, 3000) + cls * rng.uniform(0, 500),
                float(rng.randint(1, 6)),
                rng.uniform(0, 5) * (cls == 2),
            )
            samples.append((cls, f))
        report = estimate_mi(samples, cfg)
        feats = [f for _c, f in samples]
        classes = [c for c, _f in samples]
        for col, (name, bins) in enumerate(
            zip(FEATURE_NAMES, (cfg.size_bins, cfg.size_bins, cfg.time_bins))
        ):
            vals = [f[col] for f in feats]
            lo, hi = min(vals), max(vals)
            pairs = [(c, bin_value(v, lo, hi, bins)) for c, v in zip(classes, vals)]
            assert report.per_feature[name] == pytest.approx(brute_force_mi(pairs), abs=1e-9)
        assert report.mi_bits == pytest.approx(max(report.per_feature.values()), abs=1e-12)


def test_mi_bounds():
    rng = Mcg64(43)
    cfg = LeakageConfig(saliency_classes=3, size_bins=4, time_bins=4)
    for _ in range(30):
        samples = [
            (rng.randint(0, 2), (rng.uniform(0, 100), float(rng.randint(1, 3)), rng.uniform(0, 2)))
            for _ in range(rng.randint(2, 200))
        ]
        report = estimate_mi(samples, cfg)
        assert 0.0 <= report.mi_bits <= math.log2(3) + 1e-12
        assert report.mi_bits <= math.log2(max(cfg.size_bins, cfg.time_bins)) + 1e-12


def test_insufficient_samples_rejected():
    with pytest.raises(InsufficientData):
        estimate_mi([(0, (1.0, 1.0, 0.0))])


def test_class_range_enforced():
    with pytest.raises(ConfigError):
        estimate_mi([(5, (1.0, 1.0, 0.0)), (0, (2.0, 1.0, 0.0))], LeakageConfig(saliency_classes=3))


def test_adapt_within_budget_keeps_theta():
    report = LeakageReport(0.1, 0.5, False, {}, 10)
    theta = leakage_check_and_adapt(report, 0.6, LeakageConfig(epsilon=0.5))
    assert theta == 0.6


def test_adapt_one_step_rule():
    report = LeakageReport(0.9, 0.5, True, {}, 10)
    theta = leakage_check_and_adapt(report, 0.6, LeakageConfig(epsilon=0.5, theta_step=0.1))
    assert isinstance(theta, float) and theta == pytest.approx(0.5)


def test_adapt_floors_at_zero():
    cfg = LeakageConfig(epsilon=0.1, theta_step=0.1)
    theta = 0.2
    for _ in range(5):
        report = LeakageReport(0.9, cfg.epsilon, True, {}, 10)
        theta = leakage_check_and_adapt(report, theta, cfg)
    assert theta == 0.0


def test_theta_never_increases():
    cfg = LeakageConfig(epsilon=0.25)
    theta = 0.6
    rng = Mcg64(3)
    for _ in range(40):
        mi = rng.uniform(0, 1)
        report = LeakageReport(mi, cfg.epsilon, mi > cfg.epsilon, {}, 10)
        new_theta = leakage_check_and_adapt(report, theta, cfg)
        assert new_theta <= theta
        theta = new_theta

