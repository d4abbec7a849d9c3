import pytest

from privis.errors import ConfigError
from privis.partition import CubeId
from privis.policy import PolicyConfig, assign_policy
from privis.rng import Mcg64
from privis.shaping import ShapingConfig, flow_rng, pad_length, shape_times

CFG = ShapingConfig()


# Per-packet references for shape_times, which fuses them in one pass.
def jitter_delay(t: float, sigma: float, cfg: ShapingConfig, rng: Mcg64) -> float:
    """Jittered send time; identity at sigma = 0. One draw when shaped."""
    if t < 0:
        raise ConfigError("send time must be >= 0")
    if sigma <= 0.0:
        return t
    return t + rng.uniform(0.0, sigma * cfg.jitter_max_ms)


def schedule_flow(times: list[float], sigma: float, cfg: ShapingConfig) -> list[float]:
    """Enforce minimum gaps guard_min_ms * sigma within one flow's schedule.

    Input times must be non-decreasing; flows at sigma = 0 pass through
    untouched. The sweep only pushes packets later, preserving intra-flow
    order.
    """
    if sigma <= 0.0 or len(times) <= 1:
        return list(times)
    tau = cfg.guard_min_ms * sigma
    out = [times[0]]
    for t in times[1:]:
        out.append(max(t, out[-1] + tau))
    return out


def test_config_validation():
    with pytest.raises(ConfigError):
        ShapingConfig(jitter_max_ms=25.0, mtp_budget_ms=20.0)
    with pytest.raises(ConfigError):
        ShapingConfig(bucket_bytes=0)
    ShapingConfig()


def test_no_padding_at_or_below_theta():
    """At or below the policy's theta, sigma is 0 and the unit passes
    through without consuming a draw."""
    rng = Mcg64(1)
    for s in (0.0, 0.3, PolicyConfig().theta):
        sigma = assign_policy(s).shaping_strength
        assert sigma == 0.0
        assert pad_length(1000, sigma, CFG, rng) == 1000
    assert rng.state == Mcg64(1).state


def test_padding_range_enumerated():
    """s=1, pad_max_fraction=0.25, len=1000: delta in [0, 250], so the
    bucketized output must lie in {1024, 1280}; both ends reachable."""
    seen = set()
    rng = Mcg64(7)
    for _ in range(4000):
        out = pad_length(1000, 1.0, CFG, rng)
        seen.add(out)
    # oracle: enumerate every possible delta and bucketize
    expected = {((1000 + d + 255) // 256) * 256 for d in range(0, 251)}
    assert expected == {1024, 1280}
    assert seen == expected


def test_zero_length_payload():
    rng = Mcg64(3)
    assert pad_length(0, 1.0, CFG, rng) in (0, CFG.bucket_bytes)
    assert pad_length(0, 0.2, CFG, rng) == 0


def test_padded_length_upper_bound():
    rng = Mcg64(9)
    for length in (1, 17, 256, 999, 5000):
        for s in (0.61, 0.8, 1.0):
            out = pad_length(length, s, CFG, rng)
            assert length <= out <= length * (1 + CFG.pad_max_fraction) + CFG.bucket_bytes


def test_jitter_gate_and_bound():
    rng = Mcg64(11)
    assert jitter_delay(5.0, 0.0, CFG, rng) == 5.0
    assert rng.state == Mcg64(11).state
    for _ in range(200):
        t = jitter_delay(5.0, 1.0, CFG, rng)
        assert 5.0 <= t <= 5.0 + CFG.jitter_max_ms


def test_jitter_mean_law_of_large_numbers():
    rng = Mcg64(13)
    draws = [jitter_delay(0.0, 1.0, CFG, rng) for _ in range(10000)]
    assert sum(draws) / len(draws) == pytest.approx(CFG.jitter_max_ms / 2, abs=0.1)


def test_schedule_single_packet_unchanged():
    assert schedule_flow([3.0], 1.0, CFG) == [3.0]


def test_schedule_two_packet_guard():
    out = schedule_flow([0.0, 0.0], 1.0, CFG)
    assert out[1] - out[0] >= CFG.guard_min_ms


def test_schedule_burst_pairwise_gaps():
    out = schedule_flow([0.0] * 5, 0.8, CFG)
    for a, b in zip(out, out[1:]):
        assert b - a >= 0.8 * CFG.guard_min_ms - 1e-12


def test_schedule_below_theta_untouched():
    times = [0.0, 0.1, 0.2]
    assert schedule_flow(times, 0.0, CFG) == times
    assert shape_times(times, 0.0, CFG, Mcg64(5)) == (times, [0.0, 0.0, 0.0])


def test_schedule_preserves_wide_gaps():
    times = [0.0, 10.0, 20.0]
    assert schedule_flow(times, 1.0, CFG) == times


def test_shape_times_caps_displacement_at_mtp_budget():
    rng = Mcg64(17)
    times = [0.0] * 40  # long burst would accumulate 40 * guard
    shaped, _j = shape_times(times, 1.0, CFG, rng)
    for orig, new in zip(times, shaped):
        assert new - orig <= CFG.mtp_budget_ms + 1e-9
    assert shaped == sorted(shaped)


def test_flow_rng_deterministic_and_per_flow():
    a = flow_rng(CFG, CubeId(1, 2, 3), 7)
    b = flow_rng(CFG, CubeId(1, 2, 3), 7)
    c = flow_rng(CFG, CubeId(1, 2, 4), 7)
    assert a.state == b.state
    assert a.state != c.state


def test_shaped_trace_determinism():
    def run():
        rng = flow_rng(CFG, CubeId(0, 0, 0), 3)
        padded = pad_length(900, 0.8, CFG, rng)
        times, jit = shape_times([0.0, 0.0, 0.0], 0.8, CFG, rng)
        return padded, times, jit

    assert run() == run()


def _reference_shape_times(times, sigma, cfg, rng):
    """The composition shape_times fuses: jitter_delay per packet, then
    schedule_flow, then the motion-to-photon cap."""
    jittered = [jitter_delay(t, sigma, cfg, rng) for t in times]
    shaped = schedule_flow(jittered, sigma, cfg)
    shaped = [min(t_new, t_orig + cfg.mtp_budget_ms) for t_new, t_orig in zip(shaped, times)]
    return shaped, [j - t for j, t in zip(jittered, times)]


def test_shape_times_is_bit_equal_to_the_reference_composition():
    """Same floats (repr) and the same stream position afterwards, over
    random sigma, 0-64 packets, equal or rising send times, and configs
    whose cap binds."""
    cfgs = (
        CFG,
        ShapingConfig(guard_min_ms=5.0, jitter_max_ms=3.0, mtp_budget_ms=8.0),
        ShapingConfig(guard_min_ms=0.0, jitter_max_ms=0.0, mtp_budget_ms=1.0),
    )
    draws = Mcg64(2024)
    capped = 0
    for trial in range(600):
        cfg = cfgs[trial % len(cfgs)]
        sigma = (0.0, 1.0, draws.uniform(0.0, 1.0))[trial // len(cfgs) % 3]
        n = draws.randint(0, 64)
        t0 = draws.uniform(0.0, 5000.0)
        if trial % 2:
            times = [t0] * n
        else:
            times = sorted(t0 + draws.uniform(0.0, 30.0) for _ in range(n))
        seed = draws.randint(0, 2**63)
        got_rng, ref_rng = Mcg64(seed), Mcg64(seed)
        got = shape_times(times, sigma, cfg, got_rng)
        ref = _reference_shape_times(times, sigma, cfg, ref_rng)
        assert repr(got) == repr(ref), (trial, sigma, n)
        assert got_rng.state == ref_rng.state
        capped += sum(new == t + cfg.mtp_budget_ms for new, t in zip(got[0], times))
    assert capped > 0  # the cap bound in some trials


@pytest.mark.parametrize("sigma", [0.0, 0.7])
def test_shape_times_rejects_a_negative_send_time(sigma):
    with pytest.raises(ConfigError):
        shape_times([1.0, -0.5, 2.0], sigma, CFG, Mcg64(4))
