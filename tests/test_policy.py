import warnings

import pytest

from privis.errors import BudgetExceededWarning, ConfigError, ValidationError
from privis.policy import (
    CostModel,
    PolicyBudget,
    PolicyConfig,
    ProtectionLevel,
    ProtectionPolicy,
    Scope,
    assign_policy,
    enforce_budget,
    protection_level,
)
from privis.rng import Mcg64


class FakeCube:
    def __init__(self, name, num_points):
        self.name = name
        self.num_points = num_points

    def __repr__(self):
        return f"FakeCube({self.name})"


def test_level_extremes_and_mid():
    assert protection_level(0.0) is ProtectionLevel.LOW
    assert protection_level(1.0) is ProtectionLevel.HIGH
    assert protection_level(0.5) is ProtectionLevel.MED


def test_level_boundaries_half_open():
    assert protection_level(0.33) is ProtectionLevel.MED
    assert protection_level(0.66) is ProtectionLevel.HIGH
    assert protection_level(0.3299999) is ProtectionLevel.LOW


def test_invalid_thresholds_rejected():
    with pytest.raises(ConfigError):
        protection_level(0.5, (0.7, 0.3))
    with pytest.raises(ConfigError):
        protection_level(0.5, (0.2, 1.2))


def test_assign_high_tuple():
    pol = assign_policy(0.9)
    assert pol.level is ProtectionLevel.HIGH
    assert pol.key_rotation_interval == 1
    assert pol.scope is Scope.FULL_PAYLOAD
    assert pol.shaping_strength == pytest.approx(0.9)


def test_assign_low_tuple():
    pol = assign_policy(0.1)
    assert pol.level is ProtectionLevel.LOW
    assert pol.key_rotation_interval == 6
    assert pol.scope is Scope.GEOMETRY_ONLY
    assert pol.shaping_strength == 0.0


def test_sigma_zero_at_or_below_theta():
    assert assign_policy(0.6).shaping_strength == 0.0
    assert assign_policy(0.61).shaping_strength == pytest.approx(0.61)


def test_high_implies_full_payload_and_interval_one():
    for s in (0.66, 0.8, 1.0):
        pol = assign_policy(s)
        assert pol.scope is Scope.FULL_PAYLOAD
        assert pol.key_rotation_interval == 1


CUSTOM = PolicyConfig(interval_high=2, interval_med=4, interval_low=8)


def test_assign_uses_configured_intervals():
    for s, level, interval in ((0.9, ProtectionLevel.HIGH, 2), (0.5, ProtectionLevel.MED, 4), (0.1, ProtectionLevel.LOW, 8)):
        pol = assign_policy(s, CUSTOM)
        assert pol.level is level
        assert pol.key_rotation_interval == interval


def test_sigma_zero_policies_are_the_table_rows():
    assert [row.level for row in CUSTOM.levels] == list(ProtectionLevel)
    for s in (0.0, 0.2, 0.33, 0.5, 0.6):  # at or below theta = 0.6
        pol = assign_policy(s, CUSTOM)
        assert pol is CUSTOM.levels[pol.level]
    pol = assign_policy(0.9, CUSTOM)
    row = CUSTOM.levels[ProtectionLevel.HIGH]
    assert pol == ProtectionPolicy(row.level, row.key_rotation_interval, row.scope, 0.9)


def test_out_of_range_saliency_rejected():
    with pytest.raises(ValidationError):
        assign_policy(1.1)


def _dominates(p: ProtectionPolicy, q: ProtectionPolicy) -> bool:
    """Component-wise protection ordering (>= on every dimension)."""
    return (
        p.level >= q.level
        and p.key_rotation_interval <= q.key_rotation_interval
        and p.scope >= q.scope
        and p.shaping_strength >= q.shaping_strength - 1e-12
    )


def test_dominance_over_random_pairs():
    rng = Mcg64(17)
    for _ in range(10000):
        s1, s2 = rng.next_uniform(), rng.next_uniform()
        if s1 < s2:
            s1, s2 = s2, s1
        p1, p2 = assign_policy(s1), assign_policy(s2)
        assert _dominates(p1, p2), (s1, s2, p1, p2)


# --- budget enforcement ---

MODEL = CostModel(per_byte_ms=1e-5, per_rekey_ms=0.5, shaping_delay_ms=0.0)


def entry(name, points, s):
    return (FakeCube(name, points), s, assign_policy(s))


def total_cost(entries):
    total = 0.0
    for cube, _s, pol in entries:
        in_scope = 12 * cube.num_points + (4 * cube.num_points if pol.scope is Scope.FULL_PAYLOAD else 0)
        total += in_scope * MODEL.per_byte_ms + MODEL.per_rekey_ms / pol.key_rotation_interval
    return total


def test_slack_budget_leaves_list_unchanged():
    entries = [entry("a", 100, 0.9), entry("b", 100, 0.5), entry("c", 100, 0.1)]
    adjusted, cost, exhausted = enforce_budget(entries, PolicyBudget(gamma_ms=100.0, cost_model=MODEL))
    assert not exhausted
    assert [p.level for _c, _s, p in adjusted] == [p.level for _c, _s, p in entries]


def test_starvation_forces_all_low_with_warning():
    entries = [entry("a", 1000, 0.9), entry("b", 1000, 0.8)]
    with pytest.warns(BudgetExceededWarning):
        adjusted, cost, exhausted = enforce_budget(
            entries, PolicyBudget(gamma_ms=1e-4, cost_model=MODEL)
        )
    assert exhausted
    assert all(p.level is ProtectionLevel.LOW for _c, _s, p in adjusted)


def test_downgrade_order_lowest_saliency_first():
    # gamma admits exactly two non-LOW cubes: the s=0.5 cube goes first
    entries = [entry("hi", 100, 0.9), entry("mid", 100, 0.5), entry("lo", 100, 0.2)]
    gamma = total_cost([entry("hi", 100, 0.9), entry("mid2low", 100, 0.2), entry("lo", 100, 0.2)]) + 1e-9
    adjusted, cost, exhausted = enforce_budget(
        entries, PolicyBudget(gamma_ms=gamma, cost_model=MODEL)
    )
    assert not exhausted
    by_name = {c.name: p for c, _s, p in adjusted}
    assert by_name["hi"].level is ProtectionLevel.HIGH
    assert by_name["mid"].level is ProtectionLevel.LOW
    assert by_name["lo"].level is ProtectionLevel.LOW


def test_downgrade_matches_reference_simulation():
    """The implementation's result equals an independent step-by-step
    simulation of the documented policy: while over budget, downgrade the
    lowest-saliency cube above LOW by exactly one level."""
    for gamma_scale in (0.9, 0.7, 0.5, 0.3, 0.12):
        entries = [entry("a", 120, 0.9), entry("b", 80, 0.5), entry("c", 60, 0.2)]
        gamma = total_cost(entries) * gamma_scale
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BudgetExceededWarning)
            adjusted, cost, exhausted = enforce_budget(
                entries, PolicyBudget(gamma_ms=gamma, cost_model=MODEL)
            )

        # reference oracle, written against the documented rule
        ref = [(c, s, p) for c, s, p in entries]
        while total_cost(ref) > gamma:
            cands = [(s, i) for i, (_c, s, p) in enumerate(ref) if p.level > ProtectionLevel.LOW]
            if not cands:
                break
            _s, i = min(cands)
            cube, s, pol = ref[i]
            lv = ProtectionLevel(pol.level - 1)
            interval = {0: 6, 1: 3, 2: 1}[int(lv)]
            scope = Scope.GEOMETRY_ONLY if lv is ProtectionLevel.LOW else Scope.FULL_PAYLOAD
            ref[i] = (cube, s, type(pol)(lv, interval, scope, pol.shaping_strength))

        assert [p.level for _c, _s, p in adjusted] == [p.level for _c, _s, p in ref]
        if not exhausted:
            assert cost <= gamma


def test_downgrade_lands_on_next_row_with_sigma_kept():
    cube = FakeCube("a", 100)
    for s in (0.9, 0.5):  # shaped HIGH, unshaped MED
        pol = assign_policy(s, CUSTOM)
        budget = PolicyBudget(gamma_ms=total_cost([(cube, s, pol)]) - 1e-9, cost_model=MODEL)
        adjusted, _cost, exhausted = enforce_budget([(cube, s, pol)], budget, cfg=CUSTOM)
        assert not exhausted
        new = adjusted[0][2]
        row = CUSTOM.levels[pol.level - 1]
        assert new == ProtectionPolicy(row.level, row.key_rotation_interval, row.scope, pol.shaping_strength)
        if pol.shaping_strength == 0.0:
            assert new is row


def test_budget_entry_without_point_count_raises():
    with pytest.raises(AttributeError):
        enforce_budget([(object(), 0.5, assign_policy(0.5))], PolicyBudget(cost_model=MODEL))


def test_budget_preserves_dominance():
    rng = Mcg64(23)
    for _ in range(50):
        entries = [entry(str(i), 50 + int(rng.next_uniform() * 100), rng.next_uniform()) for i in range(6)]
        gamma = total_cost(entries) * rng.uniform(0.3, 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BudgetExceededWarning)
            adjusted, _cost, _exhausted = enforce_budget(
                entries, PolicyBudget(gamma_ms=gamma, cost_model=MODEL)
            )
        for (_c1, s1, p1) in adjusted:
            for (_c2, s2, p2) in adjusted:
                if s1 > s2:
                    assert p1.level >= p2.level, "budget broke level monotonicity"


def test_budget_idempotent():
    entries = [entry("a", 120, 0.9), entry("b", 80, 0.5), entry("c", 60, 0.2)]
    gamma = total_cost(entries) * 0.7
    budget = PolicyBudget(gamma_ms=gamma, cost_model=MODEL)
    once, cost1, _ = enforce_budget(entries, budget)
    twice, cost2, _ = enforce_budget(once, budget)
    assert cost1 == cost2
    assert [p for _c, _s, p in once] == [p for _c, _s, p in twice]


def test_policy_config_validation():
    with pytest.raises(ConfigError):
        PolicyConfig(t_low=0.7, t_high=0.6)
    with pytest.raises(ConfigError):
        PolicyConfig(interval_high=4, interval_med=2, interval_low=6)
    with pytest.raises(ConfigError):
        PolicyConfig(theta=1.5)
    PolicyConfig()
