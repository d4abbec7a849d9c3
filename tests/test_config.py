"""Every config checks its values when it is built: one bad field raises at
construction, and through dataclasses.replace from a valid instance, with
the exception type that config has always raised."""

from dataclasses import replace

import pytest

from privis.bench import RunConfig
from privis.errors import ConfigError, ValidationError
from privis.frame_io import SceneSpec
from privis.leakage import LeakageConfig
from privis.netw import NetConfig
from privis.partition import PartitionConfig
from privis.policy import PolicyBudget, PolicyConfig
from privis.saliency import SaliencyConfig
from privis.shaping import ShapingConfig

SCENE = dict(seed=1, frame_count=2, points_per_frame=100, sensitive_fraction=0.1, motion_amplitude=0.0)

# (config class, fields of a valid instance, one bad field, exception type)
CASES = [
    (SceneSpec, SCENE, {"frame_count": 0}, ValidationError),
    (PartitionConfig, {}, {"target_cubes": 0}, ValidationError),
    (SaliencyConfig, {}, {"alpha": 1.5}, ValidationError),
    (PolicyConfig, {}, {"theta": 1.5}, ConfigError),
    (PolicyBudget, {}, {"gamma_ms": 0.0}, ConfigError),
    (ShapingConfig, {}, {"bucket_bytes": 0}, ConfigError),
    (NetConfig, {}, {"mtu": 10}, ConfigError),
    (LeakageConfig, {}, {"window_frames": 0}, ConfigError),
    (RunConfig, {"mode": "privis", "scene": SceneSpec(**SCENE)}, {"mode": "bogus"}, ConfigError),
]


@pytest.mark.parametrize("cls, good, bad, error", CASES, ids=[c[0].__name__ for c in CASES])
def test_bad_field_raises_when_the_config_is_built(cls, good, bad, error):
    valid = cls(**good)
    with pytest.raises(error) as built:
        cls(**{**good, **bad})
    with pytest.raises(error) as replaced:
        replace(valid, **bad)
    assert type(built.value) is type(replaced.value) is error
