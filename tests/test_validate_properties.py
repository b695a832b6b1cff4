"""Property: a NaN or infinite float in ExpertParams (its perception leaves
included), TrainConfig or CameraIntrinsics raises a ValueError naming the
field before any run, transcript or model exists."""

from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim import (CameraIntrinsics, ExpertParams, PerceptionParams, World,  # noqa: E402
                      make_short_scene, run_expert)
from skillsim.training import TrainConfig, train_autoencoder, train_predictor  # noqa: E402


def float_fields(cls):
    return [f.name for f in fields(cls) if isinstance(f.default, float)]


LEAVES = ([("expert", name) for name in float_fields(ExpertParams)]
          + [("perception", name) for name in float_fields(PerceptionParams)]
          + [("learner", name) for name in float_fields(TrainConfig)]
          + [("camera", name) for name in float_fields(CameraIntrinsics)])


def test_every_float_leaf_is_drawn():
    assert len(LEAVES) == 5 + 3 + 2 + 4


@settings(max_examples=60, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from((np.nan, np.inf, -np.inf)))
def test_a_non_finite_float_leaf_is_rejected_naming_it(leaf, value):
    section, name = leaf
    message = "^" + ("camera." if section == "camera" else "") + name + " must"
    if section == "learner":
        config = TrainConfig(**{name: value})
        # with no episodes, anything past validation raises another ValueError
        with pytest.raises(ValueError, match=message):
            train_autoencoder([], "rgb", None, config)
        with pytest.raises(ValueError, match=message):
            train_predictor([], None, None, None, config)
        return
    cfg = make_short_scene(0)
    if section == "camera":
        setattr(cfg.camera, name, value)
        with pytest.raises(ValueError, match=message):
            World(cfg)
        return
    params = (ExpertParams(**{name: value}) if section == "expert"
              else ExpertParams(perception=PerceptionParams(**{name: value})))
    with pytest.raises(ValueError, match=message):
        params.validate()
    world = World(cfg)
    with pytest.raises(ValueError, match=message):
        run_expert(world, "short", params)
    # no tick ran: the world is where it started
    assert np.array_equal(world.state.base, cfg.robot_start)
    assert np.array_equal(world.state.joints, cfg.robot_joints)
