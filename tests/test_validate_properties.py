"""Property: a NaN or infinite float, or a bool, a fraction or a too-small
integer in an int field, of ExpertParams (its perception leaves included),
TrainConfig or CameraIntrinsics raises a ValueError naming the field before
any run, transcript or model exists."""

from dataclasses import fields

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim import (CameraIntrinsics, ExpertParams, PerceptionParams, World,  # noqa: E402
                      make_short_scene, run_expert)
from skillsim.training import TrainConfig, train_autoencoder, train_predictor  # noqa: E402

SECTIONS = (("expert", ExpertParams), ("perception", PerceptionParams),
            ("learner", TrainConfig), ("camera", CameraIntrinsics))


def leaves(kind):
    return [(section, f.name) for section, cls in SECTIONS for f in fields(cls)
            if type(f.default) is kind]


LEAVES = leaves(float)
INT_LEAVES = leaves(int)
MINIMUM = {"max_ticks": 0, "seed": 0}  # every other int field counts from 1


def test_every_float_leaf_is_drawn():
    assert len(LEAVES) == 5 + 3 + 2 + 4


def test_every_int_leaf_is_drawn():
    assert len(INT_LEAVES) == 1 + 1 + 9 + 2


@settings(max_examples=60, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from((np.nan, np.inf, -np.inf)))
def test_a_non_finite_float_leaf_is_rejected_naming_it(leaf, value):
    assert_rejected_naming_it(leaf, value)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_a_bool_fraction_or_too_small_int_leaf_is_rejected_naming_it(data):
    leaf = data.draw(st.sampled_from(INT_LEAVES))
    below = MINIMUM.get(leaf[1], 1) - 1
    assert_rejected_naming_it(leaf, data.draw(st.sampled_from((True, False, 2.5, below))))


def assert_rejected_naming_it(leaf, value):
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
