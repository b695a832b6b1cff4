"""Property tests: both scene codecs round-trip random finite world configs exactly."""

import json

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim.scene import (  # noqa: E402
    config_from_dict,
    config_from_text,
    config_to_dict,
    config_to_text,
)
from skillsim.kinematics import JOINT_HIGH, JOINT_LOW  # noqa: E402
from skillsim.sim import Box, CameraIntrinsics, ObjectSpec, WorldConfig  # noqa: E402

finite = st.floats(allow_nan=False, allow_infinity=False)
# the decoders parse each field with its parser, so these stay in its domain
positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
non_negative = st.floats(min_value=0.0, allow_infinity=False)
vec3 = st.lists(finite, min_size=3, max_size=3)
extents = st.lists(positive, min_size=3, max_size=3)
joints = st.tuples(*(st.floats(lo, hi) for lo, hi in zip(JOINT_LOW.tolist(), JOINT_HIGH.tolist())))
ids = st.from_regex(r"[a-z][a-z0-9_]{0,7}", fullmatch=True)


@st.composite
def world_configs(draw):
    object_ids = draw(st.lists(ids, min_size=1, max_size=4, unique=True))
    return WorldConfig(
        table_center=draw(vec3),
        table_size=draw(extents),
        objects=[ObjectSpec(i, draw(vec3), draw(extents), draw(vec3)) for i in object_ids],
        obstacle_boxes=draw(st.lists(st.builds(Box, vec3, extents), max_size=3)),
        camera=CameraIntrinsics(draw(st.integers(1, 4096)), draw(st.integers(1, 4096)),
                                draw(positive), draw(positive), draw(finite), draw(finite)),
        rng_seed=draw(st.integers(0, 2**63)),
        dt=draw(positive),
        depth_noise_sigma=draw(non_negative),
        robot_start=draw(vec3),
        robot_joints=draw(joints),
        target_id=draw(st.none() | st.sampled_from(object_ids)),
    )


@settings(max_examples=150, deadline=None)
@given(world_configs())
def test_scene_codecs_round_trip_exactly(config):
    text = config_to_text(config)
    assert config_to_text(config_from_text(text)) == text
    manifest = json.dumps(config_to_dict(config), sort_keys=True, indent=1)
    back = config_to_dict(config_from_dict(json.loads(manifest)))
    assert json.dumps(back, sort_keys=True, indent=1) == manifest
