"""Property: World.render equals the frozen reference renderer bit for bit
over random base poses, pitches and placements of a box in the view."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim import sim  # noqa: E402
from skillsim.scene import make_scene  # noqa: E402
from test_sim import Lockstep, view_point  # noqa: E402


@settings(max_examples=150, deadline=None)
@given(variant=st.sampled_from(("short", "long")), seed=st.integers(0, 19),
       base=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.5, 1.5), st.floats(-np.pi, np.pi)),
       pitch=st.sampled_from((0.0, np.pi / 2, sim.CameraIntrinsics().pitch_rad))
       | st.floats(-0.3, 1.8),
       target=st.none() | st.tuples(st.floats(-20, 84), st.floats(-20, 84),
                                    st.floats(-0.4, 1.6)),
       sigma=st.sampled_from((None, 0.0)))
def test_render_bit_equal_to_reference_over_random_poses(variant, seed, base, pitch, target,
                                                         sigma):
    cfg = make_scene(seed, variant)
    cfg.camera.pitch_rad = pitch
    run = Lockstep(cfg)
    run.set_base(base)
    if target is not None:  # box0 moved to a point along a ray of the view, or behind it
        run.move_object("box0", view_point(run.world, *target))
    run.render(sigma)
