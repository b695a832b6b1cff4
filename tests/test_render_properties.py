"""Properties: World.render equals the frozen reference renderer bit for bit
over random base poses, pitches and placements of a box in the view, and over
sequences of box moves, recolors and added obstacles at a held pose."""

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


# a world point along the ray through image point (px, py): in view, off the
# image or behind the camera (see view_point)
VIEW_POINTS = st.tuples(st.floats(-20, 84), st.floats(-20, 84), st.floats(-0.4, 1.6))
# (object, where to, point along a ray, other object): "ray" moves it to the
# point, "onto" to the other object's center, where equal distances tie, and
# "back" to a center it held before
MOVES = st.tuples(st.integers(0, 9), st.sampled_from(("ray", "onto", "back")), VIEW_POINTS,
                  st.integers(0, 9))
CHANGES = st.one_of(
    st.tuples(st.just("move"), st.lists(MOVES, max_size=3)),
    st.tuples(st.just("recolor"), st.integers(0, 9), st.integers(0, 2), st.floats(0.0, 1.0)),
    st.tuples(st.just("obstacle"), VIEW_POINTS, st.floats(0.02, 0.3)),
)


@settings(max_examples=100, deadline=None)
@given(variant=st.sampled_from(("short", "long")), seed=st.integers(0, 19),
       changes=st.lists(CHANGES, max_size=6),
       base=st.tuples(st.floats(-1.0, 2.0), st.floats(-1.5, 1.5), st.floats(-np.pi, np.pi)),
       last=MOVES, sigma=st.sampled_from((None, 0.0)))
def test_render_bit_equal_to_reference_as_boxes_change_at_a_held_pose(variant, seed, changes,
                                                                      base, last, sigma):
    cfg = make_scene(seed, variant)
    run = Lockstep(cfg)
    ids = [obj.id for obj in cfg.objects]
    held = {i: [run.world.object_centers[i].copy()] for i in ids}

    def move(which, where, point, other):
        object_id = ids[which % len(ids)]
        if where == "ray":
            center = view_point(run.world, *point)
        elif where == "onto":
            center = run.world.object_centers[ids[other % len(ids)]]
        else:
            center = held[object_id][other % len(held[object_id])]
        run.move_object(object_id, center)
        held[object_id].append(np.array(center))

    run.render(sigma)
    for kind, *args in changes:
        if kind == "move":
            for m in args[0]:
                move(*m)
        elif kind == "recolor":   # written in place, as a caller may
            which, channel, value = args
            cfg.objects[which % len(ids)].color[channel] = value
        else:                     # appended to the config after World()
            point, half = args
            cfg.obstacle_boxes.append(sim.Box(view_point(run.world, *point), np.full(3, half)))
        run.render(sigma)
    run.render(sigma)
    run.set_base(base)
    run.render(sigma)
    move(*last)
    run.render(sigma)
