"""Property test: the k-NN mean distances equal the frozen brute-force kernel, bit for bit."""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from skillsim.perception import _knn_mean_distances  # noqa: E402
from test_perception import knn_mean_distances_blocked_reference  # noqa: E402

blob = st.tuples(
    st.integers(1, 80),                                      # points
    st.lists(st.floats(-50, 50), min_size=3, max_size=3),    # center
    st.sampled_from([0.0, 1e-6, 1e-3, 0.02, 0.3, 5.0]),      # spread, 0 for duplicates
)


@st.composite
def clouds_and_k(draw):
    """Mixed dense and sparse blobs, sometimes rounded to force ties, and k in [1, n-1]."""
    blobs = draw(st.lists(blob, min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pos = np.concatenate([rng.normal(c, s, (m, 3)) for m, c, s in blobs])
    decimals = draw(st.none() | st.integers(0, 3))
    if decimals is not None:
        pos = np.round(pos, decimals)
    pos = pos[rng.permutation(len(pos))]
    hypothesis.assume(len(pos) >= 2)
    return pos, draw(st.integers(1, len(pos) - 1))


@settings(max_examples=150, deadline=None)
@given(clouds_and_k())
def test_knn_mean_distances_equal_frozen_reference(case):
    pos, k = case
    assert np.array_equal(_knn_mean_distances(pos, k),
                          knn_mean_distances_blocked_reference(pos, k))
