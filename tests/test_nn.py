"""Layer gradients against central differences; loss oracle; optimizer basics;
the layers against frozen copies of their earlier kernels, bit for bit."""

import copy

import numpy as np
import pytest

from skillsim import nn
from skillsim.models import Autoencoder
from skillsim.training import GRADCHECK_KINDS, gradcheck


def test_loss_mse_zero_at_equality():
    x = np.array([1.0, 2.0, 3.0])
    loss, grad = nn.loss_mse(x, x.copy())
    assert loss == 0.0
    assert np.all(grad == 0.0)


def test_loss_mse_hand_value():
    loss, _ = nn.loss_mse(np.array([1.0, 0.0]), np.array([0.0, 0.0]))
    assert loss == pytest.approx(0.5)


def test_loss_mse_symmetric_and_nonnegative():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(7, 3))
    b = rng.normal(size=(7, 3))
    la, _ = nn.loss_mse(a, b)
    lb, _ = nn.loss_mse(b, a)
    assert la == pytest.approx(lb, rel=1e-15)
    assert la >= 0


def test_loss_mse_matches_scalar_loop_oracle():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(5, 4, 3))
    b = rng.normal(size=(5, 4, 3))
    loss, _ = nn.loss_mse(a, b)
    total = 0.0
    count = 0
    for i in np.ndindex(a.shape):
        total += (a[i] - b[i]) ** 2
        count += 1
    assert loss == pytest.approx(total / count, abs=1e-12)


def test_loss_mse_shape_mismatch():
    with pytest.raises(ValueError, match="shape mismatch"):
        nn.loss_mse(np.zeros(3), np.zeros(4))


@pytest.mark.parametrize("kind", GRADCHECK_KINDS)
def test_gradcheck_all_kinds(kind):
    result = gradcheck(kind, seed=0)
    assert result.passed, f"{kind}: max rel err {result.max_rel_err:.3e}"


def test_gradcheck_mse_is_nearly_exact():
    assert gradcheck("mse", seed=0).max_rel_err < 1e-10


def test_clip_grad_norm_scales_down():
    p = nn.Param(np.zeros(4))
    p.grad = np.array([3.0, 4.0, 0.0, 0.0])
    norm = nn.clip_grad_norm([p], 1.0)
    assert norm == pytest.approx(5.0)
    assert np.linalg.norm(p.grad) == pytest.approx(1.0)
    q = nn.Param(np.zeros(2))
    q.grad = np.array([0.1, 0.0])
    nn.clip_grad_norm([q], 1.0)
    assert q.grad[0] == pytest.approx(0.1)  # under the cap: untouched


def test_adam_converges_on_quadratic():
    rng = np.random.default_rng(2)
    p = nn.Param(rng.normal(size=3).astype(np.float64))
    target = np.array([1.0, -2.0, 0.5])
    opt = nn.Adam([p], lr=0.05)
    for _ in range(500):
        opt.zero_grad()
        p.grad += 2 * (p.value - target)
        opt.step()
    assert np.allclose(p.value, target, atol=1e-3)


def test_check_finite_raises_with_name():
    p = nn.Param(np.array([1.0, np.nan]))
    with pytest.raises(nn.TrainingDiverged, match="layer.W"):
        nn.check_finite([("layer.W", p)], "epoch 3")


def test_upsample_forward_exact():
    x = np.arange(8, dtype=float).reshape(1, 2, 2, 2)
    up = nn.Upsample2x()
    y = up.forward(x)
    assert y.shape == (1, 4, 4, 2)
    assert np.all(y[0, :2, :2, 0] == x[0, 0, 0, 0])
    down = up.backward(np.ones_like(y))
    assert np.all(down == 4.0)


def test_conv_output_shapes():
    rng = np.random.default_rng(3)
    conv = nn.Conv2d(3, 8, rng, stride=2)
    out = conv.forward(np.zeros((2, 32, 32, 3), dtype=np.float32))
    assert out.shape == (2, 16, 16, 8)
    back = conv.backward(np.zeros_like(out))
    assert back.shape == (2, 32, 32, 3)


def test_lstm_zero_input_closed_form():
    rng = np.random.default_rng(4)
    cell = nn.LSTMCell(3, 5, rng, dtype=np.float64)
    h0, c0 = cell.zero_state(1)
    x = np.zeros((1, 3))
    h1, c1, _ = cell.step(x, h0, c0)
    b = cell.b.value
    i = 1 / (1 + np.exp(-b[:5]))
    o = 1 / (1 + np.exp(-b[10:15]))
    g = np.tanh(b[15:])
    c_expect = i * g
    h_expect = o * np.tanh(c_expect)
    assert np.allclose(c1[0], c_expect, atol=1e-12)
    assert np.allclose(h1[0], h_expect, atol=1e-12)


# ----------------------------------------------------------------------
# frozen reference kernels: the layers as they were before the one-pass
# rewrite. The layers must match them bit for bit, signed zeros included.


def sigmoid_reference(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def conv_forward_reference(conv, x):
    """Returns (output, cols): nine strided slice writes, then one product."""
    n, h, w, c = x.shape
    ho, wo = conv._out_hw(h, w)
    k, s, p = conv.k, conv.stride, conv.pad
    xp = np.pad(x, ((0, 0), (p, p), (p, p), (0, 0)))
    cols = np.empty((n, ho, wo, k * k * c), dtype=x.dtype)
    for di in range(k):
        for dj in range(k):
            patch = xp[:, di:di + ho * s:s, dj:dj + wo * s:s, :]
            cols[..., (di * k + dj) * c:(di * k + dj + 1) * c] = patch
    cols = cols.reshape(-1, k * k * c)
    out = cols @ conv.W.value + conv.b.value
    return out.reshape(n, ho, wo, conv.c_out), cols


def conv_backward_reference(conv, cols, x_shape, dout):
    """Accumulates into conv's gradients and returns the input gradient."""
    n, h, w, c = x_shape
    ho, wo = conv._out_hw(h, w)
    k, s, p = conv.k, conv.stride, conv.pad
    d2 = dout.reshape(-1, conv.c_out)
    conv.W.grad += cols.T @ d2
    conv.b.grad += d2.sum(axis=0)
    dcols = (d2 @ conv.W.value.T).reshape(n, ho, wo, k * k * c)
    dxp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=dout.dtype)
    for di in range(k):
        for dj in range(k):
            dxp[:, di:di + ho * s:s, dj:dj + wo * s:s, :] += \
                dcols[..., (di * k + dj) * c:(di * k + dj + 1) * c]
    return dxp[:, p:p + h, p:p + w, :]


def upsample_backward_reference(dout):
    n, h2, w2, c = dout.shape
    return dout.reshape(n, h2 // 2, 2, w2 // 2, 2, c).sum(axis=(2, 4))


def lstm_step_reference(cell, x, h, c):
    nh = cell.n_hidden
    z = x @ cell.Wx.value + h @ cell.Wh.value + cell.b.value
    i = sigmoid_reference(z[:, :nh])
    f = sigmoid_reference(z[:, nh:2 * nh])
    o = sigmoid_reference(z[:, 2 * nh:3 * nh])
    g = np.tanh(z[:, 3 * nh:])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    return o * tanh_c, c_new, (x, h, c, i, f, o, g, tanh_c)


def lstm_backward_step_reference(cell, dh, dc, cache):
    """Accumulates into cell's gradients and returns (dh_prev, dc_prev)."""
    x, h, c, i, f, o, g, tanh_c = cache
    do = dh * tanh_c
    dc_total = dc + dh * o * (1.0 - tanh_c * tanh_c)
    di = dc_total * g
    df = dc_total * c
    dg = dc_total * i
    dc_prev = dc_total * f
    dz = np.concatenate([
        di * i * (1.0 - i),
        df * f * (1.0 - f),
        do * o * (1.0 - o),
        dg * (1.0 - g * g),
    ], axis=1)
    cell.Wx.grad += x.T @ dz
    cell.Wh.grad += h.T @ dz
    cell.b.grad += dz.sum(axis=0)
    return dz @ cell.Wh.value.T, dc_prev


def assert_bit_equal(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def hostile(rng, shape, dtype, scale=1.0):
    """Normal values with signed zeros, tiny and large magnitudes mixed in."""
    x = rng.normal(scale=scale, size=shape)
    pick = rng.integers(0, 8, size=shape)
    x[pick == 0] = 0.0
    x[pick == 1] = -0.0
    x[pick == 2] *= 1e4
    x[pick == 3] *= 1e-4
    return x.astype(dtype)


def with_random_grads(rng, params):
    """Start gradients from nonzero values, so accumulation is checked too."""
    for p in params:
        p.grad[...] = rng.normal(size=p.grad.shape)


DTYPES = (np.float32, np.float64)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sigmoid_bit_equal_to_reference(dtype):
    rng = np.random.default_rng(10)
    edges = np.array([0.0, -0.0, 88.0, -88.0, 1e4, -1e4, 1e-30, -1e-30,
                      np.inf, -np.inf], dtype=dtype)
    for shape in ((6, 192), (1, 192), (6, 64), (3, 7)):
        for scale in (1.0, 10.0, 100.0):
            x = hostile(rng, shape, dtype, scale)
            assert_bit_equal(nn._sigmoid(x), sigmoid_reference(x))
    assert_bit_equal(nn._sigmoid(edges), sigmoid_reference(edges))
    z = hostile(rng, (6, 256), dtype, 10.0)
    view = z[:, :192]  # a strided view, as LSTMCell.step passes it
    assert_bit_equal(nn._sigmoid(view), sigmoid_reference(view))


# (c_in, c_out, stride, input size) of every conv layer of the RGB and the
# disparity autoencoder at the learner's 32x32 input
AUTOENCODER_CONVS = [
    (3, 8, 2, 32), (1, 8, 2, 32), (8, 16, 2, 16), (16, 32, 2, 8),
    (32, 16, 1, 8), (16, 8, 1, 16), (8, 3, 1, 32), (8, 1, 1, 32),
]


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", (64, 1))
@pytest.mark.parametrize("c_in, c_out, stride, hw", AUTOENCODER_CONVS,
                         ids=[f"{a}-{b}-s{s}" for a, b, s, _ in AUTOENCODER_CONVS])
def test_conv_bit_equal_to_reference(c_in, c_out, stride, hw, n, dtype):
    rng = np.random.default_rng([c_in, c_out, stride, n])
    conv = nn.Conv2d(c_in, c_out, rng, stride=stride, dtype=dtype)
    conv.b.value[...] = rng.normal(size=c_out)
    with_random_grads(rng, [conv.W, conv.b])
    ref = copy.deepcopy(conv)
    x = hostile(rng, (n, hw, hw, c_in), dtype)
    out = conv.forward(x)
    out_ref, cols = conv_forward_reference(ref, x)
    assert_bit_equal(out, out_ref)
    dout = hostile(rng, out.shape, dtype)
    dx = conv.backward(dout)
    dx_ref = conv_backward_reference(ref, cols, x.shape, dout)
    assert_bit_equal(dx, dx_ref)
    assert_bit_equal(conv.W.grad, ref.W.grad)
    assert_bit_equal(conv.b.grad, ref.b.grad)


@pytest.mark.parametrize("dtype", DTYPES)
def test_upsample_backward_bit_equal_to_reference(dtype):
    rng = np.random.default_rng(11)
    up = nn.Upsample2x()
    for shape in ((64, 32, 32, 8), (64, 16, 16, 16), (1, 8, 8, 32), (2, 4, 6, 3)):
        for scale in (1.0, 1e6):
            dout = hostile(rng, shape, dtype, scale)
            assert_bit_equal(up.backward(dout), upsample_backward_reference(dout))
    # all four phases -0: the sum is +0
    zeros = np.full((1, 4, 4, 2), -0.0, dtype=dtype)
    assert_bit_equal(up.backward(zeros), upsample_backward_reference(zeros))


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("batch", (1, 2, 6))
def test_lstm_window_bit_equal_to_reference(batch, dtype):
    """Forward and backward through a 32-step window of the policy's 69 -> 64 cell."""
    rng = np.random.default_rng([12, batch])
    cell = nn.LSTMCell(69, 64, rng, dtype=dtype)
    cell.b.value[...] += rng.normal(size=cell.b.value.shape)
    with_random_grads(rng, [cell.Wx, cell.Wh, cell.b])
    ref = copy.deepcopy(cell)
    steps = 32
    X = hostile(rng, (batch, steps, 69), dtype, 3.0)
    h, c = cell.zero_state(batch)
    h_ref, c_ref = h.copy(), c.copy()
    caches, caches_ref = [], []
    for t in range(steps):
        h, c, cache = cell.step(X[:, t], h, c)
        h_ref, c_ref, cache_ref = lstm_step_reference(ref, X[:, t], h_ref, c_ref)
        assert_bit_equal(h, h_ref)
        assert_bit_equal(c, c_ref)
        caches.append(cache)
        caches_ref.append(cache_ref)
    dH = hostile(rng, (batch, steps, 64), dtype)
    dh, dc = np.zeros_like(h), np.zeros_like(c)
    dh_ref, dc_ref = dh.copy(), dc.copy()
    for t in reversed(range(steps)):
        dh, dc = cell.backward_step(dH[:, t] + dh, dc, caches[t])
        dh_ref, dc_ref = lstm_backward_step_reference(ref, dH[:, t] + dh_ref, dc_ref,
                                                      caches_ref[t])
        assert_bit_equal(dh, dh_ref)
        assert_bit_equal(dc, dc_ref)
    for p, p_ref in ((cell.Wx, ref.Wx), (cell.Wh, ref.Wh), (cell.b, ref.b)):
        assert_bit_equal(p.grad, p_ref.grad)


def test_conv_bit_equal_to_reference_property():
    """Any batch of 1-9 through any autoencoder conv, either dtype: output,
    input gradient and accumulated W/b gradients equal the reference's bits.
    A first layer (input_grad=False) adds the same W/b gradients and forms
    no input gradient."""
    pytest.importorskip("hypothesis")
    from hypothesis import given, settings, strategies as st

    @settings(max_examples=80, deadline=None)
    @given(n=st.integers(1, 9), shape=st.sampled_from(AUTOENCODER_CONVS),
           dtype=st.sampled_from(DTYPES), first=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def check(n, shape, dtype, first, seed):
        c_in, c_out, stride, hw = shape
        rng = np.random.default_rng(seed)
        conv = nn.Conv2d(c_in, c_out, rng, stride=stride, dtype=dtype)
        conv.W.value[...] = hostile(rng, conv.W.value.shape, dtype)
        conv.b.value[...] = hostile(rng, c_out, dtype)
        with_random_grads(rng, [conv.W, conv.b])
        ref = copy.deepcopy(conv)
        x = hostile(rng, (n, hw, hw, c_in), dtype)
        out = conv.forward(x)
        out_ref, cols = conv_forward_reference(ref, x)
        assert_bit_equal(out, out_ref)
        dout = hostile(rng, out.shape, dtype)
        dx_ref = conv_backward_reference(ref, cols, x.shape, dout)
        if first:
            assert conv.backward(dout, input_grad=False) is None
        else:
            assert_bit_equal(conv.backward(dout), dx_ref)
        assert_bit_equal(conv.W.grad, ref.W.grad)
        assert_bit_equal(conv.b.grad, ref.b.grad)

    check()


class ReferenceConv:
    """A Conv2d's parameters, run through the frozen reference kernels."""

    def __init__(self, conv):
        self.conv = conv

    def forward(self, x):
        out, self.cols = conv_forward_reference(self.conv, x)
        self.x_shape = x.shape
        return out

    def backward(self, dout):
        return conv_backward_reference(self.conv, self.cols, self.x_shape, dout)

    def named_params(self, prefix):
        return self.conv.named_params(prefix)


class ReferenceUpsample(nn.Upsample2x):
    def backward(self, dout):
        return upsample_backward_reference(dout)


@pytest.mark.parametrize("channels", (3, 1))
def test_autoencoder_adam_steps_bit_equal_to_reference_conv(channels):
    """Three training steps, as train_autoencoder takes them, leave every
    parameter with the bits of a deep copy whose convs and upsamples run the
    frozen reference kernels, and whose backward forms the first conv's
    input gradient too."""
    rng = np.random.default_rng([14, channels])
    ae = Autoencoder(channels, 32, 32, rng)
    ref = copy.deepcopy(ae)
    for seq in (ref.encoder, ref.decoder):
        seq.layers = [ReferenceConv(layer) if isinstance(layer, nn.Conv2d)
                      else ReferenceUpsample() if isinstance(layer, nn.Upsample2x)
                      else layer for layer in seq.layers]
    params = [p for _, p in ae.named_params()]
    params_ref = [p for _, p in ref.named_params()]
    opt, opt_ref = nn.Adam(params, 1e-3), nn.Adam(params_ref, 1e-3)
    for _ in range(3):
        x = rng.normal(size=(16, 32, 32, channels)).astype(np.float32)
        for model, model_backward, ps, o in (
                (ae, ae.backward, params, opt),
                (ref, lambda d: ref.encoder.backward(ref.decoder.backward(d)),
                 params_ref, opt_ref)):
            o.zero_grad()
            _, dout = nn.loss_mse(model.forward(x), x)
            model_backward(dout.astype(x.dtype))
            nn.clip_grad_norm(ps, 5.0)
            o.step()
        for p, p_ref in zip(params, params_ref):
            assert_bit_equal(p.grad, p_ref.grad)
            assert_bit_equal(p.value, p_ref.value)


# ----------------------------------------------------------------------
# what perfbench/tracer.py reads from the layers to name and size them


def test_layer_attributes_read_by_the_benchmark_tracer():
    rng = np.random.default_rng(13)
    conv = nn.Conv2d(3, 8, rng, stride=2)
    x = rng.normal(size=(2, 32, 32, 3)).astype(np.float32)
    out = conv.forward(x)
    conv.backward(np.ones_like(out))
    assert (conv.c_in, conv.c_out, conv.stride, conv.k) == (3, 8, 2, 3)
    assert conv._x_shape == x.shape
    assert conv._out_hw(32, 32) == out.shape[1:3] == (16, 16)

    cell = nn.LSTMCell(69, 64, rng)
    assert (cell.n_in, cell.n_hidden) == (69, 64)
    h, c = cell.zero_state(2)
    xs = rng.normal(size=(2, 69)).astype(np.float32)
    h, c, cache = cell.step(xs, h, c)
    assert cache[0] is xs
    # the tracer takes the cache as the third positional argument
    cell.backward_step(np.ones_like(h), np.zeros_like(c), cache)
