"""Layer gradients against central differences; loss oracle; optimizer basics."""

import numpy as np
import pytest

from skillsim import nn
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
