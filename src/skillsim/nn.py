"""Minimal reverse-mode neural network layers on numpy.

Each layer stores what its backward pass needs during forward and
accumulates parameter gradients into Param.grad. float32 is the training
dtype; float64 is used for finite-difference gradient verification.
"""

from __future__ import annotations

import numpy as np


class TrainingDiverged(RuntimeError):
    """Non-finite loss or parameters encountered during training."""


class Param:
    __slots__ = ("value", "grad")

    def __init__(self, value: np.ndarray):
        self.value = value
        self.grad = np.zeros_like(value)


def xavier(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape).astype(dtype)


class Dense:
    def __init__(self, n_in: int, n_out: int, rng: np.random.Generator, dtype=np.float32):
        self.W = Param(xavier(rng, (n_in, n_out), n_in, n_out, dtype))
        self.b = Param(np.zeros(n_out, dtype=dtype))
        self._x = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._x = x
        return x @ self.W.value + self.b.value

    def backward(self, dout: np.ndarray) -> np.ndarray:
        self.W.grad += self._x.T @ dout
        self.b.grad += dout.sum(axis=0)
        return dout @ self.W.value.T

    def named_params(self, prefix: str):
        return [(f"{prefix}.W", self.W), (f"{prefix}.b", self.b)]


class ReLU:
    def __init__(self):
        self._mask = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return x * self._mask

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout * self._mask

    def named_params(self, prefix: str):
        return []


class Flatten:
    def __init__(self):
        self._shape = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(self._shape)

    def named_params(self, prefix: str):
        return []


class Reshape:
    """Reshape (N, flat) into (N, h, w, c)."""

    def __init__(self, h: int, w: int, c: int):
        self.hwc = (h, w, c)

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.reshape(x.shape[0], *self.hwc)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        return dout.reshape(dout.shape[0], -1)

    def named_params(self, prefix: str):
        return []


class Upsample2x:
    """Nearest-neighbor 2x upsampling over (N, H, W, C).

    backward adds the four phases of each 2x2 block into a zeroed buffer in
    the order (0,0), (0,1), (1,0), (1,1). That is the order and the +0 start
    of `sum(axis=(2, 4))` over the phase axes, so its bits are the same:
    four -0 phases give +0. The phases are strided views and the buffer
    takes dout's memory order, so a gradient that Conv2d.backward left with
    n innermost is not copied.
    """

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x.repeat(2, axis=1).repeat(2, axis=2)

    def backward(self, dout: np.ndarray) -> np.ndarray:
        dx = np.zeros_like(dout[:, ::2, ::2])
        for a in range(2):
            for b in range(2):
                dx += dout[:, a::2, b::2]
        return dx

    def named_params(self, prefix: str):
        return []


class Conv2d:
    """3x3 convolution over NHWC via im2col, zero padding of 1.

    Exactness contract (tests/test_nn.py pins it to frozen copies of the
    earlier kernels, bit for bit, with ±0 among the values):
    - forward copies one strided window view of the padded input, in (n, ho,
      wo, di, dj, channel) order, into the im2col matrix: one row per output
      pixel, columns in (di, dj, channel) order. It returns `cols @ W + b`.
    - backward adds `cols.T @ dout` to W's gradient and dout's column sums
      to b's, over the rows in forward's (n, ho, wo) order.
    - For the input gradient, backward puts the output pixels in (ho, wo, n)
      order. One tap-major product `W @ dout.T` forms all nine taps as
      (9, c, ho, wo, n). Its elements have the bits of the reference's
      `dout @ W.T` on every layer shape of the autoencoders; only BLAS fixes
      them, so `test_conv_bit_equal_to_reference` and the hypothesis property
      `test_conv_bit_equal_to_reference_property` pin them.
    - With c_out = 1 that product has K = 1, and the taps are the broadcast
      product `W * dout.T`. Each is one rounding, as in BLAS, except that a
      BLAS sum from +0 turns a -0 product into +0. No sum below can tell:
      it starts at +0, a sum that starts at +0 is never -0, and adding ±0 to
      it changes no bit.
    - The taps are added into a zeroed (c, H+2, W+2, n) buffer in (di, dj)
      order, so every input pixel sums its taps in that order from +0. Each
      add runs over rows of w·n contiguous floats at stride 1. The input
      gradient is an (n, h, w, c) view of that buffer, n innermost in memory.
    - `backward(dout, input_grad=False)` adds the same W and b gradients,
      forms no input gradient and returns None: for a first layer, whose
      input gradient nobody reads.
    """

    k = 3
    pad = 1

    def __init__(self, c_in: int, c_out: int, rng: np.random.Generator,
                 stride: int = 1, dtype=np.float32):
        self.c_in, self.c_out = c_in, c_out
        self.stride = stride
        fan_in = self.k * self.k * c_in
        self.W = Param(xavier(rng, (fan_in, c_out), fan_in, c_out, dtype))
        self.b = Param(np.zeros(c_out, dtype=dtype))
        self._cols = None
        self._x_shape = None

    def _out_hw(self, h: int, w: int):
        ho = (h + 2 * self.pad - self.k) // self.stride + 1
        wo = (w + 2 * self.pad - self.k) // self.stride + 1
        return ho, wo

    def forward(self, x: np.ndarray) -> np.ndarray:
        n, h, w, c = x.shape
        ho, wo = self._out_hw(h, w)
        k, s, p = self.k, self.stride, self.pad
        xp = np.zeros((n, h + 2 * p, w + 2 * p, c), dtype=x.dtype)
        xp[:, p:p + h, p:p + w] = x
        sn, sh, sw, sc = xp.strides
        windows = np.ndarray((n, ho, wo, k, k, c), xp.dtype, buffer=xp,
                             strides=(sn, s * sh, s * sw, sh, sw, sc))
        windows.flags.writeable = False
        self._cols = windows.reshape(n * ho * wo, k * k * c)
        self._x_shape = x.shape
        out = self._cols @ self.W.value + self.b.value
        return out.reshape(n, ho, wo, self.c_out)

    def backward(self, dout: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        n, h, w, c = self._x_shape
        ho, wo = self._out_hw(h, w)
        k, s, p = self.k, self.stride, self.pad
        d2 = dout.reshape(-1, self.c_out)
        self.W.grad += self._cols.T @ d2
        self.b.grad += d2.sum(axis=0)
        if not input_grad:
            return None
        dT = dout.transpose(3, 1, 2, 0).reshape(self.c_out, ho * wo * n)
        W = self.W.value
        taps = (W * dT if self.c_out == 1 else W @ dT).reshape(k * k, c, ho, wo, n)
        dxp = np.zeros((c, h + 2 * p, w + 2 * p, n), dtype=dout.dtype)
        for di in range(k):
            for dj in range(k):
                dxp[:, di:di + ho * s:s, dj:dj + wo * s:s] += taps[di * k + dj]
        return dxp[:, p:p + h, p:p + w].transpose(3, 1, 2, 0)

    def named_params(self, prefix: str):
        return [(f"{prefix}.W", self.W), (f"{prefix}.b", self.b)]


class Sequential:
    def __init__(self, layers: list):
        self.layers = layers

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, dout: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            dout = layer.backward(dout)
        return dout

    def named_params(self, prefix: str = "net"):
        out = []
        for i, layer in enumerate(self.layers):
            out.extend(layer.named_params(f"{prefix}.{i}"))
        return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function without overflow. With e = exp(-|x|), it is
    1 / (1 + e) where x >= 0, -0 included, and e / (1 + e) elsewhere: per
    element the operations of exp(-x) and exp(x) on the two sides of 0."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class LSTMCell:
    """Single recurrent cell with input/forget/output/candidate gates.

    Gate pre-activations are z = x @ Wx + h @ Wh + b, summed left to right,
    with the four gates packed along the last axis in (i, f, o, g) order.
    step() applies one sigmoid to the (i, f, o) block and tanh to g, and
    returns the new hidden and cell state plus a cache, whose first element
    is the input x, for backward_step(). backward_step() adds x.T @ dz,
    h.T @ dz and dz's column sums to the gradients, one step at a time, and
    returns the gradients of the previous h and c. No caller needs one for x,
    so none is formed.

    x @ Wx is formed per step, not once per window: at batch 1 it runs as a
    matrix-vector product, whose bits differ from those of the matching rows
    of one window-wide product.
    """

    def __init__(self, n_in: int, n_hidden: int, rng: np.random.Generator, dtype=np.float32):
        self.n_in, self.n_hidden = n_in, n_hidden
        self.Wx = Param(xavier(rng, (n_in, 4 * n_hidden), n_in, n_hidden, dtype))
        self.Wh = Param(xavier(rng, (n_hidden, 4 * n_hidden), n_hidden, n_hidden, dtype))
        b = np.zeros(4 * n_hidden, dtype=dtype)
        b[n_hidden:2 * n_hidden] = 1.0  # forget-gate bias
        self.b = Param(b)

    def zero_state(self, batch: int):
        dtype = self.Wx.value.dtype
        return (np.zeros((batch, self.n_hidden), dtype=dtype),
                np.zeros((batch, self.n_hidden), dtype=dtype))

    def step(self, x: np.ndarray, h: np.ndarray, c: np.ndarray):
        nh = self.n_hidden
        z = x @ self.Wx.value + h @ self.Wh.value + self.b.value
        ifo = _sigmoid(z[:, :3 * nh])
        i, f, o = ifo[:, :nh], ifo[:, nh:2 * nh], ifo[:, 2 * nh:]
        g = np.tanh(z[:, 3 * nh:])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h_new = o * tanh_c
        cache = (x, h, c, i, f, o, g, tanh_c)
        return h_new, c_new, cache

    def backward_step(self, dh: np.ndarray, dc: np.ndarray, cache):
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
        self.Wx.grad += x.T @ dz
        self.Wh.grad += h.T @ dz
        self.b.grad += dz.sum(axis=0)
        dh_prev = dz @ self.Wh.value.T
        return dh_prev, dc_prev

    def named_params(self, prefix: str):
        return [(f"{prefix}.Wx", self.Wx), (f"{prefix}.Wh", self.Wh), (f"{prefix}.b", self.b)]


def loss_mse(pred: np.ndarray, target: np.ndarray):
    """Mean of elementwise squared differences and its gradient w.r.t. pred."""
    if pred.shape != target.shape:
        raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    n = diff.size
    loss = float(np.sum(diff.astype(np.float64) ** 2) / n)
    return loss, (2.0 / n) * diff


class Adam:
    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: list, lr: float):
        self.params = params
        self.lr = lr
        self.m = [np.zeros_like(p.value) for p in params]
        self.v = [np.zeros_like(p.value) for p in params]
        self.t = 0

    def zero_grad(self):
        for p in self.params:
            p.grad[...] = 0.0

    def step(self):
        self.t += 1
        b1t = 1.0 - self.beta1 ** self.t
        b2t = 1.0 - self.beta2 ** self.t
        for p, m, v in zip(self.params, self.m, self.v):
            m[...] = self.beta1 * m + (1.0 - self.beta1) * p.grad
            v[...] = self.beta2 * v + (1.0 - self.beta2) * (p.grad * p.grad)
            p.value -= (self.lr * (m / b1t) / (np.sqrt(v / b2t) + self.eps)).astype(
                p.value.dtype
            )


def clip_grad_norm(params: list, max_norm: float) -> float:
    """Scale all gradients so their joint L2 norm is at most max_norm."""
    total = 0.0
    for p in params:
        total += float(np.sum(p.grad.astype(np.float64) ** 2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for p in params:
            p.grad *= scale
    return norm


def check_finite(named_params: list, context: str):
    for name, p in named_params:
        if not np.all(np.isfinite(p.value)):
            raise TrainingDiverged(f"non-finite values in {name} ({context})")
