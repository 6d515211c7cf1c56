"""Minimal float64 neural-network core for the hovering policy and critic.

Implements exactly what the two networks need: dense layers, a gated
recurrent unit, valid-padding 2-D convolution, independent two-way softmax
heads, exact backpropagation through time over full episodes, Adam-style
moment updates, and a checkpoint format that round-trips bit-exactly.

Everything is plain numpy. Time-major batches: sequences are (T, B, ...)
and single steps are (B, ...).
"""

from __future__ import annotations

import json
import os
from collections import OrderedDict

import numpy as np

from .errors import ConfigurationError
from .lidar import GRID_SIZE

CHECKPOINT_VERSION = 1


# --------------------------------------------------------------------------
# Initializers

def orthogonal_init(
    rng: np.random.Generator | None, shape: tuple[int, int], gain: float = 1.0
) -> np.ndarray:
    """Orthogonal matrix via QR with a deterministic sign convention,
    row-major whatever its shape: ``x @ W`` runs faster on a row-major
    ``W``, and QR hands wide shapes back transposed. Without `rng`, zeros
    for a checkpoint to fill: nothing is drawn and no QR runs."""
    if rng is None:
        return np.zeros(shape)
    rows, cols = shape
    n, m = max(rows, cols), min(rows, cols)
    q, r = np.linalg.qr(rng.standard_normal((n, m)))
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return np.multiply(gain, q[:rows, :cols], order="C")


def conv_init(rng: np.random.Generator | None, k: int, c_in: int, c_out: int) -> np.ndarray:
    """Fan-in scaled normal, sized for rectified-linear activations.
    Without `rng`, zeros for a checkpoint to fill."""
    if rng is None:
        return np.zeros((k, k, c_in, c_out))
    fan_in = k * k * c_in
    return rng.standard_normal((k, k, c_in, c_out)) * np.sqrt(2.0 / fan_in)


# --------------------------------------------------------------------------
# Layers

class Linear:
    def __init__(self, rng: np.random.Generator | None, n_in: int, n_out: int, gain: float = 1.0):
        self.W = orthogonal_init(rng, (n_in, n_out), gain)
        self.b = np.zeros(n_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x @ self.W + self.b, x

    def accumulate(self, dy: np.ndarray, x: np.ndarray) -> None:
        """Adds the parameter gradients for upstream ``dy`` at input ``x``."""
        self.gW += x.T @ dy
        self.gb += dy.sum(axis=0)

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.accumulate(dy, x)
        return dy @ self.W.T

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> dict[str, np.ndarray]:
        return {"W": self.gW, "b": self.gb}


class Conv2D:
    """Valid-padding convolution on channel-last (B, H, W, C) inputs.

    The cache is the input itself; backward rebuilds the patches from it
    rather than keeping them, which is cheaper than holding k*k copies of
    every activation across a whole episode.
    """

    def __init__(
        self, rng: np.random.Generator | None, c_in: int, c_out: int, kernel: int, stride: int
    ):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.W = conv_init(rng, kernel, c_in, c_out)
        self.b = np.zeros(c_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def out_size(self, size: int) -> int:
        return (size - self.kernel) // self.stride + 1

    def _patches(self, x: np.ndarray) -> np.ndarray:
        """(B, H, W, C) -> (B*ho*wo, k*k*C), columns ordered (di, dj, channel).

        The windows are a strided view of the input's buffer, made by the
        ndarray constructor, which costs less per call than as_strided; a
        buffer must be contiguous, so a strided input is copied first.
        """
        x = np.ascontiguousarray(x)
        B, hi, wi, c = x.shape
        k, s = self.kernel, self.stride
        sb, sh, sw, sc = x.strides
        shape = (B, self.out_size(hi), self.out_size(wi), k, k, c)
        windows = np.ndarray(shape, x.dtype, x, 0, (sb, sh * s, sw * s, sh, sw, sc))
        return windows.reshape(-1, k * k * c)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if x.ndim != 4 or x.shape[3] != self.c_in:
            raise ConfigurationError(
                f"conv input must be (B, H, W, {self.c_in}), got {x.shape}"
            )
        ho, wo = self.out_size(x.shape[1]), self.out_size(x.shape[2])
        y = self._patches(x) @ self.W.reshape(-1, self.c_out) + self.b
        return y.reshape(x.shape[0], ho, wo, self.c_out), x

    def accumulate(self, dy: np.ndarray, x: np.ndarray) -> None:
        """Adds the parameter gradients for upstream ``dy`` at input ``x``."""
        flat_dy = dy.reshape(-1, self.c_out)
        self.gW += (self._patches(x).T @ flat_dy).reshape(self.W.shape)
        self.gb += flat_dy.sum(axis=0)

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.accumulate(dy, x)
        B, ho, wo, _ = dy.shape
        k, s, c = self.kernel, self.stride, self.c_in
        dP = (dy.reshape(-1, self.c_out) @ self.W.reshape(-1, self.c_out).T)
        dP = dP.reshape(B, ho, wo, k, k, c)
        dx = np.zeros(x.shape)
        for di in range(k):
            for dj in range(k):
                dx[:, di:di + (ho - 1) * s + 1:s, dj:dj + (wo - 1) * s + 1:s, :] += \
                    dP[:, :, :, di, dj]
        return dx

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> dict[str, np.ndarray]:
        return {"W": self.gW, "b": self.gb}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 0.5 + 0.5 * np.tanh(0.5 * x)


class GRUCell:
    """Gated recurrent unit: h' = z*h + (1-z)*tanh(Wh x + Uh (r*h) + bh).

    A saturated update gate (z -> 1) carries the hidden state through
    unchanged; z -> 0 with r -> 1 reduces to a feedforward tanh layer.

    The gate matrices live in fused buffers, ``W = [Wz|Wr|Wh]``,
    ``U = [Uz|Ur]`` and ``b = [bz|br|bh]``, so a sequence projects its inputs
    for every step in one product and each step needs one product for both
    gates. ``Wz`` ... ``bh`` and their gradients ``gWz`` ... ``gbh`` are
    views into those buffers.
    """

    NAMES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")

    def __init__(self, rng: np.random.Generator | None, n_in: int, n_hidden: int):
        self.n_in, self.n_hidden = n_in, n_hidden
        H = n_hidden
        Wz, Uz = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        Wr, Ur = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        Wh, Uh = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        self.W = np.concatenate([Wz, Wr, Wh], axis=1)
        self.U, self.Uh = np.concatenate([Uz, Ur], axis=1), Uh
        self.b = np.zeros(3 * H)
        self.gW, self.gU, self.gUh, self.gb = (
            np.zeros_like(a) for a in (self.W, self.U, self.Uh, self.b)
        )
        for prefix, (W, U, Uh, b) in (("", (self.W, self.U, self.Uh, self.b)),
                                      ("g", (self.gW, self.gU, self.gUh, self.gb))):
            views = dict(
                Wz=W[:, :H], Uz=U[:, :H], bz=b[:H],
                Wr=W[:, H:2 * H], Ur=U[:, H:], br=b[H:2 * H],
                Wh=W[:, 2 * H:], Uh=Uh, bh=b[2 * H:],
            )
            for name, view in views.items():
                setattr(self, prefix + name, view)

    def forward_sequence(self, xs: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        """T steps from (T, B, n_in) inputs and the (B, H) start state.

        Returns the (T+1, B, H) states, the start state first, and the
        backward cache.
        """
        T, B = xs.shape[0], xs.shape[1]
        H = self.n_hidden
        gx = (xs.reshape(T * B, -1) @ self.W + self.b).reshape(T, B, 3 * H)
        hs = np.empty((T + 1, B, H))
        hs[0] = h
        zr = np.empty((T, B, 2 * H))
        c = np.empty((T, B, H))
        for t in range(T):
            zr[t] = _sigmoid(gx[t, :, :2 * H] + h @ self.U)
            z, r = zr[t, :, :H], zr[t, :, H:]
            c[t] = np.tanh(gx[t, :, 2 * H:] + (r * h) @ self.Uh)
            h = hs[t + 1] = z * h + (1.0 - z) * c[t]
        return hs, (xs, hs, zr, c)

    def backward_sequence(self, dhs: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through time from the (T, B, H) gradients that
        reach each step's output from above.

        Accumulates parameter gradients; returns the (T, B, n_in) input
        gradients and the gradient wrt the start state.
        """
        xs, hs, zr, c = cache
        T, B, H = dhs.shape
        h_prev, z, r = hs[:-1], zr[..., :H], zr[..., H:]
        # Per-step factors that do not depend on the incoming gradient.
        dc_factor = (1.0 - z) * (1.0 - c * c)
        dz_factor = (h_prev - c) * z * (1.0 - z)
        dr_factor = h_prev * r * (1.0 - r)
        # Contiguous transposes: products with them run about twice as fast.
        UT, UhT = self.U.T.copy(), self.Uh.T.copy()
        da = np.empty((T, B, 3 * H))  # wrt the z, r and candidate pre-activations
        dh = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh += dhs[t]
            da_z, da_r, da_c = da[t, :, :H], da[t, :, H:2 * H], da[t, :, 2 * H:]
            np.multiply(dh, dc_factor[t], out=da_c)
            drh = da_c @ UhT
            np.multiply(dh, dz_factor[t], out=da_z)
            np.multiply(drh, dr_factor[t], out=da_r)
            dh = dh * z[t] + drh * r[t] + da[t, :, :2 * H] @ UT
        n = T * B
        da = da.reshape(n, 3 * H)
        h_prev = h_prev.reshape(n, H)
        self.gW += xs.reshape(n, -1).T @ da
        self.gb += da.sum(axis=0)
        self.gU += h_prev.T @ da[:, :2 * H]
        self.gUh += (r.reshape(n, H) * h_prev).T @ da[:, 2 * H:]
        return (da @ self.W.T).reshape(T, B, -1), dh

    def forward(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One step: (B, n_in) + (B, H) -> new (B, H) state and cache."""
        hs, cache = self.forward_sequence(x[None], h)
        return hs[1], cache

    def backward(self, dh_new: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Returns (dx, dh) and accumulates parameter gradients."""
        dxs, dh = self.backward_sequence(dh_new[None], cache)
        return dxs[0], dh

    def params(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in self.NAMES}

    def grads(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, "g" + n) for n in self.NAMES}


# --------------------------------------------------------------------------
# Networks
#
# Each network has one sequence kernel: every layer outside the recurrence
# runs once over all T*B rows, and only the GRU's hidden-state products stay
# in the time loop. ``step`` is the kernel at T=1; ``forward_sequence`` and
# ``backward_sequence`` never call each other or ``step``.

class _Network:
    """Shared parameter bookkeeping; subclasses define the layer dict.

    A network's parameters are drawn from the `seed` it is built with. With
    `seed` None nothing is drawn and every parameter is zero, for
    :meth:`load_parameters` or :func:`load_checkpoint` to fill.
    """

    layers: "OrderedDict[str, object]"

    def parameters(self) -> "OrderedDict[str, np.ndarray]":
        out: OrderedDict[str, np.ndarray] = OrderedDict()
        for lname, layer in self.layers.items():
            for pname, arr in layer.params().items():
                out[f"{lname}.{pname}"] = arr
        return out

    def gradients(self) -> "OrderedDict[str, np.ndarray]":
        out: OrderedDict[str, np.ndarray] = OrderedDict()
        for lname, layer in self.layers.items():
            for pname, arr in layer.grads().items():
                out[f"{lname}.{pname}"] = arr
        return out

    def zero_grads(self) -> None:
        for g in self.gradients().values():
            g[...] = 0.0

    def load_parameters(self, values: dict[str, np.ndarray]) -> None:
        own = self.parameters()
        for name, arr in own.items():
            if name not in values:
                raise ConfigurationError(f"missing parameter {name!r}")
            src = np.asarray(values[name])
            if src.shape != arr.shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {src.shape}, expected {arr.shape}"
                )
            arr[...] = src


class PolicyNetwork(_Network):
    """Range-image policy: two conv layers, dense, GRU, dense, 12x2 logits.

    The 8x8x2 image (position-error and frame-difference channels, built
    by ``HoverEnv._inputs``) runs through the convolutional front end; dq
    and omega join at the flatten. The output layer starts near zero so
    the initial policy is close to uniform over each thruster.
    """

    GRID = GRID_SIZE
    IMAGE_CHANNELS = 2
    VEC_DIM = 7
    HIDDEN = 154
    NUM_THRUSTERS = 12

    def __init__(self, seed: int | np.random.Generator | None = 0):
        rng = None if seed is None else np.random.default_rng(seed)
        conv1 = Conv2D(rng, self.IMAGE_CHANNELS, 8, kernel=3, stride=1)  # 8x8x2 -> 6x6x8
        conv2 = Conv2D(rng, 8, 8, kernel=4, stride=2)                    # 6x6x8 -> 2x2x8
        flat = conv2.out_size(conv1.out_size(self.GRID)) ** 2 * 8
        self.flat_dim = flat                             # 32
        fc1 = Linear(rng, flat + self.VEC_DIM, 70)
        gru = GRUCell(rng, 70, self.HIDDEN)
        fc3 = Linear(rng, self.HIDDEN, 120)
        out = Linear(rng, 120, self.NUM_THRUSTERS * 2, gain=0.01)
        self.layers = OrderedDict(
            conv1=conv1, conv2=conv2, fc1=fc1, gru=gru, fc3=fc3, out=out
        )

    def init_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.HIDDEN))

    def _forward(
        self, images: np.ndarray, vecs: np.ndarray, hidden: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """(T,B,8,8,2) + (T,B,7) + (B,154) -> logits (T,B,12,2), last hidden, cache."""
        G, C = self.GRID, self.IMAGE_CHANNELS
        if images.ndim != 5 or images.shape[2:] != (G, G, C):
            raise ConfigurationError(f"image must be (B, {G}, {G}, {C}), got {images.shape[1:]}")
        if vecs.ndim != 3 or vecs.shape[2] != self.VEC_DIM:
            raise ConfigurationError(
                f"vector part must be (B, {self.VEC_DIM}), got {vecs.shape[1:]}"
            )
        T, B = images.shape[0], images.shape[1]
        n = T * B
        L = self.layers
        x = images.reshape(n, G, G, C)
        a1 = np.maximum(L["conv1"].forward(x)[0], 0.0)
        a2 = np.maximum(L["conv2"].forward(a1)[0], 0.0)
        joined = np.concatenate([a2.reshape(n, -1), vecs.reshape(n, -1)], axis=1)
        t1 = np.tanh(L["fc1"].forward(joined)[0])
        hs, cache_g = L["gru"].forward_sequence(t1.reshape(T, B, -1), hidden)
        t3 = np.tanh(L["fc3"].forward(hs[1:].reshape(n, -1))[0])
        logits = L["out"].forward(t3)[0].reshape(T, B, self.NUM_THRUSTERS, 2)
        return logits, hs[-1], (x, a1, a2, joined, t1, hs, cache_g, t3)

    def step(
        self, image: np.ndarray, vec: np.ndarray, hidden: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """One control step: (B,8,8,2) + (B,7) + (B,154) -> logits (B,12,2)."""
        logits, h_new, cache = self._forward(image[None], vec[None], hidden)
        return logits[0], h_new, cache

    def forward_sequence(self, images: np.ndarray, vecs: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(T,B,8,8,2) + (T,B,7) -> logits (T,B,12,2) plus the backward
        cache, from a zero hidden state."""
        logits, _, cache = self._forward(images, vecs, self.init_hidden(images.shape[1]))
        return logits, cache

    def backward_sequence(self, dlogits: np.ndarray, cache: tuple) -> None:
        """Backpropagation through time; gradients accumulate into the layers."""
        x, a1, a2, joined, t1, hs, cache_g, t3 = cache
        T, B = dlogits.shape[0], dlogits.shape[1]
        n = T * B
        L = self.layers
        dt3 = L["out"].backward(dlogits.reshape(n, -1), t3)
        dh = L["fc3"].backward(dt3 * (1.0 - t3 * t3), hs[1:].reshape(n, -1))
        dt1, _ = L["gru"].backward_sequence(dh.reshape(T, B, -1), cache_g)
        djoined = L["fc1"].backward(dt1.reshape(n, -1) * (1.0 - t1 * t1), joined)
        dc2 = djoined[:, : self.flat_dim].reshape(a2.shape) * (a2 > 0.0)
        da1 = L["conv2"].backward(dc2, a1)
        L["conv1"].accumulate(da1 * (a1 > 0.0), x)  # the image gradient has no use


class ValueNetwork(_Network):
    """Critic on the 13-dim ground-truth vector; GRU in the middle."""

    INPUT_DIM = 13
    HIDDEN = 25

    def __init__(self, seed: int | np.random.Generator | None = 0):
        rng = None if seed is None else np.random.default_rng(seed)
        self.layers = OrderedDict(
            fc1=Linear(rng, self.INPUT_DIM, 130),
            gru=GRUCell(rng, 130, self.HIDDEN),
            fc3=Linear(rng, self.HIDDEN, 5),
            out=Linear(rng, 5, 1),
        )

    def init_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.HIDDEN))

    def forward_sequence(self, xs: np.ndarray) -> tuple[np.ndarray, tuple]:
        """(T,B,13) -> values (T,B) plus the backward cache, from a zero
        hidden state."""
        if xs.ndim != 3 or xs.shape[2] != self.INPUT_DIM:
            raise ConfigurationError(
                f"critic input must be (B, {self.INPUT_DIM}), got {xs.shape[1:]}"
            )
        T, B = xs.shape[0], xs.shape[1]
        n = T * B
        L = self.layers
        x = xs.reshape(n, -1)
        t1 = np.tanh(L["fc1"].forward(x)[0])
        hs, cache_g = L["gru"].forward_sequence(t1.reshape(T, B, -1), self.init_hidden(B))
        t3 = np.tanh(L["fc3"].forward(hs[1:].reshape(n, -1))[0])
        values = L["out"].forward(t3)[0].reshape(T, B)
        return values, (x, t1, hs, cache_g, t3)

    def backward_sequence(self, dvalues: np.ndarray, cache: tuple) -> None:
        x, t1, hs, cache_g, t3 = cache
        T, B = dvalues.shape
        n = T * B
        L = self.layers
        dt3 = L["out"].backward(dvalues.reshape(n, 1), t3)
        dh = L["fc3"].backward(dt3 * (1.0 - t3 * t3), hs[1:].reshape(n, -1))
        dt1, _ = L["gru"].backward_sequence(dh.reshape(T, B, -1), cache_g)
        L["fc1"].accumulate(dt1.reshape(n, -1) * (1.0 - t1 * t1), x)


# --------------------------------------------------------------------------
# Multi-categorical distribution over 12 independent two-way heads

def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def action_log_prob(logits: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Sum over thrusters of log softmax(logits)[action]; shape (..., 12, 2) -> (...)."""
    lp = log_softmax(logits)
    idx = np.asarray(action, dtype=np.int64)[..., None]
    return np.take_along_axis(lp, idx, axis=-1)[..., 0].sum(axis=-1)


def kl_divergence(logits_old: np.ndarray, logits_new: np.ndarray) -> np.ndarray:
    """KL(old || new), summed over the 12 heads."""
    lp_old = log_softmax(logits_old)
    lp_new = log_softmax(logits_new)
    return (np.exp(lp_old) * (lp_old - lp_new)).sum(axis=-1).sum(axis=-1)


def sample_multicategorical(
    logits: np.ndarray, rng: np.random.Generator | list[np.random.Generator]
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each thruster's on/off bit; returns (action, log probability).

    `rng` is one generator, or one per row of (B, 12, 2) `logits` that
    draws that row's bits alone.
    """
    p_on = softmax(logits)[..., 1]
    if isinstance(rng, np.random.Generator):
        draws = rng.uniform(size=p_on.shape)
    else:
        draws = np.stack([r.uniform(size=p_on.shape[1:]) for r in rng])
    action = (draws < p_on).astype(np.int64)
    return action, action_log_prob(logits, action)


def greedy_action(logits: np.ndarray) -> np.ndarray:
    """Most probable bit per thruster (deployment behavior)."""
    return np.argmax(logits, axis=-1)


def logp_grad_logits(logits: np.ndarray, action: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Gradient of sum(coeff * log pi(action)) wrt logits: coeff*(one_hot - p)."""
    p = softmax(logits)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.asarray(action, dtype=np.int64)[..., None], 1.0, axis=-1)
    return np.asarray(coeff)[..., None, None] * (onehot - p)


# --------------------------------------------------------------------------
# Optimizer

ADAM_BETA1 = 0.9     # decay of the first-moment estimate
ADAM_BETA2 = 0.999   # decay of the second-moment estimate
ADAM_EPS = 1.0e-8    # added to the root of the second moment


class Adam:
    """Adaptive-moment descent on a named parameter dict (in place), at
    learning rate `lr` (the checkpoint records it) and the fixed decays
    ``ADAM_BETA1`` / ``ADAM_BETA2`` and offset ``ADAM_EPS``.

    Always steps downhill; callers maximizing an objective negate its
    gradient before calling :meth:`step`.
    """

    def __init__(self, params: "OrderedDict[str, np.ndarray]", lr: float = 1.0e-3):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)

    def state_arrays(self) -> dict[str, np.ndarray]:
        out = {}
        for k in self.params:
            out[f"m/{k}"] = self.m[k]
            out[f"v/{k}"] = self.v[k]
        return out

    def load_state_arrays(self, arrays: dict[str, np.ndarray], t: int) -> None:
        for k in self.params:
            self.m[k][...] = arrays[f"m/{k}"]
            self.v[k][...] = arrays[f"v/{k}"]
        self.t = int(t)


# --------------------------------------------------------------------------
# Checkpointing

# (array-name prefix, metadata key) of the policy and the value optimizer
_OPTIMIZER_KEYS = (("popt", "policy_opt"), ("vopt", "value_opt"))


def save_checkpoint(
    path: str,
    policy: PolicyNetwork,
    value: ValueNetwork,
    policy_opt: Adam | None = None,
    value_opt: Adam | None = None,
    extra: dict | None = None,
) -> None:
    """Write every parameter, optimizer moment, and the `extra` payload to
    one .npz archive at exactly `path`; float64 arrays round-trip bit-exactly."""
    arrays: dict[str, np.ndarray] = {}
    for k, v in policy.parameters().items():
        arrays[f"policy/{k}"] = v
    for k, v in value.parameters().items():
        arrays[f"value/{k}"] = v
    meta: dict = {"version": CHECKPOINT_VERSION, "extra": extra or {}}
    for (prefix, name), opt in zip(_OPTIMIZER_KEYS, (policy_opt, value_opt)):
        if opt is not None:
            for k, v in opt.state_arrays().items():
                arrays[f"{prefix}/{k}"] = v
            meta[name] = {"t": opt.t, "lr": opt.lr}
    # Write beside the target and rename over it, so a crash mid-write never
    # leaves a truncated archive under the final name. The temp name ends in
    # ".tmp", which checkpoint globs do not match; np.savez gets an open
    # file because it appends ".npz" to bare names.
    tmp = path + ".tmp"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def load_checkpoint(
    path: str,
    policy: PolicyNetwork,
    value: ValueNetwork,
    policy_opt: Adam | None = None,
    value_opt: Adam | None = None,
) -> dict:
    """Restore networks (and optionally optimizer state) in place.

    Returns the metadata dict, including any `extra` payload.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"][()]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"checkpoint version {meta.get('version')} not supported"
            )
        try:
            policy.load_parameters(
                {k[len("policy/"):]: data[k] for k in data.files if k.startswith("policy/")}
            )
            value.load_parameters(
                {k[len("value/"):]: data[k] for k in data.files if k.startswith("value/")}
            )
            for (prefix, name), opt in zip(_OPTIMIZER_KEYS, (policy_opt, value_opt)):
                if opt is None:
                    continue
                if name not in meta:
                    kind = name.split("_")[0]
                    raise ConfigurationError(f"checkpoint has no {kind} optimizer state")
                opt.load_state_arrays(
                    {k[len(prefix) + 1:]: data[k] for k in data.files
                     if k.startswith(prefix + "/")},
                    meta[name]["t"],
                )
                opt.lr = meta[name]["lr"]
        except KeyError as exc:
            raise ConfigurationError(f"checkpoint is missing array {exc}") from None
    return meta
