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

CHECKPOINT_VERSION = 1


# --------------------------------------------------------------------------
# Initializers

def orthogonal_init(rng: np.random.Generator, shape: tuple[int, int], gain: float = 1.0) -> np.ndarray:
    """Orthogonal matrix via QR with a deterministic sign convention."""
    rows, cols = shape
    n, m = max(rows, cols), min(rows, cols)
    q, r = np.linalg.qr(rng.standard_normal((n, m)))
    q = q * np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return gain * q[:rows, :cols]


def conv_init(rng: np.random.Generator, k: int, c_in: int, c_out: int) -> np.ndarray:
    """Fan-in scaled normal, sized for rectified-linear activations."""
    fan_in = k * k * c_in
    return rng.standard_normal((k, k, c_in, c_out)) * np.sqrt(2.0 / fan_in)


# --------------------------------------------------------------------------
# Layers

class Linear:
    def __init__(self, rng: np.random.Generator, n_in: int, n_out: int, gain: float = 1.0):
        self.W = orthogonal_init(rng, (n_in, n_out), gain)
        self.b = np.zeros(n_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return x @ self.W + self.b, x

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.gW += x.T @ dy
        self.gb += dy.sum(axis=0)
        return dy @ self.W.T

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> dict[str, np.ndarray]:
        return {"W": self.gW, "b": self.gb}


class Conv2D:
    """Valid-padding convolution on channel-last (B, H, W, C) inputs."""

    def __init__(self, rng: np.random.Generator, c_in: int, c_out: int, kernel: int, stride: int):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.W = conv_init(rng, kernel, c_in, c_out)
        self.b = np.zeros(c_out)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def out_size(self, size: int) -> int:
        return (size - self.kernel) // self.stride + 1

    def _patches(self, x: np.ndarray, ho: int, wo: int) -> np.ndarray:
        B = x.shape[0]
        k, s, c = self.kernel, self.stride, self.c_in
        P = np.empty((B, ho, wo, k * k * c))
        col = 0
        for di in range(k):
            for dj in range(k):
                P[..., col:col + c] = x[:, di:di + (ho - 1) * s + 1:s,
                                        dj:dj + (wo - 1) * s + 1:s, :]
                col += c
        return P

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, tuple]:
        if x.ndim != 4 or x.shape[3] != self.c_in:
            raise ConfigurationError(
                f"conv input must be (B, H, W, {self.c_in}), got {x.shape}"
            )
        ho, wo = self.out_size(x.shape[1]), self.out_size(x.shape[2])
        P = self._patches(x, ho, wo)
        y = P @ self.W.reshape(-1, self.c_out) + self.b
        return y, (x.shape, P)

    def backward(self, dy: np.ndarray, cache: tuple) -> np.ndarray:
        x_shape, P = cache
        B, ho, wo, _ = dy.shape
        k, s, c = self.kernel, self.stride, self.c_in
        flat_dy = dy.reshape(-1, self.c_out)
        self.gW += (P.reshape(-1, k * k * c).T @ flat_dy).reshape(self.W.shape)
        self.gb += flat_dy.sum(axis=0)
        dP = (flat_dy @ self.W.reshape(-1, self.c_out).T).reshape(B, ho, wo, k * k * c)
        dx = np.zeros(x_shape)
        col = 0
        for di in range(k):
            for dj in range(k):
                dx[:, di:di + (ho - 1) * s + 1:s, dj:dj + (wo - 1) * s + 1:s, :] += \
                    dP[..., col:col + c]
                col += c
        return dx

    def params(self) -> dict[str, np.ndarray]:
        return {"W": self.W, "b": self.b}

    def grads(self) -> dict[str, np.ndarray]:
        return {"W": self.gW, "b": self.gb}


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


class GRUCell:
    """Gated recurrent unit: h' = z*h + (1-z)*tanh(Wh x + Uh (r*h) + bh).

    A saturated update gate (z -> 1) carries the hidden state through
    unchanged; z -> 0 with r -> 1 reduces to a feedforward tanh layer.
    """

    def __init__(self, rng: np.random.Generator, n_in: int, n_hidden: int):
        self.n_in, self.n_hidden = n_in, n_hidden
        self.Wz = orthogonal_init(rng, (n_in, n_hidden))
        self.Uz = orthogonal_init(rng, (n_hidden, n_hidden))
        self.bz = np.zeros(n_hidden)
        self.Wr = orthogonal_init(rng, (n_in, n_hidden))
        self.Ur = orthogonal_init(rng, (n_hidden, n_hidden))
        self.br = np.zeros(n_hidden)
        self.Wh = orthogonal_init(rng, (n_in, n_hidden))
        self.Uh = orthogonal_init(rng, (n_hidden, n_hidden))
        self.bh = np.zeros(n_hidden)
        for name in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh"):
            setattr(self, "g" + name, np.zeros_like(getattr(self, name)))

    def forward(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        z = _sigmoid(x @ self.Wz + h @ self.Uz + self.bz)
        r = _sigmoid(x @ self.Wr + h @ self.Ur + self.br)
        c = np.tanh(x @ self.Wh + (r * h) @ self.Uh + self.bh)
        h_new = z * h + (1.0 - z) * c
        return h_new, (x, h, z, r, c)

    def backward(self, dh_new: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Returns (dx, dh) and accumulates parameter gradients."""
        x, h, z, r, c = cache
        dz = dh_new * (h - c)
        dc = dh_new * (1.0 - z)
        dh = dh_new * z

        da_c = dc * (1.0 - c * c)
        self.gWh += x.T @ da_c
        self.gUh += (r * h).T @ da_c
        self.gbh += da_c.sum(axis=0)
        drh = da_c @ self.Uh.T
        dx = da_c @ self.Wh.T
        dr = drh * h
        dh += drh * r

        da_r = dr * r * (1.0 - r)
        self.gWr += x.T @ da_r
        self.gUr += h.T @ da_r
        self.gbr += da_r.sum(axis=0)
        dx += da_r @ self.Wr.T
        dh += da_r @ self.Ur.T

        da_z = dz * z * (1.0 - z)
        self.gWz += x.T @ da_z
        self.gUz += h.T @ da_z
        self.gbz += da_z.sum(axis=0)
        dx += da_z @ self.Wz.T
        dh += da_z @ self.Uz.T
        return dx, dh

    def params(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")}

    def grads(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, "g" + n) for n in ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")}


# --------------------------------------------------------------------------
# Networks

class _Network:
    """Shared parameter bookkeeping; subclasses define the layer dict."""

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

    @property
    def num_params(self) -> int:
        return sum(p.size for p in self.parameters().values())

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

    The 8x8x2 image (position-error and frame-difference channels) runs
    through the convolutional front end; dq and omega join at the flatten.
    The output layer starts near zero so the initial policy is close to
    uniform over each thruster.
    """

    GRID = 8
    IMAGE_CHANNELS = 2
    VEC_DIM = 7
    HIDDEN = 154
    NUM_THRUSTERS = 12

    def __init__(self, seed: int | np.random.Generator = 0):
        rng = np.random.default_rng(seed)
        conv1 = Conv2D(rng, 2, 8, kernel=3, stride=1)   # 8x8x2 -> 6x6x8
        conv2 = Conv2D(rng, 8, 8, kernel=4, stride=2)   # 6x6x8 -> 2x2x8
        flat = conv2.out_size(conv1.out_size(self.GRID)) ** 2 * 8
        self.flat_dim = flat                             # 32
        fc1 = Linear(rng, flat + self.VEC_DIM, 70)
        gru = GRUCell(rng, 70, self.HIDDEN)
        fc3 = Linear(rng, self.HIDDEN, 120)
        out = Linear(rng, 120, self.NUM_THRUSTERS * 2, gain=0.01)
        self.layers = OrderedDict(
            conv1=conv1, conv2=conv2, fc1=fc1, gru=gru, fc3=fc3, out=out
        )

    def init_hidden(self, batch: int = 1) -> np.ndarray:
        return np.zeros((batch, self.HIDDEN))

    def step(
        self, image: np.ndarray, vec: np.ndarray, hidden: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """One control step: (B,8,8,2) + (B,7) + (B,154) -> logits (B,12,2)."""
        if image.ndim != 4 or image.shape[1:] != (self.GRID, self.GRID, self.IMAGE_CHANNELS):
            raise ConfigurationError(f"image must be (B, 8, 8, 2), got {image.shape}")
        if vec.ndim != 2 or vec.shape[1] != self.VEC_DIM:
            raise ConfigurationError(f"vector part must be (B, 7), got {vec.shape}")
        c1, cache1 = self.layers["conv1"].forward(image)
        a1 = np.maximum(c1, 0.0)
        c2, cache2 = self.layers["conv2"].forward(a1)
        a2 = np.maximum(c2, 0.0)
        flat = a2.reshape(a2.shape[0], -1)
        joined = np.concatenate([flat, vec], axis=1)
        f1, cache_f1 = self.layers["fc1"].forward(joined)
        t1 = np.tanh(f1)
        h_new, cache_g = self.layers["gru"].forward(t1, hidden)
        f3, cache_f3 = self.layers["fc3"].forward(h_new)
        t3 = np.tanh(f3)
        logits, cache_o = self.layers["out"].forward(t3)
        cache = (cache1, c1, cache2, c2, a2.shape, cache_f1, t1, cache_g, cache_f3, t3, cache_o)
        return logits.reshape(-1, self.NUM_THRUSTERS, 2), h_new, cache

    def step_backward(self, dlogits: np.ndarray, cache: tuple, dh_next: np.ndarray) -> np.ndarray:
        """Backprop one step; returns the gradient wrt the incoming hidden."""
        (cache1, c1, cache2, c2, a2_shape, cache_f1, t1, cache_g, cache_f3, t3, cache_o) = cache
        B = dlogits.shape[0]
        dt3 = self.layers["out"].backward(dlogits.reshape(B, -1), cache_o)
        df3 = dt3 * (1.0 - t3 * t3)
        dh = self.layers["fc3"].backward(df3, cache_f3) + dh_next
        dt1, dh_prev = self.layers["gru"].backward(dh, cache_g)
        df1 = dt1 * (1.0 - t1 * t1)
        djoined = self.layers["fc1"].backward(df1, cache_f1)
        dflat = djoined[:, : self.flat_dim]
        da2 = dflat.reshape(a2_shape)
        dc2 = da2 * (c2 > 0.0)
        da1 = self.layers["conv2"].backward(dc2, cache2)
        dc1 = da1 * (c1 > 0.0)
        self.layers["conv1"].backward(dc1, cache1)
        return dh_prev

    def forward_sequence(
        self, images: np.ndarray, vecs: np.ndarray, hidden: np.ndarray | None = None
    ) -> tuple[np.ndarray, list]:
        """(T,B,8,8,2) + (T,B,7) -> logits (T,B,12,2) plus per-step caches."""
        T, B = images.shape[0], images.shape[1]
        h = self.init_hidden(B) if hidden is None else hidden
        logits = np.empty((T, B, self.NUM_THRUSTERS, 2))
        caches = []
        for t in range(T):
            logits[t], h, cache = self.step(images[t], vecs[t], h)
            caches.append(cache)
        return logits, caches

    def backward_sequence(self, dlogits: np.ndarray, caches: list) -> None:
        """Backpropagation through time; gradients accumulate into the layers."""
        T, B = dlogits.shape[0], dlogits.shape[1]
        dh = np.zeros((B, self.HIDDEN))
        for t in range(T - 1, -1, -1):
            dh = self.step_backward(dlogits[t], caches[t], dh)


class ValueNetwork(_Network):
    """Critic on the 13-dim ground-truth vector; GRU in the middle."""

    INPUT_DIM = 13
    HIDDEN = 25

    def __init__(self, seed: int | np.random.Generator = 0):
        rng = np.random.default_rng(seed)
        self.layers = OrderedDict(
            fc1=Linear(rng, self.INPUT_DIM, 130),
            gru=GRUCell(rng, 130, self.HIDDEN),
            fc3=Linear(rng, self.HIDDEN, 5),
            out=Linear(rng, 5, 1),
        )

    def init_hidden(self, batch: int = 1) -> np.ndarray:
        return np.zeros((batch, self.HIDDEN))

    def step(self, x: np.ndarray, hidden: np.ndarray) -> tuple[np.ndarray, np.ndarray, tuple]:
        if x.ndim != 2 or x.shape[1] != self.INPUT_DIM:
            raise ConfigurationError(f"critic input must be (B, 13), got {x.shape}")
        f1, cache_f1 = self.layers["fc1"].forward(x)
        t1 = np.tanh(f1)
        h_new, cache_g = self.layers["gru"].forward(t1, hidden)
        f3, cache_f3 = self.layers["fc3"].forward(h_new)
        t3 = np.tanh(f3)
        v, cache_o = self.layers["out"].forward(t3)
        return v[:, 0], h_new, (cache_f1, t1, cache_g, cache_f3, t3, cache_o)

    def step_backward(self, dv: np.ndarray, cache: tuple, dh_next: np.ndarray) -> np.ndarray:
        cache_f1, t1, cache_g, cache_f3, t3, cache_o = cache
        dt3 = self.layers["out"].backward(dv[:, None], cache_o)
        df3 = dt3 * (1.0 - t3 * t3)
        dh = self.layers["fc3"].backward(df3, cache_f3) + dh_next
        dt1, dh_prev = self.layers["gru"].backward(dh, cache_g)
        df1 = dt1 * (1.0 - t1 * t1)
        self.layers["fc1"].backward(df1, cache_f1)
        return dh_prev

    def forward_sequence(
        self, xs: np.ndarray, hidden: np.ndarray | None = None
    ) -> tuple[np.ndarray, list]:
        T, B = xs.shape[0], xs.shape[1]
        h = self.init_hidden(B) if hidden is None else hidden
        values = np.empty((T, B))
        caches = []
        for t in range(T):
            values[t], h, cache = self.step(xs[t], h)
            caches.append(cache)
        return values, caches

    def backward_sequence(self, dvalues: np.ndarray, caches: list) -> None:
        T, B = dvalues.shape
        dh = np.zeros((B, self.HIDDEN))
        for t in range(T - 1, -1, -1):
            dh = self.step_backward(dvalues[t], caches[t], dh)


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


def entropy(logits: np.ndarray) -> np.ndarray:
    lp = log_softmax(logits)
    return -(np.exp(lp) * lp).sum(axis=-1).sum(axis=-1)


def kl_divergence(logits_old: np.ndarray, logits_new: np.ndarray) -> np.ndarray:
    """KL(old || new), summed over the 12 heads."""
    lp_old = log_softmax(logits_old)
    lp_new = log_softmax(logits_new)
    return (np.exp(lp_old) * (lp_old - lp_new)).sum(axis=-1).sum(axis=-1)


def sample_multicategorical(
    logits: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each thruster's on/off bit; returns (action, log probability)."""
    p_on = softmax(logits)[..., 1]
    action = (rng.uniform(size=p_on.shape) < p_on).astype(np.int64)
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


def entropy_grad_logits(logits: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Gradient of sum(coeff * entropy) wrt logits: -coeff * p * (log p + H)."""
    lp = log_softmax(logits)
    p = np.exp(lp)
    h_per_head = -(p * lp).sum(axis=-1, keepdims=True)
    return np.asarray(coeff)[..., None, None] * (-p * (lp + h_per_head))


# --------------------------------------------------------------------------
# Optimizer

class Adam:
    """Adaptive-moment descent on a named parameter dict (in place).

    Always steps downhill; callers maximizing an objective negate its
    gradient before calling :meth:`step`.
    """

    def __init__(
        self,
        params: "OrderedDict[str, np.ndarray]",
        lr: float = 1.0e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1.0e-8,
    ):
        self.params = params
        self.lr = lr
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k, p in self.params.items():
            g = grads[k]
            m = self.m[k]
            v = self.v[k]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            p -= self.lr * (m / b1c) / (np.sqrt(v / b2c) + self.eps)

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
    if policy_opt is not None:
        for k, v in policy_opt.state_arrays().items():
            arrays[f"popt/{k}"] = v
        meta["policy_opt"] = {"t": policy_opt.t, "lr": policy_opt.lr}
    if value_opt is not None:
        for k, v in value_opt.state_arrays().items():
            arrays[f"vopt/{k}"] = v
        meta["value_opt"] = {"t": value_opt.t, "lr": value_opt.lr}
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
            if policy_opt is not None:
                if "policy_opt" not in meta:
                    raise ConfigurationError("checkpoint has no policy optimizer state")
                policy_opt.load_state_arrays(
                    {k[len("popt/"):]: data[k] for k in data.files if k.startswith("popt/")},
                    meta["policy_opt"]["t"],
                )
                policy_opt.lr = meta["policy_opt"]["lr"]
            if value_opt is not None:
                if "value_opt" not in meta:
                    raise ConfigurationError("checkpoint has no value optimizer state")
                value_opt.load_state_arrays(
                    {k[len("vopt/"):]: data[k] for k in data.files if k.startswith("vopt/")},
                    meta["value_opt"]["t"],
                )
                value_opt.lr = meta["value_opt"]["lr"]
        except KeyError as exc:
            raise ConfigurationError(f"checkpoint is missing array {exc}") from None
    return meta
