"""Minimal neural-network core for the hovering policy and critic.

Implements exactly what the two networks need: dense layers, a gated
recurrent unit, valid-padding 2-D convolution, independent two-way softmax
heads, exact backpropagation through time over full episodes, Adam-style
moment updates, and a checkpoint format that round-trips bit-exactly.

Every layer computes in its parameters' dtype, float32 or float64: its
buffers are allocated in it, and each network entry point casts its inputs
and upstream gradients to it once, so no product promotes back to float64.
Networks built directly default to float64; training builds float32 ones
(``ppo.build_networks``). Adam state follows the parameters, checkpoints
store them as they are, and loading adopts the stored dtype.

Everything is plain numpy. Time-major batches: sequences are (T, B, ...)
and single steps are (B, ...).
"""

from __future__ import annotations

import json
from collections import OrderedDict

import numpy as np

from .config import replacing
from .dynamics import NUM_THRUSTERS
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

class _Layer:
    """A layer's parameters are the attributes in NAMES, each gradient the
    same name prefixed with "g"."""

    NAMES = ("W", "b")

    def params(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, n) for n in self.NAMES}

    def grads(self) -> dict[str, np.ndarray]:
        return {n: getattr(self, "g" + n) for n in self.NAMES}


class Linear(_Layer):
    def __init__(
        self, rng: np.random.Generator | None, n_in: int, n_out: int, gain: float = 1.0,
        dtype=np.float64,
    ):
        self.W = np.asarray(orthogonal_init(rng, (n_in, n_out), gain), dtype)
        self.b = np.zeros(n_out, dtype)
        self.gW = np.zeros_like(self.W)
        self.gb = np.zeros_like(self.b)

    def forward(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        y = x @ self.W
        y += self.b  # in place: no second output-sized array
        return y, x

    def accumulate(self, dy: np.ndarray, x: np.ndarray) -> None:
        """Adds the parameter gradients for upstream ``dy`` at input ``x``."""
        self.gW += x.T @ dy
        self.gb += dy.sum(axis=0)

    def backward(self, dy: np.ndarray, x: np.ndarray) -> np.ndarray:
        self.accumulate(dy, x)
        return dy @ self.W.T


class Conv2D(_Layer):
    """Valid-padding convolution on channel-last (B, H, W, C) inputs.

    The cache is the input itself; backward rebuilds the patches from it
    rather than keeping them, which is cheaper than holding k*k copies of
    every activation across a whole episode.
    """

    def __init__(
        self, rng: np.random.Generator | None, c_in: int, c_out: int, kernel: int, stride: int,
        dtype=np.float64,
    ):
        self.c_in, self.c_out = c_in, c_out
        self.kernel, self.stride = kernel, stride
        self.W = np.asarray(conv_init(rng, kernel, c_in, c_out), dtype)
        self.b = np.zeros(c_out, dtype)
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
        y = self._patches(x) @ self.W.reshape(-1, self.c_out)
        y += self.b
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
        dx = np.zeros(x.shape, self.W.dtype)
        for di in range(k):
            for dj in range(k):
                dx[:, di:di + (ho - 1) * s + 1:s, dj:dj + (wo - 1) * s + 1:s, :] += \
                    dP[:, :, :, di, dj]
        return dx


def _sigmoid_in_place(x: np.ndarray) -> np.ndarray:
    """The logistic sigmoid of `x`, written into it: 0.5 + 0.5*tanh(0.5*x)."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


class GRUCell(_Layer):
    """Gated recurrent unit: h' = z*h + (1-z)*tanh(Wh x + Uh (r*h) + bh).

    A saturated update gate (z -> 1) carries the hidden state through
    unchanged; z -> 0 with r -> 1 reduces to a feedforward tanh layer.

    The gate matrices live in fused buffers, ``W = [Wz|Wr|Wh]``,
    ``U = [Uz|Ur]`` and ``b = [bz|br|bh]``, so a sequence projects its inputs
    for every step in one product and each step needs one product for both
    gates. ``Wz`` ... ``bh`` and their gradients ``gWz`` ... ``gbh`` are
    views into those buffers. A copy or a pickle holds the buffers alone and
    rebuilds the views from them, since ``copy.deepcopy`` and ``pickle``
    would copy each view into an array of its own.
    """

    NAMES = ("Wz", "Uz", "bz", "Wr", "Ur", "br", "Wh", "Uh", "bh")
    _BUFFERS = ("W", "U", "Uh", "b")

    def __init__(
        self, rng: np.random.Generator | None, n_in: int, n_hidden: int, dtype=np.float64
    ):
        self.n_in, self.n_hidden = n_in, n_hidden
        H = n_hidden
        Wz, Uz = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        Wr, Ur = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        Wh, Uh = orthogonal_init(rng, (n_in, H)), orthogonal_init(rng, (H, H))
        self.W = np.concatenate([Wz, Wr, Wh], axis=1, dtype=dtype)
        self.U = np.concatenate([Uz, Ur], axis=1, dtype=dtype)
        self.Uh = np.asarray(Uh, dtype)
        self.b = np.zeros(3 * H, dtype)
        self.gW, self.gU, self.gUh, self.gb = (
            np.zeros_like(a) for a in (self.W, self.U, self.Uh, self.b)
        )
        self._bind_views()

    def _bind_views(self) -> None:
        H = self.n_hidden
        for prefix in ("", "g"):
            W, U, Uh, b = (getattr(self, prefix + name) for name in self._BUFFERS)
            views = dict(
                Wz=W[:, :H], Uz=U[:, :H], bz=b[:H],
                Wr=W[:, H:2 * H], Ur=U[:, H:], br=b[H:2 * H],
                Wh=W[:, 2 * H:], Uh=Uh, bh=b[2 * H:],
            )
            for name, view in views.items():
                setattr(self, prefix + name, view)

    def __getstate__(self) -> dict:
        views = {prefix + name for prefix in ("", "g") for name in self.NAMES
                 if name not in self._BUFFERS}
        return {k: v for k, v in self.__dict__.items() if k not in views}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_views()

    def forward_sequence(
        self, xs: np.ndarray, h: np.ndarray, sizes: list[int]
    ) -> tuple[np.ndarray, tuple]:
        """``len(sizes)`` steps over packed rows: the (N, n_in) inputs hold
        step t's ``sizes[t]`` rows in turn, and `h` is the (sizes[0], H)
        start state. Sizes never grow, and row i of a step continues row i
        of the step before, so each step runs on a prefix of the last one's
        rows. Padded (T, B) sequences are the case ``sizes = [B] * T``.

        Returns the (sizes[0] + N, H) states, the start state first and
        then each step's rows, and the backward cache.
        """
        H = self.n_hidden
        N, n0 = xs.shape[0], h.shape[0]
        dtype = self.W.dtype
        gx = xs @ self.W
        gx += self.b
        # The loop works on contiguous rows, in place where it can: numpy
        # runs an op on a column slice of a wider array at about half the
        # speed. So the projection is split into its gate and candidate
        # blocks once, and dropped; each step adds its products to its rows
        # of those blocks and applies the sigmoid / tanh there, which leaves
        # the gates and candidates the backward reads where the inputs were.
        # a + b is b + a bit for bit, so the states are those of
        # sigmoid(gx + h @ U) and tanh(gx + (r * h) @ Uh) written out. A
        # slice of one row is contiguous already: a lone lane's policy step
        # copies nothing.
        zr, c = np.ascontiguousarray(gx[:, :2 * H]), np.ascontiguousarray(gx[:, 2 * H:])
        del gx
        hs = np.empty((n0 + N, H), dtype)
        hs[:n0] = h
        lo = 0
        for n in sizes:
            hi = lo + n
            h = h[:n]
            g = _sigmoid_in_place(np.add(zr[lo:hi], h @ self.U, out=zr[lo:hi]))
            z, r = g[:, :H], g[:, H:]
            if N > 1:
                z, r = z.copy(), r.copy()
            ct = np.add(c[lo:hi], (r * h) @ self.Uh, out=c[lo:hi])
            np.tanh(ct, out=ct)
            h = hs[n0 + lo:n0 + hi] = z * h + (1.0 - z) * ct
            lo = hi
        return hs, (xs, hs, zr, c, sizes)

    def backward_sequence(self, dhs: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Backpropagation through time from the (N, H) gradients that
        reach each step's output rows from above. A row's gradient stays
        zero until the step where its sequence ends.

        Accumulates parameter gradients; returns the (N, n_in) input
        gradients and the gradient wrt the (sizes[0], H) start state.
        """
        xs, hs, zr, c, sizes = cache
        N, H = dhs.shape
        n0 = sizes[0]
        # Each row's start state. A step's rows start from the rows one
        # step back, so with shrinking sizes step t's sit n0 - sizes[t-1]
        # rows further on than its own; padded they are simply hs[:N].
        h_prev = hs[:N]
        if sizes[-1] != n0:
            shift = np.repeat(n0 - np.array([n0, *sizes[:-1]]), sizes)
            h_prev = hs[np.arange(N) + shift]
        z, r = zr[:, :H], zr[:, H:]
        # Per-step factors that do not depend on the incoming gradient.
        dc_factor = (1.0 - z) * (1.0 - c * c)
        dz_factor = (h_prev - c) * z * (1.0 - z)
        dr_factor = h_prev * r * (1.0 - r)
        # Contiguous transposes: products with them run about twice as fast.
        UT, UhT = self.U.T.copy(), self.Uh.T.copy()
        da = np.empty((N, 3 * H), UT.dtype)  # wrt the z, r and candidate pre-activations
        dh = np.zeros((n0, H), UT.dtype)
        hi = N
        for n in reversed(sizes):
            lo = hi - n
            d = dh[:n]
            d += dhs[lo:hi]
            da_z, da_r, da_c = da[lo:hi, :H], da[lo:hi, H:2 * H], da[lo:hi, 2 * H:]
            np.multiply(d, dc_factor[lo:hi], out=da_c)
            drh = da_c @ UhT
            np.multiply(d, dz_factor[lo:hi], out=da_z)
            np.multiply(drh, dr_factor[lo:hi], out=da_r)
            dh[:n] = d * z[lo:hi] + drh * r[lo:hi] + da[lo:hi, :2 * H] @ UT
            hi = lo
        self.gW += xs.T @ da
        self.gb += da.sum(axis=0)
        self.gU += h_prev.T @ da[:, :2 * H]
        self.gUh += (r * h_prev).T @ da[:, 2 * H:]
        return da @ self.W.T, dh

    def forward(self, x: np.ndarray, h: np.ndarray) -> tuple[np.ndarray, tuple]:
        """One step: (B, n_in) + (B, H) -> new (B, H) state and cache."""
        hs, cache = self.forward_sequence(x, h, [x.shape[0]])
        return hs[x.shape[0]:], cache

    def backward(self, dh_new: np.ndarray, cache: tuple) -> tuple[np.ndarray, np.ndarray]:
        """Returns (dx, dh) and accumulates parameter gradients."""
        return self.backward_sequence(dh_new, cache)


# --------------------------------------------------------------------------
# Networks
#
# Each network has one sequence kernel: every layer outside the recurrence
# runs once over all its rows, and only the GRU's hidden-state products stay
# in the time loop. ``step`` is the kernel at T=1; ``forward_sequence`` and
# ``backward_sequence`` never call each other or ``step``.

class _Rows:
    """The rows a sequence kernel runs on for a (T, B) batch: one per real
    step, time-major.

    Without `lengths`, or when every column is T steps long, these are all
    T*B rows in their own order, and :meth:`gather` and :meth:`scatter`
    only reshape. Otherwise column b holds ``lengths[b]`` real steps
    followed by padding: the columns are ordered longest first (a stable
    sort), step t keeps the first ``sizes[t]`` of them, and the real rows
    are gathered once per input and scattered back into zero-padded
    (T, B, ...) outputs.
    """

    __slots__ = ("T", "B", "sizes", "order", "index")  # one is built per step

    def __init__(self, T: int, B: int, lengths=None):
        self.T, self.B = T, B
        self.sizes = [B] * T
        self.order = self.index = None
        if lengths is None:
            return
        lengths = np.asarray(lengths)
        if (lengths.shape != (B,) or lengths.dtype.kind not in "iu"
                or lengths.min() < 1 or lengths.max() > T):
            raise ConfigurationError(
                f"lengths must be {B} integers in [1, {T}], got {lengths!r}"
            )
        if lengths.min() == T:
            return
        self.order = np.argsort(-lengths, kind="stable")
        live = np.arange(T)[:, None] < lengths[self.order]
        self.sizes = np.count_nonzero(live, axis=1)[:lengths.max()].tolist()
        self.index = (np.arange(T)[:, None] * B + self.order)[live]

    def gather(self, a: np.ndarray, dtype=None) -> np.ndarray:
        """(T, B, ...) -> the (N, ...) real rows, in `dtype` when given."""
        rows = a.reshape(self.T * self.B, *a.shape[2:])
        if self.index is not None:
            rows = rows[self.index]
        return rows if dtype is None else np.asarray(rows, dtype)

    def columns(self, a: np.ndarray) -> np.ndarray:
        """(B, ...) per-column values in the order the rows take them."""
        return a if self.order is None else a[self.order]

    def scatter(self, rows: np.ndarray) -> np.ndarray:
        """(N, ...) rows -> (T, B, ...), zero on padded steps."""
        shape = (self.T, self.B, *rows.shape[1:])
        if self.index is None:
            return rows.reshape(shape)
        out = np.zeros((self.T * self.B, *rows.shape[1:]), rows.dtype)
        out[self.index] = rows
        return out.reshape(shape)


class _Network:
    """Shared parameter bookkeeping; subclasses define the layer dict and
    HIDDEN, the width of the recurrent state.

    A network's parameters are drawn from the `seed` it is built with, in
    float64, and stored in its `dtype`. With `seed` None nothing is drawn
    and every parameter is zero, for :meth:`load_parameters` or
    :func:`load_checkpoint` to fill.
    """

    layers: "OrderedDict[str, _Layer]"
    dtype: np.dtype
    HIDDEN: int

    def _named(self, arrays: str) -> "OrderedDict[str, np.ndarray]":
        """Every layer's `arrays` ("params" or "grads"), keyed ``<layer>.<name>``."""
        return OrderedDict((f"{lname}.{pname}", arr) for lname, layer in self.layers.items()
                           for pname, arr in getattr(layer, arrays)().items())

    def parameters(self) -> "OrderedDict[str, np.ndarray]":
        return self._named("params")

    def gradients(self) -> "OrderedDict[str, np.ndarray]":
        return self._named("grads")

    def init_hidden(self, batch: int) -> np.ndarray:
        return np.zeros((batch, self.HIDDEN), self.dtype)

    def zero_grads(self) -> None:
        for g in self.gradients().values():
            g[...] = 0.0

    def load_parameters(self, values: dict[str, np.ndarray]) -> None:
        """Copy `values` in by name. The network adopts their dtype: when it
        differs, every layer is rebuilt blank in it first, so arrays taken
        from :meth:`parameters` before the call no longer belong to it."""
        own = self.parameters()
        src = {}
        for name, arr in own.items():
            if name not in values:
                raise ConfigurationError(f"missing parameter {name!r}")
            src[name] = np.asarray(values[name])
            if src[name].shape != arr.shape:
                raise ConfigurationError(
                    f"parameter {name!r} has shape {src[name].shape}, expected {arr.shape}"
                )
        dtype = np.result_type(*src.values())
        if dtype not in (np.float32, np.float64):
            raise ConfigurationError(f"parameters must be float32 or float64, got {dtype}")
        if dtype != self.dtype:
            self.__init__(None, dtype=dtype)
            own = self.parameters()
        for name, arr in own.items():
            arr[...] = src[name]


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
    NUM_THRUSTERS = NUM_THRUSTERS  # the one in dynamics, at hand on a network

    def __init__(self, seed: int | np.random.Generator | None = 0, dtype=np.float64):
        rng = None if seed is None else np.random.default_rng(seed)
        self.dtype = dt = np.dtype(dtype)
        conv1 = Conv2D(rng, self.IMAGE_CHANNELS, 8, kernel=3, stride=1, dtype=dt)  # 8x8x2 -> 6x6x8
        conv2 = Conv2D(rng, 8, 8, kernel=4, stride=2, dtype=dt)                    # 6x6x8 -> 2x2x8
        flat = conv2.out_size(conv1.out_size(self.GRID)) ** 2 * 8
        self.flat_dim = flat                             # 32
        fc1 = Linear(rng, flat + self.VEC_DIM, 70, dtype=dt)
        gru = GRUCell(rng, 70, self.HIDDEN, dtype=dt)
        fc3 = Linear(rng, self.HIDDEN, 120, dtype=dt)
        out = Linear(rng, 120, self.NUM_THRUSTERS * 2, gain=0.01, dtype=dt)
        self.layers = OrderedDict(
            conv1=conv1, conv2=conv2, fc1=fc1, gru=gru, fc3=fc3, out=out
        )

    def _forward(
        self, images: np.ndarray, vecs: np.ndarray, hidden: np.ndarray, lengths=None,
        cache: bool = True,
    ) -> tuple[np.ndarray, np.ndarray, tuple | None]:
        """(T,B,8,8,2) + (T,B,7) + (B,154) -> logits (T,B,12,2), the GRU
        states (see :meth:`GRUCell.forward_sequence`) and the cache; with
        `lengths`, over the real steps only (see :class:`_Rows`). Without
        `cache` the cache is None, and the activations below the GRU are
        dropped before it runs."""
        G, C = self.GRID, self.IMAGE_CHANNELS
        if images.ndim != 5 or images.shape[2:] != (G, G, C):
            raise ConfigurationError(f"image must be (B, {G}, {G}, {C}), got {images.shape[1:]}")
        if vecs.ndim != 3 or vecs.shape[2] != self.VEC_DIM:
            raise ConfigurationError(
                f"vector part must be (B, {self.VEC_DIM}), got {vecs.shape[1:]}"
            )
        T, B = images.shape[0], images.shape[1]
        rows = _Rows(T, B, lengths)
        L = self.layers
        x = rows.gather(images, self.dtype)
        n = x.shape[0]
        a1 = np.maximum(L["conv1"].forward(x)[0], 0.0)
        a2 = np.maximum(L["conv2"].forward(a1)[0], 0.0)
        joined = np.concatenate(
            [a2.reshape(n, -1), rows.gather(vecs)], axis=1, dtype=self.dtype
        )
        t1 = np.tanh(L["fc1"].forward(joined)[0])
        if not cache:  # nothing reads them again; the GRU's projection is larger
            del x, a1, a2, joined
        hs, cache_g = L["gru"].forward_sequence(
            t1, rows.columns(np.asarray(hidden, self.dtype)), rows.sizes
        )
        t3 = np.tanh(L["fc3"].forward(hs[B:])[0])
        logits = rows.scatter(L["out"].forward(t3)[0].reshape(n, self.NUM_THRUSTERS, 2))
        if not cache:
            return logits, hs, None
        return logits, hs, (x, a1, a2, joined, rows, hs, cache_g, t3)

    def step(
        self, image: np.ndarray, vec: np.ndarray, hidden: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, tuple]:
        """One control step: (B,8,8,2) + (B,7) + (B,154) -> logits (B,12,2)."""
        logits, hs, cache = self._forward(image[None], vec[None], hidden)
        return logits[0], hs[image.shape[0]:], cache

    def forward_sequence(
        self, images: np.ndarray, vecs: np.ndarray, lengths=None, *, cache: bool = True
    ) -> tuple[np.ndarray, tuple | None]:
        """(T,B,8,8,2) + (T,B,7) -> logits (T,B,12,2) plus the backward
        cache, from a zero hidden state. With per-column `lengths`, column b
        runs its first ``lengths[b]`` steps only, and its later logits are
        zero. With `cache` False the same kernel keeps no backward cache and
        returns None for it: the logits have the same bits, and the GRU runs
        with none of the activations below it alive."""
        B = images.shape[1]
        logits, _, kept = self._forward(images, vecs, self.init_hidden(B), lengths, cache)
        return logits, kept

    def backward_sequence(self, dlogits: np.ndarray, cache: tuple) -> None:
        """Backpropagation through time; gradients accumulate into the
        layers. Only the steps the forward ran take part."""
        x, a1, a2, joined, rows, hs, cache_g, t3 = cache
        t1 = cache_g[0]  # the GRU's input
        n = x.shape[0]
        L = self.layers
        dt3 = L["out"].backward(rows.gather(dlogits, self.dtype).reshape(n, -1), t3)
        dh = L["fc3"].backward(dt3 * (1.0 - t3 * t3), hs[rows.B:])
        dt1, _ = L["gru"].backward_sequence(dh, cache_g)
        djoined = L["fc1"].backward(dt1 * (1.0 - t1 * t1), joined)
        dc2 = djoined[:, : self.flat_dim].reshape(a2.shape) * (a2 > 0.0)
        da1 = L["conv2"].backward(dc2, a1)
        L["conv1"].accumulate(da1 * (a1 > 0.0), x)  # the image gradient has no use


class ValueNetwork(_Network):
    """Critic on the 13-dim ground-truth vector; GRU in the middle."""

    INPUT_DIM = 13
    HIDDEN = 25

    def __init__(self, seed: int | np.random.Generator | None = 0, dtype=np.float64):
        rng = None if seed is None else np.random.default_rng(seed)
        self.dtype = dt = np.dtype(dtype)
        self.layers = OrderedDict(
            fc1=Linear(rng, self.INPUT_DIM, 130, dtype=dt),
            gru=GRUCell(rng, 130, self.HIDDEN, dtype=dt),
            fc3=Linear(rng, self.HIDDEN, 5, dtype=dt),
            out=Linear(rng, 5, 1, dtype=dt),
        )

    def forward_sequence(self, xs: np.ndarray, lengths=None) -> tuple[np.ndarray, tuple]:
        """(T,B,13) -> values (T,B) plus the backward cache, from a zero
        hidden state; with `lengths`, as :meth:`PolicyNetwork.forward_sequence`."""
        if xs.ndim != 3 or xs.shape[2] != self.INPUT_DIM:
            raise ConfigurationError(
                f"critic input must be (B, {self.INPUT_DIM}), got {xs.shape[1:]}"
            )
        T, B = xs.shape[0], xs.shape[1]
        rows = _Rows(T, B, lengths)
        L = self.layers
        x = rows.gather(xs, self.dtype)
        t1 = np.tanh(L["fc1"].forward(x)[0])
        hs, cache_g = L["gru"].forward_sequence(t1, self.init_hidden(B), rows.sizes)
        t3 = np.tanh(L["fc3"].forward(hs[B:])[0])
        values = rows.scatter(L["out"].forward(t3)[0].reshape(-1))
        return values, (x, rows, hs, cache_g, t3)

    def backward_sequence(self, dvalues: np.ndarray, cache: tuple) -> None:
        x, rows, hs, cache_g, t3 = cache
        t1 = cache_g[0]  # the GRU's input
        L = self.layers
        dt3 = L["out"].backward(rows.gather(dvalues, self.dtype).reshape(-1, 1), t3)
        dh = L["fc3"].backward(dt3 * (1.0 - t3 * t3), hs[rows.B:])
        dt1, _ = L["gru"].backward_sequence(dh, cache_g)
        L["fc1"].accumulate(dt1 * (1.0 - t1 * t1), x)


# --------------------------------------------------------------------------
# Multi-categorical distribution over 12 independent two-way heads

def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Log-probabilities of each two-way head of (..., 2) `logits`.

    The max and the sum over a pair are one elementwise operation each:
    they give the bits of ``max`` / ``sum`` over the last axis at a fraction
    of the cost, since numpy reduces a length-2 axis element by element.
    """
    z = logits - np.maximum(logits[..., :1], logits[..., 1:])
    e = np.exp(z)
    return z - np.log(e[..., :1] + e[..., 1:])


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def action_log_prob(logits: np.ndarray, action: np.ndarray) -> np.ndarray:
    """Sum over thrusters of log softmax(logits)[action]; shape (..., 12, 2) -> (...).

    Each head's term is picked elementwise by its 0/1 bit, which gives the
    bits of indexing the pair at a fraction of the cost."""
    lp = log_softmax(logits)
    return np.where(action, lp[..., 1], lp[..., 0]).sum(axis=-1)


def kl_divergence(logits_old: np.ndarray, logits_new: np.ndarray) -> np.ndarray:
    """KL(old || new), summed over the 12 heads.

    Each head's two terms are added elementwise, as in :func:`log_softmax`.
    That differs from the sum over the axis only on a pair of two -0.0
    terms (the sum gives +0.0), which finite logits never make: the pair's
    larger p_old is at least 1/2, and its log-ratio is zero or too large to
    underflow with it."""
    lp_old = log_softmax(logits_old)
    lp_new = log_softmax(logits_new)
    terms = np.exp(lp_old) * (lp_old - lp_new)
    return (terms[..., 0] + terms[..., 1]).sum(axis=-1)


def sample_multicategorical(
    logits: np.ndarray,
    rng: np.random.Generator | list[np.random.Generator],
    lanes: list[int] | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Sample each thruster's on/off bit; returns (action, log probability).

    `rng` is one generator, or a list of them that each draw one row's bits
    alone: row i of (B, 12, 2) `logits` draws from ``rng[lanes[i]]``, or
    from ``rng[i]`` when `lanes` is None. One generator ignores `lanes`.
    """
    p_on = softmax(logits)[..., 1]
    if isinstance(rng, np.random.Generator):
        draws = rng.uniform(size=p_on.shape)
    else:
        rows = range(len(rng)) if lanes is None else lanes
        draws = np.stack([rng[k].uniform(size=p_on.shape[1:]) for k in rows])
    action = (draws < p_on).astype(np.int64)
    return action, action_log_prob(logits, action)


def greedy_action(logits: np.ndarray) -> np.ndarray:
    """Most probable bit per thruster (deployment behavior)."""
    return np.argmax(logits, axis=-1)


def logp_grad_logits(logits: np.ndarray, action: np.ndarray, coeff: np.ndarray) -> np.ndarray:
    """Gradient of sum(coeff * log pi(action)) wrt logits: coeff*(one_hot - p).

    The one-hot columns are written from the 0/1 bits, which is cheaper than
    scattering ones into zeros or casting a comparison."""
    p = softmax(logits)
    onehot = np.empty_like(p)
    onehot[..., 1] = action
    onehot[..., 0] = 1 - np.asarray(action)
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
    one .npz archive at exactly `path`, whole (see config.replacing). Each
    array is stored in its own dtype, the networks' float32 or float64, and
    round-trips bit-exactly."""
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
    # np.savez streams into the open file (it would append ".npz" to a bare name)
    with replacing(path, "wb") as fh:
        np.savez(fh, __meta__=np.array(json.dumps(meta)), **arrays)


def _section(data, prefix: str) -> dict[str, np.ndarray]:
    """The archive's arrays named ``prefix/...``, keyed by the rest of the name."""
    return {k[len(prefix) + 1:]: data[k] for k in data.files if k.startswith(prefix + "/")}


def load_checkpoint(
    path: str,
    policy: PolicyNetwork,
    value: ValueNetwork | None,
    policy_opt: Adam | None = None,
    value_opt: Adam | None = None,
) -> dict:
    """Restore networks (and optionally optimizer state) in place. With
    `value` None only the policy's arrays are read.

    The networks adopt the stored dtype (see :meth:`_Network.load_parameters`).
    An optimizer holds the arrays of the networks it steps, so a load with
    optimizers refuses a checkpoint stored in another dtype than the
    networks', naming both.

    Returns the metadata dict, including any `extra` payload.
    """
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"][()]))
        if meta.get("version") != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"checkpoint version {meta.get('version')} not supported"
            )
        stored = {policy: _section(data, "policy")}
        if value is not None:
            stored[value] = _section(data, "value")
        if policy_opt is not None or value_opt is not None:
            for net, arrays in stored.items():
                other = sorted({str(a.dtype) for a in arrays.values()} - {str(net.dtype)})
                if other:
                    raise ConfigurationError(
                        f"{path} holds {'/'.join(other)} parameters, but the networks "
                        f"to resume are {net.dtype}; optimizer state cannot change dtype"
                    )
        try:
            for net, arrays in stored.items():
                net.load_parameters(arrays)
            for (prefix, name), opt in zip(_OPTIMIZER_KEYS, (policy_opt, value_opt)):
                if opt is None:
                    continue
                if name not in meta:
                    kind = name.split("_")[0]
                    raise ConfigurationError(f"checkpoint has no {kind} optimizer state")
                opt.load_state_arrays(_section(data, prefix), meta[name]["t"])
                opt.lr = meta[name]["lr"]
        except KeyError as exc:
            raise ConfigurationError(f"checkpoint is missing array {exc}") from None
    return meta
