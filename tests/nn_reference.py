"""Per-step reference for the policy and critic sequence kernels.

This is the step-at-a-time form the networks had before their sequence
kernels: each layer runs once per control step, the convolution keeps its
patches, the GRU gates use a masked two-branch sigmoid, and backpropagation
through time calls a per-step backward and sums the parameter gradients step
by step. It reads the parameters of a ``PolicyNetwork`` / ``ValueNetwork``
and accumulates into that network's gradient arrays, so the kernels can be
pinned to it on the same weights.
"""

import numpy as np


# --- layers -----------------------------------------------------------------

def linear_forward(layer, x):
    return x @ layer.W + layer.b, x


def linear_backward(layer, dy, x):
    layer.gW += x.T @ dy
    layer.gb += dy.sum(axis=0)
    return dy @ layer.W.T


def conv_patches(layer, x, ho, wo):
    B = x.shape[0]
    k, s, c = layer.kernel, layer.stride, layer.c_in
    P = np.empty((B, ho, wo, k * k * c))
    col = 0
    for di in range(k):
        for dj in range(k):
            P[..., col:col + c] = x[:, di:di + (ho - 1) * s + 1:s,
                                    dj:dj + (wo - 1) * s + 1:s, :]
            col += c
    return P


def conv_forward(layer, x):
    ho, wo = layer.out_size(x.shape[1]), layer.out_size(x.shape[2])
    P = conv_patches(layer, x, ho, wo)
    y = P @ layer.W.reshape(-1, layer.c_out) + layer.b
    return y, (x.shape, P)


def conv_backward(layer, dy, cache):
    x_shape, P = cache
    B, ho, wo, _ = dy.shape
    k, s, c = layer.kernel, layer.stride, layer.c_in
    flat_dy = dy.reshape(-1, layer.c_out)
    layer.gW += (P.reshape(-1, k * k * c).T @ flat_dy).reshape(layer.W.shape)
    layer.gb += flat_dy.sum(axis=0)
    dP = (flat_dy @ layer.W.reshape(-1, layer.c_out).T).reshape(B, ho, wo, k * k * c)
    dx = np.zeros(x_shape)
    col = 0
    for di in range(k):
        for dj in range(k):
            dx[:, di:di + (ho - 1) * s + 1:s, dj:dj + (wo - 1) * s + 1:s, :] += \
                dP[..., col:col + c]
            col += c
    return dx


def sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def gru_forward(cell, x, h):
    z = sigmoid(x @ cell.Wz + h @ cell.Uz + cell.bz)
    r = sigmoid(x @ cell.Wr + h @ cell.Ur + cell.br)
    c = np.tanh(x @ cell.Wh + (r * h) @ cell.Uh + cell.bh)
    h_new = z * h + (1.0 - z) * c
    return h_new, (x, h, z, r, c)


def gru_sequence_written_out(cell, xs, h, sizes):
    """GRUCell.forward_sequence's loop over packed rows with each step's
    expressions written out, as it was before the loop worked in place:
    the states and the cached gates must come out bit for bit the same."""
    H = cell.n_hidden
    n0, N = h.shape[0], xs.shape[0]
    gx = xs @ cell.W + cell.b
    hs = np.empty((n0 + N, H), cell.W.dtype)
    hs[:n0] = h
    zr = np.empty((N, 2 * H), cell.W.dtype)
    c = np.empty((N, H), cell.W.dtype)
    lo = 0
    for n in sizes:
        hi = lo + n
        h = h[:n]
        zr[lo:hi] = 0.5 + 0.5 * np.tanh(0.5 * (gx[lo:hi, :2 * H] + h @ cell.U))
        z, r = zr[lo:hi, :H], zr[lo:hi, H:]
        c[lo:hi] = np.tanh(gx[lo:hi, 2 * H:] + (r * h) @ cell.Uh)
        h = hs[n0 + lo:n0 + hi] = z * h + (1.0 - z) * c[lo:hi]
        lo = hi
    return hs, zr, c


def gru_backward(cell, dh_new, cache):
    x, h, z, r, c = cache
    dz = dh_new * (h - c)
    dc = dh_new * (1.0 - z)
    dh = dh_new * z

    da_c = dc * (1.0 - c * c)
    cell.gWh += x.T @ da_c
    cell.gUh += (r * h).T @ da_c
    cell.gbh += da_c.sum(axis=0)
    drh = da_c @ cell.Uh.T
    dx = da_c @ cell.Wh.T
    dr = drh * h
    dh += drh * r

    da_r = dr * r * (1.0 - r)
    cell.gWr += x.T @ da_r
    cell.gUr += h.T @ da_r
    cell.gbr += da_r.sum(axis=0)
    dx += da_r @ cell.Wr.T
    dh += da_r @ cell.Ur.T

    da_z = dz * z * (1.0 - z)
    cell.gWz += x.T @ da_z
    cell.gUz += h.T @ da_z
    cell.gbz += da_z.sum(axis=0)
    dx += da_z @ cell.Wz.T
    dh += da_z @ cell.Uz.T
    return dx, dh


# --- policy -----------------------------------------------------------------

def policy_step(net, image, vec, hidden):
    L = net.layers
    c1, cache1 = conv_forward(L["conv1"], image)
    a1 = np.maximum(c1, 0.0)
    c2, cache2 = conv_forward(L["conv2"], a1)
    a2 = np.maximum(c2, 0.0)
    flat = a2.reshape(a2.shape[0], -1)
    joined = np.concatenate([flat, vec], axis=1)
    f1, cache_f1 = linear_forward(L["fc1"], joined)
    t1 = np.tanh(f1)
    h_new, cache_g = gru_forward(L["gru"], t1, hidden)
    f3, cache_f3 = linear_forward(L["fc3"], h_new)
    t3 = np.tanh(f3)
    logits, cache_o = linear_forward(L["out"], t3)
    cache = (cache1, c1, cache2, c2, a2.shape, cache_f1, t1, cache_g, cache_f3, t3, cache_o)
    return logits.reshape(-1, net.NUM_THRUSTERS, 2), h_new, cache


def policy_step_backward(net, dlogits, cache, dh_next):
    (cache1, c1, cache2, c2, a2_shape, cache_f1, t1, cache_g, cache_f3, t3, cache_o) = cache
    L = net.layers
    B = dlogits.shape[0]
    dt3 = linear_backward(L["out"], dlogits.reshape(B, -1), cache_o)
    df3 = dt3 * (1.0 - t3 * t3)
    dh = linear_backward(L["fc3"], df3, cache_f3) + dh_next
    dt1, dh_prev = gru_backward(L["gru"], dh, cache_g)
    df1 = dt1 * (1.0 - t1 * t1)
    djoined = linear_backward(L["fc1"], df1, cache_f1)
    dflat = djoined[:, : net.flat_dim]
    da2 = dflat.reshape(a2_shape)
    dc2 = da2 * (c2 > 0.0)
    da1 = conv_backward(L["conv2"], dc2, cache2)
    dc1 = da1 * (c1 > 0.0)
    conv_backward(L["conv1"], dc1, cache1)
    return dh_prev


def policy_forward_sequence(net, images, vecs):
    T, B = images.shape[0], images.shape[1]
    h = net.init_hidden(B)
    logits = np.empty((T, B, net.NUM_THRUSTERS, 2))
    caches = []
    for t in range(T):
        logits[t], h, cache = policy_step(net, images[t], vecs[t], h)
        caches.append(cache)
    return logits, caches


def policy_backward_sequence(net, dlogits, caches):
    T, B = dlogits.shape[0], dlogits.shape[1]
    dh = np.zeros((B, net.HIDDEN))
    for t in range(T - 1, -1, -1):
        dh = policy_step_backward(net, dlogits[t], caches[t], dh)


# --- critic -----------------------------------------------------------------

def value_step(net, x, hidden):
    L = net.layers
    f1, cache_f1 = linear_forward(L["fc1"], x)
    t1 = np.tanh(f1)
    h_new, cache_g = gru_forward(L["gru"], t1, hidden)
    f3, cache_f3 = linear_forward(L["fc3"], h_new)
    t3 = np.tanh(f3)
    v, cache_o = linear_forward(L["out"], t3)
    return v[:, 0], h_new, (cache_f1, t1, cache_g, cache_f3, t3, cache_o)


def value_step_backward(net, dv, cache, dh_next):
    cache_f1, t1, cache_g, cache_f3, t3, cache_o = cache
    L = net.layers
    dt3 = linear_backward(L["out"], dv[:, None], cache_o)
    df3 = dt3 * (1.0 - t3 * t3)
    dh = linear_backward(L["fc3"], df3, cache_f3) + dh_next
    dt1, dh_prev = gru_backward(L["gru"], dh, cache_g)
    df1 = dt1 * (1.0 - t1 * t1)
    linear_backward(L["fc1"], df1, cache_f1)
    return dh_prev


def value_forward_sequence(net, xs):
    T, B = xs.shape[0], xs.shape[1]
    h = net.init_hidden(B)
    values = np.empty((T, B))
    caches = []
    for t in range(T):
        values[t], h, cache = value_step(net, xs[t], h)
        caches.append(cache)
    return values, caches


def value_backward_sequence(net, dvalues, caches):
    T, B = dvalues.shape
    dh = np.zeros((B, net.HIDDEN))
    for t in range(T - 1, -1, -1):
        dh = value_step_backward(net, dvalues[t], caches[t], dh)


# --- action heads -----------------------------------------------------------
#
# The distribution functions as they reduced over, or indexed along, the
# 2-wide head axis, before each head's pair was handled elementwise.

def kl_divergence_by_reduction(log_softmax, logits_old, logits_new):
    lp_old = log_softmax(logits_old)
    lp_new = log_softmax(logits_new)
    return (np.exp(lp_old) * (lp_old - lp_new)).sum(axis=-1).sum(axis=-1)


def action_log_prob_by_indexing(log_softmax, logits, action):
    lp = log_softmax(logits)
    idx = np.asarray(action, dtype=np.int64)[..., None]
    return np.take_along_axis(lp, idx, axis=-1)[..., 0].sum(axis=-1)


def logp_grad_logits_by_scatter(softmax, logits, action, coeff):
    p = softmax(logits)
    onehot = np.zeros_like(p)
    np.put_along_axis(onehot, np.asarray(action, dtype=np.int64)[..., None], 1.0, axis=-1)
    return np.asarray(coeff)[..., None, None] * (onehot - p)
