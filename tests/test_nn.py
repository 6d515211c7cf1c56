"""Gradient, distribution, optimizer, and checkpoint tests for the policy
and critic networks.

Analytic gradients are checked against central finite differences. The
recurrent-cell Jacobian must agree to 1e-5 relative, single feedforward
layers to 1e-6, action log-probability gradients to 1e-6, and the full
unrolled policy network to 1e-4 (looser: five timesteps of float64
round-off accumulate).
"""

import copy
import hashlib
import pickle

import nn_reference as reference
import numpy as np
import pytest

from asterhover.errors import ConfigurationError
from asterhover.nn import (
    Adam,
    Conv2D,
    GRUCell,
    Linear,
    PolicyNetwork,
    ValueNetwork,
    action_log_prob,
    greedy_action,
    kl_divergence,
    load_checkpoint,
    log_softmax,
    logp_grad_logits,
    orthogonal_init,
    sample_multicategorical,
    save_checkpoint,
    softmax,
)
from asterhover.ppo import build_networks


FD_H = 1.0e-5
# Central differences carry round-off noise of about eps * |loss| / h
# (~1e-10 here), so entries whose true gradient sits near zero cannot meet a
# pure relative bound; the absolute floor covers only that noise band.
FD_ATOL = 5.0e-9


def fd_slot(loss_fn, arr, idx, h=FD_H):
    """Central finite difference of loss_fn wrt one flattened entry of arr."""
    old = arr.flat[idx]
    arr.flat[idx] = old + h
    lo_p = loss_fn()
    arr.flat[idx] = old - h
    lo_m = loss_fn()
    arr.flat[idx] = old
    return (lo_p - lo_m) / (2.0 * h)


def check_fd(loss_fn, arr, grad, rng, rtol, samples=40, label=""):
    idxs = rng.choice(arr.size, size=min(samples, arr.size), replace=False)
    for idx in idxs:
        fd = fd_slot(loss_fn, arr, idx)
        a = grad.flat[idx]
        assert abs(a - fd) <= FD_ATOL + rtol * max(abs(a), abs(fd)), (
            f"{label}[{idx}]: analytic {a}, finite difference {fd}"
        )


# --------------------------------------------------------------------------
# Initializers and parameter counts

def test_orthogonal_init_tall_columns_orthonormal():
    rng = np.random.default_rng(0)
    w = orthogonal_init(rng, (40, 12))
    np.testing.assert_allclose(w.T @ w, np.eye(12), atol=1e-12)


def test_orthogonal_init_wide_rows_orthonormal():
    rng = np.random.default_rng(0)
    w = orthogonal_init(rng, (12, 40))
    np.testing.assert_allclose(w @ w.T, np.eye(12), atol=1e-12)


def test_orthogonal_init_gain_scales_singular_values():
    rng = np.random.default_rng(3)
    w = orthogonal_init(rng, (20, 20), gain=0.01)
    s = np.linalg.svd(w, compute_uv=False)
    np.testing.assert_allclose(s, np.full(20, 0.01), rtol=1e-12)


def num_params(net) -> int:
    return sum(p.size for p in net.parameters().values())


def test_policy_parameter_count():
    net = PolicyNetwork(seed=0)
    # conv 152 + 1032, dense 2800 + 18600 + 2904, recurrent 103950
    assert num_params(net) == 129438


def test_value_parameter_count():
    net = ValueNetwork(seed=0)
    # 1820 + 11700 + 130 + 6
    assert num_params(net) == 13656


def test_same_seed_same_params_different_seed_differs():
    a = PolicyNetwork(seed=7)
    b = PolicyNetwork(seed=7)
    c = PolicyNetwork(seed=8)
    for (ka, va), (kb, vb) in zip(a.parameters().items(), b.parameters().items()):
        assert ka == kb
        np.testing.assert_array_equal(va, vb)
    assert any(
        not np.array_equal(v, c.parameters()[k]) for k, v in a.parameters().items()
    )


def test_fresh_policy_is_near_uniform():
    net = PolicyNetwork(seed=4)
    rng = np.random.default_rng(1)
    image = rng.uniform(-1.0, 1.0, size=(3, 8, 8, 2))
    vec = rng.uniform(-1.0, 1.0, size=(3, 7))
    logits, _, _ = net.step(image, vec, net.init_hidden(3))
    p = softmax(logits)
    assert np.all(np.abs(p - 0.5) < 0.05)


# --------------------------------------------------------------------------
# Feedforward layer gradients (tolerance 1e-6)

def test_linear_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    layer = Linear(rng, 9, 5)
    x = rng.standard_normal((4, 9))
    s = rng.standard_normal((4, 5))

    def loss():
        y, _ = layer.forward(x)
        return float((s * y).sum())

    y, cache = layer.forward(x)
    dx = layer.backward(s, cache)
    check_fd(loss, layer.W, layer.gW, rng, 1e-6, label="W")
    check_fd(loss, layer.b, layer.gb, rng, 1e-6, label="b")
    check_fd(loss, x, dx, rng, 1e-6, label="x")


def test_conv_gradients_match_finite_differences():
    rng = np.random.default_rng(12)
    layer = Conv2D(rng, 2, 3, kernel=3, stride=2)
    x = rng.standard_normal((2, 8, 8, 2))
    y, cache = layer.forward(x)
    assert y.shape == (2, 3, 3, 3)
    s = rng.standard_normal(y.shape)

    def loss():
        out, _ = layer.forward(x)
        return float((s * out).sum())

    dx = layer.backward(s, cache)
    check_fd(loss, layer.W, layer.gW, rng, 1e-6, label="W")
    check_fd(loss, layer.b, layer.gb, rng, 1e-6, label="b")
    check_fd(loss, x, dx, rng, 1e-6, samples=60, label="x")


def test_conv_output_matches_direct_convolution():
    rng = np.random.default_rng(13)
    layer = Conv2D(rng, 2, 4, kernel=3, stride=1)
    x = rng.standard_normal((1, 6, 6, 2))
    y, _ = layer.forward(x)
    for i in range(4):
        for j in range(4):
            patch = x[0, i:i + 3, j:j + 3, :]
            expected = np.einsum("hwc,hwco->o", patch, layer.W) + layer.b
            np.testing.assert_allclose(y[0, i, j], expected, rtol=1e-12)


def test_conv_rejects_wrong_channel_count():
    rng = np.random.default_rng(0)
    layer = Conv2D(rng, 2, 4, kernel=3, stride=1)
    with pytest.raises(ConfigurationError):
        layer.forward(np.zeros((1, 8, 8, 3)))


# --------------------------------------------------------------------------
# Recurrent cell (tolerance 1e-5)

def test_gru_gradients_match_finite_differences():
    rng = np.random.default_rng(21)
    cell = GRUCell(rng, 6, 5)
    x = rng.standard_normal((3, 6))
    h = rng.standard_normal((3, 5)) * 0.5
    s = rng.standard_normal((3, 5))

    def loss():
        h_new, _ = cell.forward(x, h)
        return float((s * h_new).sum())

    h_new, cache = cell.forward(x, h)
    dx, dh = cell.backward(s, cache)
    for name, grad in cell.grads().items():
        check_fd(loss, cell.params()[name], grad, rng, 1e-5, samples=20, label=name)
    check_fd(loss, x, dx, rng, 1e-5, label="x")
    check_fd(loss, h, dh, rng, 1e-5, label="h")


def test_gru_saturated_update_gate_copies_hidden():
    rng = np.random.default_rng(22)
    cell = GRUCell(rng, 4, 3)
    cell.bz[:] = 50.0  # z -> 1
    x = rng.standard_normal((2, 4))
    h = rng.standard_normal((2, 3))
    h_new, _ = cell.forward(x, h)
    np.testing.assert_allclose(h_new, h, atol=1e-15)


def test_gru_open_gates_reduce_to_tanh_layer():
    rng = np.random.default_rng(23)
    cell = GRUCell(rng, 4, 3)
    cell.bz[:] = -50.0  # z -> 0
    cell.br[:] = 50.0   # r -> 1
    x = rng.standard_normal((2, 4))
    h = rng.standard_normal((2, 3))
    h_new, _ = cell.forward(x, h)
    expected = np.tanh(x @ cell.Wh + h @ cell.Uh + cell.bh)
    np.testing.assert_allclose(h_new, expected, atol=1e-12)


def test_gru_zero_state_zero_input_stays_small():
    cell = GRUCell(np.random.default_rng(24), 4, 3)
    h_new, _ = cell.forward(np.zeros((1, 4)), np.zeros((1, 3)))
    # biases are zero, so z = 0.5 and the candidate is tanh(0) = 0
    np.testing.assert_allclose(h_new, np.zeros((1, 3)), atol=1e-15)


# --------------------------------------------------------------------------
# Full networks

def policy_batch(rng, T=5, B=2):
    images = rng.uniform(-1.0, 1.0, size=(T, B, 8, 8, 2))
    vecs = rng.uniform(-1.0, 1.0, size=(T, B, 7))
    return images, vecs


def test_policy_step_shapes_and_purity():
    net = PolicyNetwork(seed=1)
    rng = np.random.default_rng(31)
    image = rng.uniform(-1.0, 1.0, size=(3, 8, 8, 2))
    vec = rng.uniform(-1.0, 1.0, size=(3, 7))
    h0 = net.init_hidden(3)
    image_c, vec_c, h_c = image.copy(), vec.copy(), h0.copy()
    logits1, h1, _ = net.step(image, vec, h0)
    logits2, h2, _ = net.step(image, vec, h0)
    assert logits1.shape == (3, 12, 2)
    assert h1.shape == (3, 154)
    np.testing.assert_array_equal(logits1, logits2)
    np.testing.assert_array_equal(h1, h2)
    np.testing.assert_array_equal(image, image_c)
    np.testing.assert_array_equal(vec, vec_c)
    np.testing.assert_array_equal(h0, h_c)


def test_policy_rejects_bad_shapes():
    net = PolicyNetwork(seed=1)
    h = net.init_hidden(1)
    with pytest.raises(ConfigurationError):
        net.step(np.zeros((1, 8, 8, 1)), np.zeros((1, 7)), h)
    with pytest.raises(ConfigurationError):
        net.step(np.zeros((1, 8, 8, 2)), np.zeros((1, 6)), h)


def test_policy_sequence_matches_manual_steps():
    # Not bitwise: the sequence runs its layers over T*B rows at once and a
    # BLAS product rounds differently with the row count (about 5e-18 here).
    net = PolicyNetwork(seed=2)
    rng = np.random.default_rng(32)
    images, vecs = policy_batch(rng)
    logits_seq, _ = net.forward_sequence(images, vecs)
    h = net.init_hidden(2)
    for t in range(5):
        logits_t, h, _ = net.step(images[t], vecs[t], h)
        np.testing.assert_allclose(logits_seq[t], logits_t, rtol=1e-12, atol=1e-15)


def test_policy_sequence_same_input_twice_is_bitwise_equal():
    net = PolicyNetwork(seed=2)
    images, vecs = policy_batch(np.random.default_rng(32))
    first, _ = net.forward_sequence(images, vecs)
    second, _ = net.forward_sequence(images, vecs)
    np.testing.assert_array_equal(first, second)


def test_policy_step_lane_rows_ignore_the_other_lanes():
    # The lockstep driver steps L lanes at a fixed width. Lane 7's logits
    # must not change when the other lanes see other inputs, or freeze
    # their inputs after finishing early, as a finished lane's dummy does.
    net = PolicyNetwork(seed=4)
    rng = np.random.default_rng(34)
    T, L, k = 6, 30, 7
    images, vecs = policy_batch(rng, T=T, B=L)

    def lane_logits(images, vecs):
        hidden = net.init_hidden(L)
        out = []
        for t in range(T):
            logits, hidden, _ = net.step(images[t], vecs[t], hidden)
            out.append(logits[k])
        return np.array(out)

    base = lane_logits(images, vecs)
    others = np.arange(L) != k
    perturbed_images, perturbed_vecs = images.copy(), vecs.copy()
    perturbed_images[:, others] = rng.normal(size=perturbed_images[:, others].shape)
    perturbed_vecs[:, others] = rng.normal(size=perturbed_vecs[:, others].shape)
    finished_images, finished_vecs = images.copy(), vecs.copy()
    finished_images[2:, others] = images[1, others]
    finished_vecs[2:, others] = vecs[1, others]
    for variant in ((perturbed_images, perturbed_vecs), (finished_images, finished_vecs)):
        assert lane_logits(*variant).tobytes() == base.tobytes()


def test_sample_multicategorical_one_generator_per_row():
    logits = np.random.default_rng(35).normal(size=(3, 12, 2))
    seeds = (5, 6, 7)
    action, logp = sample_multicategorical(logits, [np.random.default_rng(s) for s in seeds])
    for row, s in enumerate(seeds):
        want, want_logp = sample_multicategorical(logits[row : row + 1], np.random.default_rng(s))
        np.testing.assert_array_equal(action[row], want[0])
        assert logp[row] == want_logp[0]


def test_sample_multicategorical_rows_draw_from_their_lanes_generators():
    logits = np.random.default_rng(36).normal(size=(5, 12, 2))
    seeds = (5, 6, 7, 8, 9)
    action, logp = sample_multicategorical(logits, [np.random.default_rng(s) for s in seeds])
    rngs = [np.random.default_rng(s) for s in seeds]
    lanes = [1, 3, 4]
    some, some_logp = sample_multicategorical(logits[lanes], rngs, lanes=lanes)
    assert some.tobytes() == action[lanes].tobytes()
    assert some_logp.tobytes() == logp[lanes].tobytes()
    for k, s in enumerate(seeds):  # only the given lanes' generators drew
        fresh = np.random.default_rng(s)
        if k in lanes:
            fresh.uniform(size=12)
        assert rngs[k].bit_generator.state == fresh.bit_generator.state


def test_policy_hidden_state_carries_information():
    net = PolicyNetwork(seed=3)
    rng = np.random.default_rng(33)
    images, vecs = policy_batch(rng, T=2, B=1)
    logits_seq, _ = net.forward_sequence(images, vecs)
    # same second input with a reset hidden state gives different logits
    logits_reset, _, _ = net.step(images[1], vecs[1], net.init_hidden(1))
    assert not np.allclose(logits_seq[1], logits_reset)


def test_policy_full_backward_matches_finite_differences():
    net = PolicyNetwork(seed=5)
    rng = np.random.default_rng(34)
    images, vecs = policy_batch(rng, T=5, B=1)
    s = rng.standard_normal((5, 1, 12, 2))

    def loss():
        logits, _ = net.forward_sequence(images, vecs)
        return float((s * logits).sum())

    net.zero_grads()
    logits, caches = net.forward_sequence(images, vecs)
    net.backward_sequence(s.copy(), caches)
    params = net.parameters()
    grads = net.gradients()
    names = list(params)
    sizes = np.array([params[n].size for n in names])
    bounds = np.cumsum(sizes)
    for flat_idx in rng.choice(int(bounds[-1]), size=100, replace=False):
        slot = int(np.searchsorted(bounds, flat_idx, side="right"))
        local = int(flat_idx - (bounds[slot - 1] if slot else 0))
        name = names[slot]
        fd = fd_slot(loss, params[name], local)
        a = grads[name].flat[local]
        assert abs(a - fd) <= FD_ATOL + 1e-4 * max(abs(a), abs(fd)), (
            f"{name}[{local}]: analytic {a}, finite difference {fd}"
        )


def test_value_network_full_backward_matches_finite_differences():
    net = ValueNetwork(seed=6)
    rng = np.random.default_rng(35)
    xs = rng.uniform(-1.0, 1.0, size=(5, 2, 13))
    s = rng.standard_normal((5, 2))

    def loss():
        values, _ = net.forward_sequence(xs)
        return float((s * values).sum())

    net.zero_grads()
    values, caches = net.forward_sequence(xs)
    assert values.shape == (5, 2)
    net.backward_sequence(s.copy(), caches)
    params = net.parameters()
    grads = net.gradients()
    for name in params:
        check_fd(loss, params[name], grads[name], rng, 1e-4, samples=12, label=name)


def test_zero_upstream_gradient_leaves_grads_zero():
    net = PolicyNetwork(seed=7)
    rng = np.random.default_rng(36)
    images, vecs = policy_batch(rng, T=3, B=2)
    net.zero_grads()
    _, caches = net.forward_sequence(images, vecs)
    net.backward_sequence(np.zeros((3, 2, 12, 2)), caches)
    for g in net.gradients().values():
        assert np.all(g == 0.0)


def test_backward_accumulates_across_calls():
    net = ValueNetwork(seed=8)
    rng = np.random.default_rng(37)
    xs = rng.uniform(-1.0, 1.0, size=(2, 1, 13))
    s = rng.standard_normal((2, 1))
    net.zero_grads()
    _, caches = net.forward_sequence(xs)
    net.backward_sequence(s, caches)
    once = {k: v.copy() for k, v in net.gradients().items()}
    _, caches = net.forward_sequence(xs)
    net.backward_sequence(s, caches)
    for k, v in net.gradients().items():
        np.testing.assert_allclose(v, 2.0 * once[k], rtol=1e-12)


# --------------------------------------------------------------------------
# Sequence kernels against the per-step reference (tests/nn_reference.py)
#
# The kernels reorder float64 sums (one product over T*B rows instead of a
# sum over steps, fused gate columns, a tanh-form sigmoid), so float64
# networks are held within 1e-12 of each array's largest magnitude rather
# than bitwise. A float32 network is held to the float64 reference run on
# the same weights: float32 round-off (eps 1.2e-7) compounds through the
# layers and the time loop. The worst error seen was 2.0e-6 of the largest
# value here (conv1's bias gradient at T=100, B=10) and 4.2e-6 on
# build_networks' weights, so the bound is 2e-5.

KERNEL_RTOL = {np.float64: 1e-12, np.float32: 2e-5}
SEQUENCE_SHAPES = [(1, 1), (5, 2), (100, 10)]
KERNEL_CASES = [
    pytest.param(T, B, dtype, id=f"{T}-{B}" + ("-float32" if dtype == np.float32 else ""))
    for dtype in (np.float64, np.float32) for T, B in SEQUENCE_SHAPES
]


def assert_close_to_reference(got, want, label, dtype=np.float64):
    assert got.dtype == dtype, label
    rtol = KERNEL_RTOL[dtype]
    scale = float(np.max(np.abs(want)))
    np.testing.assert_allclose(got, want, rtol=rtol, atol=rtol * scale, err_msg=label)


def cache_dtypes(cache):
    """The dtypes of the arrays in a nested backward cache; the GRU's step
    sizes and the network's row plan (nn._Rows) are not tuples and hold no
    buffer of the network's."""
    if isinstance(cache, np.ndarray):
        return {cache.dtype}
    if isinstance(cache, tuple):
        return set().union(*map(cache_dtypes, cache))
    return set()


def float64_twin(net):
    """A float64 network holding `net`'s parameters exactly."""
    twin = type(net)(seed=None)
    twin.load_parameters({k: v.astype(np.float64) for k, v in net.parameters().items()})
    return twin


def padded_mask(rng, T, B):
    """(T, B) 0/1 mask of episodes T/2..T long, the first one T long."""
    lengths = rng.integers(max(1, T // 2), T + 1, size=B)
    lengths[0] = T
    return (np.arange(T)[:, None] < lengths[None, :]).astype(float)


@pytest.mark.parametrize("T,B,dtype", KERNEL_CASES)
def test_policy_kernel_matches_per_step_reference(T, B, dtype):
    net = PolicyNetwork(seed=T + B, dtype=dtype)
    ref = float64_twin(net)
    rng = np.random.default_rng(1000 * T + B)
    mask = padded_mask(rng, T, B)
    images = rng.normal(0.0, 0.5, size=(T, B, 8, 8, 2)) * mask[:, :, None, None, None]
    vecs = rng.normal(0.0, 0.1, size=(T, B, 7)) * mask[:, :, None]
    dlogits = rng.standard_normal((T, B, 12, 2)) * mask[:, :, None, None]

    want, caches = reference.policy_forward_sequence(ref, images, vecs)
    ref.zero_grads()
    reference.policy_backward_sequence(ref, dlogits, caches)

    got, cache = net.forward_sequence(images, vecs)
    assert cache_dtypes(cache) == {np.dtype(dtype)}  # every buffer in the network's dtype
    net.zero_grads()
    net.backward_sequence(dlogits, cache)
    assert_close_to_reference(got, want, "logits", dtype)
    want_grads = ref.gradients()
    for name, grad in net.gradients().items():
        assert_close_to_reference(grad, want_grads[name], name, dtype)


@pytest.mark.parametrize("T,B,dtype", KERNEL_CASES)
def test_value_kernel_matches_per_step_reference(T, B, dtype):
    net = ValueNetwork(seed=T + B, dtype=dtype)
    ref = float64_twin(net)
    rng = np.random.default_rng(1000 * T + B + 1)
    mask = padded_mask(rng, T, B)
    xs = rng.normal(0.0, 0.5, size=(T, B, 13)) * mask[:, :, None]
    dvalues = rng.standard_normal((T, B)) * mask

    want, caches = reference.value_forward_sequence(ref, xs)
    ref.zero_grads()
    reference.value_backward_sequence(ref, dvalues, caches)

    got, cache = net.forward_sequence(xs)
    assert cache_dtypes(cache) == {np.dtype(dtype)}
    net.zero_grads()
    net.backward_sequence(dvalues, cache)
    assert_close_to_reference(got, want, "values", dtype)
    want_grads = ref.gradients()
    for name, grad in net.gradients().items():
        assert_close_to_reference(grad, want_grads[name], name, dtype)


# --------------------------------------------------------------------------
# Packed sequences: with per-column lengths the kernels run on the real steps
# only. The products then run over fewer rows, which rounds differently, so
# the real positions and gradients are held to the padded kernel within
# KERNEL_RTOL; padded positions are exact zeros. Inputs at padded steps are
# noise here: neither kernel may let them reach a real step.

PACKED_CASES = [
    pytest.param(T, B, dtype, id=f"{T}-{B}-{np.dtype(dtype).name}")
    for dtype in (np.float64, np.float32) for T, B in ((7, 5), (40, 10))
]


def unsorted_lengths(rng, T, B):
    """B lengths in [1, T - 1], out of order, one of them 1, so that no
    column is T steps long and the last step has no rows at all."""
    lengths = rng.integers(2, T, size=B)
    lengths[B // 2] = 1
    assert np.any(np.diff(lengths) > 0)
    return lengths


def run_kernel(net, inputs, upstream, lengths):
    outputs, cache = net.forward_sequence(*inputs, lengths)
    net.zero_grads()
    net.backward_sequence(upstream, cache)
    return outputs, {k: g.copy() for k, g in net.gradients().items()}


def assert_packed_matches_padded(net, inputs, upstream, lengths, dtype):
    T = upstream.shape[0]
    live = np.arange(T)[:, None] < lengths
    mask = live.reshape(live.shape + (1,) * (upstream.ndim - 2))
    padded, padded_grads = run_kernel(net, inputs, upstream * mask, None)
    packed, packed_grads = run_kernel(net, inputs, upstream * mask, lengths)
    assert packed.dtype == padded.dtype == dtype
    assert np.all(packed[~live] == 0.0)
    assert_close_to_reference(packed[live], padded[live], "outputs", dtype)
    for name, grad in packed_grads.items():
        assert_close_to_reference(grad, padded_grads[name], name, dtype)


@pytest.mark.parametrize("T,B,dtype", PACKED_CASES)
def test_packed_policy_kernel_matches_padded_kernel(T, B, dtype):
    rng = np.random.default_rng(10 * T + B)
    inputs = policy_batch(rng, T, B)
    upstream = rng.standard_normal((T, B, 12, 2))
    net = PolicyNetwork(seed=T, dtype=dtype)
    assert_packed_matches_padded(net, inputs, upstream, unsorted_lengths(rng, T, B), dtype)


@pytest.mark.parametrize("T,B,dtype", PACKED_CASES)
def test_packed_value_kernel_matches_padded_kernel(T, B, dtype):
    rng = np.random.default_rng(10 * T + B + 1)
    inputs = (rng.uniform(-1.0, 1.0, size=(T, B, 13)),)
    upstream = rng.standard_normal((T, B))
    net = ValueNetwork(seed=T, dtype=dtype)
    assert_packed_matches_padded(net, inputs, upstream, unsorted_lengths(rng, T, B), dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_full_lengths_run_the_padded_kernel_bitwise(dtype):
    rng = np.random.default_rng(17)
    T, B = 9, 4
    cases = (
        (PolicyNetwork(seed=3, dtype=dtype), policy_batch(rng, T, B),
         rng.standard_normal((T, B, 12, 2))),
        (ValueNetwork(seed=3, dtype=dtype), (rng.uniform(-1.0, 1.0, size=(T, B, 13)),),
         rng.standard_normal((T, B))),
    )
    for net, inputs, upstream in cases:
        want, want_grads = run_kernel(net, inputs, upstream, None)
        got, got_grads = run_kernel(net, inputs, upstream, np.full(B, T))
        assert got.tobytes() == want.tobytes()
        for name, grad in got_grads.items():
            assert grad.tobytes() == want_grads[name].tobytes(), name


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("packed", [False, True], ids=["padded", "packed"])
def test_gru_loop_gives_the_bits_of_its_written_out_form(dtype, packed):
    # the time loop adds each product to its input term in place and takes
    # the gates' sigmoid in place; the bits must be those of the plain
    # expressions, or `step` and evaluation would change
    rng = np.random.default_rng(29)
    T, B, n_in, H = 30, 6, 9, 11
    cell = GRUCell(rng, n_in, H, dtype=dtype)
    cell.b[...] = rng.normal(0.0, 0.5, 3 * H)
    lengths = unsorted_lengths(rng, T, B) if packed else np.full(B, T)
    sizes = [int(np.sum(lengths > t)) for t in range(lengths.max())]
    xs = rng.standard_normal((sum(sizes), n_in)).astype(dtype)
    h = rng.normal(0.0, 0.5, (B, H)).astype(dtype)
    hs, (_, _, zr, c, _) = cell.forward_sequence(xs, h, sizes)
    want = reference.gru_sequence_written_out(cell, xs, h, sizes)
    for got, ref in zip((hs, zr, c), want):
        assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("packed", [False, True], ids=["padded", "packed"])
def test_uncached_forward_gives_the_cached_bits(dtype, packed):
    # the KL replay runs the same kernel without a backward cache; its
    # logits must keep the bits of the cached forward
    rng = np.random.default_rng(31)
    T, B = 40, 10
    lengths = unsorted_lengths(rng, T, B) if packed else None
    net = PolicyNetwork(seed=5, dtype=dtype)
    images, vecs = policy_batch(rng, T, B)
    want, cache = net.forward_sequence(images, vecs, lengths)
    got, none = net.forward_sequence(images, vecs, lengths, cache=False)
    assert cache is not None and none is None
    assert got.dtype == want.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lengths", [[3, 0], [3, 4], [3], [3.0, 2.0]],
                         ids=["zero", "above-T", "one-per-batch", "float"])
def test_sequence_lengths_are_checked(lengths):
    net = ValueNetwork(seed=0)
    with pytest.raises(ConfigurationError, match="lengths"):
        net.forward_sequence(np.zeros((3, 2, 13)), np.array(lengths))


def test_conv_patches_match_reference_loop():
    rng = np.random.default_rng(14)
    for c_in, kernel, stride, size in ((2, 3, 1, 8), (8, 4, 2, 6)):
        layer = Conv2D(rng, c_in, 3, kernel=kernel, stride=stride)
        ho = layer.out_size(size)
        x = rng.standard_normal((6, size, size, c_in))
        for view in (x, x[::2], x[:, :, :, ::-1]):  # strided inputs too
            want = reference.conv_patches(layer, view, ho, ho)
            np.testing.assert_array_equal(layer._patches(view), want.reshape(ho * ho * len(view), -1))


def test_conv_patches_match_reference_at_batch_one_and_on_strided_views():
    # the patches are a view of a contiguous buffer, so a strided input is
    # copied first; the matrix must hold the same bytes either way
    rng = np.random.default_rng(15)
    for c_in, kernel, stride, size in ((2, 3, 1, 8), (8, 4, 2, 6)):
        layer = Conv2D(rng, c_in, 3, kernel=kernel, stride=stride)
        ho = layer.out_size(size)
        big = rng.standard_normal((3, size + 2, size + 2, 2 * c_in))
        x = np.ascontiguousarray(big[:1, 1:-1, 1:-1, :c_in])
        views = (
            x,                                         # batch 1, contiguous
            big[1:2, 1:-1, 1:-1, :c_in],               # batch 1, strided window
            big[::2, 2:, :-2, ::2],                    # every other row and channel
            x[:, ::-1, ::-1, :],                       # negative strides
            np.asfortranarray(x),                      # column-major
            x.transpose(0, 2, 1, 3),                   # swapped spatial axes
        )
        for view in views:
            want = reference.conv_patches(layer, view, ho, ho).reshape(ho * ho * len(view), -1)
            got = layer._patches(view)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


# sha256 of the archives nn.save_checkpoint writes for build_networks(0),
# float32, bare and after one Adam step, with every weight row-major. The
# archives written when wide weights were column-major hold the same names,
# shapes and values; only their `.npy` headers and data order differ.
BUILD_NETWORKS_0_SHA256 = "888a479211933fac1b07d7e34caf9e7c2eb4eadf3135c6b9614c581316ed4a65"
ONE_ADAM_STEP_SHA256 = "6879018fdfe92163dba4784277da3ff0b5ddf76a9fe475f868e0628e14f8d164"


def test_checkpoint_bytes_of_fresh_networks_are_pinned(tmp_path):
    def digest(path):
        with open(path, "rb") as fh:
            return hashlib.sha256(fh.read()).hexdigest()

    policy, value = build_networks(0)
    path = str(tmp_path / "ck.npz")
    save_checkpoint(path, policy, value)
    assert digest(path) == BUILD_NETWORKS_0_SHA256

    popt = Adam(policy.parameters(), lr=3.0e-4)
    vopt = Adam(value.parameters(), lr=1.0e-3)
    rng = np.random.default_rng(5)
    popt.step({k: rng.standard_normal(a.shape) for k, a in policy.parameters().items()})
    vopt.step({k: rng.standard_normal(a.shape) for k, a in value.parameters().items()})
    save_checkpoint(path, policy, value, popt, vopt, extra={"batch": 1})
    assert digest(path) == ONE_ADAM_STEP_SHA256


# --------------------------------------------------------------------------
# Distribution over 12 independent on/off heads

def test_zero_logits_give_half_probability():
    logits = np.zeros((1, 12, 2))
    p = softmax(logits)
    np.testing.assert_allclose(p, 0.5)
    action = np.zeros((1, 12), dtype=np.int64)
    np.testing.assert_allclose(action_log_prob(logits, action), 12.0 * np.log(0.5), rtol=1e-15)


def test_saturated_logits_are_deterministic():
    logits = np.zeros((1, 12, 2))
    logits[..., 0] = 20.0
    logits[..., 1] = -20.0
    rng = np.random.default_rng(41)
    for _ in range(20):
        action, logp = sample_multicategorical(logits, rng)
        assert np.all(action == 0)
        assert logp[0] > -1e-8
    assert np.all(greedy_action(logits) == 0)
    assert np.all(greedy_action(-logits) == 1)


def test_sampling_statistics_match_probabilities():
    logits = np.zeros((100_000, 12, 2))
    logits[..., 1] = 1.0  # p(on) = e / (1 + e)
    rng = np.random.default_rng(42)
    action, _ = sample_multicategorical(logits, rng)
    target = np.e / (1.0 + np.e)
    assert abs(action.mean() - target) < 0.005


def test_log_prob_matches_explicit_loop():
    rng = np.random.default_rng(43)
    logits = rng.standard_normal((4, 12, 2))
    action = rng.integers(0, 2, size=(4, 12))
    lp = action_log_prob(logits, action)
    for b in range(4):
        total = 0.0
        for k in range(12):
            pair = logits[b, k]
            total += pair[action[b, k]] - np.log(np.exp(pair).sum())
        np.testing.assert_allclose(lp[b], total, rtol=1e-12)


def test_kl_matches_explicit_loop():
    rng = np.random.default_rng(44)
    old = rng.standard_normal((3, 12, 2))
    new = rng.standard_normal((3, 12, 2))
    kl = kl_divergence(old, new)
    for b in range(3):
        kl_ref = 0.0
        for k in range(12):
            po = np.exp(old[b, k]) / np.exp(old[b, k]).sum()
            pn = np.exp(new[b, k]) / np.exp(new[b, k]).sum()
            kl_ref += (po * np.log(po / pn)).sum()
        np.testing.assert_allclose(kl[b], kl_ref, rtol=1e-12)
    np.testing.assert_allclose(kl_divergence(old, old), 0.0, atol=1e-15)
    assert np.all(kl > 0.0)


def test_log_prob_gradient_matches_finite_differences():
    rng = np.random.default_rng(45)
    logits = rng.standard_normal((3, 12, 2))
    action = rng.integers(0, 2, size=(3, 12))
    coeff = rng.standard_normal(3)

    def loss():
        return float((coeff * action_log_prob(logits, action)).sum())

    grad = logp_grad_logits(logits, action, coeff)
    check_fd(loss, logits, grad, rng, 1e-6, samples=60, label="logits")


def test_log_softmax_is_shift_invariant_and_stable():
    logits = np.array([[[1000.0, 1001.0]]])
    lp = log_softmax(logits)
    assert np.all(np.isfinite(lp))
    np.testing.assert_allclose(np.exp(lp).sum(), 1.0, rtol=1e-12)
    np.testing.assert_allclose(log_softmax(logits - 500.0), lp, atol=1e-12)


def test_log_softmax_gives_the_bits_of_the_reduction_form():
    # the pair's max and sum are written out elementwise; they must give
    # the bits of numpy's reductions over the last axis, edge values too
    rng = np.random.default_rng(19)
    for dtype in (np.float32, np.float64):
        logits = (rng.standard_normal((50, 7, 12, 2)) * 30.0).astype(dtype)
        logits[0, 0, :7] = [[np.inf, 1.0], [-np.inf, 0.0], [np.nan, 1.0], [1.0, np.nan],
                            [np.inf, np.inf], [-0.0, 0.0], [1e30, -1e30]]
        with np.errstate(invalid="ignore"):
            z = logits - logits.max(axis=-1, keepdims=True)
            want = z - np.log(np.exp(z).sum(axis=-1, keepdims=True))
            got = log_softmax(logits)
        assert got.dtype == dtype and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_action_heads_give_the_bits_of_their_indexing_forms(dtype):
    # kl_divergence adds each head's pair elementwise, action_log_prob picks
    # by the bit and logp_grad_logits writes its one-hot from the bits; the
    # bits must be those of the reduction / take / put forms in nn_reference
    rng = np.random.default_rng(23)
    old, new = ((rng.standard_normal((50, 7, 12, 2)) * scale).astype(dtype)
                for scale in (3.0, 30.0))
    # edge values: ties, signed zeros, pairs far apart (an underflowing
    # probability), and non-finite logits
    old[0, 0, :8] = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0],
                     [1e30, -1e30], [-1e30, 1e30], [200.0, -200.0], [np.inf, 1.0]]
    new[0, 0, :8] = [[-0.0, -0.0], [0.0, -0.0], [1e30, -1e30], [-200.0, 200.0],
                     [-1e30, 1e30], [1e30, -1e30], [199.0, -201.0], [1.0, np.nan]]
    action = rng.integers(0, 2, size=(50, 7, 12))
    coeff = rng.standard_normal((50, 7))
    with np.errstate(invalid="ignore", over="ignore"):
        pairs = (
            (kl_divergence(old, new),
             reference.kl_divergence_by_reduction(log_softmax, old, new)),
            (action_log_prob(old, action),
             reference.action_log_prob_by_indexing(log_softmax, old, action)),
            (logp_grad_logits(old, action, coeff),
             reference.logp_grad_logits_by_scatter(softmax, old, action, coeff)),
        )
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


# --------------------------------------------------------------------------
# Optimizer

def test_adam_zero_gradient_leaves_params_unchanged():
    params = {"w": np.array([1.0, -2.0, 3.0])}
    opt = Adam(params, lr=0.1)
    before = params["w"].copy()
    for _ in range(5):
        opt.step({"w": np.zeros(3)})
    np.testing.assert_array_equal(params["w"], before)


def test_adam_constant_gradient_step_size_approaches_lr():
    params = {"w": np.array([0.0])}
    opt = Adam(params, lr=1.0e-3)
    g = {"w": np.array([3.5])}
    for _ in range(200):
        prev = params["w"].copy()
        opt.step(g)
        delta = abs(params["w"][0] - prev[0])
    assert abs(delta - 1.0e-3) < 1.0e-8


def test_adam_descends_quadratic_bowl():
    params = {"x": np.array([5.0, -3.0, 2.0])}
    opt = Adam(params, lr=1.0e-2)
    for step in range(5000):
        loss = 0.5 * float((params["x"] ** 2).sum())
        if loss < 1.0e-6:
            break
        opt.step({"x": params["x"].copy()})
    assert 0.5 * float((params["x"] ** 2).sum()) < 1.0e-6


def test_adam_updates_in_place_through_network_views():
    net = ValueNetwork(seed=9)
    opt = Adam(net.parameters(), lr=1.0e-3)
    w_before = net.layers["fc1"].W.copy()
    grads = {k: np.ones_like(v) for k, v in net.parameters().items()}
    opt.step(grads)
    assert not np.allclose(net.layers["fc1"].W, w_before)


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))],
                         ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("Network", [PolicyNetwork, ValueNetwork])
def test_a_copied_network_loads_steps_and_forwards_like_a_fresh_one(clone, Network):
    # The GRU's gate views must keep pointing into its fused buffers in the
    # copy, or parameters loaded or stepped through them never reach forward.
    source = Network(seed=2, dtype=np.float32)
    nets = [Network(seed=1, dtype=np.float32), clone(Network(seed=1, dtype=np.float32))]
    rng = np.random.default_rng(41)
    if Network is PolicyNetwork:
        inputs = (rng.uniform(-0.5, 0.5, size=(4, 3, 8, 8, 2)),
                  rng.uniform(-0.5, 0.5, size=(4, 3, 7)))
    else:
        inputs = (rng.uniform(-1.0, 1.0, size=(4, 3, 13)),)
    outputs = []
    for net in nets:
        net.load_parameters(source.parameters())
        opt = Adam(net.parameters(), lr=1.0e-2)
        loaded, cache = net.forward_sequence(*inputs)
        net.zero_grads()
        net.backward_sequence(np.ones_like(loaded), cache)
        opt.step(net.gradients())
        stepped, _ = net.forward_sequence(*inputs)
        outputs.append([loaded.tobytes(), stepped.tobytes(),
                        *(p.tobytes() for p in net.parameters().values())])
    assert outputs[0][0] == source.forward_sequence(*inputs)[0].tobytes()
    assert outputs[1] == outputs[0]


# --------------------------------------------------------------------------
# Checkpointing

def test_checkpoint_round_trip_reproduces_forward_outputs(tmp_path):
    policy_a = PolicyNetwork(seed=100)
    value_a = ValueNetwork(seed=101)
    popt = Adam(policy_a.parameters(), lr=3.0e-4)
    vopt = Adam(value_a.parameters(), lr=1.0e-3)
    rng = np.random.default_rng(50)
    # take a few optimizer steps so moments are nonzero
    for _ in range(3):
        popt.step({k: rng.standard_normal(v.shape) for k, v in policy_a.parameters().items()})
        vopt.step({k: rng.standard_normal(v.shape) for k, v in value_a.parameters().items()})

    path = str(tmp_path / "ck.npz")
    save_checkpoint(path, policy_a, value_a, popt, vopt, extra={"batch": 17})

    policy_b = PolicyNetwork(seed=200)
    value_b = ValueNetwork(seed=201)
    popt_b = Adam(policy_b.parameters(), lr=9.9)
    vopt_b = Adam(value_b.parameters(), lr=9.9)
    meta = load_checkpoint(path, policy_b, value_b, popt_b, vopt_b)

    assert meta["extra"] == {"batch": 17}
    assert popt_b.t == popt.t and popt_b.lr == popt.lr
    assert vopt_b.t == vopt.t and vopt_b.lr == vopt.lr
    for k in popt.m:
        np.testing.assert_array_equal(popt_b.m[k], popt.m[k])
        np.testing.assert_array_equal(popt_b.v[k], popt.v[k])

    image = rng.uniform(-1.0, 1.0, size=(2, 8, 8, 2))
    vec = rng.uniform(-1.0, 1.0, size=(2, 7))
    la, ha, _ = policy_a.step(image, vec, policy_a.init_hidden(2))
    lb, hb, _ = policy_b.step(image, vec, policy_b.init_hidden(2))
    np.testing.assert_array_equal(la, lb)
    np.testing.assert_array_equal(ha, hb)
    xs = rng.uniform(-1.0, 1.0, size=(1, 2, 13))
    va, _ = value_a.forward_sequence(xs)
    vb, _ = value_b.forward_sequence(xs)
    np.testing.assert_array_equal(va, vb)


def test_checkpoint_without_optimizer_state_rejects_optimizer_load(tmp_path):
    policy = PolicyNetwork(seed=1)
    value = ValueNetwork(seed=2)
    path = str(tmp_path / "bare.npz")
    save_checkpoint(path, policy, value)
    meta = load_checkpoint(path, policy, value)  # plain load works
    assert meta["version"] == 1
    with pytest.raises(ConfigurationError):
        load_checkpoint(path, policy, value, policy_opt=Adam(policy.parameters()))


def test_load_parameters_validates_names_and_shapes():
    net = ValueNetwork(seed=3)
    with pytest.raises(ConfigurationError):
        net.load_parameters({})
    good = dict(net.parameters())
    good["fc1.W"] = np.zeros((2, 2))
    with pytest.raises(ConfigurationError):
        net.load_parameters(good)
