"""Dense nets: initialization, forward pass, analytic gradients, stacks."""

import math
from collections import deque

import numpy as np
import pytest

from turntaking.neural import DenseNet, _backward, _forward, init_net, sigmoid
from turntaking.training import MEMORY, _block


def net_loss(net, x, upstream):
    """The scalar objective whose gradients ``net_gradient`` reports."""
    out = _forward(net, x)[0]
    return float(np.sum(np.asarray(upstream) * out))


def net_gradient(net, x, upstream):
    """Gradients of ``net_loss`` in every parameter, laid out as ``net.params``."""
    return _backward(net, _forward(net, x)[1], upstream)


def stepped(net, grad, step):
    """A net of ``net``'s layout at ``params - step * grad``."""
    return net._with_params(net.params - step * grad)


def fd_gradients(net, x, upstream, h=1e-5):
    """Central finite differences of net_loss over every entry of ``params``."""
    grads = np.empty_like(net.params)
    for i in range(net.params.size):
        nudge = np.zeros_like(net.params)
        nudge[i] = h
        hi = net_loss(net._with_params(net.params + nudge), x, upstream)
        lo = net_loss(net._with_params(net.params - nudge), x, upstream)
        grads[i] = (hi - lo) / (2 * h)
    return grads


def assert_close_gradients(got, want, rel=1e-4, floor=1e-7):
    assert got.shape == want.shape
    np.testing.assert_allclose(got, want, rtol=rel, atol=floor)


def random_net(rng, sizes):
    """A net with nonzero parameters everywhere, unlike a fresh init."""
    weights = tuple(
        rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)
        for n_in, n_out in zip(sizes[:-1], sizes[1:])
    )
    biases = tuple(rng.normal(size=n_out) * 0.1 for n_out in sizes[1:])
    return DenseNet(weights=weights, biases=biases)


# ------------------------------------------------------------------- sigmoid


def test_sigmoid_values():
    assert sigmoid(0.0) == 0.5
    assert sigmoid(0.3) == pytest.approx(0.574442516811659, abs=1e-15)
    assert sigmoid(-0.3) == pytest.approx(1 - sigmoid(0.3), abs=1e-15)


def test_sigmoid_stays_finite_for_huge_inputs():
    with np.errstate(over="raise"):
        assert sigmoid(800.0) == 1.0
        assert sigmoid(-800.0) == 0.0


def test_sigmoid_array_input():
    out = sigmoid(np.array([-1.0, 0.0, 1.0]))
    assert out.shape == (3,)
    assert out[1] == 0.5
    assert out[0] == pytest.approx(1 - out[2], abs=1e-15)


def piecewise_sigmoid(z):
    """Reference: 1/(1+exp(-z)) on z >= 0 and exp(z)/(1+exp(z)) below."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def test_sigmoid_is_bit_identical_to_the_piecewise_form():
    rng = np.random.default_rng(27)
    special = np.array([0.0, -0.0, 800.0, -800.0, np.inf, -np.inf, np.nan])
    z = np.concatenate([special, rng.normal(scale=30.0, size=100_000)])
    with np.errstate(over="raise", invalid="raise"):
        got = sigmoid(z)
    want = piecewise_sigmoid(z)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))
    for x in special[:-1]:
        assert sigmoid(x) == piecewise_sigmoid([x])[0]
    assert math.isnan(sigmoid(np.nan))


# -------------------------------------------------------------------- init


def test_init_is_deterministic_per_seed():
    a = init_net((16, 16), seed=42)
    b = init_net((16, 16), seed=42)
    c = init_net((16, 16), seed=43)
    assert a == b
    assert a != c


def test_init_layer_shapes_and_sizes():
    net = init_net((16, 16), seed=0)
    assert [W.shape for W in net.weights] == [(16, 1), (16, 16), (1, 16)]
    assert [b.shape for b in net.biases] == [(16,), (16,), (1,)]


def test_init_biases_and_output_layer_start_at_zero():
    net = init_net((16, 16), seed=5)
    for b in net.biases:
        assert np.all(b == 0.0)
    assert np.all(net.weights[-1] == 0.0)
    assert np.any(net.weights[0] != 0.0)
    assert np.any(net.weights[1] != 0.0)


def test_init_hidden_scale_tracks_fan_in():
    net = init_net((400, 400), seed=7)
    assert float(net.weights[0].std()) == pytest.approx(1.0, abs=0.1)
    assert float(net.weights[1].std()) == pytest.approx(1 / 20, abs=0.005)


def test_fresh_net_outputs_half_everywhere():
    net = init_net((16, 16), seed=3)
    out = _forward(net, [-100.0, -1.0, 0.0, 0.25, 1.0, 50.0])[0]
    assert out.tolist() == [0.5] * 6


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError, match="at least one hidden layer"):
        init_net((), seed=0)
    with pytest.raises(ValueError):
        init_net((0,), seed=0)
    with pytest.raises(ValueError):
        init_net((16, 0), seed=0)


# ------------------------------------------------------------------- forward


def test_single_layer_forward_is_sigmoid_affine():
    net = DenseNet(weights=(np.array([[1.2]]),), biases=(np.array([-0.3]),))
    (out,) = _forward(net, [0.5])[0]
    assert out == pytest.approx(sigmoid(1.2 * 0.5 - 0.3), abs=1e-15)
    assert out == pytest.approx(0.574442516811659, abs=1e-15)


def test_two_layer_forward_hand_computed():
    net = DenseNet(
        weights=(np.array([[0.3], [-0.7]]), np.array([[0.5, -0.4]])),
        biases=(np.array([0.1, 0.2]), np.array([0.15])),
    )
    # sig(0.5*tanh(0.34) - 0.4*tanh(-0.36) + 0.15), evaluated by hand.
    assert _forward(net, [0.8])[0][0] == pytest.approx(0.611072892598962, abs=1e-12)


def test_forward_output_lies_in_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_net(rng, (1, 8, 1))
        out = _forward(net, rng.normal(size=50) * 10)[0]
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)


def test_batched_forward_matches_scalar_forward():
    rng = np.random.default_rng(22)
    net = random_net(rng, (1, 5, 5, 1))
    xs = rng.normal(size=12)
    batched = _forward(net, xs)[0]
    assert batched.shape == (12,)
    for x, y in zip(xs, batched):
        assert _forward(net, [x])[0][0] == pytest.approx(y, abs=1e-15)


def test_dense_net_validation():
    with pytest.raises(ValueError):
        DenseNet(weights=(np.ones((2, 1)),), biases=(np.zeros(3),))
    with pytest.raises(ValueError):
        DenseNet(weights=(), biases=())
    with pytest.raises(ValueError):
        DenseNet(weights=(np.array([[np.inf]]),), biases=(np.zeros(1),))
    # Every net maps one input to one output through layers that chain.
    with pytest.raises(ValueError, match="do not chain"):
        DenseNet(weights=(np.ones((1, 2)),), biases=(np.zeros(1),))
    with pytest.raises(ValueError, match="do not chain"):
        DenseNet(weights=(np.ones((3, 1)), np.ones((1, 2))), biases=(np.zeros(3), np.zeros(1)))


# ------------------------------------------------------------------ backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(23)
    shapes = [(1, 1), (1, 3, 1), (1, 4, 4, 1), (1, 3, 2, 1)]
    for trial in range(20):
        sizes = shapes[trial % len(shapes)]
        net = random_net(rng, sizes)
        B = int(rng.integers(1, 6))
        x = rng.normal(size=B)
        upstream = rng.normal(size=B)
        got = net_gradient(net, x, upstream)
        want = fd_gradients(net, x, upstream)
        assert_close_gradients(got, want)


def test_backward_from_kept_activations_is_bit_identical():
    # The net's own parameters and the same values passed as ``params``
    # give one forward and one backward, bit for bit.
    rng = np.random.default_rng(28)
    for sizes in ((1, 1), (1, 16, 16, 1), (1, 5, 3, 1)):
        net = random_net(rng, sizes)
        x = rng.normal(size=7)
        up = rng.normal(size=7)
        out, cache = _forward(net, x)
        params = net.params.copy()
        out_params, cache_params = _forward(net, x, params)
        assert np.array_equal(out, out_params)
        got = _backward(net, cache, up)
        want = _backward(net, cache_params, up, params)
        assert got.shape == want.shape == net.params.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_backward_single_weight_closed_form():
    w = 0.8
    net = DenseNet(weights=(np.array([[w]]),), biases=(np.zeros(1),))
    x = 1.7
    grad = net_gradient(net, [x], [1.0])
    y = sigmoid(w * x)
    assert grad.tolist() == pytest.approx([x * y * (1 - y), y * (1 - y)], abs=1e-12)


def test_backward_zero_upstream_gives_zero_gradients():
    net = random_net(np.random.default_rng(25), (1, 6, 1))
    grad = net_gradient(net, np.array([0.1, 0.5, 2.0]), np.zeros(3))
    assert np.all(grad == 0.0)


def test_backward_accumulates_over_batch():
    rng = np.random.default_rng(26)
    net = random_net(rng, (1, 4, 1))
    xs = rng.normal(size=5)
    ups = rng.normal(size=5)
    whole = net_gradient(net, xs, ups)
    total = sum(net_gradient(net, [x], [up]) for x, up in zip(xs, ups))
    np.testing.assert_allclose(whole, total, rtol=1e-12, atol=1e-14)


def test_gradient_step_reduces_convex_toy_loss():
    # L(net) = (net(x) - 0.9)^2, a single-parameter convex objective.
    net = DenseNet(weights=(np.array([[0.2]]),), biases=(np.zeros(1),))
    x, target = 1.0, 0.9

    def loss(n):
        return (_forward(n, [x])[0][0] - target) ** 2

    grad = net_gradient(net, [x], 2 * (_forward(net, [x])[0] - target))
    assert loss(stepped(net, grad, 0.5)) < loss(net)


def test_dense_net_holds_one_read_only_copy_of_its_parameters():
    weights = (np.array([[1.0], [2.0]]), np.array([[4.0, 5.0]]))
    biases = (np.array([3.0, 6.0]), np.array([7.0]))
    net = DenseNet(weights=weights, biases=biases)
    weights[0][0, 0] = 9.0
    assert net.weights[0][0, 0] == 1.0
    assert net.params.tolist() == [1.0, 2.0, 4.0, 5.0, 3.0, 6.0, 7.0]
    assert np.shares_memory(net.weights[0], net.params)
    with pytest.raises(ValueError):
        net.biases[0][0] = 0.0


# ----------------------------------------------------------------- updates

# The three ``apply_update`` tests keep the names they had when a plain
# gradient step was the parameter update. The fit's L-BFGS block step
# (``training._block``) is now the only one, and on a net's parameter vector
# it keeps the same contract: a new net, the input untouched, and a
# non-finite gradient at an accepted point a FloatingPointError with no numpy
# warning ahead of it.


def copied(net):
    return DenseNet(
        weights=tuple(W.copy() for W in net.weights),
        biases=tuple(b.copy() for b in net.biases),
    )


def net_block(net, x, upstream, gradient=net_gradient):
    """Up to ``BLOCK_STEPS`` block steps on ``net`` for ``net_loss``; the net it ends at."""
    def run(n):
        return net_loss(n, x, upstream), None

    _, moved, _, _ = _block(net.params, net, run(net), deque(maxlen=MEMORY), net._with_params,
                            run, lambda n, _: gradient(n, x, upstream))
    return moved


def test_apply_update_returns_new_net_and_preserves_input():
    rng = np.random.default_rng(27)
    net = random_net(rng, (1, 3, 3, 1))
    before = copied(net)
    moved = net_block(net, rng.uniform(size=2), rng.normal(size=2))
    assert net == before
    assert moved != net
    assert not np.shares_memory(moved.params, net.params)
    assert not moved.params.flags.writeable
    assert all(a.shape == b.shape for a, b in zip(moved.weights, net.weights))


def test_apply_update_reports_divergence_as_floating_point_error():
    # A NaN in an output bias's gradient at the first accepted trial: the
    # block raises rather than return a net, and the net passed in is untouched.
    rng = np.random.default_rng(31)
    net = random_net(rng, (1, 2, 1))
    before = copied(net)

    def diverging(n, x, upstream):
        grad = net_gradient(n, x, upstream)
        if n is not net:
            grad[-1] = np.nan  # biases[-1][0]
        return grad

    with pytest.raises(FloatingPointError, match="non-finite gradient"):
        net_block(net, [0.4], [1.0], diverging)
    assert net == before


def test_apply_update_overflow_is_floating_point_error_without_warning():
    # The weight's gradient is the slope 1e200 times the input 1e200, which
    # overflows at the start point; the only outcome is the FloatingPointError.
    import warnings

    net = DenseNet(weights=(np.array([[1e-300]]),), biases=(np.zeros(1),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FloatingPointError, match="non-finite gradient"):
            net_block(net, [1e200], [1e200])


# ------------------------------------------------------------------ stacks


def same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


def test_stacked_pair_matches_two_nets_bit_for_bit():
    # f and g as the rows of one (2, P) array: one batched forward and one
    # backward give each net's own bits.
    rng = np.random.default_rng(39)
    nets = [random_net(rng, (1, 16, 16, 1)) for _ in range(2)]
    pair = np.stack([net.params for net in nets])
    for rows in (1, 7, 75, 831):
        x = rng.uniform(0.1, 1.0, rows)
        upstream = rng.normal(size=(2, rows))
        out, cache = _forward(nets[0], x, pair)
        grads = _backward(nets[0], cache, upstream, pair)
        for k, net in enumerate(nets):
            assert same_bits(out[k], _forward(net, x)[0])
            assert same_bits(grads[k], net_gradient(net, x, upstream[k]))


def test_one_input_layer_broadcast_matches_the_k1_matmul():
    # Each output of a layer with one input, and each product back through a
    # layer with one output, is a single product: the broadcast keeps the
    # matmul's bits, for one net and for a stack.
    rng = np.random.default_rng(40)
    x = rng.uniform(0.1, 1.0, size=(831, 1))
    W = rng.normal(size=(16, 1))
    stacked = rng.normal(size=(2, 16, 1))
    assert same_bits(x * W[None, :, 0], x @ W.T)
    assert same_bits(x * stacked[:, None, :, 0], np.matmul(x, stacked.swapaxes(-1, -2)))
    dz = rng.normal(size=(2, 831, 1))
    V = rng.normal(size=(2, 1, 16))
    assert same_bits(dz * V[:, None, 0, :], np.matmul(dz, V))
    assert same_bits(dz[0] * V[0][None, 0, :], dz[0] @ V[0])
