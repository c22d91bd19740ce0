"""Dense nets: initialization, forward pass, analytic gradients, updates."""

import math

import numpy as np
import pytest

from turntaking import (
    DenseNet,
    GradientSet,
    apply_update,
    backward,
    clip_gradients,
    init_net,
    sigmoid,
)


def net_loss(net, x, upstream):
    """The scalar objective whose gradients ``backward`` reports."""
    out = np.atleast_1d(net.forward(x))
    return float(np.sum(np.asarray(upstream) * out))


def perturbed(net, layer, index, kind, h):
    """Copy of ``net`` with one weight or bias nudged by h."""
    weights = [W.copy() for W in net.weights]
    biases = [b.copy() for b in net.biases]
    (weights if kind == "w" else biases)[layer][index] += h
    return DenseNet(weights=tuple(weights), biases=tuple(biases), activation=net.activation)


def fd_gradients(net, x, upstream, h=1e-5):
    """Central finite differences of net_loss over every parameter."""
    grads = GradientSet.zeros_like(net)
    for l in range(len(net.weights)):
        for idx in np.ndindex(net.weights[l].shape):
            hi = net_loss(perturbed(net, l, idx, "w", h), x, upstream)
            lo = net_loss(perturbed(net, l, idx, "w", -h), x, upstream)
            grads.weights[l][idx] = (hi - lo) / (2 * h)
        for idx in np.ndindex(net.biases[l].shape):
            hi = net_loss(perturbed(net, l, idx, "b", h), x, upstream)
            lo = net_loss(perturbed(net, l, idx, "b", -h), x, upstream)
            grads.biases[l][idx] = (hi - lo) / (2 * h)
    return grads


def assert_close_gradients(got, want, rel=1e-4, floor=1e-7):
    for gW, wW in zip(got.weights, want.weights):
        np.testing.assert_allclose(gW, wW, rtol=rel, atol=floor)
    for gb, wb in zip(got.biases, want.biases):
        np.testing.assert_allclose(gb, wb, rtol=rel, atol=floor)


def random_net(rng, sizes, activation="tanh"):
    """A net with nonzero parameters everywhere, unlike a fresh init."""
    weights = tuple(
        rng.normal(size=(n_out, n_in)) / np.sqrt(n_in)
        for n_in, n_out in zip(sizes[:-1], sizes[1:])
    )
    biases = tuple(rng.normal(size=n_out) * 0.1 for n_out in sizes[1:])
    return DenseNet(weights=weights, biases=biases, activation=activation)


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


# -------------------------------------------------------------------- init


def test_init_is_deterministic_per_seed():
    a = init_net((1, 16, 16, 1), seed=42)
    b = init_net((1, 16, 16, 1), seed=42)
    c = init_net((1, 16, 16, 1), seed=43)
    assert a == b
    assert a != c


def test_init_layer_shapes_and_sizes():
    net = init_net((1, 16, 16, 1), seed=0)
    assert net.layer_sizes == (1, 16, 16, 1)
    assert [W.shape for W in net.weights] == [(16, 1), (16, 16), (1, 16)]
    assert [b.shape for b in net.biases] == [(16,), (16,), (1,)]


def test_init_biases_and_output_layer_start_at_zero():
    net = init_net((1, 16, 16, 1), seed=5)
    for b in net.biases:
        assert np.all(b == 0.0)
    assert np.all(net.weights[-1] == 0.0)
    assert np.any(net.weights[0] != 0.0)
    assert np.any(net.weights[1] != 0.0)


def test_init_hidden_scale_tracks_fan_in():
    net = init_net((1, 400, 400, 1), seed=7)
    assert float(net.weights[0].std()) == pytest.approx(1.0, abs=0.1)
    assert float(net.weights[1].std()) == pytest.approx(1 / 20, abs=0.005)


def test_fresh_net_outputs_half_everywhere():
    net = init_net((1, 16, 16, 1), seed=3)
    for x in (-100.0, -1.0, 0.0, 0.25, 1.0, 50.0):
        assert net.forward(x) == 0.5


def test_init_rejects_bad_sizes():
    with pytest.raises(ValueError):
        init_net((1,), seed=0)
    with pytest.raises(ValueError):
        init_net((1, 0, 1), seed=0)


# ------------------------------------------------------------------- forward


def test_single_layer_forward_is_sigmoid_affine():
    net = DenseNet(weights=(np.array([[1.2]]),), biases=(np.array([-0.3]),))
    assert net.forward(0.5) == pytest.approx(sigmoid(1.2 * 0.5 - 0.3), abs=1e-15)
    assert net.forward(0.5) == pytest.approx(0.574442516811659, abs=1e-15)


def test_two_layer_forward_hand_computed():
    net = DenseNet(
        weights=(np.array([[0.3], [-0.7]]), np.array([[0.5, -0.4]])),
        biases=(np.array([0.1, 0.2]), np.array([0.15])),
    )
    # sig(0.5*tanh(0.34) - 0.4*tanh(-0.36) + 0.15), evaluated by hand.
    assert net.forward(0.8) == pytest.approx(0.611072892598962, abs=1e-12)


def test_forward_output_lies_in_unit_interval():
    rng = np.random.default_rng(21)
    for _ in range(10):
        net = random_net(rng, (1, 8, 1))
        out = np.atleast_1d(net.forward(rng.normal(size=50) * 10))
        assert np.all(out > 0.0)
        assert np.all(out < 1.0)


def test_batched_forward_matches_scalar_forward():
    rng = np.random.default_rng(22)
    net = random_net(rng, (1, 5, 5, 1))
    xs = rng.normal(size=12)
    batched = net.forward(xs)
    assert batched.shape == (12,)
    for x, y in zip(xs, batched):
        assert net.forward(float(x)) == pytest.approx(y, abs=1e-15)


def test_dense_net_validation():
    with pytest.raises(ValueError):
        DenseNet(weights=(np.ones((2, 1)),), biases=(np.zeros(3),))
    with pytest.raises(ValueError):
        DenseNet(weights=(), biases=())
    with pytest.raises(ValueError):
        DenseNet(weights=(np.ones((1, 1)),), biases=(np.zeros(1),), activation="softplus")
    with pytest.raises(ValueError):
        DenseNet(weights=(np.array([[np.inf]]),), biases=(np.zeros(1),))


# ------------------------------------------------------------------ backward


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(23)
    shapes = [(1, 1), (1, 3, 1), (1, 4, 4, 1), (2, 3, 1)]
    for trial in range(20):
        sizes = shapes[trial % len(shapes)]
        net = random_net(rng, sizes)
        B = int(rng.integers(1, 6))
        x = rng.normal(size=(B, sizes[0])) if sizes[0] > 1 else rng.normal(size=B)
        upstream = rng.normal(size=B)
        got = backward(net, x, upstream)
        want = fd_gradients(net, x, upstream)
        assert_close_gradients(got, want)


def test_backward_matches_finite_differences_relu():
    rng = np.random.default_rng(24)
    for _ in range(5):
        net = random_net(rng, (1, 4, 1), activation="relu")
        # Keep preactivations away from the relu kink so the FD stencil
        # stays on one side of it.
        x = rng.normal(size=4) + 3.0
        upstream = rng.normal(size=4)
        assert_close_gradients(backward(net, x, upstream), fd_gradients(net, x, upstream))


def test_backward_single_weight_closed_form():
    w = 0.8
    net = DenseNet(weights=(np.array([[w]]),), biases=(np.zeros(1),))
    x = 1.7
    grads = backward(net, x, 1.0)
    y = sigmoid(w * x)
    assert grads.weights[0][0, 0] == pytest.approx(x * y * (1 - y), abs=1e-12)
    assert grads.biases[0][0] == pytest.approx(y * (1 - y), abs=1e-12)


def test_backward_zero_upstream_gives_zero_gradients():
    net = random_net(np.random.default_rng(25), (1, 6, 1))
    grads = backward(net, np.array([0.1, 0.5, 2.0]), np.zeros(3))
    assert grads.norm() == 0.0


def test_backward_accumulates_over_batch():
    rng = np.random.default_rng(26)
    net = random_net(rng, (1, 4, 1))
    xs = rng.normal(size=5)
    ups = rng.normal(size=5)
    whole = backward(net, xs, ups)
    total = GradientSet.zeros_like(net)
    for x, up in zip(xs, ups):
        total.add(backward(net, float(x), float(up)))
    assert_close_gradients(whole, total, rel=1e-12, floor=1e-14)


# ------------------------------------------------------------------- updates


def test_apply_update_returns_new_net_and_preserves_input():
    net = random_net(np.random.default_rng(27), (1, 3, 1))
    before = DenseNet(
        weights=tuple(W.copy() for W in net.weights),
        biases=tuple(b.copy() for b in net.biases),
    )
    grads = backward(net, 0.4, 1.0)
    updated = apply_update(net, grads, 0.1)
    assert net == before
    assert updated != net


def test_apply_update_noop_cases():
    net = random_net(np.random.default_rng(28), (1, 3, 1))
    zeros = GradientSet.zeros_like(net)
    assert apply_update(net, zeros, 0.5) == net
    grads = backward(net, 0.4, 1.0)
    assert apply_update(net, grads, 0.0) == net


def test_apply_update_step_then_reverse_step_restores():
    net = random_net(np.random.default_rng(29), (1, 4, 1))
    grads = backward(net, np.array([0.2, 0.9]), np.array([1.0, -0.5]))
    restored = apply_update(apply_update(net, grads, 0.3), grads, -0.3)
    for W, R in zip(net.weights, restored.weights):
        np.testing.assert_allclose(R, W, atol=1e-12)
    for b, r in zip(net.biases, restored.biases):
        np.testing.assert_allclose(r, b, atol=1e-12)


def test_gradient_step_reduces_convex_toy_loss():
    # L(net) = (net(x) - 0.9)^2, a single-parameter convex objective.
    net = DenseNet(weights=(np.array([[0.2]]),), biases=(np.zeros(1),))
    x, target = 1.0, 0.9

    def loss(n):
        return (n.forward(x) - target) ** 2

    grads = backward(net, x, 2 * (net.forward(x) - target))
    stepped = apply_update(net, grads, 0.5)
    assert loss(stepped) < loss(net)


def test_apply_update_rejects_non_finite_step():
    net = random_net(np.random.default_rng(30), (1, 2, 1))
    with pytest.raises(ValueError):
        apply_update(net, GradientSet.zeros_like(net), math.inf)


def test_apply_update_reports_divergence_as_floating_point_error():
    net = random_net(np.random.default_rng(31), (1, 2, 1))
    grads = GradientSet.zeros_like(net)
    grads.weights[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        apply_update(net, grads, 0.1)


# ------------------------------------------------------------------ clipping


def test_clip_leaves_small_gradients_alone():
    net = random_net(np.random.default_rng(31), (1, 3, 1))
    grads = backward(net, 0.3, 0.01)
    clipped = clip_gradients([grads], max_norm=10.0)
    assert clipped[0] is grads


def test_clip_rescales_to_max_norm():
    g = GradientSet(weights=[np.array([[3.0, 4.0]])], biases=[np.zeros(1)])
    clipped = clip_gradients([g], max_norm=1.0)
    assert clipped[0].norm() == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(clipped[0].weights[0], [[0.6, 0.8]], atol=1e-12)


def test_clip_uses_joint_norm_across_sets():
    a = GradientSet(weights=[np.array([[3.0]])], biases=[np.zeros(1)])
    b = GradientSet(weights=[np.array([[4.0]])], biases=[np.zeros(1)])
    clipped = clip_gradients([a, b], max_norm=2.5)
    # Joint norm 5 shrinks by half; each block keeps its direction.
    assert clipped[0].weights[0][0, 0] == pytest.approx(1.5, abs=1e-12)
    assert clipped[1].weights[0][0, 0] == pytest.approx(2.0, abs=1e-12)


def test_clip_handles_zero_gradients():
    g = GradientSet(weights=[np.zeros((2, 2))], biases=[np.zeros(2)])
    assert clip_gradients([g], max_norm=1.0)[0] is g


def test_gradient_set_scaled_and_norm():
    g = GradientSet(weights=[np.array([[2.0]])], biases=[np.array([1.0])])
    assert g.norm() == pytest.approx(math.sqrt(5.0), abs=1e-12)
    half = g.scaled(0.5)
    assert half.weights[0][0, 0] == 1.0
    assert half.biases[0][0] == 0.5
    assert g.weights[0][0, 0] == 2.0
