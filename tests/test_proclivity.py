"""Proclivity kinds and the rescaled comparison curve."""

import math

import numpy as np
import pytest

from turntaking import (
    DegenerateRatioError,
    ExpDecayProclivity,
    LearnedProclivity,
    NEVER,
    ProclivityCurve,
    SigmoidProclivity,
    ZeroProclivity,
    by_name,
    rescaled_curve,
    w_exp,
    w_sig,
)
from turntaking.proclivity import default_curve_gaps, default_trait_grid

ALL_KINDS = [
    ExpDecayProclivity(),
    SigmoidProclivity(),
    ZeroProclivity(),
    LearnedProclivity.fresh(seed=17),
]


# ------------------------------------------------------------- fixed shapes


def test_w_exp_values():
    assert w_exp(2) == pytest.approx(math.exp(-1), abs=1e-15)
    assert w_exp(20) == pytest.approx(math.exp(-10), abs=1e-18)
    assert w_exp(1) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert w_exp(0) == 0.0


def test_w_sig_values():
    assert w_sig(20) == pytest.approx(0.475, abs=1e-12)
    assert w_sig(2) == pytest.approx(0.9498827751528129, abs=1e-15)
    assert w_sig(-3) == 0.0
    # Plateau: nearly flat at small gaps, decayed far out.
    assert w_sig(1) > 0.94
    assert w_sig(40) < 0.01


def test_all_kinds_vanish_at_and_below_zero_gap():
    gaps = np.array([NEVER, -2, 0])
    for kind in ALL_KINDS:
        assert np.all(kind.values(gaps) == 0.0), kind.name


def test_fixed_kinds_strictly_decrease_on_positive_gaps():
    gaps = np.arange(1, 60)
    for kind in (ExpDecayProclivity(), SigmoidProclivity()):
        vals = kind.values(gaps)
        assert np.all(np.diff(vals) < 0), kind.name


def test_values_accept_scalars_arrays_and_matrices():
    kind = ExpDecayProclivity()
    assert kind(2) == pytest.approx(math.exp(-1), abs=1e-15)
    mat = kind.values(np.array([[2, 0], [4, 1]]))
    assert mat.shape == (2, 2)
    assert mat[0, 1] == 0.0
    assert mat[1, 0] == pytest.approx(math.exp(-2), abs=1e-15)


def test_table_matches_values_on_range():
    for kind in ALL_KINDS:
        table = kind.table(25)
        assert table.shape == (26,)
        assert table[0] == 0.0
        expected = kind.values(np.arange(26))
        np.testing.assert_array_equal(table, expected)


def test_zero_proclivity_is_identically_zero():
    kind = ZeroProclivity()
    assert np.all(kind.values(np.arange(100)) == 0.0)


def test_by_name_round_trip_and_unknown():
    for name in ("exp", "sigmoid", "zero"):
        assert by_name(name).name == name
    with pytest.raises(ValueError):
        by_name("learned")
    with pytest.raises(ValueError):
        by_name("linear")


# ------------------------------------------------------------------- learned


def test_fresh_learned_proclivity_is_half_on_positive_gaps():
    kind = LearnedProclivity.fresh(seed=0)
    assert kind(5) == 0.5
    assert kind(1) == 0.5
    assert kind(0) == 0.0
    vals = kind.values(np.arange(1, 50))
    assert np.all(vals == 0.5)


def test_learned_values_lie_in_unit_interval():
    rng = np.random.default_rng(33)
    kind = LearnedProclivity.fresh(seed=1)
    # Push the net away from its neutral start so outputs vary.
    from turntaking import apply_update, backward

    net = kind.net
    for _ in range(5):
        grads = backward(net, rng.normal(size=8), rng.normal(size=8))
        net = apply_update(net, grads, 0.5)
    kind = kind.with_net(net)
    vals = kind.values(np.arange(1, 80))
    assert np.all(vals > 0.0)
    assert np.all(vals < 1.0)
    assert not np.all(vals == vals[0])


def test_learned_fresh_is_deterministic_per_seed():
    a = LearnedProclivity.fresh(seed=9)
    b = LearnedProclivity.fresh(seed=9)
    assert a.net == b.net
    assert a.delta_scale == b.delta_scale == 20.0


def test_learned_uses_scaled_gap_as_input():
    kind = LearnedProclivity.fresh(seed=4, hidden=(6,), delta_scale=20.0)
    assert kind(7) == pytest.approx(kind.net.forward(7 / 20.0), abs=1e-15)


@pytest.mark.parametrize("delta_scale", [0.0, -5.0, math.nan, math.inf])
def test_learned_rejects_bad_delta_scale(delta_scale):
    net = LearnedProclivity.fresh(seed=4).net
    with pytest.raises(ValueError, match="delta_scale must be positive and finite"):
        LearnedProclivity(net=net, delta_scale=delta_scale)
    with pytest.raises(ValueError, match="delta_scale must be positive and finite"):
        LearnedProclivity.fresh(seed=4, delta_scale=delta_scale)


def test_learned_hidden_sizes_configurable():
    kind = LearnedProclivity.fresh(seed=2, hidden=(4, 3))
    assert kind.net.layer_sizes == (1, 4, 3, 1)


# -------------------------------------------------------------------- curves


def test_default_grids():
    gaps = default_curve_gaps()
    assert gaps[0] == 2 and gaps[-1] == 40 and gaps.size == 39
    grid = default_trait_grid()
    assert grid.size == 50
    assert grid[0] == pytest.approx(0.1) and grid[-1] == pytest.approx(1.0)


def test_rescaled_curve_zero_memory_is_flat_zero():
    curve = rescaled_curve(np.ones(50), np.zeros(50), ZeroProclivity())
    assert np.all(curve.values == 0.0)
    assert curve.gaps[0] == 2 and curve.gaps[-1] == 40


def test_rescaled_curve_heuristic_exponential():
    # inherent 1e-2 and memory 1 with exp decay rescale to 100 * exp(-gap/2).
    curve = rescaled_curve(np.full(50, 1e-2), np.ones(50), ExpDecayProclivity())
    expected = 100.0 * np.exp(-curve.gaps / 2.0)
    np.testing.assert_allclose(curve.values, expected, rtol=1e-12)
    assert curve.values[0] == pytest.approx(100.0 * math.exp(-1), rel=1e-12)


def test_rescaled_curve_invariant_to_joint_scaling():
    rng = np.random.default_rng(35)
    pi = rng.uniform(0.2, 1.0, 50)
    d = rng.uniform(0.5, 3.0, 50)
    a = rescaled_curve(pi, d, SigmoidProclivity())
    b = rescaled_curve(7.3 * pi, 7.3 * d, SigmoidProclivity())
    np.testing.assert_allclose(a.values, b.values, rtol=1e-12)


def test_rescaled_curve_custom_gap_grid():
    gaps = np.arange(5, 11)
    curve = rescaled_curve(np.ones(3), np.full(3, 2.0), ExpDecayProclivity(), gaps=gaps)
    np.testing.assert_allclose(curve.values, 2.0 * np.exp(-gaps / 2.0), rtol=1e-12)


def test_rescaled_curve_rejects_zero_mean_inherent():
    with pytest.raises(DegenerateRatioError):
        rescaled_curve(np.zeros(50), np.ones(50), ExpDecayProclivity())


def test_proclivity_curve_validation():
    with pytest.raises(ValueError):
        ProclivityCurve(gaps=np.array([2, 2, 3]), values=np.zeros(3))
    with pytest.raises(ValueError):
        ProclivityCurve(gaps=np.array([2, 3]), values=np.array([-0.1, 0.2]))
    with pytest.raises(ValueError):
        ProclivityCurve(gaps=np.array([2, 3]), values=np.zeros(3))
