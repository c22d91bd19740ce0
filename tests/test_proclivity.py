"""Proclivity kinds and the rescaled comparison curve."""

import math

import numpy as np
import pytest

from turntaking import (
    DegenerateRatioError,
    ExpDecayProclivity,
    LearnedProclivity,
    ModelBundle,
    ProclivityCurve,
    SigmoidProclivity,
    by_name,
)
from turntaking.model import NEVER
from turntaking.neural import _forward
from turntaking.proclivity import CURVE_GAPS, GAP_SCALE, ZeroProclivity, rescaled_curve
from turntaking.synthgen import TRAIT_GRID, TRAIT_HIGH, TRAIT_LOW

ALL_KINDS = [
    ExpDecayProclivity(),
    SigmoidProclivity(),
    ZeroProclivity(),
    LearnedProclivity.fresh(seed=17),
]


# ------------------------------------------------------------- fixed shapes


def test_w_exp_values():
    w_exp = ExpDecayProclivity()
    assert w_exp(2) == pytest.approx(math.exp(-1), abs=1e-15)
    assert w_exp(20) == pytest.approx(math.exp(-10), abs=1e-18)
    assert w_exp(1) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert w_exp(0) == 0.0


def test_w_sig_values():
    w_sig = SigmoidProclivity()
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
    from test_neural import net_gradient, stepped

    net = kind.net
    for _ in range(5):
        net = stepped(net, net_gradient(net, rng.normal(size=8), rng.normal(size=8)), 0.5)
    kind = LearnedProclivity(net)
    vals = kind.values(np.arange(1, 80))
    assert np.all(vals > 0.0)
    assert np.all(vals < 1.0)
    assert not np.all(vals == vals[0])


def test_learned_fresh_is_deterministic_per_seed():
    a = LearnedProclivity.fresh(seed=9)
    b = LearnedProclivity.fresh(seed=9)
    assert a.net == b.net


def test_fresh_learned_proclivity_has_the_score_nets_layout():
    # One default layout for every net: nu's matches the pro bundle's f.
    for seed in (0, 5):
        fresh = LearnedProclivity.fresh(seed)
        assert fresh.net.shapes == ModelBundle.make("pro", seed=seed).f_net.shapes


def test_learned_uses_scaled_gap_as_input():
    kind = LearnedProclivity.fresh(seed=4, hidden=(6,))
    assert GAP_SCALE == 20.0
    assert kind(7) == pytest.approx(_forward(kind.net, [7 / 20.0])[0][0], abs=1e-15)


def perturbed_nets():
    """Six learned proclivities, every parameter moved off its fresh value so
    that the outputs vary from gap to gap."""
    rng = np.random.default_rng(71)
    kinds = []
    for seed, hidden in enumerate(((16, 16), (16, 16), (8,), (4, 3), (16,), (3, 5, 2))):
        kind = LearnedProclivity.fresh(seed=seed, hidden=hidden)
        params = kind.net.params + rng.normal(scale=0.7, size=kind.net.params.size)
        kinds.append(LearnedProclivity(kind.net._with_params(params)))
    return kinds


def test_learned_value_at_a_gap_does_not_depend_on_the_table_length():
    # The net runs on fixed blocks of gaps, so a gap's value is the same bits
    # alone, through the call and in a table of any length.
    lengths = (2, 3, 62, 63, 64, 65, 127, 253, 261, 1000, 3999)
    for kind in perturbed_nets():
        alone = np.array([kind.values(np.array([g]))[0] for g in range(lengths[-1] + 1)])
        assert np.unique(alone).size > 100
        for gap in (0, 1, 2, 63, 64, 65, 253, 3999):
            assert kind(gap) == alone[gap]
        for n in lengths:
            np.testing.assert_array_equal(kind.table(n), alone[: n + 1], err_msg=f"length {n}")


def test_values_of_a_gap_matrix_are_its_elementwise_values():
    rng = np.random.default_rng(72)
    gaps = rng.integers(-2, 300, size=(37, 6))
    gaps[0, 0] = NEVER
    for kind in [*ALL_KINDS, *perturbed_nets()[::3]]:
        matrix = kind.values(gaps)
        assert matrix.shape == gaps.shape
        expected = np.array([[kind(g) for g in row] for row in gaps.tolist()])
        np.testing.assert_array_equal(matrix, expected, err_msg=kind.name)


def test_no_kind_subclasses_another():
    kinds = [type(kind) for kind in ALL_KINDS]
    for kind in ALL_KINDS:
        assert [k for k in kinds if isinstance(kind, k)] == [type(kind)]


def test_learned_hidden_sizes_configurable():
    kind = LearnedProclivity.fresh(seed=2, hidden=(4, 3))
    assert [w.shape for w in kind.net.weights] == [(4, 1), (3, 4), (1, 3)]


# -------------------------------------------------------------------- curves


def test_default_grids():
    gaps = rescaled_curve(np.ones(3), np.ones(3), ZeroProclivity()).gaps
    assert gaps.tolist() == list(range(2, 41))
    assert (TRAIT_LOW, TRAIT_HIGH) == (0.1, 1.0)
    np.testing.assert_array_equal(TRAIT_GRID, np.linspace(0.1, 1.0, 50))
    # Shared by every curve, so neither grid can be changed in place.
    for grid in (CURVE_GAPS, TRAIT_GRID):
        with pytest.raises(ValueError):
            grid[0] = 0


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
