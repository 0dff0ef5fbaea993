import itertools

import numpy as np
import pytest

from relucert.bounds import (
    InputBox,
    LayerBounds,
    Stability,
    StabilityMap,
    classify_neurons,
    empirical_stability,
    lp_tighten,
    propagate_bounds,
)
from relucert import bounds
from relucert.errors import DimensionMismatch, InvalidValue
from relucert.milp import encode_network, set_robustness_objective
from relucert.nnmodel import AffineLayer, FoldedNetwork, fold_bn, forward, forward_layers
from relucert.simplex import LpStatus, PreparedLp, SolveStats, solve_lp

from conftest import random_spec


def test_input_box_validation():
    with pytest.raises(InvalidValue):
        InputBox(lo=np.array([0.5]), hi=np.array([0.4]))
    with pytest.raises(InvalidValue):
        InputBox(lo=np.array([-0.2]), hi=np.array([0.5]))
    b = InputBox(lo=np.array([-0.2]), hi=np.array([1.5]), require_unit=False)
    assert b.dim == 1
    with pytest.raises(DimensionMismatch):
        InputBox(lo=np.zeros((2, 2)), hi=np.ones((2, 2)))


def test_input_box_ball_clips():
    b = InputBox.ball(np.array([0.05, 0.95]), 0.1)
    assert np.allclose(b.lo, [0.0, 0.85])
    assert np.allclose(b.hi, [0.15, 1.0])
    raw = InputBox.ball(np.array([0.05]), 0.1, clip=False)
    assert raw.lo[0] == pytest.approx(-0.05)
    with pytest.raises(InvalidValue):
        InputBox.ball(np.array([0.5]), -0.01)


def test_unit_box_bounds_worked_example(e1):
    lb = propagate_bounds(e1, InputBox.unit(2))
    assert np.allclose(lb.pre_lo[0], [-1.0, -0.25])
    assert np.allclose(lb.pre_hi[0], [1.0, 0.75])
    assert np.allclose(lb.out_lo, [0.0])
    assert np.allclose(lb.out_hi, [1.75])


def test_small_box_bounds_worked_example(e1):
    box = InputBox(lo=np.array([0.4, 0.4]), hi=np.array([0.6, 0.6]))
    lb = propagate_bounds(e1, box)
    assert np.allclose(lb.pre_lo[0], [-0.2, 0.15])
    assert np.allclose(lb.pre_hi[0], [0.2, 0.35])
    # second neuron is provably active on this box, first is not
    sm = classify_neurons(lb)
    assert sm.layers[0][0] == Stability.UNSTABLE
    assert sm.layers[0][1] == Stability.ACTIVE


def test_first_layer_bounds_tight_at_corners():
    # layer 1 is affine in z, so the interval bound is attained at a corner
    rng = np.random.default_rng(7)
    for _ in range(10):
        net = fold_bn(random_spec(rng, unit_norm=True))
        lo = rng.uniform(0.0, 0.4, net.input_dim)
        hi = lo + rng.uniform(0.1, 0.5, net.input_dim)
        hi = np.minimum(hi, 1.0)
        lb = propagate_bounds(net, InputBox(lo=lo, hi=hi))
        corners = np.array(list(itertools.product(*zip(lo, hi))))
        pre = corners @ net.layers[0].A.T + net.layers[0].c
        assert np.allclose(lb.pre_lo[0], pre.min(axis=0), atol=1e-12)
        assert np.allclose(lb.pre_hi[0], pre.max(axis=0), atol=1e-12)


def test_bounds_sound_on_samples():
    rng = np.random.default_rng(21)
    for _ in range(8):
        net = fold_bn(random_spec(rng, unit_norm=True))
        z = rng.uniform(0.0, 1.0, size=(2000, net.input_dim))
        lb = propagate_bounds(net, InputBox.unit(net.input_dim))
        pre, _, out = forward_layers(net, z)
        for k in range(lb.num_hidden):
            assert np.all(pre[k] >= lb.pre_lo[k] - 1e-9)
            assert np.all(pre[k] <= lb.pre_hi[k] + 1e-9)
        assert np.all(out >= lb.out_lo - 1e-9)
        assert np.all(out <= lb.out_hi + 1e-9)


def test_nested_boxes_give_nested_bounds():
    rng = np.random.default_rng(3)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=2, unit_norm=True))
    inner = InputBox(lo=np.full(3, 0.3), hi=np.full(3, 0.7))
    lb_unit = propagate_bounds(net, InputBox.unit(3))
    lb_inner = propagate_bounds(net, inner)
    for k in range(lb_unit.num_hidden):
        assert np.all(lb_inner.pre_lo[k] >= lb_unit.pre_lo[k] - 1e-12)
        assert np.all(lb_inner.pre_hi[k] <= lb_unit.pre_hi[k] + 1e-12)
    assert np.all(lb_inner.out_lo >= lb_unit.out_lo - 1e-12)
    assert np.all(lb_inner.out_hi <= lb_unit.out_hi + 1e-12)


def test_classification_cases():
    lb = LayerBounds(
        pre_lo=(np.array([-1.0, 0.0, 0.0, -2.0, 1e-12]),),
        pre_hi=(np.array([-0.5, 0.0, 2.0, 3.0, 5.0]),),
        out_lo=np.zeros(1),
        out_hi=np.zeros(1),
    )
    sm = classify_neurons(lb)
    assert list(sm.layers[0]) == [
        Stability.DEAD,
        Stability.ACTIVE,  # hmin = hmax = 0 counts as active
        Stability.ACTIVE,
        Stability.UNSTABLE,
        Stability.ACTIVE,
    ]
    assert sm.counts() == {"active": 3, "dead": 1, "unstable": 1}
    assert sm.num_unstable == 1


def test_all_unstable_map():
    sm = StabilityMap.all_unstable([3, 2])
    assert sm.num_unstable == 5
    assert all(v == Stability.UNSTABLE for layer in sm.layers for v in layer)


def test_empirical_stability_is_observation_only(e1):
    # samples that keep the first neuron strictly positive make it look active
    z = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.1]])
    sm = empirical_stability(e1, z)
    assert sm.layers[0][0] == Stability.ACTIVE
    # certified bounds on the unit box disagree
    certified = classify_neurons(propagate_bounds(e1, InputBox.unit(2)))
    assert certified.layers[0][0] == Stability.UNSTABLE


def test_lp_tighten_output_worked_example(e1):
    # relaxed-network max of x over the unit box: 0.875 z1 - 0.125 z2 + 0.5
    # peaks at (1,0) giving 1.375, well under the interval bound 1.75. The
    # root LP finds it; lp_tighten leaves the outputs as propagated.
    box = InputBox.unit(2)
    lb = propagate_bounds(e1, box)
    tl = lp_tighten(e1, box, lb)
    base = encode_network(e1, tl, classify_neurons(tl), box)
    top = solve_lp(set_robustness_objective(base, 0, 1, 0.0))
    bottom = solve_lp(set_robustness_objective(base, 0, -1, 0.0))
    assert top.status is bottom.status is LpStatus.OPTIMAL
    assert top.objective == pytest.approx(1.375, abs=1e-7)
    assert -bottom.objective == pytest.approx(0.0, abs=1e-7)
    assert np.array_equal(tl.out_lo, lb.out_lo) and np.array_equal(tl.out_hi, lb.out_hi)
    # hidden bounds untouched: with one hidden layer they are already exact
    assert np.allclose(tl.pre_lo[0], lb.pre_lo[0])
    assert np.allclose(tl.pre_hi[0], lb.pre_hi[0])


def _decided_net() -> FoldedNetwork:
    """Over the unit box: layer 2 holds one open neuron, one the intervals
    prove active and one they prove dead; layer 3 has no open neuron."""
    layers = [
        ([[1.0, -1.0], [0.5, 0.5]], [0.0, -0.25]),
        ([[1.0, -1.0], [1.0, 1.0], [-1.0, -1.0]], [0.0, 0.5, -0.1]),
        ([[1.0, 1.0, 0.0], [-1.0, -1.0, 0.0]], [0.1, -0.1]),
        ([[1.0, -1.0]], [0.0]),
    ]
    return FoldedNetwork(
        layers=tuple(AffineLayer(A=np.array(A), c=np.array(c)) for A, c in layers),
        input_dim=2,
    )


def test_lp_tighten_solves_only_open_neurons(monkeypatch):
    net, box = _decided_net(), InputBox.unit(2)
    lb = propagate_bounds(net, box)
    assert [list(s) for s in classify_neurons(lb).layers[1:]] == [
        [Stability.UNSTABLE, Stability.ACTIVE, Stability.DEAD],
        [Stability.ACTIVE, Stability.DEAD],
    ]
    built, objectives = [], []
    engine, solve = bounds._prefix_engine, PreparedLp.solve

    def spy_engine(net, k, *args):
        built.append(k)
        return engine(net, k, *args)

    def spy_solve(self, lo, hi, c, maximize, **kwargs):
        objectives.append(c[c != 0.0])
        return solve(self, lo, hi, c, maximize, **kwargs)

    monkeypatch.setattr(bounds, "_prefix_engine", spy_engine)
    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    stats = SolveStats()
    tl = lp_tighten(net, box, lb, stats)
    assert built == [1]  # no engine for the layer without open neurons
    # the open neuron's max and min, and nothing for decided neurons or outputs
    assert len(objectives) == stats.lp_solves == 2
    assert all(np.array_equal(c, net.layers[1].A[0]) for c in objectives)
    assert tl.pre_hi[1][0] == pytest.approx(0.75 + 1e-9, abs=1e-12)  # interval: 1.0
    for k in (0, 2):
        assert np.array_equal(tl.pre_lo[k], lb.pre_lo[k])
        assert np.array_equal(tl.pre_hi[k], lb.pre_hi[k])
    assert np.array_equal(tl.pre_lo[1][1:], lb.pre_lo[1][1:])
    assert np.array_equal(tl.pre_hi[1][1:], lb.pre_hi[1][1:])
    assert np.array_equal(tl.out_lo, lb.out_lo) and np.array_equal(tl.out_hi, lb.out_hi)


def test_lp_tighten_skips_the_min_of_a_neuron_proved_dead(monkeypatch):
    # layer 2's neuron is open by intervals ([-0.85, 0.15]) but dead over the
    # relaxation: post_1 - post_2 - 0.1 <= 0 on the unit box
    net = FoldedNetwork(
        layers=(
            AffineLayer(A=np.array([[1.0, 0.0], [1.0, 0.0]]), c=np.zeros(2)),
            AffineLayer(A=np.array([[1.0, -1.0]]), c=np.array([-0.1])),
            AffineLayer(A=np.array([[1.0]]), c=np.zeros(1)),
        ),
        input_dim=2,
    )
    box = InputBox.unit(2)
    lb = propagate_bounds(net, box)
    assert lb.pre_lo[1][0] < 0.0 < lb.pre_hi[1][0]
    senses = []
    solve = PreparedLp.solve

    def spy_solve(self, lo, hi, c, maximize, **kwargs):
        senses.append(maximize)
        return solve(self, lo, hi, c, maximize, **kwargs)

    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    tl = lp_tighten(net, box, lb)
    assert senses == [True]
    assert tl.pre_hi[1][0] <= 0.0 and tl.pre_lo[1][0] == lb.pre_lo[1][0]
    assert classify_neurons(tl).layers[1][0] == Stability.DEAD


def test_lp_tighten_subset_and_sound():
    rng = np.random.default_rng(11)
    for _ in range(6):
        net = fold_bn(random_spec(rng, n0=2, widths=(4, 4), m=2, unit_norm=True))
        box = InputBox.unit(2)
        lb = propagate_bounds(net, box)
        tl = lp_tighten(net, box, lb)
        for k in range(lb.num_hidden):
            assert np.all(tl.pre_lo[k] >= lb.pre_lo[k] - 1e-12)
            assert np.all(tl.pre_hi[k] <= lb.pre_hi[k] + 1e-12)
        assert np.all(tl.out_lo >= lb.out_lo - 1e-12)
        assert np.all(tl.out_hi <= lb.out_hi + 1e-12)
        z = rng.uniform(0.0, 1.0, size=(3000, 2))
        pre, _, out = forward_layers(net, z)
        for k in range(lb.num_hidden):
            assert np.all(pre[k] >= tl.pre_lo[k] - 1e-9)
            assert np.all(pre[k] <= tl.pre_hi[k] + 1e-9)
        assert np.all(out >= tl.out_lo - 1e-9)
        assert np.all(out <= tl.out_hi + 1e-9)


def test_lp_tighten_reduces_unstable_count_sometimes():
    # across a handful of two-layer nets tightening should never increase the
    # number of unstable neurons and usually trims at least one
    rng = np.random.default_rng(29)
    before = after = 0
    for _ in range(10):
        net = fold_bn(random_spec(rng, n0=2, widths=(5, 5), m=1, unit_norm=True))
        box = InputBox(lo=np.full(2, 0.25), hi=np.full(2, 0.75))
        lb = propagate_bounds(net, box)
        tl = lp_tighten(net, box, lb)
        b = classify_neurons(lb).num_unstable
        a = classify_neurons(tl).num_unstable
        assert a <= b
        before += b
        after += a
    assert after <= before


def test_bounds_dimension_check(e1):
    with pytest.raises(DimensionMismatch):
        propagate_bounds(e1, InputBox.unit(3))


def test_layer_bounds_to_dict(e1):
    d = propagate_bounds(e1, InputBox.unit(2)).to_dict()
    assert d["layers"][0]["hmin"] == [-1.0, -0.25]
    assert d["output"]["hi"] == [1.75]
