import itertools

import numpy as np
import pytest
from scipy.optimize import linprog

from relucert.bounds import (
    InputBox,
    LayerBounds,
    Stability,
    StabilityMap,
    classify_neurons,
    propagate_bounds,
)
from relucert import milp
from relucert.errors import DimensionMismatch, InvalidValue, NumericalBreakdown
from relucert.milp import encode_network, lp_tighten, set_robustness_objective
from relucert.nnmodel import AffineLayer, FoldedNetwork, fold_bn, forward, forward_layers
from relucert.simplex import LpSolution, LpStatus, PreparedLp, SolveStats, solve_lp

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
    prepare, solve = milp.prepare, PreparedLp.solve

    def spy_prepare(p):
        built.append(p)
        return prepare(p)

    def spy_solve(self, lo, hi, c, maximize, **kwargs):
        objectives.append(c)
        return solve(self, lo, hi, c, maximize, **kwargs)

    monkeypatch.setattr(milp, "prepare", spy_prepare)
    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    stats = SolveStats()
    tl = lp_tighten(net, box, lb, stats)
    # one engine, on layer 1 followed by an output layer of layer 2's open
    # neuron alone, and none for the layer without open neurons
    assert len(built) == 1
    cut = built[0].network
    assert cut.layers[:-1] == net.layers[:1] and cut.num_outputs == 1
    assert np.array_equal(cut.layers[-1].A, net.layers[1].A[[0]])
    assert np.array_equal(cut.layers[-1].c, net.layers[1].c[[0]])
    # the open neuron's max and min, and nothing for decided neurons or outputs
    unit = np.zeros(built[0].num_vars)
    unit[built[0].var_roles[("output", 0)]] = 1.0
    assert len(objectives) == stats.lp_solves == 2
    assert all(np.array_equal(c, unit) for c in objectives)
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


@pytest.mark.parametrize("failure", ["breakdown", "infeasible"])
@pytest.mark.parametrize("side", [True, False])
def test_lp_tighten_keeps_the_propagated_side_of_a_failed_solve(monkeypatch, failure, side):
    # every max (side True) or min solve raises or comes back infeasible:
    # that side keeps its propagated value, the other still tightens
    net = fold_bn(random_spec(np.random.default_rng(11), n0=2, widths=(4, 4), m=2, unit_norm=True))
    box = InputBox.unit(2)
    lb = propagate_bounds(net, box)
    solve = PreparedLp.solve

    def failing_solve(self, lo, hi, c, maximize, **kwargs):
        if maximize is not side:
            return solve(self, lo, hi, c, maximize, **kwargs)
        if failure == "breakdown":
            raise NumericalBreakdown("forced")
        return LpSolution(status=LpStatus.INFEASIBLE, infeasibility=1.0)

    monkeypatch.setattr(PreparedLp, "solve", failing_solve)
    tl = lp_tighten(net, box, lb)
    kept, tightened = (tl.pre_hi, tl.pre_lo) if side else (tl.pre_lo, tl.pre_hi)
    kept_lb, tightened_lb = (lb.pre_hi, lb.pre_lo) if side else (lb.pre_lo, lb.pre_hi)
    for k in range(lb.num_hidden):
        assert np.array_equal(kept[k], kept_lb[k])
        assert np.all(tl.pre_lo[k] >= lb.pre_lo[k]) and np.all(tl.pre_hi[k] <= lb.pre_hi[k])
    assert any(not np.array_equal(tightened[k], tightened_lb[k]) for k in range(lb.num_hidden))


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


def _triangle_extreme(net, k, t, bounds, box, maximize):
    """Max or min of layer `k`'s pre-activation `t` over the triangle
    relaxation of layers < k, written straight from the folded weights and
    solved by HiGHS. Variables: inputs, then per layer its pre- and
    post-activations, each neuron's interval `bounds[j]` bounding its
    pre-activation."""
    n0 = net.input_dim
    widths = [net.layers[j].width for j in range(k)]
    n = n0 + 2 * sum(widths)
    lo, hi = list(box.lo), list(box.hi)
    eq, eq_b, ub, ub_b = [], [], [], []
    prev = list(range(n0))
    col = n0
    for j, w in enumerate(widths):
        pre, post = list(range(col, col + w)), list(range(col + w, col + 2 * w))
        col += 2 * w
        l, u = bounds[j]
        lo += list(l) + list(np.maximum(l, 0.0))
        hi += list(u) + list(np.maximum(u, 0.0))
        for i in range(w):
            row = np.zeros(n)
            row[pre[i]], row[prev] = 1.0, -net.layers[j].A[i]
            eq.append(row), eq_b.append(net.layers[j].c[i])  # pre = A h_prev + c
            row = np.zeros(n)
            if l[i] >= 0.0:  # active: post = pre
                row[post[i]], row[pre[i]] = 1.0, -1.0
                eq.append(row), eq_b.append(0.0)
            elif u[i] > 0.0:  # unstable: post >= pre, and below the chord
                row[pre[i]], row[post[i]] = 1.0, -1.0
                ub.append(row), ub_b.append(0.0)
                row = np.zeros(n)
                row[post[i]], row[pre[i]] = u[i] - l[i], -u[i]
                ub.append(row), ub_b.append(-u[i] * l[i])
            # dead: post is fixed at 0 by its bounds
        prev = post
    c = np.zeros(n)
    c[prev] = net.layers[k].A[t]
    res = linprog(-c if maximize else c, A_ub=np.array(ub) if ub else None, b_ub=ub_b or None,
                  A_eq=np.array(eq), b_eq=eq_b, bounds=list(zip(lo, hi)), method="highs")
    assert res.status == 0
    return (-res.fun if maximize else res.fun) + net.layers[k].c[t]


@pytest.mark.parametrize("seed", range(6))
def test_lp_tighten_is_the_triangle_relaxation(seed):
    """Each open neuron's tightened interval is its max and min over the
    triangle relaxation of the layers before it, at the tightened bounds of
    those layers, plus the slack; a max that proves the neuron dead leaves
    its lower end as it came. HiGHS solves the relaxation, built here from
    the folded weights, so a big-M row or bound of the encoding that left
    the envelope shows."""
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5,) * int(rng.integers(2, 4)),
                              m=2, unit_norm=True))
    centre = rng.uniform(0.2, 0.8, net.input_dim)
    opened = 0
    for box in (InputBox.unit(net.input_dim), InputBox.ball(centre, 0.15)):
        lb = propagate_bounds(net, box)
        tl = lp_tighten(net, box, lb)
        bounds = list(zip(tl.pre_lo, tl.pre_hi))
        for k in range(1, net.num_hidden):
            for t in np.flatnonzero((lb.pre_lo[k] < 0.0) & (lb.pre_hi[k] > 0.0)):
                opened += 1
                hi = min(lb.pre_hi[k][t], _triangle_extreme(net, k, t, bounds, box, True) + 1e-9)
                lo = lb.pre_lo[k][t]
                if hi > 0.0:
                    lo = max(lo, _triangle_extreme(net, k, t, bounds, box, False) - 1e-9)
                assert tl.pre_hi[k][t] == pytest.approx(hi, abs=1e-7)
                assert tl.pre_lo[k][t] == pytest.approx(lo, abs=1e-7)
    assert opened


def test_bounds_dimension_check(e1):
    with pytest.raises(DimensionMismatch):
        propagate_bounds(e1, InputBox.unit(3))


def test_layer_bounds_to_dict(e1):
    d = propagate_bounds(e1, InputBox.unit(2)).to_dict()
    assert d["layers"][0]["hmin"] == [-1.0, -0.25]
    assert d["output"]["hi"] == [1.75]
