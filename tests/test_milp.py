from dataclasses import replace

import numpy as np
import pytest

from relucert.bnb import solve_milp
from relucert.bounds import InputBox, LayerBounds, Stability, classify_neurons, propagate_bounds
from relucert.errors import DimensionMismatch, InvalidArg, InvalidValue
from relucert.milp import (
    default_delta_cap,
    encode_network,
    set_robustness_objective,
    set_trust_problem,
    set_trust_target,
    to_lp_text,
)
from relucert.nnmodel import AffineLayer, FoldedNetwork, HiddenLayer, NetworkSpec, OutputLayer, fold_bn
from relucert.simplex import LpStatus, solve_lp

from conftest import identity_bn


def encode_on_box(net, box):
    lb = propagate_bounds(net, box)
    return encode_network(net, lb, classify_neurons(lb), box), lb


def fixed(p, values):
    """`p` with each variable `j` in `values` fixed at `values[j]` by its
    own bounds."""
    lo, hi = p.lo.copy(), p.hi.copy()
    for j, v in values.items():
        lo[j] = hi[j] = v
    return replace(p, lo=lo, hi=hi)


def relu_net(w, b):
    """1-1-1 network computing x = relu(w z + b) on [0,1]."""
    spec = NetworkSpec(
        input_dim=1,
        hidden=(HiddenLayer(W=np.array([[w]]), b=np.array([b]), bn=identity_bn(1)),),
        output=OutputLayer(W=np.array([[1.0]]), b=np.zeros(1)),
        input_norm_lo=np.zeros(1),
        input_norm_hi=np.ones(1),
        output_names=("y1",),
    )
    return fold_bn(spec)


def identity_net():
    """1-1-1 network computing x = z on [0,1]."""
    return relu_net(1.0, 0.0)


@pytest.mark.parametrize(
    "malform",
    [
        lambda p: replace(p, senses=("<", *p.senses[1:])),  # a sense that is none of the three
        lambda p: replace(p, rhs=np.append(p.rhs, 0.0)),  # one right-hand side too many
    ],
    ids=["sense", "rhs"],
)
def test_malformed_rows_are_invalid_when_solved(malform):
    p, _ = encode_on_box(relu_net(2.0, -1.0), InputBox.unit(1))
    p = malform(set_robustness_objective(p, 0, 1, 0.0))
    with pytest.raises(InvalidArg):
        solve_lp(p)
    with pytest.raises(InvalidArg):
        solve_milp(p)


def test_e1_encoding_counts(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    assert p.num_binaries == 2
    # every role present: 2 inputs, 2 pre, 2 post, 2 bins, 1 output
    kinds = [r[0] for r in p.var_roles]
    assert sorted(kinds) == ["bin", "bin", "input", "input", "output", "post", "post", "pre", "pre"]
    assert np.all(np.isfinite(p.lo)) and np.all(np.isfinite(p.hi))


def test_e1_row_layout(e1):
    """The affine rows, layer by layer, then three big-M rows per unstable
    neuron; h >= 0 is a bound. E1's pre-activation intervals over the unit
    box are [-1, 1] and [-0.25, 0.75]."""
    p, _ = encode_on_box(e1, InputBox.unit(2))
    layout = [
        ({"hp1_1": 1.0, "z1": -1.0, "z2": 1.0}, "=", 0.0),
        ({"hp1_2": 1.0, "z1": -0.5, "z2": -0.5}, "=", -0.25),
        ({"x1": 1.0, "h1_1": -1.0, "h1_2": -1.0}, "=", 0.0),
        ({"h1_1": 1.0, "hp1_1": -1.0, "r1_1": 1.0}, "<=", 1.0),  # h <= hpre - hmin (1 - r)
        ({"h1_1": 1.0, "hp1_1": -1.0}, ">=", 0.0),  # h >= hpre
        ({"h1_1": 1.0, "r1_1": -1.0}, "<=", 0.0),  # h <= hmax r
        ({"h1_2": 1.0, "hp1_2": -1.0, "r1_2": 0.25}, "<=", 0.25),
        ({"h1_2": 1.0, "hp1_2": -1.0}, ">=", 0.0),
        ({"h1_2": 1.0, "r1_2": -0.75}, "<=", 0.0),
    ]
    rows = np.zeros((len(layout), p.num_vars))
    for i, (coef, _, _) in enumerate(layout):
        for name, v in coef.items():
            rows[i, p.var_names.index(name)] = v
    assert np.array_equal(p.rows, rows)
    assert p.senses == tuple(sense for _, sense, _ in layout)
    assert p.rhs.tolist() == [b for _, _, b in layout]


def test_a_stable_neuron_is_written_once():
    """Over z in [0, 1]: h1_1 = relu(z + 0.5) is active, h1_2 = relu(-z - 0.5)
    dead and h1_3 = relu(z - 0.5) unstable. Only the unstable neuron has a
    pre-activation column; the active one's affine row defines its post
    variable, and the dead one has no row, its post variable fixed at 0."""
    net = FoldedNetwork(
        layers=(
            AffineLayer(A=np.array([[1.0], [-1.0], [1.0]]), c=np.array([0.5, -0.5, -0.5])),
            AffineLayer(A=np.ones((1, 3)), c=np.zeros(1)),
        ),
        input_dim=1,
    )
    p, lb = encode_on_box(net, InputBox.unit(1))
    assert list(classify_neurons(lb).layers[0]) == [Stability.ACTIVE, Stability.DEAD, Stability.UNSTABLE]
    assert p.var_names == ("z1", "hp1_3", "h1_1", "h1_2", "h1_3", "r1_3", "x1")
    assert [r for r in p.var_roles if r[0] == "pre"] == [("pre", 0, 2)]
    h1_2 = p.var_roles[("post", 0, 1)]
    assert p.lo[h1_2] == p.hi[h1_2] == 0.0
    layout = [
        ({"h1_1": 1.0, "z1": -1.0}, "=", 0.5),  # the active neuron: one row
        ({"hp1_3": 1.0, "z1": -1.0}, "=", -0.5),
        ({"x1": 1.0, "h1_1": -1.0, "h1_2": -1.0, "h1_3": -1.0}, "=", 0.0),
        ({"h1_3": 1.0, "hp1_3": -1.0, "r1_3": 0.5}, "<=", 0.5),
        ({"h1_3": 1.0, "hp1_3": -1.0}, ">=", 0.0),
        ({"h1_3": 1.0, "r1_3": -0.5}, "<=", 0.0),
    ]
    rows = np.zeros((len(layout), p.num_vars))
    for i, (coef, _, _) in enumerate(layout):
        for name, v in coef.items():
            rows[i, p.var_names.index(name)] = v
    assert np.array_equal(p.rows, rows)
    assert p.senses == tuple(sense for _, sense, _ in layout)
    assert p.rhs.tolist() == [b for _, _, b in layout]
    text = to_lp_text(p)
    assert "hp1_3" in text and "hp1_1" not in text and "hp1_2" not in text


def test_all_active_network_is_pure_lp():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    assert p.num_binaries == 0  # pre interval [0,1] classifies as active
    sol = solve_lp(set_robustness_objective(p, 0, 1, 0.0))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    sol = solve_lp(set_robustness_objective(p, 0, -1, 0.0))
    assert sol.objective == pytest.approx(0.0, abs=1e-9)


def test_indicator_semantics_on_minus1_2_neuron():
    # x = relu(3z - 1) has pre-activation range [-1, 2] on the unit box
    spec = NetworkSpec(
        input_dim=1,
        hidden=(HiddenLayer(W=np.array([[3.0]]), b=np.array([-1.0]), bn=identity_bn(1)),),
        output=OutputLayer(W=np.array([[1.0]]), b=np.zeros(1)),
        input_norm_lo=np.zeros(1),
        input_norm_hi=np.ones(1),
        output_names=("y1",),
    )
    net = fold_bn(spec)
    p, lb = encode_on_box(net, InputBox.unit(1))
    assert np.allclose(lb.pre_lo[0], [-1.0]) and np.allclose(lb.pre_hi[0], [2.0])
    assert p.num_binaries == 1
    r = p.var_roles[("bin", 0, 0)]
    z = p.var_roles[("input", 0)]

    def at(z_val, r_val, sign):
        return solve_lp(fixed(set_robustness_objective(p, 0, sign, 0.0), {z: z_val, r: r_val}))

    # z=0.8 (pre=1.4): r=1 pins h to 1.4; r=0 is contradictory
    assert at(0.8, 1.0, 1).objective == pytest.approx(1.4, abs=1e-9)
    assert at(0.8, 1.0, -1).objective == pytest.approx(-1.4, abs=1e-9)
    assert at(0.8, 0.0, 1).status is LpStatus.INFEASIBLE
    # z=0.2 (pre=-0.4): r=0 pins h to 0; r=1 is contradictory
    assert at(0.2, 0.0, 1).objective == pytest.approx(0.0, abs=1e-9)
    assert at(0.2, 0.0, -1).objective == pytest.approx(0.0, abs=1e-9)
    assert at(0.2, 1.0, 1).status is LpStatus.INFEASIBLE


def test_e1_small_box_pattern_enumeration(e1):
    # on [0.4,0.6]^2 the second neuron is provably active, so one binary is
    # left; enumerating it solves the problem exactly
    box = InputBox(lo=np.full(2, 0.4), hi=np.full(2, 0.6))
    p, _ = encode_on_box(e1, box)
    assert p.num_binaries == 1
    q = set_robustness_objective(p, 0, 1, 0.25)
    r = q.var_roles[("bin", 0, 0)]
    vals = {}
    for rv in (0.0, 1.0):
        sol = solve_lp(fixed(q, {r: rv}))
        assert sol.status is LpStatus.OPTIMAL
        vals[rv] = sol.objective
    assert vals[1.0] == pytest.approx(0.2, abs=1e-9)
    assert vals[0.0] == pytest.approx(0.1, abs=1e-9)
    # LP relaxation can only overestimate the true optimum
    assert solve_lp(q).objective >= 0.2 - 1e-9


def test_e1_unit_box_trust_enumeration(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    z_ref = np.array([0.5, 0.5])
    scale = np.ones(2)
    cap = default_delta_cap(z_ref, scale)
    assert cap == pytest.approx(0.5)
    r1 = p.var_roles[("bin", 0, 0)]
    r2 = p.var_roles[("bin", 0, 1)]
    expected = {1: 0.075, -1: 0.15}
    for sign, want in expected.items():
        q = set_trust_target(set_trust_problem(p, z_ref, scale, cap), 0, sign, 0.15, 0.25)
        best = np.inf
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                sol = solve_lp(fixed(q, {r1: a, r2: b}))
                if sol.status is LpStatus.OPTIMAL:
                    best = min(best, sol.objective)
        assert best == pytest.approx(want, abs=1e-9)
        relaxed = solve_lp(q)
        assert relaxed.status is LpStatus.OPTIMAL
        assert relaxed.objective <= best + 1e-9


def test_trust_identity_example():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    cap = default_delta_cap([0.5], [1.0])
    for sign in (1, -1):
        q = set_trust_target(set_trust_problem(p, np.array([0.5]), np.ones(1), cap), 0, sign, 0.05, 0.5)
        sol = solve_lp(q)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.05, abs=1e-9)


def test_trust_unattainable_beta_infeasible():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    q = set_trust_target(set_trust_problem(p, np.array([0.5]), np.ones(1), 0.5), 0, 1, 2.0, 0.5)
    assert solve_lp(q).status is LpStatus.INFEASIBLE


def test_trust_target_is_an_output_bound(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    base = set_trust_problem(p, np.full(2, 0.5), np.ones(2), 0.5)
    x = p.var_roles[("output", 0)]
    lo, hi = p.lo[x], p.hi[x]
    plus = set_trust_target(base, 0, 1, 0.15, 0.25)
    minus = set_trust_target(base, 0, -1, 0.15, 0.25)
    assert (plus.lo[x], plus.hi[x]) == (pytest.approx(0.4), hi)
    assert (minus.lo[x], minus.hi[x]) == (lo, pytest.approx(0.1))
    # the target is the subproblem's only record of itself: the ball and
    # the objective stay the base's
    assert plus.ball is base.ball and plus.c is base.c
    # a target beyond the output's interval fixes the output there, and the
    # network rows leave the LP nothing feasible
    for sign in (1, -1):
        t = set_trust_target(base, 0, sign, 5.0, 0.25)
        assert t.lo[x] == t.hi[x] == 0.25 + sign * 5.0
        assert solve_lp(t).status is LpStatus.INFEASIBLE
    with pytest.raises(InvalidArg, match="trust base"):
        set_trust_target(p, 0, 1, 0.15, 0.25)


def test_default_delta_cap():
    assert default_delta_cap([0.3, 0.9], [1.0, 2.0]) == pytest.approx(0.7)
    assert default_delta_cap([0.5], [1.0]) == pytest.approx(0.5)


def test_objective_ops_do_not_mutate_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    n_rows = len(p.rows)
    q = set_robustness_objective(p, 0, 1, 0.25)
    t = set_trust_target(set_trust_problem(p, np.full(2, 0.5), np.ones(2), 0.5), 0, 1, 0.15, 0.25)
    assert not p.c.any() and p.ball is None
    assert len(p.rows) == n_rows
    assert len(t.rows) == n_rows + 4  # 2 ball rows per input; the target is a bound
    assert t.num_vars == p.num_vars + 1
    x = p.var_roles[("output", 0)]
    assert t.lo[x] == pytest.approx(0.4) and t.hi[x] == p.hi[x]  # x1 >= 0.25 + 0.15
    # the robustness objective prices the output, the trust one the radius
    assert np.flatnonzero(q.c).tolist() == [x] and q.c[x] == 1.0 and q.ball is None
    d = t.var_roles[("delta",)]
    assert np.flatnonzero(t.c).tolist() == [d] and t.c[d] == 1.0
    assert [a.tolist() for a in t.ball] == [[0.5, 0.5], [1.0, 1.0]]
    for a in (q.c, t.c, *t.ball):
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_subproblems_share_the_read_only_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    rows, roles, names, num_vars = p.rows, dict(p.var_roles), p.var_names, p.num_vars
    q = set_robustness_objective(p, 0, 1, 0.25)
    # a robustness subproblem differs from its base in objective alone
    for a in ("lo", "hi", "binary", "rows", "senses", "rhs", "var_roles", "var_names", "network"):
        assert getattr(q, a) is getattr(p, a)
    # so a write through it, which would reach its siblings, raises
    for a in (q.lo, q.hi, q.binary):
        with pytest.raises(ValueError):
            a[0] = 0.5
    with pytest.raises(TypeError):
        q.var_roles[("delta",)] = p.num_vars
    assert not hasattr(q.senses, "append") and not hasattr(q.var_names, "append")
    # a trust base extends its base without touching it
    tb = set_trust_problem(p, np.full(2, 0.5), np.ones(2), 0.5)
    assert p.num_vars == num_vars and p.rows is rows and p.var_names is names
    assert dict(p.var_roles) == roles and ("delta",) not in p.var_roles
    assert np.array_equal(tb.rows[: len(rows)], np.pad(rows, ((0, 0), (0, 1))))  # no radius term
    assert len(tb.rows) == len(tb.senses) == len(tb.rhs) == len(rows) + 4
    # the rows, in the base, its robustness subproblem and its trust base alike, are read-only
    for r in (p, q, tb):
        with pytest.raises(ValueError):
            r.rows[0, 0] = 0.5
        with pytest.raises(ValueError):
            r.rhs[0] = 0.5
    assert tb.var_roles[("delta",)] == num_vars
    assert np.array_equal(tb.lo[:num_vars], p.lo) and np.array_equal(tb.hi[:num_vars], p.hi)
    # and a trust subproblem differs from its trust base in one output's bounds alone
    t = set_trust_target(tb, 0, 1, 0.15, 0.25)
    for a in ("binary", "rows", "senses", "rhs", "var_roles", "var_names", "network", "c", "ball"):
        assert getattr(t, a) is getattr(tb, a)
    x = p.var_roles[("output", 0)]
    assert t.lo[x] == pytest.approx(0.4) and p.lo[x] < 0.4  # x1 >= 0.25 + 0.15
    others = np.arange(tb.num_vars) != x
    assert np.array_equal(t.lo[others], tb.lo[others]) and np.array_equal(t.hi, tb.hi)
    for a in (tb.lo, tb.hi, t.lo, t.hi):
        with pytest.raises(ValueError):
            a[0] = 0.5


def test_validation_errors(e1):
    p, lb = encode_on_box(e1, InputBox.unit(2))
    with pytest.raises(IndexError):
        set_robustness_objective(p, 5, 1, 0.0)
    with pytest.raises(InvalidArg):
        set_robustness_objective(p, 0, 2, 0.0)
    z_ref, scale = np.full(2, 0.5), np.ones(2)
    with pytest.raises(InvalidArg):
        set_trust_target(set_trust_problem(p, z_ref, scale, 0.5), 0, 1, 0.0, 0.25)
    with pytest.raises(InvalidArg):
        set_trust_target(set_trust_problem(p, z_ref, np.array([1.0, -1.0]), 0.5), 0, 1, 0.1, 0.25)
    with pytest.raises(InvalidArg):
        set_trust_target(set_trust_problem(p, z_ref, scale, 0.0), 0, 1, 0.1, 0.25)
    with pytest.raises(InvalidArg):
        set_trust_target(set_trust_problem(p, np.array([0.5, 1.5]), scale, 0.5), 0, 1, 0.1, 0.25)
    with pytest.raises(DimensionMismatch):
        set_trust_target(set_trust_problem(p, np.array([0.5]), scale, 0.5), 0, 1, 0.1, 0.25)
    # stability map from a different network shape
    other = FoldedNetwork(input_dim=2, layers=e1.layers[-1:])
    with pytest.raises(DimensionMismatch):
        encode_network(other, lb, classify_neurons(lb), InputBox.unit(2))


def test_layer_bounds_are_read_only_copies(e1):
    # encode_network trusts the bounds it is given, so bounds must stay as
    # LayerBounds checked them: hmin > hmax is refused when built, and no
    # write afterwards, through the bounds or the arrays they came from,
    # can reach them
    lb = propagate_bounds(e1, InputBox.unit(2))
    for a in (*lb.pre_lo, *lb.pre_hi, lb.out_lo, lb.out_hi):
        with pytest.raises(ValueError):
            a[0] = 1e6
    src = [a.copy() for a in lb.pre_lo]
    copied = LayerBounds(pre_lo=tuple(src), pre_hi=lb.pre_hi, out_lo=lb.out_lo, out_hi=lb.out_hi)
    src[0][0] = lb.pre_hi[0][0] + 1.0
    assert np.array_equal(copied.pre_lo[0], lb.pre_lo[0])
    with pytest.raises(InvalidValue):
        LayerBounds(pre_lo=tuple(src), pre_hi=lb.pre_hi, out_lo=lb.out_lo, out_hi=lb.out_hi)
    with pytest.raises(InvalidValue):
        LayerBounds(pre_lo=lb.pre_lo, pre_hi=lb.pre_hi, out_lo=lb.out_hi + 1.0, out_hi=lb.out_hi)


def test_lp_text_export(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    q = set_robustness_objective(p, 0, 1, 0.25)
    text = to_lp_text(q)
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and "End" in text
    assert "Binary" in text
    assert "r1_1" in text and "r1_2" in text
    t = set_trust_target(set_trust_problem(p, np.full(2, 0.5), np.ones(2), 0.5), 0, 1, 0.15, 0.25)
    assert to_lp_text(t).startswith("Minimize")
