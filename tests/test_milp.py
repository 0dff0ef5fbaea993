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
    to_lp_text,
)
from relucert.nnmodel import AffineLayer, FoldedNetwork, HiddenLayer, NetworkSpec, OutputLayer, fold_bn
from relucert.simplex import LpStatus

from conftest import identity_bn, relaxation


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
        relaxation(p)
    with pytest.raises(InvalidArg):
        solve_milp(p)


def assert_layout(p, layout):
    """`p`'s rows, senses and right-hand sides are exactly `layout`'s, one
    ({name: coefficient}, sense, rhs) per row in order."""
    rows = np.zeros((len(layout), p.num_vars))
    for i, (coef, _, _) in enumerate(layout):
        for name, v in coef.items():
            rows[i, p.var_names.index(name)] = v
    assert np.array_equal(p.rows, rows)
    assert p.senses == tuple(sense for _, sense, _ in layout)
    assert p.rhs.tolist() == [b for _, _, b in layout]


def test_e1_encoding_counts(e1):
    """An unstable neuron costs two columns, its post variable and its
    binary, and three rows; no column holds a pre-activation."""
    p, _ = encode_on_box(e1, InputBox.unit(2))
    assert p.num_binaries == 2
    # every role present: 2 inputs, 2 post, 2 bins, 1 output
    kinds = [r[0] for r in p.var_roles]
    assert sorted(kinds) == ["bin", "bin", "input", "input", "output", "post", "post"]
    assert p.num_vars == 7 and p.rows.shape == (2 * 3 + 1, 7)
    assert np.all(np.isfinite(p.lo)) and np.all(np.isfinite(p.hi))


def test_e1_row_layout(e1):
    """Neuron by neuron, layer by layer: three big-M rows per unstable
    neuron, each reading its affine map of the inputs, then the output's
    affine row; h >= 0 is a bound. E1's pre-activation intervals over the
    unit box are [-1, 1] and [-0.25, 0.75]."""
    p, _ = encode_on_box(e1, InputBox.unit(2))
    assert p.var_names == ("z1", "z2", "h1_1", "h1_2", "r1_1", "r1_2", "x1")
    assert_layout(
        p,
        [
            ({"h1_1": 1.0, "z1": -1.0, "z2": 1.0, "r1_1": 1.0}, "<=", 1.0),  # h - A z - hmin r <= c - hmin
            ({"h1_1": 1.0, "z1": -1.0, "z2": 1.0}, ">=", 0.0),  # h - A z >= c
            ({"h1_1": 1.0, "r1_1": -1.0}, "<=", 0.0),  # h <= hmax r
            ({"h1_2": 1.0, "z1": -0.5, "z2": -0.5, "r1_2": 0.25}, "<=", 0.0),
            ({"h1_2": 1.0, "z1": -0.5, "z2": -0.5}, ">=", -0.25),
            ({"h1_2": 1.0, "r1_2": -0.75}, "<=", 0.0),
            ({"x1": 1.0, "h1_1": -1.0, "h1_2": -1.0}, "=", 0.0),
        ],
    )


def test_a_stable_neuron_is_written_once():
    """Over z in [0, 1]: h1_1 = relu(z + 0.5) is active on [0.5, 1.5], h1_2 =
    relu(-z - 0.5) dead and h1_3 = relu(z - 0.5) unstable on [-0.5, 0.5].
    The active neuron's affine row defines its post variable, and the dead
    one has no row, its post variable fixed at 0. h2_1 = relu(h1_1 + 2 h1_2
    - 2 h1_3 - 1) is unstable on [-1.5, 0.5]: its two dense big-M rows read
    all three neurons of the layer before, with the right-hand side
    c - hmin = 0.5. No column holds a pre-activation."""
    net = FoldedNetwork(
        layers=(
            AffineLayer(A=np.array([[1.0], [-1.0], [1.0]]), c=np.array([0.5, -0.5, -0.5])),
            AffineLayer(A=np.array([[1.0, 2.0, -2.0]]), c=np.array([-1.0])),
            AffineLayer(A=np.ones((1, 1)), c=np.zeros(1)),
        ),
        input_dim=1,
    )
    p, lb = encode_on_box(net, InputBox.unit(1))
    stability = classify_neurons(lb).layers
    assert list(stability[0]) == [Stability.ACTIVE, Stability.DEAD, Stability.UNSTABLE]
    assert list(stability[1]) == [Stability.UNSTABLE]
    assert (lb.pre_lo[1][0], lb.pre_hi[1][0]) == (-1.5, 0.5)
    assert p.var_names == ("z1", "h1_1", "h1_2", "h1_3", "r1_3", "h2_1", "r2_1", "x1")
    assert {r[0] for r in p.var_roles} == {"input", "post", "bin", "output"}
    h1_2 = p.var_roles[("post", 0, 1)]
    assert p.lo[h1_2] == p.hi[h1_2] == 0.0
    assert_layout(
        p,
        [
            ({"h1_1": 1.0, "z1": -1.0}, "=", 0.5),  # the active neuron: one row
            ({"h1_3": 1.0, "z1": -1.0, "r1_3": 0.5}, "<=", 0.0),
            ({"h1_3": 1.0, "z1": -1.0}, ">=", -0.5),
            ({"h1_3": 1.0, "r1_3": -0.5}, "<=", 0.0),
            ({"h2_1": 1.0, "h1_1": -1.0, "h1_2": -2.0, "h1_3": 2.0, "r2_1": 1.5}, "<=", 0.5),
            ({"h2_1": 1.0, "h1_1": -1.0, "h1_2": -2.0, "h1_3": 2.0}, ">=", -1.0),
            ({"h2_1": 1.0, "r2_1": -0.5}, "<=", 0.0),
            ({"x1": 1.0, "h2_1": -1.0}, "=", 0.0),
        ],
    )
    text = to_lp_text(p)
    assert "hp" not in text and "h2_1" in text


def test_all_active_network_is_pure_lp():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    assert p.num_binaries == 0  # pre interval [0,1] classifies as active
    sol = relaxation(set_robustness_objective(p, 0, 1, 0.0))
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    sol = relaxation(set_robustness_objective(p, 0, -1, 0.0))
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
        return relaxation(fixed(set_robustness_objective(p, 0, sign, 0.0), {z: z_val, r: r_val}))

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
        sol = relaxation(fixed(q, {r: rv}))
        assert sol.status is LpStatus.OPTIMAL
        vals[rv] = sol.objective + q.obj_offset
    assert vals[1.0] == pytest.approx(0.2, abs=1e-9)
    assert vals[0.0] == pytest.approx(0.1, abs=1e-9)
    # LP relaxation can only overestimate the true optimum
    assert relaxation(q).objective + q.obj_offset >= 0.2 - 1e-9


def test_default_delta_cap():
    assert default_delta_cap([0.3, 0.9], [1.0, 2.0]) == pytest.approx(0.7)
    assert default_delta_cap([0.5], [1.0]) == pytest.approx(0.5)


def test_objective_ops_do_not_mutate_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    n_rows = len(p.rows)
    q = set_robustness_objective(p, 0, 1, 0.25)
    assert not p.c.any()
    assert len(p.rows) == len(q.rows) == n_rows
    # the robustness objective prices the output
    x = p.var_roles[("output", 0)]
    assert np.flatnonzero(q.c).tolist() == [x] and q.c[x] == 1.0
    with pytest.raises(ValueError):
        q.c[0] = 0.5


def test_subproblems_share_the_read_only_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    q = set_robustness_objective(p, 0, 1, 0.25)
    # a robustness subproblem differs from its base in objective alone
    for a in ("lo", "hi", "binary", "rows", "senses", "rhs", "var_roles", "var_names", "network"):
        assert getattr(q, a) is getattr(p, a)
    # so a write through it, which would reach its siblings, raises
    for a in (q.lo, q.hi, q.binary):
        with pytest.raises(ValueError):
            a[0] = 0.5
    with pytest.raises(TypeError):
        q.var_roles[("output", 1)] = p.num_vars
    assert not hasattr(q.senses, "append") and not hasattr(q.var_names, "append")
    # the rows, in the base and its robustness subproblem alike, are read-only
    for r in (p, q):
        with pytest.raises(ValueError):
            r.rows[0, 0] = 0.5
        with pytest.raises(ValueError):
            r.rhs[0] = 0.5


def test_validation_errors(e1):
    p, lb = encode_on_box(e1, InputBox.unit(2))
    with pytest.raises(IndexError):
        set_robustness_objective(p, 5, 1, 0.0)
    with pytest.raises(InvalidArg):
        set_robustness_objective(p, 0, 2, 0.0)
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
