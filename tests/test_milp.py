from dataclasses import replace

import numpy as np
import pytest

from relucert.bounds import InputBox, Stability, classify_neurons, propagate_bounds
from relucert.errors import DimensionMismatch, InvalidArg, UnsoundBounds
from relucert.milp import (
    LinearRow,
    default_delta_cap,
    encode_network,
    set_robustness_objective,
    set_trust_problem,
    to_lp_text,
)
from relucert.nnmodel import FoldedNetwork, HiddenLayer, NetworkSpec, OutputLayer, fold_bn
from relucert.simplex import LpStatus, solve_lp

from conftest import identity_bn


def encode_on_box(net, box):
    lb = propagate_bounds(net, box)
    return encode_network(net, lb, classify_neurons(lb), box), lb


def identity_net():
    """1-1-1 network computing x = z on [0,1]."""
    spec = NetworkSpec(
        input_dim=1,
        hidden=(HiddenLayer(W=np.array([[1.0]]), b=np.zeros(1), bn=identity_bn(1)),),
        output=OutputLayer(W=np.array([[1.0]]), b=np.zeros(1)),
        input_norm_lo=np.zeros(1),
        input_norm_hi=np.ones(1),
        output_names=("y1",),
    )
    return fold_bn(spec)


def test_linear_row_validation():
    with pytest.raises(InvalidArg):
        LinearRow(idx=np.array([0]), coef=np.array([1.0]), sense="<", rhs=0.0)
    with pytest.raises(DimensionMismatch):
        LinearRow(idx=np.array([0, 1]), coef=np.array([1.0]), sense="<=", rhs=0.0)


def test_e1_encoding_counts(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    assert p.num_binaries == 2
    assert len(p.rows_tagged("relu:")) == 6  # three rows per unstable neuron; h >= 0 is a bound
    assert len(p.rows_tagged("affine-pre")) == 2
    assert len(p.rows_tagged("affine-out")) == 1
    # every role present: 2 inputs, 2 pre, 2 post, 2 bins, 1 output
    kinds = [r[0] for r in p.var_roles]
    assert sorted(kinds) == ["bin", "bin", "input", "input", "output", "post", "post", "pre", "pre"]
    assert np.all(np.isfinite(p.lo)) and np.all(np.isfinite(p.hi))


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
        q = set_robustness_objective(p, 0, sign, 0.0)
        lo, hi = q.lo.copy(), q.hi.copy()
        lo[z] = hi[z] = z_val
        return solve_lp(replace(q, lo=lo, hi=hi), relax={r: r_val})

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
        sol = solve_lp(q, relax={r: rv})
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
        q = set_trust_problem(p, 0, sign, 0.15, 0.25, z_ref, scale, cap)
        best = np.inf
        for a in (0.0, 1.0):
            for b in (0.0, 1.0):
                sol = solve_lp(q, relax={r1: a, r2: b})
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
        q = set_trust_problem(p, 0, sign, 0.05, 0.5, np.array([0.5]), np.ones(1), cap)
        sol = solve_lp(q)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective == pytest.approx(0.05, abs=1e-9)


def test_trust_unattainable_beta_infeasible():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    q = set_trust_problem(p, 0, 1, 2.0, 0.5, np.array([0.5]), np.ones(1), 0.5)
    assert solve_lp(q).status is LpStatus.INFEASIBLE


def test_default_delta_cap():
    assert default_delta_cap([0.3, 0.9], [1.0, 2.0]) == pytest.approx(0.7)
    assert default_delta_cap([0.5], [1.0]) == pytest.approx(0.5)


def test_objective_ops_do_not_mutate_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    n_rows = len(p.rows)
    q = set_robustness_objective(p, 0, 1, 0.25)
    t = set_trust_problem(p, 0, 1, 0.15, 0.25, np.full(2, 0.5), np.ones(2), 0.5)
    assert p.obj_idx.size == 0 and p.query == {}
    assert len(p.rows) == n_rows
    assert len(t.rows) == n_rows + 5  # 2 ball rows per input + target row
    assert t.num_vars == p.num_vars + 1
    assert q.query["kind"] == "robustness" and t.query["kind"] == "trust"


def test_subproblems_share_the_read_only_base(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    rows, roles, names, num_vars = p.rows, dict(p.var_roles), p.var_names, p.num_vars
    q = set_robustness_objective(p, 0, 1, 0.25)
    # a robustness subproblem differs from its base in objective alone
    for a in ("lo", "hi", "binary", "rows", "var_roles", "var_names", "network"):
        assert getattr(q, a) is getattr(p, a)
    # so a write through it, which would reach its siblings, raises
    for a in (q.lo, q.hi, q.binary):
        with pytest.raises(ValueError):
            a[0] = 0.5
    with pytest.raises(TypeError):
        q.var_roles[("delta",)] = p.num_vars
    assert not hasattr(q.rows, "append") and not hasattr(q.var_names, "append")
    # a trust subproblem extends its base without touching it
    t = set_trust_problem(p, 0, 1, 0.15, 0.25, np.full(2, 0.5), np.ones(2), 0.5)
    assert p.num_vars == num_vars and p.rows is rows and p.var_names is names
    assert dict(p.var_roles) == roles and ("delta",) not in p.var_roles
    assert all(a is b for a, b in zip(t.rows, rows)) and len(t.rows) == len(rows) + 5
    assert t.var_roles[("delta",)] == num_vars
    assert np.array_equal(t.lo[:num_vars], p.lo) and np.array_equal(t.hi[:num_vars], p.hi)


def test_validation_errors(e1):
    p, lb = encode_on_box(e1, InputBox.unit(2))
    with pytest.raises(IndexError):
        set_robustness_objective(p, 5, 1, 0.0)
    with pytest.raises(InvalidArg):
        set_robustness_objective(p, 0, 2, 0.0)
    z_ref, scale = np.full(2, 0.5), np.ones(2)
    with pytest.raises(InvalidArg):
        set_trust_problem(p, 0, 1, 0.0, 0.25, z_ref, scale, 0.5)
    with pytest.raises(InvalidArg):
        set_trust_problem(p, 0, 1, 0.1, 0.25, z_ref, np.array([1.0, -1.0]), 0.5)
    with pytest.raises(InvalidArg):
        set_trust_problem(p, 0, 1, 0.1, 0.25, z_ref, scale, 0.0)
    with pytest.raises(InvalidArg):
        set_trust_problem(p, 0, 1, 0.1, 0.25, np.array([0.5, 1.5]), scale, 0.5)
    with pytest.raises(DimensionMismatch):
        set_trust_problem(p, 0, 1, 0.1, 0.25, np.array([0.5]), scale, 0.5)
    # stability map from a different network shape
    other = FoldedNetwork(input_dim=2, layers=e1.layers[-1:])
    with pytest.raises(DimensionMismatch):
        encode_network(other, lb, classify_neurons(lb), InputBox.unit(2))


def test_unsound_bounds_rejected(e1):
    box = InputBox.unit(2)
    lb = propagate_bounds(e1, box)
    sm = classify_neurons(lb)
    lb.pre_lo[0][0] = lb.pre_hi[0][0] + 1.0
    with pytest.raises(UnsoundBounds):
        encode_network(e1, lb, sm, box)


def test_lp_text_export(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    q = set_robustness_objective(p, 0, 1, 0.25)
    text = to_lp_text(q)
    assert text.startswith("Maximize")
    assert "Subject To" in text and "Bounds" in text and "End" in text
    assert "Binary" in text
    assert "r1_1" in text and "r1_2" in text
    t = set_trust_problem(p, 0, 1, 0.15, 0.25, np.full(2, 0.5), np.ones(2), 0.5)
    assert to_lp_text(t).startswith("Minimize")
