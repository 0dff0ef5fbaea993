import itertools
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucert.bnb import BnbOptions, BnbStatus, MilpResult, _select_branch_var, solve_milp
from relucert.bounds import InputBox, classify_neurons, propagate_bounds
from relucert.errors import InvalidArg, NumericalBreakdown
from relucert.milp import (
    LinearRow,
    MilpProblem,
    default_delta_cap,
    encode_network,
    set_robustness_objective,
    set_trust_problem,
)
from relucert.nnmodel import HiddenLayer, NetworkSpec, OutputLayer, fold_bn, forward
from relucert.simplex import LpStatus, PreparedLp, solve_lp

from conftest import identity_bn, random_spec
from test_milp import encode_on_box, identity_net


def enumerate_exact(p):
    """Brute-force optimum over every full binary assignment."""
    bins = np.flatnonzero(p.binary)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(bins)):
        sol = solve_lp(p, relax=dict(zip(bins, bits)))
        if sol.status is not LpStatus.OPTIMAL:
            continue
        v = sol.objective
        if best is None or (v > best if p.obj_sense == "max" else v < best):
            best = v
    return best


def test_zero_binary_problem_is_one_node():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    res = solve_milp(set_robustness_objective(p, 0, 1, 0.0))
    assert res.status is BnbStatus.CERTIFIED
    assert res.nodes == 1
    assert res.incumbent_value == pytest.approx(1.0, abs=1e-9)
    assert res.best_bound >= res.incumbent_value - 1e-12
    assert res.gap <= 1e-8


def test_e1_robustness_certified_values(e1):
    box = InputBox(lo=np.full(2, 0.4), hi=np.full(2, 0.6))
    p, _ = encode_on_box(e1, box)
    plus = solve_milp(set_robustness_objective(p, 0, 1, 0.25))
    minus = solve_milp(set_robustness_objective(p, 0, -1, 0.25))
    assert plus.status is BnbStatus.CERTIFIED
    assert plus.incumbent_value == pytest.approx(0.2, abs=1e-9)
    assert minus.status is BnbStatus.CERTIFIED
    assert minus.incumbent_value == pytest.approx(0.1, abs=1e-9)
    # witness reproduces the claimed deviation
    assert forward(e1, plus.z)[0] - 0.25 == pytest.approx(plus.incumbent_value, abs=1e-9)


def test_e1_trust_certified_values(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    z_ref, scale = np.full(2, 0.5), np.ones(2)
    for sign, want in ((1, 0.075), (-1, 0.15)):
        q = set_trust_problem(p, 0, sign, 0.15, 0.25, z_ref, scale, 0.5)
        res = solve_milp(q)
        assert res.status is BnbStatus.CERTIFIED
        assert res.incumbent_value == pytest.approx(want, abs=1e-9)
        assert res.best_bound <= res.incumbent_value + 1e-9  # min sense
        # the witness lies on the ball of the certified radius
        assert np.max(np.abs(res.z - z_ref) / scale) == pytest.approx(res.incumbent_value, abs=1e-9)


def test_trust_unattainable_is_infeasible():
    net = identity_net()
    p, _ = encode_on_box(net, InputBox.unit(1))
    q = set_trust_problem(p, 0, 1, 2.0, 0.5, np.array([0.5]), np.ones(1), 0.5)
    res = solve_milp(q)
    assert res.status is BnbStatus.INFEASIBLE
    assert not res.found


def test_random_instances_match_enumeration():
    rng = np.random.default_rng(17)
    done = 0
    while done < 20:
        net = fold_bn(random_spec(rng, n0=2, widths=(3, 2), m=1, unit_norm=True))
        box = InputBox.unit(2)
        lb = propagate_bounds(net, box)
        sm = classify_neurons(lb)
        if sm.num_unstable == 0 or sm.num_unstable > 5:
            continue
        p = encode_network(net, lb, sm, box)
        x_ref = float(rng.uniform(-0.5, 0.5))
        sign = 1 if rng.integers(2) else -1
        q = set_robustness_objective(p, 0, sign, x_ref)
        res = solve_milp(q)
        exact = enumerate_exact(q)
        assert res.status is BnbStatus.CERTIFIED
        assert res.incumbent_value == pytest.approx(exact, abs=1e-7)
        done += 1


def test_branching_takes_the_most_fractional_binary():
    rng = np.random.default_rng(40)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=1, unit_norm=True))
    box = InputBox.unit(3)
    lb = propagate_bounds(net, box)
    p = encode_network(net, lb, classify_neurons(lb), box)
    bin_idx = np.flatnonzero(p.binary)
    # roles are ("bin", layer, neuron): two binaries in layer 0, then one in layer 1
    assert bin_idx.tolist() == [p.var_roles[r] for r in (("bin", 0, 0), ("bin", 0, 2), ("bin", 1, 3))]
    x = np.zeros(p.num_vars)

    # the deeper binary at 0.5 wins over an earlier-layer one at 0.9
    x[bin_idx] = [0.9, 0.0, 0.5]
    assert _select_branch_var(x, bin_idx) == 2
    # equally fractional binaries go to the lowest index
    x[bin_idx] = [0.25, 0.75, 1.0]
    assert _select_branch_var(x, bin_idx) == 0
    x[bin_idx] = [1.0, 0.75, 0.25]
    assert _select_branch_var(x, bin_idx) == 1
    x[bin_idx] = [0.0, 1.0, 1.0 - 1e-9]
    assert _select_branch_var(x, bin_idx) is None
    # a branched binary sits exactly at 0.0 or 1.0 and is never chosen
    x[bin_idx] = [0.0, 0.9, 1.0]
    assert _select_branch_var(x, bin_idx) == 1


def test_node_limit_gives_honest_bracket():
    rng = np.random.default_rng(40)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=1, unit_norm=True))
    box = InputBox.unit(3)
    lb = propagate_bounds(net, box)
    p = encode_network(net, lb, classify_neurons(lb), box)
    q = set_robustness_objective(p, 0, 1, 0.0)
    full = solve_milp(q)
    assert full.status is BnbStatus.CERTIFIED
    capped = solve_milp(q, BnbOptions(node_limit=2))
    assert capped.status in (BnbStatus.GAP_LIMIT, BnbStatus.CERTIFIED)
    if capped.status is BnbStatus.GAP_LIMIT:
        assert capped.incumbent_value <= full.incumbent_value + 1e-9
        assert capped.best_bound >= full.incumbent_value - 1e-9
        assert capped.gap > 0


def _break_solve(monkeypatch, which):
    """Make the `which`-th LP solve of each later `solve_milp` raise."""
    solve = PreparedLp.solve
    calls = []

    def breaking(self, *args, **kwargs):
        calls.append(None)
        if len(calls) == which:
            raise NumericalBreakdown("forced")
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(PreparedLp, "solve", breaking)
    return calls


def _e1_problems(e1):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    return [
        set_robustness_objective(p, 0, 1, 0.25),  # max, 3 nodes
        set_trust_problem(p, 0, 1, 0.15, 0.25, np.full(2, 0.5), np.ones(2), 0.5),  # min, 5 nodes
    ]


def test_e1_node_counts(e1):
    assert [solve_milp(q).nodes for q in _e1_problems(e1)] == [3, 5]


def test_child_breakdown_leaves_an_honest_bracket(e1, monkeypatch):
    for q in _e1_problems(e1):
        full = solve_milp(q)
        opt = full.incumbent_value
        for child in range(2, full.nodes + 1):
            calls = _break_solve(monkeypatch, child)
            res = solve_milp(q)
            monkeypatch.undo()
            assert len(calls) >= child
            assert res.stats.node_breakdowns == 1
            assert res.stats.lp_solves == res.nodes - 1
            assert res.status in (BnbStatus.GAP_LIMIT, BnbStatus.CERTIFIED)
            lo, hi = (res.incumbent_value, res.best_bound) if q.obj_sense == "max" else (
                res.best_bound, res.incumbent_value)
            assert lo - 1e-9 <= opt <= hi + 1e-9
            assert res.gap == pytest.approx(abs(res.best_bound - res.incumbent_value), abs=1e-12)
            if res.status is BnbStatus.CERTIFIED:
                assert res.incumbent_value == pytest.approx(opt, abs=1e-6)


def test_root_breakdown_raises(e1, monkeypatch):
    q = _e1_problems(e1)[0]
    _break_solve(monkeypatch, 1)
    with pytest.raises(NumericalBreakdown, match="node 0 at depth 0"):
        solve_milp(q)


def test_bound_monotone_incumbent_improving():
    rng = np.random.default_rng(41)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=1, unit_norm=True))
    box = InputBox.unit(3)
    lb = propagate_bounds(net, box)
    p = encode_network(net, lb, classify_neurons(lb), box)
    q = set_robustness_objective(p, 0, 1, 0.0)
    bounds, incs = [], []
    for nl in (1, 2, 4, 8, 16, 32, 64, 128):
        r = solve_milp(q, BnbOptions(node_limit=nl))
        bounds.append(r.best_bound)
        incs.append(r.incumbent_value)
        if r.status is BnbStatus.CERTIFIED:
            break
    assert all(b2 <= b1 + 1e-9 for b1, b2 in zip(bounds, bounds[1:]))
    assert all(i2 >= i1 - 1e-9 for i1, i2 in zip(incs, incs[1:]))


def test_generic_problem_without_network_meta(monkeypatch):
    # max r subject to r <= 0.5 with r binary: LP is fractional, only r=0 feasible
    p = MilpProblem(
        lo=np.zeros(1),
        hi=np.ones(1),
        binary=np.array([True]),
        rows=[LinearRow(idx=np.array([0]), coef=np.array([1.0]), sense="<=", rhs=0.5)],
        obj_sense="max",
        obj_idx=np.array([0], dtype=np.intp),
        obj_coef=np.array([1.0]),
    )
    capped = solve_milp(p, BnbOptions(node_limit=1))
    assert capped.status is BnbStatus.LIMIT  # no incumbent generator without meta
    assert not capped.found
    full = solve_milp(p)
    assert full.status is BnbStatus.CERTIFIED
    assert full.incumbent_value == pytest.approx(0.0, abs=1e-12)
    # a breakdown on the r=0 child loses the only incumbent; on the r=1 child
    # it leaves the bracket [0, 0.5] open
    for child, status in ((2, BnbStatus.LIMIT), (3, BnbStatus.GAP_LIMIT)):
        _break_solve(monkeypatch, child)
        res = solve_milp(p)
        monkeypatch.undo()
        assert res.status is status
        assert res.best_bound == pytest.approx(0.5, abs=1e-12)


def test_one_debug_record_per_node(e1, caplog):
    for q in _e1_problems(e1):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="relucert.bnb"):
            res = solve_milp(q)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("node ")]
        assert len(records) == res.nodes
        assert [int(m.split()[1]) for m in records] == list(range(res.nodes))
        actions = [m.rsplit(": ", 1)[1] for m in records]
        assert set(actions) <= {"branch", "integral", "pruned", "infeasible"}
        assert actions[0] == "branch"  # the root takes the children's path


def test_options_validation():
    for kw in (
        dict(abs_gap=-1.0),
        dict(abs_gap="1e-8"),
        dict(rel_gap=float("nan")),
        dict(rel_gap=None),
        dict(node_limit="x"),
        dict(node_limit=-1),
        dict(node_limit=0),
        dict(node_limit=True),
        dict(node_limit=2.0),
        dict(time_limit_seconds="1"),
        dict(time_limit_seconds=0.0),
        dict(time_limit_seconds=-1),
    ):
        with pytest.raises(InvalidArg):
            BnbOptions(**kw)
    BnbOptions(abs_gap=0, rel_gap=0.0, node_limit=np.int64(1), time_limit_seconds=1)


def test_result_invariants_random():
    rng = np.random.default_rng(55)
    for _ in range(5):
        net = fold_bn(random_spec(rng, n0=2, widths=(4,), m=2, unit_norm=True))
        box = InputBox.unit(2)
        lb = propagate_bounds(net, box)
        p = encode_network(net, lb, classify_neurons(lb), box)
        i = int(rng.integers(net.num_outputs))
        q = set_robustness_objective(p, i, 1, 0.0)
        res = solve_milp(q)
        assert res.status is BnbStatus.CERTIFIED
        assert res.best_bound >= res.incumbent_value - 1e-12
        assert res.gap >= 0 and res.nodes >= 1 and res.wall_time >= 0


# ---------------------------------------------------------------------------
# a primary problem searched together with its rivals


def _trust_pair(net, i, beta, z_ref, x_ref_i):
    """The `+` and `-` trust problems of output `i` over the unit box."""
    p, _ = encode_on_box(net, InputBox.unit(net.input_dim))
    z_ref, scale = np.asarray(z_ref, dtype=float), np.ones(net.input_dim)
    cap = default_delta_cap(z_ref, scale)
    return tuple(set_trust_problem(p, i, s, beta, x_ref_i, z_ref, scale, cap) for s in (1, -1))


def _random_trust_pair(seed, beta):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5, 5), unit_norm=True))
    z_ref = rng.uniform(0, 1, net.input_dim)
    i = int(rng.integers(net.num_outputs))
    return _trust_pair(net, i, beta, z_ref, float(forward(net, z_ref)[i]))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), beta=st.floats(0.05, 0.5))
def test_joint_pair_matches_separate_searches(seed, beta):
    plus, minus = _random_trust_pair(seed, beta)
    joint = solve_milp(plus, rivals=(minus,))
    apart = [solve_milp(plus), solve_milp(minus)]
    certified = (BnbStatus.CERTIFIED, BnbStatus.INFEASIBLE)
    assert joint.status in certified and all(r.status in certified for r in apart)
    found = [(r.incumbent_value, k) for k, r in enumerate(apart) if r.found]
    assert joint.found == bool(found) and joint.problems == 2
    if found:
        value, source = min(found)  # as `trustworthiness` picked: ties go to the `+` sign
        assert joint.incumbent_value == pytest.approx(value, abs=1e-9)
        assert joint.source == source
        assert joint.best_bound <= joint.incumbent_value + 1e-9  # min sense
    else:
        assert joint.status is BnbStatus.INFEASIBLE and joint.source is None


def test_joint_pair_both_infeasible_is_certified_absence():
    net = identity_net()
    plus, minus = _trust_pair(net, 0, 2.0, [0.5], 0.5)  # needs z >= 2.5 or z <= -1.5
    res = solve_milp(plus, rivals=(minus,))
    assert res.status is BnbStatus.INFEASIBLE
    assert not res.found and res.source is None
    assert res.nodes == 2 and res.problems == 2  # both roots, nothing else


def _symmetric_net():
    """1-2-1 network computing x = relu(z - 0.5) - relu(0.5 - z) = z - 0.5 on [0, 1]."""
    spec = NetworkSpec(
        input_dim=1,
        hidden=(HiddenLayer(W=np.array([[1.0], [-1.0]]), b=np.array([-0.5, 0.5]), bn=identity_bn(2)),),
        output=OutputLayer(W=np.array([[1.0, -1.0]]), b=np.zeros(1)),
        input_norm_lo=np.zeros(1),
        input_norm_hi=np.ones(1),
        output_names=("y1",),
    )
    return fold_bn(spec)


def test_joint_pair_tie_goes_to_the_primary():
    net = _symmetric_net()
    plus, minus = _trust_pair(net, 0, 0.25, [0.5], 0.0)  # z = 0.75 or z = 0.25
    assert solve_milp(plus).incumbent_value == solve_milp(minus).incumbent_value == 0.25
    for first, second in ((plus, minus), (minus, plus)):
        res = solve_milp(first, rivals=(second,))
        assert res.status is BnbStatus.CERTIFIED and res.incumbent_value == 0.25
        assert res.source == 0
        assert res.z.tolist() == [0.75 if first is plus else 0.25]


def test_joint_pair_node_limit_gives_honest_bracket():
    plus, minus = _random_trust_pair(3, 0.3)
    opt = min(r.incumbent_value for r in (solve_milp(plus), solve_milp(minus)) if r.found)
    full = solve_milp(plus, rivals=(minus,))
    assert full.status is BnbStatus.CERTIFIED and full.nodes > 8
    for nl in (1, 2, 4, 8):
        res = solve_milp(plus, BnbOptions(node_limit=nl), rivals=(minus,))
        assert res.nodes == max(nl, 2)  # both roots are always solved
        assert res.status in (BnbStatus.GAP_LIMIT, BnbStatus.LIMIT)
        assert res.best_bound <= opt + 1e-9  # min sense: the bound is below every value
        if res.found:
            assert res.incumbent_value >= opt - 1e-9
            assert res.gap == pytest.approx(res.incumbent_value - res.best_bound, abs=1e-12)
        else:
            assert res.gap == np.inf


def test_joint_pair_records_name_the_problem(e1, caplog):
    plus, minus = _trust_pair(e1, 0, 0.15, [0.5, 0.5], 0.25)
    with caplog.at_level(logging.DEBUG, logger="relucert.bnb"):
        res = solve_milp(plus, rivals=(minus,))
    records = [r.getMessage().split() for r in caplog.records if r.getMessage().startswith("node ")]
    assert [int(m[1]) for m in records] == list(range(res.nodes))
    assert [m[2:4] for m in records[:2]] == [["problem", "0"], ["problem", "1"]]  # the roots
    assert {m[3] for m in records} == {"0", "1"}
    assert res.incumbent_value == pytest.approx(0.075, abs=1e-9) and res.source == 0


def test_rivals_must_share_the_sense(e1):
    rob, trust = _e1_problems(e1)
    with pytest.raises(InvalidArg, match="sense"):
        solve_milp(trust, rivals=(rob,))


def test_rival_root_breakdown_raises(e1, monkeypatch):
    plus, minus = _trust_pair(e1, 0, 0.15, [0.5, 0.5], 0.25)
    _break_solve(monkeypatch, 2)
    with pytest.raises(NumericalBreakdown, match="problem 1 node 1 at depth 0"):
        solve_milp(plus, rivals=(minus,))
