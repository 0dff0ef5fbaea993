import itertools
import logging
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucert import simplex
from relucert.bnb import BnbOptions, BnbStatus, MilpResult, _select_branch_var, solve_milp
from relucert.bounds import InputBox, classify_neurons, propagate_bounds
from relucert.errors import InvalidArg, NumericalBreakdown
from relucert.milp import encode_network, prepare, relaxed_bounds, set_robustness_objective
from relucert.nnmodel import AffineLayer, FoldedNetwork, HiddenLayer, NetworkSpec, OutputLayer, fold_bn, forward
from relucert.oracle import RobustnessSpec, milp_opt
from relucert.simplex import LpStatus, PreparedLp
from relucert.verify import VerificationQuery, VerifyOptions, robustness

from conftest import identity_bn, random_spec, relaxation
from test_milp import encode_on_box, fixed, identity_net, relu_net


def enumerate_exact(p):
    """Brute-force optimum over every full binary assignment."""
    bins = np.flatnonzero(p.binary)
    best = None
    for bits in itertools.product((0.0, 1.0), repeat=len(bins)):
        sol = relaxation(fixed(p, dict(zip(bins, bits))))
        if sol.status is not LpStatus.OPTIMAL:
            continue
        v = sol.objective + p.obj_offset
        if best is None or v > best:
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


def test_e1_robustness_pair_certified_values(e1):
    # over [0.4, 0.6]^2 the output spans [0.15, 0.45]: the larger deviation
    # from 0.25 is the `+` one, 0.2, and from 0.35 the `-` one, 0.2
    box = InputBox(lo=np.full(2, 0.4), hi=np.full(2, 0.6))
    p, _ = encode_on_box(e1, box)
    for x_ref, source in ((0.25, 0), (0.35, 1)):
        plus, minus = (set_robustness_objective(p, 0, sign, x_ref) for sign in (1, -1))
        res = solve_milp(plus, rivals=(minus,))
        assert res.status is BnbStatus.CERTIFIED and res.source == source
        assert res.incumbent_value == pytest.approx(0.2, abs=1e-9)
        assert res.best_bound >= res.incumbent_value - 1e-9
        # the witness reproduces the deviation in its problem's sign
        sign = (1, -1)[source]
        assert sign * (forward(e1, res.z)[0] - x_ref) == pytest.approx(res.incumbent_value, abs=1e-9)


def test_an_output_bound_out_of_reach_is_infeasible():
    # the identity net's output is z in [0, 1]; fixed at 2 by its bounds,
    # it has no feasible point
    p, _ = encode_on_box(identity_net(), InputBox.unit(1))
    q = set_robustness_objective(p, 0, 1, 0.5)
    res = solve_milp(fixed(q, {q.var_roles[("output", 0)]: 2.0}))
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


def test_branching_takes_the_highest_dual_score():
    rng = np.random.default_rng(40)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=1, unit_norm=True))
    box = InputBox.unit(3)
    lb = propagate_bounds(net, box)
    p = encode_network(net, lb, classify_neurons(lb), box)
    bin_idx = np.flatnonzero(p.binary)
    # roles are ("bin", layer, neuron): two binaries in layer 0, then one in layer 1
    assert bin_idx.tolist() == [p.var_roles[r] for r in (("bin", 0, 0), ("bin", 0, 2), ("bin", 1, 3))]
    x = np.zeros(p.num_vars)

    # the score is min(x, 1 - x) * weight, and the highest wins
    x[bin_idx] = [0.9, 0.5, 0.3]
    assert _select_branch_var(x, bin_idx, np.array([10.0, 1.0, 1.0])) == 0
    assert _select_branch_var(x, bin_idx, np.array([1.0, 1.0, 2.0])) == 2
    # a positive score beats a more fractional binary whose weight is zero
    assert _select_branch_var(x, bin_idx, np.array([1.0, 0.0, 0.0])) == 0
    # equal scores go to the lowest index
    x[bin_idx] = [0.25, 0.5, 0.5]
    assert _select_branch_var(x, bin_idx, np.array([2.0, 1.0, 1.0])) == 0
    assert _select_branch_var(x, bin_idx, np.array([1.0, 1.0, 1.0])) == 1
    # a branched binary sits exactly at 0.0 or 1.0 and is never chosen,
    # whatever its weight
    x[bin_idx] = [0.0, 0.9, 1.0]
    assert _select_branch_var(x, bin_idx, np.array([100.0, 1.0, 100.0])) == 1
    x[bin_idx] = [0.0, 1.0, 1.0 - 1e-9]
    assert _select_branch_var(x, bin_idx, np.ones(3)) is None

    # all-zero weights fall back to the most fractional binary: the deeper
    # binary at 0.5 wins over an earlier-layer one at 0.9
    zero = np.zeros(3)
    x[bin_idx] = [0.9, 0.0, 0.5]
    assert _select_branch_var(x, bin_idx, zero) == 2
    # equally fractional binaries go to the lowest index
    x[bin_idx] = [0.25, 0.75, 1.0]
    assert _select_branch_var(x, bin_idx, zero) == 0
    x[bin_idx] = [1.0, 0.75, 0.25]
    assert _select_branch_var(x, bin_idx, zero) == 1
    # so do binaries tied at one half up to roundoff, either way round
    x[bin_idx] = [0.0, 0.5 - 2e-16, 0.5]
    assert _select_branch_var(x, bin_idx, zero) == 1
    x[bin_idx] = [0.0, 0.5, 0.5 + 2e-16]
    assert _select_branch_var(x, bin_idx, zero) == 1
    x[bin_idx] = [0.0, 0.5 - 1e-6, 0.5]
    assert _select_branch_var(x, bin_idx, zero) == 2
    x[bin_idx] = [0.0, 0.9, 1.0]
    assert _select_branch_var(x, bin_idx, zero) == 1
    # a positive weight on an integral binary leaves the others' scores zero
    x[bin_idx] = [1.0, 0.75, 0.4]
    assert _select_branch_var(x, bin_idx, np.array([5.0, 0.0, 0.0])) == 2


def test_branching_weights_come_from_the_node_duals(monkeypatch):
    from relucert import bnb

    rng = np.random.default_rng(40)
    net = fold_bn(random_spec(rng, n0=3, widths=(5, 4), m=1, unit_norm=True))
    box = InputBox.unit(3)
    lb = propagate_bounds(net, box)
    q = set_robustness_objective(encode_network(net, lb, classify_neurons(lb), box), 0, 1, 0.0)
    eng = prepare(q)
    bin_idx = np.flatnonzero(q.binary)
    solved, seen = [], []  # every LP solution; (solution, weights) per branching choice
    select, solve = bnb._select_branch_var, PreparedLp.solve

    def spy_solve(self, *args, **kwargs):
        solved.append(solve(self, *args, **kwargs))
        return solved[-1]

    def spy_select(x, idx, weight):
        seen.append((solved[-1], weight))
        return select(x, idx, weight)

    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    monkeypatch.setattr(bnb, "_select_branch_var", spy_select)
    assert solve_milp(q).status is BnbStatus.CERTIFIED
    assert seen and any(w.max() > 0 for _, w in seen)
    for sol, w in seen:
        # y = c_B B^-1 from the basis, on the engine's rows; duals within
        # opt_tol of zero count as zero
        c2 = np.zeros(eng.ncols)
        c2[: eng.n] = q.c
        y = np.abs(np.linalg.solve(eng.A[:, sol.basis].T, c2[sol.basis]))
        y[y <= simplex.OPT_TOL] = 0.0
        assert w == pytest.approx(y @ np.abs(eng.A[:, bin_idx]), abs=1e-9)


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
    """(primary, rivals) searches over the unit box: the `+` deviation of
    the output from 0.25, and both signs' from 0.65, where the output's
    range [0, 1.25] makes the `-` rival the larger, 0.65 against 0.6."""
    p, _ = encode_on_box(e1, InputBox.unit(2))
    return [
        (set_robustness_objective(p, 0, 1, 0.25), ()),
        (set_robustness_objective(p, 0, 1, 0.65), (set_robustness_objective(p, 0, -1, 0.65),)),
    ]


def test_e1_node_counts(e1):
    assert [solve_milp(q, rivals=rivals).nodes for q, rivals in _e1_problems(e1)] == [3, 4]


def test_child_breakdown_leaves_an_honest_bracket(e1, monkeypatch):
    for q, rivals in _e1_problems(e1):
        full = solve_milp(q, rivals=rivals)
        opt = full.incumbent_value
        for child in range(len(rivals) + 2, full.nodes + 1):
            calls = _break_solve(monkeypatch, child)
            res = solve_milp(q, rivals=rivals)
            monkeypatch.undo()
            assert len(calls) >= child
            assert res.stats.node_breakdowns == 1
            assert res.stats.lp_solves == res.nodes - 1
            assert res.status in (BnbStatus.GAP_LIMIT, BnbStatus.CERTIFIED)
            assert res.incumbent_value - 1e-9 <= opt <= res.best_bound + 1e-9
            assert res.gap == pytest.approx(abs(res.best_bound - res.incumbent_value), abs=1e-12)
            if res.status is BnbStatus.CERTIFIED:
                assert res.incumbent_value == pytest.approx(opt, abs=1e-6)


def test_root_breakdown_leaves_the_bracket_open(e1, monkeypatch):
    # a root's parent bound is +inf: nothing is found and nothing is bounded
    q, _ = _e1_problems(e1)[0]
    _break_solve(monkeypatch, 1)
    res = solve_milp(q)
    monkeypatch.undo()
    assert res.status is BnbStatus.LIMIT and not res.found
    assert res.best_bound == np.inf
    assert res.gap == np.inf and res.nodes == 1
    assert res.stats.node_breakdowns == 1 and res.stats.lp_solves == 0


def test_time_limit_stops_after_the_roots_with_an_honest_bracket(e1):
    # the roots always run; the limit is checked before the first branch
    for q, rivals in _e1_problems(e1):
        opt = solve_milp(q, rivals=rivals).incumbent_value
        res = solve_milp(q, BnbOptions(time_limit_seconds=1e-9), rivals=rivals)
        assert res.status in (BnbStatus.GAP_LIMIT, BnbStatus.LIMIT)
        assert res.nodes == res.stats.lp_solves == 1 + len(rivals)
        lo = res.incumbent_value if res.found else -np.inf
        assert lo - 1e-9 <= opt <= res.best_bound + 1e-9


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


def _relu_target(sign):
    """Maximize sign * x for x = relu(2z - 1) on [0, 1], with the output
    bounded on the far side of 0.5: x <= 0.5 for `+`, x >= 0.5 for `-`.
    Either way the optimum is x = 0.5, at z = 0.75 with the neuron active."""
    p, _ = encode_on_box(relu_net(2.0, -1.0), InputBox.unit(1))
    q = set_robustness_objective(p, 0, sign, 0.0)
    x = q.var_roles[("output", 0)]
    lo, hi = q.lo.copy(), q.hi.copy()
    (hi if sign == 1 else lo)[x] = 0.5
    return replace(q, lo=lo, hi=hi)


def test_root_point_short_of_the_output_bound_gives_no_incumbent(monkeypatch):
    # min x over x >= 0.5: the root LP sits at z = 0.5 with r = 0.5, where
    # the network's x is 0, short of the output's bound
    q = _relu_target(-1)
    capped = solve_milp(q, BnbOptions(node_limit=1))
    assert capped.status is BnbStatus.LIMIT  # the root's point is not an incumbent
    assert not capped.found and capped.best_bound == pytest.approx(-0.5, abs=1e-12)
    full = solve_milp(q)
    assert full.status is BnbStatus.CERTIFIED and full.nodes == 3
    assert full.incumbent_value == pytest.approx(-0.5, abs=1e-12)
    assert full.z.tolist() == [pytest.approx(0.75, abs=1e-12)]
    # a breakdown on the r = 0 child (infeasible) leaves it open at the
    # root's bound, which the incumbent meets; on the r = 1 child it loses
    # the only incumbent
    for child, status in ((2, BnbStatus.CERTIFIED), (3, BnbStatus.LIMIT)):
        _break_solve(monkeypatch, child)
        res = solve_milp(q)
        monkeypatch.undo()
        assert res.status is status
        assert res.best_bound == pytest.approx(-0.5, abs=1e-12)


def test_binary_fixed_by_its_bounds_stays_fixed():
    # max x = relu(2z - 1) with the neuron's binary fixed at 0: the
    # relaxation must keep r's own bounds, so the optimum is 0, not 1
    p, _ = encode_on_box(relu_net(2.0, -1.0), InputBox.unit(1))
    r = p.var_roles[("bin", 0, 0)]
    q = fixed(set_robustness_objective(p, 0, 1, 0.0), {r: 0.0})
    lo, hi = relaxed_bounds(q)
    assert lo[r] == hi[r] == 0.0
    res = solve_milp(q)
    assert res.status is BnbStatus.CERTIFIED
    assert res.incumbent_value == pytest.approx(0.0, abs=1e-12)
    assert res.best_bound == pytest.approx(0.0, abs=1e-12)


def test_an_integral_node_scores_the_network_not_the_lp(e1, monkeypatch):
    # every integral node's LP bound claims 1e-6 more than the network's
    # value at its point: the incumbent is still the network's value, and
    # the bracket keeps the integral LP bound, so a gap of 1e-6 above the
    # gap tolerance is never certified
    opts = BnbOptions(rel_gap=1e-7)  # below 1e-6 at the optima, 1.0 and 0.65
    opts_ = [solve_milp(q, opts, rivals=rivals).incumbent_value for q, rivals in _e1_problems(e1)]
    solve = PreparedLp.solve

    def optimistic(self, lo, hi, c, maximize, start=None, cutoff=None):
        sol = solve(self, lo, hi, c, maximize, start=start, cutoff=cutoff)
        if sol.status is LpStatus.OPTIMAL:
            xs = sol.x[bin_idx]
            if np.all(np.minimum(xs, 1.0 - xs) <= 1e-6):
                sol.bound += 1e-6 if maximize else -1e-6
        return sol

    monkeypatch.setattr(PreparedLp, "solve", optimistic)
    for (q, rivals), opt in zip(_e1_problems(e1), opts_):
        bin_idx = np.flatnonzero(q.binary)
        res = solve_milp(q, opts, rivals=rivals)
        assert res.found
        # the deviation of x1 from the reference, in the incumbent's sign
        found = (q, *rivals)[res.source]
        x = found.var_roles[("output", 0)]
        assert res.incumbent_value == found.c[x] * forward(e1, res.z)[0] + found.obj_offset
        assert res.best_bound == pytest.approx(opt + 1e-6, abs=1e-9)
        assert 1e-6 > max(opts.abs_gap, opts.rel_gap * abs(res.incumbent_value))
        assert res.status is BnbStatus.GAP_LIMIT


def test_a_near_zero_big_m_leaves_an_integral_node_open():
    # two active neurons both equal z, which interval bounds cannot see, so
    # the layer-2 neuron (hmax - hp) h1 - h2 + hp, at most hp < 0 and so
    # dead everywhere, gets the near-zero big-M bound hmax in front of an
    # output weight w. The output is w relu(that) + eps z: the network's
    # maximum is eps, at z = 1. The root LP takes z = 0 instead, with the
    # neuron's binary within the integrality tolerance of 1, and claims
    # w hmax > eps there, where the network reads 0: an integral node whose
    # LP value is not the network's, and whose point is not the optimum.
    hp, hmax, w, eps = -5e-7, 1e-7, 100.0, 5e-6
    net = FoldedNetwork(
        layers=(
            AffineLayer(A=[[1.0], [1.0]], c=[0.0, 0.0]),
            AffineLayer(A=[[hmax - hp, -1.0], [1.0, 0.0]], c=[hp, 0.0]),
            AffineLayer(A=[[w, eps]], c=[0.0]),
        ),
        input_dim=1,
    )
    box = InputBox.unit(1)
    lb = propagate_bounds(net, box)
    assert lb.pre_hi[1][0] == pytest.approx(hmax)
    p = set_robustness_objective(encode_network(net, lb, classify_neurons(lb), box), 0, 1, 0.0)
    root = relaxation(p)
    assert 0.0 < 1.0 - root.x[p.var_roles[("bin", 1, 0)]] < 1e-6
    assert root.objective == pytest.approx(w * hmax, rel=1e-5)
    assert forward(net, root.x[[p.var_roles[("input", 0)]]])[0] == 0.0
    opt = milp_opt(net, box, RobustnessSpec(0, 1, 0.0)).value
    assert opt == pytest.approx(eps, abs=1e-12)
    # closing the root at its network value would certify 0; it stays open
    # at its LP bound instead, an honest bracket around the optimum
    res = solve_milp(p)
    assert res.nodes == 1 and res.status is BnbStatus.GAP_LIMIT
    assert res.incumbent_value <= opt <= res.best_bound
    # and so does the query whose untightened bounds keep that big-M
    q = VerificationQuery(z_ref=[0.5], x_ref=[0.0], alpha=0.5)
    out = robustness(net, q, VerifyOptions(tighten=False)).per_output[0]
    assert out.status == "gap_limit" and out.dev_plus <= opt


@pytest.mark.parametrize("sign", [1, -1])
def test_a_point_past_its_output_bound_is_no_incumbent(monkeypatch, sign):
    # the network's outputs come out 1e-6 past the output's bound, so no
    # point that meets the bound exactly is an incumbent: the optimum is
    # never certified, and the bracket keeps the integral nodes' LP bound
    from relucert import bnb

    q = _relu_target(sign)
    opt = solve_milp(q).incumbent_value
    assert opt == pytest.approx(sign * 0.5, abs=1e-12)
    layers = bnb.forward_layers

    def past(net, Z):
        pre, post, out = layers(net, Z)
        return pre, post, out + sign * 1e-6

    monkeypatch.setattr(bnb, "forward_layers", past)
    res = solve_milp(q)
    assert res.status is not BnbStatus.CERTIFIED
    assert res.best_bound == pytest.approx(opt, abs=1e-9)  # the LP bound at the optimum
    if res.found:
        assert res.incumbent_value < opt - 1e-9


def test_the_objective_prices_only_the_network_point(e1):
    q, _ = _e1_problems(e1)[0]
    for role in (("post", 0, 0), ("input", 0)):
        c = q.c.copy()
        c[q.var_roles[role]] = 1.0
        with pytest.raises(InvalidArg, match="price"):
            solve_milp(replace(q, c=c))


def test_one_debug_record_per_node(e1, caplog):
    for q, rivals in _e1_problems(e1):
        caplog.clear()
        with caplog.at_level(logging.DEBUG, logger="relucert.bnb"):
            res = solve_milp(q, rivals=rivals)
        records = [r.getMessage() for r in caplog.records if r.getMessage().startswith("node ")]
        assert len(records) == res.nodes
        assert [int(m.split()[1]) for m in records] == list(range(res.nodes))
        actions = [m.rsplit(": ", 1)[1] for m in records]
        # a node whose LP stopped at the incumbent names its proven bound
        actions = [a.split(" (cut off at bound ")[0] for a in actions]
        assert set(actions) <= {"branch", "integral", "pruned", "infeasible"}
        assert actions[0] == "branch"  # the root takes the children's path


def test_options_validation():
    for kw in (
        dict(abs_gap=-1.0),
        dict(abs_gap="1e-8"),
        dict(rel_gap=float("nan")),
        dict(rel_gap=float("inf")),  # would certify the first incumbent
        dict(abs_gap=float("inf")),
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
# a primary problem searched together with its rivals: an output's `+`
# and `-` robustness problems, whose larger value is its worst deviation


def _pair(p, i, x_ref_i):
    """The `+` and `-` robustness problems of output `i` on base `p`."""
    return tuple(set_robustness_objective(p, i, s, x_ref_i) for s in (1, -1))


def _random_pair(seed, alpha):
    """A random network's base over a ball of radius `alpha`, and the `+`
    and `-` problems of one of its outputs on that base."""
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5, 5), unit_norm=True))
    z_ref = rng.uniform(0, 1, net.input_dim)
    i = int(rng.integers(net.num_outputs))
    base, _ = encode_on_box(net, InputBox.ball(z_ref, alpha))
    return (base, *_pair(base, i, float(forward(net, z_ref)[i])))


@settings(max_examples=4, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_joint_pair_matches_separate_searches(seed, alpha):
    _, plus, minus = _random_pair(seed, alpha)
    joint = solve_milp(plus, rivals=(minus,))
    apart = [solve_milp(plus), solve_milp(minus)]
    assert joint.status is BnbStatus.CERTIFIED and all(r.status is BnbStatus.CERTIFIED for r in apart)
    assert joint.problems == 2
    values = [r.incumbent_value for r in apart]
    assert joint.incumbent_value == pytest.approx(max(values), abs=1e-9)
    if abs(values[0] - values[1]) > 1e-9:
        assert joint.source == int(values[1] > values[0])
    assert joint.best_bound >= joint.incumbent_value - 1e-9


def test_joint_pair_both_infeasible_is_certified_absence():
    p, _ = encode_on_box(identity_net(), InputBox.unit(1))
    x = p.var_roles[("output", 0)]
    plus, minus = (fixed(q, {x: 2.0}) for q in _pair(p, 0, 0.5))  # the output is z, in [0, 1]
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
    p, _ = encode_on_box(_symmetric_net(), InputBox.unit(1))
    plus, minus = _pair(p, 0, 0.0)  # 0.5 at z = 1 and at z = 0
    assert solve_milp(plus).incumbent_value == solve_milp(minus).incumbent_value == 0.5
    for first, second in ((plus, minus), (minus, plus)):
        res = solve_milp(first, rivals=(second,))
        assert res.status is BnbStatus.CERTIFIED and res.incumbent_value == 0.5
        assert res.source == 0
        assert res.z.tolist() == [1.0 if first is plus else 0.0]


def test_joint_pair_node_limit_gives_honest_bracket():
    _, plus, minus = _random_pair(2, 0.5)
    opt = max(r.incumbent_value for r in (solve_milp(plus), solve_milp(minus)))
    full = solve_milp(plus, rivals=(minus,))
    assert full.status is BnbStatus.CERTIFIED and full.nodes > 8
    for nl in (1, 2, 4, 8):
        res = solve_milp(plus, BnbOptions(node_limit=nl), rivals=(minus,))
        assert res.nodes == max(nl, 2)  # both roots are always solved
        assert res.status in (BnbStatus.GAP_LIMIT, BnbStatus.LIMIT)
        assert res.best_bound >= opt - 1e-9  # the bound is above every value
        if res.found:
            assert res.incumbent_value <= opt + 1e-9
            assert res.gap == pytest.approx(res.best_bound - res.incumbent_value, abs=1e-12)
        else:
            assert res.gap == np.inf


def test_joint_pair_records_name_the_problem(e1, caplog):
    plus, (minus,) = _e1_problems(e1)[1]
    with caplog.at_level(logging.DEBUG, logger="relucert.bnb"):
        res = solve_milp(plus, rivals=(minus,))
    records = [r.getMessage().split() for r in caplog.records if r.getMessage().startswith("node ")]
    assert [int(m[1]) for m in records] == list(range(res.nodes))
    assert [m[2:4] for m in records[:2]] == [["problem", "0"], ["problem", "1"]]  # the roots
    assert {m[3] for m in records} == {"0", "1"}
    assert res.incumbent_value == pytest.approx(0.65, abs=1e-9) and res.source == 1


def test_rival_root_breakdown_keeps_the_primary_incumbent(e1, monkeypatch):
    # the `-` root breaks down: the `+` search still runs and its incumbent
    # stands, but the `-` side stays open at +inf, so nothing is certified
    p, _ = encode_on_box(e1, InputBox.unit(2))
    plus, minus = _pair(p, 0, 0.25)
    _break_solve(monkeypatch, 2)
    res = solve_milp(plus, rivals=(minus,))
    assert res.status is BnbStatus.GAP_LIMIT and res.gap == np.inf and res.best_bound == np.inf
    assert res.incumbent_value == pytest.approx(1.0, abs=1e-9) and res.source == 0
    assert res.stats.node_breakdowns == 1


def test_rivals_must_share_the_rows(e1):
    plus, _ = _e1_problems(e1)[0]
    (other,) = _e1_problems(e1)[1][1]  # equal rows on another base
    assert len(other.rows) == len(plus.rows) and other.rows is not plus.rows
    with pytest.raises(InvalidArg, match="rows"):
        solve_milp(plus, rivals=(other,))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_shared_start_keeps_every_pair_answer(seed, alpha):
    """Roots started from the base's optimal solve answer as cold roots do;
    only the tree may differ."""
    base, plus, minus = _random_pair(seed, alpha)
    shared = relaxation(base)
    assert shared.status is LpStatus.OPTIMAL
    warm = solve_milp(plus, root_start=shared, rivals=(minus,))
    cold = solve_milp(plus, rivals=(minus,))
    assert warm.status is cold.status and warm.found == cold.found
    if cold.found:
        assert warm.incumbent_value == pytest.approx(cold.incumbent_value, abs=1e-9)
    if warm.source != cold.source:  # only where the signs tie up to rounding
        apart = [solve_milp(q).incumbent_value for q in (plus, minus)]
        assert apart[0] == pytest.approx(apart[1], abs=1e-9)
    assert warm.stats.warm_starts == warm.nodes  # both roots too


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    alpha=st.floats(0.05, 0.5),
    above=st.booleans(),
    margin=st.floats(1e-6, 0.5),
)
def test_a_target_decides_whether_the_optimum_reaches_it(seed, alpha, above, margin):
    # a target `margin` outside the certified bracket: above it the search
    # ends with its bound below the target, below it with an incumbent that
    # reaches it, and never later than the search without a target
    _, plus, minus = _random_pair(seed, alpha)
    full = solve_milp(plus, rivals=(minus,))
    assert full.found
    target = full.best_bound + margin if above else full.incumbent_value - margin
    res = solve_milp(plus, rivals=(minus,), target=target)
    if above:
        assert res.best_bound < target and (not res.found or res.incumbent_value < target)
    else:
        assert res.found and res.incumbent_value >= target
    assert res.nodes <= full.nodes
    if res.status is BnbStatus.CERTIFIED:
        assert res.gap <= max(1e-8, 1e-6 * abs(res.incumbent_value))


def test_a_target_ends_the_search_as_soon_as_it_is_decided(e1, caplog):
    p, _ = encode_on_box(e1, InputBox.unit(2))
    plus, minus = _pair(p, 0, 0.25)  # the `+` root bounds 1.125 and finds 1.0; the `-` root 0.25
    with caplog.at_level(logging.DEBUG, logger="relucert.bnb"):
        # reached at the `+` root: the `-` root is never solved, so the
        # bound stays open and the gap is not closed
        reached = solve_milp(plus, rivals=(minus,), target=0.5)
        ends = [caplog.records[-1].getMessage()]
        # out of reach once both roots are solved, before any branch
        missed = solve_milp(plus, rivals=(minus,), target=5.0)
        ends.append(caplog.records[-1].getMessage())
    assert (reached.nodes, reached.status, reached.source) == (1, BnbStatus.GAP_LIMIT, 0)
    assert reached.incumbent_value == pytest.approx(1.0, abs=1e-9) and reached.best_bound == reached.gap == np.inf
    assert (missed.nodes, missed.status, missed.best_bound) == (2, BnbStatus.GAP_LIMIT, pytest.approx(1.125))
    assert "its incumbent at its target" in ends[0] and "its bound below its target" in ends[1]
    # without a target the search branches to close its gap
    assert solve_milp(plus, rivals=(minus,)).nodes > 2


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_the_cutoff_keeps_every_answer(seed, alpha):
    # a node LP stops only once it proves a bound strictly below what the
    # incumbent prunes, so at closed gaps a search answers as one whose LPs
    # all run to their optimum, node for node
    exact = BnbOptions(abs_gap=0, rel_gap=0)
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5, 5), unit_norm=True))
    z_ref = rng.uniform(0, 1, net.input_dim)
    p, _ = encode_on_box(net, InputBox.ball(z_ref, alpha))
    x_ref = forward(net, z_ref)
    searches = [
        ((set_robustness_objective(p, i, sign, float(x_ref[i])),), ())
        for i in range(net.num_outputs)
        for sign in (1, -1)
    ]
    searches += [((plus,), (minus,)) for plus, minus in (_pair(p, i, float(x_ref[i])) for i in range(net.num_outputs))]
    solve = PreparedLp.solve

    def uncut(self, *args, cutoff=None, **kwargs):
        return solve(self, *args, **kwargs)

    for (q,), rivals in searches:
        cut = solve_milp(q, exact, rivals=rivals)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PreparedLp, "solve", uncut)
            full = solve_milp(q, exact, rivals=rivals)
        assert full.stats.cutoffs == 0
        assert (cut.status, cut.incumbent_value, cut.source) == (full.status, full.incumbent_value, full.source)
        assert cut.nodes == full.nodes
