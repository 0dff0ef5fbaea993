"""Warm-started solves: a start basis must never change a verdict.

Every warm solve is compared with a cold solve of the same LP: same status,
infeasible included, and the same objective within 1e-9.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relucert import bnb, milp, simplex, verify
from relucert.bnb import solve_milp
from relucert.bounds import InputBox, classify_neurons, propagate_bounds
from relucert.errors import InvalidArg, NumericalBreakdown
from relucert.milp import (
    encode_network,
    lp_tighten,
    prepare,
    relaxed_bounds,
    set_robustness_objective,
)
from relucert.nnmodel import fold_bn, forward, forward_layers
from relucert.simplex import (
    FEAS_TOL,
    OPT_TOL,
    Basis,
    LpSolution,
    LpStatus,
    PreparedLp,
    SolveStats,
    WarmStart,
    _reduced_costs,
    _State,
    _steepest_edge_weights,
)

from conftest import random_spec, relaxation


def _random_lp(rng, n, m):
    """Bounded LP with a known feasible point at the original bounds."""
    lo = rng.uniform(-3, 0, size=n)
    hi = lo + rng.uniform(0.5, 4, size=n)
    x0 = rng.uniform(lo, hi)
    A = rng.normal(size=(m, n))
    senses, b = [], []
    for i in range(m):
        kind = int(rng.integers(0, 3))
        v = float(A[i] @ x0)
        room = float(rng.uniform(0, 2)) if rng.uniform() > 0.2 else 0.0
        senses.append(("<=", ">=", "=")[kind])
        b.append(v + room if kind == 0 else v - room if kind == 1 else v)
    return rng.normal(size=n), A, senses, np.array(b), lo, hi


def _assert_same(warm, cold):
    assert warm.status is cold.status
    if cold.status is LpStatus.OPTIMAL:
        assert warm.objective == pytest.approx(cold.objective, abs=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 20),
    m=st.integers(1, 30),  # long dual runs too
    maximize=st.booleans(),
    new_objective=st.booleans(),
)
def test_warm_solve_matches_cold_after_bound_changes(seed, n, m, maximize, new_objective):
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    eng = PreparedLp(A, senses, b)
    first = eng.solve(lo, hi, c, maximize)
    assert first.status is LpStatus.OPTIMAL
    lo2, hi2 = lo.copy(), hi.copy()
    for j in np.flatnonzero(rng.uniform(size=n) < 0.4):
        a, z = sorted(rng.uniform(lo[j], hi[j], size=2))
        if rng.uniform() < 0.5:  # fix, as branching fixes a binary
            lo2[j] = hi2[j] = a
        else:
            lo2[j], hi2[j] = a, z
    c2 = rng.normal(size=n) if new_objective else c
    warm = eng.solve(lo2, hi2, c2, maximize, start=first)
    cold = eng.solve(lo2, hi2, c2, maximize)
    assert warm.warm is not WarmStart.NONE and cold.warm is WarmStart.NONE
    _assert_same(warm, cold)


def test_bound_change_is_reoptimized_by_dual_pivots():
    # x + y <= 1.5 with max x + y: fixing the basic variable leaves the basis
    # dual feasible, so the dual path finishes without phase 1
    eng = PreparedLp([[1.0, 1.0]], ["<="], np.array([1.5]))
    c = np.array([1.0, 2.0])
    root = eng.solve(np.zeros(2), np.ones(2), c, True)
    assert root.objective == pytest.approx(2.5)
    child = eng.solve(np.zeros(2), np.array([0.25, 1.0]), c, True, start=root)
    assert child.warm is WarmStart.USED
    assert child.phase1_pivots == 0 and child.dual_pivots >= 1
    assert child.objective == pytest.approx(2.25, abs=1e-12)


def test_dual_leaves_the_steepest_edge_row(monkeypatch):
    # 0.1 x0 + x2 = 0.05 and 10 x1 + x3 = 5 with x0, x1 basic at 0.5: the
    # inverse basis rows are (10, 0) and (0, 0.1), weights 100 and 0.01.
    # Capping x0 at 0.2 and x1 at 0.45 makes x0's row the most violated
    # (0.3 against 0.05), but x1's the steepest edge (0.05^2/0.01 = 0.25
    # against 0.3^2/100 = 9e-4)
    eng = PreparedLp([[0.1, 0.0, 1.0, 0.0], [0.0, 10.0, 0.0, 1.0]], ["=", "="], np.array([0.05, 5.0]))
    c = np.array([0.0, 0.0, -1.0, -1.0])
    lo, hi = np.zeros(4), np.full(4, 10.0)
    root = eng.solve(lo, hi, c, True)
    assert sorted(root.basis) == [0, 1]
    left = []
    pivot = PreparedLp._pivot

    def spy(self, state, r, j, new_val):
        left.append(int(state.basis[r]))
        pivot(self, state, r, j, new_val)

    monkeypatch.setattr(PreparedLp, "_pivot", spy)
    hi2 = hi.copy()
    hi2[:2] = 0.2, 0.45
    child = eng.solve(lo, hi2, c, True, start=root)
    assert child.warm is WarmStart.USED and child.dual_pivots >= 2
    assert left[0] == 1
    _assert_same(child, eng.solve(lo, hi2, c, True))


def _cut_child_bounds(rng, root, lo, hi):
    """Bounds cut half the way to the root point's far bound on about half
    the variables, which leaves the root's basis primal infeasible."""
    lo2, hi2 = lo.copy(), hi.copy()
    for j in np.flatnonzero(rng.uniform(size=lo.size) < 0.5):
        x = root.x[j]
        if x - lo[j] > hi[j] - x:
            hi2[j] = (lo[j] + x) / 2
        else:
            lo2[j] = (hi[j] + x) / 2
    return lo2, hi2


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), m=st.integers(2, 30), maximize=st.booleans())
def test_dual_tableau_is_the_inverse_basis_over_the_nonbasic_columns(seed, n, m, maximize):
    # the tableau is B^-1 A_N over the nonbasic columns, and the leaving-row
    # weights are B^-1's squared row norms; check both at every dual pass,
    # after plain pivot updates and after refactorizations (every second
    # pivot here)
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    senses = ["<=" if s == "=" else s for s in senses]  # equality rows would leave most children infeasible
    eng = PreparedLp(A, senses, b)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "REFACTOR_EVERY", 2)
        root = eng.solve(lo, hi, c, maximize)
    lo2, hi2 = _cut_child_bounds(rng, root, lo, hi)
    checked = []

    def check(state):
        np.testing.assert_array_equal(np.sort(np.concatenate((state.basis, state.nb))), np.arange(n + m))
        inv = np.linalg.inv(eng.A[:, state.basis])
        atol = 1e-9 * max(1.0, np.abs(inv).max())
        np.testing.assert_allclose(state.T, inv @ eng.A[:, state.nb], rtol=0, atol=atol)
        weights = _steepest_edge_weights(state, np.arange(m), n)
        np.testing.assert_allclose(weights, np.square(inv).sum(axis=1), rtol=1e-9, atol=atol)
        checked.append(True)

    pivot, dual = PreparedLp._pivot, PreparedLp._dual

    def checked_pivot(self, state, r, k, new_val):
        check(state)
        pivot(self, state, r, k, new_val)

    def checked_dual(self, state, *args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PreparedLp, "_pivot", checked_pivot)
            out = dual(self, state, *args)
        check(state)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "REFACTOR_EVERY", 2)
        mp.setattr(PreparedLp, "_dual", checked_dual)
        warm = eng.solve(lo2, hi2, c, maximize, start=root)
    assume(len(checked) >= 3)  # two pivots: one plain update, then a refactorization
    _assert_same(warm, eng.solve(lo2, hi2, c, maximize))


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 12),
    m=st.integers(1, 30),
    maximize=st.booleans(),
    refactor_every=st.sampled_from([2, simplex.REFACTOR_EVERY]),
)
def test_carried_reduced_costs_match_a_recomputed_row(seed, n, m, maximize, refactor_every):
    # at every pass of the primal and the dual loop the reduced costs the
    # pivots carry equal c_N - c_B B^-1 A_N recomputed from the tableau,
    # and every optimal verdict of the primal loop holds on that row
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    eng = PreparedLp(A, senses, b)
    costs = []  # the objective of each running loop, innermost last
    passes = []

    def check(state):
        if costs:
            fresh = _reduced_costs(state, costs[-1])
            np.testing.assert_allclose(state.d, fresh, rtol=0, atol=1e-9 * max(1.0, np.abs(fresh).max()))
            passes.append(True)

    def looped(loop, c_at):
        def run(self, state, *args):
            costs.append(args[c_at])
            try:
                out = loop(self, state, *args)
            finally:
                costs.pop()
            if out is None:  # the primal loop's optimum, or the dual loop's feasible basis
                fresh = _reduced_costs(state, args[c_at])
                movable = (args[c_at - 1] > args[c_at - 2])[state.nb]
                gain = np.where(state.at_upper[state.nb], -fresh, fresh)[movable]
                assert np.all(gain <= simplex.OPT_TOL)
            return out
        return run

    pivot, entering = PreparedLp._pivot, simplex._entering

    def checked_pivot(self, state, r, k, new_val):
        check(state)
        pivot(self, state, r, k, new_val)
        check(state)

    def checked_entering(state, *args):
        check(state)
        return entering(state, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(simplex, "REFACTOR_EVERY", refactor_every)
        mp.setattr(PreparedLp, "_pivot", checked_pivot)
        mp.setattr(simplex, "_entering", checked_entering)
        mp.setattr(PreparedLp, "_iterate", looped(PreparedLp._iterate, 3))
        mp.setattr(PreparedLp, "_dual", looped(PreparedLp._dual, 2))
        root = eng.solve(lo, hi, c, maximize)
        assert root.status is LpStatus.OPTIMAL
        lo2, hi2 = _cut_child_bounds(rng, root, lo, hi)
        warm = eng.solve(lo2, hi2, c, maximize, start=root)
    assert passes
    _assert_same(warm, eng.solve(lo2, hi2, c, maximize))


def test_bland_enters_the_lowest_column_not_the_lowest_position():
    # max -x0 + x1 + 2 x2 s.t. x0 + x1 + x2 <= 3 from the logical basis:
    # exchanging x0 in by hand moves the row's logical, column 3, to x0's
    # position 0, and leaves every nonbasic variable improving
    eng = PreparedLp([[1.0, 1.0, 1.0]], ["<="], np.array([3.0]))
    c = np.array([-1.0, 1.0, 2.0, 0.0])  # the structurals' costs and the logical's
    movable = np.ones(4, dtype=bool)
    state = _State(
        T=eng.A[:, :3].copy(),
        basis=np.array([3]),
        nb=np.arange(3),
        xB=np.array([3.0]),
        at_upper=np.zeros(4, dtype=bool),
        counts={},
    )
    state.d = _reduced_costs(state, c)
    eng._pivot(state, 0, 0, 3.0)
    assert list(state.basis) == [0] and list(state.nb) == [3, 1, 2]
    np.testing.assert_allclose(state.T, [[1.0, 1.0, 1.0]])
    np.testing.assert_allclose(state.d, [1.0, 2.0, 3.0])
    np.testing.assert_allclose(state.d, _reduced_costs(state, c))
    assert simplex._entering(state, movable, False) == 2  # the largest reduced cost
    assert simplex._entering(state, movable, True) == 1  # column 1, not column 3 at position 0


def test_infeasible_child_is_decided_by_the_dual_ray():
    eng = PreparedLp([[1.0, 1.0]], [">="], np.array([1.5]))
    c = np.array([1.0, 1.0])
    root = eng.solve(np.zeros(2), np.ones(2), c, True)
    child = eng.solve(np.zeros(2), np.array([0.25, 1.0]), c, True, start=root)
    assert child.status is LpStatus.INFEASIBLE
    assert child.warm is WarmStart.USED
    assert child.phase1_pivots == 0
    assert child.infeasibility == pytest.approx(0.25)  # the residual phase 1 reports


def test_weak_ray_leaves_the_verdict_to_the_cold_solve():
    # 0.01 x + y = 0.5 with x basic: the ray is y = 100, so a child that
    # misses x's bound by 1e-6 proves a row residual of only 1e-8, inside
    # FEAS_TOL, where phase 1 accepts the child
    eng = PreparedLp([[0.01, 1.0]], ["="], np.array([0.5]))
    c = np.array([-1.0, 0.0])
    root = eng.solve(np.zeros(2), np.array([20.0, 0.4]), c, True)
    assert root.objective == pytest.approx(-10.0) and list(root.basis) == [0]
    hi = np.array([10.0 - 1e-6, 0.4])
    warm = eng.solve(np.zeros(2), hi, c, True, start=root)
    cold = eng.solve(np.zeros(2), hi, c, True)
    assert cold.status is LpStatus.OPTIMAL
    assert warm.warm is WarmStart.FELL_BACK and warm.dual_pivots >= 1
    _assert_same(warm, cold)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 10), m=st.integers(1, 12), maximize=st.booleans())
def test_ray_verdicts_agree_with_phase_1(seed, n, m, maximize):
    # fix variables, largest reach first, until a >= row cannot be met
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    i = int(rng.integers(0, m))
    if senses[i] == "<=":  # the same row, written as >=
        A[i], b[i] = -A[i], -b[i]
    senses[i] = ">="
    eng = PreparedLp(A, senses, b)
    root = eng.solve(lo, hi, c, maximize)
    lo2, hi2 = lo.copy(), hi.copy()
    for j in np.argsort(-np.abs(A[i]) * (hi - lo)):
        if np.maximum(A[i] * lo2, A[i] * hi2).sum() < b[i] - 1e-3:
            break
        lo2[j] = hi2[j] = lo[j] if A[i, j] > 0 else hi[j]
    warm = eng.solve(lo2, hi2, c, maximize, start=root)
    cold = eng.solve(lo2, hi2, c, maximize)
    _assert_same(warm, cold)
    if warm.status is LpStatus.INFEASIBLE and warm.warm is WarmStart.USED:
        assert warm.phase1_pivots == 0
        # the ray's residual is a lower bound on the one phase 1 minimizes
        assert simplex.FEAS_TOL < warm.infeasibility <= cold.infeasibility + 1e-9


def test_dual_degenerate_instance_terminates(monkeypatch):
    # zero objective: every reduced cost is zero, so every dual pivot is
    # degenerate and Bland's rule takes over after the first
    monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
    rng = np.random.default_rng(5)
    bland_runs = 0
    for _ in range(20):
        _, A, senses, b, lo, hi = _random_lp(rng, 8, 10)
        eng = PreparedLp(A, senses, b)
        c = np.zeros(8)
        root = eng.solve(lo, hi, c, True)
        lo2 = lo.copy()
        lo2[:4] = hi[:4] - 0.1 * (hi[:4] - lo[:4])
        warm = eng.solve(lo2, hi, c, True, start=root)
        _assert_same(warm, eng.solve(lo2, hi, c, True))
        bland_runs += warm.dual_pivots > 2  # pivots after the first ran under Bland's rule
    assert bland_runs > 0


def test_breakdown_on_the_warm_path_returns_the_cold_result(monkeypatch):
    rng = np.random.default_rng(11)
    c, A, senses, b, lo, hi = _random_lp(rng, 6, 8)
    eng = PreparedLp(A, senses, b)
    root = eng.solve(lo, hi, c, True)
    lo2 = lo.copy()
    lo2[0] = hi[0]
    cold = eng.solve(lo2, hi, c, True)

    def broken(*args, **kwargs):
        raise NumericalBreakdown("forced")

    monkeypatch.setattr(PreparedLp, "_solve_warm", broken)
    warm = eng.solve(lo2, hi, c, True, start=root)
    assert warm.warm is WarmStart.BROKE_DOWN
    _assert_same(warm, cold)
    assert np.array_equal(warm.x, cold.x)


def test_lp_tighten_warm_sweep_matches_cold(monkeypatch):
    solve = PreparedLp.solve
    used = []

    def recording_solve(self, *args, **kwargs):
        sol = solve(self, *args, **kwargs)
        used.append(sol.warm)
        return sol

    def cold_solve(self, lo, hi, c, maximize, start=None):
        return solve(self, lo, hi, c, maximize)

    rng = np.random.default_rng(3)
    for _ in range(4):
        net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
        box = InputBox.unit(3)
        lb = propagate_bounds(net, box)
        monkeypatch.setattr(PreparedLp, "solve", recording_solve)
        warm = lp_tighten(net, box, lb)
        monkeypatch.setattr(PreparedLp, "solve", cold_solve)
        cold = lp_tighten(net, box, lb)
        for a, b in zip(warm.pre_lo + warm.pre_hi + (warm.out_lo, warm.out_hi),
                        cold.pre_lo + cold.pre_hi + (cold.out_lo, cold.out_hi)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-9)
    assert used.count(WarmStart.USED) > len(used) // 2


def test_milp_stats_count_every_node(e1):
    box = InputBox.unit(2)
    lb = propagate_bounds(e1, box)
    p = set_robustness_objective(encode_network(e1, lb, classify_neurons(lb), box), 0, 1, 0.25)
    res = solve_milp(p)
    s = res.stats
    assert s.lp_solves == res.nodes
    assert s.as_dict()["dual_per_warm"] == s.dual_pivots / s.warm_starts
    assert SolveStats().as_dict()["dual_per_warm"] == 0.0
    assert s.warm_starts == res.nodes - 1  # every node but the root
    assert s.breakdowns <= s.warm_fallbacks <= s.warm_starts
    # no child needs phase 1: infeasible ones are decided by their dual ray
    assert s.phase1_pivots == relaxation(p).phase1_pivots


def _robustness_problems(net, z_ref, alpha):
    box = InputBox.ball(z_ref, alpha)
    lb = propagate_bounds(net, box)
    base = encode_network(net, lb, classify_neurons(lb), box)
    x_ref = forward(net, np.asarray(z_ref))
    problems = [
        set_robustness_objective(base, i, sign, float(x_ref[i]))
        for i in range(net.num_outputs)
        for sign in (1, -1)
    ]
    return base, problems


def _shared_solve(base):
    """The base encoding's zero-objective solve, which robustness roots share."""
    return prepare(base).solve(*relaxed_bounds(base), np.zeros(base.num_vars), True)


@settings(max_examples=12, deadline=None)
@example(seed=130, alpha=0.5)  # a root that refactorized the shared basis took 3 nodes, against 5 cold
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_shared_root_start_keeps_every_search(seed, alpha):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, unit_norm=True))
    base, problems = _robustness_problems(net, rng.uniform(0, 1, net.input_dim), alpha)
    shared = _shared_solve(base)
    assert shared.status is LpStatus.OPTIMAL
    for p in problems:
        warm = solve_milp(p, root_start=shared)
        cold = solve_milp(p)
        assert warm.status is cold.status and warm.nodes == cold.nodes
        assert warm.incumbent_value == pytest.approx(cold.incumbent_value, abs=1e-9)
        assert warm.best_bound == pytest.approx(cold.best_bound, abs=1e-9)
        assert warm.stats.warm_starts == warm.nodes  # the root too


def test_root_start_must_fit_the_problem(e1):
    _, (p, _) = _robustness_problems(e1, [0.5, 0.5], 0.5)
    other, _ = _robustness_problems(e1, [0.5, 0.5], 0.1)  # fewer unstable neurons, fewer rows
    assert len(other.rows) != len(p.rows)
    for start in (_shared_solve(other), LpSolution(status=LpStatus.INFEASIBLE)):
        with pytest.raises(InvalidArg):
            solve_milp(p, root_start=start)


def test_root_start_must_come_from_the_problems_rows(e1):
    # another ball's base with as many rows and columns: its shared solve
    # fits the problem's shape but solves other rows, so a search started
    # from it would answer for the wrong ball
    base, (p, _) = _robustness_problems(e1, [0.5, 0.5], 0.5)
    other, _ = _robustness_problems(e1, [0.45, 0.55], 0.5)
    assert other.rows.shape == base.rows.shape and not np.array_equal(other.rows, base.rows)
    with pytest.raises(InvalidArg, match="rows"):
        solve_milp(p, root_start=_shared_solve(other))
    # an engine built from the problem's own rows array is the problem's
    own = PreparedLp(base.rows, base.senses, base.rhs).solve(*relaxed_bounds(base), np.zeros(base.num_vars), True)
    assert solve_milp(p, root_start=own).incumbent_value == solve_milp(p, root_start=_shared_solve(base)).incumbent_value


def _basic_point(eng, start, lo, hi):
    """Every column's value at a basis start: the nonbasic ones at their
    flagged bounds, where those are finite, the basic ones `B^-1 (b - A_N
    x_N)`, and the bounds they are held to."""
    full_lo = np.concatenate((lo, np.zeros(eng.m)))
    full_hi = np.concatenate((hi, eng.logical_hi))
    x = np.where(start.at_upper & np.isfinite(full_hi), full_hi, full_lo)
    x[start.basis] = 0.0
    x[start.basis] = np.linalg.solve(eng.A[:, start.basis], eng.b - eng.A @ x)
    return x, full_lo, full_hi


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5), tighten=st.booleans())
def test_network_vertex_is_the_networks_point_at_the_lower_corner(seed, alpha, tighten):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, unit_norm=True))
    box = InputBox.ball(rng.uniform(0, 1, net.input_dim), alpha)
    lb = propagate_bounds(net, box)
    if tighten:
        lb = lp_tighten(net, box, lb)
    base = encode_network(net, lb, classify_neurons(lb), box)
    eng = prepare(base)
    lo, hi = relaxed_bounds(base)
    vertex = base.vertex
    x, full_lo, full_hi = _basic_point(eng, vertex, lo, hi)
    assert np.all(x >= full_lo - FEAS_TOL) and np.all(x <= full_hi + FEAS_TOL)
    roles = base.var_roles
    _, post, out = forward_layers(net, box.lo[None, :])
    assert x[[roles[("input", j)] for j in range(net.input_dim)]].tolist() == box.lo.tolist()
    for k, h in enumerate(post):
        np.testing.assert_allclose(x[[roles[("post", k, t)] for t in range(h.shape[1])]], h[0], atol=1e-9)
    np.testing.assert_allclose(x[[roles[("output", i)] for i in range(net.num_outputs)]], out[0], atol=1e-9)
    # the base's zero-objective solve from it takes one pricing pass, no phase 1
    sol = eng.solve(lo, hi, base.c, True, start=vertex)
    assert sol.status is LpStatus.OPTIMAL and sol.warm is WarmStart.USED
    assert (sol.phase1_pivots, sol.phase2_pivots, sol.refactors) == (0, 1, 1)
    np.testing.assert_allclose(sol.x, np.clip(x[: base.num_vars], lo, hi), rtol=0, atol=1e-12)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_searches_from_the_network_vertex_answer_as_cold_ones(seed, alpha):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, unit_norm=True))
    base, problems = _robustness_problems(net, rng.uniform(0, 1, net.input_dim), alpha)
    stats = SolveStats()
    shared = bnb.shared_root_start(base, stats)
    assert shared.warm is WarmStart.USED and stats.phase1_pivots == 0
    for p in problems:
        warm = solve_milp(p, root_start=shared)
        cold = solve_milp(p)
        assert warm.status is cold.status
        assert warm.incumbent_value == pytest.approx(cold.incumbent_value, abs=1e-9)
        assert warm.best_bound == pytest.approx(cold.best_bound, abs=1e-9)
        assert warm.stats.phase1_pivots == 0


def test_a_basis_start_must_fit_the_lp():
    rng = np.random.default_rng(0)
    c, A, senses, b, lo, hi = _random_lp(rng, 4, 3)
    eng = PreparedLp(A, senses, b)
    flags = np.zeros(7, dtype=bool)
    for basis, at_upper in (
        ([4, 5], flags),  # too few columns
        ([4, 5, 6], flags[:6]),  # a flag short
        ([4, 4, 5], flags),  # a column twice
        ([4, 5, 7], flags),  # past the last column
        ([-1, 4, 5], flags),
        ([4.0, 5.0, 6.0], flags),  # not column indices
    ):
        with pytest.raises(InvalidArg):
            eng.solve(lo, hi, c, True, start=Basis(np.array(basis), at_upper))
    sol = eng.solve(lo, hi, c, True, start=Basis(np.arange(4, 7), flags))  # the logical basis fits
    _assert_same(sol, eng.solve(lo, hi, c, True))


def _dual_feasible(eng, start, c, maximize, full_lo, full_hi) -> bool:
    """Whether no nonbasic column of a basis start, moved off its flagged
    bound, improves the maximized objective by `OPT_TOL`: its reduced costs
    `c - c_B B^-1 A`, zero at the basic columns, with the flags a solve
    keeps (none at a basic column or one without a finite upper bound)."""
    cost = np.concatenate((c if maximize else -c, np.zeros(eng.m)))
    d = cost - np.linalg.solve(eng.A[:, start.basis].T, cost[start.basis]) @ eng.A
    gain = np.where(start.at_upper & np.isfinite(full_hi), -d, d)
    gain[start.basis] = 0.0
    gain[full_hi <= full_lo] = 0.0  # a fixed column cannot move
    return bool(gain.max() <= OPT_TOL)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 16), maximize=st.booleans())
def test_a_basis_start_answers_as_the_cold_solve(seed, n, m, maximize):
    # a random basis: a singular one breaks down, a primal feasible one runs
    # phase 2 alone, a dual feasible one runs the dual simplex, and one that
    # is neither falls back; every way, the cold solve's answer comes back
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    eng = PreparedLp(A, senses, b)
    start = Basis(rng.permutation(n + m)[:m], rng.uniform(size=n + m) < 0.5)
    sol = eng.solve(lo, hi, c, maximize, start=start)
    _assert_same(sol, eng.solve(lo, hi, c, maximize))
    try:
        x, full_lo, full_hi = _basic_point(eng, start, lo, hi)
    except np.linalg.LinAlgError:
        assert sol.warm is WarmStart.BROKE_DOWN
        return
    primal = bool(np.all(x >= full_lo - FEAS_TOL) & np.all(x <= full_hi + FEAS_TOL))
    dual = not primal and _dual_feasible(eng, start, c, maximize, full_lo, full_hi)
    assert sol.warm is (WarmStart.USED if primal or dual else WarmStart.FELL_BACK)
    if primal or dual:
        assert sol.phase1_pivots == 0
    if dual:
        assert sol.dual_pivots > 0


def _spy_query(monkeypatch, run, net, q):
    """Run `run` (`robustness` or `trustworthiness`), recording every solve
    of the LP engine, (start, solution), each `solve_milp` call,
    (root_start, result), and every engine `bnb` prepares, for the shared
    root start or for a search, and `lp_tighten` prepares."""
    solve, search = PreparedLp.solve, verify.solve_milp
    solves, subproblems = [], []
    prepared = {"bnb": 0, "tighten": 0}

    def spying_prepare(module, name):
        prepare = module.prepare

        def spy(p):
            prepared[name] += 1
            return prepare(p)

        monkeypatch.setattr(module, "prepare", spy)

    def spy_solve(self, *args, start=None, **kwargs):
        sol = solve(self, *args, start=start, **kwargs)
        solves.append((start, sol))
        return sol

    def spy_milp(p, opts=None, root_start=None, **kwargs):
        res = search(p, opts, root_start, **kwargs)
        subproblems.append((root_start, res))
        return res

    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    monkeypatch.setattr(verify, "solve_milp", spy_milp)
    spying_prepare(bnb, "bnb")
    spying_prepare(milp, "tighten")
    res = run(net, q)
    monkeypatch.undo()
    return res, solves, subproblems, prepared


def _open_layers(net, box):
    """The hidden layers past the first that interval propagation over
    `box` leaves an open neuron in: `lp_tighten` builds one engine each."""
    lb = propagate_bounds(net, box)
    return sum(bool(np.any((lo < 0.0) & (hi > 0.0))) for lo, hi in zip(lb.pre_lo[1:], lb.pre_hi[1:]))


def _no_phase_1(res, solves):
    """Whether no solve of a query ran phase 1: none of its searches, its
    shared solves or its tightening."""
    return (
        res.stats["phase1_pivots"] == res.stats["tighten"]["phase1_pivots"] == 0
        and all(sol.phase1_pivots == 0 for _, sol in solves)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_robustness_roots_skip_phase_1(monkeypatch, seed):
    """The query's one shared solve starts from the network's vertex, and
    every root from that solve, so no solve of the query runs phase 1."""
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    q = verify.VerificationQuery(z_ref=[0.5, 0.5, 0.5], x_ref=[0.0, 0.0], alpha=0.3)
    box = InputBox.ball(q.z_ref, q.alpha)
    res, solves, subproblems, prepared = _spy_query(monkeypatch, verify.robustness, net, q)
    root_start = subproblems[0][0]
    shared = [(start, sol) for start, sol in solves if sol is root_start]
    assert len(shared) == 1 and isinstance(shared[0][0], Basis) and shared[0][1].warm is WarmStart.USED
    assert all(start is root_start for start, _ in subproblems)
    # one engine for the whole search, and one per tightened layer
    assert prepared == {"bnb": 1, "tighten": _open_layers(net, box)}
    assert _no_phase_1(res, solves)
    assert res.stats["lp_solves"] == res.stats["nodes"] + 1
    assert res.stats["warm_starts"] == res.stats["nodes"] + 1  # every root and the shared solve too


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_trust_roots_skip_phase_1(monkeypatch, seed):
    """Each ball a trust search steps to gets one engine and one solve of
    its base, from the network's vertex; both signs of the output search on
    that engine, and the roots start from that solve, so no solve of the
    query runs phase 1. Every output's first step searches the cap's ball,
    whose engine and solve the query builds once."""
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    q = verify.VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), beta=0.2)
    box = InputBox.unit(3)
    res, solves, subproblems, prepared = _spy_query(monkeypatch, verify.trustworthiness, net, q)
    counts = [b["steps"] for b in res.stats["radius_search"]]
    steps = sum(counts)
    assert len(subproblems) == steps and res.stats["subproblems"] == 2 * steps
    assert all(n >= 2 for n in counts)
    firsts = np.cumsum([0, *counts[:-1]])  # each output's first step, at the cap
    starts = [start for start, _ in subproblems]
    assert all(starts[j] is starts[0] for j in firsts)
    balls = steps - len(firsts) + 1
    distinct = {id(start): start for start in starts}.values()
    assert len(distinct) == balls  # one start for each ball
    shared = [[(vertex, sol) for vertex, sol in solves if sol is start] for start in distinct]
    assert all(len(s) == 1 and isinstance(s[0][0], Basis) and s[0][1].warm is WarmStart.USED for s in shared)
    # one engine for each ball's searches, and one per tightened layer of the unit box
    assert prepared == {"bnb": balls, "tighten": _open_layers(net, box)}
    assert _no_phase_1(res, solves)
    assert res.stats["lp_solves"] == res.stats["nodes"] + balls
    assert res.stats["warm_starts"] == res.stats["nodes"] + balls  # every root and shared solve too
    assert res.certified


def _staged_checks(monkeypatch, run, net, q):
    """Run `run` on `q`, labelling every `Basis` check and every LP solve
    with the query stage that made it: "tighten" (`lp_tighten`), "shared"
    (`shared_root_start`) or "search" (`solve_milp`). Returns the result,
    the checks' labels, (label, start, solution) per solve and the number
    of engines `lp_tighten` built, one per cut."""
    stage, checks, solves, cuts = [None], [], [], [0]

    def staged(owner, name, label):
        fn = getattr(owner, name)

        def run_staged(*args, **kwargs):
            stage.append(label)
            try:
                return fn(*args, **kwargs)
            finally:
                stage.pop()

        monkeypatch.setattr(owner, name, run_staged)

    staged(verify, "lp_tighten", "tighten")
    staged(verify, "shared_root_start", "shared")
    staged(verify, "solve_milp", "search")
    check, solve, prepare_cut = PreparedLp._checked, PreparedLp.solve, milp.prepare

    def spy_check(self, *args):
        checks.append(stage[-1])
        return check(self, *args)

    def spy_solve(self, *args, start=None, **kwargs):
        sol = solve(self, *args, start=start, **kwargs)
        solves.append((stage[-1], start, sol))
        return sol

    def spy_prepare(p):
        cuts[0] += 1
        return prepare_cut(p)

    monkeypatch.setattr(PreparedLp, "_checked", spy_check)
    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    monkeypatch.setattr(milp, "prepare", spy_prepare)
    res = run(net, q)
    monkeypatch.undo()
    return res, checks, solves, cuts[0]


@pytest.mark.parametrize("kind", ["robustness", "trust"])
def test_a_basis_is_checked_once_per_encoding_and_never_per_node(monkeypatch, kind):
    """A `Basis` is checked and factorized once for each solved base, in
    its shared root solve, and once for each tightening cut, for the cut's
    first LP; every other start is a solution the engine adopts unchecked.
    No B&B node starts from a `Basis`, and a node's solve refactorizes only
    once its inherited tableau reaches `REFACTOR_EVERY` pivots."""
    rng = np.random.default_rng(0)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    if kind == "robustness":
        run, q = verify.robustness, verify.VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), alpha=0.3)
    else:
        run, q = verify.trustworthiness, verify.VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), beta=0.2)
    res, checks, solves, cuts = _staged_checks(monkeypatch, run, net, q)
    shared = [(start, sol) for stage, start, sol in solves if stage == "shared"]
    assert shared and cuts  # the query solves a base and tightens a cut
    assert all(isinstance(start, Basis) and sol.refactors == 1 for start, sol in shared)
    assert checks.count("shared") == len(shared)
    assert checks.count("tighten") == cuts
    assert len(checks) == len(shared) + cuts  # none in a search
    search = [(start, sol) for stage, start, sol in solves if stage == "search"]
    roots = {id(sol) for _, sol in shared}
    assert any(start is not None and id(start) not in roots for start, _ in search)  # a child
    assert not any(isinstance(start, Basis) for start, _ in search)
    for start, sol in search:
        if start is not None and sol.refactors:
            assert start.tableau.age + sol.iterations >= simplex.REFACTOR_EVERY
    assert res.certified


def _failing_shared_prepare(failure):
    """A `prepare` whose engines for a base, the zero-objective problem a
    shared root start solves, fail every solve as `failure` says; every
    engine for a search's own problem, a cold search's, is a real one."""

    class FailingLp:
        def solve(self, lo, hi, c, maximize, start=None):
            if failure == "breakdown":
                raise NumericalBreakdown("forced")
            return LpSolution(status=LpStatus.INFEASIBLE, infeasibility=1.0)

    def failing(p):
        return prepare(p) if p.c.any() else FailingLp()

    return failing


@pytest.mark.parametrize("failure", ["infeasible", "breakdown"])
def test_failed_shared_solve_leaves_every_root_cold(monkeypatch, e1, failure):
    q = verify.VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.5)
    clean = verify.robustness(e1, q)
    monkeypatch.setattr(bnb, "prepare", _failing_shared_prepare(failure))
    res, _, subproblems, prepared = _spy_query(monkeypatch, verify.robustness, e1, q)
    assert all(start is None for start, _ in subproblems)
    assert prepared["bnb"] == 1 + len(subproblems)  # the shared start's, then each cold search's own
    assert all(r.stats.warm_starts == r.nodes - 1 for _, r in subproblems)  # cold roots
    assert res.stats["lp_solves"] == res.stats["nodes"] + (failure == "infeasible")
    assert res.stats["nodes"] == clean.stats["nodes"] and res.certified == clean.certified
    for a, b in zip(res.per_output, clean.per_output):
        assert a.status == b.status
        assert a.dev_plus == pytest.approx(b.dev_plus, abs=1e-9)
        assert a.dev_minus == pytest.approx(b.dev_minus, abs=1e-9)


@pytest.mark.parametrize("failure", ["infeasible", "breakdown"])
def test_failed_trust_shared_solve_leaves_every_root_cold(monkeypatch, e1, failure):
    q = verify.VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.15)
    clean = verify.trustworthiness(e1, q)
    monkeypatch.setattr(bnb, "prepare", _failing_shared_prepare(failure))
    res, _, subproblems, prepared = _spy_query(monkeypatch, verify.trustworthiness, e1, q)
    steps = len(subproblems)
    assert all(start is None for start, _ in subproblems)
    assert prepared["bnb"] == 2 * steps  # each step's shared start's, then its cold search's own
    # cold roots: both, unless the first reaches beta and ends the step
    assert all(r.stats.warm_starts == r.nodes - min(r.nodes, 2) for _, r in subproblems)
    assert res.stats["lp_solves"] == res.stats["nodes"] + steps * (failure == "infeasible")
    assert res.certified == clean.certified  # the trees may differ from the shared start's
    for a, b in zip(res.per_output, clean.per_output):
        assert (a.status, a.found, a.sign) == (b.status, b.found, b.sign)
        assert a.delta_min == pytest.approx(b.delta_min, abs=1e-9)


def _refactorized(start):
    """`start` with its tableau and basic values recomputed from the
    engine's data, at the nonbasic values its basic values hold for."""
    tab = start.tableau
    eng = tab.engine
    B = eng.A[:, start.basis]
    T = np.linalg.solve(B, eng.A[:, tab.nb])
    xB = np.linalg.solve(B, eng.b - eng.A @ tab.x_nb)
    return replace(start, tableau=replace(tab, T=T, xB=xB, age=0))


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_inherited_tableaus_keep_every_answer(seed, alpha):
    # each child adopts its parent's tableau as the pivots left it; a search
    # whose every start carries a freshly refactorized one answers the same
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, unit_norm=True))
    _, problems = _robustness_problems(net, rng.uniform(0, 1, net.input_dim), alpha)
    solve = PreparedLp.solve
    refreshed = []

    def refreshing(self, *args, start=None, **kwargs):
        if start is not None:
            start = _refactorized(start)
            refreshed.append(start)
        return solve(self, *args, start=start, **kwargs)

    for p in problems:
        inheriting = solve_milp(p)
        refreshed.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PreparedLp, "solve", refreshing)
            refactoring = solve_milp(p)
        assert inheriting.status is refactoring.status
        assert inheriting.incumbent_value == pytest.approx(refactoring.incumbent_value, abs=1e-9)
        assert inheriting.best_bound == pytest.approx(refactoring.best_bound, abs=1e-9)
        assert len(refreshed) == refactoring.stats.warm_starts == refactoring.nodes - 1


def _child_lp():
    """A random LP's optimum, with a basic and a movable nonbasic structural."""
    rng = np.random.default_rng(5)
    c, A, senses, b, lo, hi = _random_lp(rng, 8, 4)
    lp = dict(A=A, senses=senses, b=b)
    eng = PreparedLp(**lp)
    root = eng.solve(lo, hi, c, True)
    assert root.status is LpStatus.OPTIMAL
    basic = [j for j in root.basis if j < 8 and lo[j] < root.x[j] < hi[j]]
    nonbasic = [j for j in range(8) if j not in root.basis]
    assert basic and nonbasic
    return lp, eng, root, c, lo, hi, basic[0], nonbasic[0]


def _fix(lo, hi, j, v):
    lo, hi = lo.copy(), hi.copy()
    lo[j] = hi[j] = v
    return lo, hi


def test_child_adopts_its_parents_tableau():
    _, eng, root, c, lo, hi, j, _ = _child_lp()
    lo2, hi2 = _fix(lo, hi, j, lo[j])
    child = eng.solve(lo2, hi2, c, True, start=root)
    assert child.refactors == 0 and child.warm is WarmStart.USED
    _assert_same(child, eng.solve(lo2, hi2, c, True))
    # the parent's tableau is copied, not updated in place
    again = eng.solve(lo2, hi2, c, True, start=root)
    assert again.objective == child.objective


def test_an_optimal_solve_reads_its_point_without_a_factorization(monkeypatch):
    # the point comes off the basic values the pivots carried; a warm child
    # with no refactorization due solves no linear system at all
    _, eng, root, c, lo, hi, j, _ = _child_lp()
    lo2, hi2 = _fix(lo, hi, j, lo[j])
    calls = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *args: calls.append(args) or solve(*args))
    child = eng.solve(lo2, hi2, c, True, start=root)
    assert child.status is LpStatus.OPTIMAL and child.dual_pivots > 0
    assert child.refactors == 0 and calls == []
    x_full = np.concatenate((child.x, np.zeros(eng.m)))
    x_full[child.basis] = child.tableau.xB  # the carried values are the point's
    assert np.array_equal(np.clip(x_full[: eng.n], lo2, hi2), child.x)


def test_a_point_off_its_rows_is_refactorized():
    # basic values carried 1e-6 off the rows, past FEAS_TOL: the residual
    # guard refactorizes, and the point is the one the original data give
    _, eng, root, c, lo, hi, j, _ = _child_lp()
    tab = root.tableau
    r = next(r for r, k in enumerate(root.basis) if k < eng.n and lo[k] + 1e-3 < root.x[k] < hi[k] - 1e-3)
    xB = tab.xB.copy()
    xB[r] += 1e-6
    again = eng.solve(lo, hi, c, True, start=replace(root, tableau=replace(tab, xB=xB)))
    assert again.status is LpStatus.OPTIMAL and again.iterations == 1  # one pricing pass, no pivot
    assert again.refactors == 1 and again.tableau.age == 0
    np.testing.assert_allclose(again.x, root.x, rtol=0, atol=1e-12)
    assert again.bound == pytest.approx(root.bound, abs=1e-12)


def _same_solve(a, b):
    """Two solves that took the same path to the same point."""
    assert a.status is b.status is LpStatus.OPTIMAL
    assert np.array_equal(a.x, b.x) and a.objective == b.objective and a.bound == b.bound
    assert (a.phase1_pivots, a.phase2_pivots, a.dual_pivots) == (b.phase1_pivots, b.phase2_pivots, b.dual_pivots)


@pytest.mark.parametrize("maximize", [True, False])
def test_a_cutoff_stops_only_a_child_that_cannot_reach_it(maximize):
    # children that fix a fractional basic structural at either bound: a
    # cutoff the child's optimum beats changes nothing; one its parent's own
    # bound falls short of ends the solve CUTOFF with a bound that falls
    # short too and still holds over the child's cold optimum; one between
    # the two does one or the other
    mult = 1.0 if maximize else -1.0
    rng = np.random.default_rng(8)
    cut, tried = 0, 0
    while tried < 40:
        c, A, senses, b, lo, hi = _random_lp(rng, int(rng.integers(2, 10)), int(rng.integers(2, 12)))
        eng = PreparedLp(A, senses, b)
        root = eng.solve(lo, hi, c, maximize)
        basic = [j for j in root.basis if j < eng.n and lo[j] + 1e-6 < root.x[j] < hi[j] - 1e-6]
        if not basic:
            continue
        for v in (lo[basic[0]], hi[basic[0]]):
            lo2, hi2 = _fix(lo, hi, basic[0], v)
            cold = eng.solve(lo2, hi2, c, maximize)
            plain = eng.solve(lo2, hi2, c, maximize, start=root)
            if cold.status is not LpStatus.OPTIMAL or plain.warm is not WarmStart.USED:
                continue
            tried += 1
            opt = cold.bound
            _same_solve(eng.solve(lo2, hi2, c, maximize, start=root, cutoff=opt - mult * 1e-3), plain)

            beyond = root.bound + mult * 1e-3
            stopped = eng.solve(lo2, hi2, c, maximize, start=root, cutoff=beyond)
            assert stopped.status is LpStatus.CUTOFF and stopped.x is None
            assert mult * stopped.bound < mult * beyond
            assert mult * stopped.bound >= mult * opt - 1e-9

            between = 0.5 * (opt + root.bound)
            if mult * (root.bound - opt) < 1e-6:
                continue
            sol = eng.solve(lo2, hi2, c, maximize, start=root, cutoff=between)
            if sol.status is LpStatus.CUTOFF:
                cut += 1
                assert mult * opt - 1e-9 <= mult * sol.bound < mult * between
                assert sol.dual_pivots <= plain.dual_pivots
            else:
                _same_solve(sol, plain)
    assert cut > 0


@pytest.mark.parametrize("at_upper", [False, True])
def test_moved_nonbasic_bound_is_adopted(at_upper):
    # the nonbasic structural moves with the bound it rests at; the child
    # adopts the tableau all the same and shifts the basic values
    _, eng, root, c, lo, hi, j, _ = _child_lp()
    k = next(k for k in range(eng.n) if k not in root.basis and root.at_upper[k] == at_upper)
    lo2, hi2 = _fix(lo, hi, j, lo[j])
    if at_upper:
        hi2[k] += 0.5
    else:
        lo2[k] -= 0.5
    child = eng.solve(lo2, hi2, c, True, start=root)
    assert child.refactors == 0 and child.warm is WarmStart.USED
    _assert_same(child, eng.solve(lo2, hi2, c, True))


def test_start_from_another_engine_is_invalid():
    lp, eng, root, c, lo, hi, j, _ = _child_lp()
    lo2, hi2 = _fix(lo, hi, j, lo[j])
    other = PreparedLp(**lp).solve(lo, hi, c, True)  # equal rows, another engine
    for start in (other, replace(root, tableau=None)):
        with pytest.raises(InvalidArg):
            eng.solve(lo2, hi2, c, True, start=start)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 12), m=st.integers(1, 20), maximize=st.booleans())
def test_shifted_basic_values_are_the_refactorized_ones(seed, n, m, maximize):
    # move the bounds of the nonbasic structurals only: the adopted basic
    # values, before any pivot, are B^-1 (b - A_N x_N) at the new resting
    # values, and the solve agrees with a cold one
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    eng = PreparedLp(A, senses, b)
    root = eng.solve(lo, hi, c, maximize)
    assert root.status is LpStatus.OPTIMAL
    lo2, hi2 = lo.copy(), hi.copy()
    moved = [k for k in range(n) if k not in root.basis and rng.uniform() < 0.7]
    assume(moved)
    for k in moved:
        lo2[k] -= rng.uniform(0, 1)
        hi2[k] += rng.uniform(0, 1)
    seen = []
    dual, iterate = PreparedLp._dual, PreparedLp._iterate

    def check(state, full_lo, full_hi):
        if not seen:
            x_nb = simplex._resting(state, full_lo, full_hi)
            fresh = np.linalg.solve(eng.A[:, state.basis], eng.b - eng.A @ x_nb)
            np.testing.assert_allclose(state.xB, fresh, rtol=0, atol=1e-9 * max(1.0, np.abs(fresh).max()))
        seen.append(True)

    def checked_dual(self, state, full_lo, full_hi, *args):
        check(state, full_lo, full_hi)
        return dual(self, state, full_lo, full_hi, *args)

    def checked_iterate(self, state, A, full_lo, full_hi, *args):
        if A is eng.A:  # not a cold phase 1's matrix
            check(state, full_lo, full_hi)
        return iterate(self, state, A, full_lo, full_hi, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreparedLp, "_dual", checked_dual)
        mp.setattr(PreparedLp, "_iterate", checked_iterate)
        warm = eng.solve(lo2, hi2, c, maximize, start=root)
    assert seen and warm.warm is not WarmStart.NONE
    _assert_same(warm, eng.solve(lo2, hi2, c, maximize))
