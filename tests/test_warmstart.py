"""Warm-started solves: a start basis must never change a verdict.

Every warm solve is compared with a cold solve of the same LP: same status,
infeasible included, and the same objective within 1e-9.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from relucert import bnb, verify
from relucert.bnb import solve_milp
from relucert.bounds import InputBox, classify_neurons, lp_tighten, propagate_bounds
from relucert.errors import InvalidArg, NumericalBreakdown
from relucert.milp import encode_network, set_robustness_objective
from relucert.nnmodel import fold_bn, forward
from relucert.simplex import (
    LpSolution,
    LpStatus,
    PreparedLp,
    SimplexOptions,
    SolveStats,
    WarmStart,
    prepare,
    relaxed_bounds,
    solve_lp,
)

from conftest import random_spec


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


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), m=st.integers(2, 30), maximize=st.booleans())
def test_dual_tableau_logical_block_is_the_inverse_basis(seed, n, m, maximize):
    # the leaving-row weights read B^-1 off the tableau's logical columns;
    # check that block at every dual pass, after plain pivot updates and
    # after refactorizations (every second pivot here)
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi = _random_lp(rng, n, m)
    senses = ["<=" if s == "=" else s for s in senses]  # equality rows would leave most children infeasible
    eng = PreparedLp(A, senses, b, SimplexOptions(refactor_every=2))
    root = eng.solve(lo, hi, c, maximize)
    lo2, hi2 = lo.copy(), hi.copy()
    for j in np.flatnonzero(rng.uniform(size=n) < 0.5):  # cut half the way to the root point's far bound
        x = root.x[j]
        if x - lo[j] > hi[j] - x:
            hi2[j] = (lo[j] + x) / 2
        else:
            lo2[j] = (hi[j] + x) / 2
    checked = []

    def check(state):
        inv = np.linalg.inv(eng.A[:, state.basis])
        np.testing.assert_allclose(state.T[:, n:], inv, rtol=0, atol=1e-9 * max(1.0, np.abs(inv).max()))
        checked.append(True)

    pivot, dual = PreparedLp._pivot, PreparedLp._dual

    def checked_pivot(self, state, r, j, new_val):
        check(state)
        pivot(self, state, r, j, new_val)

    def checked_dual(self, state, *args):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PreparedLp, "_pivot", checked_pivot)
            out = dual(self, state, *args)
        check(state)
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PreparedLp, "_dual", checked_dual)
        warm = eng.solve(lo2, hi2, c, maximize, start=root)
    assume(len(checked) >= 3)  # two pivots: one plain update, then a refactorization
    _assert_same(warm, eng.solve(lo2, hi2, c, maximize))


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
    # feas_tol, where phase 1 accepts the child
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
        assert eng.opts.feas_tol < warm.infeasibility <= cold.infeasibility + 1e-9


def test_dual_degenerate_instance_terminates():
    # zero objective: every reduced cost is zero, so every dual pivot is
    # degenerate and Bland's rule takes over after the first
    rng = np.random.default_rng(5)
    bland_runs = 0
    for _ in range(20):
        _, A, senses, b, lo, hi = _random_lp(rng, 8, 10)
        eng = PreparedLp(A, senses, b, SimplexOptions(bland_after=1))
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
    assert s.inherited == res.nodes - 1  # each child adopts its parent's tableau
    assert s.breakdowns <= s.warm_fallbacks <= s.warm_starts
    # no child needs phase 1: infeasible ones are decided by their dual ray
    assert s.phase1_pivots == solve_lp(p).phase1_pivots


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
        assert warm.stats.inherited == warm.nodes  # the root adopts the shared tableau


def test_root_start_must_fit_the_problem(e1):
    _, (p, _) = _robustness_problems(e1, [0.5, 0.5], 0.5)
    other, _ = _robustness_problems(e1, [0.5, 0.5], 0.1)  # fewer unstable neurons, fewer rows
    assert len(other.rows) != len(p.rows)
    for start in (_shared_solve(other), LpSolution(status=LpStatus.INFEASIBLE)):
        with pytest.raises(InvalidArg):
            solve_milp(p, root_start=start)


def _spy_robustness(monkeypatch, net, q):
    """Run `robustness`, recording every solve of the LP engine, each
    subproblem's `solve_milp` call, (start, solution) and (root_start,
    result), and every engine `verify` and `bnb` prepare."""
    solve, milp = PreparedLp.solve, verify.solve_milp
    solves, subproblems = [], []
    prepared = {"verify": 0, "bnb": 0}

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

    def spy_milp(p, opts=None, root_start=None):
        res = milp(p, opts, root_start)
        subproblems.append((root_start, res))
        return res

    monkeypatch.setattr(PreparedLp, "solve", spy_solve)
    monkeypatch.setattr(verify, "solve_milp", spy_milp)
    spying_prepare(verify, "verify")
    spying_prepare(bnb, "bnb")
    res = verify.robustness(net, q)
    monkeypatch.undo()
    return res, solves, subproblems, prepared


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_robustness_roots_skip_phase_1(monkeypatch, seed):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    q = verify.VerificationQuery(z_ref=[0.5, 0.5, 0.5], x_ref=[0.0, 0.0], alpha=0.3)
    res, solves, subproblems, prepared = _spy_robustness(monkeypatch, net, q)
    root_start = subproblems[0][0]
    shared = [sol for start, sol in solves if sol is root_start]
    assert len(shared) == 1 and shared[0].warm is WarmStart.NONE
    assert all(start is root_start for start, _ in subproblems)
    assert prepared == {"verify": 1, "bnb": 0}  # one engine for the whole query
    assert all(r.stats.phase1_pivots == 0 for _, r in subproblems)
    assert res.stats["phase1_pivots"] == shared[0].phase1_pivots > 0
    assert res.stats["lp_solves"] == res.stats["nodes"] + 1
    assert res.stats["warm_starts"] == res.stats["nodes"]
    assert res.stats["inherited"] == res.stats["nodes"]  # every root adopts the shared tableau


@pytest.mark.parametrize("failure", ["infeasible", "breakdown"])
def test_failed_shared_solve_leaves_every_root_cold(monkeypatch, e1, failure):
    class FailingLp:
        def solve(self, lo, hi, c, maximize, start=None):
            if failure == "breakdown":
                raise NumericalBreakdown("forced")
            return LpSolution(status=LpStatus.INFEASIBLE, infeasibility=1.0)

    q = verify.VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.5)
    clean = verify.robustness(e1, q)
    monkeypatch.setattr(verify, "prepare", lambda p: FailingLp())
    res, _, subproblems, prepared = _spy_robustness(monkeypatch, e1, q)
    assert all(start is None for start, _ in subproblems)
    assert prepared["bnb"] == len(subproblems)  # each cold search builds its own engine
    assert all(r.stats.warm_starts == r.nodes - 1 for _, r in subproblems)  # cold roots
    assert res.stats["lp_solves"] == res.stats["nodes"] + (failure == "infeasible")
    assert res.stats["nodes"] == clean.stats["nodes"] and res.certified == clean.certified
    for a, b in zip(res.per_output, clean.per_output):
        assert a.status == b.status
        assert a.dev_plus == pytest.approx(b.dev_plus, abs=1e-9)
        assert a.dev_minus == pytest.approx(b.dev_minus, abs=1e-9)


@settings(max_examples=6, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.5))
def test_inherited_tableaus_keep_every_answer(seed, alpha):
    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, unit_norm=True))
    _, problems = _robustness_problems(net, rng.uniform(0, 1, net.input_dim), alpha)
    solve = PreparedLp.solve

    def stripped(self, *args, start=None, **kwargs):
        return solve(self, *args, start=None if start is None else replace(start, tableau=None), **kwargs)

    for p in problems:
        inheriting = solve_milp(p)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PreparedLp, "solve", stripped)
            refactoring = solve_milp(p)
        assert inheriting.status is refactoring.status
        assert inheriting.incumbent_value == pytest.approx(refactoring.incumbent_value, abs=1e-9)
        assert inheriting.best_bound == pytest.approx(refactoring.best_bound, abs=1e-9)
        assert inheriting.stats.inherited == inheriting.nodes - 1
        assert refactoring.stats.inherited == 0
        assert refactoring.stats.refactors >= refactoring.nodes - 1


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
    assert child.inherited and child.refactors == 0 and child.warm is WarmStart.USED
    _assert_same(child, eng.solve(lo2, hi2, c, True))
    # the parent's tableau is copied, not updated in place
    again = eng.solve(lo2, hi2, c, True, start=root)
    assert again.inherited and again.objective == child.objective


@pytest.mark.parametrize("case", ["nonbasic bound", "other engine", "age"])
def test_tableau_failing_adoption_is_refactorized(case):
    lp, eng, root, c, lo, hi, j, k = _child_lp()
    lo2, hi2 = _fix(lo, hi, j, lo[j])
    start = root
    if case == "nonbasic bound":
        # the nonbasic structural moves with the bound it rests at
        if root.at_upper[k]:
            hi2[k] += 0.5
        else:
            lo2[k] -= 0.5
    elif case == "other engine":
        start = PreparedLp(**lp).solve(lo, hi, c, True)
    else:
        eng = PreparedLp(**lp, options=SimplexOptions(refactor_every=1))
        root = eng.solve(lo, hi, c, True)
        young = eng.solve(lo2, hi2, c, True, start=root)
        assert root.tableau.age == 0 and young.inherited
        start = replace(root, tableau=replace(root.tableau, age=1))
    child = eng.solve(lo2, hi2, c, True, start=start)
    assert not child.inherited and child.refactors >= 1
    _assert_same(child, eng.solve(lo2, hi2, c, True))
