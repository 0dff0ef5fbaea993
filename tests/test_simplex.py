from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from relucert.errors import InvalidArg, NumericalBreakdown
from relucert import simplex
from relucert.simplex import LpStatus, PreparedLp, WarmStart, row_duals


def scipy_solve(c, maximize, A, senses, b, lo, hi):
    """Reference solve of the same LP with an unrelated implementation."""
    A = np.asarray(A, dtype=float).reshape(len(senses), -1)
    A_ub, b_ub, A_eq, b_eq = [], [], [], []
    for row, s, rhs in zip(A, senses, b):
        if s == "<=":
            A_ub.append(row)
            b_ub.append(rhs)
        elif s == ">=":
            A_ub.append(-row)
            b_ub.append(-rhs)
        else:
            A_eq.append(row)
            b_eq.append(rhs)
    res = linprog(
        -np.asarray(c) if maximize else np.asarray(c),
        A_ub=np.array(A_ub) if A_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(A_eq) if A_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=list(zip(lo, hi)),
        method="highs",
    )
    return res


def test_one_variable_lp():
    sol = PreparedLp([[1.0]], ["<="], [0.7]).solve([0.0], [1.0], [1.0], True)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(0.7, abs=1e-9)
    assert sol.objective == pytest.approx(0.7, abs=1e-9)


def test_contradictory_rows_infeasible():
    sol = PreparedLp([[1.0], [1.0]], [">=", "<="], [1.0, 0.0]).solve([-5.0], [5.0], [1.0], True)
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasibility > 0.5


def test_equality_row():
    sol = PreparedLp([[1.0, 1.0]], ["="], [1.0]).solve([0.0, 0.0], [1.0, 1.0], [1.0, 0.0], True)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-9)


def test_minimize_sense():
    sol = PreparedLp([[1.0, 1.0]], [">="], [1.0]).solve([0.0, 0.0], [2.0, 2.0], [2.0, 1.0], False)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)  # y=1, x=0


def test_no_rows_picks_bounds():
    sol = PreparedLp(np.zeros((0, 2)), [], []).solve([-3.0, -1.0], [5.0, 2.0], [-1.0, 3.0], True)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == -3.0 and sol.x[1] == 2.0
    assert sol.objective == pytest.approx(9.0, abs=0)


def test_negative_lower_bounds():
    # optimum sits at a mixed bound corner, away from the origin
    sol = PreparedLp([[1.0, 1.0]], ["<="], [0.0]).solve([-2.0, -2.0], [2.0, 2.0], [1.0, -1.0], True)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(4.0, abs=1e-9)  # x=2, y=-2


def _random_feasible_lp(rng, n=None, m=None):
    n = n or int(rng.integers(1, 9))
    m = m or int(rng.integers(1, 13))
    lo = rng.uniform(-3, 0, size=n)
    hi = lo + rng.uniform(0.5, 4, size=n)
    x0 = rng.uniform(lo, hi)
    A = rng.normal(size=(m, n))
    senses, b = [], []
    for i in range(m):
        kind = rng.integers(0, 3)
        slackv = float(rng.uniform(0, 2)) if rng.uniform() > 0.2 else 0.0
        v = float(A[i] @ x0)
        if kind == 0:
            senses.append("<=")
            b.append(v + slackv)
        elif kind == 1:
            senses.append(">=")
            b.append(v - slackv)
        else:
            senses.append("=")
            b.append(v)
    c = rng.normal(size=n)
    return c, A, senses, np.array(b), lo, hi, x0


def test_random_lps_match_reference():
    rng = np.random.default_rng(100)
    for trial in range(40):
        c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng)
        maximize = bool(rng.integers(0, 2))
        sol = PreparedLp(A, senses, b).solve(lo, hi, c, maximize)
        ref = scipy_solve(c, maximize, A, senses, b, lo, hi)
        assert sol.status is LpStatus.OPTIMAL, f"trial {trial}"
        ref_val = -ref.fun if maximize else ref.fun
        assert sol.objective == pytest.approx(ref_val, abs=2e-6), f"trial {trial}"
        # returned point satisfies every row within tolerance
        for row, s, rhs in zip(A, senses, b):
            v = float(row @ sol.x)
            if s == "<=":
                assert v <= rhs + 1e-6
            elif s == ">=":
                assert v >= rhs - 1e-6
            else:
                assert v == pytest.approx(rhs, abs=1e-6)


def test_weak_duality_against_sampled_points():
    rng = np.random.default_rng(7)
    for _ in range(12):
        c, A, senses, b, lo, hi, x0 = _random_feasible_lp(rng, m=int(rng.integers(1, 6)))
        eq_free = all(s != "=" for s in senses)
        sol = PreparedLp(A, senses, b).solve(lo, hi, c, True)
        assert sol.status is LpStatus.OPTIMAL
        assert float(c @ x0) <= sol.objective + 1e-6
        if not eq_free:
            continue
        for _ in range(200):
            z = rng.uniform(lo, hi)
            ok = all(
                (row @ z <= rhs + 1e-12) if s == "<=" else (row @ z >= rhs - 1e-12)
                for row, s, rhs in zip(A, senses, b)
            )
            if ok:
                assert float(c @ z) <= sol.objective + 1e-6


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), maximize=st.booleans())
def test_row_duals_are_the_basis_duals(seed, maximize):
    # a cold solve, and a warm one after one variable is fixed at a bound
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng)
    eng = PreparedLp(A, senses, b)
    root = eng.solve(lo, hi, c, maximize)
    assert root.status is LpStatus.OPTIMAL
    j = int(rng.integers(0, len(c)))
    lo2, hi2 = lo.copy(), hi.copy()
    lo2[j] = hi2[j] = hi[j] if rng.integers(0, 2) else lo[j]
    sols = [root, eng.solve(lo2, hi2, c, maximize, start=root)]
    for sol, (l, h) in zip(sols, ((lo, hi), (lo2, hi2))):
        if sol.status is not LpStatus.OPTIMAL:
            continue
        c2 = np.zeros(eng.ncols)
        c2[: eng.n] = c if maximize else -c
        y = row_duals(sol)
        # random bases can be ill conditioned, with duals in the thousands,
        # so the 1e-9 is relative to the duals' scale
        ref = np.linalg.solve(eng.A[:, sol.basis].T, c2[sol.basis])
        assert y == pytest.approx(ref, abs=1e-9 * max(1.0, np.abs(ref).max()))
        # dual feasible: no nonbasic column that can move improves the objective
        d = c2 - y @ eng.A
        movable = np.concatenate((h > l, eng.logical_hi > 0))
        movable[sol.basis] = False
        gain = np.where(sol.at_upper, -d, d)[movable]
        assert np.all(gain <= simplex.OPT_TOL)


def test_infeasible_instances_detected():
    rng = np.random.default_rng(9)
    for _ in range(10):
        n = int(rng.integers(1, 6))
        lo, hi = np.zeros(n), np.ones(n)
        a = np.abs(rng.normal(size=n)) + 0.1
        # demand more than the box can deliver
        A = [a, a]
        senses = [">=", "<="]
        b = [float(a.sum()) + 1.0, float(a.sum()) + 2.0]
        sol = PreparedLp(A, senses, b).solve(lo, hi, rng.normal(size=n), True)
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.infeasibility > 0


def test_determinism():
    rng = np.random.default_rng(21)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=6, m=8)
    s1 = PreparedLp(A, senses, b).solve(lo, hi, c, True)
    s2 = PreparedLp(A, senses, b).solve(lo, hi, c, True)
    assert s1.objective == s2.objective
    assert np.array_equal(s1.x, s2.x)
    assert np.array_equal(s1.basis, s2.basis)


def test_beale_degenerate_instance_terminates():
    # classic cycling-prone data; must terminate and match the reference
    c = [-0.75, 150.0, -0.02, 6.0]
    A = [
        [0.25, -60.0, -0.04, 9.0],
        [0.5, -90.0, -0.02, 3.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
    senses = ["<=", "<=", "<="]
    b = [0.0, 0.0, 1.0]
    lo = [0.0] * 4
    hi = [1e4] * 4
    sol = PreparedLp(A, senses, b).solve(lo, hi, c, False)
    ref = scipy_solve(c, False, A, senses, b, lo, hi)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_frequent_refactorization_matches_default(monkeypatch):
    rng = np.random.default_rng(33)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=8, m=10)
    a = PreparedLp(A, senses, b).solve(lo, hi, c, True)
    monkeypatch.setattr(simplex, "REFACTOR_EVERY", 1)
    bsol = PreparedLp(A, senses, b).solve(lo, hi, c, True)
    assert a.objective == pytest.approx(bsol.objective, abs=1e-8)


def test_larger_instance_against_reference():
    rng = np.random.default_rng(55)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=30, m=25)
    sol = PreparedLp(A, senses, b).solve(lo, hi, c, True)
    ref = scipy_solve(c, True, A, senses, b, lo, hi)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(-ref.fun, abs=5e-6)


# x0 - x1 >= 0.5, x2 <= 1.5, and x0 + x1 + x2 = 2 twice (rank deficient)
_RD_A = [[1.0, -1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]]
_RD_SENSES = [">=", "<=", "=", "="]
_RD_B = [0.5, 1.5, 2.0, 2.0]
_RD_C = [0.0, 1.0, 2.0]


def test_rank_deficient_lp_bases_index_only_structurals_and_logicals():
    n, m = 3, 4
    eng = PreparedLp(_RD_A, _RD_SENSES, np.array(_RD_B))
    c = np.array(_RD_C)
    lo, hi = np.zeros(n), np.full(n, 2.0)
    cold = eng.solve(lo, hi, c, True)
    assert cold.status is LpStatus.OPTIMAL
    assert cold.basis.shape == (m,) and cold.basis.max() < n + m
    assert cold.at_upper.shape == (n + m,)
    assert cold.objective == pytest.approx(3.0, abs=1e-9)
    np.testing.assert_allclose(cold.x, [0.5, 0.0, 1.5], atol=1e-9)

    # a bound change, re-solved from the redundant row's basis
    hi[2] = 1.0
    warm = eng.solve(lo, hi, c, True, start=cold)
    again = eng.solve(lo, hi, c, True)
    ref = scipy_solve(_RD_C, True, _RD_A, _RD_SENSES, _RD_B, lo, hi)
    assert warm.status is LpStatus.OPTIMAL and warm.warm is WarmStart.USED
    assert warm.basis.max() < n + m and warm.at_upper.shape == (n + m,)
    assert warm.objective == pytest.approx(-ref.fun, abs=1e-9)
    assert warm.objective == pytest.approx(again.objective, abs=1e-9)
    np.testing.assert_allclose(warm.x, ref.x, atol=1e-9)
    np.testing.assert_allclose(warm.x, again.x, atol=1e-9)

    # a start must index only the structural and logical columns, and a
    # tableau carried with it must have this LP's shape
    outside = cold.basis.copy()
    outside[0] = n + m
    narrow = replace(cold.tableau, T=cold.tableau.T[:, :-1])
    for start in (
        replace(cold, basis=outside),
        replace(cold, at_upper=np.zeros(n + m + 1, dtype=bool)),
        replace(cold, tableau=narrow),
    ):
        with pytest.raises(InvalidArg):
            eng.solve(lo, hi, c, True, start=start)
    with pytest.raises(InvalidArg):  # so must the objective
        eng.solve(lo, hi, c[:-1], True)


def test_ge_rows_equal_their_negated_le_rows():
    lo, hi = [0.0] * 3, [2.0] * 3
    ge = PreparedLp(_RD_A, _RD_SENSES, _RD_B).solve(lo, hi, _RD_C, True)
    A_le = [list(r) for r in _RD_A]
    A_le[0] = [-v for v in A_le[0]]
    b_le = list(_RD_B)
    b_le[0] = -b_le[0]
    le = PreparedLp(A_le, ["<=", "<=", "=", "="], b_le).solve(lo, hi, _RD_C, True)
    assert le.objective == ge.objective
    np.testing.assert_array_equal(le.x, ge.x)


def test_an_unblocked_entering_column_is_a_breakdown():
    # min -x s.t. 2x >= 1, x in [0, 2]. In phase 2 the row's logical enters
    # and x's upper bound would block it, but that row's tableau entry, 0.5,
    # is under the pivot tolerance: no bound blocks the column, which the
    # bounded structurals rule out, so the solve breaks down instead of
    # reporting the LP unbounded
    eng = PreparedLp([[2.0]], [">="], [1.0])
    with pytest.MonkeyPatch.context() as mp, pytest.raises(NumericalBreakdown):
        mp.setattr(simplex, "PIVOT_TOL", 0.9)
        eng.solve([0.0], [2.0], [-1.0], False)
    sol = eng.solve([0.0], [2.0], [-1.0], False)
    assert sol.status is LpStatus.OPTIMAL and sol.objective == -2.0


def test_primal_blands_rule_matches_reference(monkeypatch):
    # every row passes through the lower corner, where the cold solve
    # starts with no artificial, so phase 2's first pivots are degenerate
    # and from BLAND_AFTER = 1 on its loop picks by Bland's rule
    bland_passes = []
    entering = simplex._entering

    def spy_entering(state, movable, bland):
        bland_passes.append(bland)
        return entering(state, movable, bland)

    monkeypatch.setattr(simplex, "_entering", spy_entering)
    monkeypatch.setattr(simplex, "BLAND_AFTER", 1)
    rng = np.random.default_rng(29)
    bland_runs = 0
    for trial in range(30):
        n, m = int(rng.integers(2, 7)), int(rng.integers(2, 9))
        A = rng.normal(size=(m, n))
        lo = rng.uniform(-1.0, 0.0, size=n)
        hi = lo + rng.uniform(0.5, 2.0, size=n)
        senses = list(rng.choice(["<=", ">="], size=m))
        b = A @ lo
        c = rng.normal(size=n)
        maximize = bool(rng.integers(0, 2))
        bland_passes.clear()
        sol = PreparedLp(A, senses, b).solve(lo, hi, c, maximize)
        ref = scipy_solve(c, maximize, A, senses, b, lo, hi)
        assert sol.status is LpStatus.OPTIMAL and sol.phase1_pivots == 0, f"trial {trial}"
        assert sol.objective == pytest.approx(-ref.fun if maximize else ref.fun, abs=1e-7), f"trial {trial}"
        bland_runs += any(bland_passes)
    assert bland_runs > 10


def test_artificial_without_pivot_element_is_a_breakdown(monkeypatch):
    # phase 1 ends at once with the artificial basic at zero; no tableau
    # entry of its row passes the (absurd) pivot tolerance, so it cannot leave
    monkeypatch.setattr(simplex, "PIVOT_TOL", 2.0)
    with pytest.raises(NumericalBreakdown):
        PreparedLp([[1.0, 1.0]], ["="], [0.0]).solve([0.0, 0.0], [0.0, 0.0], [1.0, 0.0], True)


def _feasible_points(rng, A, senses, b, lo, hi, x0, count):
    """Feasible points of a `_random_feasible_lp` instance: random convex
    combinations of its built-in point `x0` and of reference optima under
    random objectives, each feasible, so every combination is."""
    n = len(lo)
    corners = [x0] + [scipy_solve(rng.normal(size=n), True, A, senses, b, lo, hi).x for _ in range(4)]
    return rng.dirichlet(np.ones(len(corners)), size=count) @ np.array(corners)


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), maximize=st.booleans())
def test_the_dual_bound_holds_at_every_feasible_point(seed, maximize):
    # <=, >= and = rows alike; the bound is proven from the duals and the
    # original data, so it holds at every feasible point, and at the
    # optimal duals it is the optimum
    rng = np.random.default_rng(seed)
    c, A, senses, b, lo, hi, x0 = _random_feasible_lp(rng)
    eng = PreparedLp(A, senses, b)
    sol = eng.solve(lo, hi, c, maximize)
    assert sol.status is LpStatus.OPTIMAL
    ref = scipy_solve(c, maximize, A, senses, b, lo, hi)
    opt = -ref.fun if maximize else ref.fun
    tol = 1e-9 * (1.0 + abs(opt))
    assert sol.bound == pytest.approx(opt, abs=tol)
    mult = 1.0 if maximize else -1.0
    points = _feasible_points(rng, A, senses, b, lo, hi, x0, 50)
    assert np.all(mult * (points @ c) <= mult * sol.bound + tol)

    # any duals prove a bound, a negative one on an inequality row included
    y = row_duals(sol) + rng.normal(scale=0.5, size=eng.m)
    c2 = np.concatenate((mult * np.asarray(c), np.zeros(eng.m)))
    full_lo = np.concatenate((lo, np.zeros(eng.m)))
    full_hi = np.concatenate((hi, eng.logical_hi))
    perturbed = eng._dual_bound(y, c2, full_lo, full_hi)
    assert np.isfinite(perturbed)
    assert perturbed >= mult * opt - tol
    assert np.all(mult * (points @ c) <= perturbed + tol)
