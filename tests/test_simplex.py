from dataclasses import replace

import numpy as np
import pytest
from scipy.optimize import linprog

from relucert.errors import InvalidArg, NumericalBreakdown
from relucert.simplex import LpStatus, PreparedLp, SimplexOptions, WarmStart, solve_dense


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
    sol = solve_dense([1.0], True, [[1.0]], ["<="], [0.7], [0.0], [1.0])
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == pytest.approx(0.7, abs=1e-9)
    assert sol.objective == pytest.approx(0.7, abs=1e-9)


def test_contradictory_rows_infeasible():
    sol = solve_dense(
        [1.0], True, [[1.0], [1.0]], [">=", "<="], [1.0, 0.0], [-5.0], [5.0]
    )
    assert sol.status is LpStatus.INFEASIBLE
    assert sol.infeasibility > 0.5


def test_equality_row():
    sol = solve_dense(
        [1.0, 0.0], True, [[1.0, 1.0]], ["="], [1.0], [0.0, 0.0], [1.0, 1.0]
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)
    assert sol.x[1] == pytest.approx(0.0, abs=1e-9)


def test_minimize_sense():
    sol = solve_dense(
        [2.0, 1.0], False, [[1.0, 1.0]], [">="], [1.0], [0.0, 0.0], [2.0, 2.0]
    )
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(1.0, abs=1e-9)  # y=1, x=0


def test_no_rows_picks_bounds():
    sol = solve_dense([-1.0, 3.0], True, np.zeros((0, 2)), [], [], [-3.0, -1.0], [5.0, 2.0])
    assert sol.status is LpStatus.OPTIMAL
    assert sol.x[0] == -3.0 and sol.x[1] == 2.0
    assert sol.objective == pytest.approx(9.0, abs=0)


def test_negative_lower_bounds():
    # optimum sits at a mixed bound corner, away from the origin
    sol = solve_dense(
        [1.0, -1.0], True, [[1.0, 1.0]], ["<="], [0.0], [-2.0, -2.0], [2.0, 2.0]
    )
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
        sol = solve_dense(c, maximize, A, senses, b, lo, hi)
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
        sol = solve_dense(c, True, A, senses, b, lo, hi)
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
        sol = solve_dense(rng.normal(size=n), True, A, senses, b, lo, hi)
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.infeasibility > 0


def test_determinism():
    rng = np.random.default_rng(21)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=6, m=8)
    s1 = solve_dense(c, True, A, senses, b, lo, hi)
    s2 = solve_dense(c, True, A, senses, b, lo, hi)
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
    sol = solve_dense(c, False, A, senses, b, lo, hi)
    ref = scipy_solve(c, False, A, senses, b, lo, hi)
    assert sol.status is LpStatus.OPTIMAL
    assert sol.objective == pytest.approx(ref.fun, abs=1e-7)


def test_frequent_refactorization_matches_default():
    rng = np.random.default_rng(33)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=8, m=10)
    a = solve_dense(c, True, A, senses, b, lo, hi)
    bsol = solve_dense(
        c, True, A, senses, b, lo, hi, options=SimplexOptions(refactor_every=1)
    )
    assert a.objective == pytest.approx(bsol.objective, abs=1e-8)


def test_larger_instance_against_reference():
    rng = np.random.default_rng(55)
    c, A, senses, b, lo, hi, _ = _random_feasible_lp(rng, n=30, m=25)
    sol = solve_dense(c, True, A, senses, b, lo, hi)
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
    ge = solve_dense(_RD_C, True, _RD_A, _RD_SENSES, _RD_B, lo, hi)
    A_le = [list(r) for r in _RD_A]
    A_le[0] = [-v for v in A_le[0]]
    b_le = list(_RD_B)
    b_le[0] = -b_le[0]
    le = solve_dense(_RD_C, True, A_le, ["<=", "<=", "=", "="], b_le, lo, hi)
    assert le.objective == ge.objective
    np.testing.assert_array_equal(le.x, ge.x)


def test_artificial_without_pivot_element_is_a_breakdown():
    # phase 1 ends at once with the artificial basic at zero; no tableau
    # entry of its row passes the (absurd) pivot tolerance, so it cannot leave
    with pytest.raises(NumericalBreakdown):
        solve_dense([1.0, 0.0], True, [[1.0, 1.0]], ["="], [0.0], [0.0, 0.0], [0.0, 0.0],
                    options=SimplexOptions(pivot_tol=2.0))
