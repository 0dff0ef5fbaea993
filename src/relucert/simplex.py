"""Bounded-variable simplex: a cold two-phase primal solve and a
warm-started dual path.

A solve ends OPTIMAL, INFEASIBLE or CUTOFF, or raises `NumericalBreakdown`.
Every structural is bounded and carries the whole objective, and phase 1's
objective is at most zero, so no loop's LP is unbounded: an entering column
no bound blocks is a breakdown, like a singular basis or a solve attempt
past the pricing-pass budget `PreparedLp.max_iter`.

Variables carry individual lower/upper bounds and nonbasic variables rest
at one of them, so the ReLU encodings' many bound constraints never become
rows. Every row is written as `a x + s = b` with one logical `s` per row
(Koberstein's bounded computational form): a `>=` row is negated once, a
logical is bounded `[0, inf)` on an inequality row and `[0, 0]` on an
equality row, and bases index only the structural and logical columns.
The cold solve starts from the logical basis. Every equality row, and
every inequality row whose logical would start negative, gets a signed
artificial column in a matrix local to phase 1, which drives the
artificials to zero; they are then expelled from the basis and dropped,
and phase 2 optimizes the real objective on the skeleton alone, from basic
values recomputed from the original data.

The tableau is dense and compact, in dictionary form (Chvatal, *Linear
Programming*, 1983, ch. 2-3): `T = B^-1 A_N` holds only the nonbasic
columns, one per position, `nb` names the column at each position, and the
basic columns, unit vectors, are not stored. A pivot is a Jordan exchange:
the leaving variable takes the entering one's position. The reduced costs
over the positions are carried through each exchange and recomputed from
the objective at the primal loop's entry and after each refactorization,
and the primal loop declares optimality only on a recomputed row. The
primal and the dual loop close every pivot the same way. The tableau is
refactorized from the original data every `REFACTOR_EVERY` pivots to shed
accumulated error; the pivots are counted since the tableau's last
refactorization, across every solve that inherits it. Once a loop's
streak of degenerate pivots reaches `BLAND_AFTER`, Bland's rule picks the
entering and leaving variables until a step makes progress, which bounds
the pivot count; it picks the lowest column index, whatever position the
column holds.

The engine knows matrices alone: it is built from rows `A`, their senses
and right-hand sides `b`, every solve brings its bounds and objective `c`,
and a solution's objective is `c x` at its point. So one engine serves
every objective over its rows: a bound-tightening sweep's and all of a
query's subproblems. A solve may start from a basis, which the engine
either already holds or factorizes once, and every start then takes one
warm path (a dual simplex restarts from any basis whose factorization it
holds: Koberstein, *The dual simplex method, techniques for a fast and
stable implementation*, PhD thesis, Paderborn 2005). A start is one of two
things. An earlier optimal solution of the same engine carries its basis,
its nonbasic-at-upper flags and its final tableau with the position of each
nonbasic column; the solve adopts copies of them, unchecked, since the
engine made them, and a start from another engine is `InvalidArg`. A
`Basis`, basic columns and at-upper flags, is the one start made outside
the engine: the solve checks it, `InvalidArg` unless it names `m` distinct
columns and its flags cover every column, and factorizes it once. A bound
change moves only the resting values of nonbasic columns, and the basic
values of an adopted tableau move with each by the column's tableau entries
times its shift, the dual simplex's bound update, so no adopted start is
refactorized; a branched binary is basic, and a bound-tightening sweep or a
robustness root changes only the objective, so most starts move nothing. If
the start's basic values are primal feasible (the next objective of a
bound-tightening sweep, a robustness root started from its query's shared
solve, or the network's vertex that shared solve starts from), phase 2 runs
from them directly. If the basis is dual feasible instead (a
branch-and-bound child, whose bounds differ from its parent's in one
binary), a bounded dual simplex restores primal feasibility and one primal
phase-2 pass cleans up. The dual simplex prices by dual steepest edge
(Forrest & Goldfarb 1992): the leaving row maximizes its squared bound
violation over the squared norm of its row of B^-1. On the skeleton, B^-1
is the tableau's columns at the nonbasic logicals and a unit vector at each
basic one, so those exact weights are read off the tableau and need no
update formula. When the dual simplex finds a violated row with no entering
column, that row's dual ray, its row of B^-1, is read off the tableau the
same way and bounded over the variables' box with the original data, which
keeps the proof sound for an inexact ray. It decides the solve infeasible
only if it proves an L1 row residual above `FEAS_TOL`, the level phase 1
would need to see to reject the LP. Any other outcome of the warm path, a
weaker ray, a start that is neither primal nor dual feasible or a numerical
breakdown, falls back to the cold solve, with a budget of its own. The same
reading gives an optimal solve's row duals, `row_duals`, from its final
reduced costs.

An optimal solve's `objective` is `c x` at its point, and its `bound` is
proven by weak duality from the original data (Neumaier & Shcherbina,
"Safe bounds in linear and mixed-integer linear programming", Math.
Program. 99, 2004): for any row vector `y`, every solution of the rows has
`c x = y.b + (c - y A) x`, so `y.b` plus the greatest `(c - y A) x` over
the columns' box bounds the LP's optimum, however inexact `y` is. `y` is
read off the final reduced costs as `row_duals` reads it, and a logical
that `c - y A` prices up is capped, as for a dual ray, at the most its
row's activity allows. Since no bound depends on the basic values, none
are recomputed for the point: it is read off the basic values the pivots
carried, and the tableau is refactorized after an optimal solve only when
the point's row residual `||b - A x||_inf` exceeds `FEAS_TOL`. A solve may
take a `cutoff`, a value its caller does not need beaten. The dual
simplex carries its running objective, and once that falls short of the
cutoff it proves the bound at its current duals; when that bound falls
strictly short as well, the solve ends CUTOFF with the bound and no point.

The tolerances and the pivot rules' thresholds are the module constants
below, one fixed policy for every solve.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from enum import Enum

import numpy as np

from .errors import InvalidArg, NumericalBreakdown


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    CUTOFF = "cutoff"  # a proven bound falls strictly short of the solve's cutoff


class WarmStart(Enum):
    NONE = "none"              # no start given: cold two-phase solve
    USED = "used"              # the warm path reached the optimum or proved infeasibility
    FELL_BACK = "fell_back"    # the warm path did not; the cold solve decided
    BROKE_DOWN = "broke_down"  # the warm path raised NumericalBreakdown; the cold solve decided


FEAS_TOL = 1e-7
OPT_TOL = 1e-7
PIVOT_TOL = 1e-9
BLAND_AFTER = 50      # consecutive degenerate pivots before Bland's rule
REFACTOR_EVERY = 100  # pivots since the tableau's last refactorization, across inheriting solves
_DEGEN_TOL = 1e-10


def tolerances() -> dict:
    """The fixed policy every solve follows, as reports list it."""
    return dict(feas_tol=FEAS_TOL, opt_tol=OPT_TOL, pivot_tol=PIVOT_TOL, bland_after=BLAND_AFTER,
                refactor_every=REFACTOR_EVERY)


@dataclass(eq=False)
class Tableau:
    """An optimal solve's final tableau, over the basis of the solution that
    carries it, which a later solve of the same engine started from that
    solution adopts: `T` is B^-1 A_N, the m x n block of B^-1 [A | I]
    at the nonbasic columns `nb` (column `nb[k]` at position `k`), after
    `age` pivots since its last refactorization, `xB` holds the basic
    values the pivots carried with the nonbasic values `x_nb` (recomputed
    from the original data only when their row residual exceeded
    `FEAS_TOL`), and `d` the reduced costs at each position, recomputed
    from the objective when the solve declared optimality."""

    engine: PreparedLp
    T: np.ndarray
    nb: np.ndarray
    xB: np.ndarray
    x_nb: np.ndarray
    age: int
    d: np.ndarray


@dataclass
class LpSolution:
    """One solve's outcome. Pivot counts are pricing passes (basis changes,
    bound flips and one final pass per loop), counted over every path the
    solve took, a warm attempt that fell back included. `refactors` counts
    the tableau refactorizations: a `Basis` start's one factorization,
    those made every `REFACTOR_EVERY` pivots, and the one an optimal
    point's row residual asks for.
    `objective` is `c x` at the optimal point `x`, and `bound` a bound on
    the LP's optimum that weak duality proves from the original data (at
    least `c x` when maximizing, at most when minimizing, up to roundoff);
    a CUTOFF solution carries only its `bound`, which falls strictly short
    of the solve's cutoff.
    An optimal solution serves as the `start` of a later solve; its
    `tableau` holds B^-1 A over the columns outside `basis`."""

    status: LpStatus
    x: np.ndarray | None = None          # structural variable values
    objective: float | None = None
    bound: float | None = None           # when Optimal or Cutoff
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None   # nonbasic-at-upper flag per structural and per logical column
    infeasibility: float = 0.0           # when Infeasible: phase 1's L1 residual, or the one a dual ray proves
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    dual_pivots: int = 0
    warm: WarmStart = WarmStart.NONE
    refactors: int = 0
    tableau: Tableau | None = field(default=None, repr=False)  # when Optimal; over `basis`

    @property
    def iterations(self) -> int:
        return self.phase1_pivots + self.phase2_pivots + self.dual_pivots


@dataclass(frozen=True)
class Basis:
    """A start given by its basis alone: the column basic in each row, and
    the nonbasic-at-upper flag of each structural and logical column. It
    is the one start made outside the engine: a solve from it checks it and
    factorizes it once, where a start from an `LpSolution` adopts that
    solution's tableau, and then both take the same warm path."""

    basis: np.ndarray
    at_upper: np.ndarray


@dataclass
class SolveStats:
    """LP work summed over many solves, the largest gap between an optimal
    solve's proven bound and its objective, and the B&B nodes whose solve
    broke down."""

    lp_solves: int = 0
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    dual_pivots: int = 0
    warm_starts: int = 0     # solves given a start
    warm_fallbacks: int = 0  # of those, solves the cold path decided after all
    breakdowns: int = 0      # of those fallbacks, warm paths that raised NumericalBreakdown
    ray_infeasible: int = 0  # infeasible verdicts the warm path proved with a dual ray
    node_breakdowns: int = 0  # B&B nodes whose solve raised NumericalBreakdown, left open
    refactors: int = 0       # tableau refactorizations, a `Basis` start's included (LpSolution.refactors)
    cutoffs: int = 0         # solves that ended CUTOFF
    max_bound_gap: float = 0.0  # the largest |bound - objective| of an optimal solve

    def add(self, sol: LpSolution) -> None:
        self.lp_solves += 1
        self.phase1_pivots += sol.phase1_pivots
        self.phase2_pivots += sol.phase2_pivots
        self.dual_pivots += sol.dual_pivots
        self.warm_starts += sol.warm is not WarmStart.NONE
        self.warm_fallbacks += sol.warm in (WarmStart.FELL_BACK, WarmStart.BROKE_DOWN)
        self.breakdowns += sol.warm is WarmStart.BROKE_DOWN
        self.ray_infeasible += sol.warm is WarmStart.USED and sol.status is LpStatus.INFEASIBLE
        self.refactors += sol.refactors
        self.cutoffs += sol.status is LpStatus.CUTOFF
        if sol.status is LpStatus.OPTIMAL:
            self.max_bound_gap = max(self.max_bound_gap, abs(sol.bound - sol.objective))

    def merge(self, other: SolveStats) -> None:
        for f in fields(self):
            k = f.name
            mine, v = getattr(self, k), getattr(other, k)
            setattr(self, k, max(mine, v) if k == "max_bound_gap" else mine + v)

    def as_dict(self) -> dict:
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        total = self.phase1_pivots + self.phase2_pivots + self.dual_pivots
        d["phase1_share"] = self.phase1_pivots / total if total else 0.0
        d["dual_per_warm"] = self.dual_pivots / self.warm_starts if self.warm_starts else 0.0
        return d


class PreparedLp:
    """One LP skeleton solved many times under changing bounds and objectives.

    The constructor writes every row as `a x + s = b` with one logical `s`
    per row: a `>=` row is negated once, and the identity is appended after
    the n structural columns. A logical is bounded `[0, inf)` on an
    inequality row and `[0, 0]` on an equality row, so nothing after the
    constructor needs the row senses. Bases and at-upper flags index these
    n + m columns only; artificials live inside a cold solve's phase 1.
    A solve's tableau is B^-1 over the n columns outside the basis, an
    m x n array however many of them are logicals.

    The rows stay fixed; `solve` takes the structural bounds for this call
    (branch-and-bound fixes binaries that way), the objective (bound
    tightening sweeps one, and a robustness query's subproblems each bring
    their own), an optional start, an earlier optimal solution of this
    engine or a `Basis` of its columns, and an optional cutoff (a B&B node's incumbent level). `rows` is the matrix the engine was built from, as given, so a
    caller can tell whether a start's engine solves a problem's rows.
    """

    def __init__(self, A: np.ndarray, senses, b: np.ndarray):
        self.rows = A
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise InvalidArg("A must be a matrix")
        self.m, self.n = A.shape
        b = np.asarray(b, dtype=float)
        senses = np.asarray(list(senses), dtype=str)
        if senses.shape != (self.m,) or b.shape != (self.m,):
            raise InvalidArg("row shapes inconsistent")
        if not np.isin(senses, ("<=", "=", ">=")).all():
            raise InvalidArg("row sense must be <=, = or >=")
        sign = np.where(senses == ">=", -1.0, 1.0)
        self.A = np.hstack((A * sign[:, None], np.eye(self.m)))  # structurals | logicals
        self.b = b * sign
        self.logical_hi = np.where(senses == "=", 0.0, np.inf)
        self.ncols = self.n + self.m
        self.max_iter = 10_000 + 40 * (self.m + self.ncols)  # pricing passes per solve attempt

    # ------------------------------------------------------------------
    def solve(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        c: np.ndarray,
        maximize: bool,
        start: LpSolution | Basis | None = None,
        cutoff: float | None = None,
    ) -> LpSolution:
        """Maximize `c x` (or minimize it, `maximize` False) under
        structural bounds `lo`/`hi`. `start` is an earlier optimal solution
        of this engine or a `Basis` of its columns, else `InvalidArg`; the
        solve then tries the warm path from the solution's tableau, or from
        the basis factorized once, first and falls back to the cold one.
        `cutoff` is a value of `c x` the caller does not need beaten: once
        the dual simplex proves a bound strictly below it (above it when
        minimizing), the solve ends CUTOFF. Ends OPTIMAL,
        INFEASIBLE or CUTOFF, or raises `NumericalBreakdown`."""
        m, n, ncols = self.m, self.n, self.ncols
        lo_s = np.asarray(lo, dtype=float)
        hi_s = np.asarray(hi, dtype=float)
        if lo_s.shape != (n,) or hi_s.shape != (n,):
            raise InvalidArg("bound vectors must cover the structural variables")
        if np.any(lo_s > hi_s + 1e-12) or not (np.all(np.isfinite(lo_s)) and np.all(np.isfinite(hi_s))):
            raise InvalidArg("structural bounds must be finite with lo <= hi")
        c = np.asarray(c, dtype=float)
        if c.shape != (n,):
            raise InvalidArg("objective must cover the structural variables")

        mult = 1.0 if maximize else -1.0
        c2 = np.zeros(ncols)
        c2[:n] = mult * c
        full_lo = np.concatenate((lo_s, np.zeros(m)))
        full_hi = np.concatenate((hi_s, self.logical_hi))
        counts = {"phase1": 0, "phase2": 0, "dual": 0, "refactors": 0}
        cut = -np.inf if cutoff is None else mult * float(cutoff)  # in the maximized objective

        warm = WarmStart.NONE
        outcome = None
        if start is not None:
            try:
                outcome = self._solve_warm(full_lo, full_hi, c2, start, counts, cut)
                warm = WarmStart.USED if outcome is not None else WarmStart.FELL_BACK
            except NumericalBreakdown:
                warm = WarmStart.BROKE_DOWN
        if outcome is None:
            outcome = self._solve_cold(full_lo, full_hi, c2, counts)
        status, state, value = outcome

        if status is LpStatus.OPTIMAL:
            # the point is read off the carried basic values; only a row
            # residual above FEAS_TOL refactorizes, and the fresh reduced
            # costs then go with the tableau
            x_nb = _resting(state, full_lo, full_hi)
            x_full = x_nb.copy()
            x_full[state.basis] = state.xB
            if np.abs(self.b - self.A[:, :n] @ x_full[:n] - x_full[n:]).max(initial=0.0) > FEAS_TOL:
                x_nb = self._refactor(state, self.A, full_lo, full_hi)
                state.d = _reduced_costs(state, c2)
                x_full = x_nb.copy()
                x_full[state.basis] = state.xB
            value = self._dual_bound(_on_rows(-state.d, state.nb, n, m), c2, full_lo, full_hi)
        stats = dict(
            phase1_pivots=counts["phase1"],
            phase2_pivots=counts["phase2"],
            dual_pivots=counts["dual"],
            warm=warm,
            refactors=counts["refactors"],
        )
        if status is LpStatus.INFEASIBLE:
            return LpSolution(status=status, infeasibility=value, **stats)
        if status is LpStatus.CUTOFF:
            return LpSolution(status=status, bound=mult * value, **stats)
        x = x_full[:n].copy()
        np.clip(x, lo_s, hi_s, out=x)
        return LpSolution(
            status=status,
            x=x,
            objective=float(c @ x),
            bound=mult * value,
            basis=state.basis,
            at_upper=state.at_upper,
            tableau=Tableau(self, state.T, state.nb, state.xB, x_nb, state.age, state.d),
            **stats,
        )

    def _solve_cold(self, full_lo, full_hi, c2, counts):
        """Two-phase solve from the logical basis, structurals at their lower
        bounds. Every equality row, and every inequality row whose logical
        would start negative, gets a signed artificial column in a
        phase-1-local matrix. Phase 1 drives the artificials to zero, they
        are expelled from the basis and dropped, and phase 2 runs on the
        skeleton from the basic values a warm start from that basis would
        adopt. Returns `(OPTIMAL, state, 0.0)`, or `(INFEASIBLE, None,
        phase 1's residual)`."""
        m, n, ncols = self.m, self.n, self.ncols
        resid = self.b - self.A[:, :n] @ full_lo[:n]
        # a logical fixed at zero marks an equality row
        art = np.flatnonzero((full_hi[n:] == 0.0) | (resid < 0.0))
        k = art.size
        sigma = np.where(resid[art] >= 0.0, 1.0, -1.0)
        A1 = np.zeros((m, ncols + k))
        A1[:, :ncols] = self.A
        A1[art, ncols + np.arange(k)] = sigma
        basis = np.arange(n, ncols)
        basis[art] = ncols + np.arange(k)
        nb = np.concatenate((np.arange(n), n + art))  # the structurals and the logicals artificials replace
        row_sign = np.ones(m)
        row_sign[art] = sigma
        state = _State(
            T=A1[:, nb] * row_sign[:, None],  # B^-1 A1_N for this basis of signed unit columns
            basis=basis,
            nb=nb,
            xB=np.abs(resid),  # resid itself on every row a logical holds
            at_upper=np.zeros(ncols + k, dtype=bool),
            counts=counts,
        )

        if k:
            lo1 = np.concatenate((full_lo, np.zeros(k)))
            hi1 = np.concatenate((full_hi, np.full(k, np.inf)))
            c1 = np.concatenate((np.zeros(ncols), np.full(k, -1.0)))
            self._iterate(state, A1, lo1, hi1, c1, "phase1")
            art_sum = float(np.maximum(state.xB[state.basis >= ncols], 0.0).sum())
            if art_sum > FEAS_TOL:
                return LpStatus.INFEASIBLE, None, art_sum
            self._expel_artificials(state, full_lo, full_hi)
            # every artificial is nonbasic at zero now; drop their positions
            keep = state.nb < ncols
            state.T = np.ascontiguousarray(state.T[:, keep])
            state.nb = state.nb[keep]
            state.d = state.d[keep]
            state.at_upper = state.at_upper[:ncols]
            # the carried basic values solve phase 1's rows only up to its
            # pivots' roundoff and the artificials, each expelled at a value
            # up to FEAS_TOL; phase 2 starts from basic values recomputed
            # from the original data, which solve the skeleton's own rows
            self._refactor(state, self.A, full_lo, full_hi, tableau=False)

        self._iterate(state, self.A, full_lo, full_hi, c2, "phase2")
        return LpStatus.OPTIMAL, state, 0.0

    def _solve_warm(self, full_lo, full_hi, c2, start, counts, cut):
        """Re-solve from a start: a `Basis`, checked and factorized once,
        or an optimal solution of this engine, whose tableau is adopted as
        it is and whose basic values move by `T[:, k] * shift` for each
        nonbasic position `k` whose column's resting value these bounds
        shift. Returns what `_solve_cold` returns when the warm path
        reaches an optimum or proves infeasibility with a dual ray,
        `(CUTOFF, None, bound)` when the dual simplex proves `bound` on the
        maximized objective strictly below `cut`, or None when it can do
        none of these."""
        if isinstance(start, Basis):
            basis, at_upper, nb = self._checked(start, full_hi)
            state = _State(T=None, basis=basis, nb=nb, xB=None, at_upper=at_upper, counts=counts)
            self._refactor(state, self.A, full_lo, full_hi)
        else:
            tab = start.tableau
            if tab is None or tab.engine is not self:
                raise InvalidArg("a start must be an optimal solution of this engine")
            # a solution of this engine flags no basic column, nor one without a finite upper bound
            state = _State(T=tab.T.copy(), basis=start.basis.copy(), nb=tab.nb.copy(), xB=tab.xB.copy(),
                           at_upper=start.at_upper.copy(), counts=counts, age=tab.age)
            shift = (_resting(state, full_lo, full_hi) - tab.x_nb)[state.nb]
            if shift.any():
                state.xB -= state.T @ shift

        basis = state.basis
        movable = full_hi > full_lo
        if np.any(state.xB < full_lo[basis] - FEAS_TOL) or np.any(state.xB > full_hi[basis] + FEAS_TOL):
            state.d = _reduced_costs(state, c2)
            if _entering(state, movable, False) >= 0:  # not dual feasible
                return None
            ended = self._dual(state, full_lo, full_hi, c2, cut)
            if ended is not None:
                status, value = ended
                if status is LpStatus.INFEASIBLE and value <= FEAS_TOL:
                    return None
                return status, None, value
        self._iterate(state, self.A, full_lo, full_hi, c2, "phase2")
        return LpStatus.OPTIMAL, state, 0.0

    def _checked(self, start: Basis, full_hi) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Copies of a `Basis`'s columns and at-upper flags, with the flags
        cleared at the basic columns and at those without a finite upper
        bound, and the nonbasic columns; `InvalidArg` unless the basis
        names `m` distinct columns of this LP and the flags cover them."""
        m, ncols = self.m, self.ncols
        basis = np.array(start.basis)
        at_upper = np.array(start.at_upper, dtype=bool)
        if (
            basis.shape != (m,)
            or basis.dtype.kind not in "iu"
            or at_upper.shape != (ncols,)
            or np.any(basis < 0)
            or np.any(basis >= ncols)
            or np.unique(basis).size != m
        ):
            raise InvalidArg("start does not fit this LP")
        in_basis = np.zeros(ncols, dtype=bool)
        in_basis[basis] = True
        at_upper &= ~in_basis & np.isfinite(full_hi)
        return basis, at_upper, np.flatnonzero(~in_basis)

    def _box_max(self, a, full_lo, full_hi) -> float:
        """The greatest `a x` over the columns' box, for `a` over every
        column, where every solution of the rows lies: each column at the
        bound `a` prices up. A logical that `a` prices up is capped at the
        most its row's activity over the structural box allows (`s = b_i -
        a_i x`), which keeps the value finite and a bound over every
        solution of the rows in the box."""
        n = self.n
        up = a > 0.0
        x = np.where(up, full_hi, full_lo)
        rows = (up[n:] & np.isinf(full_hi[n:])).nonzero()[0]
        if rows.size:
            A_r = self.A[rows, :n]
            least = np.minimum(A_r * full_lo[:n], A_r * full_hi[:n]).sum(axis=1)
            x[n + rows] = np.maximum(self.b[rows] - least, 0.0)
        return float(a @ x)

    def _dual_bound(self, y, c_int, full_lo, full_hi) -> float:
        """The bound weak duality proves on the maximized objective `c_int
        x` over the rows and the box, for any row vector `y`: every solution
        of the rows has `c x = y.b + (c - y A) x`, and `_box_max` bounds the
        second term from the original data. A solve passes the duals its
        reduced costs give, read as `row_duals` reads them."""
        n = self.n
        a = c_int.copy()
        a[:n] -= y @ self.A[:, :n]
        a[n:] -= y
        return float(y @ self.b) + self._box_max(a, full_lo, full_hi)

    def _ray_residual(self, state, r, full_lo, full_hi) -> float:
        """Phase-1 residual proven by the dual ray of basic row `r`, which
        the dual simplex found with no entering column; 0.0 proves nothing.

        The ray `y`, row `r` of B^-1, is read off the tableau: B^-1's
        columns are the tableau's at the nonbasic logicals and a unit vector
        at each basic one. Everything else comes from the original data, so
        the proof holds for any `y`, however far the tableau has drifted:
        with `a = y A`, every solution of the rows has `sum_j a_j x_j =
        y.b` over every column. If the range of the left side over the
        columns' box (`_box_max` of `a` and of `-a`, logicals capped) misses
        `y.b` by `g`, then `|y.(b - A x)| >= g` at every point of the box,
        and the L1 row residual that phase 1 minimizes is at least `g /
        ||y||_inf`. Phase 1 gains nothing from a logical beyond its cap, so
        the bound stays a bound on its residual.
        """
        n = self.n
        y = _on_rows(state.T[r], state.nb, n, self.m)
        if state.basis[r] >= n:
            y[state.basis[r] - n] = 1.0
        a = y @ self.A
        yb = float(y @ self.b)
        g = max(-self._box_max(-a, full_lo, full_hi) - yb, yb - self._box_max(a, full_lo, full_hi))
        return float(max(g, 0.0) / np.abs(y).max())

    # ------------------------------------------------------------------
    def _refactor(self, state: _State, A, full_lo, full_hi, tableau: bool = True) -> np.ndarray:
        """Recompute the basic values, and the tableau over the state's
        nonbasic positions unless `tableau` is False, from the original
        data; `A` is the skeleton, or phase 1's matrix with its artificial
        columns. Returns the nonbasic values the basic values were computed
        with."""
        x_nb = _resting(state, full_lo, full_hi)
        rhs = self.b - A @ x_nb
        try:  # one factorization of B serves the tableau and the basic values
            sol = np.linalg.solve(A[:, state.basis], np.column_stack((A[:, state.nb], rhs)) if tableau else rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("singular basis during refactorization") from exc
        if tableau:
            state.T = sol[:, :-1]
            state.xB = sol[:, -1].copy()
            state.age = 0
            state.counts["refactors"] += 1
        else:
            state.xB = sol
        return x_nb

    def _expel_artificials(self, state: _State, full_lo, full_hi) -> None:
        """Swap each basic artificial, at zero after phase 1, for the lowest
        nonbasic structural or logical column with a pivot element in its
        row. The primal point is unchanged, so the entering variable keeps
        its resting value. B^-1's row at an artificial is nonzero and
        vanishes at every basic logical, and its entries at the nonbasic
        logicals are in the tableau, so some nonbasic logical has an entry
        there; a row without one above `PIVOT_TOL` is a numerical
        breakdown."""
        ncols = self.ncols
        for r in (state.basis >= ncols).nonzero()[0]:
            cand = ((np.abs(state.T[r]) > PIVOT_TOL) & (state.nb < ncols)).nonzero()[0]
            if cand.size == 0:
                raise NumericalBreakdown("no pivot element to expel an artificial")
            k = cand[state.nb[cand].argmin()]
            j = state.nb[k]
            self._pivot(state, r, k, full_hi[j] if state.at_upper[j] else full_lo[j])

    def _pivot(self, state: _State, r: int, k: int, new_val: float) -> None:
        """Exchange basic row `r` with nonbasic position `k`: the entering
        variable takes the row at `new_val`, the leaving one the position,
        and the tableau and the reduced costs are carried through the
        exchange."""
        T, d = state.T, state.d
        j = state.nb[k]
        state.nb[k] = state.basis[r]
        state.basis[r] = j
        state.xB[r] = new_val
        state.at_upper[j] = False
        col = T[:, k].copy()
        piv = col[r]
        col[r] = 0.0
        T[:, k] = 0.0
        T[r, k] = 1.0
        row = T[r]
        row /= piv  # the leaving variable's column becomes -col / piv, with 1 / piv in row r
        T -= np.outer(col, row)
        dk = d[k]
        d[k] = 0.0
        d -= dk * row

    # ------------------------------------------------------------------
    def _iterate(self, state, A, full_lo, full_hi, c_int, kind) -> None:
        """Primal simplex from a primal feasible basis over the columns of
        `A` to an optimum; `kind` names the phase its pricing passes are
        counted under. The reduced costs are carried through each pivot and
        recomputed at entry and after each refactorization, and optimality
        is only declared on a recomputed row. Every structural is bounded
        and carries the whole objective, and phase 1's objective is at most
        zero, so an entering column no bound blocks is a numerical
        breakdown."""
        span = full_hi - full_lo
        movable = span > 0
        state.streak = 0
        state.d = _reduced_costs(state, c_int)
        fresh = True
        while True:
            self._count_pass(state, kind)
            bland = state.streak >= BLAND_AFTER
            k = _entering(state, movable, bland)
            if k < 0 and not fresh:
                state.d = _reduced_costs(state, c_int)
                fresh = True
                k = _entering(state, movable, bland)
            if k < 0:
                return
            j = state.nb[k]
            sigma = -1.0 if state.at_upper[j] else 1.0
            w = state.T[:, k] * sigma  # xB moves by -w * t

            xB = state.xB
            lo_B = full_lo[state.basis]
            hi_B = full_hi[state.basis]
            room = np.where(w > 0.0, xB - lo_B, hi_B - xB)  # to the bound each basic moves toward
            rate = np.abs(w)
            flat = rate <= PIVOT_TOL
            rate[flat] = 1.0
            room[flat] = np.inf
            ratios = np.maximum(room, 0.0) / rate
            t_rows = float(ratios.min(initial=np.inf))
            t_own = span[j]

            if t_own <= t_rows and np.isfinite(t_own):
                # bound flip: variable jumps to its other bound, basis unchanged
                state.xB = xB - w * t_own
                state.at_upper[j] = not state.at_upper[j]
                state.streak = 0
                continue
            if not np.isfinite(t_rows):
                raise NumericalBreakdown("no bound blocks the entering column")
            ties = (ratios <= t_rows + 1e-12).nonzero()[0]
            r = ties[state.basis[ties].argmin()] if bland else ties[rate[ties].argmax()]

            t = t_rows
            leaving = state.basis[r]
            state.xB = xB - w * t
            goes_upper = w[r] < 0
            new_val = (full_lo[j] + t) if sigma > 0 else (full_hi[j] - t)
            self._pivot(state, r, k, new_val)
            state.at_upper[leaving] = bool(goes_upper)
            fresh = self._after_pivot(state, A, full_lo, full_hi, c_int, t)

    def _dual(self, state, full_lo, full_hi, c_int, cut) -> tuple[LpStatus, float] | None:
        """Bounded dual simplex from a dual feasible basis whose reduced
        costs `state.d` holds. Each pass takes a basic variable outside its
        bounds out to the violated bound, the dual steepest-edge choice: the
        largest `viol^2 / ||e_r B^-1||^2`, with B^-1's nonbasic logical
        columns read off the tableau. It brings in the nonbasic variable the
        dual ratio test picks, which keeps every reduced cost on its optimal
        side. Returns None once every basic variable is within its bounds;
        `(INFEASIBLE, residual)` when the leaving row has no entering
        candidate (the dual is unbounded), with the residual that row's ray
        proves; and `(CUTOFF, bound)` once the maximized objective's proven
        bound falls strictly below `cut`. The running objective, the basic
        solution's `c_int x`, moves by the entering reduced cost times its
        step and is recomputed after a refactorization; only when it is
        below `cut` is the bound proven."""
        movable = full_hi > full_lo
        state.streak = 0
        obj = _objective(state, c_int, full_lo, full_hi) if cut > -np.inf else np.inf
        while True:
            self._count_pass(state, "dual")
            bland = state.streak >= BLAND_AFTER
            xB, basis, nb = state.xB, state.basis, state.nb
            lo_B = full_lo[basis]
            hi_B = full_hi[basis]
            below = lo_B - xB
            viol = np.maximum(below, xB - hi_B)
            rows = (viol > FEAS_TOL).nonzero()[0]
            if rows.size == 0:
                return None
            if obj < cut:
                bound = self._dual_bound(_on_rows(-state.d, nb, self.n, self.m), c_int, full_lo, full_hi)
                if bound < cut:
                    return LpStatus.CUTOFF, bound
            if bland:
                r = rows[basis[rows].argmin()]
            else:
                r = rows[(np.square(viol[rows]) / _steepest_edge_weights(state, rows, self.n)).argmax()]
            up = below[r] > 0  # the leaving variable rises to its lower bound
            alpha = state.T[r]
            sigma = np.where(state.at_upper[nb], -1.0, 1.0)  # direction each nonbasic can move
            # how fast moving each nonbasic off its bound pushes x_Br toward the violated bound
            push = alpha * sigma
            if up:
                push = -push
            cand = (movable[nb] & (push > PIVOT_TOL)).nonzero()[0]
            if cand.size == 0:
                return LpStatus.INFEASIBLE, self._ray_residual(state, r, full_lo, full_hi)
            slack = np.maximum(-sigma[cand] * state.d[cand], 0.0)  # dual slack: room before d_j changes sign
            rate = push[cand]
            ratio = slack / rate
            if bland:  # the lowest column among the ties, for a fixed order
                ties = (ratio <= ratio.min() + 1e-12).nonzero()[0]
                i = ties[nb[cand[ties]].argmin()]
            else:
                # Harris: the longest dual step that keeps each slack above
                # -OPT_TOL, then the largest pivot element within it
                within = (ratio <= ((slack + OPT_TOL) / rate).min()).nonzero()[0]
                i = within[rate[within].argmax()]
            k = cand[i]
            j = nb[k]
            target = lo_B[r] if up else hi_B[r]
            dx = (xB[r] - target) / alpha[k]
            new_val = (full_hi[j] if state.at_upper[j] else full_lo[j]) + dx
            leaving = basis[r]
            obj += state.d[k] * dx
            state.xB = xB - state.T[:, k] * dx
            self._pivot(state, r, k, new_val)
            state.at_upper[leaving] = not up
            if self._after_pivot(state, self.A, full_lo, full_hi, c_int, ratio[i]) and cut > -np.inf:
                obj = _objective(state, c_int, full_lo, full_hi)

    def _count_pass(self, state: _State, kind: str) -> None:
        """Count one pricing pass of the state's attempt under `kind`; an
        attempt that would pass `max_iter` is a numerical breakdown."""
        if state.passes >= self.max_iter:
            raise NumericalBreakdown(f"iteration limit {self.max_iter} exceeded")
        state.passes += 1
        state.counts[kind] += 1

    def _after_pivot(self, state: _State, A, full_lo, full_hi, c_int, step) -> bool:
        """Close a pivot that moved the entering variable or the dual by
        `step`: a degenerate step extends the streak that switches to
        Bland's rule at `BLAND_AFTER` and any other ends it, and every
        `REFACTOR_EVERY` pivots the tableau is refactorized over `A` with
        fresh reduced costs. Returns whether it was."""
        state.streak = state.streak + 1 if step <= _DEGEN_TOL else 0
        state.age += 1
        if state.age < REFACTOR_EVERY:
            return False
        self._refactor(state, A, full_lo, full_hi)
        state.d = _reduced_costs(state, c_int)
        return True


@dataclass
class _State:
    T: np.ndarray         # B^-1 A over the nonbasic columns, one position each
    basis: np.ndarray     # the column basic in each row
    nb: np.ndarray        # the column held at each tableau position
    xB: np.ndarray
    at_upper: np.ndarray  # per column
    counts: dict  # pricing passes per loop kind and refactorizations, shared by a solve's attempts
    d: np.ndarray | None = None  # reduced costs at each position, carried through pivots
    age: int = 0  # pivots since the tableau's last refactorization
    passes: int = 0  # pricing passes of this solve attempt, against the engine's `max_iter`
    streak: int = 0  # consecutive degenerate pivots in the running loop


def _reduced_costs(state: _State, c: np.ndarray) -> np.ndarray:
    """The reduced-cost row `c_N - c_B B^-1 A_N`, recomputed from `c`."""
    return c[state.nb] - c[state.basis] @ state.T


def _objective(state: _State, c: np.ndarray, full_lo, full_hi) -> float:
    """`c x` at the state's basic solution."""
    return float(c[state.basis] @ state.xB + c @ _resting(state, full_lo, full_hi))


def _entering(state: _State, movable, bland: bool) -> int:
    """The position whose variable enters: the largest reduced cost that
    moving off its bound improves, or under Bland's rule the lowest column
    index among the improving ones; -1 when none improves by `OPT_TOL`."""
    nb = state.nb
    gain = np.where(state.at_upper[nb], -state.d, state.d)
    gain[~movable[nb]] = 0.0
    cand = (gain > OPT_TOL).nonzero()[0]
    if cand.size == 0:
        return -1
    return int(cand[nb[cand].argmin()] if bland else gain.argmax())


def _steepest_edge_weights(state: _State, rows: np.ndarray, n: int) -> np.ndarray:
    """Squared norms of B^-1's `rows` on the skeleton of `n` structurals:
    B^-1 is the tableau's columns at the nonbasic logicals, and a unit
    vector at each basic one."""
    return np.square(state.T[rows]) @ (state.nb >= n) + (state.basis[rows] >= n)


def _on_rows(v: np.ndarray, nb: np.ndarray, n: int, m: int) -> np.ndarray:
    """A row vector from position values `v`: the value at each nonbasic
    logical's position goes to that logical's row, and every other row, one
    whose logical is basic, gets 0."""
    y = np.zeros(m)
    logical = nb >= n
    y[nb[logical] - n] = v[logical]
    return y


def _resting(state: _State, full_lo, full_hi) -> np.ndarray:
    """Every column's nonbasic value at the state's at-upper flags, zero at
    the basic ones."""
    x_nb = np.where(state.at_upper, np.where(np.isfinite(full_hi), full_hi, 0.0), full_lo)
    x_nb[state.basis] = 0.0
    return x_nb


def row_duals(sol: LpSolution) -> np.ndarray:
    """The row duals `y = c_B B^-1` of an optimal solution, one per row of
    its engine, for the engine's rows (a `>=` row negated) and the
    maximized objective (a minimized one negated). The logical of row `i`
    is the unit column `e_i` with cost 0, so its reduced cost is `-y_i`:
    `y` is minus the reduced costs at the nonbasic logicals and 0 at the
    basic ones, read without a factorization."""
    tab = sol.tableau
    return _on_rows(-tab.d, tab.nb, tab.engine.n, tab.engine.m)

