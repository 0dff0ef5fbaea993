"""Bounded-variable simplex: a cold two-phase primal solve and a
warm-started dual path.

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
and phase 2 optimizes the real objective on the skeleton alone. The
tableau is dense and is refactorized from the original data every
`refactor_every` pivots to shed accumulated error; the pivots are counted
since the tableau's last refactorization, across every solve that inherits
it. Bland's rule takes over
entering/leaving selection after a run of degenerate pivots, which bounds
the total pivot count.

A solve may start from an earlier solution's basis and nonbasic-at-upper
flags. An optimal solution also carries its final tableau; a start that
passes it along adopts a copy in place of a refactorization when it came
from the same engine and every nonbasic variable rests where it rested when
the basic values were last computed (a branched binary is basic, and a
bound-tightening sweep changes only the objective). Otherwise the basis is
refactorized under the new bounds and objective. If it
is still primal feasible (the next objective of a bound-tightening sweep,
or a robustness root started from its query's shared phase-1 basis),
phase 2 runs from it directly. If it is dual feasible instead (a
branch-and-bound child, whose bounds differ from its parent's in one
binary), a bounded dual simplex restores primal feasibility and one primal
phase-2 pass cleans up. The dual simplex prices by dual steepest edge
(Forrest & Goldfarb 1992): the leaving row maximizes its squared bound
violation over the squared norm of its row of B^-1. The skeleton's tableau
is B^-1 [A | I], so those exact weights are read off its logical columns
and need no update formula. When the dual simplex finds a violated row
with no entering column, that row's dual ray is re-derived from the
original data and bounded over the variables' box. It decides the solve
infeasible only if it proves an L1 row residual above `feas_tol`, the level
phase 1 would need to see to reject the LP. Any other outcome of the warm
path, a weaker ray, an iteration limit or a numerical breakdown, falls back
to the cold solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidArg, NumericalBreakdown

if TYPE_CHECKING:  # import for annotations only; milp depends on bounds, not on us
    from .milp import MilpProblem


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


class WarmStart(Enum):
    NONE = "none"              # no start basis given: cold two-phase solve
    USED = "used"              # the warm path reached the optimum or proved infeasibility
    FELL_BACK = "fell_back"    # the warm path did not; the cold solve decided
    BROKE_DOWN = "broke_down"  # the warm path raised NumericalBreakdown; the cold solve decided


@dataclass(frozen=True)
class SimplexOptions:
    feas_tol: float = 1e-7
    opt_tol: float = 1e-7
    pivot_tol: float = 1e-9
    bland_after: int = 50      # consecutive degenerate pivots before Bland's rule
    refactor_every: int = 100  # pivots since the tableau's last refactorization, across inheriting solves

    def as_dict(self) -> dict:
        return {
            "feas_tol": self.feas_tol,
            "opt_tol": self.opt_tol,
            "pivot_tol": self.pivot_tol,
            "bland_after": self.bland_after,
            "refactor_every": self.refactor_every,
        }


@dataclass(eq=False)
class Tableau:
    """An optimal solve's final tableau, which a later solve of the same
    engine from the same basis may adopt: `T` is B^-1 [A | I] after `age`
    pivots since its last refactorization, and `xB` holds the basic values
    the closing refactorization computed with the nonbasic values `x_nb`."""

    engine: PreparedLp
    basis: np.ndarray
    T: np.ndarray
    xB: np.ndarray
    x_nb: np.ndarray
    age: int


@dataclass
class LpSolution:
    """One solve's outcome. Pivot counts are pricing passes (basis changes,
    bound flips and one final pass per loop), counted over every path the
    solve took, a warm attempt that fell back included. `refactors` counts
    the tableau refactorizations of a warm start or of every
    `refactor_every` pivots, not the closing one that computes the point."""

    status: LpStatus
    x: np.ndarray | None = None          # structural variable values
    objective: float | None = None
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None   # nonbasic-at-upper flag per structural and per logical
                                         # column; with `basis`, a warm start
    infeasibility: float = 0.0           # when Infeasible: phase 1's L1 residual, or the one a dual ray proves
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    dual_pivots: int = 0
    warm: WarmStart = WarmStart.NONE
    refactors: int = 0
    inherited: bool = False               # the warm start adopted its start's tableau
    tableau: Tableau | None = field(default=None, repr=False)  # when Optimal; `start`'s third item

    @property
    def iterations(self) -> int:
        return self.phase1_pivots + self.phase2_pivots + self.dual_pivots


@dataclass
class SolveStats:
    """LP work summed over many solves, and the B&B nodes whose solve broke
    down."""

    lp_solves: int = 0
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    dual_pivots: int = 0
    warm_starts: int = 0     # solves given a start basis
    warm_fallbacks: int = 0  # of those, solves the cold path decided after all
    breakdowns: int = 0      # of those fallbacks, warm paths that raised NumericalBreakdown
    ray_infeasible: int = 0  # infeasible verdicts the warm path proved with a dual ray
    node_breakdowns: int = 0  # B&B nodes whose solve raised NumericalBreakdown, left open
    refactors: int = 0       # tableau refactorizations, warm starts' and pivot-age ones
    inherited: int = 0       # warm starts that adopted their start's tableau

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
        self.inherited += sol.inherited

    def merge(self, other: SolveStats) -> None:
        for k, v in asdict(other).items():
            setattr(self, k, getattr(self, k) + v)

    def as_dict(self) -> dict:
        d = asdict(self)
        total = self.phase1_pivots + self.phase2_pivots + self.dual_pivots
        d["phase1_share"] = self.phase1_pivots / total if total else 0.0
        d["dual_per_warm"] = self.dual_pivots / self.warm_starts if self.warm_starts else 0.0
        return d


_DEGEN_TOL = 1e-10


class PreparedLp:
    """One LP skeleton solved many times under changing variable bounds.

    The constructor writes every row as `a x + s = b` with one logical `s`
    per row: a `>=` row is negated once, and the identity is appended after
    the n structural columns. A logical is bounded `[0, inf)` on an
    inequality row and `[0, 0]` on an equality row, so nothing after the
    constructor needs the row senses. Bases and at-upper flags index these
    n + m columns only; artificials live inside a cold solve's phase 1.

    Rows and objective stay fixed; `solve` takes the structural bounds for
    this call (branch-and-bound fixes binaries that way), an optional
    objective override (bound tightening sweeps one) and an optional start
    basis from an earlier solve of the same skeleton, with that solve's
    tableau if it was optimal.
    """

    def __init__(
        self,
        c: np.ndarray,
        maximize: bool,
        A: np.ndarray,
        senses,
        b: np.ndarray,
        options: SimplexOptions | None = None,
    ):
        self.opts = options or SimplexOptions()
        A = np.asarray(A, dtype=float)
        if A.ndim != 2:
            raise InvalidArg("A must be a matrix")
        self.m, self.n = A.shape
        b = np.asarray(b, dtype=float)
        self.c = np.asarray(c, dtype=float).copy()
        self.maximize = maximize
        senses = np.asarray(list(senses), dtype=str)
        if senses.shape != (self.m,) or b.shape != (self.m,) or self.c.shape != (self.n,):
            raise InvalidArg("row/objective shapes inconsistent")
        if not np.isin(senses, ("<=", "=", ">=")).all():
            raise InvalidArg("row sense must be <=, = or >=")
        sign = np.where(senses == ">=", -1.0, 1.0)
        self.A = np.hstack((A * sign[:, None], np.eye(self.m)))  # structurals | logicals
        self.b = b * sign
        self.logical_hi = np.where(senses == "=", 0.0, np.inf)
        self.ncols = self.n + self.m

    # ------------------------------------------------------------------
    def solve(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        c_override: np.ndarray | None = None,
        maximize: bool | None = None,
        start: tuple | None = None,
    ) -> LpSolution:
        """Solve under structural bounds `lo`/`hi`. `start` is an earlier
        solution's `(basis, at_upper)` or `(basis, at_upper, tableau)` on
        this skeleton; the solve then tries the warm path first and falls
        back to the cold one."""
        m, n, ncols = self.m, self.n, self.ncols
        lo_s = np.asarray(lo, dtype=float)
        hi_s = np.asarray(hi, dtype=float)
        if lo_s.shape != (n,) or hi_s.shape != (n,):
            raise InvalidArg("bound vectors must cover the structural variables")
        if np.any(lo_s > hi_s + 1e-12) or not (np.all(np.isfinite(lo_s)) and np.all(np.isfinite(hi_s))):
            raise InvalidArg("structural bounds must be finite with lo <= hi")

        c_user = self.c if c_override is None else np.asarray(c_override, dtype=float)
        mx = self.maximize if maximize is None else maximize
        c2 = np.zeros(ncols)
        c2[:n] = c_user if mx else -c_user
        full_lo = np.concatenate((lo_s, np.zeros(m)))
        full_hi = np.concatenate((hi_s, self.logical_hi))
        max_iter = 10_000 + 40 * (m + ncols)
        counts = {"phase1": 0, "phase2": 0, "dual": 0, "refactors": 0, "inherited": 0}

        warm = WarmStart.NONE
        outcome = None
        if start is not None:
            try:
                outcome = self._solve_warm(full_lo, full_hi, c2, start, max_iter, counts)
                warm = WarmStart.USED if outcome is not None else WarmStart.FELL_BACK
            except NumericalBreakdown:
                warm = WarmStart.BROKE_DOWN
        if outcome is None:
            outcome = self._solve_cold(full_lo, full_hi, c2, max_iter, counts)
        status, state, infeasibility = outcome
        stats = dict(
            phase1_pivots=counts["phase1"],
            phase2_pivots=counts["phase2"],
            dual_pivots=counts["dual"],
            warm=warm,
            refactors=counts["refactors"],
            inherited=bool(counts["inherited"]),
        )
        if status is not LpStatus.OPTIMAL:
            return LpSolution(status=status, infeasibility=infeasibility, **stats)

        # clean basic values from the original data, then read the point off
        # the basis; the tableau goes with the solution as it is
        x_nb = self._refactor(state, self.A, full_lo, full_hi, tableau=False)
        x_full = np.where(state.at_upper, np.minimum(full_hi, np.finfo(float).max), full_lo)
        x_full[state.basis] = state.xB
        x = x_full[:n].copy()
        np.clip(x, lo_s, hi_s, out=x)
        val = float(c2[:n] @ x)
        return LpSolution(
            status=LpStatus.OPTIMAL,
            x=x,
            objective=val if mx else -val,
            basis=state.basis,
            at_upper=state.at_upper,
            tableau=Tableau(self, state.basis, state.T, state.xB, x_nb, state.age),
            **stats,
        )

    def _solve_cold(self, full_lo, full_hi, c2, max_iter, counts):
        """Two-phase solve from the logical basis, structurals at their lower
        bounds. Every equality row, and every inequality row whose logical
        would start negative, gets a signed artificial column in a
        phase-1-local matrix. Phase 1 drives the artificials to zero, they
        are expelled from the basis and dropped, and phase 2 runs on the
        skeleton. Returns the status, the optimal state or None, and the
        phase-1 residual."""
        opts = self.opts
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
        xB = np.abs(resid)  # resid itself on every row a logical holds
        row_sign = np.ones(m)
        row_sign[art] = sigma
        in_basis = np.zeros(ncols + k, dtype=bool)
        in_basis[basis] = True
        state = _State(
            T=A1 * row_sign[:, None],  # B^-1 A1 for this basis of signed unit columns
            basis=basis,
            xB=xB,
            at_upper=np.zeros(ncols + k, dtype=bool),
            in_basis=in_basis,
            counts=counts,
        )

        if k:
            lo1 = np.concatenate((full_lo, np.zeros(k)))
            hi1 = np.concatenate((full_hi, np.full(k, np.inf)))
            c1 = np.concatenate((np.zeros(ncols), np.full(k, -1.0)))
            status, iters = self._iterate(state, A1, lo1, hi1, c1, max_iter, "phase1")
            max_iter -= iters
            if status is LpStatus.UNBOUNDED:  # cannot happen: phase-1 objective <= 0
                raise NumericalBreakdown("phase 1 reported unbounded")
            art_sum = float(np.maximum(state.xB[state.basis >= ncols], 0.0).sum())
            if art_sum > opts.feas_tol:
                return LpStatus.INFEASIBLE, None, art_sum
            self._expel_artificials(state, full_lo, full_hi)
            # every artificial is nonbasic at zero now; drop their columns
            state.T = np.ascontiguousarray(state.T[:, :ncols])
            state.at_upper = state.at_upper[:ncols]
            state.in_basis = state.in_basis[:ncols]

        status, _ = self._iterate(state, self.A, full_lo, full_hi, c2, max_iter, "phase2")
        if status is not LpStatus.OPTIMAL:
            return status, None, 0.0
        return status, state, 0.0

    def _solve_warm(self, full_lo, full_hi, c2, start, max_iter, counts):
        """Re-solve from a start basis. Returns what `_solve_cold` returns
        when the warm path reaches an optimum or proves infeasibility, or
        None when it can do neither. A tableau carried with the start is
        adopted in place of a refactorization when it came from this engine,
        fits the basis, is younger than `refactor_every` pivots and its
        basic values were computed with the nonbasic values these bounds
        give, so that they are what a refactorization would compute."""
        opts = self.opts
        m, ncols = self.m, self.ncols
        basis = np.array(start[0], dtype=int)
        at_upper = np.array(start[1], dtype=bool)
        tab = start[2] if len(start) > 2 else None
        if (
            len(start) > 3
            or basis.shape != (m,)
            or at_upper.shape != (ncols,)
            or np.any(basis < 0)
            or np.any(basis >= ncols)
            or np.unique(basis).size != m
            or not (tab is None or (isinstance(tab, Tableau) and tab.T.shape == (m, ncols) and tab.xB.shape == (m,)))
        ):
            raise InvalidArg("start does not fit this LP")
        in_basis = np.zeros(ncols, dtype=bool)
        in_basis[basis] = True
        at_upper &= ~in_basis & np.isfinite(full_hi)
        state = _State(T=None, basis=basis, xB=None, at_upper=at_upper, in_basis=in_basis, counts=counts)
        if (
            tab is not None
            and tab.engine is self
            and tab.age < opts.refactor_every
            and np.array_equal(tab.basis, basis)
            and np.array_equal(tab.x_nb, _resting(state, full_lo, full_hi))
        ):
            state.T, state.xB, state.age = tab.T.copy(), tab.xB.copy(), tab.age
            counts["inherited"] = 1
        else:
            self._refactor(state, self.A, full_lo, full_hi)

        lo_B, hi_B = full_lo[basis], full_hi[basis]
        if np.any(state.xB < lo_B - opts.feas_tol) or np.any(state.xB > hi_B + opts.feas_tol):
            d = c2 - c2[basis] @ state.T
            movable = full_hi > full_lo
            dual_infeasible = ~in_basis & movable & np.where(at_upper, d < -opts.opt_tol, d > opts.opt_tol)
            if dual_infeasible.any():
                return None
            status, iters, residual = self._dual(state, full_lo, full_hi, c2, max_iter)
            if status is LpStatus.INFEASIBLE:
                return (status, None, residual) if residual > opts.feas_tol else None
            max_iter -= iters
        status, _ = self._iterate(state, self.A, full_lo, full_hi, c2, max_iter, "phase2")
        if status is not LpStatus.OPTIMAL:
            return None
        return status, state, 0.0

    def _ray_residual(self, state, r, full_lo, full_hi) -> float:
        """Phase-1 residual proven by the dual ray of basic row `r`, which
        the dual simplex found with no entering column; 0.0 proves nothing.

        The ray is re-derived from the original data: `y` solves
        `B^T y = e_r`, so every solution of the rows has
        `x_Br = y.b - sum_N a_j x_j` with `a = y A`. If the range of the
        right side over the nonbasic columns' box misses `[lo_r, hi_r]` by
        `g`, then `|y.(b - A x)| >= g` at every point of the box, and the L1
        row residual that phase 1 minimizes is at least `g / ||y||_inf`.
        A logical `s = b_i - a_i x` is capped at the most its row's activity
        over the structural box allows; phase 1 gains nothing from a logical
        beyond that, so the bound stays a bound on its residual.
        """
        n = self.n
        basis = state.basis
        e_r = np.zeros(self.m)
        e_r[r] = 1.0
        try:
            y = np.linalg.solve(self.A[:, basis].T, e_r)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("singular basis while checking a dual ray") from exc
        a = y @ self.A
        a[basis] = 0.0
        lo, hi = full_lo, full_hi.copy()
        A_s = self.A[:, :n]
        mid = A_s @ ((lo[:n] + hi[:n]) / 2)
        rad = np.abs(A_s) @ ((hi[:n] - lo[:n]) / 2)
        hi[n:] = np.minimum(hi[n:], np.maximum(self.b - mid + rad, 0.0))
        yb = float(y @ self.b)
        x_lo = yb - float(np.maximum(a * lo, a * hi).sum())
        x_hi = yb - float(np.minimum(a * lo, a * hi).sum())
        j = basis[r]
        g = max(lo[j] - x_hi, x_lo - hi[j])
        return float(max(g, 0.0) / np.abs(y).max())

    # ------------------------------------------------------------------
    def _refactor(self, state: _State, A, full_lo, full_hi, tableau: bool = True) -> np.ndarray:
        """Recompute the basic values, and the tableau unless `tableau` is
        False, from the original data; `A` is the skeleton, or phase 1's
        matrix with its artificial columns. Returns the nonbasic values the
        basic values were computed with."""
        x_nb = _resting(state, full_lo, full_hi)
        rhs = self.b - A @ x_nb
        try:  # one factorization of B serves the tableau and the basic values
            sol = np.linalg.solve(A[:, state.basis], np.column_stack((A, rhs)) if tableau else rhs)
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
        """Swap each basic artificial, at zero after phase 1, for the first
        nonbasic structural or logical column with a pivot element in its
        row. The primal point is unchanged, so the entering variable keeps
        its resting value. The tableau's logical block is B^-1, whose row
        at an artificial is nonzero and vanishes at every basic logical, so
        some nonbasic logical has an entry there; a row without one above
        `pivot_tol` is a numerical breakdown."""
        ncols = self.ncols
        for r in np.flatnonzero(state.basis >= ncols):
            cand = np.flatnonzero((np.abs(state.T[r, :ncols]) > self.opts.pivot_tol) & ~state.in_basis[:ncols])
            if cand.size == 0:
                raise NumericalBreakdown("no pivot element to expel an artificial")
            j = int(cand[0])
            self._pivot(state, r, j, full_hi[j] if state.at_upper[j] else full_lo[j])

    def _pivot(self, state: _State, r: int, j: int, new_val: float) -> None:
        T = state.T
        piv = T[r, j]
        leaving = state.basis[r]
        state.in_basis[leaving] = False
        state.in_basis[j] = True
        state.basis[r] = j
        state.xB[r] = new_val
        state.at_upper[j] = False
        T[r] = T[r] / piv
        col = T[:, j].copy()
        col[r] = 0.0
        T -= np.outer(col, T[r])

    # ------------------------------------------------------------------
    def _iterate(self, state, A, full_lo, full_hi, c_int, max_iter, kind) -> tuple[LpStatus, int]:
        """Primal simplex from a primal feasible basis over the columns of
        `A`; `kind` names the phase its pricing passes are counted under."""
        opts = self.opts
        pivot_tol = opts.pivot_tol
        span = full_hi - full_lo
        movable = span > 0
        iters = 0
        degen_streak = 0
        bland = False
        while True:
            if iters >= max_iter:
                raise NumericalBreakdown(f"iteration limit {max_iter} exceeded")
            iters += 1
            state.counts[kind] += 1
            d = c_int - c_int[state.basis] @ state.T
            lower_ok = (~state.in_basis) & (~state.at_upper) & movable & (d > opts.opt_tol)
            upper_ok = (~state.in_basis) & state.at_upper & movable & (d < -opts.opt_tol)
            elig = lower_ok | upper_ok
            if not elig.any():
                return LpStatus.OPTIMAL, iters
            if bland:
                j = int(np.flatnonzero(elig)[0])
            else:
                score = np.where(elig, np.abs(d), -np.inf)
                j = int(np.argmax(score))
            sigma = -1.0 if state.at_upper[j] else 1.0
            w = state.T[:, j] * sigma  # xB moves by -w * t

            lo_B = full_lo[state.basis]
            hi_B = full_hi[state.basis]
            xB = state.xB
            with np.errstate(divide="ignore", invalid="ignore"):
                down_room = np.maximum(xB - lo_B, 0.0)
                up_room = np.maximum(hi_B - xB, 0.0)
                ratios = np.where(
                    w > pivot_tol,
                    down_room / np.where(w > pivot_tol, w, 1.0),
                    np.where(w < -pivot_tol, up_room / np.where(w < -pivot_tol, -w, 1.0), np.inf),
                )
            r = -1
            t_rows = np.inf
            if np.isfinite(ratios).any():
                t_rows = float(np.min(ratios))
                ties = np.flatnonzero(ratios <= t_rows + 1e-12)
                if bland:
                    r = int(ties[np.argmin(state.basis[ties])])
                else:
                    r = int(ties[np.argmax(np.abs(w[ties]))])
            t_own = span[j]

            if t_own <= t_rows:
                if not np.isfinite(t_own):
                    return LpStatus.UNBOUNDED, iters
                # bound flip: variable jumps to its other bound, basis unchanged
                state.xB = xB - w * t_own
                state.at_upper[j] = not state.at_upper[j]
                degen_streak = 0
                bland = False
                continue
            if r < 0:
                return LpStatus.UNBOUNDED, iters

            t = t_rows
            leaving = state.basis[r]
            state.xB = xB - w * t
            goes_upper = w[r] < 0
            new_val = (full_lo[j] + t) if sigma > 0 else (full_hi[j] - t)
            self._pivot(state, r, j, new_val)
            state.at_upper[leaving] = bool(goes_upper)

            if t <= _DEGEN_TOL:
                degen_streak += 1
                if degen_streak >= opts.bland_after:
                    bland = True
            else:
                degen_streak = 0
                bland = False
            state.age += 1
            if state.age >= opts.refactor_every:
                self._refactor(state, A, full_lo, full_hi)

    def _dual(self, state, full_lo, full_hi, c_int, max_iter) -> tuple[LpStatus, int, float]:
        """Bounded dual simplex from a dual feasible basis. Each pass takes
        a basic variable outside its bounds out to the violated bound, the
        dual steepest-edge choice: the largest `viol^2 / ||e_r B^-1||^2`,
        with B^-1 read off the tableau's logical columns. It brings in the
        nonbasic variable the dual ratio test picks, which keeps every
        reduced cost on its optimal side. INFEASIBLE means the leaving row
        had no entering candidate (the dual is unbounded); it comes with the
        residual that row's ray proves. Returns the status, the passes made
        and that residual."""
        opts = self.opts
        movable = full_hi > full_lo
        iters = 0
        degen_streak = 0
        bland = False
        while True:
            if iters >= max_iter:
                raise NumericalBreakdown(f"dual iteration limit {max_iter} exceeded")
            iters += 1
            state.counts["dual"] += 1
            lo_B = full_lo[state.basis]
            hi_B = full_hi[state.basis]
            below = lo_B - state.xB
            viol = np.maximum(below, state.xB - hi_B)
            rows = np.flatnonzero(viol > opts.feas_tol)
            if rows.size == 0:
                return LpStatus.OPTIMAL, iters, 0.0
            if bland:
                r = int(rows[np.argmin(state.basis[rows])])
            else:
                # dual steepest edge: T[:, n:] is B^-1 on the skeleton, so a
                # row's exact weight is the squared norm of its B^-1 row
                B_inv = state.T[rows, self.n:]
                r = int(rows[np.argmax(viol[rows] ** 2 / np.einsum("ij,ij->i", B_inv, B_inv))])
            up = below[r] > 0  # the leaving variable rises to its lower bound
            alpha = state.T[r]
            sigma = np.where(state.at_upper, -1.0, 1.0)  # direction each nonbasic can move
            # how fast moving each nonbasic off its bound pushes x_Br toward the violated bound
            push = -alpha * sigma if up else alpha * sigma
            cand = np.flatnonzero(~state.in_basis & movable & (push > opts.pivot_tol))
            if cand.size == 0:
                return LpStatus.INFEASIBLE, iters, self._ray_residual(state, r, full_lo, full_hi)
            d = c_int - c_int[state.basis] @ state.T
            slack = np.maximum(-sigma[cand] * d[cand], 0.0)  # dual slack: room before d_j changes sign
            rate = push[cand]
            ratio = slack / rate
            if bland:
                k = int(np.flatnonzero(ratio <= ratio.min() + 1e-12)[0])
            else:
                # Harris: the longest dual step that keeps each slack above
                # -opt_tol, then the largest pivot element within it
                within = np.flatnonzero(ratio <= np.min((slack + opts.opt_tol) / rate))
                k = int(within[np.argmax(rate[within])])
            j = int(cand[k])
            target = lo_B[r] if up else hi_B[r]
            dx = (state.xB[r] - target) / alpha[j]
            new_val = (full_hi[j] if state.at_upper[j] else full_lo[j]) + dx
            leaving = state.basis[r]
            state.xB = state.xB - state.T[:, j] * dx
            self._pivot(state, r, j, new_val)
            state.at_upper[leaving] = not up

            if ratio[k] <= _DEGEN_TOL:
                degen_streak += 1
                if degen_streak >= opts.bland_after:
                    bland = True
            else:
                degen_streak = 0
                bland = False
            state.age += 1
            if state.age >= opts.refactor_every:
                self._refactor(state, self.A, full_lo, full_hi)


@dataclass
class _State:
    T: np.ndarray | None
    basis: np.ndarray
    xB: np.ndarray | None
    at_upper: np.ndarray
    in_basis: np.ndarray
    counts: dict  # pricing passes per loop kind and refactorizations, shared by a solve's attempts
    age: int = 0  # pivots since the tableau's last refactorization


def _resting(state: _State, full_lo, full_hi) -> np.ndarray:
    """Every column's nonbasic value at the state's at-upper flags, zero at
    the basic ones."""
    x_nb = np.where(state.at_upper, np.where(np.isfinite(full_hi), full_hi, 0.0), full_lo)
    x_nb[state.basis] = 0.0
    return x_nb


def solve_dense(
    c,
    maximize: bool,
    A,
    senses,
    b,
    lo,
    hi,
    options: SimplexOptions | None = None,
) -> LpSolution:
    """One-shot solve of a dense LP with bounded variables."""
    eng = PreparedLp(c=np.asarray(c, dtype=float), maximize=maximize, A=A, senses=senses, b=b, options=options)
    return eng.solve(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))


# ---------------------------------------------------------------------------
# problem-level entry points

def _dense_rows(p) -> tuple[np.ndarray, list, np.ndarray]:
    n = p.num_vars
    m = len(p.rows)
    A = np.zeros((m, n))
    senses, b = [], np.zeros(m)
    for i, row in enumerate(p.rows):
        A[i, row.idx] = row.coef
        senses.append(row.sense)
        b[i] = row.rhs
    return A, senses, b


def prepare(p: MilpProblem) -> PreparedLp:
    """Build the reusable solver skeleton for a problem's rows and objective."""
    A, senses, b = _dense_rows(p)
    c = np.zeros(p.num_vars)
    c[p.obj_idx] = p.obj_coef
    return PreparedLp(c=c, maximize=p.obj_sense == "max", A=A, senses=senses, b=b)


def relaxed_bounds(p: MilpProblem, relax: dict | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Bounds with binaries relaxed to [0,1] or fixed per the relax map."""
    lo = p.lo.copy()
    hi = p.hi.copy()
    for j in np.flatnonzero(p.binary):
        lo[j], hi[j] = 0.0, 1.0
    if relax:
        for j, v in relax.items():
            if not p.binary[j]:
                raise InvalidArg(f"variable {j} is not binary")
            if isinstance(v, tuple):
                lo[j], hi[j] = float(v[0]), float(v[1])
            else:
                lo[j] = hi[j] = float(v)
    return lo, hi


def solve_lp(p: MilpProblem, relax: dict | None = None) -> LpSolution:
    """Solve the LP relaxation of `p` with binaries relaxed or fixed.

    The reported objective includes the problem's constant offset and is in
    the problem's own sense.
    """
    eng = prepare(p)
    lo, hi = relaxed_bounds(p, relax)
    sol = eng.solve(lo, hi)
    if sol.status is LpStatus.OPTIMAL:
        sol.objective = float(sol.objective + p.obj_offset)
    return sol
