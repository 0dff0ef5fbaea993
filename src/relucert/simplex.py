"""Bounded-variable simplex: a cold two-phase primal solve and a
warm-started dual path.

Variables carry individual lower/upper bounds and nonbasic variables rest
at one of them, so the ReLU encodings' many bound constraints never become
rows. The cold solve's phase 1 drives signed artificial variables to zero;
phase 2 optimizes the real objective. The tableau is dense and is
refactorized from the original data every `refactor_every` pivots to shed
accumulated error. Bland's rule takes over entering/leaving selection after
a run of degenerate pivots, which bounds the total pivot count.

A solve may start from an earlier solution's basis and nonbasic-at-upper
flags. The basis is refactorized under the new bounds and objective. If it
is still primal feasible (the next objective of a bound-tightening sweep),
phase 2 runs from it directly. If it is dual feasible instead (a
branch-and-bound child, whose bounds differ from its parent's in one
binary), a bounded dual simplex restores primal feasibility and one primal
phase-2 pass cleans up. When the dual simplex finds a violated row with no
entering column, that row's dual ray is re-derived from the original data
and bounded over the variables' box. It decides the solve infeasible only
if it proves an L1 row residual above `feas_tol`, the level phase 1 would
need to see to reject the LP. Any other outcome of the warm path, a weaker
ray, an iteration limit or a numerical breakdown, falls back to the cold
solve.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
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
    refactor_every: int = 100  # pivots between refactorizations

    def as_dict(self) -> dict:
        return {
            "feas_tol": self.feas_tol,
            "opt_tol": self.opt_tol,
            "pivot_tol": self.pivot_tol,
            "bland_after": self.bland_after,
            "refactor_every": self.refactor_every,
        }


@dataclass
class LpSolution:
    """One solve's outcome. Pivot counts are pricing passes (basis changes,
    bound flips and one final pass per loop), counted over every path the
    solve took, a warm attempt that fell back included."""

    status: LpStatus
    x: np.ndarray | None = None          # structural variable values
    objective: float | None = None
    basis: np.ndarray | None = None
    at_upper: np.ndarray | None = None   # nonbasic-at-upper flag per column; with `basis`, a warm start
    infeasibility: float = 0.0           # when Infeasible: phase 1's L1 residual, or the one a dual ray proves
    phase1_pivots: int = 0
    phase2_pivots: int = 0
    dual_pivots: int = 0
    warm: WarmStart = WarmStart.NONE

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

    def add(self, sol: LpSolution) -> None:
        self.lp_solves += 1
        self.phase1_pivots += sol.phase1_pivots
        self.phase2_pivots += sol.phase2_pivots
        self.dual_pivots += sol.dual_pivots
        self.warm_starts += sol.warm is not WarmStart.NONE
        self.warm_fallbacks += sol.warm in (WarmStart.FELL_BACK, WarmStart.BROKE_DOWN)
        self.breakdowns += sol.warm is WarmStart.BROKE_DOWN
        self.ray_infeasible += sol.warm is WarmStart.USED and sol.status is LpStatus.INFEASIBLE

    def merge(self, other: SolveStats) -> None:
        for k, v in asdict(other).items():
            setattr(self, k, getattr(self, k) + v)

    def as_dict(self) -> dict:
        d = asdict(self)
        total = self.phase1_pivots + self.phase2_pivots + self.dual_pivots
        d["phase1_share"] = self.phase1_pivots / total if total else 0.0
        return d


_DEGEN_TOL = 1e-10


class PreparedLp:
    """One LP skeleton solved many times under changing variable bounds.

    Rows and objective stay fixed; `solve` takes the structural bounds for
    this call (branch-and-bound fixes binaries that way), an optional
    objective override (bound tightening sweeps one) and an optional start
    basis from an earlier solve of the same skeleton.
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
        self.b = np.asarray(b, dtype=float).copy()
        self.c = np.asarray(c, dtype=float).copy()
        self.maximize = maximize
        senses = list(senses)
        if len(senses) != self.m or self.b.shape != (self.m,) or self.c.shape != (self.n,):
            raise InvalidArg("row/objective shapes inconsistent")
        if not all(s in ("<=", "=", ">=") for s in senses):
            raise InvalidArg("row sense must be <=, = or >=")
        self.senses = senses
        # column layout: structurals | slacks | artificials
        self.slack_of_row = np.full(self.m, -1, dtype=int)
        slack_cols = []
        for i, s in enumerate(senses):
            if s != "=":
                self.slack_of_row[i] = self.n + len(slack_cols)
                col = np.zeros(self.m)
                col[i] = 1.0 if s == "<=" else -1.0
                slack_cols.append(col)
        self.n_slack = len(slack_cols)
        self.art0 = self.n + self.n_slack
        ncols = self.art0 + self.m
        self.A_full = np.zeros((self.m, ncols))
        self.A_full[:, : self.n] = A
        if slack_cols:
            self.A_full[:, self.n : self.art0] = np.array(slack_cols).T
        # artificial columns are +-identity; signs set per solve
        self.ncols = ncols

    # ------------------------------------------------------------------
    def solve(
        self,
        lo: np.ndarray,
        hi: np.ndarray,
        c_override: np.ndarray | None = None,
        maximize: bool | None = None,
        start: tuple[np.ndarray, np.ndarray] | None = None,
    ) -> LpSolution:
        """Solve under structural bounds `lo`/`hi`. `start` is an earlier
        solution's `(basis, at_upper)` on this skeleton; the solve then tries
        the warm path first and falls back to the cold one."""
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

        if m == 0:
            x = np.where(c2[:n] > 0, hi_s, lo_s)
            val = float(c2[:n] @ x)
            return LpSolution(
                status=LpStatus.OPTIMAL,
                x=x,
                objective=val if mx else -val,
                basis=np.zeros(0, dtype=int),
                at_upper=c2[:n] > 0,
            )

        full_lo = np.zeros(ncols)
        full_hi = np.zeros(ncols)  # artificials stay fixed at zero outside phase 1
        full_lo[:n] = lo_s
        full_hi[:n] = hi_s
        full_hi[n : self.art0] = np.inf  # slacks in [0, inf)
        max_iter = 10_000 + 40 * (m + ncols)
        counts = {"phase1": 0, "phase2": 0, "dual": 0}

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
        status, solved, infeasibility = outcome
        stats = dict(
            phase1_pivots=counts["phase1"], phase2_pivots=counts["phase2"], dual_pivots=counts["dual"], warm=warm
        )
        if status is not LpStatus.OPTIMAL:
            return LpSolution(status=status, infeasibility=infeasibility, **stats)
        state, A_full = solved

        # clean basic values from the original data, then read the point off
        # the basis; the tableau is not needed again
        self._refactor(state, A_full, full_lo, full_hi, tableau=False)
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
            **stats,
        )

    def _solve_cold(self, full_lo, full_hi, c2, max_iter, counts):
        """Two-phase solve from a slack/artificial basis. Returns the status,
        the optimal `(state, A_full)` or None, and the phase-1 residual."""
        opts = self.opts
        m, n, ncols = self.m, self.n, self.ncols
        full_hi = full_hi.copy()  # phase 1 frees the artificials

        # starting point: structurals at lower bound, slacks absorb what they can
        A_full = self.A_full.copy()
        resid = self.b - A_full[:, :n] @ full_lo[:n]
        basis = np.empty(m, dtype=int)
        xB = np.empty(m)
        art_rows = []
        for i in range(m):
            sl = self.slack_of_row[i]
            v = resid[i] * (1.0 if self.senses[i] == "<=" else -1.0) if sl >= 0 else -1.0
            if sl >= 0 and v >= 0.0:
                basis[i] = sl
                xB[i] = v
            else:
                a = self.art0 + i
                sigma = 1.0 if resid[i] >= 0 else -1.0
                A_full[i, a] = sigma
                full_hi[a] = np.inf
                basis[i] = a
                xB[i] = abs(resid[i])
                art_rows.append(i)

        at_upper = np.zeros(ncols, dtype=bool)
        in_basis = np.zeros(ncols, dtype=bool)
        in_basis[basis] = True
        T = A_full.copy()  # basis is identity-like: slack (+1) and signed artificials
        for i in range(m):
            s = A_full[i, basis[i]]
            if s == -1.0:  # >= slack enters with -1; normalize the row
                T[i] = -T[i]
        state = _State(T=T, basis=basis, xB=xB, at_upper=at_upper, in_basis=in_basis, counts=counts)

        if art_rows:
            c1 = np.zeros(ncols)
            c1[self.art0 :] = -1.0
            status, iters = self._iterate(state, A_full, full_lo, full_hi, c1, max_iter, "phase1")
            max_iter -= iters
            if status is LpStatus.UNBOUNDED:  # cannot happen: phase-1 objective <= 0
                raise NumericalBreakdown("phase 1 reported unbounded")
            basic_art = state.basis >= self.art0
            art_sum = float(np.maximum(state.xB[basic_art], 0.0).sum())
            if art_sum > opts.feas_tol:
                return LpStatus.INFEASIBLE, None, art_sum
            self._expel_artificials(state, full_lo, full_hi, opts)
            full_hi[self.art0 :] = 0.0  # artificials frozen at zero for phase 2

        status, _ = self._iterate(state, A_full, full_lo, full_hi, c2, max_iter, "phase2")
        if status is not LpStatus.OPTIMAL:
            return status, None, 0.0
        return status, (state, A_full), 0.0

    def _solve_warm(self, full_lo, full_hi, c2, start, max_iter, counts):
        """Re-solve from a start basis. Returns what `_solve_cold` returns
        when the warm path reaches an optimum or proves infeasibility, or
        None when it can do neither."""
        opts = self.opts
        m, ncols = self.m, self.ncols
        basis = np.array(start[0], dtype=int)
        at_upper = np.array(start[1], dtype=bool)
        if (
            basis.shape != (m,)
            or at_upper.shape != (ncols,)
            or basis.min() < 0
            or basis.max() >= ncols
            or np.unique(basis).size != m
        ):
            raise InvalidArg("start basis does not fit this LP")
        # a basic artificial sits at zero on a redundant row; its sign is immaterial
        A_full = self.A_full.copy()
        arts = basis[basis >= self.art0]
        A_full[arts - self.art0, arts] = 1.0
        in_basis = np.zeros(ncols, dtype=bool)
        in_basis[basis] = True
        at_upper &= ~in_basis & np.isfinite(full_hi)
        state = _State(T=None, basis=basis, xB=None, at_upper=at_upper, in_basis=in_basis, counts=counts)
        self._refactor(state, A_full, full_lo, full_hi)

        lo_B, hi_B = full_lo[basis], full_hi[basis]
        if np.any(state.xB < lo_B - opts.feas_tol) or np.any(state.xB > hi_B + opts.feas_tol):
            d = c2 - c2[basis] @ state.T
            movable = full_hi > full_lo
            dual_infeasible = ~in_basis & movable & np.where(at_upper, d < -opts.opt_tol, d > opts.opt_tol)
            if dual_infeasible.any():
                return None
            status, iters, residual = self._dual(state, A_full, full_lo, full_hi, c2, max_iter)
            if status is LpStatus.INFEASIBLE:
                return (status, None, residual) if residual > opts.feas_tol else None
            max_iter -= iters
        status, _ = self._iterate(state, A_full, full_lo, full_hi, c2, max_iter, "phase2")
        if status is not LpStatus.OPTIMAL:
            return None
        return status, (state, A_full), 0.0

    def _ray_residual(self, state, r, A_full, full_lo, full_hi) -> float:
        """Phase-1 residual proven by the dual ray of basic row `r`, which
        the dual simplex found with no entering column; 0.0 proves nothing.

        The ray is re-derived from the original data: `y` solves
        `B^T y = e_r`, so every solution of the rows has
        `x_Br = y.b - sum_N a_j x_j` with `a = y A`. If the range of the
        right side over the nonbasic columns' box misses `[lo_r, hi_r]` by
        `g`, then `|y.(b - A x)| >= g` at every point of the box, and the L1
        row residual that phase 1 minimizes is at least `g / ||y||_inf`.
        A slack's infinite upper bound is replaced by the most its row's
        activity over the structural box allows; phase 1 gains nothing from
        a slack beyond that, so the bound stays a bound on its residual.
        """
        m, n = self.m, self.n
        basis = state.basis
        e_r = np.zeros(m)
        e_r[r] = 1.0
        try:
            y = np.linalg.solve(A_full[:, basis].T, e_r)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("singular basis while checking a dual ray") from exc
        a = y @ A_full
        a[basis] = 0.0
        lo, hi = full_lo, full_hi.copy()
        rows = np.flatnonzero(self.slack_of_row >= 0)
        cols = self.slack_of_row[rows]
        A_s = self.A_full[rows, :n]
        mid = A_s @ ((lo[:n] + hi[:n]) / 2)
        rad = np.abs(A_s) @ ((hi[:n] - lo[:n]) / 2)
        # slack = sign * (b - activity), sign the slack's own coefficient
        hi[cols] = np.maximum(self.A_full[rows, cols] * (self.b[rows] - mid) + rad, 0.0)
        yb = float(y @ self.b)
        x_lo = yb - float(np.maximum(a * lo, a * hi).sum())
        x_hi = yb - float(np.minimum(a * lo, a * hi).sum())
        j = basis[r]
        g = max(lo[j] - x_hi, x_lo - hi[j])
        return float(max(g, 0.0) / np.abs(y).max())

    # ------------------------------------------------------------------
    def _refactor(self, state: _State, A_full, full_lo, full_hi, tableau: bool = True) -> None:
        """Recompute the basic values, and the tableau unless `tableau` is
        False, from the original data."""
        x_nb = np.where(state.at_upper, np.where(np.isfinite(full_hi), full_hi, 0.0), full_lo)
        x_nb[state.basis] = 0.0
        rhs = self.b - A_full @ x_nb
        try:  # one factorization of B serves the tableau and the basic values
            sol = np.linalg.solve(A_full[:, state.basis], np.column_stack((A_full, rhs)) if tableau else rhs)
        except np.linalg.LinAlgError as exc:
            raise NumericalBreakdown("singular basis during refactorization") from exc
        if tableau:
            state.T = sol[:, :-1]
            state.xB = sol[:, -1].copy()
        else:
            state.xB = sol

    def _expel_artificials(self, state: _State, full_lo, full_hi, opts) -> None:
        # swap zero-valued basic artificials for real columns where a pivot
        # element exists; the primal point is unchanged, so the entering
        # variable keeps its current resting value
        for r in range(self.m):
            if state.basis[r] < self.art0:
                continue
            row = state.T[r, : self.art0]
            cand = np.flatnonzero((np.abs(row) > opts.pivot_tol) & ~state.in_basis[: self.art0])
            if cand.size:
                j = int(cand[0])
                val = full_hi[j] if state.at_upper[j] else full_lo[j]
                self._pivot(state, r, j, val)
        # rows whose artificial cannot leave are redundant; it stays basic at 0

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
    def _iterate(self, state, A_full, full_lo, full_hi, c_int, max_iter, kind) -> tuple[LpStatus, int]:
        """Primal simplex from a primal feasible basis; `kind` names the
        phase its pricing passes are counted under."""
        opts = self.opts
        pivot_tol = opts.pivot_tol
        span = full_hi - full_lo
        movable = span > 0
        iters = 0
        pivots_since_refactor = 0
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
            pivots_since_refactor += 1
            if pivots_since_refactor >= opts.refactor_every:
                self._refactor(state, A_full, full_lo, full_hi)
                pivots_since_refactor = 0

    def _dual(self, state, A_full, full_lo, full_hi, c_int, max_iter) -> tuple[LpStatus, int, float]:
        """Bounded dual simplex from a dual feasible basis. Each pass takes
        the basic variable furthest outside its bounds out to the violated
        bound, and brings in the nonbasic variable the dual ratio test picks,
        which keeps every reduced cost on its optimal side. INFEASIBLE means
        the leaving row had no entering candidate (the dual is unbounded);
        it comes with the residual that row's ray proves. Returns the
        status, the passes made and that residual."""
        opts = self.opts
        movable = full_hi > full_lo
        iters = 0
        pivots_since_refactor = 0
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
            bad = viol > opts.feas_tol
            if not bad.any():
                return LpStatus.OPTIMAL, iters, 0.0
            if bland:
                rows = np.flatnonzero(bad)
                r = int(rows[np.argmin(state.basis[rows])])
            else:
                r = int(np.argmax(viol))
            up = below[r] > 0  # the leaving variable rises to its lower bound
            alpha = state.T[r]
            sigma = np.where(state.at_upper, -1.0, 1.0)  # direction each nonbasic can move
            # how fast moving each nonbasic off its bound pushes x_Br toward the violated bound
            push = -alpha * sigma if up else alpha * sigma
            cand = np.flatnonzero(~state.in_basis & movable & (push > opts.pivot_tol))
            if cand.size == 0:
                return LpStatus.INFEASIBLE, iters, self._ray_residual(state, r, A_full, full_lo, full_hi)
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
            pivots_since_refactor += 1
            if pivots_since_refactor >= opts.refactor_every:
                self._refactor(state, A_full, full_lo, full_hi)
                pivots_since_refactor = 0


@dataclass
class _State:
    T: np.ndarray | None
    basis: np.ndarray
    xB: np.ndarray | None
    at_upper: np.ndarray
    in_basis: np.ndarray
    counts: dict  # pricing passes per loop kind, shared by a solve's attempts


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


def prepare(p: MilpProblem, options: SimplexOptions | None = None) -> PreparedLp:
    """Build the reusable solver skeleton for a problem's rows and objective."""
    A, senses, b = _dense_rows(p)
    c = np.zeros(p.num_vars)
    c[p.obj_idx] = p.obj_coef
    return PreparedLp(c=c, maximize=p.obj_sense == "max", A=A, senses=senses, b=b, options=options)


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


def solve_lp(
    p: MilpProblem, relax: dict | None = None, options: SimplexOptions | None = None
) -> LpSolution:
    """Solve the LP relaxation of `p` with binaries relaxed or fixed.

    The reported objective includes the problem's constant offset and is in
    the problem's own sense.
    """
    eng = prepare(p, options)
    lo, hi = relaxed_bounds(p, relax)
    sol = eng.solve(lo, hi)
    if sol.status is LpStatus.OPTIMAL:
        sol.objective = float(sol.objective + p.obj_offset)
    return sol
