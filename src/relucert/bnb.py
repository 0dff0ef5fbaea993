"""Exact MILP solver: best-first branch and bound over ReLU phase binaries,
branching on the binary whose rows the LP duals price highest.

A node is its structural bounds `lo`/`hi`: the root's are the problem's
bounds with binaries relaxed to [0, 1], and a child copies its parent's and
sets lo = hi = 0 or 1 on the binary it branches on. Every node, the root
included, takes the same step: solve the LP relaxation with the problem's
objective on one prepared engine, register its incumbent candidate, clamp its
bound to its parent's, then record it as integral, branched, pruned or
infeasible. A node's bound is its LP's dual-proven `bound`, never the value
at the LP's point, so pruning, `best_bound` and the integral-node test rest
on weak duality over the original rows. Once an incumbent exists, a node's
LP gets the level below which the node is pruned, the incumbent plus
`abs_gap`, as its cutoff: its dual simplex stops as soon as it proves a
bound strictly below it, and the node is recorded as pruned without a
point. Being strict, the cutoff never stops a node whose point could tie
or beat the incumbent. The engine is the problem's own, or, when the
caller passes a `root_start` solution, that solution's engine, which must
have been built from the problem's rows: `shared_root_start` builds one
engine for a query's base encoding and solves the base on it from the
basis of the network's own point that the encoding carries
(`MilpProblem.vertex`), with no phase 1, and every subproblem searches on
that engine. A search may take a `target`, which makes it a decision: it
ends once an incumbent reaches the target or, once every root is solved,
once the best bound falls below it. A root solves cold, unless there is a
`root_start`, which it starts from and whose tableau it adopts; each child
starts from its parent's optimal solution and adopts its basis and
tableau. The basis stays dual feasible when bounds change, as one binary's
do in a child, so a few dual simplex pivots reach the child's optimum or a
dual ray that proves it infeasible; the branched binary is basic, so the
tableau and its basic values hold as they are. A warm solve that can do
neither falls back to the cold two-phase solve inside the LP engine.
Every incumbent is the network's own point: a node runs its LP input point
through the network and accepts it only if the outputs lie within the
problem's output bounds to `_TARGET_TOL`. Its value is `c` at that point
plus `obj_offset`, never the LP's; the result keeps its input point, the
witness. An integral node stays open at its LP bound unless its point
passed and came within `_TARGET_TOL` of it, a node whose solve breaks down
at its parent's (+inf for a root), so the search ends with an honest gap,
never a certified LP value or a lost subproblem: `LIMIT` when nothing was
found, else `GAP_LIMIT`.

Every problem maximizes. One search may cover several problems whose best
value is wanted, such as the two signs of an output's deviation, the
larger of which is the output's worst case: a primary problem and its
`rivals`. The rivals share the primary's rows and differ from it only in
bounds and objective, as the two signs do, so all of them search on the
one engine. Their nodes share one best-first heap, one incumbent and one
gap test, so a node that cannot beat the best value found in any of them
is pruned, and the search ends when no open node of any of them can. The
result names the problem its incumbent came from; of equal values, the
earlier problem's holds. Each node's decision is one DEBUG record on the
`relucert.bnb` logger, naming the node's problem.

A node branches on the fractional binary `j` of the highest score
`min(x_j, 1 - x_j) * sum_i |y_i a_ij|`, over the node LP's row duals `y`
and the binary's coefficients `a_ij` in the rows (Bunel et al., "Branch and
bound for piecewise linear neural network verification", JMLR 21, 2020,
their BaBSR score). An unstable neuron's binary sits in its two upper
big-M rows, so the score is a first-order estimate of how far fixing the
neuron either way moves the bound. Duals within the LP's `OPT_TOL` of
zero count as zero, and the search builds `|a_ij|` once, so a node's scores
cost one matrix-vector product. Ties go to the lowest variable. When every
score is zero, as on a dual degenerate LP or where no binary sits in a
priced row, the most fractional binary is taken instead, the lowest of
those within `_TIE_TOL` of the most fractional, so that roundoff in the
LP point does not pick among binaries tied at one half.
"""

from __future__ import annotations

import heapq
import logging
import math
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidArg, NumericalBreakdown
from .milp import MilpProblem, prepare, relaxed_bounds
from .nnmodel import forward_layers
from .simplex import OPT_TOL, LpSolution, LpStatus, SolveStats, row_duals

_log = logging.getLogger(__name__)
_INT_TOL = 1e-6
_TARGET_TOL = 1e-9
_TIE_TOL = 1e-9  # fractionalities this close are tied: their difference is roundoff


class BnbStatus(Enum):
    CERTIFIED = "certified"
    GAP_LIMIT = "gap_limit"
    INFEASIBLE = "infeasible"
    LIMIT = "limit"


def finite_real(v) -> bool:
    """Whether `v` is a finite real number and not a bool; a numpy scalar
    counts, and an integer of any size is finite."""
    return (
        isinstance(v, numbers.Real)
        and not isinstance(v, bool)
        and (isinstance(v, numbers.Integral) or math.isfinite(v))
    )


@dataclass(frozen=True)
class BnbOptions:
    """Gap tolerances and limits of one `solve_milp` call. The node and time
    limits bound the whole call, so when it searches a problem together
    with its rivals (an output's two signs) they bound the joint search,
    not each problem."""

    abs_gap: float = 1e-8
    rel_gap: float = 1e-6
    node_limit: int | None = None
    time_limit_seconds: float | None = None

    def __post_init__(self):
        if not all(finite_real(g) and g >= 0 for g in (self.abs_gap, self.rel_gap)):
            raise InvalidArg("gap tolerances must be finite nonnegative numbers")
        nl = self.node_limit
        if nl is not None and not (finite_real(nl) and isinstance(nl, numbers.Integral) and nl > 0):
            raise InvalidArg("node_limit must be a positive integer")
        tl = self.time_limit_seconds
        if tl is not None and not (finite_real(tl) and tl > 0):
            raise InvalidArg("time_limit_seconds must be a finite positive number")


@dataclass
class MilpResult:
    status: BnbStatus
    incumbent_value: float | None
    z: np.ndarray | None  # the incumbent's input point
    best_bound: float
    gap: float
    nodes: int
    wall_time: float
    stats: SolveStats = field(default_factory=SolveStats)
    source: int | None = None  # the problem the incumbent came from: 0 the primary, k the k-th rival
    problems: int = 1  # problems searched: the primary and its rivals

    @property
    def found(self) -> bool:
        return self.incumbent_value is not None


def _incumbent_rule(p: MilpProblem, out_idx):
    """`p`'s incumbent rule (see the module docstring) as a function of an
    LP input point `z`: the objective value of the network's point at `z`,
    or None. `p`'s objective may price only the outputs, else
    `InvalidArg`."""
    c = p.c.copy()
    c_out, c[out_idx] = c[out_idx], 0.0
    if c.any():
        raise InvalidArg("an objective may price only the outputs")
    lo, hi = p.lo[out_idx] - _TARGET_TOL, p.hi[out_idx] + _TARGET_TOL

    def value(z) -> float | None:
        out = forward_layers(p.network, z[None, :])[2][0]
        if (out < lo).any() or (out > hi).any():
            return None
        return float(c_out @ out + p.obj_offset)

    return value


def _select_branch_var(x_lp, bin_idx, weight) -> int | None:
    """Position in `bin_idx` of the binary to branch on, or None when every
    binary is integral. `weight[k]` is `sum_i |y_i a_ij|` for binary
    `j = bin_idx[k]` over the LP's row duals `y`, so a fractional binary's
    score `min(x_j, 1 - x_j) * weight[k]` estimates, to first order, how far
    fixing it either way moves the bound (Bunel et al., JMLR 21, 2020,
    BaBSR). The highest score wins. When every score is zero, as on a dual
    degenerate LP, the most fractional binary does, the lowest of those
    within `_TIE_TOL` of it. A branched binary has
    lo == hi, so the LP point sits exactly on it and it is never chosen."""
    xs = x_lp[bin_idx]
    frac = np.minimum(xs, 1.0 - xs)
    pos = np.flatnonzero(frac > _INT_TOL)
    if pos.size == 0:
        return None
    # argmax and argmin take the first extremum and bin_idx is ascending, so
    # ties go to the lowest variable
    score = frac[pos] * weight[pos]
    if score.max() > 0.0:
        return int(pos[np.argmax(score)])
    dist = np.abs(xs[pos] - 0.5)
    return int(pos[np.argmax(dist <= dist.min() + _TIE_TOL)])


def shared_root_start(base: MilpProblem, stats: SolveStats) -> LpSolution | None:
    """The optimal solution every root of a query starts from, or None.

    A query's subproblems differ from its base only in objective. Solving
    the base's relaxation under its zero objective, on the one engine every
    subproblem then searches on, gives each root a primal feasible start
    whose tableau it adopts, so it runs phase 2 alone. That solve starts
    from `base.vertex`, the basis of the network's own point at the box's
    lower corner, one factorization in place of phase 1, on the same warm
    path as every other start. The solve's work goes to `stats`. When it
    is not optimal or breaks down, every root solves cold."""
    try:
        sol = prepare(base).solve(*relaxed_bounds(base), base.c, True, start=base.vertex)
    except NumericalBreakdown:
        return None
    stats.add(sol)
    return sol if sol.status is LpStatus.OPTIMAL else None


def solve_milp(
    p: MilpProblem,
    opts: BnbOptions | None = None,
    root_start: LpSolution | None = None,
    *,
    rivals: tuple[MilpProblem, ...] = (),
    target: float | None = None,
) -> MilpResult:
    """Branch and bound to a certified bracket, or to a node or time limit.

    `root_start` is an optimal LP solution of an engine built from `p`'s
    rows (the same array), such as the solve of its query's base that all
    of the query's subproblems share. The search then solves on that
    engine, and every root starts from its basis and tableau: a primal
    feasible one lets a root skip phase 1, and a dual feasible one leaves a
    root a few dual pivots; a start that does not help falls back to the
    cold solve. A `root_start` without a tableau, or whose engine was built
    from other rows, even rows of the same shape, is `InvalidArg`.

    `rivals` are problems over `p`'s rows (the same array, else
    `InvalidArg`) and binaries, whose best value competes with `p`'s: the
    call answers the best over all of them. They search on `p`'s engine.
    Their nodes share one best-first heap, one incumbent and one gap test,
    so a node whose bound cannot beat the best value found in any of the
    problems is pruned. `MilpResult.source`
    names the problem the incumbent came from (0 for `p`, k for
    `rivals[k - 1]`); of two candidates of equal value, the one from the
    earlier problem holds the incumbent. Every problem's root is solved
    before the first branch, and the options' node and time limits bound
    the whole call.

    A `target` makes the search a decision, whether the best value reaches
    it: the search ends once an incumbent reaches `target`, tested after
    every node, roots included, or, once every root is solved, once the
    best bound falls below it. Pruning, the cutoff and the node order do
    not change, so a targeted search is a prefix of the untargeted one. A
    search its target ends keeps the status its gap gives, `CERTIFIED` only
    if the gap closed; one that ends before every root is solved has
    `best_bound` +inf.

    A node whose solve breaks down, a root included, stays open at its
    parent's bound, so the call never raises `NumericalBreakdown`.
    """
    opts = opts or BnbOptions()
    t0 = time.perf_counter()
    problems = (p, *rivals)
    if any(r.rows is not p.rows or not np.array_equal(r.binary, p.binary) for r in rivals):
        raise InvalidArg("rivals must share the primary problem's rows and binaries")
    in_idx = np.array([p.var_roles[("input", j)] for j in range(p.network.input_dim)], dtype=np.intp)
    out_idx = np.array([p.var_roles[("output", i)] for i in range(p.network.num_outputs)], dtype=np.intp)
    rules = [_incumbent_rule(q, out_idx) for q in problems]
    if root_start is None:
        engine = prepare(p)
    else:
        tab = root_start.tableau
        if tab is None or tab.engine.rows is not p.rows:
            raise InvalidArg("root_start must be an optimal solution on the problem's rows")
        engine = tab.engine
    bin_idx = np.flatnonzero(p.binary)
    bin_rows = np.abs(engine.A[:, bin_idx])  # |a_ij|, for the branching weights
    stats = SolveStats()

    inc = -np.inf  # the incumbent's value, once `inc_z` holds its point
    inc_z: np.ndarray | None = None
    inc_src: int | None = None
    # best bound over nodes left open: an integral one at its LP bound, one
    # whose solve broke down at its parent's
    open_bound = -np.inf
    # heap of (-bound, -depth, node number, problem, lo, hi, branch
    # position, the node's solution as its children's start): best bound
    # first, deeper first
    heap: list[tuple] = []

    def note(seq, src, depth, bound, action):
        incumbent = None if inc_z is None else inc
        _log.debug("node %d problem %d depth %d bound %r incumbent %r: %s", seq, src, depth, bound, incumbent, action)

    def node(src, lo, hi, seq, depth, start, parent_bound):
        """Solve one node of problem `src`, register the network's point at
        its LP input point as an incumbent candidate, and decide it:
        integral, branch (pushed on the heap), pruned, infeasible or left
        open (see `open_bound`)."""
        nonlocal open_bound, inc, inc_z, inc_src
        q = problems[src]
        # a bound below inc + abs_gap prunes the node, so its LP may stop there
        cutoff = inc + opts.abs_gap - q.obj_offset if inc_z is not None else None
        try:
            sol = engine.solve(lo, hi, q.c, True, start=start, cutoff=cutoff)
        except NumericalBreakdown as e:
            stats.node_breakdowns += 1
            open_bound = max(open_bound, parent_bound)
            note(seq, src, depth, parent_bound, f"breakdown ({e}), left open at its parent's bound")
            return
        stats.add(sol)
        if sol.status is LpStatus.INFEASIBLE:
            note(seq, src, depth, None, "infeasible")
            return
        bound = min(sol.bound + q.obj_offset, parent_bound)  # a node's bound cannot beat its parent's
        if sol.status is LpStatus.CUTOFF:
            note(seq, src, depth, bound, f"pruned (cut off at bound {sol.bound + q.obj_offset!r})")
            return
        z = sol.x[in_idx]
        cand = rules[src](z)
        if cand is not None and (cand > inc or (cand == inc and src < inc_src)):
            inc, inc_z, inc_src = cand, z, src
        y = np.abs(row_duals(sol))
        y[y <= OPT_TOL] = 0.0
        k = _select_branch_var(sol.x, bin_idx, y @ bin_rows)
        if k is None and (cand is None or bound - cand > _TARGET_TOL):  # its pattern may reach it
            open_bound = max(open_bound, bound)
            note(seq, src, depth, bound, "integral, left open at its LP bound")
        elif k is None:
            note(seq, src, depth, bound, "integral")
        elif bound > inc + opts.abs_gap:
            heapq.heappush(heap, (-bound, -depth, seq, src, lo, hi, k, sol))
            note(seq, src, depth, bound, "branch")
        else:
            note(seq, src, depth, bound, "pruned")

    def result(status, best_bound, nodes, why=""):
        found = inc_z is not None
        res = MilpResult(
            status=status,
            incumbent_value=inc if found else None,
            z=inc_z,
            best_bound=best_bound,
            gap=max(float(best_bound - inc), 0.0) if found else np.inf,
            nodes=nodes,
            wall_time=time.perf_counter() - t0,
            stats=stats,
            source=inc_src,
            problems=len(problems),
        )
        _log.debug(
            "solve_milp %s over %d problems: %d nodes in %.3f s%s, %s",
            status.value, len(problems), nodes, res.wall_time, why, stats,
        )
        return res

    def tol() -> float:
        return max(opts.abs_gap, opts.rel_gap * abs(inc)) if inc_z is not None else opts.abs_gap

    def unfinished() -> BnbStatus:
        return BnbStatus.GAP_LIMIT if inc_z is not None else BnbStatus.LIMIT

    def best(pending=-np.inf) -> float:
        """The best bound: over the open nodes, the incumbent and
        `pending`, the bound of nodes not solved yet."""
        return max(-heap[0][0] if heap else -np.inf, inc, open_bound, pending)

    def reached(pending, nodes):
        """The result of a search whose incumbent reaches its target, with
        the status its gap gives; None while it does not."""
        if target is None or inc_z is None or inc < target:
            return None
        ub = best(pending)
        status = BnbStatus.CERTIFIED if ub - inc <= tol() else BnbStatus.GAP_LIMIT
        return result(status, ub, nodes, ", its incumbent at its target")

    for src, q in enumerate(problems):  # the roots are nodes 0 .. len(problems) - 1
        node(src, *relaxed_bounds(q), src, 0, root_start, np.inf)
        if done := reached(np.inf if src + 1 < len(problems) else -np.inf, src + 1):
            return done
    nodes = len(problems)  # also the next node's number
    while heap:
        ub = best()
        if inc_z is not None and ub - inc <= tol():
            return result(BnbStatus.CERTIFIED, ub, nodes)
        if target is not None and ub < target:
            return result(unfinished(), ub, nodes, ", its bound below its target")
        if opts.node_limit is not None and nodes >= opts.node_limit:
            return result(unfinished(), ub, nodes)
        if (
            opts.time_limit_seconds is not None
            and time.perf_counter() - t0 > opts.time_limit_seconds
        ):
            return result(unfinished(), ub, nodes)

        neg_bound, neg_depth, _, src, lo, hi, k, start = heapq.heappop(heap)
        if -neg_bound <= inc + opts.abs_gap:
            continue
        depth = 1 - neg_depth  # the children's
        j = bin_idx[k]
        for v in (0.0, 1.0):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j] = child_hi[j] = v
            node(src, child_lo, child_hi, nodes, depth, start, -neg_bound)
            nodes += 1
            if done := reached(-neg_bound if v == 0.0 else -np.inf, nodes):
                return done

    ub = best()
    if inc_z is None:
        return result(BnbStatus.INFEASIBLE if open_bound == -np.inf else BnbStatus.LIMIT, ub, nodes)
    return result(BnbStatus.CERTIFIED if ub - inc <= tol() else unfinished(), ub, nodes)
