"""Exact MILP solver: best-first branch and bound over ReLU phase binaries,
branching on the most fractional binary.

A node is its structural bounds `lo`/`hi`: the root's are the problem's
bounds with binaries relaxed to [0, 1], and a child copies its parent's and
sets lo = hi = 0 or 1 on the binary it branches on. Every node, the root
included, takes the same step: solve the LP relaxation with the problem's
objective on one prepared engine, register incumbent candidates, clamp its
bound to its parent's, then record it as integral, branched, pruned or
infeasible. The engine is the problem's own, or, when the caller passes a
`root_start` solution, that solution's engine: a robustness query builds
one engine for its base encoding and every subproblem searches on it. The
root solves cold, unless it has a `root_start`, which it starts from and
whose tableau it adopts; each child starts from its parent's optimal
solution, its basis and tableau. The basis stays dual feasible when one
binary's bounds change, so a few dual simplex pivots reach the child's
optimum or a dual ray that proves it infeasible; the branched binary is
basic, so the tableau and its basic values hold as they are and the child
skips refactorizing. A warm solve that can do neither falls back to the cold
two-phase solve inside the LP engine. Feasible incumbents come from
rounding the LP input point through the actual network, which is feasible
by construction, so the certified bracket [incumbent, bound] is always
sound; the result keeps the incumbent's input point, the witness. A child
whose solve breaks down numerically keeps its parent's bound as an open
bound in that bracket, so the search ends with an honest gap instead of
losing the subproblem; only a breakdown at a root raises.

One search may cover several problems of one sense whose best value is
wanted, such as the two signs of a trust output: a primary problem and its
`rivals`. Each keeps its own prepared engine, but their nodes
share one best-first heap, one incumbent and one gap test, so a node that
cannot beat the best value found in any of them is pruned, and the
search ends when no open node of any of them can. The result names the
problem its incumbent came from; of equal values, the earlier problem's
holds. Each node's decision is one DEBUG record on the `relucert.bnb`
logger, naming the node's problem.
"""

from __future__ import annotations

import heapq
import logging
import numbers
import time
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import InvalidArg, NumericalBreakdown
from .milp import MilpProblem
from .nnmodel import forward_layers
from .simplex import LpSolution, LpStatus, SolveStats, prepare, relaxed_bounds

_log = logging.getLogger(__name__)
_INT_TOL = 1e-6
_TARGET_TOL = 1e-9


class BnbStatus(Enum):
    CERTIFIED = "certified"
    GAP_LIMIT = "gap_limit"
    INFEASIBLE = "infeasible"
    LIMIT = "limit"


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


@dataclass(frozen=True)
class BnbOptions:
    """Gap tolerances and limits of one `solve_milp` call. The node and time
    limits bound the whole call, so when it searches a problem together
    with its rivals (a trust output's two signs) they bound the joint
    search, not each problem."""

    abs_gap: float = 1e-8
    rel_gap: float = 1e-6
    node_limit: int | None = None
    time_limit_seconds: float | None = None

    def __post_init__(self):
        if not all(_is_real(g) and g >= 0 for g in (self.abs_gap, self.rel_gap)):
            raise InvalidArg("gap tolerances must be nonnegative numbers")
        nl = self.node_limit
        if nl is not None and not (_is_real(nl) and isinstance(nl, numbers.Integral) and nl > 0):
            raise InvalidArg("node_limit must be a positive integer")
        tl = self.time_limit_seconds
        if tl is not None and not (_is_real(tl) and tl > 0):
            raise InvalidArg("time_limit_seconds must be a positive number")

    def as_dict(self) -> dict:
        return {
            "abs_gap": self.abs_gap,
            "rel_gap": self.rel_gap,
            "node_limit": self.node_limit,
            "time_limit_seconds": self.time_limit_seconds,
        }


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


def _input_idx(p: MilpProblem) -> np.ndarray:
    """The input variables' columns, in input order."""
    n0 = sum(role[0] == "input" for role in p.var_roles)
    return np.array([p.var_roles[("input", j)] for j in range(n0)], dtype=np.intp)


def _forward_candidate(p: MilpProblem, z) -> float | None:
    """Feasible objective value obtained by running the LP's input point `z`
    through the network. Trust candidates must actually reach the target
    deviation; their radius is recomputed from the input point."""
    q = p.query
    if p.network is None or "kind" not in q:
        return None
    out = forward_layers(p.network, z[None, :])[2][0]
    dev = q["sign"] * (out[q["output"]] - q["x_ref"])
    if q["kind"] == "robustness":
        return float(dev)
    if dev < q["beta"] - _TARGET_TOL:
        return None
    delta = float(np.max(np.abs(z - np.asarray(q["z_ref"])) / np.asarray(q["scale"])))
    return None if delta > q["delta_cap"] + 1e-12 else delta


def _select_branch_var(x_lp, bin_idx) -> int | None:
    """Position in `bin_idx` of the most fractional binary, or None when every
    binary is integral. A branched binary has lo == hi, so the LP point sits
    exactly on it and it is never chosen."""
    xs = x_lp[bin_idx]
    pos = np.flatnonzero(np.minimum(xs, 1.0 - xs) > _INT_TOL)
    if pos.size == 0:
        return None
    # argmin takes the first minimum and bin_idx is ascending, so ties on
    # fractionality go to the lowest variable
    return int(pos[np.argmin(np.abs(xs[pos] - 0.5))])


def solve_milp(
    p: MilpProblem,
    opts: BnbOptions | None = None,
    root_start: LpSolution | None = None,
    *,
    rivals: tuple[MilpProblem, ...] = (),
) -> MilpResult:
    """Branch and bound to a certified bracket, or to a node or time limit.

    `root_start` is an optimal LP solution over `p`'s rows and variables,
    such as the phase-1 solve that all of a robustness query's subproblems
    share. The search then solves `p` on that solution's engine, and the
    root starts from its basis and adopts its tableau, so a primal feasible
    one lets the root skip phase 1 and its refactorization; a start that
    does not help falls back to the cold solve. A `root_start` without a
    tableau, or whose engine's shape does not fit `p`, is `InvalidArg`.

    `rivals` are problems with `p`'s sense whose best value competes with
    `p`'s: the call answers the best over all of them. Their nodes share
    one best-first heap, one incumbent and one gap test, so a node whose
    bound cannot beat the best value found in any of the problems is
    pruned. `MilpResult.source` names the problem the incumbent came from
    (0 for `p`, k for `rivals[k - 1]`); of two candidates of equal value,
    the one from the earlier problem holds the incumbent. Every problem's
    root is solved before the first branch, `root_start` applies to `p`'s
    root only, and the options' node and time limits bound the whole call.
    """
    opts = opts or BnbOptions()
    t0 = time.perf_counter()
    problems = (p, *rivals)
    if any(r.obj_sense != p.obj_sense for r in rivals):
        raise InvalidArg("rivals must have the primary problem's objective sense")
    maximize = p.obj_sense == "max"
    mult = 1.0 if maximize else -1.0
    if root_start is None:
        engines = [prepare(q) for q in problems]
    else:
        tab = root_start.tableau
        if tab is None or (tab.engine.m, tab.engine.n) != (len(p.rows), p.num_vars):
            raise InvalidArg("root_start must be an optimal solution over the problem's rows")
        engines = [tab.engine, *(prepare(q) for q in rivals)]
    objectives = [q.objective_vector() for q in problems]
    bin_idx = [np.flatnonzero(q.binary) for q in problems]
    in_idx = [_input_idx(q) for q in problems]
    stats = SolveStats()

    inc_score = -np.inf
    inc_value: float | None = None
    inc_z: np.ndarray | None = None
    inc_src: int | None = None
    open_score = -np.inf  # best parent bound over children whose solve broke down
    # heap of (-bound score, -depth, node number, problem, lo, hi, branch
    # position, the node's solution as its children's start): best bound
    # first, deeper first
    heap: list[tuple] = []

    def own(score: float) -> float:
        return mult * score

    def note(seq, src, depth, bound_score, action):
        _log.debug(
            "node %d problem %d depth %d bound %r incumbent %r: %s",
            seq, src, depth, None if bound_score is None else own(bound_score), inc_value, action,
        )

    def try_candidate(score, value, z, src):
        nonlocal inc_score, inc_value, inc_z, inc_src
        if score > inc_score or (score == inc_score and src < inc_src):
            inc_score, inc_value, inc_z, inc_src = score, float(value), z, src

    def node(src, lo, hi, seq, depth, start, parent_score):
        """Solve one node of problem `src`, register its incumbent
        candidates, and decide it: integral, branch (pushed on the heap),
        pruned or infeasible. A numerical breakdown propagates to the
        caller."""
        q = problems[src]
        sol = engines[src].solve(lo, hi, objectives[src], maximize, start=start)
        stats.add(sol)
        if sol.status is not LpStatus.OPTIMAL:
            note(seq, src, depth, None, "infeasible")
            return
        score = mult * (sol.objective + q.obj_offset)
        z = sol.x[in_idx[src]]
        cand = _forward_candidate(q, z)
        if cand is not None:
            try_candidate(mult * cand, cand, z, src)
        k = _select_branch_var(sol.x, bin_idx[src])
        if k is None:
            try_candidate(score, own(score), z, src)
        score = min(score, parent_score)  # a node's bound cannot beat its parent's
        if k is None:
            note(seq, src, depth, score, "integral")
        elif score > inc_score + opts.abs_gap:
            heapq.heappush(heap, (-score, -depth, seq, src, lo, hi, k, sol))
            note(seq, src, depth, score, "branch")
        else:
            note(seq, src, depth, score, "pruned")

    def result(status, bound_score, nodes):
        gap = float(bound_score - inc_score) if inc_value is not None else np.inf
        res = MilpResult(
            status=status,
            incumbent_value=inc_value,
            z=inc_z,
            best_bound=own(bound_score),
            gap=max(gap, 0.0),
            nodes=nodes,
            wall_time=time.perf_counter() - t0,
            stats=stats,
            source=inc_src,
            problems=len(problems),
        )
        _log.debug(
            "solve_milp %s over %d problems: %d nodes in %.3f s, %s",
            status.value, len(problems), nodes, res.wall_time, stats,
        )
        return res

    def tol() -> float:
        return max(opts.abs_gap, opts.rel_gap * abs(inc_score)) if inc_value is not None else opts.abs_gap

    for src, q in enumerate(problems):  # the roots are nodes 0 .. len(problems) - 1
        try:
            node(src, *relaxed_bounds(q), src, 0, root_start if src == 0 else None, np.inf)
        except NumericalBreakdown as e:
            raise NumericalBreakdown(f"problem {src} node {src} at depth 0: {e}") from e
    nodes = len(problems)  # also the next node's number
    while heap:
        ub_score = max(-heap[0][0], inc_score, open_score)
        if inc_value is not None and ub_score - inc_score <= tol():
            return result(BnbStatus.CERTIFIED, ub_score, nodes)
        if opts.node_limit is not None and nodes >= opts.node_limit:
            return result(BnbStatus.GAP_LIMIT if inc_value is not None else BnbStatus.LIMIT, ub_score, nodes)
        if (
            opts.time_limit_seconds is not None
            and time.perf_counter() - t0 > opts.time_limit_seconds
        ):
            return result(BnbStatus.GAP_LIMIT if inc_value is not None else BnbStatus.LIMIT, ub_score, nodes)

        neg_score, neg_depth, _, src, lo, hi, k, start = heapq.heappop(heap)
        if -neg_score <= inc_score + opts.abs_gap:
            continue
        depth = 1 - neg_depth  # the children's
        j = bin_idx[src][k]
        for v in (0.0, 1.0):
            child_lo, child_hi = lo.copy(), hi.copy()
            child_lo[j] = child_hi[j] = v
            try:
                node(src, child_lo, child_hi, nodes, depth, start, -neg_score)
            except NumericalBreakdown as e:
                # the parent's bound still holds over this child: keep it open
                stats.node_breakdowns += 1
                open_score = max(open_score, -neg_score)
                note(nodes, src, depth, -neg_score, f"breakdown ({e}), left open at its parent's bound")
            nodes += 1

    ub_score = max(inc_score, open_score)
    if inc_value is None:
        return result(BnbStatus.INFEASIBLE if open_score == -np.inf else BnbStatus.LIMIT, ub_score, nodes)
    return result(BnbStatus.CERTIFIED if ub_score - inc_score <= tol() else BnbStatus.GAP_LIMIT, ub_score, nodes)
