"""Exact MILP solver: best-first branch and bound over ReLU phase binaries,
branching on the most fractional free binary.

Every node solves the LP relaxation with its branching fixings applied to a
shared prepared tableau skeleton. The root solves cold; each child starts
from its parent's optimal basis, which stays dual feasible when one binary's
bounds change, so a few dual simplex pivots reach the child's optimum or
a dual ray that proves it infeasible. A warm solve that can do neither
falls back to the cold two-phase solve inside the LP engine. Heap entries
keep only the basis index and flag vectors. Feasible incumbents come from
rounding the LP input point through the actual network, which is feasible
by construction, so the certified bracket [incumbent, bound] is always
sound. A child whose solve breaks down numerically keeps its parent's bound
as an open bound in that bracket, so the search ends with an honest gap
instead of losing the subproblem; only a breakdown at the root raises.
"""

from __future__ import annotations

import csv
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
from .simplex import LpStatus, SolveStats, prepare, relaxed_bounds

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
    abs_gap: float = 1e-8
    rel_gap: float = 1e-6
    node_limit: int | None = None
    time_limit_seconds: float | None = None
    trace_path: str | None = None

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
    incumbent_point: np.ndarray | None
    best_bound: float
    gap: float
    nodes: int
    wall_time: float
    stats: SolveStats = field(default_factory=SolveStats)

    @property
    def found(self) -> bool:
        return self.incumbent_value is not None


def _assemble_point(p: MilpProblem, z, pre, post, out, delta=None) -> np.ndarray:
    x = np.zeros(p.num_vars)
    for role, j in p.var_roles.items():
        if role[0] == "input":
            x[j] = z[role[1]]
        elif role[0] == "pre":
            x[j] = pre[role[1]][role[2]]
        elif role[0] == "post":
            x[j] = post[role[1]][role[2]]
        elif role[0] == "bin":
            x[j] = 1.0 if pre[role[1]][role[2]] > 0 else 0.0
        elif role[0] == "output":
            x[j] = out[role[1]]
        elif role[0] == "delta":
            x[j] = 0.0 if delta is None else delta
    return x


def _forward_candidate(p: MilpProblem, x_lp) -> tuple[float, np.ndarray] | None:
    """Feasible objective value obtained by running the LP's input point
    through the network. Trust candidates must actually reach the target
    deviation; their radius is recomputed from the input point."""
    q = p.query
    if p.network is None or "kind" not in q:
        return None
    n0 = p.network.input_dim
    z = np.array([x_lp[p.var_roles[("input", j)]] for j in range(n0)])
    pre_b, post_b, out_b = forward_layers(p.network, z[None, :])
    pre = [a[0] for a in pre_b]
    post = [a[0] for a in post_b]
    out = out_b[0]
    i = q["output"]
    dev = q["sign"] * (out[i] - q["x_ref"])
    if q["kind"] == "robustness":
        return float(dev), _assemble_point(p, z, pre, post, out)
    if dev < q["beta"] - _TARGET_TOL:
        return None
    delta = float(np.max(np.abs(z - np.asarray(q["z_ref"])) / np.asarray(q["scale"])))
    if delta > q["delta_cap"] + 1e-12:
        return None
    return delta, _assemble_point(p, z, pre, post, out, delta=delta)


def _select_branch_var(x_lp, bin_idx, free) -> int | None:
    """Position in `bin_idx` of the most fractional free binary, or None when
    every free binary is integral."""
    pos = np.flatnonzero(free)
    xs = x_lp[bin_idx[pos]]
    keep = np.minimum(xs, 1.0 - xs) > _INT_TOL
    if not keep.any():
        return None
    # argmin takes the first minimum and bin_idx is ascending, so ties on
    # fractionality go to the lowest variable
    return int(pos[keep][np.argmin(np.abs(xs[keep] - 0.5))])


def solve_milp(p: MilpProblem, opts: BnbOptions | None = None) -> MilpResult:
    opts = opts or BnbOptions()
    t0 = time.perf_counter()
    mult = 1.0 if p.obj_sense == "max" else -1.0
    eng = prepare(p)
    bin_idx = np.flatnonzero(p.binary)
    stats = SolveStats()
    trace: list[list] = []

    inc_score = -np.inf
    inc_value: float | None = None
    inc_point: np.ndarray | None = None
    open_score = -np.inf  # best parent bound over children whose solve broke down

    def own(score: float) -> float:
        return mult * score

    def note(node, depth, bound_score, action):
        if opts.trace_path is not None:
            trace.append(
                [node, depth, "" if bound_score is None else repr(own(bound_score)),
                 "" if inc_value is None else repr(inc_value), action]
            )

    def try_candidate(score, value, point):
        nonlocal inc_score, inc_value, inc_point
        if score > inc_score:
            inc_score, inc_value, inc_point = score, float(value), point

    def solve_node(fixings, seq, depth, start=None):
        lo, hi = relaxed_bounds(p, fixings)
        try:
            sol = eng.solve(lo, hi, start=start)
        except NumericalBreakdown as e:
            raise NumericalBreakdown(
                f"node {seq} at depth {depth} (fixings {fixings}): {e}"
            ) from e
        stats.add(sol)
        return sol

    def process(sol, free):
        """Returns (score, is_integral) for a solved feasible node and
        registers any incumbent candidates it yields."""
        score = mult * (sol.objective + p.obj_offset)
        cand = _forward_candidate(p, sol.x)
        if cand is not None:
            try_candidate(mult * cand[0], cand[0], cand[1])
        xs = sol.x[bin_idx[free]]
        integral = bool(np.all(np.minimum(xs, 1.0 - xs) <= _INT_TOL))
        if integral:
            try_candidate(score, own(score), sol.x.copy())
        return score, integral

    def result(status, bound_score, nodes):
        if opts.trace_path is not None:
            with open(opts.trace_path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["node", "depth", "bound", "incumbent", "action"])
                w.writerows(trace)
        gap = float(bound_score - inc_score) if inc_value is not None else np.inf
        res = MilpResult(
            status=status,
            incumbent_value=inc_value,
            incumbent_point=inc_point,
            best_bound=own(bound_score),
            gap=max(gap, 0.0),
            nodes=nodes,
            wall_time=time.perf_counter() - t0,
            stats=stats,
        )
        _log.debug("solve_milp %s: %d nodes in %.3f s, %s", status.value, nodes, res.wall_time, stats)
        return res

    def tol() -> float:
        return max(opts.abs_gap, opts.rel_gap * abs(inc_score)) if inc_value is not None else opts.abs_gap

    nodes = 1
    root = solve_node({}, 0, 0)
    if root.status is not LpStatus.OPTIMAL:
        note(0, 0, None, "infeasible")
        return result(BnbStatus.INFEASIBLE, -np.inf, nodes)
    root_free = np.ones(bin_idx.size, dtype=bool)
    root_score, root_integral = process(root, root_free)
    note(0, 0, root_score, "integral" if root_integral else "root")
    if root_integral or root_score - inc_score <= tol():
        return result(BnbStatus.CERTIFIED, max(root_score, inc_score), nodes)

    # heap of (-bound score, -depth, seq, fixings, free mask, LP point, start
    # basis): best bound first, deeper first
    heap = [(-root_score, 0, 0, {}, root_free, root.x, (root.basis, root.at_upper))]
    seq = 0
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

        neg_score, neg_depth, _, fixings, free, x_lp, start = heapq.heappop(heap)
        depth = -neg_depth
        if -neg_score <= inc_score + opts.abs_gap:
            note(None, depth, -neg_score, "pruned")
            continue
        k = _select_branch_var(x_lp, bin_idx, free)
        if k is None:  # stale: integrality was already handled at creation
            continue
        j = int(bin_idx[k])
        child_free = free.copy()
        child_free[k] = False
        for v in (0.0, 1.0):
            child_fix = dict(fixings)
            child_fix[j] = v
            seq += 1
            nodes += 1
            try:
                sol = solve_node(child_fix, seq, depth + 1, start)
            except NumericalBreakdown as e:
                # the parent's bound still holds over this child: keep it open
                stats.node_breakdowns += 1
                open_score = max(open_score, -neg_score)
                _log.debug("%s; left open at its parent's bound", e)
                note(seq, depth + 1, -neg_score, "breakdown")
                continue
            if sol.status is not LpStatus.OPTIMAL:
                note(seq, depth + 1, None, "infeasible")
                continue
            score, integral = process(sol, child_free)
            score = min(score, -neg_score)  # child bound cannot beat parent
            if integral:
                note(seq, depth + 1, score, "integral")
            elif score > inc_score + opts.abs_gap:
                heapq.heappush(
                    heap,
                    (-score, -(depth + 1), seq, child_fix, child_free, sol.x, (sol.basis, sol.at_upper)),
                )
                note(seq, depth + 1, score, "branch")
            else:
                note(seq, depth + 1, score, "pruned")

    ub_score = max(inc_score, open_score)
    if inc_value is None:
        return result(BnbStatus.INFEASIBLE if open_score == -np.inf else BnbStatus.LIMIT, ub_score, nodes)
    return result(BnbStatus.CERTIFIED if ub_score - inc_score <= tol() else BnbStatus.GAP_LIMIT, ub_score, nodes)
