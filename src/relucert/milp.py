"""Mixed-integer encoding of a folded ReLU network over an input box, and
the LP bound tightening that solves its relaxation.

Variables: inputs z; per hidden layer, a pre-activation for each unstable
neuron, a post-activation for every neuron and one binary per unstable
neuron; outputs x; and optionally a perturbation radius for trust queries.
Every variable carries finite bounds taken from the activation-bound
analysis, which double as big-M constants. A stable neuron is written
once: an active neuron's post-activation is its affine row, and a dead
neuron's is fixed at 0 by its bounds and has no row.

The constraints are held as the simplex engine takes them: a read-only
dense matrix `rows`, one row per constraint over the variables, with a
sense and a right-hand side per row; the objective is one read-only dense
vector `c`, pricing only outputs and the radius. A query's target
and cap are bounds: a trust base keeps only its `ball`, to measure a
point's radius. The base encoding is immutable
(read-only arrays, tuple senses and names, a read-only role map), so the
subproblems built on it share it uncopied, and the engine is built from
it without a copy per row.

`lp_tighten` bounds a layer's open pre-activations by the LP relaxation of
this same encoding over the layers before it and those neurons alone, so
tightening and branch and bound read one model.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .bounds import InputBox, LayerBounds, Stability, StabilityMap, classify_neurons
from .errors import DimensionMismatch, InvalidArg, NumericalBreakdown
from .nnmodel import AffineLayer, FoldedNetwork, in_unit_domain
from .simplex import DenseRows, LpStatus, SolveStats, prepare, relaxed_bounds

# keep a whisker of slack when adopting LP values so tightened bounds can
# never clip a true activation through solver roundoff
_TIGHTEN_SLACK = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass
class MilpProblem:
    lo: np.ndarray
    hi: np.ndarray
    binary: np.ndarray
    rows: np.ndarray  # dense, one row per constraint over the variables
    senses: tuple[str, ...]  # "<=", ">=" or "=" per row
    rhs: np.ndarray
    c: np.ndarray  # dense objective over the variables, read-only
    network: FoldedNetwork  # the network whose point every incumbent is
    obj_sense: str = "max"
    obj_offset: float = 0.0
    var_roles: Mapping = field(default_factory=dict)
    var_names: tuple[str, ...] = ()
    ball: tuple[np.ndarray, np.ndarray] | None = None  # a trust base's (z_ref, scale), read-only

    @property
    def num_vars(self) -> int:
        return self.lo.shape[0]

    @property
    def num_binaries(self) -> int:
        return int(self.binary.sum())


def encode_network(
    net: FoldedNetwork, lb: LayerBounds, sm: StabilityMap, box: InputBox
) -> MilpProblem:
    """Constraint system whose feasible points are exactly the network's
    input/activation/output tuples over the box, given the stability fixing.

    An unstable neuron gets a pre-activation column `hp` with its affine
    row, and three rows tied to a binary indicator, plus the post variable's
    lower bound of 0; the neuron's own interval supplies the big-M
    constants. An active neuron's affine row defines its post variable
    directly, and a dead neuron has no row: its post variable is fixed at 0.
    The affine rows come layer by layer, then the big-M rows.
    """
    if box.dim != net.input_dim:
        raise DimensionMismatch("box dimension != network input dimension")
    if lb.num_hidden != net.num_hidden or len(sm.layers) != net.num_hidden:
        raise DimensionMismatch("bounds/stability layer count != network")
    for k in range(net.num_hidden):
        if lb.pre_lo[k].shape[0] != net.layers[k].width or sm.layers[k].shape[0] != net.layers[k].width:
            raise DimensionMismatch(f"layer {k} width mismatch in bounds or stability")

    n0 = net.input_dim
    roles: dict = {}
    names: list[str] = []
    lo_l: list[float] = []
    hi_l: list[float] = []
    binary_l: list[bool] = []

    def add_var(name, lo, hi, role, is_bin=False) -> int:
        j = len(names)
        names.append(name)
        lo_l.append(float(lo))
        hi_l.append(float(hi))
        binary_l.append(is_bin)
        roles[role] = j
        return j

    unstable = [np.flatnonzero(s == Stability.UNSTABLE).tolist() for s in sm.layers]
    for j in range(n0):
        add_var(f"z{j + 1}", box.lo[j], box.hi[j], ("input", j))
    for k in range(net.num_hidden):
        for t in unstable[k]:
            add_var(f"hp{k + 1}_{t + 1}", lb.pre_lo[k][t], lb.pre_hi[k][t], ("pre", k, t))
        for t in range(net.layers[k].width):
            s = Stability(sm.layers[k][t])
            if s is Stability.DEAD:
                plo = phi = 0.0
            elif s is Stability.ACTIVE:
                plo, phi = lb.pre_lo[k][t], lb.pre_hi[k][t]
            else:
                plo, phi = 0.0, max(lb.pre_hi[k][t], 0.0)
            add_var(f"h{k + 1}_{t + 1}", plo, phi, ("post", k, t))
        for t in unstable[k]:
            add_var(f"r{k + 1}_{t + 1}", 0.0, 1.0, ("bin", k, t), is_bin=True)
    for i in range(net.num_outputs):
        add_var(f"x{i + 1}", lb.out_lo[i], lb.out_hi[i], ("output", i))

    rows = DenseRows(len(names))
    for k, layer in enumerate(net.layers):
        src = (
            [roles[("input", j)] for j in range(n0)]
            if k == 0
            else [roles[("post", k - 1, t)] for t in range(net.layers[k - 1].width)]
        )
        for t in range(layer.width):
            if k == net.num_hidden:
                lhs = roles[("output", t)]
            elif sm.layers[k][t] == Stability.DEAD:
                continue
            else:  # an unstable neuron's hp, an active neuron's h
                lhs = roles.get(("pre", k, t), roles[("post", k, t)])
            rows.add([lhs] + src, np.concatenate(([1.0], -layer.A[t])), "=", layer.c[t])
    for k in range(net.num_hidden):
        for t in unstable[k]:
            p_i = roles[("pre", k, t)]
            h_i = roles[("post", k, t)]
            r_i = roles[("bin", k, t)]
            hmin = float(lb.pre_lo[k][t])
            hmax = float(lb.pre_hi[k][t])
            rows.add([h_i, p_i, r_i], [1.0, -1.0, -hmin], "<=", -hmin)  # h <= hpre - hmin (1 - r)
            rows.add([h_i, p_i], [1.0, -1.0], ">=", 0.0)  # h >= hpre
            rows.add([h_i, r_i], [1.0, -hmax], "<=", 0.0)  # h <= hmax r
            # h >= 0 needs no row: the post variable's lower bound is 0
    a, senses, rhs = rows.arrays()
    return MilpProblem(
        lo=_read_only(np.array(lo_l)),
        hi=_read_only(np.array(hi_l)),
        binary=_read_only(np.array(binary_l, dtype=bool)),
        rows=a,
        senses=senses,
        rhs=rhs,
        c=_read_only(np.zeros(len(names))),
        network=net,
        var_roles=MappingProxyType(roles),
        var_names=tuple(names),
    )


def lp_tighten(
    net: FoldedNetwork,
    box: InputBox,
    lb: LayerBounds,
    stats: SolveStats | None = None,
) -> LayerBounds:
    """Tighten the deeper hidden layers' open intervals by maximizing and
    minimizing each pre-activation over the LP relaxation of the encoding.

    Only an open interval, `lo < 0 < hi`, gets an LP. For hidden layer `k`,
    the layers before `k` are followed by an output layer of layer `k`'s
    open neurons alone, and encoded with the working bounds of the layers
    before `k` and the open neurons' current intervals as output bounds.
    With each binary relaxed to [0, 1], an unstable neuron's big-M rows give
    exactly its triangle relaxation, the same triangle every B&B node's
    relaxation holds.

    The open test is repeated before each min solve, so a neuron the max
    solve proves dead skips its min solve. The encoding needs bounds only
    to tell unstable neurons apart and to set their big-M, so a decided
    neuron's interval, the first layer's (already exact over a box) and the
    outputs' come back as they came in.

    Results are clipped into the incoming intervals, so they are subsets and
    stay sound; a failed solve keeps the incoming interval for that side.
    The solves on one cut share bounds and differ only in objective, so
    each starts from the last optimal basis, which is still primal
    feasible, and adopts its tableau. Each solve's work goes to `stats`.
    """
    if box.dim != net.input_dim:
        raise DimensionMismatch("box dimension != network input dimension")
    work_lo = [a.copy() for a in lb.pre_lo]
    work_hi = [a.copy() for a in lb.pre_hi]

    for k in range(1, net.num_hidden):
        tgt_lo, tgt_hi = work_lo[k], work_hi[k]
        open_ = np.flatnonzero((tgt_lo < 0.0) & (tgt_hi > 0.0))
        if not open_.size:
            continue
        layer = AffineLayer(A=net.layers[k].A[open_], c=net.layers[k].c[open_])
        cut = FoldedNetwork(layers=(*net.layers[:k], layer), input_dim=net.input_dim)
        cut_lb = LayerBounds(tuple(work_lo[:k]), tuple(work_hi[:k]), out_lo=tgt_lo[open_], out_hi=tgt_hi[open_])
        p = encode_network(cut, cut_lb, classify_neurons(cut_lb), box)
        eng = prepare(p)
        lo, hi = relaxed_bounds(p)
        start = None
        for i, t in enumerate(open_):
            c = np.zeros(p.num_vars)
            c[p.var_roles[("output", i)]] = 1.0
            for maximize in (True, False):
                if not tgt_lo[t] < 0.0 < tgt_hi[t]:  # the max may prove it dead
                    break
                try:
                    sol = eng.solve(lo, hi, c, maximize, start=start)
                except NumericalBreakdown:
                    continue
                if stats is not None:
                    stats.add(sol)
                if sol.status is not LpStatus.OPTIMAL:
                    continue
                start = sol
                if maximize:
                    tgt_hi[t] = min(tgt_hi[t], sol.objective + _TIGHTEN_SLACK)
                else:
                    tgt_lo[t] = max(tgt_lo[t], sol.objective - _TIGHTEN_SLACK)
            if tgt_lo[t] > tgt_hi[t]:  # keep the pair ordered under roundoff
                mid = 0.5 * (tgt_lo[t] + tgt_hi[t])
                tgt_lo[t] = tgt_hi[t] = mid
    return LayerBounds(tuple(work_lo), tuple(work_hi), out_lo=lb.out_lo, out_hi=lb.out_hi)


def set_robustness_objective(
    p: MilpProblem, i: int, sign: int, x_ref_i: float
) -> MilpProblem:
    """Objective maximize sign*(x_i - x_ref_i); the reference enters only as
    a constant offset on the reported value. Everything else is `p`'s own,
    shared, not copied."""
    if sign not in (1, -1):
        raise InvalidArg("sign must be +1 or -1")
    if ("output", i) not in p.var_roles:
        raise IndexError(f"no output {i}")
    c = np.zeros(p.num_vars)
    c[p.var_roles[("output", i)]] = float(sign)
    return replace(p, c=_read_only(c), obj_sense="max", obj_offset=-float(sign) * float(x_ref_i))


def default_delta_cap(z_ref, scale) -> float:
    """Smallest radius at which the scaled ball already covers the unit box."""
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    return float(np.max(np.maximum(z_ref, 1.0 - z_ref) / scale))


def set_trust_problem(p: MilpProblem, z_ref, scale, delta_cap: float) -> MilpProblem:
    """A query's trust base: minimize the scaled perturbation radius over
    `p`, with the radius column in [0, delta_cap] and two ball rows per
    input, and `ball = (z_ref, scale)`, by which a point's radius is
    measured. Inputs stay inside the unit box regardless of the radius. `p` is
    left as it is: the base extends copies of its rows and bounds by the
    radius column, then appends the ball rows. Each output's targets are then put on
    this base's bounds by `set_trust_target`, so every trust subproblem of
    a query has the base's rows and objective."""
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    n0 = sum(1 for r in p.var_roles if r[0] == "input")
    if z_ref.shape != (n0,) or scale.shape != (n0,):
        raise DimensionMismatch("z_ref/scale length != input dimension")
    if np.any(scale <= 0):
        raise InvalidArg("scale must be positive elementwise")
    if not delta_cap > 0:
        raise InvalidArg("delta_cap must be positive")
    if not in_unit_domain(z_ref):
        raise InvalidArg("z_ref must lie in the unit box")

    d_i = p.num_vars
    # z_j - z_ref_j <= delta scale_j   and   z_ref_j - z_j <= delta scale_j
    extra = DenseRows(d_i + 1)
    for j in range(n0):
        for s in (1.0, -1.0):
            extra.add([p.var_roles[("input", j)], d_i], [s, -float(scale[j])], "<=", s * float(z_ref[j]))
    ball_rows, ball_senses, ball_rhs = extra.arrays()
    return replace(
        p,
        lo=_read_only(np.append(p.lo, 0.0)),
        hi=_read_only(np.append(p.hi, float(delta_cap))),
        binary=_read_only(np.append(p.binary, False)),
        rows=_read_only(np.vstack((np.pad(p.rows, ((0, 0), (0, 1))), ball_rows))),
        senses=(*p.senses, *ball_senses),
        rhs=_read_only(np.concatenate((p.rhs, ball_rhs))),
        c=_read_only(np.append(np.zeros(d_i), 1.0)),
        obj_sense="min",
        obj_offset=0.0,
        var_roles=MappingProxyType({**p.var_roles, ("delta",): d_i}),
        var_names=(*p.var_names, "delta"),
        ball=(_read_only(z_ref.copy()), _read_only(scale.copy())),
    )


def set_trust_target(
    p: MilpProblem, i: int, sign: int, beta: float, x_ref_i: float
) -> MilpProblem:
    """The trust subproblem of output `i` and `sign` over the trust base `p`
    (`set_trust_problem`): the output must deviate from `x_ref_i` by at
    least `beta` in the sign's direction, which is a bound on the output,
    `lo = max(lo, t)` for `+` and `hi = min(hi, t)` for `-`, with
    `t = x_ref_i + sign * beta`. A target beyond the output's interval fixes
    the output at the target, where the network rows leave no feasible
    point. Everything but the output's bounds is `p`'s own, shared, not
    copied; the new bounds are read-only, like the base's."""
    if sign not in (1, -1):
        raise InvalidArg("sign must be +1 or -1")
    if ("output", i) not in p.var_roles:
        raise IndexError(f"no output {i}")
    if p.ball is None:
        raise InvalidArg("set_trust_target needs a trust base from set_trust_problem")
    if not beta > 0:
        raise InvalidArg("beta must be positive")
    j = p.var_roles[("output", i)]
    t = float(x_ref_i) + sign * float(beta)
    lo, hi = p.lo.copy(), p.hi.copy()
    if sign == 1:
        lo[j] = max(lo[j], t)
    else:
        hi[j] = min(hi[j], t)
    if lo[j] > hi[j]:  # beyond the interval
        lo[j] = hi[j] = t
    return replace(p, lo=_read_only(lo), hi=_read_only(hi))


def _lp_num(v: float) -> str:
    return repr(float(v))


def _lp_terms(p: MilpProblem, idx, coef) -> str:
    return " ".join(f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {p.var_names[j]}" for j, c in zip(idx, coef))


def to_lp_text(p: MilpProblem) -> str:
    """Render the problem in LP text format for third-party cross-checks;
    each row lists its nonzero coefficients."""
    out = []
    out.append("Maximize" if p.obj_sense == "max" else "Minimize")
    idx = np.flatnonzero(p.c)
    out.append(f" obj: {_lp_terms(p, idx, p.c[idx]) or '0 ' + p.var_names[0]}")
    if p.obj_offset:
        out.append(f"\\ constant offset {_lp_num(p.obj_offset)} added to objective value")
    out.append("Subject To")
    for n, (a, sense, b) in enumerate(zip(p.rows, p.senses, p.rhs)):
        idx = np.flatnonzero(a)
        out.append(f" c{n + 1}: {_lp_terms(p, idx, a[idx])} {sense} {_lp_num(b)}")
    out.append("Bounds")
    for j in range(p.num_vars):
        out.append(f" {_lp_num(p.lo[j])} <= {p.var_names[j]} <= {_lp_num(p.hi[j])}")
    bins = [p.var_names[j] for j in np.flatnonzero(p.binary)]
    if bins:
        out.append("Binary")
        out.append(" " + " ".join(bins))
    out.append("End")
    return "\n".join(out) + "\n"
