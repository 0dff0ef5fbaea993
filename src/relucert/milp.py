"""Mixed-integer encoding of a folded ReLU network over an input box, and
the LP bound tightening that solves its relaxation.

Variables: inputs z; per hidden layer, a post-activation for every neuron
and one binary per unstable neuron; and outputs x. Every variable carries
finite bounds taken from the activation-bound analysis, which double as
big-M constants. No variable holds a pre-activation: each row that needs
one reads the neuron's affine map of the layer before. A stable neuron is
written once: an active neuron's post-activation is its affine row, and a
dead neuron's is fixed at 0 by its bounds and has no row.

The constraints are held as the simplex engine takes them: a read-only
dense matrix `rows`, one row per constraint over the variables, with a
sense and a right-hand side per row; the objective is one read-only dense
vector `c`, pricing only outputs, and every problem maximizes it. The base
encoding is immutable (read-only arrays, tuple senses and names, a
read-only role map), so the subproblems built on it share it uncopied, and
the engine is built from it without a copy per row. This module turns a
problem into the engine's terms: `prepare` builds the engine from its
rows, and `relaxed_bounds` gives the bounds of its LP relaxation, so the
simplex sees matrices only.

As `encode_network` writes each neuron's rows it also writes the
neuron's part of `vertex`, the basis of the relaxation's vertex at the
network's own point at the box's lower corner: a primal feasible start
that needs one factorization, where the cold solve needs phase 1.

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
from .nnmodel import AffineLayer, FoldedNetwork, forward_layers
from .simplex import Basis, LpStatus, PreparedLp, SolveStats

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
    vertex: Basis  # the relaxation's vertex at the network's point at the box's lower corner
    obj_offset: float = 0.0
    var_roles: Mapping = field(default_factory=dict)
    var_names: tuple[str, ...] = ()

    @property
    def num_vars(self) -> int:
        return self.lo.shape[0]

    @property
    def num_binaries(self) -> int:
        return int(self.binary.sum())


def prepare(p: MilpProblem) -> PreparedLp:
    """The LP engine for a problem's rows."""
    return PreparedLp(p.rows, p.senses, p.rhs)


def relaxed_bounds(p: MilpProblem) -> tuple[np.ndarray, np.ndarray]:
    """Bounds with each binary's own bounds clipped into [0, 1], so a binary
    the problem fixes stays fixed."""
    lo = np.where(p.binary, np.clip(p.lo, 0.0, 1.0), p.lo)
    hi = np.where(p.binary, np.clip(p.hi, 0.0, 1.0), p.hi)
    return lo, hi


class DenseRows:
    """Rows `a x <sense> b` over `n` columns, each written from its nonzeros
    straight into a dense row; `arrays` gives the read-only (rows, senses,
    rhs) of a `MilpProblem`."""

    def __init__(self, n: int):
        self.n = n
        self._a, self._senses, self._b = [], [], []

    def __len__(self) -> int:
        return len(self._b)

    def add(self, idx, coef, sense: str, b: float) -> None:
        a = np.zeros(self.n)
        a[idx] = coef
        self._a.append(a)
        self._senses.append(sense)
        self._b.append(float(b))

    def arrays(self) -> tuple[np.ndarray, tuple[str, ...], np.ndarray]:
        A = np.array(self._a).reshape(len(self._b), self.n)
        return _read_only(A), tuple(self._senses), _read_only(np.array(self._b))


def encode_network(
    net: FoldedNetwork, lb: LayerBounds, sm: StabilityMap, box: InputBox
) -> MilpProblem:
    """Constraint system whose feasible points are exactly the network's
    input/activation/output tuples over the box, given the stability fixing.

    Each neuron's rows read its affine map `A h_prev + c` directly. An
    active neuron's one row defines its post variable `h`, and a dead
    neuron has no row: its `h` is fixed at 0. An unstable neuron `h =
    relu(A h_prev + c)` with interval `[hmin, hmax]` and binary `r` has
    three rows, `h - A h_prev - hmin r <= c - hmin`, `h - A h_prev >= c` and
    `h <= hmax r`, and the lower bound 0 of `h`. With `r` in [0, 1] these
    imply `hmin <= A h_prev + c <= hmax`, so the relaxation is the
    neuron's triangle. The rows come neuron by neuron, layer by layer.

    `vertex` is the basis of the relaxation's vertex at the network's own
    point at the box's lower corner, written with each neuron's rows. Every
    input is nonbasic at its lower bound, and an active neuron's `h` and
    every output are basic in their affine rows. An unstable neuron on at
    the corner has `r` nonbasic at 1 and the logical of its `h - A h_prev
    >= c` row nonbasic at 0, with `h` and its other two logicals basic; one
    off at the corner has `h` and `r` nonbasic at 0 and its three logicals
    basic. A dead neuron's `h` is nonbasic, fixed at 0. So the basis matrix
    is block lower triangular, a nonsingular 1x1 or 3x3 block per neuron,
    and since the bounds hold at every network point of the box, the
    vertex is feasible up to roundoff.
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

    def add_var(name, lo, hi, role, is_bin=False) -> None:
        roles[role] = len(names)
        names.append(name)
        lo_l.append(float(lo))
        hi_l.append(float(hi))
        binary_l.append(is_bin)

    for j in range(n0):
        add_var(f"z{j + 1}", box.lo[j], box.hi[j], ("input", j))
    for k in range(net.num_hidden):
        for t in range(net.layers[k].width):
            s = Stability(sm.layers[k][t])
            if s is Stability.DEAD:
                plo = phi = 0.0
            elif s is Stability.ACTIVE:
                plo, phi = lb.pre_lo[k][t], lb.pre_hi[k][t]
            else:
                plo, phi = 0.0, max(lb.pre_hi[k][t], 0.0)
            add_var(f"h{k + 1}_{t + 1}", plo, phi, ("post", k, t))
        for t in np.flatnonzero(sm.layers[k] == Stability.UNSTABLE).tolist():
            add_var(f"r{k + 1}_{t + 1}", 0.0, 1.0, ("bin", k, t), is_bin=True)
    for i in range(net.num_outputs):
        add_var(f"x{i + 1}", lb.out_lo[i], lb.out_hi[i], ("output", i))

    n = len(names)
    rows = DenseRows(n)
    pre = forward_layers(net, box.lo[None, :])[0]
    basic: list[int] = []  # the vertex's basic columns, row by row
    on: list[int] = []  # the binaries of the unstable neurons on at the corner
    for k, layer in enumerate(net.layers):
        src = (
            [roles[("input", j)] for j in range(n0)]
            if k == 0
            else [roles[("post", k - 1, t)] for t in range(net.layers[k - 1].width)]
        )
        hidden = k < net.num_hidden
        for t in range(layer.width):
            s = sm.layers[k][t] if hidden else Stability.ACTIVE
            if s == Stability.DEAD:
                continue
            role = ("post", k, t) if hidden else ("output", t)
            h = roles[role]
            logical = n + len(rows)  # the column of the neuron's first row's logical
            idx, coef, c = [h, *src], np.concatenate(([1.0], -layer.A[t])), layer.c[t]  # h - A h_prev
            if s == Stability.ACTIVE:
                rows.add(idx, coef, "=", c)
                basic.append(h)
                continue
            r = roles[("bin", k, t)]
            hmin = float(lb.pre_lo[k][t])
            hmax = float(lb.pre_hi[k][t])
            rows.add([*idx, r], np.append(coef, -hmin), "<=", c - hmin)  # h <= A h_prev + c - hmin (1 - r)
            rows.add(idx, coef, ">=", c)  # h >= A h_prev + c
            rows.add([h, r], [1.0, -hmax], "<=", 0.0)  # h <= hmax r
            # h >= 0 needs no row: the post variable's lower bound is 0
            if pre[k][0, t] > 0.0:
                basic += [h, logical, logical + 2]
                on.append(r)
            else:
                basic += [logical, logical + 1, logical + 2]
    a, senses, rhs = rows.arrays()
    at_upper = np.zeros(n + len(rhs), dtype=bool)
    at_upper[on] = True
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
        vertex=Basis(_read_only(np.array(basic, dtype=np.intp)), _read_only(at_upper)),
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

    Each side moves to its LP's dual-proven `bound`, not the value at its
    point, and results are clipped into the incoming intervals, so they are
    subsets and stay sound; a failed solve keeps the incoming interval for
    that side.
    The solves on one cut share bounds and differ only in objective: the
    first starts from the cut's `vertex`, and each next one from the last
    optimal basis, which is still primal feasible, adopting its tableau.
    Each solve's work goes to `stats`.
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
        start = p.vertex
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
                    tgt_hi[t] = min(tgt_hi[t], sol.bound + _TIGHTEN_SLACK)
                else:
                    tgt_lo[t] = max(tgt_lo[t], sol.bound - _TIGHTEN_SLACK)
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
    return replace(p, c=_read_only(c), obj_offset=-float(sign) * float(x_ref_i))


def default_delta_cap(z_ref, scale) -> float:
    """Smallest radius at which the scaled ball already covers the unit box."""
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    return float(np.max(np.maximum(z_ref, 1.0 - z_ref) / scale))


def _lp_num(v: float) -> str:
    return repr(float(v))


def _lp_terms(p: MilpProblem, idx, coef) -> str:
    return " ".join(f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {p.var_names[j]}" for j, c in zip(idx, coef))


def to_lp_text(p: MilpProblem) -> str:
    """Render the problem in LP text format for third-party cross-checks;
    each row lists its nonzero coefficients."""
    out = []
    out.append("Maximize")
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
