"""Mixed-integer encoding of a folded ReLU network over an input box.

Variables: inputs z, per hidden layer pre-activations and post-activations,
outputs x, one binary per unstable neuron, and optionally a perturbation
radius for trust queries. Every variable carries finite bounds taken from
the activation-bound analysis, which double as big-M constants.

The base encoding is immutable (read-only arrays, tuple rows and names, a
read-only role map), so the subproblems built on it share it uncopied.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field, replace
from types import MappingProxyType

import numpy as np

from .bounds import InputBox, LayerBounds, Stability, StabilityMap
from .errors import DimensionMismatch, InvalidArg, UnsoundBounds
from .nnmodel import FoldedNetwork


@dataclass(frozen=True)
class LinearRow:
    """Sparse constraint row: sum(coef * x[idx]) <sense> rhs."""

    idx: np.ndarray
    coef: np.ndarray
    sense: str  # "<=", ">=", "="
    rhs: float
    tag: str = ""

    def __post_init__(self):
        idx = np.asarray(self.idx, dtype=np.intp)
        coef = np.asarray(self.coef, dtype=float)
        if idx.shape != coef.shape or idx.ndim != 1:
            raise DimensionMismatch("row idx/coef must be matching vectors")
        if self.sense not in ("<=", ">=", "="):
            raise InvalidArg(f"bad row sense {self.sense!r}")
        idx.setflags(write=False)
        coef.setflags(write=False)
        object.__setattr__(self, "idx", idx)
        object.__setattr__(self, "coef", coef)


@dataclass
class MilpProblem:
    lo: np.ndarray
    hi: np.ndarray
    binary: np.ndarray
    rows: tuple[LinearRow, ...]
    obj_sense: str = "max"
    obj_idx: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=np.intp))
    obj_coef: np.ndarray = field(default_factory=lambda: np.zeros(0))
    obj_offset: float = 0.0
    var_roles: Mapping = field(default_factory=dict)
    var_names: tuple[str, ...] = ()
    network: FoldedNetwork | None = None
    query: dict = field(default_factory=dict)

    @property
    def num_vars(self) -> int:
        return self.lo.shape[0]

    @property
    def num_binaries(self) -> int:
        return int(self.binary.sum())

    def objective_vector(self) -> np.ndarray:
        """The objective's coefficients, dense over the variables."""
        c = np.zeros(self.num_vars)
        c[self.obj_idx] = self.obj_coef
        return c

    def rows_tagged(self, prefix: str) -> list[LinearRow]:
        return [r for r in self.rows if r.tag.startswith(prefix)]


def encode_network(
    net: FoldedNetwork, lb: LayerBounds, sm: StabilityMap, box: InputBox
) -> MilpProblem:
    """Constraint system whose feasible points are exactly the network's
    input/activation/output tuples over the box, given the stability fixing.

    Unstable neurons get three rows tied to a binary indicator, plus the
    post variable's lower bound of 0; the neuron's own interval supplies the
    big-M constants. Active neurons collapse to an
    equality, dead neurons to a zero-fixed variable.
    """
    if box.dim != net.input_dim:
        raise DimensionMismatch("box dimension != network input dimension")
    if lb.num_hidden != net.num_hidden or len(sm.layers) != net.num_hidden:
        raise DimensionMismatch("bounds/stability layer count != network")
    for k in range(net.num_hidden):
        if lb.pre_lo[k].shape[0] != net.layers[k].width or sm.layers[k].shape[0] != net.layers[k].width:
            raise DimensionMismatch(f"layer {k} width mismatch in bounds or stability")
        if np.any(lb.pre_lo[k] > lb.pre_hi[k]):
            raise UnsoundBounds(f"layer {k} has hmin > hmax")
    if np.any(lb.out_lo > lb.out_hi):
        raise UnsoundBounds("output bounds have lo > hi")

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

    for j in range(n0):
        add_var(f"z{j + 1}", box.lo[j], box.hi[j], ("input", j))
    for k in range(net.num_hidden):
        w = net.layers[k].width
        for t in range(w):
            add_var(f"hp{k + 1}_{t + 1}", lb.pre_lo[k][t], lb.pre_hi[k][t], ("pre", k, t))
        for t in range(w):
            s = Stability(sm.layers[k][t])
            if s is Stability.DEAD:
                plo = phi = 0.0
            elif s is Stability.ACTIVE:
                plo, phi = lb.pre_lo[k][t], lb.pre_hi[k][t]
            else:
                plo, phi = 0.0, max(lb.pre_hi[k][t], 0.0)
            add_var(f"h{k + 1}_{t + 1}", plo, phi, ("post", k, t))
        for t in range(w):
            if Stability(sm.layers[k][t]) is Stability.UNSTABLE:
                add_var(f"r{k + 1}_{t + 1}", 0.0, 1.0, ("bin", k, t), is_bin=True)
    for i in range(net.num_outputs):
        add_var(f"x{i + 1}", lb.out_lo[i], lb.out_hi[i], ("output", i))

    rows: list[LinearRow] = []
    for k, layer in enumerate(net.layers):
        is_out = k == net.num_hidden
        src = (
            [roles[("input", j)] for j in range(n0)]
            if k == 0
            else [roles[("post", k - 1, t)] for t in range(net.layers[k - 1].width)]
        )
        tag = "affine-out" if is_out else f"affine-pre:{k}"
        for t in range(layer.width):
            lhs = roles[("output", t)] if is_out else roles[("pre", k, t)]
            rows.append(
                LinearRow(
                    idx=np.array([lhs] + src),
                    coef=np.concatenate(([1.0], -layer.A[t])),
                    sense="=",
                    rhs=float(layer.c[t]),
                    tag=tag,
                )
            )
    for k in range(net.num_hidden):
        for t in range(net.layers[k].width):
            s = Stability(sm.layers[k][t])
            p_i = roles[("pre", k, t)]
            h_i = roles[("post", k, t)]
            if s is Stability.ACTIVE:
                rows.append(
                    LinearRow(idx=np.array([h_i, p_i]), coef=np.array([1.0, -1.0]),
                              sense="=", rhs=0.0, tag=f"relu-fix:{k}.{t}"))
            elif s is Stability.UNSTABLE:
                r_i = roles[("bin", k, t)]
                hmin = float(lb.pre_lo[k][t])
                hmax = float(lb.pre_hi[k][t])
                tag = f"relu:{k}.{t}"
                # h <= hpre - hmin (1 - r)
                rows.append(LinearRow(idx=np.array([h_i, p_i, r_i]),
                                      coef=np.array([1.0, -1.0, -hmin]),
                                      sense="<=", rhs=-hmin, tag=tag))
                # h >= hpre
                rows.append(LinearRow(idx=np.array([h_i, p_i]),
                                      coef=np.array([1.0, -1.0]),
                                      sense=">=", rhs=0.0, tag=tag))
                # h <= hmax r
                rows.append(LinearRow(idx=np.array([h_i, r_i]),
                                      coef=np.array([1.0, -hmax]),
                                      sense="<=", rhs=0.0, tag=tag))
                # h >= 0 needs no row: the post variable's lower bound is 0
    lo, hi, binary = np.array(lo_l), np.array(hi_l), np.array(binary_l, dtype=bool)
    for a in (lo, hi, binary):
        a.setflags(write=False)
    return MilpProblem(
        lo=lo,
        hi=hi,
        binary=binary,
        rows=tuple(rows),
        var_roles=MappingProxyType(roles),
        var_names=tuple(names),
        network=net,
    )


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
    return replace(
        p,
        obj_sense="max",
        obj_idx=np.array([p.var_roles[("output", i)]], dtype=np.intp),
        obj_coef=np.array([float(sign)]),
        obj_offset=-float(sign) * float(x_ref_i),
        query={"kind": "robustness", "output": i, "sign": sign, "x_ref": float(x_ref_i)},
    )


def default_delta_cap(z_ref, scale) -> float:
    """Smallest radius at which the scaled ball already covers the unit box."""
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    return float(np.max(np.maximum(z_ref, 1.0 - z_ref) / scale))


def set_trust_problem(
    p: MilpProblem,
    i: int,
    sign: int,
    beta: float,
    x_ref_i: float,
    z_ref,
    scale,
    delta_cap: float,
) -> MilpProblem:
    """Minimize the scaled perturbation radius subject to the output deviating
    by at least beta in the given direction. Inputs stay inside the unit box
    regardless of the radius. `p` is left as it is: the problem shares its
    rows and extends copies of its bounds by the radius column."""
    if sign not in (1, -1):
        raise InvalidArg("sign must be +1 or -1")
    if ("output", i) not in p.var_roles:
        raise IndexError(f"no output {i}")
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    n0 = sum(1 for r in p.var_roles if r[0] == "input")
    if z_ref.shape != (n0,) or scale.shape != (n0,):
        raise DimensionMismatch("z_ref/scale length != input dimension")
    if not beta > 0:
        raise InvalidArg("beta must be positive")
    if np.any(scale <= 0):
        raise InvalidArg("scale must be positive elementwise")
    if not delta_cap > 0:
        raise InvalidArg("delta_cap must be positive")
    if np.any(z_ref < -1e-12) or np.any(z_ref > 1.0 + 1e-12):
        raise InvalidArg("z_ref must lie in the unit box")

    d_i = p.num_vars
    # z_j - z_ref_j <= delta scale_j   and   z_ref_j - z_j <= delta scale_j
    ball = [
        LinearRow(idx=np.array([p.var_roles[("input", j)], d_i]), coef=np.array([s, -float(scale[j])]),
                  sense="<=", rhs=s * float(z_ref[j]), tag=f"ball:{j}")
        for j in range(n0)
        for s in (1.0, -1.0)
    ]
    target = LinearRow(idx=np.array([p.var_roles[("output", i)]]), coef=np.array([float(sign)]),
                       sense=">=", rhs=float(beta) + float(sign) * float(x_ref_i), tag="target")
    return replace(
        p,
        lo=np.append(p.lo, 0.0),
        hi=np.append(p.hi, float(delta_cap)),
        binary=np.append(p.binary, False),
        rows=(*p.rows, *ball, target),
        obj_sense="min",
        obj_idx=np.array([d_i], dtype=np.intp),
        obj_coef=np.array([1.0]),
        obj_offset=0.0,
        var_roles=MappingProxyType({**p.var_roles, ("delta",): d_i}),
        var_names=(*p.var_names, "delta"),
        query={
            "kind": "trust",
            "output": i,
            "sign": sign,
            "beta": float(beta),
            "x_ref": float(x_ref_i),
            "z_ref": z_ref.tolist(),
            "scale": scale.tolist(),
            "delta_cap": float(delta_cap),
        },
    )


def _lp_num(v: float) -> str:
    return repr(float(v))


def to_lp_text(p: MilpProblem) -> str:
    """Render the problem in LP text format for third-party cross-checks."""
    out = []
    out.append("Maximize" if p.obj_sense == "max" else "Minimize")
    terms = " ".join(
        f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {p.var_names[j]}"
        for j, c in zip(p.obj_idx, p.obj_coef)
    )
    out.append(f" obj: {terms or '0 ' + p.var_names[0]}")
    if p.obj_offset:
        out.append(f"\\ constant offset {_lp_num(p.obj_offset)} added to objective value")
    out.append("Subject To")
    sense_txt = {"<=": "<=", ">=": ">=", "=": "="}
    for n, row in enumerate(p.rows):
        terms = " ".join(
            f"{'+' if c >= 0 else '-'} {_lp_num(abs(c))} {p.var_names[j]}"
            for j, c in zip(row.idx, row.coef)
        )
        out.append(f" c{n + 1}: {terms} {sense_txt[row.sense]} {_lp_num(row.rhs)}")
    out.append("Bounds")
    for j in range(p.num_vars):
        out.append(f" {_lp_num(p.lo[j])} <= {p.var_names[j]} <= {_lp_num(p.hi[j])}")
    bins = [p.var_names[j] for j in np.flatnonzero(p.binary)]
    if bins:
        out.append("Binary")
        out.append(" " + " ".join(bins))
    out.append("End")
    return "\n".join(out) + "\n"
