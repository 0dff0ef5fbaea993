"""Independent ground-truth engines for cross-checking the exact solver.

Both build their constraints here, from the folded weights and interval
bounds, and solve with HiGHS, so neither shares a code path with the MILP
encoding or the simplex engine. `milp_opt` solves one big-M MILP and is
exact at every size; `oracle-check` runs it. `pattern_enumerate_opt` solves
one LP per activation pattern of the unstable ReLUs, on which the network
is affine: exponential, it is the reference tests hold the others to.
"""

from __future__ import annotations

import itertools
import os
import sys
import warnings
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from .bounds import InputBox, Stability, classify_neurons, propagate_bounds
from .errors import InvalidArg, SolverFailure, TooManyUnstable
from .nnmodel import FoldedNetwork

# HiGHS's 1e-6 defaults are too loose for a check at 1e-6: its feasibility
# tolerance lets it meet a trust target row short, and its absolute gap lets
# it stop 6e-7 above a minimum. scipy hands the keys it does not know to
# HiGHS verbatim, with a warning.
_HIGHS = {
    "mip_rel_gap": 1e-10,
    "mip_abs_gap": 1e-10,
    "mip_feasibility_tolerance": 1e-9,
    "primal_feasibility_tolerance": 1e-9,
}


@dataclass(frozen=True)
class RobustnessSpec:
    """Maximize sign*(x_output - x_ref) over the box."""

    output: int
    sign: int
    x_ref: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidArg("sign must be +1 or -1")


@dataclass(frozen=True)
class TrustSpec:
    """Minimize the scaled ball radius subject to the output deviating by
    at least beta in the given direction."""

    output: int
    sign: int
    beta: float
    x_ref: float
    z_ref: tuple
    scale: tuple
    delta_cap: float

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise InvalidArg("sign must be +1 or -1")
        if not self.beta > 0 or not self.delta_cap > 0:
            raise InvalidArg("beta and delta_cap must be positive")
        object.__setattr__(self, "z_ref", tuple(float(v) for v in self.z_ref))
        object.__setattr__(self, "scale", tuple(float(v) for v in self.scale))
        if any(s <= 0 for s in self.scale):
            raise InvalidArg("scale must be positive elementwise")


@dataclass
class OracleResult:
    value: float | None
    point: np.ndarray | None
    delta: float | None
    status: str  # "optimal" | "infeasible"
    patterns_total: int = 0  # enumeration only
    patterns_feasible: int = 0


def _solve_pattern_lp(c, a_ub, b_ub, lo, hi):
    a_ub, b_ub = (a_ub, b_ub) if len(b_ub) else (None, None)
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=list(zip(lo, hi)), method="highs")
    if res.status == 0:
        return res
    if res.status == 2:
        return None
    raise SolverFailure(f"pattern LP ended with status {res.status}: {res.message}")


def pattern_enumerate_opt(
    net: FoldedNetwork,
    box: InputBox,
    spec: RobustnessSpec | TrustSpec,
    max_unstable: int = 16,
) -> OracleResult:
    """Exact optimum by exhausting ReLU phase patterns of unstable neurons.

    Certifiably stable neurons keep their phase; each remaining pattern adds
    half-space rows locating the input in the pattern's region and reduces
    the network to one affine map, solved as an LP over the inputs.
    """
    sm = classify_neurons(propagate_bounds(net, box))
    unstable = [(k, int(t)) for k, s in enumerate(sm.layers) for t in np.flatnonzero(s == Stability.UNSTABLE)]
    if len(unstable) > max_unstable:
        raise TooManyUnstable(
            f"{len(unstable)} unstable neurons exceed the enumeration cap {max_unstable}"
        )
    n0 = net.input_dim
    trust = isinstance(spec, TrustSpec)
    lo, hi = box.lo, box.hi
    if trust:  # variables (z, delta); the ball rows are |z - z_ref| <= delta * scale
        lo, hi = np.append(lo, 0.0), np.append(hi, spec.delta_cap)
        eye = np.eye(n0)
        ball_a = np.hstack([np.vstack([eye, -eye]), -np.tile(spec.scale, 2)[:, None]])
        ball_b = np.concatenate([spec.z_ref, np.negative(spec.z_ref)])
    best: OracleResult | None = None
    total = feasible = 0
    for bits in itertools.product((0, 1), repeat=len(unstable)):
        total += 1
        phase = dict(zip(unstable, bits))
        G, g = np.eye(n0), np.zeros(n0)
        rows_a, rows_b = [], []
        for k in range(net.num_hidden):
            layer, s = net.layers[k], sm.layers[k]
            P, p = layer.A @ G, layer.A @ g + layer.c
            on = np.array([phase.get((k, t), s[t] == Stability.ACTIVE) for t in range(layer.width)], dtype=float)
            for t in np.flatnonzero(s == Stability.UNSTABLE):
                sgn = -1.0 if on[t] else 1.0  # active phase needs pre >= 0; dead phase needs pre <= 0
                rows_a.append(sgn * P[t])
                rows_b.append(-sgn * p[t])
            G, g = on[:, None] * P, on * p
        out, i = net.layers[-1], spec.output
        F = spec.sign * (out.A[i] @ G)  # sign * (x_i - x_ref) = F z + f on this pattern
        f = spec.sign * (out.A[i] @ g + out.c[i] - spec.x_ref)
        a_ub, b_ub = np.array(rows_a).reshape(-1, n0), np.array(rows_b)
        if trust:  # the target row is F z + f >= beta
            a_ub = np.vstack([np.hstack([np.vstack([a_ub, -F]), np.zeros((len(b_ub) + 1, 1))]), ball_a])
            b_ub = np.concatenate([b_ub, [f - spec.beta], ball_b])
            res = _solve_pattern_lp(np.eye(n0 + 1)[n0], a_ub, b_ub, lo, hi)
        else:
            res = _solve_pattern_lp(-F, a_ub, b_ub, lo, hi)  # linprog minimizes
        if res is None:
            continue
        feasible += 1
        val = float(res.x[n0]) if trust else float(-res.fun + f)
        if best is None or (val < best.value if trust else val > best.value):
            best = OracleResult(val, res.x[:n0].copy(), val if trust else None, "optimal")
    if best is None:
        return OracleResult(None, None, None, "infeasible", total, feasible)
    best.patterns_total = total
    best.patterns_feasible = feasible
    return best


@contextmanager
def _stdout_to_devnull():
    """Point file descriptor 1 at the null device: HiGHS writes some MIP
    messages to it directly, past `sys.stdout`, and would mix them into a
    caller's output."""
    sys.stdout.flush()
    saved = os.dup(1)
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, 1)
        yield
    finally:
        os.dup2(saved, 1)
        os.close(saved)
        os.close(devnull)


def milp_opt(
    net: FoldedNetwork,
    box: InputBox,
    spec: RobustnessSpec | TrustSpec,
) -> OracleResult:
    """Exact optimum from one big-M MILP over the box, solved by HiGHS.

    Columns are the inputs, each hidden layer's post-activations h and phase
    indicators a, then (trust) the radius, bounded by the cap. A neuron with
    pre-activation p = A h_prev + c over [l, u] gets the rows h >= p,
    h <= p - l (1 - a) and h <= u a, with h >= 0 as a bound; a provably
    stable neuron has its indicator fixed, which makes h = p or h = 0.
    """
    lb = propagate_bounds(net, box)
    sm = classify_neurons(lb)
    n0 = net.input_dim
    trust = isinstance(spec, TrustSpec)
    n = n0 + 2 * sum(net.layers[k].width for k in range(net.num_hidden)) + trust
    lo, hi, integ = [box.lo], [box.hi], [np.zeros(n0)]
    rows, row_lo, row_hi = [], [], []
    src, col = np.arange(n0), n0
    for k in range(net.num_hidden):
        layer, s = net.layers[k], sm.layers[k]
        w = layer.width
        h, a, t = np.arange(col, col + w), np.arange(col + w, col + 2 * w), np.arange(w)
        col += 2 * w
        lo += [np.zeros(w), (s == Stability.ACTIVE).astype(float)]
        hi += [np.maximum(lb.pre_hi[k], 0.0), (s != Stability.DEAD).astype(float)]
        integ += [np.zeros(w), np.ones(w)]
        block = np.zeros((3 * w, n))
        for r in (0, w, 2 * w):
            block[r + t, h] = 1.0
        block[:2 * w, src] = -np.vstack([layer.A, layer.A])
        block[w + t, a] = -lb.pre_lo[k]
        block[2 * w + t, a] = -lb.pre_hi[k]
        rows.append(block)
        row_lo += [layer.c, np.full(2 * w, -np.inf)]
        row_hi += [np.full(w, np.inf), layer.c - lb.pre_lo[k], np.zeros(w)]
        src = h
    out, i = net.layers[-1], spec.output
    dev = np.zeros(n)  # sign * (x_i - x_ref) = dev @ x + dev0
    dev[src] = spec.sign * out.A[i]
    dev0 = spec.sign * (out.c[i] - spec.x_ref)
    if trust:
        d = n - 1
        lo, hi, integ = lo + [[0.0]], hi + [[spec.delta_cap]], integ + [[0.0]]
        ball = np.zeros((2 * n0, n))
        ball[np.arange(n0), np.arange(n0)] = 1.0
        ball[n0 + np.arange(n0), np.arange(n0)] = -1.0
        ball[:, d] = -np.tile(spec.scale, 2)
        rows += [ball, dev[None]]
        row_lo += [np.full(2 * n0, -np.inf), [spec.beta - dev0]]
        row_hi += [np.concatenate([spec.z_ref, np.negative(spec.z_ref)]), [np.inf]]
        c = np.zeros(n)
        c[d] = 1.0
    else:
        c = -dev  # milp minimizes
    lo, hi, integ = np.concatenate(lo), np.concatenate(hi), np.concatenate(integ)
    cons = LinearConstraint(np.vstack(rows), np.concatenate(row_lo), np.concatenate(row_hi))
    with warnings.catch_warnings(), _stdout_to_devnull():
        warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
        res = milp(c, integrality=integ, bounds=Bounds(lo, hi), constraints=cons, options=dict(_HIGHS))
        if res.status == 0:
            # HiGHS may meet a row short by its feasibility tolerance, which
            # moves a trust radius by 1e-9; the LP over the phases it chose,
            # solved to a vertex, reads the value exactly
            fix = integ == 1
            lo[fix] = hi[fix] = np.round(res.x[fix])
            lp = milp(c, bounds=Bounds(lo, hi), constraints=cons, options=dict(_HIGHS))
            res = lp if lp.status == 0 else res
    if res.status == 2:
        return OracleResult(None, None, None, "infeasible")
    if res.status != 0:
        raise SolverFailure(f"oracle MILP ended with status {res.status}: {res.message}")
    if trust:
        val = float(res.x[d])
        return OracleResult(val, res.x[:n0].copy(), val, "optimal")
    return OracleResult(float(-res.fun + dev0), res.x[:n0].copy(), None, "optimal")
