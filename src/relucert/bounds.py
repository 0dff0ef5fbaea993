"""Activation bounds: interval propagation, stability classification, and
optional LP tightening over the relaxed prefix network of the deeper hidden
neurons whose phase the intervals leave open. The encoding reads bounds only
to find the unstable neurons and to set their big-M, so every other interval
is left as propagated (see `lp_tighten`)."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DimensionMismatch, InvalidValue, NumericalBreakdown
from .nnmodel import FoldedNetwork, forward_layers
from .simplex import LpStatus, PreparedLp, SolveStats

# keep a whisker of slack when adopting LP values so tightened bounds can
# never clip a true activation through solver roundoff
_TIGHTEN_SLACK = 1e-9


class Stability(IntEnum):
    DEAD = 0
    ACTIVE = 1
    UNSTABLE = 2


@dataclass(frozen=True)
class InputBox:
    """Axis-aligned input region, by default inside the unit box."""

    lo: np.ndarray
    hi: np.ndarray
    require_unit: bool = True

    def __post_init__(self):
        lo = np.array(self.lo, dtype=float)
        hi = np.array(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise DimensionMismatch("box lo/hi must be vectors of equal length")
        if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(hi))):
            raise InvalidValue("box bounds must be finite")
        if np.any(lo > hi):
            raise InvalidValue("box needs lo <= hi elementwise")
        if self.require_unit and (np.any(lo < -1e-12) or np.any(hi > 1.0 + 1e-12)):
            raise InvalidValue("box must lie inside the unit box")
        lo.setflags(write=False)
        hi.setflags(write=False)
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @classmethod
    def unit(cls, n: int) -> "InputBox":
        return cls(lo=np.zeros(n), hi=np.ones(n))

    @classmethod
    def ball(cls, z_ref, alpha, clip: bool = True) -> "InputBox":
        """Infinity-norm ball around z_ref, clipped to the unit box by default."""
        z_ref = np.asarray(z_ref, dtype=float)
        alpha = np.broadcast_to(np.asarray(alpha, dtype=float), z_ref.shape)
        if np.any(alpha < 0):
            raise InvalidValue("ball radius must be nonnegative")
        lo, hi = z_ref - alpha, z_ref + alpha
        if clip:
            return cls(lo=np.clip(lo, 0.0, 1.0), hi=np.clip(hi, 0.0, 1.0))
        return cls(lo=lo, hi=hi, require_unit=False)


@dataclass(frozen=True)
class LayerBounds:
    """Pre-activation intervals per hidden layer plus output intervals."""

    pre_lo: tuple[np.ndarray, ...]
    pre_hi: tuple[np.ndarray, ...]
    out_lo: np.ndarray
    out_hi: np.ndarray

    def __post_init__(self):
        pre_lo = tuple(np.asarray(a, dtype=float) for a in self.pre_lo)
        pre_hi = tuple(np.asarray(a, dtype=float) for a in self.pre_hi)
        if len(pre_lo) != len(pre_hi):
            raise DimensionMismatch("pre_lo/pre_hi layer counts differ")
        for lo, hi in zip(pre_lo, pre_hi):
            if lo.shape != hi.shape:
                raise DimensionMismatch("layer bound vectors differ in length")
            if np.any(lo > hi):
                raise InvalidValue("layer bounds need hmin <= hmax")
        out_lo = np.asarray(self.out_lo, dtype=float)
        out_hi = np.asarray(self.out_hi, dtype=float)
        if out_lo.shape != out_hi.shape or np.any(out_lo > out_hi):
            raise InvalidValue("output bounds need lo <= hi")
        object.__setattr__(self, "pre_lo", pre_lo)
        object.__setattr__(self, "pre_hi", pre_hi)
        object.__setattr__(self, "out_lo", out_lo)
        object.__setattr__(self, "out_hi", out_hi)

    @property
    def num_hidden(self) -> int:
        return len(self.pre_lo)

    def to_dict(self) -> dict:
        return {
            "layers": [
                {"hmin": lo.tolist(), "hmax": hi.tolist()}
                for lo, hi in zip(self.pre_lo, self.pre_hi)
            ],
            "output": {"lo": self.out_lo.tolist(), "hi": self.out_hi.tolist()},
        }


@dataclass(frozen=True)
class StabilityMap:
    """Per hidden neuron: dead, active, or unstable."""

    layers: tuple[np.ndarray, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "layers", tuple(np.asarray(a, dtype=np.int8) for a in self.layers)
        )

    @classmethod
    def all_unstable(cls, widths) -> "StabilityMap":
        return cls(layers=tuple(np.full(w, Stability.UNSTABLE, dtype=np.int8) for w in widths))

    def counts(self) -> dict:
        flat = np.concatenate(self.layers) if self.layers else np.zeros(0, dtype=np.int8)
        return {
            "active": int(np.sum(flat == Stability.ACTIVE)),
            "dead": int(np.sum(flat == Stability.DEAD)),
            "unstable": int(np.sum(flat == Stability.UNSTABLE)),
        }

    @property
    def num_unstable(self) -> int:
        return self.counts()["unstable"]


def propagate_bounds(net: FoldedNetwork, box: InputBox) -> LayerBounds:
    """Interval bounds through the folded layers.

    Layer 1 uses the box directly; deeper layers use the previous layer's
    clamped post-activation interval. The output layer gets the same affine
    treatment with no clamp of its own.
    """
    if box.dim != net.input_dim:
        raise DimensionMismatch("box dimension != network input dimension")
    pre_lo, pre_hi = [], []
    lo, hi = box.lo, box.hi
    for k, layer in enumerate(net.layers):
        Ap = np.maximum(layer.A, 0.0)
        Am = np.minimum(layer.A, 0.0)
        hmax = Ap @ hi + Am @ lo + layer.c
        hmin = Ap @ lo + Am @ hi + layer.c
        if k < len(net.layers) - 1:
            pre_lo.append(hmin)
            pre_hi.append(hmax)
            lo, hi = np.maximum(hmin, 0.0), np.maximum(hmax, 0.0)
        else:
            return LayerBounds(
                pre_lo=tuple(pre_lo), pre_hi=tuple(pre_hi), out_lo=hmin, out_hi=hmax
            )
    raise AssertionError("unreachable")


def classify_neurons(lb: LayerBounds) -> StabilityMap:
    """Stability from certified bounds; hmin = hmax = 0 counts as active."""
    layers = []
    for lo, hi in zip(lb.pre_lo, lb.pre_hi):
        s = np.full(lo.shape, Stability.UNSTABLE, dtype=np.int8)
        s[hi <= 0.0] = Stability.DEAD
        s[lo >= 0.0] = Stability.ACTIVE  # wins ties at exactly zero
        layers.append(s)
    return StabilityMap(layers=tuple(layers))


def empirical_stability(net: FoldedNetwork, samples) -> StabilityMap:
    """Stability observed on sample inputs only. Not certified: a neuron that
    never switched on the samples may still switch elsewhere in the box."""
    samples = np.asarray(samples, dtype=float)
    pre, _, _ = forward_layers(net, samples)
    layers = []
    for p in pre:
        s = np.full(p.shape[1], Stability.UNSTABLE, dtype=np.int8)
        s[p.max(axis=0) <= 0.0] = Stability.DEAD
        s[p.min(axis=0) >= 0.0] = Stability.ACTIVE
        layers.append(s)
    return StabilityMap(layers=tuple(layers))


# ---------------------------------------------------------------------------
# LP tightening

def _prefix_engine(net, k, work_lo, work_hi, box):
    """LP over layers < k: variables z, pre_0..pre_{k-1}, post_0..post_{k-1},
    with the triangle relaxation standing in for each unstable ReLU."""
    n0 = net.input_dim
    widths = [net.layers[j].width for j in range(k)]
    pre_off, post_off = [], []
    n = n0
    for w in widths:
        pre_off.append(n)
        n += w
    for w in widths:
        post_off.append(n)
        n += w
    lo = np.empty(n)
    hi = np.empty(n)
    lo[:n0], hi[:n0] = box.lo, box.hi
    rows_a, senses, rhs = [], [], []

    def add_row(idx, coef, sense, b):
        r = np.zeros(n)
        r[idx] = coef
        rows_a.append(r)
        senses.append(sense)
        rhs.append(b)

    for j in range(k):
        layer = net.layers[j]
        w = layer.width
        llo, lhi = work_lo[j], work_hi[j]
        lo[pre_off[j] : pre_off[j] + w] = llo
        hi[pre_off[j] : pre_off[j] + w] = lhi
        lo[post_off[j] : post_off[j] + w] = np.maximum(llo, 0.0)
        hi[post_off[j] : post_off[j] + w] = np.maximum(lhi, 0.0)
        src = (
            np.arange(n0)
            if j == 0
            else np.arange(post_off[j - 1], post_off[j - 1] + net.layers[j - 1].width)
        )
        for t in range(w):
            add_row(
                np.concatenate(([pre_off[j] + t], src)),
                np.concatenate(([1.0], -layer.A[t])),
                "=",
                float(layer.c[t]),
            )
            p_i, h_i = pre_off[j] + t, post_off[j] + t
            if llo[t] >= 0.0:
                add_row([h_i, p_i], [1.0, -1.0], "=", 0.0)
            elif lhi[t] <= 0.0:
                lo[h_i] = hi[h_i] = 0.0
            else:
                add_row([p_i, h_i], [1.0, -1.0], "<=", 0.0)  # post >= pre
                # upper envelope: (hmax-hmin) post - hmax pre <= -hmax hmin
                add_row(
                    [h_i, p_i],
                    [lhi[t] - llo[t], -lhi[t]],
                    "<=",
                    float(-lhi[t] * llo[t]),
                )
    eng = PreparedLp(np.array(rows_a).reshape(len(rhs), n), senses, np.array(rhs))
    return eng, lo, hi, post_off


def lp_tighten(
    net: FoldedNetwork,
    box: InputBox,
    lb: LayerBounds,
    stats: SolveStats | None = None,
) -> LayerBounds:
    """Tighten the deeper hidden layers' open intervals by maximizing and
    minimizing each pre-activation over the relaxed prefix network.

    Only an interval with `lo < 0 < hi` gets an LP, checked before each of
    its two solves, so a neuron the intervals already decide gets none and a
    neuron the max solve proves dead skips its min solve. The encoding needs
    bounds only to tell unstable neurons apart and to set their big-M, so a
    decided neuron's interval, the first layer's (already exact over a box)
    and the outputs' come back as they came in: each is implied by the LP
    relaxation of every B&B node, whose big-M rows for an unstable ReLU
    form the same triangle as the prefix LP.

    Results are clipped into the incoming intervals, so they are subsets and
    stay sound; a failed solve keeps the incoming interval for that side.
    The solves on one prefix share bounds and differ only in objective, so
    each starts from the last optimal basis, which is still primal
    feasible, and adopts its tableau. Each solve's work goes to `stats`.
    """
    if box.dim != net.input_dim:
        raise DimensionMismatch("box dimension != network input dimension")
    work_lo = [a.copy() for a in lb.pre_lo]
    work_hi = [a.copy() for a in lb.pre_hi]

    for k in range(1, len(net.layers) - 1):
        layer = net.layers[k]
        tgt_lo, tgt_hi = work_lo[k], work_hi[k]
        if not np.any((tgt_lo < 0.0) & (tgt_hi > 0.0)):
            continue
        eng, lo, hi, post_off = _prefix_engine(net, k, work_lo, work_hi, box)
        src = np.arange(post_off[k - 1], post_off[k - 1] + net.layers[k - 1].width)
        start = None
        for t in range(layer.width):
            c = np.zeros(lo.shape[0])
            c[src] = layer.A[t]
            const = float(layer.c[t])
            for maximize in (True, False):
                if not tgt_lo[t] < 0.0 < tgt_hi[t]:
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
                v = sol.objective + const
                if maximize:
                    tgt_hi[t] = min(tgt_hi[t], v + _TIGHTEN_SLACK)
                else:
                    tgt_lo[t] = max(tgt_lo[t], v - _TIGHTEN_SLACK)
            if tgt_lo[t] > tgt_hi[t]:  # keep the pair ordered under roundoff
                mid = 0.5 * (tgt_lo[t] + tgt_hi[t])
                tgt_lo[t] = tgt_hi[t] = mid
    return LayerBounds(
        pre_lo=tuple(work_lo), pre_hi=tuple(work_hi), out_lo=lb.out_lo, out_hi=lb.out_hi
    )
