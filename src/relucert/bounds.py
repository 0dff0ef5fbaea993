"""Activation bounds: input boxes, interval propagation and stability
classification. The LP tightening of the intervals the propagation leaves
open solves the relaxation of the MILP encoding, so it lives beside the
encoder, in `milp.lp_tighten`."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np

from .errors import DimensionMismatch, InvalidValue
from .nnmodel import FoldedNetwork


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

