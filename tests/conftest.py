"""Shared fixtures: the small worked network, random network generators,
and a problem's LP relaxation."""

import numpy as np
import pytest

from relucert.milp import prepare, relaxed_bounds
from relucert.nnmodel import (
    AffineLayer,
    BatchNormParams,
    FoldedNetwork,
    HiddenLayer,
    NetworkSpec,
    OutputLayer,
)

# Hand-analyzed two-input network used throughout the tests:
#   pre1 = z1 - z2, pre2 = 0.5 z1 + 0.5 z2 - 0.25, output = relu(pre1) + relu(pre2).
E1_A1 = [[1.0, -1.0], [0.5, 0.5]]
E1_C1 = [0.0, -0.25]
E1_A2 = [[1.0, 1.0]]
E1_C2 = [0.0]


def make_e1() -> FoldedNetwork:
    return FoldedNetwork(
        layers=(AffineLayer(A=E1_A1, c=E1_C1), AffineLayer(A=E1_A2, c=E1_C2)),
        input_dim=2,
        output_names=("y1",),
    )


def identity_bn(width: int) -> BatchNormParams:
    # gamma chosen so gamma/sqrt(var+eps) is exactly 1.0 in float arithmetic
    eps = 1e-5
    g = float(np.sqrt(1.0 + eps))
    return BatchNormParams(
        gamma=np.full(width, g),
        beta=np.zeros(width),
        mu=np.zeros(width),
        var=np.ones(width),
        eps=eps,
    )


def make_e1_spec() -> NetworkSpec:
    """E1 wrapped as a stored network with identity normalizations."""
    return NetworkSpec(
        input_dim=2,
        hidden=(HiddenLayer(W=E1_A1, b=E1_C1, bn=identity_bn(2)),),
        output=OutputLayer(W=E1_A2, b=E1_C2),
        input_norm_lo=np.zeros(2),
        input_norm_hi=np.ones(2),
        output_names=("y1",),
    )


def random_spec(
    rng: np.random.Generator,
    n0: int | None = None,
    widths: tuple[int, ...] | None = None,
    m: int | None = None,
    weight_scale: float = 1.0,
    unit_norm: bool = False,
) -> NetworkSpec:
    """Random stored network with non-trivial normalization parameters."""
    if n0 is None:
        n0 = int(rng.integers(1, 4))
    if widths is None:
        widths = tuple(int(w) for w in rng.integers(2, 7, size=int(rng.integers(1, 3))))
    if m is None:
        m = int(rng.integers(1, 4))
    hidden = []
    prev = n0
    for w in widths:
        gamma = rng.uniform(0.3, 1.5, size=w) * rng.choice([-1.0, 1.0], size=w)
        bn = BatchNormParams(
            gamma=gamma,
            beta=rng.uniform(-0.5, 0.5, size=w),
            mu=rng.uniform(-0.5, 0.5, size=w),
            var=rng.uniform(0.05, 1.0, size=w),
            eps=1e-5,
        )
        hidden.append(
            HiddenLayer(
                W=rng.uniform(-1.0, 1.0, size=(w, prev)) * weight_scale,
                b=rng.uniform(-0.5, 0.5, size=w) * weight_scale,
                bn=bn,
            )
        )
        prev = w
    output = OutputLayer(
        W=rng.uniform(-1.0, 1.0, size=(m, prev)) * weight_scale,
        b=rng.uniform(-0.5, 0.5, size=m) * weight_scale,
    )
    if unit_norm:
        lo, hi = np.zeros(n0), np.ones(n0)
    else:
        lo = rng.uniform(-10.0, 0.0, size=n0)
        hi = lo + rng.uniform(1.0, 20.0, size=n0)
    return NetworkSpec(
        input_dim=n0,
        hidden=tuple(hidden),
        output=output,
        input_norm_lo=lo,
        input_norm_hi=hi,
        output_names=tuple(f"y{i + 1}" for i in range(m)),
    )


def relaxation(p):
    """`p`'s LP relaxation solved on its own engine. The objective is the
    engine's, the maximum of `c x`, without `p.obj_offset`."""
    return prepare(p).solve(*relaxed_bounds(p), p.c, True)


@pytest.fixture
def e1():
    return make_e1()


@pytest.fixture
def e1_spec():
    return make_e1_spec()
