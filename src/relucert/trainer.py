"""Desk-scale training: synthetic regression data, minibatch SGD with batch
norm, running-statistics tracking, and per-output max-error evaluation."""

from __future__ import annotations

import csv
import io
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, Divergence, InvalidArg, InvalidValue, ParseError
from .nnmodel import (
    BatchNormParams,
    FoldedNetwork,
    HiddenLayer,
    NetworkSpec,
    OutputLayer,
    forward,
)


@dataclass(frozen=True)
class Dataset:
    inputs: np.ndarray   # S x N0, rows in [0,1]
    targets: np.ndarray  # S x M
    train_idx: np.ndarray
    test_idx: np.ndarray

    def __post_init__(self):
        inputs = np.array(self.inputs, dtype=float)
        targets = np.array(self.targets, dtype=float)
        if inputs.ndim != 2 or targets.ndim != 2 or inputs.shape[0] != targets.shape[0]:
            raise DimensionMismatch("inputs and targets must be matrices with equal row counts")
        if inputs.size and (inputs.min() < -1e-12 or inputs.max() > 1.0 + 1e-12):
            raise InvalidValue("inputs must lie in [0,1]")
        tr = np.array(self.train_idx, dtype=int)
        te = np.array(self.test_idx, dtype=int)
        s = inputs.shape[0]
        both = np.concatenate([tr, te])
        if len(np.unique(both)) != len(both) or sorted(both) != list(range(s)):
            raise InvalidValue("train/test splits must be disjoint and cover all rows")
        for a in (inputs, targets, tr, te):
            a.setflags(write=False)
        object.__setattr__(self, "inputs", inputs)
        object.__setattr__(self, "targets", targets)
        object.__setattr__(self, "train_idx", tr)
        object.__setattr__(self, "test_idx", te)

    @property
    def num_inputs(self) -> int:
        return self.inputs.shape[1]

    @property
    def num_outputs(self) -> int:
        return self.targets.shape[1]


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class TrainConfig:
    widths: tuple[int, ...] = (8, 8)
    epochs: int = 200
    batch_size: int = 32
    learning_rate: float = 0.05
    eta: float = 0.99          # running-stats momentum
    seed: int = 0
    bn_eps: float = 1e-5

    def __post_init__(self):
        widths = self.widths if isinstance(self.widths, (list, tuple)) else ()
        if not widths or not all(_is_int(w) and w >= 1 for w in widths):
            raise InvalidArg("widths must be a nonempty list of positive integers")
        object.__setattr__(self, "widths", tuple(int(w) for w in widths))
        for name in ("epochs", "batch_size", "seed"):
            if not _is_int(getattr(self, name)):
                raise InvalidArg(f"{name} must be an integer")
        for name in ("learning_rate", "eta", "bn_eps"):
            v = getattr(self, name)
            if not (isinstance(v, numbers.Real) and not isinstance(v, bool)):
                raise InvalidArg(f"{name} must be a number")
        if self.epochs < 0:
            raise InvalidArg("epochs must be >= 0")
        if self.batch_size < 2:
            raise InvalidArg("batch_size must be >= 2 so batch variance is defined")
        if not 0.0 <= self.eta < 1.0:
            raise InvalidArg("eta must satisfy 0 <= eta < 1")
        if self.learning_rate <= 0:
            raise InvalidArg("learning_rate must be positive")
        if self.bn_eps <= 0:
            raise InvalidArg("bn_eps must be positive")


# ---------------------------------------------------------------------------
# synthetic data

def _ground_truth(rng: np.random.Generator, n0: int, m: int):
    """Random single-hidden-layer ReLU map used as the data source."""
    gw = max(4, m + 2)
    V1 = rng.uniform(-1.0, 1.0, size=(gw, n0))
    d1 = rng.uniform(-0.5, 0.5, size=gw)
    V2 = rng.uniform(-1.0, 1.0, size=(m, gw)) / np.sqrt(gw)
    d2 = rng.uniform(-0.25, 0.25, size=m)

    def g(Z):
        return np.maximum((Z - 0.5) @ V1.T + d1, 0.0) @ V2.T + d2

    return g


def gen_synthetic(n0: int, m: int, s: int, noise: float, seed: int) -> Dataset:
    """Sample a dataset from a hidden random ReLU map.

    Targets are exact map values at clean points; stored inputs are the
    clean points perturbed by uniform noise in [-noise, +noise] and clipped
    to [0,1]. Split is 80/20 after a seeded shuffle. Fully deterministic.
    """
    if s < 10 or n0 < 1 or m < 1 or noise < 0:
        raise InvalidArg("need s >= 10, n0 >= 1, m >= 1, noise >= 0")
    rng = np.random.default_rng(seed)
    g = _ground_truth(rng, n0, m)
    Z = rng.uniform(0.0, 1.0, size=(s, n0))
    X = g(Z)
    if noise > 0:
        Z_stored = np.clip(Z + rng.uniform(-noise, noise, size=Z.shape), 0.0, 1.0)
    else:
        Z_stored = Z
    perm = rng.permutation(s)
    n_train = (4 * s) // 5
    return Dataset(inputs=Z_stored, targets=X, train_idx=perm[:n_train], test_idx=perm[n_train:])


# ---------------------------------------------------------------------------
# training

@np.errstate(over="ignore", invalid="ignore")
def train(ds: Dataset, cfg: TrainConfig) -> NetworkSpec:
    """Plain SGD on MSE with training-mode batch norm after each ReLU.

    Batch norm normalizes by current-batch statistics while the running
    values (used at inference) follow the momentum updates. Deterministic
    for a fixed seed. Raises Divergence if the loss or a parameter leaves
    the floats; numpy's overflow and invalid-value warnings on the way
    there are silenced, as the finite checks report the outcome.
    """
    rng = np.random.default_rng(cfg.seed)
    n0, m = ds.num_inputs, ds.num_outputs
    widths = cfg.widths

    Ws, bs, gammas, betas, mus, variances = [], [], [], [], [], []
    prev = n0
    for w in widths:
        r = 1.0 / np.sqrt(prev)
        Ws.append(rng.uniform(-r, r, size=(w, prev)))
        bs.append(rng.uniform(-r, r, size=w))
        gammas.append(np.ones(w))
        betas.append(np.zeros(w))
        mus.append(np.zeros(w))
        variances.append(np.ones(w))
        prev = w
    r = 1.0 / np.sqrt(prev)
    W_out = rng.uniform(-r, r, size=(m, prev))
    b_out = rng.uniform(-r, r, size=m)

    Ztr = ds.inputs[ds.train_idx]
    Ytr = ds.targets[ds.train_idx]
    n_train = len(ds.train_idx)
    lr = cfg.learning_rate
    eps = cfg.bn_eps
    eta = cfg.eta

    for epoch in range(cfg.epochs):
        order = rng.permutation(n_train)
        # batch_size >= 2, so only a trailing singleton batch, which has no
        # variance, is skipped
        for start in range(0, n_train - 1, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            Z, Y = Ztr[idx], Ytr[idx]
            B = Z.shape[0]

            # forward, caching what the backward pass needs; the running
            # statistics follow the batch's population moments
            acts = [Z]
            pres, normed, scales = [], [], []
            a = Z
            for k in range(len(widths)):
                pre = a @ Ws[k].T + bs[k]
                h = np.maximum(pre, 0.0)
                mb = h.mean(axis=0)
                # the clamp guards the tiny negatives of float cancellation
                vb = np.maximum((h**2).mean(axis=0) - mb**2, 0.0)
                mus[k] = eta * mus[k] + (1.0 - eta) * mb
                variances[k] = eta * variances[k] + (1.0 - eta) * vb
                sb = np.sqrt(vb + eps)
                nh = (h - mb) / sb
                a = gammas[k] * nh + betas[k]
                pres.append(pre)
                normed.append(nh)
                scales.append(sb)
                acts.append(a)
            out = a @ W_out.T + b_out

            loss = float(np.mean((out - Y) ** 2))
            if not np.isfinite(loss):
                raise Divergence(
                    f"loss became non-finite at epoch {epoch} (lr={lr}, batch={B})"
                )

            # backward: each layer steps as soon as its gradients and the da
            # it passes down are formed, both from its weights before the step
            d_out = 2.0 * (out - Y) / (B * m)
            dW_out = d_out.T @ acts[-1]
            db_out = d_out.sum(axis=0)
            da = d_out @ W_out
            W_out -= lr * dW_out
            b_out -= lr * db_out
            for k in range(len(widths) - 1, -1, -1):
                nh, sb = normed[k], scales[k]
                dgamma = (da * nh).sum(axis=0)
                dbeta = da.sum(axis=0)
                dn = da * gammas[k]
                dh = (dn - dn.mean(axis=0) - nh * (dn * nh).mean(axis=0)) / sb
                dpre = dh * (pres[k] > 0)
                dW, db = dpre.T @ acts[k], dpre.sum(axis=0)
                da = dpre @ Ws[k]
                Ws[k] -= lr * dW
                bs[k] -= lr * db
                gammas[k] -= lr * dgamma
                betas[k] -= lr * dbeta

    # a step can overflow a parameter while every loss stayed finite
    if not all(np.isfinite(a).all() for a in (*Ws, *bs, *gammas, *betas, *mus, *variances, W_out, b_out)):
        raise Divergence(f"parameters became non-finite (lr={lr})")

    hidden = tuple(
        HiddenLayer(
            W=Ws[k],
            b=bs[k],
            bn=BatchNormParams(
                gamma=gammas[k],
                beta=betas[k],
                mu=mus[k],
                var=variances[k],
                eps=eps,
            ),
        )
        for k in range(len(widths))
    )
    return NetworkSpec(
        input_dim=n0,
        hidden=hidden,
        output=OutputLayer(W=W_out, b=b_out),
        input_norm_lo=np.zeros(n0),
        input_norm_hi=np.ones(n0),
        output_names=tuple(f"y{i + 1}" for i in range(m)),
    )


def evaluate(net: FoldedNetwork, ds: Dataset, split: str) -> np.ndarray:
    """Per-output maximum absolute error over the chosen split."""
    if split == "train":
        idx = ds.train_idx
    elif split == "test":
        idx = ds.test_idx
    else:
        raise InvalidArg("split must be 'train' or 'test'")
    if len(idx) == 0:
        raise InvalidArg(f"{split} split is empty")
    if ds.num_inputs != net.input_dim or ds.num_outputs != net.num_outputs:
        raise DimensionMismatch("dataset does not match the network dimensions")
    pred = forward(net, ds.inputs[idx])
    return np.max(np.abs(pred - ds.targets[idx]), axis=0)


# ---------------------------------------------------------------------------
# dataset files

def save_dataset(ds: Dataset) -> str:
    """CSV text: z_1..z_N0, x_1..x_M, split."""
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    n0, m = ds.num_inputs, ds.num_outputs
    w.writerow([f"z_{j + 1}" for j in range(n0)] + [f"x_{i + 1}" for i in range(m)] + ["split"])
    labels = np.empty(ds.inputs.shape[0], dtype=object)
    labels[ds.train_idx] = "train"
    labels[ds.test_idx] = "test"
    for row in range(ds.inputs.shape[0]):
        w.writerow(
            [repr(float(v)) for v in ds.inputs[row]]
            + [repr(float(v)) for v in ds.targets[row]]
            + [labels[row]]
        )
    return buf.getvalue()


def load_dataset(text: str) -> Dataset:
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ParseError("dataset file is empty") from None
    zcols = [c for c in header if c.startswith("z_")]
    xcols = [c for c in header if c.startswith("x_")]
    if not zcols or not xcols or header != zcols + xcols + ["split"]:
        raise ParseError("dataset header must be z_1..z_N0, x_1..x_M, split")
    n0, m = len(zcols), len(xcols)
    inputs, targets, train_idx, test_idx = [], [], [], []
    for rownum, row in enumerate(reader):
        if not row:
            continue
        if len(row) != n0 + m + 1:
            raise ParseError(f"dataset row {rownum + 2} has {len(row)} fields")
        try:
            inputs.append([float(v) for v in row[:n0]])
            targets.append([float(v) for v in row[n0 : n0 + m]])
        except ValueError as exc:
            raise ParseError(f"dataset row {rownum + 2}: non-numeric value") from exc
        label = row[-1]
        if label == "train":
            train_idx.append(rownum)
        elif label == "test":
            test_idx.append(rownum)
        else:
            raise ParseError(f"dataset row {rownum + 2}: split must be train or test")
    return Dataset(
        inputs=np.array(inputs, dtype=float),
        targets=np.array(targets, dtype=float),
        train_idx=np.array(train_idx, dtype=int),
        test_idx=np.array(test_idx, dtype=int),
    )
