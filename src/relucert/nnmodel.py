"""Network model: load/save, batch-norm folding, forward evaluation.

A network is K hidden ReLU layers, each followed by batch normalization in
inference mode, then a linear output layer. Folding absorbs every
normalization into the neighbouring affine maps, leaving alternating
affine/ReLU stages that compute the same function.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidValue, ParseError

_DOMAIN_SLACK = 1e-12


def _ro(a, dtype=float) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _require_finite(name: str, a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise InvalidValue(f"{name} contains non-finite entries")


@dataclass(frozen=True)
class BatchNormParams:
    """Inference-mode normalization: diag(gamma/sqrt(var+eps)) shift by beta - scale*mu."""

    gamma: np.ndarray
    beta: np.ndarray
    mu: np.ndarray
    var: np.ndarray
    eps: float

    def __post_init__(self):
        for name in ("gamma", "beta", "mu", "var"):
            arr = _ro(getattr(self, name))
            if arr.ndim != 1:
                raise DimensionMismatch(f"bn {name} must be a vector")
            _require_finite(f"bn {name}", arr)
            object.__setattr__(self, name, arr)
        n = self.gamma.shape[0]
        if any(getattr(self, f).shape[0] != n for f in ("beta", "mu", "var")):
            raise DimensionMismatch("bn parameter vectors differ in length")
        if np.any(self.var < 0.0):
            raise InvalidValue("bn var must be nonnegative")
        if not (np.isfinite(self.eps) and self.eps > 0.0):
            raise InvalidValue("bn eps must be a positive number")

    @property
    def width(self) -> int:
        return self.gamma.shape[0]

    def scale(self) -> np.ndarray:
        return self.gamma / np.sqrt(self.var + self.eps)

    def shift(self) -> np.ndarray:
        return self.beta - self.scale() * self.mu


@dataclass(frozen=True)
class HiddenLayer:
    W: np.ndarray
    b: np.ndarray
    bn: BatchNormParams

    def __post_init__(self):
        W = _ro(self.W)
        b = _ro(self.b)
        if W.ndim != 2 or b.ndim != 1:
            raise DimensionMismatch("hidden layer W must be a matrix, b a vector")
        _require_finite("hidden W", W)
        _require_finite("hidden b", b)
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)
        if W.shape[0] != b.shape[0]:
            raise DimensionMismatch("hidden layer W rows != b length")
        if self.bn.width != W.shape[0]:
            raise DimensionMismatch("bn width != hidden layer width")

    @property
    def width(self) -> int:
        return self.W.shape[0]


@dataclass(frozen=True)
class OutputLayer:
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        W = _ro(self.W)
        b = _ro(self.b)
        if W.ndim != 2 or b.ndim != 1:
            raise DimensionMismatch("output W must be a matrix, b a vector")
        _require_finite("output W", W)
        _require_finite("output b", b)
        if W.shape[0] != b.shape[0]:
            raise DimensionMismatch("output W rows != b length")
        object.__setattr__(self, "W", W)
        object.__setattr__(self, "b", b)


@dataclass(frozen=True)
class NetworkSpec:
    """A trained network exactly as stored on disk."""

    input_dim: int
    hidden: tuple[HiddenLayer, ...]
    output: OutputLayer
    input_norm_lo: np.ndarray
    input_norm_hi: np.ndarray
    output_names: tuple[str, ...]

    def __post_init__(self):
        if self.input_dim < 1:
            raise InvalidValue("input_dim must be >= 1")
        object.__setattr__(self, "hidden", tuple(self.hidden))
        if not self.hidden:
            raise DimensionMismatch("at least one hidden layer required")
        lo = _ro(self.input_norm_lo)
        hi = _ro(self.input_norm_hi)
        _require_finite("input_norm lo", lo)
        _require_finite("input_norm hi", hi)
        if lo.shape != (self.input_dim,) or hi.shape != (self.input_dim,):
            raise DimensionMismatch("input_norm length != input_dim")
        if np.any(hi <= lo):
            raise InvalidValue("input_norm requires hi > lo per input")
        object.__setattr__(self, "input_norm_lo", lo)
        object.__setattr__(self, "input_norm_hi", hi)
        prev = self.input_dim
        for k, layer in enumerate(self.hidden):
            if layer.W.shape[1] != prev:
                raise DimensionMismatch(f"hidden layer {k} expects {layer.W.shape[1]} inputs, got {prev}")
            prev = layer.width
        if self.output.W.shape[1] != prev:
            raise DimensionMismatch("output layer width mismatch")
        names = tuple(str(n) for n in self.output_names)
        if len(names) != self.output.W.shape[0]:
            raise DimensionMismatch("output_names length != number of outputs")
        object.__setattr__(self, "output_names", names)

    @property
    def num_outputs(self) -> int:
        return self.output.W.shape[0]

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.hidden)


@dataclass(frozen=True)
class AffineLayer:
    """One stage of the folded network: u -> A u + c."""

    A: np.ndarray
    c: np.ndarray

    def __post_init__(self):
        A = _ro(self.A)
        c = _ro(self.c)
        if A.ndim != 2 or c.ndim != 1 or A.shape[0] != c.shape[0]:
            raise DimensionMismatch("affine layer shapes inconsistent")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "c", c)

    @property
    def width(self) -> int:
        return self.A.shape[0]


@dataclass(frozen=True)
class FoldedNetwork:
    """Affine/ReLU chain: ReLU after every layer except the last."""

    layers: tuple[AffineLayer, ...]
    input_dim: int
    output_names: tuple[str, ...] = field(default=())

    def __post_init__(self):
        layers = tuple(self.layers)
        if not layers:
            raise DimensionMismatch("folded network needs at least the output layer")
        object.__setattr__(self, "layers", layers)
        prev = self.input_dim
        for k, layer in enumerate(layers):
            if layer.A.shape[1] != prev:
                raise DimensionMismatch(f"folded layer {k} expects {layer.A.shape[1]} inputs, got {prev}")
            prev = layer.width
        names = tuple(str(n) for n in self.output_names) or tuple(
            f"y{i + 1}" for i in range(layers[-1].width)
        )
        if len(names) != layers[-1].width:
            raise DimensionMismatch("output_names length != number of outputs")
        object.__setattr__(self, "output_names", names)

    @property
    def num_hidden(self) -> int:
        return len(self.layers) - 1

    @property
    def num_outputs(self) -> int:
        return self.layers[-1].width

    @property
    def hidden_widths(self) -> tuple[int, ...]:
        return tuple(layer.width for layer in self.layers[:-1])


# ---------------------------------------------------------------------------
# serialization

def _vector(doc, key, ctx):
    try:
        return [float(v) for v in doc[key]]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{ctx}: bad or missing '{key}'") from exc


def _matrix(doc, key, ctx):
    try:
        rows = doc[key]
        out = [[float(v) for v in row] for row in rows]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"{ctx}: bad or missing '{key}'") from exc
    if not out or any(len(r) != len(out[0]) for r in out):
        raise ParseError(f"{ctx}: '{key}' rows are ragged or empty")
    return out


def load_network(text: str | bytes) -> NetworkSpec:
    """Parse a network document. Raises ParseError on malformed structure,
    DimensionMismatch / InvalidValue on inconsistent contents."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"network document is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("network document must be a JSON object")
    try:
        input_dim = int(doc["input_dim"])
        names = list(doc["output_names"])
        norm = doc["input_norm"]
        hidden_docs = doc["hidden"]
        out_doc = doc["output"]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"network document missing required field: {exc}") from exc
    if not isinstance(norm, list) or not all(isinstance(e, dict) for e in norm):
        raise ParseError("input_norm must be a list of {lo, hi} objects")
    try:
        lo = [float(e["lo"]) for e in norm]
        hi = [float(e["hi"]) for e in norm]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError("input_norm entries need numeric lo and hi") from exc
    if not isinstance(hidden_docs, list):
        raise ParseError("hidden must be a list of layer objects")
    hidden = []
    for k, ld in enumerate(hidden_docs):
        ctx = f"hidden[{k}]"
        if not isinstance(ld, dict) or not isinstance(ld.get("bn"), dict):
            raise ParseError(f"{ctx}: layer object with a 'bn' block required")
        bd = ld["bn"]
        try:
            eps = float(bd["eps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"{ctx}: bn needs numeric eps") from exc
        bn = BatchNormParams(
            gamma=_vector(bd, "gamma", ctx),
            beta=_vector(bd, "beta", ctx),
            mu=_vector(bd, "mu", ctx),
            var=_vector(bd, "var", ctx),
            eps=eps,
        )
        hidden.append(HiddenLayer(W=_matrix(ld, "W", ctx), b=_vector(ld, "b", ctx), bn=bn))
    if not isinstance(out_doc, dict):
        raise ParseError("output must be a layer object")
    output = OutputLayer(W=_matrix(out_doc, "W", "output"), b=_vector(out_doc, "b", "output"))
    return NetworkSpec(
        input_dim=input_dim,
        hidden=tuple(hidden),
        output=output,
        input_norm_lo=lo,
        input_norm_hi=hi,
        output_names=tuple(names),
    )


def save_network(spec: NetworkSpec) -> str:
    """Canonical JSON text. Floats use shortest round-trip decimals, so
    load(save(s)) reproduces every value bit for bit."""
    doc = {
        "input_dim": spec.input_dim,
        "output_names": list(spec.output_names),
        "input_norm": [
            {"lo": float(lo), "hi": float(hi)}
            for lo, hi in zip(spec.input_norm_lo, spec.input_norm_hi)
        ],
        "hidden": [
            {
                "W": layer.W.tolist(),
                "b": layer.b.tolist(),
                "bn": {
                    "gamma": layer.bn.gamma.tolist(),
                    "beta": layer.bn.beta.tolist(),
                    "mu": layer.bn.mu.tolist(),
                    "var": layer.bn.var.tolist(),
                    "eps": float(layer.bn.eps),
                },
            }
            for layer in spec.hidden
        ],
        "output": {"W": spec.output.W.tolist(), "b": spec.output.b.tolist()},
    }
    return json.dumps(doc, indent=1)


def network_hash(spec: NetworkSpec) -> str:
    return hashlib.sha256(save_network(spec).encode()).hexdigest()


# ---------------------------------------------------------------------------
# folding and evaluation

def fold_bn(spec: NetworkSpec) -> FoldedNetwork:
    """Absorb inference-mode batch norm into the affine maps.

    Each normalization is the affine map u -> D u + e with
    D = diag(gamma/sqrt(var+eps)) and e = beta - D mu, applied after the
    ReLU of its layer; composing it into the next layer's weights leaves
    the computed function unchanged.
    """
    layers = [AffineLayer(A=spec.hidden[0].W, c=spec.hidden[0].b)]
    for k in range(len(spec.hidden)):
        d = spec.hidden[k].bn.scale()
        e = spec.hidden[k].bn.shift()
        if k + 1 < len(spec.hidden):
            nxt = spec.hidden[k + 1]
            layers.append(AffineLayer(A=nxt.W * d, c=nxt.W @ e + nxt.b))
        else:
            out = spec.output
            layers.append(AffineLayer(A=out.W * d, c=out.W @ e + out.b))
    return FoldedNetwork(
        layers=tuple(layers), input_dim=spec.input_dim, output_names=spec.output_names
    )


def _check_domain(z: np.ndarray) -> None:
    if z.size and (z.min() < -_DOMAIN_SLACK or z.max() > 1.0 + _DOMAIN_SLACK):
        warnings.warn("input outside the normalized domain [0, 1]", stacklevel=3)


def forward(net: FoldedNetwork, z) -> np.ndarray:
    """Evaluate the folded network at z (one vector or a batch of rows)."""
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    Z = z[None, :] if single else z
    if Z.ndim != 2 or Z.shape[1] != net.input_dim:
        raise DimensionMismatch(f"expected {net.input_dim} inputs, got shape {z.shape}")
    _check_domain(Z)
    out = forward_layers(net, Z)[2]
    return out[0] if single else out


def forward_layers(net: FoldedNetwork, Z) -> tuple[list[np.ndarray], list[np.ndarray], np.ndarray]:
    """Evaluate a batch and keep per-layer pre- and post-activation values."""
    Z = np.asarray(Z, dtype=float)
    if Z.ndim != 2 or Z.shape[1] != net.input_dim:
        raise DimensionMismatch(f"expected batch of {net.input_dim}-vectors, got shape {Z.shape}")
    pre, post = [], []
    h = Z
    for layer in net.layers[:-1]:
        p = h @ layer.A.T + layer.c
        h = np.maximum(p, 0.0)
        pre.append(p)
        post.append(h)
    out = h @ net.layers[-1].A.T + net.layers[-1].c
    return pre, post, out


def forward_unfolded(spec: NetworkSpec, z) -> np.ndarray:
    """Evaluate the stored network with explicit normalization stages.

    Used to cross-check fold_bn: runs affine, ReLU, then inference-mode
    batch norm per hidden layer, and never touches the folded weights.
    """
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    a = z[None, :] if single else z
    if a.ndim != 2 or a.shape[1] != spec.input_dim:
        raise DimensionMismatch(f"expected {spec.input_dim} inputs, got shape {z.shape}")
    for layer in spec.hidden:
        h = np.maximum(a @ layer.W.T + layer.b, 0.0)
        a = layer.bn.gamma * (h - layer.bn.mu) / np.sqrt(layer.bn.var + layer.bn.eps) + layer.bn.beta
    out = a @ spec.output.W.T + spec.output.b
    return out[0] if single else out
