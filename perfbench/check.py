"""Independent check of certified robustness and trust outputs.

The model is built here from the folded weights `net.layers[k].A/c` with
this file's own interval bounds and big-M rows, and solved by HiGHS through
`scipy.optimize.milp`. Nothing here comes from `relucert.bounds`,
`relucert.milp` or `relucert.oracle`, so a fault shared with the program's
own encoding or oracle cannot hide. Witnesses are re-evaluated by a plain
numpy forward pass.

A result record is a plain dict, so the same check reads library results
and CLI reports alike:

    robustness: {"kind": "robustness", "z_ref", "x_ref", "alpha",
                 "outputs": [{"dev_plus", "dev_minus", "R", "witness", "status"}]}
    trust:      {"kind": "trust", "z_ref", "x_ref", "beta", "scale",
                 "outputs": [{"found", "delta_min", "sign", "witness",
                              "delta_cap", "status"}]}
"""

from __future__ import annotations

import warnings

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp

TOL = 1e-6
# HiGHS's defaults are too loose for a reference checked to TOL: its
# feasibility tolerances (1e-6) let it meet the trust target row short by
# about 1e-6, and its absolute gap (1e-6) lets it stop 6e-7 above a true
# minimum. scipy passes the options it does not know to HiGHS verbatim.
_HIGHS = {
    "mip_rel_gap": 1e-10,
    "mip_abs_gap": 1e-10,
    "mip_feasibility_tolerance": 1e-9,
    "primal_feasibility_tolerance": 1e-9,
}


def forward(net, z) -> np.ndarray:
    h = np.asarray(z, dtype=float)
    for layer in net.layers[:-1]:
        h = np.maximum(layer.A @ h + layer.c, 0.0)
    return net.layers[-1].A @ h + net.layers[-1].c


def interval_bounds(net, lo, hi) -> list[tuple[np.ndarray, np.ndarray]]:
    """Pre-activation interval of every hidden layer over the box."""
    out = []
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    for layer in net.layers[:-1]:
        Ap, Am = np.maximum(layer.A, 0.0), np.minimum(layer.A, 0.0)
        plo = Ap @ lo + Am @ hi + layer.c
        phi = Ap @ hi + Am @ lo + layer.c
        out.append((plo, phi))
        lo, hi = np.maximum(plo, 0.0), np.maximum(phi, 0.0)
    return out


class BigM:
    """Mixed-integer model of the network over a box.

    Columns: inputs z, then per hidden layer pre-activations p, post-activations
    h and indicators a, then outputs y, then any extra columns. Every neuron
    gets h >= p, h <= p - l(1 - a), h <= u a (h >= 0 is its lower bound);
    stable neurons have their indicator fixed by its bounds.
    """

    def __init__(self, net, lo, hi, extra: int = 0):
        n0 = net.input_dim
        self.lb, self.ub, self.integ = list(lo), list(hi), [0] * n0
        self.rows: list[tuple[dict, float, float]] = []
        src = list(range(n0))
        for (plo, phi), layer in zip(interval_bounds(net, lo, hi), net.layers[:-1]):
            w = layer.width
            p = self._cols(plo, phi, 0)
            h = self._cols(np.zeros(w), np.maximum(phi, 0.0), 0)
            a = self._cols(((plo >= 0) & (phi > 0)).astype(float), (phi > 0).astype(float), 1)
            for t in range(w):
                self._affine(p[t], src, layer.A[t], layer.c[t])
                l, u = float(plo[t]), float(phi[t])
                self.rows.append(({h[t]: 1.0, p[t]: -1.0}, 0.0, np.inf))
                self.rows.append(({h[t]: 1.0, p[t]: -1.0, a[t]: -l}, -np.inf, -l))
                self.rows.append(({h[t]: 1.0, a[t]: -u}, -np.inf, 0.0))
            src = h
        last = net.layers[-1]
        self.y = self._cols(np.full(last.width, -np.inf), np.full(last.width, np.inf), 0)
        for i in range(last.width):
            self._affine(self.y[i], src, last.A[i], last.c[i])
        self.extra = self._cols(np.zeros(extra), np.full(extra, np.inf), 0)

    def _cols(self, lo, hi, integ) -> list[int]:
        start = len(self.lb)
        self.lb += [float(v) for v in lo]
        self.ub += [float(v) for v in hi]
        self.integ += [integ] * len(lo)
        return list(range(start, len(self.lb)))

    def _affine(self, lhs, src, coef, const) -> None:
        row = {lhs: 1.0}
        for j, v in zip(src, coef):
            row[j] = row.get(j, 0.0) - float(v)
        self.rows.append((row, float(const), float(const)))

    def solve(self, objective: dict, rows=()):
        """Minimise `objective` (column -> coefficient) under the model plus
        `rows`; returns the scipy result (status 0 optimal, 2 infeasible)."""
        allrows = self.rows + list(rows)
        n = len(self.lb)
        A = np.zeros((len(allrows), n))
        rlo, rhi = np.empty(len(allrows)), np.empty(len(allrows))
        for r, (coefs, lo, hi) in enumerate(allrows):
            for j, v in coefs.items():
                A[r, j] = v
            rlo[r], rhi[r] = lo, hi
        c = np.zeros(n)
        for j, v in objective.items():
            c[j] = v
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "Unrecognized options", RuntimeWarning)
            return milp(
                c,
                integrality=np.array(self.integ),
                bounds=Bounds(np.array(self.lb), np.array(self.ub)),
                constraints=LinearConstraint(A, rlo, rhi),
                options=dict(_HIGHS),
            )


def _optimum(res, what: str) -> float | None:
    if res.status == 2:
        return None
    if res.status != 0:
        raise RuntimeError(f"HiGHS could not solve {what}: {res.message}")
    return float(res.fun)


class _Gaps:
    """Largest disagreement seen, so a run can report how close it came."""

    def __init__(self):
        self.worst = 0.0

    def near(self, a, b) -> bool:
        if a is None or b is None:
            return False
        gap = abs(float(a) - float(b))
        self.worst = max(self.worst, gap)
        return gap <= TOL


def check_robustness(net, rec: dict, gaps: _Gaps) -> list[str]:
    """Failures of one robustness record; empty when every output holds."""
    z_ref = np.asarray(rec["z_ref"], dtype=float)
    x_ref = np.asarray(rec["x_ref"], dtype=float)
    lo = np.clip(z_ref - np.asarray(rec["alpha"], dtype=float), 0.0, 1.0)
    hi = np.clip(z_ref + np.asarray(rec["alpha"], dtype=float), 0.0, 1.0)
    model = BigM(net, lo, hi)
    bad = []
    for i, o in enumerate(rec["outputs"]):
        tag = f"output {i}"
        if o["status"] != "certified":
            bad.append(f"{tag}: status {o['status']}")
            continue
        y = model.y[i]
        top = _optimum(model.solve({y: -1.0}), f"max y{i}")
        bottom = _optimum(model.solve({y: 1.0}), f"min y{i}")
        if top is None or bottom is None:
            bad.append(f"{tag}: HiGHS finds the ball infeasible")
            continue
        dev_plus, dev_minus = -top - x_ref[i], bottom - x_ref[i]
        if not gaps.near(o["dev_plus"], dev_plus):
            bad.append(f"{tag}: dev_plus {o['dev_plus']!r}, HiGHS {float(dev_plus)!r}")
        if not gaps.near(o["dev_minus"], dev_minus):
            bad.append(f"{tag}: dev_minus {o['dev_minus']!r}, HiGHS {float(dev_minus)!r}")
        if not gaps.near(o["R"], max(dev_plus, -dev_minus)):
            bad.append(f"{tag}: R {o['R']!r}, HiGHS {float(max(dev_plus, -dev_minus))!r}")
        w = o["witness"]
        if w is None:
            bad.append(f"{tag}: no witness")
            continue
        w = np.asarray(w, dtype=float)
        if np.any(w < lo - TOL) or np.any(w > hi + TOL):
            bad.append(f"{tag}: witness outside its box")
        dev = abs(forward(net, w)[i] - x_ref[i])
        if not gaps.near(dev, o["R"]):
            bad.append(f"{tag}: witness deviates {float(dev)!r}, R {o['R']!r}")
    return bad


def check_trust(net, rec: dict, gaps: _Gaps) -> list[str]:
    """Failures of one trust record; empty when every output holds."""
    z_ref = np.asarray(rec["z_ref"], dtype=float)
    x_ref = np.asarray(rec["x_ref"], dtype=float)
    scale = np.asarray(rec["scale"], dtype=float)
    beta = float(rec["beta"])
    n0 = z_ref.shape[0]
    model = BigM(net, np.zeros(n0), np.ones(n0), extra=1)
    d = model.extra[0]
    ball = []
    for j in range(n0):
        ball.append(({j: 1.0, d: -scale[j]}, -np.inf, z_ref[j]))
        ball.append(({j: -1.0, d: -scale[j]}, -np.inf, -z_ref[j]))
    bad = []
    for i, o in enumerate(rec["outputs"]):
        tag = f"output {i}"
        if o["status"] != "certified":
            bad.append(f"{tag}: status {o['status']}")
            continue
        cap = ({d: 1.0}, -np.inf, float(o["delta_cap"]))
        best = None
        for sign in (1, -1):
            target = ({model.y[i]: float(sign)}, beta + sign * x_ref[i], np.inf)
            v = _optimum(model.solve({d: 1.0}, ball + [cap, target]), f"trust y{i} sign {sign}")
            if v is not None and (best is None or v < best):
                best = v
        if not o["found"]:
            if best is not None:
                bad.append(f"{tag}: reported not_found, HiGHS reaches beta at {best!r}")
            continue
        if not gaps.near(o["delta_min"], best):
            bad.append(f"{tag}: delta_min {o['delta_min']!r}, HiGHS {best!r}")
        w = np.asarray(o["witness"], dtype=float)
        if np.any(w < -TOL) or np.any(w > 1.0 + TOL):
            bad.append(f"{tag}: witness outside the unit box")
        reach = o["sign"] * (forward(net, w)[i] - x_ref[i])
        if reach < beta - TOL:
            bad.append(f"{tag}: witness moves output by {float(reach)!r} < beta {beta!r}")
        radius = float(np.max(np.abs(w - z_ref) / scale))
        if not gaps.near(radius, o["delta_min"]):
            bad.append(f"{tag}: witness radius {radius!r}, delta_min {o['delta_min']!r}")
    return bad


def check(net, rec: dict) -> tuple[list[str], float]:
    """Failures of one record and the largest disagreement with HiGHS or
    with the witness re-evaluation."""
    gaps = _Gaps()
    run = check_robustness if rec["kind"] == "robustness" else check_trust
    return run(net, rec, gaps), gaps.worst
