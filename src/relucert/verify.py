"""Verification drivers: certified robustness over perturbation balls, as
2M searches (a max and a min per output), and minimum-perturbation trust
queries, as robustness searches of each output's sign pair on shrinking
balls (`search_radius`, each step's ball encoded by `set_trust_problem`),
each step a decision whether the ball's worst deviation reaches beta, so
its search stops once that is decided (`solve_milp`'s `target`); batch
sweeps over operating conditions, and report assembly. A query reads,
fits and bounds its own question (`VerificationQuery.from_dict`, `check`,
`region`), and `box_bounds` is the one recipe from an input box to bounds
and stability. A driver builds and encodes a query's base and its
subproblems and reads the searches' results; the LP every root of a base
starts from, and the engine they share, are the search's
(`bnb.shared_root_start`)."""

from __future__ import annotations

import csv
import hashlib
import io
import json
import logging
import time
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .bnb import BnbOptions, BnbStatus, MilpResult, finite_real, shared_root_start, solve_milp
from .bounds import InputBox, LayerBounds, StabilityMap, classify_neurons, propagate_bounds
from .errors import DimensionMismatch, InvalidArg, InvalidValue, ParseError
from .milp import MilpProblem, default_delta_cap, encode_network, lp_tighten, set_robustness_objective
from .nnmodel import FoldedNetwork, forward, in_unit_domain
from .simplex import SolveStats, tolerances

_log = logging.getLogger(__name__)
_REACH_TOL = 1e-12  # a witness this close to a trust target reaches it: roundoff in its forward pass


def _vector(v, name: str) -> np.ndarray:
    try:
        a = np.atleast_1d(np.asarray(v))
    except ValueError as e:  # a ragged nested list
        raise DimensionMismatch(f"{name} must be a number or a flat list") from e
    if a.dtype.kind not in "iuf":
        raise InvalidValue(f"{name} must be a number or a list of numbers")
    a = a.astype(float)
    if a.ndim != 1:
        raise DimensionMismatch(f"{name} must be a number or a flat list")
    if not np.all(np.isfinite(a)):
        raise InvalidValue(f"{name} must be finite")
    return a


def _per_input(v, name: str, n: int) -> np.ndarray:
    """A scalar broadcast to, or a vector of, one entry per input."""
    a = _vector(v, name)
    if a.size not in (1, n):
        raise DimensionMismatch(f"{name} has {a.size} entries, z_ref has {n}")
    return np.broadcast_to(a, (n,)).copy()


@dataclass(frozen=True)
class VerificationQuery:
    """One operating condition: reference input, reference output, and the
    perturbation model (ball radii for robustness, target size for trust)."""

    z_ref: np.ndarray
    x_ref: np.ndarray
    alpha: np.ndarray | None = None
    beta: float | None = None
    scale: np.ndarray | None = None
    clip_to_domain: bool = True
    delta_cap: float | None = None
    query_id: str = ""

    def __post_init__(self):
        z_ref = _vector(self.z_ref, "z_ref")
        x_ref = _vector(self.x_ref, "x_ref")
        if not in_unit_domain(z_ref):
            raise InvalidValue("z_ref must lie in the unit box")
        object.__setattr__(self, "z_ref", z_ref)
        object.__setattr__(self, "x_ref", x_ref)
        if self.alpha is not None:
            alpha = _per_input(self.alpha, "alpha", z_ref.size)
            if np.any(alpha < 0):
                raise InvalidValue("alpha must be nonnegative")
            object.__setattr__(self, "alpha", alpha)
        if self.beta is not None and not (finite_real(self.beta) and self.beta > 0):
            raise InvalidValue("beta must be a positive number")
        if self.scale is not None:
            scale = _per_input(self.scale, "scale", z_ref.size)
            if np.any(scale <= 0):
                raise InvalidValue("scale must be positive")
            object.__setattr__(self, "scale", scale)
        if self.delta_cap is not None and not (finite_real(self.delta_cap) and self.delta_cap > 0):
            raise InvalidValue("delta_cap must be a positive number")
        if not isinstance(self.clip_to_domain, bool):
            raise InvalidValue("clip_to_domain must be true or false")
        if not isinstance(self.query_id, str):
            raise InvalidValue("query_id must be a string")

    @classmethod
    def from_dict(cls, item, n: int) -> "VerificationQuery":
        """The query a query file's `n`-th (0-based) object describes, with
        `to_dict`'s keys; a missing key takes the field's default, and the
        id defaults to `q{n + 1}`."""
        if not isinstance(item, dict):
            raise ParseError(f"query {n}: must be a JSON object")
        unknown = sorted(set(item) - {f.name for f in fields(cls)})
        if unknown:
            raise ParseError(f"query {n}: unknown keys {', '.join(unknown)}")
        if "z_ref" not in item or "x_ref" not in item:
            raise ParseError(f"query {n}: z_ref and x_ref are required")
        return cls(**{"query_id": f"q{n + 1}", **item})

    def check(self, net: FoldedNetwork, kind: str) -> None:
        """Raise unless the query asks `kind`'s question of `net`: a
        "robustness" query needs `alpha`, a "trust" one `beta`, and both
        need one `z_ref` entry per input and one `x_ref` entry per output."""
        verb, need = ("robustness", "alpha") if kind == "robustness" else ("trustworthiness", "beta")
        if getattr(self, need) is None:
            raise InvalidArg(f"{verb} needs {need}")
        if self.z_ref.shape[0] != net.input_dim:
            raise DimensionMismatch("z_ref length != network input dimension")
        if self.x_ref.shape[0] != net.num_outputs:
            raise DimensionMismatch("x_ref length != network output count")

    def region(self, kind: str) -> InputBox:
        """The inputs `kind`'s question ranges over: for robustness the ball
        of radii `alpha` around `z_ref`, clipped to the unit box unless
        `clip_to_domain` is false; for trust the unit box."""
        if kind == "robustness":
            return InputBox.ball(self.z_ref, self.alpha, clip=self.clip_to_domain)
        return InputBox.unit(self.z_ref.size)

    def effective_scale(self) -> np.ndarray:
        return self.scale if self.scale is not None else np.ones_like(self.z_ref)

    def effective_delta_cap(self) -> float:
        """The trust radius cap: the query's own, else the default one."""
        if self.delta_cap is not None:
            return self.delta_cap
        return default_delta_cap(self.z_ref, self.effective_scale())

    def to_dict(self) -> dict:
        """One key per field, in field order, with arrays as lists."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        return {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in d.items()}


def query_hash(q: VerificationQuery) -> str:
    text = json.dumps(q.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class VerifyOptions:
    bnb: BnbOptions = field(default_factory=BnbOptions)
    tighten: bool = True  # LP-tighten the propagated bounds before classifying neurons


@dataclass
class OutputRobustness:
    name: str
    dev_plus: float | None
    dev_minus: float | None
    R: float | None
    witness: np.ndarray | None
    status: str  # "certified" | "gap_limit" | "uncertified"
    gap: float


@dataclass
class RobustnessResult:
    query: VerificationQuery
    per_output: list[OutputRobustness]
    certified: bool
    stability_counts: dict
    wall_time: float  # the whole call: bounds, tightening, encoding and B&B
    stats: dict = field(default_factory=dict)  # see _common_fields

    @property
    def R(self) -> np.ndarray:
        return np.array([np.nan if o.R is None else o.R for o in self.per_output])


@dataclass
class OutputTrust:
    name: str
    found: bool
    delta_min: float | None
    sign: int | None
    witness: np.ndarray | None
    delta_cap: float
    status: str  # "certified" | "gap_limit" | "uncertified"
    gap: float


@dataclass
class TrustResult:
    query: VerificationQuery
    per_output: list[OutputTrust]
    delta_min: float | None  # min over found outputs
    certified: bool
    stability_counts: dict
    wall_time: float  # the whole call: bounds, tightening, encoding and B&B
    stats: dict = field(default_factory=dict)  # see _common_fields


def box_bounds(net: FoldedNetwork, box: InputBox, tighten: bool) -> tuple[LayerBounds, StabilityMap, SolveStats]:
    """Activation bounds over `box`: interval propagation, then, if
    `tighten`, LP tightening, whose LPs' work is counted in the returned
    stats; and the neurons' stability under the bounds."""
    stats = SolveStats()
    lb = propagate_bounds(net, box)
    if tighten:
        lb = lp_tighten(net, box, lb, stats)
    return lb, classify_neurons(lb), stats


def _common_fields(t0, per_output, sm, searches, tighten, shared) -> dict:
    """The result fields both kinds carry. `stats` sums the B&B work of the
    query's `searches` and `shared`, its other LP work outside them; the
    bound tightening's LPs stay apart under "tighten", so the top-level
    counts keep relating to the B&B nodes."""
    for r in searches:
        shared.merge(r.stats)
    return {
        "per_output": per_output,
        "certified": all(o.status == "certified" for o in per_output),
        "stability_counts": sm.counts(),
        "wall_time": time.perf_counter() - t0,
        "stats": {
            "subproblems": sum(r.problems for r in searches),
            "nodes": sum(r.nodes for r in searches),
            **shared.as_dict(),
            "tighten": tighten.as_dict(),
        },
    }


def robustness(
    net: FoldedNetwork, q: VerificationQuery, opts: VerifyOptions | None = None
) -> RobustnessResult:
    """Certified worst-case deviation of each output over the perturbation
    ball around the reference input, via one max and one min problem per
    output."""
    t0 = time.perf_counter()
    opts = opts or VerifyOptions()
    q.check(net, "robustness")
    box = q.region("robustness")
    lb, sm, tighten = box_bounds(net, box, opts.tighten)
    base = encode_network(net, lb, sm, box)
    shared = SolveStats()
    root_start = shared_root_start(base, shared)

    searches = [
        solve_milp(set_robustness_objective(base, i, sign, float(q.x_ref[i])), opts.bnb, root_start=root_start)
        for i in range(net.num_outputs)
        for sign in (1, -1)
    ]

    per_output = []
    for name, plus, minus in zip(net.output_names, searches[::2], searches[1::2]):
        if plus.found and minus.found:
            dev_plus, dev_minus = plus.incumbent_value, -minus.incumbent_value
            gaps = [r.gap for r in (plus, minus) if r.status is BnbStatus.GAP_LIMIT]
            out = OutputRobustness(
                name=name,
                dev_plus=dev_plus,
                dev_minus=dev_minus,
                R=max(dev_plus, abs(dev_minus)),
                witness=(plus if dev_plus >= abs(dev_minus) else minus).z,
                status="gap_limit" if gaps else "certified",
                gap=max([0.0, *gaps]),
            )
        else:  # infeasible, or a limit hit before any feasible point
            out = OutputRobustness(name, None, None, None, None, "uncertified", float("inf"))
        per_output.append(out)
    res = RobustnessResult(query=q, **_common_fields(t0, per_output, sm, searches, tighten, shared))
    _log.debug("robustness %r: %.3f s, %s", q.query_id, res.wall_time, res.stats)
    return res


def set_trust_problem(net: FoldedNetwork, region: LayerBounds, z_ref, scale, d: float) -> MilpProblem:
    """The base encoding of one trust search step: the ball of scaled
    radius `d` around `z_ref`, clipped to the unit box. The ball's interval
    bounds are clipped into `region`'s, the bounds of the unit box, which
    hold on every ball inside it. Each output's `+` and `-` problems over
    the ball are this base's `set_robustness_objective` pair."""
    box = InputBox.ball(z_ref, d * np.asarray(scale))
    ball = propagate_bounds(net, box)
    lo = [np.maximum(a, b) for a, b in zip((*ball.pre_lo, ball.out_lo), (*region.pre_lo, region.out_lo))]
    hi = [np.minimum(a, b) for a, b in zip((*ball.pre_hi, ball.out_hi), (*region.pre_hi, region.out_hi))]
    hi = [np.maximum(h, l) for h, l in zip(hi, lo)]  # both hold, so an empty intersection is roundoff
    lb = LayerBounds(tuple(lo[:-1]), tuple(hi[:-1]), out_lo=lo[-1], out_hi=hi[-1])
    return encode_network(net, lb, classify_neurons(lb), box)


@dataclass
class RadiusSearch:
    """One output's trust search: its bracket [lo, hi], the witness at `hi`
    and its sign (None without one), its status and every step's search."""

    lo: float
    hi: float | None
    witness: np.ndarray | None
    sign: int | None
    status: str  # "certified" | "gap_limit" | "uncertified"
    steps: list[MilpResult]

    @property
    def gap(self) -> float:
        if self.status == "certified":
            return 0.0
        return self.hi - self.lo if self.hi is not None else float("inf")


def _left(opts: BnbOptions, steps: list[MilpResult], t0: float) -> BnbOptions | None:
    """`opts` with what is left of its node and time limits after `steps`,
    begun at `t0`; None once either is spent."""
    nodes, seconds = opts.node_limit, opts.time_limit_seconds
    if nodes is not None:
        nodes -= sum(r.nodes for r in steps)
        if nodes <= 0:
            return None
    if seconds is not None:
        seconds -= time.perf_counter() - t0
        if seconds <= 0:
            return None
    return replace(opts, node_limit=nodes, time_limit_seconds=seconds)


def search_radius(step, z_ref, scale, dev0: float, beta: float, cap: float, opts: BnbOptions) -> RadiusSearch:
    """The smallest scaled radius around `z_ref` at which an output's worst
    deviation R(d) reaches `beta`, bracketed by robustness searches on
    nested balls, over which R is nondecreasing. `step(d, opts)` searches
    the output's `+`/`-` pair over the ball of radius d; `dev0`, the
    output's deviation at `z_ref`, answers 0 if it reaches `beta` already.

    A step whose incumbent reaches `beta` makes its witness's radius, at
    most d, the upper end `hi`; else one whose proven bound is below `beta`
    makes d the lower end `lo`. "Reaches" allows `_REACH_TOL`, roundoff in
    the witness's forward pass: a looser tolerance would let a witness
    short of `beta` put `hi` below the answer by the tolerance over R's
    slope. The first step runs at `cap`, where a bound below `beta` proves
    the target out of reach. Each next radius is the regula falsi root of
    R - beta from the ends' incumbent values, with the Illinois halving of
    an end kept twice running, clamped 1e-3 of the bracket's width inside
    it; it is the midpoint where the clamp rounds onto an end, or where two
    witnesses running fall short of `beta` and give no slope. The search is
    certified once `hi - lo` is within the options' gaps or holds no float
    to step to. The node and time limits bound the whole search, each step
    getting what is left; a step that proves neither end, or a spent
    limit, ends it `gap_limit`, or `uncertified` with no witness yet."""
    t0 = time.perf_counter()
    if abs(dev0) >= beta - _REACH_TOL:
        return RadiusSearch(0.0, 0.0, np.array(z_ref, dtype=float), 1 if dev0 > 0 else -1, "certified", [])
    lo, g_lo = 0.0, abs(dev0) - beta
    hi = g_hi = witness = sign = last = None  # last: the end the previous step moved
    steps: list[MilpResult] = []
    d = cap
    while (left := _left(opts, steps, t0)) is not None:
        r = step(d, left)
        steps.append(r)
        if r.found and r.incumbent_value >= beta - _REACH_TOL:
            # the witness lies in the ball, so its radius passes d by roundoff at most
            hi, g_hi = min(float(np.max(np.abs(r.z - z_ref) / scale)), d), r.incumbent_value - beta
            witness, sign, moved = r.z, (1, -1)[r.source], "hi"
            decision = f"reaches beta, hi = {hi!r}"
        elif r.best_bound < beta:
            lo, moved, decision = d, "lo", "below beta, lo = d"
            if r.found:
                g_lo = r.incumbent_value - beta
        else:
            moved, decision = None, "proves neither end"
        _log.debug(
            "step %d radius %r incumbent %r bound %r: %s", len(steps), d, r.incumbent_value, r.best_bound, decision
        )
        if moved is None:
            break
        if hi is None:  # the cap's bound is below beta
            return RadiusSearch(lo, None, None, None, "certified", steps)
        w = hi - lo
        if w <= max(opts.abs_gap, opts.rel_gap * hi):
            return RadiusSearch(lo, hi, witness, sign, "certified", steps)
        if moved == last == "hi":
            g_lo *= 0.5
        elif moved == last == "lo":
            g_hi *= 0.5
        d = min(max(lo + w * g_lo / (g_lo - max(g_hi, 0.0)), lo + 1e-3 * w), hi - 1e-3 * w)
        if (moved == last == "hi" and g_hi <= 0) or not lo < d < hi:
            d = lo + 0.5 * w
            if not lo < d < hi:
                return RadiusSearch(lo, hi, witness, sign, "certified", steps)
        last = moved
    return RadiusSearch(lo, hi, witness, sign, "gap_limit" if hi is not None else "uncertified", steps)


def trustworthiness(
    net: FoldedNetwork, q: VerificationQuery, opts: VerifyOptions | None = None
) -> TrustResult:
    """Smallest scaled perturbation radius that moves each output at least
    beta away from its reference, searched over the full unit box: for each
    output, a `search_radius` whose steps search the output's robustness
    pair on shrinking balls, each from its ball's base (`set_trust_problem`)
    and that base's shared root start, and each ending once it decides
    whether its ball reaches beta; the cap's ball, every output's first
    step, is built once. The sign is the one whose deviation reached beta at
    the witness. `stats["radius_search"]` gives each output's step and node
    counts and its final bracket."""
    t0 = time.perf_counter()
    opts = opts or VerifyOptions()
    q.check(net, "trust")
    scale = q.effective_scale()
    cap = q.effective_delta_cap()
    lb, sm, tighten = box_bounds(net, q.region("trust"), opts.tighten)
    dev0 = forward(net, q.z_ref) - q.x_ref
    shared = SolveStats()

    def ball(d):
        base = set_trust_problem(net, lb, q.z_ref, scale, d)
        return base, shared_root_start(base, shared)

    cap_ball = None  # every output's first step searches the cap's ball: built once
    per_output, searches, brackets = [], [], []
    for i, name in enumerate(net.output_names):
        x_ref_i = float(q.x_ref[i])

        def step(d, bnb_opts):
            nonlocal cap_ball
            if d == cap and cap_ball is None:
                cap_ball = ball(cap)
            base, root_start = cap_ball if d == cap else ball(d)
            plus, minus = (set_robustness_objective(base, i, sign, x_ref_i) for sign in (1, -1))
            return solve_milp(plus, bnb_opts, root_start=root_start, rivals=(minus,), target=q.beta - _REACH_TOL)

        s = search_radius(step, q.z_ref, scale, float(dev0[i]), q.beta, cap, opts.bnb)
        searches += s.steps
        brackets.append({"steps": len(s.steps), "nodes": sum(r.nodes for r in s.steps), "lo": s.lo, "hi": s.hi})
        per_output.append(OutputTrust(name, s.hi is not None, s.hi, s.sign, s.witness, cap, s.status, s.gap))
    found_vals = [o.delta_min for o in per_output if o.found]
    res = TrustResult(
        query=q,
        delta_min=min(found_vals) if found_vals else None,
        **_common_fields(t0, per_output, sm, searches, tighten, shared),
    )
    res.stats["radius_search"] = brackets
    _log.debug("trustworthiness %r: %.3f s, %s", q.query_id, res.wall_time, res.stats)
    return res


def verify_each(run, net: FoldedNetwork, queries: list[VerificationQuery], opts: VerifyOptions | None):
    """`run(net, q, opts)` for each query in turn: the results, None where a
    query was bad input, and the errors, "<error type>: <message>" for a bad
    query and None for one that ran."""
    results, errors = [], []
    for q in queries:
        try:
            results.append(run(net, q, opts))
            errors.append(None)
        except (InvalidArg, InvalidValue, DimensionMismatch) as e:
            results.append(None)
            errors.append(f"{type(e).__name__}: {e}")
    return results, errors


@dataclass
class BatchRobustness:
    per_query: list[RobustnessResult | None]
    errors: list[str | None]
    aggregate_R: np.ndarray
    output_names: list[str]


def robustness_batch(
    net: FoldedNetwork, queries: list[VerificationQuery], opts: VerifyOptions | None = None
) -> BatchRobustness:
    """Robustness across operating conditions; the aggregate is the per-output
    elementwise max of R over the queries that completed."""
    if not queries:
        raise InvalidArg("need at least one query")
    per_query, errors = verify_each(robustness, net, queries, opts)
    agg = np.full(net.num_outputs, -np.inf)
    for r in per_query:
        if r is None:
            continue
        agg = np.fmax(agg, r.R)  # fmax ignores NaN from uncertified outputs
    return BatchRobustness(
        per_query=per_query,
        errors=errors,
        aggregate_R=agg,
        output_names=list(net.output_names),
    )


@dataclass
class Comparison:
    R: np.ndarray
    T: np.ndarray
    diff: np.ndarray  # R - T per output
    sample_query: np.ndarray  # index of the matched query per sample
    flagged: np.ndarray  # samples outside every query's ball
    samples_used: int
    hist_edges: np.ndarray
    hist_counts: np.ndarray


def compare_robustness_vs_test(
    batch: BatchRobustness, net: FoldedNetwork, inputs, targets
) -> Comparison:
    """Certified-vs-observed comparison. Each test sample is matched to the
    query whose ball holds it most centrally; T_i is the largest deviation
    |out_i(sample) - x_ref_i| of the model output at a matched sample from
    that query's reference output. It is not an error
    against the samples' targets: `targets` is only shape-checked. Samples
    inside no ball are flagged and excluded from the guarantee."""
    inputs = np.asarray(inputs, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if inputs.ndim != 2 or inputs.shape[1] != net.input_dim:
        raise DimensionMismatch("test inputs have wrong width")
    if targets.shape != (inputs.shape[0], net.num_outputs):
        raise DimensionMismatch("test targets have wrong shape")
    queries = [r.query for r in batch.per_query if r is not None]
    if not queries:
        raise InvalidArg("no completed queries to compare against")

    # each sample's scaled distance to the nearest query's centre; a strict
    # improvement is needed to move on, so ties go to the first query
    best_d = np.full(inputs.shape[0], np.inf)
    sample_query = np.zeros(inputs.shape[0], dtype=int)
    for qi, q in enumerate(queries):
        dz = np.abs(inputs - q.z_ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q.alpha > 0, dz / q.alpha, np.where(dz <= 1e-12, 0.0, np.inf))
        d = ratio.max(axis=1)
        closer = d < best_d
        best_d[closer] = d[closer]
        sample_query[closer] = qi
    flagged = best_d > 1.0 + 1e-9
    inside = ~flagged
    x_ref = np.array([q.x_ref for q in queries])
    err = np.abs(forward(net, inputs)[inside] - x_ref[sample_query[inside]])
    T = err.max(axis=0, initial=0.0)
    used = int(inside.sum())
    diff = batch.aggregate_R - T
    counts, edges = histogram(diff[np.isfinite(diff)])
    return Comparison(
        R=batch.aggregate_R.copy(),
        T=T,
        diff=diff,
        sample_query=sample_query,
        flagged=flagged,
        samples_used=used,
        hist_edges=edges,
        hist_counts=counts,
    )


# ---------------------------------------------------------------------------
# report assembly

def _provenance(network_hash: str, q: VerificationQuery | None, opts: VerifyOptions) -> dict:
    return {
        "network_sha256": network_hash,
        "query_sha256": query_hash(q) if q is not None else None,
        "tolerances": tolerances(),
        "solver": asdict(opts.bnb),
    }


def _report(
    kind: str, result, output_fields: tuple[str, ...], first: tuple[str, object], network_hash: str, opts
) -> dict:
    """One query's report: each output's `name`, then its kind's
    `output_fields`, then its status, gap and witness; the aggregate leads
    with the kind's `first` (key, value)."""
    opts = opts or VerifyOptions()
    return {
        "kind": kind,
        "query_id": result.query.query_id,
        "query": result.query.to_dict(),
        "per_output": [
            {
                "name": o.name,
                **{f: getattr(o, f) for f in output_fields},
                "status": o.status,
                "gap": None if not np.isfinite(o.gap) else o.gap,
                "witness": None if o.witness is None else o.witness.tolist(),
            }
            for o in result.per_output
        ],
        "aggregate": {
            first[0]: first[1],
            "certified": result.certified,
            "certified_fixing": True,  # stability is fixed only from proven bounds
            "stability": result.stability_counts,
        },
        "provenance": _provenance(network_hash, result.query, opts),
    }


def robustness_report(
    result: RobustnessResult, network_hash: str = "", opts: VerifyOptions | None = None
) -> dict:
    r_max = max((o.R for o in result.per_output if o.R is not None), default=None)
    return _report("robustness", result, ("dev_plus", "dev_minus", "R"), ("R_max", r_max), network_hash, opts)


def trust_report(
    result: TrustResult, network_hash: str = "", opts: VerifyOptions | None = None
) -> dict:
    fields = ("found", "delta_min", "sign", "delta_cap")
    return _report("trust", result, fields, ("delta_min", result.delta_min), network_hash, opts)


def batch_report(
    batch: BatchRobustness, network_hash: str = "", opts: VerifyOptions | None = None
) -> dict:
    opts = opts or VerifyOptions()
    return {
        "kind": "robustness_batch",
        "queries": [
            {"error": err} if r is None else robustness_report(r, network_hash, opts)
            for r, err in zip(batch.per_query, batch.errors)
        ],
        "aggregate": {
            "output_names": batch.output_names,
            "R": [None if not np.isfinite(v) else v for v in batch.aggregate_R],
        },
        "provenance": _provenance(network_hash, None, opts),
    }


def timing_sidecar(results) -> dict:
    """Wall-clock times and solver statistics, kept apart from the reports so
    byte-for-byte report comparisons stay meaningful across runs."""
    times = [float(r.wall_time) for r in results]
    return {
        "per_result_seconds": times,
        "total_seconds": float(sum(times)),
        "per_result_stats": [r.stats for r in results],
    }


def delta_percent(
    delta: float, z_ref, scale, norm_lo, norm_hi
) -> float:
    """Radius as percent of the physical reference magnitude, worst case over
    input channels. Channels with a zero reference fall back to percent of
    the channel's physical range."""
    z_ref = np.asarray(z_ref, dtype=float)
    scale = np.asarray(scale, dtype=float)
    span = np.asarray(norm_hi, dtype=float) - np.asarray(norm_lo, dtype=float)
    phys_ref = np.asarray(norm_lo, dtype=float) + z_ref * span
    denom = np.where(np.abs(phys_ref) > 1e-12, np.abs(phys_ref), span)
    return float(np.max(100.0 * delta * scale * span / denom))


def trust_percents(res: TrustResult, norm_lo, norm_hi) -> list[float | None]:
    """Each output's `delta_percent`, None where no witness was found."""
    q = res.query
    return [
        delta_percent(o.delta_min, q.z_ref, q.effective_scale(), norm_lo, norm_hi) if o.found else None
        for o in res.per_output
    ]


def trust_table_csv(results: list[TrustResult], norm_lo, norm_hi) -> str:
    """Per-output minimum perturbation as percent of the reference magnitude,
    one row per (query, output); "not_found" marks outputs proven not to
    move by beta within the radius cap, and "uncertified" those whose
    search hit a limit before it found a witness. Ids and names holding a
    comma or a quote are quoted."""
    buf = io.StringIO()
    out = csv.writer(buf, lineterminator="\n")
    out.writerow(["query_id", "output_name", "delta_min_percent"])
    for res in results:
        for o, pct in zip(res.per_output, trust_percents(res, norm_lo, norm_hi)):
            if pct is not None:
                cell = repr(pct)
            else:
                cell = "uncertified" if o.status == "uncertified" else "not_found"
            out.writerow([res.query.query_id, o.name, cell])
    return buf.getvalue()


def histogram(values) -> tuple[np.ndarray, np.ndarray]:
    """Ten-bin counts and edges of `values`, as `np.histogram` gives them;
    with no values, ten empty bins over [0, 1]."""
    values = np.asarray(values, dtype=float)
    if values.size:
        return np.histogram(values, bins=10)
    return np.zeros(10, dtype=int), np.linspace(0.0, 1.0, 11)


def histogram_csv(edges, counts) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
    return "\n".join(lines) + "\n"
