"""Verification drivers: certified robustness over perturbation balls and
minimum-perturbation trust queries, their 2M-subproblem decomposition, batch
sweeps over operating conditions, and report assembly."""

from __future__ import annotations

import hashlib
import json
import logging
import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np

from .bnb import BnbOptions, BnbStatus, MilpResult, solve_milp
from .bounds import (
    InputBox,
    classify_neurons,
    empirical_stability,
    lp_tighten,
    propagate_bounds,
)
from .errors import DimensionMismatch, InvalidArg, InvalidValue, NumericalBreakdown, SolverFailure
from .milp import default_delta_cap, encode_network, set_robustness_objective, set_trust_problem
from .nnmodel import FoldedNetwork, forward
from .simplex import LpStatus, SimplexOptions, SolveStats, prepare, relaxed_bounds

_log = logging.getLogger(__name__)


def _is_real(v) -> bool:
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v)


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
        if np.any(z_ref < -1e-12) or np.any(z_ref > 1.0 + 1e-12):
            raise InvalidValue("z_ref must lie in the unit box")
        object.__setattr__(self, "z_ref", z_ref)
        object.__setattr__(self, "x_ref", x_ref)
        if self.alpha is not None:
            alpha = _per_input(self.alpha, "alpha", z_ref.size)
            if np.any(alpha < 0):
                raise InvalidValue("alpha must be nonnegative")
            object.__setattr__(self, "alpha", alpha)
        if self.beta is not None and not (_is_real(self.beta) and self.beta > 0):
            raise InvalidValue("beta must be a positive number")
        if self.scale is not None:
            scale = _per_input(self.scale, "scale", z_ref.size)
            if np.any(scale <= 0):
                raise InvalidValue("scale must be positive")
            object.__setattr__(self, "scale", scale)
        if self.delta_cap is not None and not (_is_real(self.delta_cap) and self.delta_cap > 0):
            raise InvalidValue("delta_cap must be a positive number")
        if not isinstance(self.clip_to_domain, bool):
            raise InvalidValue("clip_to_domain must be true or false")
        if not isinstance(self.query_id, str):
            raise InvalidValue("query_id must be a string")

    def effective_scale(self) -> np.ndarray:
        return self.scale if self.scale is not None else np.ones_like(self.z_ref)

    def to_dict(self) -> dict:
        return {
            "z_ref": self.z_ref.tolist(),
            "x_ref": self.x_ref.tolist(),
            "alpha": None if self.alpha is None else self.alpha.tolist(),
            "beta": self.beta,
            "scale": None if self.scale is None else self.scale.tolist(),
            "clip_to_domain": self.clip_to_domain,
            "delta_cap": self.delta_cap,
            "query_id": self.query_id,
        }


def query_hash(q: VerificationQuery) -> str:
    text = json.dumps(q.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


@dataclass(frozen=True)
class VerifyOptions:
    bnb: BnbOptions = field(default_factory=BnbOptions)
    tighten: bool = True  # LP-tighten propagated bounds (unless fixing empirically)
    # Empirically observed stability fixing. Fixing from samples is NOT a
    # certificate: results computed with it are marked uncertified.
    unsafe_empirical_fix_samples: np.ndarray | None = None


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
    box: InputBox
    per_output: list[OutputRobustness]
    certified: bool
    certified_fixing: bool
    stability_counts: dict
    wall_time: float  # the whole call: bounds, tightening, encoding and B&B
    stats: dict = field(default_factory=dict)  # see _solve_stats

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
    certified_fixing: bool
    stability_counts: dict
    wall_time: float  # the whole call: bounds, tightening, encoding and B&B
    stats: dict = field(default_factory=dict)  # see _solve_stats


def _prepare_base(net, box, opts, stats: SolveStats):
    """The query's base encoding; the tightening LPs' work goes to `stats`."""
    lb = propagate_bounds(net, box)
    if opts.unsafe_empirical_fix_samples is not None:
        sm = empirical_stability(net, opts.unsafe_empirical_fix_samples)
        certified_fixing = False
    else:
        if opts.tighten:
            lb = lp_tighten(net, box, lb, stats)
        sm = classify_neurons(lb)
        certified_fixing = True
    return encode_network(net, lb, sm, box), sm, certified_fixing


def _shared_root_start(base, stats: SolveStats):
    """The optimal solution every robustness root starts from, or None.

    Phase 1 and the expulsion of artificials never read the objective, so a
    cold root reaches the same basis before phase 2 in each of a query's
    subproblems, which differ from the base encoding only in objective.
    Solving the base under a zero objective finds that basis once, on the
    one engine every subproblem then searches on; each root adopts its
    tableau and runs phase 2 alone. The solve's work goes to `stats`.
    When it is not optimal or breaks down, every root solves cold."""
    try:
        sol = prepare(base).solve(*relaxed_bounds(base), np.zeros(base.num_vars), True)
    except NumericalBreakdown:
        return None
    stats.add(sol)
    return sol if sol.status is LpStatus.OPTIMAL else None


def _search(p, opts, **kwargs) -> MilpResult | SolverFailure:
    """`solve_milp`'s result, or the solver failure it raised (numerical
    breakdown included)."""
    try:
        return solve_milp(p, opts.bnb, **kwargs)
    except SolverFailure as e:
        return e


def _solve_stats(results, tighten: SolveStats, lp: SolveStats | None = None) -> dict:
    """B&B work summed over a query's searches that returned a result,
    added to `lp`, the query's other LP work outside them. The bound
    tightening's LPs stay apart under "tighten", so the top-level counts
    keep relating to the B&B nodes."""
    done = [r for r in results if isinstance(r, MilpResult)]
    lp = SolveStats() if lp is None else lp
    for r in done:
        lp.merge(r.stats)
    return {
        "subproblems": sum(r.problems for r in done),
        "nodes": sum(r.nodes for r in done),
        **lp.as_dict(),
        "tighten": tighten.as_dict(),
    }


def _status_of(*results) -> tuple[str, float]:
    gap = 0.0
    status = "certified"
    for r in results:
        if isinstance(r, Exception) or r is None:
            return "uncertified", float("inf")
        if r.status in (BnbStatus.GAP_LIMIT, BnbStatus.LIMIT):
            status = "gap_limit"
            gap = max(gap, r.gap)
        elif r.status is BnbStatus.INFEASIBLE:
            return "uncertified", float("inf")
    return status, gap


def _check_dims(net: FoldedNetwork, q: VerificationQuery):
    if q.z_ref.shape[0] != net.input_dim:
        raise DimensionMismatch("z_ref length != network input dimension")
    if q.x_ref.shape[0] != net.num_outputs:
        raise DimensionMismatch("x_ref length != network output count")


def robustness(
    net: FoldedNetwork, q: VerificationQuery, opts: VerifyOptions | None = None
) -> RobustnessResult:
    """Certified worst-case deviation of each output over the perturbation
    ball around the reference input, via one max and one min problem per
    output."""
    t0 = time.perf_counter()
    opts = opts or VerifyOptions()
    if q.alpha is None:
        raise InvalidArg("robustness needs alpha")
    _check_dims(net, q)
    box = InputBox.ball(q.z_ref, q.alpha, clip=q.clip_to_domain)
    tighten = SolveStats()
    base, sm, certified_fixing = _prepare_base(net, box, opts, tighten)
    shared = SolveStats()
    root_start = _shared_root_start(base, shared)

    results = [
        _search(set_robustness_objective(base, i, sign, float(q.x_ref[i])), opts, root_start=root_start)
        for i in range(net.num_outputs)
        for sign in (1, -1)
    ]

    names = net.output_names
    per_output = []
    for i in range(net.num_outputs):
        plus, minus = results[2 * i], results[2 * i + 1]
        status, gap = _status_of(plus, minus)
        dev_plus = dev_minus = R = None
        witness = None
        if status != "uncertified" and plus.found and minus.found:
            dev_plus = plus.incumbent_value
            dev_minus = -minus.incumbent_value
            R = max(dev_plus, abs(dev_minus))
            witness = (plus if dev_plus >= abs(dev_minus) else minus).z
        elif status != "uncertified":
            status = "uncertified"  # limit hit before any feasible point
        per_output.append(
            OutputRobustness(
                name=names[i],
                dev_plus=dev_plus,
                dev_minus=dev_minus,
                R=R,
                witness=witness,
                status=status,
                gap=gap,
            )
        )
    res = RobustnessResult(
        query=q,
        box=box,
        per_output=per_output,
        certified=certified_fixing and all(o.status == "certified" for o in per_output),
        certified_fixing=certified_fixing,
        stability_counts=sm.counts(),
        wall_time=time.perf_counter() - t0,
        stats=_solve_stats(results, tighten, shared),
    )
    _log.debug("robustness %r: %.3f s, %s", q.query_id, res.wall_time, res.stats)
    return res


def trustworthiness(
    net: FoldedNetwork, q: VerificationQuery, opts: VerifyOptions | None = None
) -> TrustResult:
    """Smallest scaled perturbation radius that moves each output at least
    beta away from its reference, searched over the full unit box. An
    output's `+` and `-` problems are searched as one tree, the `-` one as
    the rival of the `+` one, so the output's answer is the smaller radius
    and its sign; on a tie it is `+`."""
    t0 = time.perf_counter()
    opts = opts or VerifyOptions()
    if q.beta is None:
        raise InvalidArg("trustworthiness needs beta")
    _check_dims(net, q)
    scale = q.effective_scale()
    cap = q.delta_cap if q.delta_cap is not None else default_delta_cap(q.z_ref, scale)
    box = InputBox.unit(net.input_dim)
    tighten = SolveStats()
    base, sm, certified_fixing = _prepare_base(net, box, opts, tighten)

    names = net.output_names
    per_output = []
    results = []
    for i in range(net.num_outputs):
        plus, minus = (
            set_trust_problem(base, i, sign, q.beta, float(q.x_ref[i]), q.z_ref, scale, cap)
            for sign in (1, -1)
        )
        r = _search(plus, opts, rivals=(minus,))
        results.append(r)
        if isinstance(r, Exception) or r.status is BnbStatus.LIMIT:
            out = OutputTrust(names[i], False, None, None, None, cap, "uncertified", float("inf"))
        elif not r.found:
            # INFEASIBLE, certified: no input within delta_cap moves this output by beta
            out = OutputTrust(names[i], False, None, None, None, cap, "certified", 0.0)
        else:
            certified = r.status is BnbStatus.CERTIFIED
            out = OutputTrust(
                name=names[i],
                found=True,
                delta_min=r.incumbent_value,
                sign=(1, -1)[r.source],
                witness=r.z,
                delta_cap=cap,
                status="certified" if certified else "gap_limit",
                gap=0.0 if certified else r.gap,
            )
        per_output.append(out)
    found_vals = [o.delta_min for o in per_output if o.found]
    res = TrustResult(
        query=q,
        per_output=per_output,
        delta_min=min(found_vals) if found_vals else None,
        certified=certified_fixing and all(o.status == "certified" for o in per_output),
        certified_fixing=certified_fixing,
        stability_counts=sm.counts(),
        wall_time=time.perf_counter() - t0,
        stats=_solve_stats(results, tighten),
    )
    _log.debug("trustworthiness %r: %.3f s, %s", q.query_id, res.wall_time, res.stats)
    return res


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
    opts = opts or VerifyOptions()
    per_query: list[RobustnessResult | None] = []
    errors: list[str | None] = []
    for q in queries:
        try:
            per_query.append(robustness(net, q, opts))
            errors.append(None)
        except (InvalidArg, InvalidValue, DimensionMismatch, SolverFailure) as e:
            per_query.append(None)
            errors.append(f"{type(e).__name__}: {e}")
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
    batch: BatchRobustness, net: FoldedNetwork, inputs, targets, bins: int = 10
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
    finite = diff[np.isfinite(diff)]
    counts, edges = np.histogram(finite, bins=bins) if finite.size else (np.zeros(bins, dtype=int), np.linspace(0, 1, bins + 1))
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
        "tolerances": SimplexOptions().as_dict(),
        "solver": opts.bnb.as_dict(),
    }


def robustness_report(
    result: RobustnessResult, network_hash: str = "", opts: VerifyOptions | None = None
) -> dict:
    opts = opts or VerifyOptions()
    return {
        "kind": "robustness",
        "query_id": result.query.query_id,
        "query": result.query.to_dict(),
        "per_output": [
            {
                "name": o.name,
                "dev_plus": o.dev_plus,
                "dev_minus": o.dev_minus,
                "R": o.R,
                "status": o.status,
                "gap": None if not np.isfinite(o.gap) else o.gap,
                "witness": None if o.witness is None else o.witness.tolist(),
            }
            for o in result.per_output
        ],
        "aggregate": {
            "R_max": max((o.R for o in result.per_output if o.R is not None), default=None),
            "certified": result.certified,
            "certified_fixing": result.certified_fixing,
            "stability": result.stability_counts,
        },
        "provenance": _provenance(network_hash, result.query, opts),
    }


def trust_report(
    result: TrustResult, network_hash: str = "", opts: VerifyOptions | None = None
) -> dict:
    opts = opts or VerifyOptions()
    return {
        "kind": "trust",
        "query_id": result.query.query_id,
        "query": result.query.to_dict(),
        "per_output": [
            {
                "name": o.name,
                "found": o.found,
                "delta_min": o.delta_min,
                "sign": o.sign,
                "delta_cap": o.delta_cap,
                "status": o.status,
                "gap": None if not np.isfinite(o.gap) else o.gap,
                "witness": None if o.witness is None else o.witness.tolist(),
            }
            for o in result.per_output
        ],
        "aggregate": {
            "delta_min": result.delta_min,
            "certified": result.certified,
            "certified_fixing": result.certified_fixing,
            "stability": result.stability_counts,
        },
        "provenance": _provenance(network_hash, result.query, opts),
    }


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


def trust_table_csv(results: list[TrustResult], norm_lo, norm_hi) -> str:
    """Per-output minimum perturbation as percent of the reference magnitude,
    one row per (query, output); "not_found" marks outputs that cannot be
    moved by beta within the radius cap."""
    lines = ["query_id,output_name,delta_min_percent"]
    for res in results:
        scale = res.query.effective_scale()
        for o in res.per_output:
            if o.found:
                pct = delta_percent(o.delta_min, res.query.z_ref, scale, norm_lo, norm_hi)
                lines.append(f"{res.query.query_id},{o.name},{pct!r}")
            else:
                lines.append(f"{res.query.query_id},{o.name},not_found")
    return "\n".join(lines) + "\n"


def histogram_csv(edges, counts) -> str:
    lines = ["bin_lo,bin_hi,count"]
    for lo, hi, c in zip(edges[:-1], edges[1:], counts):
        lines.append(f"{float(lo)!r},{float(hi)!r},{int(c)}")
    return "\n".join(lines) + "\n"
