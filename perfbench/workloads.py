"""The three workloads: how each builds its network, how it draws its
queries from the seed, and how it runs one round of them.

A round is one pass over the workload's queries through a public entry
point of relucert. Every query is timed from outside, around the public
call; nothing reads the program's own `wall_time` fields or timing sidecar,
which leave out LP tightening and encoding.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import relucert as rc
from relucert import cli, verify
from tracing import patched


@dataclass(frozen=True)
class Recipe:
    data: tuple  # gen_synthetic(n0, m, samples, noise, seed)
    widths: tuple
    epochs: int
    seed: int


NETWORKS = {
    # ROADMAP workload W1: 4 -> 12, 12 -> 2
    "w1": Recipe(data=(4, 2, 300, 0.01, 11), widths=(12, 12), epochs=60, seed=1),
    # the acceptance-suite desk network: 8 -> 8, 8 -> 4
    "desk": Recipe(data=(8, 4, 400, 0.01, 11), widths=(8, 8), epochs=150, seed=5),
}

# Centres are fixed so that a round costs about the same on every seed; the
# seed moves each centre by at most JITTER per coordinate and shuffles the
# query order. A larger move changes which neurons are unstable and with it
# the B&B tree size by far more than the run-to-run noise.
JITTER = 0.002
DEEP_CENTRES = ((0.7, 0.7, 0.7, 0.7), (0.6, 0.4, 0.7, 0.5))
DEEP_ALPHA = 0.15
BATCH_QUERIES = 40  # the first 40 test-split inputs of the desk dataset
BATCH_ALPHA = 0.03
TRUST_REFS = (11, 15)  # test-split positions of the desk dataset
TRUST_BETA = 0.1


@dataclass(frozen=True)
class Workload:
    network: str
    kind: str  # "robustness" | "trust" | "cli"


WORKLOADS = {
    "rob-deep": Workload("w1", "robustness"),
    "rob-batch": Workload("desk", "cli"),
    "trust-unit": Workload("desk", "trust"),
}


@dataclass
class Built:
    net: rc.FoldedNetwork
    ds: rc.Dataset
    network_hash: str
    workdir: Path


def build(name: str, workdir: Path) -> Built:
    """Generate, train, save/load round trip, fold: the workload's set-up."""
    r = NETWORKS[WORKLOADS[name].network]
    ds = rc.gen_synthetic(*r.data)
    text = rc.save_network(rc.train(ds, rc.TrainConfig(widths=r.widths, epochs=r.epochs, seed=r.seed)))
    spec = rc.load_network(text)
    if WORKLOADS[name].kind == "cli":
        (workdir / "net.json").write_text(text)
        (workdir / "data.csv").write_text(rc.save_dataset(ds))
    return Built(net=rc.fold_bn(spec), ds=ds, network_hash=rc.network_hash(spec), workdir=workdir)


def _jittered(rng, z) -> np.ndarray:
    z = np.asarray(z, dtype=float)
    return np.clip(z + rng.uniform(-JITTER, JITTER, size=z.shape), 0.0, 1.0)


def make_queries(name: str, b: Built, seed: int) -> list[rc.VerificationQuery]:
    rng = np.random.default_rng(seed)
    test = b.ds.test_idx
    if name == "rob-deep":
        qs = []
        for k, c in enumerate(DEEP_CENTRES):
            z = _jittered(rng, c)
            qs.append(rc.VerificationQuery(z_ref=z, x_ref=rc.forward(b.net, z), alpha=DEEP_ALPHA, query_id=f"d{k}"))
    elif name == "rob-batch":
        # centred on test inputs so the --dataset comparison has in-ball samples
        qs = [
            rc.VerificationQuery(
                z_ref=_jittered(rng, b.ds.inputs[i]), x_ref=b.ds.targets[i], alpha=BATCH_ALPHA, query_id=f"b{k}"
            )
            for k, i in enumerate(test[:BATCH_QUERIES])
        ]
    else:
        qs = []
        for k in TRUST_REFS:
            z = _jittered(rng, b.ds.inputs[test[k]])
            qs.append(rc.VerificationQuery(z_ref=z, x_ref=rc.forward(b.net, z), beta=TRUST_BETA, query_id=f"t{k}"))
    qs = [qs[i] for i in rng.permutation(len(qs))]
    if WORKLOADS[name].kind == "cli":  # verify-robust reads its queries from a file
        (b.workdir / "queries.json").write_text(json.dumps([q.to_dict() for q in qs]))
    return qs


# ---------------------------------------------------------------------------
# result records, in the form perfbench/check.py reads

def _vec(v):
    return None if v is None else np.asarray(v, dtype=float).tolist()


def _record(q: rc.VerificationQuery, res) -> dict:
    if isinstance(res, rc.RobustnessResult):
        return {
            "kind": "robustness",
            "z_ref": _vec(q.z_ref), "x_ref": _vec(q.x_ref), "alpha": _vec(q.alpha),
            "certified": res.certified,
            "outputs": [
                {"dev_plus": o.dev_plus, "dev_minus": o.dev_minus, "R": o.R,
                 "witness": _vec(o.witness), "status": o.status}
                for o in res.per_output
            ],
        }
    return {
        "kind": "trust",
        "z_ref": _vec(q.z_ref), "x_ref": _vec(q.x_ref), "beta": q.beta,
        "scale": _vec(q.effective_scale()),
        "certified": res.certified,
        "outputs": [
            {"found": o.found, "delta_min": o.delta_min, "sign": o.sign,
             "witness": _vec(o.witness), "delta_cap": o.delta_cap, "status": o.status}
            for o in res.per_output
        ],
    }


def _report_record(entry: dict) -> dict:
    q = entry["query"]
    return {
        "kind": "robustness",
        "z_ref": q["z_ref"], "x_ref": q["x_ref"], "alpha": q["alpha"],
        "certified": entry["aggregate"]["certified"],
        "outputs": [
            {k: o[k] for k in ("dev_plus", "dev_minus", "R", "witness", "status")}
            for o in entry["per_output"]
        ],
    }


@dataclass
class Round:
    records: list  # one per query; None where the query raised
    query_s: list  # wall time of each query
    errors: list   # why a query raised, one line each
    faults: list   # properties of the whole round that did not hold


def run_round(name: str, b: Built, queries) -> Round:
    if WORKLOADS[name].kind == "cli":
        return _cli_round(b, queries)
    entry = verify.robustness if WORKLOADS[name].kind == "robustness" else verify.trustworthiness
    records, times, errors = [], [], []
    for q in queries:
        t0 = time.perf_counter()
        try:
            res = entry(b.net, q)
        except rc.RelucertError as e:
            res = None
            errors.append(f"{q.query_id}: {type(e).__name__}: {e}")
        times.append(time.perf_counter() - t0)
        records.append(None if res is None else _record(q, res))
    return Round(records, times, errors, [])


def _cli_round(b: Built, queries) -> Round:
    """`relucert verify-robust --tighten --dataset ... --histogram ...`, in
    process, timing each query around the `robustness` call the batch makes."""
    d = b.workdir
    times = []
    inner = verify.robustness

    def timed(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return inner(*args, **kwargs)
        finally:
            times.append(time.perf_counter() - t0)

    argv = [
        "verify-robust", "--network", str(d / "net.json"), "--queries", str(d / "queries.json"),
        "--out", str(d / "report.json"), "--tighten",
        "--dataset", str(d / "data.csv"), "--histogram", str(d / "hist.csv"),
    ]
    with patched([(verify, "robustness", timed)]), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    if code != 0:
        return Round([None] * len(queries), times, [f"verify-robust exited with {code}"], [])
    rep = json.loads((d / "report.json").read_text())
    records, errors = [], []
    for q, entry in zip(queries, rep["queries"]):
        if "error" in entry:
            records.append(None)
            errors.append(f"{q.query_id}: {entry['error']}")
        else:
            records.append(_report_record(entry))
    return Round(records, times, errors, comparison_faults(rep.get("comparison")))


def comparison_faults(cmp: dict | None) -> list[str]:
    """T is the largest deviation from a query's x_ref over the test samples
    inside its ball, and R bounds that deviation over the whole ball, so
    R - T >= 0 must hold up to solver tolerance. The balls must hold test
    samples for the comparison to say anything."""
    if cmp is None:
        return ["report has no comparison block"]
    faults = []
    if cmp["samples_used"] <= 0:
        faults.append("comparison used no test samples")
    for i, d in enumerate(cmp["R_minus_T"]):
        if d is None or d < -1e-6:
            faults.append(f"R_minus_T[{i}] = {d!r} < -1e-6")
    return faults
