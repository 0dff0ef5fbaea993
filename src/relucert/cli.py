"""Batch command line front end.

Subcommands cover the whole pipeline: synthesize data, train, inspect
activation bounds, run robustness and trust sweeps, and cross-check emitted
reports against the enumeration oracle. Reports embed provenance (network
and query hashes, solver tolerances); timing lives in a separate sidecar
file so report bytes are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from .bnb import BnbOptions
from .bounds import InputBox, Stability, classify_neurons, lp_tighten, propagate_bounds
from .errors import (
    DimensionMismatch,
    InvalidArg,
    InvalidValue,
    ParseError,
    RelucertError,
    SolverFailure,
)
from .nnmodel import fold_bn, forward, load_network, network_hash, save_network
from .trainer import TrainConfig, evaluate, gen_synthetic, load_dataset, save_dataset, train
from .verify import (
    VerificationQuery,
    VerifyOptions,
    batch_report,
    compare_robustness_vs_test,
    delta_percent,
    histogram_csv,
    robustness,
    robustness_batch,
    robustness_report,
    timing_sidecar,
    trust_report,
    trust_table_csv,
    trustworthiness,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_DISCREPANCY = 3
CONFIG_ENV = "RELUCERT_CONFIG"
ORACLE_TOL = 1e-6


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # bad flags are input errors, exit code 1
        raise InvalidArg(message)


def _read_text(path: str) -> str:
    """An input file's text; a file that cannot be read as UTF-8 text is an
    input error."""
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def _read_json(path: str):
    text = _read_text(path)
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path} is not valid JSON: {e}") from e


def _load_config(explicit: str | None) -> dict:
    path = explicit or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ParseError(f"config {path} must be a JSON object")
    if not isinstance(cfg.get("tighten", False), bool):
        raise InvalidArg(f"config {path}: tighten must be true or false")
    if not isinstance(cfg.get("solver", {}), dict):
        raise InvalidArg(f"config {path}: solver must be a JSON object")
    if not isinstance(cfg.get("train", {}), dict):
        raise InvalidArg(f"config {path}: train must be a JSON object")
    return cfg


def _bnb_options(args, cfg: dict) -> BnbOptions:
    solver = cfg.get("solver", {})
    rel_gap = args.gap if getattr(args, "gap", None) is not None else solver.get("rel_gap", 1e-6)
    time_limit = (
        args.time_limit
        if getattr(args, "time_limit", None) is not None
        else solver.get("time_limit_seconds")
    )
    return BnbOptions(
        abs_gap=solver.get("abs_gap", 1e-8),
        rel_gap=rel_gap,
        node_limit=solver.get("node_limit"),
        time_limit_seconds=time_limit,
    )


def _verify_options(args, cfg: dict) -> VerifyOptions:
    tighten = args.tighten if args.tighten is not None else cfg.get("tighten", True)
    return VerifyOptions(bnb=_bnb_options(args, cfg), tighten=tighten)


def _load_net(path: str):
    spec = load_network(_read_text(path))
    return spec, fold_bn(spec), network_hash(spec)


def _query_from_dict(item: dict, n: int) -> VerificationQuery:
    if not isinstance(item, dict):
        raise ParseError(f"query {n}: must be a JSON object")
    unknown = sorted(set(item) - {f.name for f in fields(VerificationQuery)})
    if unknown:
        raise ParseError(f"query {n}: unknown keys {', '.join(unknown)}")
    if "z_ref" not in item or "x_ref" not in item:
        raise ParseError(f"query {n}: z_ref and x_ref are required")
    return VerificationQuery(
        z_ref=item["z_ref"],
        x_ref=item["x_ref"],
        alpha=item.get("alpha"),
        beta=item.get("beta"),
        scale=item.get("scale"),
        clip_to_domain=item.get("clip_to_domain", True),
        delta_cap=item.get("delta_cap"),
        query_id=item.get("query_id", f"q{n + 1}"),
    )


def _load_queries(path: str) -> tuple[list[VerificationQuery], bool]:
    doc = _read_json(path)
    single = isinstance(doc, dict)
    items = [doc] if single else doc
    if not isinstance(items, list):
        raise ParseError(f"{path} must hold a query object or a list of them")
    if not items:
        raise ParseError(f"{path} contains no queries")
    return [_query_from_dict(it, n) for n, it in enumerate(items)], single


def _write_json(path: str | None, doc: dict):
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _parse_vec(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")])
    except ValueError as e:
        raise InvalidArg(f"bad vector {text!r}: {e}") from e


# ---------------------------------------------------------------------------
# subcommands

def cmd_gen_data(args) -> int:
    ds = gen_synthetic(args.inputs, args.outputs, args.samples, args.noise, args.seed)
    Path(args.out).write_text(save_dataset(ds))
    print(f"wrote {args.samples} samples ({len(ds.train_idx)} train / {len(ds.test_idx)} test) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    ds = load_dataset(_read_text(args.dataset))
    kwargs = dict(cfg.get("train", {}))
    unknown = sorted(set(kwargs) - {f.name for f in fields(TrainConfig)})
    if unknown:
        raise InvalidArg(f"config: unknown train keys {', '.join(unknown)}")
    if args.widths is not None:
        try:
            kwargs["widths"] = tuple(int(v) for v in args.widths.split(","))
        except ValueError as e:
            raise InvalidArg(f"bad --widths {args.widths!r}: {e}") from e
    for name in ("epochs", "batch_size", "learning_rate", "eta", "bn_eps", "seed"):
        v = getattr(args, name)
        if v is not None:
            kwargs[name] = v
    spec = train(ds, TrainConfig(**kwargs))
    Path(args.out).write_text(save_network(spec))
    net = fold_bn(spec)
    T = evaluate(net, ds, "test")
    for name, t in zip(spec.output_names, T):
        print(f"test_max_abs_error {name} {float(t)!r}")
    print(f"network_sha256 {network_hash(spec)}")
    return EXIT_OK


def cmd_bounds(args) -> int:
    cfg = _load_config(args.config)
    spec, net, nh = _load_net(args.network)
    if (args.lo is None) != (args.hi is None):
        raise InvalidArg("give both --lo and --hi or neither")
    if args.lo is not None:
        box = InputBox(lo=_parse_vec(args.lo), hi=_parse_vec(args.hi))
    else:
        box = InputBox.unit(net.input_dim)
    lb = propagate_bounds(net, box)
    tighten = args.tighten if args.tighten is not None else cfg.get("tighten", False)
    if tighten:
        lb = lp_tighten(net, box, lb)
    sm = classify_neurons(lb)
    label = {int(Stability.DEAD): "dead", int(Stability.ACTIVE): "active", int(Stability.UNSTABLE): "unstable"}
    doc = {
        "network_sha256": nh,
        "box": {"lo": box.lo.tolist(), "hi": box.hi.tolist()},
        "tightened": bool(tighten),
        "bounds": lb.to_dict(),
        "stability": {
            "per_layer": [[label[int(v)] for v in layer] for layer in sm.layers],
            "counts": sm.counts(),
        },
    }
    _write_json(args.out, doc)
    return EXIT_OK


def cmd_verify_robust(args) -> int:
    cfg = _load_config(args.config)
    spec, net, nh = _load_net(args.network)
    queries, single = _load_queries(args.queries)
    opts = _verify_options(args, cfg)
    if single:
        res = robustness(net, queries[0], opts)
        rep = robustness_report(res, nh, opts)
        results = [res]
        batch = None
    else:
        batch = robustness_batch(net, queries, opts)
        rep = batch_report(batch, nh, opts)
        results = [r for r in batch.per_query if r is not None]
        if not results:
            raise InvalidArg("; ".join(e for e in batch.errors if e))
    if args.dataset is not None:
        ds = load_dataset(_read_text(args.dataset))
        if batch is None:
            from .verify import BatchRobustness

            batch = BatchRobustness(
                per_query=results,
                errors=[None],
                aggregate_R=results[0].R,
                output_names=[o.name for o in results[0].per_output],
            )
        cmp_res = compare_robustness_vs_test(
            batch, net, ds.inputs[ds.test_idx], ds.targets[ds.test_idx]
        )
        rep["comparison"] = {
            "T": cmp_res.T.tolist(),
            "R": [None if not np.isfinite(v) else float(v) for v in cmp_res.R],
            "R_minus_T": [None if not np.isfinite(v) else float(v) for v in cmp_res.diff],
            "bound_exceeds_test_error": [
                bool(np.isfinite(d) and d > 0) for d in cmp_res.diff
            ],
            "samples_used": cmp_res.samples_used,
            "samples_flagged_outside_balls": int(cmp_res.flagged.sum()),
        }
        if args.histogram:
            Path(args.histogram).write_text(histogram_csv(cmp_res.hist_edges, cmp_res.hist_counts))
    _write_json(args.out, rep)
    timing = args.timing or (args.out + ".timing.json" if args.out else None)
    if timing:
        Path(timing).write_text(json.dumps(timing_sidecar(results), indent=2) + "\n")
    for res in results:
        for o in res.per_output:
            r_txt = "uncertified" if o.R is None else repr(o.R)
            print(f"R {res.query.query_id} {o.name} {r_txt} {o.status}")
    return EXIT_OK


def cmd_verify_trust(args) -> int:
    cfg = _load_config(args.config)
    spec, net, nh = _load_net(args.network)
    queries, single = _load_queries(args.queries)
    opts = _verify_options(args, cfg)
    results = []
    entries = []
    for q in queries:
        try:
            res = trustworthiness(net, q, opts)
            results.append(res)
            entries.append(trust_report(res, nh, opts))
        except (InvalidArg, InvalidValue, DimensionMismatch) as e:
            if single:
                raise
            entries.append({"query_id": q.query_id, "error": f"{type(e).__name__}: {e}"})
    if not results:
        raise InvalidArg("no query could be verified")
    rep = entries[0] if single else {"kind": "trust_batch", "queries": entries}
    _write_json(args.out, rep)
    if args.table:
        Path(args.table).write_text(
            trust_table_csv(results, spec.input_norm_lo, spec.input_norm_hi)
        )
    if args.histogram:
        pcts = [
            delta_percent(o.delta_min, r.query.z_ref, r.query.effective_scale(),
                          spec.input_norm_lo, spec.input_norm_hi)
            for r in results
            for o in r.per_output
            if o.found
        ]
        if pcts:
            counts, edges = np.histogram(np.array(pcts), bins=10)
        else:
            counts, edges = np.zeros(10, dtype=int), np.linspace(0.0, 1.0, 11)
        Path(args.histogram).write_text(histogram_csv(edges, counts))
    timing = args.timing or (args.out + ".timing.json" if args.out else None)
    if timing:
        Path(timing).write_text(json.dumps(timing_sidecar(results), indent=2) + "\n")
    for r in results:
        for o in r.per_output:
            d_txt = repr(o.delta_min) if o.found else "not_found"
            print(f"delta_min {r.query.query_id} {o.name} {d_txt} {o.status}")
    return EXIT_OK


def _entry_query(net, entry) -> VerificationQuery:
    """A report entry's query, checked against the entry's kind and the
    network the entry is checked on."""
    q = _query_from_dict(entry["query"], 0)
    need = "alpha" if entry["kind"] == "robustness" else "beta"
    if getattr(q, need) is None:
        raise ParseError(f"a {entry['kind']} entry's query needs {need}")
    sizes = (q.z_ref.size, q.x_ref.size, len(entry["per_output"]))
    if sizes != (net.input_dim, net.num_outputs, net.num_outputs):
        raise DimensionMismatch(
            f"report entry has {sizes[0]} inputs, {sizes[1]} reference outputs and "
            f"{sizes[2]} per_output entries; the network has {net.input_dim} inputs "
            f"and {net.num_outputs} outputs"
        )
    return q


def _check_robustness_entry(net, entry, max_unstable, samples) -> float:
    from .oracle import RobustnessSpec, pattern_enumerate_opt, sample_bound

    q = _entry_query(net, entry)
    x_ref = np.asarray(q.x_ref)
    box = InputBox.ball(q.z_ref, q.alpha, clip=q.clip_to_domain)
    n_unstable = classify_neurons(propagate_bounds(net, box)).num_unstable
    disc = 0.0
    for i, o in enumerate(entry["per_output"]):
        if o["R"] is None:
            continue
        if o["witness"] is not None:
            dev = abs(float(forward(net, np.asarray(o["witness"]))[i]) - x_ref[i])
            disc = max(disc, abs(dev - o["R"]))
        if o["status"] != "certified":
            continue  # witness check only; the bound is not claimed exact
        if n_unstable <= max_unstable:
            vp = pattern_enumerate_opt(net, box, RobustnessSpec(i, 1, float(x_ref[i]))).value
            vm = pattern_enumerate_opt(net, box, RobustnessSpec(i, -1, float(x_ref[i]))).value
            disc = max(disc, abs(max(vp, abs(vm)) - o["R"]))
        else:
            sb = sample_bound(net, box, RobustnessSpec(i, 1, float(x_ref[i])), samples, seed=0)
            disc = max(disc, sb.value - o["R"])  # sampled feasible value must not exceed R
            sb = sample_bound(net, box, RobustnessSpec(i, -1, float(x_ref[i])), samples, seed=1)
            disc = max(disc, sb.value - o["R"])
    return float(disc)


def _check_trust_entry(net, entry, max_unstable, samples) -> float:
    from .oracle import TrustSpec, pattern_enumerate_opt, sample_bound

    q = _entry_query(net, entry)
    x_ref = np.asarray(q.x_ref)
    scale = q.effective_scale()
    box = InputBox.unit(net.input_dim)
    n_unstable = classify_neurons(propagate_bounds(net, box)).num_unstable
    disc = 0.0
    for i, o in enumerate(entry["per_output"]):
        cap = o["delta_cap"]
        if o["found"]:
            w = np.asarray(o["witness"])
            dev = abs(float(forward(net, w)[i]) - x_ref[i])
            if dev < q.beta - ORACLE_TOL:
                disc = max(disc, q.beta - dev)
            radius = float(np.max(np.abs(w - q.z_ref) / scale))
            disc = max(disc, abs(radius - o["delta_min"]))
            if o["delta_min"] > cap + ORACLE_TOL:
                disc = max(disc, o["delta_min"] - cap)
        if o["status"] != "certified":
            continue
        if n_unstable <= max_unstable:
            best = None
            for sign in (1, -1):
                r = pattern_enumerate_opt(
                    net, box, TrustSpec(i, sign, q.beta, float(x_ref[i]), tuple(q.z_ref), tuple(scale), cap)
                )
                if r.value is not None and (best is None or r.value < best):
                    best = r.value
            if o["found"] and best is not None:
                disc = max(disc, abs(best - o["delta_min"]))
            elif o["found"] != (best is not None):
                disc = max(disc, float("inf"))
        else:
            for sign, seed in ((1, 0), (-1, 1)):
                sb = sample_bound(
                    net, box,
                    TrustSpec(i, sign, q.beta, float(x_ref[i]), tuple(q.z_ref), tuple(scale), cap),
                    samples, seed=seed,
                )
                if sb.value is None:
                    continue
                # a sampled input reaches beta within the cap: a claimed min
                # must not exceed its radius, and a claimed not-found is false
                disc = max(disc, o["delta_min"] - sb.value if o["found"] else float("inf"))
    return float(disc)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _is_vector(v) -> bool:
    return isinstance(v, list) and all(_is_number(x) for x in v)


def _or_null(ok):
    return lambda v: v is None or ok(v)


# the per_output fields the oracle check reads, each with the values it accepts
_OUTPUT_FIELDS = {
    "robustness": {
        "R": _or_null(_is_number),
        "witness": _or_null(_is_vector),
        "status": lambda v: isinstance(v, str),
    },
    "trust": {
        "found": lambda v: isinstance(v, bool),
        "delta_min": _or_null(_is_number),
        "witness": _or_null(_is_vector),
        "delta_cap": _is_number,
        "status": lambda v: isinstance(v, str),
    },
}


def _check_outputs(e: dict, where: str):
    if not (isinstance(e["per_output"], list) and all(isinstance(o, dict) for o in e["per_output"])):
        raise ParseError(f"{where}: per_output must be a list of objects")
    fields = _OUTPUT_FIELDS[e["kind"]]
    for i, o in enumerate(e["per_output"]):
        missing = [k for k in fields if k not in o]
        if missing:
            raise ParseError(f"{where}: output {i} lacks {', '.join(missing)}")
        bad = [k for k, ok in fields.items() if not ok(o[k])]
        if e["kind"] == "trust" and o["found"]:
            bad += [k for k in ("delta_min", "witness") if o[k] is None]
        if bad:
            raise ParseError(f"{where}: output {i} has a malformed {', '.join(bad)}")


def _report_entries(rep, path: str) -> tuple[list[dict], str]:
    """The per-query entries of a report and the network hash it states."""
    if not isinstance(rep, dict):
        raise ParseError(f"{path} must hold a report object")
    prov = rep.get("provenance", {})
    if not (isinstance(prov, dict) and isinstance(prov.get("network_sha256", ""), str)):
        raise ParseError(f"{path}: provenance must be an object with a string network_sha256")
    if rep.get("kind") in ("robustness_batch", "trust_batch"):
        queries = rep.get("queries")
        if not (isinstance(queries, list) and all(isinstance(e, dict) for e in queries)):
            raise ParseError(f"{path}: queries must be a list of objects")
        entries = [e for e in queries if "error" not in e]
    elif rep.get("kind") in ("robustness", "trust"):
        entries = [rep]
    else:
        raise ParseError("report kind missing or unknown")
    for n, e in enumerate(entries):
        missing = [k for k in ("kind", "query", "per_output") if k not in e]
        if missing:
            raise ParseError(f"{path}: entry {n} lacks {', '.join(missing)}")
        if e["kind"] not in ("robustness", "trust"):
            raise ParseError(f"{path}: entry {n} has unknown kind {e['kind']!r}")
        _check_outputs(e, f"{path}: entry {n}")
    return entries, prov.get("network_sha256", "")


def cmd_oracle_check(args) -> int:
    spec, net, nh = _load_net(args.network)
    entries, stated = _report_entries(_read_json(args.report), args.report)
    if stated and stated != nh:
        raise InvalidValue(
            f"report was produced for network {stated[:12]}..., got {nh[:12]}..."
        )
    disc = 0.0
    for entry in entries:
        if entry["kind"] == "robustness":
            d = _check_robustness_entry(net, entry, args.max_unstable, args.samples)
        else:
            d = _check_trust_entry(net, entry, args.max_unstable, args.samples)
        print(f"checked {entry.get('query_id', '?')} ({entry['kind']}): discrepancy {d!r}")
        disc = max(disc, d)
    print(f"max discrepancy {disc!r}")
    if disc > ORACLE_TOL:
        print("FAIL: report disagrees with the oracle", file=sys.stderr)
        return EXIT_DISCREPANCY
    return EXIT_OK


# ---------------------------------------------------------------------------

def _build_parser() -> _Parser:
    p = _Parser(prog="relucert", description="Certified verification of trained ReLU networks")
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", parents=[], help="synthesize a dataset CSV")
    g.add_argument("--inputs", type=int, required=True)
    g.add_argument("--outputs", type=int, required=True)
    g.add_argument("--samples", type=int, required=True)
    g.add_argument("--noise", type=float, default=0.0)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    t = sub.add_parser("train", help="train a network on a dataset CSV")
    t.add_argument("--dataset", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--config")
    t.add_argument("--widths")
    t.add_argument("--epochs", type=int)
    t.add_argument("--batch-size", type=int, dest="batch_size")
    t.add_argument("--learning-rate", type=float, dest="learning_rate")
    t.add_argument("--eta", type=float)
    t.add_argument("--bn-eps", type=float, dest="bn_eps")
    t.add_argument("--seed", type=int)
    t.set_defaults(func=cmd_train)

    b = sub.add_parser("bounds", help="activation bounds and stability over a box")
    b.add_argument("--network", required=True)
    b.add_argument("--lo")
    b.add_argument("--hi")
    b.add_argument("--tighten", action=argparse.BooleanOptionalAction, default=None)
    b.add_argument("--out")
    b.add_argument("--config")
    b.set_defaults(func=cmd_bounds)

    def common_verify(sp):
        sp.add_argument("--network", required=True)
        sp.add_argument("--queries", required=True)
        sp.add_argument("--out")
        sp.add_argument("--config")
        sp.add_argument("--gap", type=float, help="relative MILP gap")
        sp.add_argument("--time-limit", type=float, dest="time_limit")
        sp.add_argument("--tighten", action=argparse.BooleanOptionalAction, default=None)
        sp.add_argument("--timing", help="timing sidecar path")

    vr = sub.add_parser("verify-robust", help="certified worst-case deviations over perturbation balls")
    common_verify(vr)
    vr.add_argument("--dataset", help="compare certified bounds against test-set errors")
    vr.add_argument("--histogram", help="write R minus T histogram CSV here")
    vr.set_defaults(func=cmd_verify_robust)

    vt = sub.add_parser("verify-trust", help="minimum perturbation reaching a target deviation")
    common_verify(vt)
    vt.add_argument("--table", help="write per-output minimum perturbation CSV here")
    vt.add_argument("--histogram", help="write delta percent histogram CSV here")
    vt.set_defaults(func=cmd_verify_trust)

    oc = sub.add_parser("oracle-check", help="re-solve a report with the enumeration oracle")
    oc.add_argument("--network", required=True)
    oc.add_argument("--report", required=True)
    oc.add_argument("--samples", type=int, default=4096)
    oc.add_argument("--max-unstable", type=int, default=16, dest="max_unstable")
    oc.set_defaults(func=cmd_oracle_check)
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (ParseError, InvalidArg, InvalidValue, DimensionMismatch) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except FileNotFoundError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except RelucertError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
