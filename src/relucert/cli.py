"""Batch command line front end.

Subcommands cover the whole pipeline: synthesize data, train, inspect
activation bounds, run robustness and trust sweeps, and cross-check emitted
reports against an independent MILP oracle. Reports embed provenance (network
and query hashes, solver tolerances); timing lives in a separate sidecar
file so report bytes are reproducible.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from .bnb import BnbOptions
from .bounds import InputBox, Stability
from .errors import (
    DimensionMismatch,
    InvalidArg,
    InvalidValue,
    ParseError,
    RelucertError,
    SolverFailure,
)
from .nnmodel import fold_bn, forward_layers, load_network, network_hash, save_network
from .trainer import TrainConfig, evaluate, gen_synthetic, load_dataset, save_dataset, train
from .verify import (
    VerificationQuery,
    VerifyOptions,
    batch_report,
    box_bounds,
    compare_robustness_vs_test,
    delta_percent,
    histogram,
    histogram_csv,
    robustness_batch,
    robustness_report,
    timing_sidecar,
    trust_report,
    trust_table_csv,
    trustworthiness,
    verify_each,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVER = 2
EXIT_DISCREPANCY = 3
CONFIG_ENV = "RELUCERT_CONFIG"
ORACLE_TOL = 1e-6  # certified values are held to it relatively, see _value_disc


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


def _known_keys(d: dict, known, what: str) -> None:
    """Reject, naming them, the keys of `d` outside `known`: a misspelt key
    would otherwise leave what it meant at its default."""
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise InvalidArg(f"{what} {', '.join(unknown)}")


def _load_config(explicit: str | None) -> dict:
    path = explicit or os.environ.get(CONFIG_ENV)
    if not path:
        return {}
    cfg = _read_json(path)
    if not isinstance(cfg, dict):
        raise ParseError(f"config {path} must be a JSON object")
    _known_keys(cfg, ("tighten", "solver", "train"), f"config {path}: unknown keys")
    if not isinstance(cfg.get("tighten", False), bool):
        raise InvalidArg(f"config {path}: tighten must be true or false")
    for name, options in (("solver", BnbOptions), ("train", TrainConfig)):
        if not isinstance(cfg.get(name, {}), dict):
            raise InvalidArg(f"config {path}: {name} must be a JSON object")
        _known_keys(cfg.get(name, {}), [f.name for f in fields(options)], f"config {path}: unknown {name} keys")
    return cfg


def _bnb_options(args, cfg: dict) -> BnbOptions:
    """The config's solver options over `BnbOptions`' defaults, then the
    command line's `--gap` and `--time-limit`."""
    flags = {"rel_gap": getattr(args, "gap", None), "time_limit_seconds": getattr(args, "time_limit", None)}
    return replace(BnbOptions(**cfg.get("solver", {})), **{k: v for k, v in flags.items() if v is not None})


def _verify_options(args, cfg: dict) -> VerifyOptions:
    tighten = args.tighten if args.tighten is not None else cfg.get("tighten", True)
    return VerifyOptions(bnb=_bnb_options(args, cfg), tighten=tighten)


def _load_net(path: str):
    spec = load_network(_read_text(path))
    return spec, fold_bn(spec), network_hash(spec)


def _load_queries(path: str) -> tuple[list[VerificationQuery], bool]:
    doc = _read_json(path)
    single = isinstance(doc, dict)
    items = [doc] if single else doc
    if not isinstance(items, list):
        raise ParseError(f"{path} must hold a query object or a list of them")
    if not items:
        raise ParseError(f"{path} contains no queries")
    return [VerificationQuery.from_dict(it, n) for n, it in enumerate(items)], single


def _write_text(path: str, text: str) -> None:
    """Write an output file; a path that cannot be written is an input
    error."""
    try:
        Path(path).write_text(text)
    except OSError as e:
        raise InvalidArg(f"cannot write {path}: {e}") from e


def _write_json(path: str | None, doc: dict):
    text = json.dumps(doc, indent=2) + "\n"
    if path:
        _write_text(path, text)
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
    _write_text(args.out, save_dataset(ds))
    print(f"wrote {args.samples} samples ({len(ds.train_idx)} train / {len(ds.test_idx)} test) to {args.out}")
    return EXIT_OK


def cmd_train(args) -> int:
    cfg = _load_config(args.config)
    ds = load_dataset(_read_text(args.dataset))
    kwargs = dict(cfg.get("train", {}))
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
    _write_text(args.out, save_network(spec))
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
    tighten = args.tighten if args.tighten is not None else cfg.get("tighten", False)
    lb, sm, _ = box_bounds(net, box, tighten)
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


def _verify_inputs(args):
    """A verify verb's network spec, folded network, network hash, queries,
    whether the file held a single query object, and options."""
    cfg = _load_config(args.config)
    spec, net, nh = _load_net(args.network)
    queries, single = _load_queries(args.queries)
    return spec, net, nh, queries, single, _verify_options(args, cfg)


def _write_results(args, rep: dict, results, label: str, value) -> None:
    """Write the report and its timing sidecar, then print one line per
    query and output: `label`, the query id, the output's name, `value(o)`
    and its status."""
    _write_json(args.out, rep)
    timing = args.timing or (args.out + ".timing.json" if args.out else None)
    if timing:
        _write_json(timing, timing_sidecar(results))
    for r in results:
        for o in r.per_output:
            print(f"{label} {r.query.query_id} {o.name} {value(o)} {o.status}")


def _completed(per_query, errors) -> list:
    """The results of the queries that ran; when none ran, an input error
    that names each query's failure."""
    results = [r for r in per_query if r is not None]
    if not results:
        raise InvalidArg("; ".join(errors))
    return results


def cmd_verify_robust(args) -> int:
    if args.histogram and args.dataset is None:
        raise InvalidArg("--histogram needs --dataset")
    _, net, nh, queries, single, opts = _verify_inputs(args)
    batch = robustness_batch(net, queries, opts)
    results = _completed(batch.per_query, batch.errors)
    rep = robustness_report(results[0], nh, opts) if single else batch_report(batch, nh, opts)
    if args.dataset is not None:
        ds = load_dataset(_read_text(args.dataset))
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
            _write_text(args.histogram, histogram_csv(cmp_res.hist_edges, cmp_res.hist_counts))
    _write_results(args, rep, results, "R", lambda o: "uncertified" if o.R is None else repr(o.R))
    return EXIT_OK


def cmd_verify_trust(args) -> int:
    spec, net, nh, queries, single, opts = _verify_inputs(args)
    per_query, errors = verify_each(trustworthiness, net, queries, opts)
    results = _completed(per_query, errors)
    entries = [
        {"query_id": q.query_id, "error": err} if r is None else trust_report(r, nh, opts)
        for q, r, err in zip(queries, per_query, errors)
    ]
    rep = entries[0] if single else {"kind": "trust_batch", "queries": entries}
    if args.table:
        _write_text(args.table, trust_table_csv(results, spec.input_norm_lo, spec.input_norm_hi))
    if args.histogram:
        pcts = [
            delta_percent(o.delta_min, r.query.z_ref, r.query.effective_scale(),
                          spec.input_norm_lo, spec.input_norm_hi)
            for r in results
            for o in r.per_output
            if o.found
        ]
        counts, edges = histogram(pcts)
        _write_text(args.histogram, histogram_csv(edges, counts))
    _write_results(args, rep, results, "delta_min", lambda o: repr(o.delta_min) if o.found else "not_found")
    return EXIT_OK


def _entry_query(net, entry) -> VerificationQuery:
    """A report entry's query, checked as the verifier checks it against the
    entry's kind and the network the entry is checked on."""
    q = VerificationQuery.from_dict(entry["query"], 0)
    q.check(net, entry["kind"])
    n = len(entry["per_output"])
    if n != net.num_outputs:
        raise DimensionMismatch(f"report entry has {n} per_output entries; the network has {net.num_outputs} outputs")
    return q


def _at_witness(net, q: VerificationQuery, box: InputBox, witness, i: int) -> tuple[float, float]:
    """Output `i`'s deviation from its reference at a witness, evaluated as
    the verifier evaluates its points, and how far it lies outside `box`."""
    w = np.asarray(witness, dtype=float)
    out = forward_layers(net, w[None, :])[2][0, i]
    return abs(float(out) - q.x_ref[i]), float(np.max(np.maximum(box.lo - w, w - box.hi), initial=0.0))


def _value_disc(value: float, optimum: float) -> float:
    """A certified value's discrepancy from the oracle's optimum, relative to
    max(1, |value|, |optimum|): a report certifies its values to a relative
    gap. Witness, target and cap checks stay absolute."""
    return abs(value - optimum) / max(1.0, abs(value), abs(optimum))


def _check_robustness_entry(net, entry) -> float:
    from .oracle import RobustnessSpec, milp_opt

    q = _entry_query(net, entry)
    box = q.region("robustness")
    disc = 0.0
    for i, o in enumerate(entry["per_output"]):
        if o["R"] is None:
            continue
        if o["witness"] is not None:
            dev, outside = _at_witness(net, q, box, o["witness"], i)
            disc = max(disc, outside, abs(dev - o["R"]))
        if o["status"] != "certified":
            continue  # witness check only; the bound is not claimed exact
        plus, minus = o["dev_plus"], o["dev_minus"]  # exact, they are vp and -vm below
        vp = milp_opt(net, box, RobustnessSpec(i, 1, float(q.x_ref[i]))).value
        vm = milp_opt(net, box, RobustnessSpec(i, -1, float(q.x_ref[i]))).value
        disc = max(disc, _value_disc(o["R"], max(vp, abs(vm))))
        if plus is not None:
            disc = max(disc, _value_disc(plus, vp))
        if minus is not None:
            disc = max(disc, _value_disc(minus, -vm))
    return float(disc)


def _check_trust_entry(net, entry) -> float:
    from .oracle import TrustSpec, milp_opt

    q = _entry_query(net, entry)
    scale = q.effective_scale()
    # the cap the query sets; an output that states another is a discrepancy
    cap = q.effective_delta_cap()
    box = q.region("trust")
    disc = 0.0
    for i, o in enumerate(entry["per_output"]):
        disc = max(disc, abs(o["delta_cap"] - cap))
        if o["found"]:
            w = np.asarray(o["witness"], dtype=float)
            dev, outside = _at_witness(net, q, box, w, i)
            disc = max(disc, outside)
            if dev < q.beta - ORACLE_TOL:
                disc = max(disc, q.beta - dev)
            radius = float(np.max(np.abs(w - q.z_ref) / scale))
            disc = max(disc, abs(radius - o["delta_min"]))
            if o["delta_min"] > cap + ORACLE_TOL:
                disc = max(disc, o["delta_min"] - cap)
        if o["status"] != "certified":
            continue
        values = [
            milp_opt(net, box, TrustSpec(i, sign, q.beta, float(q.x_ref[i]), tuple(q.z_ref), tuple(scale), cap)).value
            for sign in (1, -1)
        ]
        best = min((v for v in values if v is not None), default=None)
        if o["found"] and best is not None:
            disc = max(disc, _value_disc(o["delta_min"], best))
        elif o["found"] != (best is not None):
            disc = max(disc, float("inf"))
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
        "dev_plus": _or_null(_is_number),
        "dev_minus": _or_null(_is_number),
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
            d = _check_robustness_entry(net, entry)
        else:
            d = _check_trust_entry(net, entry)
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

    oc = sub.add_parser("oracle-check", help="re-solve a report's certified values with an independent MILP")
    oc.add_argument("--network", required=True)
    oc.add_argument("--report", required=True)
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
    except SolverFailure as e:
        print(f"solver failure: {e}", file=sys.stderr)
        return EXIT_SOLVER
    except RelucertError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
