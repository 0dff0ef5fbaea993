"""One benchmark process, started by run.py in a fresh interpreter.

It sets a workload up (import relucert, build its network) and says so on
stdout with `READY {json}`. With --setup-only it stops there. Otherwise it
runs whole rounds of the workload's queries for about --seconds, reads its
peak resident set, checks every result against perfbench/check.py and
prints `RESULT {json}`.

In a traced run the rounds alternate untraced and traced, starting
untraced, so the tracing overhead is the difference between the two.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import tempfile
import time
from contextlib import nullcontext
from pathlib import Path
from statistics import median


def _emit(tag: str, doc: dict) -> None:
    print(f"{tag} {json.dumps(doc)}", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=("rob-deep", "rob-batch", "trust-unit"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    root = Path.cwd()
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import relucert

    import_s = time.perf_counter() - t0
    if not Path(relucert.__file__).resolve().is_relative_to(src):
        print(f"relucert imported from {relucert.__file__}, not from {src}", file=sys.stderr)
        return 2

    import check
    import workloads
    from tracing import Tracer, layer_metrics, layer_wrappers, patched

    scratch = root / ".bench_build" / "perfbench"
    scratch.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=scratch) as workdir:
        t0 = time.perf_counter()
        built = workloads.build(args.workload, Path(workdir))
        build_s = time.perf_counter() - t0
        _emit("READY", {"import_s": import_s, "build_s": build_s, "network_hash": built.network_hash})
        if args.setup_only:
            return 0

        queries = workloads.make_queries(args.workload, built, args.seed)
        tracer = Tracer()
        wrappers = layer_wrappers(tracer) if args.trace else []
        rounds, walls, layers = [], [], []
        start = time.perf_counter()
        while True:
            traced = bool(args.trace) and len(rounds) % 2 == 1
            with patched(wrappers) if traced else nullcontext():
                t0 = time.perf_counter()
                rounds.append(workloads.run_round(args.workload, built, queries))
                walls.append(time.perf_counter() - t0)
            if traced:
                layers.append(layer_metrics(tracer.take()))
            elapsed = time.perf_counter() - start
            enough = len(rounds) >= 1 + args.trace
            if enough and elapsed + 0.5 * elapsed / len(rounds) >= args.seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # every round must reproduce the first; the first is checked independently
    first = rounds[0].records
    verdicts, worst = [], 0.0
    for q, rec in zip(queries, first):
        if rec is None:
            verdicts.append(["raised"])
            continue
        bad, gap = check.check(built.net, rec)
        if not rec["certified"]:
            bad.append("not certified")
        verdicts.append(bad)
        worst = max(worst, gap)
        for line in bad:
            print(f"{q.query_id}: {line}", file=sys.stderr)
    attempted = failed = 0
    faults = []
    for n, r in enumerate(rounds):
        faults += r.faults
        for line in r.errors:
            print(f"round {n}: {line}", file=sys.stderr)
        for rec, ref, bad in zip(r.records, first, verdicts):
            attempted += 1
            if rec is None or bad or rec != ref:
                failed += 1
    for line in faults:
        print(f"fault: {line}", file=sys.stderr)
    print(
        f"{args.workload}: {len(rounds)} rounds {[round(w, 3) for w in walls]} s, "
        f"largest disagreement with the independent check {worst:.3g}",
        file=sys.stderr,
    )

    step = 2 if args.trace else 1
    untraced = walls[::step]
    query_s = [t for r in rounds[::step] for t in r.query_s]
    doc = {
        "correct": not faults,
        "attempted": attempted,
        "failed": failed,
        "wall_s": median(untraced),
        "query_p50_s": median(query_s),
        "peak_rss_mb": peak_rss_mb,
    }
    if args.trace:
        doc["layers"] = {k: median(m[k] for m in layers) for k in layers[0]}
        doc["layers"]["trace.overhead_s"] = median(walls[1::2]) - median(untraced)
    _emit("RESULT", doc)
    return 0


if __name__ == "__main__":
    sys.exit(main())
