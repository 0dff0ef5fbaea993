"""relucert benchmark: seeded verification workloads, end-to-end and
per-layer metrics, every result checked against an independent HiGHS model.

    python3 perfbench/run.py --workload rob-deep --seed 1 --seconds 20 --trace 0

Run from the root of a relucert checkout; relucert is imported from its
`src/`. The last line of stdout is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1. Progress goes to stderr. See
perfbench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

END_TO_END = {"setup_s": "s", "wall_s": "s", "query_p50_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = {
    "setup.import_s": "s",
    "trainer.build_s": "s",
    "bounds.propagate_s": "s",
    "bounds.lp_tighten_s": "s",
    "bounds.lp_tighten_solves": "count",
    "bounds.lp_tighten_pivots": "count",
    "bounds.unstable_out": "count",
    "milp.encode_s": "s",
    "milp.rows": "count",
    "milp.binaries": "count",
    "bnb.subproblems": "count",
    "bnb.nodes": "count",
    "bnb.s": "s",
    "bnb.self_s": "s",
    "simplex.prepare_s": "s",
    "simplex.relaxed_bounds_s": "s",
    "simplex.solves": "count",
    "simplex.solve_s": "s",
    "simplex.pivots": "count",
    "simplex.pivots_per_solve": "count",
    "simplex.feasible_ratio": "ratio",
    "nnmodel.forward_layers_s": "s",
    "nnmodel.forward_layers_calls": "count",
    "verify.self_s": "s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
}

SETUPS = 3  # fresh interpreters per run; the last one also runs the workload
DEADLINE_S = 170.0
# one BLAS thread: the matrices are tiny, and a second thread on a small
# machine only adds contention noise
THREADS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(RuntimeError):
    pass


def _launch(argv: list[str], env: dict, deadline: float) -> tuple[float, dict, dict | None]:
    """Run one worker; returns seconds from spawn to its READY line, the
    READY document and the RESULT document (None for a set-up probe)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, env=env)
    timer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    timer.start()
    ready_s, ready, result = None, None, None
    try:
        for line in proc.stdout:
            if line.startswith("READY ") and ready is None:
                ready_s = time.perf_counter() - t0
                ready = json.loads(line[6:])
            elif line.startswith("RESULT "):
                result = json.loads(line[7:])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None:
        raise WorkerError(f"worker {argv[2:]} exited with code {code}")
    return ready_s, ready, result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    root = Path.cwd()
    if not (root / "src" / "relucert" / "__init__.py").is_file():
        print(f"no relucert source under {root / 'src'}: run from a checkout root", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    env = dict(os.environ, **THREADS_ENV)
    worker = [sys.executable, str(Path(__file__).with_name("worker.py"))]
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    try:
        setups = [_launch(worker + common + ["--setup-only"], env, deadline) for _ in range(SETUPS - 1)]
        setups.append(_launch(worker + common + ["--trace", str(args.trace)], env, deadline))
    except WorkerError as e:
        print(e, file=sys.stderr)
        return 1
    res = setups[-1][2]
    if res is None:
        print("worker gave no result", file=sys.stderr)
        return 1
    hashes = {ready["network_hash"] for _, ready, _ in setups}
    correct = res["correct"]
    if len(hashes) != 1:
        print(f"set-ups built different networks: {sorted(hashes)}", file=sys.stderr)
        correct = False

    if args.trace:
        values = dict(res["layers"])
        values["setup.import_s"] = median(ready["import_s"] for _, ready, _ in setups)
        values["trainer.build_s"] = median(ready["build_s"] for _, ready, _ in setups)
        units = PER_LAYER
    else:
        values = {k: res[k] for k in END_TO_END if k != "setup_s"}
        values["setup_s"] = median(s for s, _, _ in setups)
        units = END_TO_END
    out = {
        "correct": bool(correct),
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
