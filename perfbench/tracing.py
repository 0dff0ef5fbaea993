"""Per-layer spans for the traced run, recorded from outside the program.

Each layer function is replaced, for the length of a traced round, by a
wrapper under the name its caller looks it up by: `relucert.verify` and
`relucert.cli` import the bounds, milp and bnb entry points by name, `bnb`
imports `prepare`, `relaxed_bounds` and `forward_layers` by name, and
`PreparedLp.solve` is replaced on the class, so an LP solve is a child of
whichever span called it (`bounds.lp_tighten` or `bnb.solve_milp`).
Spans stay in memory; `layer_metrics` reduces one round's spans at the end
of the run.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager


class Span:
    __slots__ = ("name", "parent", "start", "end", "child", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.child = 0.0  # time covered by direct children
        self.info = None
        self.start = time.perf_counter()
        self.end = self.start

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[Span] = []

    def wrap(self, name: str, fn, note=None):
        """`fn` recording one span per call; `note(result, args)` may keep a
        few numbers from the call on the span."""

        def traced(*args, **kwargs):
            span = Span(name, self._open[-1] if self._open else None)
            self.spans.append(span)
            self._open.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._open.pop()
                if span.parent is not None:
                    span.parent.child += span.duration
            if note is not None:
                span.info = note(out, args)
            return out

        return traced

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


@contextmanager
def patched(targets):
    """Set `owner.attr = value` for each (owner, attr, value), restoring the
    originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    for owner, attr, value in targets:
        setattr(owner, attr, value)
    try:
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def _note_milp(res, args):
    p = args[0]
    return {"nodes": res.nodes, "rows": len(p.rows), "binaries": p.num_binaries}


def _note_lp(sol, args):
    return {"pivots": sol.iterations, "optimal": sol.status.value == "optimal"}


def _note_encode(p, args):
    return {"unstable": args[2].num_unstable}


def layer_wrappers(tracer: Tracer):
    """(owner, attr, traced function) for every layer entry point."""
    from relucert import bnb, cli, simplex, verify

    plan = [
        (verify, "propagate_bounds", "bounds.propagate", None),
        (verify, "classify_neurons", "bounds.classify", None),
        (verify, "lp_tighten", "bounds.lp_tighten", None),
        (verify, "encode_network", "milp.encode", _note_encode),
        (verify, "set_robustness_objective", "milp.set_objective", None),
        (verify, "set_trust_problem", "milp.set_objective", None),
        (verify, "solve_milp", "bnb.solve_milp", _note_milp),
        (verify, "robustness", "verify.robustness", None),
        (verify, "trustworthiness", "verify.trustworthiness", None),
        (cli, "robustness_batch", "verify.robustness_batch", None),
        (cli, "compare_robustness_vs_test", "verify.compare", None),
        (cli, "batch_report", "verify.batch_report", None),
        (cli, "main", "cli.main", None),
        (bnb, "prepare", "simplex.prepare", None),
        (bnb, "relaxed_bounds", "simplex.relaxed_bounds", None),
        (bnb, "forward_layers", "nnmodel.forward_layers", None),
        (simplex.PreparedLp, "solve", "simplex.solve", _note_lp),
    ]
    return [
        (owner, attr, tracer.wrap(name, getattr(owner, attr), note))
        for owner, attr, name, note in plan
    ]


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer times and counts of one round."""
    total = defaultdict(float)
    own = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        total[s.name] += s.duration
        own[s.name] += s.duration - s.child
        calls[s.name] += 1

    def info_of(name):
        return [s.info for s in spans if s.name == name]

    solves = [s for s in spans if s.name == "simplex.solve"]
    tighten = [s for s in solves if s.parent is not None and s.parent.name == "bounds.lp_tighten"]
    milps = info_of("bnb.solve_milp")
    pivots = sum(s.info["pivots"] for s in solves)
    return {
        "bounds.propagate_s": total["bounds.propagate"] + total["bounds.classify"],
        "bounds.lp_tighten_s": total["bounds.lp_tighten"],
        "bounds.lp_tighten_solves": len(tighten),
        "bounds.lp_tighten_pivots": sum(s.info["pivots"] for s in tighten),
        "bounds.unstable_out": sum(i["unstable"] for i in info_of("milp.encode")),
        "milp.encode_s": total["milp.encode"] + total["milp.set_objective"],
        "milp.rows": sum(i["rows"] for i in milps) / len(milps) if milps else 0,
        "milp.binaries": sum(i["binaries"] for i in milps) / len(milps) if milps else 0,
        "bnb.subproblems": len(milps),
        "bnb.nodes": sum(i["nodes"] for i in milps),
        "bnb.s": total["bnb.solve_milp"],
        "bnb.self_s": own["bnb.solve_milp"],
        "simplex.prepare_s": total["simplex.prepare"],
        "simplex.relaxed_bounds_s": total["simplex.relaxed_bounds"],
        "simplex.solves": len(solves),
        "simplex.solve_s": total["simplex.solve"],
        "simplex.pivots": pivots,
        "simplex.pivots_per_solve": pivots / len(solves) if solves else 0,
        "simplex.feasible_ratio": (
            sum(s.info["optimal"] for s in solves) / len(solves) if solves else 0
        ),
        "nnmodel.forward_layers_s": total["nnmodel.forward_layers"],
        "nnmodel.forward_layers_calls": calls["nnmodel.forward_layers"],
        "verify.self_s": sum(v for k, v in own.items() if k.startswith("verify.")),
        "cli.self_s": own["cli.main"],
    }
