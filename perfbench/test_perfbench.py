"""Tests of the benchmark's own parts: the independent checker must accept
relucert's certified results and reject a nudged value or a displaced
witness, and the metric tables must match BENCHMARK.json.

    python3 -m pytest perfbench/test_perfbench.py
"""

import copy
import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import relucert as rc  # noqa: E402

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def net():
    ds = rc.gen_synthetic(3, 2, 80, 0.01, 4)
    return rc.fold_bn(rc.train(ds, rc.TrainConfig(widths=(5, 5), epochs=20, seed=2)))


@pytest.fixture(scope="module")
def rob_record(net):
    z = np.array([0.4, 0.5, 0.6])
    q = rc.VerificationQuery(z_ref=z, x_ref=rc.forward(net, z), alpha=0.2)
    rec = workloads._record(q, rc.robustness(net, q))
    assert rec["certified"]
    return rec


@pytest.fixture(scope="module")
def trust_record(net):
    z = np.array([0.4, 0.5, 0.6])
    q = rc.VerificationQuery(z_ref=z, x_ref=rc.forward(net, z), beta=0.02)
    rec = workloads._record(q, rc.trustworthiness(net, q))
    assert rec["certified"] and any(o["found"] for o in rec["outputs"])
    return rec


def test_checker_accepts_certified_results(net, rob_record, trust_record):
    for rec in (rob_record, trust_record):
        bad, gap = check.check(net, rec)
        assert bad == [] and gap < 1e-8


@pytest.mark.parametrize("field", ["dev_plus", "dev_minus", "R"])
def test_checker_rejects_nudged_robustness_value(net, rob_record, field):
    rec = copy.deepcopy(rob_record)
    rec["outputs"][0][field] += 1e-4
    bad, _ = check.check(net, rec)
    assert any(field in line for line in bad)


def test_checker_rejects_nudged_delta_min(net, trust_record):
    rec = copy.deepcopy(trust_record)
    o = next(o for o in rec["outputs"] if o["found"])
    o["delta_min"] += 1e-4
    bad, _ = check.check(net, rec)
    assert any("delta_min" in line for line in bad)


def test_checker_rejects_witness_outside_its_box(net, rob_record):
    rec = copy.deepcopy(rob_record)
    w = rec["outputs"][0]["witness"]
    lo = max(rec["z_ref"][0] - rec["alpha"][0], 0.0)
    w[0] = lo - 1e-3
    bad, _ = check.check(net, rec)
    assert any("outside its box" in line for line in bad)


def test_checker_rejects_not_found_when_target_is_reachable(net, trust_record):
    rec = copy.deepcopy(trust_record)
    o = next(o for o in rec["outputs"] if o["found"])
    o.update(found=False, delta_min=None, sign=None, witness=None)
    bad, _ = check.check(net, rec)
    assert any("not_found" in line for line in bad)


def test_comparison_faults():
    ok = {"samples_used": 3, "R_minus_T": [0.1, 0.0]}
    assert workloads.comparison_faults(ok) == []
    assert workloads.comparison_faults({"samples_used": 0, "R_minus_T": [0.1]})
    assert workloads.comparison_faults({"samples_used": 3, "R_minus_T": [-1e-3]})


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
