"""End-to-end checks of the command line pipeline."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import relucert
from relucert.bnb import BnbOptions
from relucert.cli import _bnb_options, main
from relucert.nnmodel import fold_bn, forward, forward_layers, load_network, network_hash
from relucert.verify import OutputRobustness


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Dataset and trained network shared by the CLI tests."""
    d = tmp_path_factory.mktemp("cli")
    assert main([
        "gen-data", "--inputs", "2", "--outputs", "2", "--samples", "60",
        "--noise", "0.01", "--seed", "7", "--out", str(d / "ds.csv"),
    ]) == 0
    assert main([
        "train", "--dataset", str(d / "ds.csv"), "--out", str(d / "net.json"),
        "--widths", "4,4", "--epochs", "60", "--seed", "3",
    ]) == 0
    return d


def _net(workdir):
    return fold_bn(load_network((workdir / "net.json").read_text()))


def _write_queries(workdir, name, queries):
    path = workdir / name
    path.write_text(json.dumps(queries))
    return str(path)


def test_gen_data_writes_csv(workdir):
    text = (workdir / "ds.csv").read_text()
    assert text.splitlines()[0].endswith(",split")
    assert len(text.splitlines()) == 61


def test_bounds_command(workdir):
    out = workdir / "bounds.json"
    assert main(["bounds", "--network", str(workdir / "net.json"),
                 "--tighten", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["tightened"] is True
    counts = doc["stability"]["counts"]
    assert counts["dead"] + counts["active"] + counts["unstable"] == 8
    assert len(doc["stability"]["per_layer"]) == 2
    # sub-box flags and mismatched lo/hi
    assert main(["bounds", "--network", str(workdir / "net.json"),
                 "--lo", "0.2,0.2", "--hi", "0.8,0.8", "--out", str(out)]) == 0
    assert main(["bounds", "--network", str(workdir / "net.json"),
                 "--lo", "0.2,0.2"]) == 1


def test_robustness_pipeline_and_oracle_check(workdir, capsys):
    qpath = _write_queries(workdir, "rq.json", [
        {"query_id": "qa", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
        {"query_id": "qb", "z_ref": [0.7, 0.2], "x_ref": [0.45, 0.5], "alpha": [0.08, 0.04]},
    ])
    out = workdir / "rob.json"
    rc = main([
        "verify-robust", "--network", str(workdir / "net.json"),
        "--queries", qpath, "--out", str(out),
        "--dataset", str(workdir / "ds.csv"), "--histogram", str(workdir / "hist.csv"),
    ])
    assert rc == 0
    assert "R qa" in capsys.readouterr().out
    rep = json.loads(out.read_text())
    assert rep["kind"] == "robustness_batch"
    assert len(rep["queries"]) == 2
    assert all(v is not None for v in rep["aggregate"]["R"])
    assert rep["comparison"]["samples_used"] <= 12
    assert (workdir / "hist.csv").read_text().startswith("bin_lo,bin_hi,count")
    assert (workdir / "rob.json.timing.json").exists()

    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == 0


def test_trust_pipeline_and_oracle_check(workdir):
    qpath = _write_queries(workdir, "tq.json", [
        {"query_id": "tq", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4],
         "beta": 0.2, "scale": [1.0, 1.0]},
    ])
    out = workdir / "trust.json"
    rc = main([
        "verify-trust", "--network", str(workdir / "net.json"),
        "--queries", qpath, "--out", str(out),
        "--table", str(workdir / "table.csv"), "--histogram", str(workdir / "th.csv"),
    ])
    assert rc == 0
    table = (workdir / "table.csv").read_text().splitlines()
    assert table[0] == "query_id,output_name,delta_min_percent"
    assert len(table) == 3
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == 0


def test_single_query_file_yields_single_report(workdir):
    qpath = workdir / "one.json"
    qpath.write_text(json.dumps(
        {"query_id": "solo", "z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.03}
    ))
    out = workdir / "solo.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", str(qpath), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "robustness"
    assert rep["query_id"] == "solo"
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == 0


def test_alpha_zero_query(workdir):
    net = _net(workdir)
    z = [0.35, 0.65]
    x_ref = [0.5, 0.5]
    qpath = _write_queries(workdir, "zero.json", [
        {"query_id": "z0", "z_ref": z, "x_ref": x_ref, "alpha": 0.0},
    ])
    out = workdir / "zero_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())["queries"][0]
    expected = np.abs(forward(net, np.array(z)) - np.array(x_ref))
    for o, e in zip(rep["per_output"], expected):
        assert o["status"] == "certified"
        assert abs(o["R"] - e) < 1e-9


def test_trust_not_found_run(workdir):
    qpath = _write_queries(workdir, "nf.json", [
        {"query_id": "nf", "z_ref": [0.5, 0.5], "x_ref": [0.0, 0.0], "beta": 50.0},
    ])
    out = workdir / "nf.json.rep"
    assert main(["verify-trust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out),
                 "--table", str(workdir / "nf_table.csv"),
                 "--histogram", str(workdir / "nf_hist.csv")]) == 0
    rep = json.loads(out.read_text())["queries"][0]
    assert all(not o["found"] and o["status"] == "certified" for o in rep["per_output"])
    assert "not_found" in (workdir / "nf_table.csv").read_text()
    # empty histogram still has the full bin structure
    assert len((workdir / "nf_hist.csv").read_text().splitlines()) == 11
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == 0


def test_reports_are_byte_identical_across_runs(workdir):
    qpath = _write_queries(workdir, "det.json", [
        {"query_id": "d1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    a, b = workdir / "det_a.json", workdir / "det_b.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(a)]) == 0
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_batch_with_partial_failure(workdir):
    qpath = _write_queries(workdir, "part.json", [
        {"query_id": "ok", "z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.02},
        {"query_id": "bad", "z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6]},  # no alpha
    ])
    out = workdir / "part_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert rep["queries"][0]["kind"] == "robustness"
    assert "error" in rep["queries"][1]
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == 0


def test_histogram_without_dataset_is_an_input_error(workdir, tmp_path, capsys):
    # the R minus T histogram needs test errors to compare against: without
    # --dataset the verb stops before any query runs and writes nothing
    q = _write_queries(tmp_path, "h.json",
                       {"query_id": "h1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05})
    out, hist = tmp_path / "h_rep.json", tmp_path / "h.csv"
    capsys.readouterr()
    assert main(["verify-robust", "--network", str(workdir / "net.json"), "--queries", q,
                 "--out", str(out), "--histogram", str(hist)]) == 1
    assert capsys.readouterr().err == "error: --histogram needs --dataset\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["h.json"]


@pytest.mark.parametrize("verb,q,err", [
    ("verify-robust", {"z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4]}, "InvalidArg: robustness needs alpha"),
    ("verify-trust", {"z_ref": [0.3], "x_ref": [0.5, 0.4], "beta": 0.02},
     "DimensionMismatch: z_ref length != network input dimension"),
])
def test_a_single_bad_query_is_named_like_a_list_entry(workdir, tmp_path, capsys, verb, q, err):
    out = tmp_path / "rep.json"
    capsys.readouterr()
    assert main([verb, "--network", str(workdir / "net.json"), "--queries",
                 _write_queries(tmp_path, "q.json", q), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {err}\n"
    assert not out.exists()


def test_a_single_uncertified_query_compares_as_null(workdir, tmp_path, monkeypatch):
    # an output without any bound has no R, so no R - T and no histogram entry
    real = relucert.verify.robustness

    def uncertified(net, q, opts):
        res = real(net, q, opts)
        res.per_output = [
            OutputRobustness(o.name, None, None, None, None, "uncertified", float("inf"))
            for o in res.per_output
        ]
        res.certified = False
        return res

    monkeypatch.setattr(relucert.verify, "robustness", uncertified)
    q = _write_queries(tmp_path, "u.json",
                       {"query_id": "u1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05})
    out, hist = tmp_path / "u_rep.json", tmp_path / "u.csv"
    assert main(["verify-robust", "--network", str(workdir / "net.json"), "--queries", q,
                 "--out", str(out), "--dataset", str(workdir / "ds.csv"), "--histogram", str(hist)]) == 0
    rep = json.loads(out.read_text())
    assert rep["kind"] == "robustness" and rep["aggregate"]["R_max"] is None
    cmp = rep["comparison"]
    assert cmp["R"] == cmp["R_minus_T"] == [None, None]
    assert cmp["bound_exceeds_test_error"] == [False, False]
    rows = hist.read_text().splitlines()
    assert rows[1] == "0.0,0.1,0" and rows[-1] == "0.9,1.0,0" and len(rows) == 11


@pytest.mark.parametrize("verb,kind,need", [("verify-robust", "robustness", "alpha"),
                                            ("verify-trust", "trustworthiness", "beta")])
def test_a_list_of_only_bad_queries_names_each_failure(workdir, tmp_path, capsys, verb, kind, need):
    q = _write_queries(tmp_path, "bad.json", [
        {"query_id": "b1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4]},
        {"query_id": "b2", "z_ref": [0.3, 0.6, 0.1], "x_ref": [0.5, 0.4], "alpha": 0.05, "beta": 0.2},
    ])
    out = tmp_path / "bad_rep.json"
    capsys.readouterr()
    assert main([verb, "--network", str(workdir / "net.json"), "--queries", q, "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: InvalidArg: {kind} needs {need}; "
        "DimensionMismatch: z_ref length != network input dimension\n"
    )
    assert not out.exists()


_ENTRY_KEYS = ["kind", "query_id", "query", "per_output", "aggregate", "provenance"]
_QUERY_KEYS = ["z_ref", "x_ref", "alpha", "beta", "scale", "clip_to_domain", "delta_cap", "query_id"]
_PROVENANCE_KEYS = ["network_sha256", "query_sha256", "tolerances", "solver"]
_OUTPUT_KEYS = {
    "robustness": ["name", "dev_plus", "dev_minus", "R", "status", "gap", "witness"],
    "trust": ["name", "found", "delta_min", "sign", "delta_cap", "status", "gap", "witness"],
}
_AGGREGATE_KEYS = {
    "robustness": ["R_max", "certified", "certified_fixing", "stability"],
    "trust": ["delta_min", "certified", "certified_fixing", "stability"],
}
_COMPARISON_KEYS = ["T", "R", "R_minus_T", "bound_exceeds_test_error", "samples_used",
                    "samples_flagged_outside_balls"]
_COUNT_KEYS = ["lp_solves", "phase1_pivots", "phase2_pivots", "dual_pivots", "warm_starts",
               "warm_fallbacks", "breakdowns", "ray_infeasible", "node_breakdowns", "refactors",
               "cutoffs", "max_bound_gap", "phase1_share", "dual_per_warm"]


def _assert_entry_keys(e):
    assert list(e)[:6] == _ENTRY_KEYS
    assert list(e["query"]) == _QUERY_KEYS
    assert all(list(o) == _OUTPUT_KEYS[e["kind"]] for o in e["per_output"])
    assert list(e["aggregate"]) == _AGGREGATE_KEYS[e["kind"]]
    assert e["aggregate"]["certified_fixing"] is True  # stability comes only from proven bounds
    assert list(e["provenance"]) == _PROVENANCE_KEYS


def _assert_sidecar_keys(path, results, kind):
    side = json.loads(Path(path).read_text())
    assert list(side) == ["per_result_seconds", "total_seconds", "per_result_stats"]
    assert len(side["per_result_stats"]) == results
    for st in side["per_result_stats"]:
        # a trust result adds each output's radius search
        trust = ["radius_search"] if kind == "trust" else []
        assert list(st) == ["subproblems", "nodes", *_COUNT_KEYS, "tighten", *trust]
        assert list(st["tighten"]) == _COUNT_KEYS
        for b in st.get("radius_search", []):
            assert list(b) == ["steps", "nodes", "lo", "hi"]


def test_verify_documents_keep_their_key_order(workdir, tmp_path, capsys):
    # reports are compared byte for byte, so the order of every key is part
    # of their format
    net, ds = str(workdir / "net.json"), str(workdir / "ds.csv")
    rob = {"query_id": "k1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05}
    trust = {"query_id": "k2", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4], "beta": 0.2}
    bad = {"query_id": "k3", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4]}  # needs alpha or beta
    docs = {}
    for name, verb, queries, extra in (
        ("rob_single", "verify-robust", rob, ["--dataset", ds]),
        ("rob_batch", "verify-robust", [rob, bad], ["--dataset", ds]),
        ("trust_single", "verify-trust", trust, []),
        ("trust_batch", "verify-trust", [trust, bad], []),
    ):
        q = _write_queries(tmp_path, f"{name}_q.json", queries)
        out = tmp_path / f"{name}.json"
        assert main([verb, "--network", net, "--queries", q, "--out", str(out), *extra]) == 0
        docs[name] = json.loads(out.read_text())
        _assert_sidecar_keys(f"{out}.timing.json", 1, name.split("_")[0])
    capsys.readouterr()

    single = docs["rob_single"]
    assert list(single) == [*_ENTRY_KEYS, "comparison"]
    assert list(single["comparison"]) == _COMPARISON_KEYS
    _assert_entry_keys(single)
    batch = docs["rob_batch"]
    assert list(batch) == ["kind", "queries", "aggregate", "provenance", "comparison"]
    assert batch["kind"] == "robustness_batch"
    assert list(batch["queries"][0]) == _ENTRY_KEYS and list(batch["queries"][1]) == ["error"]
    _assert_entry_keys(batch["queries"][0])
    assert list(batch["aggregate"]) == ["output_names", "R"]
    assert list(batch["provenance"]) == _PROVENANCE_KEYS
    assert list(batch["comparison"]) == _COMPARISON_KEYS
    assert list(docs["trust_single"]) == _ENTRY_KEYS
    _assert_entry_keys(docs["trust_single"])
    batch = docs["trust_batch"]
    assert list(batch) == ["kind", "queries"] and batch["kind"] == "trust_batch"
    assert list(batch["queries"][0]) == _ENTRY_KEYS and list(batch["queries"][1]) == ["query_id", "error"]
    _assert_entry_keys(batch["queries"][0])


def test_input_error_exit_codes(workdir, capsys):
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", str(workdir / "missing.json")]) == 1
    assert main(["verify-robust", "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1
    for gone in (["--samples", "4096"], ["--max-unstable", "16"]):  # the check has no fallback to pick
        assert main(["oracle-check", "--network", str(workdir / "net.json"),
                     "--report", str(workdir / "rob.json"), *gone]) == 1
    bad = workdir / "bad.json"
    bad.write_text("{not json")
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", str(bad)]) == 1
    # query without required coordinates
    q = _write_queries(workdir, "noz.json", [{"x_ref": [0.5, 0.5], "alpha": 0.1}])
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", q]) == 1
    capsys.readouterr()
    # a directory or a file that is not UTF-8 text, wherever an input file is
    # read, and a malformed --widths
    net, ds = str(workdir / "net.json"), str(workdir / "ds.csv")
    q = _write_queries(workdir, "readable.json", [
        {"query_id": "u1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    binary = workdir / "binary.bin"
    binary.write_bytes(b"\xff\xfe\x80 not text")
    out = str(workdir / "never.json")
    for argv in (
        ["verify-robust", "--network", str(workdir), "--queries", q],
        ["verify-robust", "--network", net, "--queries", q, "--dataset", str(workdir)],
        ["train", "--dataset", str(workdir), "--out", out],
        ["verify-robust", "--network", str(binary), "--queries", q],
        ["verify-robust", "--network", net, "--queries", str(binary)],
        ["verify-robust", "--network", net, "--queries", q, "--dataset", str(binary)],
        ["train", "--dataset", str(binary), "--out", out],
        ["train", "--dataset", ds, "--out", out, "--widths", "4,x"],
    ):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err.startswith("error:"), argv
    assert not (workdir / "never.json").exists()


_WRITES = [
    ("gen-data", "--out"),
    ("train", "--out"),
    ("bounds", "--out"),
    ("verify-robust", "--out"),
    ("verify-robust", "--timing"),
    ("verify-robust", "--histogram"),
    ("verify-trust", "--out"),
    ("verify-trust", "--timing"),
    ("verify-trust", "--table"),
    ("verify-trust", "--histogram"),
]


@pytest.mark.parametrize("verb,flag", _WRITES)
@pytest.mark.parametrize("target", ["directory", "missing parent"])
def test_unwritable_output_is_an_input_error(workdir, tmp_path, capsys, verb, flag, target):
    # every file a verb writes goes through one check: a path that cannot be
    # written ends in an error line and exit 1, not a traceback
    net, ds = str(workdir / "net.json"), str(workdir / "ds.csv")
    rob = _write_queries(tmp_path, "rob.json", [
        {"query_id": "w1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    trust = _write_queries(tmp_path, "trust.json", [
        {"query_id": "w2", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4], "beta": 0.2},
    ])
    argv = {
        "gen-data": ["gen-data", "--inputs", "2", "--outputs", "2", "--samples", "20"],
        "train": ["train", "--dataset", ds, "--widths", "2", "--epochs", "1"],
        "bounds": ["bounds", "--network", net],
        "verify-robust": ["verify-robust", "--network", net, "--queries", rob, "--dataset", ds],
        "verify-trust": ["verify-trust", "--network", net, "--queries", trust],
    }[verb]
    if flag != "--out":  # a writable report, so the flag under test is the one that fails
        argv += ["--out", str(tmp_path / "report.json")]
    bad = tmp_path / "dir" if target == "directory" else tmp_path / "missing" / "file"
    if target == "directory":
        bad.mkdir()
    capsys.readouterr()
    assert main(argv + [flag, str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {bad}"), err


def test_tampered_report_fails_oracle_check(workdir, capsys):
    qpath = _write_queries(workdir, "tamper_q.json", [
        {"query_id": "t1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    out = workdir / "tamper_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["queries"][0]["per_output"][0]["R"] += 0.05
    tampered = workdir / "tampered.json"
    tampered.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(tampered)]) == 3
    capsys.readouterr()


def test_oracle_check_fails_a_certified_not_found_that_is_reachable(workdir, capsys):
    """A trust output claimed not found, though its target is reachable at
    delta = 0, fails the check."""
    z = [0.4, 0.5]
    x_ref = (forward(_net(workdir), np.array(z)) + 0.3).tolist()
    qpath = _write_queries(workdir, "reach_q.json", [
        {"query_id": "r0", "z_ref": z, "x_ref": x_ref, "beta": 0.2},
    ])
    out = workdir / "reach_rep.json"
    assert main(["verify-trust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    entry = rep["queries"][0]["per_output"][0]
    assert entry["found"] and entry["status"] == "certified"
    entry["found"] = False
    tampered = workdir / "reach_tampered.json"
    tampered.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(tampered)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("field,shift", [("dev_plus", -0.01), ("dev_minus", 0.01)])
def test_oracle_check_compares_each_signs_deviation(workdir, capsys, field, shift):
    """A report that moves `dev_plus` or `dev_minus` while leaving `R` as it
    is fails the check."""
    qpath = _write_queries(workdir, "dev_q.json", [
        {"query_id": "dv", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    out = workdir / "dev_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    entry = rep["queries"][0]["per_output"][0]
    assert entry["status"] == "certified"
    entry[field] += shift  # each sign's optimum, stated below what the ball attains
    tampered = workdir / "dev_tampered.json"
    tampered.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(tampered)]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("factor,shift,code", [
    (1 + 5e-7, 0.0, 0), (1 - 5e-7, 0.0, 0), (1 + 3e-6, 0.0, 3), (1 - 3e-6, 0.0, 3),
    (1.0, 1e-4, 3), (1.0, -1e-4, 3),
])
def test_oracle_check_holds_certified_values_to_a_relative_tolerance(
    workdir, monkeypatch, capsys, factor, shift, code
):
    """Reports certify to a relative gap, so at |value| near 5 an optimum
    5e-7 away in relative terms (2.5e-6 absolute) agrees, and one 3e-6 or
    1e-4 (absolute) away does not."""
    import relucert.oracle

    z = [0.3, 0.6]
    x_ref = (forward(_net(workdir), np.array(z)) + 5.0).tolist()
    qpath = _write_queries(workdir, "rel_q.json", [
        {"query_id": "rl", "z_ref": z, "x_ref": x_ref, "alpha": 0.05},
    ])
    out = workdir / "rel_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    entry = json.loads(out.read_text())["queries"][0]["per_output"][0]
    assert entry["status"] == "certified" and 4.5 < entry["R"] < 5.5
    exact = relucert.oracle.milp_opt

    def scaled(net, box, spec):
        res = exact(net, box, spec)
        return SimpleNamespace(value=res.value * factor + shift)

    monkeypatch.setattr(relucert.oracle, "milp_opt", scaled)
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(out)]) == code
    capsys.readouterr()


def test_oracle_check_takes_the_cap_from_the_query(workdir, capsys):
    """Outputs claimed not found under a tiny stated cap fail the check:
    the oracle runs at the query's cap, where they are reachable."""
    net = _net(workdir)
    z = [0.3, 0.6]
    qpath = _write_queries(workdir, "cap_q.json", [
        {"query_id": "c1", "z_ref": z, "x_ref": forward(net, np.array(z)).tolist(), "beta": 0.02},
    ])
    out = workdir / "cap_rep.json"
    assert main(["verify-trust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    assert any(o["found"] for o in rep["queries"][0]["per_output"])
    for o in rep["queries"][0]["per_output"]:
        o.update(found=False, delta_min=None, witness=None, delta_cap=1e-9)
    tampered = workdir / "cap_tampered.json"
    tampered.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(tampered)]) == 3
    # a stated cap other than the query's is a discrepancy on its own
    rep = json.loads(out.read_text())
    rep["queries"][0]["per_output"][0]["delta_cap"] += 0.1
    tampered.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"),
                 "--report", str(tampered)]) == 3
    capsys.readouterr()


def _outputs_at(net, z):
    """The network's outputs at a point, inside the unit box or not."""
    return forward_layers(net, np.array([z], dtype=float))[2][0]


@pytest.mark.parametrize("verb", ["verify-robust", "verify-trust"])
def test_oracle_check_fails_a_witness_outside_the_querys_region(workdir, tmp_path, capsys, verb):
    """A witness moved out of the query's region, its values restated at the
    new point and its output no longer claimed certified, fails the check:
    robustness ranges over the ball, trust over the unit box."""
    net = _net(workdir)
    if verb == "verify-robust":
        z, moved = [0.95, 0.05], [0.2, 0.9]  # inside the unit box, outside the 0.2 ball
        q = {"query_id": "mw", "z_ref": z, "x_ref": forward(net, np.array(z)).tolist(), "alpha": 0.2}
    else:
        z, moved = [0.95, 0.5], [1.2, 0.5]  # radius 0.25, outside the unit box
        q = {"query_id": "mw", "z_ref": z, "x_ref": (_outputs_at(net, moved) - 0.3).tolist(), "beta": 0.2}
    out = tmp_path / "rep.json"
    assert main([verb, "--network", str(workdir / "net.json"), "--queries",
                 _write_queries(tmp_path, "q.json", q), "--out", str(out)]) == 0
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(out)]) == 0
    rep = json.loads(out.read_text())
    o = rep["per_output"][0]
    d = float(_outputs_at(net, moved)[0] - q["x_ref"][0])
    if verb == "verify-robust":
        o.update(R=abs(d), witness=moved, status="gap_limit", gap=0.1)
        o["dev_plus" if d >= 0 else "dev_minus"] = d
    else:
        assert d >= 0.2
        o.update(found=True, delta_min=0.25, sign=1, witness=moved, status="gap_limit", gap=0.1)
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(out)]) == 3
    assert capsys.readouterr().err == "FAIL: report disagrees with the oracle\n"


@pytest.mark.filterwarnings("error")
def test_an_unclipped_ball_checks_without_domain_warnings(workdir, tmp_path, capsys):
    """A ball the query leaves unclipped reaches outside [0, 1]: the check
    evaluates its witnesses there as the verifier does, without warning."""
    z = [0.95, 0.05]
    q = {"query_id": "nc", "z_ref": z, "x_ref": forward(_net(workdir), np.array(z)).tolist(),
         "alpha": 0.2, "clip_to_domain": False}
    out = tmp_path / "rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"), "--queries",
                 _write_queries(tmp_path, "q.json", q), "--out", str(out)]) == 0
    witnesses = np.array([o["witness"] for o in json.loads(out.read_text())["per_output"]])
    assert np.any((witnesses < 0.0) | (witnesses > 1.0))
    capsys.readouterr()
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(out)]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("verb,kind,need", [("verify-robust", "robustness", "alpha"),
                                            ("verify-trust", "trustworthiness", "beta")])
def test_verify_and_oracle_check_name_a_missing_field_alike(workdir, tmp_path, capsys, verb, kind, need):
    q = {"query_id": "mf", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], need: 0.05}
    out = tmp_path / "rep.json"
    assert main([verb, "--network", str(workdir / "net.json"), "--queries",
                 _write_queries(tmp_path, "q.json", q), "--out", str(out)]) == 0
    rep = json.loads(out.read_text())
    rep["query"][need] = None
    out.write_text(json.dumps(rep))
    capsys.readouterr()
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {kind} needs {need}\n"
    del q[need]
    assert main([verb, "--network", str(workdir / "net.json"), "--queries",
                 _write_queries(tmp_path, "q.json", q)]) == 1
    assert capsys.readouterr().err == f"error: InvalidArg: {kind} needs {need}\n"


@pytest.fixture(scope="module")
def wide(workdir):
    """A network with more than 16 unstable neurons on the unit box, past
    what activation-pattern enumeration can check."""
    net = workdir / "wide.json"
    assert main(["train", "--dataset", str(workdir / "ds.csv"), "--out", str(net),
                 "--widths", "16,16", "--epochs", "10", "--seed", "3"]) == 0
    assert main(["bounds", "--network", str(net), "--out", str(workdir / "wide_bounds.json")]) == 0
    assert json.loads((workdir / "wide_bounds.json").read_text())["stability"]["counts"]["unstable"] > 16
    z = [0.3, 0.6]
    x_ref = forward(fold_bn(load_network(net.read_text())), np.array(z)).tolist()
    q = _write_queries(workdir, "wide_q.json", [{"query_id": "w1", "z_ref": z, "x_ref": x_ref, "beta": 0.02}])
    return net, q


def test_relabelled_node_limited_report_fails_above_the_old_cap(wide, workdir, tmp_path, capsys):
    """A trust report cut short by the node limit, its gap_limit outputs
    relabelled certified, fails the check on a network enumeration cannot
    reach. Which limit leaves an output with an incumbent but an open gap
    depends on the LP vertices the search lands on, so the limit rises
    until one does."""
    net, q = wide
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "limited.json"
    for node_limit in (2**e for e in range(1, 8)):
        cfg.write_text(json.dumps({"solver": {"node_limit": node_limit}}))
        assert main(["verify-trust", "--network", str(net), "--queries", q, "--out", str(out),
                     "--config", str(cfg)]) == 0
        rep = json.loads(out.read_text())
        limited = [o for o in rep["queries"][0]["per_output"] if o["status"] == "gap_limit"]
        if limited:
            break
    assert limited, "no node limit up to 128 left a gap_limit output"
    for o in limited:
        o["status"] = "certified"
    out.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(net), "--report", str(out)]) == 3
    capsys.readouterr()


def test_a_node_limited_trust_table_reads_uncertified(wide, tmp_path, capsys):
    """An output whose search stops at the node limit before it finds a
    witness is undecided: the table says so, as stdout's status does, and
    keeps "not_found" for a proven absence. At beta 0.05 the first step's
    roots, over the whole unit box, find no witness on either output."""
    net, q = wide
    query = json.loads(Path(q).read_text())[0]
    q = _write_queries(tmp_path, "q05.json", [{**query, "beta": 0.05}])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"node_limit": 2}}))
    table = tmp_path / "table.csv"
    capsys.readouterr()
    assert main(["verify-trust", "--network", str(net), "--queries", q, "--config", str(cfg),
                 "--out", str(tmp_path / "rep.json"), "--table", str(table)]) == 0
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    rows = list(csv.reader(table.read_text().splitlines()))[1:]
    assert ["not_found", "uncertified"] in [p[3:] for p in printed], "a witness was found for every output"
    assert len(rows) == len(printed)
    for (_, qid, name, value, status), row in zip(printed, rows):
        assert row[:2] == [qid, name]
        if value == "not_found":
            assert row[2] == ("uncertified" if status == "uncertified" else "not_found")


def test_oracle_solver_failure_exits_2(workdir, tmp_path, monkeypatch, capsys):
    """A HiGHS status other than optimal or infeasible is a solver failure."""
    import relucert.oracle

    qpath = _write_queries(tmp_path, "q.json", [
        {"query_id": "f1", "z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05},
    ])
    out = tmp_path / "rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0

    def stopped(*args, **kwargs):
        return SimpleNamespace(status=1, message="Time limit reached", x=None, fun=None)

    monkeypatch.setattr(relucert.oracle, "milp", stopped)
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(out)]) == 2
    assert capsys.readouterr().err.startswith("solver failure: oracle MILP ended with status 1")


def test_trust_table_quotes_commas(workdir, tmp_path):
    doc = json.loads((workdir / "net.json").read_text())
    doc["output_names"] = ["y,1", "y2"]
    net_path = tmp_path / "net.json"
    net_path.write_text(json.dumps(doc))
    qpath = _write_queries(tmp_path, "q.json", [
        {"query_id": "t,1", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4], "beta": 0.2},
        {"query_id": "t2", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4], "beta": 50.0},
    ])
    table = tmp_path / "table.csv"
    assert main(["verify-trust", "--network", str(net_path), "--queries", qpath,
                 "--out", str(tmp_path / "rep.json"), "--table", str(table)]) == 0
    text = table.read_text()
    rows = list(csv.reader(text.splitlines()))
    assert rows[0] == ["query_id", "output_name", "delta_min_percent"]
    assert [r[:2] for r in rows[1:]] == [["t,1", "y,1"], ["t,1", "y2"], ["t2", "y,1"], ["t2", "y2"]]
    assert all(len(r) == 3 for r in rows)
    # plain fields are written as they are, and the lines end in a bare newline
    assert text.splitlines()[-1] == "t2,y2,not_found" and "\r" not in text
    assert text.splitlines()[1].startswith('"t,1","y,1",')


_BAD_CONFIGS = [  # read by every verb
    {"tighten": "no"},
    {"solver": []},
    {"tigthen": False},
    {"solver": {"node_limt": 1}},
]
_BAD_SOLVER_CONFIGS = [  # read by the verify verbs only
    {"solver": {"node_limit": "x"}},
    {"solver": {"node_limit": -1}},
    {"solver": {"time_limit_seconds": "1"}},
    {"solver": {"abs_gap": "1e-8"}},
]
_BAD_TRAIN_CONFIGS = [  # read by train only
    {"train": []},
    {"train": {"epoch": 3}},
    {"train": {"epochs": "3"}},
    {"train": {"epochs": True}},
    {"train": {"learning_rate": "0.1"}},
    {"train": {"widths": "44"}},
    {"train": {"widths": 4}},
    {"train": {"noise": 0.5}},
]


@pytest.mark.parametrize(
    "verb,cfg",
    [(v, c) for v in ("bounds", "verify-robust", "verify-trust") for c in _BAD_CONFIGS]
    + [(v, c) for v in ("verify-robust", "verify-trust") for c in _BAD_SOLVER_CONFIGS]
    + [("train", c) for c in _BAD_TRAIN_CONFIGS],
    ids=lambda x: x if isinstance(x, str) else json.dumps(x),
)
def test_bad_config_values_are_input_errors(workdir, tmp_path, capsys, verb, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    if verb == "train":
        argv = [verb, "--dataset", str(workdir / "ds.csv"), "--out", str(tmp_path / "net.json")]
    else:
        argv = [verb, "--network", str(workdir / "net.json")]
    argv += ["--config", str(path)]
    if verb not in ("bounds", "train"):
        target = {"alpha": 0.02} if verb == "verify-robust" else {"beta": 0.2}
        q = {"z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], **target}
        argv += ["--queries", _write_queries(tmp_path, "q.json", [q])]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize(
    "verb,q",
    [
        ("verify-robust", {"z_ref": [0.1, 0.2], "x_ref": [0.0], "alpha": [0.1, 0.2, 0.3]}),
        ("verify-robust", {"z_ref": [0.1, 0.2], "x_ref": [0.0], "alpha": 0.1, "scale": [1, 2, 3]}),
        ("verify-robust", {"z_ref": [0.1, "a"], "x_ref": [0.0, 0.0], "alpha": 0.1}),
        ("verify-trust", {"z_ref": [0.1, 0.2], "x_ref": [0.0, 0.0], "beta": "x"}),
        ("verify-robust", {"z_ref": [0.1, 0.2], "x_ref": [0.0, 0.0], "alpha": 0.1, "clip_to_domain": "no"}),
        ("verify-trust", {"z_ref": [0.1, 0.2], "x_ref": [0.0, 0.0], "beta": 0.1, "query_id": 5}),
        ("verify-trust", {"z_ref": [0.1, 0.2], "x_ref": [0.0, 0.0], "beta": 0.1, "delta_capp": 0.3}),
        ("verify-robust", [1, 2]),
        ("verify-robust", 5),
    ],
    ids=lambda x: x if isinstance(x, str) else json.dumps(x),
)
def test_malformed_query_is_input_error(workdir, tmp_path, capsys, verb, q):
    argv = [verb, "--network", str(workdir / "net.json"), "--queries", _write_queries(tmp_path, "q.json", q)]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_oracle_check_rejects_wrong_network(workdir, tmp_path, capsys):
    """Every entry states the network it was produced for, and the check
    holds each to the network it runs on, also where the report as a whole
    states none (a trust batch) or another (an entry spliced in)."""
    assert main(["gen-data", "--inputs", "2", "--outputs", "2", "--samples", "40",
                 "--seed", "9", "--out", str(tmp_path / "ds2.csv")]) == 0
    net2 = tmp_path / "net2.json"
    assert main(["train", "--dataset", str(tmp_path / "ds2.csv"), "--out", str(net2),
                 "--widths", "4,4", "--epochs", "20"]) == 0
    net = workdir / "net.json"
    hashes = {path: network_hash(load_network(path.read_text())) for path in (net, net2)}

    def check(network, report, produced_for):
        capsys.readouterr()
        assert main(["oracle-check", "--network", str(network), "--report", str(report)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: report was produced for network {hashes[produced_for][:12]}..., " \
                      f"got {hashes[network][:12]}...\n"

    rq = _write_queries(tmp_path, "rq.json", [{"z_ref": [0.3, 0.6], "x_ref": [0.5, 0.4], "alpha": 0.05}])
    for network, name in ((net, "own.json"), (net2, "other.json")):
        assert main(["verify-robust", "--network", str(network), "--queries", rq,
                     "--out", str(tmp_path / name)]) == 0
    check(net2, tmp_path / "own.json", net)
    queries = [{"query_id": f"t{k}", "z_ref": [0.4, 0.5], "x_ref": [0.5, 0.4], "beta": 0.2} for k in (1, 2)]
    trust = tmp_path / "trust.json"
    assert main(["verify-trust", "--network", str(net), "--queries",
                 _write_queries(tmp_path, "tq.json", queries), "--out", str(trust)]) == 0
    assert "provenance" not in json.loads(trust.read_text())
    check(net2, trust, net)
    # a robustness batch of this network with one entry from net2's report
    spliced = json.loads((tmp_path / "own.json").read_text())
    spliced["queries"].append(json.loads((tmp_path / "other.json").read_text())["queries"][0])
    (tmp_path / "spliced.json").write_text(json.dumps(spliced))
    check(net, tmp_path / "spliced.json", net2)


def test_config_typos_are_named(workdir, tmp_path, capsys):
    # a misspelt key would otherwise leave the option it meant at its default
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"solver": {"node_limt": 1, "rel_gap": 1e-4}, "tigthen": False}))
    q = _write_queries(tmp_path, "q.json", [{"z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.02}])
    argv = ["verify-robust", "--network", str(workdir / "net.json"), "--queries", q, "--config", str(path)]
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: config {path}: unknown keys tigthen\n"
    path.write_text(json.dumps({"solver": {"node_limt": 1, "rel_gap": 1e-4}}))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: config {path}: unknown solver keys node_limt\n"


def test_an_infinite_gap_is_an_input_error(workdir, tmp_path, capsys):
    # it would certify the first incumbent
    q = _write_queries(tmp_path, "q.json", [{"z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.02}])
    out = tmp_path / "rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"), "--queries", q,
                 "--out", str(out), "--gap", "inf"]) == 1
    assert capsys.readouterr().err == "error: gap tolerances must be finite nonnegative numbers\n"
    assert not out.exists()
    # nor from a config, which would also write `Infinity` into the report
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"solver": {"rel_gap": Infinity}}')
    assert main(["verify-robust", "--network", str(workdir / "net.json"), "--queries", q,
                 "--out", str(out), "--config", str(cfg)]) == 1
    assert not out.exists()


def test_an_infinite_time_limit_is_an_input_error(workdir, tmp_path, capsys):
    # it would write `Infinity`, which is not JSON, into the report
    q = _write_queries(tmp_path, "q.json", [{"z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.02}])
    out = tmp_path / "rep.json"
    argv = ["verify-robust", "--network", str(workdir / "net.json"), "--queries", q, "--out", str(out)]
    assert main(argv + ["--time-limit", "inf"]) == 1
    assert capsys.readouterr().err == "error: time_limit_seconds must be a finite positive number\n"
    assert not out.exists()
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"solver": {"time_limit_seconds": Infinity}}')
    assert main(argv + ["--config", str(cfg)]) == 1
    assert capsys.readouterr().err == "error: time_limit_seconds must be a finite positive number\n"
    assert not out.exists()


def test_config_file_and_env(workdir, monkeypatch, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": {"rel_gap": 1e-4}}))
    qpath = _write_queries(workdir, "cfg_q.json", [
        {"query_id": "c1", "z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.02},
    ])
    out = workdir / "cfg_rep.json"
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out), "--config", str(cfg)]) == 0
    rep = json.loads(out.read_text())
    assert rep["queries"][0]["provenance"]["solver"]["rel_gap"] == 1e-4

    # same config picked up from the environment; explicit flag wins over it
    monkeypatch.setenv("RELUCERT_CONFIG", str(cfg))
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["queries"][0]["provenance"]["solver"]["rel_gap"] == 1e-4
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", qpath, "--out", str(out), "--gap", "1e-3"]) == 0
    assert json.loads(out.read_text())["queries"][0]["provenance"]["solver"]["rel_gap"] == 1e-3


def test_solver_options_default_to_bnb_options():
    # the defaults live in BnbOptions alone: no config and no flags give it
    # as it is, and a flag overrides the config's value
    assert _bnb_options(SimpleNamespace(gap=None, time_limit=None), {}) == BnbOptions()
    assert _bnb_options(SimpleNamespace(), {}) == BnbOptions()  # a verb without the flags
    cfg = {"solver": {"rel_gap": 1e-4, "node_limit": 7, "time_limit_seconds": 5.0}}
    assert _bnb_options(SimpleNamespace(gap=1e-3, time_limit=None), cfg) == BnbOptions(
        rel_gap=1e-3, node_limit=7, time_limit_seconds=5.0
    )
    assert _bnb_options(SimpleNamespace(gap=None, time_limit=2.0), cfg) == BnbOptions(
        rel_gap=1e-4, node_limit=7, time_limit_seconds=2.0
    )


def _python(*args) -> subprocess.CompletedProcess:
    """Run a child interpreter that imports relucert from where this one did."""
    paths = [str(Path(relucert.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)


def test_module_entry_point(workdir, tmp_path):
    proc = _python("-m", "relucert.cli", "gen-data", "--inputs", "2",
                   "--outputs", "1", "--samples", "20", "--out", str(tmp_path / "d.csv"))
    assert proc.returncode == 0
    assert "wrote 20 samples" in proc.stdout


def test_divergence_is_one_line_on_stderr(tmp_path):
    # numpy's overflow warnings on the way to non-finite parameters stay
    # quiet; the error says what happened
    ds, net = str(tmp_path / "div.csv"), tmp_path / "div.json"
    assert main(["gen-data", "--inputs", "3", "--outputs", "2", "--samples", "54",
                 "--noise", "0.01", "--seed", "1", "--out", ds]) == 0
    proc = _python("-m", "relucert.cli", "train", "--dataset", ds, "--out", str(net), "--widths", "4,3,3",
                   "--epochs", "3", "--batch-size", "1000", "--learning-rate", "1e11", "--seed", "7")
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: parameters became non-finite (lr=100000000000.0)"]
    assert not net.exists()


def test_start_up_leaves_scipy_unimported():
    code = (
        "import sys, relucert, relucert.cli\n"
        "assert not [m for m in sys.modules if m.split('.')[0] == 'scipy'], 'scipy imported'\n"
        "from relucert import pattern_enumerate_opt\n"
        "assert callable(pattern_enumerate_opt) and 'scipy.optimize' in sys.modules\n"
    )
    proc = _python("-c", code)
    assert proc.returncode == 0, proc.stderr


_Q = {"z_ref": [0.5, 0.5], "x_ref": [0.4, 0.6], "alpha": 0.1, "beta": 0.2}
_ROB_OUT = {"dev_plus": 0.1, "dev_minus": -0.05, "R": 0.1, "witness": [0.5, 0.5], "status": "certified"}
_TRUST_OUT = {"found": True, "delta_min": 0.1, "witness": [0.5, 0.5], "delta_cap": 0.5, "status": "certified"}


@pytest.mark.parametrize(
    "rep",
    [
        [1],
        {"provenance": []},
        {"kind": "robustness", "query": _Q, "per_output": [], "provenance": {"network_sha256": 5}},
        {"kind": "robustness"},
        {"kind": "robustness", "query": _Q},
        {"kind": "trust", "per_output": []},
        {"kind": "robustness_batch", "queries": [5]},
        {"kind": "robustness_batch", "queries": {}},
        {"kind": "robustness_batch"},
        {"kind": "robustness_batch", "queries": [{"query": {}, "per_output": []}]},
        {"kind": "trust_batch", "queries": [{"kind": "bogus", "query": _Q, "per_output": []}]},
        {"kind": "trust_batch", "queries": [{"kind": ["trust"], "query": _Q, "per_output": []}]},
        {"kind": "robustness", "query": _Q, "per_output": [3]},
        {"kind": "robustness", "query": _Q, "per_output": [{}, {}]},
        {"kind": "trust", "query": _Q, "per_output": [{}, {}]},
        {"kind": "robustness", "query": _Q, "per_output": [{**_ROB_OUT, "R": "0.1"}, _ROB_OUT]},
        {"kind": "robustness", "query": _Q, "per_output": [{**_ROB_OUT, "dev_plus": "0.1"}, _ROB_OUT]},
        {"kind": "robustness", "query": _Q, "per_output": [{**_ROB_OUT, "dev_minus": [0.1]}, _ROB_OUT]},
        {"kind": "robustness", "query": _Q, "per_output": [{**_ROB_OUT, "witness": [0.5, "a"]}, _ROB_OUT]},
        {"kind": "robustness", "query": {**_Q, "alpha": None}, "per_output": [_ROB_OUT] * 2},
        {"kind": "robustness", "query": _Q, "per_output": [_ROB_OUT]},
        {"kind": "trust", "query": _Q, "per_output": [{**_TRUST_OUT, "found": 1}, _TRUST_OUT]},
        {"kind": "trust", "query": _Q, "per_output": [{**_TRUST_OUT, "delta_min": None}, _TRUST_OUT]},
        {"kind": "trust", "query": _Q, "per_output": [{**_TRUST_OUT, "witness": 5}, _TRUST_OUT]},
        {"kind": "trust", "query": _Q, "per_output": [{**_TRUST_OUT, "delta_cap": None}, _TRUST_OUT]},
        {"kind": "trust", "query": _Q, "per_output": [{**_TRUST_OUT, "status": None}, _TRUST_OUT]},
        {"kind": "trust", "query": {**_Q, "beta": None}, "per_output": [_TRUST_OUT] * 2},
        {"kind": "trust", "query": {**_Q, "x_ref": [0.4]}, "per_output": [_TRUST_OUT] * 2},
        {"kind": "trust", "query": _Q, "per_output": [_TRUST_OUT] * 3},
    ],
    ids=json.dumps,
)
def test_malformed_report_is_input_error(workdir, tmp_path, capsys, rep):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    assert main(["oracle-check", "--network", str(workdir / "net.json"), "--report", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error:")
