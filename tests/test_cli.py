"""End-to-end checks of the command line pipeline."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import relucert
from relucert.cli import main
from relucert.nnmodel import fold_bn, forward, load_network


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


def test_input_error_exit_codes(workdir, capsys):
    assert main(["verify-robust", "--network", str(workdir / "net.json"),
                 "--queries", str(workdir / "missing.json")]) == 1
    assert main(["verify-robust", "--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1
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


def test_oracle_check_samples_a_certified_not_found_above_the_cap(workdir, capsys):
    """A trust output claimed not found, though its target is reachable at
    delta = 0, must fail the sampling check as it fails enumeration."""
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
    for extra in ([], ["--max-unstable", "0"]):
        assert main(["oracle-check", "--network", str(workdir / "net.json"),
                     "--report", str(tampered), *extra]) == 3
    capsys.readouterr()


_BAD_CONFIGS = [{"tighten": "no"}, {"solver": []}]  # read by every verb
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


def test_oracle_check_rejects_wrong_network(workdir, tmp_path):
    assert main(["gen-data", "--inputs", "2", "--outputs", "2", "--samples", "40",
                 "--seed", "9", "--out", str(tmp_path / "ds2.csv")]) == 0
    assert main(["train", "--dataset", str(tmp_path / "ds2.csv"),
                 "--out", str(tmp_path / "net2.json"),
                 "--widths", "4", "--epochs", "20"]) == 0
    assert main(["oracle-check", "--network", str(tmp_path / "net2.json"),
                 "--report", str(workdir / "rob.json")]) == 1


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
_ROB_OUT = {"R": 0.1, "witness": [0.5, 0.5], "status": "certified"}
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
