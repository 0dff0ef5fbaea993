import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relucert.bnb import BnbOptions, BnbStatus, MilpResult
from relucert.bounds import InputBox, LayerBounds, classify_neurons, propagate_bounds
from relucert.errors import DimensionMismatch, InvalidArg, InvalidValue
from relucert.milp import default_delta_cap, encode_network, prepare, relaxed_bounds
from relucert.nnmodel import FoldedNetwork, fold_bn, forward
from relucert.simplex import LpStatus
from relucert.verify import (
    _REACH_TOL,
    BatchRobustness,
    OutputTrust,
    TrustResult,
    VerificationQuery,
    VerifyOptions,
    batch_report,
    compare_robustness_vs_test,
    delta_percent,
    histogram_csv,
    query_hash,
    search_radius,
    robustness,
    robustness_batch,
    robustness_report,
    timing_sidecar,
    trust_percents,
    trust_report,
    trust_table_csv,
    trustworthiness,
)

from conftest import random_spec
from test_milp import identity_net


def test_query_validation():
    with pytest.raises(InvalidValue):
        VerificationQuery(z_ref=[1.5], x_ref=[0.0])
    with pytest.raises(InvalidValue):
        VerificationQuery(z_ref=[0.5], x_ref=[0.0], alpha=-0.1)
    with pytest.raises(InvalidValue):
        VerificationQuery(z_ref=[0.5], x_ref=[0.0], beta=0.0)
    with pytest.raises(InvalidValue):
        VerificationQuery(z_ref=[0.5], x_ref=[0.0], scale=[0.0])
    for kw in (dict(alpha=[0.1, 0.2, 0.3]), dict(scale=[1.0, 2.0, 3.0]), dict(alpha=[[0.1, 0.2]])):
        with pytest.raises(DimensionMismatch):
            VerificationQuery(z_ref=[0.1, 0.2], x_ref=[0.0], **kw)
    for kw in (
        dict(z_ref=["a", 0.2]),
        dict(z_ref=[None, 0.2]),
        dict(x_ref="x"),
        dict(alpha={"r": 0.1}),
        dict(beta="x"),
        dict(beta=float("inf")),
        dict(scale=[1.0, "2"]),
        dict(delta_cap=[0.5]),
        dict(clip_to_domain="no"),
        dict(clip_to_domain=0),
        dict(query_id=5),
    ):
        with pytest.raises(InvalidValue):
            VerificationQuery(**{"z_ref": [0.1, 0.2], "x_ref": [0.0], **kw})
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.0], alpha=0.1)
    assert q.alpha.shape == (2,)  # scalar broadcasts
    assert np.allclose(q.effective_scale(), 1.0)
    # the radius cap: the query's own, else the default over its scale
    q = VerificationQuery(z_ref=[0.3, 0.9], x_ref=[0.0], beta=0.1, scale=[1.0, 2.0])
    assert q.effective_delta_cap() == default_delta_cap(q.z_ref, q.scale)
    assert replace(q, delta_cap=0.25).effective_delta_cap() == 0.25


def test_robustness_identity():
    net = identity_net()
    q = VerificationQuery(z_ref=[0.5], x_ref=[0.5], alpha=0.1)
    res = robustness(net, q)
    o = res.per_output[0]
    assert o.status == "certified" and res.certified
    assert o.dev_plus == pytest.approx(0.1, abs=1e-9)
    assert o.dev_minus == pytest.approx(-0.1, abs=1e-9)
    assert o.R == pytest.approx(0.1, abs=1e-9)
    assert min(abs(o.witness[0] - 0.4), abs(o.witness[0] - 0.6)) < 1e-7


def test_robustness_e1_worked_example(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    res = robustness(e1, q)
    o = res.per_output[0]
    assert o.dev_plus == pytest.approx(0.2, abs=1e-9)
    assert o.dev_minus == pytest.approx(-0.1, abs=1e-9)
    assert o.R == pytest.approx(0.2, abs=1e-9)
    assert np.allclose(o.witness, [0.6, 0.4], atol=1e-7)
    # reference sits between the two extremes
    mid = forward(e1, q.z_ref)[0] - 0.25
    assert o.dev_minus - 1e-12 <= mid <= o.dev_plus + 1e-12


def test_robustness_zero_alpha_degenerate(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.1], alpha=0.0)
    res = robustness(e1, q)
    o = res.per_output[0]
    want = abs(forward(e1, q.z_ref)[0] - 0.1)
    assert o.R == pytest.approx(want, abs=1e-9)
    assert o.dev_plus == pytest.approx(o.dev_minus, abs=1e-9)


def test_robustness_witness_reproduces_R(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    o = robustness(e1, q).per_output[0]
    dev = abs(forward(e1, o.witness)[0] - 0.25)
    assert dev == pytest.approx(o.R, abs=1e-6)


def test_trust_identity():
    net = identity_net()
    q = VerificationQuery(z_ref=[0.5], x_ref=[0.5], beta=0.05)
    res = trustworthiness(net, q)
    o = res.per_output[0]
    assert o.found and o.status == "certified"
    assert o.delta_min == pytest.approx(0.05, abs=1e-9)
    assert res.delta_min == pytest.approx(0.05, abs=1e-9)


def test_trust_e1_worked_example(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.15)
    res = trustworthiness(e1, q)
    o = res.per_output[0]
    assert o.found
    assert o.delta_min == pytest.approx(0.075, abs=1e-9)
    assert o.sign == 1  # positive deviation binds
    # witness reaches the target deviation at the claimed radius
    dev = forward(e1, o.witness)[0] - 0.25
    assert dev >= 0.15 - 1e-6
    assert np.max(np.abs(o.witness - 0.5)) == pytest.approx(0.075, abs=1e-7)


def test_trust_not_found(e1):
    # both targets lie beyond the output's interval over the unit box, so
    # the one step, at the radius cap, proves the deviation below beta at
    # its two roots, whose bounds are below it
    out = propagate_bounds(e1, InputBox.unit(2))
    assert 0.25 + 5.0 > out.out_hi[0] and 0.25 - 5.0 < out.out_lo[0]
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=5.0)
    res = trustworthiness(e1, q)
    assert res.delta_min is None
    for o in res.per_output:
        assert not o.found
        assert o.status == "certified"  # certified absence, not a failure
    assert res.certified and res.stats["radius_search"] == [{"steps": 1, "nodes": 2, "lo": 0.5, "hi": None}]


def test_monotone_in_alpha_and_beta(e1):
    R = {}
    for a in (0.05, 0.1):
        q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=a)
        R[a] = robustness(e1, q).per_output[0].R
    assert R[0.05] <= R[0.1] + 1e-9
    d = {}
    for b in (0.1, 0.15):
        q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=b)
        d[b] = trustworthiness(e1, q).per_output[0].delta_min
    assert d[0.1] == pytest.approx(0.05, abs=1e-9)
    assert d[0.1] <= d[0.15] + 1e-9


def test_robustness_trust_duality(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    R = robustness(e1, q).per_output[0].R
    eps = 1e-4 * R
    above = trustworthiness(
        e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=R + eps)
    ).per_output[0]
    below = trustworthiness(
        e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=R - eps)
    ).per_output[0]
    assert (not above.found) or above.delta_min > 0.1
    assert below.found and below.delta_min <= 0.1 + 1e-9


def test_default_options_tighten_unless_turned_off(e1, monkeypatch):
    from relucert import verify

    calls = []
    inner = verify.lp_tighten

    def counting_tighten(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, "lp_tighten", counting_tighten)
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, beta=0.15)
    robustness(e1, q, VerifyOptions())
    trustworthiness(e1, q, VerifyOptions())
    assert len(calls) == 2
    robustness(e1, q, VerifyOptions(tighten=False))
    trustworthiness(e1, q, VerifyOptions(tighten=False))
    assert len(calls) == 2


def test_missing_parameter_errors(e1):
    with pytest.raises(InvalidArg):
        robustness(e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.1))
    with pytest.raises(InvalidArg):
        trustworthiness(e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1))
    with pytest.raises(DimensionMismatch):
        robustness(e1, VerificationQuery(z_ref=[0.5], x_ref=[0.25], alpha=0.1))
    with pytest.raises(DimensionMismatch):
        robustness(e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25, 0.1], alpha=0.1))


def test_batch_aggregation(e1):
    q1 = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, query_id="a")
    single = robustness_batch(e1, [q1])
    assert single.aggregate_R[0] == pytest.approx(0.2, abs=1e-9)
    tripled = robustness_batch(e1, [q1, q1, q1])
    assert tripled.aggregate_R[0] == pytest.approx(single.aggregate_R[0], abs=1e-12)
    q2 = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.02, query_id="b")
    two = robustness_batch(e1, [q2, q1])
    # aggregate is the elementwise max, recomputed independently here
    manual = max(r.per_output[0].R for r in two.per_query)
    assert two.aggregate_R[0] == pytest.approx(manual, abs=1e-12)
    assert two.aggregate_R[0] == pytest.approx(0.2, abs=1e-9)


def test_batch_records_partial_failures(e1):
    good = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    bad = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.1)  # no alpha
    batch = robustness_batch(e1, [bad, good])
    assert batch.per_query[0] is None
    assert "InvalidArg" in batch.errors[0]
    assert batch.per_query[1] is not None
    assert batch.aggregate_R[0] == pytest.approx(0.2, abs=1e-9)


def test_compare_vs_test_dominance(e1):
    rng = np.random.default_rng(5)
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    batch = robustness_batch(e1, [q])
    inputs = rng.uniform(0.4, 0.6, size=(40, 2))
    targets = np.full((40, 1), 0.25)
    cmp_res = compare_robustness_vs_test(batch, e1, inputs, targets)
    assert not np.any(cmp_res.flagged)
    assert cmp_res.samples_used == 40
    assert np.all(cmp_res.diff >= -1e-6)  # certified max dominates observed max
    # sampled dominance restated directly
    devs = np.abs(forward(e1, inputs)[:, 0] - 0.25)
    assert np.max(devs) <= batch.aggregate_R[0] + 1e-6


def test_compare_flags_out_of_ball_samples(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    batch = robustness_batch(e1, [q])
    inputs = np.array([[0.5, 0.5], [0.95, 0.95]])
    targets = np.full((2, 1), 0.25)
    cmp_res = compare_robustness_vs_test(batch, e1, inputs, targets)
    assert list(cmp_res.flagged) == [False, True]
    assert cmp_res.samples_used == 1
    with pytest.raises(DimensionMismatch):
        compare_robustness_vs_test(batch, e1, inputs[:, :1], targets)


def _match_one_by_one(queries, z):
    """Reference for the comparison's matching, one sample and one query at
    a time: the nearest query by scaled distance, the first on a tie, and
    whether the sample lies outside every ball."""
    best_d, best_q = np.inf, 0
    for qi, q in enumerate(queries):
        dz = np.abs(z - q.z_ref)
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(q.alpha > 0, dz / q.alpha, np.where(dz <= 1e-12, 0.0, np.inf))
        d = float(np.max(ratio))
        if d < best_d:
            best_d, best_q = d, qi
    return best_q, best_d > 1.0 + 1e-9


def test_compare_matches_samples_across_queries(e1):
    # the balls overlap, and the first has a zero radius on input 1
    q0 = VerificationQuery(z_ref=[0.4, 0.5], x_ref=[0.1], alpha=[0.2, 0.0])
    q1 = VerificationQuery(z_ref=[0.6, 0.5], x_ref=[0.3], alpha=0.2)
    q2 = VerificationQuery(z_ref=[0.3, 0.3], x_ref=[0.2], alpha=0.1)  # far from the samples below
    queries = (q0, q1, q2)
    batch = robustness_batch(e1, list(queries))
    inputs = np.array([
        [0.5, 0.5],                      # 0.5 from both centres: the tie goes to q0
        [0.45, 0.55],                    # off q0's zero-radius input, so q1's
        [0.4, 0.5 + 1e-13],              # within 1e-12 of it, so q0's
        [0.9, 0.9],                      # in no ball
        [0.6 + 0.2 * (1 + 1e-10), 0.5],  # on q1's boundary, within 1e-9
        [0.6 + 0.2 * (1 + 1e-8), 0.5],   # past it
    ])
    cmp_res = compare_robustness_vs_test(batch, e1, inputs, np.zeros((6, 1)))
    assert list(cmp_res.sample_query) == [0, 1, 0, 1, 1, 1]
    assert list(cmp_res.flagged) == [False, False, False, True, False, True]
    assert cmp_res.samples_used == 4
    x_ref = (0.1, 0.3, 0.1, None, 0.3, None)
    devs = [abs(y - x) for y, x in zip(forward(e1, inputs)[:, 0], x_ref) if x is not None]
    assert cmp_res.T[0] == max(devs)
    # random samples, half of them on q0's zero-radius input, match as the
    # reference does
    inputs = np.random.default_rng(0).uniform(0.2, 0.8, size=(200, 2))
    inputs[::2, 1] = 0.5
    cmp_res = compare_robustness_vs_test(batch, e1, inputs, np.zeros((200, 1)))
    ref = [_match_one_by_one(queries, z) for z in inputs]
    assert [(int(a), bool(b)) for a, b in zip(cmp_res.sample_query, cmp_res.flagged)] == ref
    assert {qi for qi, out in ref if not out} == {0, 1, 2}
    devs = [abs(y - queries[qi].x_ref[0]) for y, (qi, out) in zip(forward(e1, inputs)[:, 0], ref) if not out]
    assert cmp_res.samples_used == len(devs) and cmp_res.T[0] == max(devs)


def test_reports_and_hashes(e1):
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, query_id="op1")
    res = robustness(e1, q)
    rep = robustness_report(res, network_hash="abc123")
    assert rep["query_id"] == "op1"
    assert rep["provenance"]["network_sha256"] == "abc123"
    assert rep["provenance"]["query_sha256"] == query_hash(q)
    assert list(rep["provenance"]["tolerances"].items()) == [
        ("feas_tol", 1e-7), ("opt_tol", 1e-7), ("pivot_tol", 1e-9), ("bland_after", 50), ("refactor_every", 100)
    ]
    assert rep["per_output"][0]["R"] == pytest.approx(0.2, abs=1e-9)
    json.dumps(rep)  # serializable

    tq = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.15, query_id="op1")
    tres = trustworthiness(e1, tq)
    trep = trust_report(tres, network_hash="abc123")
    assert trep["aggregate"]["delta_min"] == pytest.approx(0.075, abs=1e-9)
    json.dumps(trep)

    batch = robustness_batch(e1, [q])
    brep = batch_report(batch, network_hash="abc123")
    assert brep["aggregate"]["R"][0] == pytest.approx(0.2, abs=1e-9)
    json.dumps(brep)

    side = timing_sidecar([res, tres])
    assert side["total_seconds"] >= 0
    assert len(side["per_result_seconds"]) == 2

    # hash is sensitive to the query content
    q2 = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.2, query_id="op1")
    assert query_hash(q) != query_hash(q2)
    assert query_hash(q) == query_hash(
        VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, query_id="op1")
    )


def test_delta_percent_and_tables(e1):
    # physical range [0,2]: reference magnitude 1.0, span 2 -> 200*delta
    assert delta_percent(0.075, [0.5], [1.0], [0.0], [2.0]) == pytest.approx(15.0)
    tq = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=0.15, query_id="c1")
    res = trustworthiness(e1, tq)
    nf = trustworthiness(
        e1, VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=5.0, query_id="c2")
    )
    csv_text = trust_table_csv([res, nf], np.zeros(2), np.ones(2))
    lines = csv_text.strip().splitlines()
    assert lines[0] == "query_id,output_name,delta_min_percent"
    assert any("not_found" in ln for ln in lines[1:])
    assert any(ln.startswith("c1,y1,") and "not_found" not in ln for ln in lines[1:])

    hist = histogram_csv(np.array([0.0, 0.5, 1.0]), np.array([3, 4]))
    assert hist.splitlines()[0] == "bin_lo,bin_hi,count"
    assert len(hist.strip().splitlines()) == 3


def test_trust_table_tells_an_undecided_output_from_a_proven_absence():
    # an output whose search hit a limit before any witness is not proven
    # unreachable: the table says "uncertified", as the report's status does
    q = VerificationQuery(z_ref=[0.5], x_ref=[0.0, 0.0, 0.0], beta=0.1, query_id="u1")
    per_output = [
        OutputTrust("y1", False, None, None, None, 0.5, "uncertified", float("inf")),
        OutputTrust("y2", False, None, None, None, 0.5, "certified", 0.0),
        OutputTrust("y3", True, 0.25, 1, np.array([0.75]), 0.5, "gap_limit", 1e-3),
    ]
    res = TrustResult(q, per_output, 0.25, False, {}, 0.0)
    assert trust_percents(res, [0.0], [2.0]) == [None, None, delta_percent(0.25, [0.5], [1.0], [0.0], [2.0])]
    rows = trust_table_csv([res], [0.0], [2.0]).splitlines()[1:]
    assert rows == ["u1,y1,uncertified", "u1,y2,not_found", "u1,y3,50.0"]


def test_wall_time_and_stats_cover_the_whole_call(e1, monkeypatch, caplog):
    import logging
    import time

    from relucert import verify

    inner = verify.lp_tighten

    def slow_tighten(*args, **kwargs):
        time.sleep(0.05)
        return inner(*args, **kwargs)

    monkeypatch.setattr(verify, "lp_tighten", slow_tighten)
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, beta=0.15)
    opts = VerifyOptions(tighten=True)
    with caplog.at_level(logging.DEBUG, logger="relucert.verify"):
        results = [robustness(e1, q, opts), trustworthiness(e1, q, opts)]
    steps = results[1].stats["radius_search"][0]["steps"]
    assert steps >= 2
    for r, bases in zip(results, (1, steps)):
        # each query also solves its base once, for the roots' start, and a
        # trust query the base of each step
        assert r.stats["lp_solves"] == r.stats["nodes"] + bases
        assert r.wall_time >= 0.05  # tightening is part of the query's time
        assert r.stats["subproblems"] == 2 * bases
        assert r.stats["nodes"] >= 2
        assert 0.0 <= r.stats["phase1_share"] <= 1.0
        assert r.stats["warm_starts"] >= 1
        assert 0.0 <= r.stats["dual_per_warm"] == r.stats["dual_pivots"] / r.stats["warm_starts"]
    assert sum("'dual_per_warm'" in rec.getMessage() for rec in caplog.records) == 2
    # one record per step of the trust search: its radius, incumbent, bound and decision
    records = [rec.getMessage() for rec in caplog.records if rec.getMessage().startswith("step ")]
    assert [int(m.split()[1]) for m in records] == list(range(1, steps + 1))
    assert all(" radius " in m and " incumbent " in m and " bound " in m for m in records)
    side = timing_sidecar(results)
    assert side["per_result_stats"] == [r.stats for r in results]
    json.dumps(side)
    reports = [robustness_report(results[0]), trust_report(results[1])]
    assert "dual_per_warm" not in json.dumps(reports)  # stats stay out of the byte-identical report


def test_child_breakdown_leaves_the_query_at_gap_limit(e1, monkeypatch):
    from relucert.errors import NumericalBreakdown
    from relucert.simplex import PreparedLp

    solve = PreparedLp.solve
    shared = []  # the query's one zero-objective solve, whose basis every root starts from
    broken = []

    def breaking(self, lo, hi, c, *args, start=None, **kwargs):
        if not np.any(c):
            shared.append(solve(self, lo, hi, c, *args, start=start, **kwargs))
            return shared[-1]
        if start is not shared[-1] and not broken:  # the first warm-started child
            broken.append(start)
            raise NumericalBreakdown("forced")
        return solve(self, lo, hi, c, *args, start=start, **kwargs)

    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.5)
    opts = VerifyOptions(tighten=False)
    clean = robustness(e1, q, opts).per_output[0]
    monkeypatch.setattr(PreparedLp, "solve", breaking)
    res = robustness(e1, q, opts)
    out = res.per_output[0]
    assert broken and res.stats["node_breakdowns"] == 1
    assert out.status == "gap_limit" and not res.certified
    # the incumbent still stands, and the open bound covers the true value
    assert out.dev_plus <= clean.dev_plus + 1e-9 <= out.dev_plus + out.gap + 2e-9
    assert timing_sidecar([res])["per_result_stats"][0]["node_breakdowns"] == 1


def test_root_breakdowns_leave_every_output_uncertified(monkeypatch):
    from relucert.errors import NumericalBreakdown
    from relucert.simplex import PreparedLp

    solve = PreparedLp.solve
    shared = []  # the query's one zero-objective solve, whose basis every root starts from
    roots = []

    def breaking(self, lo, hi, c, *args, start=None, **kwargs):
        if not np.any(c):
            shared.append(solve(self, lo, hi, c, *args, start=start, **kwargs))
            return shared[-1]
        if start is shared[-1]:
            roots.append(start)
            raise NumericalBreakdown("forced")
        return solve(self, lo, hi, c, *args, start=start, **kwargs)

    net = fold_bn(random_spec(np.random.default_rng(4), n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    q = VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), alpha=0.2)
    monkeypatch.setattr(PreparedLp, "solve", breaking)
    res = robustness(net, q, VerifyOptions(tighten=False))
    assert len(shared) == 1 and len(roots) == 2 * net.num_outputs
    # every search is kept: its root counts as a node and as a breakdown
    assert res.stats["subproblems"] == res.stats["nodes"] == res.stats["node_breakdowns"] == len(roots)
    assert res.stats["lp_solves"] == 1
    assert not res.certified
    for o in robustness_report(res)["per_output"]:
        assert o["status"] == "uncertified" and o["gap"] is None
        assert o["R"] is None and o["witness"] is None
    assert timing_sidecar([res])["per_result_stats"][0]["node_breakdowns"] == len(roots)


def _trust_query(seed: int, beta: float):
    net = fold_bn(random_spec(np.random.default_rng(seed), n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    return net, VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), beta=beta)


@pytest.mark.parametrize(
    "seed, beta, node_limit, spans",
    [
        (11, 1.7, 4, False),  # out of reach: the cap's step takes 8 and 16 nodes to prove it
        (4, 0.2, 6, True),  # reached: each output's steps take one or two nodes
    ],
    ids=["inside-the-first-step", "across-steps"],
)
def test_trust_node_limit_bounds_each_whole_output(seed, beta, node_limit, spans):
    net, q = _trust_query(seed, beta)
    full = trustworthiness(net, q)
    assert full.certified
    for b in full.stats["radius_search"]:
        assert b["steps"] > 2 if spans else (b["steps"], b["nodes"] > node_limit) == (1, True)
    capped = trustworthiness(net, q, VerifyOptions(bnb=BnbOptions(node_limit=node_limit)))
    assert not capped.certified
    brackets = capped.stats["radius_search"]
    assert capped.stats["nodes"] == sum(b["nodes"] for b in brackets)
    for o, done, b in zip(capped.per_output, full.per_output, brackets):
        # the output's steps share one limit; only a step's roots, which run
        # unless the first reaches beta, may pass it, by one node
        assert node_limit <= b["nodes"] <= node_limit + 1
        assert (b["steps"] > 1) == spans
        if not spans:  # the limit stops the first step before it decides
            assert not o.found and o.status == "uncertified" and (b["lo"], b["hi"]) == (0.0, None)
            continue
        assert o.found and o.status == "gap_limit"
        # the bracket [delta_min - gap, delta_min] holds the certified answer
        assert (b["lo"], b["hi"]) == (pytest.approx(o.delta_min - o.gap, abs=1e-15), o.delta_min)
        assert b["lo"] - 1e-9 <= done.delta_min <= b["hi"] + 1e-9


# ---------------------------------------------------------------------------
# the radius search on stubbed steps: the worst deviation over the 1-D ball
# of radius d around 0.5 is R(d), reached at the ball's edge, 0.5 + d


def _stub_step(xs, ys, calls, nodes=2):
    """A step whose search certifies R(d), the piecewise-linear function
    through (xs, ys), with a witness at radius d; each call's (d, options)
    goes to `calls`."""

    def step(d, opts):
        calls.append((d, opts))
        v = float(np.interp(d, xs, ys))
        return MilpResult(BnbStatus.CERTIFIED, v, np.array([0.5 + d]), v, 0.0, nodes, 0.0, source=0, problems=2)

    return step


def _search(step, beta, dev0=0.0, opts=BnbOptions()):
    return search_radius(step, np.array([0.5]), np.ones(1), dev0, beta, 1.0, opts)


@pytest.mark.parametrize(
    "xs, ys, beta",
    [
        ([0.0, 0.2, 1.0], [0.0, 0.07, 0.87], 0.1),  # a kink below the answer
        ([0.0, 0.4, 0.45, 1.0], [0.0, 0.02, 0.5, 0.6], 0.3),  # flat, then steep
        ([0.0, 0.05, 1.0], [0.0, 0.09, 0.11], 0.1),  # steep, then flat
        ([0.0, 1.0], [0.0, 0.2], 0.2),  # reached only at the cap
    ],
)
@pytest.mark.parametrize("gaps", [{}, {"abs_gap": 0.0, "rel_gap": 0.0}])
def test_radius_search_closes_its_bracket_around_the_answer(xs, ys, beta, gaps):
    opts = BnbOptions(**gaps)
    answer = float(np.interp(beta, ys, xs))  # R is increasing, so it inverts
    # a witness within _REACH_TOL of beta reaches it
    reach = float(np.interp(beta - _REACH_TOL, ys, xs))
    calls = []
    res = _search(_stub_step(xs, ys, calls), beta, float(ys[0]), opts)
    assert res.status == "certified" and res.gap == 0.0 and res.sign == 1
    assert res.hi - res.lo <= max(opts.abs_gap, opts.rel_gap * res.hi, 1e-15)
    assert res.lo - 1e-15 <= answer and reach <= res.hi + 1e-15
    assert res.witness.tolist() == [0.5 + res.hi]
    assert calls[0][0] == 1.0 and len(res.steps) == len(calls) <= 60
    # every step searched strictly inside the bracket it had
    lo, hi = 0.0, 1.0
    for d, _ in calls[1:]:
        assert lo < d < hi
        lo, hi = (d, hi) if np.interp(d, xs, ys) < beta - _REACH_TOL else (lo, d)


def test_radius_search_takes_a_witness_past_its_ball_at_the_balls_radius():
    # a witness whose radius passes its ball's by roundoff must not stall
    # the bracket above the radius searched
    calls = []
    inner = _stub_step([0.0, 1.0], [0.0, 1.0], calls)

    def step(d, opts):
        r = inner(d, opts)
        r.z = r.z + 1e-12
        return r

    res = _search(step, 0.3)
    assert res.status == "certified" and res.hi in {d for d, _ in calls}
    assert res.hi - res.lo <= 1e-6 * res.hi and res.lo < 0.3 <= res.hi


def test_radius_search_proves_an_unreachable_target_at_the_cap():
    calls = []
    res = _search(_stub_step([0.0, 1.0], [0.0, 0.2], calls), 0.3)
    assert (res.status, res.lo, res.hi, res.witness, res.gap) == ("certified", 1.0, None, None, 0.0)
    assert len(calls) == 1


def test_radius_search_stops_at_a_step_that_proves_neither_end():
    # past the cap's step, every search leaves its bound above beta and its
    # incumbent below: R(d) may or may not reach beta there
    calls = []
    certain = _stub_step([0.0, 1.0], [0.0, 1.0], calls)

    def step(d, opts):
        if d == 1.0:
            return certain(d, opts)
        calls.append((d, opts))
        return MilpResult(BnbStatus.CERTIFIED, 0.5 - 1e-3, np.array([0.5 + d]), 0.5 + 1e-3, 2e-3, 2, 0.0, source=0)

    res = _search(step, 0.5)
    assert len(calls) == 2
    assert (res.status, res.lo, res.hi, res.gap) == ("gap_limit", 0.0, 1.0, 1.0)
    assert res.witness.tolist() == [1.5] and res.sign == 1


def test_radius_search_shares_one_node_limit_among_its_steps():
    calls = []
    res = _search(_stub_step([0.0, 1.0], [0.0, 1.0], calls, nodes=2), 0.3,
                  opts=BnbOptions(node_limit=5, time_limit_seconds=1e3))
    # each step gets what the ones before it left, and the roots of the
    # last step, which always run, may pass the limit
    assert [o.node_limit for _, o in calls] == [5, 3, 1]
    times = [o.time_limit_seconds for _, o in calls]
    assert 1e3 >= times[0] >= times[1] >= times[2] > 0
    assert res.status == "gap_limit" and res.hi is not None and 0 < res.gap == res.hi - res.lo
    assert res.lo < 0.3 <= res.hi


def test_radius_search_without_a_witness_at_its_limit_is_uncertified():
    def step(d, opts):
        return MilpResult(BnbStatus.LIMIT, None, None, np.inf, np.inf, opts.node_limit, 0.0)

    res = _search(step, 0.3, opts=BnbOptions(node_limit=4))
    assert (res.status, res.lo, res.hi, res.witness, res.sign) == ("uncertified", 0.0, None, None, None)
    assert res.gap == np.inf and len(res.steps) == 1


def test_a_reference_output_already_beta_away_answers_zero(e1):
    # x_ref need not be the network's output at z_ref: where the two differ
    # by beta already, the answer is z_ref itself, with no step
    def step(d, opts):
        raise AssertionError("no step is needed")

    res = _search(step, 0.2, dev0=-0.25)
    assert (res.status, res.lo, res.hi, res.sign, res.steps) == ("certified", 0.0, 0.0, -1, [])
    assert res.witness.tolist() == [0.5]
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.5], beta=0.2)  # the network gives 0.25
    tr = trustworthiness(e1, q)
    o = tr.per_output[0]
    assert (o.found, o.delta_min, o.sign, o.status, o.gap) == (True, 0.0, -1, "certified", 0.0)
    assert o.witness.tolist() == [0.5, 0.5]
    assert tr.stats["radius_search"] == [{"steps": 0, "nodes": 0, "lo": 0.0, "hi": 0.0}]


def _tighten_everything(net, box, lb, stats=None):
    """Reference tightening: both LPs for every deeper hidden neuron and every
    output, decided or not, each solved cold over the relaxed encoding of
    the network cut after that layer's affine map."""
    work_lo = [a.copy() for a in lb.pre_lo] + [lb.out_lo.copy()]
    work_hi = [a.copy() for a in lb.pre_hi] + [lb.out_hi.copy()]
    for k in range(1, len(net.layers)):
        cut_lb = LayerBounds(pre_lo=tuple(work_lo[:k]), pre_hi=tuple(work_hi[:k]),
                             out_lo=work_lo[k].copy(), out_hi=work_hi[k].copy())
        cut = FoldedNetwork(layers=net.layers[: k + 1], input_dim=net.input_dim)
        p = encode_network(cut, cut_lb, classify_neurons(cut_lb), box)
        eng, (lo, hi) = prepare(p), relaxed_bounds(p)
        for t in range(cut.num_outputs):
            c = np.zeros(p.num_vars)
            c[p.var_roles[("output", t)]] = 1.0
            top = eng.solve(lo, hi, c, True)
            bottom = eng.solve(lo, hi, c, False)
            if top.status is LpStatus.OPTIMAL:
                work_hi[k][t] = min(work_hi[k][t], top.objective + 1e-9)
            if bottom.status is LpStatus.OPTIMAL:
                work_lo[k][t] = max(work_lo[k][t], bottom.objective - 1e-9)
            if work_lo[k][t] > work_hi[k][t]:
                work_lo[k][t] = work_hi[k][t] = 0.5 * (work_lo[k][t] + work_hi[k][t])
    return LayerBounds(
        pre_lo=tuple(work_lo[:-1]), pre_hi=tuple(work_hi[:-1]),
        out_lo=work_lo[-1], out_hi=work_hi[-1],
    )


def _same_answer(a, b, value_sides):
    """Two paths' answers to one query at closed gaps: every value equal
    within 1e-9, and equal statuses, except that one path may end an output
    `gap_limit` (an integral node left open a hair above its incumbent)
    where its `[incumbent, bound]` bracket holds the other path's certified
    value. `value_sides` maps each value field to the side its bound lies
    on: +1 for a maximum, -1 for a minimum."""
    assert a.stability_counts == b.stability_counts
    for x, y in zip(a.per_output, b.per_output):
        for name in value_sides:
            u, v = getattr(x, name), getattr(y, name)
            assert (u is None) == (v is None)
            if u is not None:
                assert u == pytest.approx(v, abs=1e-9)
        if x.status == y.status:
            continue
        left, done = (x, y) if x.status == "gap_limit" else (y, x)
        assert (left.status, done.status) == ("gap_limit", "certified")
        for name, side in value_sides.items():
            inc, value = getattr(left, name), getattr(done, name)
            lo, hi = sorted((inc, inc + side * left.gap))
            assert lo - 1e-9 <= value <= hi + 1e-9


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.4), beta=st.floats(0.05, 0.5))
@example(seed=308, alpha=0.333984375, beta=0.5)
@example(seed=58073, alpha=0.1875, beta=0.5)  # the shipped path leaves a gap of 2.1e-11 on output 0
def test_open_neuron_tightening_keeps_every_answer(seed, alpha, beta):
    from relucert import verify

    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5, 5), unit_norm=True))
    z_ref = rng.uniform(0, 1, net.input_dim)
    x_ref = forward(net, z_ref)
    rq = VerificationQuery(z_ref=z_ref, x_ref=x_ref, alpha=alpha)
    tq = VerificationQuery(z_ref=z_ref, x_ref=x_ref, beta=beta)
    # at the default gaps two trees may certify incumbents up to rel_gap
    # apart; closed gaps make both the exact optimum, up to an integral
    # node's open bound
    opts = VerifyOptions(bnb=BnbOptions(abs_gap=0, rel_gap=0))
    shipped = robustness(net, rq, opts), trustworthiness(net, tq, opts)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "lp_tighten", _tighten_everything)
        reference = robustness(net, rq, opts), trustworthiness(net, tq, opts)
    _same_answer(shipped[0], reference[0], {"dev_plus": 1, "dev_minus": -1, "R": 1})
    _same_answer(shipped[1], reference[1], {"delta_min": -1})


def test_tighten_stats_count_the_tightening_solves(monkeypatch):
    from relucert import verify
    from relucert.simplex import PreparedLp

    rng = np.random.default_rng(4)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    queries = {
        robustness: VerificationQuery(z_ref=z_ref, x_ref=[0.0, 0.0], alpha=0.3),
        trustworthiness: VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), beta=0.2),
    }
    inside, made = [], []  # made: one entry per solve inside lp_tighten
    tighten, solve = verify.lp_tighten, PreparedLp.solve

    def counting_tighten(*args):
        inside.append(True)
        try:
            return tighten(*args)
        finally:
            inside.pop()

    def counting_solve(self, *args, **kwargs):
        made.extend(inside)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(verify, "lp_tighten", counting_tighten)
    monkeypatch.setattr(PreparedLp, "solve", counting_solve)
    for run, q in queries.items():
        made.clear()
        res = run(net, q)
        assert res.stats["tighten"]["lp_solves"] == len(made) > 0
        # B&B's own accounting is unchanged by the tightening entry: the
        # nodes and the shared solve of each base, one per trust step, less
        # the cap's ball that every output's first step shares
        counts = [b["steps"] for b in res.stats.get("radius_search", [{"steps": 1}])]
        bases = sum(counts) - sum(n > 0 for n in counts) + 1
        assert res.stats["lp_solves"] == res.stats["nodes"] + bases
    for run, q in queries.items():
        assert run(net, q, VerifyOptions(tighten=False)).stats["tighten"]["lp_solves"] == 0
