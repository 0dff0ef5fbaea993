import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucert.bnb import BnbOptions
from relucert.bounds import LayerBounds, _prefix_engine
from relucert.errors import DimensionMismatch, InvalidArg, InvalidValue
from relucert.nnmodel import fold_bn, forward
from relucert.simplex import LpStatus
from relucert.verify import (
    BatchRobustness,
    VerificationQuery,
    VerifyOptions,
    batch_report,
    compare_robustness_vs_test,
    delta_percent,
    histogram_csv,
    query_hash,
    robustness,
    robustness_batch,
    robustness_report,
    timing_sidecar,
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
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], beta=5.0)
    res = trustworthiness(e1, q)
    assert res.delta_min is None
    for o in res.per_output:
        assert not o.found
        assert o.status == "certified"  # certified absence, not a failure


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


def test_unsafe_empirical_fixing_is_uncertified(e1):
    samples = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.1]])
    q = VerificationQuery(z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1)
    res = robustness(e1, q, VerifyOptions(unsafe_empirical_fix_samples=samples))
    assert not res.certified_fixing
    assert not res.certified
    certified = robustness(e1, q)
    assert certified.certified


def test_default_options_tighten_unless_fixing_empirically(e1, monkeypatch):
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
    samples = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.1]])
    empirical = VerifyOptions(unsafe_empirical_fix_samples=samples)
    robustness(e1, q, empirical)
    trustworthiness(e1, q, empirical)
    robustness(e1, q, VerifyOptions(tighten=False))
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
    assert rep["provenance"]["tolerances"]["feas_tol"] == 1e-7
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
    # a robustness query also solves its base encoding once, for the roots' start
    assert results[0].stats["lp_solves"] == results[0].stats["nodes"] + 1
    assert results[1].stats["lp_solves"] == results[1].stats["nodes"]
    for r in results:
        assert r.wall_time >= 0.05  # tightening is part of the query's time
        assert r.stats["subproblems"] == 2
        assert r.stats["nodes"] >= 2
        assert 0.0 <= r.stats["phase1_share"] <= 1.0
        assert r.stats["warm_starts"] >= 1
        assert 0.0 <= r.stats["dual_per_warm"] == r.stats["dual_pivots"] / r.stats["warm_starts"]
    assert sum("'dual_per_warm'" in rec.getMessage() for rec in caplog.records) == 2
    side = timing_sidecar(results)
    assert side["per_result_stats"] == [r.stats for r in results]
    json.dumps(side)
    reports = [robustness_report(results[0]), trust_report(results[1])]
    assert "dual_per_warm" not in json.dumps(reports)  # stats stay out of the byte-identical report


def test_child_breakdown_leaves_the_query_at_gap_limit(e1, monkeypatch):
    from relucert.errors import NumericalBreakdown
    from relucert.simplex import PreparedLp

    solve = PreparedLp.solve
    shared = []  # the query's one cold solve, whose basis every root starts from
    broken = []

    def breaking(self, *args, start=None, **kwargs):
        if start is None:
            shared.append(solve(self, *args, **kwargs))
            return shared[-1]
        if start is not shared[-1] and not broken:  # the first warm-started child
            broken.append(start)
            raise NumericalBreakdown("forced")
        return solve(self, *args, start=start, **kwargs)

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


def test_trust_node_limit_bounds_each_outputs_pair():
    rng = np.random.default_rng(4)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    z_ref = np.full(3, 0.5)
    q = VerificationQuery(z_ref=z_ref, x_ref=forward(net, z_ref), beta=0.2)
    full = trustworthiness(net, q)
    capped = trustworthiness(net, q, VerifyOptions(bnb=BnbOptions(node_limit=4)))
    assert full.certified and not capped.certified
    assert capped.stats["subproblems"] == 4
    assert capped.stats["nodes"] == 8  # 4 for each output's pair, not for each sign
    hit, missed = capped.per_output
    assert hit.found and hit.status == "gap_limit"
    # the pair's bracket [delta_min - gap, delta_min] holds the certified answer
    assert hit.delta_min - hit.gap - 1e-9 <= full.per_output[0].delta_min <= hit.delta_min + 1e-9
    assert not missed.found and missed.status == "uncertified" and missed.gap == float("inf")


def _tighten_everything(net, box, lb, stats=None):
    """Reference tightening: both LPs for every deeper hidden neuron and every
    output, decided or not, each solved cold."""
    work_lo = [a.copy() for a in lb.pre_lo] + [lb.out_lo.copy()]
    work_hi = [a.copy() for a in lb.pre_hi] + [lb.out_hi.copy()]
    for k in range(1, len(net.layers)):
        eng, lo, hi, post_off = _prefix_engine(net, k, work_lo, work_hi, box)
        src = slice(post_off[k - 1], post_off[k - 1] + net.layers[k - 1].width)
        for t, (a, const) in enumerate(zip(net.layers[k].A, net.layers[k].c)):
            c = np.zeros(lo.shape[0])
            c[src] = a
            top = eng.solve(lo, hi, c, True)
            bottom = eng.solve(lo, hi, c, False)
            if top.status is LpStatus.OPTIMAL:
                work_hi[k][t] = min(work_hi[k][t], top.objective + const + 1e-9)
            if bottom.status is LpStatus.OPTIMAL:
                work_lo[k][t] = max(work_lo[k][t], bottom.objective + const - 1e-9)
            if work_lo[k][t] > work_hi[k][t]:
                work_lo[k][t] = work_hi[k][t] = 0.5 * (work_lo[k][t] + work_hi[k][t])
    return LayerBounds(
        pre_lo=tuple(work_lo[:-1]), pre_hi=tuple(work_hi[:-1]),
        out_lo=work_lo[-1], out_hi=work_hi[-1],
    )


def _same_answer(a, b, value_fields):
    assert a.certified == b.certified and a.stability_counts == b.stability_counts
    for x, y in zip(a.per_output, b.per_output):
        assert x.status == y.status
        for name in value_fields:
            u, v = getattr(x, name), getattr(y, name)
            assert (u is None) == (v is None)
            if u is not None:
                assert u == pytest.approx(v, abs=1e-9)


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), alpha=st.floats(0.05, 0.4), beta=st.floats(0.05, 0.5))
def test_open_neuron_tightening_keeps_every_answer(seed, alpha, beta):
    from relucert import verify

    rng = np.random.default_rng(seed)
    net = fold_bn(random_spec(rng, n0=int(rng.integers(2, 4)), widths=(5, 5), unit_norm=True))
    z_ref = rng.uniform(0, 1, net.input_dim)
    x_ref = forward(net, z_ref)
    rq = VerificationQuery(z_ref=z_ref, x_ref=x_ref, alpha=alpha)
    tq = VerificationQuery(z_ref=z_ref, x_ref=x_ref, beta=beta)
    shipped = robustness(net, rq), trustworthiness(net, tq)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(verify, "lp_tighten", _tighten_everything)
        reference = robustness(net, rq), trustworthiness(net, tq)
    _same_answer(shipped[0], reference[0], ("dev_plus", "dev_minus", "R"))
    _same_answer(shipped[1], reference[1], ("delta_min",))


def test_tighten_stats_count_the_tightening_solves(monkeypatch):
    from relucert import verify
    from relucert.simplex import PreparedLp

    rng = np.random.default_rng(4)
    net = fold_bn(random_spec(rng, n0=3, widths=(6, 6), m=2, unit_norm=True))
    q = VerificationQuery(z_ref=[0.5, 0.5, 0.5], x_ref=[0.0, 0.0], alpha=0.3, beta=0.2)
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
    for run in (robustness, trustworthiness):
        made.clear()
        res = run(net, q)
        assert res.stats["tighten"]["lp_solves"] == len(made) > 0
        # B&B's own accounting is unchanged by the tightening entry
        assert res.stats["lp_solves"] == res.stats["nodes"] + (run is robustness)
    samples = rng.uniform(0, 1, (20, 3))
    for opts in (VerifyOptions(tighten=False), VerifyOptions(unsafe_empirical_fix_samples=samples)):
        for run in (robustness, trustworthiness):
            assert run(net, q, opts).stats["tighten"]["lp_solves"] == 0
