"""Acceptance gate for the shipped guarantees.

One test per guarantee, each at its stated tolerance, each printing a one-line
summary with the measured quantity. These run the public surface end to end
and lean only on independent references: exhaustive enumeration, dense grids,
mass sampling, and hand-derived values for the two-neuron instance.
"""

import json

import numpy as np
import pytest

from relucert.bnb import BnbOptions, BnbStatus, solve_milp
from relucert.bounds import (
    InputBox,
    StabilityMap,
    classify_neurons,
    propagate_bounds,
)
from relucert.cli import main
from relucert.milp import default_delta_cap, encode_network, lp_tighten, set_robustness_objective
from relucert.nnmodel import fold_bn, forward, forward_layers, save_network
from relucert.oracle import RobustnessSpec, TrustSpec, pattern_enumerate_opt
from relucert.trainer import TrainConfig, gen_synthetic, train
from relucert.verify import (
    VerificationQuery,
    VerifyOptions,
    compare_robustness_vs_test,
    robustness,
    robustness_batch,
    trustworthiness,
)

from conftest import random_spec

EXACT = BnbOptions(rel_gap=0.0, abs_gap=1e-8)


@pytest.fixture(scope="module")
def desk():
    """Trained desk-scale network: 8 inputs, two hidden layers of 8, 4 outputs."""
    ds = gen_synthetic(8, 4, 400, 0.01, 11)
    spec = train(ds, TrainConfig(widths=(8, 8), epochs=150, seed=5))
    return ds, spec, fold_bn(spec)


def test_certified_values_match_enumeration_oracle():
    """200 randomized instances: branch-and-bound certified optima agree with
    exhaustive activation-pattern enumeration within 1e-6."""
    rng = np.random.default_rng(101)
    worst = 0.0
    n_rob = 0
    while n_rob < 140:
        net = fold_bn(random_spec(rng))
        z = rng.uniform(0.15, 0.85, net.input_dim)
        box = InputBox.ball(z, float(rng.uniform(0.05, 0.25)))
        lb = propagate_bounds(net, box)
        sm = classify_neurons(lb)
        if sm.num_unstable > 12:
            continue
        i = int(rng.integers(net.num_outputs))
        sign = int(rng.choice([-1, 1]))
        x_ref = float(forward(net, z)[i])
        p = set_robustness_objective(encode_network(net, lb, sm, box), i, sign, x_ref)
        r = solve_milp(p, EXACT)
        assert r.status is BnbStatus.CERTIFIED
        o = pattern_enumerate_opt(net, box, RobustnessSpec(i, sign, x_ref))
        worst = max(worst, abs(r.incumbent_value - o.value))
        n_rob += 1
    n_trust = 0
    while n_trust < 60:
        net = fold_bn(random_spec(rng))
        box = InputBox.unit(net.input_dim)
        lb = propagate_bounds(net, box)
        sm = classify_neurons(lb)
        if sm.num_unstable > 8:
            continue
        i = int(rng.integers(net.num_outputs))
        z_ref = rng.uniform(0.2, 0.8, net.input_dim)
        x_ref = forward(net, z_ref)
        beta = float(rng.uniform(0.05, 0.4))
        scale = np.ones(net.input_dim)
        cap = default_delta_cap(z_ref, scale)
        q = VerificationQuery(z_ref=z_ref, x_ref=x_ref, beta=beta)
        # each output's answer comes from its robustness pairs on shrinking balls
        r = trustworthiness(net, q, VerifyOptions(bnb=EXACT)).per_output[i]
        radii = [
            pattern_enumerate_opt(
                net, box, TrustSpec(i, sign, beta, float(x_ref[i]), tuple(z_ref), tuple(scale), cap)
            ).value
            for sign in (1, -1)
        ]
        radii = [v for v in radii if v is not None]
        assert r.status == "certified" and r.found == bool(radii)
        if radii:
            worst = max(worst, abs(r.delta_min - min(radii)))
        n_trust += 1
    assert worst <= 1e-6
    print(f"PASS: max |certified - enumerated| = {worst:.2e} over 200 instances")


def test_worked_instance_against_hand_and_grid(e1):
    """The two-neuron instance: solver output equals the hand-derived values
    and a 1e-4-step grid search, all within 1e-6."""
    q = VerificationQuery(
        z_ref=[0.5, 0.5], x_ref=[0.25], alpha=0.1, beta=0.15, query_id="worked"
    )
    rr = robustness(e1, q).per_output[0]
    assert abs(rr.dev_plus - 0.2) <= 1e-6
    assert abs(rr.dev_minus - (-0.1)) <= 1e-6
    assert abs(rr.R - 0.2) <= 1e-6
    tt = trustworthiness(e1, q).per_output[0]
    assert tt.found and abs(tt.delta_min - 0.075) <= 1e-6

    g = np.linspace(0.4, 0.6, 2001)
    Z = np.stack(np.meshgrid(g, g, indexing="ij"), axis=-1).reshape(-1, 2)
    x = forward(e1, Z)[:, 0]
    assert abs((x.max() - 0.25) - rr.dev_plus) <= 1e-6
    assert abs((x.min() - 0.25) - rr.dev_minus) <= 1e-6
    # the minimizer sits well inside this window: any point outside it is
    # already farther than the radius found, so the window loses nothing
    feas = np.abs(x - 0.25) >= 0.15 - 1e-9
    delta_grid = float(np.max(np.abs(Z[feas] - 0.5), axis=1).min())
    assert abs(delta_grid - tt.delta_min) <= 1e-6
    print(f"PASS: worked instance matches hand values and {len(Z)}-point grid")


def test_certified_bound_dominates_observed_test_error(desk):
    """Certified worst-case deviation vs observed errors of measurements drawn
    inside the perturbation balls: the difference is never negative and is
    strictly positive for at least 90 percent of outputs."""
    ds, spec, net = desk
    rng = np.random.default_rng(7)
    pool = ds.inputs[ds.train_idx]
    refs = [pool[0]]
    for row in pool[1:]:
        if all(float(np.max(np.abs(row - r))) >= 0.2 for r in refs):
            refs.append(row)
        if len(refs) == 6:
            break
    assert len(refs) == 6
    alpha = 0.06
    queries = [
        VerificationQuery(
            z_ref=r, x_ref=forward(net, r), alpha=alpha, query_id=f"op{k}"
        )
        for k, r in enumerate(refs)
    ]
    batch = robustness_batch(net, queries)
    assert all(e is None for e in batch.errors)
    tests, targets = [], []
    for q in queries:
        pts = np.clip(q.z_ref + rng.uniform(-alpha, alpha, size=(20, 8)), 0.0, 1.0)
        tests.append(pts)
        targets.append(np.tile(q.x_ref, (20, 1)))
    cmp_res = compare_robustness_vs_test(batch, net, np.vstack(tests), np.vstack(targets))
    assert int(cmp_res.flagged.sum()) == 0
    assert np.all(cmp_res.diff >= -1e-6)
    frac = float(np.mean(cmp_res.diff > 0))
    assert frac >= 0.9
    print(f"PASS: min(R - T) = {cmp_res.diff.min():.3e}, strictly positive for {frac:.0%} of outputs")


def test_minimum_perturbation_exceeds_radius_when_target_above_R(desk):
    """Whenever the certified deviation inside the alpha-ball stays below the
    target beta, the minimum perturbation reaching beta lies beyond the ball
    (or provably does not exist)."""
    ds, spec, net = desk
    alpha = 0.05
    decisions = 0
    min_margin = np.inf
    for k in range(13):
        z = ds.inputs[ds.train_idx[k]]
        x_ref = forward(net, z)
        rr = robustness(net, VerificationQuery(z_ref=z, x_ref=x_ref, alpha=alpha))
        assert rr.certified
        beta = float(np.max(rr.R)) + 0.02
        tr = trustworthiness(net, VerificationQuery(z_ref=z, x_ref=x_ref, beta=beta))
        for o, R_i in zip(tr.per_output, rr.R):
            assert R_i < beta  # premise of the decision rule
            assert o.status == "certified"
            if o.found:
                assert o.delta_min > alpha - 1e-9
                min_margin = min(min_margin, o.delta_min - alpha)
            decisions += 1
    assert decisions >= 50
    print(f"PASS: {decisions} decisions, smallest found radius exceeds alpha by {min_margin:.3e}")


def test_monotone_in_radius_and_in_target():
    """R is nondecreasing in the ball radius and the minimum perturbation is
    nondecreasing in the target deviation, tolerance 1e-9, on 20 random nets."""
    rng = np.random.default_rng(55)
    opts = VerifyOptions(bnb=BnbOptions(abs_gap=1e-10, rel_gap=0.0))
    alphas = [0.0, 0.01, 0.02, 0.05, 0.1]
    betas = [0.05, 0.1, 0.2, 0.4]
    done = 0
    while done < 20:
        net = fold_bn(random_spec(rng, m=1))
        lb = propagate_bounds(net, InputBox.unit(net.input_dim))
        if classify_neurons(lb).num_unstable > 10:
            continue
        z = rng.uniform(0.2, 0.8, net.input_dim)
        x_ref = forward(net, z)
        Rs = []
        for a in alphas:
            rr = robustness(net, VerificationQuery(z_ref=z, x_ref=x_ref, alpha=a), opts)
            assert rr.certified
            Rs.append(float(rr.R[0]))
        assert all(Rs[j + 1] >= Rs[j] - 1e-9 for j in range(len(Rs) - 1)), Rs
        Ds = []
        for b in betas:
            tr = trustworthiness(net, VerificationQuery(z_ref=z, x_ref=x_ref, beta=b), opts)
            o = tr.per_output[0]
            assert o.status == "certified"
            Ds.append(o.delta_min if o.found else np.inf)
        assert all(Ds[j + 1] >= Ds[j] - 1e-9 for j in range(len(Ds) - 1)), Ds
        done += 1
    print(f"PASS: sweeps monotone on {done} nets ({len(alphas)} radii, {len(betas)} targets)")


def test_fixing_stable_neurons_preserves_optimum():
    """Fixing bound-certified stable neurons changes no certified optimum
    (<= 1e-8) and does not increase node counts in >= 95% of 50 instances."""
    rng = np.random.default_rng(66)
    worst = 0.0
    wins = 0
    for _ in range(50):
        while True:
            net = fold_bn(random_spec(rng))
            z = rng.uniform(0.15, 0.85, net.input_dim)
            box = InputBox.ball(z, float(rng.uniform(0.05, 0.15)))
            lb = propagate_bounds(net, box)
            sm = classify_neurons(lb)
            total = sum(len(layer) for layer in sm.layers)
            if 0 < sm.num_unstable <= 12 and sm.num_unstable < total:
                break
        i = int(rng.integers(net.num_outputs))
        sign = int(rng.choice([-1, 1]))
        x_ref = float(forward(net, z)[i])
        fixed = solve_milp(
            set_robustness_objective(encode_network(net, lb, sm, box), i, sign, x_ref),
            EXACT,
        )
        free = solve_milp(
            set_robustness_objective(
                encode_network(net, lb, StabilityMap.all_unstable(net.hidden_widths), box),
                i, sign, x_ref,
            ),
            EXACT,
        )
        assert fixed.status is BnbStatus.CERTIFIED and free.status is BnbStatus.CERTIFIED
        worst = max(worst, abs(fixed.incumbent_value - free.incumbent_value))
        wins += fixed.nodes <= free.nodes
    assert worst <= 1e-8
    assert wins >= 48
    print(f"PASS: max optimum shift {worst:.2e}, node count never worse in {wins}/50")


def test_normalization_folding_is_exact():
    """Folded and unfolded inference agree to 1e-9 on 1e4 (network, input)
    pairs; momentum 0 leaves exactly the last batch's statistics."""
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(500):
        spec = random_spec(rng)
        net = fold_bn(spec)
        Z = rng.uniform(0.0, 1.0, size=(20, spec.input_dim))
        ref = Z
        for layer in spec.hidden:
            h = np.maximum(ref @ layer.W.T + layer.b, 0.0)
            bn = layer.bn
            ref = bn.gamma * (h - bn.mu) / np.sqrt(bn.var + bn.eps) + bn.beta
        ref = ref @ spec.output.W.T + spec.output.b
        worst = max(worst, float(np.max(np.abs(forward(net, Z) - ref))))
    assert worst <= 1e-9

    # end to end: momentum 0 with a single whole-set batch leaves exactly that
    # batch's post-ReLU statistics (vanishing learning rate pins the weights)
    ds = gen_synthetic(3, 2, 50, 0.0, 3)
    w0 = train(ds, TrainConfig(widths=(5,), epochs=0, seed=9)).hidden[0]
    got = train(
        ds,
        TrainConfig(widths=(5,), epochs=1, batch_size=64, eta=0.0, seed=9,
                    learning_rate=1e-9),
    ).hidden[0].bn
    H = np.maximum(ds.inputs[ds.train_idx] @ w0.W.T + w0.b, 0.0)
    mh = H.mean(axis=0)
    vh = np.maximum((H**2).mean(axis=0) - mh**2, 0.0)
    assert float(np.max(np.abs(got.mu - mh))) <= 1e-12
    assert float(np.max(np.abs(got.var - vh))) <= 1e-12
    print(f"PASS: max |folded - unfolded| = {worst:.2e} over 10000 pairs; momentum-0 statistics exact")


def test_bounds_never_violated_by_mass_sampling():
    """1e5 sampled points per instance stay inside the propagated bounds
    (1e-9) and the LP-tightened bounds (1e-7, the LP feasibility tolerance);
    tightened intervals are always subsets."""
    rng = np.random.default_rng(88)
    worst_int = 0.0
    worst_tight = 0.0
    for t in range(8):
        net = fold_bn(random_spec(rng, unit_norm=True))
        if t % 2:
            box = InputBox.unit(net.input_dim)
        else:
            z = rng.uniform(0.2, 0.8, net.input_dim)
            box = InputBox.ball(z, float(rng.uniform(0.1, 0.3)))
        lb = propagate_bounds(net, box)
        tb = lp_tighten(net, box, lb)
        for k in range(lb.num_hidden):
            assert np.all(tb.pre_lo[k] >= lb.pre_lo[k] - 1e-12)
            assert np.all(tb.pre_hi[k] <= lb.pre_hi[k] + 1e-12)
        assert np.all(tb.out_lo >= lb.out_lo - 1e-12)
        assert np.all(tb.out_hi <= lb.out_hi + 1e-12)

        Z = rng.uniform(box.lo, box.hi, size=(100_000, net.input_dim))
        pre, _, out = forward_layers(net, Z)
        for b, w in ((lb, "int"), (tb, "tight")):
            viol = 0.0
            for k in range(b.num_hidden):
                viol = max(viol, float(np.max(b.pre_lo[k] - pre[k].min(axis=0), initial=0.0)))
                viol = max(viol, float(np.max(pre[k].max(axis=0) - b.pre_hi[k], initial=0.0)))
            viol = max(viol, float(np.max(b.out_lo - out.min(axis=0), initial=0.0)))
            viol = max(viol, float(np.max(out.max(axis=0) - b.out_hi, initial=0.0)))
            if w == "int":
                worst_int = max(worst_int, viol)
            else:
                worst_tight = max(worst_tight, viol)
    assert worst_int <= 1e-9
    assert worst_tight <= 1e-7
    print(f"PASS: worst violation {worst_int:.2e} (propagated), {worst_tight:.2e} (tightened) over 8e5 samples")


def test_witnesses_reproduce_their_claims(desk, tmp_path, capfd):
    """Every witness reproduces its claimed deviation through a forward pass
    within 1e-6, and the report re-check command exits 0 with nothing on
    stdout but its own lines, whatever the MILP solver prints."""
    ds, spec, net = desk
    rng = np.random.default_rng(99)
    queries = []
    for k in range(3):
        z = ds.inputs[ds.train_idx[k]]
        x_ref = forward(net, z) + rng.uniform(-0.02, 0.02, size=4)
        queries.append(VerificationQuery(z_ref=z, x_ref=x_ref, alpha=0.05, query_id=f"w{k}"))
    batch = robustness_batch(net, queries)
    worst = 0.0
    for res in batch.per_query:
        for i, o in enumerate(res.per_output):
            dev = abs(float(forward(net, o.witness)[i]) - float(res.query.x_ref[i]))
            worst = max(worst, abs(dev - o.R))
    q0 = queries[0]
    beta = float(np.max(batch.per_query[0].R)) + 0.02
    tr = trustworthiness(
        net, VerificationQuery(z_ref=q0.z_ref, x_ref=q0.x_ref, beta=beta, query_id="wt")
    )
    n_trust_witnesses = 0
    for i, o in enumerate(tr.per_output):
        if not o.found:
            continue
        dev = abs(float(forward(net, o.witness)[i]) - float(q0.x_ref[i]))
        assert dev >= beta - 1e-6
        radius = float(np.max(np.abs(o.witness - q0.z_ref)))
        worst = max(worst, abs(radius - o.delta_min))
        n_trust_witnesses += 1
    assert worst <= 1e-6

    net_path = tmp_path / "net.json"
    net_path.write_text(save_network(spec))
    rq = tmp_path / "rq.json"
    rq.write_text(json.dumps([
        {"query_id": q.query_id, "z_ref": q.z_ref.tolist(), "x_ref": q.x_ref.tolist(),
         "alpha": 0.05}
        for q in queries
    ]))
    rob_rep = tmp_path / "rob.json"
    assert main(["verify-robust", "--network", str(net_path), "--queries", str(rq),
                 "--out", str(rob_rep)]) == 0
    assert main(["oracle-check", "--network", str(net_path), "--report", str(rob_rep)]) == 0
    tq = tmp_path / "tq.json"
    tq.write_text(json.dumps(
        {"query_id": "wt", "z_ref": q0.z_ref.tolist(), "x_ref": q0.x_ref.tolist(),
         "beta": beta}
    ))
    trust_rep = tmp_path / "trust.json"
    assert main(["verify-trust", "--network", str(net_path), "--queries", str(tq),
                 "--out", str(trust_rep)]) == 0
    capfd.readouterr()
    assert main(["oracle-check", "--network", str(net_path), "--report", str(trust_rep)]) == 0
    lines = capfd.readouterr().out.splitlines()
    assert len(lines) == 2 and lines[0].startswith("checked wt (trust): discrepancy "), lines
    assert lines[1].startswith("max discrepancy "), lines
    print(f"PASS: max witness error {worst:.2e} ({n_trust_witnesses} trust witnesses); re-check exits 0")
