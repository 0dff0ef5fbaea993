import numpy as np
import pytest

from relucert.bnb import BnbOptions, BnbStatus, solve_milp
from relucert.bounds import InputBox, classify_neurons, propagate_bounds
from relucert.errors import InvalidArg, TooManyUnstable
from relucert.milp import default_delta_cap, encode_network, set_robustness_objective
from relucert.nnmodel import (
    HiddenLayer,
    NetworkSpec,
    OutputLayer,
    fold_bn,
    forward,
)
from relucert.oracle import (
    RobustnessSpec,
    TrustSpec,
    milp_opt,
    pattern_enumerate_opt,
)
from relucert.trainer import TrainConfig, gen_synthetic, train
from relucert.verify import VerificationQuery, VerifyOptions, robustness, trustworthiness

from conftest import identity_bn, random_spec
from test_milp import identity_net


def test_zero_unstable_single_pattern():
    net = identity_net()
    res = pattern_enumerate_opt(net, InputBox.unit(1), RobustnessSpec(0, 1, 0.0))
    assert res.status == "optimal"
    assert res.patterns_total == 1 and res.patterns_feasible == 1
    assert res.value == pytest.approx(1.0, abs=1e-9)
    assert res.point[0] == pytest.approx(1.0, abs=1e-9)


def test_e1_robustness_small_box(e1):
    box = InputBox(lo=np.full(2, 0.4), hi=np.full(2, 0.6))
    res = pattern_enumerate_opt(e1, box, RobustnessSpec(0, 1, 0.25))
    assert res.patterns_total == 2  # one neuron is provably active on this box
    assert res.value == pytest.approx(0.2, abs=1e-9)
    assert np.allclose(res.point, [0.6, 0.4], atol=1e-7)
    # cross-check against a fine grid over the box
    g = np.linspace(0.4, 0.6, 201)
    zz = np.array(np.meshgrid(g, g)).reshape(2, -1).T
    grid_max = float(np.max(forward(e1, zz)[:, 0] - 0.25))
    assert res.value == pytest.approx(grid_max, abs=1e-9)


def test_e1_trust_values(e1):
    for sign, want in ((1, 0.075), (-1, 0.15)):
        res = pattern_enumerate_opt(
            e1,
            InputBox.unit(2),
            TrustSpec(0, sign, 0.15, 0.25, (0.5, 0.5), (1.0, 1.0), 0.5),
        )
        assert res.status == "optimal"
        assert res.patterns_total == 4
        assert res.value == pytest.approx(want, abs=1e-8)
        # the witness actually reaches the target deviation at that radius
        dev = sign * (forward(e1, res.point)[0] - 0.25)
        assert dev >= 0.15 - 1e-7
        assert np.max(np.abs(res.point - 0.5)) == pytest.approx(want, abs=1e-7)


def test_milp_oracle_on_the_worked_instance(e1):
    box = InputBox(lo=np.full(2, 0.4), hi=np.full(2, 0.6))
    res = milp_opt(e1, box, RobustnessSpec(0, 1, 0.25))
    assert res.value == pytest.approx(0.2, abs=1e-12)
    assert np.allclose(res.point, [0.6, 0.4], atol=1e-9)
    for sign, want in ((1, 0.075), (-1, 0.15)):
        res = milp_opt(e1, InputBox.unit(2), TrustSpec(0, sign, 0.15, 0.25, (0.5, 0.5), (1.0, 1.0), 0.5))
        assert res.status == "optimal" and res.delta == res.value
        assert res.value == pytest.approx(want, abs=1e-12)
        assert sign * (forward(e1, res.point)[0] - 0.25) >= 0.15 - 1e-12
    # a cap below the minimum radius leaves the target out of reach
    res = milp_opt(e1, InputBox.unit(2), TrustSpec(0, 1, 0.15, 0.25, (0.5, 0.5), (1.0, 1.0), 0.07))
    assert res.status == "infeasible" and res.value is None and res.point is None


def test_trust_infeasible():
    net = identity_net()
    res = pattern_enumerate_opt(
        net, InputBox.unit(1), TrustSpec(0, 1, 2.0, 0.5, (0.5,), (1.0,), 0.5)
    )
    assert res.status == "infeasible"
    assert res.value is None


def test_single_surviving_pattern():
    # pre2 = h1a + h1b - 0.9 is identically 0.1 on the unit interval, but its
    # interval bound straddles zero; the dead phase has no feasible inputs
    spec = NetworkSpec(
        input_dim=1,
        hidden=(
            HiddenLayer(W=np.array([[1.0], [-1.0]]), b=np.array([0.0, 1.0]), bn=identity_bn(2)),
            HiddenLayer(W=np.array([[1.0, 1.0]]), b=np.array([-0.9]), bn=identity_bn(1)),
        ),
        output=OutputLayer(W=np.array([[1.0]]), b=np.zeros(1)),
        input_norm_lo=np.zeros(1),
        input_norm_hi=np.ones(1),
        output_names=("y1",),
    )
    net = fold_bn(spec)
    sm = classify_neurons(propagate_bounds(net, InputBox.unit(1)))
    assert sm.num_unstable == 1
    res = pattern_enumerate_opt(net, InputBox.unit(1), RobustnessSpec(0, 1, 0.0))
    assert res.patterns_total == 2
    assert res.patterns_feasible == 1
    assert res.value == pytest.approx(0.1, abs=1e-9)


def test_too_many_unstable(e1):
    with pytest.raises(TooManyUnstable):
        pattern_enumerate_opt(e1, InputBox.unit(2), RobustnessSpec(0, 1, 0.0), max_unstable=1)


def test_milp_oracle_matches_enumeration_and_bnb():
    """Seeded differential on random nets of six hidden neurons: the MILP
    oracle, pattern enumeration and the B&B agree within 1e-9 on
    robustness of both signs, the oracles on trust of both signs, and
    `trustworthiness` on the smaller of their two radii; all of them find
    a trust target out of reach unreachable."""
    rng = np.random.default_rng(77)
    exact = BnbOptions(rel_gap=0.0, abs_gap=0.0)
    for _ in range(6):
        net = fold_bn(random_spec(rng, n0=2, widths=(3, 3), m=2, unit_norm=True))
        box = InputBox.unit(net.input_dim)
        lb = propagate_bounds(net, box)
        sm = classify_neurons(lb)
        i = int(rng.integers(net.num_outputs))
        base = encode_network(net, lb, sm, box)
        x_ref = float(rng.uniform(-0.3, 0.3))
        z_ref = rng.uniform(0.2, 0.8, net.input_dim)
        scale = np.ones(net.input_dim)
        cap = default_delta_cap(z_ref, scale)
        x_at_z = forward(net, z_ref)
        for sign in (1, -1):
            spec = RobustnessSpec(i, sign, x_ref)
            bnb = solve_milp(set_robustness_objective(base, i, sign, x_ref), exact)
            assert bnb.status is BnbStatus.CERTIFIED
            values = [pattern_enumerate_opt(net, box, spec).value, milp_opt(net, box, spec).value]
            assert max(values + [bnb.incumbent_value]) - min(values + [bnb.incumbent_value]) <= 1e-9
        for beta in (float(rng.uniform(0.01, 0.3)), 100.0):  # the second is out of reach
            specs = [TrustSpec(i, sign, beta, float(x_at_z[i]), tuple(z_ref), tuple(scale), cap) for sign in (1, -1)]
            enum = [pattern_enumerate_opt(net, box, spec) for spec in specs]
            oracle = [milp_opt(net, box, spec) for spec in specs]
            q = VerificationQuery(z_ref=z_ref, x_ref=x_at_z, beta=beta)
            out = trustworthiness(net, q, VerifyOptions(bnb=exact)).per_output[i]
            assert out.status == "certified"
            for sign, e, o in zip((1, -1), enum, oracle):
                assert e.status == o.status
                if o.status == "optimal":
                    assert abs(e.value - o.value) <= 1e-9
                    # the oracle's point reaches the target at its radius
                    assert sign * (forward(net, o.point)[i] - x_at_z[i]) >= beta - 1e-9
                    assert np.max(np.abs(o.point - z_ref)) == pytest.approx(o.value, abs=1e-9)
            radii = [o.value for o in oracle if o.value is not None]
            assert out.found == bool(radii)
            if radii:
                assert out.delta_min == pytest.approx(min(radii), abs=1e-9)
                assert oracle[(1, -1).index(out.sign)].value == pytest.approx(out.delta_min, abs=1e-9)


def test_bnb_matches_milp_oracle_above_the_enumeration_cap():
    """A few random nets with 20 to 40 unstable neurons on the unit box,
    beyond what enumeration reaches: certified robustness and trust values
    agree with the MILP oracle within 1e-6."""
    rng = np.random.default_rng(3)
    opts = VerifyOptions(bnb=BnbOptions(rel_gap=0.0, abs_gap=0.0))
    done = 0
    while done < 2:
        net = fold_bn(random_spec(rng, n0=2, widths=(12, 12), m=1, unit_norm=True))
        box = InputBox.unit(net.input_dim)
        if not 20 <= classify_neurons(propagate_bounds(net, box)).num_unstable <= 40:
            continue
        z_ref = rng.uniform(0.2, 0.8, net.input_dim)
        x_ref = forward(net, z_ref)
        q = VerificationQuery(z_ref=z_ref, x_ref=x_ref, alpha=1.0, beta=0.1)  # the ball is the unit box
        rob = robustness(net, q, opts).per_output[0]
        trust = trustworthiness(net, q, opts).per_output[0]
        assert rob.status == trust.status == "certified"
        vp = milp_opt(net, box, RobustnessSpec(0, 1, float(x_ref[0]))).value
        vm = milp_opt(net, box, RobustnessSpec(0, -1, float(x_ref[0]))).value
        assert rob.dev_plus == pytest.approx(vp, abs=1e-6)
        assert rob.dev_minus == pytest.approx(-vm, abs=1e-6)
        scale = (1.0,) * net.input_dim
        radii = [
            milp_opt(net, box, TrustSpec(0, s, 0.1, float(x_ref[0]), tuple(z_ref), scale, trust.delta_cap)).value
            for s in (1, -1)
        ]
        assert trust.found
        assert trust.delta_min == pytest.approx(min(r for r in radii if r is not None), abs=1e-6)
        done += 1


def test_spec_validation():
    with pytest.raises(InvalidArg):
        RobustnessSpec(0, 0, 0.0)
    with pytest.raises(InvalidArg):
        TrustSpec(0, 1, -0.1, 0.0, (0.5,), (1.0,), 0.5)
    with pytest.raises(InvalidArg):
        TrustSpec(0, 1, 0.1, 0.0, (0.5,), (-1.0,), 0.5)


def test_milp_oracle_writes_nothing_to_stdout_or_stderr(capfd):
    """HiGHS writes some MIP messages to file descriptor 1 past
    `sys.stdout`; the oracle keeps them out of both of its caller's
    streams. This trust instance draws such messages."""
    ds = gen_synthetic(3, 2, 200, 0.01, 4)
    net = fold_bn(train(ds, TrainConfig(widths=(8, 8), epochs=40, seed=4)))
    z_ref = ds.inputs[ds.test_idx[0]]
    x_ref = forward(net, z_ref)
    scale = (1.0,) * net.input_dim
    cap = default_delta_cap(z_ref, np.ones(net.input_dim))
    box = InputBox.unit(net.input_dim)
    for i in range(net.num_outputs):
        for sign in (1, -1):
            milp_opt(net, box, TrustSpec(i, sign, 0.1, float(x_ref[i]), tuple(z_ref), scale, cap))
    out, err = capfd.readouterr()
    assert out == "" and err == ""


def test_trust_desk_12_12_case_never_falls_below_the_oracle():
    """The desk (12, 12) network at test position 15, output y2: a search
    that took a witness short of beta by roundoff over a proven lower end
    once answered 1.2e-9 below the oracle's radius 0.10800232. The answer
    must not fall below it by more than 1e-9, nor above it by more than
    the relative gap."""
    ds = gen_synthetic(8, 4, 400, 0.01, 11)
    net = fold_bn(train(ds, TrainConfig(widths=(12, 12), epochs=150, seed=5)))
    z_ref = ds.inputs[ds.test_idx[15]]
    x_ref = forward(net, z_ref)
    q = VerificationQuery(z_ref=z_ref, x_ref=x_ref, beta=0.1)
    out = trustworthiness(net, q).per_output[1]
    assert out.name == "y2" and out.status == "certified" and out.sign == 1
    spec = TrustSpec(1, 1, 0.1, float(x_ref[1]), tuple(z_ref), (1.0,) * 8, q.effective_delta_cap())
    opt = milp_opt(net, InputBox.unit(8), spec).value
    assert opt == pytest.approx(0.10800232, abs=1e-8)
    assert opt - 1e-9 <= out.delta_min <= opt * (1 + BnbOptions().rel_gap)
