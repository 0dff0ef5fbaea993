import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relucert.errors import Divergence, InvalidArg, InvalidValue, ParseError
from relucert.nnmodel import fold_bn, forward
from relucert.trainer import (
    Dataset,
    TrainConfig,
    evaluate,
    gen_synthetic,
    load_dataset,
    save_dataset,
    train,
)

from conftest import random_spec


def test_gen_synthetic_deterministic():
    a = gen_synthetic(2, 2, 50, 0.0, seed=9)
    b = gen_synthetic(2, 2, 50, 0.0, seed=9)
    assert np.array_equal(a.inputs, b.inputs)
    assert np.array_equal(a.targets, b.targets)
    assert np.array_equal(a.train_idx, b.train_idx)


def test_gen_synthetic_split_arithmetic():
    ds = gen_synthetic(2, 1, 100, 0.0, seed=0)
    assert len(ds.train_idx) == 80
    assert len(ds.test_idx) == 20
    assert not set(ds.train_idx) & set(ds.test_idx)


def test_gen_synthetic_noise_bound():
    clean = gen_synthetic(3, 2, 60, 0.0, seed=4)
    noisy = gen_synthetic(3, 2, 60, 0.05, seed=4)
    # same seed draws the same clean points before perturbing
    assert np.array_equal(clean.targets, noisy.targets)
    assert np.max(np.abs(noisy.inputs - clean.inputs)) <= 0.05 + 1e-15


def test_gen_synthetic_rejects_bad_args():
    with pytest.raises(InvalidArg):
        gen_synthetic(2, 1, 5, 0.0, seed=0)
    with pytest.raises(InvalidArg):
        gen_synthetic(0, 1, 50, 0.0, seed=0)
    with pytest.raises(InvalidArg):
        gen_synthetic(2, 1, 50, -0.1, seed=0)


def test_dataset_rejects_overlapping_split():
    with pytest.raises(InvalidValue):
        Dataset(
            inputs=np.zeros((4, 1)),
            targets=np.zeros((4, 1)),
            train_idx=[0, 1, 2],
            test_idx=[2, 3],
        )


def test_dataset_rejects_out_of_range_inputs():
    with pytest.raises(InvalidValue):
        Dataset(
            inputs=np.array([[1.5]]),
            targets=np.array([[0.0]]),
            train_idx=[0],
            test_idx=[],
        )


def test_train_running_stats_follow_momentum_rule():
    # one epoch of one whole-split batch: each layer's running statistics
    # move from (0, 1) by eta toward that batch's population moments under
    # the initial weights (a vanishing learning rate pins the weights)
    ds = gen_synthetic(3, 2, 50, 0.01, seed=4)
    cfg = dict(widths=(5, 4), batch_size=64, eta=0.5, seed=2)
    init = train(ds, TrainConfig(epochs=0, **cfg))
    got = train(ds, TrainConfig(epochs=1, learning_rate=1e-9, **cfg))
    a = ds.inputs[ds.train_idx]
    for layer, trained in zip(init.hidden, got.hidden):
        h = np.maximum(a @ layer.W.T + layer.b, 0.0)
        mean = h.mean(axis=0)
        var = np.maximum((h**2).mean(axis=0) - mean**2, 0.0)
        assert np.max(np.abs(trained.bn.mu - 0.5 * mean)) <= 1e-12
        assert np.max(np.abs(trained.bn.var - (0.5 + 0.5 * var))) <= 1e-12
        a = (h - mean) / np.sqrt(var + layer.bn.eps)  # initial gamma 1, beta 0


def test_train_deterministic():
    ds = gen_synthetic(2, 1, 40, 0.0, seed=2)
    cfg = TrainConfig(widths=(4,), epochs=10, batch_size=8, learning_rate=0.05, eta=0.9, seed=3)
    a, b = train(ds, cfg), train(ds, cfg)
    for la, lb in zip(a.hidden, b.hidden):
        assert np.array_equal(la.W, lb.W)
        assert np.array_equal(la.bn.mu, lb.bn.mu)
    assert np.array_equal(a.output.W, b.output.W)


def test_train_eta_zero_keeps_last_batch_stats():
    # single full batch per epoch, one epoch: running stats must equal the
    # stats of that batch under the initial weights, which we re-derive here
    ds = gen_synthetic(2, 1, 20, 0.0, seed=8)
    cfg = TrainConfig(widths=(5,), epochs=1, batch_size=16, learning_rate=0.01, eta=0.0, seed=11)
    spec = train(ds, cfg)

    rng = np.random.default_rng(cfg.seed)
    r = 1.0 / np.sqrt(2)
    W1 = rng.uniform(-r, r, size=(5, 2))
    b1 = rng.uniform(-r, r, size=5)
    rng.uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), size=(1, 5))
    rng.uniform(-1 / np.sqrt(5), 1 / np.sqrt(5), size=1)
    order = rng.permutation(16)
    Z = ds.inputs[ds.train_idx][order]
    h = np.maximum(Z @ W1.T + b1, 0.0)
    assert np.allclose(spec.hidden[0].bn.mu, h.mean(axis=0), atol=1e-14)
    assert np.allclose(
        spec.hidden[0].bn.var,
        (h**2).mean(axis=0) - h.mean(axis=0) ** 2,
        atol=1e-14,
    )


def test_train_reaches_small_mse_on_realizable_target():
    ds = gen_synthetic(2, 2, 200, 0.0, seed=5)
    cfg = TrainConfig(widths=(8,), epochs=400, batch_size=160, learning_rate=0.1, eta=0.9, seed=1)
    net = fold_bn(train(ds, cfg))
    tr = ds.train_idx
    mse = float(np.mean((forward(net, ds.inputs[tr]) - ds.targets[tr]) ** 2))
    assert mse <= 1e-3


def test_train_raises_divergence_on_huge_step():
    ds = gen_synthetic(2, 1, 40, 0.0, seed=2)
    cfg = TrainConfig(widths=(4,), epochs=50, batch_size=8, learning_rate=1e12, eta=0.9, seed=3)
    with np.errstate(all="ignore"), pytest.raises(Exception) as err:
        train(ds, cfg)
    assert err.type.__name__ == "Divergence"


def test_train_raises_divergence_when_the_last_step_overflows_a_parameter():
    # every loss of the three epochs is finite, but the last step leaves a
    # parameter non-finite; one more epoch would see it in the loss. The
    # dataset goes through its CSV text, as `relucert train` reads it
    ds = load_dataset(save_dataset(gen_synthetic(3, 2, 54, 0.01, 1)))
    cfg = TrainConfig(widths=(4, 3, 3), epochs=3, batch_size=1000, learning_rate=1e11, seed=7)
    with np.errstate(all="ignore"), pytest.raises(Divergence, match="parameters"):
        train(ds, cfg)


def test_config_rejects_bad_values():
    with pytest.raises(InvalidArg):
        TrainConfig(batch_size=1)
    with pytest.raises(InvalidArg):
        TrainConfig(eta=1.0)
    with pytest.raises(InvalidArg):
        TrainConfig(learning_rate=0.0)


def test_evaluate_exact_fit_is_zero():
    rng = np.random.default_rng(6)
    net = fold_bn(random_spec(rng, n0=2, m=2))
    Z = rng.uniform(0, 1, size=(30, 2))
    ds = Dataset(inputs=Z, targets=forward(net, Z), train_idx=np.arange(24), test_idx=np.arange(24, 30))
    assert np.array_equal(evaluate(net, ds, "test"), np.zeros(2))


def test_evaluate_single_sample_split():
    rng = np.random.default_rng(13)
    net = fold_bn(random_spec(rng, n0=2, m=1))
    Z = rng.uniform(0, 1, size=(3, 2))
    Y = forward(net, Z) + np.array([[0.0], [0.0], [0.25]])
    ds = Dataset(inputs=Z, targets=Y, train_idx=[0, 1], test_idx=[2])
    assert evaluate(net, ds, "test")[0] == pytest.approx(0.25, abs=1e-12)


def test_evaluate_matches_double_loop():
    rng = np.random.default_rng(17)
    net = fold_bn(random_spec(rng, n0=3, m=2))
    Z = rng.uniform(0, 1, size=(25, 3))
    Y = rng.normal(size=(25, 2))
    ds = Dataset(inputs=Z, targets=Y, train_idx=np.arange(20), test_idx=np.arange(20, 25))
    T = evaluate(net, ds, "train")
    for i in range(2):
        best = 0.0
        for s in range(20):
            best = max(best, abs(forward(net, Z[s])[i] - Y[s, i]))
        assert T[i] == pytest.approx(best, abs=0)


def test_evaluate_union_is_elementwise_max():
    rng = np.random.default_rng(23)
    net = fold_bn(random_spec(rng, n0=2, m=2))
    Z = rng.uniform(0, 1, size=(12, 2))
    Y = rng.normal(size=(12, 2))
    dsA = Dataset(inputs=Z[:6], targets=Y[:6], train_idx=[], test_idx=np.arange(6))
    dsB = Dataset(inputs=Z[6:], targets=Y[6:], train_idx=[], test_idx=np.arange(6))
    dsU = Dataset(inputs=Z, targets=Y, train_idx=[], test_idx=np.arange(12))
    TU = evaluate(net, dsU, "test")
    assert np.allclose(
        TU, np.maximum(evaluate(net, dsA, "test"), evaluate(net, dsB, "test")), atol=0
    )


def test_dataset_csv_roundtrip():
    ds = gen_synthetic(2, 2, 30, 0.03, seed=14)
    text = save_dataset(ds)
    back = load_dataset(text)
    assert np.array_equal(ds.inputs, back.inputs)
    assert np.array_equal(ds.targets, back.targets)
    assert sorted(ds.train_idx) == sorted(back.train_idx)
    assert sorted(ds.test_idx) == sorted(back.test_idx)


def test_dataset_csv_rejects_bad_header():
    with pytest.raises(ParseError):
        load_dataset("a,b,c\n1,2,train\n")


def test_dataset_csv_rejects_bad_split_label():
    ds = gen_synthetic(2, 1, 10, 0.0, seed=1)
    text = save_dataset(ds).replace("train", "holdout")
    with pytest.raises(ParseError):
        load_dataset(text)
