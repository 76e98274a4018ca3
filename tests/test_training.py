import math

import numpy as np
import pytest

from spectralkan import (AdamState, Model, ModelConfig, PatchSet, TrainConfig,
                         Variant, adam_step, build_model, gradient_check,
                         lr_at, softmax_cross_entropy, train)
from spectralkan.errors import ContractError

from oracles import fd_loss_grads, max_rel_err


def tiny_model(variant=Variant.SPECTRAL_KAN, seed=0):
    config = ModelConfig(variant=variant, patch_size=3, bands=4,
                         spatial_nodes=[9, 4, 1], spectral_nodes=[4, 4, 2])
    return build_model(config, seed=seed)


def separable_patchset(n=64, seed=0):
    """Two classes split by the sign of the whole patch."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.where(labels == 1, 0.5, -0.5)
    patches = centers[:, None, None, None] + 0.1 * rng.standard_normal((n, 3, 3, 4))
    return PatchSet(np.clip(patches, -1, 1), labels.astype(np.int64))


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        loss, _ = softmax_cross_entropy(np.zeros((4, 2)), np.array([0, 1, 0, 1]))
        assert abs(loss - math.log(2.0)) <= 1e-12

    def test_extreme_logits_are_stable(self):
        logits = np.array([[1000.0, -1000.0]])
        loss, grad = softmax_cross_entropy(logits, np.array([0]))
        assert loss <= 1e-12
        assert np.all(np.isfinite(grad))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.standard_normal((6, 2))
        labels = rng.integers(0, 2, size=6)

        def loss():
            return softmax_cross_entropy(logits, labels)[0]

        _, grad = softmax_cross_entropy(logits, labels)
        fd = fd_loss_grads(loss, [logits])
        assert max_rel_err([grad], fd) <= 1e-6

    def test_rejects_invalid_labels(self):
        with pytest.raises(ContractError):
            softmax_cross_entropy(np.zeros((2, 2)), np.array([0, 2]))


class TestSchedule:
    def test_default_schedule_values(self):
        config = TrainConfig()
        assert lr_at(config, 0) == 0.001
        assert lr_at(config, 9) == 0.001
        assert abs(lr_at(config, 10) - 0.0009) <= 1e-15

    def test_distinct_values_over_default_run(self):
        config = TrainConfig()
        values = {lr_at(config, e) for e in range(config.epochs)}
        assert len(values) == config.epochs // config.decay_every

    def test_piecewise_constant(self):
        config = TrainConfig()
        for e in range(40):
            assert lr_at(config, e) == lr_at(config, (e // 10) * 10)


class TestTrainConfig:
    @pytest.mark.parametrize("field", ["base_lr", "decay_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})


class TestAdam:
    def test_zero_gradients_leave_params_unchanged(self):
        params = [np.arange(6, dtype=np.float64).reshape(2, 3)]
        before = [p.copy() for p in params]
        state = AdamState(params)
        adam_step(state, params, [np.zeros((2, 3))], lr=0.1)
        assert np.array_equal(params[0], before[0])

    @pytest.mark.parametrize("g", [0.37, -2.5])
    def test_first_step_moves_by_lr_sign(self, g):
        params = [np.array([1.0])]
        state = AdamState(params)
        adam_step(state, params, [np.array([g])], lr=0.01)
        moved = params[0][0] - 1.0
        assert abs(moved + 0.01 * np.sign(g)) <= 1e-6

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(3)
            params = [rng.standard_normal((3, 3))]
            state = AdamState(params)
            for _ in range(25):
                adam_step(state, params, [rng.standard_normal((3, 3))], lr=0.01)
            return params[0]

        assert np.array_equal(run(), run())

    def test_rejects_shape_mismatch(self):
        params = [np.zeros((2, 2))]
        state = AdamState(params)
        with pytest.raises(ContractError):
            adam_step(state, params, [np.zeros((3, 2))], lr=0.1)


class TestTrain:
    def test_zero_epochs_is_noop(self):
        model = tiny_model(seed=5)
        before = [p.copy() for p in model.parameters()]
        _, history = train(model, separable_patchset(), TrainConfig(epochs=0))
        assert history.epochs == []
        for p, b in zip(model.parameters(), before):
            assert np.array_equal(p, b)

    def test_separable_task_reaches_high_accuracy(self):
        model = tiny_model(seed=1)
        dataset = separable_patchset(seed=1)
        config = TrainConfig(epochs=80, batch_size=16, seed=1)
        _, history = train(model, dataset, config)
        logits, _ = model.forward(dataset.patches)
        acc = float((np.argmax(logits, 1) == dataset.labels).mean())
        assert acc >= 0.99
        smoothed = np.convolve(history.losses, np.ones(10) / 10, mode="valid")
        assert np.all(np.diff(smoothed) <= 1e-6)

    def test_bitwise_determinism(self):
        def run():
            model = tiny_model(seed=2)
            _, history = train(model, separable_patchset(seed=2),
                               TrainConfig(epochs=10, batch_size=16, seed=2))
            return model, history

        m1, h1 = run()
        m2, h2 = run()
        assert h1.losses == h2.losses
        for a, b in zip(m1.parameters(), m2.parameters()):
            assert np.array_equal(a, b)

    def test_history_records_every_epoch(self):
        model = tiny_model(seed=3)
        _, history = train(model, separable_patchset(),
                           TrainConfig(epochs=7, batch_size=16))
        assert history.epochs == list(range(7))
        assert len(history.losses) == 7
        assert history.lrs[0] == 0.001

    def test_rejects_empty_training_set(self):
        model = tiny_model()
        empty = PatchSet(np.empty((0, 3, 3, 4)), np.empty(0, dtype=np.int64))
        with pytest.raises(ContractError):
            train(model, empty, TrainConfig(epochs=1))


class TestGradientCheck:
    @pytest.mark.parametrize("variant,bound", [
        (Variant.SPECTRAL_KAN, 1e-5),
        (Variant.MLP, 1e-6),
    ])
    def test_toy_models_pass(self, variant, bound):
        model = tiny_model(variant=variant, seed=6)
        rng = np.random.default_rng(6)
        patches = rng.uniform(-0.9, 0.9, (8, 3, 3, 4))
        labels = np.arange(8) % 2
        assert gradient_check(model, patches, labels) <= bound

    def test_detects_corrupted_gradients(self):
        model = tiny_model(seed=7)
        original = model.backward

        def broken(caches, grad_logits):
            grads = original(caches, grad_logits)
            grads[0] = grads[0] + 0.5
            return grads

        model.backward = broken
        rng = np.random.default_rng(7)
        patches = rng.uniform(-0.9, 0.9, (4, 3, 3, 4))
        labels = np.arange(4) % 2
        assert gradient_check(model, patches, labels) > 1e-2

    def test_empty_model_returns_zero(self):
        config = ModelConfig(variant=Variant.SPECTRAL_KAN, patch_size=3,
                             bands=4, spatial_nodes=[9, 4, 1],
                             spectral_nodes=[4, 4, 2])
        model = Model(config, [], [])
        assert gradient_check(model, np.zeros((1, 3, 3, 4)), np.array([0])) == 0.0
