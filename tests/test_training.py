import math
import tracemalloc

import numpy as np
import pytest

from spectralkan import (AdamState, Model, ModelConfig, PatchSet, TrainConfig,
                         Variant, adam_step, build_model, gradient_check,
                         lr_at, softmax_cross_entropy, train)
from spectralkan.errors import ContractError

from oracles import fd_loss_grads, max_rel_err, scalar_adam


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

    def test_rejects_labels_of_another_length(self):
        with pytest.raises(ContractError, match="do not match 2 labels"):
            softmax_cross_entropy(np.zeros((3, 2)), np.array([0, 1]))


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

    def test_negative_epoch_rejected(self):
        with pytest.raises(ContractError, match="epoch must be non-negative"):
            lr_at(TrainConfig(), -1)


class TestTrainConfig:
    @pytest.mark.parametrize("name", ["epochs", "batch_size", "decay_every"])
    @pytest.mark.parametrize("value", [2.5, 3.0, True, np.bool_(True), "4", None],
                             ids=repr)
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ContractError, match=name):
            TrainConfig(**{name: value})

    @pytest.mark.parametrize("name", ["base_lr", "decay_factor"])
    @pytest.mark.parametrize("value", [True, np.bool_(True), "0.5", None],
                             ids=repr)
    def test_rates_must_be_real(self, name, value):
        with pytest.raises(ContractError, match=f"{name} must be a real number"):
            TrainConfig(**{name: value})

    def test_numpy_integer_counts_are_stored_as_int(self):
        config = TrainConfig(epochs=np.int64(3), batch_size=np.int32(8),
                             decay_every=np.uint8(2))
        assert (config.epochs, config.batch_size, config.decay_every) == (3, 8, 2)
        assert all(type(v) is int
                   for v in (config.epochs, config.batch_size, config.decay_every))

    @pytest.mark.parametrize("field", ["base_lr", "decay_factor"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rate_must_be_finite_and_positive(self, field, value):
        with pytest.raises(ContractError, match=field):
            TrainConfig(**{field: value})

    def test_rate_too_large_for_a_float_rejected(self):
        with pytest.raises(ContractError, match="base_lr"):
            TrainConfig(base_lr=10**400)

    def test_decay_every_is_checked_as_an_integer(self):
        config = TrainConfig(decay_every=10**400)
        assert lr_at(config, 10**6) == config.base_lr
        with pytest.raises(ContractError, match="decay_every must be at least 1"):
            TrainConfig(decay_every=0)

    def test_negative_epochs_rejected(self):
        with pytest.raises(ContractError, match="epochs must be non-negative"):
            TrainConfig(epochs=-1)

    def test_zero_batch_size_rejected(self):
        with pytest.raises(ContractError, match="batch_size must be at least 1"):
            TrainConfig(batch_size=0)


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

    @pytest.mark.parametrize("count", [1, 3])
    def test_rejects_gradient_list_of_another_length(self, count):
        params = [np.zeros((2, 2)), np.zeros(3)]
        state = AdamState(params)
        grads = [np.ones((2, 2)), np.ones(3), np.ones(3)][:count]
        with pytest.raises(ContractError, match="do not match the state"):
            adam_step(state, params, grads, lr=0.1)
        assert state.step == 0 and not np.any(params[0])

    def test_bits_equal_scalar_oracle_over_random_steps(self):
        rng = np.random.default_rng(11)
        shapes = [(3, 4), (5,), (2, 3, 2), (1, 1)]
        start = [rng.standard_normal(shape) for shape in shapes]
        # Gradients from 1e-8 to 1e2 in size, of both signs, and exact zeros.
        steps = [[rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 2, shape)
                  * (rng.random(shape) > 0.1) for shape in shapes]
                 for _ in range(20)]
        lrs = [1e-3 * 0.9 ** (i // 5) for i in range(20)]
        params = [p.copy() for p in start]
        state = AdamState(params)
        for grads, lr in zip(steps, lrs):
            adam_step(state, params, grads, lr)
        for got, expected in zip((params, state.m, state.v),
                                 scalar_adam(start, steps, lrs)):
            for a, b in zip(got, expected):
                np.testing.assert_array_equal(a.view(np.uint64), b.view(np.uint64))

    def test_step_over_kan_peaks_under_two_and_a_half_largest_tensors(self):
        model = build_model(ModelConfig(variant=Variant.KAN, patch_size=5,
                                        bands=155), seed=0)
        params = model.parameters()
        assert sum(p.size for p in params) == 620_320
        rng = np.random.default_rng(0)
        grads = [rng.standard_normal(p.shape) for p in params]
        state = AdamState(params)
        tracemalloc.start()
        try:
            adam_step(state, params, grads, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * max(p.nbytes for p in params)


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

    @pytest.mark.parametrize("variant", [Variant.SPECTRAL_KAN, Variant.KAN_SS])
    def test_holds_one_step_at_a_time(self, variant):
        # Two steps per epoch at the paper's shape: nothing of one step may
        # be alive while the next step runs its forward and backward.
        config = ModelConfig(variant=variant, patch_size=5, bands=155)
        rng = np.random.default_rng(0)
        dataset = PatchSet(rng.uniform(-1.0, 1.0, (128, 5, 5, 155)),
                           rng.integers(0, 2, size=128))

        def peak_of(run):
            model = build_model(config, seed=0)
            tracemalloc.start()
            try:
                run(model)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        def one_step(model):
            params = model.parameters()
            state = AdamState(params)
            logits, caches = model.forward(dataset.patches[:64])
            _, grad_logits = softmax_cross_entropy(logits, dataset.labels[:64])
            grads = model.backward(caches, grad_logits)
            adam_step(state, params, grads, lr=1e-3)

        step = peak_of(one_step)
        trained = peak_of(lambda model: train(
            model, dataset, TrainConfig(epochs=2, batch_size=64)))
        assert trained <= 1.1 * step

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_set_trains_like_its_float64_copy(self, variant):
        # Model.forward widens each batch exactly, so the dtype of the set
        # moves no bit of the parameters or the history.
        single = separable_patchset(n=40, seed=4)
        single.patches = single.patches.astype(np.float32)
        wide = PatchSet(single.patches.astype(np.float64), single.labels)
        config = TrainConfig(epochs=3, batch_size=16, seed=4)
        runs = [train(tiny_model(variant, seed=4), ps, config) for ps in (single, wide)]
        (m32, h32), (m64, h64) = runs
        assert (h32.epochs, h32.lrs, h32.losses) == (h64.epochs, h64.lrs, h64.losses)
        for a, b in zip(m32.parameters(), m64.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_float32_set_is_not_copied(self):
        # A float64 copy of the set would alone take twice its bytes.
        config = ModelConfig(variant=Variant.MLP, patch_size=3, bands=4)
        rng = np.random.default_rng(8)
        dataset = PatchSet(rng.uniform(-1, 1, (20_000, 3, 3, 4)).astype(np.float32),
                           rng.integers(0, 2, size=20_000))
        model = build_model(config, seed=8)
        tracemalloc.start()
        try:
            train(model, dataset, TrainConfig(epochs=1, batch_size=64))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5 * dataset.patches.nbytes

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
