import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralkan import (DenseLayer, FullKanLayer, Model, ModelConfig,
                         PatchSet, SharedKanLayer, SplineGrid, TrainConfig,
                         Variant, build_model, gradient_check, load_checkpoint,
                         save_checkpoint, softmax_cross_entropy, train)
from spectralkan import layers, spline
from spectralkan.cli import predict_at
from spectralkan.data import HsiCube
from spectralkan.errors import (ContractError, DataError, DomainError,
                                MalformedHeaderError, TruncatedPayloadError)

from oracles import backward_every_input_grad, eval_model_scalar


def config_d(bands=155, variant=Variant.SPECTRAL_KAN):
    return ModelConfig(variant=variant, patch_size=5, bands=bands,
                       spatial_nodes=[25, 16, 1], spectral_nodes=[bands, 16, 2])


def tiny_config(variant):
    return ModelConfig(variant=variant, patch_size=3, bands=4,
                       spatial_nodes=[9, 4, 1], spectral_nodes=[4, 4, 2])


class TestBuild:
    def test_spectral_kan_has_four_shared_layers(self):
        model = build_model(config_d(), seed=0)
        layers = model.layers()
        assert len(layers) == 4
        assert all(isinstance(l, SharedKanLayer) for l in layers)
        assert [l.d_in for l in model.spatial_stack] == [25, 16]
        assert [l.d_in for l in model.spectral_stack] == [155, 16]

    def test_mlp_is_two_flat_dense_layers(self):
        model = build_model(config_d(variant=Variant.MLP), seed=0)
        assert model.spatial_stack == []
        assert len(model.spectral_stack) == 2
        assert all(isinstance(l, DenseLayer) for l in model.spectral_stack)
        assert model.spectral_stack[0].d_in == 3875
        assert model.spectral_stack[0].activate
        assert not model.spectral_stack[1].activate

    def test_kan_ss_uses_full_layers(self):
        model = build_model(config_d(variant=Variant.KAN_SS), seed=0)
        assert all(isinstance(l, FullKanLayer) for l in model.layers())

    def test_same_seed_rebuild_is_identical(self):
        a = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=11)
        b = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=11)
        for pa, pb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(pa, pb)

    @pytest.mark.parametrize("kwargs", [
        {"patch_size": 4},
        {"bands": 0},
        {"spatial_nodes": [24, 16, 1]},
        {"spatial_nodes": [25, 16, 2]},
        {"spectral_nodes": [154, 16, 2]},
        {"spectral_nodes": [155, 16, 3]},
        {"spectral_nodes": [155]},
        {"spatial_nodes": []},
        {"spectral_nodes": []},
    ])
    def test_rejects_inconsistent_config(self, kwargs):
        base = dict(variant=Variant.SPECTRAL_KAN, patch_size=5, bands=155,
                    spatial_nodes=[25, 16, 1], spectral_nodes=[155, 16, 2])
        base.update(kwargs)
        with pytest.raises(ContractError):
            ModelConfig(**base)

    @pytest.mark.parametrize("kwargs", [
        {"patch_size": 5.0},
        {"bands": 155.0},
        {"patch_size": True, "bands": 4, "spatial_nodes": None,
         "spectral_nodes": None},
        {"bands": np.float64(155)},
        {"spatial_nodes": [25, 16.0, 1]},
        {"spectral_nodes": [155, 2.5, 2]},
        {"spectral_nodes": [155, True, 2]},
        {"spectral_nodes": [155, "16", 2]},
    ])
    def test_rejects_non_integer_sizes(self, kwargs):
        base = dict(variant=Variant.SPECTRAL_KAN, patch_size=5, bands=155,
                    spatial_nodes=[25, 16, 1], spectral_nodes=[155, 16, 2])
        base.update(kwargs)
        with pytest.raises(ContractError, match="must be an integer"):
            ModelConfig(**base)

    def test_numpy_integer_sizes_become_ints(self, tmp_path):
        config = ModelConfig(patch_size=np.int64(3), bands=np.int32(4),
                             spectral_nodes=[np.int16(4), np.uint8(8), 2])
        assert (config.patch_size, config.bands) == (3, 4)
        assert config.spectral_nodes == [4, 8, 2]
        assert all(type(v) is int for v in [config.patch_size, config.bands,
                                             *config.spectral_nodes])
        # The header is JSON, which a numpy integer would not serialize to.
        save_checkpoint(build_model(config, seed=0), tmp_path / "model.ckpt")
        assert load_checkpoint(tmp_path / "model.ckpt").config == config

    @pytest.mark.parametrize("kwargs,spatial,spectral", [
        ({}, [25, 16, 1], [155, 16, 2]),
        ({"patch_size": 3, "bands": 30}, [9, 16, 1], [30, 16, 2]),
    ])
    def test_default_node_lists_follow_patch_and_bands(self, kwargs, spatial,
                                                       spectral):
        config = ModelConfig(**kwargs)
        assert (config.spatial_nodes, config.spectral_nodes) == (spatial, spectral)


class TestForward:
    def test_zeroed_model_gives_zero_logits(self):
        model = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=0)
        for p in model.parameters():
            p[:] = 0.0
        logits, _ = model.forward(np.zeros((3, 3, 3, 4)))
        assert np.all(logits == 0.0)

    def test_identical_patches_identical_logits(self):
        model = build_model(tiny_config(Variant.KAN_SS), seed=1)
        patch = np.random.default_rng(0).uniform(-1, 1, (3, 3, 4))
        batch = np.stack([patch] * 5)
        logits, _ = model.forward(batch)
        assert np.all(logits == logits[0])

    @pytest.mark.parametrize("variant", [Variant.SPECTRAL_KAN, Variant.MLP_SS,
                                         Variant.KAN_SS])
    def test_matches_scalar_composition_oracle(self, variant):
        config = ModelConfig(variant=variant, patch_size=3, bands=2,
                             spatial_nodes=[9, 2, 1], spectral_nodes=[2, 2, 2])
        model = build_model(config, seed=7)
        patch = np.random.default_rng(5).uniform(-1, 1, (3, 3, 2))
        logits, _ = model.forward(patch[None])
        expected = eval_model_scalar(model, patch)
        assert np.abs(logits[0] - expected).max() <= 1e-9

    @pytest.mark.parametrize("variant", [Variant.KAN, Variant.MLP,
                                         Variant.KAN_ENC])
    def test_flat_variants_match_oracle(self, variant):
        config = tiny_config(variant)
        model = build_model(config, seed=8)
        patch = np.random.default_rng(6).uniform(-1, 1, (3, 3, 4))
        logits, _ = model.forward(patch[None])
        expected = eval_model_scalar(model, patch)
        assert np.abs(logits[0] - expected).max() <= 1e-9

    def test_band_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        patches = rng.uniform(-1, 1, (4, 3, 3, 4))
        perm = rng.permutation(4)
        for variant in (Variant.SPECTRAL_KAN, Variant.MLP_SS, Variant.KAN_SS):
            model = build_model(tiny_config(variant), seed=2)
            # The spectral stack's first cache holds the per-band features.
            z, z_perm = (model.forward(x)[1][len(model.spatial_stack)].inputs
                         for x in (patches, patches[..., perm]))
            assert np.abs(z_perm - z[:, perm]).max() <= 1e-12, variant

    @pytest.mark.parametrize("variant", list(Variant))
    def test_empty_batch_gives_no_logits(self, variant):
        model = build_model(tiny_config(variant), seed=0)
        logits, caches = model.forward(np.zeros((0, 3, 3, 4)))
        assert logits.shape == (0, 2)
        grads = model.backward(caches, logits)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]

    def test_argmax_invariant_to_logit_scaling(self):
        model = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=4)
        patches = np.random.default_rng(9).uniform(-1, 1, (16, 3, 3, 4))
        logits, _ = model.forward(patches)
        last = model.spectral_stack[-1]
        last.base_weight *= 3.7
        last.spline_scale *= 3.7
        scaled, _ = model.forward(patches)
        assert np.array_equal(np.argmax(logits, 1), np.argmax(scaled, 1))

    def test_rejects_wrong_patch_shape(self):
        model = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=0)
        with pytest.raises(ContractError):
            model.forward(np.zeros((2, 5, 5, 4)))

    def test_rejects_non_finite_patch(self):
        model = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=0)
        bad = np.zeros((1, 3, 3, 4))
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            model.forward(bad)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_forward_without_caches_gives_the_same_logits(self, variant):
        model = build_model(tiny_config(variant), seed=3)
        patches = np.random.default_rng(4).uniform(-1, 1, (7, 3, 3, 4))
        kept, caches = model.forward(patches)
        bare, none = model.forward(patches, keep=False)
        assert bare.tobytes() == kept.tobytes()
        assert len(caches) == len(model.layers()) and none == []
        with pytest.raises(ContractError):
            model.backward(none, bare)

    @pytest.mark.parametrize("variant", list(Variant))
    def test_float32_patches_cast_like_float64(self, variant):
        model = build_model(tiny_config(variant), seed=5)
        patches = np.random.default_rng(6).uniform(-1, 1, (5, 3, 3, 4))
        single = patches.astype(np.float32)
        for keep in (True, False):
            got, _ = model.forward(single, keep=keep)
            want, _ = model.forward(single.astype(np.float64), keep=keep)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant", [Variant.KAN, Variant.SPECTRAL_KAN])
    def test_backward_rejects_short_cache_list(self, variant):
        model = build_model(tiny_config(variant), seed=0)
        logits, caches = model.forward(np.zeros((2, 3, 3, 4)))
        with pytest.raises(ContractError):
            model.backward(caches[:-1], logits)


class TestPreparedForward:
    """``Model.forward`` given ``Model.prepare()`` gives the same bits as
    one whose layers prepare their own operands."""

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("p,b", [(5, 155), (3, 4)])
    def test_prepared_forward_is_bit_identical(self, variant, p, b):
        model = build_model(ModelConfig(variant=variant, patch_size=p, bands=b),
                            seed=6)
        patches = np.random.default_rng(7).uniform(-1.2, 1.2, (9, p, p, b))
        prepared = model.prepare()
        assert len(prepared) == len(model.layers())
        for keep in (True, False):
            own, _ = model.forward(patches, keep=keep)
            given, _ = model.forward(patches, keep=keep, prepared=prepared)
            assert given.tobytes() == own.tobytes()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_rejects_list_of_wrong_length(self, variant):
        model = build_model(tiny_config(variant), seed=0)
        prepared = model.prepare()
        for wrong in (prepared[:-1], prepared + [None], []):
            with pytest.raises(ContractError, match="prepared operands"):
                model.forward(np.zeros((2, 3, 3, 4)), prepared=wrong)

    @pytest.mark.parametrize("variant", [Variant.KAN, Variant.KAN_ENC,
                                         Variant.KAN_SS, Variant.SPECTRAL_KAN])
    def test_rejects_operands_of_another_model(self, variant):
        model = build_model(tiny_config(variant), seed=0)
        # As many layers, of other widths.
        other = build_model(ModelConfig(variant=variant, patch_size=3, bands=4,
                                        spatial_nodes=[9, 5, 1],
                                        spectral_nodes=[4, 5, 2]), seed=0)
        with pytest.raises(ContractError, match="prepared operand"):
            model.forward(np.zeros((2, 3, 3, 4)), prepared=other.prepare())

    @pytest.mark.parametrize("variant", [Variant.KAN, Variant.KAN_SS])
    def test_full_layer_logits_do_not_depend_on_the_batch(self, variant):
        # kan's first layer contracts 3,875 * 8 = 31,000 columns, several
        # chunks of the row-invariant product.
        model = build_model(config_d(variant=variant), seed=3)
        patches = np.random.default_rng(4).uniform(-1.0, 1.0, (33, 5, 5, 155))
        prepared = model.prepare()
        first = model.forward(patches[:1], keep=False, prepared=prepared)[0][0]
        for n in range(2, len(patches) + 1):
            logits, _ = model.forward(patches[:n], keep=False, prepared=prepared)
            assert logits[0].tobytes() == first.tobytes(), n


class TestSharedForwardBuildsNoBasis:
    """Forward evaluates the shared layers in pp form, in prediction and in
    training alike; only backward builds the dense basis, one row block at
    a time, for the coefficient gradient."""

    @staticmethod
    def count_basis_values(monkeypatch):
        calls = []
        original = layers.basis_values

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(layers, "basis_values", counted)
        return calls

    @pytest.mark.parametrize("variant,shared_layers",
                             [(Variant.SPECTRAL_KAN, 4), (Variant.KAN_ENC, 2)])
    def test_only_training_forward_builds_the_basis(self, variant, shared_layers,
                                                    monkeypatch):
        # The name predates the blocked backward; forward now builds none.
        model = build_model(tiny_config(variant), seed=0)
        assert [layer.kind for layer in model.layers()] == ["shared"] * shared_layers
        rng = np.random.default_rng(1)
        patches = rng.uniform(-1, 1, (3, 3, 3, 4))
        cube = HsiCube(rng.uniform(-1, 1, (4, 5, 4)).astype(np.float32))
        calls = self.count_basis_values(monkeypatch)
        model.forward(patches, keep=False)
        predict_at(model, cube, np.argwhere(np.ones((4, 5), dtype=bool)))
        logits, caches = model.forward(patches, keep=True)
        assert len(calls) == 0
        model.backward(caches, logits)
        # One call per layer, last layer first: its rows fit one block.
        assert [x.shape for _, x in calls] == [
            cache.inputs.shape for cache in reversed(caches)]

    @pytest.mark.parametrize("variant", list(Variant))
    def test_keep_changes_no_logit_bit_across_blocks(self, variant):
        # 40 patches at b=30 give 1,200 band rows of 25 inputs, several
        # blocks of the pp-form evaluator; the tiny model above fits in one.
        model = build_model(config_d(bands=30, variant=variant), seed=2)
        patches = np.random.default_rng(3).uniform(-1.2, 1.2, (40, 5, 5, 30))
        kept, _ = model.forward(patches, keep=True)
        bare, _ = model.forward(patches, keep=False)
        assert bare.tobytes() == kept.tobytes()


class TestBackwardInputGrad:
    @pytest.mark.parametrize("variant,kan_layers", [
        (Variant.SPECTRAL_KAN, 4), (Variant.KAN_SS, 4),
        (Variant.KAN, 2), (Variant.KAN_ENC, 2)])
    def test_first_layer_takes_no_basis_derivatives(self, variant, kan_layers,
                                                    monkeypatch):
        model = build_model(tiny_config(variant), seed=0)
        patches = np.random.default_rng(1).uniform(-1, 1, (3, 3, 3, 4))
        logits, caches = model.forward(patches)
        calls = []
        original = layers.basis_derivatives

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(layers, "basis_derivatives", counted)
        model.backward(caches, logits)
        assert len(model.layers()) == kan_layers
        assert len(calls) == kan_layers - 1

    @pytest.mark.parametrize("variant", list(Variant))
    def test_training_matches_backward_with_every_input_grad(self, variant):
        rng = np.random.default_rng(2)
        data = PatchSet(rng.uniform(-1, 1, (10, 3, 3, 4)),
                        rng.integers(0, 2, 10).astype(np.int64))
        config = TrainConfig(epochs=2, batch_size=4, seed=3)
        model = build_model(tiny_config(variant), seed=6)
        reference = build_model(tiny_config(variant), seed=6)
        reference.backward = lambda caches, g: backward_every_input_grad(
            reference, caches, g)
        train(model, data, config)
        train(reference, data, config)
        for got, want in zip(model.parameters(), reference.parameters()):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("variant,mib", [(Variant.KAN, 16),
                                             (Variant.KAN_ENC, 8)])
    def test_backward_peak_memory(self, variant, mib):
        # The first layer's input gradient, (64, 3875) plus its dense
        # (64, 3875, 8) basis derivatives, took 61.5 and 44.7 MiB.
        model = build_model(config_d(variant=variant), seed=0)
        patches = np.random.default_rng(3).uniform(-1, 1, (64, 5, 5, 155))
        logits, caches = model.forward(patches)
        tracemalloc.start()
        try:
            model.backward(caches, logits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= mib * 2 ** 20

    def test_training_forward_retains_only_batch_arrays(self):
        # kan's caches hold 20.9 MiB at batch 64; a cached copy of its first
        # layer's spline_scale * spline_coeff (16 x 3875 x 8) made it 24.7.
        model = build_model(config_d(variant=Variant.KAN), seed=0)
        patches = np.random.default_rng(3).uniform(-1, 1, (64, 5, 5, 155))
        tracemalloc.start()
        try:
            logits, caches = model.forward(patches)
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained <= 22 * 2 ** 20


KAN_VARIANTS = [Variant.KAN, Variant.KAN_ENC, Variant.KAN_SS,
                Variant.SPECTRAL_KAN]


class TestBlockedBackward:
    """KAN backward builds its basis tensors in row blocks of at most
    ``spline._BLOCK_INPUTS`` inputs (one row at least). Each budget counts
    the basis values of a block, ``BASIS_COUNT`` per input. A 10-patch
    batch at p=3 has 40 band rows of 9 inputs (72 basis values a row) and
    40 or 10 rows of 4 inputs (32 a row; the flat first layer has 288). A
    budget of 64 values (8 inputs) gives blocks of one and two rows; 216
    (27 inputs) cuts the 40 rows into 13 blocks of 3 and one of 1 row, and
    288 (36 inputs) cuts the 10 rows into 9 and 1."""

    BASIS_COUNT = SplineGrid().basis_count
    BUDGETS = [64, 216, 288]

    @classmethod
    def block_inputs(cls, monkeypatch, budget):
        monkeypatch.setattr(spline, "_BLOCK_INPUTS", budget // cls.BASIS_COUNT)

    @staticmethod
    def step(variant):
        model = build_model(tiny_config(variant), seed=4)
        patches = np.random.default_rng(4).uniform(-1.2, 1.2, (10, 3, 3, 4))
        logits, caches = model.forward(patches)
        _, grad_logits = softmax_cross_entropy(logits, np.arange(10) % 2)
        return model, caches, grad_logits

    @staticmethod
    def upstream(model, caches, grad_logits):
        """Each layer, last first, with its cache and the upstream gradient
        that the one-block backward hands it."""
        stack, g, steps = model.layers(), grad_logits, []
        for i in reversed(range(len(stack))):
            if i == len(model.spatial_stack) - 1:
                g = g.reshape(-1, 1)
            steps.append((stack[i], caches[i], g))
            g, _ = stack[i].backward(caches[i], g)
        return steps

    @pytest.mark.parametrize("budget", BUDGETS)
    @pytest.mark.parametrize("variant", KAN_VARIANTS)
    def test_blocks_match_one_block(self, variant, budget, monkeypatch):
        # Every layer, the first too, builds its input gradient here.
        steps = self.upstream(*self.step(variant))
        want = [layer.backward(cache, g) for layer, cache, g in steps]
        self.block_inputs(monkeypatch, budget)
        rows = []
        original = layers.basis_derivatives

        def counted(grid, x):
            rows.append(len(x))
            return original(grid, x)

        monkeypatch.setattr(layers, "basis_derivatives", counted)
        got = [layer.backward(cache, g) for layer, cache, g in steps]
        assert len(rows) >= 2 * len(steps)  # two blocks a layer at least
        for (layer, _, _), (got_in, got_params), (want_in, want_params) in zip(
                steps, got, want):
            # Input gradients are formed row by row, so no bit moves; but
            # OpenBLAS rounds a row of the full layer's g @ weighted by the
            # height of its block once g has two columns.
            if layer.kind == "shared" or layer.d_out == 1:
                assert got_in.tobytes() == want_in.tobytes()
            else:
                assert np.abs(got_in - want_in).max() <= 1e-12 * np.abs(want_in).max()
            for a, b in zip(got_params, want_params):
                assert np.abs(a - b).max() <= 1e-12 * np.abs(b).max()

    @pytest.mark.parametrize("variant", KAN_VARIANTS)
    def test_gradient_check_holds_across_blocks(self, variant, monkeypatch):
        self.block_inputs(monkeypatch, 216)
        model = build_model(tiny_config(variant), seed=6)
        patches = np.random.default_rng(6).uniform(-0.9, 0.9, (10, 3, 3, 4))
        assert gradient_check(model, patches, np.arange(10) % 2) <= 1e-5

    @pytest.mark.parametrize("variant", KAN_VARIANTS)
    def test_empty_batch_gives_zero_parameter_grads(self, variant, monkeypatch):
        self.block_inputs(monkeypatch, 216)
        model = build_model(tiny_config(variant), seed=0)
        logits, caches = model.forward(np.zeros((0, 3, 3, 4)))
        grads = model.backward(caches, logits)
        assert [g.shape for g in grads] == [p.shape for p in model.parameters()]
        assert all(np.all(g == 0.0) for g in grads)


class TestStepMemory:
    def test_spectral_kan_step_peaks_below_kan(self):
        # One forward + backward at batch 64, p=5, b=155: spectral-kan
        # peaked at 52.9 MiB against kan's 29.5 while its shared layers
        # cached the dense basis for backward; 15.7 against 27.6 with the
        # basis built in backward's row blocks.
        patches = np.random.default_rng(3).uniform(-1, 1, (64, 5, 5, 155))
        peaks = {}
        for variant in (Variant.SPECTRAL_KAN, Variant.KAN):
            model = build_model(config_d(variant=variant), seed=0)
            tracemalloc.start()
            try:
                logits, caches = model.forward(patches)
                model.backward(caches, logits)
                peaks[variant] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            del logits, caches
        assert peaks[Variant.SPECTRAL_KAN] < peaks[Variant.KAN]


class TestAccounting:
    @pytest.mark.parametrize("bands,expected", [
        (155, 7_552), (198, 9_272), (154, 7_512), (224, 10_312),
    ])
    def test_spectral_kan_param_table(self, bands, expected):
        assert build_model(config_d(bands), seed=0).total_params() == expected

    @pytest.mark.parametrize("variant,expected", [
        (Variant.KAN, 620_320),
        (Variant.KAN_ENC, 155_192),
        (Variant.KAN_SS, 29_280),
        (Variant.SPECTRAL_KAN, 7_552),
        (Variant.MLP, 62_050),
        (Variant.MLP_SS, 2_963),
    ])
    def test_ablation_param_totals(self, variant, expected):
        assert build_model(config_d(variant=variant), seed=0).total_params() == expected

    def test_param_ordering_and_ratios(self):
        totals = {v: build_model(config_d(variant=v), seed=0).total_params()
                  for v in (Variant.SPECTRAL_KAN, Variant.KAN_SS,
                            Variant.KAN_ENC, Variant.KAN)}
        assert (totals[Variant.SPECTRAL_KAN] < totals[Variant.KAN_SS]
                < totals[Variant.KAN_ENC] < totals[Variant.KAN])
        enc_ratio = totals[Variant.KAN] / totals[Variant.KAN_ENC]
        assert 3.5 < enc_ratio < 4.5
        assert 3.5 < totals[Variant.KAN_SS] / totals[Variant.SPECTRAL_KAN] < 4.5
        assert totals[Variant.KAN] / totals[Variant.KAN_SS] > 20
        assert totals[Variant.KAN_ENC] / totals[Variant.SPECTRAL_KAN] > 20

    def test_spectral_kan_flops_from_per_layer_formulas(self):
        shared = lambda d, o: 100 * d + 2 * d * o
        expected = 155 * (shared(25, 16) + shared(16, 1)) \
            + shared(155, 16) + shared(16, 2)
        model = build_model(config_d(), seed=0)
        assert model.total_flops() == expected == 786_584

    def test_flat_kan_flops(self):
        full = lambda d, o: 102 * d * o
        model = build_model(config_d(variant=Variant.KAN), seed=0)
        assert model.total_flops() == full(3875, 16) + full(16, 2) == 6_327_264

    def test_empty_model_counts_zero(self):
        model = Model(config_d(), [], [])
        assert model.total_params() == 0
        assert model.total_flops() == 0


class TestCheckpoint:
    def test_round_trip_is_bit_exact(self, tmp_path):
        model = build_model(tiny_config(Variant.SPECTRAL_KAN), seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.config.variant == model.config.variant
        assert loaded.config.spectral_nodes == model.config.spectral_nodes
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert np.array_equal(a, b)

    def test_save_load_save_identical_bytes(self, tmp_path):
        model = build_model(tiny_config(Variant.KAN), seed=13)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        save_checkpoint(load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("variant", list(Variant))
    def test_load_draws_no_random_numbers(self, tmp_path, monkeypatch, variant):
        model = build_model(tiny_config(variant), seed=13)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)

        def no_rng(*args, **kwargs):
            raise AssertionError("load drew random numbers")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        loaded = load_checkpoint(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            assert a.tobytes() == b.tobytes()

    def test_load_peak_memory_follows_the_parameters(self, tmp_path):
        model = build_model(config_d(variant=Variant.KAN), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        param_bytes = sum(p.nbytes for p in model.parameters())
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded.total_params() == 620_320
        # The file's bytes and one float64 copy of its payload.
        assert peak < 2.5 * param_bytes

    def test_rejects_wrong_magic(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"NOTAMODEL" + b"\x00" * 32)
        with pytest.raises(MalformedHeaderError):
            load_checkpoint(path)

    def test_rejects_truncated_payload(self, tmp_path):
        model = build_model(tiny_config(Variant.MLP), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-50])
        with pytest.raises(TruncatedPayloadError):
            load_checkpoint(path)

    def test_rejects_damaged_header(self, tmp_path):
        model = build_model(tiny_config(Variant.MLP), seed=1)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = bytearray(path.read_bytes())
        blob[16] ^= 0xFF  # somewhere inside the JSON header
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedHeaderError):
            load_checkpoint(path)


def scalar_paths(node, path=()):
    """Key/index paths of every scalar in a parsed JSON header."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in scalar_paths(child, path + (key,))]


def config_fields(config):
    """A model config in the layout of a checkpoint header's ``config``."""
    return {"variant": config.variant.value, "patch_size": config.patch_size,
            "bands": config.bands, "spatial_nodes": config.spatial_nodes,
            "spectral_nodes": config.spectral_nodes,
            "spline": {"degree": config.grid.degree,
                       "grid_size": config.grid.grid_size,
                       "domain": [config.grid.lo, config.grid.hi]}}


class TestCheckpointHeaderEdits:
    """Any one scalar of a saved header replaced by any JSON scalar."""

    @pytest.fixture(scope="class")
    def saved(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(build_model(config_d(bands=8), seed=5), path)
        return path

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4),
        st.sampled_from([10 ** 9, 2 ** 63, 10 ** 400, -(10 ** 400)])))
    def test_load_is_rejected_or_unchanged(self, saved, data, value):
        blob = saved.read_bytes()
        (hlen,) = struct.unpack_from("<Q", blob, 8)
        header, body = json.loads(blob[16:16 + hlen]), blob[16 + hlen:]
        where = data.draw(st.sampled_from(scalar_paths(header)))
        edited = json.loads(json.dumps(header))
        node = edited
        for key in where[:-1]:
            node = node[key]
        node[where[-1]] = value
        text = json.dumps(edited).encode()
        ckpt = saved.with_name("edited.ckpt")
        ckpt.write_bytes(blob[:8] + struct.pack("<Q", len(text)) + text + body)
        try:
            loaded = load_checkpoint(ckpt)
        except DataError:
            return
        assert b"".join(a.astype("<f8").tobytes() for a in loaded.parameters()) == body
        # The spline domain shapes no tensor, so only a checksum could
        # catch an edit there; every other scalar must read back as saved.
        assert config_fields(loaded.config) == edited["config"]
        if where[:3] != ("config", "spline", "domain"):
            assert config_fields(loaded.config) == header["config"]
