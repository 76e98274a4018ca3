import json
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralkan import (DenseLayer, FullKanLayer, Model, ModelConfig,
                         SharedKanLayer, Variant, build_model,
                         load_checkpoint, save_checkpoint)
from spectralkan.errors import (ContractError, DataError, DomainError,
                                MalformedHeaderError, TruncatedPayloadError)

from oracles import eval_model_scalar


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
