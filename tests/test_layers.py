import tracemalloc
import warnings

import numpy as np
import pytest

from spectralkan import (FullKanLayer, SharedKanLayer, init_params,
                         make_grid)
from spectralkan.errors import ContractError, DomainError
from spectralkan.layers import sigmoid

from oracles import fd_loss_grads, max_rel_err

GRID = make_grid()


def shared_as_full(layer: SharedKanLayer) -> FullKanLayer:
    """Duplicate the shared coefficient rows across all outgoing edges."""
    coeff = np.broadcast_to(layer.spline_coeff,
                            (layer.d_out,) + layer.spline_coeff.shape).copy()
    return FullKanLayer(layer.base_weight.copy(), layer.spline_scale.copy(),
                        coeff, layer.grid)


class TestForward:
    def test_zero_shared_layer_outputs_zero(self):
        layer = SharedKanLayer(np.zeros((3, 4)), np.zeros((3, 4)),
                               np.zeros((4, 8)), GRID)
        x = np.random.default_rng(0).uniform(-1, 1, (6, 4))
        out, _ = layer.forward(x)
        assert np.all(out == 0.0)

    def test_full_layer_reduces_to_summed_silu(self):
        d_in, d_out = 4, 3
        layer = FullKanLayer(np.ones((d_out, d_in)), np.zeros((d_out, d_in)),
                             np.zeros((d_out, d_in, 8)), GRID)
        x = np.random.default_rng(1).uniform(-1, 1, (5, d_in))
        out, _ = layer.forward(x)
        silu = x / (1.0 + np.exp(-x))
        expected = silu.sum(axis=1, keepdims=True).repeat(d_out, axis=1)
        assert np.abs(out - expected).max() <= 1e-12

    @pytest.mark.parametrize("shape", [(3, 2), (7, 5), (1, 9)])
    def test_shared_equals_duplicated_full(self, shape):
        d_in, d_out = shape
        layer = init_params("shared", d_in, d_out, grid=GRID, seed=hash(shape) % 1000)
        full = shared_as_full(layer)
        x = np.random.default_rng(3).uniform(-1.2, 1.2, (20, d_in))
        out_s, _ = layer.forward(x)
        out_f, _ = full.forward(x)
        assert np.abs(out_s - out_f).max() <= 1e-12

    def test_doubling_base_weight_doubles_output(self):
        layer = init_params("full", 4, 3, grid=GRID, seed=9)
        layer.spline_scale[:] = 0.0
        x = np.random.default_rng(4).uniform(-1, 1, (8, 4))
        out1, _ = layer.forward(x)
        layer.base_weight *= 2.0
        out2, _ = layer.forward(x)
        assert np.abs(out2 - 2.0 * out1).max() <= 1e-12

    def test_rejects_bad_shapes_and_values(self):
        layer = init_params("dense", 4, 2, seed=0)
        with pytest.raises(ContractError):
            layer.forward(np.zeros((3, 5)))
        with pytest.raises(DomainError):
            layer.forward(np.array([[0.0, np.nan, 0.0, 0.0]]))

    def test_huge_finite_input_gives_finite_output(self):
        layer = init_params("shared", 3, 2, grid=GRID, seed=0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = layer.forward(np.array([[1e308, 0.0, 0.0]]))
        assert np.all(np.isfinite(out))


def two_branch_sigmoid(x):
    """1 / (1 + exp(-x)) for x >= 0 and exp(x) / (1 + exp(x)) below."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


class TestSigmoid:
    def test_bitwise_equal_to_two_branch_formula(self):
        edges = np.array([0.0, 5e-324, 1e-300, 40.0, 710.0, 745.0, 800.0])
        x = np.concatenate([edges, -edges,
                            np.random.default_rng(6).normal(0, 20, 1000)])
        assert np.array_equal(sigmoid(x).view(np.uint64),
                              two_branch_sigmoid(x).view(np.uint64))

    def test_peak_memory_within_two_and_a_half_inputs(self):
        x = np.random.default_rng(7).normal(0, 3, (1200, 25))
        tracemalloc.start()
        try:
            sigmoid(x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * x.nbytes


class TestBackward:
    @pytest.mark.parametrize("kind", ["full", "shared", "dense"])
    def test_zero_upstream_gives_zero_grads(self, kind):
        layer = init_params(kind, 3, 2, grid=GRID, seed=5)
        x = np.random.default_rng(5).uniform(-1, 1, (4, 3))
        _, cache = layer.forward(x)
        grad_in, grads = layer.backward(cache, np.zeros((4, 2)))
        assert np.all(grad_in == 0.0)
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("kind", ["full", "shared", "dense"])
    def test_gradients_match_finite_differences(self, kind):
        rng = np.random.default_rng(6)
        layer = init_params(kind, 3, 2, grid=GRID, seed=17)
        x = rng.uniform(-0.9, 0.9, (4, 3))
        proj = rng.standard_normal((4, 2))

        def loss():
            return float((layer.forward(x)[0] * proj).sum())

        _, cache = layer.forward(x)
        grad_in, grads = layer.backward(cache, proj)
        fd_params = fd_loss_grads(loss, layer.params())
        assert max_rel_err(grads, fd_params) <= 1e-5
        fd_inputs = fd_loss_grads(loss, [x])
        assert max_rel_err([grad_in], fd_inputs) <= 1e-5

    def test_shared_coeff_grad_sums_full_grads(self):
        layer = init_params("shared", 4, 3, grid=GRID, seed=23)
        full = shared_as_full(layer)
        rng = np.random.default_rng(7)
        x = rng.uniform(-1, 1, (6, 4))
        proj = rng.standard_normal((6, 3))
        _, cache_s = layer.forward(x)
        _, grads_s = layer.backward(cache_s, proj)
        _, cache_f = full.forward(x)
        _, grads_f = full.backward(cache_f, proj)
        assert np.abs(grads_s[2] - grads_f[2].sum(axis=0)).max() <= 1e-12

    def test_rejects_foreign_cache(self):
        a = init_params("dense", 3, 2, seed=1)
        b = init_params("dense", 3, 2, seed=2)
        x = np.zeros((4, 3))
        _, cache = a.forward(x)
        with pytest.raises(ContractError):
            b.backward(cache, np.zeros((4, 2)))

    def test_rejects_mismatched_upstream(self):
        layer = init_params("dense", 3, 2, seed=1)
        _, cache = layer.forward(np.zeros((4, 3)))
        with pytest.raises(ContractError):
            layer.backward(cache, np.zeros((5, 2)))


class TestInit:
    def test_same_seed_bit_identical(self):
        a = init_params("full", 5, 4, grid=GRID, seed=42)
        b = init_params("full", 5, 4, grid=GRID, seed=42)
        for pa, pb in zip(a.params(), b.params()):
            assert np.array_equal(pa, pb)

    def test_seeds_differ(self):
        a = init_params("shared", 5, 4, grid=GRID, seed=1)
        b = init_params("shared", 5, 4, grid=GRID, seed=2)
        assert not np.array_equal(a.base_weight, b.base_weight)

    def test_kaiming_bound_for_25_inputs(self):
        bound = np.sqrt(6.0 / 25.0)
        layer = init_params("full", 25, 16, grid=GRID, seed=3)
        for p in layer.params():
            assert np.abs(p).max() <= bound
        assert abs(bound - 0.4899) <= 1e-4

    def test_dense_bias_starts_at_zero(self):
        layer = init_params("dense", 7, 3, seed=11)
        assert np.all(layer.bias == 0.0)

    def test_rejects_zero_dimension(self):
        with pytest.raises(ContractError):
            init_params("dense", 0, 3, seed=0)
        with pytest.raises(ContractError):
            init_params("full", 3, 0, grid=GRID, seed=0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ContractError):
            init_params("conv", 3, 3, seed=0)


def param_count(layer) -> int:
    return sum(p.size for p in layer.params())


class TestAccounting:
    def test_full_stack_counts(self):
        stack = [init_params("full", 3875, 16, grid=GRID, seed=0),
                 init_params("full", 16, 2, grid=GRID, seed=0)]
        assert sum(param_count(l) for l in stack) == 620_320

    def test_shared_stack_counts(self):
        stack = [init_params("shared", 3875, 16, grid=GRID, seed=0),
                 init_params("shared", 16, 2, grid=GRID, seed=0)]
        assert sum(param_count(l) for l in stack) == 155_192

    def test_dense_stack_counts(self):
        # d_in*d_out + d_out per layer.
        stack = [init_params("dense", 3875, 16, seed=0),
                 init_params("dense", 16, 2, seed=0)]
        assert sum(param_count(l) for l in stack) == 62_050

    @pytest.mark.parametrize("d_in,d_out",
                             [(1, 1), (3, 2), (25, 16), (155, 16), (7, 1)])
    def test_per_layer_count_rules(self, d_in, d_out):
        s = GRID.basis_count
        expected = {"full": (2 + s) * d_in * d_out,
                    "shared": 2 * d_in * d_out + s * d_in,
                    "dense": d_in * d_out + d_out}
        for kind, count in expected.items():
            layer = init_params(kind, d_in, d_out, grid=GRID, seed=0)
            assert param_count(layer) == count

    def test_shared_small_layer(self):
        layer = init_params("shared", 25, 16, grid=GRID, seed=0)
        assert param_count(layer) == 1_000
        assert layer.flop_count() == 3_300

    def test_single_edge_flops(self):
        layer = init_params("full", 1, 1, grid=GRID, seed=0)
        assert layer.flop_count() == 102

    @pytest.mark.parametrize("d_in,d_out", [(3, 2), (25, 16), (155, 16), (7, 1)])
    def test_full_vs_shared_flop_difference(self, d_in, d_out):
        full = init_params("full", d_in, d_out, grid=GRID, seed=0)
        shared = init_params("shared", d_in, d_out, grid=GRID, seed=0)
        assert full.flop_count() - shared.flop_count() == 100 * d_in * (d_out - 1)

    def test_counts_ignore_parameter_values(self):
        layer = init_params("shared", 6, 5, grid=GRID, seed=0)
        before = (param_count(layer), layer.flop_count())
        layer.base_weight[:] = 123.0
        assert (param_count(layer), layer.flop_count()) == before
