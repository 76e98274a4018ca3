import tracemalloc
import warnings

import numpy as np
import pytest

from spectralkan import (DenseLayer, FullKanLayer, SharedKanLayer, SplineGrid,
                         init_params)
from spectralkan.errors import ContractError, DomainError
from spectralkan.layers import _param_shapes, _row_invariant_matmul, sigmoid

from oracles import fd_loss_grads, max_rel_err

GRID = SplineGrid()


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


def traced_peak(run) -> int:
    """``tracemalloc`` peak, in bytes, of one call of ``run``."""
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestSharedForwardMemory:
    def test_prediction_peak_is_a_few_inputs(self):
        # A spatial layer's 9,920 band rows of 25 inputs: 3.3x with the
        # pp-form evaluator (act in the sigmoid's buffer, the spline values
        # and the two products); 4.3x while sig stayed beside act, and
        # 12.3x when the dense (9920, 25, 8) basis alone took 8x.
        layer = init_params("shared", 25, 16, grid=GRID, seed=0)
        x = np.random.default_rng(8).uniform(-1.3, 1.3, (9920, 25))
        peak = traced_peak(lambda: layer.forward(x, keep=False))
        assert peak <= 3.5 * x.nbytes


class TestBackwardMemory:
    @pytest.mark.parametrize("kind,d_in,d_out,bound", [("full", 16, 1, 8.0),
                                                       ("shared", 25, 16, 5.0)])
    def test_peak_is_a_few_inputs(self, kind, d_in, d_out, bound):
        # The spatial layers of kan-ss and spectral-kan over 9,920 band
        # rows. Basis tensors spanning the batch read 18.0x and 12.0x of the
        # inputs.
        assert self.backward_peak(kind, d_in, d_out) <= bound

    @pytest.mark.parametrize("kind,d_in,d_out,bound", [("full", 16, 1, 3.0),
                                                       ("shared", 25, 16, 3.1)])
    def test_peak_with_kernel_row_blocks(self, kind, d_in, d_out, bound):
        # Each basis (derivative) tensor covers one row block of
        # spline._BLOCK_INPUTS inputs, one kernel block: full 2.81x and
        # shared 3.00x, against 6.90x and 3.66x with 2 MiB row blocks.
        assert self.backward_peak(kind, d_in, d_out) <= bound

    def test_shared_peak_with_one_pass_over_row_blocks(self):
        # The shared backward walks its row blocks once and holds no
        # whole-batch spline slopes: 3.66x, against 4.0x with them.
        assert self.backward_peak("shared", 25, 16) <= 3.9

    @staticmethod
    def backward_peak(kind, d_in, d_out):
        """Backward's traced peak over 9,920 rows, in units of ``x.nbytes``."""
        layer = init_params(kind, d_in, d_out, grid=GRID, seed=0)
        rng = np.random.default_rng(9)
        x = rng.uniform(-1.3, 1.3, (9920, d_in))
        g = rng.standard_normal((9920, d_out))
        _, cache = layer.forward(x)
        return traced_peak(lambda: layer.backward(cache, g)) / x.nbytes


class TestFullRowInvariance:
    """A row's full-layer output does not depend on its batch."""

    @pytest.mark.parametrize("d_in,d_out", [(3875, 16), (25, 16), (16, 1)],
                             ids=["kan-first", "kan-ss-spatial", "kan-ss-last"])
    def test_row_bits_equal_at_every_batch_size_and_position(self, d_in, d_out):
        layer = init_params("full", d_in, d_out, grid=GRID, seed=d_in)
        x = np.random.default_rng(d_out).uniform(-1.3, 1.3, (33, d_in))
        alone = np.concatenate([layer.forward(x[i:i + 1], keep=False)[0]
                                for i in range(len(x))])
        for n in range(1, len(x) + 1):
            # Distinct rows, each at its own position, then the first row
            # at every position of a batch of n.
            out, _ = layer.forward(x[:n], keep=False)
            np.testing.assert_array_equal(out.view(np.uint64),
                                          alone[:n].view(np.uint64))
            out, _ = layer.forward(np.repeat(x[:1], n, axis=0), keep=False)
            np.testing.assert_array_equal(
                out.view(np.uint64), np.repeat(alone[:1], n, axis=0).view(np.uint64))


class TestChunkedRowInvariantMatmul:
    """The product runs in column chunks of a fixed width, so a row's bits
    still do not depend on its batch."""

    @pytest.mark.parametrize("width", [1, 4095, 4096, 4097, 31000])
    def test_row_alone_matches_row_in_batch(self, width):
        rng = np.random.default_rng(width)
        a = rng.uniform(-1.0, 1.0, (9, width))
        # Laid out as the full layer's ``weighted.T``.
        b = rng.uniform(-1.0, 1.0, (16, width)).T
        whole = _row_invariant_matmul(a, b)
        for i in range(len(a)):
            alone = _row_invariant_matmul(a[i:i + 1], b)
            assert alone.tobytes() == whole[i:i + 1].tobytes()
        want = a @ b
        assert np.abs(whole - want).max() <= 1e-14 * np.abs(want).max()


class TestPreparedOperand:
    """A forward given its layer's ``prepare()`` result matches one that
    prepares its own, bit for bit."""

    @pytest.mark.parametrize("kind", ["full", "shared", "dense"])
    def test_prepared_forward_is_bit_identical(self, kind):
        layer = init_params(kind, 30, 7, grid=GRID, seed=4)
        x = np.random.default_rng(5).uniform(-1.3, 1.3, (11, 30))
        for keep in (True, False):
            own, _ = layer.forward(x, keep=keep)
            given, _ = layer.forward(x, keep=keep, prepared=layer.prepare())
            assert given.tobytes() == own.tobytes()

    @pytest.mark.parametrize("kind", ["full", "shared"])
    def test_rejects_operand_of_another_layer_shape(self, kind):
        layer = init_params(kind, 30, 7, grid=GRID, seed=4)
        x = np.zeros((2, 30))
        for other in (init_params(kind, 31, 7, grid=GRID),
                      init_params(kind, 30, 7, grid=SplineGrid(2, 5))):
            with pytest.raises(ContractError, match="prepared operand"):
                layer.forward(x, prepared=other.prepare())

    def test_dense_layer_takes_no_operand(self):
        layer = init_params("dense", 30, 7, seed=4)
        assert layer.prepare() is None
        with pytest.raises(ContractError, match="prepared operand"):
            layer.forward(np.zeros((2, 30)), prepared=np.zeros((7, 30)))


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


class TestInputGrad:
    @pytest.mark.parametrize("kind,activate", [("full", True), ("shared", True),
                                               ("dense", True), ("dense", False)])
    def test_skipping_it_keeps_parameter_grads(self, kind, activate):
        layer = init_params(kind, 5, 3, grid=GRID, seed=31, activate=activate)
        rng = np.random.default_rng(8)
        x = rng.uniform(-1.2, 1.2, (7, 5))
        g = rng.standard_normal((7, 3))
        _, cache = layer.forward(x)
        grad_in, grads = layer.backward(cache, g)
        skipped, kept = layer.backward(cache, g, input_grad=False)
        assert grad_in.shape == x.shape and skipped is None
        assert len(kept) == len(grads)
        assert all(np.array_equal(a, b) for a, b in zip(kept, grads))

    @pytest.mark.parametrize("input_grad", [True, False])
    def test_full_layer_backward_of_empty_batch(self, input_grad):
        layer = init_params("full", 5, 3, grid=GRID, seed=2)
        _, cache = layer.forward(np.zeros((0, 5)))
        grad_in, grads = layer.backward(cache, np.zeros((0, 3)),
                                        input_grad=input_grad)
        if input_grad:
            assert grad_in.shape == (0, 5)
        else:
            assert grad_in is None
        assert [g.shape for g in grads] == [p.shape for p in layer.params()]
        assert all(np.all(g == 0.0) for g in grads)

    @pytest.mark.parametrize("n,d_in,d_out", [(64, 3875, 16), (9920, 25, 16)])
    def test_full_coeff_grad_matches_einsum(self, n, d_in, d_out):
        # The kan layer at p=5, b=155 and kan-ss's spatial layer at 64 patches.
        layer = init_params("full", d_in, d_out, grid=GRID, seed=4)
        rng = np.random.default_rng(n)
        x = rng.uniform(-1.2, 1.2, (n, d_in))
        g = rng.standard_normal((n, d_out))
        _, cache = layer.forward(x)
        _, (_, grad_scale, grad_coeff) = layer.backward(cache, g,
                                                        input_grad=False)
        gb = np.einsum("nj,nit->jit", g, cache.basis)
        for got, want in ((grad_coeff, layer.spline_scale[..., None] * gb),
                          (grad_scale, np.sum(gb * layer.spline_coeff, axis=-1))):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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

    @pytest.mark.parametrize("build,name", [
        (lambda z: FullKanLayer(z(2, 3), z(2, 4), z(2, 3, 8), GRID), "spline_scale"),
        (lambda z: FullKanLayer(z(2, 3), z(2, 3), z(2, 3, 7), GRID), "spline_coeff"),
        (lambda z: SharedKanLayer(z(2, 3), z(3, 2), z(3, 8), GRID), "spline_scale"),
        (lambda z: SharedKanLayer(z(2, 3), z(2, 3), z(2, 8), GRID), "spline_coeff"),
        (lambda z: DenseLayer(z(2, 3), z(3)), "bias"),
    ], ids=["full-scale", "full-coeff", "shared-scale", "shared-coeff", "dense-bias"])
    def test_rejects_mis_shaped_tensor(self, build, name):
        with pytest.raises(ContractError, match=f"^{name} shape mismatch$"):
            build(lambda *shape: np.zeros(shape))

    @pytest.mark.parametrize("kind,d_in,d_out", [
        ("dense", 2, 2 ** 60), ("full", 2 ** 30, 2 ** 30), ("shared", 2 ** 60, 1),
        ("shared", 10 ** 20, 2)])
    def test_rejects_shapes_no_array_can_hold(self, kind, d_in, d_out):
        # A float64 tensor of more than np.intp's maximum in bytes.
        with pytest.raises(ContractError, match="larger than any array holds"):
            _param_shapes(kind, d_in, d_out, GRID.basis_count)

    def test_largest_tensor_numpy_can_hold_is_accepted(self):
        limit = np.iinfo(np.intp).max // 8
        shapes = _param_shapes("dense", limit, 1, 0)
        assert shapes == ((1, limit), (1,))
        assert np.broadcast_to(0.0, shapes[0]).nbytes == limit * 8


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
