"""Learnable layers with hand-derived backward passes.

Three layer kinds:

* ``FullKanLayer`` - every edge carries its own activation
  ``base_weight * silu(x) + spline_scale * spline(x)`` with a private
  coefficient vector per edge.
* ``SharedKanLayer`` - all edges leaving an input node share one SiLU and
  one spline; edges differ only in the two scalar weights. SiLU and spline
  are therefore evaluated once per input element, the spline in
  piecewise-polynomial form with no basis tensor (``spline._pp_spline``).
  Only backward builds the dense basis and its derivatives, for the
  coefficient and input gradients, both in one pass over its row blocks.
* ``DenseLayer`` - affine map with optional SiLU, the baseline.

Forward returns ``(outputs, cache)``; ``backward`` consumes the cache and
an upstream gradient and returns the input gradient plus one gradient per
parameter tensor, in ``params()`` order, whose names ``param_names``
lists. ``backward(cache, g, input_grad=False)`` returns ``None`` in place
of the input gradient and skips the work only it needs (the basis
derivatives, the SiLU derivative and the products with the weights); the
parameter gradients are the same either way. A model's first layer runs
so, since nothing reads the gradient of the input data.
``forward(x, keep=False)`` returns ``(outputs, None)`` and keeps nothing
for a backward pass, so prediction frees each layer's intermediates as
soon as the layer is done. ``_param_shapes`` states each kind's parameter
shapes, which every constructor checks, and rejects a shape that no numpy
array can hold; a layer's parameter count is the total size of its
``params()``. FLOP counts follow a fixed cost convention: SiLU costs 4, a
spline evaluation 96, and each weight multiplication 1, per scalar input
element.

``FullKanLayer.forward`` forms both of its products, the SiLU path and
the spline contraction over the flattened ``(d_in, basis)`` axis, as one
identical BLAS call per batch row (``_row_invariant_matmul``). A plain
``batch @ W.T`` goes through a kernel whose rounding of a row depends on
the batch size and the row's position, so a pixel's logits would move
with the prediction batch it lands in; the per-row call keeps every row's
bits fixed. A product wider than ``_CHUNK_COLUMNS`` (4,096) columns runs
in consecutive column chunks whose partial products add up in chunk
order, so that one chunk of the weights (512 KiB at 16 outputs) stays in
a 2 MiB L2 cache from one row to the next instead of being read from
memory once per row. The other layers still use the plain products.

A KAN layer's ``prepare()`` returns the operand its forward derives from
the parameters alone: the full layer's ``weighted = spline_scale *
spline_coeff`` as a ``(d_out, d_in * basis_count)`` array, the shared
layer's pp-form table (``spline._pp_table``); a dense layer has none.
``forward(x, keep, prepared)`` uses a given operand and otherwise
prepares its own, so a caller that runs many batches through unchanged
parameters, as prediction does, prepares once. The parameters must not
change between ``prepare()`` and the forwards that use its result. A
cache holds only per-batch arrays: the full layer's backward prepares
``weighted`` again, and only when it builds the input gradient.

No cache holds the SiLU output ``x * sig``, which backward forms again
with the same bits, nor a basis tensor except the full layer's, which its
forward output needs anyway. Backward builds each basis tensor it needs
per block of ``spline._row_blocks``, the pp-form forward's blocks, so one
basis call is one kernel block (512 KiB at the default grid), and adds
the blocks' coefficient gradients in row order. A shared layer's input
gradient has the same bits for any block plan; OpenBLAS may round a row
of the full layer's ``g @ weighted`` by the height of its block.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError, _MAX_ARRAY_BYTES
from .spline import (SplineGrid, _pp_spline, _pp_table, _row_blocks,
                     basis_derivatives, basis_values)

# Contraction columns per chunk of ``_row_invariant_matmul``. A constant, so
# that a row's sum does not depend on its batch.
_CHUNK_COLUMNS = 4096


def sigmoid(x: np.ndarray) -> np.ndarray:
    # 1 / (1 + e) for x >= 0 and e / (1 + e) below, with e = exp(-|x|) so
    # that exp never overflows; computed in place to keep one extra buffer.
    # Since e <= 1, max(e, x >= 0) picks the numerator without a masked
    # copy, whose cost would depend on the sign pattern.
    e = np.abs(x)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, x >= 0, out=e)
    np.divide(e, d, out=e)
    return e


def _silu_grad(x: np.ndarray, sig: np.ndarray) -> np.ndarray:
    # d/dx x*sigmoid(x) = sigmoid(x) * (1 + x * (1 - sigmoid(x)))
    return sig * (1.0 + x * (1.0 - sig))


@dataclass
class LayerCache:
    """Per-batch intermediates retained for the backward pass."""

    layer: object
    inputs: np.ndarray
    sig: Optional[np.ndarray] = None
    basis: Optional[np.ndarray] = None
    spline_vals: Optional[np.ndarray] = None
    pre_act: Optional[np.ndarray] = None


def _check_inputs(layer, x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != layer.d_in:
        raise ContractError(
            f"expected inputs of shape (batch, {layer.d_in}), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise DomainError("layer inputs must be finite")
    return x


def _check_cache(layer, cache: LayerCache, grad_out) -> np.ndarray:
    if cache.layer is not layer:
        raise ContractError("cache was produced by a different layer")
    grad_out = np.asarray(grad_out, dtype=np.float64)
    expected = (cache.inputs.shape[0], layer.d_out)
    if grad_out.shape != expected:
        raise ContractError(
            f"expected upstream gradient of shape {expected}, got {grad_out.shape}")
    return grad_out


def _check_prepared(layer, prepared, shape: tuple):
    """``prepared`` if it has the shape of ``layer``'s operand, else a
    fresh ``layer.prepare()`` when it is ``None``."""
    if prepared is None:
        return layer.prepare()
    if np.shape(prepared) != shape:
        raise ContractError(f"expected a prepared operand of shape {shape}, "
                            f"got {np.shape(prepared)}")
    return prepared


def _row_invariant_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``a @ b`` for a 2-D ``a``, computed as one identical BLAS product
    per row of ``a`` and chunk of ``_CHUNK_COLUMNS`` contraction columns,
    the chunks' partial products added in order, so a row's result does
    not depend on where it sits in the batch or on how many rows there
    are."""
    rows = a.reshape(a.shape[0], 1, a.shape[1])
    out = np.matmul(rows[..., :_CHUNK_COLUMNS], b[:_CHUNK_COLUMNS])[:, 0]
    for start in range(_CHUNK_COLUMNS, a.shape[1], _CHUNK_COLUMNS):
        cols = slice(start, start + _CHUNK_COLUMNS)
        out += np.matmul(rows[..., cols], b[cols])[:, 0]
    return out


class _KanLayer:
    """Constructor and parameter list of the two KAN layer kinds, which
    differ only in the shape of ``spline_coeff``."""

    param_names = ("base_weight", "spline_scale", "spline_coeff")

    def __init__(self, base_weight, spline_scale, spline_coeff, grid: SplineGrid):
        self.grid = grid
        _set_params(self, [base_weight, spline_scale, spline_coeff],
                    grid.basis_count)

    def params(self) -> list[np.ndarray]:
        return [self.base_weight, self.spline_scale, self.spline_coeff]


class FullKanLayer(_KanLayer):
    """KAN layer with an independent activation on every edge.

    A training forward caches the dense basis its output contracts, and
    backward reuses it for the coefficient gradient; the basis derivatives
    and the spline slopes ``g @ weighted`` are built one row block of
    ``spline._row_blocks`` at a time.
    """

    kind = "full"

    def flop_count(self) -> int:
        return 102 * self.d_in * self.d_out

    def prepare(self) -> np.ndarray:
        """``spline_scale * spline_coeff`` as a C-contiguous
        ``(d_out, d_in * basis_count)`` array."""
        return (self.spline_scale[..., None] * self.spline_coeff
                ).reshape(self.d_out, self.d_in * self.grid.basis_count)

    def forward(self, inputs, keep: bool = True, prepared=None
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        # The width is explicit so that an empty batch reshapes too.
        width = self.d_in * self.grid.basis_count
        weighted = _check_prepared(self, prepared, (self.d_out, width))
        sig = sigmoid(x)
        # Nothing cached: the product takes the sigmoid's buffer.
        act = x * sig if keep else np.multiply(x, sig, out=sig)
        basis = basis_values(self.grid, x)  # (batch, d_in, S)
        out = _row_invariant_matmul(act, self.base_weight.T)
        out += _row_invariant_matmul(basis.reshape(x.shape[0], width),
                                     weighted.T)
        if not keep:
            return out, None
        return out, LayerCache(self, x, sig=sig, basis=basis)

    def backward(self, cache: LayerCache, grad_out, input_grad: bool = True):
        g = _check_cache(self, cache, grad_out)
        x, sig, basis = cache.inputs, cache.sig, cache.basis
        # The spline contractions are BLAS matmuls over the flattened
        # (d_in, basis) axis, its width explicit so n = 0 reshapes too.
        n, width = basis.shape[0], self.d_in * self.grid.basis_count
        grad_base = g.T @ (x * sig)
        # One contraction over the batch serves both spline gradients.
        gb = (g.T @ basis.reshape(n, width)).reshape(self.spline_coeff.shape)
        grad_scale = np.sum(gb * self.spline_coeff, axis=-1)
        grad_coeff = self.spline_scale[..., None] * gb
        grads = [grad_base, grad_scale, grad_coeff]
        if not input_grad:
            return None, grads
        weighted = self.prepare()
        grad_in = (g @ self.base_weight) * _silu_grad(x, sig)
        # Each row's basis derivatives and spline slopes take one block.
        for rows in _row_blocks(n, self.d_in):
            dbasis = basis_derivatives(self.grid, x[rows])
            spline_dx = (g[rows] @ weighted).reshape(dbasis.shape)
            grad_in[rows] += np.einsum("nit,nit->ni", spline_dx, dbasis)
        return grad_in, grads


class SharedKanLayer(_KanLayer):
    """KAN layer whose edges share one SiLU and one spline per input node.

    ``forward`` evaluates each input's spline once, by the pp-form, for
    either value of ``keep``, so prediction and training logits have the
    same bits, and builds no basis tensor. A training forward caches the
    inputs, ``sig`` and the spline values; backward walks the forward's
    row blocks (``spline._row_blocks``) once, building each block's basis
    and, for the input gradient, its derivatives.
    """

    kind = "shared"

    def flop_count(self) -> int:
        return 100 * self.d_in + 2 * self.d_in * self.d_out

    def prepare(self) -> np.ndarray:
        """The pp-form table of the coefficients (``spline._pp_table``)."""
        return _pp_table(self.grid, self.spline_coeff)

    def forward(self, inputs, keep: bool = True, prepared=None
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        # One row per power, one column per input node and span (spans -1
        # and len(knots) - 1 included).
        table = _check_prepared(self, prepared, (
            self.grid.degree + 1, self.d_in * (len(self.grid.knots) + 1)))
        sig = sigmoid(x)
        # Nothing cached: the product takes the sigmoid's buffer.
        act = x * sig if keep else np.multiply(x, sig, out=sig)
        spline_vals = _pp_spline(self.grid, table, x)
        out = act @ self.base_weight.T + spline_vals @ self.spline_scale.T
        if not keep:
            return out, None
        return out, LayerCache(self, x, sig=sig, spline_vals=spline_vals)

    def backward(self, cache: LayerCache, grad_out, input_grad: bool = True):
        g = _check_cache(self, cache, grad_out)
        x, sig = cache.inputs, cache.sig
        grad_base = g.T @ (x * sig)
        grad_scale = g.T @ cache.spline_vals
        # Every outgoing edge contributes to the one shared coefficient row.
        gs = g @ self.spline_scale  # (batch, d_in)
        grad_coeff = np.zeros(self.spline_coeff.shape)
        grad_in = (g @ self.base_weight) * _silu_grad(x, sig) if input_grad else None
        # One pass builds each row block's derivatives and basis; the
        # blocks' coefficient gradients add up in row order. Derivatives go
        # first: the other order read 2 MB more peak RSS in ablation-b155,
        # whose jobs run under glibc's dynamic malloc thresholds.
        for rows in _row_blocks(x.shape[0], self.d_in):
            if input_grad:
                grad_in[rows] += gs[rows] * np.einsum(
                    "nit,it->ni", basis_derivatives(self.grid, x[rows]),
                    self.spline_coeff)
            grad_coeff += np.einsum("ni,nit->it", gs[rows],
                                    basis_values(self.grid, x[rows]))
        return grad_in, [grad_base, grad_scale, grad_coeff]


class DenseLayer:
    """Affine layer with optional SiLU activation."""

    kind = "dense"
    param_names = ("weight", "bias")

    def __init__(self, weight, bias, activate: bool = True):
        self.activate = bool(activate)
        _set_params(self, [weight, bias])

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def flop_count(self) -> int:
        return 2 * self.d_in * self.d_out + self.d_out

    def prepare(self) -> None:
        """A dense layer's forward reads its parameters as they are."""
        return None

    def forward(self, inputs, keep: bool = True, prepared=None
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        if prepared is not None:
            raise ContractError("a dense layer takes no prepared operand")
        z = x @ self.weight.T
        z += self.bias
        if not self.activate:
            return z, LayerCache(self, x, pre_act=z) if keep else None
        sig = sigmoid(z)
        if not keep:
            z *= sig
            return z, None
        return z * sig, LayerCache(self, x, sig=sig, pre_act=z)

    def backward(self, cache: LayerCache, grad_out, input_grad: bool = True):
        g = _check_cache(self, cache, grad_out)
        if self.activate:
            g = g * _silu_grad(cache.pre_act, cache.sig)
        grads = [g.T @ cache.inputs, g.sum(axis=0)]
        return (g @ self.weight if input_grad else None), grads


def _param_shapes(kind: str, d_in: int, d_out: int, basis_count: int) -> tuple:
    """Shapes of the ``params()`` of a ``kind`` layer, in order. A shape
    whose float64 bytes exceed ``_MAX_ARRAY_BYTES`` is a ``ContractError``."""
    if kind == "dense":
        shapes = (d_out, d_in), (d_out,)
    elif kind in ("full", "shared"):
        coeff = (d_out, d_in, basis_count) if kind == "full" else (d_in, basis_count)
        shapes = (d_out, d_in), (d_out, d_in), coeff
    else:
        raise ContractError(f"unknown layer kind {kind!r}")
    for shape in shapes:
        if math.prod(shape) * 8 > _MAX_ARRAY_BYTES:
            raise ContractError(f"a {d_in} -> {d_out} {kind} layer needs a "
                                f"{shape} tensor, larger than any array holds")
    return shapes


def _set_params(layer, params: list, basis_count: int = 0) -> None:
    """Store ``params`` as float64 under ``layer.param_names``; each must
    have its ``_param_shapes`` shape for the first one's ``(d_out, d_in)``."""
    params = [np.asarray(arr, dtype=np.float64) for arr in params]
    layer.d_out, layer.d_in = params[0].shape
    shapes = _param_shapes(layer.kind, layer.d_in, layer.d_out, basis_count)
    for name, arr, shape in zip(layer.param_names, params, shapes):
        if arr.shape != shape:
            raise ContractError(f"{name} shape mismatch")
        setattr(layer, name, arr)


def _layer(kind: str, d_in: int, d_out: int, activate: bool, grid: SplineGrid, fill):
    """The ``kind`` layer holding ``fill(shape)`` for each shape of
    ``_param_shapes``, called in ``params()`` order."""
    params = [fill(s) for s in _param_shapes(kind, d_in, d_out, grid.basis_count)]
    if kind == "dense":
        return DenseLayer(*params, activate=activate)
    return (FullKanLayer if kind == "full" else SharedKanLayer)(*params, grid)


def init_params(kind: str, d_in: int, d_out: int,
                grid: SplineGrid = SplineGrid(), seed=0, activate: bool = True):
    """Create a layer of the given kind with Kaiming-uniform parameters.

    All weight tensors (and spline coefficients) are drawn uniformly on
    ``+/- sqrt(6 / d_in)``; dense biases start at zero. ``seed`` may be an
    integer or a ``numpy.random.Generator``, and identical seeds give
    bit-identical layers.
    """
    if d_in < 1 or d_out < 1:
        raise ContractError(f"layer dimensions must be positive, got {d_in}x{d_out}")
    rng, bound = np.random.default_rng(seed), np.sqrt(6.0 / d_in)
    # A dense bias, the one 1-D parameter, starts at zero and takes no draw.
    return _layer(kind, d_in, d_out, activate, grid, lambda shape: (
        np.zeros(shape) if len(shape) == 1 else rng.uniform(-bound, bound, size=shape)))
