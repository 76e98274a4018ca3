"""Learnable layers with hand-derived backward passes.

Three layer kinds:

* ``FullKanLayer`` - every edge carries its own activation
  ``base_weight * silu(x) + spline_scale * spline(x)`` with a private
  coefficient vector per edge.
* ``SharedKanLayer`` - all edges leaving an input node share one SiLU and
  one spline; edges differ only in the two scalar weights. SiLU and basis
  values are therefore computed once per input element.
* ``DenseLayer`` - affine map with optional SiLU, the baseline.

Forward returns ``(outputs, cache)``; ``backward`` consumes the cache and
an upstream gradient and returns the input gradient plus one gradient per
parameter tensor, in ``params()`` order, whose names ``param_names``
lists. ``forward(x, keep=False)`` returns ``(outputs, None)`` and keeps
nothing for a backward pass, so prediction frees each layer's
intermediates as soon as the layer is done. A layer's parameter count is
the total size of its ``params()``. FLOP counts follow a fixed cost
convention: SiLU costs 4, a spline evaluation 96, and each weight
multiplication 1, per scalar input element.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ContractError, DomainError
from .spline import SplineGrid, basis_derivatives, basis_values, make_grid

KINDS = ("full", "shared", "dense")


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
    act: Optional[np.ndarray] = None
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


class _KanLayer:
    """Constructor and parameter list of the two KAN layer kinds, which
    differ only in the shape of ``spline_coeff``."""

    param_names = ("base_weight", "spline_scale", "spline_coeff")

    def __init__(self, base_weight, spline_scale, spline_coeff, grid: SplineGrid):
        self.base_weight = np.asarray(base_weight, dtype=np.float64)
        self.spline_scale = np.asarray(spline_scale, dtype=np.float64)
        self.spline_coeff = np.asarray(spline_coeff, dtype=np.float64)
        self.grid = grid
        d_out, d_in = self.base_weight.shape
        if self.spline_scale.shape != (d_out, d_in):
            raise ContractError("spline_scale shape mismatch")
        if self.spline_coeff.shape != self._coeff_shape(d_out, d_in,
                                                        grid.basis_count):
            raise ContractError("spline_coeff shape mismatch")
        self.d_out, self.d_in = d_out, d_in

    def params(self) -> list[np.ndarray]:
        return [self.base_weight, self.spline_scale, self.spline_coeff]


class FullKanLayer(_KanLayer):
    """KAN layer with an independent activation on every edge."""

    kind = "full"

    @staticmethod
    def _coeff_shape(d_out: int, d_in: int, basis_count: int) -> tuple:
        return (d_out, d_in, basis_count)

    def flop_count(self) -> int:
        return 102 * self.d_in * self.d_out

    def forward(self, inputs, keep: bool = True
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        sig = sigmoid(x)
        act = x * sig
        basis = basis_values(self.grid, x)  # (batch, d_in, S)
        weighted = self.spline_scale[..., None] * self.spline_coeff
        out = act @ self.base_weight.T + np.einsum("nit,jit->nj", basis, weighted)
        if not keep:
            return out, None
        return out, LayerCache(self, x, sig=sig, act=act, basis=basis)

    def backward(self, cache: LayerCache, grad_out):
        g = _check_cache(self, cache, grad_out)
        x, sig, act, basis = cache.inputs, cache.sig, cache.act, cache.basis
        grad_base = g.T @ act
        # Shared contraction over the batch for both spline gradients.
        gb = np.einsum("nj,nit->jit", g, basis)
        grad_scale = np.sum(gb * self.spline_coeff, axis=-1)
        grad_coeff = self.spline_scale[..., None] * gb
        dbasis = basis_derivatives(self.grid, x)
        weighted = self.spline_scale[..., None] * self.spline_coeff
        spline_dx = np.einsum("nj,jit->nit", g, weighted)
        grad_in = (g @ self.base_weight) * _silu_grad(x, sig)
        grad_in += np.sum(spline_dx * dbasis, axis=-1)
        return grad_in, [grad_base, grad_scale, grad_coeff]


class SharedKanLayer(_KanLayer):
    """KAN layer whose edges share one SiLU and one spline per input node."""

    kind = "shared"

    @staticmethod
    def _coeff_shape(d_out: int, d_in: int, basis_count: int) -> tuple:
        return (d_in, basis_count)

    def flop_count(self) -> int:
        return 100 * self.d_in + 2 * self.d_in * self.d_out

    def forward(self, inputs, keep: bool = True
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        sig = sigmoid(x)
        act = x * sig
        basis = basis_values(self.grid, x)
        spline_vals = np.einsum("nit,it->ni", basis, self.spline_coeff)
        out = act @ self.base_weight.T + spline_vals @ self.spline_scale.T
        if not keep:
            return out, None
        return out, LayerCache(self, x, sig=sig, act=act, basis=basis,
                               spline_vals=spline_vals)

    def backward(self, cache: LayerCache, grad_out):
        g = _check_cache(self, cache, grad_out)
        x, sig, act = cache.inputs, cache.sig, cache.act
        grad_base = g.T @ act
        grad_scale = g.T @ cache.spline_vals
        # Every outgoing edge contributes to the one shared coefficient row.
        gs = g @ self.spline_scale  # (batch, d_in)
        grad_coeff = np.einsum("ni,nit->it", gs, cache.basis)
        dbasis = basis_derivatives(self.grid, x)
        dspline = np.einsum("nit,it->ni", dbasis, self.spline_coeff)
        grad_in = (g @ self.base_weight) * _silu_grad(x, sig) + gs * dspline
        return grad_in, [grad_base, grad_scale, grad_coeff]


class DenseLayer:
    """Affine layer with optional SiLU activation."""

    kind = "dense"
    param_names = ("weight", "bias")

    def __init__(self, weight, bias, activate: bool = True):
        self.weight = np.asarray(weight, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        self.activate = bool(activate)
        d_out, d_in = self.weight.shape
        if self.bias.shape != (d_out,):
            raise ContractError("bias shape mismatch")
        self.d_out, self.d_in = d_out, d_in

    def params(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def flop_count(self) -> int:
        return 2 * self.d_in * self.d_out + self.d_out

    def forward(self, inputs, keep: bool = True
                ) -> tuple[np.ndarray, Optional[LayerCache]]:
        x = _check_inputs(self, inputs)
        z = x @ self.weight.T
        z += self.bias
        if not self.activate:
            return z, LayerCache(self, x, pre_act=z) if keep else None
        sig = sigmoid(z)
        if not keep:
            z *= sig
            return z, None
        return z * sig, LayerCache(self, x, sig=sig, pre_act=z)

    def backward(self, cache: LayerCache, grad_out):
        g = _check_cache(self, cache, grad_out)
        if self.activate:
            g = g * _silu_grad(cache.pre_act, cache.sig)
        grad_w = g.T @ cache.inputs
        grad_b = g.sum(axis=0)
        return g @ self.weight, [grad_w, grad_b]


def init_params(kind: str, d_in: int, d_out: int,
                grid: Optional[SplineGrid] = None, seed=0, activate: bool = True):
    """Create a layer of the given kind with Kaiming-uniform parameters.

    All weight tensors (and spline coefficients) are drawn uniformly on
    ``+/- sqrt(6 / d_in)``; dense biases start at zero. ``seed`` may be an
    integer or a ``numpy.random.Generator``, and identical seeds give
    bit-identical layers.
    """
    if kind not in KINDS:
        raise ContractError(f"unknown layer kind {kind!r}")
    if d_in < 1 or d_out < 1:
        raise ContractError(f"layer dimensions must be positive, got {d_in}x{d_out}")
    rng = np.random.default_rng(seed)
    bound = np.sqrt(6.0 / d_in)

    def draw(*shape):
        return rng.uniform(-bound, bound, size=shape)

    if kind == "dense":
        return DenseLayer(draw(d_out, d_in), np.zeros(d_out), activate=activate)
    if grid is None:
        grid = make_grid()
    cls = FullKanLayer if kind == "full" else SharedKanLayer
    return cls(draw(d_out, d_in), draw(d_out, d_in),
               draw(*cls._coeff_shape(d_out, d_in, grid.basis_count)), grid)
