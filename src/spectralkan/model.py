"""Model assembly: variants, spatial-spectral composition, accounting.

A model is a spatial stack followed by a spectral stack, run in one pass
for every variant. Each band's flattened ``p*p`` window is a row (band
axis folded into the batch) for the spatial stack, whose one weight set,
shared by all bands, compresses it to a single value; the length-``b``
vector goes through the spectral stack to produce two logits. A flat
variant is one with an empty spatial stack, so its spectral stack sees
the band-major flattened ``p*p*b`` patch. ``Model.stacks()`` is the one
table of each stack's name, layers and rows per patch; FLOP totals,
checkpoint headers and the CLI read it. A parameter count is the total
size of the parameter tensors.

Checkpoints are single files: the magic ``SKAN0001``, an 8-byte
little-endian header length, a JSON header (config plus tensor
names/shapes/offsets), then all parameter tensors as little-endian float64,
back to back in layer order. The config alone determines the rest of the
header, so a checkpoint loads only if its header equals the one its config
gives and its payload holds exactly the bytes that header declares.
Round-trips are bit-exact.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (ContractError, DataError, MalformedHeaderError,
                     TruncatedPayloadError)
from .layers import init_params
from .spline import SplineGrid, make_grid

_MAGIC = b"SKAN0001"


class Variant(str, Enum):
    """The six network variants covered by the ablation grid."""

    MLP = "mlp"
    MLP_SS = "mlp-ss"
    KAN = "kan"
    KAN_ENC = "kan-enc"
    KAN_SS = "kan-ss"
    SPECTRAL_KAN = "spectral-kan"

    @property
    def spatial_spectral(self) -> bool:
        return self in (Variant.MLP_SS, Variant.KAN_SS, Variant.SPECTRAL_KAN)

    @property
    def layer_kind(self) -> str:
        if self in (Variant.MLP, Variant.MLP_SS):
            return "dense"
        if self in (Variant.KAN, Variant.KAN_SS):
            return "full"
        return "shared"


@dataclass
class ModelConfig:
    """Architecture description for any variant.

    ``spatial_nodes`` must run from ``patch_size**2`` down to 1 and
    ``spectral_nodes`` from ``bands`` down to 2; ``None`` gives
    ``[p*p, 16, 1]`` and ``[bands, 16, 2]``. Flat (non-SS) variants derive
    their single node list as ``[p*p*bands] + spectral_nodes[1:]``.
    """

    variant: Variant = Variant.SPECTRAL_KAN
    patch_size: int = 5
    bands: int = 155
    spatial_nodes: Optional[list[int]] = None
    spectral_nodes: Optional[list[int]] = None
    grid: SplineGrid = field(default_factory=make_grid)

    def __post_init__(self):
        self.variant = Variant(self.variant)
        p, b = self.patch_size, self.bands
        if p < 1 or p % 2 == 0:
            raise ContractError(f"patch_size must be odd and positive, got {p}")
        if b < 1:
            raise ContractError(f"bands must be positive, got {b}")
        sp = [p * p, 16, 1] if self.spatial_nodes is None else list(self.spatial_nodes)
        sc = [b, 16, 2] if self.spectral_nodes is None else list(self.spectral_nodes)
        if len(sp) < 2 or sp[0] != p * p or sp[-1] != 1 or min(sp) < 1:
            raise ContractError(
                f"spatial nodes must run {p * p} -> ... -> 1, got {sp}")
        if len(sc) < 2 or sc[0] != b or sc[-1] != 2 or min(sc) < 1:
            raise ContractError(
                f"spectral nodes must run {b} -> ... -> 2, got {sc}")
        self.spatial_nodes, self.spectral_nodes = sp, sc

    @property
    def stack_nodes(self) -> tuple[list[int], list[int]]:
        """Node lists of the spatial and spectral stacks a model builds."""
        if self.variant.spatial_spectral:
            return self.spatial_nodes, self.spectral_nodes
        return [], [self.patch_size ** 2 * self.bands] + self.spectral_nodes[1:]


def _build_stack(kind: str, nodes: list[int], grid: SplineGrid, rng,
                 final_linear: bool):
    layers = []
    last = len(nodes) - 2
    for i, (d_in, d_out) in enumerate(zip(nodes, nodes[1:])):
        activate = not (final_linear and i == last)
        layers.append(init_params(kind, d_in, d_out, grid=grid, seed=rng,
                                  activate=activate))
    return layers


def build_model(config: ModelConfig, seed=0) -> "Model":
    """Deterministically initialize a model for the given config and seed."""
    rng = np.random.default_rng(seed)
    kind = config.variant.layer_kind
    spatial_nodes, spectral_nodes = config.stack_nodes
    # Dense stacks keep SiLU everywhere except the final logits layer.
    spatial = _build_stack(kind, spatial_nodes, config.grid, rng,
                           final_linear=False)
    spectral = _build_stack(kind, spectral_nodes, config.grid, rng,
                            final_linear=True)
    return Model(config, spatial, spectral)


@dataclass
class Model:
    """Layer stacks plus the config that shaped them.

    For flat variants ``spatial_stack`` is empty and ``spectral_stack``
    holds the single flat stack.
    """

    config: ModelConfig
    spatial_stack: list
    spectral_stack: list

    def _check_patches(self, patches) -> np.ndarray:
        patches = np.asarray(patches)
        p, b = self.config.patch_size, self.config.bands
        if patches.ndim != 4 or patches.shape[1:] != (p, p, b):
            raise ContractError(
                f"expected patches of shape (n, {p}, {p}, {b}), got {patches.shape}")
        return patches

    def _band_rows(self, patches: np.ndarray) -> np.ndarray:
        # (n, p, p, b) -> (n*b, p*p): band-major rows of flattened windows,
        # cast to float64 in the same pass as the transpose copy.
        n = patches.shape[0]
        p, b = self.config.patch_size, self.config.bands
        rows = np.ascontiguousarray(patches.transpose(0, 3, 1, 2), dtype=np.float64)
        return rows.reshape(n * b, p * p)

    def forward(self, patches, keep: bool = True) -> tuple[np.ndarray, list]:
        """Run a batch of patches to logits; also returns layer caches.

        With ``keep=False`` no layer keeps its intermediates and the cache
        list is empty, so each layer's arrays are freed once the next one
        has run; ``backward`` rejects that empty list.
        """
        patches = self._check_patches(patches)
        n = patches.shape[0]
        x = self._band_rows(patches)
        caches = []
        for i, layer in enumerate(self.layers()):
            if i == len(self.spatial_stack):
                # (n*b, d) -> (n, b*d), width explicit so n = 0 reshapes too.
                x = x.reshape(n, self.config.bands * x.shape[1])
            x, cache = layer.forward(x, keep)
            if keep:
                caches.append(cache)
        return x, caches

    def backward(self, caches: list, grad_logits) -> list[np.ndarray]:
        """Gradients for every parameter tensor, in ``parameters()`` order."""
        layers = self.layers()
        if len(caches) != len(layers):
            raise ContractError("cache list does not match the layer stacks")
        g = np.asarray(grad_logits, dtype=np.float64)
        grads: list[np.ndarray] = []
        for i in reversed(range(len(layers))):
            if i == len(self.spatial_stack) - 1:
                # (n, b) -> (n*b, 1): back onto the spatial stack's band rows.
                g = g.reshape(-1, 1)
            g, layer_grads = layers[i].backward(caches[i], g)
            grads[:0] = layer_grads
        return grads

    def stacks(self) -> tuple[tuple[str, list, int], ...]:
        """``(name, layers, rows per patch)`` of each stack, in run order:
        the spatial stack runs once per band, the spectral stack once."""
        return (("spatial", self.spatial_stack, self.config.bands),
                ("spectral", self.spectral_stack, 1))

    def layers(self) -> list:
        return [layer for _, stack, _ in self.stacks() for layer in stack]

    def parameters(self) -> list[np.ndarray]:
        return [p for layer in self.layers() for p in layer.params()]

    def total_params(self) -> int:
        return sum(p.size for p in self.parameters())

    def total_flops(self) -> int:
        """Per-patch FLOP count under the fixed cost convention."""
        return sum(rows * layer.flop_count()
                   for _, stack, rows in self.stacks() for layer in stack)


def _config_dict(config: ModelConfig) -> dict:
    return {
        "variant": config.variant.value,
        "patch_size": config.patch_size,
        "bands": config.bands,
        "spatial_nodes": config.spatial_nodes,
        "spectral_nodes": config.spectral_nodes,
        "spline": {
            "degree": config.grid.degree,
            "grid_size": config.grid.grid_size,
            "domain": [config.grid.lo, config.grid.hi],
        },
    }


def _header(model: Model) -> tuple[dict, list[np.ndarray]]:
    """The header :func:`save_checkpoint` writes, and the tensors in payload order."""
    table, tensors, offset = {}, [], 0
    for stack_name, stack, _ in model.stacks():
        for i, layer in enumerate(stack):
            for name, arr in zip(layer.param_names, layer.params()):
                table[f"{stack_name}.{i}.{name}"] = {
                    "shape": list(arr.shape), "offset": offset,
                    "nbytes": arr.nbytes}
                tensors.append(arr)
                offset += arr.nbytes
    return {"config": _config_dict(model.config), "dtype": "f8le",
            "tensors": table}, tensors


def save_checkpoint(model: Model, path) -> None:
    """Write the model to a single self-describing file."""
    header, tensors = _header(model)
    text = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<Q", len(text)))
        fh.write(text)
        for arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def load_checkpoint(path) -> Model:
    """Read a checkpoint written by :func:`save_checkpoint`."""
    blob = Path(path).read_bytes()
    if len(blob) < len(_MAGIC) + 8 or blob[:len(_MAGIC)] != _MAGIC:
        raise MalformedHeaderError(f"{path}: not a model checkpoint")
    (hlen,) = struct.unpack_from("<Q", blob, len(_MAGIC))
    start = len(_MAGIC) + 8
    if start + hlen > len(blob):
        raise TruncatedPayloadError(f"{path}: header extends past end of file")
    try:
        header = json.loads(blob[start:start + hlen].decode())
        d = header["config"]
        spline = d["spline"]
        grid = make_grid(int(spline["degree"]), int(spline["grid_size"]),
                         float(spline["domain"][0]), float(spline["domain"][1]))
        config = ModelConfig(
            variant=Variant(d["variant"]),
            patch_size=int(d["patch_size"]),
            bands=int(d["bands"]),
            spatial_nodes=[int(v) for v in d["spatial_nodes"]],
            spectral_nodes=[int(v) for v in d["spectral_nodes"]],
            grid=grid,
        )
        # Every layer kind stores at least one float64 per edge, so this
        # bounds the model by the file's size before any of it is allocated.
        edges = sum(a * b for nodes in config.stack_nodes
                    for a, b in zip(nodes, nodes[1:]))
        if edges > len(blob) // 8:
            raise ContractError(
                f"{edges} edges do not fit in a file of {len(blob)} bytes")
        model = build_model(config, seed=0)
    except (ArithmeticError, LookupError, RecursionError, TypeError,
            ValueError) as exc:
        raise MalformedHeaderError(f"{path}: invalid checkpoint header: {exc}") from exc
    expected, tensors = _header(model)
    if header != expected:
        keys = sorted(k for k in set(header) | set(expected)
                      if header.get(k) != expected.get(k))
        raise MalformedHeaderError(
            f"{path}: header differs from the one its config gives at {keys}")
    body, nbytes = blob[start + hlen:], sum(arr.nbytes for arr in tensors)
    if len(body) != nbytes:
        raise TruncatedPayloadError(
            f"{path}: payload holds {len(body)} bytes, expected {nbytes}")
    for (name, entry), arr in zip(expected["tensors"].items(), tensors):
        arr[...] = np.frombuffer(body, "<f8", arr.size,
                                 entry["offset"]).reshape(arr.shape)
        if not np.all(np.isfinite(arr)):
            raise DataError(f"{path}: tensor {name!r} holds non-finite values")
    return model
