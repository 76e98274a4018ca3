"""Bi-temporal cube handling: differencing, normalization, patches, splits.

File formats (the sole ingestion path for real datasets):

* Cube: a JSON header file ``{"height", "width", "bands", "dtype":
  "f32le", "order": "band-interleaved-by-pixel", "payload": <file>}``
  next to a raw payload of ``h*w*b`` little-endian float32 values in
  row-major pixel order, band fastest.
* Label map: binary PGM (P5, maxval 255) whose pixel values are the
  labels themselves: 0 unchanged, 1 changed, 255 unknown.

Both epochs' payloads go through one reader, in 1 MiB blocks each checked
for non-finite values: ``load_cube`` copies them into a new cube and
``subtract_cube`` subtracts them from an existing one in place. With
``normalize(cube, out=cube.values)`` the difference cube is built in one
buffer, with the bytes of ``normalize(difference(x1, x2))``.

Each cube's values are checked finite once. ``HsiCube(values)``,
``difference`` and ``subtract_cube`` make a whole-cube pass, since a
float32 difference can overflow; ``load_cube`` relies on the reader's
block checks and ``normalize`` on its finite band spans.

Patches are windows centered on the classified pixel; positions falling
outside the raster are filled by mirroring across the image boundary
(the edge row/column is duplicated next to itself). For patches larger
than the raster the reflection repeats.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ContractError, DataError, DimensionOverflowError,
                     DomainError, MalformedHeaderError, TruncatedPayloadError,
                     _MAX_ARRAY_BYTES)

UNKNOWN = 255
_MAX_ELEMENTS = 1 << 40  # reject absurd header dimensions before allocating
_BLOCK_BYTES = 1 << 20  # cube payload read per step


@dataclass
class HsiCube:
    """A raster cube of shape (height, width, bands), float32 in memory."""

    values: np.ndarray

    def __post_init__(self):
        self._set_values(self.values)
        if not np.all(np.isfinite(self.values)):
            raise DomainError("cube values must be finite")

    @classmethod
    def _of_finite(cls, values) -> HsiCube:
        """A cube of ``values`` that its builder has already shown finite:
        the shape check runs, the whole-cube finiteness pass does not."""
        cube = cls.__new__(cls)
        cube._set_values(values)
        return cube

    def _set_values(self, values) -> None:
        self.values = np.asarray(values, dtype=np.float32)
        if self.values.ndim != 3 or min(self.values.shape) < 1:
            raise ContractError(
                f"cube must be (h, w, b) with positive dims, got {self.values.shape}")

    @property
    def height(self) -> int:
        return self.values.shape[0]

    @property
    def width(self) -> int:
        return self.values.shape[1]

    @property
    def bands(self) -> int:
        return self.values.shape[2]


@dataclass
class LabelMap:
    """Ground truth grid with entries 0 (unchanged), 1 (changed), 255 (unknown)."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels, dtype=np.uint8)
        if self.labels.ndim != 2 or min(self.labels.shape) < 1:
            raise ContractError(
                f"label map must be 2-D with positive dims, got {self.labels.shape}")
        if not np.all(np.isin(self.labels, (0, 1, UNKNOWN))):
            raise ContractError("labels must be 0, 1 or 255")

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]

    def known_coords(self) -> np.ndarray:
        return np.argwhere(self.labels != UNKNOWN)


@dataclass
class SplitSpec:
    """Disjoint train/test pixel coordinates drawn from the known labels."""

    train_indices: np.ndarray
    test_indices: np.ndarray


@dataclass
class PatchSet:
    """Patches with their labels."""

    patches: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        if len(self.patches) != len(self.labels):
            raise ContractError("patches and labels must align 1:1")

    def __len__(self) -> int:
        return len(self.labels)


def difference(x1: HsiCube, x2: HsiCube) -> HsiCube:
    """Elementwise first-epoch minus second-epoch cube."""
    if x1.values.shape != x2.values.shape:
        raise ContractError(
            f"cube shapes differ: {x1.values.shape} vs {x2.values.shape}")
    return HsiCube(x1.values - x2.values)


def normalize(cube: HsiCube, out: np.ndarray | None = None) -> HsiCube:
    """Affinely map each band to [-1, 1]; constant bands map to 0.

    A band whose span ``max - min`` overflows float32 is a ``DomainError``.
    Finite values with finite spans map to finite values, so the result
    skips ``HsiCube``'s finiteness pass; a NaN written into the cube's
    array after construction makes its band's span NaN and is caught there.

    ``out``, a float32 array of the cube's shape, receives the result; it
    may be ``cube.values`` itself. The same float32 operations run in the
    same order either way, so the bits do not depend on ``out``.
    """
    v = cube.values
    lo = v.min(axis=(0, 1))
    hi = v.max(axis=(0, 1))
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = np.flatnonzero(np.isinf(span))
    if wide.size:
        b = wide[0]
        raise DomainError(
            f"band {b} spans [{lo[b]!s}, {hi[b]!s}], wider than float32 holds")
    if np.isnan(span).any():
        raise DomainError("cube values must be finite")
    flat = span == 0
    safe = np.where(flat, 1.0, span).astype(np.float32)
    out = np.subtract(v, lo, out=out)
    out /= safe
    out *= 2.0
    out -= 1.0
    out[:, :, flat] = 0.0
    return HsiCube._of_finite(out)


def _pixel_coords(coords) -> np.ndarray:
    """``coords`` as an int64 array of ``(row, col)`` rows.

    ``coords`` must be an integer array of shape ``(n, 2)`` or a list of
    integer pairs; anything else is a ``ContractError``, so that no
    reshape regroups the values and no cast truncates a fractional one.
    """
    coords = np.asarray(coords)
    if (coords.ndim != 2 or coords.shape[1] != 2
            or not np.issubdtype(coords.dtype, np.integer)):
        raise ContractError(f"coordinates must be an integer array of shape "
                            f"(n, 2), got {coords.dtype} of shape {coords.shape}")
    return coords.astype(np.int64, copy=False)


def extract_patches(cube: HsiCube, coords: np.ndarray, p: int) -> np.ndarray:
    """The p x p x b windows centered on each ``(row, col)`` of ``coords``.

    Offsets past an edge are mirrored back into the raster with the edge
    row/column duplicated; a window larger than the raster repeats the
    reflection with period ``2h`` down the rows and ``2w`` across. A
    result larger than any array holds is a ``ContractError``.
    """
    if p < 1 or p % 2 == 0:
        raise ContractError(f"patch size must be odd and positive, got {p}")
    coords = _pixel_coords(coords)
    if len(coords) * p * p * cube.bands * cube.values.itemsize > _MAX_ARRAY_BYTES:
        raise ContractError(f"{len(coords)} patches of {p}x{p}x{cube.bands} "
                            f"are larger than any array holds")
    size = np.array([cube.height, cube.width])
    outside = np.any((coords < 0) | (coords >= size), axis=1)
    if outside.any():
        row, col = coords[outside][0]
        raise ContractError(f"center ({row}, {col}) outside "
                            f"{cube.height}x{cube.width} raster")
    idx = coords[:, :, None] + np.arange(-(p // 2), p // 2 + 1)
    period = 2 * size[:, None]
    idx = np.mod(idx, period)
    idx = np.where(idx < size[:, None], idx, period - 1 - idx)
    return cube.values[idx[:, 0, :, None], idx[:, 1, None, :]]


def patch_set(cube: HsiCube, label_map: LabelMap, coords: np.ndarray,
              p: int) -> PatchSet:
    """Bundle the patches at ``coords``, as ``extract_patches`` gives them
    (the cube's float32), with the labels found there. Only the model
    widens them to float64, as it forms each batch's band rows."""
    if (label_map.height, label_map.width) != (cube.height, cube.width):
        raise ContractError("label map does not match the cube dimensions")
    coords = _pixel_coords(coords)
    patches = extract_patches(cube, coords, p)
    labels = label_map.labels[coords[:, 0], coords[:, 1]]
    if np.any(labels == UNKNOWN):
        raise ContractError("patch set coordinates include unknown pixels")
    return PatchSet(patches, labels.astype(np.int64))


def stratified_split(labels: LabelMap, fraction: float, seed: int = 0) -> SplitSpec:
    """Sample ``floor(fraction * count)`` training pixels per class.

    Unknown pixels are excluded entirely; the remaining known pixels form
    the test set. Classes are processed in label order (0 then 1) with a
    single seeded generator, so splits are reproducible.
    """
    if not (0.0 < fraction < 1.0):
        raise ContractError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    train_parts, test_parts = [], []
    for cls in (0, 1):
        coords = np.argwhere(labels.labels == cls)
        n_train = math.floor(fraction * len(coords))
        if n_train == 0:
            raise ContractError(
                f"class {cls} yields no training pixels "
                f"({len(coords)} available at fraction {fraction})")
        pick = rng.choice(len(coords), size=n_train, replace=False)
        mask = np.zeros(len(coords), dtype=bool)
        mask[pick] = True
        train_parts.append(coords[mask])
        test_parts.append(coords[~mask])
    return SplitSpec(train_indices=np.concatenate(train_parts),
                     test_indices=np.concatenate(test_parts))


def _smooth(field: np.ndarray, passes: int = 12) -> np.ndarray:
    # Repeated 3x3 box blur with wrap-around; enough to form soft blobs.
    for _ in range(passes):
        acc = field.copy()
        for axis in (0, 1):
            acc += np.roll(field, 1, axis=axis) + np.roll(field, -1, axis=axis)
        field = acc / 5.0
    return field


def _wave_field(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    # Superpose the three lowest-frequency modes with random weights: level
    # sets give a few large coherent regions with short boundaries instead
    # of speckle.
    rr, cc = np.meshgrid(np.arange(h) / h, np.arange(w) / w, indexing="ij")
    field = np.zeros((h, w))
    for direction in (rr, cc, rr + cc):
        amp, phase = rng.standard_normal(), rng.uniform(0.0, 2.0 * np.pi)
        field += amp * np.cos(2.0 * np.pi * direction + phase)
    return field


def synth_dataset(h: int, w: int, b: int, change_fraction: float = 0.3,
                  noise_sigma: float = 0.1, seed: int = 0
                  ) -> tuple[HsiCube, HsiCube, LabelMap]:
    """Generate a bi-temporal cube pair with blob-shaped changed regions.

    The base image mixes two smooth spectral signatures through a smooth
    spatial field. Changed pixels receive an additional distinct
    signature in the second epoch. Both epochs carry independent Gaussian
    noise of the given sigma. Deterministic per seed. A cube larger than
    any float64 array holds is a ``ContractError``.
    """
    if h < 1 or w < 1 or b < 1:
        raise ContractError("synthetic dimensions must be positive")
    if h * w * b * 8 > _MAX_ARRAY_BYTES:
        raise ContractError(f"a {h}x{w}x{b} cube is larger than any array holds")
    if not (0.0 <= change_fraction <= 1.0):
        raise ContractError("change_fraction must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    u = np.linspace(0.0, 1.0, b)
    sig_a = 0.8 * np.sin(2.0 * np.pi * u) + 0.2 * u
    sig_b = 0.7 * np.cos(2.0 * np.pi * u) - 0.2 * (1.0 - u)
    delta = 2.4 * np.sin(3.0 * np.pi * u + 0.7) + 1.0

    mix = _smooth(rng.standard_normal((h, w)))
    mix = (mix - mix.min()) / max(mix.max() - mix.min(), 1e-12)
    base = mix[..., None] * sig_a + (1.0 - mix[..., None]) * sig_b

    blob_field = _wave_field(rng, h, w)
    n_changed = int(round(change_fraction * h * w))
    changed = np.zeros((h, w), dtype=bool)
    if n_changed > 0:
        order = np.argsort(blob_field.ravel(), kind="stable")
        changed.ravel()[order[-n_changed:]] = True

    x1 = base + noise_sigma * rng.standard_normal((h, w, b))
    x2 = base + changed[..., None] * delta \
        + noise_sigma * rng.standard_normal((h, w, b))
    return (HsiCube(x1.astype(np.float32)), HsiCube(x2.astype(np.float32)),
            LabelMap(changed.astype(np.uint8)))


# ---------------------------------------------------------------------------
# Cube files: JSON header + raw float32 payload.

def save_cube(cube: HsiCube, header_path) -> None:
    header_path = Path(header_path)
    payload_name = header_path.stem + ".raw"
    header = {
        "height": cube.height,
        "width": cube.width,
        "bands": cube.bands,
        "dtype": "f32le",
        "order": "band-interleaved-by-pixel",
        "payload": payload_name,
    }
    header_path.write_text(json.dumps(header, sort_keys=True, indent=1) + "\n")
    data = np.ascontiguousarray(cube.values, dtype="<f4")
    (header_path.parent / payload_name).write_bytes(data.tobytes())


def _checked_payload(header_path: Path) -> tuple[tuple[int, int, int], Path]:
    """The cube shape and payload path from a header, after checking the
    header's fields and the payload's size; nothing of the payload is read."""
    try:
        header = json.loads(header_path.read_text())
    except (RecursionError, ValueError) as exc:
        raise MalformedHeaderError(f"{header_path}: invalid JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise MalformedHeaderError(f"{header_path}: header is not an object")
    for key in ("height", "width", "bands", "dtype", "order", "payload"):
        if key not in header:
            raise MalformedHeaderError(f"{header_path}: missing field {key!r}")
    if header["dtype"] != "f32le":
        raise MalformedHeaderError(
            f"{header_path}: unsupported dtype {header['dtype']!r}")
    if header["order"] != "band-interleaved-by-pixel":
        raise MalformedHeaderError(
            f"{header_path}: unsupported order {header['order']!r}")
    h, w, b = (header[k] for k in ("height", "width", "bands"))
    if not all(type(v) is int for v in (h, w, b)):
        raise MalformedHeaderError(f"{header_path}: non-integer dims")
    if h < 1 or w < 1 or b < 1:
        raise DimensionOverflowError(f"{header_path}: non-positive dimensions")
    if h * w * b > _MAX_ELEMENTS:
        raise DimensionOverflowError(
            f"{header_path}: {h}x{w}x{b} exceeds the supported size")
    payload_path = header_path.parent / str(header["payload"])
    expected = h * w * b * 4
    try:
        found = payload_path.stat().st_size
    except (OSError, ValueError) as exc:
        raise _unreadable(payload_path, exc) from exc
    if found != expected:
        raise TruncatedPayloadError(
            f"{payload_path}: expected {expected} bytes, found {found}")
    return (h, w, b), payload_path


def _unreadable(payload_path: Path, reason) -> DataError:
    # A payload that is missing, a directory, named with a NUL or short.
    return DataError(f"{payload_path}: cannot read payload: {reason}")


def _read_payload(payload_path: Path, target: np.ndarray, step) -> None:
    """Read the payload in ``_BLOCK_BYTES`` blocks, check each for
    non-finite values, then apply it to its part of the flat array
    ``target`` with ``step(part_of_target, block)``."""
    block = np.empty(_BLOCK_BYTES // 4, dtype="<f4")
    try:
        with open(payload_path, "rb") as fh, np.errstate(over="ignore"):
            for start in range(0, target.size, block.size):
                part = block[:target.size - start]
                if fh.readinto(part) != part.nbytes:
                    raise _unreadable(payload_path, "payload ends early")
                if not np.all(np.isfinite(part)):
                    raise DataError(
                        f"{payload_path}: payload contains non-finite values")
                step(target[start:start + part.size], part)
    except OSError as exc:
        raise _unreadable(payload_path, exc) from exc


def load_cube(header_path) -> HsiCube:
    """Check the header, then the payload's size, then copy the payload
    into the cube's array; any payload fault is a ``DataError``."""
    shape, payload_path = _checked_payload(Path(header_path))
    values = np.empty(shape, dtype=np.float32)
    _read_payload(payload_path, values.reshape(-1), np.copyto)
    return HsiCube._of_finite(values)  # _read_payload checked every block


def subtract_cube(cube: HsiCube, header_path) -> HsiCube:
    """``difference(cube, load_cube(header_path))``, built in ``cube``'s array.

    The second cube file goes through ``load_cube``'s checks, and its
    blocks are subtracted in place, so no second cube is ever held. A
    difference that overflows float32 raises only once every block is
    read, so a non-finite payload value wins over it. ``cube`` must not be
    used afterwards: its array holds the difference.
    """
    shape, payload_path = _checked_payload(Path(header_path))
    if cube.values.shape != shape:
        raise ContractError(f"cube shapes differ: {cube.values.shape} vs {shape}")
    flat = cube.values.reshape(-1)  # a view: load_cube's array is C-contiguous
    _read_payload(payload_path, flat, lambda t, part: np.subtract(t, part, out=t))
    return HsiCube(flat.reshape(shape))


# ---------------------------------------------------------------------------
# PGM (P5) rasters for label maps and rendered change maps.

def save_pgm(grid: np.ndarray, path) -> None:
    grid = np.asarray(grid, dtype=np.uint8)
    if grid.ndim != 2:
        raise ContractError("PGM grids must be 2-D")
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode())
        fh.write(grid.tobytes())


# "P5", then width, height and maxval, each after whitespace or "#"
# comments that run to a newline, then the one whitespace byte before the
# pixels. A number has at most 18 digits, far below int()'s 4,300.
_PGM_HEADER = re.compile(rb"P5" + rb"(?:\s|#[^\n]*\n)+(\d{1,18})" * 3 + rb"\s")


def load_pgm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    header = _PGM_HEADER.match(blob)
    if header is None:
        raise MalformedHeaderError(f"{path}: not a binary PGM")
    w, h, maxval = map(int, header.groups())
    if maxval != 255:
        raise MalformedHeaderError(f"{path}: expected maxval 255, got {maxval}")
    if h < 1 or w < 1:
        raise DimensionOverflowError(f"{path}: non-positive PGM dimensions")
    data = blob[header.end():header.end() + h * w]
    if len(data) != h * w:
        raise TruncatedPayloadError(
            f"{path}: expected {h * w} pixel bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def save_labels(labels: LabelMap, path) -> None:
    save_pgm(labels.labels, path)


def load_labels(path) -> LabelMap:
    try:
        # load_pgm's grid is 2-D with positive dims: only a value can fail.
        return LabelMap(load_pgm(path))
    except ContractError as exc:
        raise DataError(f"{path}: label values must be 0, 1 or 255") from exc
