"""Bi-temporal cube handling: differencing, normalization, patches, splits.

File formats (the sole ingestion path for real datasets):

* Cube: a JSON header file ``{"height", "width", "bands", "dtype":
  "f32le", "order": "band-interleaved-by-pixel", "payload": <file>}``
  next to a raw payload of ``h*w*b`` little-endian float32 values in
  row-major pixel order, band fastest.
* Label map: binary PGM (P5, maxval 255) whose pixel values are the
  labels themselves: 0 unchanged, 1 changed, 255 unknown.

The difference cube can be built in one buffer: ``load_cube`` reads the
first epoch, ``subtract_cube`` streams the second epoch's payload into it
in 1 MiB blocks, and ``normalize(cube, out=cube.values)`` maps it to
[-1, 1] in place. The bytes equal ``normalize(difference(x1, x2))``, the
in-memory definition, while only one cube is ever held.

Patches are windows centered on the classified pixel; positions falling
outside the raster are filled by mirroring across the image boundary
(the edge row/column is duplicated next to itself). For patches larger
than the raster the reflection repeats.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (ContractError, DataError, DimensionOverflowError,
                     DomainError, MalformedHeaderError, TruncatedPayloadError)

UNKNOWN = 255
_MAX_ELEMENTS = 1 << 40  # reject absurd header dimensions before allocating
_BLOCK_BYTES = 1 << 20  # payload read per step when subtracting a cube file


@dataclass
class HsiCube:
    """A raster cube of shape (height, width, bands), float32 in memory."""

    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float32)
        if self.values.ndim != 3 or min(self.values.shape) < 1:
            raise ContractError(
                f"cube must be (h, w, b) with positive dims, got {self.values.shape}")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("cube values must be finite")

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

    ``out``, a float32 array of the cube's shape, receives the result; it
    may be ``cube.values`` itself. The same float32 operations run in the
    same order either way, so the bits do not depend on ``out``.
    """
    v = cube.values
    lo = v.min(axis=(0, 1))
    hi = v.max(axis=(0, 1))
    span = hi - lo
    flat = span == 0
    safe = np.where(flat, 1.0, span).astype(np.float32)
    out = np.subtract(v, lo, out=out)
    out /= safe
    out *= 2.0
    out -= 1.0
    out[:, :, flat] = 0.0
    return HsiCube(out)


def extract_patches(cube: HsiCube, coords: np.ndarray, p: int) -> np.ndarray:
    """The p x p x b windows centered on each ``(row, col)`` of ``coords``.

    Offsets past an edge are mirrored back into the raster with the edge
    row/column duplicated; a window larger than the raster repeats the
    reflection with period ``2h`` down the rows and ``2w`` across.
    """
    if p < 1 or p % 2 == 0:
        raise ContractError(f"patch size must be odd and positive, got {p}")
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, 2)
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
    """Bundle float64 patches with the labels found at ``coords``."""
    if (label_map.height, label_map.width) != (cube.height, cube.width):
        raise ContractError("label map does not match the cube dimensions")
    coords = np.asarray(coords, dtype=np.int64)
    patches = extract_patches(cube, coords, p).astype(np.float64)
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
    noise of the given sigma. Deterministic per seed.
    """
    if h < 1 or w < 1 or b < 1:
        raise ContractError("synthetic dimensions must be positive")
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


def _non_finite(payload_path: Path) -> DataError:
    return DataError(f"{payload_path}: payload contains non-finite values")


def load_cube(header_path) -> HsiCube:
    """Check the header, then the payload's size, then read the payload once
    into the cube's array; any payload fault is a ``DataError``."""
    shape, payload_path = _checked_payload(Path(header_path))
    try:
        values = np.fromfile(payload_path, dtype="<f4").reshape(shape)
    except (OSError, ValueError) as exc:
        raise _unreadable(payload_path, exc) from exc
    if not np.all(np.isfinite(values)):
        raise _non_finite(payload_path)
    return HsiCube(values)


def subtract_cube(cube: HsiCube, header_path) -> HsiCube:
    """``difference(cube, load_cube(header_path))``, built in ``cube``'s array.

    The second cube's header and payload size are checked as ``load_cube``
    checks them; its payload is then read in ``_BLOCK_BYTES`` blocks, each
    checked for non-finite values and subtracted in place, so no second
    cube is ever held. A difference that overflows float32 raises only
    once every block is read, so a non-finite payload value wins over it.
    ``cube`` must not be used afterwards: its array holds the difference.
    """
    shape, payload_path = _checked_payload(Path(header_path))
    if cube.values.shape != shape:
        raise ContractError(f"cube shapes differ: {cube.values.shape} vs {shape}")
    flat = cube.values.reshape(-1)  # a view: load_cube's array is C-contiguous
    block = np.empty(_BLOCK_BYTES // 4, dtype="<f4")
    try:
        with open(payload_path, "rb") as fh, np.errstate(over="ignore"):
            for start in range(0, flat.size, block.size):
                part = block[:flat.size - start]
                if fh.readinto(part) != part.nbytes:
                    raise _unreadable(payload_path, "payload ends early")
                if not np.all(np.isfinite(part)):
                    raise _non_finite(payload_path)
                target = flat[start:start + part.size]
                np.subtract(target, part, out=target)
    except OSError as exc:
        raise _unreadable(payload_path, exc) from exc
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


def load_pgm(path) -> np.ndarray:
    blob = Path(path).read_bytes()
    fields: list[bytes] = []
    pos = 0
    while len(fields) < 4 and pos < len(blob):
        while pos < len(blob) and blob[pos:pos + 1].isspace():
            pos += 1
        if blob[pos:pos + 1] == b"#":  # comment runs to end of line
            while pos < len(blob) and blob[pos] != 0x0A:
                pos += 1
            continue
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        fields.append(blob[start:pos])
    if len(fields) < 4 or fields[0] != b"P5":
        raise MalformedHeaderError(f"{path}: not a binary PGM")
    try:
        w, h, maxval = int(fields[1]), int(fields[2]), int(fields[3])
    except ValueError as exc:
        raise MalformedHeaderError(f"{path}: bad PGM header") from exc
    if maxval != 255:
        raise MalformedHeaderError(f"{path}: expected maxval 255, got {maxval}")
    if h < 1 or w < 1:
        raise DimensionOverflowError(f"{path}: non-positive PGM dimensions")
    pos += 1  # single whitespace byte after maxval
    data = blob[pos:pos + h * w]
    if len(data) != h * w:
        raise TruncatedPayloadError(
            f"{path}: expected {h * w} pixel bytes, found {len(data)}")
    return np.frombuffer(data, dtype=np.uint8).reshape(h, w).copy()


def save_labels(labels: LabelMap, path) -> None:
    save_pgm(labels.labels, path)


def load_labels(path) -> LabelMap:
    grid = load_pgm(path)
    if not np.all(np.isin(grid, (0, 1, UNKNOWN))):
        raise DataError(f"{path}: label values must be 0, 1 or 255")
    return LabelMap(grid)
