import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spectralkan import (HsiCube, LabelMap, PatchSet, difference,
                         extract_patches, load_cube, load_labels, normalize,
                         patch_set, save_cube, save_labels, stratified_split,
                         synth_dataset)
from spectralkan import data
from spectralkan.cli import main
from spectralkan.data import load_pgm, save_pgm, subtract_cube
from spectralkan.errors import (ContractError, DataError,
                                DimensionOverflowError, DomainError,
                                MalformedHeaderError, TruncatedPayloadError)

from oracles import naive_patch


def random_cube(h, w, b, seed=0):
    rng = np.random.default_rng(seed)
    return HsiCube(rng.standard_normal((h, w, b)).astype(np.float32))


class TestCubeTypes:
    def test_rejects_bad_dims(self):
        with pytest.raises(ContractError):
            HsiCube(np.zeros((4, 4)))
        with pytest.raises(ContractError):
            HsiCube(np.zeros((0, 4, 2)))

    def test_rejects_non_finite(self):
        bad = np.zeros((2, 2, 2), dtype=np.float32)
        bad[0, 0, 0] = np.nan
        with pytest.raises(DomainError):
            HsiCube(bad)

    def test_label_values_validated(self):
        with pytest.raises(ContractError):
            LabelMap(np.full((3, 3), 7, dtype=np.uint8))


class TestDifference:
    def test_self_difference_is_zero(self):
        cube = random_cube(3, 4, 5)
        assert np.all(difference(cube, cube).values == 0.0)

    def test_antisymmetry(self):
        a, b = random_cube(3, 3, 2, seed=1), random_cube(3, 3, 2, seed=2)
        assert np.array_equal(difference(a, b).values, -difference(b, a).values)

    def test_matches_elementwise_oracle(self):
        a, b = random_cube(2, 2, 2, seed=3), random_cube(2, 2, 2, seed=4)
        expected = np.empty((2, 2, 2), dtype=np.float32)
        for r in range(2):
            for c in range(2):
                for k in range(2):
                    expected[r, c, k] = a.values[r, c, k] - b.values[r, c, k]
        assert np.array_equal(difference(a, b).values, expected)

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(ContractError):
            difference(random_cube(2, 2, 2), random_cube(2, 2, 3))


class TestNormalize:
    def test_endpoint_mapping(self):
        values = np.zeros((1, 2, 1), dtype=np.float32)
        values[0, 1, 0] = 10.0
        out = normalize(HsiCube(values)).values
        assert out[0, 0, 0] == -1.0 and out[0, 1, 0] == 1.0

    def test_constant_band_maps_to_zero(self):
        out = normalize(HsiCube(np.full((3, 3, 2), 4.5, dtype=np.float32)))
        assert np.all(out.values == 0.0)

    def test_range_and_order(self):
        cube = random_cube(6, 7, 3, seed=5)
        out = normalize(cube).values
        for band in range(3):
            v = out[:, :, band]
            assert v.min() == -1.0 and v.max() == 1.0
        flat_in = cube.values[:, :, 1].ravel()
        flat_out = out[:, :, 1].ravel()
        order = np.argsort(flat_in, kind="stable")
        assert np.all(np.diff(flat_out[order]) >= 0)

    @pytest.mark.parametrize("band", [0, 2])
    def test_span_past_float32_is_domain_error_naming_the_band(self, band):
        values = np.zeros((2, 2, 3), dtype=np.float32)
        values[0, 0, band], values[1, 1, band] = 2e38, -2e38
        with pytest.raises(DomainError, match=rf"^band {band} spans \["):
            normalize(HsiCube(values))

    def test_nan_written_after_construction_is_domain_error(self):
        cube = random_cube(3, 4, 5, seed=7)
        cube.values[1, 2, 3] = np.nan
        with pytest.raises(DomainError, match="cube values must be finite"):
            normalize(cube)

    @pytest.mark.parametrize("shape", [(6, 7, 3), (70, 70, 155)])
    def test_out_gives_the_default_bytes_in_that_buffer(self, shape):
        values = 40.0 * random_cube(*shape, seed=6).values
        values[:, :, 1] = 2.5  # a constant band
        expected = normalize(HsiCube(values)).values
        buf = values.copy()
        out = normalize(HsiCube(buf), out=buf)
        assert out.values is buf
        assert buf.tobytes() == expected.tobytes()


class TestPatches:
    def test_interior_is_plain_window(self):
        cube = random_cube(6, 6, 2, seed=6)
        patch = extract_patches(cube, [(3, 3)], 3)[0]
        assert np.array_equal(patch, cube.values[2:5, 2:5])

    def test_corner_mirror_against_index_oracle(self):
        cube = random_cube(5, 5, 2, seed=7)

        def mirror(i, n):
            # independent mapping: reflect across the boundary, edge duplicated
            return -1 - i if i < 0 else (2 * n - 1 - i if i >= n else i)

        patch = extract_patches(cube, [(0, 0)], 3)[0]
        for dr in (-1, 0, 1):
            for dc in (-1, 0, 1):
                src = cube.values[mirror(dr, 5), mirror(dc, 5)]
                assert np.array_equal(patch[dr + 1, dc + 1], src)

    def test_single_pixel_patch(self):
        cube = random_cube(4, 4, 3, seed=8)
        patch = extract_patches(cube, [(2, 1)], 1)[0]
        assert np.array_equal(patch[0, 0], cube.values[2, 1])

    def test_idempotent(self):
        cube = random_cube(5, 5, 2, seed=9)
        a = extract_patches(cube, [(1, 4)], 5)
        b = extract_patches(cube, [(1, 4)], 5)
        assert np.array_equal(a, b)

    def test_rejects_even_size_and_outside_center(self):
        cube = random_cube(4, 4, 1)
        with pytest.raises(ContractError):
            extract_patches(cube, [(1, 1)], 4)
        with pytest.raises(ContractError):
            extract_patches(cube, [(4, 0)], 3)

    @pytest.mark.parametrize("center,p", [
        ((-1, 0), 1), ((4, 0), 1), ((-1, 0), 3), ((0, 4), 3), ((2, -1), 5),
    ])
    def test_rejects_center_outside_raster(self, center, p):
        cube = random_cube(4, 4, 1)
        with pytest.raises(ContractError):
            extract_patches(cube, [(1, 1), center], p)

    @pytest.mark.parametrize("coords", [
        [[1, 2, 3], [0, 1, 2]], np.array([[1, 2, 3], [0, 1, 2]]),
        [[1.7, 2.2]], np.array([[1.0, 2.0]]), [1, 2], np.zeros((1, 2, 1), int),
        [], [[True, False]], [["1", "2"]],
    ], ids=["list-2x3", "array-2x3", "fractional", "float-integral", "flat-pair",
            "3-d", "empty-list", "bool", "strings"])
    def test_rejects_malformed_coords(self, coords):
        cube = random_cube(4, 4, 2, seed=13)
        labels = LabelMap(np.zeros((4, 4), dtype=np.uint8))
        with pytest.raises(ContractError, match="coordinates"):
            extract_patches(cube, coords, 3)
        with pytest.raises(ContractError, match="coordinates"):
            patch_set(cube, labels, coords, 3)

    @pytest.mark.parametrize("coords", [
        [(1, 2), (3, 0)], np.array([[1, 2], [3, 0]], dtype=np.uint8),
        np.array([[1, 2], [3, 0]], dtype=np.int32), np.zeros((0, 2), dtype=np.int64),
    ], ids=["list-of-pairs", "uint8", "int32", "empty"])
    def test_integer_pairs_pass(self, coords):
        cube = random_cube(4, 4, 2, seed=14)
        got = extract_patches(cube, coords, 3)
        expected = [naive_patch(cube.values, r, c, 3)
                    for r, c in np.asarray(coords, dtype=np.int64)]
        assert got.shape == (len(expected), 3, 3, 2)
        assert all(np.array_equal(a, b) for a, b in zip(got, expected))

    def test_batch_matches_per_pixel(self):
        # Every center of every raster up to 6x6, with windows up to 15
        # wide: p=1, interior pixels, edges, and windows larger than the
        # raster, where the reflection repeats.
        for h in range(1, 7):
            for w in range(1, 7):
                for b in (1, 3):
                    cube = random_cube(h, w, b, seed=10 * h + w)
                    coords = np.argwhere(np.ones((h, w), dtype=bool))
                    for p in range(1, 16, 2):
                        batch = extract_patches(cube, coords, p)
                        assert batch.shape == (h * w, p, p, b)
                        for (r, c), patch in zip(coords, batch):
                            assert np.array_equal(
                                patch, naive_patch(cube.values, r, c, p))

    def test_patch_set_alignment(self):
        cube = random_cube(6, 6, 2, seed=11)
        labels = LabelMap((np.arange(36).reshape(6, 6) % 2).astype(np.uint8))
        coords = np.array([[0, 0], [2, 3], [5, 5]])
        ps = patch_set(cube, labels, coords, 3)
        # The cube's float32, as extract_patches gives it: only the model
        # widens patches to float64.
        assert ps.patches.dtype == np.float32
        assert ps.patches.tobytes() == extract_patches(cube, coords, 3).tobytes()
        assert list(ps.labels) == [0, 1, 1]
        assert len(ps) == 3

    def test_patch_set_rejects_label_map_of_another_size(self):
        cube = random_cube(6, 6, 2, seed=11)
        labels = LabelMap(np.zeros((6, 5), dtype=np.uint8))
        with pytest.raises(ContractError, match="label map does not match"):
            patch_set(cube, labels, [[0, 0]], 3)

    def test_patch_set_of_misaligned_lengths(self):
        with pytest.raises(ContractError, match="align 1:1"):
            PatchSet(np.zeros((3, 1, 1, 1), dtype=np.float32), np.zeros(2))

    def test_patch_set_rejects_unknown_pixels(self):
        cube = random_cube(4, 4, 2, seed=12)
        grid = np.zeros((4, 4), dtype=np.uint8)
        grid[1, 1] = 255
        with pytest.raises(ContractError):
            patch_set(cube, LabelMap(grid), np.array([[1, 1]]), 3)


def flat_label_map(unchanged, changed, unknown=0, shape=None):
    values = np.concatenate([
        np.zeros(unchanged, dtype=np.uint8),
        np.ones(changed, dtype=np.uint8),
        np.full(unknown, 255, dtype=np.uint8),
    ])
    if shape is None:
        shape = (1, values.size)
    return LabelMap(values.reshape(shape))


class TestStratifiedSplit:
    def test_farmland_counts(self):
        labels = flat_label_map(44_723, 18_277, shape=(450, 140))
        split = stratified_split(labels, 0.01, seed=0)
        train = labels.labels[split.train_indices[:, 0], split.train_indices[:, 1]]
        test = labels.labels[split.test_indices[:, 0], split.test_indices[:, 1]]
        assert (train == 0).sum() == 447 and (train == 1).sum() == 182
        assert (test == 0).sum() == 44_276 and (test == 1).sum() == 18_095

    def test_bay_area_counts_and_unknown_exclusion(self):
        labels = flat_label_map(34_211, 39_270, unknown=226_519, shape=(600, 500))
        split = stratified_split(labels, 0.01, seed=3)
        train = labels.labels[split.train_indices[:, 0], split.train_indices[:, 1]]
        test = labels.labels[split.test_indices[:, 0], split.test_indices[:, 1]]
        assert (train == 0).sum() == 342 and (train == 1).sum() == 392
        assert not np.any(train == 255) and not np.any(test == 255)
        assert len(train) + len(test) == 34_211 + 39_270

    def test_partition_is_disjoint_and_complete(self):
        labels = flat_label_map(300, 200, unknown=57, shape=(1, 557))
        split = stratified_split(labels, 0.05, seed=5)
        train = {tuple(c) for c in split.train_indices}
        test = {tuple(c) for c in split.test_indices}
        assert not train & test
        known = {tuple(c) for c in np.argwhere(labels.labels != 255)}
        assert train | test == known

    def test_determinism(self):
        labels = flat_label_map(500, 300)
        a = stratified_split(labels, 0.02, seed=9)
        b = stratified_split(labels, 0.02, seed=9)
        assert np.array_equal(a.train_indices, b.train_indices)

    def test_floor_underflow_raises(self):
        labels = flat_label_map(99, 1)
        with pytest.raises(ContractError):
            stratified_split(labels, 0.01, seed=0)

    def test_rejects_bad_fraction(self):
        labels = flat_label_map(10, 10)
        with pytest.raises(ContractError):
            stratified_split(labels, 0.0)
        with pytest.raises(ContractError):
            stratified_split(labels, 1.0)


class TestSynth:
    def test_zero_change_fraction(self):
        _, _, labels = synth_dataset(16, 16, 4, change_fraction=0.0, seed=1)
        assert np.all(labels.labels == 0)

    def test_noiseless_difference_is_zero_on_unchanged(self):
        x1, x2, labels = synth_dataset(16, 16, 4, change_fraction=0.3,
                                       noise_sigma=0.0, seed=2)
        diff = difference(x1, x2).values
        unchanged = labels.labels == 0
        assert np.all(diff[unchanged] == 0.0)
        assert np.any(diff[~unchanged] != 0.0)

    def test_change_fraction_is_respected(self):
        _, _, labels = synth_dataset(20, 20, 3, change_fraction=0.25, seed=3)
        assert labels.labels.sum() == round(0.25 * 400)

    @pytest.mark.parametrize("h,w,b", [(0, 4, 3), (4, -1, 3), (4, 4, 0)])
    def test_rejects_non_positive_size(self, h, w, b):
        with pytest.raises(ContractError, match="must be positive"):
            synth_dataset(h, w, b)

    @pytest.mark.parametrize("fraction", [-0.1, 1.5, float("nan")])
    def test_rejects_change_fraction_outside_unit_interval(self, fraction):
        with pytest.raises(ContractError, match="change_fraction"):
            synth_dataset(4, 4, 3, change_fraction=fraction)

    def test_determinism(self):
        a1, a2, al = synth_dataset(12, 10, 5, seed=4)
        b1, b2, bl = synth_dataset(12, 10, 5, seed=4)
        assert np.array_equal(a1.values, b1.values)
        assert np.array_equal(a2.values, b2.values)
        assert np.array_equal(al.labels, bl.labels)


class TestCubeFiles:
    def test_round_trip_is_exact(self, tmp_path):
        cube = random_cube(4, 5, 6, seed=13)
        save_cube(cube, tmp_path / "c.json")
        loaded = load_cube(tmp_path / "c.json")
        assert np.array_equal(loaded.values, cube.values)

    def test_header_contents(self, tmp_path):
        save_cube(random_cube(2, 3, 4), tmp_path / "c.json")
        header = json.loads((tmp_path / "c.json").read_text())
        assert header["dtype"] == "f32le"
        assert header["order"] == "band-interleaved-by-pixel"
        assert (header["height"], header["width"], header["bands"]) == (2, 3, 4)

    def test_truncated_payload_detected(self, tmp_path):
        save_cube(random_cube(3, 3, 3), tmp_path / "c.json")
        raw = tmp_path / "c.raw"
        raw.write_bytes(raw.read_bytes()[:-8])
        with pytest.raises(TruncatedPayloadError):
            load_cube(tmp_path / "c.json")

    def test_oversized_payload_rejected_before_reading(self, tmp_path):
        save_cube(random_cube(2, 2, 2), tmp_path / "c.json")
        with open(tmp_path / "c.raw", "wb") as fh:
            fh.truncate(64 << 20)  # sparse: no data is written
        tracemalloc.start()
        try:
            with pytest.raises(TruncatedPayloadError,
                               match="expected 32 bytes, found 67108864"):
                load_cube(tmp_path / "c.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_adds_no_whole_cube_mask(self, tmp_path):
        # The reader checks each 1 MiB block, so the load holds the cube and
        # one block. The cube is large enough that a whole-cube finiteness
        # mask (a quarter of the cube) would outweigh the block.
        shape = (200, 100, 155)
        save_cube(HsiCube(np.arange(np.prod(shape), dtype=np.float32).reshape(shape)),
                  tmp_path / "c.json")
        tracemalloc.start()
        try:
            cube = load_cube(tmp_path / "c.json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cube.values.shape == shape
        assert peak <= cube.values.nbytes + 1.5 * 2**20

    @pytest.mark.parametrize("read", [
        load_cube, lambda path: subtract_cube(random_cube(3, 4, 5), path)],
        ids=["load_cube", "subtract_cube"])
    def test_payload_short_after_size_check_is_data_error(self, tmp_path,
                                                          monkeypatch, read):
        save_cube(random_cube(3, 4, 5), tmp_path / "c.json")
        checked = data._checked_payload

        def check_then_shrink(path):
            # The payload loses its last value between the size check and the read.
            shape, payload = checked(path)
            with open(payload, "r+b") as fh:
                fh.truncate(236)
            return shape, payload

        monkeypatch.setattr(data, "_checked_payload", check_then_shrink)
        with pytest.raises(DataError, match="cannot read payload: payload ends early"):
            read(tmp_path / "c.json")

    def test_zero_dims_rejected(self, tmp_path):
        save_cube(random_cube(2, 2, 2), tmp_path / "c.json")
        header = json.loads((tmp_path / "c.json").read_text())
        header["height"] = 0
        (tmp_path / "c.json").write_text(json.dumps(header))
        with pytest.raises(DimensionOverflowError):
            load_cube(tmp_path / "c.json")

    def test_absurd_dims_rejected(self, tmp_path):
        save_cube(random_cube(2, 2, 2), tmp_path / "c.json")
        header = json.loads((tmp_path / "c.json").read_text())
        header["height"] = 1 << 30
        header["width"] = 1 << 30
        (tmp_path / "c.json").write_text(json.dumps(header))
        with pytest.raises(DimensionOverflowError):
            load_cube(tmp_path / "c.json")

    def test_malformed_header_rejected(self, tmp_path):
        (tmp_path / "c.json").write_text("{not json")
        with pytest.raises(MalformedHeaderError):
            load_cube(tmp_path / "c.json")
        (tmp_path / "d.json").write_text('{"height": 2}')
        with pytest.raises(MalformedHeaderError):
            load_cube(tmp_path / "d.json")

    def test_wrong_dtype_rejected(self, tmp_path):
        save_cube(random_cube(2, 2, 2), tmp_path / "c.json")
        header = json.loads((tmp_path / "c.json").read_text())
        header["dtype"] = "f64le"
        (tmp_path / "c.json").write_text(json.dumps(header))
        with pytest.raises(MalformedHeaderError):
            load_cube(tmp_path / "c.json")

    def test_non_finite_payload_rejected(self, tmp_path):
        save_cube(random_cube(2, 2, 2), tmp_path / "c.json")
        values = np.full((2, 2, 2), np.nan, dtype="<f4")
        (tmp_path / "c.raw").write_bytes(values.tobytes())
        with pytest.raises(DataError):
            load_cube(tmp_path / "c.json")


def write_cube(values, header_path):
    """A cube file holding ``values``, non-finite ones included."""
    save_cube(HsiCube(np.zeros_like(values)), header_path)
    header_path.with_suffix(".raw").write_bytes(values.astype("<f4").tobytes())
    return header_path


class TestSubtractCube:
    """``subtract_cube`` gives ``difference``'s bytes in the first cube's
    array, and puts the second cube file through ``load_cube``'s checks."""

    BLOCK = data._BLOCK_BYTES // 4

    @pytest.mark.parametrize("shape", [
        (3, 4, 5),        # under one block
        (64, 64, 64),     # exactly one block
        (128, 64, 64),    # exactly two blocks
        (70, 70, 155),    # three blocks, the last one partial
    ])
    def test_matches_difference_in_the_first_array(self, tmp_path, shape):
        x1, x2 = random_cube(*shape, seed=1), random_cube(*shape, seed=2)
        expected = difference(x1, x2).values
        out = subtract_cube(x1, write_cube(x2.values, tmp_path / "t2.json"))
        assert np.shares_memory(out.values, x1.values)
        assert out.values.tobytes() == expected.tobytes()

    @staticmethod
    def pair(tmp_path, shape=(70, 70, 155)):
        x1, x2 = random_cube(*shape, seed=3), random_cube(*shape, seed=4)
        return x1.values, x2.values, tmp_path / "t2.json"

    def test_non_finite_value_in_a_later_block_is_data_error(self, tmp_path):
        v1, v2, t2 = self.pair(tmp_path)
        v2.reshape(-1)[2 * self.BLOCK + 5] = np.inf
        write_cube(v2, t2)
        with pytest.raises(DataError, match="payload contains non-finite values"):
            subtract_cube(HsiCube(v1), t2)

    def test_overflow_is_domain_error(self, tmp_path):
        v1, v2, t2 = self.pair(tmp_path)
        v1.reshape(-1)[self.BLOCK + 1], v2.reshape(-1)[self.BLOCK + 1] = 3e38, -3e38
        with pytest.raises(DomainError, match="cube values must be finite"):
            subtract_cube(HsiCube(v1), write_cube(v2, t2))

    def test_non_finite_value_wins_over_an_earlier_overflow(self, tmp_path):
        v1, v2, t2 = self.pair(tmp_path)
        v1.reshape(-1)[7], v2.reshape(-1)[7] = 3e38, -3e38
        v2.reshape(-1)[-1] = np.nan
        with pytest.raises(DataError, match="payload contains non-finite values"):
            subtract_cube(HsiCube(v1), write_cube(v2, t2))

    def test_shape_mismatch_is_contract_error(self, tmp_path):
        t2 = write_cube(random_cube(3, 4, 6).values, tmp_path / "t2.json")
        with pytest.raises(ContractError, match="cube shapes differ"):
            subtract_cube(random_cube(3, 4, 5), t2)

    @pytest.mark.parametrize("edit", [
        {"dtype": "f64le"}, {"order": "band-sequential"}, {"height": 0},
        {"height": 1 << 30, "width": 1 << 30}, {"bands": 5.0},
        {"payload": "missing.raw"}, {"payload": "."}, {"payload": "t1.raw"},
    ])
    def test_header_faults_are_load_cubes(self, tmp_path, edit):
        write_cube(random_cube(3, 4, 2).values, tmp_path / "t1.json")
        t2 = write_cube(random_cube(3, 4, 5).values, tmp_path / "t2.json")
        header = json.loads(t2.read_text())
        t2.write_text(json.dumps({**header, **edit}))
        with pytest.raises(DataError) as expected:
            load_cube(t2)
        with pytest.raises(type(expected.value)) as got:
            subtract_cube(random_cube(3, 4, 5), t2)
        assert str(got.value) == str(expected.value)

    def test_short_payload_is_truncated_payload_error(self, tmp_path):
        t2 = write_cube(random_cube(3, 4, 5).values, tmp_path / "t2.json")
        raw = tmp_path / "t2.raw"
        raw.write_bytes(raw.read_bytes()[:-4])
        with pytest.raises(TruncatedPayloadError, match="expected 240 bytes, found 236"):
            subtract_cube(random_cube(3, 4, 5), t2)


class TestPgm:
    def test_label_round_trip(self, tmp_path):
        grid = np.array([[0, 1, 255], [1, 0, 0]], dtype=np.uint8)
        save_labels(LabelMap(grid), tmp_path / "l.pgm")
        loaded = load_labels(tmp_path / "l.pgm")
        assert np.array_equal(loaded.labels, grid)

    def test_pgm_header_format(self, tmp_path):
        save_pgm(np.zeros((2, 3), dtype=np.uint8), tmp_path / "g.pgm")
        blob = (tmp_path / "g.pgm").read_bytes()
        assert blob.startswith(b"P5\n3 2\n255\n")
        assert len(blob) == len(b"P5\n3 2\n255\n") + 6

    def test_rejects_a_3d_grid(self, tmp_path):
        with pytest.raises(ContractError, match="2-D"):
            save_pgm(np.zeros((2, 3, 1), dtype=np.uint8), tmp_path / "g.pgm")
        assert not (tmp_path / "g.pgm").exists()

    def test_comments_are_skipped(self, tmp_path):
        payload = b"P5\n# a comment\n2 2\n255\n\x00\x01\xff\x00"
        (tmp_path / "c.pgm").write_bytes(payload)
        grid = load_pgm(tmp_path / "c.pgm")
        assert np.array_equal(grid, np.array([[0, 1], [255, 0]], dtype=np.uint8))

    @pytest.mark.parametrize("header", [
        b"P5 # magic\n2 # width\n2 # height\n255\n",
        b"P5\t2\n\n\n2\t\t255\n",
    ], ids=["comments-between-tokens", "tabs-and-newlines"])
    def test_header_separators(self, tmp_path, header):
        (tmp_path / "s.pgm").write_bytes(header + b"\x00\x01\xff\x00")
        grid = load_pgm(tmp_path / "s.pgm")
        assert np.array_equal(grid, np.array([[0, 1], [255, 0]], dtype=np.uint8))

    @pytest.mark.parametrize("blob", [
        b"P5\n-2 2\n255\n\x00\x00\x00\x00",
        b"P5\n2 two\n255\n\x00\x00\x00\x00",
        b"P5\n2 2\n# no newline ends this comment",
        b"P5\n2 2\n255",
        b"P5\n" + b"9" * 5000 + b" 2\n255\n\x00\x00\x00\x00",
    ], ids=["negative-dimension", "non-numeric-dimension",
            "ends-inside-comment", "no-byte-after-maxval", "5000-digit-width"])
    def test_bad_header_is_data_error(self, tmp_path, blob):
        (tmp_path / "b.pgm").write_bytes(blob)
        with pytest.raises(DataError):
            load_pgm(tmp_path / "b.pgm")

    def test_truncated_pixels_detected(self, tmp_path):
        (tmp_path / "t.pgm").write_bytes(b"P5\n4 4\n255\n\x00\x01")
        with pytest.raises(TruncatedPayloadError):
            load_pgm(tmp_path / "t.pgm")

    def test_non_pgm_rejected(self, tmp_path):
        (tmp_path / "x.pgm").write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
        with pytest.raises(MalformedHeaderError):
            load_pgm(tmp_path / "x.pgm")

    def test_invalid_label_values_rejected(self, tmp_path):
        save_pgm(np.full((2, 2), 9, dtype=np.uint8), tmp_path / "bad.pgm")
        with pytest.raises(DataError):
            load_labels(tmp_path / "bad.pgm")


def mutate(blob: bytes, data) -> bytes:
    """One byte-level edit: overwrite, insert or delete a few bytes, or cut
    the file short; positions favour the header at the start of the file."""
    end = data.draw(st.sampled_from([min(len(blob), 16), len(blob)]))
    at = data.draw(st.integers(0, end))
    chunk = data.draw(st.binary(min_size=1, max_size=4) | st.sampled_from(
        [b" ", b"\n", b"#", b"-", b"0", b"9" * 30, b"\x00", b"\xff"]))
    how = data.draw(st.sampled_from(["overwrite", "insert", "delete", "cut"]))
    if how == "overwrite":
        return blob[:at] + chunk + blob[at + len(chunk):]
    if how == "insert":
        return blob[:at] + chunk + blob[at:]
    if how == "delete":
        return blob[:at] + blob[at + len(chunk):]
    return blob[:at]


class TestMutatedFiles:
    """A mutated cube header or label map loads cleanly or is a data error.

    Every rejection must be a ``DataError``, which ``train`` turns into
    exit code 3; a load that succeeds must give what the file describes.
    """

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("scene")
        x1, x2, labels = synth_dataset(5, 4, 3, seed=2)
        save_cube(x1, out / "t1.json")
        save_cube(x2, out / "t2.json")
        save_labels(labels, out / "labels.pgm")
        return out

    @staticmethod
    def train_exit(scene, t1, labels):
        return main(["train", str(t1), str(scene / "t2.json"), str(labels),
                     "--epochs", "1", "--out-dir", str(scene / "run")])

    def check_cube(self, scene, text: bytes):
        edited = scene / "edited.json"
        edited.write_bytes(text)
        try:
            cube = load_cube(edited)
        except DataError as exc:
            # As the second epoch, the header fails the same check.
            with pytest.raises(type(exc)):
                subtract_cube(load_cube(scene / "t1.json"), edited)
            assert self.train_exit(scene, edited, scene / "labels.pgm") == 3
            return
        header = json.loads(text)
        dims = tuple(header[k] for k in ("height", "width", "bands"))
        assert cube.values.shape == dims
        payload = (scene / str(header["payload"])).read_bytes()
        assert cube.values.astype("<f4").tobytes() == payload
        x1 = load_cube(scene / "t1.json")
        if x1.values.shape != dims:
            with pytest.raises(ContractError, match="cube shapes differ"):
                subtract_cube(x1, edited)
        else:
            expected = difference(x1, cube).values
            assert subtract_cube(x1, edited).values.tobytes() == expected.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=st.one_of(
        st.none(), st.booleans(), st.integers(), st.floats(),
        st.text(max_size=6), st.lists(st.integers(0, 9), max_size=3),
        st.sampled_from([10 ** 400, -(10 ** 400), 3.0, "3", "", ".", "..",
                         "t2.raw", "t1.json", "\x00", "x" * 300,
                         "f64le", "band-sequential"])))
    def test_cube_header_field_edits(self, scene, data, value):
        header = json.loads((scene / "t1.json").read_text())
        key = data.draw(st.sampled_from(sorted(header)))
        if data.draw(st.booleans()):
            header[key] = value
        else:
            del header[key]
        self.check_cube(scene, json.dumps(header).encode())

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_cube_header_byte_edits(self, scene, data):
        self.check_cube(scene, mutate((scene / "t1.json").read_bytes(), data))

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_label_map_byte_edits(self, scene, data):
        edited = scene / "edited.pgm"
        edited.write_bytes(mutate((scene / "labels.pgm").read_bytes(), data))
        try:
            labels = load_labels(edited)
        except DataError:
            assert self.train_exit(scene, scene / "t1.json", edited) == 3
            return
        assert labels.labels.dtype == np.uint8 and labels.labels.ndim == 2
        assert np.all(np.isin(labels.labels, (0, 1, 255)))
