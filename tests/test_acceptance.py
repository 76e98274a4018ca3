"""Acceptance suite: one test and one printed pass/fail line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they happen.
"""

import time

import numpy as np

from spectralkan import (FullKanLayer, ModelConfig, TrainConfig, Variant,
                         basis_derivatives, basis_values, build_model,
                         difference, gradient_check, init_params, kappa,
                         normalize, overall_accuracy, patch_set, SplineGrid,
                         stratified_split, synth_dataset, tally, train)
from spectralkan.cli import main, predict_at

from test_data import flat_label_map


def _line(num: int, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" - {detail}" if detail else ""
    print(f"\nACCEPTANCE {num}: {tag}{suffix}")


def _config(variant: Variant, bands: int) -> ModelConfig:
    return ModelConfig(variant=variant, patch_size=5, bands=bands,
                       spatial_nodes=[25, 16, 1],
                       spectral_nodes=[bands, 16, 2])


def test_criterion_1_parameter_tables():
    cases = [
        ("SPECTRAL_KAN b=155", Variant.SPECTRAL_KAN, 155, 7_552, 8),
        ("SPECTRAL_KAN b=198", Variant.SPECTRAL_KAN, 198, 9_272, 9),
        ("SPECTRAL_KAN b=154", Variant.SPECTRAL_KAN, 154, 7_512, 8),
        ("SPECTRAL_KAN b=224", Variant.SPECTRAL_KAN, 224, 10_312, 10),
        # Dense layers count d_in*d_out + d_out, the logits layer included.
        # (3875*16 + 16) + (16*2 + 2)
        ("MLP b=155", Variant.MLP, 155, 62_050, 62),
        # (25*16 + 16) + (16*1 + 1) + (155*16 + 16) + (16*2 + 2)
        ("MLP_SS b=155", Variant.MLP_SS, 155, 2_963, 3),
        ("KAN b=155", Variant.KAN, 155, 620_320, 620),
        ("KAN_ENC b=155", Variant.KAN_ENC, 155, 155_192, 155),
        ("KAN_SS b=155", Variant.KAN_SS, 155, 29_280, 29),
    ]
    failures = []
    for name, variant, bands, exact, rounded_k in cases:
        total = build_model(_config(variant, bands), seed=0).total_params()
        if total != exact:
            failures.append(f"{name}: expected {exact}, got {total}")
        if round(total / 1000) != rounded_k:
            failures.append(f"{name}: rounds to {round(total / 1000)}k, "
                            f"expected {rounded_k}k")
    _line(1, not failures, "; ".join(failures) or
          "all parameter totals exact and rounding to the expected k values")
    assert not failures, "; ".join(failures)


def test_criterion_2_flop_difference_identity():
    grid = SplineGrid()
    rng = np.random.default_rng(2)
    for _ in range(20):
        d_in = int(rng.integers(1, 512))
        d_out = int(rng.integers(1, 512))
        full = init_params("full", d_in, d_out, grid=grid, seed=0)
        shared = init_params("shared", d_in, d_out, grid=grid, seed=0)
        assert full.flop_count() - shared.flop_count() \
            == 100 * d_in * (d_out - 1)
    _line(2, True, "full-vs-shared FLOP gap is 100*d_in*(d_out-1) on 20 "
                   "random shapes (absolute headline FLOP totals are "
                   "out of scope by design)")


def test_criterion_3_gradients_for_all_variants():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    patches = rng.uniform(-0.9, 0.9, (8, 3, 3, 4))
    labels = np.arange(8) % 2
    worst = {}
    for variant in Variant:
        config = ModelConfig(variant=variant, patch_size=3, bands=4,
                             spatial_nodes=[9, 4, 1], spectral_nodes=[4, 4, 2])
        model = build_model(config, seed=3)
        worst[variant.value] = gradient_check(model, patches, labels,
                                              step=1e-6)
    elapsed = time.perf_counter() - start
    ok = all(err <= 1e-5 for err in worst.values()) and elapsed < 10.0
    detail = ", ".join(f"{k}={v:.2e}" for k, v in worst.items())
    _line(3, ok, f"{detail} in {elapsed:.1f}s")
    assert elapsed < 10.0
    for variant, err in worst.items():
        assert err <= 1e-5, f"{variant}: {err}"


def test_criterion_4_spline_invariants():
    start = time.perf_counter()
    grid = SplineGrid()
    xs = np.linspace(-1.0, 1.0, 1000)
    partition = np.abs(basis_values(grid, xs).sum(axis=-1) - 1.0).max()
    deriv_sum = np.abs(basis_derivatives(grid, xs).sum(axis=-1)).max()
    elapsed = time.perf_counter() - start
    ok = partition <= 1e-12 and deriv_sum <= 1e-10 and elapsed < 1.0
    _line(4, ok, f"partition err {partition:.2e}, derivative sum "
                 f"{deriv_sum:.2e} in {elapsed * 1000:.0f}ms")
    assert partition <= 1e-12
    assert deriv_sum <= 1e-10
    assert elapsed < 1.0


def test_criterion_5_shared_full_equivalence():
    grid = SplineGrid()
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(10):
        d_in = int(rng.integers(1, 33))
        d_out = int(rng.integers(1, 33))
        shared = init_params("shared", d_in, d_out, grid=grid,
                             seed=int(rng.integers(1 << 31)))
        coeff = np.broadcast_to(shared.spline_coeff,
                                (d_out,) + shared.spline_coeff.shape).copy()
        full = FullKanLayer(shared.base_weight.copy(),
                            shared.spline_scale.copy(), coeff, grid)
        x = rng.uniform(-1.2, 1.2, (100, d_in))
        diff = np.abs(shared.forward(x)[0] - full.forward(x)[0]).max()
        worst = max(worst, diff)
    _line(5, worst <= 1e-12, f"max forward difference {worst:.2e} over 10 "
                             "shapes x 100 inputs")
    assert worst <= 1e-12


def test_criterion_6_end_to_end_change_detection():
    start = time.perf_counter()
    x1, x2, labels = synth_dataset(64, 64, 30, change_fraction=0.3,
                                   noise_sigma=0.1, seed=7)
    cube = normalize(difference(x1, x2))
    split = stratified_split(labels, 0.01, seed=7)
    config = ModelConfig(variant=Variant.SPECTRAL_KAN, patch_size=5, bands=30,
                         spatial_nodes=[25, 16, 1], spectral_nodes=[30, 16, 2])
    model = build_model(config, seed=7)
    train_set = patch_set(cube, labels, split.train_indices, 5)
    model, _ = train(model, train_set, TrainConfig(seed=7))
    pred = predict_at(model, cube, split.test_indices)
    truth = labels.labels[split.test_indices[:, 0], split.test_indices[:, 1]]
    cm = tally(pred, truth)
    oa, k = overall_accuracy(cm), kappa(cm)
    elapsed = time.perf_counter() - start
    ok = oa >= 0.95 and k >= 0.90 and elapsed < 300.0
    _line(6, ok, f"OA {oa:.4f} (>=0.95), kappa {k:.4f} (>=0.90) in "
                 f"{elapsed:.0f}s on the 64x64x30 synthetic scene")
    assert oa >= 0.95
    assert k >= 0.90
    assert elapsed < 300.0


def test_criterion_7_split_count_reproduction():
    datasets = {
        "Farmland": (44_723, 18_277, 0, (447, 182, 44_276, 18_095)),
        "river": (101_885, 9_698, 0, (1_018, 96, 100_867, 9_602)),
        "Bay Area": (34_211, 39_270, 226_519, (342, 392, 33_869, 38_878)),
        "Santa Barbara": (80_418, 52_134, 595_608, (804, 521, 79_614, 51_613)),
    }
    failures = []
    for name, (unchanged, changed, unknown, expected) in datasets.items():
        labels = flat_label_map(unchanged, changed, unknown=unknown)
        split = stratified_split(labels, 0.01, seed=1)
        at = lambda coords: labels.labels[coords[:, 0], coords[:, 1]]
        got = ((at(split.train_indices) == 0).sum(),
               (at(split.train_indices) == 1).sum(),
               (at(split.test_indices) == 0).sum(),
               (at(split.test_indices) == 1).sum())
        if tuple(int(v) for v in got) != expected:
            failures.append(f"{name}: {got} != {expected}")
        if np.any(at(split.train_indices) == 255) or \
                np.any(at(split.test_indices) == 255):
            failures.append(f"{name}: unknown pixels sampled")
    _line(7, not failures, "; ".join(failures) or
          "train/test counts match on all four label tallies")
    assert not failures, "; ".join(failures)


def test_criterion_8_run_determinism(tmp_path):
    synth = ["synth", "--height", "48", "--width", "48", "--bands", "16",
             "--change-fraction", "0.3", "--noise-sigma", "0.1",
             "--seed", "7", "--out-dir", str(tmp_path / "data")]
    assert main(synth) == 0
    data = tmp_path / "data"

    def run(tag: str) -> None:
        out = tmp_path / f"train-{tag}"
        args = ["train", str(data / "t1.json"), str(data / "t2.json"),
                str(data / "labels.pgm"), "--seed", "11",
                "--out-dir", str(out)]
        assert main(args) == 0
        ev = tmp_path / f"eval-{tag}"
        args = ["eval", str(out / "model.ckpt"), str(data / "t1.json"),
                str(data / "t2.json"), str(data / "labels.pgm"),
                "--seed", "11", "--out-dir", str(ev)]
        assert main(args) == 0

    run("a")
    run("b")
    mismatched = []
    for rel in ("train-a/model.ckpt", "train-a/history.csv",
                "train-a/metrics.json", "eval-a/metrics.json",
                "eval-a/change_map.pgm"):
        other = rel.replace("-a/", "-b/")
        if (tmp_path / rel).read_bytes() != (tmp_path / other).read_bytes():
            mismatched.append(rel)
    _line(8, not mismatched, "; ".join(mismatched) or
          "checkpoints, histories, metrics and change maps byte-identical "
          "across reruns")
    assert not mismatched, f"outputs differ: {mismatched}"
