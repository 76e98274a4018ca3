"""Where the traced run hooks into the package, and the per-layer metrics.

The layers are the package's modules: data, spline, layers, model,
training, metrics and cli. Each hook wraps a name on the module or class
that calls it, so spans nest the way the calls do.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from spectralkan import cli, data, layers, model, training
from spectralkan.model import Variant

from harness import has_ancestor, median, self_times
from workloads import VARIANTS

# The 18 layer instances of the ablation grid, two per stack.
LAYER_INSTANCES = [f"{v}.{stack}.{i}" for v in VARIANTS
                   for stack in (("spatial", "spectral") if Variant(v).spatial_spectral
                                 else ("flat",))
                   for i in range(2)]

_UNITS = {"s": "s", "self_s": "s", "calls": "count", "elements": "count",
          "bytes_out": "bytes", "nonzero_share": "share",
          "outside_domain_share": "share", "forward_ms": "ms",
          "backward_ms": "ms", "step_ms": "ms", "peak_alloc_mb": "MB",
          "ns_per_accounted_flop": "ns/flop", "overhead": "ratio"}

PER_LAYER = (
    [f"spline.basis_values.{k}" for k in ("s", "calls", "elements", "bytes_out",
                                          "nonzero_share", "outside_domain_share")]
    + ["spline.basis_derivatives.s", "spline.basis_derivatives.calls"]
    + [f"layers.{kind}.{d}.self_s" for kind in ("shared", "full", "dense")
       for d in ("forward", "backward")]
    + ["layers.sigmoid.s", "layers.sigmoid.calls"]
    + ["data.extract_patches.s", "data.extract_patches.calls", "data.extract_patches.bytes_out"]
    + [f"data.{f}.s" for f in ("load_cube", "difference", "normalize", "patch_set",
                               "stratified_split")]
    + ["model.load_checkpoint.s", "model.save_checkpoint.s",
       "model.forward.self_s", "model.backward.self_s", "cli.predict_at.self_s"]
    + ["training.train.s", "training.adam_step.s", "training.adam_step.calls",
       "training.softmax_cross_entropy.s", "metrics.tally.s"]
    + [f"layers.{inst}.{d}" for inst in LAYER_INSTANCES for d in ("forward_ms", "backward_ms")]
    + [f"model.{v}.{k}" for v in VARIANTS
       for k in ("step_ms", "peak_alloc_mb", "ns_per_accounted_flop")]
    + ["trace.overhead"]
)


def unit_of(name: str) -> str:
    return _UNITS[name.rsplit(".", 1)[1]]


def _count_basis(tracer, args, result) -> None:
    grid, x = args[0], np.asarray(args[1])
    c = tracer.counts
    c["spline.basis_values.elements"] += x.size
    c["spline.basis_values.bytes_out"] += result.nbytes
    c["spline.basis_values.nonzero"] += np.count_nonzero(result)
    c["spline.basis_values.outside"] += np.count_nonzero((x < grid.lo) | (x > grid.hi))


def _count_patches(tracer, args, result) -> None:
    tracer.counts["data.extract_patches.bytes_out"] += result.nbytes


def install(hooks) -> None:
    """Wrap every traced name; the phase hooks are already in place."""
    wrap = hooks.wrap
    for name in ("load_cube", "difference", "normalize", "patch_set", "stratified_split"):
        wrap(cli, name, f"data.{name}")
    wrap(cli, "extract_patches", "data.extract_patches", after=_count_patches)
    wrap(data, "extract_patches", "data.extract_patches", after=_count_patches)
    wrap(cli, "load_checkpoint", "model.load_checkpoint")
    wrap(cli, "save_checkpoint", "model.save_checkpoint")
    wrap(cli, "tally", "metrics.tally")
    wrap(model.Model, "forward", "model.forward", tagged=True)
    wrap(model.Model, "backward", "model.backward", tagged=True)
    wrap(training, "adam_step", "training.adam_step")
    wrap(training, "softmax_cross_entropy", "training.softmax_cross_entropy")
    wrap(layers, "sigmoid", "layers.sigmoid")
    wrap(layers, "basis_values", "spline.basis_values", after=_count_basis)
    wrap(layers, "basis_derivatives", "spline.basis_derivatives")
    for cls in (layers.SharedKanLayer, layers.FullKanLayer, layers.DenseLayer):
        for direction in ("forward", "backward"):
            wrap(cls, direction, f"layers.{cls.kind}.{direction}", tagged=True)


def per_layer(run, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics from the traced jobs of ``run``, per job."""
    spans = run.tracer.spans
    own = self_times(spans)
    jobs = [r for r in run.jobs if r["detailed"]]
    n = len(jobs)
    first = run.detail_from
    total, self_s, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    fwd, bwd = defaultdict(list), defaultdict(list)
    train_s, forward_predict = defaultdict(list), defaultdict(float)
    for i in range(first, len(spans)):
        name, start, end, _, tag = spans[i]
        total[name] += end - start
        self_s[name] += own[i]
        calls[name] += 1
        if tag is None:
            continue
        if name.startswith("layers.") and has_ancestor(spans, i, "training.train"):
            (fwd if name.endswith("forward") else bwd)[tag].append(end - start)
        elif name == "training.train":
            train_s[tag].append(end - start)
        elif name == "model.forward" and has_ancestor(spans, i, "cli.predict_at"):
            forward_predict[tag] += end - start

    out = {}
    for metric in PER_LAYER:
        span, key = metric.rsplit(".", 1)
        if key == "s":
            out[metric] = total[span] / n
        elif key == "self_s":
            out[metric] = self_s[span] / n
        elif key == "calls":
            out[metric] = calls[span] / n
        elif key in ("elements", "bytes_out"):
            out[metric] = run.tracer.counts[metric] / n
    c = run.tracer.counts
    out["spline.basis_values.nonzero_share"] = (
        c["spline.basis_values.nonzero"] * 8 / c["spline.basis_values.bytes_out"]
        if c["spline.basis_values.bytes_out"] else 0.0)
    out["spline.basis_values.outside_domain_share"] = (
        c["spline.basis_values.outside"] / c["spline.basis_values.elements"]
        if c["spline.basis_values.elements"] else 0.0)

    s = run.workload.sizes
    for inst in LAYER_INSTANCES:
        out[f"layers.{inst}.forward_ms"] = 1e3 * median(fwd[inst]) if fwd[inst] else 0.0
        out[f"layers.{inst}.backward_ms"] = 1e3 * median(bwd[inst]) if bwd[inst] else 0.0
    for v in VARIANTS:
        out[f"model.{v}.step_ms"] = (1e3 * median(train_s[v]) / s.abl_steps
                                     if train_s[v] else 0.0)
        out[f"model.{v}.peak_alloc_mb"] = max(run.peak_alloc[v], default=0.0)
        pixels = n * s.abl_predict
        out[f"model.{v}.ns_per_accounted_flop"] = (
            1e9 * forward_predict[v] / pixels / run.recorded_flops[v]
            if forward_predict[v] else 0.0)
    out["trace.overhead"] = median([r["wall_s"] for r in jobs]) / untraced_wall
    return out
