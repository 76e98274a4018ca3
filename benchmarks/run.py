"""Run one benchmark workload (or all three) and print its metrics.

    python3 benchmarks/run.py --workload c6-train --seed 3 --seconds 30 --trace 0

Each workload is a closed loop with one caller: jobs run back to back, each
to completion, until the next one would end past ``--seconds`` (at least
two jobs untraced). ``--trace 0`` prints the end-to-end metrics; ``--trace 1``
runs one untraced job, then traced jobs, and prints the per-layer metrics.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. Inputs are generated once per
seed under ``benchmarks/cache`` and results go to ``benchmarks/out``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CACHE = BENCH / "cache"
OUT = BENCH / "out"
KEEP_SEEDS = 3          # cached input sets kept per workload
SETUP_REPS = (5, 25, 1.0)  # set-up-only repetitions: at least 5, then up to
                           # 25 while they have taken under a second
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def use_source_tree():
    """Import the package from this checkout's ``src``, never from elsewhere.

    BLAS threads are capped before numpy loads: one thread keeps the load a
    single process on one core, which is also what steadies the timings.
    """
    for var in THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import spectralkan
    if Path(spectralkan.__file__).resolve().parent != ROOT / "src" / "spectralkan":
        raise ImportError(f"spectralkan imported from {spectralkan.__file__}, "
                          f"not from {ROOT / 'src'}")
    return spectralkan


def ensure_inputs(workload, seed: int, cache: Path = CACHE) -> dict:
    """The seed's input files, generated in a child process on first use."""
    base = cache / workload.name
    target = base / f"seed-{seed}"
    if not (target / "done").exists():
        tmp = base / f".tmp-seed-{seed}"
        shutil.rmtree(tmp, ignore_errors=True)
        tmp.mkdir(parents=True)
        env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        sizes = json.dumps(dataclasses.asdict(workload.sizes))
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), workload.name,
                        str(seed), str(tmp), sizes], env=env, check=True)
        (tmp / "done").write_text("")
        shutil.rmtree(target, ignore_errors=True)
        tmp.rename(target)
    (target / "done").touch()
    stale = sorted(base.glob("seed-*"), key=lambda p: (p / "done").stat().st_mtime
                   if (p / "done").exists() else 0.0)[:-KEEP_SEEDS]
    for old in stale:
        shutil.rmtree(old, ignore_errors=True)
    files = [p for p in target.iterdir() if p.name != "done"]
    return {"dir": target, "bytes": sum(p.stat().st_size for p in files)}


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def _git(*args) -> str | None:
    try:
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                             text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def environment(input_bytes: int) -> dict:
    import numpy as np
    top = _git("rev-parse", "--show-toplevel")
    in_repo = top is not None and Path(top).resolve() == ROOT
    cpu_model = next((line.split(":", 1)[1].strip()
                      for line in _read("/proc/cpuinfo").splitlines()
                      if line.startswith("model name")), platform.processor())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": _git("rev-parse", "HEAD") if in_repo else "unknown",
        "git_dirty": bool(_git("status", "--porcelain", "--untracked-files=no"))
        if in_repo else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "l3_bytes": _read("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "input_bytes": input_bytes,
    }


def measure(workload, seed: int, seconds: float, trace: bool,
            cache: Path = CACHE, out: Path = OUT) -> dict:
    import harness
    import tracepoints
    from spectralkan import cli

    inputs = ensure_inputs(workload, seed, cache)
    out_dir = out / f"job-{workload.name}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run = harness.Run(workload, inputs, seed, out_dir)
    run.install_phase_hooks(cli)
    start = time.perf_counter()
    try:
        least, most, budget = SETUP_REPS
        while len(run.setup_samples) < least or (
                len(run.setup_samples) < most and time.perf_counter() - start < budget):
            run.time_setup()
        # Untimed: on a 2-vCPU Xeon VM the first job in a process ran 5-30%
        # slower than the next one.
        run.warm_up()
        start = time.perf_counter()
        if not trace:
            run.loop(seconds, min_jobs=2)
            run.hooks.require(workload.phase_hooks)
        else:
            baseline = run.run_job()
            if baseline is None:
                raise RuntimeError("untraced job failed: " + "; ".join(run.problems))
            tracepoints.install(run.hooks)
            run.detailed, run.detail_from = True, len(run.tracer.spans)
            if workload.traces_memory:
                tracemalloc.start()
            try:
                run.loop(seconds - (time.perf_counter() - start), min_jobs=1)
            finally:
                tracemalloc.stop()
            run.hooks.require(workload.phase_hooks + workload.detail_hooks)
    finally:
        run.hooks.restore()
    timed = [r for r in run.jobs if r["detailed"] == trace]
    if not timed:
        raise RuntimeError("no job completed: " + "; ".join(run.problems))

    extras = {"jobs": (len(timed), "count"),
              "cpu_s": (harness.median(r["cpu_s"] for r in timed), "s"),
              "cpu_per_wall": (harness.median(r["cpu_s"] / r["wall_s"] for r in timed),
                               "ratio")}
    if any(r.get("train_patches") for r in timed):
        extras["train_patches_per_s"] = (
            harness.median(r["train_patches"] / r["train_s"] for r in timed), "1/s")
    for key, unit in (("oa", "share"), ("kappa", "share"), ("criterion6_met", "bool")):
        if key in timed[0]:
            extras[key] = (timed[0][key], unit)
    if trace:
        values = tracepoints.per_layer(run, baseline["wall_s"])
        metrics = {k: (values[k], tracepoints.unit_of(k)) for k in tracepoints.PER_LAYER}
        first = run.detail_from
        spans = [[name, t0, t1, parent - first if parent >= first else -1, tag]
                 for name, t0, t1, parent, tag in run.tracer.spans[first:]]
        (out / f"{workload.name}-seed{seed}-spans.json").write_text(json.dumps(spans))
    else:
        metrics = {
            "setup_s": (harness.median(run.setup_samples), "s"),
            "wall_s": (harness.median(r["wall_s"] for r in timed), "s"),
            "predict_pixels_per_s": (harness.median(
                r["predict_pixels"] / r["predict_s"] for r in timed), "1/s"),
            "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        }
    return {"workload": workload.name, "seed": seed, "trace": int(trace),
            "seconds": seconds, "correct": run.failed == 0,
            "attempted": run.attempted, "failed": run.failed,
            "problems": run.problems, "metrics": metrics, "extras": extras,
            "jobs": run.jobs, "layer_flops": run.layer_flops,
            "env": environment(inputs["bytes"])}


def report(result: dict, out: Path = OUT) -> None:
    """Human-readable lines, and the full record under ``out``."""
    name = f"{result['workload']}-seed{result['seed']}-trace{result['trace']}"
    print(f"== {result['workload']} seed={result['seed']} trace={result['trace']}: "
          f"{result['attempted']} jobs, {result['failed']} failed")
    for problem in result["problems"]:
        print(f"   problem: {problem}")
    for key, (value, unit) in {**result["metrics"], **result["extras"]}.items():
        print(f"   {key:<44} {value:>16.6g} {unit}")
    print("   env " + json.dumps(result["env"], sort_keys=True))
    (out / f"{name}.json").write_text(json.dumps(result, indent=1, default=str) + "\n")


def contract_line(correct, attempted, failed, metrics) -> str:
    return json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                       "metrics": {k: {"value": v, "unit": u}
                                   for k, (v, u) in metrics.items()}})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["c6-train", "farmland-eval", "ablation-b155", "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    use_source_tree()
    from workloads import WORKLOADS
    OUT.mkdir(parents=True, exist_ok=True)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = []
    for name in names:
        result = measure(WORKLOADS[name](), args.seed, args.seconds, bool(args.trace))
        report(result)
        results.append(result)
    if len(results) == 1:
        r = results[0]
        print(contract_line(r["correct"], r["attempted"], r["failed"], r["metrics"]))
    else:
        # All workloads in one process: peak_rss_mb is the process's peak so far.
        print(contract_line(
            all(r["correct"] for r in results), sum(r["attempted"] for r in results),
            sum(r["failed"] for r in results),
            {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
