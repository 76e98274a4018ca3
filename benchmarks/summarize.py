"""Summarize untraced results across seeds: median, quartiles and spread.

    python3 benchmarks/summarize.py [--write benchmarks/baseline.json]

Reads every ``benchmarks/out/<workload>-seed<n>-trace0.json`` and, for each
end-to-end metric of each workload, prints the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread, the interquartile
distance as a share of the median, next to the metric's bound. The spread
of ``setup_s`` is shown but its bound applies only to medians. The saved
summary also keeps the per-layer metrics of each workload's traced runs.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def summarize(out_dir: Path, spec: dict) -> dict:
    results: dict[str, list[dict]] = {}
    traced: dict[str, list[dict]] = {}
    for path in sorted(out_dir.glob("*-trace[01].json")):
        result = json.loads(path.read_text())
        (traced if result["trace"] else results).setdefault(
            result["workload"], []).append(result)
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for metric in spec["end_to_end"]:
            values = [r["metrics"][metric["name"]][0] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med,) * 3
            rows[metric["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                "bound": metric["bound"], "unit": metric["unit"], "values": values}
        extras = sorted({k for r in runs for k in r["extras"]})
        summary[workload] = {
            "seeds": [r["seed"] for r in runs],
            "correct": all(r["correct"] for r in runs),
            "metrics": rows,
            "extras_median": {k: statistics.median(r["extras"][k][0] for r in runs
                                                   if k in r["extras"]) for k in extras},
            "traced": [{"seed": r["seed"], "metrics": r["metrics"],
                        "layer_flops": r["layer_flops"]} for r in traced.get(workload, [])],
            "env": runs[-1]["env"]}
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BENCH / "out")
    parser.add_argument("--write", type=Path, help="also save the summary as JSON")
    args = parser.parse_args(argv)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    summary = summarize(args.out, spec)
    steady = True
    for workload, s in summary.items():
        print(f"{workload}: {len(s['seeds'])} runs, seeds {s['seeds']}, "
              f"all correct: {s['correct']}")
        for name, row in s["metrics"].items():
            flag = "" if name == "setup_s" or row["spread"] < row["bound"] / 3 else "  <-- wide"
            steady &= not flag
            print(f"  {name:<22} median {row['median']:12.6g} {row['unit']:<4} "
                  f"q1 {row['q1']:12.6g} q3 {row['q3']:12.6g} "
                  f"spread {row['spread']:.4f} (bound {row['bound']}){flag}")
    if args.write:
        args.write.write_text(json.dumps(summary, indent=1, sort_keys=True) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
