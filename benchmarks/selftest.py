"""Fast self-test of the benchmark at toy sizes (about a minute).

    python3 benchmarks/selftest.py

Checks the self-time arithmetic on a hand-built span tree, then runs every
workload untraced and traced at toy sizes and checks that each metric
named in BENCHMARK.json is printed with its unit, and no other.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

import run


def check_self_times() -> None:
    from harness import self_times
    # job [0, 10] holds a [1, 4] (which holds c [2, 3]) and b [3.5, 6];
    # a and b overlap by 0.5 s, which counts once against the job.
    spans = [["job", 0.0, 10.0, -1, None], ["a", 1.0, 4.0, 0, None],
             ["c", 2.0, 3.0, 1, None], ["b", 3.5, 6.0, 0, None]]
    got = self_times(spans)
    want = [5.0, 2.0, 1.0, 2.5]
    assert all(abs(g - w) < 1e-12 for g, w in zip(got, want)), (got, want)


def check_workloads(spec: dict) -> None:
    from workloads import FULL, WORKLOADS
    toy = FULL.__class__(
        c6_scene=(48, 48, 6), c6_epochs=200, c6_train_patches=22, c6_test_pixels=2282,
        farm_scene=(60, 40, 8), farm_ckpt_epochs=200, farm_pixels=2400,
        farm_test_pixels=2377, farm_sample=16,
        abl_scene=(12, 12, 8), abl_steps=1, abl_batch=8, abl_predict=8,
        c6_floors=(0.8, 0.6))  # the toy c6 scene is too small for more
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    with tempfile.TemporaryDirectory(dir=run.BENCH) as tmp:
        for name, cls in WORKLOADS.items():
            for trace in (0, 1):
                result = run.measure(cls(toy), seed=1, seconds=0.0, trace=bool(trace),
                                     cache=Path(tmp), out=Path(tmp))
                with contextlib.redirect_stdout(io.StringIO()) as buf:
                    run.report(result, out=Path(tmp))
                    print(run.contract_line(result["correct"], result["attempted"],
                                             result["failed"], result["metrics"]))
                line = json.loads(buf.getvalue().splitlines()[-1])
                assert set(line) == {"correct", "attempted", "failed", "metrics"}
                printed = {k: v["unit"] for k, v in line["metrics"].items()}
                assert printed == wanted[trace], (name, trace, set(printed) ^ set(wanted[trace]))
                for key, value in line["metrics"].items():
                    assert f"   {key} " in buf.getvalue(), key
                    assert isinstance(value["value"], (int, float)), key
                print(f"{name} trace={trace}: {len(printed)} metrics printed, "
                      f"correct={line['correct']} problems={result['problems']}")
                assert line["correct"] and line["failed"] == 0, result["problems"]
                if trace:
                    calls = line["metrics"]["spline.basis_values.calls"]["value"]
                    assert (calls == 0) == (name == "farmland-eval"), (name, calls)


def main() -> int:
    run.use_source_tree()
    check_self_times()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_workloads(spec)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
