"""Spans, call hooks and the timed job loop shared by every workload.

Spans are recorded from the benchmark's own files: a hook replaces a
callable on the module or class that calls it, times each call, and the
original is put back when the run ends. The package is not modified.
"""

from __future__ import annotations

import functools
import resource
import statistics
import time
import tracemalloc
from collections import Counter, defaultdict


class SetupDone(Exception):
    """Raised by a phase hook when a run only times the set-up."""


class HookError(RuntimeError):
    """A hook the workload relies on never fired, so its figures would be 0."""


class Tracer:
    """Spans and counters kept in memory for one run.

    A span is ``[name, start, end, parent, tag]``: ``parent`` is the index of
    the span open when it began (-1 at top level), and ``tag`` names the
    model or layer instance the call ran on when that instance was
    registered in ``tags`` (keyed by ``id``).
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.tags: dict[int, str] = {}
        self._open: list[int] = []

    def begin(self, name: str, tag: str | None = None) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, self.clock(), None, parent, tag])
        self._open.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, idx: int) -> None:
        self.spans[idx][2] = self.clock()
        if self._open.pop() != idx:
            raise RuntimeError(f"span {self.spans[idx][0]!r} closed out of order")

    def close_all(self) -> None:
        """End every open span, innermost first, after an exception."""
        while self._open:
            self.end(self._open[-1])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _, _) in enumerate(spans):
        covered, reach = 0.0, start
        for c_start, c_end in sorted(children.get(i, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


class Hooks:
    """Recording wrappers installed on modules and classes for one run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.calls: Counter = Counter()
        self.stop_at_phase = False
        self.active = True
        self._saved: list[tuple] = []

    def wrap(self, owner, attr: str, name: str, *, phase: bool = False,
             tagged: bool = False, after=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``phase`` marks the calls whose first one ends the set-up. ``after``
        runs on ``(tracer, args, result)`` inside a ``trace.after`` span, so
        its cost is excluded from the self time of the caller's span.
        """
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer, calls = self.tracer, self.calls

        def wrapper(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            if phase and self.stop_at_phase:
                raise SetupDone(name)
            calls[name] += 1
            tag = tracer.tags.get(id(args[0])) if tagged else None
            idx = tracer.begin(name, tag)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if after is not None:
                idx = tracer.begin("trace.after")
                try:
                    after(tracer, args, result)
                finally:
                    tracer.end(idx)
            return result

        functools.update_wrapper(wrapper, orig)
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, orig))

    def require(self, names) -> None:
        missing = [n for n in names if self.calls[n] == 0]
        if missing:
            raise HookError(f"expected hooks never fired: {', '.join(missing)}")

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()


def cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def peak_rss_mb() -> float:
    # Linux reports ru_maxrss in KiB.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median(values) -> float:
    return float(statistics.median(values))


class Run:
    """One workload measured for a fixed time in this process.

    ``observed`` collects ``(args, result)`` of every phase call of the
    current job so the workload can check what the program returned.
    """

    def __init__(self, workload, inputs: dict, seed: int, out_dir):
        self.workload = workload
        self.inputs = inputs
        self.seed = seed
        self.out_dir = out_dir
        self.tracer = Tracer()
        self.hooks = Hooks(self.tracer)
        self.observed: dict[str, list] = defaultdict(list)
        self.detailed = False
        self.detail_from = 0
        self.setup_samples: list[float] = []
        self.jobs: list[dict] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict = {}
        self.recorded_flops: dict[str, int] = {}
        self.layer_flops: dict[str, int] = {}
        self.peak_alloc: dict[str, list[float]] = defaultdict(list)

    def variant_start(self, variant: str, model) -> None:
        """Tag a freshly built model and its layers, and record its FLOPs."""
        tags = self.tracer.tags
        tags[id(model)] = variant
        total = 0
        for stack, layers, per_patch in (
                ("spatial", model.spatial_stack, model.config.bands),
                ("flat" if not model.spatial_stack else "spectral",
                 model.spectral_stack, 1)):
            for i, layer in enumerate(layers):
                tags[id(layer)] = f"{variant}.{stack}.{i}"
                self.layer_flops[tags[id(layer)]] = layer.flop_count()
                total += per_patch * layer.flop_count()
        self.recorded_flops[variant] = total
        if self.detailed:
            tracemalloc.reset_peak()

    def variant_end(self, variant: str) -> None:
        if self.detailed:
            self.peak_alloc[variant].append(tracemalloc.get_traced_memory()[1] / 2**20)

    def _observe(self, name):
        def after(tracer, args, result):
            self.observed[name].append((args, result))
        return after

    def install_phase_hooks(self, cli_module) -> None:
        self.hooks.wrap(cli_module, "train", "training.train", phase=True,
                        tagged=True, after=self._observe("training.train"))
        self.hooks.wrap(cli_module, "predict_at", "cli.predict_at", phase=True,
                        tagged=True, after=self._observe("cli.predict_at"))

    def time_setup(self) -> None:
        """Run the job only up to its first phase call and time that."""
        self.hooks.stop_at_phase = True
        start = self.tracer.clock()
        try:
            self.workload.job(self)
        except SetupDone:
            self.setup_samples.append(self.tracer.clock() - start)
        else:
            raise RuntimeError("job finished without reaching a phase call")
        finally:
            self.hooks.stop_at_phase = False
            self.observed.clear()

    def warm_up(self) -> None:
        """An untimed, unchecked job that fills caches and the allocator."""
        try:
            getattr(self.workload, "warm_up", self.workload.job)(self)
        finally:
            self.observed.clear()

    def run_job(self) -> dict | None:
        """One job to completion; returns its record, or None if it raised."""
        tracer = self.tracer
        first = len(tracer.spans)
        self.attempted += 1
        cpu0 = cpu_seconds()
        idx = tracer.begin("job")
        try:
            self.workload.job(self)
        except Exception as exc:  # a crashing job counts as failed, not fatal
            tracer.close_all()
            self.failed += 1
            self.problems.append(f"job raised {type(exc).__name__}: {exc}")
            self.observed.clear()
            return None
        tracer.end(idx)
        cpu = cpu_seconds() - cpu0
        spans = tracer.spans[first:]
        job_start, job_end = spans[0][1], spans[0][2]
        phase_starts = [s[1] for s in spans if s[0] in ("training.train", "cli.predict_at")]
        record = {
            "wall_s": job_end - job_start,
            "cpu_s": cpu,
            "setup_s": min(phase_starts, default=job_end) - job_start,
            "train_s": sum(s[2] - s[1] for s in spans if s[0] == "training.train"),
            "predict_s": sum(s[2] - s[1] for s in spans if s[0] == "cli.predict_at"),
            "detailed": self.detailed,
        }
        self.hooks.active = False
        try:
            values, problems = self.workload.check(self)
        except Exception as exc:  # malformed outputs fail the job
            self.failed += 1
            self.problems.append(f"checking outputs raised {type(exc).__name__}: {exc}")
            return None
        finally:
            self.hooks.active = True
            self.observed.clear()
        if problems:
            self.failed += 1
            self.problems.extend(problems)
        record.update(values, ok=not problems)
        self.setup_samples.append(record["setup_s"])
        self.jobs.append(record)
        return record

    def loop(self, seconds: float, min_jobs: int) -> None:
        """Run jobs until the next one would end past ``seconds``."""
        start = self.tracer.clock()
        walls: list[float] = []
        while True:
            t0 = self.tracer.clock()
            self.run_job()
            walls.append(self.tracer.clock() - t0)
            now = self.tracer.clock()
            if len(walls) >= min_jobs and now + median(walls) > start + seconds:
                return
