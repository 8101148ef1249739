"""Per-layer tracing from outside the program.

The traced run replaces one public callable per layer boundary with a
timing wrapper, at the name its caller looks it up by (a class attribute
for methods, the caller's module global for functions), and puts the
original back afterwards. Spans nest: a layer's self time is its span
minus the spans of the layers it called, so self times add up to the
traced share of the workload's wall time. Everything stays in memory
until the workload ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Tuple

__all__ = ["SPANS", "Tracer", "layer_metrics"]

#: (span name, module, attribute path) of every wrapped public callable.
#: ``collect_records`` is not here: the harness wraps its own call to it.
SPANS: List[Tuple[str, str, str]] = [
    ("aes.scalar", "repro.aes.ttable", "TTableAES.encrypt"),
    ("aes.batch", "repro.gpu.batched", "encrypt_batch"),
    ("gpu.warp.build", "repro.workloads.server", "build_warp_programs"),
    ("core.rcoal.draw", "repro.core.rcoal", "RCoalGPU.draw_partitions"),
    ("workloads.server.launch", "repro.workloads.server",
     "EncryptionServer.encrypt"),
    ("gpu.timed_batch.run", "repro.gpu.timed_batch", "BatchedTimingCore.run"),
    ("gpu.engine.run", "repro.gpu.engine", "GPUSimulator.run"),
    ("gpu.coalescer.coalesce", "repro.gpu.coalescer",
     "CoalescingUnit.coalesce"),
    ("gpu.batched.counts", "repro.gpu.batched",
     "BatchedCountsCore.encrypt_batch"),
    ("attack.recover", "repro.attack.recovery",
     "CorrelationTimingAttack.recover_key"),
    ("attack.prepare", "repro.attack.estimator", "AccessEstimator.prepare"),
    ("attack.estimate", "repro.attack.estimator",
     "AccessEstimator.access_matrix"),
    ("attack.correlate", "repro.attack.recovery", "rowwise_pearson"),
    ("experiments.checkpoint.save", "repro.experiments.checkpoint",
     "CheckpointStore.save_chunk"),
    ("experiments.checkpoint.load", "repro.experiments.checkpoint",
     "CheckpointStore.load_chunks"),
    ("telemetry.journal.append", "repro.telemetry.journal",
     "RunJournal.append"),
]

#: Work counted from a wrapped call's arguments or result, by span name.
_WORK: Dict[str, Callable[[tuple, object], int]] = {
    # encrypt_batch(key, lines): one row per 16-byte line.
    "aes.batch": lambda args, result: len(args[1]),
    # BatchedCountsCore.encrypt_batch(self, plaintexts, rngs, ...).
    "gpu.batched.counts": lambda args, result: len(args[1]),
    # GPUSimulator.run(...) -> KernelResult: simulated core cycles.
    "gpu.engine.run": lambda args, result: result.total_time,
}


class _Stat:
    __slots__ = ("calls", "total", "self_time", "raised", "raised_time",
                 "work")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.raised = 0
        self.raised_time = 0.0
        self.work = 0


class Tracer:
    """Span aggregation for one traced workload body."""

    def __init__(self) -> None:
        self.stats: Dict[str, _Stat] = {}
        # One frame per open span: [start, time spent in child spans].
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        """``fn`` recording one ``name`` span per call."""
        stat = self.stats.setdefault(name, _Stat())
        stack = self._stack
        clock = time.perf_counter
        work = _WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [clock(), 0.0]
            stack.append(frame)
            result = None
            raised = True
            try:
                result = fn(*args, **kwargs)
                raised = False
                return result
            finally:
                elapsed = clock() - frame[0]
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                stat.calls += 1
                stat.total += elapsed
                stat.self_time += elapsed - frame[1]
                if raised:
                    stat.raised += 1
                    stat.raised_time += elapsed
                elif work is not None:
                    stat.work += work(args, result)

        return traced

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every layer in :data:`SPANS`; restore them on exit."""
        saved = []
        try:
            for name, module, path in SPANS:
                owner = importlib.import_module(module)
                *parents, attr = path.split(".")
                for parent in parents:
                    owner = getattr(owner, parent)
                original = vars(owner)[attr]
                if not inspect.isfunction(original):
                    raise TypeError(f"{module}.{path} is not a plain function")
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def stat(self, name: str) -> _Stat:
        return self.stats.get(name) or _Stat()


def layer_metrics(tracer: Tracer, wall_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced body, by metric name.

    ``trace.overhead`` needs an untraced body and is added by the caller.
    """
    s = tracer.stat
    engine, batch = s("gpu.engine.run"), s("gpu.timed_batch.run")
    served = batch.calls - batch.raised
    metrics = {
        "aes.scalar_s": s("aes.scalar").self_time,
        "aes.scalar_lines": s("aes.scalar").calls,
        "aes.batch_s": s("aes.batch").self_time,
        "aes.batch_lines": s("aes.batch").work,
        "gpu.warp.build_s": s("gpu.warp.build").self_time,
        "gpu.warp.builds": s("gpu.warp.build").calls,
        "core.rcoal.draw_s": s("core.rcoal.draw").self_time,
        "core.rcoal.draws": s("core.rcoal.draw").calls,
        "workloads.server.launch_self_s":
            s("workloads.server.launch").self_time,
        "workloads.server.launches": s("workloads.server.launch").calls,
        "gpu.timed_batch.run_s": batch.self_time,
        "gpu.timed_batch.launches": batch.calls,
        "gpu.timed_batch.fallbacks": batch.raised,
        "gpu.timed_batch.fallback_s": batch.raised_time,
        "gpu.engine.event_s": engine.self_time,
        "gpu.engine.launches": engine.calls,
        "gpu.engine.fast_frac": served / max(1, engine.calls),
        "gpu.engine.sim_cycles_per_s":
            engine.work / engine.total if engine.total else 0.0,
        "gpu.coalescer.coalesce_s": s("gpu.coalescer.coalesce").self_time,
        "gpu.coalescer.instructions": s("gpu.coalescer.coalesce").calls,
        "gpu.batched.counts_s": s("gpu.batched.counts").self_time,
        "gpu.batched.samples": s("gpu.batched.counts").work,
        "attack.prepare_s": s("attack.prepare").self_time,
        "attack.estimate_s": s("attack.estimate").self_time,
        "attack.estimates": s("attack.estimate").calls,
        "attack.correlate_s": s("attack.correlate").self_time,
        "attack.recover_self_s": s("attack.recover").self_time,
        "experiments.base.phase_self_s": s("experiments.base.phase").self_time,
        "experiments.base.phases": s("experiments.base.phase").calls,
        "experiments.checkpoint.save_s":
            s("experiments.checkpoint.save").self_time,
        "experiments.checkpoint.saves": s("experiments.checkpoint.save").calls,
        "experiments.checkpoint.load_s":
            s("experiments.checkpoint.load").self_time,
        "telemetry.journal.append_s": s("telemetry.journal.append").self_time,
        "telemetry.journal.appends": s("telemetry.journal.append").calls,
    }
    metrics["trace.coverage"] = (
        sum(stat.self_time for stat in tracer.stats.values()) / wall_s)
    return metrics
