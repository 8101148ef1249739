"""One workload body in a fresh process.

bench/run.py starts ``python bench/child.py`` from the checkout root and
writes one JSON request to its stdin: ``name`` (the workload), ``seed``
and ``mode``. The child imports the package from the checkout's ``src``,
warms up, runs the workload body once and prints one JSON object as the
last line of stdout. ``mode`` is ``plain``; ``check``, which afterwards
also compares the default engines with the reference engines on this
seed; or ``traced``, which wraps every layer and reports per-layer
metrics.

A :class:`probe.SpeedProbe` runs from the child's start to the body's
end. ``setup_s`` (the child's CPU time up to the end of the warm-up,
interpreter start-up included) and ``ref_cpu_s`` (the body's CPU time)
are divided by its slowdown, so both are in seconds on the reference
host. The raw ``cpu_s`` and ``wall_s`` of the body are reported too.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(name: str, seed: int, mode: str) -> dict:
    from probe import SpeedProbe

    probe = SpeedProbe()
    probe.start()
    sys.path.insert(0, str(ROOT / "src"))
    import repro
    if ROOT / "src" not in Path(repro.__file__).resolve().parents:
        raise RuntimeError(f"repro imported from {repro.__file__}, "
                           f"not from {ROOT / 'src'}")
    from repro.experiments.base import ExperimentContext

    import layers
    import workloads

    workloads.warm_up()
    setup_cpu_s = time.process_time()

    body = workloads.WORKLOADS[name]
    ctx = ExperimentContext(root_seed=seed)
    samples = workloads.SIZES[name]["samples"]
    tracer = layers.Tracer()
    if mode == "traced":
        with tracer.installed():
            collect = tracer.wrap("experiments.base.phase",
                                  workloads.collect_records)
            started, started_cpu = time.perf_counter(), time.process_time()
            outcome = body(ctx, samples, collect=collect)
            wall_s = time.perf_counter() - started
            cpu_s = time.process_time() - started_cpu
    else:
        started, started_cpu = time.perf_counter(), time.process_time()
        outcome = body(ctx, samples)
        wall_s = time.perf_counter() - started
        cpu_s = time.process_time() - started_cpu
    probe.stop()
    slowdown = probe.slowdown()
    result = {
        "setup_s": setup_cpu_s / slowdown,
        "ref_cpu_s": cpu_s / slowdown,
        "cpu_s": cpu_s,
        "wall_s": wall_s,
        "slowdown": slowdown,
        "samples": outcome.samples,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digests": outcome.digests,
    }
    if mode == "traced":
        result["layers"] = layers.layer_metrics(tracer, wall_s)
    elif mode == "check":
        workloads.check_engines(name, ctx, outcome)
    return result


if __name__ == "__main__":
    try:
        report = main(**json.loads(sys.stdin.readline()))
        code = 0
    except Exception:
        report = {"error": traceback.format_exc()}
        code = 1
    print(json.dumps(report))
    sys.exit(code)
