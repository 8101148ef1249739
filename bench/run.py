"""The RCoal reproduction's benchmark: four workloads in fresh processes.

Every workload body runs in its own child process (bench/child.py), one
child at a time, so each body starts cold on its own inputs the way
``rcoal <fig>`` does. The children's environment drops the ``REPRO_*``
overrides and pins numeric libraries to one thread. The workloads and
their sizes are in bench/workloads.py, the reference digests in
bench/reference.json, and the metrics, units and bounds in BENCHMARK.json
at the repository root.

Usage, from the repository root:

  python bench/run.py [--seed 2018] [--repeat 3] [--traced] [--out FILE]
      all workloads, round-robin, R fresh processes each; prints every
      end-to-end metric (and, traced, the per-layer table) and exits
      nonzero if any output is wrong.
  python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
      one workload for about S seconds; prints one JSON result line.
  python bench/run.py --compare BASE.json NEW.json
      compares two reports written with --out.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REFERENCE = json.loads((BENCH / "reference.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]

#: The only variables a child inherits. Everything else is dropped,
#: among it the REPRO_* overrides of sample counts, engine selection,
#: trace-cache size and progress output.
KEPT_ENV = ("PATH", "HOME", "LD_LIBRARY_PATH")
#: Set in every child's environment: the load stays one thread, and a
#: fixed string-hash seed fixes the allocation order. glibc's malloc
#: thresholds are pinned where its sliding ones end up once a large array
#: is freed (32 MiB, trim at twice that); left sliding, peak memory of
#: wide_counts_attack lands at random on one of two values 11% apart.
PINNED_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
              "MALLOC_MMAP_THRESHOLD_": "33554432",
              "MALLOC_TRIM_THRESHOLD_": "67108864"}
_ADDR_NO_RANDOMIZE = 0x0040000
REQUEST_BYTES = 256
#: Fewest rounds a timed run makes, however short ``--seconds`` is.
MIN_ROUNDS = 3
CHILD_TIMEOUT_S = 150


def child_env() -> Dict[str, str]:
    env = {k: os.environ[k] for k in KEPT_ENV if k in os.environ}
    env.update(PINNED_ENV)
    return env


def _fixed_layout() -> None:
    """Turn off address-space randomization in the child before it
    execs, as ``setarch -R`` does; a no-op where Linux's ``personality``
    call is missing. With a random layout, peak memory of
    wide_counts_attack flips between values 6-11% apart from one process
    to the next."""
    try:
        personality = ctypes.CDLL(None).personality
    except (OSError, AttributeError):
        return
    personality.argtypes = [ctypes.c_ulong]
    personality.restype = ctypes.c_int
    current = personality(0xFFFFFFFF)
    if current != -1:
        personality(current | _ADDR_NO_RANDOMIZE)


def run_child(name: str, seed: int, mode: str) -> dict:
    """One workload body in a fresh process; its JSON result, or
    ``{"error": ...}`` if it failed.

    The request goes through stdin, padded to a fixed length, so the
    command line and the bytes read are the same size for every child:
    even with the layout fixed, their length moves peak memory by up to
    11%.
    """
    request = json.dumps({"name": name, "seed": seed, "mode": mode})
    try:
        proc = subprocess.run(
            [sys.executable, "bench/child.py"],
            input=request.ljust(REQUEST_BYTES) + "\n",
            cwd=ROOT, env=child_env(), text=True, capture_output=True,
            timeout=CHILD_TIMEOUT_S, preexec_fn=_fixed_layout)
    except subprocess.TimeoutExpired:
        return {"error": f"{name} timed out after {CHILD_TIMEOUT_S} s"}
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {"error": f"{name} exited {proc.returncode} without a "
                           f"result:\n{proc.stderr[-2000:]}"}
    if "error" in result:
        print(result["error"], file=sys.stderr)
    else:
        print(f"  {name} {mode}: ref cpu {result['ref_cpu_s']:.3f} s "
              f"(cpu {result['cpu_s']:.3f} s, wall {result['wall_s']:.3f} s, "
              f"slowdown {result['slowdown']:.3f}), "
              f"setup {result['setup_s']:.3f} s", file=sys.stderr)
    return result


def collect_runs(names: List[str], seed: int, traced: bool,
                 repeat: Optional[int] = None,
                 seconds: Optional[float] = None) -> Dict[str, dict]:
    """Round-robin children over ``names``: ``repeat`` rounds, or as many
    as fit in ``seconds`` (at least :data:`MIN_ROUNDS`). The first round
    also checks the engines; a traced round adds a traced child per
    workload."""
    runs = {name: {"plain": [], "traced": []} for name in names}
    started = time.monotonic()
    rounds = 0
    while True:
        for name in names:
            mode = "check" if rounds == 0 else "plain"
            runs[name]["plain"].append(run_child(name, seed, mode))
            if traced:
                runs[name]["traced"].append(run_child(name, seed, "traced"))
        rounds += 1
        if repeat is not None:
            if rounds >= repeat:
                break
        else:
            elapsed = time.monotonic() - started
            if rounds >= MIN_ROUNDS and elapsed * (rounds + 1) / rounds \
                    > seconds:
                break
    return runs


def _median(runs: List[dict], key: str) -> float:
    return statistics.median(run[key] for run in runs)


def end_to_end(run: dict) -> Dict[str, float]:
    """The end-to-end metrics of one untraced child."""
    return {"ref_cpu_s": run["ref_cpu_s"],
            "samples_per_ref_cpu_s": run["samples"] / run["ref_cpu_s"],
            "setup_s": run["setup_s"],
            "peak_rss_mb": run["peak_rss_mb"]}


def summarize(name: str, seed: int, runs: dict) -> dict:
    """Medians, per-run values and the correctness tally of one workload."""
    every = runs["plain"] + runs["traced"]
    ok_plain = [run for run in runs["plain"] if "error" not in run]
    ok_traced = [run for run in runs["traced"] if "error" not in run]
    committed = REFERENCE["digests"].get(str(seed), {}).get(name)
    expected = committed or next(
        (run["digests"] for run in ok_plain), None) or {}
    attempted = failed = 0
    for run in every:
        phases = set(expected) | set(run.get("digests", {}))
        attempted += max(1, len(phases))
        if "error" in run:
            failed += max(1, len(phases))
        else:
            failed += sum(run["digests"].get(label) != expected.get(label)
                          for label in phases)
    summary = {"attempted": attempted, "failed": failed,
               "failed_frac": failed / attempted,
               "reference": "committed" if committed else "first run",
               "digests": expected, "runs": {}, "metrics": {},
               "layers": {}}
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    per_run = [end_to_end(run) for run in ok_plain]
    for metric, unit in units.items():
        values = [values[metric] for values in per_run]
        summary["runs"][metric] = values
        if values:
            summary["metrics"][metric] = {
                "value": statistics.median(values), "unit": unit}
    for key in ("cpu_s", "wall_s", "slowdown"):
        summary["runs"][key] = [run[key] for run in ok_plain]
    if ok_traced:
        layer_units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for metric, unit in layer_units.items():
            if metric == "trace.overhead":
                value = (_median(ok_traced, "ref_cpu_s")
                         / _median(ok_plain, "ref_cpu_s")) if ok_plain else 0.0
            else:
                value = statistics.median(run["layers"][metric]
                                          for run in ok_traced)
            summary["layers"][metric] = {"value": value, "unit": unit}
        summary["traced_wall_s"] = _median(ok_traced, "wall_s")
    return summary


def host() -> dict:
    import numpy
    return {"cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def print_report(report: dict) -> None:
    print(f"seed {report['seed']}, {report['repeat']} fresh processes per "
          f"workload, host {report['host']}")
    for name, summary in report["workloads"].items():
        print(f"\n== {name} ({summary['failed']}/{summary['attempted']} "
              f"phases failed, reference: {summary['reference']})")
        for metric, entry in summary["metrics"].items():
            print(f"  {metric:<22} {entry['value']:>14.4f} {entry['unit']}")
        traced_wall = summary.get("traced_wall_s")
        if summary["layers"]:
            print(f"  -- per layer: median of traced processes; share of "
                  f"their wall time ({traced_wall:.3f} s)")
        for metric, entry in summary["layers"].items():
            share = (f"{100 * entry['value'] / traced_wall:6.1f}%"
                     if entry["unit"] == "s" else "")
            print(f"  {metric:<34} {entry['value']:>14.4f} "
                  f"{entry['unit']:<9} {share}")


def write_result_line(summary: dict, traced: bool) -> None:
    """The one-line result the contract in BENCHMARK.json asks for."""
    metrics = summary["layers"] if traced else summary["metrics"]
    print(json.dumps({"correct": summary["failed"] == 0,
                      "attempted": summary["attempted"],
                      "failed": summary["failed"],
                      "metrics": metrics}))


# -- --compare ----------------------------------------------------------------


def spread(values: List[float]) -> float:
    """Quartile distance (min to max below four values) over the median."""
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1, q3 = min(values), max(values)
    return (q3 - q1) / statistics.median(values)


def verdict(base: List[float], new: List[float], bound: float,
            better: str) -> str:
    """``better``/``same``/``worse``/``unresolved`` for one metric."""
    worse_sign = 1 if better == "lower" else -1
    every_run_better = all(worse_sign * n < worse_sign * b
                           for n in new for b in base)
    if not every_run_better and (spread(base) > bound
                                 or spread(new) > bound):
        return "unresolved"
    change = worse_sign * (statistics.median(new) - statistics.median(base))
    change /= statistics.median(base)
    if change > bound:
        return "worse"
    return "better" if change < -bound else "same"


def compare(base: dict, new: dict) -> int:
    for key in ("sizes", "repeat", "env"):
        if base[key] != new[key]:
            print(f"refusing to compare: {key} differs", file=sys.stderr)
            return 2
    if base["host"]["cpus"] != new["host"]["cpus"]:
        print("refusing to compare: host cpus differ", file=sys.stderr)
        return 2
    status = 0
    print(f"{'workload':<20} {'metric':<22} {'base':>12} {'new':>12}  verdict")
    for name in WORKLOAD_NAMES:
        b, n = base["workloads"][name], new["workloads"][name]
        for metric in SPEC["end_to_end"]:
            key = metric["name"]
            result = verdict(b["runs"][key], n["runs"][key], metric["bound"],
                             metric["better"])
            if result == "worse":
                status = 1
            print(f"{name:<20} {key:<22} "
                  f"{statistics.median(b['runs'][key]):>12.4f} "
                  f"{statistics.median(n['runs'][key]):>12.4f}  {result}")
        for label in sorted(set(b["digests"]) | set(n["digests"])):
            if b["digests"].get(label) != n["digests"].get(label):
                print(f"{name:<20} digest of {label} differs")
                status = 1
    return status


# -- entry point ---------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int,
                        default=REFERENCE["default_seed"])
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--traced", dest="trace", action="store_const",
                        const=1)
    parser.add_argument("--repeat", type=int,
                        default=REFERENCE["default_repeat"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path,
                        metavar=("BASE", "NEW"))
    args = parser.parse_args(argv)

    if args.compare:
        base, new = (json.loads(path.read_text()) for path in args.compare)
        return compare(base, new)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2

    traced = bool(args.trace)
    if args.workload:
        runs = collect_runs([args.workload], args.seed, traced,
                            seconds=args.seconds)
        summary = summarize(args.workload, args.seed, runs[args.workload])
        write_result_line(summary, traced)
        return 0 if summary["failed"] == 0 else 1
    runs = collect_runs(WORKLOAD_NAMES, args.seed, traced,
                        repeat=args.repeat)
    report = {
        "seed": args.seed, "repeat": args.repeat, "traced": traced,
        "host": host(), "sizes": REFERENCE["sizes"],
        "env": {"kept": list(KEPT_ENV), "set": PINNED_ENV},
        "workloads": {name: summarize(name, args.seed, runs[name])
                      for name in WORKLOAD_NAMES},
    }
    print_report(report)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(s["failed"] for s in report["workloads"].values())
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
