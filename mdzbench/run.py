"""The repo benchmark: one command per workload run.

    python3 mdzbench/run.py --workload oneshot-pt --seed 1 --seconds 30 \
        --trace 0

Run from the repository root.  ``BENCHMARK.json`` at the root names the
workloads and metrics; this script reads it for the metric names and
units.  ``--trace 0`` measures the end-to-end metrics with nothing
wrapped.  ``--trace 1`` runs the workload for half the time untraced and
half with the layer wrappers of ``tracer.py`` installed, and reports the
per-layer metrics plus ``trace.overhead`` (median traced cycle wall over
median untraced cycle wall).  Per-layer times and counts are per workload
cycle; ``datasets.load_s`` is per set-up.  Parallel worker processes
(``workers=2`` and the one-shot pool) stay untraced.

Human-readable lines come first; the last line of stdout is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
Outputs (spans, captured stderr, the service spool) go to
``.mdzbench_out/`` and dataset caches to ``.data_cache/``, both under
the repository root.  Exits 2 without a result when the repository
sources are missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from contextlib import contextmanager
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT = ROOT / ".mdzbench_out"
DATASETS = ("pt", "copper-b", "helium-b")


def _stop_resource_tracker() -> None:
    """End the ``multiprocessing`` resource tracker and wait for it.

    Shared memory (``workers=2``) and the spawn pool's semaphores start
    it as a child of this process; it would otherwise outlive the run.
    """
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


@contextmanager
def _captured_stderr(path: Path):
    """Send fd 2, and so every child's stderr, to ``path``."""
    sys.stderr.flush()
    saved = os.dup(2)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    os.dup2(fd, 2)
    os.close(fd)
    try:
        yield
    finally:
        _stop_resource_tracker()
        sys.stderr.flush()
        os.dup2(saved, 2)
        os.close(saved)


def _warm_cache() -> str:
    """Create missing dataset cache entries, untimed."""
    from repro.datasets import load_dataset

    cache = Path(os.environ["REPRO_DATA_CACHE"])
    before = set(cache.glob("*.npz")) if cache.is_dir() else set()
    start = time.perf_counter()
    for name in DATASETS:
        load_dataset(name)
    created = sorted(p.name for p in set(cache.glob("*.npz")) - before)
    what = f"generated {', '.join(created)}" if created else "all present"
    return (f"cache warm-up (untimed, {time.perf_counter() - start:.2f} s): "
            f"{what}")


def _timed(cls, seed: int, seconds: float):
    from workloads import SETUPS

    workload = cls(ROOT, seed)
    try:
        for _ in range(SETUPS):
            workload.setup()
        workload.warm_up()
        workload.measure(seconds)
    finally:
        workload.close()
    return workload, workload.end_to_end()


def _phases(cls, seed: int, seconds: float):
    """An untraced half, then a traced half; returns the traced one."""
    from statistics import median

    from tracer import Tracer
    from workloads import SETUPS

    plain = cls(ROOT, seed)
    try:
        plain.setup()
        plain.warm_up()
        plain.measure(seconds / 2)
    finally:
        plain.close()
    tracer = Tracer()
    traced = cls(ROOT, seed, tracer)
    tracer.install()
    try:
        for _ in range(SETUPS):
            traced.setup()
        traced.measure(seconds / 2)
    finally:
        traced.close()
        tracer.uninstall()
    tracer.dump(OUT / f"spans-{cls.name}-seed{seed}.json")
    traced.checks.attempted += plain.checks.attempted
    traced.checks.failed += plain.checks.failed
    traced.checks.problems += plain.checks.problems
    return traced, plain, median(traced.cycle_walls) / median(
        plain.cycle_walls)


def _traced(cls, seed: int, seconds: float):
    """Per-layer metrics; stderr is captured to count the
    ``resource_tracker`` tracebacks ``workers=2`` passes leave there
    (a known defect), then printed unchanged."""
    log = OUT / f"stderr-{cls.name}-seed{seed}.log"
    with _captured_stderr(log):
        workload, plain, overhead = _phases(cls, seed, seconds)
    text = log.read_text(errors="replace")
    sys.stderr.write(text)
    metrics = workload.layer_metrics()
    metrics["stream.tracker_warnings"] = text.count("KeyError: '/psm_") / (
        workload.cycles_run + plain.cycles_run)
    metrics["trace.overhead"] = overhead
    return workload, metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no repository sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    why = {w["name"]: w["why"] for w in spec["workloads"]}
    if args.workload not in why:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(why)}", file=sys.stderr)
        return 2
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.environ["REPRO_DATA_CACHE"] = str(ROOT / ".data_cache")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    OUT.mkdir(exist_ok=True)
    import numpy as np

    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    print(f"why: {why[args.workload]}")
    print("host: " + json.dumps({
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }))
    print(_warm_cache())

    try:
        if args.trace:
            workload, metrics = _traced(cls, args.seed, args.seconds)
            print("per-layer values are per workload cycle; "
                  "parallel worker processes are untraced")
        else:
            workload, metrics = _timed(cls, args.seed, args.seconds)
    finally:
        _stop_resource_tracker()

    data = workload.data
    print("input: " + json.dumps({
        "dataset": cls.dataset,
        "shape": list(data.shape),
        "raw_bytes": int(data.size * 4),
        "cycles": len(workload.cycle_walls),
    }))
    if set(metrics) != set(units):
        raise SystemExit(
            f"metric set mismatch: missing {sorted(set(units) - set(metrics))}"
            f", undeclared {sorted(set(metrics) - set(units))}"
        )
    for name, unit in units.items():
        print(f"  {name:32s} {metrics[name]:14.6g} {unit}")
    checks = workload.checks
    print(f"  {'error_rate':32s} {checks.failed / max(checks.attempted, 1):14.6g}"
          f" ratio ({checks.failed} failed of {checks.attempted})")
    for problem in checks.problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
