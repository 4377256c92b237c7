#!/usr/bin/env python3
"""Benchmark of the aaolq pipeline: solve, certify, simulate, write CSVs.

    python3 perfbench/run.py --workload simulate_nash --seed 1 --seconds 30 --trace 0

runs one workload in a closed loop (one client, one process; the next op
starts once the previous one is checked) for about ``--seconds`` seconds,
checks every op's output, prints every metric with its unit and ends with
one JSON line holding ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` they are the per-layer ones from in-memory spans. Times in
the end-to-end metrics are at reference machine speed (calibrate.py). See
README.md in this directory.
"""
from __future__ import annotations

import env  # noqa: F401  (pins threads and the import path before numpy loads)

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import calibrate
import spans
import workloads

TMP_ROOT = env.SRC.parent / ".perfbench_tmp"
#: Where a traced run writes its spans, one JSON line each.
SPANS_DIR = env.SRC.parent / ".perfbench_spans"

#: Set-ups timed per run, spread over it; ``setup_s`` is their median.
SETUP_SAMPLES = 5
#: Fewest ops in an untraced run, rounded up to whole passes over the inputs.
MIN_OPS = 2
#: A tail percentile is reported only with at least this many ops beyond it.
TAIL_SAMPLES = 10
PROBE_TIMEOUT_S = 60


def time_setup(workload: str, seed: int) -> tuple[float, float]:
    """Clock readings at the start of a fresh process and when its inputs are ready."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-probe"]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.communicate(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return start, ready


@dataclass
class Outcome:
    """What one run observed; times are (start, end) clock readings."""

    inputs: int
    peak_rss_mb: float = 0.0
    setups: list[tuple[float, float]] = field(default_factory=list)
    walls: dict[int, tuple[float, float]] = field(default_factory=dict)
    traced_walls: dict[int, tuple[float, float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    facts: list[dict] = field(default_factory=list)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _timed_op(workload, i: int, op_dir: Path, tracer):
    """The op's result and the clock readings at its start and end."""
    if tracer is None:
        start = time.perf_counter()
        result = workload.op(i, op_dir)
        return result, (start, time.perf_counter())
    tracer.op = i
    with tracer.installed():
        start = time.perf_counter()
        with tracer.span("op"):
            result = workload.op(i, op_dir)
        return result, (start, time.perf_counter())


def measure(workload, seconds: float, tracer=None, probe=None) -> Outcome:
    """Closed loop over the workload's inputs for about ``seconds`` seconds.

    The run makes whole passes over the inputs, at least ``MIN_OPS`` ops,
    and stops at the pass boundary nearest the deadline, so every run
    weighs every input alike. ``peak_rss_mb`` is read after the first
    pass, since later passes repeat it. ``probe``, if given, times one
    set-up; its ``SETUP_SAMPLES`` calls are spread over the run, between
    ops, so that ``setup_s`` sees the same machine as the ops. With a tracer,
    passes over the inputs alternate untraced and traced, so both see the
    same inputs on the same machine; at least one pass of each is made. Each
    op writes into a fresh directory that is deleted once it is checked.
    """
    TMP_ROOT.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT))
    out = Outcome(inputs=workload.inputs)
    passes = 2 if tracer is not None else -(-MIN_OPS // workload.inputs)
    min_ops = passes * workload.inputs
    start = time.perf_counter()
    try:
        i = 0
        while True:
            due = len(out.setups) * seconds / SETUP_SAMPLES
            if probe is not None and len(out.setups) < SETUP_SAMPLES and time.perf_counter() - start >= due:
                out.setups.append(probe())
            traced = tracer is not None and (i // workload.inputs) % 2 == 1
            op_dir = Path(tempfile.mkdtemp(prefix="op-", dir=run_dir))
            out.attempted += 1
            try:
                result, wall = _timed_op(workload, i, op_dir, tracer if traced else None)
                (out.traced_walls if traced else out.walls)[i] = wall
                problems, facts = workload.check(i, result, op_dir)
            except Exception as exc:  # a failed op is a measured outcome
                problems, facts = [f"{type(exc).__name__}: {exc}"], {}
            finally:
                shutil.rmtree(op_dir, ignore_errors=True)
            if problems:
                out.failed += 1
                out.problems.extend(f"op {i}: {p}" for p in problems)
            if facts:
                out.facts.append(facts)
            i += 1
            if i == workload.inputs:
                out.peak_rss_mb = _peak_rss_mb()
            if i % workload.inputs:
                continue
            elapsed = time.perf_counter() - start
            pass_s = elapsed * workload.inputs / i
            if i >= min_ops and elapsed + 0.5 * pass_s >= seconds:
                while probe is not None and len(out.setups) < SETUP_SAMPLES:
                    out.setups.append(probe())
                return out
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()


def _read(path: str) -> str:
    try:
        return Path(path).read_text().strip()
    except OSError:
        return "unknown"


def machine_record(seed: int, cpu: int) -> str:
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in range(8):
        base = f"/sys/devices/system/cpu/cpu0/cache/index{index}"
        level = _read(f"{base}/level")
        if level in ("2", "3"):
            caches[f"L{level}"] = _read(f"{base}/size")
    threads = " ".join(f"{v}={os.environ[v]}" for v in env.THREAD_VARS)
    return (
        f"machine: nproc={os.cpu_count()} pinned to cpu {cpu} cpu={model!r} "
        f"L2={caches.get('L2', 'unknown')} L3={caches.get('L3', 'unknown')} "
        f"python={platform.python_version()} numpy={numpy.__version__} seed={seed} {threads}"
    )


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "B"
    if name.endswith("ref_dev_max"):
        return "1"
    return "count"


def _show(name: str, value, unit: str, note: str = "") -> None:
    shown = f"{value:.6g}" if isinstance(value, float) else str(value)
    print(f"{name:<26} {shown:>12} {unit:<5} {note}".rstrip())


def end_to_end(out: Outcome, speed: calibrate.SpeedProbe) -> dict:
    """Print the end-to-end metrics; return those BENCHMARK.json names.

    Times are at reference machine speed; the wall-clock figures are
    printed beside them. ``op_s_mean`` is the mean over the untraced ops,
    which make whole passes over the inputs. On ``explicit_batch`` the ops
    differ in size, so its median lands in a gap between sizes and jumps
    between runs of the same inputs; the mean of a pass does not.
    """
    setups = [speed.at_reference(a, b) for a, b in out.setups]
    ops = [speed.at_reference(a, b) for a, b in out.walls.values()]
    setup = statistics.median(setups)
    mean = statistics.fmean(ops)
    peak = out.peak_rss_mb
    step_s = statistics.median(speed.step_s(a, b) for a, b in out.walls.values())
    print(
        f"machine speed: median probe step {step_s * 1e3:.4g} ms, reference "
        f"{calibrate.NOMINAL_STEP_S * 1e3:.4g} ms; times below are at reference speed"
    )
    _show("setup_s", setup, "s", f"median of {len(setups)} set-ups")
    _show("setup_wall_s", statistics.median(b - a for a, b in out.setups), "s", "wall clock")
    _show("op_s_mean", mean, "s", f"n={len(ops)} ops, {len(ops) // out.inputs} passes")
    _show("op_wall_s_mean", statistics.fmean(b - a for a, b in out.walls.values()), "s", "wall clock")
    _show("op_s_p50", statistics.median(ops), "s", f"n={len(ops)} ops")
    if len(ops) >= 10 * TAIL_SAMPLES:
        _show("op_s_p90", statistics.quantiles(ops, n=10)[-1], "s", f"n={len(ops)} ops")
    else:
        _show("op_s_p90", "n/a", "s", f"needs {10 * TAIL_SAMPLES} ops, have {len(ops)}")
    _show("peak_rss_mb", peak, "MB", "set-up and the first pass over the inputs")
    _show("error_rate", out.failed / out.attempted, "1", f"{out.failed} failed / {out.attempted} attempted")
    return {
        "setup_s": {"value": setup, "unit": "s"},
        "op_s_mean": {"value": mean, "unit": "s"},
        "peak_rss_mb": {"value": peak, "unit": "MB"},
    }


def outside_counters(out: Outcome) -> dict:
    """Per-op means of what the checks read off results and files."""
    if not out.facts:
        return {}
    counters = {
        key: statistics.fmean(f[key] for f in out.facts)
        for key in ("runner.ref_dev_max", "runner.artifacts_changed", "runner.sweep_cells")
    }
    counters["runner.artifact_bytes"] = statistics.fmean(sum(f["artifacts"].values()) for f in out.facts)
    for name, value in counters.items():
        _show(name, value, unit_of(name), "per op")
    sizes = ", ".join(f"{k}={v}" for k, v in out.facts[-1]["artifacts"].items())
    print(f"artifact bytes of the last op: {sizes}")
    return counters


def per_layer(out: Outcome, tracer: spans.Tracer, counters: dict, speed: calibrate.SpeedProbe) -> dict:
    """Print and return the per-layer metrics of the traced ops.

    Layer times are span self times on the wall clock; ``tracing.overhead_s``
    compares op times at reference speed, as ``op_s_mean`` reports them.
    """
    layers = spans.layer_metrics(tracer)
    # Each traced op is paired with the untraced op of the same input one
    # pass earlier, so both means cover the same inputs.
    pairs = [(speed.at_reference(*wall), speed.at_reference(*out.walls[i - out.inputs]))
             for i, wall in out.traced_walls.items() if i - out.inputs in out.walls]
    traced_mean = statistics.fmean(t for t, _ in pairs)
    layers["tracing.overhead_s"] = traced_mean - statistics.fmean(u for _, u in pairs)
    layers.update(counters)
    accounted = sum(layers[name] for name in spans.PARTITION)
    print(
        f"traced ops: {len(out.traced_walls)} (op_s_mean {traced_mean:.6g} s over {len(pairs)} paired "
        f"inputs); layer self times sum to {accounted:.6g} s of "
        f"{statistics.fmean(b - a for a, b in out.traced_walls.values()):.6g} s mean traced op wall"
    )
    for name in sorted(layers):
        _show(name, layers[name], unit_of(name), "per op")
    return {name: {"value": layers[name], "unit": unit_of(name)} for name in sorted(layers)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0, help="makes the workload's inputs")
    parser.add_argument("--seconds", type=float, default=30.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0, help="1: per-layer metrics")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    env.check_source()
    workload = workloads.make(args.workload, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    tracer = spans.Tracer() if args.trace else None
    with calibrate.SpeedProbe(TMP_ROOT) as speed:
        out = measure(workload, args.seconds, tracer, probe=lambda: time_setup(args.workload, args.seed))

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print(machine_record(args.seed, speed.cpu))
    metrics = end_to_end(out, speed)
    counters = outside_counters(out)
    if tracer is not None:
        metrics = per_layer(out, tracer, counters, speed)
        path = SPANS_DIR / f"{args.workload}-seed{args.seed}.jsonl"
        tracer.write(path)
        print(f"spans written to {path}")
    for problem in out.problems[:20]:
        print(f"FAILED {problem}")
    print(json.dumps({
        "correct": out.failed == 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
