"""In-memory spans around the pipeline's layer entry points.

The benchmark never edits ``src/``. It replaces the module attributes that
``runner.run`` and ``runner.run_sweep`` look up at call time with timing
wrappers, so ``run()`` itself executes unchanged and every call into a
layer becomes one span. Spans stay in memory until the run ends.
"""
from __future__ import annotations

import contextlib
import dataclasses
import inspect
import json
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

from aaolq import analysis, linalg, runner, scenario
from aaolq.errors import DivergenceError

#: Span name -> (module, attribute) the pipeline resolves at call time.
#: ``runner.validate`` and ``runner.build_team_game`` are the names
#: ``run``/``run_sweep`` call; they are bound from ``game`` and ``team``.
ENTRY_POINTS = {
    "scenario.parse_scenario": (scenario, "parse_scenario"),
    "riccati.solve_coupled": (runner, "solve_coupled"),
    "riccati.gains": (runner, "gains"),
    "sim.simulate": (runner, "simulate"),
    "sim.lyapunov_check": (runner, "lyapunov_check"),
    "sim.pursuit_report": (runner, "pursuit_report"),
    "runner.write_solution_csv": (runner, "write_solution_csv"),
    "runner.write_trajectory_csv": (runner, "write_trajectory_csv"),
    "runner.write_distances_csv": (runner, "write_distances_csv"),
    "runner.write_positions_csv": (runner, "write_positions_csv"),
    "analysis.verify_solution": (analysis, "verify_solution"),
    "game.validate": (runner, "validate"),
    "team.build_team_game": (runner, "build_team_game"),
    "linalg.sym_eigenvalues": (linalg, "sym_eigenvalues"),
    "linalg.spd_inverse": (linalg, "spd_inverse"),
}

_SCREEN_STRIDE = inspect.signature(analysis.verify_solution).parameters["screen_stride"].default


def _screen_points(args, kwargs) -> int:
    """Existence-map evaluations one ``verify_solution`` call makes."""
    steps = args[1].grid.steps
    stride = kwargs.get("screen_stride", _SCREEN_STRIDE)
    return len(set(range(0, steps + 1, stride)) | {steps})


def _count_solve(args, kwargs, sol) -> dict:
    return {
        "riccati.grid_nodes": sol.grid.steps + 1,
        "riccati.s_bytes": sol.S.nbytes,
        "riccati.blowups": 0 if sol.complete else 1,
    }


def _count_verify(args, kwargs, report) -> dict:
    return {"analysis.screen_points": _screen_points(args, kwargs)}


#: Work counters read off a span's arguments or result, by span name.
_COUNTERS = {
    "riccati.solve_coupled": _count_solve,
    "analysis.verify_solution": _count_verify,
}
_COUNTED = ("riccati.grid_nodes", "riccati.s_bytes", "riccati.blowups", "analysis.screen_points")


@dataclass
class Span:
    name: str
    op: int
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans; ``op`` is the id shared by every span of one op."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around the body; nested spans become children."""
        index = len(self.spans)
        record = Span(name=name, op=self.op, parent=self._stack[-1] if self._stack else None)
        self.spans.append(record)
        self._stack.append(index)
        record.start = time.perf_counter()
        try:
            yield record
        except BaseException as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def wrap(self, name: str, fn):
        counter = _COUNTERS.get(name)

        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if counter is not None:
                record.counts = counter(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every entry point for the body; restore the originals after."""
        originals = {name: getattr(mod, attr) for name, (mod, attr) in ENTRY_POINTS.items()}
        try:
            for name, (mod, attr) in ENTRY_POINTS.items():
                setattr(mod, attr, self.wrap(name, originals[name]))
            yield self
        finally:
            for name, (mod, attr) in ENTRY_POINTS.items():
                setattr(mod, attr, originals[name])

    def write(self, path: Path) -> None:
        """Write every span as one JSON line; ``parent`` is a line index."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as f:
            for s in self.spans:
                f.write(json.dumps(dataclasses.asdict(s)) + "\n")

    def self_times(self) -> list[float]:
        """Each span's duration minus the durations of its direct children."""
        own = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own


#: Per-layer metric -> span names whose self times it sums.
LAYER_TIMES = {
    "riccati.solve_s": ("riccati.solve_coupled",),
    "riccati.gains_s": ("riccati.gains",),
    "analysis.verify_s": ("analysis.verify_solution",),
    "linalg.eig_s": ("linalg.sym_eigenvalues",),
    "linalg.inverse_s": ("linalg.spd_inverse",),
    "runner.write_s": (
        "runner.write_solution_csv",
        "runner.write_trajectory_csv",
        "runner.write_distances_csv",
        "runner.write_positions_csv",
    ),
    "runner.solution_csv_s": ("runner.write_solution_csv",),
    "runner.self_s": ("op",),
    "sim.simulate_s": ("sim.simulate",),
    "sim.lyapunov_s": ("sim.lyapunov_check",),
    "sim.report_s": ("sim.pursuit_report",),
    "scenario.parse_s": ("scenario.parse_scenario",),
    "game.validate_s": ("game.validate",),
    "team.reduce_s": ("team.build_team_game",),
}

#: Layer self-time metrics that partition an op's wall time between them
#: (``runner.solution_csv_s`` is a part of ``runner.write_s``).
PARTITION = tuple(name for name in LAYER_TIMES if name != "runner.solution_csv_s")

#: Per-layer metric -> span name whose calls it counts.
LAYER_CALLS = {
    "riccati.solve_calls": "riccati.solve_coupled",
    "linalg.eig_calls": "linalg.sym_eigenvalues",
    "linalg.inverse_calls": "linalg.spd_inverse",
}


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-op means of every per-layer time and count over the traced ops."""
    per_op = max(len({s.op for s in tracer.spans}), 1)
    time_by_name: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, tracer.self_times()):
        time_by_name[s.name] += t
        calls[s.name] += 1
        for key, value in s.counts.items():
            counts[key] += value
        if s.name == "sim.simulate" and s.error == DivergenceError.__name__:
            counts["sim.divergences"] += 1
    out = {
        name: sum(time_by_name[n] for n in names) / per_op for name, names in LAYER_TIMES.items()
    }
    out.update({name: calls[span] / per_op for name, span in LAYER_CALLS.items()})
    for name in _COUNTED + ("sim.divergences",):
        out[name] = counts[name] / per_op
    out["tracing.spans"] = len(tracer.spans) / per_op
    return out
