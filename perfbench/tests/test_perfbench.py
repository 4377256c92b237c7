"""Tests of the benchmark itself: inputs, correctness gate and tracing.

    python3 -m pytest -q perfbench/tests
"""
from __future__ import annotations

import dataclasses
import json

import pytest

import calibrate
import run
import spans
import workloads
from aaolq import check_diagonal_subclass, parse_scenario


def test_generator_is_seeded_and_stays_in_the_diagonal_subclass():
    texts = workloads.generate_explicit(7)
    assert texts == workloads.generate_explicit(7)
    assert texts != workloads.generate_explicit(8)
    runs = set()
    for k in range(0, len(texts), 2):
        base, twin = parse_scenario(texts[k]), parse_scenario(texts[k + 1])
        game = base.build_game()
        assert check_diagonal_subclass(game).applicable, k
        assert twin.build_game().n == game.n and twin.run.mode == base.run.mode
        assert base.run.dt == 0.01 and 1.0 <= game.tf <= 4.0
        runs.add((game.n, game.num_players, base.run.mode))
    sizes = [(n, m) for n in range(1, 9) for m in range(2, 6)]
    assert len(texts) == 4 * len(sizes)
    assert runs == {(n, m, mode) for n, m in sizes for mode in ("nash", "team")}


def _coarse_simulate(golden: dict) -> workloads.SimulateNash:
    """The pursuit benchmark at dt = 1e-2: the same checks, a tenth of the work."""
    workload = workloads.SimulateNash(golden)
    sc = workload.scenario
    workload.scenario = dataclasses.replace(sc, run=dataclasses.replace(sc.run, dt=1e-2))
    return workload


def test_planted_wrong_golden_value_counts_in_error_rate(tmp_path):
    probe = _coarse_simulate({})
    golden = probe.record(probe.op(0, tmp_path), tmp_path)

    good = run.measure(_coarse_simulate(golden), seconds=0)
    assert (good.attempted, good.failed) == (run.MIN_OPS, 0)
    assert good.facts[0]["runner.artifacts_changed"] == 0

    planted = json.loads(json.dumps(golden))
    planted["costs"][1] *= 1.0 + 1e-3
    bad = run.measure(_coarse_simulate(planted), seconds=0)
    assert bad.attempted == bad.failed == run.MIN_OPS
    assert "J2" in bad.problems[0]


def test_wrappers_restore_the_module_attributes():
    before = {name: getattr(mod, attr) for name, (mod, attr) in spans.ENTRY_POINTS.items()}
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            for name, (mod, attr) in spans.ENTRY_POINTS.items():
                assert getattr(mod, attr).__wrapped__ is before[name]
            raise RuntimeError("leave the block early")
    after = {name: getattr(mod, attr) for name, (mod, attr) in spans.ENTRY_POINTS.items()}
    assert all(after[name] is before[name] for name in before)


def test_spans_nest_and_self_times_sum_to_the_op_wall_time(tmp_path):
    workload = workloads.ExplicitBatch(seed=3)
    tracer = spans.Tracer()
    for i in range(4):  # two games, each with its rotated twin
        result, (start, end) = run._timed_op(workload, i, tmp_path / str(i), tracer)
        assert result.exit_code == 0
        op = [s for s in tracer.spans if s.op == i and s.name == "op"]
        assert len(op) == 1 and op[0].duration <= end - start <= op[0].duration + 1e-3
    own = tracer.self_times()
    assert min(own) >= 0.0
    for s in tracer.spans:
        if s.parent is not None:
            parent = tracer.spans[s.parent]
            assert parent.start <= s.start <= s.end <= parent.end and parent.op == s.op
    roots = [s for s in tracer.spans if s.parent is None]
    assert [s.name for s in roots] == ["op"] * 4
    assert sum(own) == pytest.approx(sum(s.duration for s in roots), rel=1e-9)
    layers = spans.layer_metrics(tracer)
    per_op = sum(s.duration for s in roots) / 4
    assert sum(layers[name] for name in spans.PARTITION) == pytest.approx(per_op, rel=1e-9)
    assert layers["riccati.solve_calls"] == 1 and layers["linalg.eig_calls"] > 0


def test_runs_make_whole_passes_over_the_inputs():
    class Tiny:
        inputs = 3

        def op(self, i, out_dir):
            return i

        def check(self, i, result, out_dir):
            return [], {}

    out = run.measure(Tiny(), seconds=0)
    assert out.attempted == len(out.walls) == 3
    traced = run.measure(Tiny(), seconds=0, tracer=spans.Tracer())
    assert sorted(traced.walls) == [0, 1, 2] and sorted(traced.traced_walls) == [3, 4, 5]


def _spin(seconds: float) -> None:
    end = calibrate.time.perf_counter() + seconds
    while calibrate.time.perf_counter() < end:
        pass


def test_speed_probe_shares_the_cpu_and_stops(tmp_path):
    affinity = calibrate.os.sched_getaffinity(0)
    with calibrate.SpeedProbe(tmp_path / "probe") as speed:
        assert calibrate.os.sched_getaffinity(0) == {speed.cpu}
        start = calibrate.time.perf_counter()
        _spin(1.0)
        end = calibrate.time.perf_counter()
    assert speed._proc.returncode is not None
    assert calibrate.os.sched_getaffinity(0) == affinity
    assert not (tmp_path / "probe").exists()
    # At nice 19 the probe takes about 1.4% of the CPU beside a busy process.
    assert 0.0 < speed.probe_cpu(start, end) < 0.1
    assert speed.step_s(start, end) > 0.0
    assert speed.at_reference(start, end) > 0.0
    with pytest.raises(RuntimeError):
        speed.probe_cpu(start - 60.0, end)


def test_speed_probe_stops_when_the_run_raises(tmp_path):
    with pytest.raises(KeyError):
        with calibrate.SpeedProbe(tmp_path / "probe") as speed:
            raise KeyError("leave the run early")
    assert speed._proc.returncode is not None
