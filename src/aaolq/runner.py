"""Run pipeline: scenario in, CSV and text artifacts out.

Every artifact is written deterministically: floats are serialized with
``repr`` (shortest round-trip form), row order is fixed, and files land
via a temp-file rename so readers never observe partial writes. The CSV
writers format one bounded chunk at a time (a block of table rows, or of
solution time nodes, of at most ``sim.CHUNK_VALUES`` values unless one
row or node alone is wider), and the chunk's rows go to the temp file
before the next chunk is formatted, so neither the file nor one string
per value of it is ever held in memory. The chunk size bounds memory,
not bytes.
Exit codes: 0 success, 2 validation failure, 3 backward solve blow-up or
a solve past ``SUBSTEP_BUDGET``, 4 closed-loop divergence.
"""
from __future__ import annotations

import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import analysis
from .analysis import LyapunovReport, lyapunov_check
from .errors import DivergenceError, NotApplicableError, ValidationError
from .game import GameDefinition, ValidationReport, ValueEquality, absolute_starts, validate
from .riccati import (
    FeedbackGain,
    RiccatiSolution,
    SolveStats,
    SolveStatus,
    TimeGrid,
    gains,
    march_lockstep,
    solve_coupled,
)
from .scenario import Scenario
from .sim import (
    PursuitReport, Trajectory, _propagate, _pursuit_report, chunk_items, closed_loop,
    pursuit_report, simulate,
)
from .team import TeamGame, TeamWeights, build_team_game, team_gains_to_players

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_DIVERGENCE = 4


@contextmanager
def _stage(timings: dict, name: str):
    """Add the body's (CPU s, wall s) to ``timings[name]``, also when it raises."""
    cpu, wall = time.process_time(), time.perf_counter()
    try:
        yield
    finally:
        was = timings.get(name, (0.0, 0.0))
        timings[name] = (was[0] + time.process_time() - cpu, was[1] + time.perf_counter() - wall)


def _fmt(v) -> str:
    return repr(float(v))


def _fmt_bool(v) -> str:
    return "true" if v else "false"


def _write_chunks(path: Path, chunks) -> None:
    """Stream ``chunks`` into ``path.tmp``, then rename it over ``path``."""
    tmp = path.with_name(path.name + ".tmp")
    with tmp.open("w") as f:
        f.writelines(chunks)
    os.replace(tmp, path)


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """One CSV row per row of the float array ``table``."""
    row = ",".join(["%r"] * table.shape[1]) + "\n"
    rows = chunk_items(table.shape[1])

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(table), rows):
            block = table[lo : lo + rows]
            yield (row * len(block)) % tuple(np.asarray(block, dtype=float).ravel().tolist())

    _write_chunks(path, chunks())


def write_solution_csv(path: Path, sol: RiccatiSolution):
    """Long-form dump: one row per (time, player, entry)."""
    m, _, n, _ = sol.S.shape
    width = m * n * n
    # One time node's rows; "\0" stands for its time, "%s" for each value.
    node = "".join(
        f"\0,{i + 1},{r + 1},{c + 1},%s\n" for i in range(m) for r in range(n) for c in range(n)
    )
    times = sol.grid.times().tolist()
    nodes = chunk_items(width)

    def chunks():
        yield "t,player,row,col,value\n"
        for lo in range(0, len(times), nodes):
            # S repeats values within a chunk: format each bit pattern once (-0.0 apart from 0.0).
            block = np.moveaxis(sol.S[:, lo : lo + nodes], 1, 0)
            bits = np.ascontiguousarray(block, dtype=float).reshape(-1).view(np.int64)
            distinct, inverse = np.unique(bits, return_inverse=True)
            texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
            values = texts[inverse].tolist()
            for k, t in enumerate(times[lo : lo + nodes]):
                yield node.replace("\0", repr(t)) % tuple(values[k * width : (k + 1) * width])

    _write_chunks(path, chunks())


def write_trajectory_csv(path: Path, traj: Trajectory):
    n = traj.x.shape[1]
    header = ["t"] + [f"x{j + 1}" for j in range(n)]
    for i, ui in enumerate(traj.u):
        header += [f"u{i + 1}_{j + 1}" for j in range(ui.shape[1])]
    _write_table(path, header, np.column_stack([traj.grid.times(), traj.x, *traj.u]))


def write_distances_csv(path: Path, traj: Trajectory, report: PursuitReport):
    k = report.distances.shape[1]
    header = ["t"] + [f"d{j + 1}" for j in range(k)]
    _write_table(path, header, np.column_stack([traj.grid.times(), report.distances]))


def write_positions_csv(path: Path, traj: Trajectory, params):
    """Absolute planar tracks, reconstructed under the displacement convention.

    The evader's track integrates its own control by the trapezoid rule
    (rendering accuracy only); pursuer tracks follow from the state blocks.
    """
    evader0, _ = absolute_starts(params)
    u_evader = np.asarray(traj.u[0])
    dt = traj.grid.dt
    increments = 0.5 * dt * (u_evader[1:] + u_evader[:-1])
    evader = evader0[None, :] + np.vstack([np.zeros((1, 2)), np.cumsum(increments, axis=0)])
    k = params.num_pursuers
    blocks = traj.x.reshape(-1, k, 2)
    pursuers = evader[:, None, :] - blocks
    header = ["t", "evader_x", "evader_y"]
    for j in range(k):
        header += [f"p{j + 1}_x", f"p{j + 1}_y"]
    table = np.column_stack([traj.grid.times(), evader, pursuers.reshape(len(evader), 2 * k)])
    _write_table(path, header, table)


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    mode: str
    game: GameDefinition
    grid: TimeGrid
    team_game: TeamGame | None = None
    validation: ValidationReport | None = None
    sol: RiccatiSolution | None = None
    conditions: analysis.ConditionsReport | None = None
    traj: Trajectory | None = None
    pursuit: PursuitReport | None = None
    lyapunov: LyapunovReport | None = None
    messages: list[str] = field(default_factory=list)
    timings: dict[str, tuple[float, float]] = field(default_factory=dict, compare=False)

    @property
    def solved_game(self) -> GameDefinition:
        """The game the backward solve plays: the team reduction in team mode, else the game."""
        return self.game if self.team_game is None else self.team_game.reduced


def _conditions_text(result: RunResult) -> str:
    game, sol, report = result.solved_game, result.sol, result.conditions
    lines = ["conditions report", "================="]
    lines.append(f"mode: {result.mode}")
    lines.append(
        f"players: {game.num_players}  states: {game.n}  "
        f"horizon: [{_fmt(game.t0)}, {_fmt(game.tf)}]  dt: {_fmt(result.grid.dt)}"
    )
    lines.append("")
    lines.append("sign pattern")
    lines.append(f"  aao_compliant: {_fmt_bool(result.validation.aao_compliant)}")
    for v in result.validation.verdicts:
        lines.append(
            f"  {v.name}: requirement={v.requirement} eig_min={_fmt(v.eig_min)} "
            f"eig_max={_fmt(v.eig_max)} ok={_fmt_bool(v.ok)}"
        )
    lines.append("")
    lines.append("backward solve")
    if sol is None:
        lines.append("  status: not attempted")
    else:
        lines.append(f"  status: {sol.status.value}")
        if sol.failure_time is not None:
            lines.append(f"  failure_time: {_fmt(sol.failure_time)}")
            lines.append(f"  failure_reason: {sol.failure_reason}")
        lines.append(f"  max_symmetry_residual: {_fmt(sol.max_symmetry_residual)}")
        stats = sol.stats
        lines.append(
            f"  substeps: {stats.substeps}  subdivided_intervals: {stats.subdivided_intervals}  "
            f"min_substep: {_fmt(stats.min_substep)}"
        )
        lines.append(f"  peak_norm: {_fmt(stats.peak_norm)} at t={_fmt(stats.peak_time)}")
    lines.append("")
    lines.append("certificates")
    if report is None:
        lines.append("  not assessed (no complete solve)")
    else:
        lines.append(f"  sum_Q_pd: {_fmt_bool(report.sum_q_pd)} (min_eig={_fmt(report.sum_q_min_eig)})")
        lines.append(
            f"  sum_Sf_pd: {_fmt_bool(report.sum_sf_pd)} (min_eig={_fmt(report.sum_sf_min_eig)})"
        )
        lines.append(
            f"  definiteness_along_solution: {_fmt_bool(report.definiteness_ok)} "
            f"(opponent_max_eig={_fmt(report.opponent_max_eig)}, "
            f"regulator_min_eig={_fmt(report.regulator_min_eig)})"
        )
        lines.append(
            f"  existence_screen_psd: {_fmt_bool(report.rq_screen_psd)} "
            f"(min_eig={_fmt(report.rq_screen_min_eig)})"
        )
        member = "not assessed" if report.e_membership is None else _fmt_bool(report.e_membership)
        lines.append(
            f"  envelope_membership: {member} "
            f"(max_norm={_fmt(report.max_solution_norm)}, bound={_fmt(report.envelope_bound)})"
        )
        chain = "not assessed" if report.psd_chain_ok is None else _fmt_bool(report.psd_chain_ok)
        lines.append(
            f"  psd_chain: {chain} (lower_min_eig={_fmt(report.chain_lower_min_eig)}, "
            f"upper_min_eig={_fmt(report.chain_upper_min_eig)})"
        )
        if report.p_pd is None:
            lines.append("  P_positive_definite: not assessed")
        else:
            lines.append(
                f"  P_positive_definite: {_fmt_bool(report.p_pd)} "
                f"(min_eig={_fmt(report.p_min_eig)})"
            )
        if report.horizon_bound is None:
            lines.append("  min_horizon: not applicable")
        else:
            lines.append(f"  min_horizon: {_fmt(report.horizon_bound)}")
        d = report.diagonal_subclass
        lines.append(
            f"  diagonal_subclass: applicable={_fmt_bool(d.applicable)} "
            f"(diagonal={_fmt_bool(d.diagonal_ok)} h_order={_fmt_bool(d.h_order_ok)} "
            f"sums={_fmt_bool(d.sums_ok)})"
        )
    notes = list(result.validation.notes) + (list(report.notes) if report else [])
    if result.team_game is not None:
        notes += [
            "team mode: certificates refer to the reduced two-player game",
            "nash and team comparisons share the scenario dt",
        ]
    if notes:
        lines.append("")
        lines.append("notes")
        for note in notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


def _summary_text(result: RunResult) -> str:
    lines = ["run summary", "==========="]
    lines.append(f"mode: {result.mode}")
    lines.append(f"dt: {_fmt(result.grid.dt)}")
    lines.append(f"horizon: [{_fmt(result.grid.t0)}, {_fmt(result.grid.tf)}]")
    lines.append(f"exit_code: {result.exit_code}")
    if result.sol is not None:
        lines.append(f"solve_status: {result.sol.status.value}")
        if result.sol.failure_time is not None:
            lines.append(f"failure_time: {_fmt(result.sol.failure_time)}")
    if result.traj is not None:
        lines.append("costs:")
        for i, j in enumerate(result.traj.costs):
            lines.append(f"  J[{i + 1}] = {_fmt(j)}")
        if result.team_game is not None:
            alpha = result.team_game.weights.alpha
            team_cost = sum(a * result.traj.costs[i + 1] for i, a in enumerate(alpha))
            lines.append(f"  J_team = {_fmt(team_cost)}")
    if result.pursuit is not None:
        p = result.pursuit
        lines.append(f"capture_radius: {_fmt(p.capture_radius)}")
        lines.append(f"captured: {_fmt_bool(p.captured)}")
        if p.captured:
            lines.append(f"capture_time: {_fmt(p.capture_time)}")
            lines.append(f"captured_by: P{p.captured_by + 1}")
        finals = " ".join(f"d{j + 1}={_fmt(v)}" for j, v in enumerate(p.final_distances))
        lines.append(f"final_distances: {finals}")
        initials = " ".join(f"d{j + 1}={_fmt(v)}" for j, v in enumerate(p.distances[0]))
        lines.append(f"initial_distances: {initials}")
    if result.lyapunov is not None:
        lines.append(f"decay_certificate_ok: {_fmt_bool(result.lyapunov.ok)}")
        lines.append(f"decay_rate: {_fmt(result.lyapunov.decay_rate)}")
    if result.messages:
        lines.append("notes:")
        for msg in result.messages:
            lines.append(f"  - {msg}")
    return "\n".join(lines) + "\n"


def _team_game(scenario: Scenario, game: GameDefinition, mode: str) -> TeamGame | None:
    """The reduced game the regulators play as one team; None in nash mode."""
    if mode != "team":
        return None
    weights = TeamWeights(scenario.run.alphas) if scenario.run.alphas else None
    return build_team_game(game, weights)


def _player_gains(
    game: GameDefinition, team_game: TeamGame | None, sol: RiccatiSolution
) -> list[FeedbackGain]:
    """Feedback gains of every player of ``game``.

    ``sol`` solves ``game`` itself in nash mode and ``team_game.reduced`` in
    team mode, where the team gain is split back into per-regulator gains.
    """
    if team_game is None:
        return gains(game, sol)
    opponent, team = gains(team_game.reduced, sol)
    return [opponent] + team_gains_to_players(team_game, team)


def _out_path(scenario: Scenario, out_dir) -> Path:
    """``out_dir`` (the scenario's if None), checked as ``RunConfig`` checks it."""
    run_cfg = scenario.run if out_dir is None else replace(scenario.run, out_dir=os.fspath(out_dir))
    return Path(run_cfg.out_dir)


def run(scenario: Scenario, out_dir=None, *, level: str = "simulate") -> RunResult:
    """Execute one scenario: validate, solve, verify, simulate, write artifacts.

    ``level`` limits the pipeline: "check" stops after verification and
    writes conditions.txt plus summary.txt; "solve" additionally writes
    solution.csv; "simulate" (the default) adds the forward run with
    trajectory.csv, distances.csv and, for pursuit scenarios,
    positions.csv; any of these six an earlier run left is removed first.
    A failed stage sets the exit code and skips the stages after it;
    conditions.txt and summary.txt are written once either way. Each stage
    that ran adds its (CPU s, wall s) to ``result.timings``: ``solve``,
    ``verify_solution``, ``solution.csv``, ``gains + simulate``,
    ``lyapunov_check`` and ``other writers`` (the forward files and the
    pursuit report). ``out_dir`` overrides ``scenario.run.out_dir`` and is
    checked as it is, before anything is written.
    """
    if level not in ("check", "solve", "simulate"):
        raise ValueError(f"unknown run level {level!r}")
    out = _out_path(scenario, out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for stale in ("conditions.txt", "summary.txt", "solution.csv", "trajectory.csv",
                  "distances.csv", "positions.csv"):
        (out / stale).unlink(missing_ok=True)
    game = scenario.build_game()
    result = RunResult(EXIT_OK, out, scenario.run.mode, game=game, grid=scenario.grid)
    result.validation = validate(game)
    if not result.validation.aao_compliant:
        result.exit_code = EXIT_VALIDATION
        result.messages.append("game failed the all-against-one sign pattern; nothing solved")
    else:
        result.team_game = _team_game(scenario, game, result.mode)
        with _stage(result.timings, "solve"):
            result.sol = solve_coupled(result.solved_game, result.grid)
        if not result.sol.complete:
            result.exit_code = EXIT_BLOWUP
            result.messages.append(
                f"backward solve ended with status {result.sol.status.value} "
                f"at t={_fmt(result.sol.failure_time)}"
            )
        else:
            with _stage(result.timings, "verify_solution"):
                result.conditions = analysis.verify_solution(
                    result.solved_game, result.sol, scenario.run.bound_q,
                    x0_norm=float(np.linalg.norm(scenario.x0)), r=scenario.capture_radius,
                )
    _write_chunks(out / "conditions.txt", (_conditions_text(result),))
    if result.sol is not None and level in ("solve", "simulate"):
        with _stage(result.timings, "solution.csv"):
            write_solution_csv(out / "solution.csv", result.sol)
    if result.conditions is not None and level == "simulate":
        try:
            with _stage(result.timings, "gains + simulate"):
                result.traj = simulate(
                    game, _player_gains(game, result.team_game, result.sol), scenario.x0
                )
        except DivergenceError as exc:
            result.exit_code = EXIT_DIVERGENCE
            result.messages.append(str(exc))
    if result.traj is not None:
        with _stage(result.timings, "other writers"):
            write_trajectory_csv(out / "trajectory.csv", result.traj)
            if game.n % 2 == 0:
                result.pursuit = pursuit_report(result.traj, scenario.capture_radius)
                write_distances_csv(out / "distances.csv", result.traj, result.pursuit)
            if scenario.pursuit is not None:
                write_positions_csv(out / "positions.csv", result.traj, scenario.pursuit)
        if result.pursuit is None:
            result.messages.append("odd state dimension: no distance reporting")
        try:
            with _stage(result.timings, "lyapunov_check"):
                result.lyapunov = lyapunov_check(result.traj, result.sol, result.conditions)
        except NotApplicableError as exc:
            result.messages.append(str(exc))
    _write_chunks(out / "summary.txt", (_summary_text(result),))
    return result


@dataclass(eq=False)
class SweepCell(ValueEquality):
    mode: str
    tf: float
    distances: np.ndarray | None
    captured: bool | None
    status: str


@dataclass(eq=False)
class SweepResult(ValueEquality):
    modes: tuple[str, ...]
    tf_list: tuple[float, ...]
    cells: list[SweepCell]
    solves: list[tuple[list[SolveStats], int]] = field(default_factory=list)
    timings: dict[str, tuple[float, float]] = field(default_factory=dict, compare=False)

    def cell(self, mode: str, tf: float) -> SweepCell:
        for c in self.cells:
            if c.mode == mode and c.tf == tf:
                return c
        raise KeyError((mode, tf))


class _ClosedLoopFold:
    """One game's receiver of :func:`march_lockstep` nodes; keeps A_cl only.

    ``team`` is ``game``'s team reduction, which the march solves, or None.
    It holds up to ``chunk_items(players * n * n)`` nodes of S. Whenever
    that many are held, and in :meth:`finish`, the held nodes' gains
    (``_player_gains``) are folded into ``closed_loop``: the calls
    ``run()`` makes, on the same per-node operands. Nodes never received
    stay NaN.
    """

    def __init__(self, game: GameDefinition, team: TeamGame | None, grid: TimeGrid):
        self.game, self.team, self.grid = game, team, grid
        players = game.num_players if team is None else team.reduced.num_players
        self.acl = np.full((grid.steps + 1, game.n, game.n), np.nan)
        self.size = chunk_items(players * game.n * game.n)
        # Nodes lo .. hi - 1 are held, node k at held[:, k - hi + size].
        self.held = np.empty((players, self.size, game.n * game.n))
        self.lo = self.hi = grid.steps + 1

    def __setitem__(self, k: int, s: np.ndarray) -> None:
        # The march stores nodes in descending order.
        self.held[:, k - self.hi + self.size] = s
        self.lo = k
        if self.hi - k == self.size:
            self._fold()

    def _fold(self) -> None:
        lo, hi, n = self.lo, self.hi, self.game.n
        if lo == hi:
            return
        # gains() reads only S of a complete solution; the grid is the march's.
        sol = RiccatiSolution(
            self.grid,
            self.held[:, lo - hi + self.size :].reshape(-1, hi - lo, n, n),
            SolveStatus.COMPLETE, None, None, 0.0, SolveStats(0, 0, 0.0, 0.0, 0.0),
        )
        self.acl[lo:hi] = closed_loop(self.game, _player_gains(self.game, self.team, sol))
        self.hi = lo

    def finish(self) -> np.ndarray:
        """Fold the held nodes; the closed-loop matrix at every node, (steps+1, n, n)."""
        self._fold()
        return self.acl


def _sweep_closed_loops(scenario: Scenario, modes: tuple[str, ...], tf: float):
    """Every mode's closed-loop matrices of the horizon-``tf`` game, off one march.

    Each mode plays the game, or its team reduction, and all of them are
    marched in one loop. Each mode's :class:`_ClosedLoopFold` turns the
    nodes into closed-loop matrices as the march reaches them, so no
    history of S is held. Returns the grid, the march's failures, stats
    and iterations, and each mode's matrices, (steps+1, n, n).
    """
    long = scenario.with_tf(tf)
    game, grid = long.build_game(), long.grid
    teams = [_team_game(scenario, game, mode) for mode in modes]
    folds = [_ClosedLoopFold(game, team, grid) for team in teams]
    failed, stats, iterations = march_lockstep(
        [game if team is None else team.reduced for team in teams], grid, folds
    )
    return grid, failed, stats, iterations, [fold.finish() for fold in folds]


def _sweep_cells(scenario: Scenario, modes, long_grid, grids, failed, acls) -> dict:
    """The cells of every horizon of ``grids`` ({tf: grid}), keyed by (mode, tf).

    ``long_grid``, ``failed`` and ``acls`` come from
    :func:`_sweep_closed_loops` of the longest horizon. Each cell starts at
    the node of ``long_grid`` where its horizon does and reads the tail of
    its mode's matrices; each mode makes one forward pass for all its
    cells. Each entry of ``acls`` is set to None before its mode's pass, so
    its matrices go once its cells are made.
    """
    cells = {}
    for i, mode in enumerate(modes):
        acl, acls[i] = acls[i], None
        fail = failed.get(i)
        starts = {}
        for tf, grid in grids.items():
            start = long_grid.steps - grid.steps
            # A failed solve never reached its failure node or any before
            # it; a fresh solve of this horizon fails at the same node once
            # its slice starts at one.
            if fail is None or start > fail[0]:
                starts[tf] = start
            else:
                cells[mode, tf] = SweepCell(mode, tf, None, None, fail[1].value)
        if not starts:
            continue
        states = _propagate(long_grid, acl, scenario.x0, list(starts.values()))
        for tf, x in zip(starts, states):
            if isinstance(x, DivergenceError):
                cells[mode, tf] = SweepCell(mode, tf, None, None, "diverged")
            else:
                report = _pursuit_report(x, grids[tf], scenario.capture_radius)
                cells[mode, tf] = SweepCell(mode, tf, report.final_distances, report.captured, "ok")
    return cells


def run_sweep(scenario: Scenario, tf_list, modes=None, out_dir=None) -> SweepResult:
    """Solve and simulate every (mode, tf) cell; rectangular results table.

    The game must pass the all-against-one sign pattern, as in ``run()``;
    otherwise :class:`ValidationError` is raised before anything is solved
    or written. Every game here is time-invariant, so the Riccati solution
    depends on time-to-go only and one long solve holds every shorter
    horizon. Cells are grouped by the step of their grid
    ``TimeGrid.from_step(t0, tf, dt)``, compared exactly; each group solves
    the longest horizon of every mode once, all modes in one lockstep loop,
    and every cell reads the tail slice of its mode's solve, which equals a
    fresh solve of the cell's horizon bitwise. Each mode's nodes are
    folded into closed-loop matrices while the loop runs, each node's
    gains formed once, and each mode runs one forward pass, which advances
    every cell from its start node through the same closed-loop maps; each
    cell's final distances and capture flag equal its own ``run()``
    bitwise. Every cell is attempted; blow-ups and divergences are recorded
    in the cell status and the sweep continues. ``solves`` holds each step
    group's per-mode :class:`SolveStats` and lockstep iterations; ``timings``
    the (CPU s, wall s) of ``sweep solve`` and ``sweep forward``.
    """
    modes = tuple(modes) if modes else (scenario.run.mode,)
    for m in modes:
        if m not in ("nash", "team"):
            raise ValueError(f"unknown sweep mode {m!r}")
    if len(set(modes)) < len(modes):
        raise ValueError(f"sweep modes must be distinct, got {','.join(modes)}")
    tf_tuple = tuple(float(t) for t in tf_list)
    if not tf_tuple:
        raise ValueError("tf_list must not be empty")
    base_game = scenario.build_game()
    if base_game.n % 2:
        raise ValueError("sweeps need an even state dimension for distance reporting")
    if not validate(base_game).aao_compliant:
        raise ValidationError("game failed the all-against-one sign pattern; nothing solved")
    k = base_game.n // 2
    groups: dict[float, dict[float, TimeGrid]] = {}
    for tf in tf_tuple:
        try:
            grid = TimeGrid.from_step(base_game.t0, tf, scenario.run.dt)
        except ValidationError as exc:
            raise ValidationError(f"tf_list: tf={tf!r}: {exc}") from None
        groups.setdefault(grid.dt, {})[tf] = grid
    out = _out_path(scenario, out_dir)

    by_cell, solves, timings = {}, [], {}
    for grids in groups.values():
        with _stage(timings, "sweep solve"):
            long_grid, failed, *solve, acls = _sweep_closed_loops(scenario, modes, max(grids))
        solves.append(tuple(solve))
        with _stage(timings, "sweep forward"):
            by_cell.update(_sweep_cells(scenario, modes, long_grid, grids, failed, acls))
    cells = [by_cell[mode, tf] for mode in modes for tf in tf_tuple]

    def lines():
        yield ",".join(["mode", "tf"] + [f"d{j + 1}" for j in range(k)] + ["captured"]) + "\n"
        for c in cells:
            if c.status == "ok":
                ds = [_fmt(v) for v in c.distances]
                cap = _fmt_bool(c.captured)
            else:
                ds = ["nan"] * k
                cap = c.status
            yield ",".join([c.mode, _fmt(c.tf)] + ds + [cap]) + "\n"

    # Made only now: a group's longest horizon, built as a scenario, may be
    # refused (the history ceiling), and that must leave no directory.
    out.mkdir(parents=True, exist_ok=True)
    _write_chunks(out / "sweep.csv", lines())
    return SweepResult(modes, tf_tuple, cells, solves, timings)
