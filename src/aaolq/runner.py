"""Run pipeline: scenario in, CSV and text artifacts out.

Every artifact is written deterministically: floats are serialized with
``repr`` (shortest round-trip form), row order is fixed, and files land
via a temp-file rename so readers never observe partial writes. The CSV
writers format whole arrays at once: each distinct value, told apart by
its bit pattern, is formatted once, and the rows stream into the temp
file in chunks before the rename, so no whole file is held in memory.
Exit codes: 0 success, 2 validation failure, 3 backward solve blow-up,
4 closed-loop divergence.
"""
from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import analysis
from .errors import DivergenceError, NotApplicableError
from .game import GameDefinition, ValidationReport, absolute_starts, validate
from .riccati import FeedbackGain, RiccatiSolution, SolveStatus, TimeGrid, gains, solve_coupled
from .scenario import Scenario
from .sim import LyapunovReport, PursuitReport, Trajectory, lyapunov_check, pursuit_report, simulate
from .team import TeamGame, TeamWeights, build_team_game, team_gains_to_players

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_BLOWUP = 3
EXIT_DIVERGENCE = 4

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


def _write_text(path: Path, text: str):
    _write_chunks(path, (text,))


def _write_rows(path: Path, header: list[str], rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(r) for r in rows)
    _write_text(path, "\n".join(lines) + "\n")


#: Rows per chunk :func:`_write_table` hands to the file.
_CHUNK_ROWS = 4096


def _reprs(values: np.ndarray) -> list[str]:
    """``_fmt`` of every value in C order, formatting each distinct value once.

    Values are uniqued by their bit patterns, so ``-0.0`` and ``0.0`` (equal
    as floats, different in print) stay apart.
    """
    bits = np.ascontiguousarray(values, dtype=float).reshape(-1).view(np.int64)
    distinct, inverse = np.unique(bits, return_inverse=True)
    texts = np.array(list(map(repr, distinct.view(float).tolist())), dtype=object)
    return texts[inverse].tolist()


def _write_table(path: Path, header: list[str], table: np.ndarray) -> None:
    """One CSV row per row of the float array ``table``."""
    width = table.shape[1]
    cells = _reprs(table)
    row = ",".join(["%s"] * width) + "\n"
    step = _CHUNK_ROWS * width

    def chunks():
        yield ",".join(header) + "\n"
        for lo in range(0, len(cells), step):
            block = cells[lo : lo + step]
            yield (row * (len(block) // width)) % tuple(block)

    _write_chunks(path, chunks())


def write_solution_csv(path: Path, sol: RiccatiSolution):
    """Long-form dump: one row per (time, player, entry)."""
    m, _, n, _ = sol.S.shape
    width = m * n * n
    # One time node's rows; "\0" stands for its time, "%s" for each value.
    node = "".join(
        f"\0,{i + 1},{r + 1},{c + 1},%s\n" for i in range(m) for r in range(n) for c in range(n)
    )
    values = _reprs(np.moveaxis(sol.S, 1, 0))

    def chunks():
        yield "t,player,row,col,value\n"
        for k, t in enumerate(sol.grid.times().tolist()):
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


def format_conditions(
    mode: str,
    game: GameDefinition,
    grid: TimeGrid,
    validation: ValidationReport,
    sol: RiccatiSolution | None,
    report: analysis.ConditionsReport | None,
    extra_notes: tuple[str, ...] = (),
) -> str:
    lines = ["conditions report", "================="]
    lines.append(f"mode: {mode}")
    lines.append(
        f"players: {game.num_players}  states: {game.n}  "
        f"horizon: [{_fmt(game.t0)}, {_fmt(game.tf)}]  dt: {_fmt(grid.dt)}"
    )
    lines.append("")
    lines.append("sign pattern")
    lines.append(f"  aao_compliant: {_fmt_bool(validation.aao_compliant)}")
    for v in validation.verdicts:
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
    notes = list(validation.notes) + (list(report.notes) if report else []) + list(extra_notes)
    if notes:
        lines.append("")
        lines.append("notes")
        for note in notes:
            lines.append(f"  - {note}")
    return "\n".join(lines) + "\n"


@dataclass
class RunResult:
    exit_code: int
    out_dir: Path
    mode: str
    game: GameDefinition | None = None
    grid: TimeGrid | None = None
    team_game: TeamGame | None = None
    validation: ValidationReport | None = None
    sol: RiccatiSolution | None = None
    conditions: analysis.ConditionsReport | None = None
    traj: Trajectory | None = None
    pursuit: PursuitReport | None = None
    lyapunov: LyapunovReport | None = None
    messages: list[str] = field(default_factory=list)


def _summary_text(result: RunResult, scenario: Scenario, team_cost: float | None) -> str:
    lines = ["run summary", "==========="]
    lines.append(f"mode: {result.mode}")
    if result.grid is not None:
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
        if team_cost is not None:
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


def run(scenario: Scenario, out_dir=None, *, level: str = "simulate") -> RunResult:
    """Execute one scenario: validate, solve, verify, simulate, write artifacts.

    ``level`` limits the pipeline: "check" stops after verification and
    writes conditions.txt plus summary.txt; "solve" additionally writes
    solution.csv; "simulate" (the default) adds the forward run with
    trajectory.csv, distances.csv and, for pursuit scenarios,
    positions.csv.
    """
    if level not in ("check", "solve", "simulate"):
        raise ValueError(f"unknown run level {level!r}")
    out = Path(out_dir) if out_dir is not None else Path(scenario.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    mode = scenario.run.mode
    result = RunResult(exit_code=EXIT_OK, out_dir=out, mode=mode)

    game = scenario.build_game()
    result.game = game
    validation = validate(game)
    result.validation = validation
    grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
    result.grid = grid
    if not validation.aao_compliant:
        result.exit_code = EXIT_VALIDATION
        result.messages.append("game failed the all-against-one sign pattern; nothing solved")
        _write_text(
            out / "conditions.txt",
            format_conditions(mode, game, grid, validation, None, None),
        )
        _write_text(out / "summary.txt", _summary_text(result, scenario, None))
        return result

    result.team_game = _team_game(scenario, game, mode)
    active_game = game if result.team_game is None else result.team_game.reduced

    sol = solve_coupled(active_game, grid)
    result.sol = sol
    extra_notes: tuple[str, ...] = ()
    if mode == "team":
        extra_notes = (
            "team mode: certificates refer to the reduced two-player game",
            "nash and team comparisons share the scenario dt",
        )
    if not sol.complete:
        result.exit_code = EXIT_BLOWUP
        result.messages.append(
            f"backward solve ended with status {sol.status.value} at t={_fmt(sol.failure_time)}"
        )
        _write_text(
            out / "conditions.txt",
            format_conditions(mode, active_game, grid, validation, sol, None, extra_notes),
        )
        if level in ("solve", "simulate"):
            write_solution_csv(out / "solution.csv", sol)
        _write_text(out / "summary.txt", _summary_text(result, scenario, None))
        return result

    x0 = scenario.x0
    radius = scenario.capture_radius
    conditions = analysis.verify_solution(
        active_game,
        sol,
        scenario.run.bound_q,
        x0_norm=float(np.linalg.norm(x0)),
        r=radius,
    )
    result.conditions = conditions
    _write_text(
        out / "conditions.txt",
        format_conditions(mode, active_game, grid, validation, sol, conditions, extra_notes),
    )
    if level in ("solve", "simulate"):
        write_solution_csv(out / "solution.csv", sol)

    team_cost = None
    if level == "simulate":
        player_gains = _player_gains(game, result.team_game, sol)
        try:
            traj = simulate(game, player_gains, x0, sol=sol, mode=mode)
        except DivergenceError as exc:
            result.exit_code = EXIT_DIVERGENCE
            result.messages.append(str(exc))
            _write_text(out / "summary.txt", _summary_text(result, scenario, None))
            return result
        result.traj = traj
        if mode == "team":
            alpha = result.team_game.weights.alpha
            team_cost = float(sum(a * traj.costs[i + 1] for i, a in enumerate(alpha)))
        write_trajectory_csv(out / "trajectory.csv", traj)
        if game.n % 2 == 0:
            preport = pursuit_report(traj, radius)
            result.pursuit = preport
            write_distances_csv(out / "distances.csv", traj, preport)
        else:
            result.messages.append("odd state dimension: no distance reporting")
        if scenario.pursuit is not None:
            write_positions_csv(out / "positions.csv", traj, scenario.pursuit)
        try:
            result.lyapunov = lyapunov_check(active_game, traj, sol)
        except NotApplicableError as exc:
            result.messages.append(str(exc))
    _write_text(out / "summary.txt", _summary_text(result, scenario, team_cost))
    return result


@dataclass
class SweepCell:
    mode: str
    tf: float
    distances: np.ndarray | None
    captured: bool | None
    status: str


@dataclass
class SweepResult:
    modes: tuple[str, ...]
    tf_list: tuple[float, ...]
    cells: list[SweepCell]

    def cell(self, mode: str, tf: float) -> SweepCell:
        for c in self.cells:
            if c.mode == mode and c.tf == tf:
                return c
        raise KeyError((mode, tf))


def _scenario_with_tf(scenario: Scenario, tf: float) -> Scenario:
    if scenario.pursuit is not None:
        return dataclasses.replace(scenario, pursuit=dataclasses.replace(scenario.pursuit, tf=tf))
    return dataclasses.replace(scenario, explicit=dataclasses.replace(scenario.explicit, tf=tf))


def _sweep_group(scenario: Scenario, mode: str, tfs: list[float]) -> dict:
    """Cells of one (mode, dt) group, all read off one solve of its longest horizon.

    A separate function so the long solution is released on return: a
    sweep holds one at a time.
    """
    long_game = _scenario_with_tf(scenario, max(tfs)).build_game()
    long_team = _team_game(scenario, long_game, mode)
    long_grid = TimeGrid.from_step(long_game.t0, long_game.tf, scenario.run.dt)
    long_sol = solve_coupled(long_game if long_team is None else long_team.reduced, long_grid)
    cells = {}
    for tf in tfs:
        game = _scenario_with_tf(scenario, tf).build_game()
        grid = TimeGrid.from_step(game.t0, game.tf, scenario.run.dt)
        tail = long_sol.S[:, long_grid.steps - grid.steps :]
        # Nodes a failed solve never reached stay NaN; a fresh solve of this
        # horizon fails at the same node once its slice starts at one.
        if not np.isfinite(tail[:, 0]).all():
            cells[tf] = SweepCell(mode=mode, tf=tf, distances=None, captured=None, status="blow_up")
            continue
        sol = RiccatiSolution(
            grid=grid,
            S=tail,
            status=SolveStatus.COMPLETE,
            failure_time=None,
            failure_reason=None,
            max_symmetry_residual=long_sol.max_symmetry_residual,
        )
        player_gains = _player_gains(game, _team_game(scenario, game, mode), sol)
        try:
            traj = simulate(game, player_gains, scenario.x0, mode=mode)
        except DivergenceError:
            cells[tf] = SweepCell(mode=mode, tf=tf, distances=None, captured=None, status="diverged")
            continue
        report = pursuit_report(traj, scenario.capture_radius)
        cells[tf] = SweepCell(
            mode=mode,
            tf=tf,
            distances=report.final_distances,
            captured=report.captured,
            status="ok",
        )
    return cells


def run_sweep(scenario: Scenario, tf_list, modes=None, out_dir=None) -> SweepResult:
    """Solve and simulate every (mode, tf) cell; rectangular results table.

    Every game here is time-invariant, so the Riccati solution depends on
    time-to-go only and one long solve holds every shorter horizon. Cells
    are grouped by mode and by the step of their grid
    ``TimeGrid.from_step(t0, tf, dt)``, compared exactly; each group solves
    its longest horizon once and every cell simulates on the tail slice of
    that solve, which equals a fresh solve of the cell's horizon bitwise.
    Every cell is attempted; blow-ups and divergences are recorded in the
    cell status and the sweep continues.
    """
    modes = tuple(modes) if modes else (scenario.run.mode,)
    for m in modes:
        if m not in ("nash", "team"):
            raise ValueError(f"unknown sweep mode {m!r}")
    tf_tuple = tuple(float(t) for t in tf_list)
    if not tf_tuple:
        raise ValueError("tf_list must not be empty")
    base_game = scenario.build_game()
    if base_game.n % 2:
        raise ValueError("sweeps need an even state dimension for distance reporting")
    k = base_game.n // 2
    out = Path(out_dir) if out_dir is not None else Path(scenario.run.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    groups: dict[float, list[float]] = {}
    for tf in tf_tuple:
        groups.setdefault(TimeGrid.from_step(base_game.t0, tf, scenario.run.dt).dt, []).append(tf)
    cells: list[SweepCell] = []
    for mode in modes:
        by_tf = {}
        for tfs in groups.values():
            by_tf.update(_sweep_group(scenario, mode, tfs))
        cells.extend(by_tf[tf] for tf in tf_tuple)

    header = ["mode", "tf"] + [f"d{j + 1}" for j in range(k)] + ["captured"]

    def rows():
        for c in cells:
            if c.status == "ok":
                ds = [_fmt(v) for v in c.distances]
                cap = _fmt_bool(c.captured)
            else:
                ds = ["nan"] * k
                cap = c.status
            yield [c.mode, _fmt(c.tf)] + ds + [cap]

    _write_rows(out / "sweep.csv", header, rows())
    return SweepResult(modes=modes, tf_list=tf_tuple, cells=cells)
