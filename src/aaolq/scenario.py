"""Scenario documents: one JSON file fully determines a run.

Schema version 1. Top level keys:

* ``schema_version``: required, must be 1.
* exactly one of
  ``pursuit``: the planar pursuit family (see :class:`PursuitParams`), or
  ``explicit``: every game matrix inline (``A``, per-player lists ``B``,
  ``Q``, ``R``, ``S_f``, scalars ``t0``/``tf`` and the initial state
  ``x0``). Matrices are row-major arrays of arrays of decimal literals.
* ``run``: mode ("nash" or "team"), optional team weights ``alphas``,
  step size ``dt``, optional symmetric n x n ``bound_q`` fed to the
  existence screen and envelope bound, ``capture_radius`` for explicit
  games only (default 0.1; a pursuit game reads ``pursuit.capture_radius``
  and rejects this field), and the output directory ``out_dir``.

Every check on a scenario lives in the :class:`RunConfig` and
:class:`Scenario` constructors, so a parsed file, a CLI override and a
scenario built in Python are checked alike: R_i > 0 with an eigenvalue
ratio of at most 1e12 and t0 <= tf of the game, a step ``dt`` that gives
the horizon a finite grid, the size and finiteness of the initial state,
the size of ``bound_q``, a non-empty ``out_dir``, team weights that
are a convex combination over the M - 1 regulators, and one capture
radius per scenario. The parser only
converts JSON types and rejects unknown fields at every level. Errors
carry the path of the offending field. A scenario keeps the game its
constructor built and checked, returned by :meth:`Scenario.build_game`,
and the grid it checked, ``Scenario.grid``. Emission uses ``repr`` floats
(17 significant digits), so parse(emit(s)) reproduces every matrix bitwise.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import linalg
from .errors import ScenarioError, ValidationError
from .game import GameDefinition, PursuitParams, ValueEquality, build_pursuit_example
from .riccati import TimeGrid
from .team import TeamWeights

SCHEMA_VERSION = 1
MODES = ("nash", "team")


@dataclass(frozen=True, eq=False)
class RunConfig(ValueEquality):
    mode: str = "nash"
    alphas: tuple[float, ...] | None = None
    dt: float = 1e-3
    bound_q: np.ndarray | None = None
    capture_radius: float | None = None
    out_dir: str = "out"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ScenarioError(f"run.mode: expected one of {MODES}, got {self.mode!r}")
        if not 0.0 < self.dt < math.inf:
            raise ScenarioError("run.dt: dt must be positive and finite")
        if self.capture_radius is not None and not self.capture_radius > 0:
            raise ScenarioError("run.capture_radius: must be positive")
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ScenarioError("run.out_dir: expected a non-empty string")
        if self.alphas is not None:
            try:
                alphas = TeamWeights(self.alphas).alpha
            except ValidationError as exc:
                raise ScenarioError(f"run.alphas: {exc}") from exc
            object.__setattr__(self, "alphas", alphas)
        if self.bound_q is not None:
            try:
                bound_q = linalg.as_symmetric(self.bound_q, "run.bound_q")
            except ValidationError as exc:
                raise ScenarioError(str(exc)) from exc
            object.__setattr__(self, "bound_q", bound_q)


@dataclass(frozen=True, eq=False)
class Scenario(ValueEquality):
    """A game source, an initial state and run settings, checked together on construction."""

    pursuit: PursuitParams | None
    explicit: GameDefinition | None
    explicit_x0: np.ndarray | None
    run: RunConfig
    _game: GameDefinition = field(init=False, repr=False)
    grid: TimeGrid = field(init=False, repr=False)

    def __post_init__(self):
        if (self.pursuit is None) == (self.explicit is None):
            raise ScenarioError("scenario: exactly one of 'pursuit' or 'explicit' must be given")
        if self.explicit is not None and self.explicit_x0 is None:
            raise ScenarioError("explicit.x0: required for explicit games")
        if self.pursuit is not None and self.run.capture_radius is not None:
            raise ScenarioError(
                "run.capture_radius: a pursuit game takes its radius from pursuit.capture_radius"
            )
        source = "pursuit" if self.pursuit is not None else "explicit"
        try:
            game = self.explicit if self.pursuit is None else build_pursuit_example(self.pursuit)
        except ValidationError as exc:
            raise ScenarioError(f"{source}: {exc}") from exc
        object.__setattr__(self, "_game", game)
        try:
            grid = TimeGrid.from_step(game.t0, game.tf, self.run.dt)
        except ValidationError as exc:
            raise ScenarioError(f"run.dt: {exc}") from exc
        object.__setattr__(self, "grid", grid)
        n, regulators = game.n, game.num_players - 1
        if self.x0.size != n:
            raise ScenarioError(f"{source}.x0: expected {n} entries, got {self.x0.size}")
        if not np.isfinite(self.x0).all():
            raise ScenarioError(f"{source}.x0: entries must be finite")
        alphas = self.run.alphas
        if alphas is not None and len(alphas) != regulators:
            raise ScenarioError(f"run.alphas: expected {regulators} weights, got {len(alphas)}")
        bound_q = self.run.bound_q
        if bound_q is not None and bound_q.shape[0] != n:
            k = bound_q.shape[0]
            raise ScenarioError(f"run.bound_q: expected {n} x {n}, got {k} x {k}")

    def with_tf(self, tf: float, **changes) -> "Scenario":
        """The same scenario with its horizon ending at ``tf`` and the other
        field ``changes`` applied, built and checked once."""
        if self.pursuit is not None:
            pursuit = dataclasses.replace(self.pursuit, tf=tf)
            return dataclasses.replace(self, pursuit=pursuit, **changes)
        try:
            explicit = dataclasses.replace(self.explicit, tf=tf)
        except ValidationError as exc:
            raise ScenarioError(f"explicit: {exc}") from exc
        return dataclasses.replace(self, explicit=explicit, **changes)

    def build_game(self) -> GameDefinition:
        """The game this scenario's constructor built and checked, the same object every call."""
        return self._game

    @property
    def x0(self) -> np.ndarray:
        if self.pursuit is not None:
            return np.array(self.pursuit.x0, dtype=float)
        return np.array(self.explicit_x0, dtype=float)

    @property
    def capture_radius(self) -> float:
        if self.pursuit is not None:
            return self.pursuit.capture_radius
        return 0.1 if self.run.capture_radius is None else self.run.capture_radius


def _known(obj, keys: tuple[str, ...], path: str) -> dict:
    """``obj`` itself, once it is an object with no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ScenarioError(f"{path}: expected an object")
    unknown = sorted(set(obj) - set(keys))
    if unknown:
        raise ScenarioError(f"{path}.{unknown[0]}: unknown field")
    return obj


_WEIGHTS = ("terminal_weight", "state_weight", "control_weight")


def _require(obj: dict, key: str, path: str):
    if key not in obj:
        raise ScenarioError(f"{path}.{key}: required field is missing")
    return obj[key]


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"{path}: expected a number, got {type(value).__name__}")
    if not math.isfinite(float(value)):
        raise ScenarioError(f"{path}: must be finite")
    return float(value)


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{path}: expected an integer, got {type(value).__name__}")
    return value


def _vector(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}: expected a non-empty array of numbers")
    return tuple(_number(v, f"{path}[{i}]") for i, v in enumerate(value))


def _matrix(value, path: str) -> np.ndarray:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}: expected a non-empty array of rows")
    rows = []
    width = None
    for i, row in enumerate(value):
        if not isinstance(row, list) or not row:
            raise ScenarioError(f"{path}[{i}]: expected a non-empty array of numbers")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ScenarioError(f"{path}[{i}]: ragged row, expected {width} entries")
        rows.append([_number(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)])
    return np.array(rows, dtype=float)


def _matrix_list(value, path: str) -> list[np.ndarray]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{path}: expected a non-empty array of matrices")
    return [_matrix(m, f"{path}[{i}]") for i, m in enumerate(value)]


def _parse_pursuit(obj, path: str) -> PursuitParams:
    _known(
        obj,
        ("num_pursuers", "evader", "pursuers", "t0", "tf", "capture_radius", "x0", "evader_start"),
        path,
    )
    num = _integer(_require(obj, "num_pursuers", path), f"{path}.num_pursuers")

    def weights(entry, epath) -> list[float]:
        _known(entry, _WEIGHTS, epath)
        return [_number(_require(entry, key, epath), f"{epath}.{key}") for key in _WEIGHTS]

    evader = weights(_require(obj, "evader", path), f"{path}.evader")
    pursuers = _require(obj, "pursuers", path)
    if not isinstance(pursuers, list):
        raise ScenarioError(f"{path}.pursuers: expected an array of objects")
    if len(pursuers) != num:
        raise ScenarioError(f"{path}.pursuers: expected {num} entries, got {len(pursuers)}")
    rows = [weights(p, f"{path}.pursuers[{i}]") for i, p in enumerate(pursuers)]
    kwargs = dict(
        num_pursuers=num,
        t0=_number(obj.get("t0", 0.0), f"{path}.t0"),
        tf=_number(_require(obj, "tf", path), f"{path}.tf"),
        capture_radius=_number(obj.get("capture_radius", 0.1), f"{path}.capture_radius"),
        x0=_vector(_require(obj, "x0", path), f"{path}.x0"),
    )
    for k, key in enumerate(_WEIGHTS):
        kwargs[f"evader_{key}"] = evader[k]
        kwargs[f"pursuer_{key}s"] = tuple(row[k] for row in rows)
    if "evader_start" in obj:
        kwargs["evader_start"] = _vector(obj["evader_start"], f"{path}.evader_start")
    try:
        return PursuitParams(**kwargs)
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc


def _parse_explicit(obj, path: str) -> tuple[GameDefinition, np.ndarray]:
    _known(obj, ("A", "B", "Q", "R", "S_f", "t0", "tf", "x0"), path)
    a = _matrix(_require(obj, "A", path), f"{path}.A")
    bs = _matrix_list(_require(obj, "B", path), f"{path}.B")
    qs = _matrix_list(_require(obj, "Q", path), f"{path}.Q")
    rs = _matrix_list(_require(obj, "R", path), f"{path}.R")
    sfs = _matrix_list(_require(obj, "S_f", path), f"{path}.S_f")
    t0 = _number(obj.get("t0", 0.0), f"{path}.t0")
    tf = _number(_require(obj, "tf", path), f"{path}.tf")
    x0 = np.array(_vector(_require(obj, "x0", path), f"{path}.x0"))
    try:
        game = GameDefinition(A=a, B=tuple(bs), Q=tuple(qs), R=tuple(rs), S_f=tuple(sfs), t0=t0, tf=tf)
    except ValidationError as exc:
        raise ScenarioError(f"{path}: {exc}") from exc
    return game, x0


def _parse_run(obj, path: str) -> RunConfig:
    keys = ("mode", "alphas", "dt", "bound_q", "capture_radius", "out_dir")
    obj = _known({} if obj is None else obj, keys, path)
    alphas = obj.get("alphas")
    dt = _number(obj.get("dt", 1e-3), f"{path}.dt")
    bound_q = None
    if obj.get("bound_q") is not None:
        bound_q = _matrix(obj["bound_q"], f"{path}.bound_q")
    radius = obj.get("capture_radius")
    if radius is not None:
        radius = _number(radius, f"{path}.capture_radius")
    return RunConfig(
        mode=obj.get("mode", "nash"),
        alphas=None if alphas is None else _vector(alphas, f"{path}.alphas"),
        dt=dt,
        bound_q=bound_q,
        capture_radius=radius,
        out_dir=obj.get("out_dir", "out"),
    )


def parse_scenario(text: str) -> Scenario:
    """Parse and validate one scenario document."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    _known(doc, ("schema_version", "pursuit", "explicit", "run"), "scenario")
    version = _require(doc, "schema_version", "scenario")
    if version != SCHEMA_VERSION:
        raise ScenarioError(
            f"scenario.schema_version: expected {SCHEMA_VERSION}, got {version!r}"
        )
    pursuit = explicit = x0 = None
    if doc.get("pursuit") is not None:
        pursuit = _parse_pursuit(doc["pursuit"], "pursuit")
    if doc.get("explicit") is not None:
        explicit, x0 = _parse_explicit(doc["explicit"], "explicit")
    run = _parse_run(doc.get("run"), "run")
    return Scenario(pursuit=pursuit, explicit=explicit, explicit_x0=x0, run=run)


def load_scenario(path) -> Scenario:
    return parse_scenario(Path(path).read_text())


def emit_scenario(scenario: Scenario) -> str:
    """Serialize a scenario back to its canonical JSON form."""
    doc: dict = {"schema_version": SCHEMA_VERSION}
    if scenario.pursuit is not None:
        p = scenario.pursuit
        doc["pursuit"] = {
            "num_pursuers": p.num_pursuers,
            "evader": {
                "terminal_weight": p.evader_terminal_weight,
                "state_weight": p.evader_state_weight,
                "control_weight": p.evader_control_weight,
            },
            "pursuers": [
                {
                    "terminal_weight": p.pursuer_terminal_weights[j],
                    "state_weight": p.pursuer_state_weights[j],
                    "control_weight": p.pursuer_control_weights[j],
                }
                for j in range(p.num_pursuers)
            ],
            "t0": p.t0,
            "tf": p.tf,
            "capture_radius": p.capture_radius,
            "x0": list(p.x0),
            "evader_start": list(p.evader_start),
        }
    else:
        g = scenario.explicit
        doc["explicit"] = {
            "A": g.A.tolist(),
            "B": [b.tolist() for b in g.B],
            "Q": [q.tolist() for q in g.Q],
            "R": [r.tolist() for r in g.R],
            "S_f": [s.tolist() for s in g.S_f],
            "t0": g.t0,
            "tf": g.tf,
            "x0": scenario.explicit_x0.tolist(),
        }
    run = scenario.run
    doc["run"] = {
        "mode": run.mode,
        "alphas": list(run.alphas) if run.alphas is not None else None,
        "dt": run.dt,
        "bound_q": run.bound_q.tolist() if run.bound_q is not None else None,
        "capture_radius": run.capture_radius,
        "out_dir": run.out_dir,
    }
    return json.dumps(doc, indent=2) + "\n"
