"""Team-optimal play: collapse the regulators into one composite player.

Weighting the regulator costs by a convex combination alpha and summing
turns the M-player game into a two-player game between the opponent and a
team whose input matrix stacks the regulator input matrices side by side,
whose control weight is the alpha-scaled block diagonal of their R_i and
whose state weights are the alpha-weighted sums. The same backward solver
handles the reduced game, and the team gain slices back into per-player
gains by control row blocks.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ValidationError
from .game import OPPONENT, GameDefinition
from .riccati import FeedbackGain


@dataclass(frozen=True)
class TeamWeights:
    """Strictly positive convex weights over the M-1 regulators."""

    alpha: tuple[float, ...]

    def __post_init__(self):
        alpha = tuple(float(a) for a in self.alpha)
        if not alpha:
            raise ValidationError("at least one team weight is required")
        if not all(a > 0.0 for a in alpha):
            raise ValidationError("team weights must be strictly positive")
        if not abs(sum(alpha) - 1.0) <= 1e-12:
            raise ValidationError(f"team weights must sum to 1, got {sum(alpha)!r}")
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def uniform(cls, count: int) -> "TeamWeights":
        if count < 1:
            raise ValidationError("uniform weights need at least one regulator")
        return cls(alpha=tuple(1.0 / count for _ in range(count)))


@dataclass(frozen=True)
class TeamGame:
    """Reduced two-player game plus the bookkeeping to undo the stacking.

    ``slots[j]`` is the (start, stop) column range of regulator j+2's
    control inside the stacked team control vector. The opponent's
    matrices are carried over untouched.
    """

    reduced: GameDefinition
    slots: tuple[tuple[int, int], ...]
    weights: TeamWeights


def build_team_game(game: GameDefinition, weights: TeamWeights | None = None) -> TeamGame:
    """Build the reduced game. Default weights are uniform over regulators."""
    m = game.num_players
    if m < 2:
        raise ValidationError("team reduction needs at least one regulator")
    count = m - 1
    w = TeamWeights.uniform(count) if weights is None else weights
    if len(w.alpha) != count:
        raise ValidationError(f"expected {count} team weights, got {len(w.alpha)}")
    b_team = np.hstack([np.array(game.B[i]) for i in range(1, m)])
    r_blocks = [w.alpha[i - 1] * np.array(game.R[i]) for i in range(1, m)]
    r_team = np.array(linalg.block_diag(r_blocks))
    q_team = sum(w.alpha[i - 1] * np.array(game.Q[i]) for i in range(1, m))
    sf_team = sum(w.alpha[i - 1] * np.array(game.S_f[i]) for i in range(1, m))
    reduced = GameDefinition(
        A=game.A,
        B=(game.B[OPPONENT], b_team),
        Q=(game.Q[OPPONENT], q_team),
        R=(game.R[OPPONENT], r_team),
        S_f=(game.S_f[OPPONENT], sf_team),
        t0=game.t0,
        tf=game.tf,
    )
    slots = []
    at = 0
    for i in range(1, m):
        width = game.B[i].shape[1]
        slots.append((at, at + width))
        at += width
    return TeamGame(reduced=reduced, slots=tuple(slots), weights=w)


def team_gains_to_players(team_game: TeamGame, team_gain: FeedbackGain) -> list[FeedbackGain]:
    """Row-slice the team feedback gain into per-regulator gains.

    The returned gains carry the original game's player indices (2..M in
    1-based terms, 1..M-1 here) and share the team gain's grid.
    """
    if team_gain.player != 1:
        raise ValidationError("expected the reduced game's team player gain (player index 1)")
    total = team_game.slots[-1][1]
    if team_gain.K.shape[1] != total:
        raise ValidationError(
            f"team gain has {team_gain.K.shape[1]} control rows, expected {total}"
        )
    out = []
    for j, (a, b) in enumerate(team_game.slots):
        block = team_gain.K[:, a:b, :].copy()
        block.flags.writeable = False
        out.append(FeedbackGain(player=j + 1, grid=team_gain.grid, K=block))
    return out
