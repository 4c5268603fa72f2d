"""Timed coin-flip betting game engine.

The game runs over a fixed time window ``[0, horizon]``. One player (the
flipper) tosses a coin on a schedule of their own choosing, starting with a
mandatory toss at time 0. The other player (the bettor) cannot see the
tosses and may, at any time inside the window, bet on the face the coin is
currently showing. A bet wins when its prediction matches the coin's state
at the bet's time.

Conventions, fixed once and used everywhere:

* A bet placed exactly at a flip's time resolves against the *new* flip
  (flip-first).
* Every game opens with a flip at time 0, so the coin state is defined for
  all t in the window.
* Bets may share a timestamp; their relative order is the input order and
  never affects resolution.
* Every seeded draw comes from one Philox stream keyed by its seed. Flip
  outcomes are drawn in flip-time order, so identical inputs reproduce
  identical traces.

:class:`GameTrace` is the one place that checks a trace and applies the
flip-first rule: one search for each bet's governing flip both resolves the
bets and builds the trace's epoch table, which every analysis reads, and
keeps the flip times and faces as read-only numpy columns.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_right
from dataclasses import dataclass, field
from itertools import groupby
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError, ValidationError

__all__ = [
    "Face",
    "Flip",
    "Bet",
    "GameConfig",
    "GameTrace",
    "EpochGrouping",
    "coin_state_at",
    "simulate_game",
    "make_trace",
]

_MAX_SEED = 2**64 - 1


def _generator(key: int) -> np.random.Generator:
    """The package's one random source: the counter-based Philox stream keyed by ``key``."""
    return np.random.Generator(np.random.Philox(key=key))


class Face(enum.Enum):
    """One of the two coin faces; also the value of a bet's prediction."""

    HEADS = "H"
    TAILS = "T"

    def opposite(self) -> "Face":
        """The other face. An involution: ``f.opposite().opposite() is f``."""
        return Face.TAILS if self is Face.HEADS else Face.HEADS

    @classmethod
    def from_token(cls, token: str) -> "Face":
        """Parse the single-letter token used in CSV files ('H' or 'T')."""
        try:
            return cls(token.strip().upper())
        except ValueError:
            raise DomainError(f"unknown face token {token!r} (expected 'H' or 'T')") from None

    @property
    def token(self) -> str:
        return self.value


@dataclass(frozen=True)
class Flip:
    """A coin toss at ``time`` (game-time units) that landed ``outcome``."""

    time: float
    outcome: Face


@dataclass(frozen=True)
class Bet:
    """A bet placed at ``time`` predicting the coin's current face."""

    time: float
    prediction: Face


@dataclass(frozen=True)
class GameConfig:
    """Fixed parameters of one game.

    Attributes:
        horizon: Length of the agreed time window; all times live in
            ``[0, horizon]``.
        coin_bias: Probability that a single toss lands heads. 0.5 is the
            fair coin; other values model a rigged coin.
        seed: Seed for the deterministic random source used to draw flip
            outcomes (64-bit unsigned).
    """

    horizon: float
    coin_bias: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        problems = []
        if not (_is_number(self.horizon) and math.isfinite(self.horizon)) or self.horizon <= 0:
            problems.append(f"horizon must be a finite positive number, got {self.horizon!r}")
        if not (_is_number(self.coin_bias) and 0.0 <= self.coin_bias <= 1.0):
            problems.append(f"coin_bias must lie in [0, 1], got {self.coin_bias!r}")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool) or not (0 <= self.seed <= _MAX_SEED):
            problems.append(f"seed must be a 64-bit unsigned integer, got {self.seed!r}")
        if problems:
            raise ValidationError(problems)


def _is_number(x: object) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _schedule_problems(
    horizon: float,
    flip_times: Sequence[float],
    bets: Sequence[Bet],
    outcomes: Sequence[Face] = (),
) -> list[str]:
    """Collect every violation of the schedule and face invariants."""
    problems: list[str] = []
    if not flip_times:
        problems.append("flip schedule is empty: the game must open with a flip at time 0")
    else:
        if flip_times[0] != 0.0:
            problems.append(f"first flip must be at time 0, got {flip_times[0]!r}")
        for i, t in enumerate(flip_times):
            if not (isinstance(t, (int, float)) and math.isfinite(t)):
                problems.append(f"flip[{i}] time is not a finite number: {t!r}")
            elif not (0.0 <= t <= horizon):
                problems.append(f"flip[{i}] time {t!r} outside [0, {horizon}]")
        for i in range(1, len(flip_times)):
            if flip_times[i - 1] >= flip_times[i]:
                problems.append(
                    f"flip times must be strictly increasing: "
                    f"flip[{i - 1}]={flip_times[i - 1]!r} >= flip[{i}]={flip_times[i]!r}"
                )
    for i, o in enumerate(outcomes):
        if not isinstance(o, Face):
            problems.append(f"flip[{i}] outcome is not a Face: {o!r}")
    for i, bet in enumerate(bets):
        t = bet.time
        if not (isinstance(t, (int, float)) and math.isfinite(t)):
            problems.append(f"bet[{i}] time is not a finite number: {t!r}")
        elif not (0.0 <= t <= horizon):
            problems.append(f"bet[{i}] time {t!r} outside [0, {horizon}]")
        if not isinstance(bet.prediction, Face):
            problems.append(f"bet[{i}] prediction is not a Face: {bet.prediction!r}")
    for i in range(1, len(bets)):
        if bets[i - 1].time > bets[i].time:
            problems.append(
                f"bet times must be non-decreasing: "
                f"bet[{i - 1}]={bets[i - 1].time!r} > bet[{i}]={bets[i].time!r}"
            )
    return problems


@dataclass(frozen=True)
class EpochGrouping:
    """Assignment of each bet to the flip (epoch) governing it.

    Every :class:`GameTrace` builds this table once, at construction;
    :func:`flipbet.probability.group_by_epoch` returns it.

    Attributes:
        bets: The grouped bets, in trace order.
        epoch_of_bet: For bet index i, the index of the governing flip:
            the largest flip index whose time is <= the bet's time
            (flip-first at shared timestamps).
        bets_per_epoch: Flip index -> indices of the bets it governs.
            Only occupied epochs appear as keys, in increasing order.
        faces: Flip index -> the face every bet of that epoch predicts,
            or None when they disagree. Same keys as ``bets_per_epoch``.
    """

    bets: tuple[Bet, ...]
    epoch_of_bet: tuple[int, ...]
    bets_per_epoch: Mapping[int, tuple[int, ...]]
    faces: Mapping[int, Face | None]

    @property
    def occupied_epochs(self) -> tuple[int, ...]:
        """Flip indices with at least one bet, in increasing order."""
        return tuple(self.bets_per_epoch)

    def epoch_of(self, bet: Bet) -> int:
        """Epoch index of a bet belonging to this grouping.

        Raises:
            DomainError: If the bet is not one of the grouped bets.
        """
        try:
            return self.epoch_of_bet[self.bets.index(bet)]
        except ValueError:
            raise DomainError(f"{bet!r} does not belong to this grouping") from None


def _epoch_table(bets: tuple[Bet, ...], epoch_of_bet: tuple[int, ...]) -> EpochGrouping:
    # Bet times never decrease, so each epoch's bets form one contiguous run.
    predictions = [b.prediction for b in bets]
    bets_per_epoch: dict[int, tuple[int, ...]] = {}
    faces: dict[int, Face | None] = {}
    start = 0
    for epoch, run in groupby(epoch_of_bet):
        stop = start + len(tuple(run))
        bets_per_epoch[epoch] = tuple(range(start, stop))
        distinct = set(predictions[start:stop])
        faces[epoch] = distinct.pop() if len(distinct) == 1 else None
        start = stop
    # Read-only views: the table is cached on the trace and shared by every caller.
    return EpochGrouping(bets, epoch_of_bet, MappingProxyType(bets_per_epoch), MappingProxyType(faces))


@dataclass(frozen=True)
class GameTrace:
    """The complete record of one game.

    Invariants (enforced at construction):

    * ``flips`` is non-empty, starts at time 0, and has strictly
      increasing times inside ``[0, horizon]``.
    * ``bets`` have non-decreasing times inside ``[0, horizon]``.
    * Every flip outcome and bet prediction is a :class:`Face`.
    * ``resolutions[i]`` is True exactly when ``bets[i]`` predicted the
      coin's state at its time (flip-first at shared timestamps).

    ``resolutions`` are derived when omitted and checked when given. The
    same governing-flip search builds the epoch table that
    :func:`flipbet.probability.group_by_epoch` returns.
    """

    config: GameConfig
    flips: tuple[Flip, ...]
    bets: tuple[Bet, ...] = field(default=())
    resolutions: tuple[bool, ...] | None = None
    _epochs: EpochGrouping = field(init=False, repr=False, compare=False)
    _flip_times: np.ndarray = field(init=False, repr=False, compare=False)
    _flip_heads: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        flips = tuple(self.flips)
        bets = tuple(self.bets)
        flip_times = [f.time for f in flips]
        problems = _schedule_problems(
            self.config.horizon, flip_times, bets, [f.outcome for f in flips]
        )
        if problems:
            raise ValidationError(problems)
        epoch_of_bet = tuple(bisect_right(flip_times, b.time) - 1 for b in bets)
        resolutions = tuple(
            b.prediction is flips[e].outcome for b, e in zip(bets, epoch_of_bet)
        )
        if self.resolutions is not None:
            given = tuple(self.resolutions)
            if len(given) != len(bets):
                raise ValidationError(f"expected {len(bets)} resolutions, got {len(given)}")
            if given != resolutions:
                raise ValidationError(
                    "resolutions do not match bet predictions against the flip record"
                )
        object.__setattr__(self, "flips", flips)
        object.__setattr__(self, "bets", bets)
        object.__setattr__(self, "resolutions", resolutions)
        object.__setattr__(self, "_epochs", _epoch_table(bets, epoch_of_bet))
        object.__setattr__(self, "_flip_times", _column(flip_times, float))
        heads = [f.outcome is Face.HEADS for f in flips]
        object.__setattr__(self, "_flip_heads", _column(heads, bool))

    @property
    def wins(self) -> int:
        """Number of winning bets."""
        return sum(self.resolutions)


def _column(values: list, dtype: type) -> np.ndarray:
    array = np.array(values, dtype=dtype)
    array.flags.writeable = False
    return array


def coin_state_at(trace: GameTrace, t: float) -> Face:
    """Face the coin shows at time ``t``.

    Returns the outcome of the latest flip with ``flip.time <= t``. When
    ``t`` coincides exactly with a flip time the new flip governs: a flip
    resolves before any bet sharing its timestamp.

    Args:
        trace: A validated game trace.
        t: Query time, inside ``[0, horizon]``.

    Raises:
        DomainError: If ``t`` lies outside the game window.
    """
    if not (isinstance(t, (int, float)) and 0.0 <= t <= trace.config.horizon):
        raise DomainError(f"time {t!r} outside the game window [0, {trace.config.horizon}]")
    return trace.flips[np.searchsorted(trace._flip_times, t, "right") - 1].outcome


def simulate_game(
    config: GameConfig,
    flip_times: Sequence[float],
    bet_plan: Iterable[Bet],
) -> GameTrace:
    """Play one game: draw flip outcomes at the given times, resolve bets.

    Flip i lands heads when the i-th value of the Philox stream keyed by
    ``config.seed`` is below ``config.coin_bias``; draws are consumed in
    flip-time order. The same ``(config, flip_times, bet_plan)`` therefore
    always yields an identical trace.

    Args:
        config: Game parameters, including the seed.
        flip_times: Strictly increasing times, first one 0, all within the
            horizon.
        bet_plan: Bets with non-decreasing times within the horizon.

    Returns:
        The resolved :class:`GameTrace`.

    Raises:
        ValidationError: Listing every schedule violation (unordered or
            duplicate flip times, missing time-0 flip, out-of-range times,
            predictions that are not a :class:`Face`).
    """
    bets = tuple(bet_plan)
    # Checked before the draw, so a bad schedule fails before any randomness is used.
    problems = _schedule_problems(config.horizon, flip_times, bets)
    if problems:
        raise ValidationError(problems)
    heads = _generator(config.seed).random(len(flip_times)) < config.coin_bias
    flips = tuple(
        Flip(float(t), Face.HEADS if h else Face.TAILS) for t, h in zip(flip_times, heads.tolist())
    )
    return GameTrace(config=config, flips=flips, bets=bets)


def make_trace(
    config: GameConfig,
    flips: Iterable[Flip],
    bet_plan: Iterable[Bet],
) -> GameTrace:
    """Build a trace from externally supplied flip outcomes, no randomness.

    Used for ingested logs and hand-written scenarios. Bets are resolved
    exactly as in :func:`simulate_game`.

    Raises:
        ValidationError: Every violation of the :class:`GameTrace` invariants.
    """
    return GameTrace(config=config, flips=tuple(flips), bets=tuple(bet_plan))
