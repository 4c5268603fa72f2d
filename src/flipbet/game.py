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
flip-first rule. Its truth is four read-only numpy columns (flip times,
flip heads, bet times, bet heads), checked by one vectorized pass; one
``np.searchsorted`` for each bet's governing flip both resolves the bets
and builds the trace's epoch table, which every analysis reads. The
:class:`Flip` and :class:`Bet` records of a trace are built from its
columns on first access, unless the trace was built from records, which
it keeps as given.
"""

from __future__ import annotations

import enum
import math
import operator
import reprlib
import sys
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

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


# Philox4x64-10 (Salmon et al., SC 2011): round multipliers and key increments.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LOW32, _SHIFT32 = np.uint64(0xFFFFFFFF), np.uint64(32)


def _random_at(key: int, positions: np.ndarray) -> np.ndarray:
    """The doubles at ``positions`` (a uint64 array) of ``_generator(key).random()``.

    numpy's Philox fills double ``d`` from word ``d % 4`` of the block at
    counter ``(d // 4 + 1, 0, 0, 0)`` under the key ``(key, 0)``, so any
    double of the stream can be computed on its own. The key schedule runs
    on Python ints, where overflow neither wraps silently nor warns.
    """
    blocks = positions // np.uint64(4)
    # Positions of a short schedule share blocks: evaluate each run of
    # equal neighbouring blocks once.
    first = np.empty(len(blocks), bool)
    first[:1] = True
    np.not_equal(blocks[1:], blocks[:-1], out=first[1:])
    zero = np.zeros(np.count_nonzero(first), np.uint64)
    x0, x1, x2, x3 = blocks[first] + np.uint64(1), zero, zero, zero
    k0, k1 = key, 0
    for _ in range(10):
        hi0, lo0 = _mulhilo(_PHILOX_M[0], x0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], x2)
        hi1 ^= x1
        hi1 ^= np.uint64(k0)
        hi0 ^= x3
        hi0 ^= np.uint64(k1)
        x0, x1, x2, x3 = hi1, lo1, hi0, lo0
        k0, k1 = (k0 + _PHILOX_W[0]) & _MAX_SEED, (k1 + _PHILOX_W[1]) & _MAX_SEED
    # Word d % 4 of the run that holds position d.
    index = (positions & np.uint64(3)).view(np.int64)
    index += (np.cumsum(first, dtype=np.int64) - 1) * 4
    words = np.stack((x0, x1, x2, x3), axis=1).ravel()[index]
    return (words >> np.uint64(11)) * 2.0**-53


def _mulhilo(a: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """High and low words of the 128-bit products ``a * b``, from 32-bit halves."""
    a_lo, a_hi = np.uint64(a & 0xFFFFFFFF), np.uint64(a >> 32)
    b_lo, hi = b & _LOW32, b >> _SHIFT32
    low_cross = b_lo * a_lo
    low_cross >>= _SHIFT32
    cross = b_lo * a_hi
    cross += low_cross
    high_cross = hi * a_lo
    high_cross += cross & _LOW32
    high_cross >>= _SHIFT32
    cross >>= _SHIFT32
    hi *= a_hi
    hi += cross
    hi += high_cross
    return hi, b * np.uint64(a)


class Face(enum.Enum):
    """One of the two coin faces; also the value of a bet's prediction."""

    HEADS = "H"
    TAILS = "T"

    def opposite(self) -> "Face":
        """The other face. An involution: ``f.opposite().opposite() is f``."""
        return Face.TAILS if self is Face.HEADS else Face.HEADS

    @classmethod
    def from_token(cls, token: str) -> "Face":
        """The face-token rule: 'H' or 'T', in either case, whitespace ignored."""
        try:
            return cls(token.strip().upper())
        except ValueError:
            shown = _shown(token.strip())
            raise DomainError(f"unknown face token {shown} (expected 'H' or 'T')") from None

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
        if not (_is_number(self.horizon) and math.isfinite(self.horizon) and self.horizon > 0):
            problems.append(f"horizon must be a finite positive number, got {_shown(self.horizon)}")
        _checked(problems, _probability, self.coin_bias, "coin_bias")
        object.__setattr__(self, "seed", _checked(problems, _seed, self.seed))
        if problems:
            raise ValidationError(problems)


def _is_number(x: object) -> bool:
    """The real-number rule: an int or a float, never a bool, and never an int
    larger in magnitude than the largest float (it has no float value)."""
    if isinstance(x, float):
        return True
    return isinstance(x, int) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


_SHOWN_ITEMS = 8  # a list longer than this is quoted by its first items and its length


@reprlib.recursive_repr("[...]")  # a list that holds itself, as repr writes it
def _shown(value: object) -> str:
    """A caller's value as a message quotes it: its ``repr``, with a str
    longer than 32 characters cut to its first 32 and its length, a list
    shown item by item through this rule and cut after ``_SHOWN_ITEMS``
    items, or a bounded form where ``repr`` refuses an int longer than the
    interpreter's digit limit (4300 digits by default)."""
    if isinstance(value, str) and len(value) > 32:
        return f"{value[:32]!r}... ({len(value)} characters)"
    if isinstance(value, list):
        more = f", ... ({len(value)} items)" if len(value) > _SHOWN_ITEMS else ""
        return f"[{', '.join(map(_shown, value[:_SHOWN_ITEMS]))}{more}]"
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<unprintable {type(value).__name__} object>"


def _integer(value: object, name: str, lo: int | None = 0, hi: int | None = None) -> int:
    """The integer rule: ``value`` as an int in ``[lo, hi]`` (``None``: unbounded).

    What ``operator.index`` accepts counts, numpy integers too, but never a
    bool: ``True`` as a count or a seed is a mistake, not the number 1.
    """
    if not isinstance(value, bool):
        try:
            number = operator.index(value)
        except TypeError:
            pass
        else:
            if (lo is None or lo <= number) and (hi is None or number <= hi):
                return number
    bounds = "" if lo is None else f" >= {lo}" if hi is None else f" in [{lo}, {hi}]"
    raise DomainError(f"{name} must be an integer{bounds}, got {_shown(value)}")


def _probability(value: object, name: str = "p") -> float:
    """The probability rule: a real number in [0, 1], returned as a float."""
    if not (_is_number(value) and 0.0 <= value <= 1.0):
        raise DomainError(f"{name} must lie in [0, 1], got {_shown(value)}")
    return float(value)


def _seed(value: object, name: str = "seed") -> int:
    """The seed rule: an integer key of the random source, in ``[0, 2**64 - 1]``."""
    try:
        return _integer(value, name, 0, _MAX_SEED)
    except DomainError:
        problem = f"{name} must be a 64-bit unsigned integer, got {_shown(value)}"
        raise DomainError(problem) from None


def _checked(problems: list[str], rule: Callable, *args: object) -> object:
    """``rule(*args)``; on a DomainError, its message goes to ``problems`` and None comes back."""
    try:
        return rule(*args)
    except DomainError as exc:
        problems.append(str(exc))
        return None


class _Columns(NamedTuple):
    """One side of a schedule as columns: what the trace checks and stores.

    ``given_times`` and ``given_faces`` are the values as the caller gave
    them; a problem message shows them (``2``, not ``2.0``). ``None`` means
    the columns are what was given. ``records`` are the caller's records,
    which a trace keeps as given.
    """

    times: np.ndarray  # float64; NaN where the given time is not a number
    faces: np.ndarray | None  # 1 heads, 0 tails, -1 not a Face; None before the draw
    given_times: Sequence | None = None
    given_faces: Sequence | None = None
    records: tuple | None = None


def _columns(times: Sequence, faces: Sequence | None = None) -> _Columns:
    """Columns of given times and faces; the per-value type checks happen here."""
    times = list(times)
    codes = None
    if faces is not None:
        faces = list(faces)
        codes = np.fromiter(
            (1 if f is Face.HEADS else 0 if f is Face.TAILS else -1 for f in faces),
            np.int8,
            len(faces),
        )
    return _Columns(_numbers(times), codes, times, faces)


def _numbers(values: list) -> np.ndarray:
    """A float column of ``values``, NaN where a value breaks the real-number rule."""
    if set(map(type, values)) <= {float, int}:
        try:
            return np.array(values, dtype=float)
        except OverflowError:  # an int too large for a float
            pass
    return np.array([v if _is_number(v) else math.nan for v in values], dtype=float)


def _record_columns(records: tuple, face: str) -> _Columns:
    columns = _columns([r.time for r in records], [getattr(r, face) for r in records])
    return columns._replace(records=records)


def _check_schedule(horizon: float, flips: _Columns, bets: _Columns) -> None:
    """Raise a ValidationError listing every violation of the schedule and
    face invariants, in a fixed order.

    Flip problems come first (empty schedule or no flip at time 0, then
    each bad time, then each out-of-order pair, then each outcome that is
    not a Face), then bet problems (each bet's time and prediction, then
    each out-of-order pair).
    """
    ft, bt = flips.times, bets.times
    problems: list[str] = []
    if not len(ft):
        problems.append("flip schedule is empty: the game must open with a flip at time 0")
    else:
        if ft[0] != 0.0:
            problems.append(f"first flip must be at time 0, got {_shown(_given(flips, 0))}")
        for i in _where(_bad_times(ft, horizon)):
            problems.append(_time_problem("flip", i, _given(flips, i), horizon))
        for i in _where(ft[:-1] >= ft[1:]):
            problems.append(
                f"flip times must be strictly increasing: flip[{i}]={_shown(_given(flips, i))} "
                f">= flip[{i + 1}]={_shown(_given(flips, i + 1))}"
            )
    if flips.faces is not None:
        for i in _where(flips.faces < 0):
            problems.append(f"flip[{i}] outcome is not a Face: {_shown(flips.given_faces[i])}")
    bad_time, bad_face = _bad_times(bt, horizon), bets.faces < 0
    for i in _where(bad_time | bad_face):
        if bad_time[i]:
            problems.append(_time_problem("bet", i, _given(bets, i), horizon))
        if bad_face[i]:
            problems.append(f"bet[{i}] prediction is not a Face: {_shown(bets.given_faces[i])}")
    for i in _where(bt[:-1] > bt[1:]):
        problems.append(
            f"bet times must be non-decreasing: "
            f"bet[{i}]={_shown(_given(bets, i))} > bet[{i + 1}]={_shown(_given(bets, i + 1))}"
        )
    if problems:
        raise ValidationError(problems)


def _bad_times(times: np.ndarray, horizon: float) -> np.ndarray:
    return ~np.isfinite(times) | (times < 0.0) | (times > horizon)


def _where(flags: np.ndarray) -> list[int]:
    return np.flatnonzero(flags).tolist()


def _given(columns: _Columns, i: int) -> object:
    """Time ``i`` as the caller gave it."""
    return columns.times[i].item() if columns.given_times is None else columns.given_times[i]


def _time_problem(kind: str, i: int, t: object, horizon: float) -> str:
    if not (_is_number(t) and math.isfinite(t)):
        return f"{kind}[{i}] time is not a finite number: {_shown(t)}"
    return f"{kind}[{i}] time {_shown(t)} outside [0, {horizon}]"


_FACES = (Face.TAILS, Face.HEADS)  # indexed by a heads flag


@dataclass(frozen=True)
class EpochGrouping:
    """Assignment of each bet to the flip (epoch) governing it.

    Every :class:`GameTrace` builds its epoch columns once, at
    construction, and this table from them on first request;
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


class GameTrace:
    """The complete record of one game.

    Four read-only numpy columns are the truth of a trace: flip times, flip
    heads, bet times and bet heads. ``GameTrace(config, flips, bets,
    resolutions)`` converts the records to those columns; the package's
    readers and the simulator build traces from columns directly. Either
    way one private column constructor runs every check, resolves every
    bet flip-first with one ``np.searchsorted`` and builds the epoch
    table. ``flips``, ``bets`` and ``resolutions`` are tuples built from
    the columns on first access and then cached; a trace built from
    records keeps the caller's records as given.

    Invariants (enforced at construction):

    * ``flips`` is non-empty, starts at time 0, and has strictly
      increasing times inside ``[0, horizon]``.
    * ``bets`` have non-decreasing times inside ``[0, horizon]``.
    * Every flip outcome and bet prediction is a :class:`Face`.
    * ``resolutions[i]`` is True exactly when ``bets[i]`` predicted the
      coin's state at its time (flip-first at shared timestamps).

    ``resolutions`` are derived when omitted and checked when given.
    Traces compare equal when their configs and columns are equal.
    """

    def __init__(
        self,
        config: GameConfig,
        flips: Iterable[Flip],
        bets: Iterable[Bet] = (),
        resolutions: Iterable[bool] | None = None,
    ) -> None:
        self._build(
            config,
            _record_columns(tuple(flips), "outcome"),
            _record_columns(tuple(bets), "prediction"),
            resolutions,
        )

    @classmethod
    def _from_columns(cls, config: GameConfig, flips: _Columns, bets: _Columns) -> GameTrace:
        trace = cls.__new__(cls)
        trace._build(config, flips, bets, None)
        return trace

    def _build(
        self,
        config: GameConfig,
        flips: _Columns,
        bets: _Columns,
        resolutions: Iterable[bool] | None,
    ) -> None:
        """The column constructor: check, resolve flip-first, build the epoch table."""
        _check_schedule(config.horizon, flips, bets)
        flip_heads = _read_only(flips.faces == 1)
        bet_heads = _read_only(bets.faces == 1)
        epoch = _governing_flip(flips.times, bets.times)
        won = bet_heads == flip_heads[epoch]
        if resolutions is not None:
            given, derived = tuple(resolutions), tuple(won.tolist())
            if not all(isinstance(r, (bool, np.bool_)) for r in given):
                raise ValidationError(f"resolutions must be booleans, got {_shown(list(given))}")
            if len(given) != len(derived):
                raise ValidationError(f"expected {len(derived)} resolutions, got {len(given)}")
            if given != derived:
                raise ValidationError(
                    "resolutions do not match bet predictions against the flip record"
                )
        # Bet times never decrease, so each epoch's bets form one contiguous run.
        starts = np.flatnonzero(np.diff(epoch, prepend=-1))
        codes = bet_heads.view(np.int8)
        low, high = np.minimum.reduceat(codes, starts), np.maximum.reduceat(codes, starts)
        vars(self).update(
            config=config,
            _flip_times=_read_only(flips.times),
            _flip_heads=flip_heads,
            _bet_times=_read_only(bets.times),
            _bet_heads=bet_heads,
            _epoch=_read_only(epoch),
            _won=_read_only(won),
            _starts=_read_only(starts),
            _occupied=_read_only(epoch[starts]),
            # per occupied epoch: 1 all heads, 0 all tails, -1 conflicting
            _epoch_faces=_read_only(np.where(low == high, high, -1).astype(np.int8)),
        )
        records = (("flips", flips.records), ("bets", bets.records))
        vars(self).update((name, kept) for name, kept in records if kept is not None)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}: {type(self).__name__} is read-only")

    @cached_property
    def flips(self) -> tuple[Flip, ...]:
        return tuple(_records(Flip, self._flip_times, self._flip_heads))

    @cached_property
    def bets(self) -> tuple[Bet, ...]:
        return tuple(_records(Bet, self._bet_times, self._bet_heads))

    @cached_property
    def resolutions(self) -> tuple[bool, ...]:
        return tuple(self._won.tolist())

    @cached_property
    def _epochs(self) -> EpochGrouping:
        starts = self._starts.tolist()
        runs = map(tuple, map(range, starts, starts[1:] + [len(self._epoch)]))
        faces = (_FACES[f] if f >= 0 else None for f in self._epoch_faces.tolist())
        occupied = self._occupied.tolist()
        # Read-only views: the table is cached on the trace and shared by every caller.
        return EpochGrouping(
            self.bets,
            tuple(self._epoch.tolist()),
            MappingProxyType(dict(zip(occupied, runs))),
            MappingProxyType(dict(zip(occupied, faces))),
        )

    @property
    def wins(self) -> int:
        """Number of winning bets."""
        return int(np.count_nonzero(self._won))

    def _column_tuple(self) -> tuple[np.ndarray, ...]:
        return (self._flip_times, self._flip_heads, self._bet_times, self._bet_heads)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GameTrace):
            return NotImplemented
        return self.config == other.config and all(
            np.array_equal(a, b) for a, b in zip(self._column_tuple(), other._column_tuple())
        )

    def __hash__(self) -> int:
        # The columns' values, not the records, which a column-built trace
        # would build. Adding 0.0 turns -0.0, equal to 0.0, into 0.0.
        return hash((self.config, *((c + 0.0).tobytes() for c in self._column_tuple())))

    def __repr__(self) -> str:
        return (
            f"GameTrace(config={self.config!r}, flips={self.flips!r}, "
            f"bets={self.bets!r}, resolutions={self.resolutions!r})"
        )


def _records(record: type, times: np.ndarray, heads: np.ndarray) -> Iterable:
    """``record(time, face)`` per row of a time column and a heads column."""
    return map(record, times.tolist(), map(_FACES.__getitem__, heads.tolist()))


def _governing_flip(flip_times: np.ndarray, times: object) -> np.ndarray:
    """Index of the flip governing each time: the latest at or before it (flip-first)."""
    return np.searchsorted(flip_times, times, "right") - 1


def _read_only(array: np.ndarray) -> np.ndarray:
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
    if not (_is_number(t) and 0.0 <= t <= trace.config.horizon):
        raise DomainError(f"time {_shown(t)} outside the game window [0, {trace.config.horizon}]")
    heads = trace._flip_heads[_governing_flip(trace._flip_times, t)]
    return Face.HEADS if heads else Face.TAILS


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
    return _simulate(config, _columns(flip_times), _record_columns(tuple(bet_plan), "prediction"))


def _simulate(config: GameConfig, flips: _Columns, bets: _Columns) -> GameTrace:
    """The simulator's column core: draw the flip outcomes, then build the trace."""
    heads = _generator(config.seed).random(len(flips.times)) < config.coin_bias
    return GameTrace._from_columns(config, flips._replace(faces=heads), bets)


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
