"""Compound-probability calculus for betting records.

Two rival estimates of the probability of a betting record:

* the *naive* estimate treats every bet as an independent event and
  multiplies per-bet marginals (the bettor's view);
* the *true* estimate conditions each bet on the flip schedule: bets that
  ride the same flip are perfectly dependent, so each occupied flip span
  contributes a single factor (the flipper's view).

The bridge between the two is the epoch grouping: each bet is governed by
the latest flip at or before its time (flip-first), and the span from one
flip to the next is an *epoch*. All bets in an epoch face the same coin
state, so the number of occupied epochs, not the number of bets, is the
number of independent events in the record.

The grouping is not computed here. Each :class:`~flipbet.game.GameTrace`
builds its epoch table once, at construction, where the flip-first rule
lives; :func:`group_by_epoch` returns that table and every function below
reads it.
"""

from __future__ import annotations

from .errors import DomainError
from .game import Bet, EpochGrouping, Face, GameTrace

__all__ = [
    "EpochGrouping",
    "group_by_epoch",
    "pairwise_conditional_probability",
    "naive_compound_probability",
    "true_compound_probability",
    "effective_event_count",
]


def group_by_epoch(trace: GameTrace) -> EpochGrouping:
    """The trace's epoch table: its bets grouped by the flip governing each.

    The table is built once, when the trace is constructed; every call
    returns that same object.
    """
    return trace._epochs


def pairwise_conditional_probability(
    bet_i: Bet,
    bet_j: Bet,
    grouping: EpochGrouping,
    coin_bias: float = 0.5,
) -> float:
    """P(the later bet wins | the earlier bet wins).

    Within one epoch the two bets face the same coin state, so the answer
    is 1 for matching predictions and 0 for contradictory ones. Across
    epochs the flips are independent and the conditional collapses to the
    later bet's marginal: ``coin_bias`` for a heads prediction, its
    complement for tails.

    Args:
        bet_i: The earlier bet; must belong to ``grouping``.
        bet_j: The later bet; must belong to ``grouping``.
        grouping: Epoch assignment of the betting record.
        coin_bias: Per-flip heads probability (0.5 for the fair coin).

    Raises:
        DomainError: If either bet is not in the grouping, or ``bet_i``
            comes after ``bet_j``.
    """
    if bet_i.time > bet_j.time:
        raise DomainError(
            f"bet_i must not come after bet_j: {bet_i.time!r} > {bet_j.time!r}"
        )
    epoch_i = grouping.epoch_of(bet_i)
    epoch_j = grouping.epoch_of(bet_j)
    if epoch_i == epoch_j:
        return 1.0 if bet_i.prediction is bet_j.prediction else 0.0
    return _marginal(bet_j.prediction, coin_bias)


def _marginal(face: Face, coin_bias: float) -> float:
    return coin_bias if face is Face.HEADS else 1.0 - coin_bias


def naive_compound_probability(trace: GameTrace) -> float:
    """Joint win probability under the independence assumption.

    The product over bets of each bet's marginal win probability: 0.5 per
    bet for a fair coin, hence ``0.5 ** len(bets)``. An empty record gives
    the empty product, 1.
    """
    p = 1.0
    for bet in trace.bets:
        p *= _marginal(bet.prediction, trace.config.coin_bias)
    return p


def true_compound_probability(trace: GameTrace) -> float:
    """Joint win probability conditioned on the flip schedule.

    Bets are grouped by epoch. An epoch with contradictory predictions can
    never see all its bets win, so the result is 0. Otherwise each
    occupied epoch contributes one factor: the probability that its flip
    matches the epoch's unanimous prediction (0.5 for a fair coin). Bets
    sharing an epoch are fully dependent and add no factor beyond the
    first.
    """
    faces = group_by_epoch(trace).faces.values()
    if None in faces:
        return 0.0
    bias = trace.config.coin_bias
    p = 1.0
    for face in faces:
        p *= _marginal(face, bias)
    return p


def effective_event_count(trace: GameTrace) -> int:
    """Number of independent events in the record: occupied epochs.

    Bets separated by no flip share one coin state; placing several of
    them only divides one bet into pieces. The count of distinct epochs
    containing at least one bet is what a statistical evaluation may treat
    as the sample size. Zero bets give zero events.
    """
    return len(group_by_epoch(trace).bets_per_epoch)
