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
builds its epoch columns once, at construction, where the flip-first rule
lives; every function below reads them, and :func:`group_by_epoch` returns
the trace's read-only view of them.
"""

from __future__ import annotations

import math

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

    The table's columns are built once, when the trace is constructed;
    every call returns the same view of them.
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
    epochs = []
    for bet in (bet_i, bet_j):
        try:
            epochs.append(grouping.epoch_of_bet[grouping.bets.index(bet)])
        except ValueError:
            raise DomainError(f"{bet!r} does not belong to this grouping") from None
    if epochs[0] == epochs[1]:
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
    return _product_of_marginals(trace._bet_heads.tolist(), trace.config.coin_bias)


def _product_of_marginals(heads: list[bool], coin_bias: float) -> float:
    # math.prod multiplies in sequence, left to right, as a loop of *= would:
    # the rounding, and so every reported digit, depends on that order.
    return math.prod(map((1.0 - coin_bias, coin_bias).__getitem__, heads), start=1.0)


def true_compound_probability(trace: GameTrace) -> float:
    """Joint win probability conditioned on the flip schedule.

    Bets are grouped by epoch. An epoch with contradictory predictions can
    never see all its bets win, so the result is 0. Otherwise each
    occupied epoch contributes one factor: the probability that its flip
    matches the epoch's unanimous prediction (0.5 for a fair coin). Bets
    sharing an epoch are fully dependent and add no factor beyond the
    first.
    """
    faces = trace._epoch_faces
    if (faces < 0).any():
        return 0.0
    return _product_of_marginals((faces == 1).tolist(), trace.config.coin_bias)


def effective_event_count(trace: GameTrace) -> int:
    """Number of independent events in the record: occupied epochs.

    Bets separated by no flip share one coin state; placing several of
    them only divides one bet into pieces. The count of distinct epochs
    containing at least one bet is what a statistical evaluation may treat
    as the sample size. Zero bets give zero events.
    """
    return len(trace._occupied)
