"""Epoch grouping and the two compound-probability estimates."""

from __future__ import annotations

from bisect import bisect_right

import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipbet import (
    Bet,
    DomainError,
    Face,
    Flip,
    GameConfig,
    effective_event_count,
    group_by_epoch,
    make_trace,
    naive_compound_probability,
    pairwise_conditional_probability,
    true_compound_probability,
)
from conftest import faces, traces

H, T = Face.HEADS, Face.TAILS


@st.composite
def tied_traces(draw):
    """A trace whose bets often sit on a flip's time, 0.0, -0.0 or the
    horizon, in runs of equal times; it may have no bets."""
    horizon = draw(st.floats(0.5, 50.0))
    later = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), unique=True, max_size=6))
    flip_times = [0.0, *sorted(later)]
    pool = [*flip_times, 0.0, -0.0, flip_times[-1], horizon]
    time = st.sampled_from(pool) | st.floats(0.0, horizon)
    runs = draw(st.lists(st.tuples(time, st.integers(1, 3)), max_size=8))
    bet_times = sorted(t for t, repeat in runs for _ in range(repeat))
    return make_trace(
        GameConfig(horizon=horizon),
        [Flip(t, draw(faces)) for t in flip_times],
        [Bet(t, draw(faces)) for t in bet_times],
    )


def trace_of(flips, bets, horizon=1.0, bias=0.5):
    return make_trace(
        GameConfig(horizon=horizon, coin_bias=bias),
        [Flip(t, f) for t, f in flips],
        [Bet(t, f) for t, f in bets],
    )


class TestGroupByEpoch:
    def test_two_bets_one_flip_share_epoch_zero(self, paradox_trace):
        grouping = group_by_epoch(paradox_trace)
        assert grouping.epoch_of_bet == (0, 0)
        assert grouping.bets_per_epoch == {0: (0, 1)}

    def test_one_bet_each_side_of_a_flip(self):
        grouping = group_by_epoch(trace_of([(0.0, H), (0.5, H)], [(0.3, H), (0.7, H)]))
        assert grouping.epoch_of_bet == (0, 1)

    def test_no_bets_empty_grouping(self):
        grouping = group_by_epoch(trace_of([(0.0, H), (0.5, H)], []))
        assert grouping.epoch_of_bet == ()
        assert grouping.bets_per_epoch == {}

    def test_bet_at_flip_time_joins_new_epoch(self):
        grouping = group_by_epoch(trace_of([(0.0, H), (0.5, T)], [(0.5, T)]))
        assert grouping.epoch_of_bet == (1,)

    def test_faces_per_occupied_epoch(self):
        trace = trace_of(
            [(0.0, H), (0.2, T), (0.4, H), (0.6, T)],
            [(0.1, H), (0.15, T), (0.3, T), (0.35, T), (0.7, H)],
        )
        grouping = group_by_epoch(trace)
        assert grouping.bets_per_epoch == {0: (0, 1), 1: (2, 3), 3: (4,)}
        assert grouping.faces == {0: None, 1: T, 3: H}
        assert grouping.occupied_epochs == (0, 1, 3)

    def test_table_is_built_once_per_trace_and_read_only(self, paradox_trace):
        grouping = group_by_epoch(paradox_trace)
        assert group_by_epoch(paradox_trace) is grouping
        with pytest.raises(TypeError):
            grouping.faces[0] = None

    def test_grouping_type_importable_from_every_layer(self):
        import flipbet
        from flipbet import game, probability

        assert flipbet.EpochGrouping is probability.EpochGrouping is game.EpochGrouping

    @given(traces())
    def test_epoch_assignment_invariants(self, trace):
        grouping = group_by_epoch(trace)
        assert len(grouping.epoch_of_bet) == len(trace.bets)
        assert sum(len(ix) for ix in grouping.bets_per_epoch.values()) == len(trace.bets)
        for i, epoch in enumerate(grouping.epoch_of_bet):
            assert 0 <= epoch < len(trace.flips)
            assert trace.flips[epoch].time <= trace.bets[i].time
            if epoch + 1 < len(trace.flips):
                assert trace.bets[i].time < trace.flips[epoch + 1].time

    @given(tied_traces())
    def test_epoch_table_matches_a_bisect_reference(self, trace):
        # Flip-first: a bet governed by the latest flip at or before its time.
        flip_times = [f.time for f in trace.flips]
        epoch_of_bet = [bisect_right(flip_times, b.time) - 1 for b in trace.bets]
        bets_per_epoch: dict[int, tuple[int, ...]] = {}
        for i, epoch in enumerate(epoch_of_bet):
            bets_per_epoch[epoch] = (*bets_per_epoch.get(epoch, ()), i)
        epoch_faces = {}
        for epoch, ix in bets_per_epoch.items():
            predicted = {trace.bets[i].prediction for i in ix}
            epoch_faces[epoch] = predicted.pop() if len(predicted) == 1 else None
        grouping = group_by_epoch(trace)
        assert grouping.epoch_of_bet == tuple(epoch_of_bet)
        assert list(grouping.bets_per_epoch.items()) == list(bets_per_epoch.items())
        assert list(grouping.faces.items()) == list(epoch_faces.items())
        assert trace.resolutions == tuple(
            b.prediction is trace.flips[e].outcome for b, e in zip(trace.bets, epoch_of_bet)
        )


class TestPairwiseConditional:
    def test_same_epoch_same_prediction_is_certain(self, paradox_trace):
        grouping = group_by_epoch(paradox_trace)
        assert pairwise_conditional_probability(*paradox_trace.bets, grouping) == 1.0

    def test_different_epochs_fair_coin_is_half(self):
        trace = trace_of([(0.0, H), (0.5, H)], [(0.3, H), (0.7, H)])
        grouping = group_by_epoch(trace)
        assert pairwise_conditional_probability(*trace.bets, grouping) == 0.5

    def test_same_epoch_contradictory_predictions_impossible(self):
        trace = trace_of([(0.0, H)], [(0.3, H), (0.7, T)])
        grouping = group_by_epoch(trace)
        assert pairwise_conditional_probability(*trace.bets, grouping) == 0.0

    def test_biased_coin_uses_later_bets_marginal(self):
        trace = trace_of([(0.0, H), (0.5, H)], [(0.3, H), (0.7, T)], bias=0.6)
        grouping = group_by_epoch(trace)
        assert pairwise_conditional_probability(
            trace.bets[0], trace.bets[1], grouping, coin_bias=0.6
        ) == pytest.approx(0.4, abs=1e-12)

    def test_foreign_bet_rejected(self, paradox_trace):
        grouping = group_by_epoch(paradox_trace)
        with pytest.raises(DomainError, match=r"Bet\(time=0.1, .* does not belong to this grouping"):
            pairwise_conditional_probability(Bet(0.1, T), paradox_trace.bets[1], grouping)
        with pytest.raises(DomainError, match=r"Bet\(time=0.9, .* does not belong to this grouping"):
            pairwise_conditional_probability(paradox_trace.bets[0], Bet(0.9, H), grouping)

    def test_wrong_order_rejected(self, paradox_trace):
        grouping = group_by_epoch(paradox_trace)
        with pytest.raises(DomainError):
            pairwise_conditional_probability(
                paradox_trace.bets[1], paradox_trace.bets[0], grouping
            )

    @pytest.mark.parametrize("coin_bias", [2.0, -0.5])
    def test_coin_bias_outside_0_1_rejected(self, coin_bias):
        trace = trace_of([(0.0, H), (0.5, H)], [(0.3, H), (0.7, H)])
        with pytest.raises(DomainError, match=r"coin_bias must lie in \[0, 1\]"):
            pairwise_conditional_probability(*trace.bets, group_by_epoch(trace), coin_bias)


class TestNaiveCompound:
    def test_two_bets_quarter(self, paradox_trace):
        assert naive_compound_probability(paradox_trace) == 0.25

    def test_zero_bets_empty_product(self):
        assert naive_compound_probability(trace_of([(0.0, H)], [])) == 1.0

    def test_three_bets_eighth(self):
        trace = trace_of([(0.0, H)], [(0.2, H), (0.5, H), (0.8, H)])
        assert naive_compound_probability(trace) == 0.125

    def test_biased_coin_multiplies_marginals(self):
        trace = trace_of([(0.0, H)], [(0.2, H), (0.5, T)], bias=0.6)
        assert naive_compound_probability(trace) == pytest.approx(0.24, abs=1e-12)


class TestTrueCompound:
    def test_one_flip_two_bets_half(self, paradox_trace):
        assert true_compound_probability(paradox_trace) == 0.5

    def test_new_launch_quarter(self, new_launch_trace):
        assert true_compound_probability(new_launch_trace) == 0.25

    def test_conflicting_epoch_impossible(self):
        assert true_compound_probability(trace_of([(0.0, H)], [(0.3, H), (0.7, T)])) == 0.0

    def test_three_bets_one_epoch_half(self):
        trace = trace_of([(0.0, H)], [(0.2, H), (0.5, H), (0.8, H)])
        assert true_compound_probability(trace) == 0.5

    def test_biased_coin_per_epoch_marginals(self):
        trace = trace_of([(0.0, H), (0.5, T)], [(0.3, H), (0.7, T)], bias=0.6)
        assert true_compound_probability(trace) == pytest.approx(0.6 * 0.4, abs=1e-12)


class TestEffectiveEventCount:
    def test_two_bets_one_flip_count_one(self, paradox_trace):
        assert effective_event_count(paradox_trace) == 1

    def test_one_bet_per_epoch_counts_all(self, new_launch_trace):
        assert effective_event_count(new_launch_trace) == 2

    def test_zero_bets_zero_events(self):
        assert effective_event_count(trace_of([(0.0, H)], [])) == 0

    @given(traces())
    def test_bounded_by_bets_and_flips(self, trace):
        count = effective_event_count(trace)
        assert 0 <= count <= min(len(trace.bets), len(trace.flips))


class TestCompoundRelations:
    @given(traces(bias=0.5))
    def test_unanimous_epochs_mean_power_of_half(self, trace):
        grouping = group_by_epoch(trace)
        unanimous = all(
            len({trace.bets[i].prediction for i in ix}) == 1
            for ix in grouping.bets_per_epoch.values()
        )
        true_p = true_compound_probability(trace)
        if unanimous:
            m = effective_event_count(trace)
            assert true_p == 0.5**m
            assert true_p >= naive_compound_probability(trace)
            one_bet_per_epoch = all(
                len(ix) == 1 for ix in grouping.bets_per_epoch.values()
            )
            assert (true_p == naive_compound_probability(trace)) == one_bet_per_epoch
        else:
            assert true_p == 0.0

    @given(traces(min_bets=2, max_bets=2, bias=0.5))
    def test_chain_rule_matches_on_two_bet_traces(self, trace):
        grouping = group_by_epoch(trace)
        first_marginal = 0.5
        chain = first_marginal * pairwise_conditional_probability(
            trace.bets[0], trace.bets[1], grouping
        )
        assert chain == true_compound_probability(trace)

    def test_extra_bet_in_occupied_epoch_changes_nothing(self):
        base = trace_of([(0.0, H), (0.5, T)], [(0.3, H)])
        widened = trace_of([(0.0, H), (0.5, T)], [(0.3, H), (0.4, H)])
        assert true_compound_probability(widened) == true_compound_probability(base)

    def test_bet_in_fresh_epoch_halves_the_probability(self):
        base = trace_of([(0.0, H), (0.5, T)], [(0.3, H)])
        extended = trace_of([(0.0, H), (0.5, T)], [(0.3, H), (0.7, H)])
        assert true_compound_probability(extended) == 0.5 * true_compound_probability(base)
