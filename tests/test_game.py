"""Game engine: trace construction, coin state, simulation, determinism."""

from __future__ import annotations

import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from flipbet import (
    Bet,
    DomainError,
    Face,
    Flip,
    GameConfig,
    GameTrace,
    ValidationError,
    coin_state_at,
    make_trace,
    monte_carlo_compound,
    simulate_game,
    trace_to_dict,
)
from conftest import faces, game_inputs, traces

H, T = Face.HEADS, Face.TAILS


class TestFace:
    def test_exactly_two_values(self):
        assert set(Face) == {Face.HEADS, Face.TAILS}

    def test_opposite_is_involution(self):
        for face in Face:
            assert face.opposite().opposite() is face
            assert face.opposite() is not face

    def test_token_round_trip(self):
        assert Face.from_token("H") is H
        assert Face.from_token(" t\n") is T
        with pytest.raises(DomainError):
            Face.from_token("X")


class TestGameConfig:
    def test_rejects_bad_horizon(self):
        with pytest.raises(ValidationError):
            GameConfig(horizon=0.0)
        with pytest.raises(ValidationError):
            GameConfig(horizon=-1.0)
        with pytest.raises(ValidationError):
            GameConfig(horizon=math.inf)

    def test_rejects_bad_bias(self):
        with pytest.raises(ValidationError):
            GameConfig(horizon=1.0, coin_bias=1.5)
        with pytest.raises(ValidationError):
            GameConfig(horizon=1.0, coin_bias=-0.1)

    def test_rejects_bool_numbers(self):
        with pytest.raises(ValidationError) as err:
            GameConfig(horizon=True, coin_bias=False)
        assert len(err.value.problems) == 2

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            GameConfig(horizon=1.0, seed=-1)
        with pytest.raises(ValidationError):
            GameConfig(horizon=1.0, seed=2**64)


class TestCoinStateAt:
    def test_single_flip_governs_whole_window(self, paradox_trace):
        assert coin_state_at(paradox_trace, 0.7) is H

    def test_flip_resolves_before_simultaneous_bet(self):
        trace = make_trace(
            GameConfig(horizon=1.0), [Flip(0.0, H), Flip(0.5, T)], []
        )
        assert coin_state_at(trace, 0.5) is T

    def test_latest_flip_at_or_before_t(self):
        trace = make_trace(
            GameConfig(horizon=1.0), [Flip(0.0, H), Flip(0.5, T)], []
        )
        assert coin_state_at(trace, 0.49) is H

    def test_endpoints_allowed(self):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, T)], [])
        assert coin_state_at(trace, 0.0) is T
        assert coin_state_at(trace, 1.0) is T

    def test_out_of_window_rejected(self, paradox_trace):
        with pytest.raises(DomainError):
            coin_state_at(paradox_trace, -0.1)
        with pytest.raises(DomainError):
            coin_state_at(paradox_trace, 1.1)


class TestMakeTrace:
    def test_canonical_two_winning_bets(self, paradox_trace):
        assert paradox_trace.resolutions == (True, True)

    def test_wrong_prediction_loses(self):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, T)], [Bet(0.5, H)])
        assert trace.resolutions == (False,)

    def test_second_bet_faces_post_flip_state(self):
        trace = make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, H), Flip(0.4, T)],
            [Bet(0.2, H), Bet(0.6, H)],
        )
        assert trace.resolutions == (True, False)

    def test_missing_opening_flip_rejected(self):
        with pytest.raises(ValidationError, match="time 0"):
            make_trace(GameConfig(horizon=1.0), [Flip(0.5, H)], [])
        with pytest.raises(ValidationError, match="empty"):
            make_trace(GameConfig(horizon=1.0), [], [])

    def test_all_offending_entries_reported(self):
        with pytest.raises(ValidationError) as err:
            make_trace(
                GameConfig(horizon=1.0),
                [Flip(0.0, H), Flip(2.0, H), Flip(1.5, H)],
                [Bet(3.0, H)],
            )
        text = str(err.value)
        assert "flip[1]" in text and "flip[2]" in text and "bet[0]" in text

    def test_unordered_bets_rejected(self):
        with pytest.raises(ValidationError, match="non-decreasing"):
            make_trace(
                GameConfig(horizon=1.0), [Flip(0.0, H)], [Bet(0.7, H), Bet(0.3, H)]
            )

    def test_string_faces_rejected_all_at_once(self):
        with pytest.raises(ValidationError) as err:
            make_trace(
                GameConfig(horizon=1.0),
                [Flip(0.0, H), Flip(0.4, "T")],
                [Bet(0.5, "H"), Bet(0.6, T)],
            )
        assert err.value.problems == (
            "flip[1] outcome is not a Face: 'T'",
            "bet[0] prediction is not a Face: 'H'",
        )

    def test_resolutions_derived_when_omitted(self, paradox_trace):
        trace = GameTrace(
            config=paradox_trace.config, flips=paradox_trace.flips, bets=paradox_trace.bets
        )
        assert trace.resolutions == (True, True)
        assert trace == paradox_trace

    def test_trace_invariants_enforced_on_construction(self):
        with pytest.raises(ValidationError, match="resolutions"):
            GameTrace(
                config=GameConfig(horizon=1.0),
                flips=(Flip(0.0, H),),
                bets=(Bet(0.5, H),),
                resolutions=(False,),
            )


class TestSimulateGame:
    def test_seeded_heads_wins_both_bets(self):
        # seed 1 makes the single draw land heads (its first value is 0.30)
        trace = simulate_game(
            GameConfig(horizon=1.0, coin_bias=0.5, seed=1),
            [0.0],
            [Bet(0.3, H), Bet(0.7, H)],
        )
        assert trace.flips[0].outcome is H
        assert trace.resolutions == (True, True)

    @given(st.data())
    def test_outcomes_are_the_philox_stream_below_the_bias(self, data):
        config, flip_times, bets = data.draw(game_inputs())
        trace = simulate_game(config, flip_times, bets)
        draws = np.random.Generator(np.random.Philox(key=config.seed)).random(len(flip_times))
        assert [f.outcome is H for f in trace.flips] == (draws < config.coin_bias).tolist()

    def test_no_bets_no_resolutions(self):
        trace = simulate_game(GameConfig(horizon=1.0, seed=3), [0.0, 0.5], [])
        assert trace.bets == ()
        assert trace.resolutions == ()

    def test_bias_one_forces_heads_everywhere(self):
        trace = simulate_game(
            GameConfig(horizon=1.0, coin_bias=1.0, seed=11),
            [0.0, 0.5],
            [Bet(0.25, H), Bet(0.75, H)],
        )
        assert all(f.outcome is H for f in trace.flips)
        assert trace.resolutions == (True, True)

    def test_bias_zero_forces_tails_everywhere(self):
        trace = simulate_game(
            GameConfig(horizon=1.0, coin_bias=0.0, seed=11),
            [0.0, 0.5],
            [Bet(0.25, T), Bet(0.75, T)],
        )
        assert all(f.outcome is T for f in trace.flips)
        assert trace.resolutions == (True, True)

    def test_duplicate_flip_times_rejected(self):
        with pytest.raises(ValidationError, match="strictly increasing"):
            simulate_game(GameConfig(horizon=1.0), [0.0, 0.5, 0.5], [])

    @given(st.data())
    def test_same_seed_same_serialized_trace(self, data):
        config, flip_times, bets = data.draw(game_inputs())
        a = simulate_game(config, flip_times, bets)
        b = simulate_game(config, flip_times, bets)
        assert json.dumps(trace_to_dict(a)) == json.dumps(trace_to_dict(b))

    @given(traces())
    def test_resolution_consistency(self, trace):
        for bet, won in zip(trace.bets, trace.resolutions):
            assert won == (bet.prediction is coin_state_at(trace, bet.time))

    @given(st.data())
    def test_bet_at_time_zero_resolves_against_opening_flip(self, data):
        face = data.draw(faces)
        outcome = data.draw(faces)
        trace = make_trace(
            GameConfig(horizon=1.0), [Flip(0.0, outcome)], [Bet(0.0, face)]
        )
        assert trace.resolutions == (face is outcome,)


@pytest.mark.parametrize("bias", [0.3, 0.5, 0.9])
def test_single_bet_win_frequency_converges_to_bias(bias):
    # one flip at t=0, one bet on heads: win frequency ~ bias
    n = 10**5
    mc = monte_carlo_compound(
        GameConfig(horizon=1.0, coin_bias=bias),
        [0.0],
        [Bet(0.5, H)],
        trials=n,
        base_seed=97,
    )
    assert abs(mc.estimate - bias) <= 4.0 * math.sqrt(bias * (1.0 - bias) / n)
