"""Game engine: trace construction, coin state, simulation, determinism."""

from __future__ import annotations

import json
import math
import tracemalloc

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
    load_bets,
    load_flips,
    simulate_game,
    trace_to_dict,
)
from conftest import faces, game_inputs, traces
from flipbet.game import _columns, _Columns
from flipbet.report import _read_log

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

    @pytest.mark.parametrize(
        "length,shown", [(32, repr("x" * 32)), (33, f"{'x' * 32!r}... (33 characters)")]
    )
    def test_unknown_token_is_quoted_up_to_32_characters(self, length, shown):
        with pytest.raises(DomainError) as err:
            Face.from_token("x" * length)
        assert str(err.value) == f"unknown face token {shown} (expected 'H' or 'T')"


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

    def test_times_that_are_not_numbers_reported_as_given(self):
        with pytest.raises(ValidationError) as err:
            make_trace(
                GameConfig(horizon=3),
                [Flip("0", H), Flip(2, T)],
                [Bet(1, H), Bet(None, T), Bet(4, "T")],
            )
        assert err.value.problems == (
            "first flip must be at time 0, got '0'",
            "flip[0] time is not a finite number: '0'",
            "bet[1] time is not a finite number: None",
            "bet[2] time 4 outside [0, 3]",
            "bet[2] prediction is not a Face: 'T'",
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

    @pytest.mark.parametrize("resolutions", [[1], [1.0], ["yes"]], ids=repr)
    def test_resolutions_that_are_not_booleans_rejected(self, paradox_trace, resolutions):
        # 1 == True, so only the type check tells these apart from a match.
        with pytest.raises(ValidationError, match=r"^resolutions must be booleans, got \["):
            GameTrace(
                config=paradox_trace.config,
                flips=paradox_trace.flips,
                bets=paradox_trace.bets[:1],
                resolutions=resolutions,
            )

    def test_numpy_booleans_are_booleans(self, paradox_trace):
        trace = GameTrace(
            config=paradox_trace.config,
            flips=paradox_trace.flips,
            bets=paradox_trace.bets,
            resolutions=np.array([True, True]),
        )
        assert trace == paradox_trace


class TestTraceObject:
    def test_bets_built_from_read_columns_match_the_loaded_records(self, tmp_path):
        flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
        flips.write_text("time,outcome\n0,H\n2,T\n")
        bets.write_text("1.5,T\n0.5,H\n2,T\n")
        trace = GameTrace._from_columns(
            GameConfig(horizon=3.0),
            _Columns(*_read_log(flips, Flip)),
            _Columns(*_read_log(bets, Bet)),
        )
        assert "bets" not in vars(trace)  # built on first access
        assert trace.bets == tuple(load_bets(bets))
        assert trace.flips == tuple(load_flips(flips))

    def test_the_runs_are_the_one_stored_bet_to_flip_map(self):
        # Per bet, building a trace allocates a heads flag, a won flag and
        # their temporaries, not an 8-byte index of its flip.
        bets = 200_000
        rng = np.random.default_rng(25)
        flips = _Columns(np.arange(0.0, 1e6, 50.0), rng.random(20_000) < 0.5)
        bet_columns = _Columns(np.sort(rng.uniform(0.0, 1e6, bets)), rng.random(bets) < 0.5)
        tracemalloc.start()
        try:
            trace = GameTrace._from_columns(GameConfig(horizon=1e6), flips, bet_columns)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * bets
        governing = np.searchsorted(flips.times, bet_columns.times, "right") - 1
        assert np.array_equal(trace._won, bet_columns.faces == flips.faces[governing])

    def test_record_and_column_built_traces_hash_equal(self, paradox_trace):
        trace = GameTrace._from_columns(
            paradox_trace.config, _columns([0.0], [H]), _columns([0.3, 0.7], [H, H])
        )
        assert trace == paradox_trace
        assert hash(trace) == hash(paradox_trace)

    def test_hash_reads_the_columns(self):
        # A flip and a bet at -0.0 equal ones at 0.0, so the traces hash
        # equal; hashing builds no records.
        config = GameConfig(horizon=1.0)
        zero = GameTrace._from_columns(config, _columns([0.0], [H]), _columns([0.0], [T]))
        minus = GameTrace._from_columns(config, _columns([-0.0], [H]), _columns([-0.0], [T]))
        assert minus == zero and hash(minus) == hash(zero)
        assert "flips" not in vars(minus) and "bets" not in vars(minus)
        heads = GameTrace._from_columns(config, _columns([0.0], [H]), _columns([0.0], [H]))
        assert hash(heads) != hash(zero)

    def test_repr(self, paradox_trace):
        heads = "<Face.HEADS: 'H'>"
        assert repr(paradox_trace) == (
            "GameTrace(config=GameConfig(horizon=1.0, coin_bias=0.5, seed=0), "
            f"flips=(Flip(time=0.0, outcome={heads}),), "
            f"bets=(Bet(time=0.3, prediction={heads}), Bet(time=0.7, prediction={heads})), "
            "resolutions=(True, True))"
        )

    def test_never_equal_to_a_non_trace(self, paradox_trace):
        assert paradox_trace.__eq__(trace_to_dict(paradox_trace)) is NotImplemented
        assert paradox_trace != trace_to_dict(paradox_trace)

    def test_attributes_cannot_be_assigned(self, paradox_trace):
        with pytest.raises(AttributeError, match="^cannot assign to field 'config': GameTrace is read-only$"):
            paradox_trace.config = GameConfig(horizon=2.0)

    def test_resolution_count_must_match_the_bets(self, paradox_trace):
        with pytest.raises(ValidationError) as err:
            GameTrace(paradox_trace.config, paradox_trace.flips, paradox_trace.bets, [True])
        assert err.value.problems == ("expected 2 resolutions, got 1",)


def _reference_problems(horizon, flips, bets):
    """The per-record checks the package ran before its checks were
    vectorized; defined for times that are numbers."""
    problems = []
    flip_times = [f.time for f in flips]
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
    for i, f in enumerate(flips):
        if not isinstance(f.outcome, Face):
            problems.append(f"flip[{i}] outcome is not a Face: {f.outcome!r}")
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


any_times = st.one_of(
    st.integers(-2, 6),
    st.sampled_from([0.0, -0.0, 0.5, 2.5, 5.0, -1.5, math.inf, -math.inf, math.nan]),
)
any_faces = st.sampled_from([H, T, H, T, "H", None])


@given(
    horizon=st.sampled_from([3, 4.5]),
    flips=st.lists(st.builds(Flip, any_times, any_faces), max_size=5),
    bets=st.lists(st.builds(Bet, any_times, any_faces), max_size=5),
)
def test_problems_match_the_per_record_checks(horizon, flips, bets):
    expected = _reference_problems(horizon, flips, bets)
    try:
        trace = make_trace(GameConfig(horizon=horizon), flips, bets)
    except ValidationError as err:
        assert list(err.problems) == expected
    else:
        assert expected == []
        assert trace.flips == tuple(flips) and trace.bets == tuple(bets)


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
