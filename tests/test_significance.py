"""Binomial tails, random-reproduction p-values, randomization, Monte Carlo."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from flipbet import significance
from flipbet import (
    Bet,
    DomainError,
    Face,
    Flip,
    GameConfig,
    MonteCarloEstimate,
    RandomizationResult,
    ValidationError,
    binomial_pmf,
    derive_seed,
    losing_probability,
    make_trace,
    monte_carlo_compound,
    random_reproduction_pvalue,
    randomization_test,
    simulate_game,
    true_compound_probability,
)

H, T = Face.HEADS, Face.TAILS


# Exact rational oracle, independent of the float implementation.
def pmf_exact(k: int, n: int, p: Fraction) -> Fraction:
    return Fraction(math.comb(n, k)) * p**k * (1 - p) ** (n - k)


def lower_tail_exact(hi: int, n: int, p: Fraction) -> Fraction:
    return sum(pmf_exact(k, n, p) for k in range(hi + 1))


def upper_tail_exact(lo: int, n: int, p: Fraction) -> Fraction:
    return sum(pmf_exact(k, n, p) for k in range(lo, n + 1))


class TestBinomialPmf:
    def test_single_trial(self):
        assert binomial_pmf(0, 1, 0.6) == pytest.approx(0.4, abs=1e-12)

    def test_frozen_exact_value(self):
        # C(10,4) * 0.6^4 * 0.4^6 computed in exact rational arithmetic
        assert binomial_pmf(4, 10, 0.6) == pytest.approx(0.111476736, abs=1e-12)

    def test_certain_success(self):
        assert binomial_pmf(10, 10, 1.0) == 1.0
        assert binomial_pmf(0, 10, 0.0) == 1.0

    def test_out_of_range_k_rejected(self):
        with pytest.raises(DomainError):
            binomial_pmf(-1, 10, 0.5)
        with pytest.raises(DomainError):
            binomial_pmf(11, 10, 0.5)
        with pytest.raises(DomainError):
            binomial_pmf(1, 10, 1.5)

    @given(
        st.integers(min_value=0, max_value=200),
        st.integers(min_value=0, max_value=200),
        st.fractions(min_value=0, max_value=1, max_denominator=1000),
    )
    def test_matches_rational_oracle_up_to_n_200(self, k, n, p):
        if k > n:
            k, n = n, k
        exact = pmf_exact(k, n, p)
        got = binomial_pmf(k, n, float(p))
        if exact > 0:
            # float(p) rounds p itself; allow for that plus evaluation error
            assert got == pytest.approx(float(exact), rel=1e-9)

    def test_large_n_log_gamma_path(self):
        # spot value beyond the exact-comb range, against the oracle
        exact = float(pmf_exact(600, 1200, Fraction(1, 2)))
        via_large = binomial_pmf(600, 1200, 0.5)
        assert via_large == pytest.approx(exact, rel=1e-10)

    @pytest.mark.parametrize(
        "k,n,p",
        [(305, 846, 0.8443470029297477), (244, 998, 0.0342251922361535)],
    )
    def test_tiny_tail_values_stay_representable(self, k, n, p):
        # a lone power factor underflows here while the pmf itself does not;
        # Fraction(p) is the exact binary value of the float input
        exact = pmf_exact(k, n, Fraction(p))
        assert float(exact) > 0.0
        assert binomial_pmf(k, n, p) == pytest.approx(float(exact), rel=1e-10)


class TestLosingProbability:
    # frozen from the exact rational oracle: P(X <= ceil(n/2)-1), X ~ Bin(n, 3/5)
    ORACLE = {
        10: 0.1662386176,
        50: 0.05734376054220036,
        100: 0.01676168650316139,
    }

    @pytest.mark.parametrize("n,expected_pct", [(10, 16.6), (50, 5.7), (100, 1.7)])
    def test_rigged_coin_tail_rounds_to_published_figure(self, n, expected_pct):
        value = losing_probability(n, 0.6)
        assert abs(value - self.ORACLE[n]) <= 1e-10
        assert float(f"{100 * value:.1f}") == expected_pct

    @pytest.mark.parametrize("n", [10, 50, 100])
    def test_matches_fresh_oracle_computation(self, n):
        exact = lower_tail_exact((n + 1) // 2 - 1, n, Fraction(3, 5))
        assert abs(losing_probability(n, 0.6) - float(exact)) <= 1e-10

    def test_certain_win_cannot_lose(self):
        assert losing_probability(1, 1.0) == 0.0

    def test_ties_are_not_losses(self):
        # n=2, fair: losing only when both trials fail
        assert losing_probability(2, 0.5) == pytest.approx(0.25, abs=1e-12)

    def test_edge_tends_to_zero_with_more_trials(self):
        values = [losing_probability(n, 0.6) for n in (10, 50, 100)]
        assert values[0] > values[1] > values[2] > 0.0

    def test_bad_n_rejected(self):
        with pytest.raises(DomainError):
            losing_probability(0, 0.5)

    def test_bool_probability_rejected(self):
        with pytest.raises(DomainError, match="p must"):
            losing_probability(10, True)


class TestRandomReproductionPvalue:
    def test_single_effective_event_stays_half(self):
        assert random_reproduction_pvalue(1, 1) == 0.5

    def test_two_fair_guesses(self):
        assert random_reproduction_pvalue(2, 2) == 0.25

    def test_zero_wins_always_reproducible(self):
        for m in (0, 1, 5, 40):
            assert random_reproduction_pvalue(0, m) == 1.0

    def test_empty_record(self):
        assert random_reproduction_pvalue(0, 0) == 1.0

    def test_k_above_m_rejected(self):
        with pytest.raises(DomainError):
            random_reproduction_pvalue(3, 2)

    def test_bool_wins_rejected(self):
        with pytest.raises(DomainError, match="k_wins"):
            random_reproduction_pvalue(True, 2)

    @given(st.integers(min_value=0, max_value=120))
    def test_full_wins_equal_power_of_half(self, m):
        assert random_reproduction_pvalue(m, m) == 0.5**m

    @given(st.integers(min_value=1, max_value=120))
    def test_non_increasing_in_k(self, m):
        values = [random_reproduction_pvalue(k, m) for k in range(m + 1)]
        for a, b in zip(values, values[1:]):
            assert b <= a + 1e-12

    @given(
        st.integers(min_value=0, max_value=60),
        st.integers(min_value=0, max_value=60),
    )
    def test_matches_rational_oracle(self, k, m):
        if k > m:
            k, m = m, k
        exact = upper_tail_exact(k, m, Fraction(1, 2)) if k > 0 else Fraction(1)
        assert random_reproduction_pvalue(k, m) == pytest.approx(float(exact), abs=1e-12)


class TestRandomizationTest:
    def test_paradox_second_bet_never_changes(self, paradox_trace):
        result = randomization_test(paradox_trace, 1, interval=(0.3, 0.7), trials=1000, seed=0)
        assert result == RandomizationResult(trials=1000, changed=0)

    @pytest.mark.parametrize("seed", [0, 1, 7, 123456789, 2**63])
    def test_invariance_holds_for_any_seed(self, paradox_trace, seed):
        result = randomization_test(paradox_trace, 1, interval=(0.3, 0.7), trials=200, seed=seed)
        assert result.change_fraction == 0.0

    def test_change_fraction_matches_interval_length_ratio(self):
        # bet on heads at 0.7 loses (state is tails after the 0.5 flip);
        # re-placed uniformly in (0.1, 0.7) it wins exactly when it lands
        # before 0.5, a stretch of length 0.4 out of 0.6
        trace = make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, H), Flip(0.5, T)],
            [Bet(0.7, H)],
        )
        assert trace.resolutions == (False,)
        trials = 10**5
        result = randomization_test(trace, 0, interval=(0.1, 0.7), trials=trials, seed=11)
        expected = (0.5 - 0.1) / (0.7 - 0.1)
        tolerance = 4.0 * math.sqrt(expected * (1.0 - expected) / trials)
        assert abs(result.change_fraction - expected) <= tolerance

    def test_zero_length_interval_never_changes(self, paradox_trace):
        bet_time = paradox_trace.bets[1].time
        result = randomization_test(
            paradox_trace, 1, interval=(bet_time, bet_time), trials=100, seed=5
        )
        assert result.change_fraction == 0.0

    def test_default_interval_spans_from_previous_bet(self, paradox_trace):
        by_default = randomization_test(paradox_trace, 1, trials=500, seed=9)
        explicit = randomization_test(paradox_trace, 1, interval=(0.3, 0.7), trials=500, seed=9)
        assert by_default == explicit

    def test_bad_index_and_interval_rejected(self, paradox_trace):
        with pytest.raises(DomainError):
            randomization_test(paradox_trace, 5)
        with pytest.raises(DomainError):
            randomization_test(paradox_trace, 1, interval=(0.7, 0.3))
        with pytest.raises(DomainError):
            randomization_test(paradox_trace, 1, interval=(0.0, 2.0))
        with pytest.raises(DomainError):
            randomization_test(paradox_trace, 1, trials=0)

    def test_bool_index_rejected(self, paradox_trace):
        with pytest.raises(DomainError):
            randomization_test(paradox_trace, True)

    def test_bool_trials_rejected(self, paradox_trace):
        with pytest.raises(DomainError, match="trials"):
            randomization_test(paradox_trace, 0, trials=True)

    @pytest.mark.parametrize("interval", [("a", "b"), (0.1,), 0.5, (0.1, float("nan"))])
    def test_malformed_interval_rejected(self, paradox_trace, interval):
        with pytest.raises(DomainError, match="interval"):
            randomization_test(paradox_trace, 1, interval=interval)

    @pytest.mark.parametrize("seed", [-5, 2**64, "abc", 1.0, True])
    def test_seed_outside_64_bits_rejected(self, paradox_trace, seed):
        with pytest.raises(DomainError, match="seed"):
            randomization_test(paradox_trace, 1, seed=seed)

    @given(st.data())
    @settings(max_examples=300)
    def test_matches_per_trial_linear_scan(self, data):
        # Reference: the same Philox draws, each resolved by scanning every
        # flip (flip-first: a flip at exactly t governs t).
        from conftest import seeds, traces

        trace = data.draw(traces(min_bets=1))
        index = data.draw(st.integers(0, len(trace.bets) - 1))
        points = st.one_of(
            st.floats(0.0, trace.config.horizon, allow_nan=False),
            st.sampled_from([f.time for f in trace.flips]),
        )
        lo, hi = sorted((data.draw(points), data.draw(points)))
        trials = data.draw(st.integers(1, 60))
        seed = data.draw(seeds)
        bet = trace.bets[index]
        changed = 0
        for t in np.random.Generator(np.random.Philox(key=seed)).uniform(lo, hi, trials).tolist():
            face = None
            for flip in trace.flips:
                if flip.time <= t:
                    face = flip.outcome
            changed += (bet.prediction is face) != trace.resolutions[index]
        result = randomization_test(trace, index, interval=(lo, hi), trials=trials, seed=seed)
        assert result == RandomizationResult(trials=trials, changed=changed)

    @given(st.data())
    @settings(max_examples=200)
    def test_no_flip_inside_interval_means_no_change(self, data):
        from conftest import traces

        trace = data.draw(traces(min_bets=1))
        index = data.draw(st.integers(0, len(trace.bets) - 1))
        hi = trace.bets[index].time
        lo = data.draw(st.floats(min_value=0.0, max_value=hi, allow_nan=False))
        assume(not any(lo < f.time <= hi for f in trace.flips))
        result = randomization_test(trace, index, interval=(lo, hi), trials=50, seed=3)
        assert result.change_fraction == 0.0


class TestRandomizationResult:
    @pytest.mark.parametrize(
        "trials,changed",
        [(True, 0), (10, True), (10.0, 2), (10, 2.5), ("10", 2), (0, 0), (10, 11), (10, -1)],
    )
    def test_counts_must_be_integers_in_range(self, trials, changed):
        with pytest.raises(DomainError):
            RandomizationResult(trials=trials, changed=changed)


class TestMonteCarloCompound:
    def test_paradox_estimate_near_half(self):
        mc = monte_carlo_compound(
            GameConfig(horizon=1.0),
            [0.0],
            [Bet(0.3, H), Bet(0.7, H)],
            trials=10**6,
            base_seed=42,
        )
        assert abs(mc.estimate - 0.5) <= 4.0 * mc.standard_error

    def test_epoch_separated_bets_near_quarter(self):
        mc = monte_carlo_compound(
            GameConfig(horizon=1.0),
            [0.0, 0.5],
            [Bet(0.3, H), Bet(0.7, H)],
            trials=10**6,
            base_seed=43,
        )
        assert abs(mc.estimate - 0.25) <= 4.0 * mc.standard_error

    def test_bias_one_certain(self):
        mc = monte_carlo_compound(
            GameConfig(horizon=1.0, coin_bias=1.0),
            [0.0, 0.5],
            [Bet(0.2, H), Bet(0.8, H)],
            trials=10**4,
            base_seed=44,
        )
        assert mc == MonteCarloEstimate(trials=10**4, successes=10**4, estimate=1.0, standard_error=0.0)

    def test_conflicting_epoch_never_wins(self):
        mc = monte_carlo_compound(
            GameConfig(horizon=1.0),
            [0.0],
            [Bet(0.3, H), Bet(0.7, T)],
            trials=10**4,
            base_seed=45,
        )
        assert mc.successes == 0 and mc.estimate == 0.0

    def test_no_bets_vacuous_win(self):
        mc = monte_carlo_compound(GameConfig(horizon=1.0), [0.0], [], trials=100, base_seed=1)
        assert mc.estimate == 1.0

    def test_chunking_does_not_change_the_count(self, monkeypatch):
        args = (GameConfig(horizon=1.0), [0.0, 0.4], [Bet(0.2, H), Bet(0.6, T)])
        monkeypatch.setattr(significance, "_CHUNK_TRIALS", 30_000)
        one_shot = monte_carlo_compound(*args, trials=30_000, base_seed=7)
        monkeypatch.setattr(significance, "_CHUNK_TRIALS", 999)
        chunked = monte_carlo_compound(*args, trials=30_000, base_seed=7)
        assert one_shot == chunked

    @pytest.mark.parametrize("field", ["trials", "base_seed"])
    def test_bool_trials_and_seed_rejected(self, field):
        kwargs = {"trials": 10, "base_seed": 0, field: True}
        with pytest.raises(DomainError, match=field):
            monte_carlo_compound(GameConfig(horizon=1.0), [0.0], [Bet(0.5, H)], **kwargs)

    def test_validation_errors_propagate(self):
        with pytest.raises(ValidationError):
            monte_carlo_compound(GameConfig(horizon=1.0), [0.5], [], trials=10, base_seed=0)
        with pytest.raises(DomainError):
            monte_carlo_compound(GameConfig(horizon=1.0), [0.0], [], trials=0, base_seed=0)

    def test_string_predictions_rejected(self):
        with pytest.raises(ValidationError) as err:
            monte_carlo_compound(
                GameConfig(horizon=1.0, coin_bias=1.0),
                [0.0],
                [Bet(0.5, "H"), Bet(0.6, H), Bet(0.7, "T")],
                trials=100,
                base_seed=1,
            )
        assert err.value.problems == (
            "bet[0] prediction is not a Face: 'H'",
            "bet[2] prediction is not a Face: 'T'",
        )

    def test_agrees_with_replayed_simulations(self):
        # dual route: the vectorized kernel vs literal seeded game replays
        config = GameConfig(horizon=1.0)
        flip_times = [0.0, 0.5]
        bets = [Bet(0.3, H), Bet(0.7, H)]
        trials = 4000
        replay_wins = sum(
            all(
                simulate_game(
                    GameConfig(horizon=1.0, seed=derive_seed(500, i)),
                    flip_times,
                    bets,
                ).resolutions
            )
            for i in range(trials)
        )
        replay = replay_wins / trials
        mc = monte_carlo_compound(config, flip_times, bets, trials=trials, base_seed=501)
        q = 0.25
        spread = 8.0 * math.sqrt(q * (1.0 - q) / trials)
        assert abs(replay - mc.estimate) <= spread

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_tracks_true_compound_on_random_games(self, data):
        from conftest import traces

        trace = data.draw(traces(max_flips=3, max_bets=4, bias=0.5))
        trials = 20_000
        mc = monte_carlo_compound(
            trace.config,
            [f.time for f in trace.flips],
            trace.bets,
            trials=trials,
            base_seed=trace.config.seed,
        )
        q = true_compound_probability(trace)
        tolerance = 5.0 * math.sqrt(q * (1.0 - q) / trials) + 1e-12
        assert abs(mc.estimate - q) <= tolerance


class TestDeriveSeed:
    def test_deterministic_and_64_bit(self):
        assert derive_seed(7, 3) == derive_seed(7, 3)
        assert 0 <= derive_seed(7, 3) < 2**64

    def test_distinct_indices_distinct_streams(self):
        seen = {derive_seed(7, i) for i in range(1000)}
        assert len(seen) == 1000

    @pytest.mark.parametrize("base_seed", [-5, 2**64, 2**70])
    def test_base_seed_outside_64_bits_rejected(self, base_seed):
        # Masking -5 into 64 bits would give it the stream of 2**64 - 5.
        with pytest.raises(DomainError, match="base_seed must be a 64-bit unsigned integer"):
            derive_seed(base_seed, 0)

    def test_negative_index_rejected(self):
        with pytest.raises(DomainError, match="index must be an integer >= 0, got -1"):
            derive_seed(7, -1)
