"""Binomial tails, random-reproduction p-values, randomization, Monte Carlo."""

from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from flipbet import significance
from flipbet import (
    Bet,
    DomainError,
    Face,
    Flip,
    GameConfig,
    GameTrace,
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
from conftest import faces, reference_randomization, seeds

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
        # spot value at a large n, against the oracle
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

    @pytest.mark.parametrize("n", [1, 2, 999, 1000, 1001, 10**6, 10**15])
    def test_certain_coins_give_certain_answers(self, n):
        # From one trial to 10**15: a certain coin's tail is one term, however large n is.
        assert losing_probability(n, 0.0) == 1.0
        assert losing_probability(n, 1.0) == 0.0

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


class TestHugeTrialCounts:
    def test_pmf_at_the_centre_of_1e16_fair_trials(self):
        # Stirling: C(n, n/2) / 2**n = sqrt(2 / (pi n)) * (1 - 1/(4n) + ...)
        expected = math.sqrt(2 / (math.pi * 1e16))
        assert binomial_pmf(5 * 10**15, 10**16, 0.5) == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("m", [10**17, 10**30])
    def test_one_win_among_huge_counts_is_always_matched(self, m):
        # 1 - 2**-m, which is 1.0 in a double
        assert random_reproduction_pvalue(1, m) == 1.0


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

    @pytest.mark.parametrize("trials", [2**63, 2**64])
    def test_trials_past_int64_is_domain_error(self, paradox_trace, monkeypatch, trials):
        def no_draws(*args):
            raise AssertionError("drew re-placements for an invalid trial count")

        monkeypatch.setattr(significance, "_replacement_changes", no_draws)
        bounds = r"trials must be an integer in \[1, 9223372036854775807\]"
        with pytest.raises(DomainError, match=bounds):
            randomization_test(paradox_trace, 1, trials=trials)

    def test_the_largest_trial_count_is_accepted(self, paradox_trace):
        # No flip falls inside (0.3, 0.7), so no re-placement is drawn.
        result = randomization_test(paradox_trace, 1, interval=(0.3, 0.7), trials=2**63 - 1)
        assert result == RandomizationResult(trials=2**63 - 1, changed=0)

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

    @pytest.mark.parametrize(
        "interval,changed", [((0.55, 0.75), 40), ((0.85, 0.95), 0)], ids=["other-face", "same-face"]
    )
    def test_an_interval_one_flip_governs_is_counted_without_a_draw(
        self, monkeypatch, interval, changed
    ):
        # The bet sits in the heads epoch at 0; each interval lies wholly in
        # a later epoch, which shows tails over (0.5, 0.8) and heads after.
        trace = make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, H), Flip(0.5, T), Flip(0.8, H)],
            [Bet(0.2, H)],
        )

        def no_stream(*args):
            raise AssertionError("a stream was read")

        monkeypatch.setattr(significance, "_rekey", no_stream)
        result = randomization_test(trace, 0, interval=interval, trials=40, seed=7)
        assert result == RandomizationResult(trials=40, changed=changed)

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


@st.composite
def randomized_traces(draw) -> GameTrace:
    """Traces whose bets sit where the batched randomization tests could go
    wrong: on flip times, at time 0, at equal times (so ``lo == hi``), and
    just below a flip at ``np.nextafter(bet time, inf)``."""
    horizon = draw(st.floats(0.5, 50.0))
    extra = draw(st.lists(st.floats(0.0, horizon, exclude_min=True), unique=True, max_size=6))
    flip_times = [0.0] + sorted(extra)
    points = st.one_of(
        st.floats(0.0, horizon), st.sampled_from(flip_times), st.just(0.0), st.just(horizon)
    )
    bet_times = draw(st.lists(points, max_size=12))
    bet_times += draw(st.lists(st.sampled_from(bet_times), max_size=4)) if bet_times else []
    for t in draw(st.lists(st.sampled_from(bet_times), max_size=3)) if bet_times else []:
        flip_times.append(np.nextafter(t, math.inf).item())
    flip_times = sorted(t for t in set(flip_times) if t <= horizon)
    flips = [Flip(t, draw(faces)) for t in flip_times]
    bets = [Bet(t, draw(faces)) for t in sorted(bet_times)]
    return make_trace(GameConfig(horizon=horizon), flips, bets)


class TestBatchedRandomizationTests:
    @given(
        trace=randomized_traces(),
        trials=st.integers(1, 60),
        seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds),
    )
    @settings(max_examples=300, deadline=None)
    @example(
        trace=make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, H), Flip(0.5, T), Flip(np.nextafter(0.7, math.inf).item(), H)],
            [Bet(0.0, H), Bet(0.5, T), Bet(0.5, H), Bet(0.7, T), Bet(0.7, T), Bet(1.0, H)],
        ),
        trials=50,
        seed=2**64 - 1,
    )
    def test_equals_one_test_per_bet(self, trace, trials, seed):
        assert significance._randomization_tests(trace, trials, seed) == reference_randomization(
            trace, trials, seed
        )

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_a_lone_bet_on_the_edge_of_a_flip(self, seed):
        # Bet 1 draws in [0.1, 0.7] and sees the flip at 0.2; the flip just
        # past 0.7 governs none of its draws. Bet 0's interval holds no flip.
        edge = np.nextafter(0.7, math.inf).item()
        trace = make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, H), Flip(0.2, T), Flip(edge, H)],
            [Bet(0.1, H), Bet(0.7, T), Bet(edge, H)],
        )
        got = significance._randomization_tests(trace, 1000, seed)
        assert got == reference_randomization(trace, 1000, seed)
        assert got[0].changed == 0 and 0 < got[1].changed < 1000

    def test_the_empty_bet_log_has_no_results(self):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, H)], [])
        assert significance._randomization_tests(trace, 10, 3) == ()

    def test_equal_counts_share_one_result(self):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, H)], [Bet(0.2, H), Bet(0.6, T)])
        first, second = significance._randomization_tests(trace, 10, 3)
        assert first is second and first == RandomizationResult(10, 0)

    @pytest.mark.parametrize("rows_per_block", [1, 3, 10**6])
    def test_block_size_does_not_change_the_counts(self, monkeypatch, rows_per_block):
        config = GameConfig(horizon=100.0, seed=4)
        flips = np.linspace(0.0, 100.0, 40, endpoint=False).tolist()
        bets = [Bet(t, H) for t in np.linspace(0.5, 99.5, 25).tolist()]
        trace = simulate_game(config, flips, bets)
        trials = 70
        row_bytes = 8 * trials  # one double per re-placement
        monkeypatch.setattr(significance, "_BATCH_BYTES", rows_per_block * row_bytes)
        assert significance._randomization_tests(trace, trials, 9) == reference_randomization(
            trace, trials, 9
        )

    @pytest.mark.parametrize("words", [1, 3, 7])
    def test_a_wide_row_is_drawn_in_chunks(self, monkeypatch, words):
        # A row wider than the batch is drawn `words` doubles at a time,
        # each chunk continuing the bet's stream where the last stopped.
        config = GameConfig(horizon=100.0, seed=4)
        flips = np.linspace(0.0, 100.0, 40, endpoint=False).tolist()
        bets = [Bet(t, H) for t in np.linspace(0.5, 99.5, 25).tolist()]
        trace = simulate_game(config, flips, bets)
        monkeypatch.setattr(significance, "_BATCH_BYTES", 8 * words)
        assert significance._randomization_tests(trace, 100, 9) == reference_randomization(
            trace, 100, 9
        )

    @given(
        base_seed=st.one_of(st.sampled_from([0, 2**64 - 1]), seeds),
        indices=st.lists(st.one_of(st.integers(0, 100), seeds), max_size=20),
    )
    def test_vectorised_keys_equal_derive_seed(self, base_seed, indices):
        keys = significance._derived(base_seed, np.array(indices, dtype=np.uint64))
        assert keys.dtype == np.uint64
        assert keys.tolist() == [derive_seed(base_seed, i) for i in indices]


def _splitmix64_finalizer(z: int) -> int:
    """SplitMix64's output function on Python ints, reduced modulo 2**64 after each step."""
    mask = 2**64 - 1
    z = (z + 0x9E3779B97F4A7C15) & mask
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
    return z ^ (z >> 31)


def test_mix64_gives_the_published_splitmix64_outputs_of_seed_0():
    # A SplitMix64 generator seeded with 0 first outputs these two words: its
    # state advances by the golden-ratio constant before each output.
    assert significance._mix64(np.array([0], np.uint64)).item() == 0xE220A8397B1DCDAF
    second = significance._mix64(np.array([0x9E3779B97F4A7C15], np.uint64)).item()
    assert second == 0x6E789E6AA1B965F4


EDGE_WORDS = [0, 1, 2**63, 2**64 - 1]


@pytest.mark.parametrize("index", EDGE_WORDS)
@pytest.mark.parametrize("base_seed", EDGE_WORDS)
def test_derive_seed_equals_a_python_int_splitmix64(base_seed, index):
    expected = _splitmix64_finalizer(base_seed ^ _splitmix64_finalizer(index))
    assert derive_seed(base_seed, index) == expected


class TestRandomizationResult:
    @pytest.mark.parametrize(
        "trials,changed",
        [(True, 0), (10, True), (10.0, 2), (10, 2.5), ("10", 2), (0, 0), (10, 11), (10, -1),
         (2**63, 0)],
    )
    def test_counts_must_be_integers_in_range(self, trials, changed):
        with pytest.raises(DomainError):
            RandomizationResult(trials=trials, changed=changed)


def _bulk_wins(config, flip_times, bets, trials, seed):
    """The reference Monte Carlo kernel: draw every flip of every trial, flip j
    from its own Philox stream keyed by ``derive_seed(seed, j)``, and resolve
    each bet against its flip, found by its own ``bisect_right``; one win
    flag per trial."""
    heads = [
        np.random.Generator(np.random.Philox(key=derive_seed(seed, j))).random(trials)
        < config.coin_bias
        for j in range(len(flip_times))
    ]
    won = np.ones(trials, dtype=bool)
    for b in bets:
        won &= heads[bisect_right(flip_times, b.time) - 1] == (b.prediction is H)
    return won


@st.composite
def epoch_games(draw):
    """Flips at 0, 1, 2, ... with bets in random epochs. The bets of an epoch
    agree, unless one opposite bet is added to an occupied epoch."""
    n_flips = draw(st.integers(1, 40))
    face_of = draw(st.lists(faces, min_size=n_flips, max_size=n_flips))
    epochs = sorted(draw(st.lists(st.integers(0, n_flips - 1), max_size=40)))
    bets = [Bet(e + 0.5, face_of[e]) for e in epochs]
    if epochs and draw(st.integers(0, 3)) == 0:
        e = draw(st.sampled_from(epochs))
        bets = sorted([*bets, Bet(e + 0.75, face_of[e].opposite())], key=lambda b: b.time)
    bias = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
    config = GameConfig(horizon=float(n_flips), coin_bias=bias)
    return config, [float(i) for i in range(n_flips)], bets


def _montecarlo_inputs(seed):
    """The benchmark's ``montecarlo`` inputs for ``seed``: 1000 flips, 10
    occupied epochs of 3 agreeing bets, a fair coin; 250,000 trials."""
    rng = np.random.default_rng([seed, *b"montecarlo"])
    n_flips, horizon = 1000, 1000 * 1000
    rest = np.sort(rng.choice(horizon - 1, n_flips - 1, replace=False)) + 1
    flip_times = np.concatenate(([0], rest))
    chosen = np.sort(rng.choice(n_flips, 10, replace=False))
    ends = np.append(flip_times[1:], horizon)
    bets = []
    for e in chosen.tolist():
        face = H if rng.random() < 0.5 else T
        bets += [Bet(int(t), face) for t in np.sort(rng.integers(flip_times[e], ends[e], 3))]
    return GameConfig(horizon=horizon), flip_times.tolist(), bets, int(rng.integers(2**63))


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

    @pytest.mark.parametrize("bias,face", [(1.0, H), (0.0, T)])
    def test_a_certain_face_needs_no_draw(self, monkeypatch, bias, face):
        def no_draws(*args):
            raise AssertionError("a stream was built")

        monkeypatch.setattr(significance, "_generator", no_draws)
        flip_times = [float(i) for i in range(1000)]
        bets = [Bet(t + 0.5, face) for t in flip_times]
        mc = monte_carlo_compound(
            GameConfig(horizon=1000.0, coin_bias=bias), flip_times, bets, trials=10**6, base_seed=6
        )
        assert mc.successes == 10**6

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
        row_bytes = 8  # one double per trial
        monkeypatch.setattr(significance, "_BATCH_BYTES", 30_000 * row_bytes)
        one_shot = monte_carlo_compound(*args, trials=30_000, base_seed=7)
        monkeypatch.setattr(significance, "_BATCH_BYTES", 999 * row_bytes)
        chunked = monte_carlo_compound(*args, trials=30_000, base_seed=7)
        assert one_shot == chunked

    @given(game=epoch_games(), trials=st.integers(1, 2000), seed=seeds)
    @settings(max_examples=30, deadline=None)
    @example(game=(GameConfig(horizon=1.0), [0.0], [Bet(0.5, H)]), trials=2000, seed=0)
    @example(
        game=(GameConfig(horizon=2.0, coin_bias=0.0), [0.0, 1.0], [Bet(0.5, T), Bet(1.5, T)]),
        trials=100,
        seed=2**64 - 1,
    )
    @example(
        game=(GameConfig(horizon=2.0, coin_bias=0.0), [0.0, 1.0], [Bet(0.5, T), Bet(1.5, H)]),
        trials=100,
        seed=1,
    )
    @example(
        game=(GameConfig(horizon=2.0, coin_bias=1.0), [0.0, 1.0], [Bet(0.5, H), Bet(1.5, H)]),
        trials=100,
        seed=2,
    )
    @example(
        game=(GameConfig(horizon=2.0, coin_bias=1.0), [0.0, 1.0], [Bet(0.5, H), Bet(1.5, T)]),
        trials=100,
        seed=3,
    )
    @example(game=(GameConfig(horizon=1.0), [0.0], [Bet(0.3, H), Bet(0.7, T)]), trials=100, seed=4)
    @example(
        game=(
            GameConfig(horizon=100.0, coin_bias=0.97),
            [float(i) for i in range(100)],
            [Bet(i + 0.5, H) for i in range(100)],
        ),
        trials=2000,
        seed=5,
    )
    def test_equals_the_bulk_draw(self, game, trials, seed):
        config, flip_times, bets = game
        mc = monte_carlo_compound(config, flip_times, bets, trials=trials, base_seed=seed)
        assert mc.successes == _bulk_wins(config, flip_times, bets, trials, seed).sum()

    @given(game=epoch_games(), trials=st.integers(1, 300), seed=seeds)
    @settings(max_examples=20, deadline=None)
    def test_a_shorter_run_sees_the_first_trials_of_a_longer_one(self, game, trials, seed):
        config, flip_times, bets = game
        won = _bulk_wins(config, flip_times, bets, 300, seed)
        mc = monte_carlo_compound(config, flip_times, bets, trials=trials, base_seed=seed)
        assert mc.successes == won[:trials].sum()

    @pytest.mark.parametrize("seed,successes", [(1, 256), (2, 275), (3, 252)])
    def test_benchmark_shaped_counts_are_pinned(self, seed, successes):
        config, flip_times, bets, base_seed = _montecarlo_inputs(seed)
        mc = monte_carlo_compound(config, flip_times, bets, trials=250_000, base_seed=base_seed)
        assert mc.successes == successes

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


INDEX_RANGE = rf"in \[0, {2**64 - 1}\]"


def _wilson_by_centre_and_half_width(successes: int, trials: int, z: float) -> tuple[float, float]:
    """The Wilson score interval in its textbook form (Brown, Cai & DasGupta
    2001): a centre pulled towards 1/2 and a half-width."""
    share = successes / trials
    shrink = 1 + z**2 / trials
    centre = (share + z**2 / (2 * trials)) / shrink
    half = z / shrink * math.sqrt(share * (1 - share) / trials + z**2 / (4 * trials**2))
    return centre - half, centre + half


class TestWilsonInterval:
    @pytest.mark.parametrize("trials", [1, 10, 1000, 10**6])
    def test_positive_width_at_zero_and_at_all_successes(self, trials):
        for successes in (0, trials):
            estimate = MonteCarloEstimate(trials, successes, successes / trials, 0.0)
            low, high = estimate.wilson_interval()
            assert 0.0 <= low <= estimate.estimate <= high <= 1.0
            assert high - low > 0.0
        assert MonteCarloEstimate(trials, 0, 0.0, 0.0).wilson_interval()[0] == 0.0
        assert MonteCarloEstimate(trials, trials, 1.0, 0.0).wilson_interval()[1] == 1.0

    @given(st.integers(min_value=1, max_value=10**9), st.data(), st.floats(0.1, 5.0))
    def test_matches_the_textbook_formula(self, trials, data, z):
        successes = data.draw(st.integers(min_value=0, max_value=trials))
        estimate = MonteCarloEstimate(trials, successes, successes / trials, 0.0)
        expected = _wilson_by_centre_and_half_width(successes, trials, z)
        assert estimate.wilson_interval(z) == pytest.approx(expected, rel=1e-9, abs=1e-15)

    def test_default_is_the_95_percent_interval(self):
        estimate = MonteCarloEstimate(100, 30, 0.3, math.sqrt(0.3 * 0.7 / 100))
        assert estimate.wilson_interval() == estimate.wilson_interval(1.96)
        assert estimate.wilson_interval() == pytest.approx(
            _wilson_by_centre_and_half_width(30, 100, 1.96), rel=1e-12
        )

    def test_monte_carlo_estimate_lies_inside_its_interval(self):
        mc = monte_carlo_compound(
            GameConfig(horizon=1.0), [0.0, 0.5], [Bet(0.3, H), Bet(0.7, H)], trials=10**4, base_seed=3
        )
        low, high = mc.wilson_interval(4.0)
        assert low < mc.estimate < high and low < 0.25 < high

    @pytest.mark.parametrize("trials,successes", [(0, 0), (5, 9), (5, -1)])
    def test_a_hand_built_estimate_must_hold_counts_in_range(self, trials, successes):
        with pytest.raises(DomainError):
            MonteCarloEstimate(trials, successes, 0.2, 0.0)

    @pytest.mark.parametrize("z", [0, 0.0, -1.96, True, math.inf, math.nan, 1e200, "1.96"])
    def test_bad_z_rejected(self, z):
        with pytest.raises(DomainError, match="z must be"):
            MonteCarloEstimate(10, 5, 0.5, 0.16).wilson_interval(z)


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
        with pytest.raises(DomainError, match=rf"index must be an integer {INDEX_RANGE}, got -1"):
            derive_seed(7, -1)

    @pytest.mark.parametrize("index", [2**64, 2**64 + 3, 2**70])
    def test_index_outside_64_bits_rejected(self, index):
        # Only the low 64 bits would reach the result: 2**64 would alias index 0.
        with pytest.raises(DomainError, match=rf"index must be an integer {INDEX_RANGE}, got {index}"):
            derive_seed(7, index)
