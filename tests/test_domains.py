"""The scalar input rules, checked at every public parameter that takes one.

Integers: anything ``operator.index`` accepts except a bool, stored as a
Python int. Real numbers (times, horizons, probabilities): an int or a
float, never a bool. ``True`` is chosen because its value 1 lies inside
every domain below, so only the type rule can reject it.
"""

from __future__ import annotations

import numpy as np
import pytest

from flipbet import (
    AnalysisOptions,
    Bet,
    DomainError,
    Face,
    Flip,
    FlipBetError,
    GameConfig,
    GameTrace,
    MonteCarloEstimate,
    RandomizationResult,
    ValidationError,
    analyze,
    binomial_pmf,
    coin_state_at,
    derive_seed,
    group_by_epoch,
    losing_probability,
    make_trace,
    monte_carlo_compound,
    pairwise_conditional_probability,
    random_reproduction_pvalue,
    randomization_test,
    report_from_dict,
    report_to_dict,
    simulate_game,
    trace_from_dict,
    trace_to_dict,
)

H, T = Face.HEADS, Face.TAILS
CONFIG = GameConfig(horizon=2.0)
TRACE = make_trace(CONFIG, [Flip(0.0, H), Flip(1.5, T)], [Bet(0.5, H), Bet(1.75, T)])


def _report_with(name: str, value: object) -> dict:
    doc = report_to_dict(analyze(TRACE))
    doc[name] = value
    return doc


def _trace_doc_with_bet_time(value: object) -> dict:
    doc = trace_to_dict(TRACE)
    doc["bets"][0]["time"] = value
    return doc


# Each call returns what the parameter ends up as (a stored field) or the
# answer computed from it.
INTEGER_PARAMETERS = {
    "GameConfig.seed": lambda v: GameConfig(horizon=1.0, seed=v).seed,
    "AnalysisOptions.seed": lambda v: AnalysisOptions(seed=v).seed,
    "AnalysisOptions.randomization_trials": (
        lambda v: AnalysisOptions(randomization_trials=v).randomization_trials
    ),
    "randomization_test.bet_index": lambda v: randomization_test(TRACE, v, trials=20),
    "randomization_test.trials": lambda v: randomization_test(TRACE, 1, trials=v).trials,
    "randomization_test.seed": lambda v: randomization_test(TRACE, 1, trials=20, seed=v),
    "monte_carlo_compound.trials": (
        lambda v: monte_carlo_compound(CONFIG, [0.0], [Bet(0.5, H)], v, 0).trials
    ),
    "monte_carlo_compound.base_seed": (
        lambda v: monte_carlo_compound(CONFIG, [0.0], [Bet(0.5, H)], 50, v)
    ),
    "derive_seed.base_seed": lambda v: derive_seed(v, 0),
    "derive_seed.index": lambda v: derive_seed(0, v),
    "binomial_pmf.k": lambda v: binomial_pmf(v, 2, 0.5),
    "binomial_pmf.n": lambda v: binomial_pmf(0, v, 0.5),
    "losing_probability.n": lambda v: losing_probability(v, 0.4),
    "random_reproduction_pvalue.k_wins": lambda v: random_reproduction_pvalue(v, 2),
    "random_reproduction_pvalue.m_effective": lambda v: random_reproduction_pvalue(1, v),
    "RandomizationResult.trials": lambda v: RandomizationResult(trials=v, changed=1).trials,
    "RandomizationResult.changed": lambda v: RandomizationResult(trials=2, changed=v).changed,
    "MonteCarloEstimate.trials": lambda v: MonteCarloEstimate(v, 1, 1.0, 0.0).trials,
    "MonteCarloEstimate.successes": lambda v: MonteCarloEstimate(2, v, 0.5, 0.35).successes,
    "report_from_dict.wins": lambda v: report_from_dict(_report_with("wins", v)).wins,
}

REAL_PARAMETERS = {
    "GameConfig.horizon": lambda v: GameConfig(horizon=v),
    "GameConfig.coin_bias": lambda v: GameConfig(horizon=1.0, coin_bias=v),
    "Flip.time": lambda v: make_trace(CONFIG, [Flip(0.0, H), Flip(v, T)], []),
    "Bet.time": lambda v: make_trace(CONFIG, [Flip(0.0, H)], [Bet(v, H)]),
    "simulate_game.flip_times": lambda v: simulate_game(CONFIG, [0.0, v], []),
    "monte_carlo_compound.flip_times": (
        lambda v: monte_carlo_compound(CONFIG, [0.0, v], [Bet(0.5, H)], 10, 0)
    ),
    "coin_state_at.t": lambda v: coin_state_at(TRACE, v),
    "randomization_test.interval.lo": lambda v: randomization_test(TRACE, 1, interval=(v, 1.75)),
    "randomization_test.interval.hi": lambda v: randomization_test(TRACE, 0, interval=(0.0, v)),
    "binomial_pmf.p": lambda v: binomial_pmf(1, 2, v),
    "losing_probability.p": lambda v: losing_probability(3, v),
    "pairwise_conditional_probability.coin_bias": (
        lambda v: pairwise_conditional_probability(*TRACE.bets, group_by_epoch(TRACE), v)
    ),
    "report_from_dict.true_compound": (
        lambda v: report_from_dict(_report_with("true_compound", v))
    ),
    "trace_from_dict.time": lambda v: trace_from_dict(_trace_doc_with_bet_time(v)),
}


@pytest.mark.parametrize("value", [True, 1.0, "1"], ids=repr)
@pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
def test_integer_parameter_rejects_non_integers(parameter, value):
    with pytest.raises(FlipBetError):
        INTEGER_PARAMETERS[parameter](value)


@pytest.mark.parametrize("parameter", INTEGER_PARAMETERS)
def test_integer_parameter_takes_a_numpy_integer_as_an_int(parameter):
    call = INTEGER_PARAMETERS[parameter]
    expected, got = call(1), call(np.int64(1))
    assert got == expected
    assert type(got) is type(expected)


@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameter_rejects_a_bool(parameter):
    with pytest.raises(FlipBetError):
        REAL_PARAMETERS[parameter](True)


class TestBoolIsNotATime:
    def test_make_trace_lists_each_bool_time(self):
        with pytest.raises(ValidationError) as err:
            make_trace(
                CONFIG, [Flip(0.0, H), Flip(True, T)], [Bet(True, T), Bet(1.5, T)]
            )
        assert err.value.problems == (
            "flip[1] time is not a finite number: True",
            "bet[0] time is not a finite number: True",
        )

    def test_trace_from_dict_rejects_a_json_true_time(self):
        with pytest.raises(ValidationError) as err:
            trace_from_dict(_trace_doc_with_bet_time(True))
        assert err.value.problems == ("bet[0] time is not a finite number: True",)

    def test_coin_state_at_rejects_a_bool(self):
        with pytest.raises(DomainError, match=r"time True outside the game window \[0, 2.0\]"):
            coin_state_at(TRACE, True)

    def test_monte_carlo_compound_rejects_a_bool_flip_time(self):
        with pytest.raises(ValidationError) as err:
            monte_carlo_compound(CONFIG, [0.0, True], [Bet(0.5, H)], trials=10, base_seed=0)
        assert err.value.problems == ("flip[1] time is not a finite number: True",)


HUGE = 10**400  # an int with no float value: float(HUGE) overflows


@pytest.mark.parametrize("parameter", REAL_PARAMETERS)
def test_real_parameter_rejects_an_int_too_large_for_a_float(parameter):
    with pytest.raises(FlipBetError):
        REAL_PARAMETERS[parameter](HUGE)


class TestIntTooLargeForAFloat:
    def test_game_config_lists_the_horizon(self):
        with pytest.raises(ValidationError) as err:
            GameConfig(horizon=HUGE)
        assert err.value.problems == (f"horizon must be a finite positive number, got {HUGE!r}",)

    def test_make_trace_lists_each_time(self):
        with pytest.raises(ValidationError) as err:
            make_trace(CONFIG, [Flip(0.0, H), Flip(HUGE, T)], [Bet(HUGE, T)])
        assert err.value.problems == (
            f"flip[1] time is not a finite number: {HUGE!r}",
            f"bet[0] time is not a finite number: {HUGE!r}",
        )

    def test_trace_from_dict_lists_the_time(self):
        with pytest.raises(ValidationError) as err:
            trace_from_dict(_trace_doc_with_bet_time(HUGE))
        assert err.value.problems == (f"bet[0] time is not a finite number: {HUGE!r}",)

    @pytest.mark.parametrize(
        "call,name",
        [
            (lambda: binomial_pmf(1, HUGE, 0.5), "n"),
            (lambda: losing_probability(HUGE, 0.6), "n"),
            (lambda: random_reproduction_pvalue(1, HUGE), "m_effective"),
        ],
        ids=["binomial_pmf", "losing_probability", "random_reproduction_pvalue"],
    )
    def test_binomial_trial_count_rejected(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} must be an integer a float can hold, got 1"):
            call()

    def test_largest_float_as_an_int_is_still_a_number(self):
        # The bound is the largest float itself, so every int a float holds passes.
        horizon = int(1.7976931348623157e308)
        assert GameConfig(horizon=horizon).horizon == horizon


OVERSIZED = 10**5000  # over the interpreter's 4300-digit limit: repr() raises ValueError

OVERSIZED_CALLS = {
    "GameConfig.horizon": lambda v: GameConfig(horizon=v),
    "GameConfig.coin_bias": lambda v: GameConfig(horizon=1.0, coin_bias=v),
    "GameConfig.seed": lambda v: GameConfig(horizon=1.0, seed=v),
    "AnalysisOptions.seed": lambda v: AnalysisOptions(seed=v),
    "derive_seed.base_seed": lambda v: derive_seed(v, 0),
    "derive_seed.index": lambda v: derive_seed(0, v),
    "binomial_pmf.k": lambda v: binomial_pmf(v, 2, 0.5),
    "binomial_pmf.n": lambda v: binomial_pmf(0, v, 0.5),
    "binomial_pmf.p": lambda v: binomial_pmf(1, 2, v),
    "losing_probability.n": lambda v: losing_probability(v, 0.4),
    "random_reproduction_pvalue.m_effective": lambda v: random_reproduction_pvalue(1, v),
    "RandomizationResult.changed": lambda v: RandomizationResult(trials=2, changed=v),
    "report_from_dict.naive_pvalue": lambda v: report_from_dict(_report_with("naive_pvalue", v)),
    "Flip.time.first": lambda v: make_trace(CONFIG, [Flip(v, H)], []),
    "Flip.time": lambda v: make_trace(CONFIG, [Flip(0.0, H), Flip(v, T)], []),
    "Flip.outcome": lambda v: make_trace(CONFIG, [Flip(0.0, v)], []),
    "Bet.time": lambda v: make_trace(CONFIG, [Flip(0.0, H)], [Bet(v, H)]),
    "Bet.prediction": lambda v: make_trace(CONFIG, [Flip(0.0, H)], [Bet(0.5, v)]),
    "simulate_game.flip_times": lambda v: simulate_game(CONFIG, [0.0, v], []),
    "monte_carlo_compound.flip_times": (
        lambda v: monte_carlo_compound(CONFIG, [0.0, v], [Bet(0.5, H)], 10, 0)
    ),
    "trace_from_dict.time": lambda v: trace_from_dict(_trace_doc_with_bet_time(v)),
    "coin_state_at.t": lambda v: coin_state_at(TRACE, v),
    "randomization_test.seed": lambda v: randomization_test(TRACE, 1, trials=20, seed=v),
    "randomization_test.interval.lo": lambda v: randomization_test(TRACE, 1, interval=(v, 1.75)),
    "randomization_test.interval": lambda v: randomization_test(TRACE, 1, interval=(0.0, 1.0, v)),
    "GameTrace.resolutions": (
        lambda v: GameTrace(CONFIG, TRACE.flips, TRACE.bets, resolutions=[True, v])
    ),
    "trace_from_dict.resolutions": (
        lambda v: trace_from_dict({**trace_to_dict(TRACE), "resolutions": [True, v]})
    ),
    "pairwise_conditional_probability.order": (
        lambda v: pairwise_conditional_probability(Bet(v, H), TRACE.bets[0], group_by_epoch(TRACE))
    ),
    "pairwise_conditional_probability.membership": (
        lambda v: pairwise_conditional_probability(TRACE.bets[0], Bet(v, H), group_by_epoch(TRACE))
    ),
}


@pytest.mark.parametrize("parameter", OVERSIZED_CALLS)
def test_an_int_too_long_to_write_gets_a_short_message(parameter):
    with pytest.raises(FlipBetError) as err:
        OVERSIZED_CALLS[parameter](OVERSIZED)
    message = str(err.value)
    assert len(message) < 200 and "Exceeds the limit" not in message


def test_an_int_too_long_to_write_is_shown_by_its_bit_length():
    with pytest.raises(ValidationError) as err:
        GameConfig(horizon=OVERSIZED)
    assert err.value.problems == ("horizon must be a finite positive number, got <int of 16610 bits>",)
    with pytest.raises(ValidationError) as err:
        GameTrace(CONFIG, TRACE.flips, TRACE.bets, resolutions=[True, OVERSIZED])
    assert err.value.problems == ("resolutions must be booleans, got [True, <int of 16610 bits>]",)


_LOOP: list = []
_LOOP.append(_LOOP)

# resolutions -> how the message quotes them
QUOTED_LISTS = {
    "long str": (["x" * 100_000], "['xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (100000 characters)]"),
    "many items": (
        [True] * 10**6 + [1],
        "[True, True, True, True, True, True, True, True, ... (1000001 items)]",
    ),
    "holds itself": (_LOOP, "[[[...]]]"),
}


@pytest.mark.parametrize("name", QUOTED_LISTS)
def test_a_list_is_quoted_item_by_item_and_cut(name):
    resolutions, quoted = QUOTED_LISTS[name]
    with pytest.raises(ValidationError) as err:
        GameTrace(CONFIG, TRACE.flips, TRACE.bets, resolutions=resolutions)
    assert err.value.problems == (f"resolutions must be booleans, got {quoted}",)
    doc = trace_to_dict(TRACE)
    doc["resolutions"] = resolutions
    with pytest.raises(ValidationError) as err:
        trace_from_dict(doc)
    assert len(str(err.value)) < 300


def _randomization_trials(value: object) -> dict:
    doc = report_to_dict(analyze(TRACE, AnalysisOptions(randomization_trials=10)))
    doc["randomization"][0]["trials"] = value
    return doc


def _trace_doc_with_face(records: str, field: str) -> dict:
    doc = trace_to_dict(TRACE)
    doc[records][0][field] = "H" * 100_000
    return doc


# Each call quotes a container that holds a 100,000-character str, or the str itself.
LONG_CONTAINERS = {
    "randomization_test.interval tuple": (
        lambda: randomization_test(TRACE, 0, interval=("x" * 100_000,))
    ),
    "Flip.outcome tuple": lambda: make_trace(CONFIG, [Flip(0.0, ("x" * 100_000,))], []),
    "Bet.prediction dict": (
        lambda: make_trace(CONFIG, [Flip(0.0, H)], [Bet(0.5, {"k": "q" * 100_000})])
    ),
    "Bet.time array": (
        lambda: make_trace(CONFIG, [Flip(0.0, H)], [Bet(np.array(["q" * 100_000]), H)])
    ),
    "report_from_dict.randomization.trials tuple": (
        lambda: report_from_dict(_randomization_trials(("z" * 100_000,)))
    ),
    "trace_from_dict.outcome str": lambda: trace_from_dict(_trace_doc_with_face("flips", "outcome")),
    "trace_from_dict.prediction str": (
        lambda: trace_from_dict(_trace_doc_with_face("bets", "prediction"))
    ),
}


@pytest.mark.parametrize("call", LONG_CONTAINERS)
def test_a_long_container_gets_a_short_message(call):
    with pytest.raises(FlipBetError) as err:
        LONG_CONTAINERS[call]()
    assert len(str(err.value)) < 300


# interval -> how the message quotes it
QUOTED_TUPLES = {
    "one long str": (("x" * 100_000,), "('xxxxxxxxxxxxxxxxxxxxxxxxxxxxxxxx'... (100000 characters),)"),
    "many items": ((0.5,) * 9, "(0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5, ... (9 items))"),
    "empty": ((), "()"),
}


@pytest.mark.parametrize("name", QUOTED_TUPLES)
def test_a_tuple_is_quoted_item_by_item_and_cut(name):
    interval, quoted = QUOTED_TUPLES[name]
    with pytest.raises(DomainError) as err:
        randomization_test(TRACE, 0, interval=interval)
    assert str(err.value) == f"interval must be a (lo, hi) pair, got {quoted}"


def test_any_other_long_repr_is_quoted_by_its_first_100_characters():
    prediction = {"k": "q" * 100_000}
    with pytest.raises(ValidationError) as err:
        make_trace(CONFIG, [Flip(0.0, H)], [Bet(0.5, prediction)])
    assert err.value.problems == (
        f"bet[0] prediction is not a Face: {repr(prediction)[:100]}... (100009 characters)",
    )


def _nested(depth: int, container: type = list) -> object:
    value: object = "x"
    for _ in range(depth):
        value = container([value])
    return value


# flip outcome -> how the message quotes it: six levels are shown, deeper
# ones as [...]
QUOTED_DEPTHS = {
    "lists 6 deep": (_nested(6), "[[[[[['x']]]]]]"),
    "lists 7 deep": (_nested(7), "[[[[[[[...]]]]]]]"),
    "lists 100,000 deep": (_nested(100_000), "[[[[[[[...]]]]]]]"),
    "tuples 7 deep": (_nested(7, tuple), "(((((([...],),),),),),)"),
}


@pytest.mark.parametrize("name", QUOTED_DEPTHS)
def test_a_nested_container_is_quoted_down_to_a_fixed_depth(name):
    outcome, quoted = QUOTED_DEPTHS[name]
    with pytest.raises(ValidationError) as err:
        make_trace(CONFIG, [Flip(0.0, outcome)], [])
    assert err.value.problems == (f"flip[0] outcome is not a Face: {quoted}",)
    message = str(err.value)
    assert "\n" not in message and len(message.encode()) < 300


def test_a_wide_nested_container_is_quoted_in_a_bounded_length():
    # 8 items at each of 6 levels: 8**6 strs in all, about 1.9 million
    # characters shown whole. Items stop once the quote fills its room.
    outcome: object = "x"
    for _ in range(6):
        outcome = [outcome] * 8
    row = "['x', 'x', 'x', 'x', 'x', 'x', 'x', 'x']"
    cut_row = "['x', 'x', 'x', 'x', 'x', 'x', 'x', ... (8 items)]"
    quoted = "[" * 5 + ", ".join([row] * 4 + [cut_row]) + ", ... (8 items)]" * 5
    with pytest.raises(ValidationError) as err:
        make_trace(CONFIG, [Flip(0.0, outcome)], [])
    assert err.value.problems == (f"flip[0] outcome is not a Face: {quoted}",)
    assert len(str(err.value)) < 400
