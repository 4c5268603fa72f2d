"""CSV ingestion, the analysis pipeline, and JSON round trips."""

from __future__ import annotations

import json
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import (
    AnalysisOptions,
    Bet,
    CsvFormatError,
    Face,
    Flip,
    GameConfig,
    ValidationError,
    analyze,
    load_bets,
    load_flips,
    make_trace,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
    trace_from_dict,
    trace_to_dict,
)
from conftest import game_inputs, traces
from flipbet.game import simulate_game
from flipbet.report import _trace_json

H, T = Face.HEADS, Face.TAILS


class TestLoadFlips:
    def test_single_row(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.0,H\n")
        assert load_flips(path) == [Flip(0.0, H)]

    def test_duplicate_time_reported_with_line(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.0,H\n0.0,T\n")
        with pytest.raises(CsvFormatError) as err:
            load_flips(path)
        assert err.value.line == 2
        assert "duplicate" in str(err.value)

    def test_header_row_skipped(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("time,outcome\n0.0,H\n0.5,T\n")
        assert load_flips(path) == [Flip(0.0, H), Flip(0.5, T)]

    def test_crlf_accepted(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_bytes(b"0.0,H\r\n0.5,T\r\n")
        assert load_flips(path) == [Flip(0.0, H), Flip(0.5, T)]

    def test_rows_are_time_ordered(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.5,T\n0.0,H\n")
        assert load_flips(path) == [Flip(0.0, H), Flip(0.5, T)]

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_flips(tmp_path / "nope.csv")

    def test_malformed_time_reports_line(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.0,H\nabc,T\n")
        with pytest.raises(CsvFormatError) as err:
            load_flips(path)
        assert err.value.line == 2 and "malformed time" in str(err.value)

    def test_negative_time_rejected(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("-0.5,H\n")
        with pytest.raises(CsvFormatError, match="out of range"):
            load_flips(path)

    def test_unknown_face_token_rejected(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.0,X\n")
        with pytest.raises(CsvFormatError, match="unknown face token"):
            load_flips(path)

    def test_wrong_field_count_rejected(self, tmp_path):
        path = tmp_path / "flips.csv"
        path.write_text("0.0,H,extra\n")
        with pytest.raises(CsvFormatError, match="expected 2 fields"):
            load_flips(path)


class TestLoadBets:
    def test_paradox_bet_plan(self, tmp_path):
        path = tmp_path / "bets.csv"
        path.write_text("0.3,H\n0.7,H\n")
        assert load_bets(path) == [Bet(0.3, H), Bet(0.7, H)]

    def test_equal_times_keep_file_order(self, tmp_path):
        path = tmp_path / "bets.csv"
        path.write_text("0.5,H\n0.5,T\n0.2,T\n")
        assert load_bets(path) == [Bet(0.2, T), Bet(0.5, H), Bet(0.5, T)]

    def test_lowercase_tokens_accepted(self, tmp_path):
        path = tmp_path / "bets.csv"
        path.write_text("0.3,h\n0.7,t\n")
        assert load_bets(path) == [Bet(0.3, H), Bet(0.7, T)]


class TestAnalyze:
    def test_canonical_record(self, paradox_trace):
        report = analyze(paradox_trace)
        assert report.bet_count == 2
        assert report.flip_count == 1
        assert report.effective_events == 1
        assert report.wins == 2
        assert report.effective_wins == 1
        assert report.naive_compound == 0.25
        assert report.true_compound == 0.5
        assert report.naive_pvalue == 0.25
        assert report.corrected_pvalue == 0.5
        assert report.randomization is None

    def test_empty_record(self):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, H)], [])
        report = analyze(trace)
        assert report.bet_count == 0
        assert report.effective_events == 0
        assert report.naive_compound == 1.0
        assert report.true_compound == 1.0
        assert report.naive_pvalue == 1.0
        assert report.corrected_pvalue == 1.0

    def test_epoch_separated_winning_bets_agree(self, new_launch_trace):
        # brute force: of the 4 equally likely two-guess records a fair
        # guesser can produce, exactly 1 reproduces two wins out of two
        guesses = [
            sum(guess == actual for guess, actual in zip(combo, (H, T)))
            for combo in product((H, T), repeat=2)
        ]
        oracle = sum(w >= 2 for w in guesses) / len(guesses)
        report = analyze(new_launch_trace)
        assert report.naive_pvalue == report.corrected_pvalue == oracle == 0.25

    def test_conflicting_epoch_scores_zero_effective_wins(self):
        trace = make_trace(
            GameConfig(horizon=1.0), [Flip(0.0, H)], [Bet(0.3, H), Bet(0.7, T)]
        )
        report = analyze(trace)
        assert report.true_compound == 0.0
        assert report.effective_events == 1
        assert report.effective_wins == 0

    def test_losing_epoch_is_not_an_effective_win(self):
        trace = make_trace(
            GameConfig(horizon=1.0),
            [Flip(0.0, T), Flip(0.5, H)],
            [Bet(0.3, H), Bet(0.7, H)],
        )
        report = analyze(trace)
        assert report.effective_events == 2
        assert report.effective_wins == 1
        assert report.wins == 1

    def test_randomization_runs_per_bet_and_is_seeded(self, paradox_trace):
        options = AnalysisOptions(randomization_trials=300, seed=12)
        report = analyze(paradox_trace, options)
        again = analyze(paradox_trace, options)
        assert report == again
        assert len(report.randomization) == 2
        assert all(r.trials == 300 for r in report.randomization)
        assert report.randomization[1].change_fraction == 0.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"seed": -5},
            {"seed": 2**64},
            {"seed": True},
            {"randomization_trials": 0},
            {"randomization_trials": True},
            {"randomization_trials": 2.5},
        ],
    )
    def test_options_outside_their_domain_rejected(self, kwargs):
        with pytest.raises(ValidationError):
            AnalysisOptions(**kwargs)

    @given(traces())
    def test_deflation_inequality_on_clean_records(self, trace):
        report = analyze(trace)
        assert report.effective_events <= report.bet_count
        if report.wins == report.bet_count and report.effective_wins == report.effective_events:
            assert report.corrected_pvalue >= report.naive_pvalue

    @given(traces())
    def test_one_bet_per_epoch_makes_both_estimates_agree(self, trace):
        from flipbet import group_by_epoch

        grouping = group_by_epoch(trace)
        if all(len(ix) == 1 for ix in grouping.bets_per_epoch.values()):
            report = analyze(trace)
            assert report.naive_compound == report.true_compound


def _scan_epochs(trace):
    """Reference for the epoch table by plain linear scans, sharing no code
    with the package: governing flip index -> predictions, in flip order."""
    epochs: dict[int, list[Face]] = {}
    for bet in trace.bets:
        governing = 0
        for k, flip in enumerate(trace.flips):
            if flip.time <= bet.time:
                governing = k
        epochs.setdefault(governing, []).append(bet.prediction)
    return epochs


@given(traces(max_flips=6, max_bets=8))
def test_analyze_matches_linear_scan(trace):
    epochs = _scan_epochs(trace)
    bias = trace.config.coin_bias
    wins = 0
    compound = 1.0
    for k, predictions in epochs.items():
        if len(set(predictions)) > 1:
            compound = 0.0
            continue
        face = predictions[0]
        wins += face is trace.flips[k].outcome
        compound *= bias if face is H else 1.0 - bias
    report = analyze(trace)
    assert report.effective_events == len(epochs)
    assert report.effective_wins == wins
    assert report.true_compound == float(f"{compound:.12g}")


class TestRoundTrips:
    def test_report_json_round_trip(self, paradox_trace):
        report = analyze(paradox_trace, AnalysisOptions(randomization_trials=100, seed=2))
        assert report_from_json(report_to_json(report)) == report

    def test_trace_dict_round_trip(self, paradox_trace):
        assert trace_from_dict(trace_to_dict(paradox_trace)) == paradox_trace

    def test_tampered_trace_document_rejected(self, paradox_trace):
        doc = trace_to_dict(paradox_trace)
        doc["resolutions"] = [False, True]
        with pytest.raises(ValidationError):
            trace_from_dict(doc)

    def test_malformed_trace_document_rejected(self):
        with pytest.raises(ValidationError, match="malformed"):
            trace_from_dict({"config": {}})

    def test_invalid_config_in_a_trace_document_keeps_its_problems(self, paradox_trace):
        doc = trace_to_dict(paradox_trace)
        doc["config"]["horizon"] = -1.0
        with pytest.raises(ValidationError) as err:
            trace_from_dict(doc)
        assert err.value.problems == ("horizon must be a finite positive number, got -1.0",)

    @pytest.mark.parametrize("resolutions", [["yes", 0], [1, 1]])
    def test_resolutions_must_be_json_booleans(self, paradox_trace, resolutions):
        doc = trace_to_dict(paradox_trace)
        doc["resolutions"] = resolutions
        with pytest.raises(ValidationError, match="malformed trace document: resolutions"):
            trace_from_dict(doc)

    def test_numpy_seed_is_written_as_an_int(self):
        trace = make_trace(GameConfig(horizon=1.0, seed=np.uint64(3)), [Flip(0.0, H)], [])
        config = json.dumps(trace_to_dict(trace)["config"])
        assert config == '{"horizon": 1.0, "coin_bias": 0.5, "seed": 3}'

    @pytest.mark.parametrize("doc", [{}, {"randomization": 5}])
    def test_malformed_report_document_rejected(self, doc):
        with pytest.raises(ValidationError, match="malformed report document"):
            report_from_dict(doc)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("bet_count", "x"),
            ("wins", 2.5),
            ("effective_events", True),
            ("naive_compound", "0.5"),
            ("corrected_pvalue", False),
            ("randomization", [{"trials": True, "changed": True}]),
            ("randomization", [{"trials": 10, "changed": 2.5}]),
            ("bet_count", -3),
            ("naive_pvalue", 7.5),
        ],
    )
    def test_ill_typed_report_fields_rejected(self, paradox_trace, field, value):
        doc = report_to_dict(analyze(paradox_trace))
        doc[field] = value
        with pytest.raises(ValidationError, match="malformed report document: "):
            report_from_dict(doc)

    def test_trace_dict_keeps_integer_times_as_given(self):
        # Pinned from the per-record implementation: records given with int
        # times serialize as ints, so building records lazily from float
        # columns must not reach a trace built from records.
        trace = make_trace(
            GameConfig(horizon=3),
            [Flip(0, H), Flip(2, T)],
            [Bet(1, H), Bet(2, T), Bet(2.5, H)],
        )
        assert json.dumps(trace_to_dict(trace)) == (
            '{"config": {"horizon": 3, "coin_bias": 0.5, "seed": 0}, '
            '"flips": [{"time": 0, "outcome": "H"}, {"time": 2, "outcome": "T"}], '
            '"bets": [{"time": 1, "prediction": "H"}, {"time": 2, "prediction": "T"}, '
            '{"time": 2.5, "prediction": "H"}], "resolutions": [true, true, false]}'
        )

    def test_report_numbers_stay_within_12_significant_digits(self):
        trace = make_trace(
            GameConfig(horizon=1.0, coin_bias=0.6),
            [Flip(0.0, H)],
            [Bet(0.2, H), Bet(0.5, H), Bet(0.8, H)],
        )
        doc = report_to_dict(analyze(trace))
        for name in ("naive_compound", "true_compound", "naive_pvalue", "corrected_pvalue"):
            assert float(f"{doc[name]:.12g}") == doc[name]


def _indented_dump(trace) -> str:
    return json.dumps(trace_to_dict(trace), indent=2)


class TestTraceJson:
    """The column writer of ``flipbet simulate`` against the indented dump of
    :func:`trace_to_dict`, which stays the library's reference form."""

    @given(trace=traces(max_flips=6, max_bets=8))
    def test_record_built_trace(self, trace):
        assert _trace_json(trace) == _indented_dump(trace)

    @settings(deadline=None)
    @given(inputs=game_inputs(max_flips=6, max_bets=8), cached=st.booleans())
    def test_column_built_trace(self, inputs, cached):
        trace = simulate_game(*inputs)
        if cached:
            trace.flips, trace.bets  # records built from the columns and cached
        assert _trace_json(trace) == _indented_dump(trace)

    def test_config_as_given_and_times_from_columns(self):
        # The writer reads the trace's float time columns, so int times come
        # out as floats; trace_to_dict keeps them as given
        # (test_trace_dict_keeps_integer_times_as_given).
        config = GameConfig(horizon=3, coin_bias=1, seed=np.uint64(7))
        trace = make_trace(config, [Flip(0, H), Flip(2.0, H)], [Bet(1, H), Bet(2, T), Bet(2.5, H)])
        text = _trace_json(trace)
        float_times = make_trace(
            config, [Flip(0.0, H), Flip(2.0, H)], [Bet(1.0, H), Bet(2.0, T), Bet(2.5, H)]
        )
        assert text == _indented_dump(float_times)
        assert '"horizon": 3,' in text and '"coin_bias": 1,' in text

    def test_no_bets_is_an_empty_list(self):
        trace = simulate_game(GameConfig(horizon=1.0, seed=4), [0.0, 0.5], [])
        text = _trace_json(trace)
        assert text == _indented_dump(trace)
        assert '"bets": [],\n  "resolutions": []\n}' in text
