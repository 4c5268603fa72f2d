"""CSV ingestion, the analysis pipeline, and JSON round trips."""

from __future__ import annotations

import dataclasses
import json
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flipbet import (
    AnalysisOptions,
    AnalysisReport,
    Bet,
    CsvFormatError,
    Face,
    Flip,
    GameConfig,
    RandomizationResult,
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
from conftest import faces, game_inputs, text_report, traces
from flipbet import report as report_module
from flipbet.game import GameTrace, _Columns, simulate_game
from flipbet.report import _report_json, _report_text, _trace_json

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

    def test_read_back_results_are_unshared_and_write_the_same_bytes(self, monkeypatch):
        # analyze shares one frozen result per distinct count; a report read
        # back holds one object per bet, and both write the same bytes. The
        # writer keys results by value, so either writes each count once.
        flips = [Flip(0.0, H), Flip(1.0, T), Flip(2.0, H), Flip(3.0, T)]
        bets = [Bet(t, H) for t in (0.5, 0.6, 1.5, 1.6, 2.5, 3.5, 3.6)]
        trace = make_trace(GameConfig(horizon=4.0), flips, bets)
        report = analyze(trace, AnalysisOptions(randomization_trials=50, seed=8))
        back = report_from_json(report_to_json(report))
        assert back == report
        assert len(set(map(id, report.randomization))) == len(set(report.randomization)) == 4
        assert len(set(map(id, back.randomization))) == 7
        assert report_to_json(back) == report_to_json(report)
        assert "".join(_report_text(back)) == "".join(_report_text(report))
        written = []
        write = report_module._randomization_json
        monkeypatch.setattr(report_module, "_randomization_json", lambda r: written.append(r) or write(r))
        report_to_json(back)
        assert len(written) == 4 and set(written) == set(back.randomization)

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

    @pytest.mark.parametrize(
        "text", ["{", "", "[" * 100_000, 5], ids=["unclosed", "empty", "deep", "not text"]
    )
    def test_a_document_that_does_not_parse_is_rejected(self, text):
        with pytest.raises(ValidationError, match="^malformed report document: "):
            report_from_json(text)

    @pytest.mark.parametrize("field", ["outcome", "prediction"])
    def test_a_bad_face_token_is_quoted(self, paradox_trace, field):
        doc = trace_to_dict(paradox_trace)
        doc["flips" if field == "outcome" else "bets"][0][field] = "X"
        with pytest.raises(ValidationError) as err:
            trace_from_dict(doc)
        assert str(err.value) == "malformed trace document: 'X' is not a valid Face"

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
            ("randomization", [{"trials": 10**30, "changed": 5}]),  # past int64
            ("bet_count", -3),
            ("naive_pvalue", 7.5),
        ],
    )
    def test_ill_typed_report_fields_rejected(self, paradox_trace, field, value):
        doc = report_to_dict(analyze(paradox_trace))
        doc[field] = value
        with pytest.raises(ValidationError, match="malformed report document: "):
            report_from_dict(doc)
        with pytest.raises(ValidationError, match="malformed report document: "):
            report_from_json(json.dumps(doc))

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
        assert "".join(_trace_json(trace)) == _indented_dump(trace)

    @settings(deadline=None)
    @given(inputs=game_inputs(max_flips=6, max_bets=8), cached=st.booleans())
    def test_column_built_trace(self, inputs, cached):
        trace = simulate_game(*inputs)
        if cached:
            trace.flips, trace.bets  # records built from the columns and cached
        assert "".join(_trace_json(trace)) == _indented_dump(trace)

    @pytest.mark.parametrize(
        "config,written",
        [
            (GameConfig(horizon=3, coin_bias=1, seed=np.uint64(7)), ["3", "1", "7"]),
            (
                GameConfig(horizon=1e16, coin_bias=np.float64(0.6), seed=2**64 - 1),
                ["1e+16", "0.6", "18446744073709551615"],
            ),
        ],
        ids=["int-scalars", "large-scalars"],
    )
    def test_config_as_given_and_times_from_columns(self, config, written):
        # The writer reads the trace's float time columns, so int times come
        # out as floats; trace_to_dict keeps them as given
        # (test_trace_dict_keeps_integer_times_as_given).
        trace = make_trace(config, [Flip(0, H), Flip(2.0, H)], [Bet(1, H), Bet(2, T), Bet(2.5, H)])
        text = "".join(_trace_json(trace))
        float_times = make_trace(
            config, [Flip(0.0, H), Flip(2.0, H)], [Bet(1.0, H), Bet(2.0, T), Bet(2.5, H)]
        )
        assert text == _indented_dump(float_times)
        horizon, coin_bias, seed = written
        assert f'"horizon": {horizon},\n    "coin_bias": {coin_bias},\n    "seed": {seed}\n' in text

    def test_no_bets_is_an_empty_list(self):
        trace = simulate_game(GameConfig(horizon=1.0, seed=4), [0.0, 0.5], [])
        text = "".join(_trace_json(trace))
        assert text == _indented_dump(trace)
        assert '"bets": [],\n  "resolutions": []\n}' in text

    def test_times_written_with_an_exponent(self):
        # float.__repr__ switches to an exponent below 1e-4 and from 1e16 on,
        # as the JSON encoder does; 5e-324 is the smallest subnormal.
        config = GameConfig(horizon=1e16)
        trace = make_trace(
            config, [Flip(0.0, H), Flip(5e-324, T), Flip(1e-07, H)],
            [Bet(5e-324, T), Bet(1e-07, T), Bet(1e16, H)],
        )
        text = "".join(_trace_json(trace))
        assert text == _indented_dump(trace)
        assert '"time": 5e-324,' in text and '"time": 1e-07,' in text and '"time": 1e+16,' in text

    @pytest.mark.parametrize("face", [H, T])
    def test_a_single_row_takes_its_own_closing(self, face):
        trace = make_trace(GameConfig(horizon=1.0), [Flip(0.0, face)], [Bet(0.5, face)])
        text = "".join(_trace_json(trace))
        assert text == _indented_dump(trace)
        assert f'"prediction": "{face.token}"\n    }}\n  ],' in text

    def test_column_built_trace_of_ten_thousand_bets(self):
        rng = np.random.default_rng(14)
        flips = [0.0, *np.sort(rng.uniform(0.0, 1000.0, 300)).tolist()]
        bet_times = np.sort(rng.uniform(0.0, 1000.0, 10_000)).tolist()
        bets = [Bet(t, H if heads else T) for t, heads in zip(bet_times, rng.random(10_000) < 0.5)]
        trace = simulate_game(GameConfig(horizon=1000.0, coin_bias=0.6, seed=14), flips, bets)
        assert "".join(_trace_json(trace)) == _indented_dump(trace)


# Times for the writer's block edges. Of the integral ones, -0.0 keeps its
# sign, and 2**53 and up fall outside the digits rule (1e16 takes an
# exponent); 5e-324 and 1e-07 take an exponent too.
SMALL_TIMES = [0.0, -0.0, 5e-324, 1e-07]
LARGE_TIMES = [float(2**53 - 1), float(2**53), float(2**53 + 2), 1e15, 1e16]


@st.composite
def blocked_times(draw, rows: int, block: int) -> list[float]:
    """Sorted times whose blocks of ``block`` rows are each all integral, all
    fractional or mixed. Block k draws from ``[k * 2**20, (k + 1) * 2**20)``,
    the first block also from the small edge times, and the last from the
    large ones."""
    times: list[float] = []
    starts = range(0, rows, block)
    for k, start in enumerate(starts):
        integral = st.integers(k << 20, ((k + 1) << 20) - 1).map(float)
        fractional = st.floats(k << 20, (k + 1) << 20, exclude_max=True).filter(lambda t: t % 1)
        edges = (SMALL_TIMES if k == 0 else []) + (LARGE_TIMES if k == len(starts) - 1 else [])
        if whole := [t for t in edges if t % 1 == 0]:
            integral |= st.sampled_from(whole)
        if parts := [t for t in edges if t % 1]:
            fractional |= st.sampled_from(parts)
        kind = draw(st.sampled_from([[integral], [fractional], [integral, fractional]]))
        # A mixed block holds both kinds: its rows take each in turn.
        drawn = [draw(kind[i % len(kind)]) for i in range(min(block, rows - start))]
        times += sorted(drawn)
    return times


@settings(deadline=None)
@given(data=st.data(), block=st.sampled_from([1, 2, 3, 5]))
def test_written_blocks_join_to_the_indented_dump(data, block):
    rows = data.draw(st.sampled_from([0, 1, block - 1, block, block + 1, 2 * block - 1,
                                      2 * block, 2 * block + 1, 3 * block + 1]))
    times = data.draw(blocked_times(rows, block))
    flip_times = sorted({0.0, *times})  # -0.0 == 0.0, so one of them opens the game
    flips = [Flip(t, data.draw(faces)) for t in flip_times]
    bets = [Bet(t, data.draw(faces)) for t in times]
    trace = make_trace(GameConfig(horizon=max([1.0, *times])), flips, bets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "_WRITE_ROWS", block)
        assert "".join(_trace_json(trace)) == _indented_dump(trace)


# 0 and 9, 10 and 99, ..., 10**15 and 2**53 - 1: two integral times of each
# digit count from 1 to 16, the last below 2**53.
EVERY_WIDTH = [0.0, *(float(10**k + d) for k in range(1, 16) for d in (-1, 0)), float(2**53 - 1)]


@pytest.mark.parametrize("block", [4096, 3])
def test_integral_times_of_every_width_in_one_block(block):
    # The flips take the faces in turn, so each width's pair shows both; each
    # bet time holds one bet on each face.
    flips = [Flip(t, (H, T)[i % 2]) for i, t in enumerate(EVERY_WIDTH)]
    bets = [Bet(t, face) for t in EVERY_WIDTH for face in (H, T)]
    trace = make_trace(GameConfig(horizon=EVERY_WIDTH[-1]), flips, bets)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "_WRITE_ROWS", block)
        text = "".join(_trace_json(trace))
    assert text == _indented_dump(trace)
    assert '"time": 9007199254740991.0,\n      "outcome": "T"\n    }\n  ],' in text
    assert '"time": 1000000000000000.0,\n      "prediction": "T"' in text


@pytest.mark.parametrize("integral", [True, False])
def test_writing_a_trace_peaks_below_a_bound_independent_of_its_rows(tmp_path, integral):
    # A writer that builds the whole 14.9 MB document peaks at 33.7 MiB on
    # this trace. Writing in blocks of 4096 rows peaks at about 0.8 MiB for
    # integral times and 0.9 MiB for fractional ones, at 2 x 10^4 rows as at
    # 10^6; the bound leaves room for a block twice as large.
    rows = 200_000
    rng = np.random.default_rng(15)
    bet_times = np.sort(rng.integers(0, 10**6, rows)).astype(float)
    if not integral:
        bet_times = np.sort(rng.uniform(0.0, 1e6, rows))
    flips = _Columns(np.arange(0.0, 1e6, 100.0), rng.random(10_000) < 0.5)
    trace = GameTrace._from_columns(
        GameConfig(horizon=1e6, coin_bias=0.6), flips, _Columns(bet_times, rng.random(rows) < 0.5)
    )
    path = tmp_path / "trace.json"
    tracemalloc.start()
    try:
        with path.open("w", encoding="utf-8") as out:
            out.writelines(_trace_json(trace))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert path.stat().st_size > 14_000_000


@pytest.mark.parametrize("bets", [0, 1, 2, 3, 4, 6, 7])
def test_randomization_list_across_piece_boundaries(bets):
    # Pieces of 3 entries: the list ends inside, at and just past a piece.
    # The read-back report shares no result, and the last one's trial
    # counts differ, so entries are keyed by both counts; each distinct
    # entry is written once, whichever pieces it recurs in.
    flips = [Flip(float(t), (H, T)[t % 2]) for t in range(4)]
    bet_list = [Bet(0.55 * (i + 1), (H, T)[i % 3 == 0]) for i in range(bets)]
    report = analyze(make_trace(GameConfig(horizon=4.0), flips, bet_list),
                     AnalysisOptions(randomization_trials=20, seed=4))
    mixed = tuple(RandomizationResult(20 + i % 2, i % 3) for i in range(bets))
    reports = [report, report_from_json(report_to_json(report)),
               dataclasses.replace(report, randomization=mixed)]
    write, written = report_module._randomization_json, []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(report_module, "_WRITE_ROWS", 3)
        patch.setattr(report_module, "_randomization_json", lambda r: written.append(r) or write(r))
        for r in reports:
            written.clear()
            assert "".join(_report_json(r)) == json.dumps(report_to_dict(r), indent=2)
            assert len(written) == len(set(r.randomization))
            assert "".join(_report_text(r)) == text_report(r)


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_writing_a_randomized_report_peaks_below_a_bound_independent_of_its_entries(tmp_path, fmt):
    # 2 x 10^5 entries over 50 distinct counts, one shared result per count
    # as analyze shares them. A writer that builds the whole 16 MB json
    # document peaks at about 32 MiB; keying and writing 4096 entries at a
    # time peaks at about 0.95 MiB in either format.
    shared = [RandomizationResult(100, changed) for changed in range(0, 100, 2)]
    picks = np.random.default_rng(16).integers(0, len(shared), 200_000)
    results = tuple(map(shared.__getitem__, picks.tolist()))
    report = AnalysisReport(200_000, 10_000, 9_000, 100_000, 4_500, 0.0, 0.0, 0.5, 0.5, results)
    pieces = _report_json(report) if fmt == "json" else _report_text(report)
    path = tmp_path / f"report.{fmt}"
    tracemalloc.start()
    try:
        with path.open("w", encoding="utf-8") as out:
            out.writelines(pieces)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    assert path.stat().st_size > 12_000_000
