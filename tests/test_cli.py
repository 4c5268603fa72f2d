"""Command-line interface: golden outputs and exit codes."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

import flipbet
from flipbet import (
    AnalysisReport,
    GameConfig,
    analyze,
    load_bets,
    load_flips,
    make_trace,
    report_to_dict,
)
from flipbet import cli
from flipbet.cli import main
from conftest import reference_randomization, text_report

PARADOX_FLIPS = "0.0,H\n"
PARADOX_BETS = "0.3,H\n0.7,H\n"

# Epoch 0 holds a conflicting pair, a bet sits exactly on the flip at 2,
# the epoch opened at 4 is empty, and the last bet, after the last flip, loses.
PINNED_FLIPS = "time,outcome\n0,H\n2,T\n4,H\n6,T\n8,H\n"
PINNED_BETS = "0.5,H\n1.5,T\n2,T\n3,T\n6.5,T\n7,T\n9,T\n"
PINNED_JSON = """\
{
  "bet_count": 7,
  "flip_count": 5,
  "effective_events": 4,
  "wins": 5,
  "effective_wins": 2,
  "naive_compound": 0.0078125,
  "true_compound": 0.0,
  "naive_pvalue": 0.2265625,
  "corrected_pvalue": 0.6875,
  "randomization": [
    {
      "trials": 50,
      "changed": 0,
      "change_fraction": 0.0
    },
    {
      "trials": 50,
      "changed": 0,
      "change_fraction": 0.0
    },
    {
      "trials": 50,
      "changed": 50,
      "change_fraction": 1.0
    },
    {
      "trials": 50,
      "changed": 0,
      "change_fraction": 0.0
    },
    {
      "trials": 50,
      "changed": 32,
      "change_fraction": 0.64
    },
    {
      "trials": 50,
      "changed": 0,
      "change_fraction": 0.0
    },
    {
      "trials": 50,
      "changed": 29,
      "change_fraction": 0.58
    }
  ]
}
"""
PINNED_TEXT = """\
bets: 7 (wins: 5)
flips: 5
effective events: 4 (effective wins: 2)
naive compound probability: 0.0078125
true compound probability: 0
naive p-value: 0.2265625
corrected p-value: 0.6875
bet 0: outcome changed in 0 of 50 re-placements (fraction 0)
bet 1: outcome changed in 0 of 50 re-placements (fraction 0)
bet 2: outcome changed in 50 of 50 re-placements (fraction 1)
bet 3: outcome changed in 0 of 50 re-placements (fraction 0)
bet 4: outcome changed in 32 of 50 re-placements (fraction 0.64)
bet 5: outcome changed in 0 of 50 re-placements (fraction 0)
bet 6: outcome changed in 29 of 50 re-placements (fraction 0.58)
"""


def _seeded_logs(seed: int, n_flips: int, n_bets: int, conflict: bool) -> tuple[str, str]:
    """Flip and bet CSV text: a flip every 10 time units, bets at quarter
    units, every occupied epoch bet on one face drawn for it; with
    ``conflict``, the last bet takes the other face."""
    rng = random.Random(seed)
    flips = ["time,outcome"] + [f"{10 * k},{rng.choice('HT')}" for k in range(n_flips)]
    faces: dict[int, str] = {}
    bets = []
    for t in sorted(rng.randrange(40 * n_flips) / 4 for _ in range(n_bets)):
        bets.append([t, faces.setdefault(int(t // 10), rng.choice("HT"))])
    if conflict:
        bets[-1][1] = "T" if bets[-1][1] == "H" else "H"
    return "\n".join(flips) + "\n", "".join(f"{t!r},{face}\n" for t, face in bets)


# Pinned from the per-record implementation. Case "bulk": 10^4 bets with one
# conflicting epoch, so true_compound is 0. Case "underflow": a naive
# product whose exact value lies below half the smallest subnormal, so it
# rounds to 0.0.
SEEDED_CASES = {"bulk": (11, 1000, 10_000, True), "underflow": (12, 100, 1040, False)}
SEEDED_OUTPUT = {
    ("bulk", "json"): '{\n  "bet_count": 10000,\n  "flip_count": 1000,\n  "effective_events": 1000,\n  "wins": 5044,\n  "effective_wins": 507,\n  "naive_compound": 0.0,\n  "true_compound": 0.0,\n  "naive_pvalue": 0.192150683967,\n  "corrected_pvalue": 0.340511491638,\n  "randomization": null\n}\n',
    ("bulk", "text"): "bets: 10000 (wins: 5044)\nflips: 1000\neffective events: 1000 (effective wins: 507)\nnaive compound probability: 0\ntrue compound probability: 0\nnaive p-value: 0.192150683967\ncorrected p-value: 0.340511491638\n",
    ("underflow", "json"): '{\n  "bet_count": 1040,\n  "flip_count": 100,\n  "effective_events": 100,\n  "wins": 596,\n  "effective_wins": 56,\n  "naive_compound": 0.0,\n  "true_compound": 3.03590591565e-32,\n  "naive_pvalue": 1.3645436145e-06,\n  "corrected_pvalue": 0.135626512037,\n  "randomization": null\n}\n',
    ("underflow", "text"): "bets: 1040 (wins: 596)\nflips: 100\neffective events: 100 (effective wins: 56)\nnaive compound probability: 0\ntrue compound probability: 3.03590591565e-32\nnaive p-value: 1.3645436145e-06\ncorrected p-value: 0.135626512037\n",
}


@pytest.fixture
def paradox_files(tmp_path):
    flips = tmp_path / "flips.csv"
    bets = tmp_path / "bets.csv"
    flips.write_text(PARADOX_FLIPS)
    bets.write_text(PARADOX_BETS)
    return flips, bets


class TestSimulate:
    def test_trace_json_is_deterministic(self, paradox_files, capsys):
        _, bets = paradox_files
        argv = [
            "simulate",
            "--horizon", "1",
            "--flip-times", "0",
            "--bias", "0.5",
            "--seed", "7",
            "--bets", str(bets),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first
        doc = json.loads(first)
        assert doc["flips"] == [{"time": 0.0, "outcome": "T"}]
        assert doc["resolutions"] == [False, False]

    def test_out_file(self, paradox_files, tmp_path, capsys):
        _, bets = paradox_files
        out = tmp_path / "trace.json"
        code = main(
            ["simulate", "--horizon", "1", "--flip-times", "0,0.5",
             "--seed", "3", "--bets", str(bets), "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        doc = json.loads(out.read_text())
        assert [f["time"] for f in doc["flips"]] == [0.0, 0.5]

    def test_out_file_bytes_are_pinned(self, tmp_path):
        # Pinned from the per-record implementation (indented json.dumps of
        # trace_to_dict): 50 flips, a seeded 2000-bet log with a header.
        _, bet_text = _seeded_logs(13, 50, 2000, False)
        bets, out = tmp_path / "bets.csv", tmp_path / "trace.json"
        bets.write_text("time,prediction\n" + bet_text)
        flip_times = ",".join(str(10 * k) for k in range(50))
        argv = ["simulate", "--horizon", "500", "--flip-times", flip_times, "--bias", "0.6",
                "--seed", "13", "--bets", str(bets), "--out", str(out)]
        assert main(argv) == 0
        data = out.read_bytes()
        assert data.startswith(b'{\n  "config": {\n    "horizon": 500.0,\n    "coin_bias": 0.6,\n')
        assert len(data) == 140206
        assert hashlib.sha256(data).hexdigest() == (
            "e70ccefdb7af2fba6d862f1134be097b56fd7bb0970c1645091170801a7100f5"
        )

    # Length and sha256 of the trace file, pinned from the writer that made
    # one Python string per row.
    BENCH_SCALE_TRACES = {
        21: (14856975, "4d9e75f860d463ff01a221052b5cbb87114172a2cc91de09f100b50884928fc1"),
        22: (14856933, "07537ce27e5bc83f103d92daefb5ad7c1014d13a63a305fd7cb00fab47bccf4d"),
    }

    @pytest.mark.parametrize("seed", sorted(BENCH_SCALE_TRACES))
    def test_out_file_bytes_are_pinned_at_benchmark_scale(self, tmp_path, seed):
        # 10^4 flips at distinct integer times below 10^6 and 2x10^5 sorted
        # integer bets with random faces: times of 1 to 7 digits, so the
        # blocks hold runs of several widths and the bets repeat times.
        rng = np.random.default_rng(seed)
        horizon = 1_000_000
        later = np.sort(rng.choice(horizon - 1, 9_999, replace=False)) + 1
        flip_times = np.concatenate(([0], later))
        bet_times = np.sort(rng.integers(0, horizon + 1, 200_000))
        faces = np.where(rng.random(200_000) < 0.5, "H", "T")
        bets, out = tmp_path / "bets.csv", tmp_path / "trace.json"
        bets.write_text("".join(map("{},{}\n".format, bet_times.tolist(), faces.tolist())))
        argv = ["simulate", "--horizon", str(horizon), "--flip-times",
                ",".join(map(str, flip_times.tolist())), "--bias", "0.6", "--seed", str(seed),
                "--bets", str(bets), "--out", str(out)]
        assert main(argv) == 0
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == self.BENCH_SCALE_TRACES[seed]

    def test_stdout_equals_the_out_file(self, tmp_path, capsys):
        _, bet_text = _seeded_logs(14, 30, 500, False)
        bets, out = tmp_path / "bets.csv", tmp_path / "trace.json"
        bets.write_text(bet_text)
        flip_times = ",".join(str(10 * k) for k in range(30))
        argv = ["simulate", "--horizon", "300", "--flip-times", flip_times, "--seed", "14",
                "--bets", str(bets)]
        assert main(argv) == 0
        printed = capsys.readouterr().out
        assert main([*argv, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode()

    def test_arguments_from_a_file_write_the_bytes_of_the_same_arguments_inline(self, tmp_path):
        # 25,000 flips make a --flip-times of 163,888 bytes, past the 128 KiB
        # that Linux allows one argument of a command line.
        _, bet_text = _seeded_logs(16, 25_000, 3000, False)
        bets, args = tmp_path / "bets.csv", tmp_path / "args"
        bets.write_text(bet_text)
        flip_times = ",".join(str(10 * k) for k in range(25_000))
        assert len(flip_times) > 128 << 10
        args.write_text(f"--horizon\n250000\n--flip-times\n{flip_times}\n--seed\n16\n")
        inline, from_file = tmp_path / "inline.json", tmp_path / "from_file.json"
        argv = ["--horizon", "250000", "--flip-times", flip_times, "--seed", "16"]
        assert main(["simulate", *argv, "--bets", str(bets), "--out", str(inline)]) == 0
        assert main(["simulate", f"@{args}", "--bets", str(bets), "--out", str(from_file)]) == 0
        assert from_file.read_bytes() == inline.read_bytes()

    def test_a_path_that_starts_with_an_at_sign_is_given_as_dot_slash(
        self, paradox_files, tmp_path, monkeypatch, capsys
    ):
        _, bets = paradox_files
        monkeypatch.chdir(tmp_path)
        Path("@bets.csv").write_bytes(bets.read_bytes())
        argv = ["simulate", "--horizon", "1", "--flip-times", "0", "--seed", "7", "--bets"]
        assert main([*argv, str(bets)]) == 0
        expected = capsys.readouterr().out
        assert main([*argv, "./@bets.csv"]) == 0
        assert capsys.readouterr().out == expected
        # Unescaped, the path names a file of arguments: its first row is
        # taken as the --bets path and its second as a stray argument.
        with pytest.raises(SystemExit) as err:
            main([*argv, "@bets.csv"])
        assert err.value.code == 2
        assert capsys.readouterr().err.endswith("error: unrecognized arguments: 0.7,H\n")

    def test_missing_horizon_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--flip-times", "0"])
        assert err.value.code == 2

    def test_negative_seed_is_usage_error(self, capsys):
        assert main(["simulate", "--horizon", "1", "--flip-times", "0", "--seed", "-5"]) == 2
        err = capsys.readouterr().err
        assert err == "error: seed must be a 64-bit unsigned integer, got -5\n"

    def test_duplicate_flip_times_diagnosed(self, capsys):
        code = main(["simulate", "--horizon", "1", "--flip-times", "0,0"])
        assert code == 2
        assert "strictly increasing" in capsys.readouterr().err

    def test_unparseable_flip_times_is_usage_error(self):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--horizon", "1", "--flip-times", "0,x"])
        assert err.value.code == 2


class TestAnalyze:
    def test_paradox_report(self, paradox_files, capsys):
        flips, bets = paradox_files
        assert main(["analyze", "--flips", str(flips), "--bets", str(bets)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["naive_compound"] == 0.25
        assert doc["true_compound"] == 0.5
        assert doc["naive_pvalue"] == 0.25
        assert doc["corrected_pvalue"] == 0.5
        assert doc["randomization"] is None

    def test_randomize_flag(self, paradox_files, capsys):
        flips, bets = paradox_files
        code = main(
            ["analyze", "--flips", str(flips), "--bets", str(bets),
             "--randomize", "1000", "--seed", "4"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["randomization"][1] == {
            "trials": 1000,
            "changed": 0,
            "change_fraction": 0.0,
        }

    def test_conflicting_bets_zero_true_compound(self, tmp_path, capsys):
        flips = tmp_path / "flips.csv"
        bets = tmp_path / "bets.csv"
        flips.write_text("0.0,H\n")
        bets.write_text("0.3,H\n0.7,T\n")
        assert main(["analyze", "--flips", str(flips), "--bets", str(bets)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["true_compound"] == 0.0

    def test_text_format(self, paradox_files, capsys):
        flips, bets = paradox_files
        assert main(["analyze", "--flips", str(flips), "--bets", str(bets),
                     "--format", "text"]) == 0
        out = capsys.readouterr().out
        assert "naive compound probability: 0.25" in out
        assert "true compound probability: 0.5" in out

    def test_missing_file_exit_2(self, tmp_path, capsys):
        code = main(
            ["analyze", "--flips", str(tmp_path / "none.csv"), "--bets", str(tmp_path / "none.csv")]
        )
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_csv_error_exit_2(self, tmp_path, capsys):
        flips = tmp_path / "flips.csv"
        bets = tmp_path / "bets.csv"
        flips.write_text("0.0,H\n0.0,T\n")
        bets.write_text("0.3,H\n")
        code = main(["analyze", "--flips", str(flips), "--bets", str(bets)])
        assert code == 2
        assert "duplicate flip time" in capsys.readouterr().err

    def test_field_over_the_csv_limit_exit_2(self, tmp_path, capsys):
        flips = tmp_path / "flips.csv"
        bets = tmp_path / "bets.csv"
        flips.write_text("0,H\n")
        bets.write_text("0,H\n " + "0" * 200_000 + "1,T\n")
        code = main(["analyze", "--flips", str(flips), "--bets", str(bets)])
        assert code == 2
        assert capsys.readouterr().err == f"error: {bets}:2: field larger than field limit (131072)\n"

    @pytest.mark.parametrize("row", ["1," + "H" * 100_000, "x" * 100_000 + ",T"], ids=["face", "time"])
    def test_long_token_error_is_one_short_line(self, tmp_path, capsys, row):
        flips = tmp_path / "flips.csv"
        bets = tmp_path / "bets.csv"
        flips.write_text("0,H\n")
        bets.write_text(f"0,H\n{row}\n")
        code = main(["analyze", "--flips", str(flips), "--bets", str(bets)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {bets}:2: ") and err.count("\n") == 1
        assert len(err.encode()) < 300

    @pytest.mark.parametrize("fmt,expected", [("json", PINNED_JSON), ("text", PINNED_TEXT)])
    def test_report_bytes_are_pinned(self, tmp_path, capsys, fmt, expected):
        flips = tmp_path / "flips.csv"
        bets = tmp_path / "bets.csv"
        flips.write_text(PINNED_FLIPS)
        bets.write_text(PINNED_BETS)
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets),
                "--randomize", "50", "--seed", "3", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected


    @pytest.mark.parametrize("case,fmt", sorted(SEEDED_OUTPUT))
    def test_seeded_log_bytes_are_pinned(self, tmp_path, capsys, case, fmt):
        flip_text, bet_text = _seeded_logs(*SEEDED_CASES[case])
        flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
        flips.write_text(flip_text)
        bets.write_text(bet_text)
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--bias", "0.6", "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == SEEDED_OUTPUT[case, fmt]

    def test_underflow_case_rounds_to_zero(self):
        _, bet_text = _seeded_logs(*SEEDED_CASES["underflow"])
        heads = sum(row.endswith("H") for row in bet_text.split())
        assert (heads, 1040 - heads) == (500, 540)
        with mpmath.workprec(300):
            exact = mpmath.mpf(0.6) ** 500 * mpmath.mpf(1.0 - 0.6) ** 540
            assert mpmath.nstr(exact, 5) == "1.5418e-326"
            assert exact < mpmath.ldexp(1, -1075)

    def test_a_winning_run_below_the_subnormals_prints_zero(self, tmp_path, capsys):
        """3000 epochs, each with one winning heads bet, at bias 0.7: both
        products are 0.7**3000, about 2**-1543.7, which rounds to 0.0."""
        flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
        flips.write_text("".join(f"{i},H\n" for i in range(3000)))
        bets.write_text("".join(f"{i}.5,H\n" for i in range(3000)))
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--bias", "0.7"]
        assert main(argv) == 0
        doc = json.loads(capsys.readouterr().out)
        assert (doc["effective_events"], doc["effective_wins"]) == (3000, 3000)
        assert (doc["naive_compound"], doc["true_compound"]) == (0.0, 0.0)

    @pytest.mark.parametrize("seed", ["-5", str(2**64)])
    def test_seed_outside_64_bits_is_usage_error(self, paradox_files, capsys, seed):
        flips, bets = paradox_files
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--randomize", "5", "--seed", seed]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: seed must be a 64-bit unsigned integer, got {seed}\n"

    def test_zero_randomization_trials_is_usage_error(self, paradox_files, capsys):
        flips, bets = paradox_files
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--randomize", "0"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == "error: randomization_trials must be None or an integer >= 1, got 0\n"

    def test_trials_past_int64_is_usage_error(self, paradox_files, capsys):
        flips, bets = paradox_files
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets),
                "--randomize", str(2**63)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: randomization_trials must be at most 2**63 - 1, got {2**63}\n"

    def test_largest_trial_count_needs_no_draw_where_no_flip_intervenes(self, tmp_path, capsys):
        # One flip governs every re-placement, so no count needs a draw,
        # however many trials are asked for.
        flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
        flips.write_text("0,H\n")
        bets.write_text("0.2,H\n0.6,T\n")
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--horizon", "1",
                "--randomize", str(2**63 - 1), "--format", "text"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        for bet in (0, 1):
            assert f"bet {bet}: outcome changed in 0 of {2**63 - 1} re-placements" in out


def _bulk_shaped_logs(tmp_path: Path, n_flips: int, n_bets: int) -> tuple[Path, Path]:
    """Logs shaped like the benchmark's analyze_bulk: flips and bets uniform
    on an integer clock, every bet of an epoch on one face drawn for it."""
    rng = np.random.default_rng(20)
    horizon = 10_000 * n_flips
    flip_times = np.concatenate(([0], np.sort(rng.choice(horizon - 1, n_flips - 1, False)) + 1))
    bet_times = np.sort(rng.integers(0, horizon + 1, n_bets))
    bet_faces = rng.choice(list("HT"), n_flips)[np.searchsorted(flip_times, bet_times, "right") - 1]
    flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
    flip_rows = map("{},{}\n".format, flip_times.tolist(), rng.choice(list("HT"), n_flips))
    flips.write_text("time,outcome\n" + "".join(flip_rows))
    bets.write_text("".join(map("{},{}\n".format, bet_times.tolist(), bet_faces)))
    return flips, bets


def _per_bet_report(flips: Path, bets: Path, trials: int, seed: int) -> AnalysisReport:
    """The report with each bet's randomization test recomputed by the reference."""
    flip_records, bet_records = load_flips(flips), load_bets(bets)
    horizon = max(flip_records[-1].time, bet_records[-1].time if bet_records else 0.0) or 1.0
    trace = make_trace(GameConfig(horizon=horizon), flip_records, bet_records)
    results = reference_randomization(trace, trials, seed)
    return dataclasses.replace(analyze(trace), randomization=results)


class TestRandomizedReportBytes:
    """``analyze --randomize`` tests every bet at once; its bytes must equal
    those of the reference's tests, encoded by json.dumps."""

    TRIALS, SEED = 20, 2**64 - 1

    @pytest.fixture(scope="class")
    def bulk(self, tmp_path_factory):
        flips, bets = _bulk_shaped_logs(tmp_path_factory.mktemp("bulk"), 2_000, 20_000)
        return flips, bets, _per_bet_report(flips, bets, self.TRIALS, self.SEED)

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_bulk_shaped_log(self, bulk, capsys, fmt):
        flips, bets, report = bulk
        assert report.bet_count == 20_000
        assert 0 < sum(r.changed > 0 for r in report.randomization) < 20_000
        expected = json.dumps(report_to_dict(report), indent=2) + "\n"
        if fmt == "text":
            expected = text_report(report)
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets),
                "--randomize", str(self.TRIALS), "--seed", str(self.SEED), "--format", fmt]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected

    def test_empty_bet_log(self, tmp_path, capsys):
        flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
        flips.write_text("0,H\n")
        bets.write_text("")
        argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--randomize", "5"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        expected = report_to_dict(_per_bet_report(flips, bets, 5, 0))
        assert out == json.dumps(expected, indent=2) + "\n"
        assert json.loads(out)["randomization"] == []


class TestSignificance:
    @pytest.mark.parametrize(
        "n,expected",
        [("10", "0.1662386176"), ("100", "0.0167616865032")],
    )
    def test_losing_probability_output(self, capsys, n, expected):
        assert main(["significance", "--n", n, "--p", "0.6"]) == 0
        assert capsys.readouterr().out.strip() == expected

    def test_reproduction_pvalue_output(self, capsys):
        assert main(["significance", "--wins", "1", "--effective", "1"]) == 0
        assert capsys.readouterr().out.strip() == "0.5"

    def test_mixed_flag_groups_rejected(self, capsys):
        assert main(["significance", "--n", "10", "--wins", "1"]) == 2
        assert main(["significance"]) == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["--n", "10"], "--n and --p must be given together"),
            (["--wins", "1"], "--wins and --effective must be given together"),
        ],
        ids=["n-alone", "wins-alone"],
    )
    def test_half_a_flag_pair_rejected(self, capsys, argv, message):
        assert main(["significance", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_domain_error_exit_2(self, capsys):
        assert main(["significance", "--wins", "3", "--effective", "2"]) == 2
        assert "error:" in capsys.readouterr().err


class TestDemo:
    def test_walkthrough_is_deterministic(self, capsys):
        assert main(["demo"]) == 0
        first = capsys.readouterr().out
        assert main(["demo"]) == 0
        assert capsys.readouterr().out == first
        assert "25%" in first and "50%" in first
        assert "changed 0 times" in first

    def test_json_output(self, capsys):
        assert main(["demo", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["naive_compound"] == 0.25
        assert doc["report"]["true_compound"] == 0.5
        assert doc["second_bet_randomization"]["changed"] == 0

    def test_second_flip_variant_aligns_both_estimates(self, capsys):
        assert main(["demo", "--json", "--with-second-flip"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["report"]["naive_compound"] == 0.25
        assert doc["report"]["true_compound"] == 0.25
        assert doc["report"]["effective_events"] == 2


def test_the_reused_parser_prints_what_fresh_parsers_print(paradox_files, capsys):
    # main builds its parser once; a usage error in one call must leave
    # nothing behind that changes what later calls print.
    flips, bets = paradox_files
    calls = [
        ["analyze", "--flips", str(flips), "--format", "xml"],
        ["analyze", "--flips", str(flips), "--bets", str(bets), "--randomize", "10"],
        ["significance", "--wins", "3", "--effective", "4"],
    ]

    def run(argv: list[str]) -> tuple[object, str, str]:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        return code, *capsys.readouterr()

    reused = [run(argv) for argv in calls]
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli.build_parser()
    fresh = []
    for argv in calls:
        cli._parser.cache_clear()
        fresh.append(run(argv))
    assert reused == fresh
    assert [code for code, _, _ in reused] == [2, 0, 0]
    assert "invalid choice: 'xml'" in reused[0][2]


def test_module_entrypoint_runs():
    # The child must import the same package as this test, also when the
    # suite found it through pytest's pythonpath rather than the environment.
    package_root = str(Path(flipbet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "flipbet", "significance", "--n", "50", "--p", "0.6"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.0573437605422"


@pytest.mark.parametrize("fmt", ["json", "text", "simulate"])
def test_a_reader_that_closes_stdout_early_ends_the_run_quietly(tmp_path, fmt):
    # 2 x 10^4 bet lines, or a trace of 2 x 10^4 bets, are far more than a
    # pipe buffer holds, so the child is still writing when the reader
    # closes the pipe after one line.
    flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
    flips.write_text("0,H\n")
    bets.write_text("".join(f"{t},H\n" for t in range(1, 20_001)))
    package_root = str(Path(flipbet.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    argv = ["analyze", "--flips", str(flips), "--bets", str(bets), "--randomize", "1",
            "--format", fmt]
    if fmt == "simulate":
        argv = ["simulate", "--horizon", "20000", "--flip-times", "0", "--bets", str(bets)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "flipbet", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": path},
    )
    try:
        assert proc.stdout.readline()
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert proc.returncode == 1
    assert stderr == b""
