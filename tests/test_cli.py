"""Command-line interface: golden outputs and exit codes."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import flipbet
from flipbet.cli import main

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

    def test_missing_horizon_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["simulate", "--flip-times", "0"])
        assert err.value.code == 2

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
