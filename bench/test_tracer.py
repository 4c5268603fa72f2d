"""Checks of the benchmark's tracer on a tiny input.

Run from the repository root: python3 -m pytest -q bench
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import flipbet  # noqa: E402
from flipbet import cli, probability, report  # noqa: E402
from tracer import Tracer  # noqa: E402


def _tiny_trace():
    from flipbet import Bet, Face, Flip, GameConfig, make_trace

    flips = [Flip(0.0, Face.HEADS), Flip(0.5, Face.TAILS)]
    bets = [Bet(0.2, Face.HEADS), Bet(0.3, Face.HEADS), Bet(0.7, Face.HEADS)]
    return make_trace(GameConfig(horizon=1.0), flips, bets)


def test_calls_through_analyze_reach_wrapped_functions():
    trace = _tiny_trace()
    tracer = Tracer()
    tracer.install()
    try:
        report.analyze(trace, report.AnalysisOptions(randomization_trials=5))
    finally:
        tracer.uninstall()
    layers = tracer.take()
    assert layers["report.analyze.calls"] == 1
    # Reached through report's and probability's own namespaces alike.
    assert layers["probability.group_by_epoch.calls"] == 4
    assert layers["significance.randomization_test.calls"] == 3
    assert layers["significance.randomization_test.trials"] == 15
    # coin_state_at is bound in significance as well as in game.
    assert layers["game.coin_state_at.calls"] == 15
    assert layers["significance.derive_seed.calls"] == 3
    assert layers["significance.random_reproduction_pvalue.calls"] == 2
    for key, value in layers.items():
        if key.endswith(".self_s"):
            assert value >= 0.0, key


def test_self_time_excludes_children():
    trace = _tiny_trace()
    tracer = Tracer()
    tracer.install()
    try:
        report.analyze(trace)
    finally:
        tracer.uninstall()
    spans = list(tracer.spans)
    layers = tracer.take()
    analyze_total = sum(end - start for name, start, end, _ in spans if name == "report.analyze")
    assert 0.0 <= layers["report.analyze.self_s"] < analyze_total


def test_cli_json_dumps_and_loads_are_counted(tmp_path):
    flips, bets = tmp_path / "flips.csv", tmp_path / "bets.csv"
    flips.write_text("0,H\n5,T\n")
    bets.write_text("time,prediction\n1,H\n6,H\n")
    tracer = Tracer()
    tracer.install()
    try:
        # Called through the module, as the benchmark's worker does.
        assert cli.main(["analyze", "--flips", str(flips), "--bets", str(bets)]) == 0
    finally:
        tracer.uninstall()
    layers = tracer.take()
    assert layers["cli.main.calls"] == 1
    assert layers["cli.json_dumps.calls"] == 1
    assert layers["report.load.rows"] == 4
    assert layers["report.load.bytes"] == flips.stat().st_size + bets.stat().st_size


def test_uninstall_restores_every_binding():
    before = (report.group_by_epoch, probability.group_by_epoch, flipbet.analyze)
    tracer = Tracer()
    tracer.install()
    assert report.group_by_epoch is probability.group_by_epoch is not before[1]
    tracer.uninstall()
    assert (report.group_by_epoch, probability.group_by_epoch, flipbet.analyze) == before


def test_removed_name_records_nothing(monkeypatch):
    monkeypatch.setattr(probability, "__all__", [*probability.__all__, "no_such_function"])
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert tracer.take().get("probability.no_such_function.calls", 0) == 0
