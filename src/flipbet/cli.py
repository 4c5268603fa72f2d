"""Command-line interface.

Commands:
    simulate      play one game from a flip schedule and a bet file
    analyze       run the full analysis pipeline on flip/bet CSV logs
    significance  binomial-tail numbers (losing probability, p-values)
    demo          scripted walkthrough of the one-flip, two-bet game

Exit codes: 0 success, 2 usage or validation errors, 1 internal errors.
All randomized commands take an explicit ``--seed`` and default to 0;
nothing reads wall-clock entropy, so every run is reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import FlipBetError
from .game import Bet, Face, Flip, GameConfig, GameTrace, _Columns, _columns, _simulate, make_trace
from .report import AnalysisOptions, _read_log, _trace_json, analyze, report_to_dict, trace_to_dict
from .significance import losing_probability, random_reproduction_pvalue, randomization_test

__all__ = ["main", "entrypoint"]


def _comma_floats(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a comma-separated list of numbers: {text!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flipbet",
        description="Timed coin-flip betting game: simulation and dependence-aware analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="play one game and print the trace as JSON")
    p_sim.add_argument("--horizon", type=float, required=True, help="length of the game window")
    p_sim.add_argument(
        "--flip-times",
        type=_comma_floats,
        required=True,
        metavar="T0,T1,...",
        help="flip schedule; must start at 0 and increase strictly",
    )
    p_sim.add_argument("--bias", type=float, default=0.5, help="per-flip heads probability")
    p_sim.add_argument("--seed", type=int, default=0, help="seed for the flip draws")
    p_sim.add_argument("--bets", type=Path, default=None, help="bet CSV (time,prediction)")
    p_sim.add_argument("--out", type=Path, default=None, help="write JSON here instead of stdout")
    p_sim.set_defaults(handler=cmd_simulate)

    p_an = sub.add_parser("analyze", help="analyze flip/bet logs and print the report")
    p_an.add_argument("--flips", type=Path, required=True, help="flip CSV (time,outcome)")
    p_an.add_argument("--bets", type=Path, required=True, help="bet CSV (time,prediction)")
    p_an.add_argument(
        "--randomize",
        type=int,
        default=None,
        metavar="TRIALS",
        help="also run a per-bet randomization test with this many trials",
    )
    p_an.add_argument("--seed", type=int, default=0, help="seed for randomization tests")
    p_an.add_argument("--format", choices=("json", "text"), default="json")
    p_an.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="game window length (default: latest time in the inputs, 1.0 if that is 0)",
    )
    p_an.add_argument("--bias", type=float, default=0.5, help="per-flip heads probability")
    p_an.set_defaults(handler=cmd_analyze)

    p_sig = sub.add_parser("significance", help="binomial-tail numbers")
    p_sig.add_argument("--n", type=int, help="number of trials")
    p_sig.add_argument("--p", type=float, help="per-trial success probability")
    p_sig.add_argument("--wins", type=int, help="observed effective wins")
    p_sig.add_argument("--effective", type=int, help="effective event count")
    p_sig.set_defaults(handler=cmd_significance)

    p_demo = sub.add_parser("demo", help="walk through the one-flip, two-bet game")
    p_demo.add_argument("--json", action="store_true", help="machine-readable output")
    p_demo.add_argument(
        "--with-second-flip",
        action="store_true",
        help="variant with a second flip between the bets",
    )
    p_demo.set_defaults(handler=cmd_paradox_demo)

    return parser


def cmd_simulate(args: argparse.Namespace) -> int:
    config = GameConfig(horizon=args.horizon, coin_bias=args.bias, seed=args.seed)
    bets = _columns([], [])
    if args.bets is not None:
        bets = _Columns(*_read_log(args.bets, Bet))
    trace = _simulate(config, _columns(args.flip_times), bets)
    text = _trace_json(trace)
    if args.out is not None:
        args.out.write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    options = AnalysisOptions(randomization_trials=args.randomize, seed=args.seed)
    flip_times, flip_heads = _read_log(args.flips, Flip)
    bet_times, bet_heads = _read_log(args.bets, Bet)
    horizon = args.horizon
    if horizon is None:
        latest = max(flip_times.max(initial=0.0), bet_times.max(initial=0.0)).item()
        horizon = latest if latest > 0 else 1.0
    config = GameConfig(horizon=horizon, coin_bias=args.bias)
    trace = GameTrace._from_columns(
        config, _Columns(flip_times, flip_heads), _Columns(bet_times, bet_heads)
    )
    report = analyze(trace, options)
    if args.format == "json":
        print(json.dumps(report_to_dict(report), indent=2))
    else:
        print(f"bets: {report.bet_count} (wins: {report.wins})")
        print(f"flips: {report.flip_count}")
        print(f"effective events: {report.effective_events} (effective wins: {report.effective_wins})")
        print(f"naive compound probability: {report.naive_compound:.12g}")
        print(f"true compound probability: {report.true_compound:.12g}")
        print(f"naive p-value: {report.naive_pvalue:.12g}")
        print(f"corrected p-value: {report.corrected_pvalue:.12g}")
        if report.randomization is not None:
            for i, r in enumerate(report.randomization):
                print(
                    f"bet {i}: outcome changed in {r.changed} of {r.trials} "
                    f"re-placements (fraction {r.change_fraction:.12g})"
                )
    return 0


def cmd_significance(args: argparse.Namespace) -> int:
    tail_args = args.n is not None or args.p is not None
    pvalue_args = args.wins is not None or args.effective is not None
    if tail_args == pvalue_args:
        print("error: give either --n and --p, or --wins and --effective", file=sys.stderr)
        return 2
    if tail_args:
        if args.n is None or args.p is None:
            print("error: --n and --p must be given together", file=sys.stderr)
            return 2
        value = losing_probability(args.n, args.p)
    else:
        if args.wins is None or args.effective is None:
            print("error: --wins and --effective must be given together", file=sys.stderr)
            return 2
        value = random_reproduction_pvalue(args.wins, args.effective)
    print(f"{value:.12g}")
    return 0


def _demo_trace(second_flip: bool) -> GameTrace:
    config = GameConfig(horizon=1.0, coin_bias=0.5, seed=0)
    flips = [Flip(0.0, Face.HEADS)]
    if second_flip:
        flips.append(Flip(0.5, Face.HEADS))
    bets = [Bet(0.3, Face.HEADS), Bet(0.7, Face.HEADS)]
    return make_trace(config, flips, bets)


def cmd_paradox_demo(args: argparse.Namespace) -> int:
    trace = _demo_trace(args.with_second_flip)
    report = analyze(trace)
    rand = randomization_test(trace, 1, interval=(0.3, 0.7), trials=1000, seed=0)
    if args.json:
        print(
            json.dumps(
                {
                    "game": trace_to_dict(trace),
                    "report": report_to_dict(report),
                    "second_bet_randomization": {
                        "trials": rand.trials,
                        "changed": rand.changed,
                        "change_fraction": rand.change_fraction,
                    },
                },
                indent=2,
            )
        )
        return 0

    print(f"timed coin-flip betting game, horizon {trace.config.horizon:g}, fair coin")
    for flip in trace.flips:
        print(f"  flip at t={flip.time:g} -> {flip.outcome.token}")
    for bet, won in zip(trace.bets, trace.resolutions):
        verdict = "win" if won else "lose"
        print(f"  bet  at t={bet.time:g} on {bet.prediction.token} -> {verdict}")
    print()
    print(
        "bettor's estimate, bets treated as independent: "
        f"{report.naive_compound:.0%} (0.5 per bet)"
    )
    spans = "span" if report.effective_events == 1 else "spans"
    print(
        "flipper's estimate, bets conditioned on the flips: "
        f"{report.true_compound:.0%} ({report.effective_events} occupied flip {spans})"
    )
    print(f"effective events: {report.effective_events} of {report.bet_count} bets")
    print(
        "re-placing the second bet at random in (0.3, 0.7), "
        f"{rand.trials} trials: outcome changed {rand.changed} times "
        f"(change fraction {rand.change_fraction:g})"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except FlipBetError as exc:
        problems = getattr(exc, "problems", None) or [str(exc)]
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
