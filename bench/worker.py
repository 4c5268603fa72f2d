"""Runs one workload's ops in a fresh interpreter and reports raw timings.

Usage: python3 bench/worker.py PLAN.json RESULT.json

The plan names the op (a ``flipbet.cli.main`` argv, or the arguments of
one ``monte_carlo_compound`` call), the run length and whether to trace.
The worker repeats the op on the same input while the next op should end
within the run length, and at least twice, so that outputs can be
compared byte for byte. With
tracing, ops alternate untraced and traced, so one run gives both the
per-layer numbers and the tracing overhead. Generation and checking happen
in the parent process; this one only imports the program and runs it.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

MIN_OPS = 2


def _cli_op(plan: dict):
    import flipbet.cli

    argv, out_path = plan["argv"], plan["out_path"]

    def op():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            start = time.perf_counter()
            try:
                rc = flipbet.cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                rc = exc.code
            seconds = time.perf_counter() - start
        output = stdout.getvalue().encode()
        if rc == 0 and out_path is not None:
            output += Path(out_path).read_bytes()
        return seconds, rc, output, stderr.getvalue()

    return op


def _montecarlo_op(plan: dict):
    from flipbet import significance
    from flipbet.game import Bet, Face, GameConfig

    call = plan["call"]
    config = GameConfig(horizon=call["horizon"], coin_bias=call["coin_bias"])
    flip_times = call["flip_times"]
    bets = [Bet(t, Face(face)) for t, face in call["bets"]]

    def op():
        start = time.perf_counter()
        est = significance.monte_carlo_compound(
            config, flip_times, bets, call["trials"], call["base_seed"]
        )
        seconds = time.perf_counter() - start
        fields = ("trials", "successes", "estimate", "standard_error")
        return seconds, 0, json.dumps({k: getattr(est, k) for k in fields}).encode(), ""

    return op


def main(plan_path: str, result_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text())
    import flipbet

    src = Path(plan["src"]).resolve()
    if src not in Path(flipbet.__file__).resolve().parents:
        print(f"flipbet imported from {flipbet.__file__}, not from {src}", file=sys.stderr)
        return 2
    op = _cli_op(plan) if plan["kind"] == "cli" else _montecarlo_op(plan)
    tracer = None
    if plan["trace"]:
        from tracer import Tracer  # this script's directory is on sys.path

        tracer = Tracer()

    ops = []
    began = time.perf_counter()
    # Start another op only if it should end within the run length, so a
    # run's duration does not grow by one op's time.
    while len(ops) < MIN_OPS or time.perf_counter() - began + ops[-1]["seconds"] <= plan["seconds"]:
        traced = tracer is not None and len(ops) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            seconds, rc, output, stderr = op()
            error = stderr if rc != 0 else ""
        except Exception:  # a crash in the program is a failed op, not a failed run
            seconds, rc, output, error = 0.0, None, b"", traceback.format_exc()
        finally:
            if traced:
                tracer.uninstall()
        if not ops:
            Path(plan["first_output"]).write_bytes(output)
        ops.append(
            {
                "seconds": seconds,
                "rc": rc,
                "sha256": hashlib.sha256(output).hexdigest(),
                "out_bytes": len(output),
                "error": error[-2000:],
                "traced": traced,
                "layers": tracer.take() if traced else None,
            }
        )
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB on Linux
    result = {"ops": ops, "peak_rss_mb": peak_kib * 1024 / 1e6}
    Path(result_path).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
