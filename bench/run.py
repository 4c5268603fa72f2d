"""flipbet benchmark: seeded workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload analyze_bulk --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``analyze_bulk``, ``analyze_randomize``,
``simulate_trace``, ``montecarlo`` or ``all``. ``--set key=value``
overrides a workload parameter (see ``bench/workloads.py``), for the
reference runs at other sizes. The program is run from ``src/`` of the
same checkout.

A run (1) generates its inputs from the seed into ``.bench_work/``,
(2) with ``--trace 0``, times fresh interpreters that import the program,
(3) runs the ops in one fresh worker interpreter for ``--seconds``,
(4) checks every op's output with an oracle that shares no code with the
program, and (5) prints one line per metric, then the result as one JSON
object on the last line. With ``--trace 0`` the metrics are the end-to-end
ones; with ``--trace 1`` they are the per-layer ones, from spans recorded
around calls into the program (see ``bench/tracer.py``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# Fresh interpreters timed for setup_s before and again after the worker,
# so that the samples come from two moments of the run; one untimed
# warm-up first also compiles bytecode.
SETUP_SAMPLES = 8
PROBE = "import time, flipbet.cli; print(time.monotonic()); print(flipbet.__file__)"
# Time allowed to the worker beyond the run length: at least two ops run.
WORKER_GRACE_S = 120

# Per-layer metrics: span self times and call counts, counters read at
# layer boundaries, counts the oracle computes from the inputs, and the
# tracing overhead. Each is reported on every workload; a layer that a
# workload never enters reads 0 there.
SPAN_METRICS = [
    ("cli.main.self_s", "s"),
    ("cli.json_dumps.self_s", "s"),
    ("report.load_flips.self_s", "s"),
    ("report.load_bets.self_s", "s"),
    ("report.load.rows", "count"),
    ("report.load.bytes", "B"),
    ("report.analyze.self_s", "s"),
    ("report.report_to_dict.self_s", "s"),
    ("report.trace_to_dict.self_s", "s"),
    ("game.make_trace.self_s", "s"),
    ("game.simulate_game.self_s", "s"),
    ("game.coin_state_at.calls", "count"),
    ("game.coin_state_at.self_s", "s"),
    ("probability.group_by_epoch.calls", "count"),
    ("probability.group_by_epoch.self_s", "s"),
    ("probability.true_compound_probability.self_s", "s"),
    ("probability.naive_compound_probability.self_s", "s"),
    ("probability.effective_event_count.self_s", "s"),
    ("significance.random_reproduction_pvalue.calls", "count"),
    ("significance.random_reproduction_pvalue.self_s", "s"),
    ("significance.randomization_test.calls", "count"),
    ("significance.randomization_test.trials", "count"),
    ("significance.randomization_test.self_s", "s"),
    ("significance.derive_seed.calls", "count"),
    ("significance.monte_carlo_compound.self_s", "s"),
    ("significance.monte_carlo_compound.trials", "count"),
    ("significance.monte_carlo_compound.random_bytes", "B"),
]
ORACLE_METRICS = [
    ("probability.occupied_epochs", "count"),
    ("probability.conflicting_epochs", "count"),
    ("significance.pvalue_rel_err_max", "ratio"),
]


class BenchError(Exception):
    """The run could not be made; no result is printed."""


def _env() -> dict:
    return {**os.environ, "PYTHONPATH": str(SRC)}


def measure_setup(count: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to flipbet.cli imported."""
    samples = []
    for _ in range(count):
        start = time.monotonic()
        proc = subprocess.run(
            [sys.executable, "-c", PROBE], env=_env(), cwd=ROOT,
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise BenchError(f"cannot import flipbet from {SRC}:\n{proc.stderr}")
        ready, module_file = proc.stdout.split("\n")[:2]
        if SRC.resolve() not in Path(module_file).resolve().parents:
            raise BenchError(f"flipbet imported from {module_file}, not from {SRC}")
        samples.append(float(ready) - start)
    return samples


def run_worker(inputs: Inputs, work: Path, seconds: int, trace: bool) -> dict:
    plan = {
        "kind": inputs.kind,
        "argv": inputs.argv,
        "out_path": inputs.out_path,
        "call": inputs.call,
        "seconds": seconds,
        "trace": trace,
        "src": str(SRC),
        "first_output": str(work / "output.first"),
    }
    plan_path, result_path = work / "plan.json", work / "result.json"
    plan_path.write_text(json.dumps(plan))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("worker.py")), str(plan_path), str(result_path)],
        env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=seconds + WORKER_GRACE_S,
    )
    if proc.returncode != 0 or not result_path.exists():
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr}")
    return json.loads(result_path.read_text())


def judge_ops(name: str, inputs: Inputs, work: Path, result: dict) -> tuple[int, dict]:
    """Failed-op count and the oracle's per-layer counts.

    An op fails on a non-zero exit, an exception, output the oracle
    rejects, or output that differs from the first op's on the same input.
    """
    first = (work / "output.first").read_bytes()
    problems, oracle_metrics = WORKLOADS[name].check(first, inputs)
    first_sha = hashlib.sha256(first).hexdigest()
    failed = 0
    for i, op in enumerate(result["ops"]):
        reasons = []
        if op["rc"] != 0:
            reasons.append(f"exit {op['rc']}: {op['error'].strip()}")
        elif op["sha256"] != first_sha:
            reasons.append("output differs from the first op's on identical input")
        elif problems:
            reasons += problems
        if reasons:
            failed += 1
            print(f"{name} op {i} failed: " + "; ".join(reasons[:5]), file=sys.stderr)
    return failed, oracle_metrics


def run_workload(name: str, seed: int, seconds: int, trace: bool, overrides: dict) -> dict:
    workload = WORKLOADS[name]
    unknown = set(overrides) - set(workload.params)
    if unknown:
        raise BenchError(f"{name} has no parameter {', '.join(sorted(unknown))}")
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workload.generate(seed, work, {**workload.params, **overrides})
    setup = [] if trace else measure_setup(SETUP_SAMPLES + 1)[1:]
    result = run_worker(inputs, work, seconds, trace)
    if not trace:
        setup += measure_setup(SETUP_SAMPLES)
    failed, oracle_metrics = judge_ops(name, inputs, work, result)
    ops = result["ops"]
    attempted = len(ops)

    if trace:
        traced = [op for op in ops if op["traced"]]
        plain = [op["seconds"] for op in ops if not op["traced"]]

        def per_op(key: str) -> float:
            return statistics.median(op["layers"].get(key, 0) for op in traced)

        metrics = {key: (per_op(key), unit) for key, unit in SPAN_METRICS}
        metrics["report.out.bytes"] = (statistics.median(op["out_bytes"] for op in traced), "B")
        for key, unit in ORACLE_METRICS:
            metrics[key] = (oracle_metrics.get(key, 0), unit)
        overhead = statistics.median(op["seconds"] for op in traced) / statistics.median(plain) - 1
        metrics["trace.overhead_frac"] = (overhead, "ratio")
        counts = {key: len(traced) for key in metrics}
    else:
        times = [op["seconds"] for op in ops]
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "units_per_s": (inputs.units_per_op * attempted / sum(times), "units/s"),
            "op_p50_s": (statistics.median(times), "s"),
            "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        }
        counts = {"setup_s": len(setup), "units_per_s": attempted, "op_p50_s": attempted, "peak_rss_mb": 1}

    for key, (value, unit) in metrics.items():
        print(f"{name}  {key} = {value:.6g} {unit}  (n={counts[key]})")
    if not trace:
        print(f"{name}  error_rate = {failed / attempted:.6g} fraction  (n={attempted})")
        print(f"{name}  unit = {workload.unit}, {inputs.units_per_op} per op")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }


def _override(text: str) -> tuple[str, int | float]:
    key, _, value = text.partition("=")
    return key, float(value) if "." in value else int(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--set", type=_override, action="append", default=[], metavar="KEY=VALUE")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {
            name: run_workload(name, args.seed, args.seconds, bool(args.trace), dict(args.set))
            for name in names
        }
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
