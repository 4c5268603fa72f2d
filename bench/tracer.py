"""Spans recorded from outside the program, around calls into its layers.

Every public function (a name in a module's ``__all__``) of the traced
modules is wrapped in every ``flipbet`` module namespace that binds it:
``group_by_epoch`` is reached through both ``probability`` and ``report``,
``coin_state_at`` through both ``game`` and ``significance``, and patching
only the defining module would miss calls. ``json.dumps`` is wrapped as
``flipbet.cli`` sees it. A span is named ``<defining module>.<function>``.

Spans are kept in memory as (name, start, end, parent) and reduced when an
op ends. A span's self time is its duration minus the time its child spans
cover. Names that a later version no longer has simply record nothing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict

MODULES = ("cli", "report", "game", "probability", "significance")


def _bound(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


def _load_counts(fn, args, kwargs, result) -> dict:
    path = _bound(fn, args, kwargs).get("path")
    return {"report.load.rows": len(result), "report.load.bytes": os.path.getsize(path)}


def _randomization_counts(fn, args, kwargs, result) -> dict:
    return {"significance.randomization_test.trials": _bound(fn, args, kwargs).get("trials", 0)}


def _monte_carlo_counts(fn, args, kwargs, result) -> dict:
    arguments = _bound(fn, args, kwargs)
    trials = arguments.get("trials", 0)
    flips = len(arguments.get("flip_times", ()))
    # Computed, not measured: the kernel draws one double per flip per trial.
    return {
        "significance.monte_carlo_compound.trials": trials,
        "significance.monte_carlo_compound.random_bytes": trials * flips * 8,
    }


# Counters read at a layer boundary from a call's arguments and result.
COUNTERS = {
    "report.load_flips": _load_counts,
    "report.load_bets": _load_counts,
    "significance.randomization_test": _randomization_counts,
    "significance.monte_carlo_compound": _monte_carlo_counts,
}


class _JsonAsSeenFromCli:
    """Stands in for the ``json`` module inside ``flipbet.cli``."""

    def __init__(self, dumps):
        self.dumps = dumps

    def __getattr__(self, name):
        return getattr(json, name)


class Tracer:
    """Wraps the layers' public functions while installed; collects spans."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)
            if count is not None:
                for key, value in count(fn, args, kwargs, result).items():
                    counters[key] += value
            return result

        return wrapper

    @staticmethod
    def _targets() -> dict[str, object]:
        """Span name -> the function it wraps, for every public function."""
        found = {}
        for short in MODULES:
            module = importlib.import_module(f"flipbet.{short}")
            for attr in getattr(module, "__all__", ()):
                obj = getattr(module, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                    found[f"{short}.{attr}"] = obj
        return found

    def install(self) -> None:
        wrappers = {id(fn): self._wrap(name, fn) for name, fn in self._targets().items()}
        namespaces = [m for n, m in sys.modules.items() if n == "flipbet" or n.startswith("flipbet.")]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, attr, wrappers[id(obj)])
        cli = sys.modules.get("flipbet.cli")
        if cli is not None and getattr(cli, "json", None) is json:
            self._patch(cli, "json", _JsonAsSeenFromCli(self._wrap("cli.json_dumps", json.dumps)))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def take(self) -> dict[str, float]:
        """Per-layer totals since the last call: ``<span>.calls``,
        ``<span>.self_s`` and the counters. Clears what it read."""
        out: dict[str, float] = defaultdict(float)
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, _), children in zip(self.spans, child_time):
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += end - start - children
        out.update(self.counters)
        self.spans.clear()
        self.counters.clear()
        return dict(out)
