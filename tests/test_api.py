"""The public API: each module's ``__all__``, pinned, and every name in it resolves.

A name leaves or joins the public API only by a change to this table. The
package's one random source is pinned here too, by reading its source.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import flipbet

PUBLIC = {
    "flipbet": [
        "AnalysisOptions",
        "AnalysisReport",
        "Bet",
        "CsvFormatError",
        "DomainError",
        "EpochGrouping",
        "Face",
        "Flip",
        "FlipBetError",
        "GameConfig",
        "GameTrace",
        "MonteCarloEstimate",
        "RandomizationResult",
        "ValidationError",
        "__version__",
        "analyze",
        "binomial_pmf",
        "coin_state_at",
        "derive_seed",
        "effective_event_count",
        "group_by_epoch",
        "load_bets",
        "load_flips",
        "losing_probability",
        "make_trace",
        "monte_carlo_compound",
        "naive_compound_probability",
        "pairwise_conditional_probability",
        "random_reproduction_pvalue",
        "randomization_test",
        "report_from_dict",
        "report_from_json",
        "report_to_dict",
        "report_to_json",
        "simulate_game",
        "trace_from_dict",
        "trace_to_dict",
        "true_compound_probability",
    ],
    "flipbet.cli": ["entrypoint", "main"],
    "flipbet.game": [
        "Bet",
        "EpochGrouping",
        "Face",
        "Flip",
        "GameConfig",
        "GameTrace",
        "coin_state_at",
        "make_trace",
        "simulate_game",
    ],
    "flipbet.probability": [
        "EpochGrouping",
        "effective_event_count",
        "group_by_epoch",
        "naive_compound_probability",
        "pairwise_conditional_probability",
        "true_compound_probability",
    ],
    "flipbet.report": [
        "AnalysisOptions",
        "AnalysisReport",
        "analyze",
        "load_bets",
        "load_flips",
        "report_from_dict",
        "report_from_json",
        "report_to_dict",
        "report_to_json",
        "trace_from_dict",
        "trace_to_dict",
    ],
    "flipbet.significance": [
        "MonteCarloEstimate",
        "RandomizationResult",
        "binomial_pmf",
        "derive_seed",
        "losing_probability",
        "monte_carlo_compound",
        "random_reproduction_pvalue",
        "randomization_test",
    ],
}


@pytest.mark.parametrize("module", PUBLIC)
def test_public_names_are_pinned_and_resolve(module):
    mod = importlib.import_module(module)
    assert sorted(mod.__all__) == PUBLIC[module]
    for name in mod.__all__:
        getattr(mod, name)


def test_every_module_with_an_all_is_pinned():
    modules = ["flipbet"] + [f"flipbet.{m.name}" for m in pkgutil.iter_modules(flipbet.__path__)]
    declared = [m for m in modules if hasattr(importlib.import_module(m), "__all__")]
    assert sorted(declared) == sorted(PUBLIC)


def _random_uses() -> list[tuple[str, str, str]]:
    """(module, top-level name, use) for every ``np.random`` reference and
    every import of ``random`` or ``numpy.random`` in the package source."""
    uses = []
    for path in sorted(Path(flipbet.__file__).parent.glob("*.py")):
        for statement in ast.parse(path.read_text(), path.name).body:
            owner = getattr(statement, "name", "<module>")
            for node in ast.walk(statement):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{alias.name}" for alias in node.names]
                elif (
                    isinstance(node, ast.Attribute)
                    and node.attr == "random"
                    and isinstance(node.value, ast.Name)
                    and node.value.id in ("np", "numpy")
                ):
                    uses.append((path.stem, owner, "np.random"))
                    continue
                else:
                    continue
                for name in names:
                    if name.split(".")[0] == "random" or name.startswith("numpy.random"):
                        uses.append((path.stem, owner, f"import {name}"))
    return uses


def test_the_one_random_source_is_game_generator():
    # Every seeded draw comes from game._generator: no module imports
    # `random`, and only that function names numpy's random module.
    assert sorted(set(_random_uses())) == [("game", "_generator", "np.random")]


def test_streams_are_read_only_through_generator_random():
    # Every double the package draws is Generator.random's: no source reads
    # a bit generator's raw words and converts them by hand.
    raw_reads = [
        (path.stem, node.lineno)
        for path in sorted(Path(flipbet.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), path.name))
        if isinstance(node, ast.Attribute) and node.attr == "random_raw"
    ]
    assert raw_reads == []
