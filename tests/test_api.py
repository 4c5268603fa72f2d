"""The public API: each module's ``__all__``, pinned, and every name in it resolves.

A name leaves or joins the public API only by a change to this table.
"""

from __future__ import annotations

import importlib
import pkgutil

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
