"""Timed coin-flip betting game: simulation, compound probabilities, significance.

The package simulates a game in which one player flips a coin on a chosen
schedule inside a fixed time window while another bets blind on the coin's
current face, then quantifies the betting record two ways: as if the bets
were independent events and as they really are, conditioned on the flip
schedule. Significance tools (exact binomial tails, random-reproduction
p-values over effective events, bet-time randomization tests) measure how
hard the record is to reproduce by chance.
"""

from .errors import CsvFormatError, DomainError, FlipBetError, ValidationError
from .game import (
    Bet,
    Face,
    Flip,
    GameConfig,
    GameTrace,
    coin_state_at,
    make_trace,
    simulate_game,
)
from .probability import (
    EpochGrouping,
    effective_event_count,
    group_by_epoch,
    naive_compound_probability,
    pairwise_conditional_probability,
    true_compound_probability,
)
from .report import (
    AnalysisOptions,
    AnalysisReport,
    analyze,
    load_bets,
    load_flips,
    report_from_dict,
    report_from_json,
    report_to_dict,
    report_to_json,
    trace_from_dict,
    trace_to_dict,
)
from .significance import (
    MonteCarloEstimate,
    RandomizationResult,
    binomial_pmf,
    derive_seed,
    losing_probability,
    monte_carlo_compound,
    random_reproduction_pvalue,
    randomization_test,
)

__version__ = "0.1.0"

__all__ = [
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
    "__version__",
]
