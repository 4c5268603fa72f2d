"""Timed coin-flip betting game: simulation, compound probabilities, significance.

The package simulates a game in which one player flips a coin on a chosen
schedule inside a fixed time window while another bets blind on the coin's
current face, then quantifies the betting record two ways: as if the bets
were independent events and as they really are, conditioned on the flip
schedule. Significance tools (exact binomial tails, random-reproduction
p-values over effective events, bet-time randomization tests) measure how
hard the record is to reproduce by chance.

Each module's ``__all__`` is the one list of its public names; the package
re-exports every one of them, with the error classes and ``__version__``.
"""

from . import game, probability, report, significance
from .errors import CsvFormatError, DomainError, FlipBetError, ValidationError
from .game import *  # noqa: F403
from .probability import *  # noqa: F403
from .report import *  # noqa: F403
from .significance import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(
    {"CsvFormatError", "DomainError", "FlipBetError", "ValidationError", "__version__"}.union(
        *(module.__all__ for module in (game, probability, report, significance))
    )
)
