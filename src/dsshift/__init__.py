"""Doubly stochastic graph shift operators.

Construction of doubly stochastic operators from weighted directed graphs
by Knight-Ruiz Newton balancing, graph shifts and polynomial graph filters,
Birkhoff decomposition into permutation matrices, closed-form and Monte
Carlo statistical bounds for locally stationary random graph signals, and
a seeded sensor-field denoising demo.
"""

# Each module's __all__ is its public API, republished here unchanged.
from . import balance, birkhoff, bounds, demo, graphs, shifting
from .balance import *  # noqa: F403
from .birkhoff import *  # noqa: F403
from .bounds import *  # noqa: F403
from .demo import *  # noqa: F403
from .graphs import *  # noqa: F403
from .shifting import *  # noqa: F403

__version__ = "0.1.0"

__all__ = sorted(name for module in (balance, birkhoff, bounds, demo, graphs, shifting)
                 for name in module.__all__)
