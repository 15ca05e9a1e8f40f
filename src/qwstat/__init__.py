"""Stationary measures of three-state quantum walks on the line and on cycles.

The package splits into:

- :mod:`qwstat.coin` -- 3x3 unitary coins, built-in families, minors
- :mod:`qwstat.reduced` -- the 2x2 reduced matrix and Type 1 / Type 2 classification
- :mod:`qwstat.stationary` -- closed-form eigenstates, measures, periodicity
- :mod:`qwstat.evolve` -- brute-force evolution oracle and stationarity checks
- :mod:`qwstat.serialize` -- JSON / CSV interchange
- :mod:`qwstat.cli` -- the ``qwstat`` command line tool
"""

from . import coin, errors, evolve, reduced, state, stationary
from .coin import *
from .errors import *
from .evolve import *
from .reduced import *
from .state import *
from .stationary import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *coin.__all__,
    *reduced.__all__,
    *state.__all__,
    *stationary.__all__,
    *evolve.__all__,
    *errors.__all__,
]
