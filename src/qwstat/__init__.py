"""Stationary measures of three-state quantum walks on the line and on cycles.

The package splits into:

- :mod:`qwstat.coin` -- 3x3 unitary coins, built-in families, minors
- :mod:`qwstat.reduced` -- the 2x2 reduced matrix and Type 1 / Type 2 classification
- :mod:`qwstat.stationary` -- closed-form eigenstates, measures, periodicity
- :mod:`qwstat.evolve` -- brute-force evolution oracle and stationarity checks
- :mod:`qwstat.serialize` -- JSON / CSV interchange
- :mod:`qwstat.cli` -- the ``qwstat`` command line tool
"""

from .coin import (
    CoinMatrix,
    Minors,
    fourier,
    grover,
    make_coin,
    minors,
    random_coin,
    stefanak_eta,
    stefanak_rho,
)
from .errors import (
    CentralReflection,
    DegenerateSeeds,
    DomainError,
    InconsistentLambda,
    NoCycleClosure,
    NonUnimodularLambda,
    NonUnitary,
    QWalkError,
    SquareConditionFailed,
    TanSingularity,
    TypeMismatch,
    UnsupportedFamily,
    WindowTooSmall,
    ZeroEntry,
)
from .evolve import StationarityReport, eigen_residual, step, verify_stationary
from .reduced import (
    ReducedParams,
    WalkType,
    reduced_matrix,
    type1_params,
    type2_params,
)
from .state import Cycle, Measure, Seeds, Topology, WaveState, Window
from .stationary import (
    closed_form_measure_a1,
    closed_form_measure_type2,
    cycle_restriction,
    detect_period,
    measure_of,
    type1_state,
    type2_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # coins
    "CoinMatrix",
    "Minors",
    "make_coin",
    "grover",
    "fourier",
    "stefanak_eta",
    "stefanak_rho",
    "random_coin",
    "minors",
    # classification
    "WalkType",
    "ReducedParams",
    "reduced_matrix",
    "type1_params",
    "type2_params",
    # topologies and containers
    "Window",
    "Cycle",
    "Topology",
    "WaveState",
    "Measure",
    "Seeds",
    # stationary states and measures
    "type1_state",
    "cycle_restriction",
    "type2_state",
    "measure_of",
    "closed_form_measure_a1",
    "closed_form_measure_type2",
    "detect_period",
    # evolution oracle
    "step",
    "eigen_residual",
    "verify_stationary",
    "StationarityReport",
    # errors
    "QWalkError",
    "NonUnitary",
    "DomainError",
    "ZeroEntry",
    "CentralReflection",
    "NonUnimodularLambda",
    "InconsistentLambda",
    "SquareConditionFailed",
    "DegenerateSeeds",
    "NoCycleClosure",
    "TypeMismatch",
    "TanSingularity",
    "UnsupportedFamily",
    "WindowTooSmall",
]
