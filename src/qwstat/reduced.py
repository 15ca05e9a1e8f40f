"""The 2x2 reduced matrix and the Type 1 / Type 2 coin classification.

For a candidate eigenvalue lambda on the unit circle, the stay amplitude can
be eliminated from the three-component eigenvalue equations (possible as long
as |a22| != 1), leaving a two-term recursion for the left and right
amplitudes governed by the reduced matrix

    A_re(lambda) = 1/(lambda - a22) * [ lambda a11 - B   lambda a13 + C ]
                                      [ lambda a31 + D   lambda a33 - E ]

with B, C, D, E the coin minors.  Two structures make the recursion solvable
in closed form:

- Type 1: lambda = -C/a13 = -D/a31 makes A_re diagonal.  Its entries are
  a1 = a11 - a13 a21 / a23 and a2 = a33 - a23 a31 / a21.
- Type 2: lambda = B/a11 = E/a33 makes A_re anti-diagonal, with entries
  a1 = a13 - a11 a23 / a21 and a2 = a31 - a21 a33 / a23.  Closing the
  resulting two-step recursion additionally forces lambda^2 = a1 a2; coins
  violating that (the Fourier coin does) admit no Type 2 eigenstate.

Swapping columns 1 and 3 of the coin turns its Type 1 candidates -C/a13,
-D/a31 and entries a1, a2 into the Type 2 ones above, so both types run one
classifier: Type 2 runs it on the column-swapped matrix and adds the square
condition.  Both classifications need every coin entry nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .coin import CoinMatrix, Minors, _minors, minors
from .errors import (
    CentralReflection,
    InconsistentLambda,
    NonUnimodularLambda,
    SquareConditionFailed,
    ZeroEntry,
)
from .tolerance import RTOL, ZERO_ENTRY_TOL

__all__ = [
    "WalkType",
    "ReducedParams",
    "reduced_matrix",
    "type1_params",
    "type2_params",
]


class WalkType(Enum):
    TYPE1 = 1
    TYPE2 = 2


@dataclass(frozen=True)
class ReducedParams:
    """Result of a successful classification: (lambda, a1, a2) plus the type.

    ``residual`` is the modulus of the difference between the two defining
    expressions for lambda; it bounds how sharply the classification held.
    """

    walk_type: WalkType
    lam: complex
    a_tilde_1: complex
    a_tilde_2: complex
    residual: float


def _require_reducible(a: np.ndarray) -> None:
    for i in range(3):
        for j in range(3):
            if abs(a[i, j]) <= ZERO_ENTRY_TOL:
                raise ZeroEntry(i + 1, j + 1)
    if abs(abs(a[1, 1]) - 1.0) <= RTOL:
        raise CentralReflection(abs(a[1, 1]))


def reduced_matrix(coin: CoinMatrix, lam: complex) -> np.ndarray:
    """The reduced matrix at a unimodular lambda, as a read-only 2x2 array.

    Raises ZeroEntry / CentralReflection when the coin is outside the scope
    of the reduction, and NonUnimodularLambda when |lambda| is more than
    RTOL off the unit circle.
    """
    _require_reducible(coin.matrix)
    lam = complex(lam)
    _check_unimodular(lam)
    entries = _reduced(coin.matrix, minors(coin), lam)
    entries.setflags(write=False)
    return entries


def _reduced(a: np.ndarray, m: Minors, lam: complex) -> np.ndarray:
    """The reduced matrix of the 3x3 array a, whose minors are m, at lam."""
    top = np.array(
        [
            [lam * a[0, 0] - m.B, lam * a[0, 2] + m.C],
            [lam * a[2, 0] + m.D, lam * a[2, 2] - m.E],
        ],
        dtype=np.complex128,
    )
    return top / (lam - a[1, 1])


def _check_unimodular(lam: complex) -> None:
    """Raise NonUnimodularLambda unless |lam| is within RTOL of 1."""
    if abs(abs(lam) - 1.0) > RTOL:
        raise NonUnimodularLambda(lam)


# Per walk type: the eigenvalue candidates named as in the paper, and the
# shape the reduced matrix must take at lambda.
_LABELS = {
    WalkType.TYPE1: ("-C/a13 vs -D/a31", "diagonal"),
    WalkType.TYPE2: ("B/a11 vs E/a33", "anti-diagonal"),
}


def _classify(coin: CoinMatrix, walk_type: WalkType) -> ReducedParams:
    """Type 1 classification of the coin, or for Type 2 of the coin with
    columns 1 and 3 swapped, where -C/a13, -D/a31 and the diagonal entries
    a1, a2 are the Type 2 candidates and anti-diagonal entries."""
    candidates, shape = _LABELS[walk_type]
    a = coin.matrix
    _require_reducible(a)  # a column swap keeps every entry, so once is enough
    if walk_type is WalkType.TYPE2:
        a = a[:, ::-1]
    m = _minors(a)
    lam1 = -m.C / a[0, 2]
    lam2 = -m.D / a[2, 0]
    if abs(lam1 - lam2) > RTOL:
        raise InconsistentLambda(lam1, lam2, candidates)
    _check_unimodular(lam1)
    a1 = a[0, 0] - a[0, 2] * a[1, 0] / a[1, 2]
    a2 = a[2, 2] - a[1, 2] * a[2, 0] / a[1, 0]
    if walk_type is WalkType.TYPE2 and abs(lam1 * lam1 - a1 * a2) > RTOL:
        raise SquareConditionFailed(complex(lam1), complex(a1), complex(a2))

    lam = complex(lam1)
    if np.abs(_reduced(a, m, lam) - np.diag([a1, a2])).max() > RTOL:
        raise InconsistentLambda(lam1, lam2, f"reduced matrix is not {shape} with (a1, a2)")

    return ReducedParams(walk_type, lam, complex(a1), complex(a2), abs(lam1 - lam2))


def type1_params(coin: CoinMatrix) -> ReducedParams:
    """Classify a coin as Type 1 and extract (lambda, a1, a2).

    Succeeds iff -C/a13 and -D/a31 agree within ``RTOL`` and lie on the unit
    circle.  The returned a1, a2 are the closed-form diagonal entries; as a
    guard, the reduced matrix at lambda is recomputed and must actually be
    diagonal with those entries.
    """
    return _classify(coin, WalkType.TYPE1)


def type2_params(coin: CoinMatrix) -> ReducedParams:
    """Classify a coin as Type 2 and extract (lambda, a1, a2).

    Succeeds iff B/a11 and E/a33 agree within ``RTOL``, lie on the unit
    circle, and lambda^2 = a1 a2 within ``RTOL``.  The last condition is what
    closes the anti-diagonal two-step recursion; SquareConditionFailed
    carries the computed lambda, a1, a2 so callers can report them.
    """
    return _classify(coin, WalkType.TYPE2)
