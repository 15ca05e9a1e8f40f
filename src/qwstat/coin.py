"""Three-state coin matrices: construction, validation, and minors.

A coin is a 3x3 complex unitary driving the internal degree of freedom of a
one-dimensional walk.  The three rows feed the left-moving, staying, and
right-moving channels.  Four built-in families are provided:

- :func:`grover` and :func:`fourier`, the two classic coins,
- :func:`stefanak_eta` and :func:`stefanak_rho`, one-parameter deformations
  that both contain the Grover coin as a special point.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonUnitary
from .tolerance import UNITARITY_TOL

__all__ = [
    "CoinMatrix",
    "Minors",
    "make_coin",
    "grover",
    "fourier",
    "stefanak_eta",
    "stefanak_rho",
    "random_coin",
    "minors",
]

_DIGITS = frozenset("123")


@dataclass(frozen=True, eq=False)
class CoinMatrix:
    """A validated 3x3 unitary coin.

    The stored matrix is exactly what the caller supplied; near-unitary input
    is rejected, never re-orthogonalized.  Entries are addressable as ``a11``
    through ``a33`` (1-indexed, row first).  ``family``/``family_param`` tag
    coins built by the family constructors so that family-specific closed
    forms can recognize them.

    Construction raises ValueError for a wrong shape or a non-finite entry,
    and NonUnitary when the max entrywise deviation of A A* from the identity
    exceeds ``UNITARITY_TOL``.
    """

    matrix: np.ndarray
    family: str | None = None
    family_param: float | None = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=np.complex128, order="C")
        if m.shape != (3, 3):
            raise ValueError(f"coin matrix must be 3x3, got shape {m.shape}")
        if not np.all(np.isfinite(m.view(np.float64))):
            raise ValueError("coin matrix contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        dev = self.unitarity_deviation()
        if dev > UNITARITY_TOL:
            raise NonUnitary(dev, UNITARITY_TOL)

    def __getattr__(self, name: str) -> complex:
        # a11 .. a33 read straight from the matrix
        if len(name) == 3 and name[0] == "a" and name[1] in _DIGITS and name[2] in _DIGITS:
            return complex(self.matrix[int(name[1]) - 1, int(name[2]) - 1])
        raise AttributeError(name)

    def unitarity_deviation(self) -> float:
        """Max entrywise deviation of A A* from the identity."""
        return float(np.abs(self.matrix @ self.matrix.conj().T - np.eye(3)).max())


@dataclass(frozen=True)
class Minors:
    """The four 2x2 determinants of coin submatrices used by the reduction.

    B and E come from the top-left and bottom-right corner blocks, C and D
    from the blocks straddling the middle row and column:

        B = a11 a22 - a12 a21      C = a12 a23 - a13 a22
        D = a21 a32 - a22 a31      E = a22 a33 - a23 a32
    """

    B: complex
    C: complex
    D: complex
    E: complex


def make_coin(
    entries, *, family: str | None = None, family_param: float | None = None
) -> CoinMatrix:
    """The coin with these entries (anything ``np.asarray`` turns into a 3x3
    complex matrix), validated and stored as CoinMatrix describes."""
    return CoinMatrix(entries, family=family, family_param=family_param)


def grover() -> CoinMatrix:
    """The 3x3 Grover coin.

        (1/3) [ -1  2  2 ]
              [  2 -1  2 ]
              [  2  2 -1 ]
    """
    m = np.array([[-1, 2, 2], [2, -1, 2], [2, 2, -1]], dtype=np.complex128) / 3.0
    return make_coin(m, family="grover")


def fourier() -> CoinMatrix:
    """The 3x3 Fourier coin.

        (1/sqrt 3) [ 1   1    1  ]
                   [ 1   w    w2 ]      w = exp(2 pi i / 3)
                   [ 1   w2   w  ]
    """
    w = cmath.exp(2j * cmath.pi / 3)
    m = np.array([[1, 1, 1], [1, w, w * w], [1, w * w, w]], dtype=np.complex128) / math.sqrt(3.0)
    return make_coin(m, family="fourier")


def stefanak_eta(eta: float) -> CoinMatrix:
    """One-parameter coin family A1(eta), eta in [0, 2 pi).

        (1/6) [ -1-e      2(1+e)    5-e    ]
              [ 2(1+e)    2(1-2e)   2(1+e) ]      e = exp(2 i eta)
              [ 5-e       2(1+e)    -1-e   ]

    eta = 0 (and any multiple of pi, since e has period pi in eta) gives
    the Grover coin.
    """
    e = cmath.exp(2j * float(eta))
    m = np.array(
        [
            [-1 - e, 2 * (1 + e), 5 - e],
            [2 * (1 + e), 2 * (1 - 2 * e), 2 * (1 + e)],
            [5 - e, 2 * (1 + e), -1 - e],
        ],
        dtype=np.complex128,
    ) / 6.0
    return make_coin(m, family="stefanak-eta", family_param=float(eta))


def stefanak_rho(rho: float) -> CoinMatrix:
    """One-parameter coin family A2(rho), rho strictly inside (0, 1).

        [ -rho^2    q          1-rho^2 ]
        [ q         2 rho^2-1  q       ]      q = rho sqrt(2 (1-rho^2))
        [ 1-rho^2   q          -rho^2  ]

    rho = 1/sqrt(3) gives the Grover coin.  The endpoints 0 and 1 are
    excluded: there q vanishes and the coin acquires zero entries.
    """
    rho = float(rho)
    if not 0.0 < rho < 1.0:
        raise DomainError(f"rho must be strictly inside (0, 1), got {rho!r}")
    q = rho * math.sqrt(2.0 * (1.0 - rho * rho))
    r2 = rho * rho
    m = np.array(
        [[-r2, q, 1 - r2], [q, 2 * r2 - 1, q], [1 - r2, q, -r2]],
        dtype=np.complex128,
    )
    return make_coin(m, family="stefanak-rho", family_param=rho)


def random_coin(rng: np.random.Generator | None = None) -> CoinMatrix:
    """Haar-random 3x3 unitary coin (QR of a complex Ginibre matrix)."""
    rng = rng or np.random.default_rng()
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    q, r = np.linalg.qr(z)
    q = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    return make_coin(q)


def minors(coin: CoinMatrix) -> Minors:
    """The four corner/cross 2x2 determinants of the coin."""
    return _minors(coin.matrix)


def _minors(a: np.ndarray) -> Minors:
    """The minors of a 3x3 array, which need not be a validated coin."""
    return Minors(
        B=complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0]),
        C=complex(a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]),
        D=complex(a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0]),
        E=complex(a[1, 1] * a[2, 2] - a[1, 2] * a[2, 1]),
    )
