"""Exception types shared across the package."""

from __future__ import annotations

__all__ = [
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


class QWalkError(Exception):
    """Base class for every error this package raises on purpose."""


class NonUnitary(QWalkError):
    """Matrix failed the unitarity check A A* = I."""

    def __init__(self, max_deviation: float, tol: float):
        self.max_deviation = float(max_deviation)
        self.tol = float(tol)
        super().__init__(
            f"matrix is not unitary: max |A A* - I| = {self.max_deviation:.3e}"
            f" exceeds tol {self.tol:.1e}"
        )


class DomainError(QWalkError, ValueError):
    """Coin family parameter outside its valid domain."""


class ZeroEntry(QWalkError):
    """A coin entry is (numerically) zero where the reduction needs it nonzero."""

    def __init__(self, row: int, col: int):
        self.row = int(row)
        self.col = int(col)
        super().__init__(f"coin entry a{self.row}{self.col} is zero; all nine entries must be nonzero")


class CentralReflection(QWalkError):
    """|a22| = 1: the stay amplitude decouples and eliminating it is impossible."""

    def __init__(self, abs_a22: float):
        self.abs_a22 = float(abs_a22)
        super().__init__(f"|a22| = {self.abs_a22!r} is too close to 1")


class NonUnimodularLambda(QWalkError):
    """Candidate eigenvalue does not lie on the unit circle."""

    def __init__(self, lam: complex):
        self.lam = complex(lam)
        super().__init__(f"lambda = {self.lam!r} has modulus {abs(self.lam)!r}, expected 1")


class InconsistentLambda(QWalkError):
    """The two defining expressions for the eigenvalue disagree."""

    def __init__(self, lam1: complex, lam2: complex, detail: str = ""):
        self.lam1 = complex(lam1)
        self.lam2 = complex(lam2)
        msg = f"eigenvalue candidates disagree: {self.lam1!r} vs {self.lam2!r}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)


class SquareConditionFailed(QWalkError):
    """lambda^2 != a1*a2, so the anti-diagonal recursion has no solution."""

    def __init__(self, lam: complex, a_tilde_1: complex, a_tilde_2: complex):
        self.lam = complex(lam)
        self.a_tilde_1 = complex(a_tilde_1)
        self.a_tilde_2 = complex(a_tilde_2)
        self.lam_squared = self.lam * self.lam
        self.product = self.a_tilde_1 * self.a_tilde_2
        super().__init__(
            f"lambda^2 = {self.lam_squared!r} differs from a1*a2 = {self.product!r}"
            f" by {abs(self.lam_squared - self.product):.3e}"
        )


class DegenerateSeeds(QWalkError):
    """The seeds are zero on every site the topology reads: the state would be zero."""


class NoCycleClosure(QWalkError):
    """A nonzero Type 1 seed's profile misses closing on the cycle: e^{i n k} != 1."""

    def __init__(self, n: int, momentum: float, mismatch: float):
        self.n = int(n)
        self.momentum = float(momentum)
        self.mismatch = float(mismatch)
        super().__init__(
            f"the Type 1 state does not close on a cycle of {self.n} sites:"
            f" momentum k = {self.momentum!r} gives |e^(i n k) - 1| = {self.mismatch:.3e}"
        )


class TypeMismatch(QWalkError):
    """Classification result passed to a constructor of the other walk type."""


class TanSingularity(QWalkError):
    """cos(eta) is zero, so tan(eta) in the closed-form measure blows up."""


class UnsupportedFamily(QWalkError):
    """Closed-form measure requested for a coin without one."""


class WindowTooSmall(QWalkError):
    """Window cannot causally shield the requested number of steps."""

    def __init__(self, n_steps: int, half_width: int):
        self.n_steps = int(n_steps)
        self.half_width = int(half_width)
        super().__init__(
            f"{self.n_steps} steps need a window wider than {self.half_width}"
            " (boundary effects reach the checked interior)"
        )
