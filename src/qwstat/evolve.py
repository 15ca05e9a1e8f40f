"""Brute-force time evolution: the oracle the closed forms are checked against.

One step sends the state Psi to

    Psi'(x) = P Psi(x+1) + R Psi(x) + Q Psi(x-1)

with P, R, Q the row split of the coin.  On a cycle the neighbor indices
wrap and the step is exactly unitary; on a window, amplitude stepping
outside is dropped (tracked as leaked norm) and only interior sites evolve
as they would on the full line.

``step`` applies this operator to a ``WaveState`` and is the reference.
``verify_stationary`` runs the same recursion through a private in-place
kernel on one channel-major copy of the state, and the tests require it to
agree with a loop of ``step`` calls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coin import CoinMatrix
from .errors import WindowTooSmall
from .reduced import _check_unimodular
from .state import Cycle, WaveState, Window

__all__ = ["step", "eigen_residual", "StationarityReport", "verify_stationary"]


def step(coin: CoinMatrix, state: WaveState) -> WaveState:
    """Apply the walk operator once."""
    amps = state.amplitudes
    a = coin.matrix
    if isinstance(state.topology, Cycle):
        up = np.roll(amps, -1, axis=0)
        down = np.roll(amps, 1, axis=0)
    else:
        pad = np.zeros((1, 3), dtype=np.complex128)
        up = np.vstack([amps[1:], pad])
        down = np.vstack([pad, amps[:-1]])
    out = np.empty_like(amps)
    out[:, 0] = up @ a[0]
    out[:, 1] = amps @ a[1]
    out[:, 2] = down @ a[2]
    return WaveState(state.topology, out)


def eigen_residual(coin: CoinMatrix, state: WaveState, lam: complex) -> float:
    """Max pointwise residual of the eigenvalue relation (step Psi)(x) = lam Psi(x).

    All sites are checked on a cycle; on a window only the interior
    -W+1..W-1, where one step agrees with the full-line operator.  The max
    norm localizes a violation to a site instead of smearing it.
    """
    lam = complex(lam)
    _check_unimodular(lam)
    diff = step(coin, state).amplitudes - lam * state.amplitudes
    if isinstance(state.topology, Window):
        diff = diff[1:-1]
    return float(np.abs(diff).max())


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of evolving a state and watching its measure.

    ``interior`` is the (lo, hi) site range the drift was checked on at the
    final step; on a window it shrinks by one site per step from each end.
    ``leaked_norm`` is the total squared amplitude absorbed at window edges
    (about zero on cycles).
    """

    steps: int
    max_measure_drift: float
    interior: tuple[int, int]
    leaked_norm: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "steps": self.steps,
            "max_measure_drift": self.max_measure_drift,
            "interior": list(self.interior),
            "leaked_norm": self.leaked_norm,
            "tol": self.tol,
            "passed": self.passed,
        }


def verify_stationary(
    coin: CoinMatrix,
    state: WaveState,
    n_steps: int,
    tol: float = 1e-9,
) -> StationarityReport:
    """Evolve n_steps times and record the worst measure drift from step 0.

    On a window the comparison at step k is restricted to sites
    -W+k..W-k, the region boundary truncation cannot have reached, and
    n_steps must stay below the half-width.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    topo = state.topology
    windowed = isinstance(topo, Window)
    if windowed and n_steps >= topo.half_width:
        raise WindowTooSmall(n_steps, topo.half_width)

    drifts, norm0, norm = _drift_trace(coin.matrix, state.amplitudes, n_steps, windowed)
    drift = float(drifts.max())  # NaN propagates, so a NaN state cannot pass
    leaked = float(np.maximum(norm0 - norm, 0.0))  # clamps round-off, keeps a NaN
    if windowed:
        interior = (-topo.half_width + n_steps, topo.half_width - n_steps)
    else:
        interior = (0, topo.n - 1)
    return StationarityReport(
        steps=n_steps,
        max_measure_drift=drift,
        interior=interior,
        leaked_norm=leaked,
        tol=float(tol),
        passed=drift <= tol,
    )


def _drift_trace(
    a: np.ndarray, amps: np.ndarray, n_steps: int, windowed: bool
) -> tuple[np.ndarray, float, float]:
    """Evolve a copy of amps n_steps times; return the drift of each step and
    the squared norm before the first step and after the last.

    The copy is channel-major, x[c] holding channel c on every site, so one
    step is the product A x followed by shifting the left-mover row one site
    down and the right-mover row one site up.  Drift at step k is the max of
    |mu_k - mu_0| over the sites step k cannot reach from a window's edge.
    """
    n = amps.shape[0]
    x = amps.T.copy()
    y = np.empty_like(x)
    sq = np.empty(x.shape)
    mu = np.empty(n)
    dev = np.empty(n)

    def measure() -> np.ndarray:
        np.abs(x, out=sq)
        np.square(sq, out=sq)
        return sq.sum(axis=0, out=mu)

    mu0 = measure().copy()
    drifts = np.empty(n_steps)
    for k in range(1, n_steps + 1):
        np.matmul(a, x, out=y)
        x[0, :-1] = y[0, 1:]
        x[1] = y[1]
        x[2, 1:] = y[2, :-1]
        if windowed:
            x[0, -1] = 0.0
            x[2, 0] = 0.0
            lo, hi = k, n - k
        else:
            x[0, -1] = y[0, 0]
            x[2, 0] = y[2, -1]
            lo, hi = 0, n
        measure()
        d = dev[: hi - lo]
        np.subtract(mu[lo:hi], mu0[lo:hi], out=d)
        np.abs(d, out=d)
        drifts[k - 1] = d.max()
    return drifts, float(mu0.sum()), float(mu.sum())
