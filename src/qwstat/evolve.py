"""Brute-force time evolution: the oracle the closed forms are checked against.

One step sends the state Psi to

    Psi'(x) = P Psi(x+1) + R Psi(x) + Q Psi(x-1)

with P, R, Q the row split of the coin.  On a cycle the neighbor indices
wrap and the step is exactly unitary; on a window, amplitude stepping
outside is dropped (tracked as leaked norm) and only interior sites evolve
as they would on the full line.

``step`` applies this operator to a ``WaveState`` and is the reference.
``verify_stationary`` runs the same recursion through a private kernel,
and the tests require it to agree with a loop of ``step`` calls.  The
kernel keeps each step's state channel-major in its own slot of a ring
buffer, with a ghost column at each end of a slot: the product A x is
written into a slot's sites, and the next step reads the slot through a
view whose rows are offset by one site each, which applies the shifts
without copying.  The ghost cells hold the wrapped amplitudes on a cycle
and zero on a window.  Measures and drifts are reduced once per block of
steps, where a block is as many states as fit in ``BUDGET`` bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coin import CoinMatrix
from .errors import WindowTooSmall
from .reduced import _check_unimodular
from .state import Cycle, WaveState, Window

__all__ = ["step", "eigen_residual", "StationarityReport", "verify_stationary"]

# Bytes of step states one block of _drift_trace may hold (48 per site):
# small states run many steps per reduction, large ones one.  Timed at
# N = 30, 81, 401, 2000 and 99 999 with budgets of 16 KiB to 2 MiB on a
# 2-core Xeon: smaller budgets were slower at N = 401, larger ones no
# faster, and they cost memory.
BUDGET = 128 * 1024


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
    ``worst_step`` is the 1-based step with the largest drift: the first
    one on ties, and the first step whose drift is NaN if there is one.
    ``leaked_norm`` is the total squared amplitude absorbed at window edges
    (about zero on cycles).
    """

    steps: int
    max_measure_drift: float
    worst_step: int
    interior: tuple[int, int]
    leaked_norm: float
    tol: float
    passed: bool

    def as_dict(self) -> dict:
        return {
            "schema": 1,
            "steps": self.steps,
            "max_measure_drift": self.max_measure_drift,
            "worst_step": self.worst_step,
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
        worst_step=int(np.argmax(drifts)) + 1,  # argmax stops at the first NaN
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

    Every step's state gets its own slot of a (block, 3, N+2) array: row c
    of a slot holds channel c of the product y = A x on sites 1..N, with one
    ghost column at each end.  The next step reads a slot through a view that
    starts each row c one site later than the row before, so that row c at
    site j sees y_c(j+1-c): left(j) = y0(j+1), stay(j) = y1(j) and
    right(j) = y2(j-1).  The two ghost cells that view reaches, row 0 past
    the last site and row 2 before the first, hold the wrapped values on a
    cycle and zero on a window, so a step is one matmul and two scalar stores.

    Steps are reduced a block at a time: one pass over the block's slots
    gives each step's measure and its drift, the max of |mu_k - mu_0| over
    the sites step k cannot reach from a window's edge.  A block holds at
    most BUDGET bytes of states.  Two such arrays form a ring: blocks
    alternate between them, the last slot of one feeding the first slot of
    the next, so nothing is copied back.  At large N a block is one step,
    and the two arrays hold no more than the two states a step needs.  They
    are two arrays, not one buffer, so that none is larger than a state:
    glibc's malloc raises its mmap threshold to the largest block it has
    unmapped, and a 2-state buffer raised the peak RSS of a run of
    N = 99 999 verifies by about 2 MB.
    """
    n = amps.shape[0]
    if windowed:  # each site's distance from the nearer edge, 4 bytes a site
        edge_distance = np.arange(n, dtype=np.int32)
        np.minimum(edge_distance, edge_distance[::-1], out=edge_distance)
    block = max(1, min(n_steps, BUDGET // (48 * n)))
    halves = []
    for _ in range(2):
        buf = np.zeros((block, 3, n + 2), dtype=np.complex128)
        state = buf.reshape(block, 3 * (n + 2))[:, 2 : 2 + 3 * (n + 1)]
        halves.append(
            (
                buf[:, :, 1 : n + 1],  # where A x is written
                state.reshape(block, 3, n + 1)[:, :, :n],  # the shifted states
                buf[:, 0, n + 1],  # the ghost cells the states read ...
                buf[:, 2, 0],
                buf[:, 0, 1],  # ... and the sites they wrap to on a cycle
                buf[:, 2, n],
            )
        )
    sq = np.empty((block, 3, n))
    mu = np.empty((block, n))

    def measure(states: np.ndarray) -> np.ndarray:
        """Measures of a (count, 3, N) stack of states, in mu[:count]."""
        s = sq[: len(states)]
        np.abs(states, out=s)
        np.square(s, out=s)
        return np.add.reduce(s, axis=1, out=mu[: len(states)])

    x = halves[1][1][-1]  # step 0 sits in the last slot of the second half
    x[...] = amps.T
    mu0 = measure(x[None])[0].copy()
    drifts = np.empty(n_steps)
    for k0 in range(0, n_steps, block):
        count = min(block, n_steps - k0)
        out, state, right_ghost, left_ghost, first_site, last_site = halves[k0 // block % 2]
        for slot, y, nxt in zip(range(count), out, state):
            np.matmul(a, x, out=y)
            if windowed:
                right_ghost[slot] = 0.0
                left_ghost[slot] = 0.0
            else:
                right_ghost[slot] = first_site[slot]
                left_ghost[slot] = last_site[slot]
            x = nxt
        d = measure(state[:count])
        np.subtract(d, mu0, out=d)
        np.abs(d, out=d)
        if windowed:  # step k is compared on the sites k or more from an edge
            inside = np.less_equal.outer(np.arange(k0 + 1, k0 + count + 1), edge_distance)
            np.maximum.reduce(d, axis=1, out=drifts[k0 : k0 + count], where=inside, initial=0.0)
        else:
            np.maximum.reduce(d, axis=1, out=drifts[k0 : k0 + count])
    return drifts, float(mu0.sum()), float(measure(x[None])[0].sum())
