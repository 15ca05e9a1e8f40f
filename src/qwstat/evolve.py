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
kernel keeps each step's state in its own slot of a ring buffer as six
real rows, the real and imaginary parts of the three channels, with a
ghost cell at each end of a row.  A step is one real matmul of the coin's
6x6 real form that writes channel c of A x c - 1 sites to the right, which
applies the shifts without copying.  Measures and drifts are reduced once
per block of steps, as many states as fit in ``BUDGET`` bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coin import CoinMatrix
from .errors import WindowTooSmall
from .reduced import _check_unimodular
from .state import Cycle, WaveState, Window
from .tolerance import DRIFT_TOL, MIN_SCALE

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
    cyclic = isinstance(state.topology, Cycle)
    # Each channel is one product of every site's triple with a coin row,
    # shifted as it is stored: left(x) takes row 0 at x + 1, right(x) row 2
    # at x - 1, and the site past an edge wraps on a cycle and is 0 on a
    # window.  Each site's product is the one a shifted copy of amps gives,
    # bit for bit, without the copy.
    out = np.empty_like(amps)
    out[:, 1] = amps @ a[1]
    moved = amps @ a[0]
    out[:-1, 0] = moved[1:]
    out[-1, 0] = moved[0] if cyclic else 0.0
    moved = amps @ a[2]
    out[1:, 2] = moved[:-1]
    out[0, 2] = moved[-1] if cyclic else 0.0
    return WaveState._adopt(state.topology, out)


class EigenResidual(float):
    """A float residual that also names ``site``, the site label it was found
    at, and carries the ``relative`` residual and its ``relative_site``."""

    site: int
    relative: float
    relative_site: int

    def __new__(cls, value: float, site: int, relative: float, relative_site: int) -> EigenResidual:
        residual = super().__new__(cls, value)
        residual.site = site
        residual.relative = relative
        residual.relative_site = relative_site
        return residual


def _max3(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The elementwise max of three arrays, NaN if any is: of three columns,
    far faster than ``max(axis=1)``."""
    return np.maximum(np.maximum(a, b), c)


def eigen_residual(coin: CoinMatrix, state: WaveState, lam: complex) -> EigenResidual:
    """Max pointwise residual of the eigenvalue relation (step Psi)(x) = lam Psi(x).

    All sites are checked on a cycle; on a window only the interior
    -W+1..W-1, where one step agrees with the full-line operator.  The max
    norm localizes a violation to a site instead of smearing it: the float
    returned carries that site's label as ``site`` (the first site on ties,
    and the first NaN if there is one).

    ``relative`` is the largest residual of a site, over its channels,
    divided by the largest |Psi| over the channels of x-1..x+1 (wrapping on
    a cycle), the amplitudes one step can move to x; 0/0 counts as 0.  It
    sees a defect where the weight is small, which the absolute residual
    hides next to large seeds.  ``relative_site`` is found as ``site`` is.
    """
    lam = complex(lam)
    _check_unimodular(lam)
    with np.errstate(invalid="ignore"):  # a non-finite state gives a NaN residual
        stepped = step(coin, state).amplitudes
        diff = lam * state.amplitudes  # the difference goes here: step does not own it
        np.subtract(stepped, diff, out=diff)
    del stepped  # so that at most two state-sized arrays are alive at once
    diff = np.abs(diff)
    moduli = np.abs(state.amplitudes)
    near = _max3(moduli[:, 0], moduli[:, 1], moduli[:, 2])  # the largest |psi| at each site
    del moduli
    # x-1..x+1, wrapping on a cycle; a window's ends are not checked
    ring = np.concatenate((near[-1:], near, near[:1]))
    cone = _max3(ring[:-2], ring[1:-1], ring[2:])
    sites = state.sites
    if isinstance(state.topology, Window):
        diff, cone, sites = diff[1:-1], cone[1:-1], sites[1:-1]
    worst = int(np.argmax(diff))  # argmax stops at the first NaN, as max propagates it
    own = _max3(diff[:, 0], diff[:, 1], diff[:, 2])
    relative = np.divide(own, cone, out=np.zeros_like(own), where=own != 0)
    worst_relative = int(np.argmax(relative))
    return EigenResidual(
        diff.flat[worst], int(sites[worst // 3]), float(relative[worst_relative]), int(sites[worst_relative])
    )


@dataclass(frozen=True)
class StationarityReport:
    """Outcome of evolving a state and watching its measure.

    ``interior`` is the (lo, hi) site range the drift was checked on at the
    final step; on a window it shrinks by one site per step from each end.
    ``worst_step`` is the 1-based step with the largest drift: the first
    one on ties, and the first step whose drift is NaN if there is one.  It
    locates a defect only when the check fails: on an exact eigenstate the
    drifts are round-off, and which step holds the largest can change with
    the order of the floating-point operations.
    ``leaked_norm`` is the total squared amplitude absorbed at window edges
    (about zero on cycles), and ``leaked_fraction`` is its share of the
    initial squared norm (0 for a zero state, NaN if either is NaN), which
    does not grow with the seeds.  ``max_measure_drift`` is absolute;
    ``tol`` is relative to ``scale``, the largest weight max(mu_0) over all
    sites at step 0, and the check passed iff the initial squared norm is
    finite, the scale is normal for a nonzero state, and the drift is at
    most tol * scale.
    """

    steps: int
    max_measure_drift: float
    worst_step: int
    interior: tuple[int, int]
    leaked_norm: float
    leaked_fraction: float
    tol: float
    scale: float
    passed: bool


def verify_stationary(
    coin: CoinMatrix,
    state: WaveState,
    n_steps: int,
    tol: float = DRIFT_TOL,
) -> StationarityReport:
    """Evolve n_steps times and record the worst measure drift from step 0.

    The check passes iff the drift is at most ``tol * max(mu_0)``, so its
    answer does not depend on the scale of the seeds.  A zero state must not
    drift at all; a NaN, infinite or underflowed max(mu_0), or an infinite
    squared norm, always fails.

    On a window the comparison at step k is restricted to sites
    -W+k..W-k, the region boundary truncation cannot have reached, and
    n_steps must stay below the half-width.
    """
    if n_steps < 1:
        raise ValueError(f"n_steps must be >= 1, got {n_steps}")
    tol = float(tol)
    topo = state.topology
    windowed = isinstance(topo, Window)
    if windowed and n_steps >= topo.half_width:
        raise WindowTooSmall(n_steps, topo.half_width)

    mu0 = state._weights()  # the weights the state keeps: no step-0 pass of its own
    # a non-finite state, or one whose squared norm overflows, fails the check below
    with np.errstate(over="ignore", invalid="ignore"):
        drifts, mu = _drift_trace(coin.matrix, state.amplitudes, mu0, n_steps, windowed)
        norm0, norm = float(mu0.sum()), float(mu.sum())
    scale = float(mu0.max())  # NaN if any weight is
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
        leaked_fraction=leaked / norm0 if norm0 else leaked,  # a zero state leaks 0
        tol=tol,
        scale=scale,
        # an overflowed state would pass inf <= inf, an underflowed one 0 <= 0,
        # and one whose squared norm overflows reports NaN leaks; the squared
        # norm is finite iff every weight is and their sum does not overflow
        passed=math.isfinite(norm0) and drift <= tol * scale
        and (scale >= MIN_SCALE or not state.amplitudes.any()),
    )


def _real_form(a: np.ndarray) -> np.ndarray:
    """The coin as a real (3, 2, 6) operand: entry [c, p, 2d + q] maps part q
    (0 real, 1 imaginary) of input channel d to part p of output channel c,
    so that the rows (re x0, im x0, re x1, im x1, re x2, im x2) give A x."""
    r = np.empty((3, 2, 3, 2))
    r[:, 0, :, 0] = a.real
    r[:, 0, :, 1] = -a.imag
    r[:, 1, :, 0] = a.imag
    r[:, 1, :, 1] = a.real
    return r.reshape(3, 2, 6)


def _drift_trace(
    a: np.ndarray, amps: np.ndarray, mu0: np.ndarray, n_steps: int, windowed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """Evolve a copy of amps n_steps times; return the drift of each step
    from mu0, the measure of amps, and the measure after the last step.
    Each step's measure sums its squares in the order ``WaveState._weights``
    does, so that mu0 may be the state's weights: a step that only moves
    amplitudes leaves them unchanged bit for bit.

    Every step gets its own slot of a (block, 6 (N+2) + 3) real array, step
    0 the last slot of the ring: six rows, the real and imaginary parts of
    the left, stay and right channels, each with sites 1..N between two
    ghost cells.  A step is one matmul of the coin's real
    form, batched by output channel, into a (3, 2, N) view of the next slot
    whose channel c starts c sites further right (the stride between
    channels is one row pair plus one value), so that left(j) = y0(j+1),
    stay(j) = y1(j) and right(j) = y2(j-1).  The matmul never writes left at
    the last site or right at the first: on a cycle they are copied from the
    ghost cells, which hold the values that wrap, and on a window they keep
    the zeros the slot was made with, once step 0's are cleared.

    Steps are reduced a block at a time: one einsum over the block's slots
    gives each step's measure, the sum of squares of its six rows, and one
    pass gives its drift, the max of |mu_k - mu_0| over the sites step k
    cannot reach from a window's edge.  A block holds at most BUDGET bytes
    of states.  Two such arrays form a ring: blocks alternate between them,
    the last slot of one feeding the first slot of the next.  At large N a
    block is one step, and they are two arrays, not one buffer, so that none
    is larger than a state: glibc's malloc raises its mmap threshold to the
    largest block it has unmapped, so each array reuses heap memory that
    freed states left, while a 2-state buffer is mapped afresh and raised
    the peak RSS of one Fourier verify at N = 99 999 from 48.7 to 53.3 MB.
    """
    n = amps.shape[0]
    row = n + 2
    if windowed:  # each site's distance from the nearer edge, 4 bytes a site
        edge_distance = np.arange(n, dtype=np.int32)
        np.minimum(edge_distance, edge_distance[::-1], out=edge_distance)
    block = max(1, min(n_steps, BUDGET // (48 * n)))
    halves = []
    for _ in range(2):
        buf = np.zeros((block, 6 * row + 3))  # + 3: a slot splits into 3 x (2 rows + 1)
        rows = buf[:, : 6 * row].reshape(block, 6, row)
        halves.append(
            (
                # where A x is written: channel c starts c sites further on
                buf.reshape(block, 3, 2 * row + 1)[:, :, : 2 * row]
                .reshape(block, 3, 2, row)[:, :, :, :n],
                rows[:, :, 1 : n + 1],  # the states
                rows[:, 0:2, n],  # the sites the matmul misses ...
                rows[:, 4:6, 1],
                rows[:, 0:2, 0],  # ... and the ghost cells that wrap to them
                rows[:, 4:6, n + 1],
            )
        )
    mu = np.empty((block, n))

    def measure(states: np.ndarray) -> np.ndarray:
        """Measures of a (count, 6, N) stack of states, in mu[:count]."""
        return np.einsum("bij,bij->bj", states, states, out=mu[: len(states)])

    x = halves[1][1][-1]  # step 0 sits in the last slot of the ring
    x[0::2] = amps.real.T
    x[1::2] = amps.imag.T
    r = _real_form(a)
    drifts = np.empty(n_steps)
    for k0 in range(0, n_steps, block):
        count = min(block, n_steps - k0)
        out, state, left_edge, right_edge, left_ghost, right_ghost = halves[k0 // block % 2]
        for slot, y, nxt in zip(range(count), out, state):
            np.matmul(r, x, out=y)
            if not windowed:  # the two values that wrap round the seam
                left_edge[slot] = left_ghost[slot]
                right_edge[slot] = right_ghost[slot]
            x = nxt
        if k0 == 0:  # step 0 is spent: clear the cells of its slot no matmul writes
            halves[1][2][-1] = halves[1][3][-1] = 0.0
        d = measure(state[:count])
        np.subtract(d, mu0, out=d)
        np.abs(d, out=d)
        if windowed:  # step k is compared on the sites k or more from an edge
            inside = np.less_equal.outer(np.arange(k0 + 1, k0 + count + 1), edge_distance)
            np.maximum.reduce(d, axis=1, out=drifts[k0 : k0 + count], where=inside, initial=0.0)
        else:
            np.maximum.reduce(d, axis=1, out=drifts[k0 : k0 + count])
    return drifts, measure(x[None])[0]
