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
kernel keeps each step's state in a slot of six real rows, the real and
imaginary parts of the three channels, with a ghost cell at each end of a
row.  A step is one real matmul of the coin's 6x6 real form that writes
channel c of A x c - 1 sites to the right, which applies the shifts
without copying.  Windows and small cycles run in a ring of slots whose
measures and drifts are reduced once per block of steps, as many states
as fit in ``BUDGET`` bytes; large cycles run in tiles small enough to stay
in cache, each evolved alone with a halo as wide as the run is long.
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
# small states run many steps per reduction, large ones one.  On a 2-core
# Xeon, budgets below 128 KiB were slower at N = 401.  Bare _ring_trace
# loops took 0.76-0.81x the time with 384-768 KiB at N = 401, 1001 (windows)
# and 2000 (a cycle), and 1.39x with 1 MiB at N = 401; cli_small's commands
# took 5.8-6.7% more wall time with 512 KiB and 2.8-3.3% less with 384 KiB.
BUDGET = 128 * 1024

# Cycles of at least TILES_FROM sites evolve in tiles that own TILE sites
# or more (see _tile_trace), smaller ones in the ring.  Timed with Grover
# and 100 steps on a 2-core Xeon with 2 MiB of L2 per core: the ring took
# 14.4, 18.9, 25.0, 94.9 and 365 ms at N = 20 001, 24 000, 30 003, 99 999
# and 300 000, tiles of 8192 sites 14.1, 15.6, 20.3, 78.4 and 212 ms;
# tiles of 2048 or 4096 sites were slower at every size, and tiles of
# 12 288 or 16 384 no faster.  At 1000 steps and N = 99 999 the ring took
# 981 ms, tiles of 8192 sites 818 ms and of 16 384 sites 755 ms, so long
# runs widen their tiles (_tile_width).
TILES_FROM = 24_000
TILE = 8192


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
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite residual, no warning
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

    A cycle of at least TILES_FROM sites, and of two tiles or more, runs
    in tiles (_tile_trace), whose working set stays in cache; smaller
    cycles and every window run in the ring (_ring_trace).  Both give the
    same bits.
    """
    width = _tile_width(n_steps)
    if not windowed and amps.shape[0] >= max(TILES_FROM, 2 * width):
        return _tile_trace(a, amps, mu0, n_steps, width)
    return _ring_trace(a, amps, mu0, n_steps, windowed)


def _slots(buf: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Views of the rows of a (count, 6 (n+2) + 3) or wider real array as
    count slots of one state of n sites each.

    A slot holds six rows, the real and imaginary parts of the left, stay
    and right channels, each with sites 1..n between two ghost cells.  A
    step is one matmul of the coin's real form, batched by output channel,
    into a (3, 2, n) view of the next slot whose channel c starts c sites
    further right (the stride between channels is one row pair plus one
    value), so that left(j) = y0(j+1), stay(j) = y1(j) and right(j) =
    y2(j-1).  The matmul never writes left at the last site or right at
    the first: on a cycle the ring copies them from the ghost cells, which
    hold the values that wrap, and on a window it keeps them at zero.

    Returns the matmul targets, the states, the two cells the matmul misses
    and the two ghost cells that wrap to them.
    """
    count, row = len(buf), n + 2
    buf = buf[:, : 6 * row + 3]  # + 3: a slot splits into 3 x (2 rows + 1)
    rows = buf[:, : 6 * row].reshape(count, 6, row)
    return (
        buf.reshape(count, 3, 2 * row + 1)[:, :, : 2 * row].reshape(count, 3, 2, row)[:, :, :, :n],
        rows[:, :, 1 : n + 1],
        rows[:, 0:2, n],
        rows[:, 4:6, 1],
        rows[:, 0:2, 0],
        rows[:, 4:6, n + 1],
    )


def _ring_trace(
    a: np.ndarray, amps: np.ndarray, mu0: np.ndarray, n_steps: int, windowed: bool
) -> tuple[np.ndarray, np.ndarray]:
    """_drift_trace with every step in its own slot (see _slots) of a ring,
    step 0 in the last slot.  On a window the slots keep the zeros they
    were made with where no matmul writes, once step 0's are cleared.

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
    halves = [_slots(np.zeros((block, 6 * row + 3)), n) for _ in range(2)]
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


def _tile_width(n_steps: int) -> int:
    """Sites a tile owns: TILE, or more where its halos, 2 n_steps sites,
    would cost more than an eighth of its work."""
    return max(TILE, 16 * n_steps)


def _tile_trace(
    a: np.ndarray, amps: np.ndarray, mu0: np.ndarray, n_steps: int, width: int
) -> tuple[np.ndarray, np.ndarray]:
    """_drift_trace on a cycle, in tiles of ``width`` sites (the last one
    shorter) that each evolve alone.

    A tile evolves its own sites with n_steps sites on each side, gathered
    with wrap, in two slots (see _slots) that alternate.  A step moves
    amplitude one site, so after k <= n_steps steps the tile's own sites
    are those of the whole cycle, bit for bit: what the two ends of the
    slot hold, the step-0 values or an earlier tile's in the cells no
    matmul writes, never reaches them.  Measures and drifts are taken on
    the own sites only, and each step's drift is the max over tiles, NaN if
    any tile's is.  The final measure of each tile's own sites is written
    in place.
    """
    n = amps.shape[0]
    halo = n_steps
    buf = np.zeros((2, 6 * (width + 2 * halo + 2) + 3))
    r = _real_form(a)
    mu = np.empty(n)  # the measure of the step last taken, on the tiles done
    d = np.empty(width)
    drifts = np.zeros(n_steps)  # drifts are >= 0 or NaN, which maximum keeps
    tile_drifts = np.empty(n_steps)
    for first in range(0, n, width):
        own = min(width, n - first)
        span = own + 2 * halo
        out, state = _slots(buf, span)[:2]
        x = state[0]
        _gather(x, amps, first - halo)
        m = mu[first : first + own]
        base = mu0[first : first + own]
        dk = d[:own]
        for k in range(1, n_steps + 1):  # step k goes to slot k % 2
            np.matmul(r, x, out=out[k % 2])
            x = state[k % 2]
            own_rows = x[:, halo : halo + own]
            np.einsum("ij,ij->j", own_rows, own_rows, out=m)
            np.subtract(m, base, out=dk)
            np.abs(dk, out=dk)
            tile_drifts[k - 1] = dk.max()
        np.maximum(drifts, tile_drifts, out=drifts)
    return drifts, mu


def _gather(x: np.ndarray, amps: np.ndarray, start: int) -> None:
    """Fill the (6, span) rows x with the sites start, start + 1, ... of
    amps, wrapping round the cycle, without a temporary copy."""
    n = amps.shape[0]
    j = 0
    while j < x.shape[1]:
        s = (start + j) % n
        count = min(x.shape[1] - j, n - s)
        x[0::2, j : j + count] = amps[s : s + count].real.T
        x[1::2, j : j + count] = amps[s : s + count].imag.T
        j += count
