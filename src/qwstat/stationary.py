"""Closed-form eigenstates of the walk operator and their measures.

Given a successful classification (see :mod:`qwstat.reduced`), an eigenstate
of the walk operator can be written down explicitly:

- Type 1: the left and right amplitudes are geometric in the site,
  ``left(x) = (lam/a1)^x phi1`` and ``right(x) = (a2/lam)^x phi3``, for any
  seed pair (phi1, phi3) not both zero.  Both ratios are unimodular, so the
  profile never grows.
- Type 2: the left amplitude is an arbitrary not-identically-zero sequence
  phi_x and ``right(x) = (lam/a1) phi_{x-1}``.

In both cases the stay amplitude is determined by the other two:
``stay(x) = (a21 left(x) + a23 right(x)) / (lam - a22)``.  The site measure
of any such state is stationary under the walk.

A Type 1 state restricts to the cycle of n sites when its profiles close,
``e^{i n k} = 1`` for the momentum k of every nonzero seed; the Fourier
coin's cycles of 3m sites are one case of that rule.  This module also
carries the specific closed-form measures the stefanak_eta / stefanak_rho
families admit and a measure periodicity detector.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

import numpy as np

from .coin import CoinMatrix
from .errors import (
    DegenerateSeeds,
    NoCycleClosure,
    TanSingularity,
    TypeMismatch,
    UnsupportedFamily,
)
from .reduced import ReducedParams, WalkType
from .state import Cycle, Measure, Seeds, Topology, WaveState
from .tolerance import CLOSURE_TOL_PER_SITE, MIN_SCALE, RTOL, TAN_POLE_TOL

__all__ = [
    "type1_state",
    "cycle_restriction",
    "type2_state",
    "measure_of",
    "closed_form_measure_a1",
    "closed_form_measure_type2",
    "detect_period",
]


def _momenta(params: ReducedParams) -> tuple[float, float]:
    """k1 = arg(lam/a1) and k2 = arg(a2/lam).  Built as e^{i k x}, the Type 1
    profiles keep modulus exactly 1 at every (possibly negative) site, which
    plain complex powers of the unimodular ratios do not guarantee."""
    return cmath.phase(params.lam / params.a_tilde_1), cmath.phase(params.a_tilde_2 / params.lam)


def type1_state(
    coin: CoinMatrix,
    params: ReducedParams,
    phi1: complex,
    phi3: complex,
    topology: Topology,
) -> WaveState:
    """Geometric-profile eigenstate of a Type 1 coin from a seed pair."""
    if params.walk_type is not WalkType.TYPE1:
        raise TypeMismatch(f"expected Type 1 parameters, got {params.walk_type}")
    phi1 = complex(phi1)
    phi3 = complex(phi3)
    if not (cmath.isfinite(phi1) and cmath.isfinite(phi3)):
        raise ValueError(f"seeds must be finite, got phi1={phi1!r}, phi3={phi3!r}")

    xs = topology.sites()
    k1, k2 = _momenta(params)
    left = np.exp(1j * k1 * xs) * phi1
    right = np.exp(1j * k2 * xs) * phi3
    return _eigenstate(coin, params.lam, topology, left, right)


def cycle_restriction(
    coin: CoinMatrix, params: ReducedParams, phi1: complex, phi3: complex, n: int
) -> WaveState:
    """The Type 1 eigenstate of a seed pair on the cycle of n sites.

    The profiles ``e^{i k1 x} phi1`` and ``e^{i k2 x} phi3``, with momenta
    k1 = arg(lam/a1) and k2 = arg(a2/lam), close on Cycle(n) exactly when
    ``e^{i n k} = 1`` for every nonzero seed; a zero seed adds no condition.
    Fourier (k1 = 2 pi/3, k2 = 0) closes on 3m sites, Grover and stefanak_rho
    (k1 = k2 = 0) on every n.  Otherwise NoCycleClosure carries n and the
    momentum and seam mismatch ``|e^{i n k} - 1|`` of the worst nonzero seed;
    the unclosed state's eigen residual is the largest |phi| |e^{i n k} - 1|.

    The mismatch may be CLOSURE_TOL_PER_SITE * n, because its rounding error
    grows linearly in n (see :mod:`qwstat.tolerance`).
    """
    state = type1_state(coin, params, phi1, phi3, Cycle(n))
    n = state.topology.n
    mismatch, momentum = max(
        (abs(cmath.exp(1j * k * n) - 1.0), k)
        for seed, k in zip((phi1, phi3), _momenta(params))
        if complex(seed) != 0
    )
    if mismatch > CLOSURE_TOL_PER_SITE * n:
        raise NoCycleClosure(n, momentum, mismatch)
    return state


def type2_state(
    coin: CoinMatrix,
    params: ReducedParams,
    seeds: Seeds | Mapping[int, complex],
    topology: Topology,
) -> WaveState:
    """Sequence-seeded eigenstate of a Type 2 coin.

    ``seeds`` maps sites to left amplitudes; absent sites read as zero.  On
    a window -W..W the value at -W-1 is also consulted (the right amplitude
    lags by one site); on a cycle of N sites only keys 0..N-1 are read and
    the lag wraps.  A :class:`Seeds` is read as it is; any other mapping is
    first copied into one, which requires every value to be finite.
    """
    if params.walk_type is not WalkType.TYPE2:
        raise TypeMismatch(f"expected Type 2 parameters, got {params.walk_type}")

    if not isinstance(seeds, Seeds):
        seeds = Seeds(list(seeds.keys()), list(seeds.values()))
    keys, values = seeds.sites, seeds.values

    # N + 1 slots; slot 0 holds the site before the first: -W-1 on a window,
    # and a copy of site N-1 on a cycle, which reads only keys 0..N-1
    on_cycle = isinstance(topology, Cycle)
    n = topology.n_sites
    slot = keys + (1 if on_cycle else topology.half_width + 1)
    inside = (slot >= 0) & (slot <= n)
    padded = np.zeros(n + 1, dtype=np.complex128)
    padded[slot[inside]] = values[inside]
    if on_cycle:
        padded[0] = padded[n]  # overwrites key -1
    phi, phi_prev = padded[1:], padded[:-1]
    return _eigenstate(coin, params.lam, topology, phi, (params.lam / params.a_tilde_1) * phi_prev)


def _eigenstate(
    coin: CoinMatrix, lam: complex, topology: Topology, left: np.ndarray, right: np.ndarray
) -> WaveState:
    """The eigenstate with these left and right channels and the stay channel
    they determine (see the module docstring), if it is not zero
    (DegenerateSeeds) and every weight is finite.  The fences read the
    weights the state keeps (``WaveState._weights``), which measure_of
    writes and verify_stationary starts from, so no later reader weighs the
    state again.  For
    classified coins 1/(lam - a22) equals -a13/(a12 a23) (Type 1) and
    -a11/(a12 a21) (Type 2) identically.

    Finite seeds can still give a measure that overflows (|1e200|^2), finite
    weights whose sum, the squared norm, overflows, or, for a nonzero state,
    a measure that underflows below MIN_SCALE (|1e-170|^2); no measure,
    drift or residual of such a state means anything, so it is an input
    error here rather than a CSV of inf, a NaN drift or a drift check passed
    on zeros later.
    """
    stay = 1.0 / (lam - coin.a22) * (coin.a21 * left + coin.a23 * right)
    state = WaveState._adopt(topology, np.stack([left, stay, right], axis=1))
    mu = state._weights()
    with np.errstate(over="ignore"):
        norm = mu.sum()
    # a sum of squares is finite iff every square is and the sum does not
    # overflow: the weights are scanned only to name the site
    if not np.isfinite(norm):
        finite = np.isfinite(mu)
        if not finite.all():
            site = topology.sites()[np.argmin(finite)]
            raise ValueError(
                f"seeds too large: the squared modulus of the state overflows at site {site}"
            )
        raise ValueError("seeds too large: the squared norm of the state overflows")
    if mu.max(initial=0.0) < MIN_SCALE:
        if not state.amplitudes.any():
            raise DegenerateSeeds("the seeds give the zero state on this topology")
        raise ValueError("seeds too small: the largest squared modulus of the state underflows")
    return state


def measure_of(state: WaveState) -> Measure:
    """Sitewise squared norm of the state: the weights it keeps (see
    ``WaveState._weights``), checked as every Measure is, not copied.  A
    state with an infinite or NaN weight raises ValueError."""
    return Measure._adopt(state.topology, state._weights())


def closed_form_measure_a1(eta: float, phi1: complex, x: int) -> float:
    """Closed-form Type 1 measure of stefanak_eta(eta) with equal seeds.

    For phi1 = phi3 the measure is

        (2 + (4 + 9 tan^2 eta) T_x(cos xi)^2) |phi1|^2

    where T_x is the Chebyshev polynomial of the first kind, evaluated as
    T_x(cos xi) = cos(x xi), and cos xi = (10 - 26 cos 2 eta) / (26 - 10 cos 2 eta)
    is the real part of the Type 1 eigenvalue.
    """
    eta = float(eta)
    if abs(math.cos(eta)) < TAN_POLE_TOL:
        raise TanSingularity(f"cos(eta) vanishes at eta = {eta!r}")
    c2 = math.cos(2.0 * eta)
    cos_xi = (10.0 - 26.0 * c2) / (26.0 - 10.0 * c2)
    t = math.cos(x * math.acos(cos_xi))
    return (2.0 + (4.0 + 9.0 * math.tan(eta) ** 2) * t * t) * abs(complex(phi1)) ** 2


# Closed-form measures by coin family (Stefanak, Bezdekova and Jex, PRA 90,
# 012342 (2014)).  Type 1: stefanak_eta with equal seeds.  Type 2: the
# coefficients (c_sq, c_cross) of
#     mu(x) = c_sq (|phi_x|^2 + |phi_{x-1}|^2) + c_cross Re(phi_x conj phi_{x-1})
# as a function of the family parameter.
def _rho_coefficients(rho: float) -> tuple[float, float]:
    r2 = float(rho) ** 2
    return (2.0 - r2) / (2.0 * (1.0 - r2)), r2 / (1.0 - r2)


_TYPE1_FAMILIES = ("stefanak-eta",)
_TYPE2_COEFFICIENTS = {
    "grover": lambda _: (1.25, 0.5),
    "stefanak-eta": lambda _: (1.25, 0.5),
    "stefanak-rho": _rho_coefficients,
}


def closed_form_applies(
    coin: CoinMatrix, walk_type: int, phi1: complex, phi3: complex
) -> bool:
    """Whether a closed-form measure exists for this coin, walk type and seeds.

    Type 1: closed_form_measure_a1(coin.family_param, phi1, x), for
    stefanak_eta coins with phi1 = phi3.  Type 2:
    closed_form_measure_type2(coin, seeds, x, topology), for the families
    it supports.  Not exported; the CLI uses it to pick its reference column.
    """
    if walk_type == 2:
        return coin.family in _TYPE2_COEFFICIENTS
    return coin.family in _TYPE1_FAMILIES and phi1 == phi3


def closed_form_measure_type2(
    coin: CoinMatrix,
    seeds: Mapping[int, complex],
    x: int,
    topology: Topology,
) -> float:
    """Closed-form Type 2 measure at site x for the supported families.

    Grover and stefanak_eta share one formula (independent of eta);
    stefanak_rho has rho-dependent coefficients.  ``seeds`` maps sites to
    left amplitudes, absent sites reading as zero; on a cycle the x-1
    lookup wraps.
    """
    coefficients = _TYPE2_COEFFICIENTS.get(coin.family)
    if coefficients is None:
        raise UnsupportedFamily(
            f"no Type 2 closed-form measure for family {coin.family!r}"
        )
    c_sq, c_cross = coefficients(coin.family_param)
    px = complex(seeds.get(topology.wrap(int(x)), 0.0))
    pp = complex(seeds.get(topology.wrap(int(x) - 1), 0.0))
    return c_sq * (abs(px) ** 2 + abs(pp) ** 2) + c_cross * (px * pp.conjugate()).real


def detect_period(measure: Measure) -> int | None:
    """Smallest p, at most half the number of sites, with mu(x + p) = mu(x)
    everywhere, or None.

    Equality is within RTOL relative to max(mu), so the answer does
    not depend on the scale of the seeds; an all-zero measure needs exact
    equality.  p = 1 means the measure is uniform.

    On a cycle of n sites the shifts that leave the measure unchanged form a
    subgroup of Z_n, whose smallest positive element divides n, so only the
    divisors of n are tried.  On a window every p is tried and comparisons
    do not wrap.

    Every shift's compare includes the pairs (k, k + p) and (k - p, k) at the
    sites k of the largest and the smallest weight, so one vectorised pass
    over those pairs drops each shift that differs there by more than the
    tolerance; only the rest get the full compare, and an aperiodic window
    costs linear time, not quadratic.
    """
    v = measure.values
    n = len(v)
    tol = RTOL * v.max(initial=0.0)
    on_cycle = isinstance(measure.topology, Cycle)
    shifts = np.arange(1, n // 2 + 1)
    if on_cycle:
        shifts = shifts[n % shifts == 0]
    far = np.zeros(len(shifts), dtype=bool)
    for k in (v.argmax(), v.argmin()):
        for j in (k + shifts, k - shifts):
            on_topology = on_cycle | ((j >= 0) & (j < n))
            far |= on_topology & (np.abs(v[j % n] - v[k]) > tol)
    for p in shifts[~far].tolist():
        dev = np.abs(v[p:] - v[:-p]).max()
        if on_cycle:
            # the pairs that wrap: mu(x + p - n) against mu(x) for x >= n - p
            dev = max(dev, np.abs(v[:p] - v[n - p :]).max())
        if dev <= tol:
            return p
    return None
