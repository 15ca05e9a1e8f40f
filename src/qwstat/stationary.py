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

This module also carries the specific closed-form measures the stefanak_eta
/ stefanak_rho families admit, a measure periodicity detector, and the
restriction of the Fourier Type 1 state to cycles whose length is a multiple
of three.
"""

from __future__ import annotations

import cmath
import math
from typing import Mapping

import numpy as np

from .coin import CoinMatrix, fourier
from .errors import (
    DegenerateSeeds,
    TanSingularity,
    TypeMismatch,
    UnsupportedFamily,
)
from .reduced import ReducedParams, WalkType, type1_params
from .state import Cycle, Measure, Seeds, Topology, WaveState

__all__ = [
    "PERIOD_TOL",
    "type1_state",
    "type2_state",
    "measure_of",
    "closed_form_measure_a1",
    "closed_form_measure_type2",
    "detect_period",
    "fourier_cycle_state",
    "fourier_cycle_boundary_residuals",
]

PERIOD_TOL = 1e-10


def _unimodular_powers(factor: complex, xs: np.ndarray) -> np.ndarray:
    """factor**xs for a unimodular factor, computed through its phase.

    Keeps the modulus exactly 1 for every (possibly negative) exponent,
    which plain complex powers do not guarantee.
    """
    return np.exp(1j * cmath.phase(factor) * xs)


def _stay_coefficient(coin: CoinMatrix, lam: complex) -> complex:
    # 1/(lam - a22); for classified coins this equals -a13/(a12 a23)
    # (Type 1) and -a11/(a12 a21) (Type 2) identically.
    return 1.0 / (lam - coin.a22)


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
    if abs(phi1) + abs(phi3) == 0.0:
        raise DegenerateSeeds("phi1 and phi3 are both zero")

    xs = topology.sites()
    left = _unimodular_powers(params.lam / params.a_tilde_1, xs) * phi1
    right = _unimodular_powers(params.a_tilde_2 / params.lam, xs) * phi3
    stay = _stay_coefficient(coin, params.lam) * (coin.a21 * left + coin.a23 * right)
    return _finite_state(topology, left, stay, right)


def type2_state(
    coin: CoinMatrix,
    params: ReducedParams,
    seeds: Mapping[int, complex],
    topology: Topology,
) -> WaveState:
    """Sequence-seeded eigenstate of a Type 2 coin.

    ``seeds`` maps sites to left amplitudes; absent sites read as zero.  On
    a window -W..W the value at -W-1 is also consulted (the right amplitude
    lags by one site); on a cycle of N sites only keys 0..N-1 are read and
    the lag wraps.  Every seed value must be finite.  A :class:`Seeds` is
    read as it is; any other mapping is first copied into one.
    """
    if params.walk_type is not WalkType.TYPE2:
        raise TypeMismatch(f"expected Type 2 parameters, got {params.walk_type}")

    if not isinstance(seeds, Seeds):
        seeds = Seeds(list(seeds.keys()), list(seeds.values()))
    keys, values = seeds.sites, seeds.values
    if not np.isfinite(values).all():
        raise ValueError("seed values must be finite")

    # seeds by site; on a window one extra slot in front holds site -W-1
    if isinstance(topology, Cycle):
        first, size = 0, topology.n
    else:
        first, size = -topology.half_width - 1, topology.n_sites + 1
    padded = np.zeros(size, dtype=np.complex128)
    idx = keys - first
    inside = (idx >= 0) & (idx < size)
    padded[idx[inside]] = values[inside]
    if isinstance(topology, Cycle):
        phi, phi_prev = padded, np.roll(padded, 1)
    else:
        phi, phi_prev = padded[1:], padded[:-1]
    if np.abs(phi).max(initial=0.0) == 0.0 and np.abs(phi_prev).max(initial=0.0) == 0.0:
        raise DegenerateSeeds("seed sequence is identically zero on the topology")

    shift = params.lam / params.a_tilde_1
    left = phi
    right = shift * phi_prev
    stay = _stay_coefficient(coin, params.lam) * (coin.a21 * left + coin.a23 * right)
    return _finite_state(topology, left, stay, right)


def _finite_state(
    topology: Topology, left: np.ndarray, stay: np.ndarray, right: np.ndarray
) -> WaveState:
    """The state with these channels, if every site's squared modulus is finite.

    Finite seeds can still give a measure that overflows (|1e200|^2); no
    measure, drift or residual of such a state means anything, so it is an
    input error here rather than a CSV of inf or a NaN drift later.
    """
    state = WaveState._adopt(topology, np.stack([left, stay, right], axis=1))
    parts = state.amplitudes.view(np.float64)  # re and im of each channel
    with np.errstate(over="ignore", invalid="ignore"):
        mu = np.einsum("ij,ij->i", parts, parts)
    finite = np.isfinite(mu)
    if not finite.all():
        site = topology.sites()[np.argmin(finite)]
        raise ValueError(
            f"seeds too large: the squared modulus of the state overflows at site {site}"
        )
    return state


def measure_of(state: WaveState) -> Measure:
    """Sitewise squared norm of the state."""
    return Measure(state.topology, (np.abs(state.amplitudes) ** 2).sum(axis=1))


def closed_form_measure_a1(eta: float, phi1: complex, x: int) -> float:
    """Closed-form Type 1 measure of stefanak_eta(eta) with equal seeds.

    For phi1 = phi3 the measure is

        (2 + (4 + 9 tan^2 eta) T_x(cos xi)^2) |phi1|^2

    where T_x is the Chebyshev polynomial of the first kind, evaluated as
    T_x(cos xi) = cos(x xi), and cos xi = (10 - 26 cos 2 eta) / (26 - 10 cos 2 eta)
    is the real part of the Type 1 eigenvalue.
    """
    eta = float(eta)
    if abs(math.cos(eta)) < 1e-12:
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
    topology: Topology | None = None,
) -> float:
    """Closed-form Type 2 measure at site x for the supported families.

    Grover and stefanak_eta share one formula (independent of eta);
    stefanak_rho has rho-dependent coefficients.  Pass the topology when
    the seeds live on a cycle so the x-1 lookup wraps.
    """
    coefficients = _TYPE2_COEFFICIENTS.get(coin.family)
    if coefficients is None:
        raise UnsupportedFamily(
            f"no Type 2 closed-form measure for family {coin.family!r}"
        )
    c_sq, c_cross = coefficients(coin.family_param)
    wrap = topology.wrap if topology is not None else int
    px = complex(seeds.get(wrap(int(x)), 0.0))
    pp = complex(seeds.get(wrap(int(x) - 1), 0.0))
    return c_sq * (abs(px) ** 2 + abs(pp) ** 2) + c_cross * (px * pp.conjugate()).real


def detect_period(measure: Measure, max_period: int | None = None) -> int | None:
    """Smallest p <= max_period with mu(x + p) = mu(x) everywhere, or None.

    Equality is within PERIOD_TOL relative to max(mu), so the answer does
    not depend on the scale of the seeds; an all-zero measure needs exact
    equality.  p = 1 means the measure is uniform.  ``max_period`` defaults
    to half the number of sites and may not exceed it.

    On a cycle of n sites the shifts that leave the measure unchanged form a
    subgroup of Z_n, whose smallest positive element divides n, so only the
    divisors of n are tried.  On a window every p is tried and comparisons
    do not wrap.
    """
    v = measure.values
    n = len(v)
    if max_period is None:
        max_period = n // 2
    if not 1 <= max_period <= n // 2:
        raise ValueError(f"max_period must be in [1, {n // 2}], got {max_period}")
    tol = PERIOD_TOL * v.max(initial=0.0)
    on_cycle = isinstance(measure.topology, Cycle)
    for p in range(1, max_period + 1):
        if on_cycle and n % p:
            continue
        dev = np.abs(v[p:] - v[:-p]).max()
        if on_cycle:
            # the pairs that wrap: mu(x + p - n) against mu(x) for x >= n - p
            dev = max(dev, np.abs(v[:p] - v[n - p :]).max())
        if dev <= tol:
            return p
    return None


def fourier_cycle_state(m: int, phi1: complex, phi3: complex) -> WaveState:
    """Fourier Type 1 eigenstate restricted to the cycle of 3m sites.

    The left-amplitude ratio of the Fourier Type 1 state is the cube root
    of unity, so the line profile closes up on any cycle whose length is a
    multiple of three; the restriction solves the cycle eigenvalue problem
    at lambda = i for every seed pair.
    """
    m = int(m)
    if m < 1:
        raise ValueError(f"m must be >= 1, got {m}")
    if abs(complex(phi1)) + abs(complex(phi3)) == 0.0:
        raise DegenerateSeeds("phi1 and phi3 are both zero")
    coin = fourier()
    return type1_state(coin, type1_params(coin), phi1, phi3, Cycle(3 * m))


def fourier_cycle_boundary_residuals(state: WaveState) -> tuple[float, float]:
    """Residuals of the two seam relations of the Fourier walk on a cycle.

    On a cycle of N sites the eigenvalue equation at lambda = i couples the
    seam sites 0 and N-1 through the coin rows:

        sqrt(3) i right(0)   = left(N-1) + w^2 stay(N-1) + w right(N-1)
        sqrt(3) i left(N-1)  = left(0) + stay(0) + right(0)

    (w = exp(2 pi i / 3); the first relation uses the right-mover row of
    the Fourier coin, the second the left-mover row).  Returns the two
    absolute residuals; both vanish for fourier_cycle_state.
    """
    if not isinstance(state.topology, Cycle):
        raise ValueError("boundary residuals are defined on cycles only")
    w = cmath.exp(2j * cmath.pi / 3)
    root3_i = math.sqrt(3.0) * 1j
    first = state.amplitude(0)
    last = state.amplitude(state.topology.n - 1)
    r1 = abs(root3_i * first[2] - (last[0] + w * w * last[1] + w * last[2]))
    r2 = abs(root3_i * last[0] - (first[0] + first[1] + first[2]))
    return float(r1), float(r2)
