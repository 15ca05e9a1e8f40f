"""Lattice topologies and the state/measure containers the walk acts on."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = ["Window", "Cycle", "Topology", "WaveState", "Measure", "Seeds"]


@dataclass(frozen=True)
class Window:
    """Symmetric window of sites -W..W standing in for the integer line.

    Evolution on a window truncates amplitude that steps outside (absorbing
    edges), so results are only trusted on causally clean interior sites.
    """

    half_width: int

    def __post_init__(self):
        if int(self.half_width) < 1:
            raise ValueError(f"window half-width must be >= 1, got {self.half_width}")
        object.__setattr__(self, "half_width", int(self.half_width))

    @property
    def n_sites(self) -> int:
        return 2 * self.half_width + 1

    def sites(self) -> np.ndarray:
        return np.arange(-self.half_width, self.half_width + 1)

    def wrap(self, x: int) -> int:
        return int(x)


@dataclass(frozen=True)
class Cycle:
    """Ring of n >= 3 sites with periodic wrap-around."""

    n: int

    def __post_init__(self):
        if int(self.n) < 3:
            raise ValueError(f"cycle needs at least 3 sites, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def n_sites(self) -> int:
        return self.n

    def sites(self) -> np.ndarray:
        return np.arange(self.n)

    def wrap(self, x: int) -> int:
        return int(x) % self.n


Topology = Union[Window, Cycle]


@dataclass(frozen=True, eq=False)
class WaveState:
    """Amplitude triple (left, stay, right) on every site of a topology.

    Row i of ``amplitudes`` belongs to ``topology.sites()[i]``.
    """

    topology: Topology
    amplitudes: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.amplitudes, dtype=np.complex128, order="C"))

    @classmethod
    def _adopt(cls, topology: Topology, amplitudes: np.ndarray) -> WaveState:
        """The state over a complex128 array the caller owns and hands over,
        without the copy the constructor makes.  The caller must not write
        to the array afterwards; it is made read-only here."""
        state = cls.__new__(cls)
        object.__setattr__(state, "topology", topology)
        state._freeze(np.asarray(amplitudes, dtype=np.complex128))
        return state

    def _freeze(self, a: np.ndarray) -> None:
        expected = (self.topology.n_sites, 3)
        if a.shape != expected:
            raise ValueError(f"amplitudes must have shape {expected}, got {a.shape}")
        a.setflags(write=False)
        object.__setattr__(self, "amplitudes", a)

    def _weights(self) -> np.ndarray:
        """Each site's squared norm: re^2 + im^2 of each channel, summed in
        the order verify's kernel sums them, so that they agree bit for bit.
        Computed on the first call and kept read-only, for the fences on a
        built state, ``measure_of`` and ``verify_stationary``; a weight that
        overflows is inf, without a warning, and each of them rejects it."""
        mu = self.__dict__.get("_mu")
        if mu is None:
            with np.errstate(over="ignore"):
                mu = np.square(self.amplitudes.view(np.float64)).sum(axis=1)
            mu.setflags(write=False)
            object.__setattr__(self, "_mu", mu)
        return mu

    def norm_squared(self) -> float:
        return float(self._weights().sum())

    @property
    def sites(self) -> np.ndarray:
        return self.topology.sites()


@dataclass(frozen=True, eq=False)
class Measure:
    """Finite, nonnegative site weights, usually the squared norms of a state.
    A NaN, infinite or negative value raises ValueError naming the site
    label of the first one."""

    topology: Topology
    values: np.ndarray

    def __post_init__(self):
        self._freeze(np.array(self.values, dtype=np.float64))

    @classmethod
    def _adopt(cls, topology: Topology, values: np.ndarray) -> Measure:
        """The measure over a float64 array, checked as the constructor checks
        it but not copied; it is made read-only here."""
        measure = cls.__new__(cls)
        object.__setattr__(measure, "topology", topology)
        measure._freeze(values)
        return measure

    def _freeze(self, v: np.ndarray) -> None:
        if v.shape != (self.topology.n_sites,):
            raise ValueError(f"values must have shape ({self.topology.n_sites},), got {v.shape}")
        # min and max propagate a NaN, which fails both comparisons
        if not (v.min() >= 0.0 and v.max() < np.inf):
            i = int(np.argmin((v >= 0.0) & (v < np.inf)))
            raise ValueError(
                f"measure values must be finite and nonnegative, "
                f"got {float(v[i])!r} at site {self.topology.sites()[i]}"
            )
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @property
    def sites(self) -> np.ndarray:
        return self.topology.sites()


class Seeds:
    """Type 2 seeds: the left amplitudes at some sites, as two read-only arrays.

    ``sites`` (int64, increasing, no site twice) and ``values`` (complex128,
    finite), the amplitude at each site.  Sites may be given in any order; a
    site given twice, one that does not fit in 64 bits, or a value that is
    not finite raises ValueError.
    ``type2_state`` reads the arrays whole; to look sites up one at a time,
    build a dict from them.
    """

    __slots__ = ("sites", "values")

    def __init__(self, sites, values):
        try:
            s = np.array(sites, dtype=np.int64)
        except OverflowError:
            raise ValueError("seed site index does not fit in 64 bits") from None
        v = np.array(values, dtype=np.complex128)
        if s.ndim != 1 or v.shape != s.shape:
            raise ValueError(
                f"seed sites and values must be two 1-D arrays of one length, "
                f"got shapes {s.shape} and {v.shape}"
            )
        if not (s[1:] > s[:-1]).all():
            order = np.argsort(s)
            s, v = s[order], v[order]
            repeated = np.flatnonzero(s[1:] == s[:-1])
            if len(repeated):
                raise ValueError(f"seed site {s[repeated[0]]} is given more than once")
        if not np.isfinite(v).all():
            raise ValueError("seed values must be finite")
        s.setflags(write=False)
        v.setflags(write=False)
        self.sites = s
        self.values = v
