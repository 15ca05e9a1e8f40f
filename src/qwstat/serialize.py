"""JSON and CSV interchange for coins, states, measures, and seed files.

Conventions: complex numbers are [re, im] pairs; every emitted JSON document
carries ``"schema": 1``; CSV uses LF line endings and repr formatting, which
round-trips doubles exactly.
"""

from __future__ import annotations

from itertools import chain
from typing import IO

import numpy as np

from .coin import CoinMatrix, make_coin
from .reduced import ReducedParams
from .state import Cycle, Measure, Seeds, Topology, WaveState, Window

__all__ = [
    "SCHEMA_VERSION",
    "coin_to_json",
    "coin_from_json",
    "topology_to_json",
    "topology_from_json",
    "state_to_json",
    "state_from_json",
    "measure_to_json",
    "measure_to_csv",
    "seeds_from_json",
    "reduced_params_to_json",
]

SCHEMA_VERSION = 1


def _pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _complex_array(pairs, what: str) -> np.ndarray:
    """The [re, im] pairs as a complex128 array, converted in bulk.  Each must
    be an array of two JSON numbers; anything else (a string, a boolean,
    null, a pair of another length) raises ValueError naming ``what``."""
    try:
        two_items_each = set(map(len, pairs)) <= {2}
    except TypeError:  # a bare number, boolean or null has no length
        two_items_each = False
    # a string such as "12" has two items too, so the items' types are checked
    flat = list(chain.from_iterable(pairs)) if two_items_each else []
    if not two_items_each or not set(map(type, flat)) <= {int, float}:
        raise ValueError(f"every {what} must be an array [re, im] of two numbers")
    return np.array(flat, dtype=np.float64).view(np.complex128)


def _sites_of_keys(keys) -> np.ndarray:
    """The sites that a JSON object's keys name, as int64, converted in bulk.

    A key must be ASCII digits with an optional leading "-"; leading zeros
    are allowed ("01" is site 1).  Any other key raises ValueError naming
    it, although int() would read some ("1_0" as 10, " 2 " as 2, "+3" as 3),
    and so does a site that does not fit in 64 bits.
    """
    joined = "".join(keys)
    if not joined or (joined.isascii() and joined.replace("-", "").isdigit()):
        try:
            return np.fromiter(map(int, keys), dtype=np.int64, count=len(keys))
        except OverflowError:
            raise ValueError("site index does not fit in 64 bits") from None
        except ValueError:  # an empty key, or a "-" after the first character
            pass
    for key in keys:
        digits = key.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"site key {key!r} is not an integer in ASCII digits")


def coin_to_json(coin: CoinMatrix) -> dict:
    matrix = [[_pair(coin.matrix[i, j]) for j in range(3)] for i in range(3)]
    return {"schema": SCHEMA_VERSION, "matrix": matrix}


def coin_from_json(obj) -> CoinMatrix:
    """Read a coin from a parsed JSON document (wrapped or bare 3x3 array)."""
    matrix = obj["matrix"] if isinstance(obj, dict) else obj
    return make_coin(np.array([_complex_array(row, "coin entry") for row in matrix]))


def topology_to_json(topology: Topology) -> dict:
    if isinstance(topology, Cycle):
        return {"kind": "cycle", "n": topology.n}
    return {"kind": "window", "half_width": topology.half_width}


def topology_from_json(obj) -> Topology:
    """Read a topology; its size must be a JSON integer, not a boolean."""
    kind = obj["kind"]
    if kind not in ("cycle", "window"):
        raise ValueError(f"unknown topology kind {kind!r}")
    key = "n" if kind == "cycle" else "half_width"
    size = obj[key]
    if type(size) is not int:
        raise ValueError(f"{kind} {key} must be an integer, got {size!r}")
    return Cycle(size) if kind == "cycle" else Window(size)


def state_to_json(state: WaveState) -> dict:
    amplitudes = {
        str(int(x)): [_pair(c) for c in state.amplitudes[i]]
        for i, x in enumerate(state.sites)
    }
    return {
        "schema": SCHEMA_VERSION,
        "topology": topology_to_json(state.topology),
        "amplitudes": amplitudes,
    }


def state_from_json(obj) -> WaveState:
    """Read a state; each listed site holds exactly three [re, im] pairs, the
    left, stay and right amplitudes, and sites not listed are zero.

    Every key must be an integer in ASCII digits that names a site of the
    topology, without wrapping on a cycle, and no site may be named twice
    ("1" and "01" are one site).
    """
    topology = topology_from_json(obj["topology"])
    sites = topology.sites()
    first, last = int(sites[0]), int(sites[-1])
    amps = np.zeros((topology.n_sites, 3), dtype=np.complex128)
    filled = set()
    amplitudes = obj["amplitudes"]
    for x, (key, triple) in zip(_sites_of_keys(amplitudes).tolist(), amplitudes.items()):
        channels = _complex_array(triple, "amplitude")
        if len(channels) != 3:
            raise ValueError(
                f"site {key} must hold three [re, im] pairs, one per channel, got {len(channels)}"
            )
        if not first <= x <= last:
            raise ValueError(f"site {key} is not a site of {topology} ({first}..{last})")
        if x in filled:
            raise ValueError(f"state site {x} is given more than once")
        filled.add(x)
        amps[topology.index_of(x)] = channels
    return WaveState._adopt(topology, amps)


def measure_to_json(measure: Measure, closed_form: np.ndarray | None = None) -> dict:
    """The measure's ``values`` by site key (plus ``closed_form`` when supplied)."""
    keys = [str(x) for x in measure.sites.tolist()]
    doc = {
        "schema": SCHEMA_VERSION,
        "topology": topology_to_json(measure.topology),
        "values": dict(zip(keys, measure.values.tolist())),
    }
    if closed_form is not None:
        doc["closed_form"] = dict(zip(keys, np.asarray(closed_form, dtype=np.float64).tolist()))
    return doc


def measure_to_csv(
    measure: Measure,
    out: IO[str],
    closed_form: np.ndarray | None = None,
) -> None:
    """Write ``x,mu`` rows (plus ``mu_closed_form`` when supplied)."""
    # tolist() yields Python ints and floats; repr round-trips a double exactly
    xs = measure.sites.tolist()
    mus = measure.values.tolist()
    if closed_form is None:
        header = "x,mu\n"
        rows = [f"{x},{v!r}\n" for x, v in zip(xs, mus)]
    else:
        header = "x,mu,mu_closed_form\n"
        closed = np.asarray(closed_form, dtype=np.float64).tolist()
        rows = [f"{x},{v!r},{c!r}\n" for x, v, c in zip(xs, mus, closed)]
    out.write(header + "".join(rows))


def seeds_from_json(obj) -> Seeds:
    """Read Type 2 seeds from a parsed document, ``{"values": {site: [re, im]}}``
    or the bare mapping.

    Every key must be an integer in ASCII digits, and no site may be named
    twice ("1" and "01" are one site).  Every value must be an array of two JSON
    numbers.  The values are copied into the arrays of a :class:`Seeds` in
    bulk, without a Python number per seed.
    """
    values = obj["values"] if isinstance(obj, dict) and "values" in obj else obj
    pairs = list(values.values())
    return Seeds(_sites_of_keys(values), _complex_array(pairs, "seed value"))


def reduced_params_to_json(params: ReducedParams) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": params.walk_type.value,
        "lambda": _pair(params.lam),
        "a1": _pair(params.a_tilde_1),
        "a2": _pair(params.a_tilde_2),
        "residual": params.residual,
    }
