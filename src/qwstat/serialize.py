"""JSON and CSV interchange for coins, states, measures, and seed files.

Conventions: complex numbers are [re, im] pairs, read and written through
the float64 view of a complex128 array; every emitted JSON document carries
``"schema": 1``; CSV uses LF line endings and repr formatting, which
round-trips doubles exactly.  Coins and seeds are read, not written;
states and measures are written, not read.  The readers take a parsed
document or a file's bytes; in a file, an object that names a key twice is
an error.  A seeds file in the layout json.dumps writes is read flat, with
no Python container per site (_canonical_seeds); every other file is read
by the general reader, the reference: json.loads with a pairs hook
(_parse_json).  Neither reader pauses the garbage collector.
"""

from __future__ import annotations

import io
import json
from itertools import chain

import numpy as np

from .coin import CoinMatrix, make_coin
from .reduced import ReducedParams
from .state import Cycle, Measure, Seeds, Topology, WaveState

__all__ = [
    "SCHEMA_VERSION",
    "coin_from_json",
    "topology_to_json",
    "state_to_json",
    "measure_to_json",
    "measure_to_csv",
    "seeds_from_json",
    "reduced_params_to_json",
]

SCHEMA_VERSION = 1


def _pairs(a: np.ndarray) -> list:
    """The row-major complex array (as states store theirs) as nested lists
    of [re, im] pairs, the inverse of _complex_array."""
    return a.view(np.float64).reshape(*a.shape, 2).tolist()


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


def _unique_keys(pairs: list) -> dict:
    """A JSON object's pairs as a dict; a key given twice raises ValueError."""
    obj = {}
    for key, value in pairs:
        if key in obj:
            raise ValueError(f"key {key!r} is given more than once")
        obj[key] = value
    return obj


def _parse_json(text: str):
    """json.loads(text), but an object naming a key twice raises ValueError."""
    return json.loads(text, object_pairs_hook=_unique_keys)


def _document(doc):
    """doc, or the JSON document of a file's bytes, decoded as
    ``Path.read_text(encoding="utf-8")`` decodes a file (with universal
    newlines) and parsed by _parse_json."""
    if isinstance(doc, bytes):
        return _parse_json(io.TextIOWrapper(io.BytesIO(doc), encoding="utf-8").read())
    return doc


# The seeds file json.dumps({"schema": 1, "values": {...}}) writes: this
# prefix, one '"site": [re, im]' per site with ", " between, then "}}".
_CANONICAL_PREFIX = b'{"schema": 1, "values": {'
_NUMBER_BYTES = b"0123456789.eE+-"
_SKELETON_PREFIX = _CANONICAL_PREFIX.translate(None, _NUMBER_BYTES)
_SKELETON_ENTRY = b'"": [, ], '
# quotes and brackets become blanks, colons commas, and the values object
# one array: every site, re and im in a row
_FLAT = bytes.maketrans(b'"[]:{}', b"   ,[]")
_DECODER = json.JSONDecoder()


def _canonical_seeds(data: bytes) -> Seeds | None:
    """The seeds of a file laid out exactly as json.dumps writes
    ``{"schema": 1, "values": {...}}``, read as one flat array of numbers;
    None for any other file, which the general reader then reads.

    Deleting the number bytes must leave the layout's skeleton, and no key
    or part may be empty, so that each number sits where the layout puts
    one.  Every site must then be an int within int64, and Seeds must take
    the arrays (no site named twice, every part finite).  A file breaking a
    rule ("01", "1.5", a NaN, 1e400, a site named twice) returns None too,
    and the general reader reads it or names its error.
    """
    if not (data.startswith(_CANONICAL_PREFIX) and data.endswith(b"}}")):
        return None
    skeleton = data.translate(None, _NUMBER_BYTES)
    count = (len(skeleton) - len(_SKELETON_PREFIX)) // len(_SKELETON_ENTRY)
    if skeleton != _SKELETON_PREFIX + (_SKELETON_ENTRY * count)[:-2] + b"}}":
        return None
    if b'""' in data or b"[," in data or b" ]" in data:  # an empty key or part
        return None
    try:
        flat = _DECODER.raw_decode(data.translate(_FLAT).decode("ascii"), len(_CANONICAL_PREFIX) - 1)[0]
    except ValueError:  # a token that is not one JSON number, or an int() too long
        return None
    sites = np.array(flat[0::3])
    if sites.dtype != np.int64:  # a float site, or one beyond int64 (or no site at all)
        return None
    del flat[0::3]
    try:
        values = np.array(flat, dtype=np.float64)
    except OverflowError:  # an int beyond the doubles
        return None
    del flat  # before Seeds copies the arrays
    try:
        return Seeds(sites, values.view(np.complex128))
    except ValueError:  # a site named twice, or a part that is not finite
        return None


def _sites_of_keys(keys) -> np.ndarray:
    """The sites that a JSON object's keys name, as int64, converted in bulk.

    A key must be ASCII digits with an optional leading "-"; leading zeros
    are allowed ("01" is site 1).  Any other key raises ValueError naming
    it, although int() would read some ("1_0" as 10, " 2 " as 2, "+3" as 3),
    and so does a site that does not fit in 64 bits.
    """
    for key in keys:
        digits = key.removeprefix("-")
        if not (digits.isascii() and digits.isdigit()):
            raise ValueError(f"site key {key!r} is not an integer in ASCII digits")
    try:
        return np.fromiter(map(int, keys), np.int64, len(keys))
    except (OverflowError, ValueError):  # beyond int64, or more digits than int() reads
        raise ValueError("site index does not fit in 64 bits") from None


def coin_from_json(obj) -> CoinMatrix:
    """Read a coin from a JSON document (wrapped or bare 3x3 array), parsed
    or a file's bytes."""
    obj = _document(obj)
    matrix = obj["matrix"] if isinstance(obj, dict) else obj
    return make_coin(np.array([_complex_array(row, "coin entry") for row in matrix]))


def topology_to_json(topology: Topology) -> dict:
    if isinstance(topology, Cycle):
        return {"kind": "cycle", "n": topology.n}
    return {"kind": "window", "half_width": topology.half_width}


def state_to_json(state: WaveState) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "topology": topology_to_json(state.topology),
        "amplitudes": dict(zip(map(str, state.sites.tolist()), _pairs(state.amplitudes))),
    }


def measure_to_json(measure: Measure, closed_form: np.ndarray | None = None) -> dict:
    """The measure's ``values`` by site key (plus ``closed_form`` when supplied)."""
    keys = list(map(str, measure.sites.tolist()))
    doc = {
        "schema": SCHEMA_VERSION,
        "topology": topology_to_json(measure.topology),
        "values": dict(zip(keys, measure.values.tolist())),
    }
    if closed_form is not None:
        doc["closed_form"] = dict(zip(keys, np.asarray(closed_form, dtype=np.float64).tolist()))
    return doc


def measure_to_csv(measure: Measure, closed_form: np.ndarray | None = None) -> str:
    """The ``x,mu`` rows (plus ``mu_closed_form`` when supplied) as CSV text."""
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
    return header + "".join(rows)


def seeds_from_json(obj) -> Seeds:
    """Read Type 2 seeds from a document, ``{"values": {site: [re, im]}}``
    or the bare mapping, parsed or a file's bytes.

    Every key must be an integer in ASCII digits, and no site may be named
    twice ("1" and "01" are one site).  Every value must be an array of two JSON
    numbers.  The values are copied into the arrays of a :class:`Seeds` in
    bulk.  A file in the layout json.dumps writes is read in one flat pass
    (_canonical_seeds); any other file, and any file that pass declines, is
    read by json.loads with a pairs hook (_parse_json), the reference, which
    gives the same result or names the error.
    """
    if isinstance(obj, bytes):
        seeds = _canonical_seeds(obj)
        if seeds is not None:
            return seeds
    obj = _document(obj)
    values = obj["values"] if isinstance(obj, dict) and "values" in obj else obj
    pairs = list(values.values())
    return Seeds(_sites_of_keys(values), _complex_array(pairs, "seed value"))


def reduced_params_to_json(params: ReducedParams) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "type": params.walk_type.value,
        "lambda": [params.lam.real, params.lam.imag],
        "a1": [params.a_tilde_1.real, params.a_tilde_1.imag],
        "a2": [params.a_tilde_2.real, params.a_tilde_2.imag],
        "residual": params.residual,
    }
