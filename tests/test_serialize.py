import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qwstat import (
    Cycle,
    DegenerateSeeds,
    Measure,
    NonUnitary,
    Seeds,
    Window,
    fourier,
    grover,
    stefanak_rho,
    type1_params,
    type1_state,
    type2_params,
    type2_state,
)
from qwstat.serialize import (
    coin_from_json,
    coin_to_json,
    measure_to_csv,
    reduced_params_to_json,
    seeds_from_json,
    state_to_json,
    topology_to_json,
)
from qwstat.tolerance import MIN_SCALE


def test_coin_round_trip():
    coin = fourier()
    doc = coin_to_json(coin)
    assert doc["schema"] == 1
    back = coin_from_json(json.loads(json.dumps(doc)))
    assert np.array_equal(back.matrix, coin.matrix)


def test_coin_from_bare_matrix():
    bare = [[[1, 0], [0, 0], [0, 0]], [[0, 0], [1, 0], [0, 0]], [[0, 0], [0, 0], [1, 0]]]
    assert np.array_equal(coin_from_json(bare).matrix, np.eye(3))


def test_coin_from_json_validates():
    doc = coin_to_json(grover())
    doc["matrix"][0][0] = [5.0, 0.0]
    with pytest.raises(NonUnitary):
        coin_from_json(doc)


TOPOLOGY_DOCS = {
    Cycle(7): {"kind": "cycle", "n": 7},
    Window(12): {"kind": "window", "half_width": 12},
}


@pytest.mark.parametrize("topology", list(TOPOLOGY_DOCS))
def test_topology_round_trip(topology):
    assert json.loads(json.dumps(topology_to_json(topology))) == TOPOLOGY_DOCS[topology]


def assert_pairs_are_the_amplitudes(doc, state):
    """Every site of the state is listed once, in order, by its label, with its
    left, stay and right amplitudes as three [re, im] pairs, bit for bit."""
    assert list(doc["amplitudes"]) == [str(x) for x in state.sites.tolist()]
    pairs = np.array(list(doc["amplitudes"].values()), dtype=np.float64)
    assert pairs.shape == (state.topology.n_sites, 3, 2)
    assert pairs.tobytes() == state.amplitudes.tobytes()


def test_state_round_trip_preserves_measure_exactly():
    coin = fourier()
    state = type1_state(coin, type1_params(coin), 0.3 + 0.7j, -0.2j, Cycle(9))
    doc = json.loads(json.dumps(state_to_json(state)))
    assert doc["schema"] == 1 and doc["topology"] == {"kind": "cycle", "n": 9}
    assert_pairs_are_the_amplitudes(doc, state)


def test_state_round_trip_on_window():
    coin = grover()
    state = type1_state(coin, type1_params(coin), 1.0, 2.0, Window(5))
    doc = json.loads(json.dumps(state_to_json(state)))
    assert doc["topology"] == {"kind": "window", "half_width": 5}
    assert_pairs_are_the_amplitudes(doc, state)


# keys that int() reads, or that name no site, which a site key may not be
BAD_SITE_KEYS = ["1_0", " 2 ", "2\n", "+3", "\u0661\u0662", "\uff11", "", "-", "--1", "1-2", "1.0", "0x1"]


@pytest.mark.parametrize("key", BAD_SITE_KEYS)
def test_bad_site_key_is_named(key):
    doc = {"values": {"0": [1.0, 0.0], key: [1.0, 0.0]}}
    with pytest.raises(ValueError, match=re.escape(f"site key {key!r} is not an integer")):
        seeds_from_json(doc)


def test_site_keys_with_leading_zeros_and_signs():
    seeds = seeds_from_json({"values": {"01": [1.0, 0.0], "-007": [2.0, 0.0], "-0": [3.0, 0.0]}})
    assert seeds.sites.tolist() == [-7, 0, 1] and seeds.values.tolist() == [2.0, 3.0, 1.0]


def test_measure_csv_format():
    mu = Measure(Window(1), np.array([1.0, 2.5, 1 / 3]))
    lines = measure_to_csv(mu).split("\n")
    assert lines[0] == "x,mu"
    assert lines[1] == "-1,1.0"
    assert lines[3] == f"1,{1 / 3!r}"
    assert lines[-1] == ""  # trailing LF


def test_measure_csv_with_closed_form_column():
    mu = Measure(Cycle(3), np.array([6.0, 3.0, 3.0]))
    lines = measure_to_csv(mu, closed_form=np.array([6.0, 3.0, 3.0])).splitlines()
    assert lines[0] == "x,mu,mu_closed_form"
    assert lines[1] == "0,6.0,6.0"


def test_csv_floats_round_trip():
    values = np.array([1 / 3, 2 / 7, 1e-17, 123456.789012345])
    mu = Measure(Window(1), np.abs(values[:3]))
    for line, v in zip(measure_to_csv(mu).splitlines()[1:], mu.values):
        assert float(line.split(",")[1]) == v


def per_row_csv(measure, closed_form=None):
    """The CSV text written one f-string row at a time from numpy scalars."""
    if closed_form is None:
        rows = [f"{int(x)},{float(v)!r}\n" for x, v in zip(measure.sites, measure.values)]
        return "x,mu\n" + "".join(rows)
    rows = [
        f"{int(x)},{float(v)!r},{float(c)!r}\n"
        for x, v, c in zip(measure.sites, measure.values, closed_form)
    ]
    return "x,mu,mu_closed_form\n" + "".join(rows)


weights = st.one_of(
    st.sampled_from([0.0, 5e-324, 1e300, 1 / 3, 1e16, 1e-5]),
    st.floats(min_value=0.0, allow_infinity=False),
)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_measure_csv_bytes_match_per_row_format(data):
    if data.draw(st.booleans()):
        topology = Cycle(data.draw(st.integers(3, 40)))
    else:
        topology = Window(data.draw(st.integers(1, 20)))  # sites below zero
    n = topology.n_sites
    mu = Measure(topology, data.draw(st.lists(weights, min_size=n, max_size=n)))
    closed = None
    if data.draw(st.booleans()):
        closed = np.array(data.draw(st.lists(st.floats(), min_size=n, max_size=n)))
    assert measure_to_csv(mu, closed) == per_row_csv(mu, closed)


def test_seeds_from_bare_mapping():
    seeds = seeds_from_json({"0": [1.0, 0.0]})
    assert seeds.sites.tolist() == [0] and seeds.values.tolist() == [1.0 + 0j]


def old_seeds_from_json(obj) -> dict[int, complex]:
    """The dict seeds_from_json used to build: the reference for its arrays."""
    return {int(k): complex(float(re), float(im)) for k, (re, im) in obj["values"].items()}


json_numbers = st.one_of(
    st.integers(-(2**70), 2**70),  # beyond 2**53 the conversion rounds
    st.floats(allow_nan=False, allow_infinity=False),  # repr gives exponents: 1e-300
)


@given(
    pairs=st.dictionaries(st.integers(-(2**63), 2**63 - 1), st.tuples(json_numbers, json_numbers)),
    order=st.randoms(),
)
@settings(max_examples=100, deadline=None)
def test_seed_arrays_match_the_old_dict(pairs, order):
    keys = list(pairs)
    order.shuffle(keys)
    text = json.dumps({"schema": 1, "values": {str(k): list(pairs[k]) for k in keys}})
    doc = json.loads(text)
    seeds = seeds_from_json(doc)
    old = old_seeds_from_json(doc)
    assert isinstance(seeds, Seeds)
    # bit for bit, signed zeros included
    assert seeds.sites.tolist() == sorted(old)
    expected = np.array([old[k] for k in sorted(old)], dtype=np.complex128)
    assert seeds.values.tobytes() == expected.tobytes()


@given(
    topology=st.one_of(st.integers(3, 40).map(Cycle), st.integers(1, 30).map(Window)),
    pairs=st.dictionaries(
        st.integers(-80, 80),  # keys the topology does not read as well
        st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)),
        min_size=1,
    ),
    coin=st.sampled_from([grover(), stefanak_rho(0.4)]),
)
@example(topology=Window(2), pairs={-3: (1e-170, 0.0), 0: (0.0, -1e-160), 40: (1.0, 0.0)},
         coin=grover())
@settings(max_examples=100, deadline=None)
def test_type2_state_from_seed_arrays_matches_the_dict(topology, pairs, coin):
    doc = json.loads(json.dumps({"values": {str(k): list(v) for k, v in pairs.items()}}))
    params = type2_params(coin)
    try:
        want = type2_state(coin, params, old_seeds_from_json(doc), topology).amplitudes
    except (DegenerateSeeds, ValueError) as exc:  # zero, or too small, where it reads
        assert isinstance(exc, DegenerateSeeds) or str(exc).startswith("seeds too small: ")
        with pytest.raises(type(exc), match=re.escape(str(exc))):
            type2_state(coin, params, seeds_from_json(doc), topology)
        return
    got = type2_state(coin, params, seeds_from_json(doc), topology).amplitudes
    assert got.tobytes() == want.tobytes()
    assert (np.abs(want) ** 2).sum(axis=1).max() >= MIN_SCALE / 2  # else too small above


@pytest.mark.parametrize("site", [2**63, -(2**63) - 1, 2**70])
def test_seed_site_beyond_int64_rejected_while_parsing(site):
    with pytest.raises(ValueError, match="64 bits"):
        seeds_from_json({"values": {"0": [1.0, 0.0], str(site): [1.0, 0.0]}})


def test_seed_sites_at_the_int64_limits():
    seeds = seeds_from_json({"values": {str(2**63 - 1): [1, 0], str(-(2**63)): [0, 1]}})
    assert seeds.sites.tolist() == [-(2**63), 2**63 - 1] and seeds.values.tolist() == [1j, 1.0]


class TestSeeds:
    def test_sorted_read_only_arrays(self):
        seeds = Seeds([3, -2, 0], [1.0, 2j, -1.5])
        assert seeds.sites.dtype == np.int64 and seeds.values.dtype == np.complex128
        assert seeds.sites.tolist() == [-2, 0, 3]
        assert seeds.values.tolist() == [2j, -1.5, 1.0]
        assert not seeds.sites.flags.writeable and not seeds.values.flags.writeable

    def test_copies_its_input(self):
        sites, values = np.array([0, 1]), np.array([1.0, 2.0], dtype=complex)
        seeds = Seeds(sites, values)
        values[0] = 7.0
        assert seeds.values.tolist() == [1.0, 2.0]

    def test_site_given_twice(self):
        with pytest.raises(ValueError, match="seed site 5 is given more than once"):
            Seeds([5, 1, 5], [1.0, 2.0, 3.0])

    def test_shapes(self):
        with pytest.raises(ValueError, match="one length"):
            Seeds([0, 1], [1.0])
        assert Seeds([], []).sites.shape == (0,)


def test_reduced_params_json_fields():
    doc = reduced_params_to_json(type2_params(grover()))
    assert doc["type"] == 2
    assert doc["lambda"] == [1.0, 0.0]
    assert doc["a1"] == [1.0, 0.0]
    assert doc["a2"] == [1.0, 0.0]
    assert doc["residual"] == 0.0
