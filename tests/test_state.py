import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwstat import Cycle, Measure, WaveState, Window, measure_of


def test_wave_state_shape():
    with pytest.raises(ValueError, match=r"amplitudes must have shape \(4, 3\), got \(4, 2\)"):
        WaveState(Cycle(4), np.zeros((4, 2)))


def test_amplitudes_are_stored_row_major():
    # the transpose of a (3, N) array: its rows are not adjacent in memory
    amps = (np.arange(15.0) + 1j).reshape(3, 5).T
    state = WaveState(Cycle(5), amps)
    assert state.amplitudes.flags.c_contiguous
    assert measure_of(state).values.tolist() == (amps.real**2 + amps.imag**2).sum(axis=1).tolist()


def test_measure_shape():
    with pytest.raises(ValueError, match=r"values must have shape \(5,\), got \(4,\)"):
        Measure(Window(2), np.ones(4))


def test_measure_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        Measure(Cycle(3), [1.0, -1e-300, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300])
@pytest.mark.parametrize("topology", [Window(2), Cycle(5)], ids=["window", "cycle"])
def test_measure_rejects_a_value_that_is_not_finite_and_nonnegative(topology, bad):
    # the first bad value is named by its site label (-2..2 on the window),
    # not by its row; a second one further on does not change the message
    for row, site in enumerate(topology.sites().tolist()):
        values = np.ones(topology.n_sites)
        values[row] = values[-1] = bad
        want = re.escape(f"must be finite and nonnegative, got {bad!r} at site {site}") + "$"
        with pytest.raises(ValueError, match=want):
            Measure(topology, values)


def test_measure_of_checks_the_weights_the_state_keeps():
    # one read-only array, weighed once: no copy for the measure
    state = WaveState(Cycle(4), np.arange(12.0).reshape(4, 3) + 1j)
    mu = measure_of(state)
    assert mu.values is state._weights()
    assert measure_of(state).values is mu.values
    assert not mu.values.flags.writeable


@given(size=st.integers(3, 4097), windowed=st.booleans(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=100, deadline=None)
def test_norm_squared_is_the_sum_of_the_weights(size, windowed, seed):
    # one formula for a site's weight: the squared norm is the sum of the
    # weights measure_of writes, bit for bit, at moduli from 1e-5 to 1e5
    rng = np.random.default_rng(seed)
    topology = Window(size // 2) if windowed else Cycle(size)
    moduli = 10.0 ** rng.uniform(-5, 5, size=(topology.n_sites, 3))
    state = WaveState(topology, moduli * np.exp(2j * np.pi * rng.uniform(size=moduli.shape)))
    assert state.norm_squared() == measure_of(state).values.sum()
