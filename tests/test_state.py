import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwstat import Cycle, Measure, WaveState, Window, measure_of


@pytest.mark.parametrize("x", [-4, 4])
def test_window_index_of_a_site_outside(x):
    with pytest.raises(ValueError, match=rf"site {x} outside window \[-3, 3\]"):
        Window(3).index_of(x)


def test_wave_state_shape():
    with pytest.raises(ValueError, match=r"amplitudes must have shape \(4, 3\), got \(4, 2\)"):
        WaveState(Cycle(4), np.zeros((4, 2)))


def test_measure_shape():
    with pytest.raises(ValueError, match=r"values must have shape \(5,\), got \(4,\)"):
        Measure(Window(2), np.ones(4))


def test_measure_negative_weight():
    with pytest.raises(ValueError, match="nonnegative"):
        Measure(Cycle(3), [1.0, -1e-300, 0.0])


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
