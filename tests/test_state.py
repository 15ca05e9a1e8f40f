import numpy as np
import pytest

from qwstat import Cycle, Measure, WaveState, Window


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
