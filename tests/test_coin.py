import cmath
import math

import numpy as np
import pytest

from qwstat import (
    CoinMatrix,
    DomainError,
    NonUnitary,
    fourier,
    grover,
    make_coin,
    minors,
    random_coin,
    stefanak_eta,
    stefanak_rho,
)
from qwstat.tolerance import UNITARITY_TOL

OMEGA = cmath.exp(2j * cmath.pi / 3)


def unitarity_deviation(m):
    return np.abs(m @ m.conj().T - np.eye(3)).max()


class TestFamilies:
    def test_grover_entries(self):
        g = grover()
        assert g.a11 == pytest.approx(-1 / 3, abs=1e-15)
        assert g.a12 == pytest.approx(2 / 3, abs=1e-15)
        # symmetric by inspection
        assert np.abs(g.matrix - g.matrix.T).max() == 0.0

    def test_grover_unitary_tight(self):
        assert unitarity_deviation(grover().matrix) < 1e-15

    def test_fourier_entries(self):
        f = fourier()
        assert f.a13 == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert f.a22 == pytest.approx(OMEGA / math.sqrt(3), abs=1e-15)
        assert f.a32 == pytest.approx(OMEGA * OMEGA / math.sqrt(3), abs=1e-15)

    def test_fourier_unitary(self):
        assert unitarity_deviation(fourier().matrix) < 1e-12

    @pytest.mark.parametrize("eta", [0.1, 1.0, 3.0])
    def test_stefanak_eta_unitary(self, eta):
        assert unitarity_deviation(stefanak_eta(eta).matrix) < 1e-12

    @pytest.mark.parametrize("eta", [0.0, math.pi])
    def test_stefanak_eta_grover_points(self, eta):
        # exp(2 i eta) = 1 at both points, so the matrix collapses to Grover
        assert np.abs(stefanak_eta(eta).matrix - grover().matrix).max() < 1e-15

    def test_stefanak_rho_grover_point(self):
        assert np.abs(stefanak_rho(1 / math.sqrt(3)).matrix - grover().matrix).max() < 1e-15

    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_stefanak_rho_unitary(self, rho):
        assert unitarity_deviation(stefanak_rho(rho).matrix) < 1e-12

    @pytest.mark.parametrize("rho", [0.0, 1.0, -0.2, 1.3])
    def test_stefanak_rho_domain(self, rho):
        with pytest.raises(DomainError):
            stefanak_rho(rho)

    def test_family_tags(self):
        assert grover().family == "grover"
        assert stefanak_rho(0.4).family_param == pytest.approx(0.4)
        assert make_coin(np.eye(3)).family is None


class TestMakeCoin:
    def test_identity_is_valid(self):
        c = make_coin(np.eye(3))
        assert c.a22 == 1.0

    def test_all_ones_rejected(self):
        with pytest.raises(NonUnitary) as exc:
            make_coin(np.ones((3, 3)) / 3)
        # A A* = J/3: off-diagonals 1/3, diagonal short of 1 by 2/3
        assert exc.value.max_deviation == pytest.approx(2 / 3, abs=1e-12)

    def test_stored_matrix_is_exact_input(self):
        m = grover().matrix.copy()
        m[0, 0] += 1e-13  # inside tolerance, must not be repaired
        c = make_coin(m)
        assert np.array_equal(c.matrix, m)

    def test_a_column_major_matrix_is_accepted(self):
        m = np.asfortranarray(grover().matrix)
        coin = make_coin(m)
        assert coin.matrix.flags.c_contiguous and np.array_equal(coin.matrix, m)

    def test_bad_shape(self):
        with pytest.raises(ValueError):
            make_coin(np.eye(2))

    def test_non_finite_rejected(self):
        m = np.eye(3, dtype=complex)
        m[0, 0] = np.nan
        with pytest.raises(ValueError):
            make_coin(m)

    def test_direct_construction_is_validated(self):
        with pytest.raises(NonUnitary) as exc:
            CoinMatrix(np.ones((3, 3)))
        assert exc.value.max_deviation == pytest.approx(3.0, abs=1e-12)
        m = grover().matrix.copy()
        m[1, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            CoinMatrix(m)

    def test_tolerance_is_honoured(self):
        m = grover().matrix * (1 + 5e-9)  # A A* = (1 + 5e-9)^2 I
        for build in (make_coin, CoinMatrix):
            with pytest.raises(NonUnitary) as exc:
                build(m)
            assert exc.value.max_deviation == pytest.approx(1e-8, rel=1e-3)
            assert exc.value.tol == UNITARITY_TOL

    def test_a_coin_1e_10_off_unitary_is_rejected(self):
        # coins are accepted only up to a deviation of 1e-12
        m = grover().matrix * (1 + 5e-11)  # A A* = (1 + 5e-11)^2 I
        with pytest.raises(NonUnitary) as exc:
            make_coin(m)
        assert exc.value.max_deviation == pytest.approx(1e-10, rel=1e-3)

    def test_entry_attributes(self):
        g = grover()
        assert g.a33 == g.matrix[2, 2]
        with pytest.raises(AttributeError):
            g.a14
        with pytest.raises(AttributeError):
            g.b11

    def test_matrix_is_read_only(self):
        with pytest.raises(ValueError):
            grover().matrix[0, 0] = 0


class TestMinors:
    def test_grover(self):
        m = minors(grover())
        assert m.B == pytest.approx(-1 / 3, abs=1e-15)
        assert m.C == pytest.approx(2 / 3, abs=1e-15)
        assert m.D == pytest.approx(2 / 3, abs=1e-15)
        assert m.E == pytest.approx(-1 / 3, abs=1e-15)
        # symmetric real coin: B = E and C = D
        assert m.B == m.E and m.C == m.D

    def test_fourier_cross_minor(self):
        assert minors(fourier()).C == pytest.approx(-1j / math.sqrt(3), abs=1e-15)

    def test_identity(self):
        m = minors(make_coin(np.eye(3)))
        assert (m.B, m.C, m.D, m.E) == (1, 0, 0, 1)


class TestRandomCoin:
    def test_unitary(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            assert unitarity_deviation(random_coin(rng).matrix) < 1e-12

    def test_seeded_reproducible(self):
        a = random_coin(np.random.default_rng(5)).matrix
        b = random_coin(np.random.default_rng(5)).matrix
        assert np.array_equal(a, b)
