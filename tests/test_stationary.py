import cmath
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qwstat import (
    Cycle,
    DegenerateSeeds,
    Measure,
    NoCycleClosure,
    QWalkError,
    TanSingularity,
    TypeMismatch,
    UnsupportedFamily,
    WaveState,
    Window,
    closed_form_measure_a1,
    closed_form_measure_type2,
    cycle_restriction,
    detect_period,
    eigen_residual,
    fourier,
    grover,
    measure_of,
    stefanak_eta,
    stefanak_rho,
    type1_params,
    type1_state,
    type2_params,
    type2_state,
    verify_stationary,
)
from qwstat.stationary import closed_form_applies
from qwstat.tolerance import CLOSURE_TOL_PER_SITE, MIN_SCALE, RTOL

OMEGA = cmath.exp(2j * cmath.pi / 3)

seed_values = st.complex_numbers(
    min_magnitude=0, max_magnitude=3, allow_nan=False, allow_infinity=False
)



def built_unless_too_small(build, seeds):
    """build(), or None once it raised "seeds too small".  For the coins of
    these tests max(mu) is at most 17 times the largest squared seed and at
    least that seed's square, so it must raise when that is below
    MIN_SCALE / 64 and must not when it is at least 2 * MIN_SCALE."""
    top = max((abs(complex(v)) for v in seeds), default=0.0) ** 2
    if top >= 2 * MIN_SCALE:
        return build()
    try:
        built = build()
    except ValueError as exc:
        assert str(exc).startswith("seeds too small: ")
        return None
    assert top >= MIN_SCALE / 64, "seeds too small were accepted"
    return built


def stay_consistency(coin, params, state):
    """max |stay(x) - (a21 left(x) + a23 right(x)) / (lam - a22)|"""
    a = state.amplitudes
    expected = (coin.a21 * a[:, 0] + coin.a23 * a[:, 2]) / (params.lam - coin.a22)
    return np.abs(a[:, 1] - expected).max()


class TestType1State:
    def test_grover_profile_is_flat(self):
        coin = grover()
        p = type1_params(coin)
        phi1, phi3 = 0.4 - 0.2j, -0.1 + 0.9j
        state = type1_state(coin, p, phi1, phi3, Window(20))
        expected = np.array([phi1, -(phi1 + phi3), phi3])
        assert np.abs(state.amplitudes - expected).max() < 1e-14

    def test_fourier_profile(self):
        coin = fourier()
        p = type1_params(coin)
        phi1, phi3 = 0.7 + 0.1j, -0.2 + 0.5j
        state = type1_state(coin, p, phi1, phi3, Window(15))
        for x in range(-15, 16):
            amp = state.amplitudes[x + 15]
            assert amp[0] == pytest.approx(OMEGA**x * phi1, abs=1e-12)
            assert amp[1] == pytest.approx(-(OMEGA ** (x + 1) * phi1 + phi3), abs=1e-12)
            assert amp[2] == pytest.approx(phi3, abs=1e-12)

    def test_stefanak_rho_stay_component(self):
        rho = 0.35
        coin = stefanak_rho(rho)
        p = type1_params(coin)
        phi1, phi3 = 1.0, 0.5j
        state = type1_state(coin, p, phi1, phi3, Cycle(9))
        coeff = -math.sqrt(1 - rho * rho) / (math.sqrt(2) * rho)
        for x in range(9):
            amp = state.amplitudes[x]
            assert amp[0] == pytest.approx(phi1, abs=1e-12)
            assert amp[1] == pytest.approx(coeff * (phi1 + phi3), abs=1e-12)
            assert amp[2] == pytest.approx(phi3, abs=1e-12)

    def test_degenerate_seeds(self):
        coin = grover()
        with pytest.raises(DegenerateSeeds, match="^the seeds give the zero state on this topology$"):
            type1_state(coin, type1_params(coin), 0, 0, Cycle(5))

    def test_type_mismatch(self):
        coin = grover()
        with pytest.raises(TypeMismatch):
            type1_state(coin, type2_params(coin), 1, 0, Cycle(5))

    @pytest.mark.parametrize(
        "phi1, phi3",
        [(math.nan, 1.0), (1.0, math.inf), (complex(0.0, math.nan), 0.0), (-math.inf, 0.0)],
    )
    def test_non_finite_seeds_rejected(self, phi1, phi3):
        coin = grover()
        with pytest.raises(ValueError, match="finite"):
            type1_state(coin, type1_params(coin), phi1, phi3, Cycle(5))

    def test_overflowing_measure_rejected(self):
        # finite seeds, but |1e200|^2 is beyond the float range at every site
        coin = grover()
        with pytest.raises(ValueError, match="overflows at site -3$"):
            type1_state(coin, type1_params(coin), 1e200, 1e200, Window(3))

    @pytest.mark.parametrize("seed", [1e-170, 1e-155])
    def test_underflowing_measure_rejected(self, seed):
        # nonzero seeds, but every weight underflows to zero or a subnormal
        coin = grover()
        with pytest.raises(ValueError, match="^seeds too small: .* underflows$"):
            type1_state(coin, type1_params(coin), seed, seed, Cycle(12))
        state = type1_state(coin, type1_params(coin), 1e-153, 0, Cycle(12))
        assert measure_of(state).values.max() >= MIN_SCALE

    def test_unimodular_profile_moduli(self):
        # |left(x)| = |phi1| and |right(x)| = |phi3| at every site
        for coin in (fourier(), stefanak_eta(0.9)):
            p = type1_params(coin)
            state = type1_state(coin, p, 0.6 + 0.4j, -1.1j, Window(30))
            assert np.abs(np.abs(state.amplitudes[:, 0]) - abs(0.6 + 0.4j)).max() < 1e-12
            assert np.abs(np.abs(state.amplitudes[:, 2]) - abs(-1.1j)).max() < 1e-12

    @pytest.mark.parametrize(
        "coin", [grover(), fourier(), stefanak_eta(0.4), stefanak_rho(0.8)]
    )
    def test_stay_component_consistency(self, coin):
        p = type1_params(coin)
        state = type1_state(coin, p, 0.3 - 0.8j, 0.9 + 0.2j, Window(25))
        assert stay_consistency(coin, p, state) < 1e-12

    @given(phi1=seed_values, phi3=seed_values)
    @example(phi1=1e-170, phi3=-1e-170j)
    @example(phi1=1e-155, phi3=0)
    @settings(max_examples=40, deadline=None)
    def test_grover_measure_formula_property(self, phi1, phi3):
        if abs(phi1) + abs(phi3) == 0:
            return
        coin = grover()
        state = built_unless_too_small(
            lambda: type1_state(coin, type1_params(coin), phi1, phi3, Cycle(7)), [phi1, phi3]
        )
        if state is None:
            return
        mu = measure_of(state)
        expected = 2 * (
            abs(phi1) ** 2 + abs(phi3) ** 2 + (phi1 * phi3.conjugate()).real
        )
        assert np.abs(mu.values - expected).max() < 1e-10


class TestType2State:
    def test_grover_profile(self):
        coin = grover()
        p = type2_params(coin)
        seeds = {0: 1 + 0j, 1: 0.5j, 2: -0.3, 3: 0.2 - 0.2j}
        state = type2_state(coin, p, seeds, Cycle(4))
        for x in range(4):
            phi_x = seeds[x]
            phi_prev = seeds[(x - 1) % 4]
            amp = state.amplitudes[x]
            assert amp[0] == pytest.approx(phi_x, abs=1e-12)
            assert amp[1] == pytest.approx(0.5 * (phi_x + phi_prev), abs=1e-12)
            assert amp[2] == pytest.approx(phi_prev, abs=1e-12)

    def test_stefanak_rho_stay_coefficient(self):
        rho = 0.55
        coin = stefanak_rho(rho)
        p = type2_params(coin)
        seeds = {x: complex(x + 1, -x) for x in range(6)}
        state = type2_state(coin, p, seeds, Cycle(6))
        coeff = rho / math.sqrt(2 * (1 - rho * rho))
        for x in range(6):
            amp = state.amplitudes[x]
            expected = coeff * (seeds[x] + seeds[(x - 1) % 6])
            assert amp[1] == pytest.approx(expected, abs=1e-12)

    def test_constant_sequence_is_uniform_eigenstate(self):
        coin = grover()
        p = type2_params(coin)
        c = 0.8 - 0.6j
        state = type2_state(coin, p, {x: c for x in range(10)}, Cycle(10))
        assert np.abs(state.amplitudes - c).max() < 1e-12
        assert eigen_residual(coin, state, 1.0) < 1e-12

    def test_window_uses_one_extra_seed(self):
        coin = grover()
        p = type2_params(coin)
        w = Window(3)
        seeds = {x: complex(1, x) for x in range(-4, 4)}  # covers -W-1 .. W
        state = type2_state(coin, p, seeds, w)
        assert state.amplitudes[-3 + 3, 2] == pytest.approx(seeds[-4], abs=1e-12)

    def test_missing_sites_read_as_zero(self):
        coin = grover()
        p = type2_params(coin)
        state = type2_state(coin, p, {0: 1.0}, Window(3))
        assert state.amplitudes[2 + 3, 0] == 0
        assert state.amplitudes[1 + 3, 2] == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_sequence(self):
        coin = grover()
        p = type2_params(coin)
        with pytest.raises(DegenerateSeeds):
            type2_state(coin, p, {}, Cycle(5))
        with pytest.raises(DegenerateSeeds):
            type2_state(coin, p, {0: 0.0, 1: 0.0}, Cycle(5))
        # a cycle reads only keys 0..N-1, so neither its site -1 nor N counts;
        # the message is Type 1's, as one check serves both
        with pytest.raises(DegenerateSeeds, match="^the seeds give the zero state on this topology$"):
            type2_state(coin, p, {-1: 1.0, 5: 1.0}, Cycle(5))
        # while a window reads -W-1, as the right amplitude of site -W
        state = type2_state(coin, p, {-4: 1.0}, Window(3))
        assert state.amplitudes[-3 + 3, 2] == p.lam / p.a_tilde_1

    def test_type_mismatch(self):
        coin = grover()
        with pytest.raises(TypeMismatch):
            type2_state(coin, type1_params(coin), {0: 1.0}, Cycle(5))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, complex(1.0, -math.inf)])
    def test_non_finite_seeds_rejected(self, bad):
        coin = grover()
        with pytest.raises(ValueError, match="finite"):
            type2_state(coin, type2_params(coin), {0: 1.0, 1: bad}, Cycle(5))

    @pytest.mark.parametrize("topology", [Cycle(5), Window(3)])
    def test_overflowing_measure_rejected(self, topology):
        coin = grover()
        p = type2_params(coin)
        assert np.isfinite(measure_of(type2_state(coin, p, {0: 1.0, 2: 1e153}, topology)).values).all()
        with pytest.raises(ValueError, match="overflows at site 2$"):
            type2_state(coin, p, {0: 1.0, 2: 1e200}, topology)

    @pytest.mark.parametrize("topology", [Cycle(5), Window(3)])
    def test_underflowing_measure_rejected(self, topology):
        # a zero beside a subnormal weight is no measure; one normal weight is
        coin = grover()
        p = type2_params(coin)
        with pytest.raises(ValueError, match="^seeds too small: "):
            type2_state(coin, p, {0: 1e-170, 2: 1e-160j}, topology)
        assert measure_of(type2_state(coin, p, {0: 1e-170, 2: 1e-150}, topology)).values.max() >= MIN_SCALE

    def test_site_key_beyond_int64_rejected(self):
        coin = grover()
        with pytest.raises(ValueError, match="64 bits"):
            type2_state(coin, type2_params(coin), {0: 1.0, 2**70: 1.0}, Cycle(5))

    @given(
        topology=st.one_of(
            st.integers(3, 40).map(Cycle), st.integers(1, 30).map(Window)
        ),
        seeds=st.dictionaries(st.integers(-70, 70), seed_values, max_size=40),
    )
    @example(topology=Cycle(5), seeds={-1: 1.0, 5: 2.0, 4: 3.0, 0: 1j, 7: -1.0})
    @example(topology=Window(3), seeds={-4: 1.0, -5: 2.0, 4: 3.0, 0: 1j, -40: 5.0})
    @example(topology=Cycle(5), seeds={1: 1e-170, 3: 1e-160j, 9: 1.0})
    @settings(max_examples=80, deadline=None)
    def test_seed_lookup_matches_per_site_lookup(self, topology, seeds):
        # reference: look every site and its left neighbour up one at a time
        xs = topology.sites()
        phi = np.array([complex(seeds.get(topology.wrap(int(x)), 0.0)) for x in xs])
        prev = np.array([complex(seeds.get(topology.wrap(int(x) - 1), 0.0)) for x in xs])
        assume(np.abs(phi).max() > 0 or np.abs(prev).max() > 0)
        coin = grover()
        p = type2_params(coin)
        state = built_unless_too_small(
            lambda: type2_state(coin, p, seeds, topology), [*phi, *prev]
        )
        if state is None:
            return
        assert np.array_equal(state.amplitudes[:, 0], phi)
        assert np.array_equal(state.amplitudes[:, 2], p.lam / p.a_tilde_1 * prev)

    @pytest.mark.parametrize("coin", [grover(), stefanak_eta(1.3), stefanak_rho(0.25)])
    def test_stay_component_consistency(self, coin):
        p = type2_params(coin)
        rng = np.random.default_rng(8)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(12)}
        state = type2_state(coin, p, seeds, Cycle(12))
        assert stay_consistency(coin, p, state) < 1e-12


# Grover Type 1 seeds (phi3 = 0) whose weights on a 3-cycle sit at the two
# ends of the float range
OVERFLOW_PHI1 = complex(9.02522829131669e153, -2.9034309071738925e153)
UNDERFLOW_PHI1 = complex(1.0332346718761602e-154, -2.1204490582554513e-155)

# seeds whose squared moduli lie near the largest double or the smallest
# normal one
edge_seeds = st.builds(
    cmath.rect,
    st.one_of(st.floats(-155.5, -152.5), st.floats(152.5, 155.5)).map(lambda e: 10.0**e),
    st.floats(0, 2 * math.pi),
)


class TestWeightFences:
    """The weights a built state is checked on are the ones measure_of writes."""

    def test_a_squared_norm_that_overflows_is_rejected(self):
        # every weight is the finite 1.7976931348623153e308, their sum is inf
        coin = grover()
        with pytest.raises(
            ValueError, match="^seeds too large: the squared norm of the state overflows$"
        ):
            type1_state(coin, type1_params(coin), OVERFLOW_PHI1, 0, Cycle(3))

    def test_weights_near_the_smallest_normal_stay_normal(self):
        # the fence used to pass weights that measure_of wrote as the
        # subnormal 2.225073858507201e-308
        coin = grover()
        state = type1_state(coin, type1_params(coin), UNDERFLOW_PHI1, 0, Cycle(3))
        assert measure_of(state).values.max() >= 2.2250738585072014e-308

    @given(
        kind=st.sampled_from(["grover", "fourier", "stefanak-eta", "stefanak-rho"]),
        param=st.floats(0.1, 0.9),
        walk_type=st.sampled_from([1, 2]),
        seeds=st.lists(edge_seeds, min_size=1, max_size=6),
        topology=st.one_of(st.integers(3, 12).map(Cycle), st.integers(1, 6).map(Window)),
    )
    @example(kind="grover", param=0.5, walk_type=1, seeds=[OVERFLOW_PHI1], topology=Cycle(3))
    @example(kind="grover", param=0.5, walk_type=1, seeds=[UNDERFLOW_PHI1], topology=Cycle(3))
    @settings(max_examples=150, deadline=None)
    def test_a_built_state_has_finite_normal_weights(self, kind, param, walk_type, seeds, topology):
        assume(walk_type == 1 or kind != "fourier")  # Fourier has no Type 2 state
        coin = {
            "grover": grover,
            "fourier": fourier,
            "stefanak-eta": lambda: stefanak_eta(param),
            "stefanak-rho": lambda: stefanak_rho(param),
        }[kind]()
        try:
            if walk_type == 1:
                phi3 = seeds[1] if len(seeds) > 1 else 0
                state = type1_state(coin, type1_params(coin), seeds[0], phi3, topology)
            else:
                state = type2_state(coin, type2_params(coin), dict(enumerate(seeds)), topology)
        except ValueError as exc:
            assert str(exc).startswith(("seeds too large: ", "seeds too small: "))
            return
        mu = measure_of(state).values
        with np.errstate(over="ignore"):
            norm = mu.sum()
        assert np.isfinite(mu).all() and np.isfinite(norm)
        assert mu.max() >= 2.0**-1022


class TestMeasures:
    def test_singleton_state(self):
        topo = Window(4)
        amps = np.zeros((topo.n_sites, 3), dtype=complex)
        amps[4, 0] = 1.0  # site 0
        mu = measure_of(WaveState(topo, amps))
        assert mu.values[4] == 1.0
        assert mu.values.sum() == 1.0

    def test_fourier_period_three_pattern(self):
        state = type1_state(
            fourier(), type1_params(fourier()), OMEGA, OMEGA * OMEGA, Cycle(12)
        )
        mu = measure_of(state)
        expected = np.tile([6.0, 3.0, 3.0], 4)
        assert np.abs(mu.values - expected).max() < 1e-12
        assert detect_period(mu) == 3

    def test_grover_uniform(self):
        state = type1_state(grover(), type1_params(grover()), 1.0, 0.0, Window(50))
        mu = measure_of(state)
        assert np.abs(mu.values - 2.0).max() < 1e-12
        assert detect_period(mu) == 1

    def test_an_infinite_amplitude_has_no_measure_but_fails_verify(self):
        # measure_of rejects the inf weight at site 2; verify reads the same
        # weights and reports a failure instead of raising
        amps = np.ones((5, 3), dtype=complex)
        amps[2, 1] = np.inf
        state = WaveState(Cycle(5), amps)
        with pytest.raises(ValueError, match="^measure values must be finite and nonnegative, got inf at site 2$"):
            measure_of(state)
        with np.errstate(invalid="ignore"):  # inf * 0 in the kernel, inf - inf in the drift
            report = verify_stationary(grover(), state, 3)
        assert report.scale == np.inf
        assert report.passed is False

    @pytest.mark.parametrize("seeds", [(1.0, 1.0), (0.3 - 0.8j, 1.2 + 0.4j), (2.0, -0.5j)])
    def test_fourier_period_three_for_generic_seeds(self, seeds):
        # any seed pair with phi1 * phi3 != 0 produces a period-3 measure
        phi1, phi3 = seeds
        state = type1_state(fourier(), type1_params(fourier()), phi1, phi3, Cycle(12))
        assert detect_period(measure_of(state)) == 3


class TestClosedFormA1:
    def test_eta_zero_matches_grover_value(self):
        # cos xi = -1 at eta = 0, so the Chebyshev factor is 1 at every x
        for x in (-3, 0, 5):
            assert closed_form_measure_a1(0.0, 2.0, x) == pytest.approx(24.0, abs=1e-12)

    def test_x_zero(self):
        eta = 0.8
        expected = (2 + 4 + 9 * math.tan(eta) ** 2) * 0.49
        assert closed_form_measure_a1(eta, 0.7, 0) == pytest.approx(expected, abs=1e-12)

    def test_matches_constructed_measure(self):
        eta, phi = 0.3, 0.9 + 0.1j
        coin = stefanak_eta(eta)
        state = type1_state(coin, type1_params(coin), phi, phi, Window(40))
        mu = measure_of(state)
        for x in (-40, -17, 0, 2, 33):
            assert mu.values[x + 40] == pytest.approx(
                closed_form_measure_a1(eta, phi, x), abs=1e-9
            )

    def test_tan_singularity(self):
        with pytest.raises(TanSingularity):
            closed_form_measure_a1(math.pi / 2, 1.0, 0)

    def test_cos_eta_of_1e_11_is_no_pole(self):
        # |cos(eta)| counts as a pole only below 1e-12
        eta = math.acos(1e-11)
        assert math.cos(eta) == pytest.approx(1e-11, rel=1e-4)
        for x in (0, 1, 7):
            assert math.isfinite(closed_form_measure_a1(eta, 1.0, x))


class TestClosedFormType2:
    def test_grover_unit_seeds(self):
        assert closed_form_measure_type2(grover(), {0: 1.0, 1: 1.0}, 1, Window(2)) == pytest.approx(3.0)

    def test_rho_at_grover_point_matches_grover_coefficients(self):
        seeds = {0: 0.4 + 0.1j, 1: -0.7j}
        a = closed_form_measure_type2(grover(), seeds, 1, Window(2))
        b = closed_form_measure_type2(stefanak_rho(1 / math.sqrt(3)), seeds, 1, Window(2))
        assert a == pytest.approx(b, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.5, 1.5, 3.0])
    def test_eta_independent(self, eta):
        # the deformation parameter drops out of the Type 2 measure entirely
        value = closed_form_measure_type2(stefanak_eta(eta), {0: 1.0, 1: 1j}, 1, Window(2))
        assert value == pytest.approx(2.5, abs=1e-12)

    def test_unsupported_family(self):
        with pytest.raises(UnsupportedFamily):
            closed_form_measure_type2(fourier(), {0: 1.0}, 0, Window(2))

    def test_cycle_wraparound(self):
        seeds = {x: complex(x + 1) for x in range(5)}
        v = closed_form_measure_type2(grover(), seeds, 0, Cycle(5))
        assert v == pytest.approx(1.25 * (1 + 25) + 0.5 * 5, abs=1e-12)

    @pytest.mark.parametrize("coin", [grover(), stefanak_eta(0.9), stefanak_rho(0.6)])
    def test_matches_constructed_measure(self, coin):
        rng = np.random.default_rng(31)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(16)}
        p = type2_params(coin)
        mu = measure_of(type2_state(coin, p, seeds, Cycle(16)))
        for x in range(16):
            assert mu.values[x] == pytest.approx(
                closed_form_measure_type2(coin, seeds, x, Cycle(16)), abs=1e-10
            )

    @given(
        topology=st.one_of(
            st.integers(3, 40).map(Cycle), st.integers(1, 30).map(Window)
        ),
        seeds=st.dictionaries(st.integers(-70, 70), seed_values, max_size=40),
    )
    @example(topology=Cycle(5), seeds={-1: 1.0, 5: 2.0, 4: 3.0, 0: 1j, 7: -1.0})
    @example(topology=Window(3), seeds={-4: 1.0, -5: 2.0, 4: 3.0, 0: 1j, -40: 5.0})
    @example(topology=Cycle(5), seeds={1: 1e-170, 3: 1e-160j, 9: 1.0})
    @settings(max_examples=80, deadline=None)
    def test_per_site_values_match_constructed_measure(self, topology, seeds):
        # the closed form reads seeds one site at a time, type2_state through
        # one array: a cycle wraps the lag, a window reads site -W-1, and keys
        # off the topology are ignored by both
        xs = topology.sites()
        read = {topology.wrap(int(x)) for x in xs} | {topology.wrap(int(xs[0]) - 1)}
        for coin in (grover(), stefanak_eta(0.8), stefanak_rho(0.35)):
            params = type2_params(coin)
            if not any(seeds.get(k, 0) for k in read):
                with pytest.raises(DegenerateSeeds):
                    type2_state(coin, params, seeds, topology)
                continue
            state = built_unless_too_small(
                lambda: type2_state(coin, params, seeds, topology),
                [seeds.get(k, 0) for k in read],
            )
            if state is None:
                continue
            mu = measure_of(state).values
            closed = [closed_form_measure_type2(coin, seeds, int(x), topology) for x in xs]
            np.testing.assert_allclose(closed, mu, rtol=1e-12, atol=1e-12)

    def test_eta_grid_constructed_measures_agree_and_coincide(self):
        rng = np.random.default_rng(14)
        topo = Cycle(10)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(10)}
        measures = []
        for eta in (0.0, 0.5, 1.5, 3.0):
            coin = stefanak_eta(eta)
            mu = measure_of(type2_state(coin, type2_params(coin), seeds, topo))
            closed = [closed_form_measure_type2(coin, seeds, x, topo) for x in range(10)]
            assert np.abs(mu.values - closed).max() < 1e-9
            measures.append(mu.values)
        for other in measures[1:]:
            assert np.abs(other - measures[0]).max() < 1e-9


class TestClosedFormApplies:
    def test_type1_needs_stefanak_eta_and_equal_seeds(self):
        assert closed_form_applies(stefanak_eta(0.4), 1, 0.5j, 0.5j)
        assert not closed_form_applies(stefanak_eta(0.4), 1, 1.0, 2.0)
        for coin in (grover(), fourier(), stefanak_rho(0.5)):
            assert not closed_form_applies(coin, 1, 1.0, 1.0)

    def test_type2_families(self):
        for coin in (grover(), stefanak_eta(0.4), stefanak_rho(0.5)):
            assert closed_form_applies(coin, 2, None, None)
        assert not closed_form_applies(fourier(), 2, None, None)


class TestDetectPeriod:
    def test_alternating(self):
        mu = Measure(Cycle(8), np.tile([1.0, 2.0], 4))
        assert detect_period(mu) == 2

    def test_uniform_is_one(self):
        mu = Measure(Cycle(6), np.full(6, 3.5))
        assert detect_period(mu) == 1

    def test_aperiodic_is_none(self):
        mu = Measure(Window(4), np.arange(9, dtype=float))
        assert detect_period(mu) is None

    def test_window_comparisons_do_not_wrap(self):
        mu = Measure(Window(2), np.array([1.0, 2.0, 1.0, 2.0, 1.0]))
        assert detect_period(mu) == 2

    @given(st.integers(1, 4), st.integers(2, 5))
    @settings(max_examples=30, deadline=None)
    def test_tiled_pattern_period_divides(self, p, reps):
        rng = np.random.default_rng(p * 100 + reps)
        block = rng.uniform(1, 2, size=p)
        mu = Measure(Cycle(p * reps * 2), np.tile(block, reps * 2))
        found = detect_period(mu)
        assert found is not None and p % found == 0

    def test_all_zero_measure_needs_exact_equality(self):
        assert detect_period(Measure(Cycle(6), np.zeros(6))) == 1
        assert detect_period(Measure(Cycle(6), [0.0, 0.0, 0.0, 0.0, 0.0, 5e-324])) is None

    def test_tolerance_is_relative_to_the_largest_weight(self):
        block = np.array([1.0, 1.0 + 1e-9, 1.0])
        for scale in (1e-12, 1.0, 1e12):
            assert detect_period(Measure(Cycle(12), scale * np.tile(block, 4))) == 3
            flat = scale * np.tile([1.0, 1.0 + 1e-11, 1.0], 4)
            assert detect_period(Measure(Cycle(12), flat)) == 1

    def test_ramp_below_tolerance_is_uniform_on_a_window_only(self):
        # each step is below the tolerance, but on a cycle the pair that wraps
        # sees the whole rise
        ramp = 1.0 + 0.3 * RTOL * np.arange(13)
        assert detect_period(Measure(Window(6), ramp)) == 1
        assert detect_period(Measure(Cycle(12), ramp[:12])) is None

    @pytest.mark.parametrize("exponent", range(-8, 9))
    def test_fourier_period_three_at_every_seed_scale(self, exponent):
        s = 10.0**exponent
        coin = fourier()
        state = type1_state(coin, type1_params(coin), s * OMEGA, s * OMEGA**2, Cycle(3000))
        assert detect_period(measure_of(state)) == 3

    @pytest.mark.parametrize("exponent", range(-8, 9))
    @pytest.mark.parametrize("topology", [Window(50), Cycle(12)])
    def test_grover_uniform_at_every_seed_scale(self, exponent, topology):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 10.0**exponent, 0.0, topology)
        assert detect_period(measure_of(state)) == 1

    def test_wide_window(self):
        # a full compare of every shift would take minutes here; every shift
        # of the dip passes the check at the largest weight and fails the one
        # at the smallest
        rng = np.random.default_rng(6)
        topology = Window(100_000)
        assert detect_period(Measure(topology, rng.uniform(0.5, 1.5, topology.n_sites))) is None
        dip = np.ones(topology.n_sites)
        dip[123] = 0.5
        assert detect_period(Measure(topology, dip)) is None
        tiled = np.resize(rng.uniform(0.5, 1.5, 7), topology.n_sites)
        assert detect_period(Measure(topology, tiled)) == 7

    def test_an_infinite_weight_never_reaches_the_scan(self):
        # the scan compared inf - inf, a NaN, and returned 1 for this measure
        with pytest.raises(ValueError, match="got inf at site 0$"):
            Measure(Cycle(3), [np.inf, 1.0, np.inf])

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_matches_brute_force_scan(self, data):
        mu, block = data.draw(periodic_or_aperiodic_measures())
        found = detect_period(mu)
        assert found == brute_force_period(mu)
        if found is not None and isinstance(mu.topology, Cycle):
            assert mu.topology.n % found == 0
        if block is not None and block <= mu.topology.n_sites // 2:
            assert found is not None and block % found == 0


def brute_force_period(measure):
    """Every shift up to half the sites, compared through np.roll on cycles."""
    v = measure.values
    tol = RTOL * v.max(initial=0.0)
    for p in range(1, len(v) // 2 + 1):
        if isinstance(measure.topology, Cycle):
            dev = np.abs(np.roll(v, -p) - v).max()
        else:
            dev = np.abs(v[p:] - v[:-p]).max()
        if dev <= tol:
            return p
    return None


@st.composite
def periodic_or_aperiodic_measures(draw):
    """(measure, block length or None when aperiodic).

    Periodic measures repeat a random block; on a cycle its length divides
    n, on a window it need not.  Noise, when added, is 1e-4 of the tolerance.
    An impulse is one nonzero site, at an edge or inside; a tied maximum is
    an aperiodic measure whose largest weight sits at several sites.
    """
    if draw(st.booleans()):
        n = draw(st.integers(3, 400))
        topology = Cycle(n)
        lengths = [d for d in range(1, n + 1) if n % d == 0]
    else:
        topology = Window(draw(st.integers(1, 200)))
        n = topology.n_sites
        lengths = list(range(1, n + 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["tiled", "noisy", "aperiodic", "impulse", "tied maximum"]))
    if kind == "aperiodic":
        block = None
        values = rng.uniform(0.5, 1.5, n)
    elif kind == "impulse":
        block = None
        values = np.zeros(n)
        values[draw(st.sampled_from([0, n - 1]) | st.integers(0, n - 1))] = 1.0
    elif kind == "tied maximum":
        block = None
        values = rng.uniform(0.5, 1.5, n)
        values[rng.choice(n, size=draw(st.integers(2, 3)), replace=False)] = 1.5
    else:
        block = draw(st.sampled_from(lengths))
        values = np.resize(rng.uniform(0.5, 1.5, block), n)
        if kind == "noisy":
            values *= 1.0 + 1e-4 * RTOL * rng.uniform(-1.0, 1.0, n)
    scale = 10.0 ** draw(st.integers(-8, 8))
    return Measure(topology, scale * values), block


def fourier_restriction(phi1, phi3, n):
    coin = fourier()
    return cycle_restriction(coin, type1_params(coin), phi1, phi3, n)


class TestFourierCycle:
    """The Fourier Type 1 state on cycles: k1 = 2 pi/3 and k2 = 0, so a state
    with phi1 != 0 closes exactly on the cycles of 3m sites."""

    def test_m1_measure(self):
        mu = measure_of(fourier_restriction(OMEGA, OMEGA * OMEGA, 3))
        assert np.abs(mu.values - [6.0, 3.0, 3.0]).max() < 1e-12

    def test_m2_repeats(self):
        mu = measure_of(fourier_restriction(OMEGA, OMEGA * OMEGA, 6))
        assert np.abs(mu.values - np.tile([6.0, 3.0, 3.0], 2)).max() < 1e-12

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_boundary_residuals(self, m):
        # each seam relation is sqrt(3) times a channel's eigen relation
        state = fourier_restriction(0.4 - 1.1j, 0.8 + 0.3j, 3 * m)
        assert eigen_residual(fourier(), state, 1j) < 1e-10 / math.sqrt(3)

    def test_cycle_eigen_residual(self):
        state = fourier_restriction(1.0, 2.0, 12)
        assert eigen_residual(fourier(), state, 1j) < 1e-10

    def test_seed_independence_of_stationarity(self):
        # any seed pair works on the 3m cycle, not just the special one
        rng = np.random.default_rng(77)
        from qwstat import verify_stationary

        for _ in range(4):
            phi1, phi3 = complex(*rng.normal(size=2)), complex(*rng.normal(size=2))
            state = fourier_restriction(phi1, phi3, 9)
            report = verify_stationary(fourier(), state, 60, tol=1e-9)
            assert report.passed

    def test_degenerate_seeds(self):
        with pytest.raises(DegenerateSeeds):
            fourier_restriction(0, 0, 6)

    def test_bad_m(self):
        with pytest.raises(ValueError):
            fourier_restriction(1, 0, 0)

    @pytest.mark.parametrize("m", [*range(1, 61), 333, 1000, 3333, 10_000, 33_333])
    def test_closes_on_multiples_of_three(self, m):
        state = fourier_restriction(OMEGA, OMEGA * OMEGA, 3 * m)
        assert eigen_residual(fourier(), state, 1j) <= 1e-9
        for n in (3 * m - 1, 3 * m + 1):
            if n >= 3:
                with pytest.raises(NoCycleClosure):
                    fourier_restriction(OMEGA, OMEGA * OMEGA, n)

    def test_zero_left_seed_closes_on_every_cycle(self):
        for n in range(3, 61):
            state = fourier_restriction(0, 1.0, n)
            assert eigen_residual(fourier(), state, 1j) < 1e-12

    def test_zero_right_seed_needs_three_to_divide_n(self):
        for n in range(3, 61):
            if n % 3:
                with pytest.raises(NoCycleClosure):
                    fourier_restriction(1.0, 0, n)
            else:
                assert eigen_residual(fourier(), fourier_restriction(1.0, 0, n), 1j) < 1e-12


CLOSURE_COINS = {
    "grover": grover(),
    "fourier": fourier(),
    "rho-0.4": stefanak_rho(0.4),
    "eta-0.3": stefanak_eta(0.3),
    "eta-0.7": stefanak_eta(0.7),
    "eta-1.1": stefanak_eta(1.1),
}


class TestCycleRestriction:
    @pytest.mark.parametrize("coin", [grover(), stefanak_rho(0.4)], ids=["grover", "rho-0.4"])
    def test_zero_momenta_close_on_every_cycle(self, coin):
        params = type1_params(coin)
        for n in range(3, 61):
            state = cycle_restriction(coin, params, 0.6 - 0.2j, -1.3j, n)
            assert eigen_residual(coin, state, params.lam) < 1e-12

    @pytest.mark.parametrize("eta", [0.3, 0.7, 1.1])
    def test_stefanak_eta_closes_on_no_small_cycle(self, eta):
        coin = stefanak_eta(eta)
        params = type1_params(coin)
        for n in range(3, 201):
            with pytest.raises(NoCycleClosure) as info:
                cycle_restriction(coin, params, 1.0, 0.5j, n)
            assert info.value.n == n
            assert info.value.mismatch >= 3e-3  # far from the rounding bound

    @pytest.mark.parametrize("name", CLOSURE_COINS)
    def test_closure_iff_the_seam_residual_vanishes(self, name):
        # unit seeds: the eigen residual of the unrestricted state is the
        # largest seam mismatch |e^{i n k} - 1| over the nonzero seeds
        coin = CLOSURE_COINS[name]
        params = type1_params(coin)
        rng = np.random.default_rng(5)
        for n in range(3, 61):
            for use1, use3 in [(1, 0), (0, 1), (1, 1)]:
                phi1, phi3 = (use * cmath.exp(2j * math.pi * rng.random()) for use in (use1, use3))
                residual = eigen_residual(coin, type1_state(coin, params, phi1, phi3, Cycle(n)),
                                          params.lam)
                tol = CLOSURE_TOL_PER_SITE * n
                try:
                    state = cycle_restriction(coin, params, phi1, phi3, n)
                except NoCycleClosure as exc:
                    assert residual > tol
                    assert exc.mismatch == pytest.approx(residual, rel=1e-9)
                    assert residual.site in (0, n - 1)
                else:
                    assert residual <= tol
                    assert eigen_residual(coin, state, params.lam) == residual

    def test_seam_mismatch_against_32_eps_n(self):
        # the bound on Cycle(1000) is 32 * 2**-52 * 1000 = 7.1e-12
        coin = stefanak_eta(0.700378636604685)
        with pytest.raises(NoCycleClosure) as info:
            cycle_restriction(coin, type1_params(coin), 1.0, 0.0, 1000)
        assert 1.42e-11 < info.value.mismatch < 1.44e-11  # 2.01 times the bound
        coin = stefanak_eta(0.700378636604676)  # mismatch 0.49 times the bound
        params = type1_params(coin)
        state = cycle_restriction(coin, params, 1.0, 0.0, 1000)
        assert 3e-12 < eigen_residual(coin, state, params.lam) < 4e-12

    def test_error(self):
        coin = fourier()
        with pytest.raises(NoCycleClosure) as info:
            cycle_restriction(coin, type1_params(coin), 1.0, 1.0, 10)
        exc = info.value
        assert isinstance(exc, QWalkError)
        assert exc.n == 10
        assert exc.momentum == pytest.approx(2 * math.pi / 3)
        assert exc.mismatch == pytest.approx(abs(cmath.exp(20j * math.pi / 3) - 1))
        assert "10 sites" in str(exc)

    def test_seeds_and_params_are_checked_as_type1_state_checks_them(self):
        coin = grover()
        with pytest.raises(TypeMismatch):
            cycle_restriction(coin, type2_params(coin), 1.0, 0.0, 6)
        with pytest.raises(ValueError, match="finite"):
            cycle_restriction(coin, type1_params(coin), math.nan, 0.0, 6)


def eliminate_stay(coin, lam):
    """(p, c, q, r) of the eigen relations once the stay channel is
    eliminated through s = 1/(lam - a22):

        lam left(x)    = p left(x+1) + c right(x+1),  p = a11 + a12 a21 s,  c = a13 + a12 a23 s
        lam right(x+1) = q left(x) + r right(x),      q = a31 + a32 a21 s,  r = a33 + a32 a23 s
    """
    s = 1 / (lam - coin.a22)
    return (
        coin.a11 + coin.a12 * coin.a21 * s,
        coin.a13 + coin.a12 * coin.a23 * s,
        coin.a31 + coin.a32 * coin.a21 * s,
        coin.a33 + coin.a32 * coin.a23 * s,
    )


def transfer_matrix(coin, lam):
    """T(lam), mapping (left(x), right(x)) to (left(x+1), right(x+1)); the
    pivot p must not vanish."""
    p, c, q, r = eliminate_stay(coin, lam)
    return np.array([[(lam - c * q / lam) / p, -c * r / (lam * p)], [q / lam, r / lam]])


TRANSFER_COINS = {
    "grover": grover(),
    "fourier": fourier(),
    "eta-0.7": stefanak_eta(0.7),
    "rho-0.4": stefanak_rho(0.4),
}


class TestTransferMatrix:
    """A second construction of the eigenstates: iterate the relations between
    neighbouring sites instead of writing the profiles down."""

    @pytest.mark.parametrize("name", TRANSFER_COINS)
    def test_type1_is_diagonal(self, name):
        coin = TRANSFER_COINS[name]
        p = type1_params(coin)
        expected = np.diag([p.lam / p.a_tilde_1, p.a_tilde_2 / p.lam])
        assert np.abs(transfer_matrix(coin, p.lam) - expected).max() <= 1e-14

    @pytest.mark.parametrize("name", TRANSFER_COINS)
    def test_type1_state_iterated_from_the_left_edge(self, name):
        coin = TRANSFER_COINS[name]
        params = type1_params(coin)
        lam, phi1, phi3 = params.lam, 0.6 - 0.3j, -0.2 + 1.1j
        T = transfer_matrix(coin, lam)
        r1, r2 = lam / params.a_tilde_1, params.a_tilde_2 / lam
        pair = np.array([r1**-40 * phi1, r2**-40 * phi3])
        rows = []
        for _ in range(81):  # sites -40..40
            rows.append(pair)
            pair = T @ pair
        left, right = np.array(rows).T
        stay = (coin.a21 * left + coin.a23 * right) / (lam - coin.a22)
        expected = type1_state(coin, params, phi1, phi3, Window(40)).amplitudes
        iterated = np.stack([left, stay, right], axis=1)
        assert np.abs(iterated - expected).max() <= 1e-12 * np.abs(expected).max()

    @pytest.mark.parametrize("name", ["grover", "eta-0.7", "rho-0.4"])
    def test_type2_pivot_vanishes(self, name):
        # with p = 0 the left relation ties left(x) to right(x+1) alone, so
        # any sequence phi_x is a left channel, with right(x+1) = lam phi_x / a1
        coin = TRANSFER_COINS[name]
        params = type2_params(coin)
        lam = params.lam
        p, c, q, r = eliminate_stay(coin, lam)
        assert abs(p) <= 1e-15
        assert abs(c - params.a_tilde_1) <= 1e-15
        rng = np.random.default_rng(9)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(-41, 41)}
        amps = type2_state(coin, params, seeds, Window(40)).amplitudes
        left, right = amps[:, 0], amps[:, 2]
        bound = 1e-12 * np.abs(amps).max()
        assert np.abs(lam * left[:-1] - c * right[1:]).max() <= bound
        assert np.abs(lam * right[1:] - (q * left[:-1] + r * right[:-1])).max() <= bound
