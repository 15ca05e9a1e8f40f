import cmath
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwstat import evolve
from qwstat import (
    Cycle,
    NonUnimodularLambda,
    WaveState,
    Window,
    WindowTooSmall,
    cycle_restriction,
    eigen_residual,
    fourier,
    grover,
    make_coin,
    measure_of,
    minors,
    random_coin,
    step,
    stefanak_eta,
    stefanak_rho,
    type1_params,
    type1_state,
    type2_params,
    type2_state,
    verify_stationary,
)
from qwstat.tolerance import MIN_SCALE


def random_state(topology, rng):
    amps = rng.normal(size=(topology.n_sites, 3)) + 1j * rng.normal(
        size=(topology.n_sites, 3)
    )
    return WaveState(topology, amps)


def rolled_step(a, state):
    """The reference step: the neighbours' triples as rolled (cycle) or
    padded (window) copies of the state, one coin row each.  step takes the
    same products without the copies and must give the same bits."""
    amps = state.amplitudes
    if isinstance(state.topology, Cycle):
        up = np.roll(amps, -1, axis=0)
        down = np.roll(amps, 1, axis=0)
    else:
        pad = np.zeros((1, 3), dtype=np.complex128)
        up = np.vstack([amps[1:], pad])
        down = np.vstack([pad, amps[:-1]])
    out = np.empty_like(amps)
    out[:, 0] = up @ a[0]
    out[:, 1] = amps @ a[1]
    out[:, 2] = down @ a[2]
    return out


class TestStep:
    def test_single_site_grover_cycle(self):
        # an impulse (1, 0, 0) at site 0 spreads to exactly three entries:
        # the first column of the coin, distributed left/stay/right
        topo = Cycle(5)
        amps = np.zeros((5, 3), dtype=complex)
        amps[0, 0] = 1.0
        out = step(grover(), WaveState(topo, amps)).amplitudes
        assert out[4, 0] == pytest.approx(-1 / 3, abs=1e-15)
        assert out[0, 1] == pytest.approx(2 / 3, abs=1e-15)
        assert out[1, 2] == pytest.approx(2 / 3, abs=1e-15)
        mask = np.ones_like(out, dtype=bool)
        mask[4, 0] = mask[0, 1] = mask[1, 2] = False
        assert np.abs(out[mask]).max() == 0.0

    def test_identity_coin_shifts_channels(self):
        topo = Cycle(6)
        rng = np.random.default_rng(2)
        state = random_state(topo, rng)
        out = step(make_coin(np.eye(3)), state).amplitudes
        assert np.allclose(out[:, 0], np.roll(state.amplitudes[:, 0], -1), atol=1e-15)
        assert np.allclose(out[:, 1], state.amplitudes[:, 1], atol=1e-15)
        assert np.allclose(out[:, 2], np.roll(state.amplitudes[:, 2], 1), atol=1e-15)

    def test_cycle_step_preserves_norm(self):
        rng = np.random.default_rng(5)
        state = random_state(Cycle(11), rng)
        out = step(fourier(), state)
        assert out.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-12)

    def test_window_absorbs_at_edges(self):
        # a left-mover at the left edge exits entirely in one identity step
        topo = Window(2)
        amps = np.zeros((5, 3), dtype=complex)
        amps[0, 0] = 1.0  # site -2
        out = step(make_coin(np.eye(3)), WaveState(topo, amps))
        assert out.norm_squared() == 0.0

    def test_linearity(self):
        rng = np.random.default_rng(13)
        topo = Cycle(9)
        a, b = 0.3 - 1.2j, 0.8 + 0.4j
        s1, s2 = random_state(topo, rng), random_state(topo, rng)
        combined = WaveState(topo, a * s1.amplitudes + b * s2.amplitudes)
        lhs = step(grover(), combined).amplitudes
        rhs = a * step(grover(), s1).amplitudes + b * step(grover(), s2).amplitudes
        assert np.abs(lhs - rhs).max() < 1e-12

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=25, deadline=None)
    def test_norm_conservation_property(self, seed):
        rng = np.random.default_rng(seed)
        coin = random_coin(rng)
        state = random_state(Cycle(8), rng)
        before = state.norm_squared()
        for _ in range(5):
            state = step(coin, state)
        assert state.norm_squared() == pytest.approx(before, rel=1e-12)

    @given(
        data=st.data(),
        topology=st.one_of(st.integers(3, 70).map(Cycle), st.integers(1, 35).map(Window)),
        seed=st.integers(0, 10**6),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_rolled_copies(self, data, topology, seed):
        rng = np.random.default_rng(seed)
        coin = data.draw(
            st.sampled_from(
                [grover(), fourier(), stefanak_eta(0.7), stefanak_rho(0.4), random_coin(rng)]
            )
        )
        scale = data.draw(st.sampled_from([1.0, 1e-300, 1e150]))
        state = WaveState(topology, random_state(topology, rng).amplitudes * scale)
        assert np.array_equal(step(coin, state).amplitudes, rolled_step(coin.matrix, state))

    def test_memory_of_one_step(self):
        # the output and at most two channel products, 80 bytes a site: within
        # two state-sized arrays, where rolled copies of the state took four
        n = 99_999
        state = random_state(Cycle(n), np.random.default_rng(4))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            out = step(grover(), state)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.amplitudes.shape == (n, 3)
        assert peak <= 2 * state.amplitudes.nbytes + 64 * 1024

    def test_window_matches_cycle_away_from_edges(self):
        # same support, same coin: interior sites see identical dynamics
        rng = np.random.default_rng(21)
        w = Window(6)
        c = Cycle(13)
        amps = np.zeros((13, 3), dtype=complex)
        amps[4:9] = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
        out_w = step(grover(), WaveState(w, amps)).amplitudes
        out_c = step(grover(), WaveState(c, amps)).amplitudes
        assert np.abs(out_w - out_c).max() < 1e-14


class TestEigenResidual:
    def test_grover_type1_state(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 0.5, -0.2j, Cycle(9))
        assert eigen_residual(coin, state, -1) < 1e-12

    def test_fourier_type1_on_cycle12(self):
        coin = fourier()
        state = type1_state(coin, type1_params(coin), 1.0, 1.0, Cycle(12))
        assert eigen_residual(coin, state, 1j) < 1e-12

    @pytest.mark.parametrize("topology", [Cycle(99_999), Window(500)])
    def test_memory(self, topology):
        # the scaled copy holds the difference: two state-sized arrays and
        # the real moduli (24 bytes a site) at most, where three were alive
        state = random_state(topology, np.random.default_rng(6))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            residual = eigen_residual(grover(), state, -1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        nbytes = state.amplitudes.nbytes
        assert peak <= 2 * nbytes + 24 * topology.n_sites + 64 * 1024
        # bit for bit the value and site of the unfused expression
        diff = np.abs(step(grover(), state).amplitudes - complex(-1) * state.amplitudes)
        sites = state.sites
        if isinstance(topology, Window):
            diff, sites = diff[1:-1], sites[1:-1]
        worst = int(np.argmax(diff))
        assert float(residual) == diff.flat[worst]
        assert residual.site == sites[worst // 3]

    def test_random_state_far_from_eigen(self):
        rng = np.random.default_rng(123)
        state = random_state(Cycle(30), rng)
        assert eigen_residual(grover(), state, -1) > 0.1

    def test_window_checks_interior_only(self):
        # boundary rows see truncation and would report O(1) residuals;
        # only the interior is compared against the full-line relation
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1.0, 0.5, Window(10))
        stepped = step(coin, state).amplitudes
        boundary_residual = np.abs(stepped[[0, -1]] + state.amplitudes[[0, -1]]).max()
        assert boundary_residual > 0.1
        assert eigen_residual(coin, state, -1) < 1e-12

    @pytest.mark.parametrize(
        ("topology", "site"),
        [(Cycle(9), 0), (Cycle(9), 4), (Cycle(9), 8), (Window(6), -5), (Window(6), 2), (Window(6), 5)],
    )
    def test_site_of_a_perturbation(self, topology, site):
        # Grover, lambda = -1: a kick d to the left amplitude at x leaves a
        # residual |d| there (0 - lambda d) and at most 2/3 |d| elsewhere
        coin = grover()
        state = type1_state(coin, type1_params(coin), 0.5, -0.2j, topology)
        amps = state.amplitudes.copy()
        amps[topology.sites().tolist().index(site), 0] += 1e-3
        residual = eigen_residual(coin, WaveState(topology, amps), -1)
        assert isinstance(residual, float)
        assert residual == pytest.approx(1e-3, rel=1e-9)
        assert residual.site == site

    def test_site_of_the_first_nan(self):
        # a NaN stay amplitude at site 4 spoils sites 3, 4 and 5
        coin = grover()
        amps = type1_state(coin, type1_params(coin), 0.5, -0.2j, Cycle(9)).amplitudes.copy()
        amps[4, 1] = np.nan
        residual = eigen_residual(coin, WaveState(Cycle(9), amps), -1)
        assert np.isnan(residual)
        assert residual.site == 3

    @pytest.mark.parametrize("value", [np.inf, -np.inf, complex(np.inf, 1)])
    @pytest.mark.parametrize(("topology", "site"), [(Cycle(9), 3), (Window(4), -1)])
    def test_an_infinite_amplitude_gives_nan_without_a_warning(self, topology, site, value):
        # an infinite stay amplitude at the middle site makes inf * 0 in the
        # complex products and inf - inf in the difference: NaN residuals
        # from the first site it spoils, and no RuntimeWarning (an error here)
        coin = grover()
        amps = type1_state(coin, type1_params(coin), 0.5, -0.2j, topology).amplitudes.copy()
        amps[topology.n_sites // 2, 1] = value
        residual = eigen_residual(coin, WaveState(topology, amps), -1)
        assert np.isnan(residual) and np.isnan(residual.relative)
        assert residual.site == residual.relative_site == site

    @pytest.mark.parametrize(("topology", "site"), [(Cycle(5), 0), (Window(4), -3)])
    def test_an_overflowing_amplitude_gives_a_non_finite_residual_without_a_warning(self, topology, site):
        # finite amplitudes of 1e308 overflow in the complex products and in
        # the difference: a non-finite residual from the first checked site,
        # and no RuntimeWarning (an error here)
        amps = np.full((topology.n_sites, 3), 1e308, dtype=complex)
        residual = eigen_residual(grover(), WaveState(topology, amps), -1)
        assert not np.isfinite(residual)
        assert residual.site == site

    def test_rejects_non_unimodular(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1, 0, Cycle(5))
        with pytest.raises(NonUnimodularLambda):
            eigen_residual(coin, state, 0.9)

    @given(
        seed=st.integers(0, 2**32 - 1),
        topology=st.one_of(st.integers(3, 30).map(Cycle), st.integers(1, 15).map(Window)),
        zeros=st.integers(0, 25),
    )
    @settings(max_examples=60, deadline=None)
    def test_relative_site_by_site(self, seed, topology, zeros):
        # each checked site's residual over the largest |psi| at x-1..x+1,
        # wrapping on a cycle; zeroed sites make some of them 0/0, which is 0
        rng = np.random.default_rng(seed)
        coin = random_coin(rng)
        amps = random_state(topology, rng).amplitudes.copy()
        amps[rng.integers(0, topology.n_sites, zeros)] = 0.0
        state = WaveState(topology, amps)
        lam = cmath.exp(1j * rng.uniform(0.0, 2 * np.pi))
        residual = eigen_residual(coin, state, lam)
        own = np.abs(step(coin, state).amplitudes - lam * amps).max(axis=1)
        near = np.abs(amps).max(axis=1)
        n = topology.n_sites
        checked = range(n) if isinstance(topology, Cycle) else range(1, n - 1)
        ratios = [
            0.0 if own[i] == 0 else own[i] / max(near[i - 1], near[i], near[(i + 1) % n])
            for i in checked
        ]
        worst = int(np.argmax(ratios))
        assert residual.relative == ratios[worst]
        assert residual.relative_site == state.sites[checked[worst]]

    @pytest.mark.parametrize("topology", [Cycle(5), Window(3)])
    def test_relative_of_a_zero_state(self, topology):
        zero = WaveState(topology, np.zeros((topology.n_sites, 3), dtype=complex))
        residual = eigen_residual(grover(), zero, -1)
        assert (float(residual), residual.relative) == (0.0, 0.0)
        assert residual.relative_site == residual.site == zero.sites[1 if isinstance(topology, Window) else 0]

    def test_relative_sees_a_defect_where_the_weight_is_small(self):
        # Grover Type 2 with seeds {0: 1e6, 1000: 1}: amplitudes 1.5 times too
        # large at site 1000 leave a residual of 0.5 there, which the drift
        # check scaled by the 1e12 weight at site 0 lets pass; relative to
        # the weight near site 1000 it is 1/3
        coin = grover()
        params = type2_params(coin)
        topology = Cycle(2000)
        amps = type2_state(coin, params, {0: 1e6, 1000: 1}, topology).amplitudes.copy()
        amps[1000] *= 1.5
        state = WaveState(topology, amps)
        residual = eigen_residual(coin, state, params.lam)
        assert (float(residual), residual.site) == (0.5, 1000)
        assert residual.relative == pytest.approx(1 / 3, rel=1e-12)
        assert residual.relative_site == 1000
        assert verify_stationary(coin, state, 50).passed


def step_loop_drifts(coin, state, n_steps):
    """Per-step measure drifts and the leaked norm of n_steps calls to the
    oracle step."""
    mu0 = (np.abs(state.amplitudes) ** 2).sum(axis=1)
    n = len(mu0)
    windowed = isinstance(state.topology, Window)
    current = state
    drifts = np.empty(n_steps)
    for k in range(1, n_steps + 1):
        current = step(coin, current)
        mu = (np.abs(current.amplitudes) ** 2).sum(axis=1)
        lo, hi = (k, n - k) if windowed else (0, n)
        drifts[k - 1] = np.abs(mu[lo:hi] - mu0[lo:hi]).max()
    return drifts, np.maximum(mu0.sum() - current.norm_squared(), 0.0)


def ring_blocks(n_sites, n_steps):
    """Steps per block of the verify kernel, and how many blocks it runs."""
    block = max(1, min(n_steps, evolve.BUDGET // (48 * n_sites)))
    return block, -(-n_steps // block)


def sites_for_block(block):
    """The most sites a cycle can have while a block still holds block steps."""
    return evolve.BUDGET // (48 * block)


def impulses(topology, entries):
    """A state that is zero except for {(site index, channel): amplitude}."""
    amps = np.zeros((topology.n_sites, 3), dtype=complex)
    for (i, c), v in entries.items():
        amps[i, c] = v
    return WaveState(topology, amps)


class TestVerifyStationary:
    @given(
        seed=st.integers(0, 2**32 - 1),
        topology=st.one_of(st.integers(3, 64).map(Cycle), st.integers(2, 40).map(Window)),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_step_loop(self, seed, topology, data):
        rng = np.random.default_rng(seed)
        coin = random_coin(rng)
        state = random_state(topology, rng)
        before = state.amplitudes.copy()
        if isinstance(topology, Window):
            n_steps = data.draw(st.integers(1, topology.half_width - 1))
        else:
            n_steps = data.draw(st.integers(1, 64))
        report = verify_stationary(coin, state, n_steps)
        drifts, leaked = step_loop_drifts(coin, state, n_steps)
        drift = drifts.max()
        scale = 1e-12 * (np.abs(before) ** 2).sum(axis=1).max()
        assert abs(report.max_measure_drift - drift) <= scale
        assert abs(report.leaked_norm - leaked) <= scale
        assert report.leaked_norm >= 0.0
        assert np.array_equal(state.amplitudes, before)

    @pytest.mark.parametrize("topology", [Cycle(12), Window(8)])
    def test_nan_amplitude_fails(self, topology):
        amps = np.ones((topology.n_sites, 3), dtype=complex)
        amps[topology.n_sites // 2, 1] = np.nan
        report = verify_stationary(grover(), WaveState(topology, amps), 3)
        assert np.isnan(report.max_measure_drift)
        assert np.isnan(report.leaked_norm)
        assert report.passed is False
        assert report.worst_step == 1

    def test_grover_cycle_long_run(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 0.7, 0.2 + 0.1j, Cycle(30))
        report = verify_stationary(coin, state, 100, tol=1e-9)
        assert report.passed and report.max_measure_drift <= 1e-9
        assert report.interior == (0, 29)
        assert report.leaked_norm < 1e-12

    def test_forced_type2_fourier_state_drifts(self):
        # build the Type 2 profile even though the square condition fails:
        # the result is not an eigenstate and its measure moves a lot
        coin = fourier()
        a = coin.matrix
        m = minors(coin)
        lam = m.B / a[0, 0]
        a1 = a[0, 2] - a[0, 0] * a[1, 2] / a[1, 0]
        rng = np.random.default_rng(6)
        n = 18
        phi = rng.normal(size=n) + 1j * rng.normal(size=n)
        shift = lam / a1
        amps = np.empty((n, 3), dtype=complex)
        for x in range(n):
            prev = phi[(x - 1) % n]
            amps[x, 0] = phi[x]
            amps[x, 2] = shift * prev
            amps[x, 1] = (a[1, 0] * phi[x] + a[1, 2] * shift * prev) / (lam - a[1, 1])
        report = verify_stationary(coin, WaveState(Cycle(n), amps), 30, tol=1e-9)
        assert not report.passed
        assert report.max_measure_drift > 0.01

    def test_window_interior_shrinks(self):
        coin = stefanak_eta(0.7)
        p = type1_params(coin)
        state = type1_state(coin, p, 0.8 - 0.3j, 0.8 - 0.3j, Window(40))
        report = verify_stationary(coin, state, 20, tol=1e-9)
        assert report.passed
        assert report.interior == (-20, 20)

    def test_window_too_small(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1, 0, Window(5))
        with pytest.raises(WindowTooSmall):
            verify_stationary(coin, state, 5)

    def test_a_cycle_leaks_nothing_when_its_norm_rounds_up(self):
        # where the final norm on a cycle rounds above the initial one, the
        # leaked norm is 0.0, not the size of that rounding
        rng = np.random.default_rng(0)
        rounded_up = 0
        for _ in range(300):
            coin = random_coin(rng)
            state = random_state(Cycle(int(rng.integers(3, 40))), rng)
            _, mu = evolve._drift_trace(coin.matrix, state.amplitudes, state._weights(), 20, False)
            norm0, norm = state.norm_squared(), mu.sum()
            report = verify_stationary(coin, state, 20)
            assert report.leaked_norm >= 0.0
            if norm > norm0:
                rounded_up += 1
                assert report.leaked_norm == 0.0
                assert report.leaked_fraction == 0.0
        assert rounded_up >= 100

    def test_leaked_norm_recorded(self):
        topo = Window(4)
        amps = np.zeros((topo.n_sites, 3), dtype=complex)
        amps[1, 0] = 1.0  # site -3 exits after two identity steps
        report = verify_stationary(make_coin(np.eye(3)), WaveState(topo, amps), 3, tol=10.0)
        assert report.leaked_norm == pytest.approx(1.0, abs=1e-12)
        assert report.leaked_fraction == report.leaked_norm  # the initial norm is 1

    def test_leaked_fraction_does_not_grow_with_the_seeds(self):
        # nothing leaks from a cycle, but the round-off of the two norms is
        # absolute: 1.1e-5 for Grover seeds of 1e4 on 12 sites
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1e4, 1e4, Cycle(12))
        report = verify_stationary(coin, state, 100)
        assert report.leaked_fraction == report.leaked_norm / state.norm_squared()
        assert report.leaked_fraction < 1e-13

    @pytest.mark.parametrize(("value", "fraction"), [(0.0, 0.0), (np.nan, np.nan)])
    def test_leaked_fraction_of_a_zero_or_nan_state(self, value, fraction):
        amps = np.zeros((9, 3), dtype=complex)
        amps[4, 1] = value
        report = verify_stationary(grover(), WaveState(Window(4), amps), 3)
        assert np.array_equal(report.leaked_fraction, fraction, equal_nan=True)

    def test_bad_steps(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1, 0, Cycle(5))
        with pytest.raises(ValueError):
            verify_stationary(coin, state, 0)

    def test_type2_stationary_on_cycle(self):
        from qwstat import type2_state

        coin = stefanak_rho(0.7)
        rng = np.random.default_rng(15)
        seeds = {x: complex(*rng.normal(size=2)) for x in range(20)}
        state = type2_state(coin, type2_params(coin), seeds, Cycle(20))
        report = verify_stationary(coin, state, 100, tol=1e-9)
        assert report.passed

    def test_worst_step_is_where_two_movers_meet(self):
        # identity coin: a left mover at site 26 and a right mover at site 0
        # meet at site 13 after 13 steps, in the third block of five steps;
        # every other step moves weight 1 off two sites
        block = 5
        topo = Cycle(sites_for_block(block))
        assert ring_blocks(topo.n, 17) == (block, 4)
        state = impulses(topo, {(26, 0): 1.0, (0, 2): 1.0})
        report = verify_stationary(make_coin(np.eye(3)), state, 17, tol=10.0)
        assert report.max_measure_drift == 2.0
        assert report.worst_step == 13

    def test_worst_step_is_the_first_on_ties(self):
        state = impulses(Window(8), {(8, 0): 1.0})
        report = verify_stationary(make_coin(np.eye(3)), state, 7, tol=10.0)
        assert report.max_measure_drift == 1.0
        assert report.worst_step == 1

    def test_worst_step_is_the_first_nan_step(self):
        # |1e200|^2 overflows: the drift is inf while the left mover is away
        # from site 5 and inf - inf = NaN when it comes back after 12 steps
        state = impulses(Cycle(12), {(5, 0): 1e200})
        report = verify_stationary(make_coin(np.eye(3)), state, 14)
        assert np.isnan(report.max_measure_drift)
        assert report.worst_step == 12
        assert report.passed is False


def exact_state(kind, size, seed_scale, rng):
    """An exact eigenstate of one of four kinds, its seeds of modulus 0.5..2
    times seed_scale at random phases: (coin, state)."""

    def seed():
        return seed_scale * rng.uniform(0.5, 2.0) * np.exp(2j * np.pi * rng.uniform())

    if kind == "fourier-type1":  # closes on 3m sites only
        coin = fourier()
        return coin, cycle_restriction(coin, type1_params(coin), seed(), seed(), 3 * size)
    topology = Cycle(size) if size > 0 else Window(-size)
    if kind == "grover-type1":
        coin = grover()
        return coin, type1_state(coin, type1_params(coin), seed(), seed(), topology)
    coin = grover() if kind == "grover-type2" else stefanak_rho(rng.uniform(0.1, 0.9))
    lo, hi = topology.sites()[0] - 1, topology.sites()[-1]
    seeds = {x: seed() for x in range(int(lo), int(hi) + 1)}
    return coin, type2_state(coin, type2_params(coin), seeds, topology)


@pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="the drift is checked against max(mu0) over all sites"
)
def test_defect_where_the_weight_is_small_fails():
    # site 1000's amplitudes made 1.5 times too large: its drift, 1.25, is
    # far below tol * scale = 1e-9 * 1.25e12
    coin = grover()
    amps = type2_state(coin, type2_params(coin), {0: 1e6, 1000: 1}, Cycle(2000)).amplitudes.copy()
    amps[1000] *= 1.5
    assert verify_stationary(coin, WaveState(Cycle(2000), amps), 50).passed is False


class TestRelativeDrift:
    """The drift check is relative to max(mu_0), so its answer does not
    depend on the scale of the seeds."""

    @given(
        kind=st.sampled_from(["grover-type1", "grover-type2", "fourier-type1", "rho-type2"]),
        # a cycle of n sites (n > 0) or a window of half-width -n; for
        # Fourier, a cycle of 3n sites
        size=st.sampled_from([3, 4, 7, 12, 30, 61, -13, -20, -41]),
        exponent=st.floats(-8, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_exact_passes_and_perturbed_fails_at_every_seed_scale(self, kind, size, exponent, seed):
        if kind == "fourier-type1":
            size = abs(size)
        rng = np.random.default_rng(seed)
        coin, state = exact_state(kind, size, 10.0**exponent, rng)
        n_steps = 12
        report = verify_stationary(coin, state, n_steps)
        assert report.passed, report
        assert report.scale == measure_of(state).values.max()
        # one amplitude, the largest at the middle site, moved by 1e-3 of
        # its modulus in a random direction
        amps = state.amplitudes.copy()
        middle = len(amps) // 2
        channel = int(np.argmax(np.abs(amps[middle])))
        amps[middle, channel] += 1e-3 * abs(amps[middle, channel]) * np.exp(2j * np.pi * rng.uniform())
        report = verify_stationary(coin, WaveState(state.topology, amps), n_steps)
        assert not report.passed, report

    def test_small_random_state_fails(self):
        # a random state is no eigenstate at any scale; scaled by 1e-6 its
        # drift, 1.9e-11, used to pass an absolute tolerance of 1e-9
        rng = np.random.default_rng(0)
        state = WaveState(Cycle(60), 1e-6 * random_state(Cycle(60), rng).amplitudes)
        report = verify_stationary(grover(), state, 50)
        assert report.max_measure_drift < 1e-9
        assert report.max_measure_drift > 0.1 * report.scale
        assert report.passed is False

    def test_large_seeds_pass(self):
        # seeds of 1e4: the drift is round-off of measures near 6e8, 9.5e-7,
        # which used to fail an absolute tolerance of 1e-9
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1e4, 1e4, Cycle(12))
        report = verify_stationary(coin, state, 100)
        assert report.max_measure_drift > 1e-9
        assert report.passed is True

    def test_infinite_scale_fails(self):
        # |1e200|^2 overflows: a left mover leaves an infinite weight behind,
        # so the drift is inf, and inf <= tol * inf would pass it
        state = impulses(Cycle(12), {(5, 0): 1e200})
        report = verify_stationary(make_coin(np.eye(3)), state, 3)
        assert report.scale == np.inf
        assert report.max_measure_drift == np.inf
        assert report.passed is False

    def test_zero_state_needs_zero_drift(self):
        state = WaveState(Cycle(5), np.zeros((5, 3), dtype=complex))
        report = verify_stationary(grover(), state, 4)
        assert (report.scale, report.max_measure_drift, report.passed) == (0.0, 0.0, True)

    @pytest.mark.parametrize("value", [1e-170, 1e-155])
    def test_underflowed_state_fails(self, value):
        # every weight is 0 (1e-170) or subnormal (1e-155): the drift is 0 or
        # a few bits, and would pass any tolerance relative to such a scale
        coin = grover()
        state = WaveState(Cycle(12), np.full((12, 3), value, dtype=complex))
        report = verify_stationary(coin, state, 10)
        assert report.scale < MIN_SCALE
        assert report.max_measure_drift <= report.tol * report.scale
        assert report.passed is False

    def test_smallest_normal_scale_passes(self):
        coin = grover()
        state = type1_state(coin, type1_params(coin), 1e-153, 1e-153, Cycle(12))
        report = verify_stationary(coin, state, 10)
        assert report.scale >= MIN_SCALE
        assert report.passed is True

    def test_a_scale_of_exactly_min_scale_passes(self):
        # the identity coin keeps a stay amplitude in place; its weight,
        # (2**-511)**2, is the smallest normal double and passes
        state = impulses(Cycle(5), {(2, 1): 2.0**-511})
        report = verify_stationary(make_coin(np.eye(3)), state, 3)
        assert report.scale == MIN_SCALE == 2.0**-1022
        assert report.max_measure_drift == 0.0
        assert report.passed is True

    @pytest.mark.parametrize("seed", [1e-150, 1e-152, 1e-153, 1e-154])
    def test_subnormal_threshold_still_decides(self, seed):
        # scale runs from 6e-300 down to 6e-308, so tol * scale is subnormal
        # (6e-309 down to 6e-317), yet the drift of a 1e-8 defect, 2.8e-8 of
        # the scale, still sits far above it and an exact state's below it
        coin = grover()
        state = type1_state(coin, type1_params(coin), seed, seed, Cycle(12))
        report = verify_stationary(coin, state, 50)
        assert report.tol * report.scale < MIN_SCALE
        assert report.passed is True
        amps = state.amplitudes.copy()
        amps[5] *= 1 + 1e-8
        report = verify_stationary(coin, WaveState(Cycle(12), amps), 50)
        assert report.max_measure_drift / report.scale == pytest.approx(2.8e-8, rel=0.01)
        assert report.passed is False

    @pytest.mark.filterwarnings("error")
    def test_a_squared_norm_that_overflows_fails(self):
        # each weight 1.28e308 is finite and the eigenstate does not drift,
        # but the squared norm is inf, so the leaks are NaN; the failed report
        # is returned without a warning
        coin = grover()
        unit = type1_state(coin, type1_params(coin), 1, 0, Cycle(3)).amplitudes
        state = WaveState(Cycle(3), 0.8e154 * unit)
        report = verify_stationary(coin, state, 5)
        assert np.isfinite(report.scale) and report.max_measure_drift <= report.tol * report.scale
        assert np.isnan(report.leaked_norm)
        assert report.passed is False

    def test_scale_is_the_largest_initial_weight(self):
        state = impulses(Window(8), {(0, 0): 3.0, (8, 1): 1.0})  # sites -8 and 0
        report = verify_stationary(make_coin(np.eye(3)), state, 2)
        assert report.scale == 9.0


def block_cases():
    """(topology, n_steps, steps per block, blocks) that put the verify kernel
    in each regime of its ring, with sizes taken from the module's BUDGET."""
    cap3 = evolve.BUDGET // (48 * 3)  # steps per block on a 3-cycle
    small = sites_for_block(5)  # a cycle with five steps per block
    w5 = (small - 1) // 2  # a window with five steps per block
    big = evolve.BUDGET // 48 + 1  # one step per block
    return [
        pytest.param(Cycle(3), 40, 40, 1, id="cycle3-one-block"),
        pytest.param(Cycle(3), 2 * cap3 + 1, cap3, 3, id="cycle3-wraps-partial"),
        pytest.param(Cycle(small), 10, 5, 2, id="two-blocks"),
        pytest.param(Cycle(small), 15, 5, 3, id="three-blocks"),
        pytest.param(Cycle(small), 17, 5, 4, id="wraps-partial"),
        pytest.param(Window(10), 9, 9, 1, id="window-one-block"),
        pytest.param(Window(w5), w5 - 1, 5, -(-(w5 - 1) // 5), id="window-many-blocks"),
        pytest.param(Cycle(big), 3, 1, 3, id="cycle-block-of-one"),
        pytest.param(Window(big // 2 + 1), 4, 1, 4, id="window-block-of-one"),
    ]


# a cycle and a window that run five steps per block, over several blocks
MANY_BLOCKS = [
    pytest.param(Cycle(sites_for_block(5)), 17, id="cycle"),
    pytest.param(Window((sites_for_block(5) - 1) // 2), 17, id="window"),
]


class TestRing:
    """The verify kernel against a loop of step calls, drift by drift, in
    every regime of its ring buffer: a single block, several blocks with the
    ring wrapping and a partial last block, and one step per block."""

    @staticmethod
    def check(coin, state, n_steps):
        before = state.amplitudes.copy()
        windowed = isinstance(state.topology, Window)
        mu0 = state._weights()
        drifts, mu = evolve._drift_trace(coin.matrix, state.amplitudes, mu0, n_steps, windowed)
        norm0, norm = mu0.sum(), mu.sum()
        want, leaked = step_loop_drifts(coin, state, n_steps)
        assert np.array_equal(state.amplitudes, before, equal_nan=True)
        assert np.array_equal(np.isnan(drifts), np.isnan(want))
        scale = 1e-12 * np.nanmax((np.abs(before) ** 2).sum(axis=1))
        assert np.abs(drifts - want)[~np.isnan(want)].max(initial=0.0) <= scale
        got_leaked = np.maximum(norm0 - norm, 0.0)
        assert np.isnan(got_leaked) == np.isnan(leaked)
        assert not abs(got_leaked - leaked) > scale
        return drifts

    @pytest.mark.parametrize(("topology", "n_steps", "block", "blocks"), block_cases())
    def test_matches_step_loop(self, topology, n_steps, block, blocks):
        assert ring_blocks(topology.n_sites, n_steps) == (block, blocks)
        rng = np.random.default_rng(topology.n_sites + n_steps)
        self.check(random_coin(rng), random_state(topology, rng), n_steps)

    def check_nan(self, topology, n_steps, site, channel, value):
        rng = np.random.default_rng(17)
        amps = random_state(topology, rng).amplitudes.copy()
        amps[site, channel] = value
        drifts = self.check(random_coin(rng), WaveState(topology, amps), n_steps)
        assert np.isnan(drifts).all()

    @pytest.mark.parametrize("channel", [0, 1, 2])
    @pytest.mark.parametrize("edge", [0, -1])
    @pytest.mark.parametrize(("topology", "n_steps"), MANY_BLOCKS)
    def test_nan_next_to_a_ghost_column(self, topology, n_steps, edge, channel):
        # a NaN on an edge site reaches the ghost cells, which carry it round
        # a cycle and must drop it at a window's edge, block after block
        self.check_nan(topology, n_steps, edge, channel, np.nan)

    @pytest.mark.parametrize("channel", [0, 1, 2])
    @pytest.mark.parametrize("site", [0, 7, -1])
    @pytest.mark.parametrize(("topology", "n_steps"), MANY_BLOCKS)
    def test_nan_in_an_imaginary_part(self, topology, n_steps, site, channel):
        # real and imaginary parts live in rows of their own, each with its
        # own ghost cells: a NaN in one imaginary part still spoils every step
        self.check_nan(topology, n_steps, site, channel, complex(0.5, np.nan))

    @given(
        size=st.sampled_from([3, 4, 7, 30, 200, -2, -5, -40]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=60, deadline=None)
    def test_scale_and_norm_are_those_of_measure_of(self, size, seed):
        # weights of each channel anywhere from 1e-300 to 1e300, moved by the
        # identity coin, whose step moves amplitudes without changing a bit:
        # the kernel weighs every step as _weights does, bit for bit, so its
        # drifts from measure_of's weights and its final measure are the step
        # loop's exactly, down to a drift of 0 when a cycle's movers come back
        rng = np.random.default_rng(seed)
        topology = Cycle(size) if size > 0 else Window(-size)
        moduli = 10.0 ** rng.uniform(-150, 150, size=(topology.n_sites, 3))
        state = WaveState(topology, moduli * np.exp(2j * np.pi * rng.uniform(size=moduli.shape)))
        windowed = isinstance(topology, Window)
        coin = make_coin(np.eye(3))
        n = topology.n_sites
        mu0 = measure_of(state).values
        drifts, mu = evolve._drift_trace(coin.matrix, state.amplitudes, mu0, n, windowed)
        current, want = state, []
        for k in range(1, n + 1):
            current = step(coin, current)
            lo, hi = (k, n - k) if windowed else (0, n)
            want.append(np.abs(current._weights() - mu0)[lo:hi].max(initial=0.0))
        assert drifts.tolist() == want
        assert mu.tolist() == current._weights().tolist()
        assert mu.sum() == current.norm_squared()
        if not windowed:
            assert want[-1] == 0.0
        assert verify_stationary(coin, state, 1).scale == mu0.max()

    def test_window_edges_of_a_reused_slot_stay_zero(self):
        # on a window the matmul never writes left at the last site or right
        # at the first site of a slot, so those cells must keep their zeros
        # each time a slot is reused, including the slot that held step 0,
        # which is nonzero there
        topology, n_steps = Window(200), 199
        assert ring_blocks(topology.n_sites, n_steps) == (6, 34)  # 17 blocks in each half
        rng = np.random.default_rng(19)
        coin = random_coin(rng)
        state = random_state(topology, rng)
        assert state.amplitudes[-1, 0] != 0 and state.amplitudes[0, 2] != 0
        # a stale edge value stays outside the compared sites, but it changes
        # the norm, so the leaked norm must match the loop of steps
        self.check(coin, state, n_steps)

    def test_memory(self):
        # on the largest cycle the ring runs, a block is one step: two slots
        # of 48 bytes a site and the block's measure of 8, no array of its
        # own for step 0, and no copy of the state's weights
        n = evolve.TILES_FROM - 1
        state = random_state(Cycle(n), np.random.default_rng(4))
        mu0 = state._weights()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evolve._drift_trace(grover().matrix, state.amplitudes, mu0, 100, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 104 * n + 64 * 1024

    @pytest.mark.parametrize(
        "coin",
        [
            pytest.param(make_coin(np.eye(3)), id="identity"),
            pytest.param(make_coin(np.roll(np.eye(3), 1, axis=0)), id="cyclic"),
            pytest.param(random_coin(np.random.default_rng(3)), id="random"),
        ],
    )
    @pytest.mark.parametrize(
        ("topology", "n_steps"),
        [
            # the ghost cells of the smallest topologies wrap onto (cycle) or
            # sit next to (window) both the first and the last site
            pytest.param(Cycle(3), 2 * (evolve.BUDGET // (48 * 3)) + 1, id="cycle3"),
            pytest.param(Window(2), 2, id="window2"),
            *MANY_BLOCKS,
        ],
    )
    def test_coins_with_zero_entries(self, coin, topology, n_steps):
        # exact zeros in the coin's real form must not drop a term of A x
        rng = np.random.default_rng(topology.n_sites)
        self.check(coin, random_state(topology, rng), n_steps)

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 50),
        scale=st.floats(-30, 30),
    )
    @settings(max_examples=60, deadline=None)
    def test_real_form_matches_complex_product(self, seed, n, scale):
        # a general complex 3x3 matrix, entries and amplitudes spread over
        # several orders of magnitude
        rng = np.random.default_rng(seed)
        a = (rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))) * 10.0 ** rng.uniform(-3, 3, (3, 3))
        x = (rng.normal(size=(3, n)) + 1j * rng.normal(size=(3, n))) * 10.0 ** (scale + rng.uniform(-3, 3, (3, n)))
        rows = np.empty((6, n))
        rows[0::2] = x.real
        rows[1::2] = x.imag
        got = evolve._real_form(a) @ rows
        want = a @ x
        bound = 8 * np.finfo(float).eps * (np.abs(a) @ np.abs(x))
        assert (np.abs(got[:, 0] - want.real) <= bound).all()
        assert (np.abs(got[:, 1] - want.imag) <= bound).all()


CROSSOVER = evolve.TILES_FROM
TILE_COINS = [
    pytest.param(grover(), id="grover"),
    pytest.param(fourier(), id="fourier"),
    pytest.param(stefanak_rho(0.4), id="stefanak_rho"),
    pytest.param(random_coin(np.random.default_rng(29)), id="random"),
]


class TestTiles:
    """States from TILES_FROM sites evolve in tiles, which must give the
    ring's drifts and final measure bit for bit."""

    @staticmethod
    def both(coin, state, n_steps):
        # the kernel with the crossover moved above the state (the ring) and
        # down to 0 (tiles, wherever there are two of them)
        assert state.topology.n_sites >= 2 * evolve._tile_width(n_steps)  # two tiles or more
        mu0 = state._weights()
        windowed = isinstance(state.topology, Window)
        runs = []
        with pytest.MonkeyPatch.context() as patch:
            for tiles_from in (state.topology.n_sites + 1, 0):
                patch.setattr(evolve, "TILES_FROM", tiles_from)
                runs.append(evolve._drift_trace(coin.matrix, state.amplitudes, mu0, n_steps, windowed))
        return runs

    @pytest.mark.parametrize("coin", TILE_COINS)
    @pytest.mark.parametrize(
        "n", [CROSSOVER - 1, CROSSOVER, CROSSOVER + 1, 99_999, 300_000, 2 * evolve.TILE + 51],
        ids=["crossover-1", "crossover", "crossover+1", "99999-partial-tile", "300000", "last-tile-in-a-halo"],
    )
    def test_match_the_ring_bit_for_bit(self, coin, n):
        assert n % evolve.TILE != 0  # a partial last tile at every size
        state = random_state(Cycle(n), np.random.default_rng(n))
        (ring_drifts, ring_mu), (drifts, mu) = self.both(coin, state, 100)
        assert drifts.tobytes() == ring_drifts.tobytes()
        assert mu.tobytes() == ring_mu.tobytes()

    @pytest.mark.parametrize("n_steps", [1, 2, 7, 600])
    def test_runs_of_other_lengths_match_the_ring(self, n_steps):
        # 600 steps widen the tiles past TILE, so that the halos stay small
        assert (evolve._tile_width(n_steps) > evolve.TILE) == (n_steps == 600)
        state = random_state(Cycle(CROSSOVER), np.random.default_rng(n_steps))
        (ring_drifts, ring_mu), (drifts, mu) = self.both(random_coin(np.random.default_rng(5)), state, n_steps)
        assert drifts.tobytes() == ring_drifts.tobytes()
        assert mu.tobytes() == ring_mu.tobytes()

    @pytest.mark.parametrize(
        ("topology", "tiles"),
        [
            (Cycle(CROSSOVER - 1), False),
            (Cycle(CROSSOVER), True),
            (Window(CROSSOVER // 2 - 1), False),  # 2 W + 1 sites
            (Window(CROSSOVER // 2), True),
            (Window(CROSSOVER), True),
        ],
        ids=["below", "at", "window-below", "window-at", "window"],
    )
    def test_cycles_from_the_crossover_run_in_tiles(self, monkeypatch, topology, tiles):
        # one run of the ring for each span: more than one means tiles
        calls = []
        ring_trace = evolve._ring_trace

        def spying(*args):
            calls.append(args)
            return ring_trace(*args)

        monkeypatch.setattr(evolve, "_ring_trace", spying)
        state = random_state(topology, np.random.default_rng(1))
        verify_stationary(grover(), state, 3)
        assert (len(calls) > 1) == tiles

    @pytest.mark.parametrize(
        ("half_width", "n_steps"),
        [
            pytest.param(CROSSOVER // 2 - 1, 100, id="23999-sites"),
            pytest.param(CROSSOVER // 2, 100, id="24001-sites"),
            pytest.param(50_000, 100, id="100001-partial-tile"),
            pytest.param(CROSSOVER // 2, 600, id="600-steps"),
            pytest.param(evolve.TILE + 25, 100, id="last-tile-in-a-halo"),
        ],
    )
    def test_windows_match_the_ring_bit_for_bit(self, half_width, n_steps):
        # a window's first and last tiles end at its edges, and its last tile
        # is shorter than the one before; one of 51 sites, inside the halo of
        # the tile before, makes that one reach the edge too.  Drifts never
        # see those edges, but the final measure, and so the leaked norm,
        # must be the ring's too
        topology = Window(half_width)
        assert topology.n_sites % evolve._tile_width(n_steps) != 0
        rng = np.random.default_rng(half_width + n_steps)
        state = random_state(topology, rng)
        assert state.amplitudes[0, 2] != 0 and state.amplitudes[-1, 0] != 0
        (ring_drifts, ring_mu), (drifts, mu) = self.both(random_coin(rng), state, n_steps)
        assert drifts.tobytes() == ring_drifts.tobytes()
        assert mu.tobytes() == ring_mu.tobytes()

    @pytest.mark.parametrize("site", [0, -1], ids=["first-site", "last-site"])
    def test_nan_on_a_window_edge(self, site):
        # the NaN moves one site inwards per step, onto the first site each
        # step compares, in the first or the last tile
        topology = Window(CROSSOVER // 2)
        rng = np.random.default_rng(37)
        coin = random_coin(rng)
        amps = random_state(topology, rng).amplitudes.copy()
        amps[site] = np.nan
        state = WaveState(topology, amps)
        (ring_drifts, ring_mu), (drifts, mu) = self.both(coin, state, 5)
        want, _ = step_loop_drifts(coin, state, 5)
        assert np.isnan(want).all() and np.isnan(ring_drifts).all() and np.isnan(drifts).all()
        assert np.array_equal(mu, ring_mu, equal_nan=True)
        report = verify_stationary(coin, state, 5)
        assert np.isnan(report.max_measure_drift) and report.worst_step == 1
        assert np.isnan(report.leaked_norm) and not report.passed

    @pytest.mark.parametrize("offset", [-1, 0], ids=["last-own-site", "first-own-site"])
    def test_defect_on_a_seam(self, offset):
        # a Grover eigenstate with one site's amplitudes 1.5 times too large,
        # at a seam between the first two tiles: the drifts of a loop of
        # step calls, and the step where the largest one is
        coin = grover()
        topology = Cycle(CROSSOVER)
        amps = type1_state(coin, type1_params(coin), 0.7, 0.2 + 0.1j, topology).amplitudes.copy()
        seam = evolve.TILE + offset
        amps[seam] *= 1.5
        state = WaveState(topology, amps)
        drifts, mu = evolve._drift_trace(coin.matrix, amps, state._weights(), 40, False)
        want, leaked = step_loop_drifts(coin, state, 40)
        assert np.abs(drifts - want).max() <= 1e-12
        report = verify_stationary(coin, state, 40)
        top = np.sort(want)
        assert top[-1] - top[-2] > 1e-9  # a worst step the round-off cannot move
        assert report.worst_step == int(np.argmax(want)) + 1
        assert not report.passed

    @pytest.mark.parametrize("offset", [-1, 0], ids=["last-own-site", "first-own-site"])
    @pytest.mark.parametrize("channel", [0, 2])
    def test_nan_on_a_seam(self, offset, channel):
        # every tile but the two at the seam stays finite: the merge of the
        # tiles' drifts must keep the NaN, from the first step on
        topology = Cycle(CROSSOVER)
        rng = np.random.default_rng(23)
        coin = random_coin(rng)
        amps = random_state(topology, rng).amplitudes.copy()
        amps[evolve.TILE + offset, channel] = np.nan
        state = WaveState(topology, amps)
        drifts, _ = evolve._drift_trace(coin.matrix, amps, state._weights(), 5, False)
        want, _ = step_loop_drifts(coin, state, 5)
        assert np.isnan(want).all() and np.isnan(drifts).all()
        report = verify_stationary(coin, state, 5)
        assert np.isnan(report.max_measure_drift) and report.worst_step == 1

    def test_memory(self):
        # two slots of a tile and its halos, 48 bytes a site each, 8 bytes a
        # site of a tile (on a window, an edge tile's distances and their
        # mask) and the final measure of 8 bytes a site of the state: no
        # array as large as a state
        n, n_steps = 99_999, 100
        state = random_state(Cycle(n), np.random.default_rng(4))
        mu0 = state._weights()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evolve._drift_trace(grover().matrix, state.amplitudes, mu0, n_steps, False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = evolve._tile_width(n_steps)
        assert peak <= 2 * 48 * (width + 2 * n_steps + 3) + 8 * width + 8 * n + 64 * 1024
        assert peak < state.amplitudes.nbytes / 2

    def test_memory_of_a_window(self):
        # as on a cycle: only the tiles at the edges hold their own sites'
        # distances from the nearer edge, no array of the window's size
        half_width, n_steps = 50_000, 100
        state = random_state(Window(half_width), np.random.default_rng(4))
        n = state.topology.n_sites
        mu0 = state._weights()
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            evolve._drift_trace(grover().matrix, state.amplitudes, mu0, n_steps, True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        width = evolve._tile_width(n_steps)
        assert peak <= 2 * 48 * (width + 2 * n_steps + 3) + 8 * width + 8 * n + 64 * 1024
        assert peak < state.amplitudes.nbytes / 2
