"""End-to-end acceptance checks.

Each test covers one numbered criterion, prints a single PASS/FAIL line
(run with ``pytest -s`` to see them all), and enforces both the stated
numeric tolerances and a wall-clock budget.
"""

import cmath
import math
import time

import numpy as np

from qwstat import (
    Cycle,
    NoCycleClosure,
    QWalkError,
    SquareConditionFailed,
    WaveState,
    Window,
    cycle_restriction,
    detect_period,
    eigen_residual,
    fourier,
    grover,
    make_coin,
    measure_of,
    random_coin,
    reduced_matrix,
    stefanak_eta,
    stefanak_rho,
    step,
    type1_params,
    type1_state,
    type2_params,
    type2_state,
    verify_stationary,
)

OMEGA = cmath.exp(2j * cmath.pi / 3)


class Criterion:
    """Collects check failures, then prints one PASS/FAIL line and asserts."""

    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.failures = []
        self.t0 = time.perf_counter()

    def check(self, ok, what):
        if not ok:
            self.failures.append(what)

    def finish(self):
        elapsed = time.perf_counter() - self.t0
        if elapsed >= self.budget_s:
            self.failures.append(f"runtime {elapsed:.2f}s exceeded {self.budget_s}s")
        status = "PASS" if not self.failures else "FAIL"
        print(f"criterion {self.number} ({self.label}): {status} [{elapsed:.2f}s]")
        assert not self.failures, "; ".join(self.failures)


def random_pairs(rng, count):
    for _ in range(count):
        phi1 = complex(*rng.normal(size=2))
        phi3 = complex(*rng.normal(size=2))
        if abs(phi1) + abs(phi3) > 0:
            yield phi1, phi3


def test_criterion_1_grover_type1():
    crit = Criterion(1, "Grover Type 1 uniform measure", 1.0)
    coin = grover()
    params = type1_params(coin)
    rng = np.random.default_rng(101)
    topo = Cycle(30)
    for phi1, phi3 in random_pairs(rng, 20):
        state = type1_state(coin, params, phi1, phi3, topo)
        mu = measure_of(state)
        expected = 2 * (abs(phi1) ** 2 + abs(phi3) ** 2 + (phi1 * phi3.conjugate()).real)
        crit.check(
            np.abs(mu.values - expected).max() <= 1e-12,
            f"measure formula off for seeds ({phi1}, {phi3})",
        )
        crit.check(detect_period(mu) == 1, "measure not uniform")
        crit.check(
            eigen_residual(coin, state, -1) <= 1e-12,
            "eigen residual above 1e-12 at lambda = -1",
        )
    crit.finish()


def test_criterion_2_fourier_type1_period3():
    crit = Criterion(2, "Fourier Type 1 period-3 measure", 1.0)
    coin = fourier()
    params = type1_params(coin)
    state = type1_state(coin, params, OMEGA, OMEGA * OMEGA, Cycle(12))
    mu = measure_of(state)
    pattern = np.tile([6.0, 3.0, 3.0], 4)
    crit.check(np.abs(mu.values - pattern).max() <= 1e-12, "pattern is not (6,3,3) repeated")
    crit.check(detect_period(mu) == 3, "period is not 3")
    crit.check(eigen_residual(coin, state, 1j) <= 1e-12, "eigen residual at lambda = i")
    report = verify_stationary(coin, state, 100, tol=1e-9)
    crit.check(report.max_measure_drift <= 1e-9, f"drift {report.max_measure_drift}")
    crit.finish()


def test_criterion_3_cycle_boundary_conditions():
    crit = Criterion(3, "Fourier walk on cycles of 3m sites", 1.0)
    coin = fourier()
    params = type1_params(coin)
    rng = np.random.default_rng(33)
    for m in (1, 2, 4, 10):
        random_pair = (complex(*rng.normal(size=2)), complex(*rng.normal(size=2)))
        for phi1, phi3 in [(OMEGA, OMEGA * OMEGA), random_pair]:
            state = cycle_restriction(coin, params, phi1, phi3, 3 * m)
            # each seam relation of the Fourier walk, multiplied out by
            # sqrt(3), has sqrt(3) times a channel's eigen residual at a seam
            # site, so this bound keeps both seam residuals within 1e-10
            r = eigen_residual(coin, state, 1j)
            crit.check(r <= 1e-10 / math.sqrt(3), f"seam residual {r} at m={m}")
    for n in (10, 11):
        try:
            cycle_restriction(coin, params, OMEGA, OMEGA * OMEGA, n)
            crit.check(False, f"closure error not raised on non-multiple-of-3 cycle N={n}")
        except NoCycleClosure:
            pass
        state = type1_state(coin, params, OMEGA, OMEGA * OMEGA, Cycle(n))
        report = verify_stationary(coin, state, 100, tol=1e-9)
        crit.check(
            report.max_measure_drift > 1e-3,
            f"drift unexpectedly small on non-multiple-of-3 cycle N={n}",
        )
    crit.finish()


def test_criterion_4_stefanak_eta_chebyshev_measure():
    crit = Criterion(4, "A1(eta) Type 1 Chebyshev measure", 5.0)
    phi = 0.8 - 0.3j
    topo = Window(40)
    xs = topo.sites()
    etas = [0.1 * k for k in range(1, 16) if abs(math.cos(0.1 * k)) >= 1e-6]
    crit.check(len(etas) == 15, "eta grid unexpectedly filtered")
    for eta in etas:
        coin = stefanak_eta(eta)
        params = type1_params(coin)
        crit.check(abs(abs(params.lam) - 1) <= 1e-12, f"|lambda| != 1 at eta={eta}")
        mu = measure_of(type1_state(coin, params, phi, phi, topo))
        c2 = math.cos(2 * eta)
        cos_xi = (10 - 26 * c2) / (26 - 10 * c2)
        xi = math.acos(cos_xi)
        closed = (2 + (4 + 9 * math.tan(eta) ** 2) * np.cos(xs * xi) ** 2) * abs(phi) ** 2
        worst = np.abs(mu.values - closed).max()
        crit.check(worst <= 1e-9, f"closed form off by {worst} at eta={eta}")
    crit.finish()


def test_criterion_5_stefanak_rho_uniform_measure():
    crit = Criterion(5, "A2(rho) Type 1 uniform measure", 1.0)
    rng = np.random.default_rng(55)
    for rho in [0.1 * k for k in range(1, 10)]:
        coin = stefanak_rho(rho)
        params = type1_params(coin)
        for phi1, phi3 in random_pairs(rng, 3):
            mu = measure_of(type1_state(coin, params, phi1, phi3, Cycle(20)))
            expected = (1 + rho**2) / (2 * rho**2) * (
                abs(phi1) ** 2 + abs(phi3) ** 2
            ) + (1 - rho**2) / rho**2 * (phi1 * phi3.conjugate()).real
            crit.check(
                np.abs(mu.values - expected).max() <= 1e-12,
                f"measure formula off at rho={rho}",
            )
            crit.check(detect_period(mu) == 1, f"not uniform at rho={rho}")
    crit.finish()


def test_criterion_6_type2_families():
    crit = Criterion(6, "Type 2 measures and stationarity", 5.0)
    rng = np.random.default_rng(66)
    topo = Cycle(24)
    coins = [grover()] + [stefanak_eta(e) for e in (0.0, 0.7, 2.1)] + [
        stefanak_rho(r) for r in (0.3, 0.7)
    ]
    from qwstat import closed_form_measure_type2

    for _ in range(10):
        seeds = {x: complex(*rng.normal(size=2)) for x in range(24)}
        eta_measures = []
        for coin in coins:
            params = type2_params(coin)
            state = type2_state(coin, params, seeds, topo)
            mu = measure_of(state)
            closed = np.array(
                [closed_form_measure_type2(coin, seeds, x, topo) for x in range(24)]
            )
            worst = np.abs(mu.values - closed).max()
            crit.check(worst <= 1e-10, f"{coin.family}: closed form off by {worst}")
            crit.check(
                eigen_residual(coin, state, params.lam) <= 1e-10,
                f"{coin.family}: eigen residual too large",
            )
            report = verify_stationary(coin, state, 100, tol=1e-9)
            crit.check(
                report.max_measure_drift <= 1e-9,
                f"{coin.family}: drift {report.max_measure_drift}",
            )
            if coin.family == "stefanak-eta":
                eta_measures.append(mu.values)
        spread = max(
            np.abs(m - eta_measures[0]).max() for m in eta_measures[1:]
        )
        crit.check(spread <= 1e-9, f"eta dependence {spread} in Type 2 measure")
    crit.finish()


def test_criterion_7_fourier_type2_negative():
    crit = Criterion(7, "Fourier Type 2 square-condition failure", 0.1)
    try:
        type2_params(fourier())
        crit.check(False, "type2_params unexpectedly succeeded")
    except SquareConditionFailed as e:
        crit.check(abs(e.lam - (-OMEGA * OMEGA * 1j)) <= 1e-10, f"lambda = {e.lam}")
        # reported entries: exp(i pi/6), equal to each other, and exactly the
        # anti-diagonal of the reduced matrix at the reported lambda
        expected = cmath.exp(1j * cmath.pi / 6)
        crit.check(abs(e.a_tilde_1 - expected) <= 1e-10, f"a1 = {e.a_tilde_1}")
        crit.check(abs(e.a_tilde_2 - expected) <= 1e-10, f"a2 = {e.a_tilde_2}")
        rm = reduced_matrix(fourier(), e.lam)
        crit.check(
            abs(rm[0, 1] - e.a_tilde_1) <= 1e-10 and abs(rm[1, 0] - e.a_tilde_2) <= 1e-10,
            "reported entries disagree with the reduced matrix",
        )
        crit.check(
            abs(abs(e.lam_squared - e.product) - math.sqrt(3)) <= 1e-10,
            "square-condition gap is not sqrt(3)",
        )
    crit.finish()


def _symmetric_coin(rng):
    v = random_coin(rng).matrix
    return make_coin(v @ v.T)


def _bisymmetric_coin(rng):
    # symmetric and exchange-symmetric, like all four built-in families;
    # built from a symmetric 2x2 unitary block plus a phase in the
    # parity-odd direction
    z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    q, r = np.linalg.qr(z)
    v2 = q * np.exp(-1j * np.angle(np.diag(r)))[None, :]
    u2 = v2 @ v2.T
    s = np.array(
        [[1 / math.sqrt(2), 0, 1 / math.sqrt(2)], [0, 1, 0], [1 / math.sqrt(2), 0, -1 / math.sqrt(2)]]
    )
    block = np.zeros((3, 3), dtype=complex)
    block[:2, :2] = u2
    block[2, 2] = np.exp(1j * rng.uniform(0, 2 * math.pi))
    return make_coin(s @ block @ s.T)


def test_criterion_8_reduced_matrix_consistency():
    crit = Criterion(8, "reduced-matrix consistency on random coins", 5.0)
    rng = np.random.default_rng(88)
    makers = [random_coin] * 100 + [_symmetric_coin] * 60 + [_bisymmetric_coin] * 40
    successes_t1 = successes_t2 = 0
    kept = 0
    for maker in makers:
        coin = None
        for _ in range(50):
            candidate = maker(rng)
            if np.abs(candidate.matrix).min() > 1e-3 and abs(candidate.a22) < 0.99:
                coin = candidate
                break
        crit.check(coin is not None, "could not draw a filtered random coin")
        if coin is None:
            continue
        kept += 1
        try:
            p = type1_params(coin)
        except QWalkError:
            p = None
        if p is not None:
            successes_t1 += 1
            rm = reduced_matrix(coin, p.lam)
            ok = (
                max(abs(rm[0, 1]), abs(rm[1, 0])) <= 1e-9
                and abs(rm[0, 0] - p.a_tilde_1) <= 1e-9
                and abs(rm[1, 1] - p.a_tilde_2) <= 1e-9
            )
            crit.check(ok, "Type 1 success without diagonal reduced matrix")
        try:
            p = type2_params(coin)
        except QWalkError:
            p = None
        if p is not None:
            successes_t2 += 1
            rm = reduced_matrix(coin, p.lam)
            ok = (
                max(abs(rm[0, 0]), abs(rm[1, 1])) <= 1e-9
                and abs(rm[0, 1] - p.a_tilde_1) <= 1e-9
                and abs(rm[1, 0] - p.a_tilde_2) <= 1e-9
            )
            crit.check(ok, "Type 2 success without anti-diagonal reduced matrix")
    crit.check(kept == 200, f"only {kept} of 200 coins drawn")
    crit.check(successes_t1 > 0, "no Type 1 successes among the random draws")
    print(f"  (type 1 successes: {successes_t1}, type 2 successes: {successes_t2})")
    crit.finish()


def test_criterion_9_oracle_invariants():
    crit = Criterion(9, "evolution oracle invariants", 5.0)
    rng = np.random.default_rng(99)
    topo = Cycle(30)

    # norm conservation over 1000 steps
    amps = rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3))
    state = WaveState(topo, amps)
    norm0 = state.norm_squared()
    coin = grover()
    worst = 0.0
    for _ in range(1000):
        state = step(coin, state)
        worst = max(worst, abs(state.norm_squared() - norm0))
    crit.check(worst <= 1e-12 * norm0, f"norm drift {worst} over 1000 steps")

    # linearity
    s1 = WaveState(topo, rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3)))
    s2 = WaveState(topo, rng.normal(size=(30, 3)) + 1j * rng.normal(size=(30, 3)))
    a, b = 0.6 - 0.8j, -1.1 + 0.2j
    lhs = step(coin, WaveState(topo, a * s1.amplitudes + b * s2.amplitudes)).amplitudes
    rhs = a * step(coin, s1).amplitudes + b * step(coin, s2).amplitudes
    crit.check(np.abs(lhs - rhs).max() <= 1e-12, "step is not linear to 1e-12")

    # window and cycle agree wherever truncation cannot reach
    w = Window(8)
    c = Cycle(17)
    amps = np.zeros((17, 3), dtype=complex)
    amps[6:11] = rng.normal(size=(5, 3)) + 1j * rng.normal(size=(5, 3))
    out_w = step(coin, WaveState(w, amps)).amplitudes
    out_c = step(coin, WaveState(c, amps)).amplitudes
    crit.check(np.abs(out_w - out_c).max() <= 1e-14, "window/cycle interior mismatch")
    crit.finish()
