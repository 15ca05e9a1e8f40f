import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qwstat import (
    CentralReflection,
    CoinMatrix,
    InconsistentLambda,
    NonUnimodularLambda,
    QWalkError,
    SquareConditionFailed,
    WalkType,
    ZeroEntry,
    fourier,
    grover,
    make_coin,
    minors,
    random_coin,
    reduced_matrix,
    stefanak_eta,
    stefanak_rho,
    type1_params,
    type2_params,
)
from qwstat.tolerance import RTOL, ZERO_ENTRY_TOL

OMEGA = cmath.exp(2j * cmath.pi / 3)


def rotation(i, j, theta):
    m = np.eye(3, dtype=complex)
    m[i, i] = m[j, j] = math.cos(theta)
    m[i, j] = -math.sin(theta)
    m[j, i] = math.sin(theta)
    return m


def symmetric_random_coin(rng):
    # V V^T of a Haar V is unitary and symmetric, which forces the two
    # Type 1 eigenvalue expressions to agree.
    v = random_coin(rng).matrix
    return make_coin(v @ v.T)


class TestReducedMatrix:
    def test_grover_at_minus_one(self):
        rm = reduced_matrix(grover(), -1)
        assert rm.shape == (2, 2) and not rm.flags.writeable
        assert np.abs(rm - np.diag([-1, -1])).max() < 1e-12

    def test_fourier_at_i(self):
        rm = reduced_matrix(fourier(), 1j)
        expected = np.diag([cmath.exp(-1j * cmath.pi / 6), 1j])
        assert np.abs(rm - expected).max() < 1e-12

    def test_grover_at_plus_one(self):
        rm = reduced_matrix(grover(), 1)
        assert np.abs(rm - np.array([[0, 1], [1, 0]])).max() < 1e-12

    def test_zero_entry_rejected(self):
        with pytest.raises(ZeroEntry) as exc:
            reduced_matrix(make_coin(np.eye(3)), 1)
        assert (exc.value.row, exc.value.col) == (1, 2)

    @pytest.mark.parametrize("seed", range(5))
    def test_entry_of_modulus_1e_12_is_in_scope(self, seed):
        # a Haar coin turned in columns 2-3 until |a13| = 1e-12: entries count
        # as zero only at or below 1e-14, so this coin is classified, not
        # rejected as out of scope
        a = random_coin(np.random.default_rng(seed)).matrix.copy()
        r = math.hypot(abs(a[0, 1]), abs(a[0, 2]))

        def first_row(u1, u2):  # the 2x2 unitary with first row (u1, u2)
            return np.array([[u1, u2], [-np.conj(u2), np.conj(u1)]])

        turn = first_row(a[0, 1] / r, a[0, 2] / r).conj().T @ first_row(
            math.sqrt(1 - (1e-12 / r) ** 2), 1e-12 / r
        )
        a[:, 1:] = a[:, 1:] @ turn
        coin = make_coin(a)
        assert abs(coin.a13) == pytest.approx(1e-12, rel=1e-3)
        reduced_matrix(coin, 1)
        for classify in (type1_params, type2_params):
            try:
                classify(coin)
            except QWalkError as exc:
                assert not isinstance(exc, ZeroEntry)

    def test_entry_of_modulus_exactly_zero_entry_tol_is_zero(self):
        # two Givens turns leave a31 exactly 0; set to ZERO_ENTRY_TOL it is
        # still a coin (7.7e-15 off unitary) and counts as zero, one ulp
        # above it is in scope and classified, and fails there
        m = rotation(0, 1, 0.7) @ rotation(1, 2, 1.1)
        assert m[2, 0] == 0
        m[2, 0] = ZERO_ENTRY_TOL
        with pytest.raises(ZeroEntry) as exc:
            type1_params(make_coin(m))
        assert (exc.value.row, exc.value.col) == (3, 1)
        m[2, 0] = np.nextafter(ZERO_ENTRY_TOL, 1.0)
        with pytest.raises(InconsistentLambda):
            type1_params(make_coin(m))

    def test_central_reflection_rejected(self):
        # tiny rotations leave |a22| within 1e-10 of 1 while keeping
        # every entry above the zero threshold
        m = rotation(0, 1, 2e-6) @ rotation(1, 2, 3e-6) @ rotation(0, 2, 0.8)
        coin = make_coin(m)
        assert np.abs(coin.matrix).min() > 1e-14
        assert abs(abs(coin.a22) - 1) < 1e-10
        with pytest.raises(CentralReflection):
            reduced_matrix(coin, 1)

    def test_non_unimodular_lambda_rejected(self):
        with pytest.raises(NonUnimodularLambda):
            reduced_matrix(grover(), 0.5)


class TestType1:
    def test_grover(self):
        p = type1_params(grover())
        assert p.walk_type is WalkType.TYPE1
        assert p.lam == pytest.approx(-1, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(-1, abs=1e-12)
        assert p.a_tilde_2 == pytest.approx(-1, abs=1e-12)
        assert p.residual < 1e-12

    def test_fourier(self):
        p = type1_params(fourier())
        assert p.lam == pytest.approx(1j, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(cmath.exp(-1j * cmath.pi / 6), abs=1e-12)
        assert p.a_tilde_2 == pytest.approx(1j, abs=1e-12)

    def test_stefanak_rho(self):
        p = type1_params(stefanak_rho(0.6))
        assert p.lam == pytest.approx(-1, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(-1, abs=1e-12)
        assert p.a_tilde_2 == pytest.approx(-1, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.9, 1.4, 2.2, 3.0])
    def test_stefanak_eta_eigenvalue_real_part(self, eta):
        # closed form for the eigenvalue's real part on this family
        p = type1_params(stefanak_eta(eta))
        c2 = math.cos(2 * eta)
        assert p.lam.real == pytest.approx((10 - 26 * c2) / (26 - 10 * c2), abs=1e-12)
        assert abs(p.lam) == pytest.approx(1.0, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(-1, abs=1e-12)

    def test_generic_coin_inconsistent(self):
        rng = np.random.default_rng(3)
        hits = 0
        for _ in range(10):
            coin = random_coin(rng)
            if np.abs(coin.matrix).min() < 1e-3 or abs(coin.a22) > 0.99:
                continue
            with pytest.raises((InconsistentLambda, NonUnimodularLambda)):
                type1_params(coin)
            hits += 1
        assert hits > 0

    def test_symmetric_coins_always_classify(self):
        rng = np.random.default_rng(17)
        checked = 0
        while checked < 40:
            coin = symmetric_random_coin(rng)
            if np.abs(coin.matrix).min() < 1e-3 or abs(coin.a22) > 0.99:
                continue
            p = type1_params(coin)
            rm = reduced_matrix(coin, p.lam)
            assert max(abs(rm[0, 1]), abs(rm[1, 0])) < 1e-10
            assert abs(rm[0, 0] - p.a_tilde_1) < 1e-10
            assert abs(rm[1, 1] - p.a_tilde_2) < 1e-10
            # both geometric ratios of the eigenstate stay on the unit circle
            assert abs(abs(p.lam / p.a_tilde_1) - 1) < 1e-9
            assert abs(abs(p.a_tilde_2 / p.lam) - 1) < 1e-9
            checked += 1


class TestType2:
    def test_grover(self):
        p = type2_params(grover())
        assert p.walk_type is WalkType.TYPE2
        assert p.lam == pytest.approx(1, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(1, abs=1e-12)
        assert p.a_tilde_2 == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.0, 0.7, 2.1])
    def test_stefanak_eta(self, eta):
        p = type2_params(stefanak_eta(eta))
        assert p.lam == pytest.approx(1, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(1, abs=1e-12)
        assert p.a_tilde_2 == pytest.approx(1, abs=1e-12)

    @pytest.mark.parametrize("rho", [0.3, 0.7])
    def test_stefanak_rho(self, rho):
        p = type2_params(stefanak_rho(rho))
        assert p.lam == pytest.approx(1, abs=1e-12)
        assert p.a_tilde_1 == pytest.approx(1, abs=1e-12)

    def test_fourier_square_condition_fails(self):
        with pytest.raises(SquareConditionFailed) as exc:
            type2_params(fourier())
        e = exc.value
        # both eigenvalue expressions agree on -w^2 i ...
        assert e.lam == pytest.approx(-OMEGA * OMEGA * 1j, abs=1e-12)
        # ... and the reduced entries are exp(i pi/6), but their product
        # misses lambda^2 by a full sqrt(3)
        assert e.a_tilde_1 == pytest.approx(cmath.exp(1j * cmath.pi / 6), abs=1e-12)
        assert e.a_tilde_2 == pytest.approx(e.a_tilde_1, abs=1e-12)
        assert abs(e.lam_squared - e.product) == pytest.approx(math.sqrt(3), abs=1e-12)

    def test_fourier_reported_values_match_reduced_matrix(self):
        # the anti-diagonal entries at the reported lambda are exactly the
        # reported a1, a2: the failure payload is internally consistent
        with pytest.raises(SquareConditionFailed) as exc:
            type2_params(fourier())
        e = exc.value
        rm = reduced_matrix(fourier(), e.lam)
        assert abs(rm[0, 0]) < 1e-12 and abs(rm[1, 1]) < 1e-12
        assert abs(rm[0, 1] - e.a_tilde_1) < 1e-12
        assert abs(rm[1, 0] - e.a_tilde_2) < 1e-12

    def test_generic_coin_inconsistent(self):
        rng = np.random.default_rng(29)
        hits = 0
        for _ in range(10):
            coin = random_coin(rng)
            if np.abs(coin.matrix).min() < 1e-3 or abs(coin.a22) > 0.99:
                continue
            with pytest.raises((InconsistentLambda, NonUnimodularLambda)):
                type2_params(coin)
            hits += 1
        assert hits > 0


class TestStructuralIdentities:
    def test_off_diagonal_vanishes_at_each_candidate(self):
        # (1,2) of the reduced matrix vanishes identically at -C/a13 and
        # (2,1) at -D/a31, whenever those candidates are unimodular
        rng = np.random.default_rng(41)
        checked = 0
        while checked < 25:
            coin = symmetric_random_coin(rng)
            a = coin.matrix
            if np.abs(a).min() < 1e-3 or abs(a[1, 1]) > 0.99:
                continue
            c = a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1]
            lam = -c / a[0, 2]
            rm = reduced_matrix(coin, lam)
            assert abs(rm[0, 1]) < 1e-10
            checked += 1

    def test_type2_product_modulus_one_on_success(self):
        # |a1 a2| = 1 is forced by lambda^2 = a1 a2 with |lambda| = 1
        for coin in (grover(), stefanak_eta(1.1), stefanak_rho(0.45)):
            p = type2_params(coin)
            assert abs(abs(p.a_tilde_1 * p.a_tilde_2) - 1) < 1e-10


def paper_params(coin, walk_type):
    """(lam, a1, a2, residual) from the paper's formulas, written out per type."""
    a = coin.matrix
    for i in range(3):
        for j in range(3):
            if abs(a[i, j]) <= 1e-14:
                raise ZeroEntry(i + 1, j + 1)
    if abs(abs(a[1, 1]) - 1.0) <= 1e-10:
        raise CentralReflection(abs(a[1, 1]))
    (a11, a12, a13), (a21, a22, a23), (a31, a32, a33) = a
    B = complex(a11 * a22 - a12 * a21)
    C = complex(a12 * a23 - a13 * a22)
    D = complex(a21 * a32 - a22 * a31)
    E = complex(a22 * a33 - a23 * a32)
    if walk_type == 1:
        lam1, lam2, detail = -C / a13, -D / a31, "-C/a13 vs -D/a31"
        a1, a2 = a11 - a13 * a21 / a23, a33 - a23 * a31 / a21
    else:
        lam1, lam2, detail = B / a11, E / a33, "B/a11 vs E/a33"
        a1, a2 = a13 - a11 * a23 / a21, a31 - a21 * a33 / a23
    if abs(lam1 - lam2) > 1e-10:
        raise InconsistentLambda(lam1, lam2, detail)
    if abs(abs(lam1) - 1.0) > 1e-10:
        raise NonUnimodularLambda(lam1)
    if walk_type == 2 and abs(lam1 * lam1 - a1 * a2) > 1e-10:
        raise SquareConditionFailed(lam1, a1, a2)
    top = [[lam1 * a11 - B, lam1 * a13 + C], [lam1 * a31 + D, lam1 * a33 - E]]
    rm = np.array(top) / (lam1 - a22)
    expected = np.diag([a1, a2]) if walk_type == 1 else np.array([[0, a1], [a2, 0]])
    if np.abs(rm - expected).max() > 1e-10:
        shape = "diagonal" if walk_type == 1 else "anti-diagonal"
        raise InconsistentLambda(lam1, lam2, f"reduced matrix is not {shape} with (a1, a2)")
    return lam1, a1, a2, abs(lam1 - lam2)


def classification_outcome(coin, walk_type):
    """Compare the library with paper_params; return the exception class or None."""
    fn = type1_params if walk_type == 1 else type2_params
    try:
        want = paper_params(coin, walk_type)
    except QWalkError as exc:
        with pytest.raises(QWalkError) as got:
            fn(coin)
        assert type(got.value) is type(exc)
        assert str(got.value) == str(exc)
        return type(exc)
    p = fn(coin)
    assert p.walk_type is WalkType(walk_type)
    assert (p.lam, p.a_tilde_1, p.a_tilde_2, p.residual) == want
    return None


def relabelled(coin, rng):
    """The coin under a random global phase and a random conjugation D A D*
    by a diagonal unitary, which keep its type."""
    d = np.exp(1j * rng.uniform(0, 2 * np.pi, 3))
    phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
    return make_coin(phase * d[:, None] * coin.matrix * d.conj()[None, :])


FAMILY_COINS = [
    grover(),
    fourier(),
    *(stefanak_eta(eta) for eta in np.linspace(0.1, 3.0, 12)),
    *(stefanak_rho(rho) for rho in np.linspace(0.05, 0.95, 12)),
]


class TestPaperFormulas:
    """One classifier serves both types; it must keep the paper's results."""

    @pytest.mark.parametrize("walk_type", [1, 2])
    def test_family_grid_and_relabellings(self, walk_type):
        rng = np.random.default_rng(7 + walk_type)
        seen = set()
        for coin in FAMILY_COINS:
            outcome = classification_outcome(coin, walk_type)
            for _ in range(3):
                assert classification_outcome(relabelled(coin, rng), walk_type) is outcome
            seen.add(outcome)
        assert None in seen
        if walk_type == 2:
            assert SquareConditionFailed in seen

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_haar_coins(self, seed):
        rng = np.random.default_rng(seed)
        coin = random_coin(rng)
        for walk_type in (1, 2):
            classification_outcome(coin, walk_type)

    def test_guard_fires_where_the_candidates_agree(self):
        # V V^T of a Haar V has equal Type 1 candidates.  Turned by exp(i eps H),
        # H Hermitian and eps = 1e-11, they still agree to a quarter of the
        # tolerance 1e-10; where |a13 a31 / (a12 a23)| is large, the reduced
        # matrix at lambda is then off diagonal by more than the tolerance,
        # which only the guard sees.
        rng = np.random.default_rng(0)
        guarded = 0
        for _ in range(40):
            while True:
                v = random_coin(rng).matrix
                a = v @ v.T
                ratio = abs(a[0, 2] * a[2, 0] / (a[0, 1] * a[1, 2]))
                if ratio >= 20 and np.abs(a).min() >= 1e-3 and abs(a[1, 1]) <= 0.99:
                    break
            z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
            w, u = np.linalg.eigh(z + z.conj().T)
            coin = make_coin(a @ (u * np.exp(0.5e-11j * w)) @ u.conj().T)
            if classification_outcome(coin, 1) is InconsistentLambda:
                with pytest.raises(InconsistentLambda, match="reduced matrix is not diagonal") as exc:
                    type1_params(coin)
                assert abs(exc.value.lam1 - exc.value.lam2) < 2.5e-11
                guarded += 1
        assert guarded >= 10


    @pytest.mark.parametrize("t", [2, 2j])
    def test_unimodular_check_fires_where_the_candidates_agree(self, t):
        # A rotation with a phase, turned by I + 1e-13 i H (H is 1 off the
        # diagonal), then a23 and a32 moved so that both Type 1 candidates
        # -C/a13 and -D/a31 equal t.  The coin is unitary to 3.1e-13, within
        # UNITARITY_TOL, but its smallest entry is 1e-13, so the cofactor
        # identity that keeps agreeing candidates on the unit circle is off by
        # about UNITARITY_TOL / |entry|: only the modulus check rejects it.
        b = np.array([[0.6, 0.8, 0], [-0.8, 0.6, 0], [0, 0, cmath.exp(0.3j)]])
        a = b @ (np.eye(3) + 1e-13j * (1 - np.eye(3)))
        a[1, 2] += (-t * a[0, 2] - (a[0, 1] * a[1, 2] - a[0, 2] * a[1, 1])) / a[0, 1]
        a[2, 1] += (-t * a[2, 0] - (a[1, 0] * a[2, 1] - a[1, 1] * a[2, 0])) / a[1, 0]
        coin = make_coin(a)
        assert coin.unitarity_deviation() < 3.2e-13
        assert np.abs(a).min() == pytest.approx(1e-13) and abs(a[1, 1]) == pytest.approx(0.6)
        with pytest.raises(NonUnimodularLambda) as exc:
            type1_params(coin)
        assert exc.value.lam == pytest.approx(t, abs=1e-12)


class TestOneTolerance:
    """Coins are validated at UNITARITY_TOL and classified at RTOL, with no
    per-call override."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: make_coin(grover().matrix, tol=1e-6),
            lambda: make_coin(grover().matrix, 1e-6),
            lambda: CoinMatrix(grover().matrix, tol=1e-6),
            lambda: type1_params(grover(), 1e-6),
            lambda: type2_params(grover(), tol=1e-6),
            lambda: reduced_matrix(grover(), -1, tol=1e-6),
        ],
    )
    def test_override_is_a_type_error(self, call):
        with pytest.raises(TypeError):
            call()

    def test_reduced_matrix_checks_lambda_at_rtol(self):
        reduced_matrix(grover(), -(1 + 0.5 * RTOL))
        with pytest.raises(NonUnimodularLambda):
            reduced_matrix(grover(), -(1 + 2 * RTOL))


def check_cofactor_identity(coin):
    """For a unitary A, adj(A) = det(A) A*, so the minors are coin entries up
    to one phase.  The two Type 1 candidates -C/a13 and -D/a31 then agree iff
    |a13| = |a31|, at lambda = -det(A) conj(a31)/a13, and the two Type 2
    candidates B/a11 and E/a33 iff |a11| = |a33|, at det(A) conj(a33)/a11.
    Check both against the classifier, which computes the minors.  Return
    the pair (Type 1, Type 2) of whether the candidates agreed."""
    a = coin.matrix
    det = np.linalg.det(a)
    m = minors(coin)
    conj = a.conj()
    assert abs(m.C - det * conj[2, 0]) < 1e-13
    assert abs(m.D - det * conj[0, 2]) < 1e-13
    assert abs(m.B - det * conj[2, 2]) < 1e-13
    assert abs(m.E - det * conj[0, 0]) < 1e-13

    try:
        lam1 = type1_params(coin).lam
    except InconsistentLambda:
        lam1 = None
    assert (lam1 is not None) == (abs(abs(a[0, 2]) - abs(a[2, 0])) <= 1e-10)
    if lam1 is not None:
        assert abs(lam1 - -det * conj[2, 0] / a[0, 2]) < 1e-12

    try:
        lam2 = type2_params(coin).lam
    except SquareConditionFailed as exc:  # the candidates agreed
        lam2 = exc.lam
    except InconsistentLambda:
        lam2 = None
    assert (lam2 is not None) == (abs(abs(a[0, 0]) - abs(a[2, 2])) <= 1e-10)
    if lam2 is not None:
        assert abs(lam2 - det * conj[2, 2] / a[0, 0]) < 1e-12
    return lam1 is not None, lam2 is not None


class TestCofactorIdentity:
    """A second, minors-free route to the classification."""

    @given(seed=st.integers(0, 2**32 - 1), symmetric=st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_haar_and_symmetric_coins(self, seed, symmetric):
        rng = np.random.default_rng(seed)
        coin = symmetric_random_coin(rng) if symmetric else random_coin(rng)
        type1, _ = check_cofactor_identity(coin)
        assert type1 or not symmetric  # a13 = a31 for every symmetric coin

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=100, deadline=None)
    def test_phase_relabelled_symmetric_coins(self, seed):
        # diag(e^{i alpha}) V V^T diag(e^{i beta}) is not symmetric, but keeps
        # |a13| = |a31|, so every one is Type 1
        rng = np.random.default_rng(seed)
        v = random_coin(rng).matrix
        alpha, beta = rng.uniform(0, 2 * np.pi, (2, 3))
        coin = make_coin(np.exp(1j * alpha)[:, None] * (v @ v.T) * np.exp(1j * beta)[None, :])
        type1, _ = check_cofactor_identity(coin)
        assert type1

    def test_family_grids(self):
        outcomes = [check_cofactor_identity(coin) for coin in FAMILY_COINS]
        assert all(type1 for type1, _ in outcomes)
        # Fourier meets |a11| = |a33| and fails only the square condition
        assert all(type2 for _, type2 in outcomes)
