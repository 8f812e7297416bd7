import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normalroots import linalg, theoremlab
from normalroots.linalg import LinalgError, cartesian_parts, fro, hermitian_eigen
from normalroots.sampling import random_hermitian, random_normal, random_psd, random_unitary
from normalroots.theoremlab import (
    SingularSylvesterError,
    SylvesterProblem,
    check_zero_square,
    classify_root_of_selfadjoint,
    commutator_identities,
    exp_periodicity_residual,
    normality_equivalence,
    numerical_range_contains_zero,
    sample_nilpotent,
    spectra_disjoint,
    sylvester_solve,
    volterra_matrix,
)


def random_dense(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


# --- Sylvester ---------------------------------------------------------------


def test_sylvester_diagonal_closed_form():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, 4.0])
    S = np.ones((2, 2), dtype=complex)
    X = sylvester_solve(SylvesterProblem(A, B, S))
    # X_ij = S_ij / (a_i - b_j)
    assert np.allclose(X, [[-0.5, -1 / 3], [-1.0, -0.5]], atol=1e-11)


def test_sylvester_zero_rhs_unique_zero_solution():
    A = np.diag([1.0, 2.0])
    B = np.diag([3.0, 4.0])
    X = sylvester_solve(SylvesterProblem(A, B, np.zeros((2, 2))))
    assert fro(X) <= 1e-12


def test_sylvester_coinciding_spectra_rejected():
    with pytest.raises(SingularSylvesterError):
        sylvester_solve(SylvesterProblem(np.eye(2), np.eye(2), np.ones((2, 2))))


@pytest.mark.parametrize("n", [3, 4])
def test_sylvester_singular_nonhermitian_system_rejected(n):
    # a X - X a = s is singular, but rounding leaves the Kronecker pivots
    # nonzero: the solution has norm ~1e16 and a backward error of ~1e-16.
    rng = np.random.default_rng(0)
    a = random_dense(rng, n)
    with pytest.raises(SingularSylvesterError, match="numerically singular"):
        sylvester_solve(SylvesterProblem(a, a, np.eye(n)))


def test_sylvester_uniqueness_mechanism(rng):
    # with disjoint spectra of A and -A, AX - X(-A) = 0 forces X = 0
    A = np.diag([1.0, 2.0, 3.5]) + 0j
    X = sylvester_solve(SylvesterProblem(A, -A, np.zeros((3, 3))))
    assert fro(X) <= 1e-12


def test_sylvester_random_residual(rng):
    for _ in range(10):
        n = int(rng.integers(2, 9))
        A = np.diag(np.sort(rng.uniform(1.0, 2.0, n))) + 0j
        B = np.diag(np.sort(rng.uniform(3.0, 4.0, n))) + 0j
        Qa, Qb = random_unitary(rng, n), random_unitary(rng, n)
        A = Qa @ A @ Qa.conj().T
        B = Qb @ B @ Qb.conj().T
        S = random_dense(rng, n)
        X = sylvester_solve(SylvesterProblem(A, B, S))
        assert fro(A @ X - X @ B - S) <= 1e-9 * (1.0 + fro(S))


def test_sylvester_dimension_cap():
    # Only the n^2 x n^2 Kronecker system is capped; a non-Hermitian a
    # takes that path.
    big = np.eye(33)
    shift = np.triu(np.ones((33, 33)), 1)
    with pytest.raises(LinalgError, match="capped at dim 32"):
        sylvester_solve(SylvesterProblem(big + shift, 2 * big, big))


def test_sylvester_solution_past_the_float_range_raises():
    # X = s / (a_i - b_j) has entries 5e599 and 2.5e599, past the float range.
    a = np.diag([1e-300, 2e-300]).astype(complex)
    with pytest.raises(LinalgError, match="^the Sylvester solution X overflows the float range$"):
        sylvester_solve(SylvesterProblem(a, -a, 1e300 * np.eye(2)))


def test_sylvester_solution_below_the_float_range_raises():
    # X = s / (a_i - b_j) has entries 5e-601 and 2.5e-601, which flush to 0.
    a = np.diag([1e300, 2e300]).astype(complex)
    with pytest.raises(LinalgError, match="^the Sylvester solution X underflows the float range$"):
        sylvester_solve(SylvesterProblem(a, -a, 1e-300 * np.eye(2)))


def test_sylvester_solution_at_the_bottom_of_the_float_range():
    # X = 2^-1021 I peaks at a normal float: returned, not refused; X = 0 too.
    a = np.diag([2.0 ** 512, 2.0 ** 513]).astype(complex)
    X = sylvester_solve(SylvesterProblem(a, -a, np.diag([2.0 ** -508, 2.0 ** -507])))
    assert np.array_equal(X, np.ldexp(1.0, -1021) * np.eye(2))
    assert not sylvester_solve(SylvesterProblem(a, -a, np.zeros((2, 2)))).any()


def test_sylvester_hermitian_past_the_kronecker_cap(rng):
    # The eigenbasis path builds no Kronecker system, so n = 48 is solved.
    a = random_hermitian(rng, 48) + 20.0 * np.eye(48)
    b = random_hermitian(rng, 48) - 20.0 * np.eye(48)
    s = random_dense(rng, 48)
    la, Va = np.linalg.eigh(a)
    lb, Vb = np.linalg.eigh(b)
    expected = Va @ ((Va.conj().T @ s @ Vb) / np.subtract.outer(la, lb)) @ Vb.conj().T
    X = sylvester_solve(SylvesterProblem(a, b, s))
    assert fro(X - expected) <= 1e-10 * fro(expected)


def _counted(calls, name, fn):
    def wrapper(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def _with_spectrum_of(U, lam):
    H = (U * lam) @ U.conj().T
    return 0.5 * (H + H.conj().T)


def _with_spectrum(rng, lam):
    return _with_spectrum_of(random_unitary(rng, len(lam)), lam)


@pytest.mark.parametrize("d", [1, 2, 5, 8, 16, 32])
def test_sylvester_hermitian_forward_error(d):
    rng = np.random.default_rng(4100 + d)
    a = _with_spectrum(rng, rng.uniform(1.0, 2.0, d))
    b = _with_spectrum(rng, rng.uniform(-2.0, -1.0, d))
    X0 = random_dense(rng, d)
    X = sylvester_solve(SylvesterProblem(a, b, a @ X0 - X0 @ b))
    assert fro(X - X0) <= 1e-12 * fro(X0)


def test_sylvester_hermitian_path_makes_one_stacked_eigensolve(monkeypatch, solve_log, rng):
    calls = {"solve": 0}
    monkeypatch.setattr(np.linalg, "solve", _counted(calls, "solve", np.linalg.solve))
    a = _with_spectrum(rng, rng.uniform(1.0, 2.0, 6))
    b = _with_spectrum(rng, rng.uniform(-2.0, -1.0, 6))
    S = random_dense(rng, 6)
    X = sylvester_solve(SylvesterProblem(a, b, S))
    assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 1, "values": 0,
                                  "cholesky": 0}
    assert solve_log.solves[0].members == 2 and calls == {"solve": 0}
    assert fro(a @ X - X @ b - S) <= 1e-9 * (1.0 + fro(S))


def test_sylvester_nonhermitian_uses_kronecker(monkeypatch, solve_log, rng):
    calls = {"solve": 0}
    monkeypatch.setattr(np.linalg, "solve", _counted(calls, "solve", np.linalg.solve))
    # Triangular with disjoint diagonals: spectra {1, 2, 3, 4} and {-1, -2, -3, -4}.
    a = np.triu(random_dense(rng, 4), 1) + np.diag([1.0, 2.0, 3.0, 4.0])
    b = np.triu(random_dense(rng, 4), 1) - np.diag([1.0, 2.0, 3.0, 4.0])
    S = random_dense(rng, 4)
    X = sylvester_solve(SylvesterProblem(a, b, S))
    assert solve_log.counts()["stacked"] == 0 and calls == {"solve": 1}
    assert fro(a @ X - X @ b - S) <= 1e-9 * (1.0 + fro(S))


def test_sylvester_nearly_hermitian_meets_residual_bound(rng):
    d = 8
    a = _with_spectrum(rng, rng.uniform(1.0, 2.0, d))
    b = _with_spectrum(rng, rng.uniform(-2.0, -1.0, d))
    # A non-Hermitian perturbation just inside the structural tolerance.
    E = random_dense(rng, d)
    E = E - E.conj().T
    a = a + 0.4e-10 * (1.0 + fro(a)) / fro(E) * E
    assert linalg.is_hermitian(a) and fro(a - a.conj().T) > 0.0
    S = random_dense(rng, d)
    X = sylvester_solve(SylvesterProblem(a, b, S))
    residual = fro(a @ X - X @ b - S)
    assert residual <= 1e-9 * (1.0 + fro(S))
    # The eigenbasis is that of the Hermitian part of a; refinement against
    # a itself removes the ~1e-11 residual the skew perturbation leaves.
    assert residual <= 1e-13 * (1.0 + fro(S))


def test_verdicts_at_small_scale_are_those_at_unit_scale():
    # An absolute floor tol (1 + ||.||) decided each of these as for T = 0.
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    r = check_zero_square(1e-10 * J)
    assert set(r.hypotheses.values()) == {"fails"} and not r.conclusion_zero
    assert r.re_indefinite and r.im_indefinite and r.violation is None
    rep = normality_equivalence(1e-6 * (J + 0.3 * np.eye(2)))
    assert not rep.normal and rep.applicable is None
    ok, gap = spectra_disjoint(1e-12 * np.eye(2), -1e-12 * np.eye(2))
    assert ok and gap == pytest.approx(2e-12)


def test_range_of_a_rotated_hermitian_matrix():
    # Re(e^{i theta} M) vanishes at the best angle, where the zoom's rotated
    # matrices are rounding noise: they must not be refused as not Hermitian.
    for seed in range(10):
        U = random_unitary(np.random.default_rng(seed), 3)
        M = np.exp(1j * (0.3 + seed)) * (U * np.array([1.0, -2.0, 0.5])) @ U.conj().T
        rc = numerical_range_contains_zero(M)
        assert rc.contains_zero and rc.indeterminate


def test_spectra_disjoint_examples():
    ok, gap = spectra_disjoint(np.diag([1.0, 2.0]), np.diag([3.0, 4.0]))
    assert ok and gap == pytest.approx(1.0)
    A = np.diag([-1.0, 1.0])
    ok, gap = spectra_disjoint(A, -A)
    assert not ok
    ok, _ = spectra_disjoint(np.zeros((1, 1)), np.zeros((1, 1)))
    assert not ok


# --- classifier --------------------------------------------------------------


def test_classify_selfadjoint_case():
    v = classify_root_of_selfadjoint(np.diag([1.0, 2.0]), np.diag([1.0, 4.0]))
    assert v.case == "selfadjoint_invertible"
    assert v.evidence == "spectra_disjoint_re"
    assert v.violation is None


def test_classify_skew_case():
    v = classify_root_of_selfadjoint(1j * np.diag([1.0, 2.0]), np.diag([-1.0, -4.0]))
    assert v.case == "skew_invertible"
    assert v.evidence == "spectra_disjoint_im"
    assert v.violation is None


def test_classify_inconclusive_symmetric_spectrum():
    # A_x family at x = 0: many roots of I, symmetric spectrum defeats every hypothesis
    v = classify_root_of_selfadjoint(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    assert v.case == "inconclusive"
    assert v.evidence == "none"


def test_classify_near_paired_spectrum_takes_gap_path():
    # Re T = diag(1, 1 + 1e-12) is one-signed, so spec(Re T) and spec(-Re T)
    # are 2 apart: the gap test decides, however close the eigenvalues sit.
    T = np.diag([1.0, 1.0 + 1e-12])
    v = classify_root_of_selfadjoint(T, T @ T)
    assert v.case == "selfadjoint_invertible"
    assert v.evidence == "spectra_disjoint_re"
    assert v.violation is None


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.floats(-1.0, 10.0), st.booleans(),
       st.booleans())
def test_classify_definite_part_fires_gap_evidence(seed, n, log_excess, negative, skew):
    # A definite part whose margin clears the range test's band,
    # lambda_min > structural * (1 + ||A||_F), also clears the gap test's
    # threshold structural * (1 + 2 ||A||_F), since the gap is 2 lambda_min;
    # so range evidence on a Cartesian part could never decide.
    rng = np.random.default_rng(seed)
    lam = rng.uniform(0.5, 3.0, n)
    band = 1e-10 * (1.0 + np.sqrt(np.sum(lam[1:] ** 2)))
    lam[0] = band * (1.0 + 10.0 ** log_excess)
    A = _with_spectrum(rng, -lam if negative else lam)
    assert np.abs(np.linalg.eigvalsh(A)).min() > 1e-10 * (1.0 + np.linalg.norm(A))
    T = 1j * A if skew else A
    v = classify_root_of_selfadjoint(T, T @ T)
    assert v.case == ("skew_invertible" if skew else "selfadjoint_invertible")
    assert v.evidence == ("spectra_disjoint_im" if skew else "spectra_disjoint_re")


@pytest.mark.parametrize("skew, parts", [(False, 1), (True, 1)])
def test_classify_eigensolve_count(solve_log, rng, skew, parts):
    # One Cartesian part is tested.  It is definite, so its gap test and its
    # invertibility bound are one Cholesky attempt each and no values solve.
    # On the skew path Re T = 0 is not tested: its gap test cannot pass.
    H = _with_spectrum(rng, rng.uniform(0.5, 2.0, 5))
    T = 1j * H if skew else H
    v = classify_root_of_selfadjoint(T, T @ T)
    assert v.case == ("skew_invertible" if skew else "selfadjoint_invertible")
    assert v.violation is None
    assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 0, "values": 0,
                                  "cholesky": 2 * parts}


def test_classify_definite_root_with_small_eigenvalue_is_no_violation():
    # sigma_min(T) = 1e-9 is far above the invertibility band, but
    # lambda_min(T* T) = 1e-18 is below the eigensolver's floor; the bound
    # from the tested part's own eigenvalues decides correctly.
    violations = 0
    for seed in range(200):
        U = random_unitary(np.random.default_rng(seed), 4)
        for sign in (1.0, -1.0):
            T = _with_spectrum_of(U, sign * np.array([1e-9, 0.7, 1.3, 2.0]))
            for X, case in ((T, "selfadjoint_invertible"), (1j * T, "skew_invertible")):
                v = classify_root_of_selfadjoint(X, X @ X)
                assert v.case == case
                violations += v.violation is not None
    assert violations == 0


def test_classify_inconclusive_eigensolve_count(solve_log):
    # Re T is indefinite: its two Cholesky attempts fail (on its zero
    # diagonal, before LAPACK) and it takes one values solve.  Im T = 0,
    # whose gap test cannot pass, is not tested; no range test follows.
    v = classify_root_of_selfadjoint(np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
    assert v.case == "inconclusive"
    assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 0, "values": 1,
                                  "cholesky": 2}


def _verdict_solving_both(T):
    """(case, evidence, residual) of the classifier with every Cartesian part
    solved: the first part whose spectrum lies more than the band of
    2 ||S||_F from its negative's decides, S = T / 2^e."""
    S, e = linalg._unit_scale(T)
    A, B = linalg._cartesian(S)
    band = linalg._band(2.0 * fro(S), linalg.DEFAULT_TOL.structural)
    for case, evidence, tested, vanishing in (
        ("selfadjoint_invertible", "spectra_disjoint_re", A, B),
        ("skew_invertible", "spectra_disjoint_im", B, A),
    ):
        lam = linalg._eigvals(tested, 0)
        if np.abs(np.add.outer(lam, lam)).min() > band:
            return case, evidence, np.ldexp(fro(vanishing), e)
    return "inconclusive", "none", None


@pytest.mark.parametrize("small, spectrum, case", [
    ("re", [0.7, 1.1, 1.9], "skew_invertible"),
    ("im", [-1.0, 1.0, 2.0], "inconclusive"),
])
@pytest.mark.parametrize("side, parts", [("inside", 1), ("outside", 2)])
def test_classify_skip_bound_edge_keeps_the_verdict(solve_log, rng, small, spectrum, case,
                                                      side, parts):
    # T = eps I + i H (Re T small) or H + i eps I (Im T small), with eps a
    # millionth inside or outside the bound 4 ||part||_F <= band(2 ||S||_F)
    # below which the small part is not tested.  Either way the verdict is
    # the one with both parts solved.  Each tested part takes two Cholesky
    # attempts: the definite H passes the first and its invertibility bound,
    # eps I and the indefinite H fail both and take a values solve.
    H = _with_spectrum(rng, np.array(spectrum))
    S, e = linalg._unit_scale(H)
    band = linalg._band(2.0 * fro(S), linalg.DEFAULT_TOL.structural)
    n = len(spectrum)
    eps = np.ldexp(band / (4.0 * np.sqrt(n)), e) * (1.0 + (1e-6 if side == "outside" else -1e-6))
    T = eps * np.eye(n) + 1j * H if small == "re" else H + 1j * eps * np.eye(n)
    C = T @ T
    C = 0.5 * (C + C.conj().T)
    S, e = linalg._unit_scale(T)
    part = linalg._cartesian(S)[0 if small == "re" else 1]
    skipped = 4.0 * fro(part) <= linalg._band(2.0 * fro(S), linalg.DEFAULT_TOL.structural)
    assert skipped == (side == "inside")
    v = classify_root_of_selfadjoint(T, C)
    counts = solve_log.counts()
    assert counts["cholesky"] == 2 * parts
    assert counts["values"] == parts - (case == "skew_invertible")
    assert (v.case, v.evidence, v.residual) == _verdict_solving_both(T)
    assert v.case == case and v.violation is None


def test_classify_precondition():
    with pytest.raises(LinalgError):
        classify_root_of_selfadjoint(np.eye(2), 2.0 * np.eye(2))


def test_classify_precondition_does_not_overflow():
    # T^2 = diag(1e320, 4e320) overflows unscaled, and inf * 0 in the complex
    # product gave nan, which passed the residual test.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinalgError, match="precondition T\\^2 = C fails"):
            classify_root_of_selfadjoint(np.diag([1e160, 2e160]), np.diag([1e300, 4e300]))


def test_classify_verdict_is_exact_under_powers_of_two(rng):
    # Products are taken on T / 2^e and C / 2^(2e), so 2^500 T and 2^1000 C
    # get the verdict of T and C, with residuals scaled exactly.
    for T in (np.diag([1.0, 2.0]), random_psd(rng, 4) + np.eye(4)):
        C = T @ T
        C = 0.5 * (C + C.conj().T)
        ref = classify_root_of_selfadjoint(T, C)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            big = classify_root_of_selfadjoint(np.ldexp(T.real, 500) + 1j * np.ldexp(T.imag, 500),
                                               np.ldexp(C.real, 1000) + 1j * np.ldexp(C.imag, 1000))
        assert (big.case, big.evidence, big.violation) == (ref.case, ref.evidence, ref.violation)
        assert ref.case == "selfadjoint_invertible" and ref.violation is None
        assert big.residual == np.ldexp(ref.residual, 500)
        assert big.system_residuals == tuple(np.ldexp(ref.system_residuals, 1000))


def test_classify_shape_mismatch_is_linalg_error():
    with pytest.raises(LinalgError, match="T and C must share one square dimension"):
        classify_root_of_selfadjoint(np.eye(3), np.eye(2))


def test_classify_campaign_soundness(rng):
    # one-signed Hermitian roots must classify selfadjoint_invertible
    for _ in range(50):
        n = int(rng.integers(2, 7))
        lam = rng.uniform(0.5, 3.0, n) * rng.choice([-1.0, 1.0])
        U = random_unitary(rng, n)
        T = (U * lam) @ U.conj().T
        T = 0.5 * (T + T.conj().T)
        v = classify_root_of_selfadjoint(T, T @ T)
        assert v.case == "selfadjoint_invertible"
        assert v.violation is None


# --- numerical range ---------------------------------------------------------


def test_range_hermitian_positive():
    rc = numerical_range_contains_zero(np.diag([1.0, 2.0]))
    assert not rc.contains_zero
    assert rc.witness_angle == pytest.approx(0.0)


def test_range_hermitian_straddles_zero():
    rc = numerical_range_contains_zero(np.diag([-1.0, 1.0]))
    assert rc.contains_zero
    assert rc.witness_value <= 1e-10


def test_range_witness_on_hermitian_input(rng):
    U = random_unitary(rng, 4)
    # Trace zero puts 0 between the extreme eigenvalues.
    straddling = [random_hermitian(rng, n) for n in (2, 3, 5, 6)]
    cases = [H - np.trace(H) / len(H) * np.eye(len(H)) for H in straddling] + [
        (U * np.array([-1.0, 0.5, 1.0, 2.0])) @ U.conj().T,
        np.diag([0.0, 1.0, 2.0]),  # an exact zero eigenvalue at the end
        np.diag([-1.0, 0.0, 0.0, 2.0]),  # an exact zero eigenvalue inside
        np.zeros((3, 3)),
    ]
    for M in cases:
        rc = numerical_range_contains_zero(M)
        x = rc.witness_vector
        assert rc.contains_zero and x is not None
        assert abs(np.linalg.norm(x) - 1.0) <= 1e-14
        assert abs(x.conj() @ M @ x) <= 1e-14 * np.linalg.norm(M, 2)
        assert rc.witness_value <= 1e-14 * np.linalg.norm(M, 2)
    # One-sided within the band: the witness is the nearer extreme eigenvector.
    V = random_unitary(rng, 3)
    for lam in ([1e-12, 1.0, 2.0], [-2.0, -1.0, -1e-12]):
        M = (V * np.array(lam)) @ V.conj().T
        rc = numerical_range_contains_zero(M)
        assert rc.indeterminate and not rc.contains_zero
        assert rc.witness_value <= rc.margin + 1e-14 * np.linalg.norm(M, 2)


def test_range_jordan_block_disk():
    # W of the 2x2 Jordan block is the closed disk of radius 1/2 around 0
    rc = numerical_range_contains_zero(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert rc.contains_zero
    assert rc.witness_value <= 1e-10
    assert rc.margin == pytest.approx(-0.5, abs=1e-6)


def test_range_shifted_jordan_block_excludes_zero():
    M = np.array([[1.0, 1.0], [0.0, 1.0]])  # disk of radius 1/2 around 1
    rc = numerical_range_contains_zero(M)
    assert not rc.contains_zero
    assert rc.margin == pytest.approx(0.5, abs=1e-6)


def test_range_monte_carlo_oracle(rng):
    # random unit vectors never beat the certified margin
    M = random_dense(rng, 4) + 3.0 * np.eye(4)
    rc = numerical_range_contains_zero(M)
    if not rc.contains_zero:
        for _ in range(500):
            x = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            x /= np.linalg.norm(x)
            assert abs(x.conj() @ M @ x) >= rc.margin - 1e-9


def test_range_hermitian_matches_interval(rng):
    for _ in range(10):
        H = random_hermitian(rng, 5)
        lam = hermitian_eigen(H).eigenvalues
        rc = numerical_range_contains_zero(H)
        assert rc.contains_zero == (lam[0] <= 0.0 <= lam[-1])


def test_range_seeded_campaign():
    # Verdicts known by construction: trace zero puts tr(M)/d in W(M); a shift
    # by 1.5 ||G||_2 in any direction moves the disc holding W(M) off 0.
    rng = np.random.default_rng(1801)
    for j in range(40):
        d = 2 + j % 5
        G = random_dense(rng, d)
        if j % 2 == 0:
            M = G - np.trace(G) / d * np.eye(d)
        else:
            phi = rng.uniform(-np.pi, np.pi)
            M = G + 1.5 * np.linalg.norm(G, 2) * np.exp(1j * phi) * np.eye(d)
        norm = np.linalg.norm(M, 2)
        rc = numerical_range_contains_zero(M)
        assert not rc.indeterminate
        assert rc.contains_zero == (j % 2 == 0)
        if rc.contains_zero:
            x = rc.witness_vector
            assert abs(x.conj() @ M @ x) <= 1e-9 * norm
        else:
            R = np.exp(1j * rc.witness_angle) * M
            ref = np.linalg.eigvalsh(0.5 * (R + R.conj().T))[0]
            assert ref > 0.0
            assert abs(rc.margin - ref) <= 1e-9 * norm


def test_range_eigensolve_count(solve_log, rng):
    # One call over the 64 starting angles, which decide this input, and one
    # per zoom step; the witness's fan needs no extra support point.
    numerical_range_contains_zero(random_dense(rng, 4))
    assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 7, "values": 0,
                                  "cholesky": 0}


def test_range_search_stops_once_the_support_polygon_holds_zero(solve_log):
    # Margin -1e-6 ||M||_2: the Lipschitz bound keeps intervals open near the
    # maximum of lambda_min until the 4096-angle cap (21 and 22 stacked
    # calls), but the sampled support points hold 0 long before.
    J = np.array([[0.5 - 1e-6, 1.0], [0.0, 0.5 - 1e-6]])
    G = random_dense(np.random.default_rng(6), 4)
    thetas, lam = _dense_lambda_min(G)
    k = int(np.argmax(lam))
    near = G - (lam[k] + 1e-6 * np.linalg.norm(G, 2)) * np.exp(-1j * thetas[k]) * np.eye(4)
    for M, count in ((J, 7), (near, 12)):
        solve_log.clear()
        rc = numerical_range_contains_zero(M)
        assert rc.contains_zero and not rc.indeterminate
        assert solve_log.counts()["stacked"] == count


def _range_campaign_inputs(seed, count):
    # The inputs of test_range_seeded_campaign (which uses seed 1801): even j
    # traceless (0 in W(M)), odd j shifted past ||G||_2 (0 not in W(M)).
    rng = np.random.default_rng(seed)
    for j in range(count):
        d = 2 + j % 5
        G = random_dense(rng, d)
        if j % 2 == 0:
            yield j, G - np.trace(G) / d * np.eye(d)
        else:
            phi = rng.uniform(-np.pi, np.pi)
            yield j, G + 1.5 * np.linalg.norm(G, 2) * np.exp(1j * phi) * np.eye(d)


def _full_table_chord(w):
    # The chord search as one len(w) x len(w) table.
    d = w[:, None] - w[None, :]
    denom = np.abs(d) ** 2
    denom[denom == 0.0] = 1.0
    t = np.clip((w[:, None].conj() * d).real / denom, 0.0, 1.0)
    seg = np.abs(w[:, None] - t * d)
    a, b = np.unravel_index(int(np.argmin(seg)), seg.shape)
    return int(a), int(b)


def _chord_distance(w, a, b):
    d = w[a] - w[b]
    t = np.clip((np.conj(w[a]) * d).real / max(abs(d) ** 2, 1e-300), 0.0, 1.0)
    return abs(w[a] - t * d)


def _support_points(M):
    # The sampled support points of W(M), in angle order, as the range test
    # sees them.
    A, B = cartesian_parts(M).re, cartesian_parts(M).im
    band = 1e-10 * (1.0 + fro(M))
    _, X, _, _, _ = theoremlab._best_angle(A, B, band)
    return np.einsum("ki,ij,kj->k", X.conj(), M, X)


def test_range_edge_scan_matches_full_table_distance():
    # The support points are in convex position, so for any point p outside
    # their polygon the closest consecutive edge is as close to p as any
    # chord.  p runs over points just outside every seventh vertex and edge
    # midpoint (the polygon holds 0, so scaling a boundary point by s > 1
    # leaves it).
    for seed in (1801, 1802):
        for j, M in _range_campaign_inputs(seed, 40):
            if j % 2:
                continue
            w = _support_points(M)
            K = len(w)
            for k in range(0, K, 7):
                for p in (1.1 * w[k], 1.001 * w[k], 1.05 * 0.5 * (w[k] + w[(k + 1) % K])):
                    i, q = theoremlab._closest_edge(w - p)
                    tol = 1e-13 * np.abs(w).max()
                    want = _chord_distance(w - p, *_full_table_chord(w - p))
                    assert abs(abs(q) - want) <= tol
                    assert abs(abs(q) - _chord_distance(w - p, i, (i + 1) % K)) <= tol


def test_range_witness_adds_support_points_toward_zero():
    # W(M) is the disc of radius 1/2 about 0.4 e^{0.7i}.  The three support
    # points sampled at theta = 2pi/3, pi, 4pi/3 (less 0.7) lie on its side
    # away from 0, so their triangle misses 0 and the witness must add
    # points toward it.
    M = np.exp(0.7j) * np.array([[0.4, 1.0], [0.0, 0.4]])
    A, B = cartesian_parts(M).re, cartesian_parts(M).im
    thetas = np.pi * np.array([2.0, 3.0, 4.0]) / 3.0 - 0.7
    _, X, _ = theoremlab._rotated_min(A, B, thetas)
    w = np.einsum("ki,ij,kj->k", X.conj(), M, X)
    phis = np.pi * np.array([1.0, 0.0, -1.0]) / 3.0
    assert np.allclose(w, np.exp(0.7j) * (0.4 + 0.5 * np.exp(1j * phis)))
    x = theoremlab._support_zero_witness(M, A, B, thetas, X)
    assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
    assert abs(x.conj() @ M @ x) <= 1e-15


@pytest.mark.parametrize("k", [-600, -599, -300, -1, 0, 1, 299, 600])
def test_range_witness_closest_edge_fallback(k):
    # W(diag(0, 1+i)) is the segment [0, 1+i], with 0 a vertex: no fan
    # triangle holds 0 and the nearest support point is 0 itself, so the
    # witness is the closest edge's point, e_1, exactly, at every 2^k scale.
    M = np.diag([0.0, np.ldexp(1.0, k) * (1 + 1j)])
    rc = numerical_range_contains_zero(M)
    assert (rc.contains_zero, rc.indeterminate) == (True, True)
    assert rc.margin == 0.0 and rc.witness_value == 0.0 and rc.witness_angle is None
    assert np.array_equal(rc.witness_vector, [1.0, 0.0])


def test_range_contains_zero_op_memory():
    rng = np.random.default_rng(6006)
    G = random_dense(rng, 6)
    M = G - np.trace(G) / 6 * np.eye(6)
    numerical_range_contains_zero(M)  # warm any lazily built state
    tracemalloc.start()
    try:
        rc = numerical_range_contains_zero(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc.contains_zero
    assert peak <= 2**20


def test_range_margin_reaches_dense_sweep_maximum():
    # The margin is not below the best lambda_min over 20 000 angles: the
    # zoom's maximum where 0 is excluded (odd j), and where 0 is contained
    # (even j) the largest lambda_min found, which is <= 0.
    for j, M in _range_campaign_inputs(1801, 40):
        rc = numerical_range_contains_zero(M)
        _, lam = _dense_lambda_min(M)
        assert rc.margin >= lam.max() - 1e-12 * np.linalg.norm(M, 2)
        assert rc.contains_zero == (j % 2 == 0) == (rc.margin <= 0.0)


def test_range_contains_zero_witness_is_near_exact():
    # The closed-form witness is exact up to rounding.
    for seed in (1801, 1802):
        for j, M in _range_campaign_inputs(seed, 80):
            if j % 2 == 0:
                rc = numerical_range_contains_zero(M)
                assert rc.contains_zero and not rc.indeterminate
                x = rc.witness_vector
                assert abs(np.linalg.norm(x) - 1.0) <= 1e-12
                assert rc.witness_value <= 1e-14 * np.linalg.norm(M, 2)
                assert abs(x.conj() @ M @ x) <= 1e-14 * np.linalg.norm(M, 2)


def _dense_lambda_min(M, count=20000):
    thetas = np.linspace(0.0, 2.0 * np.pi, count, endpoint=False)
    R = np.exp(1j * thetas)[:, None, None] * M
    return thetas, np.linalg.eigvalsh(0.5 * (R + R.conj().transpose(0, 2, 1)))[:, 0]


def _band(M):
    # The range test's band, structural * (1 + ||M / 2^e||_F), in M's units.
    scale = 2.0 ** np.frexp(np.maximum(np.abs(M.real), np.abs(M.imag)).max())[1]
    return 1e-10 * (scale + np.linalg.norm(M))


def test_range_certified_contains_holds_on_dense_sweep():
    # Traceless inputs, and inputs moved so that their best margin is
    # -/+ m ||G||_2: whenever the verdict is a decided "contains", no angle
    # of a 20 000-angle sweep has lambda_min above the band.
    inputs = [M for j, M in _range_campaign_inputs(1801, 40) if j % 2 == 0]
    rng = np.random.default_rng(1803)
    for d in (2, 3, 4, 5):
        G = random_dense(rng, d)
        thetas, lam = _dense_lambda_min(G)
        k = int(np.argmax(lam))
        for m in (-1e-2, -1e-4, -1e-6, 1e-4):
            shift = lam[k] - m * np.linalg.norm(G, 2)
            inputs.append(G - shift * np.exp(-1j * thetas[k]) * np.eye(d))
    decided = 0
    for M in inputs:
        rc = numerical_range_contains_zero(M)
        if rc.contains_zero and not rc.indeterminate:
            decided += 1
            assert _dense_lambda_min(M)[1].max() <= _band(M)
    assert decided >= 32


def test_range_finds_thin_arc_of_good_angles():
    # W(M) is the triangle with vertices e^{i a}, e^{i (pi - a)} and i/2,
    # rotated by -pi/720: 0 is outside it at distance sin(a), but the angles
    # that separate them form an arc of width 2a = 0.004 rad, centred
    # between two of 720 equally spaced angles, so none of those sees it.
    a = 0.002
    z = np.array([np.exp(1j * a), np.exp(1j * (np.pi - a)), 0.5j]) * np.exp(-1j * np.pi / 720)
    U = random_unitary(np.random.default_rng(11), 3)
    M = (U * z) @ U.conj().T
    assert _dense_lambda_min(M, 720)[1].max() < 0.0
    rc = numerical_range_contains_zero(M)
    assert not rc.contains_zero and not rc.indeterminate
    assert rc.margin == pytest.approx(np.sin(a), abs=1e-9)


@pytest.mark.parametrize("k", [-700, -100, -40, 40, 600])
def test_range_scale_equivariance(k):
    # Scaling by 2^k moves no verdict and scales margin and witness value.
    J = np.array([[0.0, 1.0], [0.0, 0.0]])
    rng = np.random.default_rng(1804)
    G = random_dense(rng, 4)
    inputs = [J, J + np.eye(2), G - np.trace(G) / 4 * np.eye(4),
              G + 1.5 * np.linalg.norm(G, 2) * np.eye(4), np.diag([1.0, 2.0]),
              np.diag([-1.0, 1.0]), np.array([[1.0 + 1.0j]])]
    with np.errstate(all="raise"):
        for M in inputs:
            base = numerical_range_contains_zero(M)
            Mk = np.ldexp(1.0, k) * M
            rc = numerical_range_contains_zero(Mk)
            assert (rc.contains_zero, rc.indeterminate) == (base.contains_zero,
                                                            base.indeterminate)
            assert rc.margin / 2.0 ** k == pytest.approx(base.margin, rel=1e-12)
            if rc.contains_zero:
                assert rc.witness_value <= 1e-14 * np.linalg.norm(Mk, 2)


def test_range_large_scale_is_decisive():
    rc = numerical_range_contains_zero(1e200 * np.eye(3))
    assert not rc.contains_zero and not rc.indeterminate
    assert rc.witness_angle == 0.0
    assert rc.margin == pytest.approx(1e200, rel=1e-12)


# --- zero square -------------------------------------------------------------


def test_zero_square_zero_matrix():
    r = check_zero_square(np.zeros((3, 3)))
    assert all(v == "holds" for v in r.hypotheses.values())
    assert r.conclusion_zero
    assert r.violation is None


def test_zero_square_jordan_block():
    r = check_zero_square(np.array([[0.0, 1.0], [0.0, 0.0]]))
    assert r.re_margins == pytest.approx((-0.5, 0.5))
    assert r.re_indefinite and r.im_indefinite
    assert r.violation is None


def test_zero_square_indeterminate_band():
    # Re T and Im T have eigenvalues +-||T||/2, between the band 0.1 ||T||
    # and ten times it: no sign condition is decided, and T is not zero.
    r = check_zero_square(1.2e-9 * np.array([[0.0, 1.0], [0.0, 0.0]]),
                          linalg.Tolerances(structural=0.1))
    assert set(r.hypotheses.values()) == {"indeterminate"}
    assert not r.conclusion_zero
    assert r.violation is None


def test_zero_square_precondition():
    with pytest.raises(LinalgError):
        check_zero_square(np.eye(2))


def test_zero_square_sampled_campaign():
    violations = 0
    for trial in range(200):
        T = sample_nilpotent(4, seed=trial)
        r = check_zero_square(T)
        if r.violation:
            violations += 1
        if r.norm_t > 1e-9:
            assert r.re_indefinite and r.im_indefinite
    assert violations == 0


def test_sample_nilpotent_canonical():
    assert np.array_equal(sample_nilpotent(1, seed=5), np.zeros((1, 1)))


def test_sample_nilpotent_square_vanishes():
    T = sample_nilpotent(4, seed=42)
    assert fro(T @ T) <= 1e-13 * (1.0 + fro(T) ** 2)
    assert np.array_equal(T, sample_nilpotent(4, seed=42))  # deterministic


def test_anticommutation_propagation(rng):
    # AB = -BA implies A^2 B = B A^2
    for trial in range(50):
        T = sample_nilpotent(int(rng.integers(2, 7)), seed=trial)
        p = cartesian_parts(T)
        A, B = p.re, p.im
        scale = 1.0 + fro(T) ** 3
        assert fro(A @ B + B @ A) <= 1e-11 * scale
        assert fro(A @ A @ B - B @ A @ A) <= 1e-11 * scale


# --- commutator identities ---------------------------------------------------


def test_commutators_trivial():
    assert commutator_identities(np.eye(3)) == (0.0, 0.0)
    assert commutator_identities(np.array([[0.0, 1.0], [0.0, 0.0]])) == (0.0, 0.0)


def test_commutators_algebraic_oracle(rng):
    # independent expansion: build C, D directly from the parts and check the
    # bracket identities on those, then compare against the operation
    T = random_dense(rng, 6)
    p = cartesian_parts(T)
    A, B = p.re, p.im
    C = A @ A - B @ B
    D = A @ B + B @ A
    lhs1 = C @ B - B @ C
    rhs1 = A @ D - D @ A
    lhs2 = A @ C - C @ A
    rhs2 = B @ D - D @ B
    scale = 1.0 + fro(T) ** 3
    assert fro(lhs1 - rhs1) <= 1e-11 * scale
    assert fro(lhs2 - rhs2) <= 1e-11 * scale
    r1, r2 = commutator_identities(T)
    assert r1 <= 1e-11 * scale and r2 <= 1e-11 * scale


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8))
def test_commutators_property(seed, n):
    rng = np.random.default_rng(seed)
    T = random_dense(rng, n, scale=rng.uniform(0.1, 3.0))
    r1, r2 = commutator_identities(T)
    bound = 1e-11 * (1.0 + fro(T) ** 3)
    assert r1 <= bound and r2 <= bound


# --- normality equivalence ---------------------------------------------------


def test_normality_equivalence_normal_case():
    rep = normality_equivalence(np.diag([1.0, 1.0 + 1j]))
    assert rep.applicable == "re"
    assert rep.normal and rep.commutes and rep.agree


def test_normality_equivalence_nonnormal_case():
    rep = normality_equivalence(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert rep.applicable == "re"
    assert not rep.normal and not rep.commutes
    assert rep.agree is True  # both sides false: biconditional holds
    assert rep.violation is None


def test_normality_equivalence_selfadjoint_square_clause(rng):
    # commuting parts with pointwise a_j b_j = 0: T^2 = diag(a^2 - b^2) is
    # Hermitian, Re T is psd, and T is normal by construction
    U = random_unitary(rng, 4)
    a = np.array([1.0, 0.0, 2.0, 0.0])
    b = np.array([0.0, 3.0, 0.0, -1.0])
    T = (U * (a + 1j * b)) @ U.conj().T
    rep = normality_equivalence(T)
    assert rep.applicable == "re"
    assert rep.selfadjoint_clause_checked
    assert rep.normal
    assert rep.violation is None


def test_normality_equivalence_im_part_applies():
    # Re T indefinite, Im T positive definite: the Im-part dual is tested.
    normal = np.diag([1.0, -1.0]) + 1j * np.diag([1.0, 2.0])
    rep = normality_equivalence(normal)
    assert rep.applicable == "im"
    assert rep.normal and rep.commutes and rep.agree
    nonnormal = np.array([[1.0 + 1j, 1.0], [0.0, -1.0 + 2j]])
    rep = normality_equivalence(nonnormal)
    assert rep.applicable == "im"
    assert not rep.normal and not rep.commutes and rep.agree
    assert rep.violation is None


def test_normality_equivalence_not_applicable(rng):
    T = np.diag([1.0, -1.0]) + 1j * np.diag([1.0, -1.0])
    rep = normality_equivalence(T)
    assert rep.applicable is None
    assert rep.agree is None


def test_normality_equivalence_campaign(rng):
    # shift the real part to be definite; no disagreements allowed
    for _ in range(50):
        n = int(rng.integers(2, 7))
        T = random_dense(rng, n)
        p = cartesian_parts(T)
        shift = abs(hermitian_eigen(p.re).eigenvalues[0]) + 0.5
        T = T + shift * np.eye(n)
        rep = normality_equivalence(T)
        assert rep.applicable == "re"
        assert rep.violation is None


@pytest.mark.parametrize("k", [0, 370, 530, -370, -530])
def test_theorem_checks_at_large_scale_read_as_at_unit_scale(rng, k):
    # 2^530 ~ 1e160: ||T||^2 and ||T||^3 overflow a float, and 2^-530 ones
    # underflow; the checks must not.  Every test is relative to ||T||, so
    # the verdicts are those at unit scale and the norms scale by 2^(jk),
    # flushing to 0 where they fall below the float range.
    def up(M):
        return np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)

    def times(x, j):  # x * 2^(jk), inf beyond the float range
        with np.errstate(over="ignore"):
            return tuple(np.ldexp(x, j * k)) if isinstance(x, tuple) else float(np.ldexp(x, j * k))

    U = random_unitary(rng, 4)
    T = random_dense(rng, 4) + 8.0 * np.eye(4)  # sign-definite real part
    N = (U * np.array([2.0 + 1j, 3.0, 1.0 - 2j, 4.0 + 0.5j])) @ U.conj().T
    J = sample_nilpotent(4, seed=9)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for M in (T, N):
            base, scaled = normality_equivalence(M), normality_equivalence(up(M))
            assert scaled.applicable == base.applicable == "re" and scaled.violation is None
            assert (scaled.normal, scaled.commutes, scaled.agree) == (base.normal, base.commutes, base.agree)
            assert scaled.commutation_residual == times(base.commutation_residual, 3)
        assert commutator_identities(up(T)) == times(commutator_identities(T), 3)
        z, zk = check_zero_square(J), check_zero_square(up(J))
        assert zk.hypotheses == z.hypotheses and zk.violation is None
        assert zk.square_norm == times(z.square_norm, 2)
        assert zk.re_margins == times(z.re_margins, 1)


def _exactly_scaled(M, k):
    """2^k M, or None where it does not scale back to M exactly."""
    up = np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)
    back = np.ldexp(up.real, -k) + 1j * np.ldexp(up.imag, -k)
    return up if np.array_equal(back, M) else None


@settings(max_examples=40, deadline=None)
@given(st.integers(-1000, 1000), st.integers(2, 6), st.integers(0, 10**6))
def test_part_solves_are_exact_under_powers_of_two(k, d, seed):
    # The Cartesian parts are solved at their matrix's scale, with no scaling
    # pass of their own: 2^k T gives check_zero_square exactly 2^k times the
    # margins of T, and normality_equivalence the verdicts of T.
    rng = np.random.default_rng(seed)
    J = sample_nilpotent(d, seed=seed)
    K = _with_spectrum(rng, np.linspace(-1.0, 1.0, d))  # indefinite
    P = random_psd(rng, d) + np.eye(d)
    normal_re, _ = random_normal(rng, d, arg_range=(-1.4, 1.4))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Jk = _exactly_scaled(J, k)
        if Jk is not None:
            z, zk = check_zero_square(J), check_zero_square(Jk)
            assert zk.hypotheses == z.hypotheses and zk.violation is z.violation is None
            assert (zk.re_indefinite, zk.im_indefinite) == (z.re_indefinite, z.im_indefinite)
            assert zk.re_margins == tuple(np.ldexp(z.re_margins, k))
            assert zk.im_margins == tuple(np.ldexp(z.im_margins, k))
        for M in (normal_re, P + 1j * K, K + 1j * P, K + 0.5j * K @ P):
            Mk = _exactly_scaled(M, k)
            if Mk is None:
                continue
            base, scaled = normality_equivalence(M), normality_equivalence(Mk)
            fields = ("applicable", "normal", "commutes", "agree", "indeterminate",
                      "selfadjoint_clause_checked")
            assert [getattr(scaled, f) for f in fields] == [getattr(base, f) for f in fields]
            assert scaled.violation is base.violation is None


# --- Volterra ----------------------------------------------------------------


def test_volterra_scalar():
    assert np.allclose(volterra_matrix(1), [[0.5]])


def test_volterra_real_part_rank_one():
    for n in (4, 16):
        V = volterra_matrix(n)
        re = cartesian_parts(V).re
        assert np.allclose(re, np.full((n, n), 1.0 / (2 * n)))
        lam = hermitian_eigen(re).eigenvalues
        assert lam[0] >= -1e-15
        assert lam[-1] == pytest.approx(0.5)


def test_volterra_norm_converges():
    from normalroots.linalg import operator_norm

    norm = operator_norm(volterra_matrix(64))
    assert norm == pytest.approx(2.0 / np.pi, abs=5e-4)


def test_volterra_spectral_radius_exact():
    V = volterra_matrix(8)
    # triangular: spectrum is the diagonal
    assert np.allclose(np.diag(V), 1.0 / 16.0)
    assert np.allclose(np.triu(V, 1), 0.0)


# --- exponential periodicity -------------------------------------------------


def test_periodicity_scalar_cases():
    assert exp_periodicity_residual(np.zeros((1, 1)), 1) <= 1e-14
    assert exp_periodicity_residual(np.diag([np.pi / 2]), -3) <= 1e-12


def test_periodicity_random(rng):
    A = random_hermitian(rng, 8)
    for k in (-16, -5, 5, 16):
        assert exp_periodicity_residual(A, k) <= 1e-11 * 8


@pytest.mark.parametrize("k", [10**400, 3 * 10**307, -(10**308)])
def test_periodicity_rejects_k_past_the_float_range(k):
    # 2 pi k overflows, or int(k) has no float at all: a LinalgError, which
    # the CLI turns into exit 1.
    with pytest.raises(LinalgError, match=f"k of {len(str(abs(k)))} digits"):
        exp_periodicity_residual(np.eye(2), k)


def test_periodicity_shift_is_unchanged_for_small_k(rng):
    # The residual is ||e^{i(lam + 2k pi)} - e^{i lam}||_2 on A's computed
    # spectrum, bit for bit; the two-factorization value it replaced,
    # ||e^{i(A + 2k pi I)} - e^{iA}||_F, stays within the CLI's bound of it.
    A = random_hermitian(rng, 5)
    lam = linalg.hermitian_eigvals(A)
    for k in range(-11, 8):
        residual = exp_periodicity_residual(A, np.int64(k))
        expected = np.linalg.norm(np.exp(1j * (lam + 2.0 * np.pi * k)) - np.exp(1j * lam))
        assert residual == expected
        shifted = A + 2.0 * np.pi * k * np.eye(5)
        two_factorizations = fro(linalg.expi(shifted) - linalg.expi(A))
        assert abs(residual - two_factorizations) <= 1e-11 * 5


@pytest.mark.parametrize("n", [1, 4, 8])
def test_periodicity_makes_one_values_solve(solve_log, rng, n):
    A = random_hermitian(rng, n)
    for k in (-16, 3, 10**12):
        solve_log.clear()
        exp_periodicity_residual(A, k)
        assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 0, "values": 1,
                                      "cholesky": 0}


@pytest.mark.parametrize("A, k, message", [
    # lam = 2e308 comes back as inf,
    (np.full((2, 2), 1e308), 1, "A has an eigenvalue past the float range"),
    # lam = 1.7e308 is finite, lam + 2 pi k = 2.3e308 is not.
    (np.array([[1.7e308]]), 10**307, r"A \+ 2 pi k I has an eigenvalue past the float range"),
    (np.array([[-1.7e308]]), -(10**307), r"A \+ 2 pi k I has an eigenvalue past the float range"),
], ids=["eigenvalue", "shifted", "shifted-negative"])
def test_periodicity_spectrum_past_the_float_range_raises(A, k, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(LinalgError, match=message):
            exp_periodicity_residual(A, k)


def test_periodicity_eigenangle_shift_oracle(rng):
    # shifting the spectrum by 2k pi must leave the exponential's spectrum fixed
    A = random_hermitian(rng, 6)
    lam = hermitian_eigen(A).eigenvalues
    shifted = hermitian_eigen(A + 2 * np.pi * 5 * np.eye(6)).eigenvalues
    assert np.allclose(np.exp(1j * lam), np.exp(1j * shifted), atol=1e-12)
