import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normalroots import linalg
from normalroots import roots as roots_module
from normalroots.linalg import DEFAULT_TOL, IndefiniteError, NotNormalError, fro
from normalroots.roots import (
    nth_root,
    root_pow2n,
    sign_case,
    spectral_sqrt,
    sqrt_signdef,
    verify_root,
)
from normalroots.sampling import random_normal, random_normal_signdef, random_psd, random_unitary


# --- sign_case ---------------------------------------------------------------


def test_sign_case_zero_falls_nonneg():
    assert sign_case(np.zeros((3, 3))) == "nonneg"


def test_sign_case_detection():
    assert sign_case(np.diag([1.0, 2.0])) == "nonneg"
    assert sign_case(np.diag([-1.0, -2.0])) == "nonpos"
    with pytest.raises(IndefiniteError):
        sign_case(np.diag([-1.0, 1.0]))


# --- sqrt_signdef ------------------------------------------------------------


def test_sqrt_identity():
    cert = sqrt_signdef(np.eye(3))
    assert np.allclose(cert.root, np.eye(3))
    assert cert.order == 2 and cert.branch == 0


def test_sqrt_diagonal_scalar_reduction():
    cert = sqrt_signdef(np.diag([4.0, 1j]))
    expected = np.diag([2.0, (1 + 1j) / np.sqrt(2)])
    assert np.allclose(cert.root, expected, atol=1e-12)
    assert np.allclose(cert.root @ cert.root, np.diag([4.0, 1j]), atol=1e-12)


def test_sqrt_scalar_i():
    cert = sqrt_signdef(1j * np.eye(2))
    assert np.allclose(cert.root, (1 + 1j) / np.sqrt(2) * np.eye(2), atol=1e-12)


def test_sqrt_rejects_non_normal():
    with pytest.raises(NotNormalError):
        sqrt_signdef([[0.0, 1.0], [0.0, 0.0]])


def test_sqrt_rejects_indefinite_imaginary_part():
    with pytest.raises(IndefiniteError):
        sqrt_signdef(np.diag([1j, -1j]))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.sampled_from(["nonneg", "nonpos"]))
def test_sqrt_random_signdef_property(seed, n, sign):
    rng = np.random.default_rng(seed)
    N, _ = random_normal_signdef(rng, n, sign)
    cert = sqrt_signdef(N)
    assert cert.power_residual <= 1e-9
    assert cert.normality_defect <= 1e-10
    # construction factors commute: re/im parts of the root commute
    A = 0.5 * (cert.root + cert.root.conj().T)
    B = (cert.root - cert.root.conj().T) / 2j
    assert fro(A @ B - B @ A) <= 1e-10 * (1.0 + fro(cert.root) ** 2)


def test_sqrt_conjugate_symmetry(rng):
    # the nonpos branch equals the adjoint of the nonneg branch applied to N*
    N, _ = random_normal_signdef(rng, 5, "nonpos")
    direct = sqrt_signdef(N).root
    via_adjoint = sqrt_signdef(N.conj().T).root.conj().T
    assert fro(direct - via_adjoint) <= 1e-9 * (1.0 + fro(N))


def _signdef_input(seed, d, sign, fixed=(), order=2):
    """N = Q diag(mu) Q* with Im N sign-definite, mu starting with fixed, and
    its Cartesian root Q diag(a + isb) Q*, a, b = sqrt((|mu| +- Re mu)/2);
    for order 2^n, its root |mu|^(1/2^n) e^(is|arg mu|/2^n) instead."""
    rng = np.random.default_rng(seed)
    s = 1.0 if sign == "nonneg" else -1.0
    mu = rng.uniform(0.2, 3.0, d) * np.exp(1j * s * rng.uniform(0.0, np.pi, d))
    mu[:len(fixed)] = fixed
    Q = random_unitary(rng, d)
    mods = np.abs(mu)
    if order == 2:
        root = np.sqrt((mods + mu.real) / 2) + 1j * s * np.sqrt((mods - mu.real) / 2)
    else:
        root = mods ** (1.0 / order) * np.exp(1j * s * np.abs(np.angle(mu)) / order)
    return (Q * mu) @ Q.conj().T, (Q * root) @ Q.conj().T


def _forward_error(cert, expected):
    return fro(cert.root - expected) / fro(expected)


@pytest.mark.parametrize("d", [3, 5, 8])
def test_sqrt_of_positive_definite_matches_eigh(d):
    # Im N = 0: the formula ((|N| - C)/2)^{1/2} took the root of pure
    # rounding here (forward error 1e-7).  What is left is |N|, which squares
    # N, with Jacobi stopped at 4e-16 ||N*N||_F off the diagonal (worst
    # 3.6e-15 here, 2.4e-15 over 200 d5 seeds; 5.5e-13 with a 1e-13 stop).
    for seed in range(20):
        P = random_psd(np.random.default_rng(seed), d) + 0.5 * np.eye(d)
        lam, V = np.linalg.eigh(P)
        cert = sqrt_signdef(P)
        assert _forward_error(cert, (V * np.sqrt(lam)) @ V.conj().T) <= 4e-15
        assert cert.power_residual <= DEFAULT_TOL.residual


@pytest.mark.parametrize("sign", ["nonneg", "nonpos"])
@pytest.mark.parametrize("axis", [1.0, -1.0, "unit-circle", "two-moduli"])
def test_sqrt_with_eigenvalues_on_the_real_axis(sign, axis):
    # 30% of the eigenvalues on one half of the real axis, where |z| -+ Re z
    # vanishes for the old formula (forward error 1e-8 to 3e-8).  The other
    # two spectra repeat moduli: all on the unit circle (|N| = I), or in two
    # groups of equal modulus.  There the eigenbasis W of |N| leaves blocks
    # of D off the diagonal for the S solves to rotate (worst 1.9e-15, and
    # 2.5e-15 on the real axis, for both constructions).
    for seed in range(20):
        d = 3 + seed % 6
        rng = np.random.default_rng(seed + 100)
        if axis in (1.0, -1.0):
            fixed = axis * rng.uniform(0.2, 3.0, round(0.3 * d))
        else:
            s = 1.0 if sign == "nonneg" else -1.0
            mods = np.ones(d) if axis == "unit-circle" else np.where(np.arange(d) % 2, 0.5, 2.0)
            fixed = mods * np.exp(1j * s * rng.uniform(0.1, np.pi - 0.1, d))
        N, expected = _signdef_input(seed, d, sign, fixed)
        assert _forward_error(sqrt_signdef(N), expected) <= 1e-12
        N, expected = _signdef_input(seed, d, sign, fixed, order=8)
        assert _forward_error(root_pow2n(N, 3), expected) <= 1e-12


@pytest.mark.parametrize("fixed, forward, residual", [
    # Bounds: the worst of (|N| + C)/2, (|N| - C)/2 roots on these inputs
    # (6.07e-5 / 5.78e-9 and 5.00e-5 / 3.72e-9), rounded up; the cancellation-
    # free construction reads 5.08e-5 / 3.46e-9 and 1.25e-5 / 1.56e-9.
    ((0.0, 0.0), 6.1e-5, 5.8e-9),
    ((1e-8j,), 5.1e-5, 3.8e-9),
], ids=["singular", "1e-8i"])
def test_sqrt_near_singular_no_worse_than_the_cancelling_formula(fixed, forward, residual):
    # |N| squares N, so a zero eigenvalue of N keeps only about sqrt(eps)
    # of S; S^+ drops the eigenvalues of S^2 within rounding noise of 0.
    for seed in range(20):
        sign = ("nonneg", "nonpos")[seed % 2]
        fix = [z if sign == "nonneg" else np.conj(z) for z in fixed]
        N, expected = _signdef_input(seed, 6 - len(fixed) % 2, sign, fix)
        cert = sqrt_signdef(N)
        assert _forward_error(cert, expected) <= forward
        assert cert.power_residual <= residual


def test_cartesian_roots_never_diagonalize_n(monkeypatch):
    # sqrt_signdef must stay independent of its oracle spectral_sqrt.
    def forbidden(*args, **kwargs):
        raise AssertionError("normal_eigen called")

    monkeypatch.setattr(linalg, "normal_eigen", forbidden)
    monkeypatch.setattr(roots_module, "normal_eigen", forbidden)
    N, _ = random_normal_signdef(np.random.default_rng(4), 5, "nonpos")
    assert sqrt_signdef(N).power_residual <= 1e-12
    assert root_pow2n(N, 3).power_residual <= 1e-12


# --- root_pow2n --------------------------------------------------------------


def test_pow2n_psd_chain():
    cert = root_pow2n(16.0 * np.eye(2), 2)
    assert np.allclose(cert.root, 2.0 * np.eye(2), atol=1e-12)
    assert cert.order == 4


def test_pow2n_scalar_argument_halving():
    cert = root_pow2n(1j * np.eye(2), 2)
    assert np.allclose(cert.root, np.exp(1j * np.pi / 8) * np.eye(2), atol=1e-12)


def test_pow2n_repeated_squaring_oracle(rng):
    N, _ = random_normal_signdef(rng, 5, "nonneg")
    cert = root_pow2n(N, 3)
    eighth = cert.root
    for _ in range(3):
        eighth = eighth @ eighth
    assert fro(eighth - N) <= 1e-8 * (1.0 + fro(N))
    assert cert.power_residual <= 1e-8
    assert cert.order == 8


def test_pow2n_rejects_bad_order():
    with pytest.raises(ValueError):
        root_pow2n(np.eye(2), 0)


# --- nth_root ----------------------------------------------------------------


def test_nth_root_rejects_non_integer_order_and_branch():
    with pytest.raises(ValueError, match="n must be a positive integer"):
        nth_root(np.eye(2), 2.0)
    with pytest.raises(ValueError, match="n must be a positive integer"):
        nth_root(np.eye(2), 0)
    with pytest.raises(ValueError, match="branch k must be an integer"):
        nth_root(np.eye(2), 2, 0.5)


def test_nth_root_order_beyond_the_float_range_raises():
    # 1/n and 2 pi k / n need n as a float; 10^400 has none.
    with pytest.raises(linalg.LinalgError, match="^n of 401 digits is too large"):
        nth_root(np.eye(2), 10**400)
    with pytest.raises(linalg.LinalgError, match="^n of 401 digits is too large"):
        nth_root(np.eye(2), 10**400, k=3)


def test_constructions_return_the_verify_root_certificate(rng):
    N, _ = random_normal_signdef(rng, 4, "nonneg")
    certs = [
        (sqrt_signdef(N), N, 2, 0),
        (spectral_sqrt(N), N, 2, 0),
        (root_pow2n(N, 2), N, 4, 0),
        (nth_root(N, 3, 2), N, 3, 2),
    ]
    for cert, target, order, branch in certs:
        ref = verify_root(cert.root, target, order)
        assert (cert.order, cert.branch) == (order, branch)
        assert cert.power_residual == ref.power_residual
        assert cert.normality_defect == ref.normality_defect


def _ldexp(M, k):
    return np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 6), st.integers(2, 5), st.integers(-960, 960))
def test_roots_exactly_equivariant_under_powers_of_two(seed, d, n, shift):
    # 4^k N (2^(nk) N for an nth root) gives exactly 2^k times the root of
    # N, for k across the float range: each construction works on N / 2^e.
    rng = np.random.default_rng(seed)
    N, _ = random_normal_signdef(rng, d, ("nonneg", "nonpos")[seed % 2])
    for construct, order in ((sqrt_signdef, 2), (spectral_sqrt, 2),
                             (lambda M: nth_root(M, n, seed % n), n)):
        k = shift // order
        ref = construct(N).root
        assert np.array_equal(construct(_ldexp(N, order * k)).root, _ldexp(ref, k))


@pytest.mark.parametrize("k", [-498, -166, -40, 40, 498])
def test_roots_correct_at_every_scale(rng, k):
    # Each root, scaled back, is checked against N itself: a relative error,
    # which the absolute floor of a certificate would not show at 2^-498.
    N, _ = random_normal_signdef(rng, 4, "nonpos")
    Nk = _ldexp(N, 2 * (k // 2))
    for cert in (sqrt_signdef(Nk), spectral_sqrt(Nk), nth_root(Nk, 2)):
        T = _ldexp(cert.root, -(k // 2))
        assert fro(T @ T - N) <= 1e-12 * fro(N)
    T = _ldexp(root_pow2n(_ldexp(N, 8 * (k // 8)), 3).root, -(k // 8))
    assert fro(np.linalg.matrix_power(T, 8) - N) <= 1e-12 * fro(N)


def test_nth_root_of_high_order_keeps_the_input_normalised():
    # The exponent is the largest multiple of n at or below N's (here 0), so
    # N / 2^e peaks at 1/2 or more; a round-to-nearest exponent (70) would
    # have scaled both inputs to 2^-35.
    N = -(2.0**35) * np.eye(2)
    T = nth_root(N, 70).root
    assert fro(np.linalg.matrix_power(T, 70) - N) <= 1e-12 * fro(N)
    with pytest.raises(NotNormalError):
        nth_root(2.0**35 * np.array([[0.0, 1.0], [0.0, 0.0]]), 70)


@pytest.mark.parametrize("build", [
    sqrt_signdef, spectral_sqrt, lambda N: nth_root(N, 3), lambda N: root_pow2n(N, 2),
], ids=["sqrt_signdef", "spectral_sqrt", "nth_root", "root_pow2n"])
def test_not_normal_message_quotes_the_input_defect(build):
    # Normality is decided on N / 2^e; the message gives normality_defect(N).
    N = 1024.0 * np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotNormalError, match=f"^N is not normal: defect "
                       f"{linalg.normality_defect(N):.3e}$".replace("+", r"\+")):
        build(N)


def test_sign_case_message_quotes_the_input_eigenvalues():
    with pytest.raises(IndefiniteError, match=r"lambda_min=-4\.000e\+00, lambda_max=4\.000e\+00"):
        sqrt_signdef(np.diag([4.0 + 4.0j, 4.0 - 4.0j]))


def test_nth_root_identity_branch():
    cert = nth_root(np.eye(2), 3, 1)
    assert np.allclose(cert.root, np.exp(2j * np.pi / 3) * np.eye(2), atol=1e-12)


def test_nth_root_scalar_branches():
    for k, angle in [(0, np.pi / 4), (1, 5 * np.pi / 4)]:
        cert = nth_root(np.diag([1j]), 2, k)
        assert np.allclose(cert.root, [[np.exp(1j * angle)]], atol=1e-12)
        assert np.allclose(cert.root @ cert.root, [[1j]], atol=1e-12)


def test_nth_root_positive_scalar():
    cert = nth_root(8.0 * np.eye(3), 3, 0)
    assert np.allclose(cert.root, 2.0 * np.eye(3), atol=1e-12)


def test_nth_root_all_branches_distinct(rng):
    N, _ = random_normal(rng, 4, modulus_range=(0.5, 2.0))
    roots = [nth_root(N, 5, k) for k in range(5)]
    scale = 1.0 + fro(N)
    for cert in roots:
        assert cert.power_residual <= 1e-9
        assert cert.normality_defect <= 1e-10
    for i in range(5):
        for j in range(i + 1, 5):
            assert fro(roots[i].root - roots[j].root) > 1e-6 * scale


def test_nth_root_branch_periodicity(rng):
    N, _ = random_normal(rng, 4)
    scale = 1.0 + fro(N)
    for n, k in [(3, 0), (4, 2), (5, -1)]:
        r1 = nth_root(N, n, k).root
        r2 = nth_root(N, n, k + n).root
        assert fro(r1 - r2) <= 1e-12 * scale
        # k is reduced mod n exactly, so 2 pi k never swamps A.
        for m in (10**6, 10**17):
            cert = nth_root(N, n, k + m * n)
            assert np.array_equal(cert.root, r1) and cert.branch == k + m * n


def test_nth_root_eigensolve_count(solve_log):
    # Per branch: normal_eigen(N) (its factors give both U and P), then
    # normal_eigen(U) in unitary_log, and a Hermitian solve in psd_root(P)
    # and in expi, whatever the spectrum.
    N, _ = random_normal(np.random.default_rng(606), 6)
    for k in range(3):
        solve_log.clear()
        assert nth_root(N, 3, k).power_residual <= 1e-12
        assert solve_log.counts() == {"hermitian": 2, "normal": 2, "stacked": 0, "values": 0,
                                      "cholesky": 0}


def test_nth_root_square_takes_the_spectral_sqrt_side_of_the_cut():
    # -2 and -1 lie on the cut; branch 0 of the square root sends both to
    # the +i side, as spectral_sqrt does.
    for seed in range(200):
        Q = random_unitary(np.random.default_rng(seed), 4)
        N = (Q * np.array([-2.0, -1.0, 1j, 3.0])) @ Q.conj().T
        gap = fro(nth_root(N, 2, 0).root - spectral_sqrt(N).root)
        assert gap <= 1e-10 * (1.0 + fro(N))


def _root_from_eigenvalues(Q, lam):
    return (Q * np.sqrt(lam)) @ Q.conj().T


def test_spectral_sqrt_keeps_a_tiny_imaginary_eigenvalue_off_the_cut():
    # An absolute snap would put 1e-12 i on the real axis (forward error
    # 6e-7 behind a power residual of 4e-13).
    lam = np.array([1e-12j, 0.3 + 0.4j, 0.2 + 0.5j, 0.7 + 0.1j, 1.0])
    Q = random_unitary(np.random.default_rng(12), 5)
    expected = _root_from_eigenvalues(Q, lam)
    root = spectral_sqrt((Q * lam) @ Q.conj().T).root
    assert fro(root - expected) <= 1e-10 * fro(expected)


def test_nth_root_keeps_the_phase_of_a_tiny_eigenvalue():
    # polar_normal sets a phase to 1 only within eigenvalue noise of 0
    # (16 n eps max|mu|); an absolute threshold structural * (1 + ||N||_F)
    # dropped the phase of 1e-12 i (forward error 2.9e-5 behind a power
    # residual of 6e-13).
    lam = np.array([1e-12j, 0.3 + 0.4j, 0.2 + 0.5j, 0.7 + 0.1j, 1.0])
    Q = random_unitary(np.random.default_rng(12), 5)
    expected = (Q * lam ** (1.0 / 3.0)) @ Q.conj().T
    root = nth_root((Q * lam) @ Q.conj().T, 3).root
    assert fro(root - expected) <= 1e-8 * fro(expected)


@pytest.mark.parametrize("lam0", [-1e-8, -1e-12])
def test_spectral_sqrt_snaps_small_negative_eigenvalues_to_plus_i(lam0):
    # Eigenvalue noise is absolute (about eps ||N||), so a snap relative to
    # |mu| alone leaves a small negative eigenvalue on the -i side.
    lam = np.array([lam0, 0.3 + 0.4j, 0.2 + 0.5j, 0.7 + 0.1j, 1.0])
    for seed in range(100):
        Q = random_unitary(np.random.default_rng(seed), 5)
        expected = _root_from_eigenvalues(Q, lam.astype(complex))
        root = spectral_sqrt((Q * lam) @ Q.conj().T).root
        assert fro(root - expected) <= 1e-10 * fro(expected)


def test_nth_root_order_one_is_identity_map(rng):
    N, _ = random_normal(rng, 3)
    cert = nth_root(N, 1, 0)
    assert fro(cert.root - N) <= 1e-10 * (1.0 + fro(N))


# --- spectral_sqrt -----------------------------------------------------------


def test_spectral_sqrt_identity():
    assert np.allclose(spectral_sqrt(np.eye(3)).root, np.eye(3))


def test_spectral_sqrt_negative_real_branch():
    cert = spectral_sqrt(np.diag([-1.0]))
    assert np.allclose(cert.root, np.diag([1j]), atol=1e-14)


def test_spectral_sqrt_random(rng):
    N, _ = random_normal(rng, 6)
    cert = spectral_sqrt(N)
    assert cert.power_residual <= 1e-10


def test_oracle_agreement_upper_half(rng):
    for _ in range(20):
        n = int(rng.integers(2, 9))
        N, _ = random_normal_signdef(rng, n, "nonneg")
        a = sqrt_signdef(N).root
        b = spectral_sqrt(N).root
        assert fro(a - b) <= 1e-8 * (1.0 + fro(N))


def _spectrum_off_the_cut(rng, d, kind, gap):
    """d eigenvalues away from 0 and from the negative real axis: pairs with
    Re parts gap apart and Im parts at least 0.3 apart ("clustered"),
    4-fold repeated, unitary, or generic."""
    if kind == "clustered":
        re = rng.uniform(0.1, 1.0, (d + 1) // 2)
        im = rng.uniform(-1.0, 0.5, (d + 1) // 2)
        mu = np.stack([re + 1j * im, re + gap + 1j * (im + rng.uniform(0.3, 0.8, im.size))], 1)
        return mu.ravel()[:d]
    mods = np.ones(d) if kind == "unitary" else rng.uniform(0.2, 3.0, d)
    mu = mods * np.exp(1j * rng.uniform(-np.pi + 0.3, np.pi - 0.3, d))
    return np.repeat(mu[:(d + 3) // 4], 4)[:d] if kind == "repeated" else mu


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8),
       st.sampled_from(["clustered", "repeated", "unitary", "generic"]),
       st.sampled_from([0.0, 5e-9, 2e-8, 1e-6, 1e-4]), st.integers(2, 5))
def test_spectral_roots_reach_working_precision_on_any_normal_spectrum(seed, d, kind, gap, n):
    # The forward error against Q f(mu) Q*, with roots well conditioned on
    # these spectra: Re N's eigenvalues gap apart no longer cost eps / gap.
    rng = np.random.default_rng(seed)
    mu = _spectrum_off_the_cut(rng, d, kind, gap)
    Q = random_unitary(rng, d)
    N = (Q * mu) @ Q.conj().T
    k = seed % n
    branch = np.abs(mu) ** (1.0 / n) * np.exp(1j * (np.angle(mu) + 2.0 * np.pi * k) / n)
    for cert, root in ((spectral_sqrt(N), np.sqrt(mu)), (nth_root(N, n, k), branch)):
        assert _forward_error(cert, (Q * root) @ Q.conj().T) <= 1e-13


# --- verify_root -------------------------------------------------------------


@pytest.mark.parametrize("x", [-1.0, -0.5, 0.0, 0.3, 1.0])
def test_verify_root_selfadjoint_family(x):
    # the classic one-parameter family of self-adjoint square roots of I
    A = np.array([[x, np.sqrt(1 - x * x)], [np.sqrt(1 - x * x), -x]])
    cert = verify_root(A, np.eye(2), 2)
    assert cert.power_residual <= 1e-12
    assert cert.normality_defect <= 1e-12


def test_verify_root_trivial():
    cert = verify_root(np.eye(2), np.eye(2), 7)
    assert cert.power_residual == 0.0


def test_verify_root_nilpotent_reports_defect():
    cert = verify_root([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 2)), 2)
    assert cert.power_residual == 0.0
    assert cert.normality_defect > 0.0


def test_verify_root_residual_is_relative():
    # A wrong root at 2^-249: divided by 1 + ||target||, the residual read
    # 6.1e-150.
    cert = verify_root(2.0**-249 * np.diag([1.0, 3.0]), 2.0**-498 * np.diag([1.0, 4.0]), 2)
    assert cert.power_residual > 0.1


@pytest.mark.parametrize("k", [-200, 200])
def test_power_residual_is_scale_invariant(k):
    N, _ = random_normal_signdef(np.random.default_rng(31), 5, "nonneg")
    ref = sqrt_signdef(N).power_residual
    assert 0.0 < ref <= 1e-13
    assert sqrt_signdef(_ldexp(N, 2 * k)).power_residual == ref


@pytest.mark.parametrize("n", [70, 500])
def test_power_residual_sees_a_wrong_root_of_high_order(n):
    # Divided by ||R||_F^n, a correct d4 root of order 70 read 8e-35; with
    # R scaled to unit norm, R^300 underflowed in fro's sums of squares and
    # any root read 0.
    N, _ = random_normal(np.random.default_rng(3), 4)
    cert = nth_root(N, n)
    assert cert.power_residual <= 1e-12
    assert verify_root(cert.root * (1 + 1e-3), N, n).power_residual > 1e-2


def test_power_residual_past_the_float_range():
    # R^k and T scaled into one float range (R / 2^j, T / 2^(jk)) both flush
    # to 0 at order 1100, and these wrong roots would read 0.0.
    two = 2.0 * np.eye(2)
    assert verify_root(np.zeros((2, 2)), two, 1100).power_residual == 1.0
    assert verify_root(1000.0 * np.eye(2), two, 1100).power_residual == 1.0
    assert verify_root(np.eye(2), two, 1100).power_residual == 0.5
    assert verify_root(2.0 ** (1 / 1100) * np.eye(2), two, 1100).power_residual <= 1e-12
    N, _ = random_normal(np.random.default_rng(3), 4)
    cert = nth_root(N, 1100)
    assert cert.power_residual <= 1e-12
    assert verify_root(cert.root * (1 + 1e-3), N, 1100).power_residual > 0.5


def test_verify_root_shape_mismatch():
    with pytest.raises(ValueError):
        verify_root(np.eye(2), np.eye(3), 2)
