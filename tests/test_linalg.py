import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from normalroots.linalg import (
    ConvergenceError,
    IndefiniteError,
    NotHermitianError,
    NotUnitaryError,
    LinalgError,
    CartesianPair,
    abs_op,
    cartesian_parts,
    classify,
    expi,
    fro,
    hermitian_eigen,
    hermitian_eigen_batch,
    hermitian_eigvals,
    is_normal,
    normal_eigen,
    normality_defect,
    operator_norm,
    polar_normal,
    psd_root,
    recompose,
    unitary_log,
    Tolerances,
)
from normalroots.sampling import random_hermitian, random_normal, random_psd, random_unitary


def random_dense(rng, n, scale=1.0):
    return scale * (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))


# --- cartesian_parts / recompose -------------------------------------------


def test_cartesian_parts_identity():
    p = cartesian_parts(np.eye(3))
    assert np.allclose(p.re, np.eye(3))
    assert np.allclose(p.im, 0)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10), st.integers(-900, 900),
       st.sampled_from(["complex", "real", "imaginary"]))
def test_cartesian_parts_are_exactly_hermitian(seed, n, k, kind):
    # re and im equal their conjugate transposes bit for bit, which is why
    # the theorem-lab checks hand the parts of their unit-scaled T to
    # linalg._eigvals(part, 0) without a Hermitian test or a scaling pass of
    # their own: the core returns exactly what the checked entry does.
    from normalroots.linalg import _eigvals, _unit_scale

    T = random_dense(np.random.default_rng(seed), n, 2.0 ** k)
    if kind == "real":
        T = T.real
    elif kind == "imaginary":
        T = 1j * T.imag
    p = cartesian_parts(_unit_scale(T)[0])
    for part in (p.re, p.im):
        assert np.array_equal(part, part.conj().T)
        assert np.array_equal(_eigvals(part, 0), hermitian_eigvals(part))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(-1000, 1023))
def test_cartesian_parts_scale_exactly(seed, n, k):
    # The parts are taken on T / 2^e and scaled back: 2^k T has exactly 2^k
    # times the parts of T, up to the float limit, where T + T* overflows.
    rng = np.random.default_rng(seed)
    T = rng.uniform(-1.0, 1.0, (n, n)) + 1j * rng.uniform(-1.0, 1.0, (n, n))
    pair = cartesian_parts(T)
    with np.errstate(over="raise", invalid="raise"):
        up = cartesian_parts(np.ldexp(T.real, k) + 1j * np.ldexp(T.imag, k))
    for got, part in ((up.re, pair.re), (up.im, pair.im)):
        assert np.array_equal(got, np.ldexp(part.real, k) + 1j * np.ldexp(part.imag, k))


def test_cartesian_parts_jordan_block():
    p = cartesian_parts([[0, 1], [0, 0]])
    assert np.allclose(p.re, [[0, 0.5], [0.5, 0]])
    assert np.allclose(p.im, [[0, -0.5j], [0.5j, 0]])


def test_cartesian_parts_purely_imaginary(rng):
    H = random_hermitian(rng, 4)
    p = cartesian_parts(1j * H)
    assert np.allclose(p.re, 0, atol=1e-14)
    assert np.allclose(p.im, H)


def test_recompose_trivial():
    assert np.allclose(recompose(CartesianPair(np.eye(2), np.zeros((2, 2)))), np.eye(2))
    assert np.allclose(
        recompose(CartesianPair(np.zeros((2, 2)), np.eye(2))), 1j * np.eye(2)
    )


def test_recompose_rejects_non_hermitian():
    bad = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(NotHermitianError):
        recompose(CartesianPair(bad, np.zeros((2, 2))))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_roundtrip_property(seed, n):
    rng = np.random.default_rng(seed)
    T = random_dense(rng, n, scale=rng.uniform(0.1, 10.0))
    back = recompose(cartesian_parts(T))
    assert fro(back - T) <= 1e-14 * (1.0 + fro(T))


def test_as_matrix_rejects_nonsquare_and_nonfinite():
    with pytest.raises(LinalgError):
        cartesian_parts(np.ones((2, 3)))
    with pytest.raises(LinalgError):
        cartesian_parts(np.array([[np.nan, 0], [0, 0]]))


# --- hermitian_eigen --------------------------------------------------------


def test_eigen_diagonal():
    e = hermitian_eigen(np.diag([3.0, 1.0]))
    assert np.allclose(e.eigenvalues, [1.0, 3.0])
    assert np.allclose(np.abs(e.vectors), [[0, 1], [1, 0]])


def test_eigen_hand_oracle_2x2():
    # char poly x^2 - 4x + 3 = (x-1)(x-3)
    e = hermitian_eigen([[2.0, 1.0], [1.0, 2.0]])
    assert np.allclose(e.eigenvalues, [1.0, 3.0], atol=1e-12)


def test_eigen_random_residual(rng):
    H = random_hermitian(rng, 6)
    e = hermitian_eigen(H)
    recon = (e.vectors * e.eigenvalues) @ e.vectors.conj().T
    assert fro(recon - H) <= 1e-12 * fro(H)


def test_eigen_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eigen([[0.0, 1.0], [0.0, 0.0]])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 16))
def test_eigen_invariants_property(seed, n):
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n, scale=rng.uniform(0.1, 5.0))
    e = hermitian_eigen(H)
    assert np.all(np.diff(e.eigenvalues) >= 0)
    assert fro(e.vectors.conj().T @ e.vectors - np.eye(n)) <= 1e-12 * n
    recon = (e.vectors * e.eigenvalues) @ e.vectors.conj().T
    assert fro(recon - H) <= 1e-11 * (1.0 + fro(H))


def test_fro_survives_overflow():
    M = np.full((2, 2), 1e300 + 1e300j)
    assert fro(M) == pytest.approx(2.0 * np.sqrt(2.0) * 1e300, rel=1e-15)
    stack = np.stack([M, np.eye(2)])
    assert np.allclose(fro(stack), [fro(M), np.sqrt(2.0)], rtol=1e-15)
    assert fro(np.array([[np.inf, 0.0], [0.0, 0.0]])) == np.inf
    H = np.array([[2.0, 1.0], [1.0, 2.0]])
    assert fro(H) == float(np.linalg.norm(H))


def test_fro_survives_underflow():
    # The squares of entries below 2^-511 underflow; such norms are taken on
    # the matrix scaled by a power of two, so only M = 0 has norm 0.
    M = 1e-170 * (1.0 + 1.0j) * np.eye(2)
    assert fro(M) == pytest.approx(2.0 * 1e-170, rel=1e-15)
    assert fro(M.real) == pytest.approx(np.sqrt(2.0) * 1e-170, rel=1e-15)
    tiny = np.array([[5e-324, 0.0], [0.0, 0.0]])
    assert fro(tiny) == 5e-324 and fro(np.zeros((2, 2))) == 0.0
    stack = np.stack([M, np.eye(2), np.zeros((2, 2))])
    assert np.allclose(fro(stack), [fro(M), np.sqrt(2.0), 0.0], rtol=1e-15, atol=0.0)


def test_fro_overflow_prints_no_warning():
    M = np.full((3, 3), 1e200 + 1e200j)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert fro(M) == pytest.approx(np.sqrt(18.0) * 1e200, rel=1e-15)
        assert fro(M.real) == pytest.approx(3e200, rel=1e-15)
        assert np.allclose(fro(np.stack([M, M.T])), fro(M), rtol=1e-15)
        # Each part's sum of squares is finite; only their sum overflows.
        assert fro(np.array([[1e154 + 1e154j]])) == pytest.approx(np.sqrt(2.0) * 1e154, rel=1e-15)


def test_fro_matches_numpy_bit_for_bit(rng):
    # The 2-D path takes np.linalg.norm's sum of squares in its own order,
    # so thresholds built on fro are unchanged.
    for n in (1, 2, 3, 5, 8, 17):
        M = random_dense(rng, n, scale=10.0 ** rng.uniform(-5, 5))
        for X in (M, M.conj().T, M.real, M[:, ::2], np.eye(n, dtype=int)):
            assert fro(X) == float(np.linalg.norm(X))


def test_fro_long_sum_of_squares_bypasses_blas(monkeypatch, rng):
    # Past 10 000 entries OpenBLAS threads vdot, so fro sums by einsum:
    # no BLAS call, a rounding-level match, and no warning on overflow.
    def threaded_dot(*args):
        raise AssertionError("fro handed a long sum of squares to BLAS")

    M = random_dense(rng, 128)
    refs = [float(np.linalg.norm(X)) for X in (M, M.conj().T, M.real)]
    monkeypatch.setattr(np, "vdot", threaded_dot)
    for X, ref in zip((M, M.conj().T, M.real), refs):
        assert fro(X) == pytest.approx(ref, rel=1e-14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        big = np.full((101, 101), 1e200 + 1e200j)
        assert fro(big) == pytest.approx(np.sqrt(2.0) * 101 * 1e200, rel=1e-14)


@pytest.mark.parametrize("scale, jordan_defect", [
    (1e-200, np.sqrt(2.0)), (1.0, np.sqrt(2.0)), (1e160, np.sqrt(2.0)), (1e300, np.sqrt(2.0)),
])
def test_normality_defect_at_every_scale(scale, jordan_defect):
    # ||M*M - MM*||_F / ||M||_F^2, taken on M / 2^e, so the squares of
    # ||M||_F ~ 1e300 do not overflow and those of 1e-200 do not underflow.
    N = scale * np.diag([1.0, 1j])
    J = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert normality_defect(N) == 0.0 and is_normal(N)
    assert normality_defect(J) == pytest.approx(jordan_defect, rel=1e-15)
    assert not is_normal(J)


def test_eigen_large_scale():
    # ||H||_F overflows in a plain sum of squares; the threshold must not.
    e = hermitian_eigen(1e200 * np.array([[2.0, 1.0], [1.0, 2.0]]))
    assert np.allclose(e.eigenvalues, [1e200, 3e200], rtol=1e-12, atol=0.0)
    b = hermitian_eigen_batch(1e200 * np.array([[[2.0, 1.0], [1.0, 2.0]]]))
    assert np.allclose(b.eigenvalues, [[1e200, 3e200]], rtol=1e-12, atol=0.0)


def test_eigen_convergence_error_reports_state(monkeypatch):
    from normalroots import linalg

    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
    H = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
    # The norms are reported in the units of H, not of the normalised H / 4.
    with pytest.raises(ConvergenceError, match=r"in 0 sweeps: off-diagonal norm 2\.\d+e\+00"):
        hermitian_eigen(H)
    with pytest.raises(ConvergenceError, match=r"in 0 sweeps: member 1 off-diagonal norm"):
        hermitian_eigen_batch(np.stack([np.eye(3), H]))


# --- hermitian_eigvals -------------------------------------------------------


def _test_spectrum(rng, n, kind):
    """Ascending test spectrum: spread, repeated, clustered within 1e-9, or
    graded, moduli geometric over 14 decades with random signs."""
    if kind == "repeated":
        return np.sort(rng.choice(rng.uniform(-3.0, 3.0, int(rng.integers(1, 4))), n))
    if kind == "graded":
        return np.sort(rng.choice([-1.0, 1.0], n) * np.logspace(0.0, -14.0, n))
    lam = rng.uniform(-3.0, 3.0, n)
    if kind == "clustered":
        lam = np.repeat(lam[:(n + 3) // 4], 4)[:n] + 1e-9 * rng.standard_normal(n)
    return np.sort(lam)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8) | st.integers(1, 12) | st.integers(13, 64),
       st.sampled_from(["dense", "spread", "repeated", "clustered", "graded"]), st.booleans(),
       st.integers(-1000, 1000))
def test_eigvals_matches_lapack(seed, n, kind, real, k):
    # n <= _SCALAR_REDUCTION_MAX_N reduces on Python numbers, larger n on
    # numpy; both must match LAPACK on real and complex input, spread,
    # repeated, clustered and graded spectra, at any power-of-two scale 2^k.
    # n = 2-8 is drawn twice as often: there the closed-form 2 x 2 finish
    # decides a larger share of the values.
    rng = np.random.default_rng(seed)
    if kind == "dense":
        G = rng.standard_normal((n, n)) if real else random_dense(rng, n)
        H = G + G.conj().T
    else:
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else random_unitary(rng, n)
        H = (Q * _test_spectrum(rng, n, kind)) @ Q.conj().T
        H = 0.5 * (H + H.conj().T)
    lam = hermitian_eigvals(np.ldexp(H, k) if real else np.ldexp(H.real, k) + 1j * np.ldexp(H.imag, k))
    ref = np.ldexp(np.linalg.eigvalsh(H), k)
    assert lam.shape == (n,) and lam.dtype == np.float64
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("n", range(2, 9))
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_eigvals_two_by_two_finish_matches_lapack(monkeypatch, n, real):
    # QL finishes each 2 x 2 block that splits off in closed form (_eig2,
    # LAPACK's dlae2); on every kind of spectrum, the values it gives stay
    # within the bound of test_eigvals_matches_lapack.  A spread spectrum
    # always ends in one; a repeated or graded one may deflate to 1 x 1
    # blocks first.
    from normalroots import linalg

    finishes = []
    eig2 = linalg._eig2

    def counted(*args):
        finishes.append(args)
        return eig2(*args)

    monkeypatch.setattr(linalg, "_eig2", counted)
    rng = np.random.default_rng(100 + n)
    for kind in ("spread", "repeated", "clustered", "graded"):
        Q = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else random_unitary(rng, n)
        H = (Q * _test_spectrum(rng, n, kind)) @ Q.conj().T
        H = 0.5 * (H + H.conj().T)
        finishes.clear()
        lam = hermitian_eigvals(H)
        ref = np.linalg.eigvalsh(H)
        assert finishes or kind != "spread"
        assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()


@pytest.mark.parametrize("k", [-64, -65, -600, -1000])
def test_eigvals_part_far_below_its_matrix_keeps_its_own_scale(k):
    # A part handed over at its matrix's scale (e = 0) is solved as it is
    # while its tridiagonal peaks at 2^-64 or more; below that it is rescaled
    # on its own, so the safmin floor of QL's deflation test never meets it:
    # [[0, t], [t, 0]] with t^2 below safmin still gives -t and t.
    from normalroots.linalg import _eigvals

    J = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    t = np.ldexp(1.0, k)
    assert np.array_equal(_eigvals(t * J, 0), [-t, t])
    H = random_hermitian(np.random.default_rng(5), 5)
    H = H / np.abs(H.view(float)).max()
    Hk = np.ldexp(H.real, k) + 1j * np.ldexp(H.imag, k)
    assert np.array_equal(_eigvals(Hk, 0), np.ldexp(_eigvals(H, 0), k))


@pytest.mark.parametrize("a, b, c", [
    (2.0, 1.0, 1.0), (1.0, 1.0, 2.0), (-2.0, 1.0, -1.0), (-1.0, -1.0, -2.0),
    (1.0, 3.0, -1.0), (0.0, 1.0, 0.0), (1.0, 1e-9, 1.0), (1e-14, 1.0, -3e-14),
    (5.0, 1e-300, -5.0), (3.0, 0.0, 3.0),
])
def test_eig2_is_dlae2(a, b, c):
    # Each branch: a + c of either sign or zero, |a| above or below |c|.
    from normalroots.linalg import _eig2

    got = np.sort(_eig2(a, b, c))
    ref = np.linalg.eigvalsh(np.array([[a, b], [b, c]]))
    assert np.abs(got - ref).max() <= 2.0 * np.finfo(float).eps * np.abs(ref).max()
    assert got.sum() == pytest.approx(a + c, abs=4e-16 * np.abs(ref).max())


@pytest.mark.parametrize("side", ["scalar", "numpy"])
@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_eigvals_bitwise_equivariant_on_both_reductions(side, real):
    # One n on each side of the reduction crossover: 2^k H gives exactly
    # 2^k times the values of H.
    from normalroots.linalg import _SCALAR_REDUCTION_MAX_N

    n = _SCALAR_REDUCTION_MAX_N + (side == "numpy")
    H = random_hermitian(np.random.default_rng(n), n)
    if real:
        H = H.real
    ref = hermitian_eigvals(H)
    for k in (-1000, -37, 1, 600, 1000):
        Hk = np.ldexp(H.real, k) + 1j * np.ldexp(H.imag, k)
        assert np.array_equal(hermitian_eigvals(Hk), np.ldexp(ref, k))


def _as_stack_solver(solve):
    def stacked(H):
        eig = solve(np.asarray(H)[None])
        return type(eig)(eigenvalues=eig.eigenvalues[0], vectors=eig.vectors[0])

    return stacked


@pytest.mark.parametrize("solve", [
    hermitian_eigvals, hermitian_eigen, _as_stack_solver(hermitian_eigen_batch),
], ids=["hermitian_eigvals", "hermitian_eigen", "hermitian_eigen_batch"])
@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 12), st.integers(-600, 600), st.booleans())
def test_eigvals_bitwise_equivariant_under_powers_of_two(solve, seed, n, k, real):
    # Every solver works on H / 2^e and scales the values back: 2^k H gives
    # exactly 2^k times the values of H, and the Jacobi engines the same vectors.
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    if real:
        H = H.real
    Hk = np.ldexp(H.real, k) + 1j * np.ldexp(H.imag, k)
    got, ref = solve(Hk), solve(H)
    if solve is hermitian_eigvals:
        assert np.array_equal(got, np.ldexp(ref, k))
    else:
        assert np.array_equal(got.eigenvalues, np.ldexp(ref.eigenvalues, k))
        assert np.array_equal(got.vectors, ref.vectors)


@pytest.mark.parametrize("solve", [
    hermitian_eigvals, hermitian_eigen, _as_stack_solver(hermitian_eigen_batch),
], ids=["hermitian_eigvals", "hermitian_eigen", "hermitian_eigen_batch"])
@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 10), st.booleans())
def test_eigensolvers_symmetrise_their_input(solve, seed, n, real):
    # Callers pass matrices that are Hermitian only within tolerance and do
    # not symmetrise them: each solver returns on H + E, E anti-Hermitian,
    # exactly what it returns on (1/2)((H + E) + (H + E)*).
    rng = np.random.default_rng(seed)
    H = random_hermitian(rng, n)
    if real:
        H = H.real
    E = random_dense(rng, n)
    E = 1e-14 * fro(H) / max(fro(E - E.conj().T), 1e-300) * (E - E.conj().T)
    near = H + E
    got, ref = solve(near), solve(0.5 * (near + near.conj().T))
    if solve is hermitian_eigvals:
        assert np.array_equal(got, ref)
    else:
        assert np.array_equal(got.eigenvalues, ref.eigenvalues)
        assert np.array_equal(got.vectors, ref.vectors)


@pytest.mark.parametrize("scale", [1e-20, 1e-300, 2.0 ** -1060])
def test_jacobi_stop_rule_is_relative(scale):
    # An absolute floor in the stop rule would accept the input as already
    # diagonal and return [2, 2] * scale.
    H = scale * np.array([[2.0, 1.0], [1.0, 2.0]])
    expected = scale * np.array([1.0, 3.0])
    assert np.allclose(hermitian_eigen(H).eigenvalues, expected, rtol=1e-14, atol=0.0)
    assert np.allclose(hermitian_eigen_batch(H[None]).eigenvalues, [expected],
                       rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("n", [16, 64])
def test_jacobi_reaches_working_precision(n):
    # The stop rule 4e-16 ||A||_F (about 2 eps) converges on 16-fold repeated
    # spectra and on spectra spread over 12 decades, to residuals of
    # n eps ||H||_F, in both engines.
    rng = np.random.default_rng(n)
    spectra = (np.repeat(rng.uniform(-1.0, 1.0, n // 16), 16),
               rng.choice([-1.0, 1.0], n) * np.logspace(-12.0, 0.0, n))
    stack = []
    for lam in spectra:
        Q = random_unitary(rng, n)
        H = (Q * lam) @ Q.conj().T
        stack.append(0.5 * (H + H.conj().T))
    stack = np.stack(stack)
    batch = hermitian_eigen_batch(stack)
    for H, w, V in zip(stack, batch.eigenvalues, batch.vectors):
        serial = hermitian_eigen(H)
        for w, V in ((w, V), (serial.eigenvalues, serial.vectors)):
            assert fro(H @ V - V * w) <= n * np.finfo(float).eps * fro(H)


def _oracle_input(rng, n, kind, real):
    """A Hermitian test matrix: dense, or with a spectrum spread over 12
    decades, 4-fold repeated, or clustered within 1e-9."""
    if kind == "dense":
        G = rng.standard_normal((n, n)) if real else random_dense(rng, n)
        return G + G.conj().T
    if kind == "decades":
        lam = rng.choice([-1.0, 1.0], n) * np.logspace(-12.0, 0.0, n)
    elif kind == "repeated":
        lam = np.repeat(rng.uniform(-1.0, 1.0, (n + 3) // 4), 4)[:n]
    else:
        lam = _test_spectrum(rng, n, "clustered")
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0] if real else random_unitary(rng, n)
    H = (Q * lam) @ Q.conj().T
    return 0.5 * (H + H.conj().T)


@pytest.mark.parametrize("solve", [hermitian_eigen, _as_stack_solver(hermitian_eigen_batch)],
                         ids=["hermitian_eigen", "hermitian_eigen_batch"])
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 24),
       st.sampled_from(["dense", "decades", "repeated", "clustered"]), st.booleans())
def test_jacobi_engines_reach_working_precision_against_lapack(solve, seed, n, kind, real):
    # Both engines against LAPACK's eigh, in units of n eps.  Over 2 400
    # inputs per engine of these kinds and sizes, the worst ratios were 2.53
    # (values), 1.23 (residual) and 1.97 (orthogonality); each bound is about
    # twice that; test_eigen_invariants_property allows 2 000 times more.
    H = _oracle_input(np.random.default_rng(seed), n, kind, real)
    eig = solve(H)
    w, V = eig.eigenvalues, eig.vectors
    ref = np.linalg.eigvalsh(H)
    unit = n * np.finfo(float).eps
    assert np.abs(w - ref).max() <= 5.0 * unit * np.abs(ref).max()
    assert fro(H @ V - V * w) <= 2.5 * unit * fro(H)
    assert fro(V.conj().T @ V - np.eye(n)) <= 4.0 * unit


def test_jacobi_zero_matrix_converges_at_once():
    # The relative threshold is 0 on the zero matrix, which is diagonal.
    eig = hermitian_eigen(np.zeros((3, 3)))
    assert np.array_equal(eig.eigenvalues, np.zeros(3))
    assert np.array_equal(eig.vectors, np.eye(3))
    batch = hermitian_eigen_batch(np.stack([np.zeros((3, 3)), np.diag([3.0, 1.0, 2.0])]))
    assert np.array_equal(batch.eigenvalues, [[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]])
    assert np.array_equal(batch.vectors[0], np.eye(3))


@pytest.mark.parametrize("H, expected", [
    ([[2.0, 1.0], [1.0, 2.0]], [1.0, 3.0]),  # a zero pivot at x = 2
    ([[5.0]], [5.0]),
    (np.zeros((3, 3)), [0.0, 0.0, 0.0]),
    (np.diag([2.0, -1.0, 2.0, 0.0]), [-1.0, 0.0, 2.0, 2.0]),  # e = 0: every row splits
    (np.ones((4, 4)), [0.0, 0.0, 0.0, 4.0]),
    ([[0.0, -1j], [1j, 0.0]], [-1.0, 1.0]),
    (1e-300 * np.diag([1.0, -1.0]), [-1e-300, 1e-300]),
])
def test_eigvals_known_spectra(H, expected):
    lam = hermitian_eigvals(H)
    assert np.allclose(lam, expected, rtol=0.0, atol=4e-16 * np.abs(expected).max())


def _tridiag(d, e):
    d, e = np.asarray(d, dtype=float), np.asarray(e, dtype=float)
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _wilkinson21():
    return _tridiag(np.abs(np.arange(-10.0, 11.0)), np.ones(20))


def _glued_wilkinson():
    W = _wilkinson21()
    G = np.zeros((42, 42))
    G[:21, :21] = G[21:, 21:] = W
    G[20, 21] = G[21, 20] = 1e-8
    return G


def _split_in_middle():
    e = np.ones(9)
    e[4] = 0.0
    return _tridiag(np.arange(10.0), e)


@pytest.mark.parametrize("H", [
    _wilkinson21(),  # W21+: pairs of eigenvalues agreeing to ~1e-14
    _glued_wilkinson(),
    _tridiag(np.zeros(64), np.ones(63)),  # path graph: a zero diagonal
    _tridiag(10.0 ** -np.arange(12.0), 10.0 ** -np.arange(0.5, 11.5)),
    _tridiag(10.0 ** -np.arange(11.0, -1.0, -1.0), 10.0 ** -np.arange(10.5, -0.5, -1.0)),
    _split_in_middle(),
    [[1.0, 1e-310], [1e-310, 2.0]],  # off-diagonal subnormal after normalisation
    np.diag([1.0, 0.0, 0.0, 0.0]) + 1e-170 * _tridiag(np.zeros(4), [0.0, 1.0, 1.0]),
], ids=["wilkinson21", "glued_wilkinson21", "path64", "graded_down", "graded_up",
        "split", "subnormal_offdiag", "tiny_zero_diagonal_block"])
def test_eigvals_ql_hard_tridiagonals(H):
    lam = hermitian_eigvals(H)
    ref = np.linalg.eigvalsh(H)
    assert np.all(np.diff(lam) >= 0.0)
    assert np.abs(lam - ref).max() <= 1e-13 * np.abs(ref).max()


def test_eigvals_path_graph_closed_form():
    n = 64
    lam = hermitian_eigvals(_tridiag(np.zeros(n), np.ones(n - 1)))
    exact = np.sort(2.0 * np.cos(np.arange(1, n + 1) * np.pi / (n + 1)))
    assert np.abs(lam - exact).max() <= 1e-13 * 2.0


def test_eigvals_convergence_error_reports_state(monkeypatch):
    from normalroots import linalg

    monkeypatch.setattr(linalg, "_QL_MAX_ITER", 0)
    H = np.array([[1.0, 2.0, 0.0], [2.0, 1.0, 0.5], [0.0, 0.5, 3.0]])
    # The norms are reported in the units of H, not of the normalised H / 4:
    # off-diagonal sqrt(2^2 + 0.5^2), diagonal sqrt(1 + 1 + 3^2).
    with pytest.raises(ConvergenceError, match=r"QL did not converge in 0 iterations: "
                       r"off-diagonal norm 2\.062e\+00, diagonal norm 3\.317e\+00"):
        hermitian_eigvals(H)
    # A diagonal matrix needs no iteration, and neither does a zero-diagonal
    # block whose off-diagonal squares to less than the safe minimum.
    assert np.array_equal(hermitian_eigvals(np.diag([3.0, 1.0])), [1.0, 3.0])
    tiny = np.diag([1.0, 0.0, 0.0])
    tiny[1, 2] = tiny[2, 1] = 1e-160
    assert np.array_equal(hermitian_eigvals(tiny), [0.0, 0.0, 1.0])


def test_eigvals_input_contract():
    for bad in (np.ones((2, 3)), np.zeros((0, 0)), np.ones((2, 2, 2)),
                np.array([[np.nan, 0.0], [0.0, 1.0]])):
        with pytest.raises(LinalgError) as values_exc:
            hermitian_eigvals(bad)
        with pytest.raises(LinalgError) as vectors_exc:
            hermitian_eigen(bad)
        assert type(values_exc.value) is type(vectors_exc.value) is LinalgError
        assert str(values_exc.value) == str(vectors_exc.value)
    J = [[0.0, 1.0], [0.0, 0.0]]
    with pytest.raises(NotHermitianError) as values_exc:
        hermitian_eigvals(J)
    with pytest.raises(NotHermitianError) as vectors_exc:
        hermitian_eigen(J)
    assert str(values_exc.value) == str(vectors_exc.value)
    # Within the structural tolerance, the Hermitian part is solved.
    near = np.array([[1.0, 2e-11], [0.0, 1.0]])
    assert np.array_equal(hermitian_eigvals(near), hermitian_eigvals(0.5 * (near + near.T)))


def _values_only_callers(tmp_path):
    from normalroots import cli, roots, theoremlab

    rng = np.random.default_rng(17)
    H = random_hermitian(rng, 5)
    U = random_unitary(rng, 4)
    D = (U * np.array([0.5, 1.0, 2.0, 3.0])) @ U.conj().T  # positive definite
    K = (U * np.array([-2.0, -1.0, 1.0, 2.0])) @ U.conj().T  # indefinite
    J = theoremlab.sample_nilpotent(4, seed=3)
    return {
        "operator_norm": lambda: operator_norm(random_dense(rng, 6)),
        "classify": lambda: classify(H),
        "sign_case": lambda: roots.sign_case(D),
        "spectra_disjoint": lambda: theoremlab.spectra_disjoint(H, H + 10.0 * np.eye(5)),
        "classify_root_of_selfadjoint": lambda: theoremlab.classify_root_of_selfadjoint(1j * D, -D @ D),
        "check_zero_square": lambda: theoremlab.check_zero_square(J),
        # Im T is solved only when Re T is not sign-definite.
        "normality_equivalence": lambda: theoremlab.normality_equivalence(D + 0.5j * H[:4, :4]),
        "normality_equivalence im": lambda: theoremlab.normality_equivalence(K + 1j * D),
        "normality_equivalence neither": lambda: theoremlab.normality_equivalence(K + 0.5j * K @ D),
        "cli volterra": lambda: cli.main(["volterra", "--n", "12", "--json", str(tmp_path / "v.json")]),
    }


# (values solves, Cholesky sign tests) of each caller.  A verdict that reads
# only a sign takes one Cholesky attempt per sign tried (classify tries both,
# the classifier adds its invertibility bound); a reported value takes a
# values solve.
_VALUES_ONLY_COUNTS = {
    "operator_norm": (1, 0), "classify": (0, 2), "sign_case": (0, 1),
    "spectra_disjoint": (2, 0), "classify_root_of_selfadjoint": (0, 2),
    "check_zero_square": (2, 0), "normality_equivalence": (0, 1),
    "normality_equivalence im": (0, 3), "normality_equivalence neither": (0, 4),
    "cli volterra": (2, 0),
}


@pytest.mark.parametrize("caller, parts", [
    ("operator_norm", 1), ("classify", 1), ("sign_case", 1), ("spectra_disjoint", 2),
    ("classify_root_of_selfadjoint", 1), ("check_zero_square", 2),
    ("normality_equivalence", 1), ("normality_equivalence im", 2),
    ("normality_equivalence neither", 2), ("cli volterra", 2),
])
def test_values_only_callers_make_no_vector_solves(solve_log, tmp_path, caller, parts):
    # parts: the Hermitian matrices whose spectrum or sign the caller reads;
    # each costs one values solve or Cholesky sign tests, never both.
    run = _values_only_callers(tmp_path)[caller]
    run()
    values, cholesky = _VALUES_ONLY_COUNTS[caller]
    assert values in (0, parts) and (values == 0) == (cholesky > 0)
    assert solve_log.counts() == {"hermitian": 0, "normal": 0, "stacked": 0, "values": values,
                                  "cholesky": cholesky}


def _abs_sweeps(solve_log, N) -> int:
    """Sweeps of |N|'s solve from V = I: abs_op's, on the same unit-scaled
    N*N as the chain's."""
    abs_op(N)
    sweeps = solve_log.sweeps()[0]
    solve_log.clear()
    return sweeps


def test_sqrt_signdef_eigensolve_count(solve_log):
    # |N| and S = (|N| + sD)^{1/2} take vector solves; the sign case takes
    # one Cholesky attempt on Im N, which is exactly Hermitian by
    # construction, and no values solve.
    # S is solved on |N|'s eigenbasis W, where |N| + sD is diagonal up to
    # rounding: at most 2 sweeps (from V = I this input takes 5).
    from normalroots import roots

    N, _ = random_normal(np.random.default_rng(8), 5, arg_range=(0.1, 3.0))
    abs_sweeps = _abs_sweeps(solve_log, N)
    roots.sqrt_signdef(N)
    assert solve_log.counts() == {"hermitian": 2, "normal": 0, "stacked": 0, "values": 0,
                                  "cholesky": 1}
    sweeps = solve_log.sweeps()
    assert sweeps[0] == abs_sweeps and sweeps[1] <= 2


@pytest.mark.parametrize("n", [1, 2, 3])
def test_root_pow2n_eigensolve_count(solve_log, n):
    # |N| is factorized once for the whole chain; each stage adds one vector
    # solve (its S, on |N|'s eigenbasis: at most 2 sweeps) and one Cholesky
    # attempt (its sign case, nonneg at every stage).
    from normalroots import roots

    N, _ = random_normal(np.random.default_rng(8), 5, arg_range=(0.1, 3.0))
    abs_sweeps = _abs_sweeps(solve_log, N)
    roots.root_pow2n(N, n)
    assert solve_log.counts() == {"hermitian": n + 1, "normal": 0, "stacked": 0, "values": 0,
                                  "cholesky": n}
    sweeps = solve_log.sweeps()
    assert sweeps[0] == abs_sweeps and max(sweeps[1:]) <= 2


# --- hermitian_eigen_batch --------------------------------------------------


def _check_batch(H, tol_scale=1e-12):
    e = hermitian_eigen_batch(H)
    nb, n, _ = H.shape
    assert e.eigenvalues.shape == (nb, n) and e.vectors.shape == (nb, n, n)
    scale = 1.0 + np.linalg.norm(H, axis=(1, 2))
    V = e.vectors
    err = np.abs(e.eigenvalues - np.linalg.eigvalsh(H)).max(axis=1)
    assert np.all(err <= tol_scale * scale)
    residual = np.linalg.norm(H @ V - V * e.eigenvalues[:, None, :], axis=(1, 2))
    assert np.all(residual <= 10 * tol_scale * scale)
    unitary = np.linalg.norm(V.conj().transpose(0, 2, 1) @ V - np.eye(n), axis=(1, 2))
    assert np.all(unitary <= tol_scale * n)
    for h, lam in zip(H, e.eigenvalues):
        serial = hermitian_eigen(h).eigenvalues
        assert np.abs(lam - serial).max() <= tol_scale * (1.0 + fro(h))
    return e


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
def test_eigen_batch_random_stack(rng, n):
    _check_batch(np.stack([random_hermitian(rng, n, scale=s) for s in (0.1, 1.0, 7.0, 1.0)]))


@pytest.mark.parametrize("n", [2, 3, 5, 8])
def test_eigen_batch_repeated_eigenvalues(rng, n):
    lam = np.repeat([-1.0, 2.0], [n // 2, n - n // 2])
    H = np.stack([(U * lam) @ U.conj().T for U in (random_unitary(rng, n) for _ in range(3))])
    e = _check_batch(H)
    assert np.allclose(e.eigenvalues, lam, atol=1e-12)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_eigen_batch_equal_diagonals(n):
    # a_pp = a_qq everywhere: every first rotation takes theta = pi/4.
    upper = np.triu(np.full((n, n), 1.0 + 1j), 1)
    H = upper + upper.conj().T + 2.0 * np.eye(n)
    _check_batch(np.stack([H, np.ones((n, n)), np.zeros((n, n))]))


def test_eigen_batch_zero_stack():
    e = hermitian_eigen_batch(np.zeros((4, 3, 3)))
    assert np.array_equal(e.eigenvalues, np.zeros((4, 3)))
    assert np.array_equal(e.vectors, np.broadcast_to(np.eye(3), (4, 3, 3)))


def test_eigen_batch_rejects_bad_member(rng):
    H = np.stack([random_hermitian(rng, 3) for _ in range(4)])
    H[2, 0, 1] += 1.0
    with pytest.raises(NotHermitianError, match=r"H\[2\]"):
        hermitian_eigen_batch(H)
    with pytest.raises(LinalgError):
        hermitian_eigen_batch(np.eye(3))
    with pytest.raises(LinalgError):
        hermitian_eigen_batch(np.full((1, 2, 2), np.nan))


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_hermitian_check_on_a_stack_is_member_by_member(rng):
    # The error names the first member that fails, with that member's defect.
    H = np.stack([random_hermitian(rng, 4) + 1e-13 * random_dense(rng, 4) for _ in range(3)])
    for bad in ([0], [2], [1, 2]):
        J = H.copy()
        J[bad, 0, 1] += 1.0
        message = rf"^H\[{bad[0]}\] is not Hermitian: defect 1\.41\de\+00$"
        with pytest.raises(NotHermitianError, match=message):
            hermitian_eigen_batch(J)
    with pytest.raises(NotHermitianError, match=r"^H is not Hermitian: defect 1\.414e\+00$"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8),
       st.lists(st.integers(-600, 600), min_size=2, max_size=3), st.booleans())
def test_eigen_batch_member_gets_what_it_gets_alone(seed, n, ks, real):
    # Each member has its own exponent, threshold and skip rule and stops on
    # its own, so the stack changes none of its bits.
    rng = np.random.default_rng(seed)
    H = np.stack([random_hermitian(rng, n) * 2.0 ** k for k in ks])
    if real:
        H = H.real.astype(complex)
    stacked = hermitian_eigen_batch(H)
    for b in range(len(ks)):
        alone = hermitian_eigen_batch(H[b:b + 1])
        assert _same_bits(stacked.eigenvalues[b], alone.eigenvalues[0])
        assert _same_bits(stacked.vectors[b], alone.vectors[0])


# --- psd_root / abs_op ------------------------------------------------------


def test_psd_root_diagonal():
    assert np.allclose(psd_root(np.diag([4.0, 9.0]), 2), np.diag([2.0, 3.0]))


def test_psd_root_zero():
    for n in (1, 2, 3):
        assert np.allclose(psd_root(np.zeros((2, 2)), n), 0)


def test_psd_root_via_eigen_oracle():
    P = np.array([[2.0, 1.0], [1.0, 2.0]])
    e = hermitian_eigen(P)
    expected = (e.vectors * np.sqrt(e.eigenvalues)) @ e.vectors.conj().T
    assert np.allclose(psd_root(P, 2), expected, atol=1e-12)


def test_psd_root_rejects_order_zero():
    with pytest.raises(ValueError, match="positive integer"):
        psd_root(np.eye(2), 0)


def test_psd_root_order_beyond_the_float_range_raises():
    # 1/n needs n as a float; 10^400 has none.  The error is nth_root's, so
    # an int past the float range is a LinalgError, not an OverflowError.
    with pytest.raises(LinalgError, match="^n of 401 digits is too large: not a finite float$"):
        psd_root(np.eye(2), 10**400)
    assert np.array_equal(psd_root(4.0 * np.eye(2), np.int64(2)), 2.0 * np.eye(2))


def test_psd_root_rejects_indefinite():
    with pytest.raises(IndefiniteError):
        psd_root(np.diag([1.0, -1.0]), 2)


def test_psd_root_clamps_rounding_negatives():
    P = np.diag([1.0, -1e-14])
    R = psd_root(P, 2)
    assert hermitian_eigen(R).eigenvalues[0] >= 0.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 7])
def test_psd_root_power_law(rng, n):
    P = random_psd(rng, 5, scale=2.0)
    R = psd_root(P, n)
    assert fro(np.linalg.matrix_power(R, n) - P) <= 1e-9 * (1.0 + fro(P))
    assert fro(R @ P - P @ R) <= 1e-10 * (1.0 + fro(P))


def test_monotone_square_root(rng):
    # 0 <= A <= B implies sqrt(A) <= sqrt(B)
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = random_psd(rng, n)
        B = A + random_psd(rng, n)
        diff = psd_root(B, 2) - psd_root(A, 2)
        lam_min = hermitian_eigen(diff).eigenvalues[0]
        assert lam_min >= -1e-9 * (1.0 + fro(B))


def test_abs_bound(rng):
    # |A| <= B implies -B <= A <= B
    for _ in range(25):
        n = int(rng.integers(2, 7))
        A = random_hermitian(rng, n)
        B = abs_op(A) + random_psd(rng, n)
        scale = 1.0 + fro(B)
        assert hermitian_eigen(B - A).eigenvalues[0] >= -1e-9 * scale
        assert hermitian_eigen(B + A).eigenvalues[0] >= -1e-9 * scale


def test_abs_op_examples():
    assert np.allclose(abs_op([[0.0, 1.0], [0.0, 0.0]]), np.diag([0.0, 1.0]))
    assert np.allclose(abs_op(np.diag([-2.0, 3.0j])), np.diag([2.0, 3.0]))


def test_abs_op_unitary(rng):
    U = random_unitary(rng, 4)
    assert np.allclose(abs_op(U), np.eye(4), atol=1e-12)


# --- normal_eigen -----------------------------------------------------------


def test_normal_eigen_diagonal():
    mu, V = normal_eigen(np.diag([2.0, 1j]))
    assert np.allclose(sorted(mu, key=lambda z: z.real), [1j, 2.0])


def test_normal_eigen_rotation():
    mu, V = normal_eigen([[0.0, 1.0], [-1.0, 0.0]])
    assert np.allclose(sorted(mu, key=lambda z: z.imag), [-1j, 1j])


def test_normal_eigen_recovers_constructed_spectrum(rng):
    N, mu_true = random_normal(rng, 6)
    mu, V = normal_eigen(N)
    assert np.allclose(sorted(mu, key=lambda z: (z.real, z.imag)),
                       sorted(mu_true, key=lambda z: (z.real, z.imag)), atol=1e-10)
    recon = (V * mu) @ V.conj().T
    assert fro(recon - N) <= 1e-9 * (1.0 + fro(N))


def test_normal_eigen_degenerate_real_part(rng):
    # eigenvalues share Re but differ in Im: Re N alone cannot split them
    U = random_unitary(rng, 4)
    mu_true = np.array([1 + 1j, 1 - 1j, 1 + 2j, -1.0])
    N = (U * mu_true) @ U.conj().T
    mu, V = normal_eigen(N)
    recon = (V * mu) @ V.conj().T
    assert fro(recon - N) <= 1e-9 * (1.0 + fro(N))


@pytest.mark.parametrize("delta", [1e-14, 1e-13, 1e-12, 1e-11])
def test_normal_eigen_converges_on_nearly_normal_input(delta):
    # N + delta E passes is_normal; its departure from normality stays on
    # the off-diagonal, above the off-norm stop, so the loop ends on the
    # rotation size (4-7 sweeps here).
    eps = np.finfo(float).eps
    for seed in range(12):
        rng = np.random.default_rng(seed)
        d = 3 + seed % 6
        N, _ = random_normal(rng, d)
        E = random_dense(rng, d)
        M = N + (delta * fro(N) / fro(E)) * E
        assert is_normal(M)
        mu, V = normal_eigen(M)
        assert fro(V.conj().T @ V - np.eye(d)) <= 4.0 * d * eps
        assert fro((V * mu) @ V.conj().T - M) <= 2.0 * delta * fro(M)


def test_normal_eigen_orders_by_real_then_imaginary_part(rng):
    mu, V = normal_eigen(np.diag([1 + 2j, -1.0, 1 - 1j, 2j, 1.0]))
    assert np.array_equal(mu, [-1.0, 2j, 1 - 1j, 1.0, 1 + 2j])
    assert np.array_equal(V, np.eye(5)[:, [1, 3, 2, 4, 0]])
    N, _ = random_normal(rng, 8)
    mu, V = normal_eigen(N)
    assert np.all(np.diff(mu.real) >= 0.0)


def test_normal_eigen_convergence_error_reports_state(monkeypatch):
    from normalroots import linalg

    monkeypatch.setattr(linalg, "_MAX_SWEEPS", 0)
    N = np.array([[1.0, 2.0, 0.0], [-2.0, 1.0, 0.0], [0.0, 0.0, 3j]])
    # The norms are reported in the units of N, not of the normalised N / 4.
    with pytest.raises(ConvergenceError,
                       match=r"in 0 sweeps: off-diagonal norm 2\.828e\+00 > threshold"):
        normal_eigen(N)


def test_normal_eigen_rejects_non_normal():
    from normalroots.linalg import NotNormalError

    with pytest.raises(NotNormalError):
        normal_eigen([[0.0, 1.0], [0.0, 0.0]])


# --- expi / unitary_log / polar --------------------------------------------


def test_expi_trivial():
    assert np.allclose(expi(np.zeros((3, 3))), np.eye(3))
    assert np.allclose(expi(np.pi * np.eye(2)), -np.eye(2), atol=1e-14)


def test_expi_spectrum_past_the_float_range_raises():
    # The eigenvalue 2e308 comes back as inf; e^{i inf} would be NaN.
    with pytest.raises(LinalgError, match="eigenvalue past the float range"):
        expi(np.full((2, 2), 1e308))


def test_expi_unitarity(rng):
    A = random_hermitian(rng, 5)
    U = expi(A)
    assert fro(U.conj().T @ U - np.eye(5)) <= 1e-12 * 5


def test_unitary_log_examples():
    assert np.allclose(unitary_log(np.eye(3)), 0, atol=1e-12)
    U = np.diag([np.exp(1j * np.pi / 2), np.exp(-1j * np.pi / 3)])
    A = unitary_log(U)
    assert np.allclose(sorted(hermitian_eigen(A).eigenvalues), [-np.pi / 3, np.pi / 2])
    assert np.allclose(unitary_log(-np.eye(2)), np.pi * np.eye(2))


def test_unitary_log_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        unitary_log(2.0 * np.eye(2))


def test_unitary_log_branch_cut_gives_plus_pi():
    # Rounding leaves the double eigenvalue -1 of U on either side of the
    # cut; the rule puts it on the cut, so it maps to +pi on every input.
    spectrum = np.array([-1.0, -1.0, 1j, np.exp(0.3j)])
    for seed in range(200):
        Q = random_unitary(np.random.default_rng(seed), 4)
        A = unitary_log((Q * spectrum) @ Q.conj().T)
        lam = np.linalg.eigvalsh(A)
        assert lam[0] > -np.pi
        assert lam[-1] <= np.pi + 1e-12
        assert np.allclose(lam, [0.3, np.pi / 2, np.pi, np.pi], atol=1e-10)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 8))
def test_expi_log_inversion_property(seed, n):
    rng = np.random.default_rng(seed)
    U = random_unitary(rng, n)
    assert fro(expi(unitary_log(U)) - U) <= 1e-10 * n


def test_polar_trivial():
    form = polar_normal(np.diag([2j]))
    assert np.allclose(form.unitary, np.diag([1j]))
    assert np.allclose(form.positive, np.diag([2.0]))


def test_polar_zero_kernel_convention():
    form = polar_normal(np.zeros((3, 3)))
    assert np.allclose(form.unitary, np.eye(3))
    assert np.allclose(form.positive, 0)


def test_polar_random_normal(rng):
    N, _ = random_normal(rng, 6)
    form = polar_normal(N)
    scale = 1.0 + fro(N)
    assert fro(form.unitary @ form.positive - N) <= 1e-10 * scale
    assert fro(form.unitary @ form.positive - form.positive @ form.unitary) <= 1e-10 * scale
    assert hermitian_eigen(form.positive).eigenvalues[0] >= -1e-10 * scale


def test_polar_positive_factor_from_one_eigendecomposition():
    # P = V |mu| V* from normal_eigen agrees with the independent |N| of
    # abs_op (a psd root of N* N).
    for seed in range(40):
        rng = np.random.default_rng(seed)
        N, _ = random_normal(rng, 2 + seed % 6, modulus_range=(0.5, 3.0))
        form = polar_normal(N)
        scale = 1.0 + fro(N)
        assert fro(form.positive - abs_op(N)) <= 1e-12 * scale
        assert fro(form.unitary @ form.positive - N) <= 1e-12 * scale
        assert fro(form.positive - form.positive.conj().T) == 0.0


# --- operator_norm / classify ----------------------------------------------


def test_operator_norm_examples():
    assert operator_norm(np.diag([1.0, -3.0])) == pytest.approx(3.0)
    assert operator_norm([[0.0, 1.0], [0.0, 0.0]]) == pytest.approx(1.0)


def test_classify_identity():
    f = classify(np.eye(3))
    assert (f.hermitian, f.normal, f.psd, f.unitary) == (True, True, True, True)
    assert not f.nsd and not f.zero


def test_classify_jordan_block():
    f = classify([[0.0, 1.0], [0.0, 0.0]])
    assert not any(asdict(f).values())


@pytest.mark.parametrize("scale", [1e-30, 1e-300, 2.0 ** -1070])
def test_classify_verdicts_are_relative(scale):
    # No absolute floor: a small Jordan block is neither Hermitian, normal,
    # semidefinite nor zero, and a small identity is psd but not zero.
    J = scale * np.array([[0.0, 1.0], [0.0, 0.0]])
    assert not any(asdict(classify(J)).values())
    f = classify(scale * np.eye(2))
    assert (f.hermitian, f.normal, f.psd, f.nsd, f.zero) == (True, True, True, False, False)
    assert classify(np.zeros((2, 2))).zero


def test_classify_commuting_construction(rng):
    # A + iB with commuting Hermitian parts is normal by construction
    H = random_hermitian(rng, 4)
    e = hermitian_eigen(H)
    A = (e.vectors * rng.standard_normal(4)) @ e.vectors.conj().T
    B = (e.vectors * rng.standard_normal(4)) @ e.vectors.conj().T
    A, B = 0.5 * (A + A.conj().T), 0.5 * (B + B.conj().T)
    assert classify(A + 1j * B).normal


# --- _psd_within: sign tests by a Cholesky attempt -------------------------


def _spectrum(rng, kind: str, n: int) -> np.ndarray:
    """n eigenvalues in [-1, 1] of one kind."""
    signs = rng.choice([-1.0, 1.0], n)
    if kind == "graded":  # twelve decades
        return signs * 10.0 ** -rng.uniform(0.0, 12.0, n)
    if kind == "clustered":  # within 1e-9 of one value, possibly 0
        return rng.choice([-1.0, 0.0, 0.5, 1.0]) * 0.999 + 1e-9 * rng.uniform(-1.0, 1.0, n)
    if kind == "repeated":
        return rng.choice(rng.uniform(-1.0, 1.0, 2), n)
    if kind == "rank_deficient":
        lam = rng.uniform(-1.0, 1.0, n) * rng.choice([-1.0, 1.0]) * signs.clip(0.0, 1.0)
        lam[rng.integers(n)] = 0.0
        return lam
    return rng.uniform(-1.0, 1.0, n)


def _hermitian_with(rng, lam: np.ndarray, real: bool) -> np.ndarray:
    """Q diag(lam) Q*, exactly Hermitian, Q orthogonal or unitary."""
    n = len(lam)
    G = rng.standard_normal((n, n)) + (0.0 if real else 1j * rng.standard_normal((n, n)))
    Q, _ = np.linalg.qr(G)
    P = (Q * lam) @ Q.conj().T
    return (0.5 * (P + P.conj().T)).astype(complex)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.sampled_from(["graded", "clustered", "repeated",
                                            "rank_deficient", "uniform"]),
       st.booleans(), st.integers(0, 2**32 - 1), st.floats(-17.0, 0.0), st.booleans(),
       st.sampled_from([1.0, -1.0]), st.integers(-600, 600))
def test_psd_within_matches_the_least_eigenvalue(n, kind, real, seed, log_offset, above,
                                                  sign, k):
    # The verdict is lambda_min(sign P) >= -band wherever lambda_min + band
    # clears the rounding margin 64 n eps ||P||_2 (Cholesky's backward
    # error), for bands placed from far off down to 1e-17 ||P|| of the
    # boundary on either side, negative bands included; and 2^k P with
    # 2^k band gives bit for bit the verdict of P.
    from normalroots.linalg import _psd_within

    rng = np.random.default_rng(seed)
    P = _hermitian_with(rng, _spectrum(rng, kind, n), real)
    lam = np.linalg.eigvalsh(sign * P)
    norm2 = float(np.abs(lam).max())
    band = -lam[0] + (1.0 if above else -1.0) * 10.0 ** log_offset * (norm2 or 1.0)
    verdict = _psd_within(P, band, sign)
    assert type(verdict) is bool
    if abs(lam[0] + band) > 64 * n * np.finfo(float).eps * norm2:
        assert verdict == (lam[0] >= -band)
    up = np.ldexp(P.real, k) + 1j * np.ldexp(P.imag, k)
    assert _psd_within(up, float(np.ldexp(band, k)), sign) == verdict


def test_psd_within_edge_cases():
    from normalroots.linalg import _psd_within

    zero = np.zeros((3, 3), dtype=complex)
    # The zero part with band 0 counts as definite, of either sign; with a
    # negative band it does not.
    assert _psd_within(zero, 0.0) and _psd_within(zero, 0.0, -1.0)
    assert not _psd_within(zero, -1e-300)
    # Strict: lambda_min = -band exactly is not inside.
    assert not _psd_within(np.diag([-0.5, 1.0]).astype(complex), 0.5)
    assert _psd_within(np.diag([-0.5, 1.0]).astype(complex), 0.5 + 2.0 ** -53)
    # A zero diagonal fails before LAPACK, an indefinite one inside it.
    assert not _psd_within(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex), 1e-10)
    assert not _psd_within(np.array([[1.0, 2.0], [2.0, 1.0]], dtype=complex), 1e-10)
    # A band below 2^-1000 takes the values path, with the same verdicts.
    for band in (1e-305, -1e-305):
        assert _psd_within(np.eye(2, dtype=complex), band)
        assert not _psd_within(-np.eye(2, dtype=complex), band)


def _reference_sign(H: np.ndarray, band: float):
    """(psd, nsd) of the exactly Hermitian H from LAPACK's eigenvalues."""
    lam = np.linalg.eigvalsh(H)
    return bool(lam[0] >= -band), bool(lam[-1] <= band)


def _sign_test_inputs(count: int):
    """count (kind, T) pairs, d 1-8: Hermitian parts definite, singular or
    indefinite, each alone, times i, or with a small or large other part."""
    rng = np.random.default_rng(29)
    kinds = ("definite", "singular", "indefinite", "graded", "zero")
    for i in range(count):
        d = 1 + i % 8
        kind = kinds[(i // 8) % len(kinds)]
        if kind == "zero":
            H = np.zeros((d, d), dtype=complex)
        else:
            if kind == "definite":
                lam = rng.uniform(1e-3, 1.0, d)
            elif kind == "singular":
                lam = rng.uniform(0.0, 1.0, d)
                lam[rng.integers(d)] = 0.0
            elif kind == "indefinite":
                lam = rng.uniform(-1.0, 1.0, d)
            else:
                lam = 10.0 ** -rng.uniform(0.0, 12.0, d)
            H = _hermitian_with(rng, rng.choice([-1.0, 1.0]) * lam, bool(i % 3 == 0))
        other = _hermitian_with(rng, rng.uniform(-1.0, 1.0, d), False)
        T = (H, 1j * H, H + 1e-13j * other, H + 1j * other)[(i // 40) % 4]
        yield kind, T


def test_sign_callers_match_a_values_reference():
    # The four callers whose verdicts read only a sign (classify's psd and
    # nsd, sign_case, normality_equivalence's definite part, the root
    # classifier's gap and invertibility tests) give the verdicts of the
    # least and largest eigenvalues LAPACK finds for the same unit-scaled
    # parts, on 640 inputs, d 1-8.
    from normalroots.linalg import _band, _cartesian, _unit_scale
    from normalroots.roots import sign_case
    from normalroots.theoremlab import classify_root_of_selfadjoint, normality_equivalence

    checked = 0
    for kind, T in _sign_test_inputs(640):
        S, e = _unit_scale(T)
        norm = fro(S)
        band = _band(norm, 1e-10)
        A, B = _cartesian(S)
        flags = classify(T)
        if flags.hermitian:
            assert (flags.psd, flags.nsd) == _reference_sign(0.5 * (S + S.conj().T), band)
        for part, X in ((A, A), (B, B)):
            psd, nsd = _reference_sign(part, _band(fro(X), 1e-10))
            try:
                got = sign_case(X)
            except IndefiniteError:
                got = None
            assert got == ("nonneg" if psd else "nonpos" if nsd else None)
        definite = [any(_reference_sign(P, band)) for P in (A, B)]
        applicable = "re" if definite[0] else "im" if definite[1] else None
        assert normality_equivalence(T).applicable == applicable
        C = T @ T
        C = 0.5 * (C + C.conj().T)
        try:
            v = classify_root_of_selfadjoint(T, C)
        except LinalgError:
            continue
        gap_band = _band(2.0 * norm, 1e-10)
        expected = ("inconclusive", "none", True)
        for case, evidence, tested, vanishing in (
            ("selfadjoint_invertible", "spectra_disjoint_re", A, B),
            ("skew_invertible", "spectra_disjoint_im", B, A),
        ):
            if 4.0 * fro(tested) <= gap_band:
                continue
            lam = np.linalg.eigvalsh(tested)
            if np.abs(np.add.outer(lam, lam)).min() > gap_band:
                residual = fro(vanishing)
                ok = residual <= _band(norm, 1e-9) and np.abs(lam).min() - residual > band
                expected = (case, evidence, bool(ok))
                break
        assert (v.case, v.evidence, v.violation is None) == expected
        checked += 1
    assert checked >= 500


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(structural=0.0)
    with pytest.raises(ValueError):
        Tolerances(residual=-1.0)
    for name in ("structural", "residual"):
        with pytest.raises(ValueError, match="strictly positive"):
            Tolerances(**{name: float("inf")})
