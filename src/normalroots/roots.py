"""Constructive roots of normal matrices.

Three constructions, plus a spectral oracle:

* sqrt_signdef -- explicit normal square root A +- iB of N = C + iD when
  the imaginary part D is sign-definite, A and B the psd roots of
  (|N| +- C)/2, computed from S = A + B = (|N| +- D)^{1/2} and A - B =
  S^+ C so that nothing cancels: two vector eigensolves.  Only |N|'s runs
  Jacobi from V = I; S's starts from |N|'s eigenbasis W, on which
  |N| +- D is diagonal but for D's blocks on repeated eigenvalues of |N|.
* root_pow2n   -- 2^n-th root by iterating sqrt_signdef; every intermediate
  has a sign-definite imaginary part by construction, and |N| is factorized
  once for the chain: n + 1 vector eigensolves, each S solve from W.
* nth_root     -- nth root of any normal N via the commuting polar form,
  |N|^{1/n} e^{i(A + 2k pi I)/n}, one root per branch integer k.
* spectral_sqrt -- principal square root applied eigenvalue-wise; serves as
  an independent oracle for sqrt_signdef.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    IndefiniteError,
    LinalgError,
    Tolerances,
    _adj,
    _band,
    _branch_cut,
    _cartesian,
    _check_hermitian,
    _eigvals,
    _ldexp,
    _noise_floor,
    _psd_eigen,
    _psd_within,
    _spectral_map,
    _unit_scale,
    as_matrix,
    expi,
    fro,
    normal_eigen,
    normality_defect,
    polar_normal,
    psd_root,
    require_normal,
    unitary_log,
)

__all__ = [
    "RootCertificate",
    "sign_case",
    "sqrt_signdef",
    "root_pow2n",
    "nth_root",
    "spectral_sqrt",
    "verify_root",
]


@dataclass(frozen=True)
class RootCertificate:
    """A computed root together with its quality metrics.

    power_residual   = ||R^k - T||_F / max(||T||_F, ||R^k||_F), R = root,
                       T = target, k = order (0 when R^k = T, at most 2)
    normality_defect = ||root* root - root root*||_F / ||root||_F^2 (0 for a
                       zero root), the same for every 2^k root
    branch is the integer k of the nth-root construction (0 otherwise).
    """

    root: np.ndarray
    order: int
    branch: int
    power_residual: float
    normality_defect: float


def verify_root(root, target, order: int) -> RootCertificate:
    """Certificate of root as an order-th root of target, with branch 0.

    Every construction returns this certificate for its own root (nth_root
    with its branch k put in); it serves an externally supplied root alike.
    Out-of-tolerance values are reported, never raised.
    """
    root = as_matrix(root, "root")
    target = as_matrix(target, "target")
    if root.shape != target.shape:
        raise ValueError("root and target dimensions differ")
    if not (isinstance(order, (int, np.integer)) and order >= 1):
        raise ValueError("order must be a positive integer")
    k = int(order)
    # R^k = P 2^p and T = T' 2^t, each peaking in [1/2, 1) (``_scaled_power``,
    # ``_unit_scale``), so no order over- or underflows; the one with the
    # smaller exponent is shifted down onto the other's scale, where entries
    # that flush to 0 lie below 2^-1074 of its peak (a shift past -2 top,
    # top the largest float exponent, flushes every float and is capped
    # there so that numpy's integer exponents stay in range).  2^m R against
    # 2^(mk) T gives the same residual bit for bit.  The divisor is ||R^k||_F,
    # not ||R||_F^k, which exceeds it up to n^((k-1)/2)-fold for a normal R
    # and would pass wrong roots of high order.
    P, p = _scaled_power(root, k)
    T, t = _unit_scale(target)
    if not target.any():
        t = p
    elif not P.any():
        p = t
    m, floor = max(p, t), -2 * (np.finfo(float).maxexp - 1)
    power, T = _ldexp(P, max(p - m, floor)), _ldexp(T, max(t - m, floor))
    gap = fro(power - T)
    return RootCertificate(
        root=root,
        order=k,
        branch=0,
        power_residual=gap / max(fro(T), fro(power)) if gap else 0.0,
        normality_defect=normality_defect(root),
    )


def _scaled_power(M: np.ndarray, k: int) -> tuple[np.ndarray, int]:
    """(P, p) with M^k = P 2^p, by binary powering with every factor and
    product rescaled to peak in [1/2, 1) (``_unit_scale``, exact); the
    exponents are Python integers, so any order k >= 1 stays in range."""
    base, b = _unit_scale(M)
    P, p = None, 0
    while True:
        if k & 1:
            if P is None:
                P, p = base, b
            else:
                P, e = _unit_scale(P @ base)
                p += e + b
        k >>= 1
        if not k:
            return P, p
        base, e = _unit_scale(base @ base)
        b = 2 * b + e


def sign_case(D, tol: Tolerances = DEFAULT_TOL) -> str:
    """Definiteness of a Hermitian matrix: 'nonneg' or 'nonpos'.

    D = 0 counts as nonneg (both square-root branches coincide there).
    Raises IndefiniteError when eigenvalues of both signs exceed the band of
    ||D||_F (``linalg._band``), taken on D / 2^e (``linalg._unit_scale``),
    and NotHermitianError as ``hermitian_eigvals`` does.  Each sign is one
    Cholesky attempt (``linalg._psd_within``); only the IndefiniteError
    takes the eigenvalues it quotes.
    """
    S, e = _check_hermitian(as_matrix(D, "D"), tol, "H")
    return _sign_case(0.5 * (S + _adj(S)), fro(S), e, tol)


def _sign_case(H: np.ndarray, norm: float, e: int, tol: Tolerances) -> str:
    """``sign_case`` of the exactly Hermitian H = Im X, X = N / 2^e, against
    the band of ||X||_F (not of H, noise for Hermitian N): 'nonneg' when
    lambda_min(H) > -band, else 'nonpos' when lambda_max(H) < band, each
    one ``linalg._psd_within`` attempt.  The IndefiniteError quotes the
    extreme eigenvalues of Im N itself, 2^e times those of H."""
    band = _band(norm, tol.structural)
    if _psd_within(H, band):
        return "nonneg"
    if _psd_within(H, band, -1.0):
        return "nonpos"
    lam = _eigvals(H, 0)
    lam_min = float(lam[0])
    lam_max = float(lam[-1])
    raise IndefiniteError(
        f"imaginary part is indefinite: lambda_min={_ldexp(lam_min, e):.3e}, "
        f"lambda_max={_ldexp(lam_max, e):.3e}"
    )


def sqrt_signdef(N, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Normal square root of a normal N whose imaginary part is sign-definite.

    With N = C + iD and s = +1 when D >= 0, -1 when D <= 0, the root is
    A + isB for the commuting psd A = ((|N|+C)/2)^{1/2}, B = ((|N|-C)/2)^{1/2}.
    It is built without forming |N| -+ C, whose small eigenvalues are
    cancellation: S = A + B = (|N| + sD)^{1/2} has eigenvalues (|z| +
    |Im z|)^{1/2}, A - B = S^+ C, so A = (S + S^+ C)/2 and B = (S - S^+ C)/2.
    Two vector eigensolves (|N| and S, never N itself, so the construction
    stays independent of ``spectral_sqrt``), all on N / 4^j
    (``linalg._unit_scale``) and scaled back by 2^j.  The |N| solve runs
    Jacobi from V = I; the S solve starts from |N|'s eigenbasis W, where D,
    which commutes with |N|, is diagonal up to rounding outside the blocks
    of repeated eigenvalues of |N| (``_signdef_chain``).
    """
    return _signdef_chain(N, 1, tol)[1]


def root_pow2n(N, n: int, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Root of order 2^n by n sign-definite square roots (``sqrt_signdef``).

    Each intermediate root R has imaginary part +-B, sign-definite by
    construction; every stage re-checks normality and the sign case rather
    than assuming them.  R is normal with R*R = |N|, so |R| = |N|^{1/2}:
    |N| is factorized once, from V = I, and the chain makes n + 1 vector
    eigensolves, each stage's S solve starting from |N|'s eigenbasis.
    """
    return _signdef_chain(N, n, tol)[1]


def _signdef_chain(N, n, tol: Tolerances) -> tuple[str, RootCertificate]:
    """The sign case of N and the certificate of its 2^n-th root, by n
    square roots of ``sqrt_signdef``.

    Stage j normalises its input R_j (R_0 = N) to X = R_j / 4^t
    (``linalg._unit_scale``) and scales the square root of X back by 2^t.
    |X| = W diag(sigma) W*: the first stage factorizes it, and each later
    one takes the square root of the last sigma times the power of two
    between the two scales, since |R_{j+1}| = |R_j|^{1/2}.  Each S solve
    starts from W: Im X commutes with |X|, so S^2 = |X| + s Im X is solved
    as diag(sigma) + s W* Im X W, diagonal up to rounding but for Im X's
    blocks on repeated sigma, and its vectors U' give U = W U'.  (Jacobi
    itself starts every solve from V = I; the basis W is in the matrix.)
    S^+ counts the eigenvalues of S^2 at or below ``linalg._noise_floor``
    as 0: there z = 0 up to rounding, and so is C.
    """
    N = as_matrix(N, "N")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    current = N
    for stage in range(int(n)):
        X, e = _unit_scale(current, step=2)
        require_normal(X, tol, "N")
        # X is unit-scaled, so its parts are Cartesian parts of a unit-scaled
        # matrix, exactly Hermitian, as ``_sign_case`` takes them.
        re, im = _cartesian(X)
        sign = _sign_case(im, fro(X), e, tol)
        if stage == 0:
            case = sign
            absx = _psd_eigen(_adj(X) @ X, tol)
            W, sigma = absx.vectors, np.sqrt(absx.eigenvalues)
        else:
            sigma = _ldexp(np.sqrt(sigma), half - e)
        s = 1.0 if sign == "nonneg" else -1.0
        eig = _psd_eigen(np.diag(sigma) + s * (_adj(W) @ im @ W), tol)
        U, tau = W @ eig.vectors, eig.eigenvalues
        root_tau = np.sqrt(tau)
        inv = np.divide(1.0, root_tau, out=np.zeros_like(tau), where=tau > _noise_floor(tau))
        # On S's eigenbasis: A + B = S, and A - B = S^+ C made Hermitian
        # (S^+ and C commute).
        plus = np.diag(root_tau)
        minus = 0.5 * (inv[:, None] + inv) * (_adj(U) @ re @ U)
        root = U @ (0.5 * (plus + minus) + 0.5j * s * (plus - minus)) @ _adj(U)
        half = e // 2
        current = _ldexp(root, half)
    return case, verify_root(current, N, 2 ** int(n))


def nth_root(N, n: int, k: int = 0, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Branch-k nth root |N|^{1/n} e^{i(A + 2k pi I)/n} of a normal matrix.

    (U, P) is the commuting polar form of N and A = -i log U is Hermitian
    with spectrum in (-pi, pi].  On the branch cut arg = +pi: an eigenvalue
    of N on the negative real axis (to within rounding) gives e^{i pi/n} on
    branch 0, as ``spectral_sqrt`` does for n = 2.  Any integer k is
    accepted and reduced modulo n exactly (the certificate keeps k), so k
    and k + mn give the same root for every integer m; an n past the float
    range (about 1.8e308) raises LinalgError.  The root of N / 2^(nj)
    (``linalg._unit_scale``) is scaled back by 2^j.
    """
    N = as_matrix(N, "N")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not isinstance(k, (int, np.integer)):
        raise ValueError("branch k must be an integer")
    try:
        float(n)  # 1/n and 2 pi k / n take n as a float
    except OverflowError:
        raise LinalgError(f"n of {len(str(n))} digits is too large: not a finite float") from None
    S, e = _unit_scale(N, step=int(n))
    form = polar_normal(S, tol)
    A = unitary_log(form.unitary, tol)
    shift = (A + 2.0 * np.pi * (int(k) % int(n)) * np.eye(N.shape[0])) / int(n)
    root = psd_root(form.positive, int(n), tol) @ expi(shift, tol)
    return replace(verify_root(_ldexp(root, e // int(n)), N, n), branch=int(k))


def spectral_sqrt(N, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Square root by the principal scalar branch on the spectrum.

    Eigenvalue-wise sqrt with arg of the result in (-pi/2, pi/2]; the branch
    cut rule (``linalg._branch_cut``) puts eigenvalues left of 0 within
    structural * |mu| + 16 n eps max|mu| of the real axis on it, and sends
    them to +i sqrt|mu|.  It is taken on N / 4^j and scaled back by 2^j.
    """
    N = as_matrix(N, "N")
    S, e = _unit_scale(N, step=2)
    mu, V = normal_eigen(S, tol)
    root = _spectral_map(V, np.sqrt(_branch_cut(mu, tol)))
    return verify_root(_ldexp(root, e // 2), N, 2)
