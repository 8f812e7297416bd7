"""Constructive roots of normal matrices.

Three constructions, plus a spectral oracle:

* sqrt_signdef -- explicit normal square root of N = C + iD when the
  imaginary part D is sign-definite, built from psd roots of (|N| +- C)/2.
* root_pow2n   -- 2^n-th root by iterating sqrt_signdef; every intermediate
  has a sign-definite imaginary part by construction.
* nth_root     -- nth root of any normal N via the commuting polar form,
  |N|^{1/n} e^{i(A + 2k pi I)/n}, one root per branch integer k.
* spectral_sqrt -- principal square root applied eigenvalue-wise; serves as
  an independent oracle for sqrt_signdef.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    IndefiniteError,
    NotNormalError,
    Tolerances,
    _branch_cut,
    _eigvals,
    _ldexp,
    _not_normal,
    _spectral_map,
    _unit_scale,
    abs_op,
    as_matrix,
    cartesian_parts,
    expi,
    fro,
    hermitian_eigvals,
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

    power_residual   = ||root^order - target||_F / (1 + ||target||_F)
    normality_defect = ||root* root - root root*||_F / (1 + ||root||_F^2)
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
    power = np.linalg.matrix_power(root, int(order))
    return RootCertificate(
        root=root,
        order=int(order),
        branch=0,
        power_residual=fro(power - target) / (1.0 + fro(target)),
        normality_defect=normality_defect(root),
    )


def sign_case(D, tol: Tolerances = DEFAULT_TOL) -> str:
    """Definiteness of a Hermitian matrix: 'nonneg' or 'nonpos'.

    D ~ 0 counts as nonneg (both square-root branches coincide there).
    Raises IndefiniteError when eigenvalues of both signs exceed the band.
    """
    D = as_matrix(D, "D")
    return _sign_case(D, hermitian_eigvals(D, tol), 0, tol)


def _sign_case(D: np.ndarray, lam: np.ndarray, e: int, tol: Tolerances) -> str:
    """``sign_case`` of D = Im(N / 2^e), decided on D and its eigenvalues lam
    (ascending); the IndefiniteError quotes the eigenvalues of Im N itself,
    2^e times those of D."""
    band = tol.structural * (1.0 + fro(D))
    lam_min = float(lam[0])
    lam_max = float(lam[-1])
    if lam_min >= -band:
        return "nonneg"
    if lam_max <= band:
        return "nonpos"
    raise IndefiniteError(
        f"imaginary part is indefinite: lambda_min={_ldexp(lam_min, e):.3e}, "
        f"lambda_max={_ldexp(lam_max, e):.3e}"
    )


@contextmanager
def _quoting_defect_of(N):
    """Normality is decided on N / 2^e, but normality_defect is not scale
    invariant: a NotNormalError is re-raised with the defect of N itself."""
    try:
        yield
    except NotNormalError:
        raise _not_normal(N, "N") from None


def sqrt_signdef(N, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Normal square root of a normal N whose imaginary part is sign-definite.

    With C = Re N, A = ((|N|+C)/2)^{1/2}, B = ((|N|-C)/2)^{1/2}, the root is
    A + iB when Im N >= 0 and A - iB when Im N <= 0, all taken on
    N / 4^j (``linalg._unit_scale``) and scaled back by 2^j.
    """
    return _signdef_case_and_root(N, tol)[1]


def _signdef_case_and_root(N, tol: Tolerances) -> tuple[str, RootCertificate]:
    """``sqrt_signdef``'s certificate and the sign case its normalised N took."""
    N = as_matrix(N, "N")
    S, e = _unit_scale(N, step=2)
    with _quoting_defect_of(N):
        require_normal(S, tol, "N")
    parts = cartesian_parts(S)
    # Im S is finite and exactly Hermitian, so the unchecked core solves it.
    case = _sign_case(parts.im, _eigvals(parts.im), e, tol)
    absn = abs_op(S, tol)
    A = psd_root(0.5 * (absn + parts.re), 2, tol)
    B = psd_root(0.5 * (absn - parts.re), 2, tol)
    root = A + 1j * B if case == "nonneg" else A - 1j * B
    return case, verify_root(_ldexp(root, e // 2), N, 2)


def root_pow2n(N, n: int, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Root of order 2^n by iterated sign-definite square roots.

    Each intermediate has imaginary part +-((|S|-Re S)/2)^{1/2}, which is
    sign-definite by construction; sqrt_signdef re-checks this at every
    stage rather than assuming it.
    """
    N = as_matrix(N, "N")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    current = N
    for _ in range(int(n)):
        current = sqrt_signdef(current, tol).root
    return verify_root(current, N, 2 ** int(n))


def nth_root(N, n: int, k: int = 0, tol: Tolerances = DEFAULT_TOL) -> RootCertificate:
    """Branch-k nth root |N|^{1/n} e^{i(A + 2k pi I)/n} of a normal matrix.

    (U, P) is the commuting polar form of N and A = -i log U is Hermitian
    with spectrum in (-pi, pi].  On the branch cut arg = +pi: an eigenvalue
    of N on the negative real axis (to within rounding) gives e^{i pi/n} on
    branch 0, as ``spectral_sqrt`` does for n = 2.  Any integer k is
    accepted; k and k + n give the same root up to rounding.  The root of
    N / 2^(nj) (``linalg._unit_scale``) is scaled back by 2^j.
    """
    N = as_matrix(N, "N")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    if not isinstance(k, (int, np.integer)):
        raise ValueError("branch k must be an integer")
    S, e = _unit_scale(N, step=int(n))
    with _quoting_defect_of(N):
        form = polar_normal(S, tol)
    A = unitary_log(form.unitary, tol)
    shift = (A + 2.0 * np.pi * int(k) * np.eye(N.shape[0])) / int(n)
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
    with _quoting_defect_of(N):
        mu, V = normal_eigen(S, tol)
    root = _spectral_map(V, np.sqrt(_branch_cut(mu, tol)))
    return verify_root(_ldexp(root, e // 2), N, 2)
