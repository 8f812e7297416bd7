"""Dense complex linear algebra primitives.

Everything downstream (root construction, theorem checking, the CLI) works on
plain numpy complex arrays.  This module owns the spectral machinery: three
eigensolvers for complex Hermitian matrices, one of which also diagonalizes
normal matrices, psd nth roots, polar decomposition of normal matrices, and
the unitary exponential/logarithm pair with the principal branch fixed to
(-pi, pi].

Callers pass matrices Hermitian (or, to ``normal_eigen``, normal) within
tolerance.  Each public eigensolver tests and scales them in one pass,
``_unit_hermitian`` (which also symmetrises) or ``require_normal``, after
``as_matrix`` (the stacked engine checks shape and finiteness itself).
Internal callers that have already scaled and tested their matrix hand it,
symmetrised, to the cores ``_jacobi`` and ``_eigvals``: one scaling pass
and at most one Hermitian test per solve.  A caller that holds the exactly
Hermitian Cartesian parts of its own unit-scaled matrix hands each to
``_eigvals(part, 0)``, whose e = 0 hand-off means no scaling pass and no
scaling back at all (only a part more than 2^64 below its matrix is
rescaled, on its own), or, when its verdict reads only a sign, to
``_psd_within``.  Solve counts are read there.

- ``_psd_within(P, band)`` answers lambda_min(P) > -band by one Cholesky
  attempt on P + band I (LAPACK potrf), with no eigenvalue at all.  Every
  verdict that reads only a sign takes it: the psd and nsd flags of
  ``classify``, ``roots.sign_case`` (so the sign test of each
  ``roots.sqrt_signdef`` stage), the definite-part test of
  ``theoremlab.normality_equivalence``, and the gap and invertibility tests
  of the root classifier on a definite part.
- ``hermitian_eigvals`` returns the eigenvalues only: Householder
  tridiagonalization, then implicit QL on Python floats, each 2 x 2 block
  that splits off finished in closed form (LAPACK's dlae2), in the core
  ``_eigvals``.  Every caller that reports a value and discards the
  vectors uses it: ``operator_norm`` (and the CLI ``volterra`` command)
  and ``theoremlab.spectra_disjoint``; the margins of
  ``theoremlab.check_zero_square``, the root classifier's indefinite
  parts and the eigenvalues ``roots.sign_case`` quotes in its
  IndefiniteError come from the core on the exactly Hermitian Cartesian
  parts their callers form.  The reduction runs on
  Python numbers up to n = ``_SCALAR_REDUCTION_MAX_N`` (8; the two break
  even near n = 10) and as a numpy loop above.  QL takes about two O(n)
  iterations per eigenvalue, data-dependent and capped (ConvergenceError),
  against O(n^2) rotations per Jacobi sweep.
- ``hermitian_eigen`` and ``normal_eigen`` run the serial engine, cyclic
  Jacobi on one matrix that rotates its Cartesian parts Re A and Im A
  jointly (``_cyclic_sweep``), and return the vectors too; so do ``expi``,
  ``_psd_eigen`` (``psd_root``, ``abs_op``, ``roots.sqrt_signdef``), the
  Hermitian case of the numerical-range test, and through ``normal_eigen``
  ``polar_normal``, ``unitary_log`` and ``roots.spectral_sqrt``.  Jacobi's
  vectors are orthogonal to working precision even inside clusters of
  equal eigenvalues, which the constructions rely on (inverse iteration on
  the tridiagonal form has not yet matched that).
- ``hermitian_eigen_batch`` runs round-robin Jacobi (``_round_robin_sweep``)
  on a stack, rotating n/2 disjoint pairs of every member at once, as do
  the Hermitian Sylvester solve (both coefficients in one call) and the
  angle search of the numerical-range test.  On one matrix it is slower
  than the serial loop below n = 8 and faster from there.

Every power-of-two exponent in the package comes from ``_unit_scale``, and
all three eigensolvers work on its exactly scaled matrix A, so 2^k H gives
exactly 2^k times the eigenvalues of H.  Every structural and residual
verdict in the package is one relative rule on the unit-scaled input,
``_band``, so 2^k X gets the verdicts of X.

The two Jacobi engines differ in the order of their rotations, in the
level below which they leave a pair alone, and in the serial engine's
second stop rule (each sweep's docstring); on Hermitian input both rotate
by |theta| <= pi/4.  Everything else is one contract, ``_jacobi``, for a
matrix and for each member of a stack alike.  Each member is normalised on
its own, A = H / 2^e, starts from V = I and stops once its off-diagonal
norm is at most threshold = ``_JACOBI_TOL`` * ||A||_F, a relative rule with
no absolute floor (Demmel & Veselic 1992).  After ``_MAX_SWEEPS`` sweeps a
ConvergenceError quotes the norms in H's units, with "member b" for a stack.
Eigenvalues come back ascending (a stable sort; for ``normal_eigen`` by
real part, then imaginary part) and times 2^e, with the columns of V
permuted to match: a stack member gets bit for bit its result alone.

Every matrix function here (``psd_root``, ``expi``, ``unitary_log``,
``polar_normal``) and ``roots.spectral_sqrt`` evaluates a scalar function on
a spectrum, f(N) = V f(mu) V*, through one helper, ``_spectral_map``, which
also makes the result Hermitian when f is real.  The two that depend on the
argument of an eigenvalue, ``unitary_log`` and ``roots.spectral_sqrt``,
share one branch-cut rule, ``_branch_cut``: an eigenvalue with Re mu < 0
within structural * |mu| + 16 n eps max|mu| of the real axis is put on it
(imaginary part +0), so a negative real eigenvalue has arg = +pi whichever
side rounding left it on.  The term 16 n eps max|mu| is the rounding noise
of the eigenvalues (``_noise_floor``); ``polar_normal`` gives phase 1 only
to eigenvalues below it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from operator import mul

import numpy as np

__all__ = [
    "Tolerances",
    "DEFAULT_TOL",
    "LinalgError",
    "NotHermitianError",
    "NotNormalError",
    "NotUnitaryError",
    "IndefiniteError",
    "ConvergenceError",
    "HermitianEigen",
    "CartesianPair",
    "PolarForm",
    "MatrixFlags",
    "as_matrix",
    "fro",
    "cartesian_parts",
    "recompose",
    "hermitian_eigen",
    "hermitian_eigen_batch",
    "hermitian_eigvals",
    "psd_root",
    "abs_op",
    "normal_eigen",
    "expi",
    "unitary_log",
    "polar_normal",
    "operator_norm",
    "classify",
]


class LinalgError(ValueError):
    """A precondition on a matrix argument was violated."""


class NotHermitianError(LinalgError):
    pass


class NotNormalError(LinalgError):
    pass


class NotUnitaryError(LinalgError):
    pass


class IndefiniteError(LinalgError):
    """Input has eigenvalues of both signs where a sign-definite matrix was required."""


class ConvergenceError(RuntimeError):
    """A Jacobi sweep limit or the QL iteration cap was reached on pathological input."""


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances: a defect that scales like X^k is negligible when
    at most tol ||X||_F^k (``_band``).

    structural: membership tests and spectral gaps (unitary: structural * n).
    residual:   reconstruction and root-power residuals.
    The Jacobi stop rule is relative and fixed (``_JACOBI_TOL``).
    """

    structural: float = 1e-10
    residual: float = 1e-9

    def __post_init__(self) -> None:
        for name in ("structural", "residual"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"tolerance {name!r} must be finite and strictly positive")


DEFAULT_TOL = Tolerances()


@dataclass(frozen=True)
class HermitianEigen:
    """Eigenvalues (real, ascending) and a unitary eigenvector matrix; for a
    stack, eigenvalues (B, n) and vectors (B, n, n), one row/matrix per member.
    Hermitian only: ``normal_eigen`` returns a plain pair (mu, V)."""

    eigenvalues: np.ndarray
    vectors: np.ndarray


@dataclass(frozen=True)
class CartesianPair:
    """Hermitian parts (re, im) with T = re + 1j*im."""

    re: np.ndarray
    im: np.ndarray


@dataclass(frozen=True)
class PolarForm:
    """Commuting polar factors of a normal matrix: unitary @ positive."""

    unitary: np.ndarray
    positive: np.ndarray


@dataclass(frozen=True)
class MatrixFlags:
    hermitian: bool
    normal: bool
    psd: bool
    nsd: bool
    unitary: bool
    zero: bool


# ``fro`` recomputes a norm below this: entries under 2^-511 square to subnormals.
_FRO_UNDERFLOW = 2.0 ** -500


def fro(M: np.ndarray):
    """Frobenius norm of a matrix (a float), or of each matrix of a stack
    (..., n, n) (an array).

    A norm that overflows on finite entries, or that falls below 2^-500 on a
    nonzero matrix, is recomputed on the matrix scaled by an exact power of
    two, so it is inf only when the true norm is and 0 only for M = 0.
    """
    M = np.asarray(M)
    if M.ndim > 2:
        with np.errstate(over="ignore"):
            norm = np.linalg.norm(M, axis=(-2, -1))
        rescale = (np.isinf(norm) | (norm < _FRO_UNDERFLOW)).any()
    else:
        # vdot takes np.linalg.norm's sum of squares, bit for bit; past
        # 10 000 entries OpenBLAS threads it (a stall of milliseconds under
        # load), so einsum takes it.  Neither warns on overflow.
        x = M.ravel(order="K")
        if x.size > 10_000:
            v = x.view(x.real.dtype) if x.dtype.kind == "c" else x
            norm = math.sqrt(np.einsum("i,i->", v, v))
        elif x.dtype.kind == "c":
            re, im = x.real, x.imag
            norm = math.sqrt(float(np.vdot(re, re)) + float(np.vdot(im, im)))
        else:
            norm = math.sqrt(np.vdot(x, x))
        rescale = norm == math.inf or norm < _FRO_UNDERFLOW
    if rescale and M.any() and np.isfinite(M).all():
        S, e = _unit_scale(M)
        norm = _ldexp(np.linalg.norm(S, axis=(-2, -1)), e)
    return norm


def as_matrix(M, name: str = "matrix") -> np.ndarray:
    """Validate and return a square, finite complex matrix."""
    A = np.asarray(M, dtype=complex)
    if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
        raise LinalgError(f"{name} must be a nonempty square matrix, got shape {A.shape}")
    if not np.isfinite(A).all():  # a complex entry is finite when both parts are
        raise LinalgError(f"{name} contains non-finite entries")
    return A


def _adj(M: np.ndarray) -> np.ndarray:
    """The conjugate transpose of a matrix, or of each member of a stack."""
    return M.conj().swapaxes(-1, -2)


def _ldexp(M, e):
    """M * 2^e, exact, for a real or complex array, or a float (returned as
    a float); inf where it overflows, without a warning."""
    if isinstance(M, float):
        try:
            return math.ldexp(M, int(e))
        except OverflowError:
            return math.copysign(math.inf, M)
    with np.errstate(over="ignore"):
        if np.iscomplexobj(M):
            return np.ldexp(np.ascontiguousarray(M).view(float), e).view(complex)
        return np.ldexp(M, e) if np.ndim(M) else float(np.ldexp(M, e))


def _unit_scale(M: np.ndarray, step: int = 1):
    """(M / 2^e, e), 2^e the power of two just above the largest |Re| or |Im|
    entry of M (e = 0 for zero), or the largest multiple of step at or below
    it, so that M / 2^e peaks at 1/2 or more and a root of order step scales
    back by 2^(e / step); e = 0 where M / 2^e would reach 2^511 (step > 511
    on tiny M).  A stack (..., n, n) gets an integer array, one exponent per
    member.

    The scaling is exact: sums and products of M / 2^e are those of M times
    a power of two, rounding included, except where M's own would overflow
    or underflow, and 2^k M gets exponent e + k.  Every test of ``_band`` is
    taken on M / 2^e, where no power of ||M / 2^e||_F leaves the float range.
    """
    M = np.asarray(M)
    cplx = M.dtype.kind == "c"
    x = np.ascontiguousarray(M).view(float) if cplx else M  # (Re, Im) pairs
    peak = np.abs(x).max(axis=(-2, -1))
    # The same integer arithmetic on a Python int (one matrix) and on an
    # integer array (a stack).
    top = math.frexp(peak)[1] if M.ndim == 2 else np.frexp(peak)[1]
    rem = top % step
    e = (top - rem) * (rem < 512)
    # M / 2^e peaks below 1 (or e = 0), so it cannot overflow.
    S = np.ldexp(x, -e if M.ndim == 2 else -e[..., None, None])
    return (S.view(complex) if cplx else S), e


def _band(norm, rtol: float, k: int = 1):
    """rtol norm^k: every structural and residual verdict asks whether a
    defect that scales like X^k is at most this, norm = ||X||_F of the matrix
    X the caller passed (never a part derived from it), both taken on the
    unit-scaled X (``_unit_scale``).  No absolute floor: X = 0 is exact."""
    return rtol * norm ** k


def _normality(S: np.ndarray) -> tuple[float, float]:
    """(||S*S - SS*||_F, ||S||_F) for S already unit-scaled (``_unit_scale``)."""
    return fro(_adj(S) @ S - S @ _adj(S)), fro(S)


def normality_defect(M: np.ndarray) -> float:
    """Relative commutation defect ||M*M - MM*||_F / ||M||_F^2 (0 for M = 0),
    the same for every 2^k M."""
    gap, norm = _normality(_unit_scale(np.asarray(M, dtype=complex))[0])
    return gap / norm**2 if gap else 0.0


def is_hermitian(M: np.ndarray, tol: Tolerances = DEFAULT_TOL):
    """Whether ||M - M*||_F is within the band of ||M||_F, for a matrix (a
    bool) or for each member of a stack (an array)."""
    return _hermitian_test(_unit_scale(np.asarray(M))[0], tol)


def _hermitian_test(S: np.ndarray, tol: Tolerances):
    """``is_hermitian`` on S = M / 2^e, already unit-scaled."""
    return fro(S - _adj(S)) <= _band(fro(S), tol.structural)


def is_normal(M: np.ndarray, tol: Tolerances = DEFAULT_TOL) -> bool:
    gap, norm = _normality(_unit_scale(np.asarray(M, dtype=complex))[0])
    return gap <= _band(norm, tol.structural, 2)


def _is_unitary(M: np.ndarray, tol: Tolerances) -> bool:
    """||M*M - I||_F <= structural * n.  M*M overflows only when M is far
    from unitary; the inf (or nan) that gives then fails the test, silently."""
    n = M.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        return bool(fro(_adj(M) @ M - np.eye(n)) <= tol.structural * n)


def require_hermitian(M: np.ndarray, tol: Tolerances, name: str = "matrix") -> np.ndarray:
    """0.5 (M + M*), for a matrix or for each member of a stack (B, n, n),
    once each passes ``is_hermitian``; else NotHermitianError names the
    first member that fails, as name[b], with its defect ||M - M*||_F."""
    _check_hermitian(M, tol, name)
    return 0.5 * (M + _adj(M))


def _check_hermitian(M: np.ndarray, tol: Tolerances, name: str):
    """(S, e), S = M / 2^e (``_unit_scale``), once S passes ``is_hermitian``."""
    S, e = _unit_scale(M)
    bad = np.flatnonzero(np.logical_not(_hermitian_test(S, tol)))
    if bad.size:
        b = bad[0]
        label, member = (f"{name}[{b}]", M[b]) if M.ndim > 2 else (name, M)
        raise NotHermitianError(f"{label} is not Hermitian: defect {fro(member - _adj(member)):.3e}")
    return S, e


def _unit_hermitian(M: np.ndarray, tol: Tolerances, name: str):
    """(0.5 (S + S*), e) for ``_check_hermitian``'s S: the eigensolvers take
    both as they are, so the check's scaling pass is their only one."""
    S, e = _check_hermitian(M, tol, name)
    return 0.5 * (S + _adj(S)), e


def require_normal(M: np.ndarray, tol: Tolerances, name: str = "matrix"):
    """(S, e), S = M / 2^e (``_unit_scale``), once S passes ``is_normal``;
    else NotNormalError.  ``normal_eigen`` rotates the S it tested."""
    S, e = _unit_scale(M)
    gap, norm = _normality(S)
    if gap > _band(norm, tol.structural, 2):
        raise NotNormalError(f"{name} is not normal: defect {gap / norm**2:.3e}")
    return S, e


def cartesian_parts(T) -> CartesianPair:
    """Split T into Hermitian re/im parts: re = (T+T*)/2, im = (T-T*)/(2i).

    Both are taken on T / 2^e (``_unit_scale``), where T + T* cannot
    overflow, and scaled back exactly: 2^k T gives exactly 2^k times the
    parts of T, and entries near the float limit give finite parts."""
    S, e = _unit_scale(as_matrix(T, "T"))
    return CartesianPair(*(_ldexp(part, e) for part in _cartesian(S)))


def _cartesian(T: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(Re T, Im T), each exactly Hermitian, of a T that passed ``as_matrix``."""
    return 0.5 * (T + _adj(T)), _im_part(T)


def _im_part(T: np.ndarray) -> np.ndarray:
    """Im T alone, for callers that read nothing else (``_cartesian``)."""
    return (T - _adj(T)) / 2j


def recompose(pair: CartesianPair, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Inverse of cartesian_parts; rejects non-Hermitian parts."""
    re = as_matrix(pair.re, "re part")
    im = as_matrix(pair.im, "im part")
    _check_hermitian(re, tol, "re part")
    _check_hermitian(im, tol, "im part")
    return re + 1j * im


# Jacobi's relative stopping threshold (about 2 eps), and its sweep limit.
_JACOBI_TOL = 4e-16
_MAX_SWEEPS = 64
_EPS = float(np.finfo(float).eps)


def _jacobi(A: np.ndarray, e, sweep) -> tuple[np.ndarray, np.ndarray]:
    """The Jacobi contract of the module docstring on a checked, scaled
    matrix or stack A = M / 2^e, rotated in place: (values, vectors), the
    values complex.  sweep(A, V, norm, active) rotates the members listed in
    active once over every pair, norm = ||A||_F; a true return ends it."""
    n = A.shape[-1]
    eye = np.eye(n, dtype=complex)
    V = np.empty(A.shape, dtype=complex)
    V[...] = eye
    offdiag = 1.0 - eye  # 0 on the diagonal, 1 off it: A * offdiag is exact
    norm = fro(A)
    threshold = _JACOBI_TOL * norm
    for _ in range(_MAX_SWEEPS):
        active = np.flatnonzero(fro(A * offdiag) > threshold)
        if active.size == 0 or sweep(A, V, norm, active):
            break
    else:
        off = fro(A * offdiag)
        b = int(np.argmax(off - threshold))
        off_b, threshold_b, e_b = (np.ravel(x)[b] for x in (off, threshold, e))
        if off_b > threshold_b:
            member = f"member {b} " if A.ndim > 2 else ""
            raise ConvergenceError(
                f"Jacobi did not converge in {_MAX_SWEEPS} sweeps: {member}off-diagonal "
                f"norm {_ldexp(off_b, e_b):.3e} > threshold {_ldexp(threshold_b, e_b):.3e}"
            )
    # A stack's (B, n) values meet its (B,) exponents as a column.
    lam = _ldexp(np.diagonal(A, axis1=-2, axis2=-1), e if A.ndim == 2 else e[:, None])
    order = np.argsort(lam, kind="stable")
    if A.ndim == 2:
        return lam[order], V[:, order]
    return np.take_along_axis(lam, order, axis=1), np.take_along_axis(V, order[:, None, :], axis=2)


def hermitian_eigen(H, tol: Tolerances = DEFAULT_TOL) -> HermitianEigen:
    """Full eigendecomposition of a complex Hermitian matrix by the serial
    engine (``_cyclic_sweep``), under the Jacobi contract of the module
    docstring."""
    lam, V = _jacobi(*_unit_hermitian(as_matrix(H, "H"), tol, "H"), _cyclic_sweep)
    return HermitianEigen(eigenvalues=lam.real, vectors=V)


def _cyclic_sweep(A: np.ndarray, V: np.ndarray, norm: float, active) -> bool:
    """One cyclic sweep of the serial engine on the single matrix A, pairs
    p < q row by row; true when no rotation had |s| > 4 eps, which ends the
    loop: a converged normal matrix's off-diagonal rests at rounding noise,
    up to about 3e-15 ||A||_F at n = 64, above the off-norm stop.

    Each rotation acts on both Cartesian parts X = Re A and Y = Im A: it
    turns h_X = (x_pp - x_qq, 2 Re x_pq, 2 Im x_pq), and h_Y alike, by one
    rotation of R^3, taking to the first axis the unit w = (x, y, z), x >= 0,
    that maximises (h_X . w)^2 + (h_Y . w)^2: H u for H = [h_X h_Y] and u
    the top eigenvector of the 2 x 2 H^T H.  Then c = sqrt((1 + x)/2) and
    s = (y - iz)/(2c) (Cardoso & Souloumiac 1996).  For Hermitian A, Y = 0
    up to rounding, and this zeroes a_pq with |theta| <= pi/4.  A pair whose
    x_pq and y_pq are both at most eps ||A||_F in modulus is left alone.
    The scalar work is written out on Python numbers read with ``item``, and
    only the O(n) vector updates touch numpy: numpy scalars or generator
    expressions cost more than those updates at every n solved serially.
    """
    n = A.shape[0]
    item = A.item
    skip = 4.0 * (_EPS * norm) ** 2  # bound on |2 x_pq|^2 and |2 y_pq|^2
    small = True
    for p in range(n - 1):
        for q in range(p + 1, n):
            apq = item(p, q)
            aqp = item(q, p)
            # h_X = (xd, xr, xi) and h_Y = (yd, yr, yi).
            xr = apq.real + aqp.real
            xi = apq.imag - aqp.imag
            yr = apq.imag + aqp.imag
            yi = aqp.real - apq.real
            if xr * xr + xi * xi <= skip and yr * yr + yi * yi <= skip:
                continue
            d = item(p, p) - item(q, q)
            xd, yd = d.real, d.imag
            # u = (u0, u1) unnormalised; H^T H = g I takes u = (1, 0).
            gxy = 2.0 * (xd * yd + xr * yr + xi * yi)
            t = (xd * xd + xr * xr + xi * xi) - (yd * yd + yr * yr + yi * yi)
            r = math.hypot(t, gxy)
            u0, u1 = ((t + r) or 1.0, gxy) if t >= 0.0 else (gxy, r - t)
            wx = u0 * xd + u1 * yd
            wy = u0 * xr + u1 * yr
            wz = u0 * xi + u1 * yi
            k = math.copysign(1.0 / math.hypot(wx, wy, wz), wx)  # x >= 0
            c = math.sqrt(0.5 + 0.5 * (wx * k))
            s = complex(wy, -wz) * (0.5 * k / c)
            small = small and abs(s) <= 4.0 * _EPS
            sc = s.conjugate()
            # The second vector of each pair is read before it is overwritten.
            Ap = A[:, p].copy()
            Aq = A[:, q]
            A[:, p] = c * Ap + s * Aq
            A[:, q] = c * Aq - sc * Ap
            Rp = A[p, :].copy()
            Rq = A[q, :]
            A[p, :] = c * Rp + sc * Rq
            A[q, :] = c * Rq - s * Rp
            Vp = V[:, p].copy()
            Vq = V[:, q]
            V[:, p] = c * Vp + s * Vq
            V[:, q] = c * Vq - sc * Vp
    return small


@functools.cache
def _round_robin(n: int) -> list:
    """Jacobi pair schedule for n > 1: n - 1 rounds (n rounds for odd n) of
    disjoint pairs (p, q), p < q, covering every pair once.

    Circle method: player 0 stays put while the others rotate one seat per
    round.  Odd n adds a dummy player n; its partner sits the round out.
    Cached, so every sweep of every call shares one schedule: read it only.
    """
    m = n + n % 2
    seats = list(range(m))
    rounds = []
    for _ in range(m - 1):
        pairs = [
            (min(a, b), max(a, b))
            for a, b in zip(seats[: m // 2], reversed(seats[m // 2:]))
            if b < n and a < n
        ]
        p, q = (np.array(ix, dtype=np.intp) for ix in zip(*pairs))
        rounds.append((p, q))
        seats = [seats[0], seats[-1]] + seats[1:-1]
    return rounds


def hermitian_eigen_batch(H, tol: Tolerances = DEFAULT_TOL) -> HermitianEigen:
    """Eigendecompositions of a stack of complex Hermitian matrices (B, n, n),
    under the Jacobi contract of the module docstring: eigenvalues (B, n) and
    vectors (B, n, n), one row and one matrix per member.

    Round-robin ordering (Brent & Luk 1985): each round rotates n/2 disjoint
    pairs of every unconverged member at once.  Each rotation zeroes a_pq
    with |theta| <= pi/4, as the serial engine does on Hermitian input; the
    other zeroing angle, in (0, pi/2), stalls under a parallel ordering.
    """
    A = np.asarray(H, dtype=complex)
    if A.ndim != 3 or A.shape[1] != A.shape[2] or 0 in A.shape:
        raise LinalgError(
            f"H must be a nonempty stack of nonempty square matrices, got shape {A.shape}"
        )
    if not np.isfinite(A).all():
        raise LinalgError("H contains non-finite entries")
    lam, V = _jacobi(*_unit_hermitian(A, tol, "H"), _round_robin_sweep)
    return HermitianEigen(eigenvalues=lam.real, vectors=V)


def _round_robin_sweep(A: np.ndarray, V: np.ndarray, norm: np.ndarray, active) -> None:
    """One round-robin sweep of ``hermitian_eigen_batch`` over the members of
    the stack A listed in active; converged members are left as they are.
    Entries of modulus at most _JACOBI_TOL ||A||_F / (4n) are skipped."""
    skip = _JACOBI_TOL * norm / (4.0 * A.shape[-1])
    Ab, Vb, skip_b = A[active], V[active], skip[active, None]
    for p, q in _round_robin(A.shape[-1]):
        apq = Ab[:, p, q]
        mag = np.abs(apq)
        d = (Ab[:, q, q] - Ab[:, p, p]).real
        rot = mag > skip_b
        # A skipped pair gets theta = 0, an exact identity rotation.
        theta = 0.5 * np.arctan2(np.copysign(2.0, d) * np.where(rot, mag, 0.0), np.abs(d))
        c = np.cos(theta)
        su = np.sin(theta) * apq / np.where(rot, mag, 1.0)
        suc = su.conj()
        cc, su_c, suc_c = c[:, None, :], su[:, None, :], suc[:, None, :]
        Ap, Aq = Ab[:, :, p], Ab[:, :, q]
        Ab[:, :, p] = cc * Ap - suc_c * Aq
        Ab[:, :, q] = su_c * Ap + cc * Aq
        Rp, Rq = Ab[:, p, :], Ab[:, q, :]
        Ab[:, p, :] = c[..., None] * Rp - su[..., None] * Rq
        Ab[:, q, :] = suc[..., None] * Rp + c[..., None] * Rq
        Ab[:, p, q] = np.where(rot, 0.0, Ab[:, p, q])
        Ab[:, q, p] = np.where(rot, 0.0, Ab[:, q, p])
        Ab[:, p, p] = Ab[:, p, p].real
        Ab[:, q, q] = Ab[:, q, q].real
        Vp, Vq = Vb[:, :, p], Vb[:, :, q]
        Vb[:, :, p] = cc * Vp - suc_c * Vq
        Vb[:, :, q] = su_c * Vp + cc * Vq
    A[active], V[active] = Ab, Vb


def _tridiagonal(A: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Diagonal d and off-diagonal moduli |e| of a real symmetric tridiagonal
    matrix unitarily similar to the Hermitian A (real or complex).

    Householder reflections I - tau v v* with the rank-2 trailing update of
    LAPACK's zhetrd: p = tau A v, w = p - (tau/2)(v* p) v, A -= v w* + w v*,
    the update as one (m x 2)(2 x m) product [v w][w v]*.  The phases of
    the off-diagonal entries are dropped, which a diagonal unitary
    similarity does exactly.  The matrix-vector product goes
    through einsum, not BLAS: at these sizes a multithreaded gemv costs far
    more than it saves once another process keeps the other cores busy.
    """
    A = A.copy()
    n = A.shape[0]
    d = np.empty(n)
    e = np.zeros(n - 1)
    for k in range(n - 2):
        x = A[k + 1:, k]
        norm = math.sqrt(np.vdot(x, x).real)
        d[k], e[k] = A[k, k].real, norm
        if norm == 0.0:
            continue
        x0 = x[0]
        a0 = abs(x0)
        v = x.copy()
        v[0] += (x0 / a0 if a0 else 1.0) * norm  # |v_0| = |x_0| + norm, no cancellation
        tau = 1.0 / (norm * (norm + a0))  # 2 / (v* v)
        B = A[k + 1:, k + 1:]
        p = tau * np.einsum("ij,j->i", B, v)
        w = p - (0.5 * tau * np.vdot(v, p).real) * v
        B -= np.stack((v, w), axis=1) @ np.stack((w, v)).conj()
    if n > 1:
        e[n - 2] = abs(A[n - 1, n - 2])
        d[n - 2] = A[n - 2, n - 2].real
    d[n - 1] = A[n - 1, n - 1].real
    return d, e


def _tridiagonal_scalar(A: list) -> tuple[list, list]:
    """``_tridiagonal`` on a nested list of Python floats or complex numbers
    (``tolist()`` of a real or complex array): the same reflections and
    update, as lists d and |e|.

    Each step keeps only the trailing block, and conjugates nothing when
    real.  Up to _SCALAR_REDUCTION_MAX_N this beats the numpy loop, whose
    dozen numpy calls per column cost more than their arithmetic.
    """
    n = len(A)
    real = not isinstance(A[0][0], complex)
    d, e = [], []
    for _ in range(n - 2):
        x = [row[0] for row in A[1:]]
        d.append(A[0][0].real)
        B = [row[1:] for row in A[1:]]
        norm = math.sqrt(sum(map(mul, x, x if real else [z.conjugate() for z in x])).real)
        e.append(norm)
        if norm == 0.0:
            A = B
            continue
        x0 = x[0]
        a0 = abs(x0)
        v = x  # x is not read again
        v[0] = x0 + (x0 / a0 if a0 else 1.0) * norm
        tau = 1.0 / (norm * (norm + a0))
        p = [tau * sum(map(mul, row, v)) for row in B]
        vc = v if real else [z.conjugate() for z in v]
        half = 0.5 * tau * sum(map(mul, vc, p)).real
        w = [pi - half * vi for pi, vi in zip(p, v)]
        wc = w if real else [z.conjugate() for z in w]
        A = [[b - vi * wj - wi * vj for b, wj, vj in zip(row, wc, vc)]
             for row, vi, wi in zip(B, v, w)]
    if n > 1:
        e.append(abs(A[1][0]))
        d.append(A[0][0].real)
    d.append(A[-1][-1].real)
    return d, e


# Largest n whose Householder reduction runs on Python numbers
# (``_tridiagonal_scalar``); above it the numpy loop is faster.
_SCALAR_REDUCTION_MAX_N = 8

# LAPACK's cap on QL iterations per eigenvalue (dsteqr's MAXIT), and the
# constants of its deflation test.
_QL_MAX_ITER = 30
_EPS2 = (0.5 * float(np.finfo(float).eps)) ** 2
_SAFMIN = float(np.finfo(float).tiny)
# A part handed to ``_eigvals`` whose tridiagonal peaks below this is solved
# at its own scale; above it, safmin^(1/2) lies 2^-447 below its entries.
_OWN_SCALE = 2.0 ** -64


def hermitian_eigvals(H, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix, ascending, without vectors.

    Same input checks, and so the same LinalgError / NotHermitianError, as
    ``hermitian_eigen``; the checked matrix goes to ``_eigvals``, whose
    docstring gives the method, the error and the ConvergenceError.
    """
    return _eigvals(*_unit_hermitian(as_matrix(H, "H"), tol, "H"))


def _eigvals(H: np.ndarray, e: int) -> np.ndarray:
    """Eigenvalues of H' = 2^e H, ascending, for H finite, exactly Hermitian
    (H[i, j] == conj(H[j, i]) bit for bit) and normalised already: the
    checked, scaled matrix of ``_unit_hermitian`` with its e, or, with e = 0,
    a Cartesian part of a matrix unit-scaled by its caller.  No scaling pass
    is made and, for e = 0, none on the way back: 2^k H' gives exactly 2^k
    times the values of H'.

    H is reduced to a real symmetric tridiagonal (d, off) by Householder
    reflections (on Python numbers up to n = _SCALAR_REDUCTION_MAX_N, else
    ``_tridiagonal``; real arithmetic for real input).  A nonzero part whose
    tridiagonal peaks below _OWN_SCALE (2^-64 of a unit-scaled matrix) is
    reduced again at its own scale (``_unit_scale``), so the safmin term
    below never meets a part far smaller than its matrix.  Implicit QL with
    Wilkinson shifts on Python floats (Bowdler, Martin, Reinsch & Wilkinson
    1968; LAPACK's dsteqr without vectors) solves (d, off): off_m is dropped
    once off_m^2 <= eps^2 |d_m| |d_m+1| + safmin, which also deflates a
    zero-diagonal block with a tiny off-diagonal and keeps the shift finite,
    and a 2 x 2 block that splits off is finished in closed form (``_eig2``).
    The error is a small multiple of n * eps * ||H||_2.  Past _QL_MAX_ITER
    (data-dependent) QL iterations per eigenvalue, ConvergenceError quotes
    norms in the units of H'.
    """
    A = H if H.imag.any() else H.real
    d, off = _reduce(A)
    if 0.0 < max(max(map(abs, d)), max(off, default=0.0)) < _OWN_SCALE:
        A, f = _unit_scale(A)
        d, off = _reduce(A)
        e += f
    n = len(d)
    off.append(0.0)
    budget = _QL_MAX_ITER * n
    for top in range(n):
        while True:
            m = top
            while m < n - 1 and off[m] * off[m] > _EPS2 * abs(d[m]) * abs(d[m + 1]) + _SAFMIN:
                m += 1
            if m == top:
                break
            if m == top + 1:
                d[top], d[m] = _eig2(d[top], off[top], d[m])
                off[top] = 0.0
                break
            if budget == 0:
                raise ConvergenceError(
                    f"QL did not converge in {_QL_MAX_ITER * n} iterations: off-diagonal "
                    f"norm {_ldexp(math.hypot(*off), e):.3e}, diagonal norm "
                    f"{_ldexp(math.hypot(*d), e):.3e}"
                )
            budget -= 1
            # Wilkinson shift from the top 2x2, then chase the bulge upward.
            p = d[top]
            g = (d[top + 1] - p) / (2.0 * off[top])
            g = d[m] - p + off[top] / (g + math.copysign(math.hypot(g, 1.0), g))
            s = c = 1.0
            p = 0.0
            for i in range(m - 1, top - 1, -1):
                f = s * off[i]
                b = c * off[i]
                r = math.hypot(f, g)
                c, s = (g / r, f / r) if r else (1.0, 0.0)
                off[i + 1] = r
                g = d[i + 1] - p
                r = (d[i] - g) * s + 2.0 * c * b
                p = s * r
                d[i + 1] = g + p
                g = c * r - b
            d[top] -= p
            off[top] = g
            off[m] = 0.0
    lam = np.array(sorted(d))
    return _ldexp(lam, e) if e else lam


def _reduce(A: np.ndarray) -> tuple[list, list]:
    """``_tridiagonal_scalar`` of A up to n = _SCALAR_REDUCTION_MAX_N, else
    ``_tridiagonal``: (d, |e|) as lists."""
    if A.shape[0] <= _SCALAR_REDUCTION_MAX_N:
        return _tridiagonal_scalar(A.tolist())
    d, off = _tridiagonal(A)
    return d.tolist(), off.tolist()


def _eig2(a: float, b: float, c: float) -> tuple[float, float]:
    """Eigenvalues of the real symmetric [[a, b], [b, c]] as LAPACK's dlae2
    takes them: the larger in modulus from the sum a + c, with no
    cancellation, the other from the determinant ac - b^2 over it."""
    sm = a + c
    rt = math.hypot(a - c, 2.0 * b)
    if sm == 0.0:
        return 0.5 * rt, -0.5 * rt
    big = 0.5 * (sm + math.copysign(rt, sm))
    hi, lo = (a, c) if abs(a) > abs(c) else (c, a)
    return big, (hi / big) * lo - (b / big) * b


# Below this exponent of the band, P / 2^f in ``_psd_within`` could overflow.
_CHOLESKY_MIN_EXP = -1000


def _psd_within(P: np.ndarray, band: float, sign: float = 1.0) -> bool:
    """Whether lambda_min(sign P) > -band, for P finite and exactly
    Hermitian, such as a Cartesian part of a matrix unit-scaled by its
    caller (``_unit_scale``), whose entries are at most 2 in modulus.  A
    negative band asks for lambda_min(sign P) > |band|.  The zero part with
    band 0 counts as definite.

    One Cholesky attempt (LAPACK potrf) on X = (sign P + band I) / 2^f,
    band = m 2^f with 1/2 <= |m| < 1, answers it: the factorization exists
    iff every pivot is positive, iff X is positive definite, up to a
    backward error of a small multiple of n eps ||P||_2 (Higham 2002,
    section 10.1).  A nonpositive diagonal entry of X fails it before
    LAPACK is called, as potrf would, and a NaN pivot (overflow inside
    potrf) fails it too.  X is 2^-f sign P plus m I, both exact, so 2^k P
    with 2^k band gives bit for bit the verdict of P.  A band below
    2^_CHOLESKY_MIN_EXP, where X could overflow (a structural tolerance
    near 1e-300), takes the least eigenvalue from ``_eigvals`` instead.
    """
    m, f = math.frexp(band)
    if f < _CHOLESKY_MIN_EXP:
        return bool(_eigvals(sign * P, 0)[0] > -band)
    if not band and not P.any():
        return True
    n = P.shape[0]
    X = np.multiply(P, math.ldexp(sign, -f), order="C")
    diagonal = X.ravel()[:: n + 1]
    diagonal += m
    if min(diagonal.real.tolist()) <= 0.0:
        return False
    try:
        L = np.linalg.cholesky(X)
    except np.linalg.LinAlgError:
        return False
    return L.item(-1).real > 0.0


def _spectral_map(V: np.ndarray, values: np.ndarray) -> np.ndarray:
    """V diag(values) V*, made Hermitian when the values are real."""
    M = (V * values) @ _adj(V)
    return 0.5 * (M + _adj(M)) if np.isrealobj(values) else M


def _noise_floor(mods: np.ndarray) -> float:
    """16 n eps max|mu| for the moduli of n eigenvalues mu of a normal N: the
    size of their rounding noise, which is absolute (about eps ||N||)."""
    return 16 * len(mods) * np.finfo(float).eps * mods.max()


def _branch_cut(mu: np.ndarray, tol: Tolerances) -> np.ndarray:
    """mu with entries left of 0 within structural * |mu| + 16 n eps max|mu|
    (``_noise_floor``) of the real axis put on it (imaginary part +0)."""
    mods = np.abs(mu)
    snap = tol.structural * mods + _noise_floor(mods)
    return np.where((mu.real < 0) & (np.abs(mu.imag) <= snap), mu.real.astype(complex), mu)


def _psd_eigen(P: np.ndarray, tol: Tolerances) -> HermitianEigen:
    """Eigenpairs of a psd matrix, the eigenvalues clamped to 0 from below.

    One ``_check_hermitian`` pass gives S = P / 2^e to the serial engine and
    to the psd test: eigenvalues down to minus the band of ||S||_F (``_band``)
    are rounding noise, more negative ones raise IndefiniteError.
    ``psd_root`` (so ``abs_op``) and ``roots.sqrt_signdef`` call it.
    """
    S, e = _check_hermitian(P, tol, "H")
    lam, V = _jacobi(0.5 * (S + _adj(S)), 0, _cyclic_sweep)
    lam_min = float(lam[0].real)
    if -lam_min > _band(fro(S), tol.structural):
        raise IndefiniteError(f"matrix is not psd: lambda_min = {_ldexp(lam_min, e):.3e}")
    return HermitianEigen(_ldexp(np.clip(lam.real, 0.0, None), e), V)


def psd_root(P, n: int = 2, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unique positive semidefinite nth root of a psd matrix (``_psd_eigen``
    clamps its rounding noise); an n past the float range (about 1.8e308)
    raises LinalgError, as ``roots.nth_root`` does."""
    P = as_matrix(P, "P")
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("root order n must be a positive integer")
    try:
        power = 1.0 / n
    except OverflowError:  # no float holds n
        raise LinalgError(f"n of {len(str(n))} digits is too large: not a finite float") from None
    eig = _psd_eigen(P, tol)
    return _spectral_map(eig.vectors, eig.eigenvalues ** power)


def abs_op(T, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """|T| = psd square root of T*T, taken as 2^e |T / 2^e| (``_unit_scale``)
    so that T*T neither overflows nor underflows."""
    S, e = _unit_scale(as_matrix(T, "T"))
    return _ldexp(psd_root(_adj(S) @ S, 2, tol), e)


def normal_eigen(N, tol: Tolerances = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (mu, V) of a normal matrix, N = V diag(mu) V*,
    under the Jacobi contract of the module docstring: the serial engine
    rotates Re N and Im N, which commute, jointly.  mu is ascending by real
    part, then by imaginary part; real parts equal in exact arithmetic but
    not after rounding order mu by their computed values.
    """
    return _jacobi(*require_normal(as_matrix(N, "N"), tol, "N"), _cyclic_sweep)


def expi(A, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Unitary exponential e^{iA} of a Hermitian matrix."""
    A = as_matrix(A, "A")
    eig = hermitian_eigen(A, tol)
    return _spectral_map(eig.vectors, np.exp(1j * eig.eigenvalues))


def unitary_log(U, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Hermitian A with e^{iA} = U, eigenvalues of A in the principal
    branch (-pi, pi].

    Branch cut (``_branch_cut``): an eigenvalue of U left of 0 within
    structural + 16 n eps of the real axis counts as real, so -1 (and
    anything rounding left just below it) maps to +pi, never -pi.
    """
    U = as_matrix(U, "U")
    if not _is_unitary(U, tol):
        raise NotUnitaryError("input is not unitary within tolerance")
    mu, V = normal_eigen(U, tol)
    return _spectral_map(V, np.angle(_branch_cut(mu, tol)))


def polar_normal(N, tol: Tolerances = DEFAULT_TOL) -> PolarForm:
    """Commuting polar decomposition N = U P = P U of a normal matrix.

    Both factors come from one eigendecomposition N = V diag(mu) V*:
    P = V |mu| V* and U = V (mu/|mu|) V*.  Eigenvalues of N within the
    rounding noise of 0, |mu| <= 16 n eps max|mu| (``_noise_floor``), map to
    unitary eigenvalue 1 (canonical completion of U on the kernel of P); any
    larger one keeps its phase, however small it is against ||N||.
    """
    N = as_matrix(N, "N")
    mu, V = normal_eigen(N, tol)
    mods = np.abs(mu)
    zero = mods <= _noise_floor(mods)
    phases = np.where(zero, 1.0, mu / np.where(zero, 1.0, mods))
    return PolarForm(unitary=_spectral_map(V, phases), positive=_spectral_map(V, mods))


def operator_norm(M, tol: Tolerances = DEFAULT_TOL) -> float:
    """Spectral norm sqrt(lambda_max(M* M)), taken as 2^e ||M / 2^e||_2
    (``_unit_scale``) so that M* M neither overflows nor underflows."""
    S, e = _unit_scale(as_matrix(M, "M"))
    lam_max = float(hermitian_eigvals(_adj(S) @ S, tol)[-1])
    return _ldexp(math.sqrt(max(lam_max, 0.0)), e)


def classify(M, tol: Tolerances = DEFAULT_TOL) -> MatrixFlags:
    """Structural flags, each decided by ``_band`` on M / 2^e
    (``_unit_scale``) except unitary; zero means M = 0 exactly."""
    M = as_matrix(M, "M")
    S, _ = _unit_scale(M)
    band = _band(fro(S), tol.structural)
    herm = _hermitian_test(S, tol)
    normal = is_normal(S, tol)
    psd = nsd = False
    if herm:
        H = 0.5 * (S + _adj(S))
        psd = _psd_within(H, band)
        nsd = _psd_within(H, band, -1.0)
    unitary = _is_unitary(M, tol)
    zero = not M.any()
    return MatrixFlags(
        hermitian=herm, normal=normal, psd=psd, nsd=nsd, unitary=unitary, zero=zero
    )
