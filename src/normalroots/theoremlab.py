"""Executable checks for the structural results on square roots.

Machinery: a dense Sylvester solver (closed form in the shared eigenbasis
for Hermitian coefficients, Kronecker vectorization otherwise), spectra
disjointness tests, the root-of-self-adjoint classifier, numerical-range
membership with certified witnesses, the zero-square (nilpotent) checks, the
commutator identities for T and T^2, the normality biconditional under a
sign-definite real part, a discretized Volterra operator, and the periodicity
of e^{iA} under 2k pi shifts.

Verdicts that contradict a proved statement are reported as THEOREM
VIOLATIONS in the returned report objects, never raised as exceptions: the
point of the lab is falsification with evidence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinalgError,
    Tolerances,
    _adj,
    _band,
    _cartesian,
    _check_hermitian,
    _eigvals,
    _hermitian_test,
    _im_part,
    _jacobi,
    _normality,
    _ldexp,
    _psd_within,
    _SAFMIN,
    _unit_scale,
    as_matrix,
    fro,
    hermitian_eigvals,
)

__all__ = [
    "SingularSylvesterError",
    "SylvesterProblem",
    "sylvester_solve",
    "spectra_disjoint",
    "ClassificationVerdict",
    "classify_root_of_selfadjoint",
    "RangeCertificate",
    "numerical_range_contains_zero",
    "ZeroSquareReport",
    "check_zero_square",
    "sample_nilpotent",
    "commutator_identities",
    "NormalityReport",
    "normality_equivalence",
    "volterra_matrix",
    "exp_periodicity_residual",
]

# Margins closer to zero than this multiple of the base tolerance are not
# trusted as booleans; they yield "indeterminate" instead.
INDETERMINATE_FACTOR = 10.0

SYLVESTER_MAX_DIM = 32


class SingularSylvesterError(LinalgError):
    """The Sylvester system is singular: the spectra intersect."""


@dataclass(frozen=True)
class SylvesterProblem:
    """Data of the equation a @ X - X @ b = s."""

    a: np.ndarray
    b: np.ndarray
    s: np.ndarray


def _spectral_gap(la, lb, norm: float, tol: Tolerances) -> tuple[bool, float]:
    """min |la_i - lb_j|, and whether it exceeds the band of norm
    (``linalg._band``)."""
    gap = float(np.min(np.abs(np.subtract.outer(la, lb))))
    return gap > _band(norm, tol.structural), gap


def spectra_disjoint(a, b, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether two Hermitian matrices have disjoint spectra, against the band
    of ||a||_F + ||b||_F, taken on a / 2^e and b / 2^e for the larger
    ``linalg._unit_scale`` factor 2^e; returns the minimal gap alongside."""
    a, b = as_matrix(a, "a"), as_matrix(b, "b")
    e = max(_unit_scale(a)[1], _unit_scale(b)[1])
    a, b = _ldexp(a, -e), _ldexp(b, -e)
    disjoint, gap = _spectral_gap(hermitian_eigvals(a, tol), hermitian_eigvals(b, tol),
                                  fro(a) + fro(b), tol)
    return disjoint, _ldexp(gap, e)


def sylvester_solve(problem: SylvesterProblem, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve a @ X - X @ b = s; dimension capped at 32 on the Kronecker path.

    Hermitian a and b (both pass is_hermitian): one stacked eigensolve
    a = Va diag(lam) Va*, b = Vb diag(mu) Vb* serves the gap check and the
    closed form X = Va [(Va* s Vb)_ij / (lam_i - mu_j)] Vb* (Bartels &
    Stewart 1972), followed by one step of iterative refinement on the
    residual s - (a X - X b) of the original a and b.

    Any other input, up to n = 32: the n^2 x n^2 system (I kron a - b^T kron
    I) vec X = vec s is solved with partial-pivoting elimination.

    SingularSylvesterError: intersecting spectra (gap within the band of
    ||a||_F + ||b||_F, ``linalg._band``), a singular system, a normwise
    backward error ||R||_F / ((||a||_F + ||b||_F) ||X||_F + ||s||_F) above
    residual (Higham 2002, ch. 16), or ||s||_F / ||X||_F, a bound on sep(a,
    b), within the gap band.  All of it runs on a / 2^e, b / 2^e and s / 2^f
    (``_scaled_problem``); X is 2^(f - e) times their solution.  LinalgError
    when that leaves the float range: an entry overflows, or a nonzero
    solution's largest entry falls below the normal floats.
    """
    a = as_matrix(problem.a, "a")
    b = as_matrix(problem.b, "b")
    s = as_matrix(problem.s, "s")
    n = a.shape[0]
    if b.shape != a.shape or s.shape != a.shape:
        raise LinalgError("a, b, s must share one square dimension")
    a, b, s, e, f = _scaled_problem(a, b, s)
    S, g = _unit_scale(np.stack([a, b]))
    if _hermitian_test(S, tol).all():  # both pass is_hermitian
        lam, (Va, Vb) = _jacobi(0.5 * (S + _adj(S)), g)
        la, lb = lam.real
        disjoint, gap = _spectral_gap(la, lb, fro(a) + fro(b), tol)
        if not disjoint:
            raise SingularSylvesterError(
                f"spectra of a and b intersect (min gap {_ldexp(gap, e):.3e})"
            )
        denom = np.subtract.outer(la, lb)

        def closed_form(r: np.ndarray) -> np.ndarray:
            return Va @ ((Va.conj().T @ r @ Vb) / denom) @ Vb.conj().T

        X = closed_form(s)
        X = X + closed_form(s - (a @ X - X @ b))
    else:
        if n > SYLVESTER_MAX_DIM:
            raise LinalgError(f"dense Sylvester solve capped at dim {SYLVESTER_MAX_DIM}")
        eye = np.eye(n)
        K = np.kron(eye, a) - np.kron(b.T, eye)
        try:
            x = np.linalg.solve(K, s.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise SingularSylvesterError(f"singular Sylvester system: {exc}") from exc
        X = x.reshape((n, n), order="F")
    residual = fro(a @ X - X @ b - s)
    # A backward error alone passes the huge X of a singular system.
    growth = (fro(a) + fro(b)) * fro(X)
    if residual > _band(growth + fro(s), tol.residual) or fro(s) < _band(growth, tol.structural):
        raise SingularSylvesterError(
            f"Sylvester system numerically singular: residual {_ldexp(residual, f):.3e}"
        )
    nonzero = X.any()
    X = _ldexp(X, f - e)
    if not np.isfinite(X).all():
        raise LinalgError("the Sylvester solution X overflows the float range")
    if nonzero and np.abs(X.view(float)).max() < _SAFMIN:  # the least normal float
        raise LinalgError("the Sylvester solution X underflows the float range")
    return X


def _scaled_problem(a: np.ndarray, b: np.ndarray, s: np.ndarray):
    """(a / 2^e, b / 2^e, s / 2^f, e, f), 2^e the larger ``linalg._unit_scale``
    factor of a and b and 2^f that of s: the problem ``sylvester_solve``
    solves, on which a X - X b - s cannot overflow."""
    e, f = max(_unit_scale(a)[1], _unit_scale(b)[1]), _unit_scale(s)[1]
    return _ldexp(a, -e), _ldexp(b, -e), _ldexp(s, -f), e, f


# ---------------------------------------------------------------------------
# Numerical range
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeCertificate:
    """Membership of 0 in the numerical range, with a checkable witness.

    margin is the largest lambda_min(Re(e^{i theta} M)) found.  When 0 is
    excluded it is > 0 and the witness is its angle theta.  When 0 is
    contained it is <= 0 and the witness is a unit vector x with |<Mx, x>|
    = witness_value ~ 0.
    """

    contains_zero: bool
    margin: float
    witness_angle: float | None = None
    witness_vector: np.ndarray | None = None
    witness_value: float | None = None
    indeterminate: bool = False


# The angle search stops undecided after _SEARCH_ROUNDS rounds or before
# passing _SEARCH_MAX_ANGLES angles; a zoom step shrinks its bracket 15.5-fold.
_SEARCH_ANGLES = 64
_SEARCH_ROUNDS = 24
_SEARCH_MAX_ANGLES = 4096
_ZOOM_ANGLES = 32
_ZOOM_STEPS = 6
_FAN_STEPS = 8


def _rotated_min(A: np.ndarray, B: np.ndarray, thetas: np.ndarray):
    """One stacked eigensolve of Re(e^{i theta} M) = cos(theta) A - sin(theta) B.
    Returns the Rayleigh quotients f of the lowest eigenvectors (upper bounds
    on lambda_min), those eigenvectors (rows) and the eigenvector matrices."""
    H = np.cos(thetas)[:, None, None] * A - np.sin(thetas)[:, None, None] * B
    # Hermitian to rounding of ||M||, not of its own norm: symmetrised, not tested.
    S, e = _unit_scale(H)
    V = _jacobi(0.5 * (S + _adj(S)), e)[1]
    x = V[:, :, 0]
    f = np.einsum("ki,kij,kj->k", x.conj(), H, x).real / np.einsum("ki,ki->k", x.conj(), x).real
    return f, x, V


def _best_angle(A: np.ndarray, B: np.ndarray, band: float):
    """Certified search for an angle with lambda_min(Re(e^{i theta} M)) > band,
    then a zoom on the best one.  Returns the samples in angle order (angles,
    lowest eigenvectors), whether the search decided, the best angle and margin.

    lambda_min is Lipschitz in theta with constant ||M||_2 <= L = ||M||_F
    (Weyl), so between samples at distance w it stays below
    (f_a + f_b)/2 + L w/2 (Piyavskii 1972; Shubert 1972).  Each round solves
    the midpoints of the intervals whose bound exceeds the band, until a
    sample exceeds it, no bound does, or 0 lies deeper than the band inside
    the polygon of the support points sampled so far, which by convexity
    lies in W(M) (each of these decides the search).  The zoom works in the
    eigenbasis V of the best angle so far, where the stacked matrices are
    nearly diagonal.  Where 0 is outside W(M) the margin is unimodal, so its
    maximum stays inside the best sample's neighbours and every bracket.
    """
    M = A + 1j * B
    L = fro(M)
    thetas = np.linspace(0.0, 2.0 * np.pi, _SEARCH_ANGLES, endpoint=False)
    f, X, V = _rotated_min(A, B, thetas)
    V = V[int(np.argmax(f))]
    for rounds in range(_SEARCH_ROUNDS + 1):
        width = np.diff(thetas, append=2.0 * np.pi)
        open_ = np.flatnonzero(0.5 * (f + np.roll(f, -1) + L * width) > band)
        decided = f.max() > band or open_.size == 0 or _polygon_holds_zero(M, X, band)
        if decided or rounds == _SEARCH_ROUNDS or len(thetas) + open_.size > _SEARCH_MAX_ANGLES:
            break
        mids = thetas[open_] + 0.5 * width[open_]
        fm, Xm, Vm = _rotated_min(A, B, mids)
        if fm.max() > f.max():
            V = Vm[int(np.argmax(fm))]
        thetas, f = np.insert(thetas, open_ + 1, mids), np.insert(f, open_ + 1, fm)
        X = np.insert(X, open_ + 1, Xm, axis=0)

    j = int(np.argmax(f))
    ring = np.concatenate([thetas[-1:] - 2.0 * np.pi, thetas, thetas[:1] + 2.0 * np.pi])
    lo, hi = ring[j], ring[j + 2]
    best_theta, best_margin = float(thetas[j]), float(f[j])
    for _ in range(_ZOOM_STEPS):
        grid = np.linspace(lo, hi, _ZOOM_ANGLES)
        g, _, W = _rotated_min(V.conj().T @ A @ V, V.conj().T @ B @ V, grid)
        i = int(np.argmax(g))
        if g[i] > best_margin:
            best_theta, best_margin = float(grid[i]), float(g[i])
        V = V @ W[i]
        lo, hi = grid[max(i - 1, 0)], grid[min(i + 1, _ZOOM_ANGLES - 1)]
    return thetas, X, decided, best_theta, best_margin


def _polygon_holds_zero(M: np.ndarray, X: np.ndarray, band: float) -> bool:
    """Whether 0 lies more than band inside every edge of the polygon of the
    support points w_j = <M x_j, x_j>, which run clockwise in angle order, so
    that W(M) is to the right of each edge w_j -> w_{j+1}."""
    w = np.einsum("ki,ij,kj->k", X.conj(), M, X)
    d = np.roll(w, -1) - w
    length = np.abs(d)
    edge = length > 0.0
    return bool(edge.any() and np.all((d.conj() * w).imag[edge] > band * length[edge]))


def _quadratic_form(M: np.ndarray, x: np.ndarray) -> complex:
    return complex(x.conj() @ (M @ x))


def _isotropic(M: np.ndarray, x1: np.ndarray, x2: np.ndarray, z: complex) -> np.ndarray:
    """Unit y in span{x1, x2} with <My, y> = z, for z on the segment between
    the form values w1, w2 of the unit vectors x1, x2 (Carden 2009).

    With N = e^{-i arg(w2 - w1)} (M - z I), <N x1, x1> = r1 <= 0 and
    <N x2, x2> = r2 >= 0 are real; a phase p makes <Ny, y> for
    y = x1 + t p x2 the real quadratic r2 t^2 + c t + r1.
    """
    w1, w2 = _quadratic_form(M, x1), _quadratic_form(M, x2)
    N = np.exp(-1j * np.angle(w2 - w1)) * (M - z * np.eye(len(x1)))
    # The signs follow from z in [w1, w2]; rounding may only flip a zero.
    r1, r2 = min(_quadratic_form(N, x1).real, 0.0), max(_quadratic_form(N, x2).real, 0.0)
    a, b = complex(x1.conj() @ (N @ x2)), complex(x2.conj() @ (N @ x1))
    p = np.exp(-1j * np.angle(a - np.conj(b)))
    c = (p * a + np.conj(p) * b).real
    q = -0.5 * (c + np.copysign(np.sqrt(c * c - 4.0 * r1 * r2), c))
    if q == 0.0:
        return x1 if r1 == 0.0 else x2
    y = x1 + (r1 / q) * p * x2  # the smaller root, free of cancellation
    return y / np.linalg.norm(y)


def _closest_edge(w: np.ndarray) -> tuple[int, complex]:
    """Index j and point of the edge [w_j, w_{j+1}] (cyclic) closest to 0; for
    points in convex position and 0 outside their hull, no chord is closer."""
    d = np.roll(w, -1) - w
    den = np.abs(d) ** 2
    t = np.clip(-(w.conj() * d).real / np.where(den == 0.0, 1.0, den), 0.0, 1.0)
    j = int(np.argmin(np.abs(w + t * d)))
    return j, complex(w[j] + t[j] * d[j])


def _support_zero_witness(M, A, B, thetas, X) -> np.ndarray:
    """Unit x with <Mx, x> ~ 0 from the support points w_j = <M x_j, x_j>,
    which lie on the boundary of W(M) in angle order.

    In the fan triangle (w_0, w_b, w_{b+1}) holding 0 deepest, two solves
    give the witness: z on [w_b, w_{b+1}] in line with w_0 and 0, then 0 on
    [w_0, z].  While no triangle holds 0, each step adds the support point
    in the direction of 0 from the polygon (Carden 2009); after _FAN_STEPS
    the witness is the polygon's point closest to 0.
    """
    w = np.einsum("ki,ij,kj->k", X.conj(), M, X)
    for step in range(_FAN_STEPS + 1):
        # Twice the signed areas of (0, w_b, w_{b+1}), (0, w_{b+1}, w_0) and
        # (0, w_0, w_b); their sum is that of the triangle.
        w0, wb, wc = w[0], w[1:-1], w[2:]
        parts = np.stack([np.conj(wb) * wc, np.conj(wc) * w0, np.conj(w0) * wb]).imag
        area = parts.sum(axis=0)
        weights = np.divide(parts, area, out=np.full_like(parts, -np.inf), where=area != 0.0)
        depth = weights.min(axis=0)
        b = int(np.argmax(depth))
        if depth[b] >= 0.0:
            _, beta, gamma = weights[:, b]
            if beta + gamma == 0.0:
                return X[0]
            z = (beta * wb[b] + gamma * wc[b]) / (beta + gamma)
            return _isotropic(M, X[0], _isotropic(M, X[b + 1], X[b + 2], z), 0.0)
        j, p = _closest_edge(w)
        if step == _FAN_STEPS or p == 0.0:
            break
        # The support point farthest along -p, at theta = -arg(p).
        theta = -np.angle(p) % (2.0 * np.pi)
        _, x, _ = _rotated_min(A, B, np.array([theta]))
        k = int(np.searchsorted(thetas, theta))
        thetas, X = np.insert(thetas, k, theta), np.insert(X, k, x[0], axis=0)
        w = np.insert(w, k, _quadratic_form(M, x[0]))
    return _isotropic(M, X[j], X[(j + 1) % len(w)], p)


def numerical_range_contains_zero(M, tol: Tolerances = DEFAULT_TOL) -> RangeCertificate:
    """Decide 0 in W(M) using convexity of the numerical range.

    0 is outside W(M) iff some angle theta gives lambda_min(Re(e^{i theta} M))
    > 0 (Johnson 1978).  The test runs on M / 2^e (``linalg._unit_scale``)
    and scales margin and witness_value back, so every 2^k M gets the same
    verdicts, angles and vectors.  Hermitian input
    short-circuits to the interval test on the spectrum.  Margins within the
    band of zero are flagged indeterminate rather than trusted.

    Otherwise ``_best_angle`` (64 angles, bisection where the Lipschitz bound
    on lambda_min exceeds the band, six zoom steps of 32 angles down to a
    1.4e-8 rad bracket) finds an angle above the band or proves there is
    none.  The contains-zero witness comes in closed form from the sampled
    support points.  A search stopped by its caps is indeterminate unless
    that witness puts 0 within the band of W(M).
    """
    S, e = _unit_scale(as_matrix(M, "M"))
    rc = _range_test(S, tol)
    value = rc.witness_value
    return replace(rc, margin=_ldexp(rc.margin, e),
                   witness_value=None if value is None else _ldexp(value, e))


def _range_test(M: np.ndarray, tol: Tolerances) -> RangeCertificate:
    band = _band(fro(M), tol.structural)

    if _hermitian_test(M, tol):  # M is unit-scaled already
        lam, V = _jacobi(0.5 * (M + _adj(M)), 0)
        lo, hi = float(lam[0].real), float(lam[-1].real)
        margin = max(lo, -hi)  # distance by which the interval avoids 0
        if margin > band:
            theta = 0.0 if lo > 0 else np.pi
            return RangeCertificate(False, margin, witness_angle=theta)
        # 0 lies in [lo, hi], or within the band of the nearer end, whose
        # eigenvector _isotropic then returns (up to rounding).
        x = _isotropic(M, V[:, 0], V[:, -1], 0.0)
        val = abs(_quadratic_form(M, x))
        return RangeCertificate(
            margin <= 0.0, margin, witness_vector=x, witness_value=val,
            indeterminate=abs(margin) <= band,
        )

    if M.shape[0] == 1:
        val = abs(complex(M[0, 0]))
        if val > band:
            theta = -np.angle(complex(M[0, 0]))
            return RangeCertificate(False, val, witness_angle=float(theta))
        return RangeCertificate(
            True, -val, witness_vector=np.ones(1, dtype=complex), witness_value=val
        )

    A, B = _cartesian(M)
    thetas, X, decided, best_theta, best_margin = _best_angle(A, B, band)
    if best_margin > band:
        return RangeCertificate(False, best_margin, witness_angle=best_theta % (2 * np.pi))

    x = _support_zero_witness(M, A, B, thetas, X)
    val = abs(_quadratic_form(M, x))
    return RangeCertificate(
        best_margin <= 0.0, best_margin, witness_vector=x, witness_value=val,
        indeterminate=abs(best_margin) <= band or (not decided and val > band),
    )


# ---------------------------------------------------------------------------
# Classifier for roots of self-adjoint matrices
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClassificationVerdict:
    """Outcome of the root classifier for T with T^2 Hermitian.

    case: selfadjoint_invertible | skew_invertible | inconclusive.
    evidence names the hypothesis that fired.  residual is the norm of the
    part the conclusion forces to vanish (Im T or Re T).  violation is set
    when a hypothesis held but the proved conclusion failed numerically.
    """

    case: str
    evidence: str
    residual: float | None
    system_residuals: tuple[float, float]
    violation: str | None = None


def classify_root_of_selfadjoint(
    T, C, tol: Tolerances = DEFAULT_TOL
) -> ClassificationVerdict:
    """Classify a square root T of a Hermitian matrix C.

    Checks, in order: disjointness of the spectra of Re T and -Re T (forces
    T self-adjoint and invertible), then the dual on Im T (forces T skew).
    Every test is taken on S = T / 2^e and C / 2^(2e) (``linalg._unit_scale``)
    against the band of ||S||_F^k (``linalg._band``); the gap tests use 2
    ||S||_F, as ``spectra_disjoint`` would.  The range hypotheses 0 not in
    W(Re T) / W(Im T) are implied: for a Hermitian part H, a margin
    lambda_min > structural ||T||_F gives spec(H) and spec(-H) a gap 2
    lambda_min that passes the disjointness test.

    A part definite beyond half the gap band passes the gap test, whose gap
    is then 2 min |lambda|, and its invertibility bound min |lambda| >
    ||vanishing||_F + band is a second shift of the same kind: one Cholesky
    attempt each (``linalg._psd_within``), no spectrum solved.  Any other
    part is solved for values (``linalg._eigvals``), since an indefinite
    part can still pass.  A part is not tested when 4 ||part||_F is at most
    the gap band: the gap min |lam_i + lam_j| is at most 2 ||part||_2, so
    the test cannot pass.  The residuals are scaled back exactly; a
    non-finite residual fails the precondition.
    """
    T = as_matrix(T, "T")
    C = as_matrix(C, "C")
    if T.shape != C.shape:
        raise LinalgError("T and C must share one square dimension")
    _check_hermitian(C, tol, "C")
    S, e = _unit_scale(T)
    return _classify_root(S, _ldexp(C, -2 * e), e, tol)


def _classify_own_square(T, tol: Tolerances) -> ClassificationVerdict:
    """``classify_root_of_selfadjoint(T, T @ T)`` with T^2 formed on S = T /
    2^e (``linalg._unit_scale``), where it cannot underflow; LinalgError
    when T^2 itself overflows."""
    S, e = _unit_scale(as_matrix(T, "T"))
    D = S @ S
    if not np.isfinite(_ldexp(D, 2 * e)).all():
        raise LinalgError("default target T^2 overflows")
    _check_hermitian(D, tol, "C")
    return _classify_root(S, D, e, tol)


def _classify_root(S: np.ndarray, D: np.ndarray, e: int,
                   tol: Tolerances) -> ClassificationVerdict:
    """The classifier on S = T / 2^e, unit-scaled, and D = C / 2^(2e), with C
    Hermitian already checked; the residuals are reported in T's units."""
    norm = fro(S)
    if not fro(S @ S - D) <= _band(norm, tol.residual, 2):
        raise LinalgError("precondition T^2 = C fails beyond residual tolerance")
    A, B = _cartesian(S)
    sys_res = (
        _ldexp(fro(A @ A - B @ B - D), 2 * e),
        _ldexp(fro(A @ B + B @ A), 2 * e),
    )

    # Each hypothesis: evidence, case, the part whose spectrum is tested and
    # its norm, the norm of the part the conclusion forces to vanish, and the
    # violation message.  Tested in this order; the first that holds decides.
    norm_a, norm_b = fro(A), fro(B)
    hypotheses = (
        ("spectra_disjoint_re", "selfadjoint_invertible", A, norm_a, norm_b,
         "spectra of Re T and -Re T disjoint but T is not a self-adjoint "
         "invertible root (||Im T|| = {:.3e})"),
        ("spectra_disjoint_im", "skew_invertible", B, norm_b, norm_a,
         "spectra of Im T and -Im T disjoint but T is not a skew invertible "
         "root (||Re T|| = {:.3e})"),
    )
    band = _band(norm, tol.structural)
    gap_band = _band(2.0 * norm, tol.structural)
    for evidence, case, tested, tested_norm, residual, message in hypotheses:
        # The gap min |lam_i + lam_j| is at most 2 ||tested||_2: at or below
        # half the band it cannot pass, so the part is not tested.
        if 4.0 * tested_norm <= gap_band:
            continue
        # Up to a factor i, T is tested + i vanishing, so by Weyl
        # sigma_min(T) >= min |spec(tested)| - ||vanishing||_F; T* T, whose
        # small eigenvalues sink below the eigensolver's floor, is never
        # formed.
        sign = next((s for s in (1.0, -1.0) if _psd_within(tested, -0.5 * gap_band, s)), None)
        if sign is not None:
            invertible = _psd_within(tested, -(residual + band), sign)
        else:
            # spectra_disjoint(tested, -tested) from one values solve.
            lam = _eigvals(tested, 0)
            if not _spectral_gap(lam, -lam, 2.0 * norm, tol)[0]:
                continue
            invertible = float(np.abs(lam).min()) - residual > band
        ok = residual <= _band(norm, tol.residual) and invertible
        residual = _ldexp(residual, e)
        return ClassificationVerdict(
            case=case,
            evidence=evidence,
            residual=residual,
            system_residuals=sys_res,
            violation=None if ok else "THEOREM VIOLATION: " + message.format(residual),
        )
    return ClassificationVerdict(
        case="inconclusive",
        evidence="none",
        residual=None,
        system_residuals=sys_res,
    )


# ---------------------------------------------------------------------------
# Nilpotents of order two
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ZeroSquareReport:
    """Evidence collected for one matrix with T^2 = 0.

    hypotheses maps the four sign conditions on the Cartesian parts to
    'holds' / 'fails' / 'indeterminate'.  If any of them holds, T must be
    zero; otherwise a nonzero T must have indefinite Re and Im spectra.
    conclusion_zero means T = 0 exactly.
    """

    norm_t: float
    square_norm: float
    hypotheses: dict
    conclusion_zero: bool
    re_margins: tuple[float, float]
    im_margins: tuple[float, float]
    re_indefinite: bool
    im_indefinite: bool
    violation: str | None = None


def _sign_status(value: float, band: float) -> str:
    ind = INDETERMINATE_FACTOR * band
    if value >= -band:
        return "holds"
    if value >= -ind:
        return "indeterminate"
    return "fails"


def check_zero_square(T, tol: Tolerances = DEFAULT_TOL) -> ZeroSquareReport:
    """Check the nilpotent (T^2 = 0) consequences on one instance.

    Every test is taken on S = T / 2^e (``linalg._unit_scale``) against the
    band of ||S||_F^k (``linalg._band``), the parts' values solved at S's
    scale, and the norms and margins are scaled back exactly (to 0 below the
    float range).
    """
    T = as_matrix(T, "T")
    S, e = _unit_scale(T)
    norm = fro(S)
    square = fro(S @ S)
    if square > _band(norm, tol.residual, 2):
        raise LinalgError("precondition T^2 = 0 fails beyond residual tolerance")
    la, lb = (_eigvals(part, 0) for part in _cartesian(S))
    band = _band(norm, tol.structural)
    ind = INDETERMINATE_FACTOR * band
    hypotheses = {
        "re_psd": _sign_status(la[0], band),
        "re_nsd": _sign_status(-la[-1], band),
        "im_psd": _sign_status(lb[0], band),
        "im_nsd": _sign_status(-lb[-1], band),
    }
    norm_t = fro(T)
    conclusion_zero = norm == 0.0
    violation = None
    if any(v == "holds" for v in hypotheses.values()) and not conclusion_zero:
        violation = (
            "THEOREM VIOLATION: a sign hypothesis holds on a nonzero nilpotent "
            f"(||T|| = {norm_t:.3e}, hypotheses = {hypotheses})"
        )
    re_indefinite = bool(la[0] < -ind and la[-1] > ind)
    im_indefinite = bool(lb[0] < -ind and lb[-1] > ind)
    return ZeroSquareReport(
        norm_t=norm_t,
        square_norm=_ldexp(square, 2 * e),
        hypotheses=hypotheses,
        conclusion_zero=conclusion_zero,
        re_margins=(_ldexp(float(la[0]), e), _ldexp(float(la[-1]), e)),
        im_margins=(_ldexp(float(lb[0]), e), _ldexp(float(lb[-1]), e)),
        re_indefinite=re_indefinite,
        im_indefinite=im_indefinite,
        violation=violation,
    )


def sample_nilpotent(dim: int, seed: int = 0) -> np.ndarray:
    """Deterministic order-two nilpotent: a strictly block upper-triangular
    2x2 block matrix with a Gaussian corner block, conjugated by a random
    unitary.  dim 1 has only the zero nilpotent.
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError("dim must be a positive integer")
    if dim == 1:
        return np.zeros((1, 1), dtype=complex)
    k = (dim + 1) // 2
    m = dim // 2
    base = np.zeros((dim, dim), dtype=complex)
    rng = np.random.default_rng(seed)
    base[:k, k:] = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    return Q @ base @ Q.conj().T


def commutator_identities(T) -> tuple[float, float]:
    """Residuals of [C, B] = [A, D] and [A, C] = [B, D] where (A, B) are the
    Cartesian parts of T and (C, D) those of T^2.  Both vanish identically:
    expanding T^2 gives C = A^2 - B^2 and D = AB + BA, and substituting
    A^2 = B^2 + C (resp. B^2 = A^2 - C) into A^2 B - B A^2 = AD - DA yields
    the two brackets.  In particular BC = CB iff AD = DA, and AC = CA iff
    BD = DB.

    The brackets are taken on T / 2^e (``_commutators``), so no product
    overflows; a residual beyond the float range reads inf."""
    r1, r2, _, e = _commutators(T)
    return _ldexp(r1, 3 * e), _ldexp(r2, 3 * e)


def _commutators(T) -> tuple[float, float, float, int]:
    """The residuals of ``commutator_identities`` and ||S||_F, all on S =
    T / 2^e (``linalg._unit_scale``), and e."""
    S, e = _unit_scale(as_matrix(T, "T"))
    (A, B), (C, D) = _cartesian(S), _cartesian(S @ S)

    def comm(X, Y):
        return X @ Y - Y @ X

    return fro(comm(C, B) - comm(A, D)), fro(comm(A, C) - comm(B, D)), fro(S), e


# ---------------------------------------------------------------------------
# Normality biconditional under a sign-definite part
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NormalityReport:
    """Both sides of 'T normal iff AD = DA' (or the Im-part dual).

    applicable is 're', 'im', or None when neither Cartesian part of T is
    sign-definite.  agree is None when the instance is not applicable or
    either side sits in the indeterminate band.
    """

    applicable: str | None
    defect: float
    normal: bool
    commutation_residual: float | None = None
    commutes: bool | None = None
    agree: bool | None = None
    indeterminate: bool = False
    selfadjoint_clause_checked: bool = False
    violation: str | None = None


def normality_equivalence(T, tol: Tolerances = DEFAULT_TOL) -> NormalityReport:
    """Evaluate the biconditional between normality of T and commutation of
    the sign-definite Cartesian part with Im T^2.

    Every test is taken on M = T / 2^e (``linalg._unit_scale``) against the
    band of ||M||_F^k (``linalg._band``), and the defect and the commutation
    residual are scaled back exactly.  A part is sign-definite when
    lambda_min > -band or lambda_max < band, each one Cholesky attempt
    (``linalg._psd_within``), so no spectrum is solved; Im T is tested only
    when Re T is not sign-definite, Im T^2 formed only when a part is.
    """
    M, e = _unit_scale(as_matrix(T, "T"))
    A, B = _cartesian(M)
    gap, norm = _normality(M)
    band = _band(norm, tol.structural)
    defect = _ldexp(gap, 2 * e)
    thr_n = _band(norm, tol.structural, 2)
    normal = gap <= thr_n
    if _psd_within(A, band) or _psd_within(A, band, -1.0):
        applicable, part = "re", A
    elif _psd_within(B, band) or _psd_within(B, band, -1.0):
        applicable, part = "im", B
    else:
        return NormalityReport(applicable=None, defect=defect, normal=normal)

    D = _im_part(M @ M)
    scaled_cres = fro(part @ D - D @ part)
    thr_c = _band(norm, tol.structural, 3)
    commutes = scaled_cres <= thr_c
    in_band = (
        thr_n < gap <= INDETERMINATE_FACTOR * thr_n
        or thr_c < scaled_cres <= INDETERMINATE_FACTOR * thr_c
    )
    cres = _ldexp(scaled_cres, 3 * e)
    agree = None if in_band else (normal == commutes)
    violation = None
    if agree is False:
        violation = (
            "THEOREM VIOLATION: normality and commutation disagree "
            f"(defect {defect:.3e}, [part, Im T^2] residual {cres:.3e})"
        )
    # Final clause: Hermitian T^2 plus a sign-definite part forces normality.
    clause_checked = fro(D) <= thr_n
    if clause_checked and not normal and violation is None:
        violation = (
            "THEOREM VIOLATION: T^2 self-adjoint and a Cartesian part "
            f"sign-definite, yet T is not normal (defect {defect:.3e})"
        )
    return NormalityReport(
        applicable=applicable,
        defect=defect,
        normal=normal,
        commutation_residual=cres,
        commutes=commutes,
        agree=agree,
        indeterminate=in_band,
        selfadjoint_clause_checked=clause_checked,
        violation=violation,
    )


# ---------------------------------------------------------------------------
# Volterra discretization and exponential periodicity
# ---------------------------------------------------------------------------


def volterra_matrix(n: int) -> np.ndarray:
    """Trapezoid-consistent n x n discretization of (Vf)(x) = integral_0^x f.

    Entries 1/n below the diagonal and 1/(2n) on it.  Triangularity makes
    the spectral radius exactly 1/(2n); the real part is (1/(2n)) times the
    all-ones matrix, which is psd of rank one.
    """
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise ValueError("n must be a positive integer")
    V = np.tril(np.full((n, n), 1.0 / n), -1)
    np.fill_diagonal(V, 1.0 / (2.0 * n))
    return V.astype(complex)


def exp_periodicity_residual(A, k: int, tol: Tolerances = DEFAULT_TOL) -> float:
    """|| e^{i(A + 2k pi I)} - e^{iA} ||_F for Hermitian A; zero in exact
    arithmetic for every integer k.

    A + 2k pi I shares A's eigenbasis, so the identity is evaluated on A's
    computed spectrum: with A = V diag(lam) V* and V unitary the norm is
    ||e^{i(lam + 2k pi)} - e^{i lam}||_2, from one values-only solve
    (``hermitian_eigvals``), not from two factorizations.  LinalgError when
    2 pi k is not a finite float (|k| beyond about 2.9e307), or when an
    eigenvalue of A or of A + 2k pi I lies past the float range.
    """
    A = as_matrix(A, "A")
    if not isinstance(k, (int, np.integer)):
        raise ValueError("k must be an integer")
    try:
        shift = 2.0 * np.pi * int(k)
    except OverflowError:  # no float holds int(k)
        shift = math.inf
    if not math.isfinite(shift):
        digits = len(str(abs(int(k))))
        raise LinalgError(f"k of {digits} digits is too large: 2 pi k is not a finite float")
    lam = hermitian_eigvals(A, tol)
    if not np.isfinite(lam).all():
        raise LinalgError("A has an eigenvalue past the float range: e^{iA} is not computable")
    with np.errstate(over="ignore"):
        shifted = lam + shift
    if not np.isfinite(shifted).all():
        raise LinalgError("A + 2 pi k I has an eigenvalue past the float range: "
                          "e^{i(A + 2k pi I)} is not computable")
    return float(np.linalg.norm(np.exp(1j * shifted) - np.exp(1j * lam)))
