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

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    LinalgError,
    Tolerances,
    as_matrix,
    cartesian_parts,
    expi,
    fro,
    hermitian_eigen,
    hermitian_eigen_batch,
    is_hermitian,
    require_hermitian,
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


def _spectral_gap(la, lb, norm_a: float, norm_b: float, tol: Tolerances) -> tuple[bool, float]:
    """min |la_i - lb_j| and whether it exceeds structural * (1 + |a| + |b|)."""
    gap = float(np.min(np.abs(np.subtract.outer(la, lb))))
    return gap > tol.structural * (1.0 + norm_a + norm_b), gap


def spectra_disjoint(a, b, tol: Tolerances = DEFAULT_TOL) -> tuple[bool, float]:
    """Whether two Hermitian matrices have disjoint spectra; returns the
    minimal eigenvalue gap alongside."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    la = hermitian_eigen(a, tol).eigenvalues
    lb = hermitian_eigen(b, tol).eigenvalues
    return _spectral_gap(la, lb, fro(a), fro(b), tol)


def _negation_disjoint(A: np.ndarray, tol: Tolerances) -> bool:
    """spectra_disjoint(A, -A) from one eigensolve: spec(-A) = -spec(A)."""
    lam = hermitian_eigen(A, tol).eigenvalues
    norm = fro(A)
    return _spectral_gap(lam, -lam, norm, norm, tol)[0]


def sylvester_solve(problem: SylvesterProblem, tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Solve a @ X - X @ b = s; dimension capped at 32 on both paths.

    Hermitian a and b (both pass is_hermitian): one stacked eigensolve
    a = Va diag(lam) Va*, b = Vb diag(mu) Vb* serves the gap check and the
    closed form X = Va [(Va* s Vb)_ij / (lam_i - mu_j)] Vb* (Bartels &
    Stewart 1972), followed by one step of iterative refinement on the
    residual s - (a X - X b) of the original a and b.

    Any other input: the n^2 x n^2 system (I kron a - b^T kron I) vec X =
    vec s is solved with partial-pivoting elimination.

    Intersecting spectra (gap within structural * (1 + |a|_F + |b|_F) on the
    Hermitian path), a singular system, or a final residual above
    residual * (1 + |s|_F) raise SingularSylvesterError.
    """
    a = as_matrix(problem.a, "a")
    b = as_matrix(problem.b, "b")
    s = as_matrix(problem.s, "s")
    n = a.shape[0]
    if b.shape != a.shape or s.shape != a.shape:
        raise LinalgError("a, b, s must share one square dimension")
    if n > SYLVESTER_MAX_DIM:
        raise LinalgError(f"dense Sylvester solve capped at dim {SYLVESTER_MAX_DIM}")
    if is_hermitian(a, tol) and is_hermitian(b, tol):
        eig = hermitian_eigen_batch(np.stack([a, b]), tol)
        (la, lb), (Va, Vb) = eig.eigenvalues, eig.vectors
        disjoint, gap = _spectral_gap(la, lb, fro(a), fro(b), tol)
        if not disjoint:
            raise SingularSylvesterError(
                f"spectra of a and b intersect (min gap {gap:.3e})"
            )
        denom = np.subtract.outer(la, lb)

        def closed_form(r: np.ndarray) -> np.ndarray:
            return Va @ ((Va.conj().T @ r @ Vb) / denom) @ Vb.conj().T

        X = closed_form(s)
        X = X + closed_form(s - (a @ X - X @ b))
    else:
        eye = np.eye(n)
        K = np.kron(eye, a) - np.kron(b.T, eye)
        try:
            x = np.linalg.solve(K, s.flatten(order="F"))
        except np.linalg.LinAlgError as exc:
            raise SingularSylvesterError(f"singular Sylvester system: {exc}") from exc
        X = x.reshape((n, n), order="F")
    residual = fro(a @ X - X @ b - s)
    if residual > tol.residual * (1.0 + fro(s)):
        raise SingularSylvesterError(
            f"Sylvester system numerically singular: residual {residual:.3e}"
        )
    return X


# ---------------------------------------------------------------------------
# Numerical range
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RangeCertificate:
    """Membership of 0 in the numerical range, with a checkable witness.

    When 0 is excluded the witness is an angle theta with
    lambda_min(Re(e^{i theta} M)) = margin > 0.  When 0 is contained the
    witness is a unit vector x with |<Mx, x>| = witness_value ~ 0.
    """

    contains_zero: bool
    margin: float
    witness_angle: float | None = None
    witness_vector: np.ndarray | None = None
    witness_value: float | None = None
    indeterminate: bool = False


# Refinement of the best grid angle: each step is one stacked eigensolve over
# _ZOOM_ANGLES equally spaced angles of the bracket, and the best of them with
# its two neighbours brackets the next step (a 15.5-fold shrink per step).
_ZOOM_ANGLES = 32
_ZOOM_STEPS = 5
# Rows of the chord search's pair table computed at a time.
_CHORD_BLOCK = 64


def _rotated_min(M: np.ndarray, thetas: np.ndarray, tol: Tolerances):
    """lambda_min of Re(e^{i theta} M) for each angle, and the full
    eigenvector matrices, from one stacked eigensolve."""
    R = np.exp(1j * thetas)[:, None, None] * M
    eig = hermitian_eigen_batch(0.5 * (R + R.conj().transpose(0, 2, 1)), tol)
    return eig.eigenvalues[:, 0], eig.vectors


def _zoom(M: np.ndarray, V: np.ndarray, theta: float, margin: float, width: float,
          tol: Tolerances) -> tuple[float, float]:
    """Best angle and margin of lambda_min(Re(e^{i theta} M)) on
    [theta - width, theta + width], starting from the known margin at theta.

    Each step solves V* Re(e^{i theta} M) V = cos(theta) V*AV - sin(theta)
    V*BV (A, B the Cartesian parts of M), which has the same eigenvalues.
    V starts as the eigenbasis at theta and moves to that of each step's
    best angle, so the stacked matrices are nearly diagonal and the Jacobi
    sweeps converge quickly.  Where 0 is outside
    W(M) the margin is unimodal on the bracket, since each superlevel set
    {theta: margin > c > 0} is an arc, so the maximum stays inside the
    shrinking bracket.
    """
    A = 0.5 * (M + M.conj().T)
    B = (M - M.conj().T) / 2j
    lo, hi = theta - width, theta + width
    best_theta, best_margin = theta, margin
    for _ in range(_ZOOM_STEPS):
        Vh = V.conj().T
        thetas = np.linspace(lo, hi, _ZOOM_ANGLES)
        H = (np.cos(thetas)[:, None, None] * (Vh @ A @ V)
             - np.sin(thetas)[:, None, None] * (Vh @ B @ V))
        eig = hermitian_eigen_batch(H, tol)
        j = int(np.argmax(eig.eigenvalues[:, 0]))
        if eig.eigenvalues[j, 0] > best_margin:
            best_theta, best_margin = float(thetas[j]), float(eig.eigenvalues[j, 0])
        V = V @ eig.vectors[j]
        lo, hi = thetas[max(j - 1, 0)], thetas[min(j + 1, _ZOOM_ANGLES - 1)]
    return best_theta, best_margin


def _closest_chord(w: np.ndarray) -> tuple[int, int]:
    """The pair (a, b) whose chord [w_a, w_b] passes closest to 0, the first
    in row-major order among equals.

    Evaluates the expressions of the full len(w) x len(w) table one block of
    rows at a time, into four buffers reused across blocks, so no table is
    held and no temporary is allocated per block.
    """
    n = len(w)
    d = np.empty((_CHORD_BLOCK, n), dtype=complex)
    q = np.empty_like(d)
    r = np.empty(d.shape)
    t = np.empty(d.shape)
    best, pair = np.inf, (0, 0)
    for r0 in range(0, n, _CHORD_BLOCK):
        wr = w[r0:r0 + _CHORD_BLOCK, None]
        m = len(wr)
        db, qb, rb, tb = d[:m], q[:m], r[:m], t[:m]
        np.subtract(wr, w, out=db)  # d = w_a - w_b
        np.square(np.abs(db, out=rb), out=rb)  # |d|^2, 1 where it vanishes
        rb[rb == 0.0] = 1.0
        np.multiply(wr.conj(), db, out=qb)  # t = clip(Re(conj(w_a) d) / |d|^2)
        np.clip(np.divide(qb.real, rb, out=tb), 0.0, 1.0, out=tb)
        np.subtract(wr, np.multiply(tb, db, out=qb), out=qb)  # |w_a - t d|
        np.abs(qb, out=rb)
        k = int(np.argmin(rb))
        if rb.flat[k] < best:
            best, pair = rb.flat[k], (r0 + k // n, k % n)
    return pair


def _quadratic_form(M: np.ndarray, x: np.ndarray) -> complex:
    return complex(x.conj() @ (M @ x))


def _hermitian_zero_witness(eig, tol: Tolerances) -> np.ndarray:
    lam = eig.eigenvalues
    V = eig.vectors
    i = int(np.argmin(np.abs(lam)))
    if abs(lam[i]) <= tol.structural:
        return V[:, i]
    lo, hi = float(lam[0]), float(lam[-1])
    # Mix extreme eigenvectors so the form's value interpolates to zero.
    t = np.clip(hi / (hi - lo), 0.0, 1.0) if hi > lo else 1.0
    return np.sqrt(t) * V[:, 0] + np.sqrt(1.0 - t) * V[:, -1]


def _pair_zero_witness(M: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """Minimize |<My, y>| over unit y in span{x1, x2} by nested grid search.

    The compression of M to the span has a convex numerical range containing
    the form values at x1 and x2, so when the segment between them passes
    through 0 a zero of the form exists in the span.
    """
    u = x1 / np.linalg.norm(x1)
    v = x2 - (u.conj() @ x2) * u
    nv = np.linalg.norm(v)
    if nv < 1e-12:
        return u
    v = v / nv
    muu = _quadratic_form(M, u)
    mvv = _quadratic_form(M, v)
    muv = complex(u.conj() @ (M @ v))
    mvu = complex(v.conj() @ (M @ u))

    a_lo, a_hi = 0.0, 0.5 * np.pi
    p_lo, p_hi = 0.0, 2.0 * np.pi
    best = (0.0, 0.0)
    for _ in range(12):
        alphas = np.linspace(a_lo, a_hi, 64)
        phis = np.linspace(p_lo, p_hi, 64)
        A, P = np.meshgrid(alphas, phis, indexing="ij")
        c, s = np.cos(A), np.sin(A)
        q = c * c * muu + s * s * mvv + c * s * (np.exp(1j * P) * muv + np.exp(-1j * P) * mvu)
        idx = np.unravel_index(np.argmin(np.abs(q)), q.shape)
        best = (float(A[idx]), float(P[idx]))
        da = (a_hi - a_lo) / 16.0
        dp = (p_hi - p_lo) / 16.0
        a_lo, a_hi = best[0] - da, best[0] + da
        p_lo, p_hi = best[1] - dp, best[1] + dp
    alpha, phi = best
    y = np.cos(alpha) * u + np.sin(alpha) * np.exp(1j * phi) * v
    return y / np.linalg.norm(y)


def numerical_range_contains_zero(
    M,
    tol: Tolerances = DEFAULT_TOL,
    grid: int = 720,
) -> RangeCertificate:
    """Decide 0 in W(M) using convexity of the numerical range.

    0 is outside W(M) iff some rotation angle theta gives
    lambda_min(Re(e^{i theta} M)) > 0 (Johnson 1978).  The angle is found by
    six stacked eigensolves (hermitian_eigen_batch): one over the grid
    angles, then five zoom steps, each over 32 equally spaced angles of a
    bracket that starts two grid steps wide around the best grid angle and
    keeps the best angle with its two neighbours, ending about 2e-8 rad wide.
    The zoom is warm-started: it solves the rotated parts in the eigenbasis
    of the best grid angle (then of each step's best angle), which leaves
    the eigenvalues unchanged and the matrices nearly diagonal.  Hermitian
    input short-circuits to the interval test on the spectrum.  Best margins
    within the indeterminate band of zero are flagged rather than trusted.

    When 0 is contained, the vector witness comes from the two grid
    eigenvectors whose form values span the chord passing closest to 0; that
    search over all grid pairs runs in row blocks, so it builds no
    grid x grid arrays.
    """
    M = as_matrix(M, "M")
    n = M.shape[0]
    band = tol.structural * (1.0 + fro(M))

    if is_hermitian(M, tol):
        eig = hermitian_eigen(0.5 * (M + M.conj().T), tol)
        lo, hi = float(eig.eigenvalues[0]), float(eig.eigenvalues[-1])
        margin = max(lo, -hi)  # distance by which the interval avoids 0
        if margin > band:
            theta = 0.0 if lo > 0 else np.pi
            return RangeCertificate(False, margin, witness_angle=theta)
        x = _hermitian_zero_witness(eig, tol)
        val = abs(_quadratic_form(M, x))
        return RangeCertificate(
            margin <= 0.0, margin, witness_vector=x, witness_value=val,
            indeterminate=abs(margin) <= band,
        )

    if n == 1:
        val = abs(complex(M[0, 0]))
        if val > band:
            theta = -np.angle(complex(M[0, 0]))
            return RangeCertificate(False, val, witness_angle=float(theta))
        return RangeCertificate(
            True, -val, witness_vector=np.ones(1, dtype=complex), witness_value=val
        )

    thetas = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    margins, vectors = _rotated_min(M, thetas, tol)
    j = int(np.argmax(margins))
    best_theta, best_margin = _zoom(
        M, vectors[j], float(thetas[j]), float(margins[j]), 2.0 * np.pi / grid, tol
    )

    if best_margin > band:
        return RangeCertificate(False, best_margin, witness_angle=best_theta % (2 * np.pi))

    # 0 lies in (or on the boundary of) W(M): produce a vector witness from
    # the pair of boundary points whose chord passes closest to 0.
    vectors = vectors[:, :, 0]
    w = np.einsum("ji,ik,jk->j", vectors.conj(), M, vectors)
    a, b = _closest_chord(w)
    x = _pair_zero_witness(M, vectors[a], vectors[b])
    val = abs(_quadratic_form(M, x))
    return RangeCertificate(
        best_margin <= 0.0,
        best_margin,
        witness_vector=x,
        witness_value=val,
        indeterminate=abs(best_margin) <= band,
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
    T self-adjoint and invertible), the dual on Im T (forces T skew), then
    the numerical-range hypotheses 0 not in W(Re T) / W(Im T).
    """
    T = as_matrix(T, "T")
    C = as_matrix(C, "C")
    if T.shape != C.shape:
        raise LinalgError("T and C must share one square dimension")
    require_hermitian(C, tol, "C")
    if fro(T @ T - C) > tol.residual * (1.0 + fro(C)):
        raise LinalgError("precondition T^2 = C fails beyond residual tolerance")
    parts = cartesian_parts(T, tol)
    A, B = parts.re, parts.im
    sys_res = (
        fro(A @ A - B @ B - C),
        fro(A @ B + B @ A),
    )
    scale = 1.0 + fro(T)
    small = tol.residual * scale
    inv_band = tol.structural * scale

    def invertible() -> bool:
        # sigma_min(T) = sqrt(lambda_min(T* T)), the smallest eigenvalue of |T|.
        G = T.conj().T @ T
        lam_min = float(hermitian_eigen(0.5 * (G + G.conj().T), tol).eigenvalues[0])
        return float(np.sqrt(max(lam_min, 0.0))) > inv_band

    def excludes_zero(H: np.ndarray) -> bool:
        rc = numerical_range_contains_zero(H, tol)
        return not rc.contains_zero and not rc.indeterminate

    # Each hypothesis: evidence, case, test, the Cartesian part the
    # conclusion forces to vanish, whether it also forces invertibility, and
    # the violation message.  Tested lazily in this order; the first that
    # holds decides.
    hypotheses = (
        ("spectra_disjoint_re", "selfadjoint_invertible", lambda: _negation_disjoint(A, tol),
         B, True, "spectra of Re T and -Re T disjoint but T is not a self-adjoint "
         "invertible root (||Im T|| = {:.3e})"),
        ("spectra_disjoint_im", "skew_invertible", lambda: _negation_disjoint(B, tol),
         A, True, "spectra of Im T and -Im T disjoint but T is not a skew invertible "
         "root (||Re T|| = {:.3e})"),
        ("numerical_range_re", "selfadjoint_invertible", lambda: excludes_zero(A),
         B, False, "0 not in W(Re T) but ||Im T|| = {:.3e} is not negligible"),
        # Conclusion here is T = i Im T; reported as the skew case.
        ("numerical_range_im", "skew_invertible", lambda: excludes_zero(B),
         A, False, "0 not in W(Im T) but ||Re T|| = {:.3e} is not negligible"),
    )
    for evidence, case, holds, vanishing, needs_inverse, message in hypotheses:
        if holds():
            residual = fro(vanishing)
            ok = residual <= small and (not needs_inverse or invertible())
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
    """

    norm_t: float
    square_norm: float
    system_residuals: tuple[float, float]
    hypotheses: dict
    conclusion_zero: bool
    re_margins: tuple[float, float]
    im_margins: tuple[float, float]
    re_indefinite: bool
    im_indefinite: bool
    violation: str | None = None


def _sign_status(lam_min: float, lam_max: float, band: float, mode: str) -> str:
    ind = INDETERMINATE_FACTOR * band
    value = lam_min if mode == "psd" else -lam_max
    if value >= -band:
        return "holds"
    if value >= -ind:
        return "indeterminate"
    return "fails"


def check_zero_square(T, tol: Tolerances = DEFAULT_TOL) -> ZeroSquareReport:
    """Check the nilpotent (T^2 = 0) consequences on one instance."""
    T = as_matrix(T, "T")
    square = T @ T
    scale2 = 1.0 + fro(T) ** 2
    square_norm = fro(square)
    if square_norm > tol.residual * scale2:
        raise LinalgError("precondition T^2 = 0 fails beyond residual tolerance")
    parts = cartesian_parts(T, tol)
    A, B = parts.re, parts.im
    sys_res = (fro(A @ A - B @ B), fro(A @ B + B @ A))
    la = hermitian_eigen(A, tol).eigenvalues
    lb = hermitian_eigen(B, tol).eigenvalues
    re_margins = (float(la[0]), float(la[-1]))
    im_margins = (float(lb[0]), float(lb[-1]))
    band = tol.structural * (1.0 + fro(T))
    ind = INDETERMINATE_FACTOR * band
    hypotheses = {
        "re_psd": _sign_status(*re_margins, band, "psd"),
        "re_nsd": _sign_status(*re_margins, band, "nsd"),
        "im_psd": _sign_status(*im_margins, band, "psd"),
        "im_nsd": _sign_status(*im_margins, band, "nsd"),
    }
    norm_t = fro(T)
    conclusion_zero = norm_t <= ind
    violation = None
    if any(v == "holds" for v in hypotheses.values()) and not conclusion_zero:
        violation = (
            "THEOREM VIOLATION: a sign hypothesis holds on a nonzero nilpotent "
            f"(||T|| = {norm_t:.3e}, hypotheses = {hypotheses})"
        )
    re_indefinite = re_margins[0] < -ind and re_margins[1] > ind
    im_indefinite = im_margins[0] < -ind and im_margins[1] > ind
    return ZeroSquareReport(
        norm_t=norm_t,
        square_norm=square_norm,
        system_residuals=sys_res,
        hypotheses=hypotheses,
        conclusion_zero=conclusion_zero,
        re_margins=re_margins,
        im_margins=im_margins,
        re_indefinite=re_indefinite,
        im_indefinite=im_indefinite,
        violation=violation,
    )


def sample_nilpotent(dim: int, seed: int = 0, canonical: bool = False) -> np.ndarray:
    """Deterministic order-two nilpotent: a strictly block upper-triangular
    2x2 block matrix conjugated by a random unitary.

    canonical=True skips the random rotation and uses an identity block
    (dim 2 gives [[0, 1], [0, 0]]).  dim 1 has only the zero nilpotent.
    """
    if not (isinstance(dim, (int, np.integer)) and dim >= 1):
        raise ValueError("dim must be a positive integer")
    if dim == 1:
        return np.zeros((1, 1), dtype=complex)
    k = (dim + 1) // 2
    m = dim // 2
    base = np.zeros((dim, dim), dtype=complex)
    if canonical:
        base[:k, k:] = np.eye(k, m)
        return base
    rng = np.random.default_rng(seed)
    base[:k, k:] = rng.standard_normal((k, m)) + 1j * rng.standard_normal((k, m))
    G = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(G)
    return Q @ base @ Q.conj().T


def commutator_identities(T, tol: Tolerances = DEFAULT_TOL) -> tuple[float, float]:
    """Residuals of [C, B] = [A, D] and [A, C] = [B, D] where (A, B) are the
    Cartesian parts of T and (C, D) those of T^2.  Both vanish identically:
    expanding T^2 gives C = A^2 - B^2 and D = AB + BA, and substituting
    A^2 = B^2 + C (resp. B^2 = A^2 - C) into A^2 B - B A^2 = AD - DA yields
    the two brackets.  In particular BC = CB iff AD = DA, and AC = CA iff
    BD = DB."""
    T = as_matrix(T, "T")
    ab = cartesian_parts(T, tol)
    cd = cartesian_parts(T @ T, tol)
    A, B, C, D = ab.re, ab.im, cd.re, cd.im

    def comm(X, Y):
        return X @ Y - Y @ X

    return (
        fro(comm(C, B) - comm(A, D)),
        fro(comm(A, C) - comm(B, D)),
    )


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
    commutation_residual: float | None
    commutes: bool | None
    agree: bool | None
    indeterminate: bool
    selfadjoint_clause_checked: bool
    violation: str | None = None


def _definite(lam: np.ndarray, band: float) -> bool:
    return float(lam[0]) >= -band or float(lam[-1]) <= band


def normality_equivalence(T, tol: Tolerances = DEFAULT_TOL) -> NormalityReport:
    """Evaluate the biconditional between normality of T and commutation of
    the sign-definite Cartesian part with Im T^2."""
    T = as_matrix(T, "T")
    parts = cartesian_parts(T, tol)
    A, B = parts.re, parts.im
    S = T @ T
    D = cartesian_parts(S, tol).im
    band = tol.structural * (1.0 + fro(T))
    la = hermitian_eigen(A, tol).eigenvalues
    lb = hermitian_eigen(B, tol).eigenvalues
    if _definite(la, band):
        applicable, part = "re", A
    elif _definite(lb, band):
        applicable, part = "im", B
    else:
        applicable, part = None, None

    adj = T.conj().T
    defect = fro(adj @ T - T @ adj)
    thr_n = tol.structural * (1.0 + fro(T) ** 2)
    normal = defect <= thr_n
    if applicable is None:
        return NormalityReport(
            applicable=None,
            defect=defect,
            normal=normal,
            commutation_residual=None,
            commutes=None,
            agree=None,
            indeterminate=False,
            selfadjoint_clause_checked=False,
        )

    cres = fro(part @ D - D @ part)
    thr_c = tol.structural * (1.0 + fro(T) ** 3)
    commutes = cres <= thr_c
    in_band = (
        thr_n < defect <= INDETERMINATE_FACTOR * thr_n
        or thr_c < cres <= INDETERMINATE_FACTOR * thr_c
    )
    agree = None if in_band else (normal == commutes)
    violation = None
    if agree is False:
        violation = (
            "THEOREM VIOLATION: normality and commutation disagree "
            f"(defect {defect:.3e}, [part, Im T^2] residual {cres:.3e})"
        )
    # Final clause: Hermitian T^2 plus a sign-definite part forces normality.
    clause_checked = fro(D) <= tol.structural * (1.0 + fro(S))
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
    arithmetic for every integer k."""
    A = as_matrix(A, "A")
    if not isinstance(k, (int, np.integer)):
        raise ValueError("k must be an integer")
    shifted = A + 2.0 * np.pi * int(k) * np.eye(A.shape[0])
    return fro(expi(shifted, tol) - expi(A, tol))
