"""Every structural and residual verdict is relative to the norm of the
matrix it is given and taken on that matrix scaled by a power of two, so
2^k X gets the verdicts of X wherever 2^k X keeps the bits of X.
Hypothesis draws X at unit scale and k in [-1000, 1000]; Hermitian and
skew-Hermitian X are exactly so, because parts that are rounding noise
(1e-17) would fall below the normal float range at 2^-1000 and lose it.

Outputs scale with their inputs, bit for bit: an nth root of 2^(nk) N is
2^k times the root of N, and the Sylvester solution of (2^k a, 2^k b, 2^j s)
is 2^(j - k) times that of (a, b, s), or a LinalgError naming the float
range exactly when 2^(j - k) X leaves it.  The reference is computed on the
scaled input brought back to unit scale, which holds the same bits where
scaling down flushed some of them."""

import json
import os
import tempfile
from dataclasses import asdict

import numpy as np
from hypothesis import example, given, settings, strategies as st

from normalroots.cli import main
from normalroots.linalg import LinalgError, cartesian_parts, classify, fro
from normalroots.matio import save_matrix
from normalroots.roots import nth_root, root_pow2n, sign_case, spectral_sqrt, sqrt_signdef
from normalroots.sampling import random_hermitian, random_normal, random_psd, random_unitary
from normalroots.theoremlab import (
    SylvesterProblem,
    check_zero_square,
    classify_root_of_selfadjoint,
    normality_equivalence,
    sample_nilpotent,
    spectra_disjoint,
    sylvester_solve,
)

KINDS = ("psd", "nsd", "singular_psd", "hermitian", "skew", "normal", "dense", "nilpotent",
         "zero")


def _hermitian(M: np.ndarray) -> np.ndarray:
    return 0.5 * (M + M.conj().T)


def _matrix(kind: str, n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if kind in ("psd", "nsd"):
        return (1.0 if kind == "psd" else -1.0) * _hermitian(random_psd(rng, n))
    if kind == "singular_psd":
        lam = rng.uniform(0.5, 2.0, n)
        lam[0] = 0.0
        U = random_unitary(rng, n)
        return _hermitian((U * lam) @ U.conj().T)
    if kind in ("hermitian", "skew"):
        return (1.0 if kind == "hermitian" else 1j) * random_hermitian(rng, n)
    if kind == "normal":
        return random_normal(rng, n)[0]
    if kind == "dense":
        return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    if kind == "nilpotent":
        return sample_nilpotent(n, seed)
    return np.zeros((n, n), dtype=complex)


def _up(M: np.ndarray, k: int) -> np.ndarray:
    return np.ldexp(M.real, k) + 1j * np.ldexp(M.imag, k)


def _outcome(f, *args):
    """f(*args), or the name of the LinalgError it raised."""
    try:
        return f(*args)
    except LinalgError as exc:
        return type(exc).__name__


def _verdicts(X: np.ndarray, k: int, workdir: str) -> dict:
    """Every verdict on inputs built from X at unit scale, then scaled by
    2^k (2^(2j) for the target C = T^2 of a root T at 2^j, j = k // 2, which
    keeps C inside the float range)."""
    A, B = cartesian_parts(X).re, cartesian_parts(X).im
    shift = (2.0 * fro(X) + 1.0) * np.eye(len(X))
    flags = asdict(classify(_up(X, k)))
    del flags["unitary"]
    path, report = os.path.join(workdir, "X.mat"), os.path.join(workdir, "r.json")
    save_matrix(path, _up(X, k))
    assert main(["decompose", path, "--json", report]) == 0
    with open(report) as fh:
        cli_flags = json.load(fh)["results"]["flags"]
    del cli_flags["unitary"]

    def raises(a, b, s):
        problem = SylvesterProblem(_up(a, k), _up(b, k), _up(s, k))
        return isinstance(_outcome(sylvester_solve, problem), str)

    def zero_square(T):
        r = check_zero_square(T)
        return (r.hypotheses, r.conclusion_zero, r.re_indefinite, r.im_indefinite,
                r.violation is None)

    def normality(T):
        r = asdict(normality_equivalence(T))
        return {key: r[key] for key in ("applicable", "normal", "commutes", "agree",
                                        "indeterminate", "selfadjoint_clause_checked")} | {
            "violation": r["violation"] is None}

    def root_case(T):
        C = T @ T
        C = 0.5 * (C + C.conj().T)
        v = classify_root_of_selfadjoint(_up(T, k // 2), _up(C, 2 * (k // 2)))
        return v.case, v.evidence, v.violation is None

    return {
        "classify": flags,
        "decompose": cli_flags,
        "sign_case": [_outcome(sign_case, _up(H, k)) for H in (A, B)],
        "disjoint": [_outcome(lambda a, b: spectra_disjoint(_up(a, k), _up(b, k))[0], a, b)
                     for a, b in ((A, B), (A, -A), (A, A), (A + shift, -A - shift))],
        "sylvester": [raises(A, B, X), raises(A, A, X), raises(A + shift, B - shift, X),
                      raises(X + shift, X - shift, A), raises(X, X, X)],
        "zero_square": _outcome(zero_square, _up(X, k)),
        "normality": [_outcome(normality, _up(T, k)) for T in (X, X + shift, X - 1j * shift)],
        "root": [_outcome(root_case, T) for T in (X, A, 1j * B)],
    }


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(KINDS), st.integers(1, 4), st.integers(0, 2**16),
       st.integers(-1000, 1000))
def test_every_verdict_is_the_same_at_every_power_of_two_scale(kind, n, seed, k):
    X = _matrix(kind, n, seed)
    with tempfile.TemporaryDirectory() as workdir, np.errstate(over="raise", invalid="raise"):
        assert _verdicts(X, k, workdir) == _verdicts(X, 0, workdir)


def _times(M: np.ndarray, k: int) -> np.ndarray:
    """2^k M, each part rounded once, inf where it overflows (no warning)."""
    with np.errstate(over="ignore"):
        return np.ldexp(np.ascontiguousarray(M, dtype=complex).view(float), k).view(complex)


def _result(f, *args):
    """f(*args), or the LinalgError it raised."""
    try:
        return f(*args)
    except LinalgError as exc:
        return exc


def _normal(kind: str, n: int, seed: int) -> np.ndarray:
    """A normal matrix at unit scale: imaginary part psd ("upper"), nsd
    ("lower") or indefinite ("any"), a zero eigenvalue ("singular"), or
    eigenvalues on the negative real axis, the square-root branch cut ("cut")."""
    rng = np.random.default_rng(seed)
    mu = rng.uniform(0.2, 3.0, n) * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    if kind in ("upper", "singular"):
        mu = mu.real + 1j * abs(mu.imag)
    elif kind == "lower":
        mu = mu.real - 1j * abs(mu.imag)
    elif kind == "cut":
        mu = -abs(mu)
    if kind == "singular":
        mu[0] = 0.0
    U = random_unitary(rng, n)
    return (U * mu) @ U.conj().T


ROOTS = (
    ("sqrt_signdef", sqrt_signdef, 2),
    ("spectral_sqrt", spectral_sqrt, 2),
    ("nth_root", lambda N: nth_root(N, 3, 2), 3),
    ("nth_root", lambda N: nth_root(N, 5), 5),
    ("root_pow2n", lambda N: root_pow2n(N, 2), 4),
)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(("upper", "lower", "any", "singular", "cut")), st.integers(1, 4),
       st.integers(0, 2**16), st.integers(-1000, 1000))
@example("upper", 3, 7, -1000)
@example("lower", 3, 7, 1000)
def test_every_root_scales_exactly(kind, n, seed, j):
    # The root of order m of 2^(mk) N, k = j // m, is 2^k times the root of N.
    N = _normal(kind, n, seed)
    with np.errstate(over="raise", invalid="raise"):
        for name, root, order in ROOTS:
            k = j // order
            scaled = _times(N, order * k)
            got = _result(root, scaled)
            want = _result(root, _times(scaled, -order * k))
            if isinstance(want, LinalgError):
                assert type(got) is type(want), name
                continue
            assert not isinstance(got, LinalgError), (name, got)
            assert got.root.tobytes() == _times(want.root, k).tobytes(), name


def _sylvester_inputs(kind: str, n: int, seed: int):
    """(a, b, s) at unit scale: Hermitian a and b with disjoint spectra (the
    eigenbasis path), dense ones (the Kronecker path), or equal ones
    (singular)."""
    X, s = _matrix("dense", n, seed), _matrix("dense", n, seed + 1)
    shift = (2.0 * fro(X) + 1.0) * np.eye(n)
    if kind == "hermitian":
        parts = cartesian_parts(X)
        return parts.re + shift, parts.im - shift, s
    if kind == "dense":
        return X + shift, X - shift, s
    return X, X, s


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(("hermitian", "dense", "singular")), st.integers(1, 4),
       st.integers(0, 2**16), st.integers(-1000, 1000), st.integers(-1000, 1000))
@example("hermitian", 2, 3, -1000, 1000)
@example("dense", 2, 3, 1000, -1000)
@example("hermitian", 2, 3, 20, -20)
def test_sylvester_solution_scales_exactly(kind, n, seed, j, k):
    # Scaling s by 2^j scales X by 2^j; scaling a and b by 2^k, by 2^-k.
    a, b, s = _sylvester_inputs(kind, n, seed)
    a, b, s = _times(a, k), _times(b, k), _times(s, j)
    with np.errstate(over="raise", invalid="raise"):
        got = _result(sylvester_solve, SylvesterProblem(a, b, s))
        want = _result(sylvester_solve,
                       SylvesterProblem(_times(a, -k), _times(b, -k), _times(s, -j)))
    if isinstance(want, LinalgError):
        assert type(got) is type(want)
        return
    expected = _times(want, j - k)
    peak = np.abs(expected.view(float)).max()
    if not np.isfinite(peak) or (want.any() and peak < np.finfo(float).tiny):
        assert type(got) is LinalgError and "the float range" in str(got), got
    else:
        assert not isinstance(got, LinalgError), got
        assert got.tobytes() == expected.tobytes()
