"""Normal square and nth roots of complex matrices, with executable checks
for the structural theorems behind the constructions."""

from .linalg import (
    DEFAULT_TOL,
    CartesianPair,
    ConvergenceError,
    HermitianEigen,
    IndefiniteError,
    LinalgError,
    MatrixFlags,
    NotHermitianError,
    NotNormalError,
    NotUnitaryError,
    PolarForm,
    Tolerances,
    abs_op,
    cartesian_parts,
    classify,
    expi,
    hermitian_eigen,
    hermitian_eigen_batch,
    hermitian_eigvals,
    normal_eigen,
    operator_norm,
    polar_normal,
    psd_root,
    recompose,
    unitary_log,
)
from .matio import MatrixFormatError, load_matrix, save_matrix
from .roots import (
    RootCertificate,
    nth_root,
    root_pow2n,
    sign_case,
    spectral_sqrt,
    sqrt_signdef,
    verify_root,
)
from .theoremlab import (
    ClassificationVerdict,
    NormalityReport,
    RangeCertificate,
    SingularSylvesterError,
    SylvesterProblem,
    ZeroSquareReport,
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

__version__ = "0.1.0"
