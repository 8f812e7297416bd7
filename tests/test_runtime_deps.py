"""The runtime is numpy-only and solves its own eigenproblems: no module of
the package imports anything but numpy, the standard library and itself, or
reaches LAPACK's eigensolvers or SVD through numpy.linalg.  np.linalg.norm,
solve, qr and cholesky (the sign tests' potrf) stay allowed.  Tests may use
LAPACK as an oracle."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "normalroots"
ALLOWED_ROOTS = {"numpy", PACKAGE.name} | set(sys.stdlib_module_names)
FORBIDDEN_CALLS = {"eig", "eigh", "eigvals", "eigvalsh", "svd", "svdvals"}


def _violations(source: str) -> list:
    """(line, reason) for each forbidden import, binding of numpy.linalg or
    call in the module source."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] not in ALLOWED_ROOTS:
                    found.append((node.lineno, f"imports {alias.name}"))
                if alias.name == "numpy.linalg" or alias.name.startswith("numpy.linalg."):
                    found.append((node.lineno, f"binds {alias.name}"))
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] not in ALLOWED_ROOTS:
                found.append((node.lineno, f"imports from {module}"))
            if module == "numpy.linalg" or module.startswith("numpy.linalg."):
                found.append((node.lineno, f"imports from {module}"))
            if module == "numpy" and any(a.name == "linalg" for a in node.names):
                found.append((node.lineno, "binds numpy.linalg"))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.NamedExpr)):
            value = node.value
            if isinstance(value, ast.Attribute) and value.attr == "linalg":
                found.append((node.lineno, "binds numpy.linalg"))
        elif isinstance(node, ast.Call):
            func = node.func
            if isinstance(func, ast.Attribute) and func.attr in FORBIDDEN_CALLS:
                found.append((node.lineno, f"calls .{func.attr}"))
    return found


def test_package_is_numpy_only_without_lapack_eigensolvers():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert modules
    bad = {
        str(path.relative_to(PACKAGE)): found
        for path in modules
        if (found := _violations(path.read_text()))
    }
    assert bad == {}


@pytest.mark.parametrize("source", [
    "import scipy.linalg",
    "from scipy import linalg",
    "from numpy import linalg as la\nla.eigh(H)",
    "import numpy.linalg as nla",
    "from numpy.linalg import eigh",
    "import numpy as np\nla = np.linalg",
    "np.linalg.svd(M)",
    "H.eigvalsh()",
])
def test_guard_rejects_each_forbidden_form(source):
    assert _violations(source)


def test_guard_allows_norm_solve_and_qr():
    source = "import math\nimport numpy as np\nfrom . import linalg\nfrom .linalg import fro\n"
    source += "np.linalg.norm(M)\nnp.linalg.solve(A, b)\nnp.linalg.qr(A)\nlinalg.hermitian_eigvals(H)\n"
    source += "np.linalg.cholesky(X)\n"
    assert _violations(source) == []
