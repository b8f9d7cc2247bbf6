"""Dense complex-matrix kernel for small operators (dimension <= 64).

Eigendecompositions go through LAPACK (``numpy.linalg``); everything here
is a thin, validated wrapper that fixes conventions used by the rest of
the package: ascending eigenvalues and base-2 logarithms throughout.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    DimensionMismatchError,
    NoConvergenceError,
    NonHermitianError,
    SizeOverflowError,
)

#: Entrywise tolerance for treating a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Eigenvalues at or below this are treated as outside the support.
SUPPORT_EPS = 1e-12

#: Largest supported matrix dimension.
MAX_DIM = 64


class HermitianSpectrum(NamedTuple):
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are ascending; ``eigenvectors`` holds the matching
    orthonormal eigenvectors as columns. Within a degenerate cluster the
    eigenvector order is unspecified; depend only on eigenvalues or on
    subspace projectors.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_size(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max(m.shape) > MAX_DIM:
        raise SizeOverflowError(f"dimension {max(m.shape)} exceeds {MAX_DIM}")
    return m


def is_hermitian(m: np.ndarray, tol: float = HERMITIAN_TOL) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= tol


def hermitian_eig(m: np.ndarray) -> HermitianSpectrum:
    """Eigendecompose a Hermitian matrix.

    Raises
    ------
    NonHermitianError
        If ``max|m - m^dagger|`` exceeds ``HERMITIAN_TOL``.
    NoConvergenceError
        If the underlying LAPACK iteration does not converge.
    """
    m = _check_size(m)
    if not is_hermitian(m):
        raise NonHermitianError("matrix is not Hermitian within 1e-12")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    return HermitianSpectrum(w, v)


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Square matrix of size ``dims[0] * dims[1]``.
    dims : (int, int)
        Local dimensions ``(d_A, d_B)``.
    keep : {"A", "B"}
        Subsystem whose reduced operator is returned.
    """
    m = _check_size(m)
    d_a, d_b = dims
    if m.shape != (d_a * d_b, d_a * d_b):
        raise DimensionMismatchError(
            f"matrix shape {m.shape} does not match dims {dims}"
        )
    r = m.reshape(d_a, d_b, d_a, d_b)
    if keep == "A":
        return np.einsum("ijkj->ik", r)
    if keep == "B":
        return np.einsum("ijil->jl", r)
    raise DimensionMismatchError(f"keep must be 'A' or 'B', got {keep!r}")


def matrix_log_on_support(m: np.ndarray) -> tuple[np.ndarray, bool]:
    """Base-2 matrix logarithm restricted to the support of a PSD matrix.

    Eigenvalues above ``SUPPORT_EPS`` are mapped to ``log2``; the rest are
    mapped to zero in the log factor. Returns ``(log_matrix, deficient)``
    where ``deficient`` is True when any eigenvalue fell below the support
    cutoff; callers that need full support must reject such inputs.
    """
    w, v = hermitian_eig(m)
    on_support = w > SUPPORT_EPS
    logw = np.where(on_support, np.log2(np.where(on_support, w, 1.0)), 0.0)
    log_m = (v * logw) @ v.conj().T
    return log_m, bool(not on_support.all())
