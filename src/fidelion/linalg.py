"""Hermiticity test and partial trace for small operators (dimension <= 64).

Spectra are not computed here: a state's eigendecomposition belongs to
:class:`fidelion.states.DensityMatrix`, which takes it once at
construction.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SizeOverflowError

#: Entrywise tolerance for treating a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Largest supported matrix dimension.
MAX_DIM = 64


def _check_size(m: np.ndarray) -> np.ndarray:
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max(m.shape) > MAX_DIM:
        raise SizeOverflowError(f"dimension {max(m.shape)} exceeds {MAX_DIM}")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    m = np.asarray(m)
    return m.shape[0] == m.shape[1] and np.abs(m - m.conj().T).max() <= HERMITIAN_TOL


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
