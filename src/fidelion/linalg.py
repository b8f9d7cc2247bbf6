"""Hermiticity test and partial trace for small operators (dimension <= 64).

Both act on the last two axes, so a stack of operators ``(..., n, n)`` is
handled in one call.

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
    if m.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max(m.shape[-2:]) > MAX_DIM:
        raise SizeOverflowError(f"dimension {max(m.shape[-2:])} exceeds {MAX_DIM}")
    return m


def is_hermitian(m: np.ndarray) -> bool:
    """Whether every square matrix of ``m`` (one matrix, or a stack
    ``(..., n, n)``) is Hermitian within ``HERMITIAN_TOL`` entrywise."""
    m = np.asarray(m)
    if m.shape[-1] != m.shape[-2]:
        return False
    return np.abs(m - m.conj().swapaxes(-1, -2)).max() <= HERMITIAN_TOL


def partial_trace(m: np.ndarray, dims: tuple[int, int], keep: str) -> np.ndarray:
    """Trace out one subsystem of a bipartite operator.

    Parameters
    ----------
    m : ndarray
        Square matrix of size ``dims[0] * dims[1]``, or a stack of them
        along leading axes.
    dims : (int, int)
        Local dimensions ``(d_A, d_B)``.
    keep : {"A", "B"}
        Subsystem whose reduced operator is returned.
    """
    m = _check_size(m)
    d_a, d_b = dims
    if m.shape[-2:] != (d_a * d_b, d_a * d_b):
        raise DimensionMismatchError(
            f"matrix shape {m.shape[-2:]} does not match dims {dims}"
        )
    r = m.reshape(m.shape[:-2] + (d_a, d_b, d_a, d_b))
    if keep == "A":
        return np.einsum("...ijkj->...ik", r)
    if keep == "B":
        return np.einsum("...ijil->...jl", r)
    raise DimensionMismatchError(f"keep must be 'A' or 'B', got {keep!r}")
