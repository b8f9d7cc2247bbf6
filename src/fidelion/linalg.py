"""Partial trace of small operators (dimension <= 64).

It acts on the last two axes, so a stack of operators ``(..., n, n)`` is
handled in one call, and it keeps a real operator real, so its reduced
operator can take a real symmetric eigensolve.

Spectra are not computed here: a state's eigenvalues are taken once, by
the validation in :mod:`fidelion.states`, and its eigenvectors only by
the base-2 log there.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatchError, SizeOverflowError

#: Largest supported matrix dimension.
MAX_DIM = 64


def _check_size(m: np.ndarray) -> np.ndarray:
    # a real operator stays real, an integer one becomes float
    m = np.asarray(m, dtype=complex if np.iscomplexobj(m) else float)
    if m.ndim < 2:
        raise DimensionMismatchError(f"expected a matrix, got shape {m.shape}")
    if max(m.shape[-2:]) > MAX_DIM:
        raise SizeOverflowError(f"dimension {max(m.shape[-2:])} exceeds {MAX_DIM}")
    return m


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

    A real operator gives a float64 result and a complex one a complex
    result; an integer operator comes out as float64.
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
