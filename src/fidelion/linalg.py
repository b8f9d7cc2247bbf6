"""Partial trace of small operators (dimension <= 64), and fixed sparse
linear forms.

The partial trace acts on the last two axes, so a stack of operators
``(..., n, n)`` is handled in one call, and it keeps a real operator real,
so its reduced operator can take a real symmetric eigensolve.

A fixed linear form with few nonzero coefficients per output (the
Bloch-Fano coordinates, the two-qubit correlation form) is applied through
a table of its nonzero terms (:func:`sparse_form`,
:func:`apply_sparse_form`): a gather and a left-to-right sum, with no BLAS,
so its rounding is fixed by the table alone.

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


def sparse_form(a: np.ndarray, columns: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Table of the nonzero terms of the linear form ``y_k = sum_c a[k, c]
    x[columns[c]]`` (``a`` of shape (K, C); ``columns`` defaults to
    ``0 .. C - 1``), for :func:`apply_sparse_form`.

    Returns ``(index, coef)``, both of shape (T, K), T the most nonzero
    coefficients of a row of ``a``: term t of output k is ``coef[t, k] *
    x[index[t, k]]``. The terms of an output keep the column order of
    ``a``; an output with fewer than T of them is padded with coefficient-0
    terms.
    """
    nonzero = a != 0
    # a stable sort puts each row's nonzero columns first, in column order
    order = np.argsort(~nonzero, axis=1, kind="stable")[:, : nonzero.sum(axis=1).max()]
    coef = np.take_along_axis(a, order, axis=1).T.copy()
    index = order.T if columns is None else np.asarray(columns)[order.T]
    return np.ascontiguousarray(index), coef


def apply_sparse_form(form: tuple[np.ndarray, np.ndarray], x: np.ndarray) -> np.ndarray:
    """The form of a :func:`sparse_form` table on the last axis of a float
    array ``x`` (``(C',)`` or a stack ``(..., C')``): shape ``(..., K)``.

    One gather of the terms, then each output's products added left to
    right, starting from +0. So an output gets the bits of any loop that
    adds the same products in the same order from +0 (a zero product
    changes no sum), and each row of a stack gets exactly what it gets
    alone.
    """
    index, coef = form
    k = coef.shape[1]
    terms = x[..., index.ravel()]
    terms *= coef.ravel()
    y = terms[..., :k] + 0.0  # +0 + -0 is +0, as a sum from +0 gives
    for start in range(k, terms.shape[-1], k):
        y += terms[..., start : start + k]
    return y
