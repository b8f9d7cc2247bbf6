"""Bipartite density matrices: construction, Bloch-Fano coordinates, sampling.

Conventions fixed here and relied on elsewhere:

* generalized Gell-Mann bases are ordered symmetric pairs, antisymmetric
  pairs, then diagonal, each block in lexicographic index order (for
  d = 2 this yields the Pauli matrices sigma_x, sigma_y, sigma_z);
* Bloch coefficients are ``a_i = (d_A/2) Tr[rho (g_i (x) I)]``,
  ``b_j = (d_B/2) Tr[rho (I (x) g_j)]`` and
  ``t_ij = (d_A d_B / 4) Tr[rho (g_i (x) g_j)]``, which makes
  decompose/reconstruct exact inverses for every local dimension (the
  conventional normalization for qubits; for d > 2 several scalings
  circulate in the literature, this one is self-consistent with the
  reconstruction formula used here);
* random states are Hilbert-Schmidt induced (Ginibre construction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NoConvergenceError,
    NonHermitianError,
    NotPSDError,
    ParseError,
    UnsupportedDimensionError,
)
from . import linalg

#: Negative-eigenvalue tolerance for density matrices; eigenvalues in
#: (-PSD_TOL, 0) are clipped to zero and the state renormalized.
PSD_TOL = 1e-10

TRACE_TOL = 1e-12

#: Eigenvalues at or below this are treated as outside the support.
SUPPORT_EPS = 1e-12

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> tuple[np.ndarray, ...]:
    """Generalized Gell-Mann basis of su(d): d^2 - 1 traceless Hermitian
    matrices with Tr[g_i g_j] = 2 delta_ij.

    Supported for 2 <= d <= 8. For d = 2 these are the Pauli matrices.
    """
    if not 2 <= d <= 8:
        raise UnsupportedDimensionError(f"Gell-Mann basis needs 2 <= d <= 8, got {d}")
    mats = []
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = 1
            m[k, j] = 1
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j
            m[k, j] = 1j
            mats.append(m)
    for l in range(1, d):
        m = np.zeros((d, d), dtype=complex)
        m[:l, :l] = np.eye(l)
        m[l, l] = -l
        mats.append(np.sqrt(2.0 / (l * (l + 1))) * m)
    for m in mats:
        m.setflags(write=False)
    return tuple(mats)


def _clipped(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Matrices ``(..., n, n)`` rebuilt from eigenpairs with the negative
    eigenvalues set to zero, renormalized to unit trace, and their
    eigenvalues."""
    w = np.where(w < 0, 0.0, w)
    m = (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
    m = (m + m.conj().swapaxes(-1, -2)) / 2
    trace = m.trace(axis1=-2, axis2=-1).real[..., None]
    return m / trace[..., None], w / trace


def _validate(
    m: np.ndarray, vectors: bool = True
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Check a density matrix ``(n, n)``, or a stack ``(..., n, n)`` of
    them, and take its spectrum.

    Each matrix must have finite entries, be Hermitian within 1e-12, have
    unit trace within 1e-12 and no eigenvalue below -1e-10; the check
    raises for the whole stack when one matrix fails. A matrix with
    eigenvalues in (-1e-10, 0) has them clipped to zero and is
    renormalized, in place. One matrix and a stack take the same path, and
    each matrix of a stack comes out as it does alone. Returns the matrices
    with their ascending eigenvalues and eigenvectors, from one (stacked)
    ``eigh``. With ``vectors=False`` the eigenvalues come from one stacked
    ``eigvalsh`` and no eigenvectors are returned (None); only the matrices
    to be clipped take an ``eigh``, so they come out bit for bit as with
    ``vectors=True``.
    """
    if not np.isfinite(m).all():
        raise InvalidParameterError("density matrix has non-finite entries")
    if not linalg.is_hermitian(m):
        raise NonHermitianError("density matrix is not Hermitian within 1e-12")
    trace = m.trace(axis1=-2, axis2=-1)
    if abs(trace.real - 1.0).max() > TRACE_TOL or abs(trace.imag).max() > TRACE_TOL:
        raise ValueError("density matrix trace differs from 1 by more than 1e-12")
    try:
        w, v = np.linalg.eigh(m) if vectors else (np.linalg.eigvalsh(m), None)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc
    lowest = w[..., 0]
    low = lowest.min()
    if low < 0:
        if low < -PSD_TOL:
            raise NotPSDError(f"eigenvalue {lowest[lowest < -PSD_TOL][0]:.3e} below -1e-10")
        clip = lowest < 0
        pairs = (w[clip], v[clip]) if vectors else np.linalg.eigh(m[clip])
        m[clip], w[clip] = _clipped(*pairs)
    return m, w, v


def _log2_on_support(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``log2 rho`` on its support, from ascending eigenvalues ``w`` and
    eigenvectors ``v`` of one state or of a stack, and the mask of the
    eigenvalues above ``SUPPORT_EPS`` that form the support; the others map
    to zero."""
    on_support = w > SUPPORT_EPS
    logw = np.where(on_support, np.log2(np.where(on_support, w, 1.0)), 0.0)
    return (v * logw[..., None, :]) @ v.conj().swapaxes(-1, -2), on_support


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive unit-trace operator on a bipartite system.

    Validated at construction: Hermitian within 1e-12, unit trace within
    1e-12, smallest eigenvalue >= -1e-10. Eigenvalues in (-1e-10, 0) are
    clipped to zero and the matrix renormalized.

    The eigendecomposition taken for validation is kept: ascending
    eigenvalues (through :meth:`eigenvalues`) and ``eigenvectors``, the
    matching orthonormal columns. The spectrum of the B marginal is kept
    too, solved on first use (:meth:`marginal_b_eigenvalues`). Every
    spectral quantity of the state reads them instead of solving a matrix
    again. The matrix is copied, so the caller's array stays untouched.
    """

    dims: tuple[int, int]
    matrix: np.ndarray = field(repr=False)
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)
    eigenvectors: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d_a, d_b = self.dims
        if d_a < 1 or d_b < 1:
            raise DimensionMismatchError(f"local dimensions must be positive, got {self.dims}")
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d_a * d_b, d_a * d_b):
            raise DimensionMismatchError(
                f"matrix shape {m.shape} does not match dims {self.dims}"
            )
        m, w, v = _validate(m)
        for name, value in (("matrix", m), ("_eigenvalues", w), ("eigenvectors", v)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        """Equal dims and an equal matrix, entry for entry."""
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return self.dims == other.dims and np.array_equal(self.matrix, other.matrix)

    __hash__ = None  # equality reads arrays, which have no hash

    @property
    def dim(self) -> int:
        return self.dims[0] * self.dims[1]

    def eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues (read-only)."""
        return self._eigenvalues

    def marginal_b_eigenvalues(self) -> np.ndarray:
        """Ascending eigenvalues of ``rho_B = Tr_A rho`` (read-only)."""
        return self._marginal_b_eigenvalues

    @cached_property
    def _marginal_b_eigenvalues(self) -> np.ndarray:
        w = np.linalg.eigvalsh(self.marginal("B"))
        w.setflags(write=False)
        return w

    def log2(self) -> tuple[np.ndarray, np.ndarray]:
        """``(log2 rho on its support, orthonormal basis of its null space)``.

        Eigenvalues at or below ``SUPPORT_EPS`` lie outside the support:
        they map to zero in the logarithm, and their eigenvectors are the
        columns of the null-space basis (none for a full-rank state).
        """
        log_rho, on_support = _log2_on_support(self._eigenvalues, self.eigenvectors)
        return log_rho, self.eigenvectors[:, ~on_support]

    def marginal(self, keep: str) -> np.ndarray:
        """Reduced operator of subsystem ``keep`` ('A' or 'B')."""
        return linalg.partial_trace(self.matrix, self.dims, keep)

    def purity(self) -> float:
        return float(np.vdot(self.matrix, self.matrix).real)


@dataclass(frozen=True)
class BlochFano:
    """Local Bloch vectors and correlation tensor of a bipartite state, or
    of a stack of states along the leading axes of ``a``, ``b`` and ``t``."""

    dims: tuple[int, int]
    a: np.ndarray
    b: np.ndarray
    t: np.ndarray


@lru_cache(maxsize=None)
def _operator_stack(dims: tuple[int, int]) -> np.ndarray:
    """The operators ``g_i (x) I``, ``I (x) g_j`` and ``g_i (x) g_j`` of the
    Bloch-Fano coordinates, concatenated in that order (read-only, shape
    ``(d_A^2 - 1 + d_B^2 - 1 + (d_A^2 - 1)(d_B^2 - 1), n, n)``)."""
    d_a, d_b = dims
    ga = gell_mann_basis(d_a)
    gb = gell_mann_basis(d_b)
    ia, ib = np.eye(d_a), np.eye(d_b)
    stack = np.stack(
        [np.kron(g, ib) for g in ga]
        + [np.kron(ia, g) for g in gb]
        + [np.kron(gi, gj) for gi in ga for gj in gb]
    )
    stack.setflags(write=False)
    return stack


def _bloch_fano(m: np.ndarray, dims: tuple[int, int]) -> BlochFano:
    """Bloch-Fano coordinates of a matrix ``(n, n)`` or a stack
    ``(..., n, n)``, from one contraction with :func:`_operator_stack`."""
    d_a, d_b = dims
    n_a, n_b = d_a**2 - 1, d_b**2 - 1
    c = np.einsum("kij,...ji->...k", _operator_stack(dims), m).real
    a = (d_a / 2) * c[..., :n_a]
    b = (d_b / 2) * c[..., n_a : n_a + n_b]
    t = (d_a * d_b / 4) * c[..., n_a + n_b :]
    return BlochFano(dims, a, b, t.reshape(t.shape[:-1] + (n_a, n_b)))


def decompose(rho: DensityMatrix) -> BlochFano:
    """Bloch-Fano coordinates of a bipartite density matrix."""
    return _bloch_fano(rho.matrix, rho.dims)


def reconstruct(bf: BlochFano) -> DensityMatrix:
    """Rebuild the density matrix from Bloch-Fano coordinates.

    Inverse of :func:`decompose`. Raises ``NotPSDError`` when the
    coefficients do not describe a positive operator.
    """
    d_a, d_b = bf.dims
    n_a, n_b = d_a**2 - 1, d_b**2 - 1
    stack = _operator_stack(bf.dims)
    m = np.eye(d_a * d_b, dtype=complex)
    m += np.tensordot(bf.a, stack[:n_a], axes=1)
    m += np.tensordot(bf.b, stack[n_a : n_a + n_b], axes=1)
    m += np.tensordot(bf.t.ravel(), stack[n_a + n_b :], axes=1)
    return DensityMatrix(bf.dims, m / (d_a * d_b))


def weyl_spectrum(t) -> np.ndarray:
    """Spectrum of the two-qubit state with diagonal correlations ``t``,
    in ascending order along the last axis (``t`` is a 3-vector or a stack
    ``(..., 3)``):

    ``{(1 - t1 - t2 - t3)/4, (1 - t1 + t2 + t3)/4,
       (1 + t1 - t2 + t3)/4, (1 + t1 + t2 - t3)/4}``.
    """
    t1, t2, t3 = np.moveaxis(np.asarray(t, dtype=float), -1, 0)
    vals = np.stack(
        [
            (1 - t1 - t2 - t3) / 4,
            (1 - t1 + t2 + t3) / 4,
            (1 + t1 - t2 + t3) / 4,
            (1 + t1 + t2 - t3) / 4,
        ],
        axis=-1,
    )
    return np.sort(vals, axis=-1)


def _weyl_matrix(t: np.ndarray) -> np.ndarray:
    """``(1/4)[I + sum_i t_i sigma_i (x) sigma_i]`` for each row of ``t``
    (shape ``(..., 3)``), unvalidated."""
    t1, t2, t3 = np.moveaxis(t, -1, 0)[..., None, None]
    m = np.eye(4, dtype=complex) + t1 * np.kron(PAULI_X, PAULI_X)
    m += t2 * np.kron(PAULI_Y, PAULI_Y)
    m += t3 * np.kron(PAULI_Z, PAULI_Z)
    return m / 4


def weyl_state(t) -> DensityMatrix:
    """Two-qubit state ``(1/4)[I + sum_i t_i sigma_i (x) sigma_i]``;
    ``NotPSDError`` when ``t`` gives a negative eigenvalue."""
    t = np.asarray(t, dtype=float)
    if t.shape != (3,):
        raise DimensionMismatchError("Weyl parameters must be a 3-vector")
    return DensityMatrix((2, 2), _weyl_matrix(t))


def _schmidt_vectors(q: np.ndarray) -> np.ndarray:
    """Squared Schmidt coefficients along the last axis, one vector ``(d,)``
    or a stack ``(k, d)``, checked to be probability vectors within 1e-12;
    entries in (-1e-12, 0) are set to zero."""
    if q.min() < -1e-12 or abs(q.sum(axis=-1) - 1.0).max() > 1e-12:
        raise ValueError("Schmidt coefficients must be a probability vector")
    return np.where(q < 0, 0.0, q)


def _schmidt_projectors(q: np.ndarray) -> np.ndarray:
    """Projectors onto ``sum_j sqrt(q_j) |jj>`` for checked Schmidt vectors
    ``q`` (``(d,)`` or ``(k, d)``), unvalidated: ``(..., d^2, d^2)``."""
    d = q.shape[-1]
    ket = np.zeros(q.shape[:-1] + (d * d,), dtype=complex)
    ket[..., :: d + 1] = np.sqrt(q)
    return ket[..., :, None] * ket[..., None, :].conj()


@dataclass(frozen=True, eq=False)
class SchmidtPureState:
    """Squared Schmidt coefficients of a pure state on a d x d system."""

    q: np.ndarray

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        if q.ndim != 1 or q.size < 1:
            raise DimensionMismatchError("Schmidt coefficients must be a vector")
        q = _schmidt_vectors(q)
        q.setflags(write=False)
        object.__setattr__(self, "q", q)

    def __eq__(self, other):
        """Equal coefficient vectors, entry for entry."""
        if not isinstance(other, SchmidtPureState):
            return NotImplemented
        return np.array_equal(self.q, other.q)

    __hash__ = None  # equality reads arrays, which have no hash

    @property
    def d(self) -> int:
        return self.q.size


def schmidt_state(q) -> DensityMatrix:
    """Projector onto ``sum_j sqrt(q_j) |jj>`` in the computational bases."""
    sps = q if isinstance(q, SchmidtPureState) else SchmidtPureState(np.asarray(q, dtype=float))
    return DensityMatrix((sps.d, sps.d), _schmidt_projectors(sps.q))


def _ginibre(rng: np.random.Generator, k: int, n: int, rank: int) -> np.ndarray:
    """``k`` Hilbert-Schmidt random matrices ``G G^dagger / Tr`` (shape
    ``(k, n, n)``, unvalidated), ``G`` an n x rank complex Gaussian matrix.

    One draw of ``2 k n rank`` normals: the stream is the same as ``k``
    successive draws of one matrix each.
    """
    x = rng.normal(size=(k, 2, n, rank))
    g = x[:, 0] + 1j * x[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]


def random_density_matrix(d_a: int, d_b: int, rank: int | None = None, seed=None) -> DensityMatrix:
    """Hilbert-Schmidt random state ``G G^dagger / Tr`` with ``G`` a
    (d_a d_b) x rank complex Gaussian matrix from the seeded generator.

    Deterministic per seed; ``seed`` may be an int or a Generator.
    """
    n = d_a * d_b
    rank = n if rank is None else rank
    if not 1 <= rank <= n:
        raise DimensionMismatchError(f"rank must be in [1, {n}], got {rank}")
    rng = np.random.default_rng(seed)
    return DensityMatrix((d_a, d_b), _ginibre(rng, 1, n, rank)[0])


def _format_rows(m: np.ndarray) -> list[str]:
    """One line per matrix row of whitespace-separated ``re+imj`` literals
    (17 significant digits, so the round trip is exact)."""
    return [" ".join(f"{z.real:.17g}{z.imag:+.17g}j" for z in row) for row in m]


def _parse_rows(lines: list[str], width: int) -> np.ndarray:
    """Matrix from lines of ``width`` complex literals each."""
    rows = []
    for ln in lines:
        toks = ln.split()
        if len(toks) != width:
            raise ParseError(f"expected {width} entries per row, found {len(toks)}")
        try:
            rows.append([complex(tok) for tok in toks])
        except ValueError as exc:
            raise ParseError(f"bad complex literal in row: {ln!r}") from exc
    return np.array(rows)


def write_state_file(rho: DensityMatrix, path) -> None:
    """Write a state as text: ``dims d_A d_B`` then the matrix rows
    (see :func:`_format_rows`)."""
    lines = [f"dims {rho.dims[0]} {rho.dims[1]}", *_format_rows(rho.matrix)]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_state_file(path) -> DensityMatrix:
    """Parse a state file written by :func:`write_state_file`."""
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if not lines or not lines[0].startswith("dims"):
        raise ParseError("state file must start with a 'dims d_A d_B' line")
    head = lines[0].split()
    if len(head) != 3:
        raise ParseError(f"malformed dims line: {lines[0]!r}")
    try:
        d_a, d_b = int(head[1]), int(head[2])
    except ValueError as exc:
        raise ParseError(f"malformed dims line: {lines[0]!r}") from exc
    n = d_a * d_b
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} matrix rows, found {len(lines) - 1}")
    m = _parse_rows(lines[1:], n)
    try:
        return DensityMatrix((d_a, d_b), m)
    except (
        DimensionMismatchError, InvalidParameterError, NonHermitianError, NotPSDError, ValueError
    ) as exc:
        raise ParseError(f"file does not contain a valid density matrix: {exc}") from exc
