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
* random states are Hilbert-Schmidt induced (Ginibre construction);
* the eigenvalues of a state, taken by its validation, and those of its
  B marginal, in a ``DensityMatrix`` and in the entropy scorer of
  :mod:`fidelion.classifiers`, come from ``numpy.linalg.eigvalsh``, whose
  dtype picks the solver: a float64 array takes a real symmetric
  eigensolve and a complex one a complex Hermitian eigensolve. Code that
  holds exactly-real data hands over a real array (``DensityMatrix`` the
  real view of an exactly-real matrix or B marginal, the scorer its real
  images, :func:`_weyl_matrix` a float64 stack), so the same matrix gets
  the same eigenvalues on every route.
"""

from __future__ import annotations

import operator
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

#: Entrywise tolerance for treating a matrix as Hermitian.
HERMITIAN_TOL = 1e-12

#: Eigenvalues at or below this are treated as outside the support.
SUPPORT_EPS = 1e-12

#: samples, and channel verdicts, closer than this to a boundary are
#: excluded or left undecided
BOUNDARY_TOL = 1e-9

#: states drawn and checked together in one pass of a two-qubit suite, and
#: Schmidt inputs scored together in one stack of a channel certificate; a
#: fixed block keeps the memory of a run flat in the sample count
BLOCK = 256

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


def _validate(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Check a density matrix ``(n, n)``, or a stack ``(..., n, n)`` of
    them, and take its spectrum.

    Each matrix must have finite entries, be Hermitian within 1e-12, have
    unit trace within 1e-12 and no eigenvalue below -1e-10; the check
    raises for the whole stack when one matrix fails. A matrix with
    eigenvalues in (-1e-10, 0) has them clipped to zero and is
    renormalized, in place. One matrix and a stack take the same path, and
    each matrix of a stack comes out as it does alone. Returns the matrices
    with their ascending eigenvalues, from one ``eigvalsh`` of the whole
    stack; only the matrices to be clipped take an ``eigh``, which rebuilds
    them. The dtype of ``m`` picks both solvers: a real stack is solved as
    real symmetric and stays real, a complex one as complex Hermitian.
    """
    _check_finite(m)
    if np.abs(m - m.conj().swapaxes(-1, -2)).max() > HERMITIAN_TOL:
        raise NonHermitianError("density matrix is not Hermitian within 1e-12")
    _check_trace(m.trace(axis1=-2, axis2=-1))
    w = _eigvalsh(m)
    clip = _negative_rows(w)
    if clip.any():
        m[clip], w[clip] = _clipped(*np.linalg.eigh(m[clip]))
    return m, w


# the checks of _validate, shared with the entropy scorer of the depolarizing
# families in fidelion.classifiers, which knows its outputs by their entries
# and spectra alone


def _check_finite(entries: np.ndarray) -> None:
    if not np.isfinite(entries).all():
        raise InvalidParameterError("density matrix has non-finite entries")


def _check_trace(trace: np.ndarray) -> None:
    if abs(trace.real - 1.0).max() > TRACE_TOL or abs(trace.imag).max() > TRACE_TOL:
        raise InvalidParameterError("density matrix trace differs from 1 by more than 1e-12")


def _eigvalsh(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NoConvergenceError(str(exc)) from exc


def _negative_rows(w: np.ndarray) -> np.ndarray:
    """The mask of the ascending spectra of a stack ``w`` (..., n), or of
    one spectrum, that hold an eigenvalue below zero, to be clipped; an
    eigenvalue below -1e-10 raises for the whole stack."""
    lowest = w[..., 0]
    low = lowest.min()
    if low < -PSD_TOL:
        raise NotPSDError(f"eigenvalue {lowest[lowest < -PSD_TOL][0]:.3e} below -1e-10")
    return lowest < 0


def _log2_on_support(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``log2 rho`` on its support for a state ``(n, n)`` or a stack
    ``(..., n, n)``, from one ``eigh``: the log, the eigenvectors (columns,
    in ascending eigenvalue order) and the mask of the eigenvalues above
    ``SUPPORT_EPS`` that form the support; the others map to zero. This is
    the one place where a state's eigenvectors are solved."""
    w, v = np.linalg.eigh(m)
    on_support = w > SUPPORT_EPS
    logw = np.where(on_support, np.log2(np.where(on_support, w, 1.0)), 0.0)
    return (v * logw[..., None, :]) @ v.conj().swapaxes(-1, -2), v, on_support


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A positive unit-trace operator on a bipartite system.

    Validated at construction: Hermitian within 1e-12, unit trace within
    1e-12, smallest eigenvalue >= -1e-10. Eigenvalues in (-1e-10, 0) are
    clipped to zero and the matrix renormalized.

    ``dims`` is kept as a tuple of two ints, whatever sequence of two
    integers it was given as.
    The ascending eigenvalues taken for validation are kept (through
    :meth:`eigenvalues`), and so is the spectrum of the B marginal, solved
    on first use (:meth:`marginal_b_eigenvalues`). Every entropy of the
    state reads them instead of solving a matrix again; only the base-2
    log (:meth:`log2`) solves eigenvectors. The matrix is copied, so the
    caller's array stays untouched, and kept as complex128; a matrix, or a
    B marginal, whose imaginary parts are all exactly 0 is solved through
    its real view, as real symmetric, and any clip writes through that view.
    """

    dims: tuple[int, int]
    matrix: np.ndarray = field(repr=False)
    _eigenvalues: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        try:
            dims = tuple(operator.index(d) for d in self.dims)
        except TypeError:
            dims = ()
        if len(dims) != 2:
            raise DimensionMismatchError(
                f"dims must be a pair of ints (d_A, d_B), got {self.dims!r}"
            )
        d_a, d_b = dims
        if d_a < 1 or d_b < 1:
            raise DimensionMismatchError(f"local dimensions must be positive, got {dims}")
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (d_a * d_b, d_a * d_b):
            raise DimensionMismatchError(f"matrix shape {m.shape} does not match dims {dims}")
        _, w = _validate(m if m.imag.any() else m.real)
        object.__setattr__(self, "dims", dims)
        for name, value in (("matrix", m), ("_eigenvalues", w)):
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
        b = self.marginal("B")
        w = np.linalg.eigvalsh(b if b.imag.any() else b.real)
        w.setflags(write=False)
        return w

    def log2(self) -> tuple[np.ndarray, np.ndarray]:
        """``(log2 rho on its support, orthonormal basis of its null space)``.

        Eigenvalues at or below ``SUPPORT_EPS`` lie outside the support:
        they map to zero in the logarithm, and their eigenvectors are the
        columns of the null-space basis (none for a full-rank state).
        """
        log_rho, v, on_support = _log2_on_support(self.matrix)
        return log_rho, v[:, ~on_support]

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


@lru_cache(maxsize=None)
def _bloch_fano_form(dims: tuple[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """``Re Tr[O_k m]`` for the operators ``O_k`` of :func:`_operator_stack`,
    as a :func:`fidelion.linalg.sparse_form` on the float view of ``m``
    (``m[r, s]`` at ``2(r n + s)`` and its imaginary part next to it), built
    on first use.

    Term ``(i, j)`` of output k is ``Re(O_k[i, j] m[j, i])``; every entry of
    a Gell-Mann product is real or imaginary, so the term is ``O.real *
    Re m[j, i]`` or ``-O.imag * Im m[j, i]``. The terms come in ``(i, j)``
    order, the order in which ``np.einsum("kij,...ji->...k", O, m)`` adds
    them, and each ``O_k`` has at most one nonzero entry per row and per
    column, so every output is the bits of that contraction.
    """
    ops = _operator_stack(dims)
    n = ops.shape[-1]
    a = np.stack([ops.real, -ops.imag], axis=-1).reshape(len(ops), -1)
    # column (i, j, part) of a reads m[j, i]
    columns = np.arange(2 * n * n).reshape(n, n, 2).swapaxes(0, 1).ravel()
    return linalg.sparse_form(a, columns)


def _bloch_fano(m: np.ndarray, dims: tuple[int, int]) -> BlochFano:
    """Bloch-Fano coordinates of a matrix ``(n, n)`` or a stack
    ``(..., n, n)`` (a real one taken as its complex cast), from the sparse
    form :func:`_bloch_fano_form` on its float view: a gather and a fixed
    sum per coordinate, no BLAS, so each matrix of a stack gets exactly
    what it gets alone."""
    d_a, d_b = dims
    n_a, n_b = d_a**2 - 1, d_b**2 - 1
    m = np.ascontiguousarray(m, dtype=complex)
    x = m.reshape(m.shape[:-2] + (-1,)).view(float)
    c = linalg.apply_sparse_form(_bloch_fano_form(dims), x)
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
    ``(..., 3)``; any other last axis raises ``DimensionMismatchError``):

    ``{(1 - t1 - t2 - t3)/4, (1 - t1 + t2 + t3)/4,
       (1 + t1 - t2 + t3)/4, (1 + t1 + t2 - t3)/4}``.
    """
    t = np.asarray(t, dtype=float)
    if t.shape[-1:] != (3,):
        raise DimensionMismatchError("Weyl parameters must be a 3-vector")
    t1, t2, t3 = np.moveaxis(t, -1, 0)
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
    (shape ``(..., 3)``), unvalidated, as float64: every ``sigma_i (x)
    sigma_i`` is real."""
    t1, t2, t3 = np.moveaxis(t, -1, 0)[..., None, None]
    m = np.eye(4) + t1 * np.kron(PAULI_X, PAULI_X).real
    m += t2 * np.kron(PAULI_Y, PAULI_Y).real
    m += t3 * np.kron(PAULI_Z, PAULI_Z).real
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
    entries in (-1e-12, 0) are set to zero. Both tests are written so that
    a NaN fails them."""
    if not (q.min() >= -1e-12 and abs(q.sum(axis=-1) - 1.0).max() <= 1e-12):
        raise InvalidParameterError("Schmidt coefficients must be a probability vector")
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
    successive draws of one matrix each. ``G`` takes the first half of each
    matrix's normals as real parts and the second as imaginary parts, and
    each product is scaled in place by ``1 / Tr``: numpy divides a complex
    number by a real one as both parts times the reciprocal, so these are
    the bits of ``G G^dagger / Tr``.
    """
    x = rng.normal(size=(k, 2, n, rank))
    g = np.empty((k, n, rank), dtype=complex)
    g.real = x[:, 0]
    g.imag = x[:, 1]
    m = g @ g.conj().swapaxes(-1, -2)
    parts = m.view(float)
    parts *= (1.0 / np.trace(m, axis1=-2, axis2=-1).real)[:, None, None]
    return m


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


def _write_lines(lines: list[str], path) -> None:
    """Write a state or channel file: the lines, each ended by a newline,
    in UTF-8."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_lines(path) -> list[str]:
    """The nonblank lines of a state or channel file, stripped;
    ``ParseError`` when the file is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            return [ln.strip() for ln in fh if ln.strip()]
    except UnicodeDecodeError as exc:
        raise ParseError(f"file is not UTF-8 text: {exc}") from exc


def write_state_file(rho: DensityMatrix, path) -> None:
    """Write a state as text: ``dims d_A d_B`` then the matrix rows
    (see :func:`_format_rows`)."""
    _write_lines([f"dims {rho.dims[0]} {rho.dims[1]}", *_format_rows(rho.matrix)], path)


def read_state_file(path) -> DensityMatrix:
    """Parse a state file written by :func:`write_state_file`."""
    lines = _read_lines(path)
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
