"""Fidelity of entanglement (fully entangled fraction) and witnesses.

``F(rho) = max <phi| (U^dag (x) I) rho (U (x) I) |phi>`` over unitaries U,
with ``|phi> = (1/sqrt d) sum_i |ii>``. For two qubits the fidelity and
the singular values of the correlation matrix are both read off one real
4 x 4 spectrum (:func:`_two_qubit_spectrum`). The fidelity and
``r_quantity`` maximize a fixed form ``<x| M |x>/d`` over ``x = vec(U)``
through one entry, :func:`_max_fixed`. At d = 2 it is exact and needs no
seed: every U in U(2) is a phase times ``q0 I + i(q1 X + q2 Y + q3 Z)`` with
q a real unit 4-vector, so the maximum is half the largest eigenvalue of a
real symmetric 4 x 4 matrix, one stacked ``eigh`` for a stack of objectives.
At d = 3 and 4, and for the user-channel FAC2 worst case in
:mod:`fidelion.classifiers` at every d, one multi-start monotone polar
ascent over U(d) maximizes. A plain step replaces U by the unitary polar
factor of the objective's gradient; the rounds cycle through two plain
steps and one SQUAREM step, the polar factor of a point extrapolated from
the last three iterates, kept only if it gains. So every iterate is a
unitary and its value is a certified lower bound, reported next to the
largest-eigenvalue upper bound. A restart stops once a plain step gains
at most ``STEP_GAIN_TOL``, or after ``MAX_STEPS`` polar projections;
``FidelityResult.iterations`` counts the projections of both kinds. All
restarts ascend as one stack, one stacked SVD per round, and so do the
restarts of many objectives at once; restarts and seeds act there alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    SupportViolationError,
    UnsupportedDimensionError,
)
from .states import DensityMatrix, _log2_on_support, decompose, gell_mann_basis


def phi_plus_ket(d: int) -> np.ndarray:
    """Maximally entangled ket ``(1/sqrt d) sum_i |ii>``."""
    ket = np.zeros(d * d, dtype=complex)
    ket[:: d + 1] = 1.0 / np.sqrt(d)
    return ket


def phi_plus_projector(d: int) -> np.ndarray:
    ket = phi_plus_ket(d)
    return np.outer(ket, ket.conj())


@dataclass(frozen=True)
class FidelityResult:
    """Fidelity of entanglement with provenance.

    ``value`` is exact for the closed form and for the two-qubit
    maximization ("quaternion"), where ``upper`` equals it; for the polar
    ascent at d = 3 and 4 ("optimized") it is a certified lower bound and
    ``upper`` the largest-eigenvalue bound, so the true fidelity lies in
    ``[value, upper]``.
    """

    value: float
    method: str  # "closed-form" | "quaternion" | "optimized"
    upper: float
    restarts: int = 0
    iterations: int = 0  # polar projections, summed over restarts; 0 at d = 2
    best_unitary: np.ndarray | None = field(default=None, repr=False)


def _require_square(rho: DensityMatrix) -> int:
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise DimensionMismatchError(f"need a d x d system, got dims {rho.dims}")
    if d_a > 4:
        raise UnsupportedDimensionError(f"local dimension {d_a} exceeds 4")
    return d_a


def fidelity_two_qubit(rho: DensityMatrix) -> FidelityResult:
    """Exact two-qubit fidelity of entanglement (:func:`_two_qubit_spectrum`)."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"closed form needs a 2 x 2 system, got {rho.dims}")
    value = float(_two_qubit_spectrum(decompose(rho).t)[1])
    return FidelityResult(value=value, method="closed-form", upper=value)


#: polar projections allowed per restart (restarts at d <= 4 settle in a few hundred)
MAX_STEPS = 2000
#: a restart stops once one plain step raises the objective by at most this much
STEP_GAIN_TOL = 1e-14
#: restarts allowed per objective, checked before any is drawn: each restart
#: holds a few vectors of d^2 complex numbers (user FAC2: matrices of d^4)
MAX_RESTARTS = 10_000


def _restart_points(d: int, restarts: int, seed) -> np.ndarray:
    """Starting rows ``vec(U)`` of the restarts, shape (restarts, d*d): the
    identity, then Haar-random unitaries (QR of a complex Gaussian, phases
    fixed) from ``np.random.default_rng(seed)``. The Gaussians of all of them
    are one draw, the stream of successive draws of one matrix each."""
    z = np.random.default_rng(seed).normal(size=(restarts - 1, 2, d, d))
    q, r = np.linalg.qr(z[:, 0] + 1j * z[:, 1])
    diag = np.diagonal(r, axis1=-2, axis2=-1)
    haar = q * (diag / np.abs(diag))[:, None, :]
    return np.concatenate([np.eye(d, dtype=complex)[None], haar]).reshape(restarts, d * d)


def _gradient_value(m: np.ndarray, x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """``g = M x`` and the value ``<x| M |x>/d`` for each row of ``x``
    (k, d*d) and matrix of ``m`` (k or 1, d*d, d*d); the stacked products
    give each row exactly the numbers it gives alone."""
    g = (m @ x[:, :, None])[:, :, 0]
    return g, (x.conj()[:, None, :] @ g[:, :, None])[:, 0, 0].real / d


def _maximize_over_unitaries(
    gram, d: int, restarts: int, seeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize ``f_j(x)`` over ``x = vec(U)`` with U unitary, for one
    objective per seed of ``seeds``, through ``gram``.

    Every objective gets ``restarts`` rows, all ascended as one stack: row
    ``i`` is restart ``i % restarts`` of objective ``i // restarts``, and its
    restart 0 starts at the identity, the others at Haar-random unitaries
    drawn from ``np.random.default_rng(seed)``. ``gram(rows, x)`` returns,
    for row indices ``rows`` (m,) and their points ``x`` (m, d*d), Gram
    matrices M (m, d*d, d*d), positive semidefinite, whose form
    ``<x| M |x>/d`` equals the row's ``f(x)`` and whose form at every other
    unitary y lies at or below ``f(y)``; a stack of one matrix (1, d*d,
    d*d) broadcasts to every row. Fixed objectives ``<v| m |v>`` with
    ``v = vec(U)/sqrt(d)`` come from :func:`_fixed`.

    Monotone polar ascent: with ``G = reshape(M x, (d, d)) = W S V^dag``,
    the plain step ``U <- W V^dag`` maximizes the linearization of the
    convex form at U over unitaries (the orthogonal Procrustes solution), so
    neither the form nor ``f`` decreases. The rounds cycle in lockstep
    through three stages: two plain steps from ``x0`` to ``x1`` and ``x2``,
    then one SQUAREM step (Varadhan and Roland, Scand. J. Stat. 35, 335
    (2008)), the polar factor of ``x0 - 2a r + a^2 v`` with ``r = x1 - x0``,
    ``v = x2 - 2 x1 + x0`` and ``a = min(-|r|/|v|, -1)`` per row (-1 where
    v = 0). Each round takes one stacked SVD of the rows still ascending,
    and every iterate is a unitary. A row keeps a step only if it gains; it
    leaves the stack once a plain step gains at most ``STEP_GAIN_TOL``, or
    after ``MAX_STEPS`` polar projections of either kind. Returns, per
    objective, the value of its best restart (the first maximum in restart
    order), that restart's unitary (k, d, d) and the polar projections
    summed over its restarts.
    """
    _check_restarts(restarts)
    x = np.concatenate([_restart_points(d, restarts, seed) for seed in seeds])
    rows = np.arange(len(x))
    steps = np.zeros(len(x), dtype=int)
    g, value = _gradient_value(gram(rows, x), x, d)
    for step in range(MAX_STEPS):
        if not rows.size:
            break
        stage = step % 3
        if stage == 0:
            anchor = x[rows]  # x0 of the active rows
        x_next = _polar((anchor if stage == 2 else g).reshape(-1, d, d)).reshape(-1, d * d)
        g_next, next_value = _gradient_value(gram(rows, x_next), x_next, d)
        steps[rows] += 1
        gain = next_value - value[rows]
        if stage == 1:
            # every row still here kept its first step, so x[rows] is x1
            anchor = _extrapolate(anchor, x[rows], x_next)
        up = gain > 0
        x[rows[up]], value[rows[up]], g[up] = x_next[up], next_value[up], g_next[up]
        ascending = ~(gain <= STEP_GAIN_TOL) | (stage == 2)
        rows, g, anchor = rows[ascending], g[ascending], anchor[ascending]
    best = np.arange(0, len(x), restarts) + np.argmax(value.reshape(-1, restarts), axis=1)
    return value[best], x[best].reshape(-1, d, d), steps.reshape(-1, restarts).sum(axis=1)


def _polar(a: np.ndarray) -> np.ndarray:
    """Unitary polar factor ``W V^dag`` of each matrix of a stack ``a``; the
    SVD factors are freed on return, not held through the round."""
    w, _, vh = np.linalg.svd(a)
    return w @ vh


def _extrapolate(x0: np.ndarray, x1: np.ndarray, x2: np.ndarray) -> np.ndarray:
    """SQUAREM point ``x0 - 2a r + a^2 v`` of each row of three successive
    iterates (k, n), with ``r = x1 - x0``, ``v = x2 - 2 x1 + x0`` and
    ``a = min(-|r|/|v|, -1)`` (-1 where v = 0, which gives x2). Written
    into ``x0``, which the caller gives up; each row is rounded as the
    expression written out for it alone."""
    r = x1 - x0
    v = np.multiply(x1, 2.0)
    np.subtract(x2, v, out=v)
    v += x0
    norm_r, norm_v = np.linalg.norm(r, axis=1), np.linalg.norm(v, axis=1)
    ratio = np.divide(norm_r, norm_v, out=np.ones_like(norm_r), where=norm_v > 0)
    a = -np.maximum(ratio, 1.0)[:, None]
    r *= 2.0 * a
    x0 -= r
    v *= a * a
    x0 += v
    return x0


def _check_restarts(restarts: int, name: str = "restarts") -> None:
    if restarts < 1:
        raise InvalidParameterError(f"{name} must be at least 1, got {restarts}")
    if restarts > MAX_RESTARTS:
        raise InvalidParameterError(f"{name} must be at most {MAX_RESTARTS}, got {restarts}")


#: columns ``vec(I), vec(iX), vec(iY), vec(iZ)`` (row-major, as the rows of
#: :func:`_restart_points`): ``vec(U) = e^{i phi} B q`` for every U in U(2)
_QUATERNION = np.array([[1, 0, 0, 1], [0, 1j, 1j, 0], [0, 1, -1, 0], [1j, 0, 0, -1j]]).T

#: ``Re(B^dag (sigma_i (x) sigma_j) B) / 8`` for B = ``_QUATERNION``, shape
#: (3, 3, 4, 4), entries 0 and +-1/4: a two-qubit state with correlation
#: matrix t has ``Re(B^dag rho B) / 2 = I/4 + sum_ij t_ij K[i, j]``, since the
#: local terms ``sigma (x) I`` and ``I (x) sigma`` have no real part there
_CORRELATION_FORMS = np.array(
    [
        (_QUATERNION.conj().T @ np.kron(gi, gj) @ _QUATERNION).real / 8
        for gi in gell_mann_basis(2)
        for gj in gell_mann_basis(2)
    ]
).reshape(3, 3, 4, 4)
_CORRELATION_FORMS.setflags(write=False)


def _two_qubit_spectrum(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) of a two-qubit correlation matrix ``t``
    and the state's fidelity of entanglement, from one real 4 x 4 ``eigvalsh``.

    ``N = I/4 + sum_ij t_ij K[i, j]`` is ``Re(B^dag rho B) / 2``, so its top
    eigenvalue mu4 is the fidelity (the maximum over unitaries of
    :func:`_max_fixed`). Its ascending eigenvalues are ``(1 + e.t')/4`` for
    the signed singular values t' of t and the sign patterns e of the Bell
    basis (Hill and Wootters 1997; Badziag et al. 2000), so the singular values
    are ``|2(mu3 + mu4) - 1|``, ``|2(mu2 + mu4) - 1|``, ``|2(mu2 + mu3) - 1|``
    sorted. ``t`` may be a stack ``(..., 3, 3)``; the sums run in a fixed
    order, so each row of a stack gets exactly what it gets alone.
    """
    n = np.einsum("...ij,ijpq->...pq", t, _CORRELATION_FORMS) + np.eye(4) / 4
    mu = np.linalg.eigvalsh(n)
    _, mu2, mu3, mu4 = np.moveaxis(mu, -1, 0)
    signed = np.stack([mu3 + mu4, mu2 + mu4, mu2 + mu3], axis=-1) * 2.0 - 1.0
    return -np.sort(-np.abs(signed), axis=-1), mu4


def _max_fixed(
    m: np.ndarray, d: int, restarts: int, seeds
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Maximize the fixed objectives ``<x| m[j] |x>/d`` over ``x = vec(U)``
    with U unitary, for a stack ``m`` (k, d*d, d*d) of Hermitian matrices,
    objective j with seed ``seeds[j]``: per objective the maximum, its
    unitary (k, d, d) and the polar projections taken.

    At d = 2 the maximum is exact and seeds and restarts are not used: with
    ``x = e^{i phi} B q``, the form is ``q^T Re(B^dag M B) q`` (the phase
    cancels and the imaginary part is antisymmetric) over real unit q, so its
    maximum is half the top eigenvalue of the real symmetric matrix, from
    one stacked ``eigh``, at ``U = q0 I + i(q1 X + q2 Y + q3 Z)`` of the top
    eigenvector; no step is taken. At d = 3 and 4 the polar ascent
    :func:`_maximize_over_unitaries` takes ``restarts`` rows per objective.
    """
    if d != 2:
        return _maximize_over_unitaries(_fixed(m, restarts), d, restarts, seeds)
    _check_restarts(restarts)
    w, v = np.linalg.eigh((_QUATERNION.conj().T @ m @ _QUATERNION).real)
    unitaries = (v[:, :, -1] @ _QUATERNION.T).reshape(-1, 2, 2)
    return w[:, -1] / 2, unitaries, np.zeros(len(m), dtype=int)


def _fixed(m: np.ndarray, restarts: int):
    """``gram`` of fixed objectives: matrix ``m[j]`` for every row of seed j.
    One objective returns ``m`` itself, which broadcasts, so the ascent
    holds no per-row copy of it."""
    if len(m) == 1:
        return lambda rows, _: m
    return lambda rows, _: m[rows // restarts]


def fidelity_optimize(rho: DensityMatrix, restarts: int = 20, seed=42) -> FidelityResult:
    """Fidelity of entanglement by direct maximization over local unitaries.

    At d = 2 the maximization is exact (``method="quaternion"``, ``upper``
    equal to ``value``) and needs no seed. At d = 3 and 4 it is the polar
    ascent from ``restarts`` starts drawn from ``seed``: the returned
    ``value`` is a guaranteed lower bound on the true fidelity, and
    ``upper`` (the largest eigenvalue) a guaranteed upper bound.
    Classification decisions should use the bracket. ``restarts`` below 1
    raises ``InvalidParameterError`` at every d.
    """
    d = _require_square(rho)
    value, unitary, steps = _max_fixed(rho.matrix[None], d, restarts, [seed])
    value = float(value[0])
    if d == 2:
        return FidelityResult(value, "quaternion", upper=value, best_unitary=unitary[0])
    return FidelityResult(
        value=value,
        method="optimized",
        upper=fidelity_upper_bound(rho),
        restarts=restarts,
        iterations=int(steps[0]),
        best_unitary=unitary[0],
    )


def fidelity_upper_bound(rho: DensityMatrix) -> float:
    """Largest eigenvalue of the state, an upper bound on its fidelity."""
    return float(rho.eigenvalues()[-1])


@dataclass(frozen=True)
class WitnessOperator:
    """Teleportation witness: nonnegative expectation on every state with
    fidelity at most 1/d, negative on some state useful for teleportation."""

    matrix: np.ndarray
    d: int


def teleportation_witness(d: int) -> WitnessOperator:
    """The canonical witness ``I/d - |phi+><phi+|`` on a d x d system."""
    if not 2 <= d <= 4:
        raise UnsupportedDimensionError(f"witness supported for 2 <= d <= 4, got {d}")
    w = np.eye(d * d, dtype=complex) / d - phi_plus_projector(d)
    return WitnessOperator(matrix=w, d=d)


def witness_value(witness: WitnessOperator, rho: DensityMatrix) -> float:
    """Expectation value ``Tr[W rho]``."""
    if rho.dim != witness.matrix.shape[0]:
        raise DimensionMismatchError(
            f"witness dimension {witness.matrix.shape[0]} does not match state {rho.dim}"
        )
    return float(np.trace(witness.matrix @ rho.matrix).real)


def r_quantity(rho: DensityMatrix, restarts: int = 20, seed=42) -> float:
    """``max_U -Tr[log2(rho) (U (x) I) |phi><phi| (U^dag (x) I)]``.

    Defined for full-rank states only; rank-deficient input raises
    ``SupportViolationError``. Always at least ``-F(rho)``. Exact at d = 2,
    where ``restarts`` and ``seed`` change nothing; at d = 3 and 4 a lower
    bound from the polar ascent.
    """
    d = _require_square(rho)
    (value,) = _r_values(rho.matrix[None], d, restarts, [seed])
    return float(value)


def _r_values(m: np.ndarray, d: int, restarts: int, seeds) -> np.ndarray:
    """:func:`r_quantity` of each state of a stack ``m`` (k, d*d, d*d) of
    validated d x d states, with optimizer seed ``seeds[i]`` for state i;
    the logs take one stacked ``eigh``, and so does the maximization at
    d = 2, while at d = 3 and 4 all ``k * restarts`` restarts ascend as one
    stack (:func:`_max_fixed`)."""
    log_rho, _, on_support = _log2_on_support(m)
    if not on_support.all():
        raise SupportViolationError("r_quantity requires a full-rank state")
    return _max_fixed(-log_rho, d, restarts, seeds)[0]
