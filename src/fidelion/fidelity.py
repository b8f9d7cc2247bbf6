"""Fidelity of entanglement (fully entangled fraction) and witnesses.

``F(rho) = max <phi| (U^dag (x) I) rho (U (x) I) |phi>`` over unitaries U,
with ``|phi> = (1/sqrt d) sum_i |ii>``. :func:`fidelity_optimize` is the
one public fidelity at every d; it and ``r_quantity`` maximize a fixed
form ``<x| M |x>/d`` over ``x = vec(U)`` through one entry,
:func:`_max_fixed`. At d = 2 it is exact and needs no seed: every U in
U(2) is a phase times ``q0 I + i(q1 X + q2 Y + q3 Z)`` with q a real
unit 4-vector, so the maximum is half the largest eigenvalue of a
real symmetric 4 x 4 matrix (:func:`_max_two_qubit`, one stacked ``eigh``
for a stack of matrices, which the relent suite's blocks read too).
At d = 3 and 4, and for the user-channel FAC2 worst case in
:mod:`fidelion.classifiers` at every d, one multi-start monotone polar
ascent over U(d) maximizes one objective. A plain step replaces U by the
unitary polar factor of the objective's gradient; the rounds cycle through
two plain steps and one SQUAREM step, the polar factor of a point
extrapolated from the last three iterates, kept only if it gains. So every
iterate is a unitary and its value is a certified lower bound, reported
next to the largest-eigenvalue upper bound. A restart stops once a plain
step gains at most ``STEP_GAIN_TOL``, or after ``MAX_STEPS`` polar
projections; ``FidelityResult.iterations`` counts the projections of both
kinds. All restarts ascend as one stack, one stacked SVD per round; the
restarts and the seed act there alone.
The verify suites read the two-qubit fidelity and the correlation matrix's
singular values off one real 4 x 4 spectrum instead, the closed form of
Badziag et al. 2000 (:func:`_two_qubit_spectrum`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    SupportViolationError,
    UnsupportedDimensionError,
)
from .linalg import apply_sparse_form, sparse_form
from .states import DensityMatrix, _log2_on_support, gell_mann_basis


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

    ``value`` is exact for the two-qubit maximization ("quaternion"),
    where ``upper`` equals it; for the polar ascent at d = 3 and 4
    ("optimized") it is a certified lower bound and ``upper`` the
    largest-eigenvalue bound, so the true fidelity lies in
    ``[value, upper]``.
    """

    value: float
    method: str  # "quaternion" | "optimized"
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


#: polar projections allowed per restart (on the benchmark's random 4 x 4
#: states, 20 restarts each, a restart settles in 22 to 182)
MAX_STEPS = 2000
#: a restart stops once one plain step raises the objective by at most this much
STEP_GAIN_TOL = 1e-14
#: restarts allowed per ascent, checked before any is drawn: each restart
#: holds a few vectors of d^2 complex numbers (user FAC2: matrices of d^4);
#: this bounds memory, while run time grows linearly in the restarts
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
    (k, d*d) and matrix of ``m`` (k, d*d, d*d), or one matrix (d*d, d*d)
    for every row; the stacked products give each row exactly the numbers
    it gives alone."""
    g = (m @ x[:, :, None])[:, :, 0]
    return g, (x.conj()[:, None, :] @ g[:, :, None])[:, 0, 0].real / d


def _maximize_over_unitaries(gram, d: int, restarts: int, seed) -> tuple[float, np.ndarray, int]:
    """Maximize ``f(x)`` over ``x = vec(U)`` with U unitary, through ``gram``.

    The ``restarts`` rows ascend as one stack: restart 0 starts at the
    identity, the others at Haar-random unitaries drawn from
    ``np.random.default_rng(seed)``. ``gram(x)`` returns, for the points
    ``x`` (m, d*d) of the rows still ascending, Gram matrices M (m, d*d,
    d*d), positive semidefinite, whose form ``<x| M |x>/d`` equals the
    row's ``f(x)`` and whose form at every other unitary y lies at or below
    ``f(y)``; one matrix (d*d, d*d), a fixed objective, serves every row.

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
    after ``MAX_STEPS`` polar projections of either kind.

    The rows still ascending carry their own compact state, in restart
    order: restart index, iterate, value, gradient and SQUAREM anchor. In a
    round where every row gains, the new iterates replace that state
    outright; a row is written to the full iterate, value and step arrays
    only in the round it leaves, with the rounds it ascended as its steps.
    Returns the value of the best restart (the first maximum in restart
    order), its unitary (d, d) and the polar projections summed over the
    restarts.
    """
    _check_restarts(restarts)
    y = _restart_points(d, restarts, seed)
    x, value, steps = np.empty_like(y), np.empty(restarts), np.empty(restarts, dtype=int)
    # the live rows: restart index, iterate y, value and gradient
    live = np.arange(restarts)
    g, val = _gradient_value(gram(y), y, d)
    for step in range(MAX_STEPS):
        if not live.size:
            break
        stage = step % 3
        if stage == 0:
            anchor = y  # x0; _extrapolate writes into it once y is a new array
        x_next = _polar((anchor if stage == 2 else g).reshape(-1, d, d)).reshape(-1, d * d)
        g_next, next_value = _gradient_value(gram(x_next), x_next, d)
        gain = next_value - val
        if stage == 1:
            # every row still here kept its first step, so y is x1
            anchor = _extrapolate(anchor, y, x_next)
        down = ~(gain > 0)
        if down.any():
            x_next[down], next_value[down], g_next[down] = y[down], val[down], g[down]
        y, val, g = x_next, next_value, g_next
        if stage == 2:
            continue
        done = gain <= STEP_GAIN_TOL
        if done.any():
            gone = live[done]
            x[gone], value[gone], steps[gone] = y[done], val[done], step + 1
            keep = ~done
            live, y, val, g, anchor = live[keep], y[keep], val[keep], g[keep], anchor[keep]
    x[live], value[live], steps[live] = y, val, MAX_STEPS
    best = np.argmax(value)
    return value[best], x[best].reshape(d, d).copy(), int(steps.sum())


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


@lru_cache(maxsize=None)
def _correlation_form() -> tuple[np.ndarray, np.ndarray]:
    """``sum_ij t_ij K[i, j]`` as a :func:`fidelion.linalg.sparse_form` from
    the 9 entries of t (row-major) to the 16 of N, built on first use: 2 or
    3 nonzero terms of 9 per entry, in the ``(i, j)`` order in which
    ``np.einsum("...ij,ijpq->...pq", t, K)`` adds them, so each entry is
    the bits of that contraction."""
    return sparse_form(_CORRELATION_FORMS.reshape(9, 16).T)


def _two_qubit_spectrum(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values (descending) of a two-qubit correlation matrix ``t``
    and the state's fidelity of entanglement, from one real 4 x 4 ``eigvalsh``.

    ``N = I/4 + sum_ij t_ij K[i, j]`` is ``Re(B^dag rho B) / 2``, so its top
    eigenvalue mu4 is the fidelity (the maximum over unitaries of
    :func:`_max_two_qubit`). Its ascending eigenvalues are ``(1 + e.t')/4`` for
    the signed singular values t' of t and the sign patterns e of the Bell
    basis (Hill and Wootters 1997; Badziag et al. 2000), so the singular values
    are ``|2(mu3 + mu4) - 1|``, ``|2(mu2 + mu4) - 1|``, ``|2(mu2 + mu3) - 1|``
    sorted. ``t`` may be a stack ``(..., 3, 3)``. The sum over ``(i, j)`` is
    the sparse form :func:`_correlation_form`, a gather and a fixed sum per
    entry with no BLAS, so each row of a stack gets exactly what it gets
    alone.
    """
    t = np.asarray(t, dtype=float)
    n = apply_sparse_form(_correlation_form(), t.reshape(t.shape[:-2] + (9,)))
    mu = np.linalg.eigvalsh(n.reshape(n.shape[:-1] + (4, 4)) + np.eye(4) / 4)
    _, mu2, mu3, mu4 = np.moveaxis(mu, -1, 0)
    signed = np.stack([mu3 + mu4, mu2 + mu4, mu2 + mu3], axis=-1) * 2.0 - 1.0
    return -np.sort(-np.abs(signed), axis=-1), mu4


def _max_two_qubit(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The exact maximum of ``<x| m[j] |x>/2`` over ``x = vec(U)`` with U
    in U(2), for each Hermitian matrix of a stack ``m`` (k, 4, 4), and a
    unitary (k, 2, 2) that attains it. With ``x = e^{i phi} B q`` the form
    is ``q^T Re(B^dag M B) q`` (the phase cancels and the imaginary part is
    antisymmetric) over real unit q, so its maximum is half the top
    eigenvalue of the real symmetric matrix, from one stacked ``eigh``, at
    ``U = q0 I + i(q1 X + q2 Y + q3 Z)`` of the top eigenvector."""
    w, v = np.linalg.eigh((_QUATERNION.conj().T @ m @ _QUATERNION).real)
    return w[:, -1] / 2, (v[:, :, -1] @ _QUATERNION.T).reshape(-1, 2, 2)


def _max_fixed(m: np.ndarray, d: int, restarts: int, seed) -> tuple[float, np.ndarray, int]:
    """Maximize the fixed objective ``<x| m |x>/d`` over ``x = vec(U)``
    with U unitary, for a Hermitian ``m`` (d*d, d*d): the maximum, its
    unitary (d, d) and the polar projections taken. At d = 2 the maximum
    is exact (:func:`_max_two_qubit`), no step is taken and the seed is not
    read; at d = 3 and 4 it is the polar ascent from ``restarts`` starts.
    ``restarts`` is range-checked at every d."""
    if d != 2:
        return _maximize_over_unitaries(lambda _: m, d, restarts, seed)
    _check_restarts(restarts)
    value, unitary = _max_two_qubit(m[None])
    return value[0], unitary[0], 0


def _neg_log2(m: np.ndarray) -> np.ndarray:
    """``-log2 rho`` of each state of a stack ``m`` (k, n, n) of validated
    states, from one stacked ``eigh``; a state that is not full rank raises
    ``SupportViolationError``."""
    log_rho, _, on_support = _log2_on_support(m)
    if not on_support.all():
        raise SupportViolationError("r_quantity requires a full-rank state")
    return -log_rho


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
    value, unitary, steps = _max_fixed(rho.matrix, d, restarts, seed)
    value = float(value)
    if d == 2:
        return FidelityResult(value, "quaternion", upper=value, best_unitary=unitary)
    return FidelityResult(
        value=value,
        method="optimized",
        upper=fidelity_upper_bound(rho),
        restarts=restarts,
        iterations=steps,
        best_unitary=unitary,
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
    """Expectation value ``Tr[W rho]`` on a d x d state, d the witness's."""
    if rho.dims != (witness.d, witness.d):
        raise DimensionMismatchError(
            f"witness on dims {(witness.d, witness.d)} does not match state dims {rho.dims}"
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
    return float(_max_fixed(_neg_log2(rho.matrix[None])[0], d, restarts, seed)[0])
