"""Fidelity of entanglement (fully entangled fraction) and witnesses.

``F(rho) = max <phi| (U^dag (x) I) rho (U (x) I) |phi>`` over unitaries U,
with ``|phi> = (1/sqrt d) sum_i |ii>``. For two qubits a closed form in
the correlation-matrix singular values is exact. In any dimension the
fidelity, ``r_quantity`` and the user-channel FAC2 worst case in
:mod:`fidelion.classifiers` are maximized by one multi-start monotone polar
ascent over U(d): each step replaces U by the unitary polar factor of the
objective's gradient, so every iterate is a unitary and its value is a
certified lower bound, reported next to the largest-eigenvalue upper bound.
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
from .states import DensityMatrix, decompose


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

    ``value`` is exact for the closed form and a certified lower bound
    for the optimizer; ``upper`` is the largest-eigenvalue bound, so the
    true fidelity lies in ``[value, upper]``.
    """

    value: float
    method: str  # "closed-form" | "optimized"
    upper: float
    restarts: int = 0
    iterations: int = 0  # polar steps, summed over restarts
    best_unitary: np.ndarray | None = field(default=None, repr=False)


def _require_square(rho: DensityMatrix) -> int:
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise DimensionMismatchError(f"need a d x d system, got dims {rho.dims}")
    if d_a > 4:
        raise UnsupportedDimensionError(f"local dimension {d_a} exceeds 4")
    return d_a


def fidelity_two_qubit(rho: DensityMatrix) -> FidelityResult:
    """Exact two-qubit fidelity of entanglement (:func:`fidelity_closed_form`)."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"closed form needs a 2 x 2 system, got {rho.dims}")
    t = decompose(rho).t
    value = float(fidelity_closed_form(t, np.linalg.svd(t, compute_uv=False)))
    return FidelityResult(value=value, method="closed-form", upper=value)


def fidelity_closed_form(t: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Two-qubit fidelity from the correlation matrix ``t`` and its singular values ``s``.

    Maximally entangled two-qubit states have orthogonal correlation
    matrices of determinant -1, so with singular values s1 >= s2 >= s3 the
    maximum overlap is ``(1 + s1 + s2 + s3)/4`` when ``det T <= 0`` and
    ``(1 + s1 + s2 - s3)/4`` otherwise. The first branch (the plain trace
    norm ``|T|_1``) applies to every state with fidelity above 1/2.
    ``t`` may be a stack ``(..., 3, 3)`` with ``s`` of shape ``(..., 3)``.
    """
    sign = np.where(np.linalg.det(t) <= 0, 1.0, -1.0)
    return (1.0 + s[..., 0] + s[..., 1] + sign * s[..., 2]) / 4.0


#: polar steps allowed per restart (restarts at d <= 4 settle in a few hundred)
MAX_STEPS = 2000
#: a restart stops once one step raises the objective by at most this much
STEP_GAIN_TOL = 1e-14


def _haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random d x d unitary: QR of a complex Gaussian, phases fixed."""
    z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(z)
    diag = np.diag(r)
    return q * (diag / np.abs(diag))


def _maximize_over_unitaries(
    gram, d: int, restarts: int, seed
) -> tuple[float, np.ndarray, int]:
    """Maximize ``f(x)`` over ``x = vec(U)`` with U unitary, through ``gram``.

    ``gram(x)`` returns a positive semidefinite matrix M whose form
    ``<x| M |x>/d`` equals ``f(x)`` and whose form at every other unitary y
    lies at or below ``f(y)``; a fixed objective ``<v| m |v>`` with
    ``v = vec(U)/sqrt(d)`` passes ``lambda _: m``. Monotone polar ascent:
    with ``G = reshape(M x, (d, d)) = W S V^dag``, the step ``U <- W V^dag``
    maximizes the linearization of the convex form at U over unitaries
    (the orthogonal Procrustes solution), so neither the form nor ``f``
    decreases. Restart 0 starts at the identity, the others at Haar-random
    unitaries drawn from ``np.random.default_rng(seed)``. Returns the best
    value, its unitary and the number of polar steps taken.
    """
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be at least 1, got {restarts}")
    rng = np.random.default_rng(seed)
    best_val, best_u, steps = -np.inf, None, 0
    for r in range(restarts):
        x = (np.eye(d, dtype=complex) if r == 0 else _haar_unitary(d, rng)).ravel()
        g = gram(x) @ x
        value = np.vdot(x, g).real / d
        for _ in range(MAX_STEPS):
            w, _, vh = np.linalg.svd(g.reshape(d, d))
            x_next = (w @ vh).ravel()
            g_next = gram(x_next) @ x_next
            next_value = np.vdot(x_next, g_next).real / d
            steps += 1
            gain = next_value - value
            if gain > 0:
                x, g, value = x_next, g_next, next_value
            if gain <= STEP_GAIN_TOL:
                break
        if value > best_val:
            best_val, best_u = value, x.reshape(d, d)
    return float(best_val), best_u, steps


def fidelity_optimize(rho: DensityMatrix, restarts: int = 20, seed=42) -> FidelityResult:
    """Fidelity of entanglement by direct maximization over local unitaries.

    Best-effort: the returned ``value`` is a guaranteed lower bound on the
    true fidelity, and ``upper`` (the largest eigenvalue) a guaranteed
    upper bound. Classification decisions should use the bracket.
    """
    d = _require_square(rho)
    value, unitary, steps = _maximize_over_unitaries(lambda _: rho.matrix, d, restarts, seed)
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
    """Expectation value ``Tr[W rho]``."""
    if rho.dim != witness.matrix.shape[0]:
        raise DimensionMismatchError(
            f"witness dimension {witness.matrix.shape[0]} does not match state {rho.dim}"
        )
    return float(np.trace(witness.matrix @ rho.matrix).real)


def r_quantity(rho: DensityMatrix, restarts: int = 20, seed=42) -> float:
    """``max_U -Tr[log2(rho) (U (x) I) |phi><phi| (U^dag (x) I)]``.

    Defined for full-rank states only; rank-deficient input raises
    ``SupportViolationError``. Always at least ``-F(rho)``.
    """
    d = _require_square(rho)
    log_rho, null = rho.log2()
    if null.shape[1]:
        raise SupportViolationError("r_quantity requires a full-rank state")
    value, _, _ = _maximize_over_unitaries(lambda _: -log_rho, d, restarts, seed)
    return value
