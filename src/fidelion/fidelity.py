"""Fidelity of entanglement (fully entangled fraction) and witnesses.

``F(rho) = max <phi| (U^dag (x) I) rho (U (x) I) |phi>`` over unitaries U,
with ``|phi> = (1/sqrt d) sum_i |ii>``. For two qubits a closed form in
the correlation-matrix singular values is exact; in higher dimensions a
multi-start derivative-free optimizer reports a certified lower bound
next to the largest-eigenvalue upper bound.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
from scipy.optimize import minimize

from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    SupportViolationError,
    UnsupportedDimensionError,
)
from .linalg import matrix_log_on_support
from .states import DensityMatrix, decompose, gell_mann_basis


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
    iterations: int = 0
    best_params: np.ndarray | None = field(default=None, repr=False)


def _require_square(rho: DensityMatrix, max_d: int = 4) -> int:
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise DimensionMismatchError(f"need a d x d system, got dims {rho.dims}")
    if d_a > max_d:
        raise UnsupportedDimensionError(f"local dimension {d_a} exceeds {max_d}")
    return d_a


def fidelity_two_qubit(rho: DensityMatrix) -> FidelityResult:
    """Exact two-qubit fidelity of entanglement from the correlation matrix.

    Maximally entangled two-qubit states have orthogonal correlation
    matrices of determinant -1, so with singular values s1 >= s2 >= s3 the
    maximum overlap is ``(1 + s1 + s2 + s3)/4`` when ``det T <= 0`` and
    ``(1 + s1 + s2 - s3)/4`` otherwise. The first branch (the plain trace
    norm ``|T|_1``) applies to every state with fidelity above 1/2.
    """
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"closed form needs a 2 x 2 system, got {rho.dims}")
    t = decompose(rho).t
    s = np.linalg.svd(t, compute_uv=False)
    sign = 1.0 if np.linalg.det(t) <= 0 else -1.0
    value = float((1.0 + s[0] + s[1] + sign * s[2]) / 4.0)
    return FidelityResult(value=value, method="closed-form", upper=value)


@lru_cache(maxsize=None)
def _generators(d: int) -> np.ndarray:
    """The d^2 Hermitian generators used to parameterize U(d)."""
    return np.stack(list(gell_mann_basis(d)) + [np.eye(d, dtype=complex)])


def unitary_from_params(theta: np.ndarray, d: int) -> np.ndarray:
    """``exp(i sum_k theta_k g_k)`` over the U(d) generator set."""
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (d * d,):
        raise DimensionMismatchError(f"need {d * d} parameters for U({d})")
    if d == 2:
        # exp(i(n.sigma + c I)) in closed form; the generic eigh path is
        # measurably slower in the optimizer's inner loop.
        x, y, z, c = theta
        n = np.sqrt(x * x + y * y + z * z)
        if n < 1e-300:
            return np.exp(1j * c) * np.eye(2, dtype=complex)
        cs, sn = np.cos(n), 1j * np.sin(n) / n
        u = np.array(
            [[cs + sn * z, sn * (x - 1j * y)], [sn * (x + 1j * y), cs - sn * z]]
        )
        return np.exp(1j * c) * u
    h = np.tensordot(theta, _generators(d), axes=1)
    w, v = np.linalg.eigh(h)
    return (v * np.exp(1j * w)) @ v.conj().T


def _maximize_over_unitaries(
    m: np.ndarray, d: int, restarts: int, seed, max_evals: int
) -> tuple[float, np.ndarray, int]:
    """Maximize ``<v| m |v>`` with ``v = vec(U)/sqrt(d)`` over unitary U.

    Multi-start Nelder-Mead: restart 0 starts at the identity, the rest
    at uniform random parameters from generator streams derived from
    (seed, restart index). Simplex scale 0.3 rad, convergence when the
    simplex value spread drops below 1e-10, at most ``max_evals``
    evaluations per restart.
    """
    if restarts < 1:
        raise InvalidParameterError(f"restarts must be at least 1, got {restarts}")
    n = d * d
    sqrt_d = np.sqrt(d)

    def objective(theta):
        v = unitary_from_params(theta, d).ravel() / sqrt_d
        return -np.real(np.vdot(v, m @ v))

    eye = np.eye(n)
    best_val, best_x, evals = np.inf, np.zeros(n), 0
    for r in range(restarts):
        if r == 0:
            x0 = np.zeros(n)
        else:
            x0 = np.random.default_rng([_seed_int(seed), r]).uniform(-np.pi, np.pi, n)
        simplex = np.vstack([x0] + [x0 + 0.3 * eye[k] for k in range(n)])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={
                "maxfev": max_evals,
                "fatol": 1e-10,
                "xatol": 1e-10,
                "initial_simplex": simplex,
            },
        )
        evals += res.nfev
        if res.fun < best_val:
            best_val, best_x = res.fun, res.x
    return -best_val, best_x, evals


def _seed_int(seed) -> int:
    return int(seed) if seed is not None else 0


def fidelity_optimize(
    rho: DensityMatrix, restarts: int = 20, seed=42, max_evals: int = 2000
) -> FidelityResult:
    """Fidelity of entanglement by direct maximization over local unitaries.

    Best-effort: the returned ``value`` is a guaranteed lower bound on the
    true fidelity, and ``upper`` (the largest eigenvalue) a guaranteed
    upper bound. Classification decisions should use the bracket.
    """
    d = _require_square(rho)
    value, params, evals = _maximize_over_unitaries(
        rho.matrix, d, restarts, seed, max_evals
    )
    return FidelityResult(
        value=float(value),
        method="optimized",
        upper=fidelity_upper_bound(rho),
        restarts=restarts,
        iterations=evals,
        best_params=params,
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


def r_quantity(
    rho: DensityMatrix, restarts: int = 20, seed=42, max_evals: int = 2000
) -> float:
    """``max_U -Tr[log2(rho) (U (x) I) |phi><phi| (U^dag (x) I)]``.

    Defined for full-rank states only; rank-deficient input raises
    ``SupportViolationError``. Always at least ``-F(rho)``.
    """
    d = _require_square(rho)
    log_rho, deficient = matrix_log_on_support(rho.matrix)
    if deficient:
        raise SupportViolationError("r_quantity requires a full-rank state")
    value, _, _ = _maximize_over_unitaries(-log_rho, d, restarts, seed, max_evals)
    return float(value)
