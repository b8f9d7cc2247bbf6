"""Entropy functionals of bipartite states, all in bits (base-2 logs).

Conditioning is always on subsystem B: ``S(A|B) = S(AB) - S(B)`` with
``rho_B = Tr_A rho``. Joint and marginal spectra are the ones each
``DensityMatrix`` keeps. Spectral sums ignore eigenvalues at or below
``SUPPORT_EPS``, which implements the continuous extension ``0 log 0 = 0``.

The spectral formulas (``_shannon``, ``_conditional_von_neumann``,
``_renyi``, ``_tsallis``, ``_min_entropy``, ``_conditional_min_entropy``)
and ``conditional_tsallis2_closed_form``
work along the last axis, so they serve one state and a stack of states
alike. ``_conditional_von_neumann`` is the package's one S(A|B) from
spectra: both entropy-class scorers of ``classifiers`` sum through it
too.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, InvalidAlphaError, SupportViolationError
from .states import SUPPORT_EPS, BlochFano, DensityMatrix, decompose


#: |alpha - 1| below which the Renyi and Tsallis sums are taken as
#: ``Tr(rho^alpha) - 1 = sum lam expm1((alpha - 1) ln lam)``, for a state of
#: unit trace: there ``Tr(rho^alpha) - 1`` is small, and formed as a
#: difference it would lose its digits to the 1
NEAR_ONE = 0.5


@dataclass(frozen=True)
class EntropyReport:
    """An entropy value together with how it was obtained."""

    value: float
    method: str  # "spectral" | "closed-form"


def _check_alpha(alpha: float) -> None:
    if not np.isfinite(alpha):
        raise InvalidAlphaError(
            f"alpha must be finite, got {alpha}; for alpha -> infinity use min_entropy"
        )
    if alpha <= 0 or abs(alpha - 1.0) < 1e-12:
        raise InvalidAlphaError(f"alpha must be positive and != 1, got {alpha}")


def _shannon(eigs: np.ndarray) -> np.ndarray:
    # masked like _power_sum, so each spectrum of a stack sums as it would alone
    on_support = eigs > SUPPORT_EPS
    lam = np.where(on_support, eigs, 1.0)
    return -np.sum(lam * np.log2(lam), axis=-1, where=on_support)


def _conditional_von_neumann(eigs: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    return _shannon(eigs) - _shannon(eigs_b)


def _power_sum(eigs: np.ndarray, alpha: float) -> np.ndarray:
    # a masked sum adds the same terms in the same order as summing the
    # support alone, so a stack of spectra gives each state's value exactly
    on_support = eigs > SUPPORT_EPS
    return np.sum(np.where(on_support, eigs, 1.0) ** alpha, axis=-1, where=on_support)


def _checked_power_sum(eigs: np.ndarray, alpha: float) -> np.ndarray:
    # for a caller that takes the log of the sum or divides by it: at a large
    # alpha the sum underflows, where the log or the quotient is inf or nan
    s = _power_sum(eigs, alpha)
    if not (s >= np.finfo(float).tiny).all():
        raise InvalidAlphaError(
            f"Tr(rho^alpha) underflows at alpha = {alpha}; for large alpha use min_entropy"
        )
    return s


def _excess_power_sum(eigs: np.ndarray, alpha: float) -> np.ndarray:
    # Tr(rho^alpha) - Tr(rho) = sum lam expm1((alpha - 1) ln lam): near
    # alpha = 1 it keeps the digits that 1 + small - 1 rounds away
    on_support = eigs > SUPPORT_EPS
    lam = np.where(on_support, eigs, 1.0)
    return np.sum(lam * np.expm1((alpha - 1.0) * np.log(lam)), axis=-1, where=on_support)


def _renyi(eigs: np.ndarray, alpha: float) -> np.ndarray:
    if abs(alpha - 1.0) < NEAR_ONE:
        return np.log1p(_excess_power_sum(eigs, alpha)) / np.log(2.0) / (1 - alpha)
    return np.log2(_checked_power_sum(eigs, alpha)) / (1 - alpha)


def _tsallis(eigs: np.ndarray, alpha: float) -> np.ndarray:
    if abs(alpha - 1.0) < NEAR_ONE:
        return _excess_power_sum(eigs, alpha) / (1 - alpha)
    return (_power_sum(eigs, alpha) - 1.0) / (1 - alpha)


def _min_entropy(eigs: np.ndarray) -> np.ndarray:
    return -np.log2(eigs[..., -1])


def _conditional_min_entropy(eigs: np.ndarray, eigs_b: np.ndarray) -> np.ndarray:
    return np.log2(eigs_b[..., -1] / eigs[..., -1])


def _sqnorm(x: np.ndarray) -> np.ndarray:
    """``x @ x`` along the last axis (the same dot product for a vector
    and for each row of a stack)."""
    return np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]


def von_neumann(rho: DensityMatrix) -> float:
    """S(AB) = -Tr[rho log2 rho]."""
    return float(_shannon(rho.eigenvalues()))


def conditional_von_neumann(rho: DensityMatrix) -> float:
    """S(A|B) = S(AB) - S(B)."""
    return float(_conditional_von_neumann(rho.eigenvalues(), rho.marginal_b_eigenvalues()))


def renyi(rho: DensityMatrix, alpha: float) -> float:
    """Renyi alpha-entropy ``(1/(1-alpha)) log2 Tr(rho^alpha)``.

    For the alpha -> infinity limit use :func:`min_entropy`.
    """
    _check_alpha(alpha)
    return float(_renyi(rho.eigenvalues(), alpha))


def conditional_renyi(rho: DensityMatrix, alpha: float) -> float:
    """S_alpha(A|B) = S_alpha(AB) - S_alpha(B)."""
    _check_alpha(alpha)
    return float(_renyi(rho.eigenvalues(), alpha) - _renyi(rho.marginal_b_eigenvalues(), alpha))


def min_entropy(rho: DensityMatrix) -> float:
    """S_inf(AB) = -log2 of the largest eigenvalue."""
    return float(_min_entropy(rho.eigenvalues()))


def conditional_min_entropy(rho: DensityMatrix) -> float:
    """S_inf(A|B) = log2( lambda_max(rho_B) / lambda_max(rho_AB) )."""
    return float(_conditional_min_entropy(rho.eigenvalues(), rho.marginal_b_eigenvalues()))


def tsallis(rho: DensityMatrix, alpha: float) -> float:
    """Tsallis alpha-entropy ``(1/(1-alpha)) [Tr(rho^alpha) - 1]``."""
    _check_alpha(alpha)
    return float(_tsallis(rho.eigenvalues(), alpha))


def conditional_tsallis(rho: DensityMatrix, alpha: float) -> float:
    """Conditional Tsallis alpha-entropy (normalized quotient form):

    ``[Tr(rho_B^alpha) - Tr(rho_AB^alpha)] / [(alpha-1) Tr(rho_B^alpha)]``.
    """
    _check_alpha(alpha)
    eigs, eigs_b = rho.eigenvalues(), rho.marginal_b_eigenvalues()
    p_b = _checked_power_sum(eigs_b, alpha)
    if abs(alpha - 1.0) < NEAR_ONE:
        diff = _excess_power_sum(eigs_b, alpha) - _excess_power_sum(eigs, alpha)
    else:
        diff = p_b - _power_sum(eigs, alpha)
    return float(diff / ((alpha - 1) * p_b))


def relative_entropy(sigma: DensityMatrix, rho: DensityMatrix) -> float:
    """Relative entropy ``D(sigma || rho) = Tr[sigma (log2 sigma - log2 rho)]``.

    Raises ``SupportViolationError`` when sigma has weight outside the
    support of rho (the divergence would be infinite).
    """
    if sigma.dims != rho.dims:
        raise DimensionMismatchError(f"dims differ: {sigma.dims} vs {rho.dims}")
    log_rho, null = rho.log2()
    outside = float(np.einsum("ij,ik,kj->", null.conj(), sigma.matrix, null).real)
    if outside > 1e-10:
        raise SupportViolationError(
            f"sigma has weight {outside:.3e} outside the support of rho"
        )
    log_sigma, _ = sigma.log2()
    d = np.trace(sigma.matrix @ (log_sigma - log_rho)).real
    return float(d)


def _norms(bf: BlochFano) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``|a|^2, |b|^2, |T|_F^2`` of one state or of each state in a stack."""
    if bf.dims != (2, 2):
        raise DimensionMismatchError("closed forms require a two-qubit BlochFano")
    return _sqnorm(bf.a), _sqnorm(bf.b), np.sum(bf.t * bf.t, axis=(-2, -1))


def renyi2_closed_form(bf: BlochFano) -> float:
    """Two-qubit Renyi 2-entropy from Bloch coordinates:
    ``log2[ 4 / (1 + |a|^2 + |b|^2 + |T|_F^2) ]``."""
    a2, b2, t2 = _norms(bf)
    return float(np.log2(4.0 / (1.0 + a2 + b2 + t2)))


def conditional_renyi2_closed_form(bf: BlochFano) -> float:
    """Two-qubit conditional Renyi 2-entropy:
    ``log2[ (2 + 2|b|^2) / (1 + |a|^2 + |b|^2 + |T|_F^2) ]``."""
    a2, b2, t2 = _norms(bf)
    return float(np.log2((2.0 + 2.0 * b2) / (1.0 + a2 + b2 + t2)))


def tsallis2_closed_form(bf: BlochFano) -> float:
    """Two-qubit Tsallis 2-entropy: ``(3 - |a|^2 - |b|^2 - |T|_F^2) / 4``."""
    a2, b2, t2 = _norms(bf)
    return float((3.0 - a2 - b2 - t2) / 4.0)


def conditional_tsallis2_closed_form(bf: BlochFano) -> float:
    """Two-qubit linear conditional Tsallis 2-form:
    ``(1 - |a|^2 + |b|^2 - |T|_F^2) / 4``.

    This equals ``Tr(rho_B^2) - Tr(rho_AB^2)``, the numerator of
    :func:`conditional_tsallis` at alpha = 2; the two differ by the
    normalization factor ``Tr(rho_B^2)``. Both are kept because the
    fidelity bound for the conditional Tsallis entropy applies to this
    linear form. Works along the leading axes of a stacked ``bf``.
    """
    a2, b2, t2 = _norms(bf)
    return (1.0 - a2 + b2 - t2) / 4.0


def entropy_summary(rho: DensityMatrix) -> dict[str, EntropyReport]:
    """All entropies of a state, keyed by a short label. Spectral values
    always; the two-qubit closed forms are added when they apply.

    The unconditional entropies are clamped at 0: a pure state's spectrum
    may carry rounding (a top eigenvalue a hair above 1) that makes them
    about -4e-16. Conditional entropies may be negative and are kept."""
    out = {
        "S(AB)": EntropyReport(max(0.0, von_neumann(rho)), "spectral"),
        "S(A|B)": EntropyReport(conditional_von_neumann(rho), "spectral"),
        "S2(AB)": EntropyReport(max(0.0, renyi(rho, 2)), "spectral"),
        "S2(A|B)": EntropyReport(conditional_renyi(rho, 2), "spectral"),
        "Sinf(AB)": EntropyReport(max(0.0, min_entropy(rho)), "spectral"),
        "Sinf(A|B)": EntropyReport(conditional_min_entropy(rho), "spectral"),
        "T2(AB)": EntropyReport(max(0.0, tsallis(rho, 2)), "spectral"),
        "T2(A|B)": EntropyReport(conditional_tsallis(rho, 2), "spectral"),
    }
    if rho.dims == (2, 2):
        bf = decompose(rho)
        out["S2(AB) closed"] = EntropyReport(max(0.0, renyi2_closed_form(bf)), "closed-form")
        out["S2(A|B) closed"] = EntropyReport(conditional_renyi2_closed_form(bf), "closed-form")
        out["T2(AB) closed"] = EntropyReport(max(0.0, tsallis2_closed_form(bf)), "closed-form")
        out["T2(A|B) linear"] = EntropyReport(conditional_tsallis2_closed_form(bf), "closed-form")
    return out
