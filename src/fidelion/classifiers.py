"""Channel-class certification over Schmidt-parameterized pure inputs.

Class tags
----------
FBC    one-sided channel keeps output fidelity at or below 1/d for all inputs
FAC2   two-local channel keeps output fidelity at or below 1/d' for all inputs
NCEBC  one-sided channel keeps conditional entropy nonnegative
NCEAC  two-local channel keeps conditional entropy within B nonnegative

For the depolarizing families the computational-basis Schmidt grid is
exhaustive: the channel is unitarily covariant and every figure of merit
is local-unitary invariant, so membership verdicts are exact up to grid
refinement. For user-supplied Kraus channels the grid is sampled
evidence only and a "member" verdict is never issued (a violation still
certifies non-membership). Unital channels get the maximally-entangled
input shortcut for NCEBC.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize_scalar

from .channels import (
    KrausChannel,
    apply_one_sided,
    apply_two_local,
    compose,
    convex_mix,
    depolarizing,
    unitary_channel,
)
from .entropy import conditional_von_neumann
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonMonotoneError,
    UnsupportedFamilyError,
)
from .fidelity import fidelity_optimize, fidelity_two_qubit
from .states import DensityMatrix, SchmidtPureState, random_density_matrix, schmidt_state
from .theorems import BOUNDARY_TOL

CLASSES = ("FBC", "FAC2", "NCEBC", "NCEAC")
FAMILIES = ("qubit-depol", "qutrit-depol", "user-kraus")

#: width in p of the bracket :func:`threshold` bisects down to
THRESHOLD_TOL = 1e-5

#: points of the uniform p grid on which :func:`threshold` locates the flip
COARSE_POINTS = 21


@dataclass(frozen=True)
class ClassificationReport:
    """Membership verdict for one channel class at one parameter value.

    ``margin`` is the signed distance from the defining boundary
    (positive for members). Non-member verdicts carry the violating
    Schmidt input. ``evidence`` is "exact" when the input grid provably
    covers all pure states, "sampled" otherwise.
    """

    cls: str
    p: float
    verdict: str  # "member" | "non-member" | "undecided"
    worst_input: SchmidtPureState
    worst_value: float
    margin: float
    evidence: str = "exact"


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection bracket for the membership boundary in p."""

    p_star: float
    bracket: tuple[float, float]
    iterations: int


def _family_channel(family: str, p: float, channel: KrausChannel | None) -> tuple[KrausChannel, bool]:
    """Resolve a family tag to a channel; second element is True when the
    Schmidt grid is exhaustive (unitarily covariant family)."""
    if family == "qubit-depol":
        return depolarizing(2, p), True
    if family == "qutrit-depol":
        return depolarizing(3, p), True
    if family == "user-kraus":
        if channel is None:
            raise UnsupportedFamilyError("family 'user-kraus' needs a channel argument")
        return channel, False
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _schmidt_grid(d: int, grid: int) -> list[np.ndarray]:
    if d == 2:
        return [np.array([q0, 1.0 - q0]) for q0 in np.linspace(0.0, 1.0, grid)]
    # lattice q = n/m over the probability simplex of d parts, with the
    # smallest m >= 3 that gives more than `grid` points, in lexicographic
    # order of the first d - 1 parts
    m = 3
    while math.comb(m + d - 1, d - 1) <= grid:
        m += 1
    return [
        np.array([*n, m - sum(n)], dtype=float) / m
        for n in itertools.product(range(m + 1), repeat=d - 1)
        if sum(n) <= m
    ]


def _output_state(cls: str, channel: KrausChannel, q: np.ndarray) -> DensityMatrix:
    rho = schmidt_state(q)
    if cls in ("FBC", "NCEBC"):
        return apply_one_sided(channel, rho, side="B")
    return apply_two_local(channel, channel, rho)


def certify(
    cls: str,
    family: str,
    p: float,
    grid: int = 101,
    channel: KrausChannel | None = None,
    restarts: int = 20,
    seed=42,
) -> ClassificationReport:
    """Certify membership of a channel in one of the four classes.

    Worst cases are searched over the Schmidt grid (at least 101 points),
    with bounded scalar refinement around the best grid point for qubit
    systems. Fidelity verdicts in d > 2 use the optimizer bracket, never
    the point estimate.
    """
    if cls not in CLASSES:
        raise UnsupportedFamilyError(f"unknown class {cls!r}")
    _check_grid(grid)
    chan, exhaustive = _family_channel(family, p, channel)
    d = chan.dim_in
    if cls == "FBC" and chan.dim_out != d:
        # the one-sided output lives on d_in x d_out, where no maximally
        # entangled state, and so no fidelity of entanglement, is defined
        raise DimensionMismatchError(
            f"FBC needs dim_out == dim_in, got dim_in={d}, dim_out={chan.dim_out}"
        )
    # every class bounds a score over pure inputs: the output fidelity by
    # one over the output dimension, or the negated conditional entropy by 0
    fidelity_class = cls in ("FBC", "FAC2")
    bound = 1.0 / chan.dim_out if fidelity_class else 0.0

    def score(q: np.ndarray) -> tuple[float, float]:
        """(lower, upper) bracket of the score of the output for input q."""
        out = _output_state(cls, chan, q)
        if not fidelity_class:
            s = -conditional_von_neumann(out)
            return s, s
        if out.dims == (2, 2):
            f = fidelity_two_qubit(out).value
            return f, f
        res = fidelity_optimize(out, restarts=restarts, seed=seed)
        return res.value, res.upper

    if cls == "NCEBC" and chan.is_unital():
        q = np.full(d, 1.0 / d)
        return _report(cls, p, q, *score(q), bound, exhaustive=True)

    qs = _schmidt_grid(d, grid)
    brackets = np.array([score(q) for q in qs])
    lows, highs = brackets[:, 0], brackets[:, 1]
    best = int(np.argmax(lows))
    if d == 2:
        lo_q, hi_q = _neighbor_bounds(qs, best)
        ref = minimize_scalar(
            lambda q0: -score(np.array([q0, 1.0 - q0]))[0],
            bounds=(lo_q, hi_q),
            method="bounded",
            options={"xatol": 1e-10},
        )
        if -ref.fun > lows[best]:
            lows[best] = -ref.fun
            highs[best] = max(highs[best], -ref.fun)
            qs[best] = np.array([ref.x, 1.0 - ref.x])
    worst = int(np.argmax(lows))
    return _report(
        cls, p, qs[worst], float(lows[worst]), float(highs.max()), bound, exhaustive
    )


def _check_grid(grid: int) -> None:
    if grid < 101:
        raise InvalidParameterError(f"grid must be at least 101, got {grid}")


def _neighbor_bounds(qs: list[np.ndarray], idx: int) -> tuple[float, float]:
    lo = qs[idx - 1][0] if idx > 0 else qs[idx][0]
    hi = qs[idx + 1][0] if idx + 1 < len(qs) else qs[idx][0]
    return (min(lo, hi), max(lo, hi))


def _report(
    cls: str, p: float, q: np.ndarray, low: float, high: float, bound: float,
    exhaustive: bool,
) -> ClassificationReport:
    """Verdict from the bracket [low, high] of the worst score: a member
    keeps ``high`` below ``bound``, a non-member has ``low`` above it."""
    if high <= bound - BOUNDARY_TOL:
        verdict = "member" if exhaustive else "undecided"
        margin = bound - high
    elif low >= bound + BOUNDARY_TOL:
        verdict, margin = "non-member", bound - low
    else:
        verdict, margin = "undecided", bound - 0.5 * (low + high)
    return ClassificationReport(
        cls=cls,
        p=p,
        verdict=verdict,
        worst_input=SchmidtPureState(q),
        # entropy scores are negated conditional entropies
        worst_value=low if cls in ("FBC", "FAC2") else -low,
        margin=float(margin),
        evidence="exact" if exhaustive else "sampled",
    )


def threshold(
    cls: str, family: str, grid: int = 101, restarts: int = 20, seed=42
) -> ThresholdResult:
    """Bisect the membership boundary in p to a bracket of width
    ``THRESHOLD_TOL``.

    The margin is first evaluated on ``COARSE_POINTS`` values of p;
    verdicts must flip exactly once from member to non-member, otherwise
    ``NonMonotoneError`` is raised.
    """

    def margin(p: float) -> float:
        return certify(cls, family, p, grid, restarts=restarts, seed=seed).margin

    ps = np.linspace(0.0, 1.0, COARSE_POINTS)
    signs = [margin(p) > 0 for p in ps]
    flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
    if flips != 1 or not signs[0] or signs[-1]:
        raise NonMonotoneError(
            f"{cls}/{family}: verdicts do not flip exactly once across the p grid"
        )
    k = signs.index(False)
    lo, hi = float(ps[k - 1]), float(ps[k])
    iterations = 0
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if margin(mid) > 0:
            lo = mid
        else:
            hi = mid
        iterations += 1
    return ThresholdResult(p_star=0.5 * (lo + hi), bracket=(lo, hi), iterations=iterations)


def ncea_conditional_entropy_closed_form(p: float, q0: float) -> float:
    """Conditional entropy of the two-local qubit depolarizing output on
    the Schmidt state, from the analytic spectrum.

    The joint spectrum is { (1-p^2)/4 twice, (1 + p^2 -+ 2 s)/4 } with
    ``s = sqrt(p^2 - 4p^2 q0 + 4p^4 q0 + 4p^2 q0^2 - 4p^4 q0^2)`` and the
    marginal spectrum { (1 - p + 2 p q0)/2, (1 + p - 2 p q0)/2 }.
    """
    s = np.sqrt(p**2 - 4 * p**2 * q0 + 4 * p**4 * q0 + 4 * p**2 * q0**2 - 4 * p**4 * q0**2)
    joint = [(1 - p**2) / 4, (1 - p**2) / 4, (1 + p**2 - 2 * s) / 4, (1 + p**2 + 2 * s) / 4]
    marginal = [(1 - p + 2 * p * q0) / 2, (1 + p - 2 * p * q0) / 2]
    return _cond_from_spectra(joint, marginal)


def ncebc_conditional_entropy_closed_form(p: float, alpha: float) -> float:
    """Conditional entropy of the one-sided qubit depolarizing output on
    ``cos(alpha)|00> + sin(alpha)|11>``, from the analytic spectrum.

    ``s = sqrt(2 + 4p + 10p^2 + (2 + 4p - 6p^2) cos(4 alpha))``; joint
    spectrum { (1-p)cos^2/2, (1-p)sin^2/2, (2 + 2p -+ s)/8 }, marginal
    { (1 +- p cos(2 alpha))/2 }.
    """
    c4 = np.cos(4 * alpha)
    s = np.sqrt(2 + 4 * p + 10 * p**2 + 2 * c4 + 4 * p * c4 - 6 * p**2 * c4)
    joint = [
        (1 - p) / 2 * np.cos(alpha) ** 2,
        (1 - p) / 2 * np.sin(alpha) ** 2,
        (2 + 2 * p - s) / 8,
        (2 + 2 * p + s) / 8,
    ]
    marginal = [(1 + p * np.cos(2 * alpha)) / 2, (1 - p * np.cos(2 * alpha)) / 2]
    return _cond_from_spectra(joint, marginal)


def _cond_from_spectra(joint, marginal) -> float:
    total = 0.0
    for lam in joint:
        if lam > 1e-14:
            total -= lam * np.log2(lam)
    for mu in marginal:
        if mu > 1e-14:
            total += mu * np.log2(mu)
    return float(total)


@dataclass(frozen=True)
class PropertyCheck:
    """One closure property verified on a sample."""

    name: str
    passed: bool
    worst_value: float
    bound: float
    samples: int


def property_suite(samples: int = 100, seed=42) -> list[PropertyCheck]:
    """Closure checks on certified depolarizing instances.

    * composition of two FBC members stays FBC
      (depol(2, 0.3) o depol(2, 0.3) acts as depol(2, 0.09));
    * a convex mixture of FAC2 members stays FAC2;
    * post-composing an FBC member with an arbitrary (unitary) channel
      stays FBC on a random-state sample;
    * a channel that annihilates fidelity on all pure inputs also does so
      on random mixed states.
    """
    rng = np.random.default_rng(seed)
    composite = compose(depolarizing(2, 0.3), depolarizing(2, 0.3))
    checks = [_closure_check(
        "compose-fbc", lambda rho: apply_one_sided(composite, rho, "B"), samples, rng,
        certified=certify("FBC", "qubit-depol", 0.09).verdict == "member",
    )]
    mixture = convex_mix(0.5, depolarizing(2, 0.5), depolarizing(2, 0.5))
    checks.append(_closure_check(
        "convex-mix-fac2", lambda rho: apply_two_local(mixture, mixture, rho), samples, rng,
        certified=certify("FAC2", "qubit-depol", 0.5).verdict == "member",
    ))
    haar = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    u, _ = np.linalg.qr(haar)
    post = compose(depolarizing(2, 0.3), unitary_channel(u))
    checks.append(_closure_check(
        "post-compose-fbc", lambda rho: apply_one_sided(post, rho, "B"), samples, rng,
    ))
    annihilator = depolarizing(2, 0.55)
    checks.append(_closure_check(
        "pure-to-mixed-fac2",
        lambda rho: apply_two_local(annihilator, annihilator, rho), samples, rng,
        certified=certify("FAC2", "qubit-depol", 0.55).verdict == "member", strict=True,
    ))
    return checks


def _closure_check(
    name: str, output, samples: int, rng, certified: bool = True, strict: bool = False
) -> PropertyCheck:
    """Largest two-qubit fidelity of ``output(rho)`` over random states,
    checked against 1/2 (strictly below it when ``strict``); the check
    passes only when the pure-input verdict it rests on is ``certified``."""
    worst = -np.inf
    for _ in range(samples):
        rho = random_density_matrix(2, 2, seed=rng)
        worst = max(worst, fidelity_two_qubit(output(rho)).value)
    worst = float(worst)
    below = worst < 0.5 if strict else worst <= 0.5 + BOUNDARY_TOL
    return PropertyCheck(name, certified and below, worst, 0.5, samples)
