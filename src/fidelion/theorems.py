"""Sampling harness for the entropy/fidelity bound checks.

Each check evaluates both sides of its inequality or biconditional on a
single state and reports a signed agreement margin; suite runners
aggregate over seeded random samples. Samples in which either compared
quantity sits within 1e-9 of its boundary are excluded and counted
separately; failures are counterexamples outside that zone.

Biconditionals compare the F > 1/2 predicate (exact two-qubit closed
form) against an entropy threshold computed from Bloch data; the entropy
itself is always computed spectrally, so the two routes are independent
up to the algebraic identity under test. The one exception is the
conditional Tsallis check, whose bound applies to the linear form
``Tr(rho_B^2) - Tr(rho_AB^2)`` rather than the normalized quotient.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .entropy import (
    conditional_min_entropy,
    conditional_renyi,
    conditional_tsallis2_closed_form,
    min_entropy,
    renyi,
    tsallis,
)
from .errors import InvalidParameterError
from .fidelity import fidelity_closed_form, fidelity_two_qubit, fidelity_upper_bound, r_quantity
from .states import (
    DensityMatrix,
    decompose,
    random_density_matrix,
    weyl_spectrum,
    weyl_state,
)

#: samples, and channel verdicts, closer than this to a boundary are
#: excluded or left undecided
BOUNDARY_TOL = 1e-9

#: tolerance for the optimizer-backed relative-entropy check
RELENT_TOL = 1e-6

SUITES = ("lemma1", "renyi", "tsallis", "minentropy", "weyl", "relent")


@dataclass(frozen=True)
class TheoremItem:
    """Outcome of one check on one state."""

    theorem_id: str
    status: str  # "holds" | "fails" | "boundary" | "skip"
    margin: float


@dataclass(frozen=True)
class TheoremCheck:
    """Aggregate over a sample; failures must be zero for acceptance."""

    theorem_id: str
    samples: int
    failures: int
    excluded: int
    worst_margin: float
    counterexample: DensityMatrix | None = None


def _biconditional(theorem_id: str, m_p: float, m_q: float) -> TheoremItem:
    closest = min(abs(m_p), abs(m_q))
    if closest <= BOUNDARY_TOL:
        return TheoremItem(theorem_id, "boundary", closest)
    holds = (m_p > 0) == (m_q > 0)
    return TheoremItem(theorem_id, "holds" if holds else "fails", closest if holds else -closest)


def _inequality(theorem_id: str, margin: float, tol: float = BOUNDARY_TOL) -> TheoremItem:
    if abs(margin) <= tol:
        return TheoremItem(theorem_id, "boundary", margin)
    return TheoremItem(theorem_id, "holds" if margin > 0 else "fails", margin)


def _correlation_profile(rho: DensityMatrix):
    bf = decompose(rho)
    sing = np.linalg.svd(bf.t, compute_uv=False)
    r = 2.0 * (sing[0] * sing[1] + sing[0] * sing[2] + sing[1] * sing[2])
    a2 = float(bf.a @ bf.a)
    b2 = float(bf.b @ bf.b)
    return bf, sing, r, a2, b2


def check_lemma1(rho: DensityMatrix) -> TheoremItem:
    """|T|_1 > 1 iff |T|_2^2 > 1 - R with R = 2(s1 s2 + s1 s3 + s2 s3)."""
    _, sing, r, _, _ = _correlation_profile(rho)
    m_p = float(sing.sum()) - 1.0
    m_q = float(sing @ sing) - (1.0 - r)
    return _biconditional("lemma1", m_p, m_q)


def check_renyi2_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """F > 1/2 iff S2(AB) < log2 Gamma, and iff S2(A|B) < log2 Delta."""
    bf, sing, r, a2, b2 = _correlation_profile(rho)
    m_f = fidelity_closed_form(bf.t, sing) - 0.5
    denom = 2.0 + a2 + b2 - r
    items = []
    for theorem_id, numer, s in (
        ("theorem6", 4.0, renyi(rho, 2)),
        ("theorem7", 2.0 + 2.0 * b2, conditional_renyi(rho, 2)),
    ):
        # a nonpositive denominator means the bound is vacuous (+inf)
        m_q = np.inf if denom <= 0 else float(np.log2(numer / denom)) - s
        items.append(_biconditional(theorem_id, m_f, m_q))
    return items


def check_min_entropy_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """S_inf(AB) <= -log2 F and S_inf(A|B) <= log2(|rho_B|_O / F);
    when F > 1/2 additionally S_inf(AB) < 1 and
    S_inf(A|B) < log2(2 |rho_B|_O)."""
    f = fidelity_two_qubit(rho).value
    lam_b = float(rho.marginal_b_eigenvalues()[-1])
    s_inf = min_entropy(rho)
    s_inf_cond = conditional_min_entropy(rho)
    items = [
        _inequality("theorem8", -np.log2(f) - s_inf),
        _inequality("theorem9", np.log2(lam_b / f) - s_inf_cond),
    ]
    if f - 0.5 > BOUNDARY_TOL:
        items.append(_inequality("theorem10", 1.0 - s_inf))
        items.append(_inequality("theorem11", np.log2(2.0 * lam_b) - s_inf_cond))
    else:
        items.append(TheoremItem("theorem10", "skip", 0.0))
        items.append(TheoremItem("theorem11", "skip", 0.0))
    return items


def check_tsallis_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """F > 1/2 iff T2(AB) < eta, and iff the linear conditional Tsallis
    form is below Lambda."""
    bf, sing, r, a2, b2 = _correlation_profile(rho)
    m_f = fidelity_closed_form(bf.t, sing) - 0.5
    eta = (2.0 - a2 - b2 + r) / 4.0
    lam = (b2 - a2 + r) / 4.0
    return [
        _biconditional("theorem12", m_f, eta - tsallis(rho, 2)),
        _biconditional("theorem13", m_f, lam - conditional_tsallis2_closed_form(bf)),
    ]


def check_weyl_observations(t) -> list[TheoremItem]:
    """The six locally-maximally-mixed-state observations for diagonal
    correlations t; the Renyi observations 1-2 carry the side condition
    0 < Omega < 1 and are skipped outside it."""
    t = np.asarray(t, dtype=float)
    rho = weyl_state(t)
    at = np.abs(t)
    omega = float(at[0] * at[1] + at[0] * at[2] + at[1] * at[2])
    bf = decompose(rho)
    m_f = fidelity_closed_form(bf.t, np.linalg.svd(bf.t, compute_uv=False)) - 0.5
    items = []
    if BOUNDARY_TOL < omega < 1.0 - BOUNDARY_TOL:
        items.append(
            _biconditional("obs1", m_f, float(np.log2(2.0 / (1.0 - omega))) - renyi(rho, 2))
        )
        items.append(
            _biconditional(
                "obs2", m_f, float(np.log2(1.0 / (1.0 - omega))) - conditional_renyi(rho, 2)
            )
        )
    else:
        items.append(TheoremItem("obs1", "skip", 0.0))
        items.append(TheoremItem("obs2", "skip", 0.0))
    items.append(_biconditional("obs3", m_f, 1.0 - min_entropy(rho)))
    items.append(_biconditional("obs4", m_f, -conditional_min_entropy(rho)))
    items.append(_biconditional("obs5", m_f, (1.0 + omega) / 2.0 - tsallis(rho, 2)))
    items.append(
        _biconditional("obs6", m_f, omega / 2.0 - conditional_tsallis2_closed_form(bf))
    )
    return items


def check_relative_entropy_theorem(
    rho: DensityMatrix, restarts: int = 4, seed=42
) -> TheoremItem:
    """r_quantity(rho) >= -F(rho) within 1e-6, with F replaced by its
    largest-eigenvalue upper bound (so the check is one-sided safe even
    though both quantities are optimizer estimates)."""
    value = r_quantity(rho, restarts=restarts, seed=seed)
    margin = value + fidelity_upper_bound(rho)
    return _inequality("theorem14", margin, tol=RELENT_TOL)


class _Accumulator:
    def __init__(self, theorem_id: str):
        self.theorem_id = theorem_id
        self.samples = 0
        self.failures = 0
        self.excluded = 0
        self.worst = np.inf
        self.counterexample: DensityMatrix | None = None

    def add(self, item: TheoremItem, rho: DensityMatrix | None) -> None:
        if item.status == "skip":
            return
        if item.status == "boundary":
            self.excluded += 1
            return
        self.samples += 1
        self.worst = min(self.worst, item.margin)
        if item.status == "fails":
            self.failures += 1
            if self.counterexample is None:
                self.counterexample = rho

    def result(self) -> TheoremCheck:
        worst = self.worst if np.isfinite(self.worst) else 0.0
        return TheoremCheck(
            self.theorem_id, self.samples, self.failures, self.excluded, worst,
            self.counterexample,
        )


def _run_two_qubit(check, ids: list[str], samples: int, seed) -> list[TheoremCheck]:
    rng = np.random.default_rng(seed)
    accs = {tid: _Accumulator(tid) for tid in ids}
    for _ in range(samples):
        rho = random_density_matrix(2, 2, seed=rng)
        items = check(rho)
        if isinstance(items, TheoremItem):
            items = [items]
        for item in items:
            accs[item.theorem_id].add(item, rho)
    return [accs[tid].result() for tid in ids]


def random_weyl_params(rng) -> np.ndarray:
    """Rejection-sample diagonal correlations giving a valid state."""
    while True:
        t = rng.uniform(-1.0, 1.0, 3)
        if weyl_spectrum(t)[0] >= 0.0:
            return t


def run_suite(
    suite: str, samples: int = 10_000, seed=42, restarts: int = 4
) -> list[TheoremCheck]:
    """Run one named suite (or 'all') and return aggregate checks.

    The optimizer-backed relative-entropy suite runs at samples/10 when
    invoked through 'all', matching its heavier per-sample cost.
    """
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    if suite == "all":
        out = []
        for name in SUITES:
            n = max(1, samples // 10) if name == "relent" else samples
            out.extend(run_suite(name, n, seed, restarts))
        return out
    if suite == "lemma1":
        return _run_two_qubit(check_lemma1, ["lemma1"], samples, seed)
    if suite == "renyi":
        return _run_two_qubit(check_renyi2_bounds, ["theorem6", "theorem7"], samples, seed)
    if suite == "tsallis":
        return _run_two_qubit(check_tsallis_bounds, ["theorem12", "theorem13"], samples, seed)
    if suite == "minentropy":
        return _run_two_qubit(
            check_min_entropy_bounds,
            ["theorem8", "theorem9", "theorem10", "theorem11"],
            samples,
            seed,
        )
    if suite == "weyl":
        rng = np.random.default_rng(seed)
        ids = ["obs1", "obs2", "obs3", "obs4", "obs5", "obs6"]
        accs = {tid: _Accumulator(tid) for tid in ids}
        for _ in range(samples):
            t = random_weyl_params(rng)
            for item in check_weyl_observations(t):
                accs[item.theorem_id].add(item, weyl_state(t) if item.status == "fails" else None)
        return [accs[tid].result() for tid in ids]
    if suite == "relent":
        rng = np.random.default_rng(seed)
        acc = _Accumulator("theorem14")
        for k in range(samples):
            rho = random_density_matrix(2, 2, seed=rng)
            acc.add(check_relative_entropy_theorem(rho, restarts=restarts, seed=int(k)), rho)
        return [acc.result()]
    raise ValueError(f"unknown suite {suite!r}")
