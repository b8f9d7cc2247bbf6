"""Sampling harness for the entropy/fidelity bound checks.

Each check evaluates both sides of its inequality or biconditional on a
stack of states at once and reports a status and a signed agreement
margin for every state; the public per-state ``check_*`` functions pass a
single state as a stack of one, validated as a block row is. All six
suite runners draw seeded random states in blocks of ``BLOCK``, validate
each block once, check it in one pass and aggregate the outcomes; under
'all', the four suites that draw the same Hilbert-Schmidt states share
each block and its validation. A block's draws reproduce the
one-state-at-a-time random stream, so the block size changes no result.
The five two-qubit suites read eigenvalues only: their validation takes
one stacked ``eigvalsh`` and no eigenvectors, and the Bloch-Fano data
come from one contraction. Only the relative-entropy check (``relent``)
keeps the eigendecomposition, as ``DensityMatrix`` does: it takes
``-log2 rho`` from it and runs the restarts of all of the block's states
as one stacked polar ascent, state k of the stream with optimizer seed
k. Samples in which either compared quantity sits within 1e-9 of its
boundary are excluded and counted separately; failures are
counterexamples outside that zone.

Biconditionals compare the F > 1/2 predicate (exact two-qubit closed
form) against an entropy threshold computed from Bloch data; the entropy
itself is always computed spectrally, so the two routes are independent
up to the algebraic identity under test. The one exception is the
conditional Tsallis check, whose bound applies to the linear form
``Tr(rho_B^2) - Tr(rho_AB^2)`` rather than the normalized quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .entropy import (
    _conditional_min_entropy,
    _min_entropy,
    _renyi,
    _sqnorm,
    _tsallis,
    conditional_tsallis2_closed_form,
)
from .errors import DimensionMismatchError, InvalidParameterError
from .fidelity import _r_values, _require_square, fidelity_closed_form
from .linalg import partial_trace
from .states import (
    BlochFano,
    DensityMatrix,
    _bloch_fano,
    _ginibre,
    _validate,
    _weyl_matrix,
    weyl_spectrum,
    weyl_state,
)

#: samples, and channel verdicts, closer than this to a boundary are
#: excluded or left undecided
BOUNDARY_TOL = 1e-9

#: tolerance for the optimizer-backed relative-entropy check
RELENT_TOL = 1e-6

SUITES = ("lemma1", "renyi", "tsallis", "minentropy", "weyl", "relent")

#: states drawn and checked together in one pass of a two-qubit suite; a
#: fixed block keeps the memory of a run flat in the sample count
BLOCK = 256

#: item statuses; outcome arrays hold indices into this tuple
STATUSES = ("holds", "fails", "boundary", "skip")
HOLDS, FAILS, BOUNDARY, SKIP = range(len(STATUSES))


@dataclass(frozen=True)
class TheoremItem:
    """Outcome of one check on one state."""

    theorem_id: str
    status: str  # "holds" | "fails" | "boundary" | "skip"
    margin: float


@dataclass(frozen=True)
class TheoremCheck:
    """Aggregate over a sample; failures must be zero for acceptance.

    ``counterexample`` is the first failing sample, rebuilt from its index
    in the suite's random stream.
    """

    theorem_id: str
    samples: int
    failures: int
    excluded: int
    worst_margin: float
    counterexample: DensityMatrix | None = None

    __hash__ = None  # a counterexample's equality reads arrays, which have no hash


class _Outcome(NamedTuple):
    """One check on a stack of k states: a status code (an index into
    ``STATUSES``) and a margin for each."""

    theorem_id: str
    status: np.ndarray
    margin: np.ndarray


class _Qubits(NamedTuple):
    """What the two-qubit checks read, for a stack of k states."""

    eig: np.ndarray  # (k, 4) ascending spectra
    eig_b: np.ndarray  # (k, 2) ascending spectra of rho_B
    bf: BlochFano  # a, b (k, 3) and t (k, 3, 3)
    sing: np.ndarray  # (k, 3) singular values of t, descending
    f: np.ndarray  # (k,) closed-form fidelity of entanglement


def _qubits(eig: np.ndarray, eig_b: np.ndarray, bf: BlochFano) -> _Qubits:
    sing = np.linalg.svd(bf.t, compute_uv=False)
    return _Qubits(eig, eig_b, bf, sing, fidelity_closed_form(bf.t, sing))


def _validated_qubits(m: np.ndarray) -> _Qubits:
    """Validate a stack (k, 4, 4) of two-qubit density matrices in one call,
    on their eigenvalues alone: no check reads an eigenvector."""
    m, w, _ = _validate(m, vectors=False)
    w_b = np.linalg.eigvalsh(partial_trace(m, (2, 2), "B"))
    return _qubits(w, w_b, _bloch_fano(m, (2, 2)))


def _state_qubits(rho: DensityMatrix) -> _Qubits:
    """One state as a stack of one, taken through :func:`_validated_qubits`
    like a row of a block (not from the eigendecomposition ``rho`` keeps),
    so a per-state check equals its block row bit for bit."""
    if rho.dims != (2, 2):
        raise DimensionMismatchError(f"the checks need a 2 x 2 system, got {rho.dims}")
    return _validated_qubits(rho.matrix[None].copy())


def _biconditional(theorem_id: str, m_p: np.ndarray, m_q: np.ndarray) -> _Outcome:
    closest = np.minimum(np.abs(m_p), np.abs(m_q))
    boundary = closest <= BOUNDARY_TOL
    holds = (m_p > 0) == (m_q > 0)
    status = np.where(boundary, BOUNDARY, np.where(holds, HOLDS, FAILS))
    return _Outcome(theorem_id, status, np.where(boundary | holds, closest, -closest))


def _inequality(theorem_id: str, margin: np.ndarray, tol: float = BOUNDARY_TOL) -> _Outcome:
    status = np.where(np.abs(margin) <= tol, BOUNDARY, np.where(margin > 0, HOLDS, FAILS))
    return _Outcome(theorem_id, status, margin)


def _skip_unless(applies: np.ndarray, outcome: _Outcome) -> _Outcome:
    """``outcome`` where its side condition ``applies``; skip with margin 0 elsewhere."""
    return _Outcome(
        outcome.theorem_id,
        np.where(applies, outcome.status, SKIP),
        np.where(applies, outcome.margin, 0.0),
    )


def _r(sing: np.ndarray) -> np.ndarray:
    """R = 2(s1 s2 + s1 s3 + s2 s3)."""
    s1, s2, s3 = sing[..., 0], sing[..., 1], sing[..., 2]
    return 2.0 * (s1 * s2 + s1 * s3 + s2 * s3)


def _lemma1(q: _Qubits) -> list[_Outcome]:
    sing = q.sing
    return [_biconditional("lemma1", sing.sum(axis=-1) - 1.0, _sqnorm(sing) - (1.0 - _r(sing)))]


def _renyi2_bounds(q: _Qubits) -> list[_Outcome]:
    a2, b2, r = _sqnorm(q.bf.a), _sqnorm(q.bf.b), _r(q.sing)
    m_f = q.f - 0.5
    denom = 2.0 + a2 + b2 - r
    s2 = _renyi(q.eig, 2)
    outcomes = []
    for theorem_id, numer, s in (
        ("theorem6", 4.0, s2),
        ("theorem7", 2.0 + 2.0 * b2, s2 - _renyi(q.eig_b, 2)),
    ):
        # a nonpositive denominator means the bound is vacuous (+inf)
        with np.errstate(divide="ignore", invalid="ignore"):
            m_q = np.where(denom <= 0, np.inf, np.log2(numer / denom) - s)
        outcomes.append(_biconditional(theorem_id, m_f, m_q))
    return outcomes


def _min_entropy_bounds(q: _Qubits) -> list[_Outcome]:
    f, lam_b = q.f, q.eig_b[:, -1]
    s_inf = _min_entropy(q.eig)
    s_inf_cond = _conditional_min_entropy(q.eig, q.eig_b)
    entangled = f - 0.5 > BOUNDARY_TOL
    return [
        _inequality("theorem8", -np.log2(f) - s_inf),
        _inequality("theorem9", np.log2(lam_b / f) - s_inf_cond),
        _skip_unless(entangled, _inequality("theorem10", 1.0 - s_inf)),
        _skip_unless(entangled, _inequality("theorem11", np.log2(2.0 * lam_b) - s_inf_cond)),
    ]


def _tsallis2_bounds(q: _Qubits) -> list[_Outcome]:
    a2, b2, r = _sqnorm(q.bf.a), _sqnorm(q.bf.b), _r(q.sing)
    m_f = q.f - 0.5
    eta = (2.0 - a2 - b2 + r) / 4.0
    lam = (b2 - a2 + r) / 4.0
    return [
        _biconditional("theorem12", m_f, eta - _tsallis(q.eig, 2)),
        _biconditional("theorem13", m_f, lam - conditional_tsallis2_closed_form(q.bf)),
    ]


def _weyl_observations(t: np.ndarray, q: _Qubits) -> list[_Outcome]:
    at = np.abs(t)
    omega = at[:, 0] * at[:, 1] + at[:, 0] * at[:, 2] + at[:, 1] * at[:, 2]
    m_f = q.f - 0.5
    side = (BOUNDARY_TOL < omega) & (omega < 1.0 - BOUNDARY_TOL)
    s2 = _renyi(q.eig, 2)
    with np.errstate(divide="ignore", invalid="ignore"):
        obs1 = np.log2(2.0 / (1.0 - omega)) - s2
        obs2 = np.log2(1.0 / (1.0 - omega)) - (s2 - _renyi(q.eig_b, 2))
    return [
        _skip_unless(side, _biconditional("obs1", m_f, obs1)),
        _skip_unless(side, _biconditional("obs2", m_f, obs2)),
        _biconditional("obs3", m_f, 1.0 - _min_entropy(q.eig)),
        _biconditional("obs4", m_f, -_conditional_min_entropy(q.eig, q.eig_b)),
        _biconditional("obs5", m_f, (1.0 + omega) / 2.0 - _tsallis(q.eig, 2)),
        _biconditional("obs6", m_f, omega / 2.0 - conditional_tsallis2_closed_form(q.bf)),
    ]


def _items(outcomes: list[_Outcome]) -> list[TheoremItem]:
    """The items of the first (for a single state, the only) state of a stack."""
    return [TheoremItem(o.theorem_id, STATUSES[o.status[0]], float(o.margin[0])) for o in outcomes]


def check_lemma1(rho: DensityMatrix) -> TheoremItem:
    """|T|_1 > 1 iff |T|_2^2 > 1 - R with R = 2(s1 s2 + s1 s3 + s2 s3)."""
    (item,) = _items(_lemma1(_state_qubits(rho)))
    return item


def check_renyi2_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """F > 1/2 iff S2(AB) < log2 Gamma, and iff S2(A|B) < log2 Delta."""
    return _items(_renyi2_bounds(_state_qubits(rho)))


def check_min_entropy_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """S_inf(AB) <= -log2 F and S_inf(A|B) <= log2(|rho_B|_O / F);
    when F > 1/2 additionally S_inf(AB) < 1 and
    S_inf(A|B) < log2(2 |rho_B|_O)."""
    return _items(_min_entropy_bounds(_state_qubits(rho)))


def check_tsallis_bounds(rho: DensityMatrix) -> list[TheoremItem]:
    """F > 1/2 iff T2(AB) < eta, and iff the linear conditional Tsallis
    form is below Lambda."""
    return _items(_tsallis2_bounds(_state_qubits(rho)))


def check_weyl_observations(t) -> list[TheoremItem]:
    """The six locally-maximally-mixed-state observations for diagonal
    correlations t; the Renyi observations 1-2 carry the side condition
    0 < Omega < 1 and are skipped outside it."""
    rho = weyl_state(t)
    return _items(_weyl_observations(np.asarray(t, dtype=float)[None], _state_qubits(rho)))


def _relent(w: np.ndarray, v: np.ndarray, d: int, restarts: int, seeds) -> list[_Outcome]:
    """theorem14 on a stack of d x d states, from their ascending eigenpairs:
    ``r_quantity >= -lambda_max`` within ``RELENT_TOL``, state i optimized
    with seed ``seeds[i]``, all states' restarts as one ascent."""
    margin = _r_values(w, v, d, restarts, seeds) + w[:, -1]
    return [_inequality("theorem14", margin, tol=RELENT_TOL)]


def check_relative_entropy_theorem(
    rho: DensityMatrix, restarts: int = 4, seed=42
) -> TheoremItem:
    """r_quantity(rho) >= -F(rho) within 1e-6, with F replaced by its
    largest-eigenvalue upper bound (so the check is one-sided safe even
    though both quantities are optimizer estimates)."""
    d = _require_square(rho)
    (item,) = _items(
        _relent(rho.eigenvalues()[None], rho.eigenvectors[None], d, restarts, [seed])
    )
    return item


#: the two-qubit suites other than weyl: suite -> its check on a stack
_RANDOM_STATE_CHECKS = {
    "lemma1": _lemma1,
    "renyi": _renyi2_bounds,
    "tsallis": _tsallis2_bounds,
    "minentropy": _min_entropy_bounds,
}


def _weyl_blocks(rng: np.random.Generator, samples: int):
    """Accepted Weyl parameters, ``samples`` rows in blocks of at most
    ``BLOCK``. Candidates are drawn ``BLOCK`` at a time; accepted rows
    that do not fit the current block carry over to the next, so the rows
    come in the order of one-at-a-time rejection sampling."""
    pending = np.empty((0, 3))
    for start in range(0, samples, BLOCK):
        k = min(BLOCK, samples - start)
        while len(pending) < k:
            t = rng.uniform(-1.0, 1.0, (BLOCK, 3))
            pending = np.concatenate([pending, t[weyl_spectrum(t)[:, 0] >= 0.0]])
        yield pending[:k]
        pending = pending[k:]


def _draws(suite: str, samples: int, seed):
    """A suite's states in sample order, as blocks ``(m, t)``: ``m`` a
    stack of unvalidated matrices and ``t`` their Weyl parameters (None
    outside the weyl suite, whose states are Hilbert-Schmidt random)."""
    rng = np.random.default_rng(seed)
    if suite == "weyl":
        for t in _weyl_blocks(rng, samples):
            yield _weyl_matrix(t), t
    else:
        for start in range(0, samples, BLOCK):
            yield _ginibre(rng, min(BLOCK, samples - start), 4, 4), None


def _check_block(
    suites: tuple[str, ...], m: np.ndarray, t, seeds, restarts: int
) -> list[_Outcome]:
    """The outcomes of suites that share a draw stream on one block of it
    (see :func:`_draws`), suite after suite, from one validation of the
    block; the relent suite optimizes sample i with seed ``seeds[i]``."""
    if suites == ("relent",):
        _, w, v = _validate(m)
        return _relent(w, v, 2, restarts, seeds)
    q = _validated_qubits(m)
    if suites == ("weyl",):
        return _weyl_observations(t, q)
    return [outcome for suite in suites for outcome in _RANDOM_STATE_CHECKS[suite](q)]


def _sample(suite: str, seed, index: int) -> DensityMatrix:
    """The state at ``index`` of a suite's stream."""
    *_, (m, _) = _draws(suite, index + 1, seed)
    return DensityMatrix((2, 2), m[-1])


def _aggregate(blocks: list[list[_Outcome]], sample) -> list[TheoremCheck]:
    """One check per theorem id over the outcomes of every block, in
    sample order. Skipped samples are not counted and boundary samples
    are counted as excluded; the counterexample is ``sample(i)`` at the
    first failing index ``i``."""
    checks = []
    for parts in zip(*blocks):
        status = np.concatenate([o.status for o in parts])
        margin = np.concatenate([o.margin for o in parts])
        counted = (status == HOLDS) | (status == FAILS)
        failing = np.flatnonzero(status == FAILS)
        worst = float(np.fmin.reduce(margin[counted], initial=np.inf))
        checks.append(
            TheoremCheck(
                parts[0].theorem_id,
                int(counted.sum()),
                len(failing),
                int((status == BOUNDARY).sum()),
                worst if np.isfinite(worst) else 0.0,
                sample(int(failing[0])) if len(failing) else None,
            )
        )
    return checks


def _run_group(suites: tuple[str, ...], samples: int, seed, restarts: int) -> list[TheoremCheck]:
    """Aggregate checks of suites that read the same draw stream: a
    ``_RANDOM_STATE_CHECKS`` group, or one suite alone."""
    blocks = [
        _check_block(suites, m, t, range(start, start + len(m)), restarts)
        for start, (m, t) in zip(range(0, samples, BLOCK), _draws(suites[0], samples, seed))
    ]
    return _aggregate(blocks, lambda index: _sample(suites[0], seed, index))


def run_suite(
    suite: str, samples: int = 10_000, seed=42, restarts: int = 4
) -> list[TheoremCheck]:
    """Run one named suite (or 'all') and return aggregate checks.

    Under 'all' the suites of ``_RANDOM_STATE_CHECKS``, which draw the
    same states, check each block of them from one validation; the
    optimizer-backed relative-entropy suite runs at samples/10, matching
    its heavier per-sample cost. The checks come in ``SUITES`` order, as
    the six suites run alone would give them.
    """
    if samples < 1:
        raise InvalidParameterError(f"samples must be at least 1, got {samples}")
    if suite == "all":
        groups = [
            (tuple(_RANDOM_STATE_CHECKS), samples),
            (("weyl",), samples),
            (("relent",), max(1, samples // 10)),
        ]
    elif suite in SUITES:
        groups = [((suite,), samples)]
    else:
        raise ValueError(f"unknown suite {suite!r}")
    return [check for suites, n in groups for check in _run_group(suites, n, seed, restarts)]
