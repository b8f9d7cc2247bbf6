"""Sampling harness for the entropy/fidelity bound checks.

Each check evaluates both sides of its inequality or biconditional on a
stack of states at once and reports a status and a signed agreement
margin for every state; :func:`run_suite` is the one entry to them. All
six suite runners draw seeded random states in blocks of ``BLOCK``, validate
each block once, check it in one pass and tally the outcomes, at most
``TALLY_BLOCKS`` blocks of them held at once, so memory stays flat in the
sample count (1 to ``MAX_SAMPLES``); under 'all', the four suites that draw
the same Hilbert-Schmidt states share each block and its validation. A
block's draws reproduce the one-state-at-a-time random stream, so the block
size changes no result. Every suite validates a block as ``DensityMatrix``
validates one state, with one stacked ``eigvalsh``; the five two-qubit
suites read those eigenvalues, take the Bloch-Fano data from a fixed sparse
sum per coordinate (:func:`fidelion.states._bloch_fano`, no BLAS), and take
the correlation singular values and the fidelity from one more real 4 x 4
``eigvalsh`` (:func:`fidelion.fidelity._two_qubit_spectrum`, whose form is
a sparse sum too); no check solves for an SVD, a determinant or a
marginal's spectrum.
Every check is a function of the validated states alone: the Weyl
observations read ``Omega = |t1 t2| + |t1 t3| + |t2 t3|`` as ``R/2`` of
the correlation singular values, not from the sampled parameters.
Only the relative-entropy check (``relent``) solves eigenvectors: one
stacked ``eigh`` for ``-log2 rho`` and one for the exact two-qubit
maximization over unitaries (:func:`fidelion.fidelity._max_two_qubit`), so
no suite takes an optimizer restart or seed. Samples in which either
compared quantity sits within 1e-9 of its boundary are excluded and
counted separately; failures are counterexamples outside that zone.

Biconditionals compare the F > 1/2 predicate (the exact two-qubit
fidelity) against an entropy threshold computed from Bloch data; the joint
entropy is always computed from the validated spectrum, so the two routes
are independent up to the algebraic identity under test (rho_B's spectrum
``(1 -+ |b|)/2`` is exact for a qubit). The one exception is the
conditional Tsallis check, whose bound applies to the linear form
``Tr(rho_B^2) - Tr(rho_AB^2)`` rather than the normalized quotient.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
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
from .errors import InvalidParameterError
from .fidelity import _max_two_qubit, _neg_log2, _two_qubit_spectrum
from .states import (
    BLOCK,
    BOUNDARY_TOL,
    BlochFano,
    DensityMatrix,
    _bloch_fano,
    _ginibre,
    _validate,
    _weyl_matrix,
    weyl_spectrum,
)

#: tolerance for the relative-entropy check (theorem14)
RELENT_TOL = 1e-6

#: samples allowed per suite run, checked before any draw: memory stays flat
#: in the sample count (see ``TALLY_BLOCKS``), but time grows with it
MAX_SAMPLES = 10**7

#: blocks whose outcomes are held at once before they are tallied
TALLY_BLOCKS = 64

SUITES = ("lemma1", "renyi", "tsallis", "minentropy", "weyl", "relent")

#: item statuses; outcome arrays hold indices into this tuple
STATUSES = ("holds", "fails", "boundary", "skip")
HOLDS, FAILS, BOUNDARY, SKIP = range(len(STATUSES))


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
    f: np.ndarray  # (k,) exact fidelity of entanglement


def _validated_qubits(m: np.ndarray) -> _Qubits:
    """Validate a stack (k, 4, 4) of two-qubit density matrices in one call,
    on their eigenvalues alone: no check reads an eigenvector. The
    correlation singular values and the fidelity come from one more real
    4 x 4 ``eigvalsh`` (:func:`fidelion.fidelity._two_qubit_spectrum`), the
    spectrum of rho_B from its Bloch vector b, ``(1 -+ |b|)/2``."""
    m, w = _validate(m)
    bf = _bloch_fano(m, (2, 2))
    sing, f = _two_qubit_spectrum(bf.t)
    norm_b = np.sqrt(_sqnorm(bf.b))
    return _Qubits(w, np.stack([1.0 - norm_b, 1.0 + norm_b], axis=-1) / 2.0, bf, sing, f)


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


def _weyl_observations(q: _Qubits) -> list[_Outcome]:
    # Omega = |t1 t2| + |t1 t3| + |t2 t3| of a Weyl state is R/2 of its
    # correlation singular values
    omega = _r(q.sing) / 2.0
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


def _relent(m: np.ndarray, w: np.ndarray) -> list[_Outcome]:
    """theorem14 on a stack ``m`` of validated two-qubit states with
    ascending eigenvalues ``w``: ``r_quantity >= -lambda_max`` within
    ``RELENT_TOL``, the maximum exact, one stacked ``eigh`` for the block."""
    margin = _max_two_qubit(_neg_log2(m))[0] + w[:, -1]
    return [_inequality("theorem14", margin, tol=RELENT_TOL)]


#: the two-qubit suites: suite -> its check on a validated stack
_QUBIT_CHECKS = {
    "lemma1": _lemma1,
    "renyi": _renyi2_bounds,
    "tsallis": _tsallis2_bounds,
    "minentropy": _min_entropy_bounds,
    "weyl": _weyl_observations,
}


def _check_samples(samples: int, name: str = "samples") -> None:
    if samples < 1:
        raise InvalidParameterError(f"{name} must be at least 1, got {samples}")
    if samples > MAX_SAMPLES:
        raise InvalidParameterError(f"{name} must be at most {MAX_SAMPLES}, got {samples}")


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
    """A suite's states in sample order, as stacks of unvalidated
    matrices: Weyl states for the weyl suite, Hilbert-Schmidt random
    states for the others."""
    rng = np.random.default_rng(seed)
    if suite == "weyl":
        for t in _weyl_blocks(rng, samples):
            yield _weyl_matrix(t)
    else:
        for start in range(0, samples, BLOCK):
            yield _ginibre(rng, min(BLOCK, samples - start), 4, 4)


def _check_block(suites: tuple[str, ...], m: np.ndarray) -> list[_Outcome]:
    """The outcomes of suites that share a draw stream on one block of it
    (see :func:`_draws`), suite after suite, from one validation of the
    block."""
    if suites == ("relent",):
        return _relent(*_validate(m))
    q = _validated_qubits(m)
    return [outcome for suite in suites for outcome in _QUBIT_CHECKS[suite](q)]


def _sample(suite: str, seed, index: int) -> DensityMatrix:
    """The state at ``index`` of a suite's stream."""
    *_, m = _draws(suite, index + 1, seed)
    return DensityMatrix((2, 2), m[-1])


def _aggregate(blocks, sample) -> list[TheoremCheck]:
    """One check per theorem id over the outcomes of the blocks, an
    iterable of per-block outcome lists in sample order. Up to
    ``TALLY_BLOCKS`` blocks are held and tallied at once, so memory stays
    flat in the sample count. Skipped samples are not counted and boundary
    samples are counted as excluded; the counterexample is ``sample(i)`` at
    the first failing index ``i``."""
    blocks = iter(blocks)
    # theorem id -> [counted, failures, excluded, worst margin, first failing index]
    tallies = {}
    start = 0
    while chunk := list(islice(blocks, TALLY_BLOCKS)):
        for parts in zip(*chunk):
            status = np.concatenate([o.status for o in parts])
            margin = np.concatenate([o.margin for o in parts])
            counted = (status == HOLDS) | (status == FAILS)
            failing = np.flatnonzero(status == FAILS)
            tally = tallies.setdefault(parts[0].theorem_id, [0, 0, 0, np.inf, None])
            tally[0] += int(counted.sum())
            tally[1] += len(failing)
            tally[2] += int((status == BOUNDARY).sum())
            tally[3] = min(tally[3], float(np.fmin.reduce(margin[counted], initial=np.inf)))
            if len(failing) and tally[4] is None:
                tally[4] = start + int(failing[0])
        start += sum(len(outcomes[0].status) for outcomes in chunk)
    return [
        TheoremCheck(
            theorem_id, counted, failures, excluded,
            worst if np.isfinite(worst) else 0.0,
            None if first is None else sample(first),
        )
        for theorem_id, (counted, failures, excluded, worst, first) in tallies.items()
    ]


def _run_group(suites: tuple[str, ...], samples: int, seed) -> list[TheoremCheck]:
    """Aggregate checks of suites that read the same draw stream: the
    Hilbert-Schmidt two-qubit suites together, or one suite alone. Blocks
    are drawn and checked only as the tally takes them."""
    blocks = (_check_block(suites, m) for m in _draws(suites[0], samples, seed))
    return _aggregate(blocks, lambda index: _sample(suites[0], seed, index))


def run_suite(suite: str, samples: int = 10_000, seed=42) -> list[TheoremCheck]:
    """Run one named suite (or 'all') and return aggregate checks.

    Under 'all' the four suites that draw the same Hilbert-Schmidt
    states check each block of them from one validation; the
    relative-entropy suite runs at samples/10. The checks come in
    ``SUITES`` order, as the six suites run alone would give them.
    ``samples`` runs from 1 to ``MAX_SAMPLES``.
    """
    _check_samples(samples)
    if suite == "all":
        groups = [
            (SUITES[:4], samples),
            (("weyl",), samples),
            (("relent",), max(1, samples // 10)),
        ]
    elif suite in SUITES:
        groups = [((suite,), samples)]
    else:
        raise InvalidParameterError(f"unknown suite {suite!r}")
    return [check for suites, n in groups for check in _run_group(suites, n, seed)]
