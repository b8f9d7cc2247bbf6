"""Channel-class certification: the worst score over pure inputs.

Class tags
----------
FBC    one-sided channel keeps output fidelity at or below 1/d for all inputs
FAC2   two-local channel keeps output fidelity at or below 1/d' for all inputs
NCEBC  one-sided channel keeps conditional entropy nonnegative
NCEAC  two-local channel keeps conditional entropy within B nonnegative

Fidelity verdicts are one eigenvalue: the output fidelity of a pure input
psi against Phi_U is ``<psi| C |psi>`` with C the adjoint channel applied
to Phi_U, so the worst case is ``lambda_max(C)``, exact for FBC and for
FAC2 on the covariant depolarizing families. For user FAC2 channels the
package's one polar ascent over U(d') maximizes ``lambda_max`` over U,
each round taking the top eigenvectors of all its restarts as one stacked
``eigh``; its value is a lower bound ("sampled": never "member"). Every
entropy certificate, for a family or a user channel, scores one Schmidt
lattice (:func:`_search_lattice`), exact for the depolarizing
families: the simplex lattice plus the uniform inputs of each Schmidt
rank k = 2 .. d, less the product inputs for NCEBC, and for the
depolarizing families the ascending rows alone.

:func:`certify_many` checks its arguments, then takes one of two routes,
and :func:`certify` is its one-p case. A depolarizing family certifies
a whole list of p at once, each report bitwise the same as alone, and
builds no channel: its worst scores (:func:`_family_worst`) are closed
in (p, q). Its fidelity operator is ``a Phi + (1 - a) I/d^2`` (a = p for
FBC, p^2 for FAC2), whose top eigenpair is read off
(:func:`_depolarizing_fidelity`), and its entropy scorer
(:func:`_depolarizing_scorer`, built once per lattice by
:func:`_family_scorer`) takes the joint spectrum of each output from one
d x d block and its B marginal from a closed-form diagonal, each row at
its own p. The worst lattice point is final at every d: the qubit
lattice holds q0 = 0, 1/2 and 1 at every grid, and for every p both
entropy classes peak there (the tests gate this on a dense scan of q0);
at d = 3 and 4 the NCEBC boundary lies on the rank-2 row and the NCEAC
one on the rank-d row (the tests gate both on closed forms).

A ``user-kraus`` channel ignores p, so :func:`_certify_channel` certifies
it once. Its fidelity operator takes one ``eigh``
(:func:`_worst_fidelity`), and its entropy scores come from the scorer of
that one channel (:func:`_entropy_scorer`): the d^2 operators
``|ii><jj|`` go through the channel's Kraus kernel once (on B, then on A
for NCEAC), and the output of the Schmidt input ``q`` is then ``sum_ij
sqrt(q_i) sqrt(q_j) N(|ii><jj|)``, summed pair by pair in a fixed order,
so no input projector is built or diagonalized. Images that are all
exactly real (any real Kraus set) are kept real, and so are the outputs
and their B marginals; the dtype picks the eigensolver. A qubit channel
then refines its worst lattice point in one bracket, ``REFINE_POINTS``
inputs per round as one stack.

Both routes take their worst lattice points from one scan,
:func:`_worst_rows`, which reduces the lattice of each p as soon as it
is scored. The family scorer checks its Schmidt vectors once, the user
channel's scorer once per stack, and both take the checks of
``DensityMatrix`` validation on their outputs; each row scores the same
alone as in any stack. One rule, :func:`_rank`, turns a worst score into a verdict, for
the reports of ``certify_many`` and for :func:`threshold`, which bisects
on ``certify_many``'s verdicts without building a report: it reads them
off ``_family_worst``. ``fidelion sweep`` certifies all its p in one
call.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channels import (
    KrausChannel,
    _act_on_factor,
    _check_unit,
    compose,
    convex_mix,
    depolarizing,
    unitary_channel,
)
from .entropy import _conditional_von_neumann
from .errors import (
    DimensionMismatchError,
    InvalidParameterError,
    NonMonotoneError,
    UnsupportedDimensionError,
    UnsupportedFamilyError,
)
from .fidelity import _check_restarts, _maximize_over_unitaries
from .linalg import partial_trace
from .states import (
    BLOCK,
    BOUNDARY_TOL,
    SchmidtPureState,
    _check_finite,
    _check_trace,
    _eigvalsh,
    _negative_rows,
    _schmidt_vectors,
    _validate,
)

CLASSES = ("FBC", "FAC2", "NCEBC", "NCEAC")

#: the unitarily covariant families, the depolarizing channel at each local
#: dimension d; their worst cases are exact
DEPOLARIZING = {"qubit-depol": 2, "qutrit-depol": 3, "ququart-depol": 4}
FAMILIES = (*DEPOLARIZING, "user-kraus")

#: width in p of the bracket :func:`threshold` bisects down to
THRESHOLD_TOL = 1e-5

#: points of the uniform p grid on which :func:`threshold` locates the flip
COARSE_POINTS = 21

#: interior points of the bracket that each round of the qubit refine scores
REFINE_POINTS = 16

#: the largest Schmidt grid accepted, far above what any verdict needs; the
#: d = 2 lattice (with q0 = 1/2 added at an even grid) and the p list of
#: ``fidelion sweep`` are each about ``grid`` long
MAX_GRID = 10**6


@dataclass(frozen=True)
class ClassificationReport:
    """Membership verdict for one channel class at one parameter value.

    ``worst_value`` (an output fidelity or conditional entropy) is the one
    worst score found, attained at the Schmidt coefficients ``worst_input``;
    ``margin = bound - score`` (positive for members). ``evidence`` is
    "exact" when the score is the worst case over all pure inputs."""

    cls: str
    p: float
    verdict: str  # "member" | "non-member" | "undecided"
    worst_input: SchmidtPureState
    worst_value: float
    margin: float
    evidence: str = "exact"


@dataclass(frozen=True)
class ThresholdResult:
    """Bisection bracket for the membership boundary in p; ``iterations``
    counts every midpoint scored after the coarse scan."""

    p_star: float
    bracket: tuple[float, float]
    iterations: int


def _resolve_family(family: str, ps: list, channel: KrausChannel | None) -> tuple[int, int]:
    """The local dimensions (d_in, d_out) of a family's channels. A
    depolarizing family takes no channel, and its p are range-checked as
    :func:`~fidelion.channels.depolarizing` checks them; ``user-kraus``
    takes its channel."""
    if family in DEPOLARIZING:
        if channel is not None:
            raise UnsupportedFamilyError(f"family {family!r} takes no channel argument")
        for p in ps:
            _check_unit("p", p)
        return DEPOLARIZING[family], DEPOLARIZING[family]
    if family == "user-kraus":
        if channel is None:
            raise UnsupportedFamilyError("family 'user-kraus' needs a channel argument")
        return channel.dim_in, channel.dim_out
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _schmidt_grid(d: int, grid: int) -> np.ndarray:
    """Schmidt vectors to search, one per row: a lattice over the
    probability simplex, then for k = 2 .. d the uniform vector on the last
    k parts, which the lattice may miss (at d = 2 the q0 grid holds it)."""
    if d == 2:
        # the uniform grid, which holds q0 = 1/2 already when grid is odd
        q0 = np.union1d(np.linspace(0.0, 1.0, grid), [0.5])
        return np.stack([q0, 1.0 - q0], axis=1)
    # lattice q = n/m over the probability simplex of d parts, with the
    # smallest m >= 3 that gives more than `grid` points, in lexicographic
    # order of the first d - 1 parts
    m = 3
    while math.comb(m + d - 1, d - 1) <= grid:
        m += 1
    # each prefix, with `rest` of m still to share, is extended by
    # 0..rest, one vectorized step per part
    parts, rest = [], np.array([m])
    for _ in range(d - 1):
        counts = rest + 1
        n = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
        parts = [np.repeat(col, counts) for col in parts] + [n]
        rest = np.repeat(rest, counts) - n
    out = np.empty((rest.size + d - 1, d))
    for j, col in enumerate(parts + [rest]):
        out[: rest.size, j] = col / m
    ks = np.arange(2, d + 1)[:, None]
    out[rest.size :] = np.where(np.arange(d) >= d - ks, 1.0 / ks, 0.0)
    return out


@lru_cache(maxsize=4)
def _search_lattice(cls: str, d: int, grid: int, ascending: bool) -> np.ndarray:
    """The rows of :func:`_schmidt_grid` that an entropy certificate scores,
    read-only. NCEBC drops the product inputs (max q = 1): every channel
    gives them ``S(A|B) = S(A) = 0``, so they decide nothing. The
    depolarizing families keep the ``ascending`` rows alone: ``P (x) P``
    commutes with the depolarizing channel for every permutation P, so a
    permuted q scores the same."""
    qs = _schmidt_grid(d, grid)
    if cls == "NCEBC":
        qs = qs[qs.max(axis=1) < 1.0]
    if ascending:
        qs = qs[(np.diff(qs, axis=1) >= 0.0).all(axis=1)]
    qs.setflags(write=False)
    return qs


def _entropy_scorer(cls: str, chan: KrausChannel) -> Callable[[np.ndarray], np.ndarray]:
    """The scorer of one user channel: it maps a stack ``qs`` (k, d) of
    Schmidt vectors to the negated conditional entropy ``S(B) - S(AB)`` of
    the output of the one-sided (NCEBC) or two-local (NCEAC) action of
    ``chan`` on each.

    The d^2 operators ``|ii><jj|`` go through the channel's Kraus kernel
    once (on B, then on A for NCEAC), pair ``n = i d + j`` in row n; a
    score then sums ``sqrt(q_i) sqrt(q_j) N(|ii><jj|)`` over the pairs in a
    fixed order, one multiply-add per pair, so each row scores bitwise the
    same alone as in any stack. When every image is exactly real (amplitude
    damping, any real Kraus set), the images are kept as float64, and the
    sums, the validation and the B marginal's spectrum run in real
    arithmetic; the real parts come out bitwise as the complex ones would.
    The Schmidt vectors are checked as ``SchmidtPureState`` checks them, and
    the outputs take the full ``DensityMatrix`` validation as one stack. The
    input projectors are never built: they are Hermitian, unit-trace and
    rank-one by construction, so a check of them could only round them."""
    d, d_out = chan.dim_in, chan.dim_out
    diag = np.arange(d) * (d + 1)
    images = np.zeros((d * d, d * d, d * d), dtype=complex)
    images[np.arange(d * d), np.repeat(diag, d), np.tile(diag, d)] = 1.0
    images = _act_on_factor(chan.ops, images, (d, d), "B")
    # the outputs live on d x d_out (NCEBC) or d_out x d_out (NCEAC)
    dims = (d, d_out)
    if cls == "NCEAC":
        images = _act_on_factor(chan.ops, images, dims, "A")
        dims = (d_out, d_out)
    if not images.imag.any():
        images = images.real

    def score(qs: np.ndarray) -> np.ndarray:
        r = np.sqrt(_schmidt_vectors(qs))
        # the weight sqrt(q_i) sqrt(q_j) of every pair n = i d + j, one product
        pairs = (r[:, :, None] * r[:, None, :]).reshape(len(r), d * d, 1, 1)
        out = np.zeros((len(r),) + images.shape[1:], dtype=images.dtype)
        for n, image in enumerate(images):
            out += pairs[:, n] * image
        out, w = _validate(out)
        return -_conditional_von_neumann(w, np.linalg.eigvalsh(partial_trace(out, dims, "B")))

    return score


def _depolarizing_scorer(cls: str, qs: np.ndarray) -> Callable[..., np.ndarray]:
    """The scores of :func:`_entropy_scorer` for the depolarizing channels
    of local dimension d on the Schmidt vectors ``qs`` (k, d), from the
    structure of their outputs in (p, q), with no channel built: ``score(p,
    rows)`` scores the rows ``rows`` of ``qs`` (all of them by default),
    each at its own p of ``p`` (one per row, or one value for every row).

    For ``psi = sum_i sqrt(q_i) |ii>`` the one-sided (NCEBC) output is
    ``p psi psi^T + (1-p) diag(q) (x) I/d`` and the two-local (NCEAC) one
    ``p^2 psi psi^T + p(1-p)(diag(q) (x) I + I (x) diag(q))/d + (1-p)^2
    I/d^2``. Each is diagonal on |ij>, i != j, with entries ``(1-p) q_i/d``
    or ``p(1-p)(q_i + q_j)/d + (1-p)^2/d^2``, and on span{|ii>} it is one
    real d x d block, ``p psi psi^T`` (``p^2``) plus the diagonal that the
    same formula gives at i = j. The joint spectrum is the ``eigvalsh`` of
    the block with those d(d-1) entries, and the B marginal is the
    diagonal ``p q + (1-p)/d``, whose spectrum needs no solve. Both are
    taken in ascending order, as an eigensolver gives them. The Schmidt
    vectors are checked as ``SchmidtPureState`` checks them, and their
    square roots taken, once, here; the joint spectra take the checks of
    ``DensityMatrix`` validation (finite entries, unit trace, no eigenvalue
    below -1e-10, clipping and renormalizing) with its errors; the outputs
    are symmetric by construction. Each row scores bitwise the same alone
    as in any stack."""
    checked = _schmidt_vectors(qs)
    roots = np.sqrt(checked)
    d = checked.shape[1]
    off = ~np.eye(d, dtype=bool)
    diag = np.arange(d)

    def score(p, rows=slice(None)) -> np.ndarray:
        q, r = checked[rows], roots[rows]
        p = np.asarray(p, dtype=float).reshape(-1, 1, 1)  # one p per row, or one for all
        u = 1.0 - p
        if cls == "NCEBC":
            weight = p
            # the output at |ij>: (1-p) q_i / d, whatever j
            pairs = np.broadcast_to(u * q[:, :, None] / d, (len(q), d, d))
        else:
            weight = p * p
            pairs = p * u * (q[:, :, None] + q[:, None, :]) / d + u * u / (d * d)
        block = weight * (r[:, :, None] * r[:, None, :])
        block[:, diag, diag] += pairs[:, diag, diag]
        rest = pairs[:, off]
        _check_finite(block)
        _check_finite(rest)
        _check_trace(block.trace(axis1=1, axis2=2) + rest.sum(axis=1))
        w = np.sort(np.concatenate([_eigvalsh(block), rest], axis=1), axis=1)
        clip = _negative_rows(w)
        if clip.any():
            kept = np.where(w[clip] < 0, 0.0, w[clip])
            w[clip] = kept / kept.sum(axis=1, keepdims=True)
        marginal = np.sort(p[:, :, 0] * q + u[:, :, 0] / d, axis=1)
        return -_conditional_von_neumann(w, marginal)

    return score


@lru_cache(maxsize=4)
def _family_scorer(cls: str, d: int, grid: int) -> Callable[..., np.ndarray]:
    """The :func:`_depolarizing_scorer` of the ascending search lattice of
    the depolarizing family of local dimension d, built once per (cls, d,
    grid) beside the cached lattice, so that its Schmidt vectors are
    checked and their roots taken once. It holds two arrays of the
    lattice's shape, and nothing per pair of parts."""
    return _depolarizing_scorer(cls, _search_lattice(cls, d, grid, True))


def _depolarizing_fidelity(cls: str, d: int, ps) -> tuple[np.ndarray, np.ndarray]:
    """The :func:`_worst_fidelity` of the depolarizing channels of local
    dimension d at each p of ``ps``, in closed form: the operator is ``a
    Phi + (1 - a) I/d^2`` with ``a = p`` (FBC) or ``p^2`` (FAC2), whose top
    eigenvalue ``a + (1 - a)/d^2`` belongs to Phi, the uniform Schmidt
    input (at p = 0 every input ties)."""
    a = np.asarray(ps, dtype=float)
    if cls == "FAC2":
        a = a * a
    return a + (1.0 - a) / (d * d), np.full((len(a), d), 1.0 / d)


def certify(
    cls: str,
    family: str,
    p: float,
    grid: int = 101,
    channel: KrausChannel | None = None,
    restarts: int = 20,
    seed=42,
) -> ClassificationReport:
    """Certify membership of a channel in one of the four classes at one
    value of p: the one-p case of :func:`certify_many`."""
    return certify_many(cls, family, [p], grid, channel, restarts, seed)[0]


def certify_many(
    cls: str,
    family: str,
    ps,
    grid: int = 101,
    channel: KrausChannel | None = None,
    restarts: int = 20,
    seed=42,
) -> list[ClassificationReport]:
    """Certify membership of a channel in one of the four classes at each
    value of p in ``ps``, one report per p, each bitwise the same as the one
    that p gives alone.

    Every argument is checked first, whatever the number of p: the class,
    ``grid`` (101 to ``MAX_GRID``), ``restarts`` (as the polar ascent checks
    it, although only the user FAC2 ascent uses it and ``seed``), the family
    and its channel. A depolarizing p outside [0, 1] raises
    ``InvalidParameterError`` for the whole list, with the message of
    :func:`~fidelion.channels.depolarizing`. Channels must map between
    local dimensions 2 to 4, else ``UnsupportedDimensionError``, and FBC
    needs ``dim_out == dim_in``, else ``DimensionMismatchError``.

    A depolarizing family takes the exact worst cases of
    :func:`_family_worst` for all its p at once, in memory flat in their
    number. The ``user-kraus`` family ignores p: its channel is certified
    once by :func:`_certify_channel`, and every p gets that report with
    its own ``p``.
    """
    ps = list(ps)
    if cls not in CLASSES:
        raise UnsupportedFamilyError(f"unknown class {cls!r}")
    _check_grid(grid)
    _check_restarts(restarts)
    d, d_out = _resolve_family(family, ps, channel)
    if not (2 <= d <= 4 and 2 <= d_out <= 4):
        raise UnsupportedDimensionError(
            f"certify needs 2 <= dim_in, dim_out <= 4, got dim_in={d}, dim_out={d_out}"
        )
    if cls == "FBC" and d_out != d:
        # the one-sided output lives on d_in x d_out, where no maximally
        # entangled state, and so no fidelity of entanglement, is defined
        raise DimensionMismatchError(
            f"FBC needs dim_out == dim_in, got dim_in={d}, dim_out={d_out}"
        )
    if not ps:
        return []
    if channel is None:
        values, qs = _family_worst(cls, d, ps, grid)
        bound = _family_bound(cls, d)
        return [_report(cls, p, q, float(v), bound, True) for p, q, v in zip(ps, qs, values)]
    report = _certify_channel(cls, channel, grid, restarts, seed)
    return [replace(report, p=p) for p in ps]


def _family_bound(cls: str, d: int) -> float:
    """The bound that a member's worst score keeps below: 1/d on the output
    fidelity, 0 on the negated conditional entropy."""
    return 1.0 / d if cls in ("FBC", "FAC2") else 0.0


def _family_worst(cls: str, d: int, ps, grid: int) -> tuple[np.ndarray, np.ndarray]:
    """The worst score of the depolarizing family of local dimension d at
    each p of ``ps``, and the Schmidt vector that attains it, with no
    report. The family is unitarily covariant, so every worst case is
    exact: the fidelity classes take :func:`_depolarizing_fidelity`, and
    the entropy classes the worst ascending lattice row, by
    :func:`_worst_rows` over one run per p. The p are not range-checked."""
    if cls in ("FBC", "FAC2"):
        return _depolarizing_fidelity(cls, d, ps)
    score = _family_scorer(cls, d, grid)
    lattice = _search_lattice(cls, d, grid, True)
    ps, k = np.asarray(ps, dtype=float), len(lattice)
    values, worst = _worst_rows(lambda i: score(ps[i // k], i % k), len(ps), k)
    return values, lattice[worst]


def _worst_rows(score: Callable, runs: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The worst score of each of ``runs`` runs of ``k`` rows, and its row
    in the run (ties going to the first). ``score(i)`` scores the rows at
    the flat indices ``i`` of the runs laid end to end, ``BLOCK`` rows at a
    time; a run is reduced as soon as its k scores are in, so fewer than
    ``k + BLOCK`` scores are held at once."""
    n = runs * k
    values, rows = np.empty(runs), np.empty(runs, dtype=np.intp)
    # the scores from run `done` on, joined once per completed run, not per stack
    pending, done = [], 0
    for start in range(0, n, BLOCK):
        stop = min(start + BLOCK, n)
        pending.append(score(np.arange(start, stop)))
        m = stop // k - done  # the runs this stack completes
        if m:
            scores = np.concatenate(pending)
            complete = scores[: m * k].reshape(m, k)
            rows[done : done + m] = worst = np.argmax(complete, axis=1)
            values[done : done + m] = complete[np.arange(m), worst]
            # the tail copied, so that the joined scores are freed
            pending, done = [scores[m * k :].copy()], done + m
    return values, rows


def _certify_channel(
    cls: str, chan: KrausChannel, grid: int, restarts: int, seed
) -> ClassificationReport:
    """The report of :func:`certify_many` for one user channel, at p = 0.
    The fidelity classes take :func:`_worst_fidelity`, exact for FBC and a
    sampled lower bound for FAC2. The entropy classes take the worst point
    of the whole search lattice (ties going to the first), scored by
    :func:`_entropy_scorer` as one run of :func:`_worst_rows`, and a qubit
    channel then refines it between its two lattice neighbors
    (:func:`_refine_qubit`); the evidence is sampled."""
    if cls in ("FBC", "FAC2"):
        value, q = _worst_fidelity(cls, chan, restarts, seed)
        return _report(cls, 0.0, q, float(value), 1.0 / chan.dim_out, cls == "FBC")
    score = _entropy_scorer(cls, chan)
    lattice = _search_lattice(cls, chan.dim_in, grid, False)
    (value,), (i,) = _worst_rows(lambda rows: score(lattice[rows]), 1, len(lattice))
    q = lattice[i]
    if chan.dim_in == 2:
        # q0 rises along the d = 2 lattice: the refine brackets it by the two
        # neighbors of the worst point, or by q0 = 0 or 1 at an end (the
        # NCEBC lattice holds neither product input)
        lo = lattice[i - 1, 0] if i else 0.0
        hi = lattice[i + 1, 0] if i + 1 < len(lattice) else 1.0
        q, value = _refine_qubit(score, lo, hi, q, value)
    return _report(cls, 0.0, q, float(value), 0.0, False)


def _worst_fidelity(
    cls: str, chan: KrausChannel, restarts: int, seed
) -> tuple[float, np.ndarray]:
    """Worst output fidelity of a user channel and the Schmidt coefficients
    of its input: the top eigenpair of ``(I (x) N^dag)(Phi_U)`` (FBC) or
    ``(N^dag (x) N^dag)(Phi_U)`` (FAC2), at U = I for FBC, where it is
    exact, and for FAC2 at the U that the polar ascent over U(d') reaches
    on ``lambda_max``, a lower bound on the worst case."""
    d, d_out = chan.dim_in, chan.dim_out
    adjoint = np.swapaxes(chan.ops, 1, 2).conj()

    def choi(x: np.ndarray) -> np.ndarray:
        # the operator above for each row x = vec(U) of a stack (k, d'^2)
        phi_u = x / np.sqrt(d_out)  # (U (x) I)|phi>
        c = _act_on_factor(adjoint, _outer(phi_u), (d_out, d_out), "B")
        if cls == "FAC2":
            c = _act_on_factor(adjoint, c, (d_out, d), "A")
        return c

    def top(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(c)
        return w[:, -1], v[:, :, -1]

    def gram(x: np.ndarray) -> np.ndarray:
        # (N (x) N)(psi psi^dag) for the top eigenvector psi at U = x: its
        # form <y|.|y>/d' is lambda_max at y = x and at most lambda_max at
        # every other unitary y
        m = _act_on_factor(chan.ops, _outer(top(choi(x))[1]), (d, d), "B")
        return _act_on_factor(chan.ops, m, (d, d_out), "A")

    u = np.eye(d_out)
    if cls == "FAC2":
        u = _maximize_over_unitaries(gram, d_out, restarts, seed)[1]
    (value,), (psi,) = top(choi(u.reshape(1, d_out * d_out)))
    q = np.linalg.svd(psi.reshape(d, d), compute_uv=False) ** 2
    return value, q / q.sum()


def _outer(v: np.ndarray) -> np.ndarray:
    """``|v><v|`` for each row of a stack ``v`` (k, n)."""
    return v[:, :, None] * v[:, None, :].conj()


def _check_grid(grid: int) -> None:
    if grid < 101:
        raise InvalidParameterError(f"grid must be at least 101, got {grid}")
    if grid > MAX_GRID:
        raise InvalidParameterError(f"grid must be at most {MAX_GRID}, got {grid}")


def _refine_qubit(
    score: Callable[[np.ndarray], np.ndarray], lo: float, hi: float, q: np.ndarray, value: float
) -> tuple[np.ndarray, float]:
    """The best of ``(q, value)`` and the qubit inputs that a bracket refine
    of q0 over ``[lo, hi]`` scores. Each round scores ``REFINE_POINTS``
    evenly spaced interior points of the bracket as one stack and shrinks
    it to the two neighbors of its best point, down to a width of 1e-8,
    where the scores refined here are already flat to rounding (7 rounds
    from the bracket of the 101-point grid)."""
    while hi - lo > 1e-8:
        x = np.linspace(lo, hi, REFINE_POINTS + 2)
        qs = np.stack([x[1:-1], 1.0 - x[1:-1]], axis=1)
        values = score(qs)
        best = np.argmax(values)
        if values[best] > value:
            q, value = qs[best], values[best]
        lo, hi = x[best], x[best + 2]
    return q, value


#: verdicts in the order that :func:`threshold` needs them along p
_RANKS = ("member", "undecided", "non-member")


def _rank(value: float, bound: float, exact: bool) -> int:
    """The verdict on the worst score ``value``, as its index in ``_RANKS``:
    a member keeps it at least ``BOUNDARY_TOL`` below ``bound``, which is
    certified only when the score is ``exact``, the worst case over all pure
    inputs; a non-member has it at least ``BOUNDARY_TOL`` above, and every
    other score is undecided."""
    if exact and value <= bound - BOUNDARY_TOL:
        return 0
    return 2 if value >= bound + BOUNDARY_TOL else 1


def _report(
    cls: str, p: float, q: np.ndarray, value: float, bound: float, exact: bool
) -> ClassificationReport:
    """The report on the worst score ``value`` at the Schmidt vector ``q``,
    with the verdict of :func:`_rank`."""
    return ClassificationReport(
        cls=cls,
        p=p,
        verdict=_RANKS[_rank(value, bound, exact)],
        worst_input=SchmidtPureState(q),
        # entropy scores are negated conditional entropies
        worst_value=value if cls in ("FBC", "FAC2") else -value,
        margin=float(bound - value),
        evidence="exact" if exact else "sampled",
    )


def threshold(cls: str, family: str, grid: int = 101) -> ThresholdResult:
    """Bisect the membership boundary in p to a bracket of width
    ``THRESHOLD_TOL``, on the verdicts that :func:`certify_many` gives at
    ``grid``, with no report built.

    The arguments take the checks of ``certify_many`` once, with its
    errors; only a depolarizing family passes them. Each p, a coarse
    point in [0, 1] or a midpoint of two, takes the verdict of
    :func:`_rank` on its worst score from :func:`_family_worst`, the score
    and the rule that ``certify_many``'s report on that p takes.

    Verdicts are first taken on ``COARSE_POINTS`` values of p, scored
    together as one stack. Ordered by p, every verdict taken must run
    member, then undecided, then non-member, starting with a member and
    ending with a non-member; otherwise ``NonMonotoneError`` is raised. The
    bracket runs from the last member to the first p that is not a member.
    Each bisection step scores its one midpoint, so every p is scored once.
    When that end is undecided, the first non-member is then bisected down
    to within ``THRESHOLD_TOL`` of the last member, and an undecided band
    that reaches that far raises ``NonMonotoneError``.
    """
    certify_many(cls, family, [], grid)
    d = DEPOLARIZING[family]
    bound = _family_bound(cls, d)

    def ranks_at(ps: list[float]) -> list[int]:
        values = _family_worst(cls, d, ps, grid)[0]
        return [_rank(value, bound, True) for value in values.tolist()]

    coarse = np.linspace(0.0, 1.0, COARSE_POINTS).tolist()
    seen = dict(zip(coarse, ranks_at(coarse)))
    while True:
        ps = sorted(seen)
        ranks = [seen[p] for p in ps]
        if ranks[0] != 0 or ranks[-1] != 2 or ranks != sorted(ranks):
            raise NonMonotoneError(
                f"{cls}/{family}: verdicts along p do not run member, undecided, non-member"
            )
        lo, hi = ps[ranks.count(0) - 1], ps[ranks.count(0)]
        # the highest p short of a non-member, and the first non-member
        top, first = ps[ranks.index(2) - 1], ps[ranks.index(2)]
        if hi - lo > THRESHOLD_TOL:
            a, b = lo, hi
        elif first - lo <= THRESHOLD_TOL:
            return ThresholdResult(0.5 * (lo + hi), (lo, hi), len(seen) - COARSE_POINTS)
        elif top - lo >= THRESHOLD_TOL:
            raise NonMonotoneError(
                f"{cls}/{family}: undecided verdicts span {THRESHOLD_TOL} or more in p"
            )
        else:
            a, b = top, first
        mid = 0.5 * (a + b)
        seen[mid] = ranks_at([mid])[0]


@dataclass(frozen=True)
class PropertyCheck:
    """One closure property, decided by the certificate of one channel."""

    name: str
    passed: bool
    worst_value: float
    bound: float


def property_suite() -> list[PropertyCheck]:
    """The closure properties of the fidelity classes, each one exact
    verdict on a qubit channel.

    * ``compose-fbc``: the composition of two FBC members, depol(2, 0.3)
      o depol(2, 0.3), is FBC;
    * ``convex-mix-fbc``: the even mixture of that composite and the
      post-composed member below is FBC (the Choi map is linear and
      ``lambda_max`` convex, so its worst value is at most their mean);
    * ``post-compose-fbc``: depol(2, 0.3) o U, with U a fixed non-diagonal
      unitary, is FBC;
    * ``pure-to-mixed-fac2``: the two-local depol(2, 0.55) is FAC2 on all
      pure inputs, so on all mixed ones too, as output fidelity is convex
      in the input.

    A check passes only on a ``member`` verdict with ``exact`` evidence;
    ``bound`` is the class bound 1/2.
    """
    composite = compose(depolarizing(2, 0.3), depolarizing(2, 0.3))
    u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)
    post = compose(depolarizing(2, 0.3), unitary_channel(u))
    reports = {
        "compose-fbc": certify("FBC", "user-kraus", 0.0, channel=composite),
        "convex-mix-fbc": certify(
            "FBC", "user-kraus", 0.0, channel=convex_mix(0.5, composite, post)
        ),
        "post-compose-fbc": certify("FBC", "user-kraus", 0.0, channel=post),
        "pure-to-mixed-fac2": certify("FAC2", "qubit-depol", 0.55),
    }
    return [
        PropertyCheck(
            name, rep.verdict == "member" and rep.evidence == "exact", rep.worst_value, 0.5
        )
        for name, rep in reports.items()
    ]
