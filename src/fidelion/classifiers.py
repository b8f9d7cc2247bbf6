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
``eigh``; its value is a lower bound ("sampled": never "member"). Entropy
classes search a Schmidt lattice, exhaustive for the depolarizing
families; those families alone take NCEBC at the maximally-entangled
input.

Every p of a family is independent, so :func:`certify_many` certifies a
whole list of p as one stack, and :func:`certify` is its one-p case; each
report is bitwise the same in any stack as alone. A certificate takes two
stages: the lattice stage (:func:`_lattice_stage`) gives the fidelity
classes and the NCEBC shortcut in full and the entropy classes at their
worst lattice point, and keeps for each qubit entropy search its basis
images and bracket; the refine stage (:func:`_refine_stage`) refines those
brackets of any set of p, from any mix of lattice stacks, in one lockstep
run. ``certify_many`` runs the one after the other. :func:`threshold`
bisects on the lattice verdicts and then confirms every p it visited with
one refine stage, walking again only if a verdict changed. As it reads
verdicts alone, each of its refines ends once the verdict is settled on
either side of the bound 0: a non-member once the worst score reaches
``BOUNDARY_TOL``, a member once the score plus a continuity bound on the
bracket lies at or below ``-BOUNDARY_TOL``. That bound is Winter's tight
Alicki-Fannes-Winter bound on the conditional entropy (Commun. Math.
Phys. 347, 291 (2016)) over the trace distance of the bracket's inputs,
which no channel increases. ``fidelion sweep`` certifies all its p in one
call, each refined to its end. Fidelity classes take the operators of
all p through one stacked ``eigh``.

Entropy scores come from one scorer per stage call
(:func:`_entropy_scorer`). The d^2 operators ``|ii><jj|`` go through each
p's Kraus kernel once (on B, then on A for NCEAC), and the scorer keeps
the images as a stack over p; the output of the Schmidt input ``q`` at p
is then ``sum_ij sqrt(q_i) sqrt(q_j) N_p(|ii><jj|)``, summed pair by pair
in a fixed order, so no input projector is built or diagonalized. Images
that are all exactly real (any real Kraus set, the depolarizing families
among them) are kept real, and so are the outputs and their B marginals,
which take real symmetric eigensolves. The lattice rows of all p are
scored together in stacks of at most ``BLOCK`` inputs, each row taking
the images of its own p, which bounds the memory of large grids and of
many p. Each stack takes one check of the Schmidt vectors, one
validation of the outputs and one stacked eigensolve of their B
marginals, and each row scores the same alone as in any stack. For
qubits a bracket refine around each p's worst lattice point scores
``REFINE_POINTS`` inputs per round and p; the brackets of all p still
wider than 1e-8 and not settled refine in lockstep, in stacks of at most
``BLOCK`` rows per round. The NCEBC shortcut scores the one input of
every p as one stack.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .channels import (
    KrausChannel,
    _act_on_factor,
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
from .fidelity import _maximize_over_unitaries
from .linalg import partial_trace
from .states import (
    BLOCK,
    BOUNDARY_TOL,
    SUPPORT_EPS,
    SchmidtPureState,
    _schmidt_vectors,
    _spectrum,
    _validate,
)

CLASSES = ("FBC", "FAC2", "NCEBC", "NCEAC")

#: the unitarily covariant families, the depolarizing channel at each local
#: dimension d; their worst cases are exact
DEPOLARIZING = {"qubit-depol": 2, "qutrit-depol": 3}
FAMILIES = (*DEPOLARIZING, "user-kraus")

#: width in p of the bracket :func:`threshold` bisects down to
THRESHOLD_TOL = 1e-5

#: points of the uniform p grid on which :func:`threshold` locates the flip
COARSE_POINTS = 21

#: interior points of the bracket that each round of the qubit refine scores
REFINE_POINTS = 16

#: what :func:`_settle_bound` adds to the continuity bound for the scores'
#: arithmetic: a score drops each eigenvalue at or below ``SUPPORT_EPS``, a
#: term worth at most ``SUPPORT_EPS log2(1/SUPPORT_EPS)`` = 4.0e-11 bits, and
#: the two scores it compares drop at most 16 + 4 of them (the output of one
#: and the B marginal of the other, d_out <= 4); 1e-12 more covers rounding
SETTLE_SLACK = 20 * SUPPORT_EPS * math.log2(1.0 / SUPPORT_EPS) + 1e-12

#: the largest Schmidt grid accepted, far above what any verdict needs; the
#: d = 2 lattice and the p list of ``fidelion sweep`` are each ``grid`` long
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
    """Bisection bracket for the membership boundary in p."""

    p_star: float
    bracket: tuple[float, float]
    iterations: int


def _family_channel(family: str, p: float, channel: KrausChannel | None) -> tuple[KrausChannel, bool]:
    """Resolve a family tag to a channel; second element is True for the
    unitarily covariant families, whose worst cases are exact."""
    if family in DEPOLARIZING:
        if channel is not None:
            raise UnsupportedFamilyError(f"family {family!r} takes no channel argument")
        return depolarizing(DEPOLARIZING[family], p), True
    if family == "user-kraus":
        if channel is None:
            raise UnsupportedFamilyError("family 'user-kraus' needs a channel argument")
        return channel, False
    raise UnsupportedFamilyError(f"unknown family {family!r}")


def _schmidt_grid(d: int, grid: int) -> np.ndarray:
    """Schmidt vectors to search, one per row."""
    if d == 2:
        q0 = np.linspace(0.0, 1.0, grid)
        return np.stack([q0, 1.0 - q0], axis=1)
    # lattice q = n/m over the probability simplex of d parts, with the
    # smallest m >= 3 that gives more than `grid` points, in lexicographic
    # order of the first d - 1 parts, then the uniform vector it may miss
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
    out = np.empty((rest.size + 1, d))
    for j, col in enumerate(parts + [rest]):
        out[:-1, j] = col / m
    out[-1] = 1.0 / d
    return out


def _basis_images(cls: str, chan: KrausChannel) -> np.ndarray:
    """The images ``N(|ii><jj|)`` (d^2, n, n) of the d^2 basis operators
    under the one-sided (NCEBC) or two-local (NCEAC) action of ``chan``,
    pair ``n = i d + j`` in row n."""
    d, d_out = chan.dim_in, chan.dim_out
    diag = np.arange(d) * (d + 1)
    basis = np.zeros((d * d, d * d, d * d), dtype=complex)
    basis[np.arange(d * d), np.repeat(diag, d), np.tile(diag, d)] = 1.0
    image = _act_on_factor(chan.ops, basis, (d, d), "B")
    if cls == "NCEAC":
        image = _act_on_factor(chan.ops, image, (d, d_out), "A")
    return image


def _entropy_scorer(cls: str, *images: np.ndarray) -> Callable[..., np.ndarray]:
    """The scorer of one or more channels of equal dimensions, each given by
    its basis images from :func:`_basis_images`: it maps a stack ``qs`` (k,
    d) of Schmidt vectors, and ``at``, the index into ``images`` of each
    row's channel (an int for all rows), to the negated conditional entropy
    ``S(B) - S(AB)`` of the output of the one-sided (NCEBC) or two-local
    (NCEAC) channel on each.

    The images are kept as a stack ``(d^2, len(images), n, n)``; a score
    then sums ``sqrt(q_i) sqrt(q_j) N(|ii><jj|)`` over the pairs in a fixed
    order, one multiply-add per pair with the image of the row's own
    channel, so each row scores bitwise the same alone as in any stack.
    When every image is exactly real (the depolarizing families, amplitude
    damping, any real Kraus set), the stack is kept as float64, and the
    sums, the validation and the B marginal's spectrum run in real
    arithmetic; the real parts come out bitwise as the complex ones would.
    The Schmidt vectors are checked as ``SchmidtPureState`` checks them, and
    the outputs take the full ``DensityMatrix`` validation as one stack. The
    input projectors are never built: they are Hermitian, unit-trace and
    rank-one by construction, so a check of them could only round them.
    The scorer keeps the output's ``dims`` (d_A, d_B), whose A factor the
    continuity bound of the qubit refine takes."""
    images = np.stack(images, axis=1)
    if not images.imag.any():
        images = images.real
    # the outputs live on d x d_out (NCEBC) or d_out x d_out (NCEAC)
    d, size = math.isqrt(len(images)), images.shape[-1]
    dims = (math.isqrt(size),) * 2 if cls == "NCEAC" else (d, size // d)
    single = images.shape[1] == 1

    def score(qs: np.ndarray, at=0) -> np.ndarray:
        r = np.sqrt(_schmidt_vectors(qs))
        # the weight sqrt(q_i) sqrt(q_j) of every pair n = i d + j, one product
        pairs = (r[:, :, None] * r[:, None, :]).reshape(len(r), d * d, 1, 1)
        at = 0 if single else at
        out = np.zeros(r.shape[:-1] + images.shape[2:], dtype=images.dtype)
        for n, image in enumerate(images):
            out += pairs[:, n] * image[at]
        out, w = _validate(out)
        return -_conditional_von_neumann(w, _spectrum(partial_trace(out, dims, "B")))

    score.dims = dims
    return score


def _score_in_blocks(
    score: Callable[..., np.ndarray], n: int, rows: Callable[[np.ndarray], tuple]
) -> np.ndarray:
    """Scores of ``n`` inputs, ``BLOCK`` at a time: ``rows(idx)`` gives the
    Schmidt vectors and channel indices of the inputs ``idx``, so no more
    than one stack of inputs is built at once."""
    return np.concatenate([
        score(*rows(np.arange(start, min(start + BLOCK, n)))) for start in range(0, n, BLOCK)
    ])


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

    Fidelity classes take one eigenpair per p, from one stacked ``eigh``
    (:func:`_worst_fidelity`; only the user FAC2 ascent uses ``restarts``
    and ``seed``). Entropy classes take the worst point of the Schmidt grid
    (101 to ``MAX_GRID`` points, ties going to the first point); the grid points
    of every p are scored together, ``BLOCK`` rows at a time. For qubit
    systems :func:`_refine_qubit` then refines each p's worst point between
    its two grid neighbors, 16 inputs per round, down to a bracket of width
    1e-8, all p in lockstep. At most ``BLOCK`` values of p are taken at
    once, so memory stays flat in the number of p. The ``user-kraus``
    family ignores p: its channel is certified once, and every p gets that
    report with its own ``p``. Channels must map between local dimensions
    2 to 4, else ``UnsupportedDimensionError``.
    """
    ps = list(ps)
    if family == "user-kraus" and len(ps) > 1:
        # the family ignores p: certify its one channel once
        report = certify_many(cls, family, ps[:1], grid, channel, restarts, seed)[0]
        return [replace(report, p=p) for p in ps]
    reports = []
    # no p still takes one stage, which checks the arguments
    for start in range(0, len(ps) or 1, BLOCK):
        block = ps[start : start + BLOCK]
        searched = _lattice_stage(cls, family, block, grid, channel, restarts, seed)
        # one stage's p all take the qubit refine, or none does
        if searched and searched[0].refine is not None:
            reports += _refine_stage(searched, np.inf)
        else:
            reports += [s.report for s in searched]
    return reports


class _Searched(NamedTuple):
    """One p's certificate after the lattice stage. ``report`` reads the
    worst lattice point alone. A qubit entropy search, whose score the
    refine stage can still raise, keeps in ``refine`` what that stage needs:
    the basis images of the p's channel, the bracket of q0 between the worst
    point's two grid neighbors, the worst point and its score. For every
    other search ``refine`` is None and ``report`` is final."""

    report: ClassificationReport
    refine: tuple | None = None


def _lattice_stage(
    cls: str,
    family: str,
    ps: list,
    grid: int = 101,
    channel: KrausChannel | None = None,
    restarts: int = 20,
    seed=42,
) -> list[_Searched]:
    """The certificates of at most ``BLOCK`` values of p, short of the qubit
    refine: the fidelity classes and the NCEBC shortcut in full, the entropy
    classes at the worst point of their Schmidt lattice."""
    if cls not in CLASSES:
        raise UnsupportedFamilyError(f"unknown class {cls!r}")
    _check_grid(grid)
    resolved = [_family_channel(family, p, channel) for p in ps]
    if not resolved:
        return []
    chans = [chan for chan, _ in resolved]
    exhaustive = resolved[0][1]
    d, d_out = chans[0].dim_in, chans[0].dim_out
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
    if cls in ("FBC", "FAC2"):
        values, qs = _worst_fidelity(cls, chans, exhaustive, restarts, seed)
        certified = exhaustive or cls == "FBC"
        return [
            _Searched(_report(cls, p, q, float(value), 1.0 / d_out, certified))
            for p, q, value in zip(ps, qs, values)
        ]

    images = [_basis_images(cls, chan) for chan in chans]
    score = _entropy_scorer(cls, *images)
    if cls == "NCEBC" and exhaustive:
        q = np.full(d, 1.0 / d)
        values = _score_in_blocks(score, len(chans), lambda i: (np.tile(q, (len(i), 1)), i))
        return [
            _Searched(_report(cls, p, q, float(value), 0.0, True)) for p, value in zip(ps, values)
        ]

    lattice = _schmidt_grid(d, grid)
    k = len(lattice)
    values = _score_in_blocks(score, len(chans) * k, lambda i: (lattice[i % k], i // k))
    values = values.reshape(len(chans), k)
    worst = np.argmax(values, axis=1)
    q, value = lattice[worst], values[np.arange(len(chans)), worst]
    reports = [_report(cls, p, q[i], float(value[i]), 0.0, exhaustive) for i, p in enumerate(ps)]
    if d != 2:
        return [_Searched(report) for report in reports]
    # q0 rises along the d = 2 grid: the refine brackets it by the two neighbors
    lo, hi = lattice[np.maximum(worst - 1, 0), 0], lattice[np.minimum(worst + 1, k - 1), 0]
    return [
        _Searched(report, (images[i], lo[i], hi[i], q[i], value[i]))
        for i, report in enumerate(reports)
    ]


def _refine_stage(searched: list[_Searched], stop: float) -> list[ClassificationReport]:
    """The final reports of qubit entropy searches of one class, from one
    :func:`_refine_qubit` of all their stored brackets in lockstep. Each
    ends once its score reaches ``stop`` or once the continuity bound of
    :func:`_settle_bound` (Winter 2016) puts every score its bracket could
    still reach at or below ``-stop``; at ``stop = inf`` each refines to
    its end. The scorer is built from the stored basis images, so no
    channel is built and no lattice scored again; each report is bitwise
    the one its p gives alone."""
    if not searched:
        return []
    images, lo, hi, q, value = (np.array(part) for part in zip(*(s.refine for s in searched)))
    cls = searched[0].report.cls
    q, value = _refine_qubit(_entropy_scorer(cls, *images), lo, hi, q, value, stop)
    return [
        _report(cls, s.report.p, q[i], float(value[i]), 0.0, s.report.evidence == "exact")
        for i, s in enumerate(searched)
    ]


def _worst_fidelity(
    cls: str, chans: list[KrausChannel], covariant: bool, restarts: int, seed
) -> tuple[np.ndarray, np.ndarray]:
    """Worst output fidelity of each channel and the Schmidt coefficients of
    its input: the top eigenpair of ``(I (x) N^dag)(Phi_U)`` (FBC) or
    ``(N^dag (x) N^dag)(Phi_U)`` (FAC2) at U = I, or for user FAC2 channels
    at the U that the polar ascent over U(d') reaches on ``lambda_max``, a
    lower bound on the worst case. The operators of all channels take one
    stacked ``eigh``."""
    d, d_out = chans[0].dim_in, chans[0].dim_out

    def choi(adjoint: np.ndarray, x: np.ndarray) -> np.ndarray:
        # the operator above for each row x = vec(U) of a stack (k, d'^2)
        phi_u = x / np.sqrt(d_out)  # (U (x) I)|phi>
        c = _act_on_factor(adjoint, _outer(phi_u), (d_out, d_out), "B")
        if cls == "FAC2":
            c = _act_on_factor(adjoint, c, (d_out, d), "A")
        return c

    def top(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        w, v = np.linalg.eigh(c)
        return w[:, -1], v[:, :, -1]

    def at_worst_unitary(chan: KrausChannel) -> np.ndarray:
        adjoint = np.swapaxes(chan.ops, 1, 2).conj()

        def gram(x: np.ndarray) -> np.ndarray:
            # (N (x) N)(psi psi^dag) for the top eigenvector psi at U = x: its
            # form <y|.|y>/d' is lambda_max at y = x and at most lambda_max at
            # every other unitary y
            m = _act_on_factor(chan.ops, _outer(top(choi(adjoint, x))[1]), (d, d), "B")
            return _act_on_factor(chan.ops, m, (d, d_out), "A")

        u = np.eye(d_out)
        if cls == "FAC2" and not covariant:
            u = _maximize_over_unitaries(gram, d_out, restarts, seed)[1]
        return choi(adjoint, u.reshape(1, d_out * d_out))

    values, psi = top(np.concatenate([at_worst_unitary(chan) for chan in chans]))
    q = np.linalg.svd(psi.reshape(-1, d, d), compute_uv=False) ** 2
    return values, q / q.sum(axis=-1, keepdims=True)


def _outer(v: np.ndarray) -> np.ndarray:
    """``|v><v|`` for each row of a stack ``v`` (k, n)."""
    return v[:, :, None] * v[:, None, :].conj()


def _check_grid(grid: int) -> None:
    if grid < 101:
        raise InvalidParameterError(f"grid must be at least 101, got {grid}")
    if grid > MAX_GRID:
        raise InvalidParameterError(f"grid must be at most {MAX_GRID}, got {grid}")


def _refine_qubit(
    score: Callable[..., np.ndarray],
    lo: np.ndarray,
    hi: np.ndarray,
    q: np.ndarray,
    value: np.ndarray,
    stop: float = np.inf,
) -> tuple[np.ndarray, np.ndarray]:
    """For each channel i of ``score``, the best of ``(q[i], value[i])`` and
    the qubit inputs that a bracket refine of q0 over ``[lo[i], hi[i]]``
    scores. Each round scores ``REFINE_POINTS`` evenly spaced interior
    points of every open bracket, in stacks of at most ``BLOCK`` rows, and
    shrinks each to the two neighbors of its best point. At 1e-8 the scores
    refined here are already flat to rounding (7 rounds from the bracket of
    the 101-point grid).

    A bracket stays open while it is wider than 1e-8 and its verdict,
    read on the band ``(-stop, stop)`` around the bound 0, is not settled
    on either side. A value only rises here, so one that reaches ``stop``,
    or starts there, leaves at or above it. A bracket also leaves once
    ``value + B <= -stop``, with B from :func:`_settle_bound` over the
    bracket and the output's A factor ``score.dims[0]``: no score the
    refine could still reach exceeds ``value + B``, so the full refine's
    value also lies at or below ``-stop``. At ``stop = inf`` every bracket
    refines to 1e-8. Each bracket takes the same rounds, bitwise, as it
    does alone."""
    lo, hi, q, value = lo.copy(), hi.copy(), q.copy(), value.copy()
    dim_a = score.dims[0]

    def open_brackets() -> np.ndarray:
        unsettled = (value < stop) & (value + _settle_bound(lo, hi, q, dim_a) > -stop)
        return np.flatnonzero((hi - lo > 1e-8) & unsettled)

    while (wide := open_brackets()).size:
        x = np.linspace(lo[wide], hi[wide], REFINE_POINTS + 2, axis=-1)
        qs = np.stack([x[:, 1:-1], 1.0 - x[:, 1:-1]], axis=-1).reshape(-1, 2)
        at = np.repeat(wide, REFINE_POINTS)
        values = _score_in_blocks(score, len(qs), lambda i: (qs[i], at[i]))
        values = values.reshape(len(wide), REFINE_POINTS)
        rows = np.arange(len(wide))
        best = np.argmax(values, axis=1)
        top = values[rows, best]
        better = top > value[wide]
        q[wide[better]] = qs[(rows * REFINE_POINTS + best)[better]]
        value[wide[better]] = top[better]
        lo[wide], hi[wide] = x[rows, best], x[rows, best + 2]
    return q, value


def _settle_bound(lo: np.ndarray, hi: np.ndarray, q: np.ndarray, dim_a: int) -> np.ndarray:
    """For each row i, a bound B on how far the score of any qubit input
    with q0 in ``[lo[i], hi[i]]`` exceeds the score of the input ``q[i]``,
    for a channel output whose A factor has dimension ``dim_a``.

    B is the Alicki-Fannes-Winter bound (A. Winter, Commun. Math. Phys.
    347, 291 (2016)): states eps apart in trace distance have conditional
    entropies at most ``2 eps log2|A| + (1 + eps) h(eps / (1 + eps))``
    apart, h the binary entropy, plus ``SETTLE_SLACK``; B grows with eps.
    Every channel contracts trace distance, so eps is the larger of the
    distances ``sqrt(1 - (sqrt(q0 x) + sqrt((1-q0)(1-x)))^2)`` between the
    pure inputs at q and at the ends x = lo, hi: on either side of q0 the
    distance grows with ``|x - q0|``, so no x of the bracket lies farther,
    whether q0 lies in it or not."""

    def distance(x: np.ndarray) -> np.ndarray:
        # the same distance, as the exact |sqrt(q0 (1 - x)) - sqrt(q1 x)|,
        # which keeps its digits where x nears q0
        return np.abs(np.sqrt(q[:, 0] * (1.0 - x)) - np.sqrt(q[:, 1] * x))

    eps = np.maximum(distance(lo), distance(hi))
    # (1 + eps) h(eps / (1 + eps)) = (1 + eps) log2(1 + eps) - eps log2(eps),
    # with no term dropped at small eps
    spread = (1.0 + eps) * np.log1p(eps) / math.log(2.0)
    spread -= eps * np.log2(np.where(eps > 0.0, eps, 1.0))
    return 2.0 * eps * math.log2(dim_a) + spread + SETTLE_SLACK


def _report(
    cls: str, p: float, q: np.ndarray, value: float, bound: float, exhaustive: bool
) -> ClassificationReport:
    """Verdict from the worst score ``value``: a member keeps it below
    ``bound``, which is certified only when the score is ``exhaustive``;
    a non-member has it above."""
    verdict = "non-member" if value >= bound + BOUNDARY_TOL else "undecided"
    if exhaustive and value <= bound - BOUNDARY_TOL:
        verdict = "member"
    return ClassificationReport(
        cls=cls,
        p=p,
        verdict=verdict,
        worst_input=SchmidtPureState(q),
        # entropy scores are negated conditional entropies
        worst_value=value if cls in ("FBC", "FAC2") else -value,
        margin=float(bound - value),
        evidence="exact" if exhaustive else "sampled",
    )


#: verdicts in the order that :func:`threshold` needs them along p
_RANKS = ("member", "undecided", "non-member")


def threshold(cls: str, family: str, grid: int = 101) -> ThresholdResult:
    """Bisect the membership boundary in p to a bracket of width
    ``THRESHOLD_TOL``, on verdicts.

    Verdicts are first taken on ``COARSE_POINTS`` values of p, certified
    together as one stack. Ordered by p, every verdict taken must run
    member, then undecided, then non-member, starting with a member and
    ending with a non-member; otherwise ``NonMonotoneError`` is raised. The
    bracket runs from the last member to the first p that is not a member.
    Each bisection step certifies its one midpoint. When that end is
    undecided, the first non-member is then bisected down to within
    ``THRESHOLD_TOL`` of the last member, and an undecided band that reaches
    that far raises ``NonMonotoneError``.

    Each verdict takes two steps. The bisection first walks on the
    verdicts of the lattice stage alone. When the walk ends, with a result
    or an error, one stacked refine confirms every p it visited whose
    lattice verdict is not ``non-member`` (a refine only raises the score,
    so that verdict is final). Each refine ends once its verdict is
    settled on either side: ``non-member`` once its score reaches the
    bound 0 plus ``BOUNDARY_TOL``, and ``member`` once its score plus the
    Alicki-Fannes-Winter bound of Winter 2016 over its bracket lies at or
    below 0 minus ``BOUNDARY_TOL``, so no score left in the bracket could
    move it. If no verdict changed, the walk stands; otherwise it runs
    again on the confirmed verdicts and confirms the p it newly visits.
    The walk reads only the verdicts of the p it visits, so the one that
    stands is the walk on fully refined verdicts, bitwise. Searches with no
    refine (the fidelity classes, the NCEBC shortcut, every d >= 3) walk
    once.
    """
    searched: dict[float, _Searched] = {}
    confirmed: dict[float, str] = {}

    def ranks_at(ps: list[float]) -> list[int]:
        new = [p for p in ps if p not in searched]
        if new:
            searched.update(zip(new, _lattice_stage(cls, family, new, grid)))
        return [_RANKS.index(confirmed.get(p, searched[p].report.verdict)) for p in ps]

    while True:
        try:
            result = _bisect(cls, family, ranks_at)
        except NonMonotoneError as exc:
            result = exc
        pending = [
            s for p, s in searched.items()
            if p not in confirmed and s.refine is not None and s.report.verdict != "non-member"
        ]
        reports = _refine_stage(pending, 0.0 + BOUNDARY_TOL)
        confirmed.update((report.p, report.verdict) for report in reports)
        if all(report.verdict == s.report.verdict for report, s in zip(reports, pending)):
            if isinstance(result, NonMonotoneError):
                raise result
            return result


def _bisect(cls: str, family: str, ranks_at: Callable[[list[float]], list[int]]) -> ThresholdResult:
    """The bisection of :func:`threshold` on the verdict ranks that
    ``ranks_at`` gives, as indices into ``_RANKS``, for a list of p."""
    coarse = np.linspace(0.0, 1.0, COARSE_POINTS).tolist()
    seen = dict(zip(coarse, ranks_at(coarse)))
    iterations = 0
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
            iterations += 1
        elif first - lo <= THRESHOLD_TOL:
            return ThresholdResult(p_star=0.5 * (lo + hi), bracket=(lo, hi), iterations=iterations)
        elif top - lo >= THRESHOLD_TOL:
            raise NonMonotoneError(
                f"{cls}/{family}: undecided verdicts span {THRESHOLD_TOL} or more in p"
            )
        else:
            a, b = top, first
        mid = 0.5 * (a + b)
        seen[mid] = ranks_at([mid])[0]


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
    return float(_conditional_von_neumann(np.array(joint), np.array(marginal)))


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
    return float(_conditional_von_neumann(np.array(joint), np.array(marginal)))


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
