import csv
import itertools
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import brentq, minimize_scalar

from fidelion import classifiers, cli, fidelity, theorems
from fidelion.channels import (
    KrausChannel,
    _act_on_factor,
    apply_one_sided,
    apply_two_local,
    compose,
    convex_mix,
    depol_2local_fidelity,
    depolarizing,
    read_channel_file,
    unitary_channel,
)
from fidelion.entropy import _conditional_von_neumann, conditional_von_neumann
from fidelion.errors import (
    DimensionMismatchError,
    FidelionError,
    InvalidParameterError,
    NonMonotoneError,
    NotPSDError,
    UnsupportedDimensionError,
    UnsupportedFamilyError,
)
from fidelion.fidelity import fidelity_optimize
from fidelion.states import (
    BOUNDARY_TOL,
    DensityMatrix,
    SchmidtPureState,
    _schmidt_projectors,
    _schmidt_vectors,
    random_density_matrix,
    schmidt_state,
)


def _random_two_kraus(d, rng, d_out=None):
    """Channel with the two d_out x d blocks of a random isometry as Kraus
    operators (d_out = d by default)."""
    d_out = d if d_out is None else d_out
    z = rng.normal(size=(2 * d_out, d)) + 1j * rng.normal(size=(2 * d_out, d))
    v, _ = np.linalg.qr(z)
    return KrausChannel(d, d_out, (v[:d_out], v[d_out:]))


def _amplitude_damping(gamma):
    k0 = np.array([[1.0, 0.0], [0.0, np.sqrt(1.0 - gamma)]])
    k1 = np.array([[0.0, np.sqrt(gamma)], [0.0, 0.0]])
    return KrausChannel(2, 2, (k0, k1))


def _scoring_channels(d):
    """Depolarizing channels at five p, a random user channel and a random
    channel into d + 1 dimensions."""
    rng = np.random.default_rng(d)
    return [depolarizing(d, p) for p in (0.0, 0.3, 0.75, 0.86, 1.0)] + [
        _random_two_kraus(d, rng),
        _random_two_kraus(d, rng, d + 1),
    ]


class TestEntropyScores:
    @staticmethod
    def _per_point(cls, chan, q):
        """The exact-projector route: the projector onto the Schmidt state sent
        through the Kraus kernel, the output validated as a state, and its
        conditional entropy from the B marginal's spectrum."""
        d = len(q)
        out = _act_on_factor(chan.ops, _schmidt_projectors(_schmidt_vectors(q)), (d, d), "B")
        dims = (d, chan.dim_out)
        if cls == "NCEAC":
            out = _act_on_factor(chan.ops, out, dims, "A")
            dims = (chan.dim_out, chan.dim_out)
        return -conditional_von_neumann(DensityMatrix(dims, out))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_stack_equals_per_point_route(self, cls, d):
        # one-sided outputs of the pairs |ii><jj| do not overlap, so NCEBC
        # scores are the kernel's own; the two-local sum rounds differently
        qs = classifiers._schmidt_grid(d, 101)
        for chan in _scoring_channels(d):
            scores = classifiers._entropy_scorer(cls, chan)(qs)
            route = [self._per_point(cls, chan, q) for q in qs]
            if cls == "NCEBC":
                assert np.array_equal(scores, route)
            else:
                assert np.abs(scores - route).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_each_row_scores_as_it_does_alone(self, cls, d):
        qs = classifiers._schmidt_grid(d, 101)
        for chan in _scoring_channels(d):
            score = classifiers._entropy_scorer(cls, chan)
            stacked = score(qs)
            assert np.array_equal(stacked, [score(q[None])[0] for q in qs])
            assert np.array_equal(stacked[7:19], score(qs[7:19]))

    def test_non_unital_channel_takes_the_grid(self):
        # a user channel such as amplitude damping takes the NCEBC grid, whose
        # scores must equal the exact-projector route too
        chan = _amplitude_damping(0.4)
        qs = classifiers._schmidt_grid(2, 101)
        scores = classifiers._entropy_scorer("NCEBC", chan)(qs)
        assert np.array_equal(scores, [self._per_point("NCEBC", chan, q) for q in qs])
        rep = classifiers.certify("NCEBC", "user-kraus", 0.0, channel=chan)
        assert -rep.worst_value == self._per_point("NCEBC", chan, rep.worst_input.q)
        assert -rep.worst_value >= scores.max()

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    @pytest.mark.parametrize(
        "chan, dtype",
        [
            (depolarizing(2, 0.3), "float64"),
            (depolarizing(3, 0.7), "float64"),
            (depolarizing(4, 0.86), "float64"),
            (_amplitude_damping(0.4), "float64"),
            (_random_two_kraus(2, np.random.default_rng(3)), "complex128"),
            (_random_two_kraus(3, np.random.default_rng(4)), "complex128"),
        ],
        ids=["depol-2", "depol-3", "depol-4", "amplitude-damping", "random-2", "random-3"],
    )
    def test_exactly_real_images_are_summed_as_real(self, cls, chan, dtype, monkeypatch):
        # the outputs are summed in the dtype of the images: float64 when every
        # image is exactly real, complex otherwise
        dtypes, validate = [], classifiers._validate

        def recorded_validate(m):
            dtypes.append(m.dtype.name)
            return validate(m)

        qs = classifiers._schmidt_grid(chan.dim_in, 101)
        score = classifiers._entropy_scorer(cls, chan)
        monkeypatch.setattr(classifiers, "_validate", recorded_validate)
        score(qs)
        assert dtypes == [dtype]

    def test_rank_two_qutrit_input_against_plain_numpy(self):
        # p psi + (1 - p) rho_A (x) I/3 for the NCEBC output of depol(3, 0.71):
        # the rank-2 input has S(A|B) < 0, the uniform input S(A|B) > 0
        p = 0.71
        score = classifiers._entropy_scorer("NCEBC", depolarizing(3, p))

        def entropy(m):
            w = np.linalg.eigvalsh(m)
            w = w[w > 1e-15]
            return -np.sum(w * np.log2(w))

        for q, expected in (
            ([0.5, 0.5, 0.0], -0.002739017710761793),
            ([1 / 3, 1 / 3, 1 / 3], 0.011745292448922307),
        ):
            ket = np.zeros(9)
            ket[::4] = np.sqrt(q)
            out = p * np.outer(ket, ket) + (1 - p) * np.kron(np.diag(q), np.eye(3) / 3)
            plain = entropy(out) - entropy(np.einsum("ijik->jk", out.reshape(3, 3, 3, 3)))
            assert abs(plain - expected) <= 1e-12
            assert abs(-score(np.array([q]))[0] - expected) <= 1e-12

    def test_rejects_what_a_schmidt_state_rejects(self):
        score = classifiers._entropy_scorer("NCEAC", depolarizing(2, 0.5))
        for qs in (
            [[0.5, 0.5], [0.7, 0.7]],
            [[1.0 + 1e-11, -1e-11]],
            # a NaN compares False with every bound, so the check must fail on it
            [[np.nan, 1.0]],
            [[np.nan, np.nan]],
        ):
            with pytest.raises(ValueError, match="probability vector"):
                score(np.array(qs))
            with pytest.raises(ValueError, match="probability vector"):
                SchmidtPureState(np.array(qs[-1]))

    @pytest.mark.parametrize(
        "cls, family, p, chan, grid",
        [
            # the qubit depolarizing channel given as a user channel, whose
            # lattice of 1001 points takes more than one stack (the family
            # itself builds no output matrix: its kernel takes their spectra)
            ("NCEAC", "user-kraus", 0.0, depolarizing(2, 0.8), 1000),
            ("NCEBC", "user-kraus", 0.0, _amplitude_damping(0.4), 101),
        ],
        ids=["NCEAC-qubit-depol", "NCEBC-amplitude-damping"],
    )
    def test_no_input_projector_is_validated(self, cls, family, p, chan, grid, monkeypatch):
        # each scored stack validates its outputs once; its input projectors
        # are exact by construction and are never built or validated
        checked, validated = [], []
        check, validate = classifiers._schmidt_vectors, classifiers._validate

        def recorded_check(qs):
            checked.append(check(qs))
            return checked[-1]

        def recorded_validate(m):
            validated.append(m.copy())
            return validate(m)

        monkeypatch.setattr(classifiers, "_schmidt_vectors", recorded_check)
        monkeypatch.setattr(classifiers, "_validate", recorded_validate)
        classifiers.certify(cls, family, p, grid=grid, channel=chan)
        assert len(validated) == len(checked) > 1
        for q, m in zip(checked, validated):
            assert not np.array_equal(m, _schmidt_projectors(q))


#: the p at which the depolarizing kernel meets its Kraus oracle
ORACLE_PS = [0.0, 0.3, 0.75, 0.86, 1.0]


def _oracle_inputs(cls, d):
    """The unordered search lattice, the rank-k rows and 32 Dirichlet
    draws: the Schmidt vectors that the kernel must score as the Kraus
    route does."""
    rng = np.random.default_rng(10 + d)
    return np.concatenate([
        classifiers._search_lattice(cls, d, 101, False),
        [_rank_k(d, k) for k in range(2, d + 1)],
        rng.dirichlet(np.ones(d), size=32),
    ])


class TestDepolarizingKernel:
    """The structured scorer and closed-form fidelity of the depolarizing
    families against the Kraus route that ``user-kraus`` takes."""

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_scorer_matches_the_basis_image_route(self, cls, d):
        qs = _oracle_inputs(cls, d)
        score = classifiers._depolarizing_scorer(cls, qs)
        for p in ORACLE_PS:
            oracle = classifiers._entropy_scorer(cls, depolarizing(d, p))(qs)
            assert np.abs(score(p) - oracle).max() <= 1e-13
            # one p for all rows or one per row, the same bits
            assert np.array_equal(score(p), score(np.full(len(qs), p)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_each_row_scores_as_it_does_alone(self, cls, d):
        # the rows of every p in one stack, each taking its own p
        qs = _oracle_inputs(cls, d)
        ps = np.resize(ORACLE_PS, len(qs) * len(ORACLE_PS))
        rows = np.repeat(qs, len(ORACLE_PS), axis=0)
        score = classifiers._depolarizing_scorer(cls, rows)
        stacked = score(ps)
        alone = [
            classifiers._depolarizing_scorer(cls, row[None])(p)[0] for row, p in zip(rows, ps)
        ]
        assert np.array_equal(stacked, alone)
        assert np.array_equal(stacked[7:61], score(ps[7:61], np.arange(7, 61)))

    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["FBC", "FAC2"])
    def test_fidelity_matches_the_kraus_route(self, cls, d):
        # the oracle takes one channel per p, FAC2 through the polar ascent
        values, qs = classifiers._depolarizing_fidelity(cls, d, ORACLE_PS)
        routes = [classifiers._worst_fidelity(cls, depolarizing(d, p), 1, 0) for p in ORACLE_PS]
        oracle = np.array([value for value, _ in routes])
        oracle_qs = np.array([q for _, q in routes])
        assert np.abs(values - oracle).max() <= 1e-14
        # at p = 0 the operator is I/d^2 and every input ties
        assert np.abs(qs[1:] - oracle_qs[1:]).max() <= 1e-12
        assert np.array_equal(qs, np.full((len(ORACLE_PS), d), 1.0 / d))

    @pytest.mark.parametrize("p", np.linspace(0.0, 1.0, 11))
    def test_qubit_closed_forms_meet_the_kernel(self, p):
        q0 = np.linspace(0.0, 1.0, 41)
        qs = np.stack([q0, 1.0 - q0], axis=1)
        nceac = -classifiers._depolarizing_scorer("NCEAC", qs)(p)
        expected = [ncea_conditional_entropy_closed_form(p, x) for x in q0]
        assert np.abs(nceac - expected).max() <= 1e-13
        # cos(alpha)|00> + sin(alpha)|11> has q0 = cos^2(alpha)
        alphas = np.linspace(0.05, np.pi / 2 - 0.05, 21)
        qs = np.stack([np.cos(alphas) ** 2, np.sin(alphas) ** 2], axis=1)
        ncebc = -classifiers._depolarizing_scorer("NCEBC", qs)(p)
        expected = [ncebc_conditional_entropy_closed_form(p, a) for a in alphas]
        assert np.abs(ncebc - expected).max() <= 1e-13

    def test_scorer_rejects_what_a_schmidt_state_rejects(self):
        for qs in ([[0.5, 0.5, 0.5]], [[1.0 + 1e-11, -1e-11, 0.0]], [[np.nan, 0.5, 0.5]]):
            with pytest.raises(ValueError, match="probability vector"):
                classifiers._depolarizing_scorer("NCEBC", np.array(qs))

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_outputs_take_the_checks_of_a_density_matrix(self, cls):
        # p is range-checked before the kernel; past it, the kernel's
        # spectra fail with the errors of DensityMatrix validation
        qs = np.array([[0.2, 0.3, 0.5]])
        with pytest.raises(InvalidParameterError, match="non-finite"):
            classifiers._depolarizing_scorer(cls, qs)(np.nan)
        with pytest.raises(NotPSDError, match="below -1e-10"):
            classifiers._depolarizing_scorer(cls, qs)(1.5)

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_rank_one_outputs_are_clipped_and_renormalized(self, cls, monkeypatch):
        # at p = 1 both outputs are the pure input, whose block gives some
        # rows an eigenvalue just below zero; the score is then S(B) = H(q)
        clipped, negative_rows = [], classifiers._negative_rows

        def recorded(w):
            clipped.append(negative_rows(w))
            return clipped[-1]

        monkeypatch.setattr(classifiers, "_negative_rows", recorded)
        qs = _oracle_inputs(cls, 3)
        scores = classifiers._depolarizing_scorer(cls, qs)(1.0)
        (rows,) = clipped
        assert 0 < rows.sum() < len(qs)
        expected = [_entropy(q) for q in qs]
        assert np.abs(scores - expected).max() <= 1e-13


class TestSchmidtSearch:
    @staticmethod
    def _record(monkeypatch):
        """Record the rows and the scores of every stack that a user
        channel's scorer scores."""
        calls = []
        scorer = classifiers._entropy_scorer

        def recorded(cls, chan):
            score = scorer(cls, chan)

            def scored(qs):
                values = score(qs)
                calls.append((np.array(qs), values))
                return values

            return scored

        monkeypatch.setattr(classifiers, "_entropy_scorer", recorded)
        return calls

    @pytest.mark.parametrize("d", [2, 3])
    def test_lattice_is_scored_in_blocks(self, d, monkeypatch):
        chan = depolarizing(d, 0.8)
        calls = self._record(monkeypatch)
        classifiers.certify("NCEAC", "user-kraus", 0.0, grid=1000, channel=chan)
        assert max(len(qs) for qs, _ in calls) <= theorems.BLOCK
        lattice = classifiers._schmidt_grid(d, 1000)
        blocks = calls[: -(-len(lattice) // theorems.BLOCK)]
        assert len(blocks) > 1
        assert np.array_equal(np.concatenate([qs for qs, _ in blocks]), lattice)
        monkeypatch.undo()
        single = classifiers._entropy_scorer("NCEAC", chan)(lattice)
        assert np.array_equal(np.concatenate([v for _, v in blocks]), single)

    @pytest.mark.parametrize("k", [7, theorems.BLOCK, 2 * theorems.BLOCK + 3])
    def test_worst_rows_is_the_dense_argmax(self, k):
        # runs shorter than a stack, as long, and over two stacks long; the
        # last row of every run ties its maximum, so the first row must win
        runs = 5
        dense = np.random.default_rng(k).integers(0, 4, (runs, k)).astype(float)
        dense[:, -1] = dense[:, :-1].max(axis=1)
        calls = []

        def score(i):
            calls.append(i)
            return dense.ravel()[i]

        values, rows = classifiers._worst_rows(score, runs, k)
        expected = dense.reshape(runs, k).argmax(axis=1)
        assert rows.tolist() == expected.tolist()
        assert values.tobytes() == dense[np.arange(runs), expected].tobytes()
        assert max(len(i) for i in calls) <= theorems.BLOCK
        assert np.array_equal(np.concatenate(calls), np.arange(runs * k))

    @pytest.mark.parametrize("family", classifiers.DEPOLARIZING)
    def test_many_p_are_scored_in_blocks(self, family, monkeypatch):
        # the lattices of all p form one run of rows, cut into stacks of at
        # most BLOCK rows whatever the number of p, for the family's scorer,
        # which is built once for its lattice
        calls = []
        d = classifiers.DEPOLARIZING[family]
        lattice = classifiers._search_lattice("NCEAC", d, 101, True)
        score = classifiers._family_scorer("NCEAC", d, 101)

        def scored(p, rows):
            calls.append((lattice[rows], p))
            return score(p, rows)

        monkeypatch.setattr(classifiers, "_family_scorer", lambda *key: scored)
        ps = np.linspace(0.0, 1.0, 101)
        classifiers.certify_many("NCEAC", family, ps)
        assert len(calls) == -(-len(ps) * len(lattice) // theorems.BLOCK)
        assert max(len(qs) for qs, _ in calls) <= theorems.BLOCK
        assert np.array_equal(np.concatenate([qs for qs, _ in calls]), np.tile(lattice, (101, 1)))
        assert np.array_equal(np.concatenate([p for _, p in calls]), np.repeat(ps, len(lattice)))

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_refine_reaches_a_dense_scan(self, cls):
        # a user channel takes the NCEBC grid path
        if cls == "NCEBC":
            chan = _amplitude_damping(0.4)
        else:
            chan = _random_two_kraus(2, np.random.default_rng(3))
        rep = classifiers.certify(cls, "user-kraus", 0.0, channel=chan)
        refined = -rep.worst_value
        score = classifiers._entropy_scorer(cls, chan)
        lattice = score(classifiers._schmidt_grid(2, 101))
        q0 = np.linspace(0.0, 1.0, 20001)
        dense = np.concatenate([
            score(np.stack([x, 1.0 - x], axis=1)) for x in np.array_split(q0, 100)
        ])
        assert refined >= lattice.max()
        assert refined >= dense.max() - 1e-12
        assert score(rep.worst_input.q[None])[0] == refined

    def test_user_qubit_peak_between_lattice_points_is_refined(self):
        # the NCEAC peak of this channel lies between lattice points: its
        # worst lattice point alone would leave it undecided, and the refine
        # proves it a non-member
        chan = compose(depolarizing(2, 0.91536), _amplitude_damping(0.1))
        lattice = classifiers._entropy_scorer("NCEAC", chan)(classifiers._schmidt_grid(2, 101))
        q = classifiers._schmidt_grid(2, 101)[np.argmax(lattice)]
        on_lattice = classifiers._report("NCEAC", 0.0, q, float(lattice.max()), 0.0, False)
        assert on_lattice.verdict == "undecided"
        assert classifiers.certify("NCEAC", "user-kraus", 0.0, channel=chan).verdict == "non-member"

    def test_user_qubit_ncebc_peak_off_the_product_inputs_is_refined(self):
        # the NCEBC lattice holds no product input, whose S(A|B) = 0 once
        # bracketed this channel's refine at q0 = 0 and left it undecided;
        # its peak, S(A|B) = -2.03e-7, lies at q0 = 0.5786 (CI sweeps the
        # channel from its committed file)
        chan = compose(depolarizing(2, 0.850275097), _amplitude_damping(0.2))
        stored = read_channel_file(
            Path(__file__).parent / "data" / "depol_0.850275097_after_ampdamp_0.2.chan"
        )
        assert all(np.array_equal(a, b) for a, b in zip(chan.ops, stored.ops))
        rep = classifiers.certify("NCEBC", "user-kraus", 0.0, channel=chan)
        assert rep.verdict == "non-member"
        assert abs(rep.worst_input.q[0] - 0.5786) <= 1e-3
        assert rep.worst_value < -1e-7

    def test_user_qubit_refine_reaches_past_the_lattice_end(self):
        # a NCEBC member scores highest next to the product inputs: from the
        # lattice end q0 = 0.01 the refine brackets down to q0 = 0
        chan = depolarizing(2, 0.5)
        rep = classifiers.certify("NCEBC", "user-kraus", 0.0, channel=chan)
        lattice = classifiers._search_lattice("NCEBC", 2, 101, False)
        assert lattice[0, 0] == 0.01
        assert 0.0 < rep.worst_input.q[0] < 0.01
        assert -rep.worst_value > classifiers._entropy_scorer("NCEBC", chan)(lattice).max()

    def test_search_lattice_is_read_only_and_cached(self):
        lattice = classifiers._search_lattice("NCEBC", 3, 101, True)
        assert classifiers._search_lattice("NCEBC", 3, 101, True) is lattice
        assert not lattice.flags.writeable
        assert (lattice.max(axis=1) < 1.0).all() and (np.diff(lattice, axis=1) >= 0.0).all()
        assert np.array_equal(lattice[-2:], [[0.0, 0.5, 0.5], [1 / 3, 1 / 3, 1 / 3]])

    @pytest.mark.parametrize(
        "family, grid",
        [("qubit-depol", 101), ("qubit-depol", 102), ("qutrit-depol", 101), ("ququart-depol", 101)],
        ids=["qubit-depol-101", "qubit-depol-102", "qutrit-depol-101", "ququart-depol-101"],
    )
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_chamber_decides_as_the_full_lattice(self, cls, family, grid):
        # the depolarizing families score the ascending rows alone: the whole
        # lattice (less its product rows for NCEBC) gives the same verdicts
        # and worst values, and each permutation of q the same scores
        d = classifiers.DEPOLARIZING[family]
        full = classifiers._schmidt_grid(d, grid)
        if cls == "NCEBC":
            full = full[full.max(axis=1) < 1.0]
        ps = np.linspace(0.0, 1.0, 101)
        for p, rep in zip(ps, classifiers.certify_many(cls, family, ps, grid)):
            score = classifiers._entropy_scorer(cls, depolarizing(d, p))
            values = score(full)
            i = np.argmax(values)
            on_full = classifiers._report(cls, p, full[i], float(values[i]), 0.0, True)
            assert rep.verdict == on_full.verdict
            assert abs(rep.worst_value - on_full.worst_value) <= 1e-14
            for perm in itertools.permutations(range(d)):
                assert np.abs(score(full[:, list(perm)]) - values).max() <= 1e-14

    @pytest.mark.parametrize("d", [3, 4])
    def test_even_grid_adds_no_row_above_the_qubit(self, d):
        # why the chamber test takes grid 102 at d = 2 alone: there it adds
        # the row q0 = 1/2, while at d = 3 and 4 it gives the very lattice of
        # grid 101 (m = 13, 107 rows; m = 7, 123 rows)
        assert np.array_equal(classifiers._schmidt_grid(d, 101), classifiers._schmidt_grid(d, 102))
        even = classifiers._schmidt_grid(2, 102)
        assert len(even) == 103 and 0.5 in even[:, 0]

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_depolarizing_qubit_peak_lies_on_every_grid(self, cls):
        # the fact that lets the qubit depolarizing family take its lattice
        # alone: at every p, the worst q0 of a dense scan lies at 0, 1/2 or
        # 1, which every d = 2 grid holds
        corners = np.array([0.0, 0.5, 1.0])
        q0 = np.concatenate([np.linspace(0.0, 1.0, 2001), corners])
        qs = np.stack([q0, 1.0 - q0], axis=1)
        ps = np.linspace(0.0, 1.0, 101)
        scan = np.array([classifiers._entropy_scorer(cls, depolarizing(2, p))(qs) for p in ps])
        peak = scan.max(axis=1)
        assert (peak - scan[:, -3:].max(axis=1)).max() <= 1e-14
        if cls == "NCEAC":
            reports = classifiers.certify_many(cls, "qubit-depol", ps)
            assert all(-rep.worst_value >= top - 1e-14 for rep, top in zip(reports, peak))

    def test_nceac_sweep_golden_inputs_rescore_to_their_values(self):
        for cls in ("NCEAC", "NCEBC"):
            path = Path(__file__).parent / "data" / f"sweep_{cls}_qubit-depol.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 101
            for row in rows:
                q0 = float(row["q0_worst"])
                score = classifiers._entropy_scorer(cls, depolarizing(2, float(row["p"])))
                value = score(np.array([[q0, 1.0 - q0]]))[0]
                # both columns are printed to 12 significant digits
                assert abs(-value - float(row["value"])) <= 1e-12


class TestCertify:
    def test_fac2_member_below_threshold(self):
        rep = classifiers.certify("FAC2", "qubit-depol", 0.5)
        assert rep.verdict == "member"
        assert abs(rep.worst_input.q[0] - 0.5) <= 1e-2
        assert rep.margin > 1e-9
        assert rep.evidence == "exact"

    def test_fbc_non_member_with_violating_input(self):
        rep = classifiers.certify("FBC", "qubit-depol", 0.4)
        assert rep.verdict == "non-member"
        assert abs(rep.worst_input.q[0] - 0.5) <= 1e-2
        # recompute at the reported input: F = (1 + 0.4 + 0.8)/4 = 0.55
        out = apply_one_sided(depolarizing(2, 0.4), schmidt_state(rep.worst_input.q), "B")
        recomputed = fidelity_optimize(out).value
        assert abs(recomputed - 0.55) <= 1e-9
        assert recomputed > 0.5 + 1e-9

    def test_qutrit_ncebc_non_member_at_a_rank_two_input(self):
        # the maximally entangled input still has S(A|B) = +0.011745 here
        rep = classifiers.certify("NCEBC", "qutrit-depol", 0.71)
        assert (rep.verdict, rep.evidence) == ("non-member", "exact")
        assert np.array_equal(rep.worst_input.q, [0.0, 0.5, 0.5])
        assert abs(rep.worst_value + 0.002739017710761793) <= 1e-12

    def test_ncebc_verdict_flips_at_boundary(self):
        assert classifiers.certify("NCEBC", "qubit-depol", 0.747).verdict == "member"
        assert classifiers.certify("NCEBC", "qubit-depol", 0.748).verdict == "non-member"

    def test_nceac_verdicts(self):
        assert classifiers.certify("NCEAC", "qubit-depol", 0.86).verdict == "member"
        assert classifiers.certify("NCEAC", "qubit-depol", 0.87).verdict == "non-member"

    def test_reports_compare_by_value(self):
        rep = classifiers.certify("NCEAC", "qubit-depol", 0.86)
        assert rep == classifiers.certify("NCEAC", "qubit-depol", 0.86)
        assert rep != classifiers.certify("NCEAC", "qubit-depol", 0.87)
        assert rep != classifiers.certify("NCEAC", "qutrit-depol", 0.86)
        with pytest.raises(TypeError):
            hash(rep)

    def test_grid_minimum_enforced(self):
        with pytest.raises(InvalidParameterError):
            classifiers.certify("FAC2", "qubit-depol", 0.5, grid=51)

    def test_grid_maximum_enforced_before_any_work(self, monkeypatch):
        # a missing bound would resolve the family and build a lattice of a
        # million rows; the stand-ins fail at once instead
        def unreached(*args, **kwargs):
            raise AssertionError("work started before the grid was checked")

        monkeypatch.setattr(classifiers, "_resolve_family", unreached)
        monkeypatch.setattr(classifiers, "_schmidt_grid", unreached)
        grid = classifiers.MAX_GRID + 1
        tracemalloc.start()
        try:
            for call in (
                lambda: classifiers.certify("NCEAC", "qubit-depol", 0.5, grid=grid),
                lambda: classifiers.certify_many("FBC", "qutrit-depol", [0.2, 0.4], grid=grid),
                lambda: classifiers.threshold("NCEBC", "qubit-depol", grid=grid),
            ):
                with pytest.raises(InvalidParameterError, match="at most"):
                    call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        classifiers._check_grid(classifiers.MAX_GRID)

    def test_unknown_tags(self):
        with pytest.raises(UnsupportedFamilyError):
            classifiers.certify("XYZ", "qubit-depol", 0.5)
        with pytest.raises(UnsupportedFamilyError):
            classifiers.certify("FBC", "nope", 0.5)
        with pytest.raises(UnsupportedFamilyError):
            classifiers.certify("FBC", "user-kraus", 0.5)
        for family in classifiers.DEPOLARIZING:
            with pytest.raises(UnsupportedFamilyError, match="takes no channel"):
                classifiers.certify("FBC", family, 0.5, channel=depolarizing(2, 0.5))

    def test_user_fbc_channel_is_certified_member(self):
        # the FBC worst case is one eigenvalue for every channel, so a fully
        # depolarizing user channel is certified, not merely sampled
        rep = classifiers.certify(
            "FBC", "user-kraus", 0.0, channel=depolarizing(2, 0.0)
        )
        assert rep.verdict == "member"
        assert rep.evidence == "exact"
        assert abs(rep.worst_value - 0.25) <= 1e-12

    def test_user_fac2_channel_stays_sampled(self):
        # the FAC2 ascent gives a lower bound for user channels: p^2 +
        # (1 - p^2)/9 is reached, but only "undecided" can be reported
        rep = classifiers.certify(
            "FAC2", "user-kraus", 0.0, channel=depolarizing(3, 0.4), restarts=2
        )
        assert rep.verdict == "undecided"
        assert rep.evidence == "sampled"
        assert abs(rep.worst_value - (0.16 + 0.84 / 9)) <= 1e-12

    def test_qutrit_fac2_is_exact(self):
        rep = classifiers.certify("FAC2", "qutrit-depol", 0.4, restarts=1)
        assert (rep.verdict, rep.evidence) == ("member", "exact")
        assert abs(rep.worst_value - (0.16 + 0.84 / 9)) <= 1e-12
        assert np.allclose(rep.worst_input.q, 1.0 / 3.0)

    @pytest.mark.parametrize("d", [2, 3])
    def test_fbc_value_bounds_sampled_inputs(self, d):
        # Choi oracle: lambda_max((I x N^dag)(Phi)) is at least the output
        # fidelity of every pure input
        rng = np.random.default_rng(d)
        for _ in range(3):
            chan = _random_two_kraus(d, rng)
            worst = classifiers.certify("FBC", "user-kraus", 0.0, channel=chan).worst_value
            sampled = 0.0
            for _ in range(200):
                out = apply_one_sided(chan, random_density_matrix(d, d, rank=1, seed=rng), "B")
                sampled = max(sampled, fidelity_optimize(out, restarts=2).value)
            assert sampled <= worst + 1e-9

    @pytest.mark.parametrize("d", [2, 3])
    def test_user_fac2_value_bounds_sampled_inputs(self, d):
        # the ascent on lambda_max((N^dag x N^dag)(Phi_U)) reaches at least
        # the output fidelity of every sampled pure input under N x N
        rng = np.random.default_rng(d)
        for _ in range(3):
            chan = _random_two_kraus(d, rng)
            rep = classifiers.certify("FAC2", "user-kraus", 0.0, channel=chan, restarts=4)
            assert rep.evidence == "sampled"
            sampled = 0.0
            for _ in range(200):
                out = apply_two_local(chan, chan, random_density_matrix(d, d, rank=1, seed=rng))
                sampled = max(sampled, fidelity_optimize(out, restarts=2).value)
            assert sampled <= rep.worst_value + 1e-9

    def test_user_fac2_ascent_passes_alternation_stop(self):
        # the sixth channel of this stream: alternating a converged fidelity
        # optimization with the top eigenvector stopped at 0.609452, while
        # one polar step per eigenvector update climbs to 0.618238
        rng = np.random.default_rng(0)
        chans = [_random_two_kraus(2, rng) for _ in range(4)]
        chans += [_random_two_kraus(3, rng) for _ in range(2)]
        rep = classifiers.certify("FAC2", "user-kraus", 0.0, channel=chans[-1], restarts=4)
        assert (rep.verdict, rep.evidence) == ("non-member", "sampled")
        assert rep.worst_value >= 0.618238 - 1e-9

    @staticmethod
    def _record_ascents(monkeypatch):
        """Calls of the polar ascent that ``certify`` makes: (gram, d,
        restarts, seed, result) each."""
        calls = []
        real = classifiers._maximize_over_unitaries

        def recording(gram, d, restarts, seed):
            out = real(gram, d, restarts, seed)
            calls.append((gram, d, restarts, seed, out))
            return out

        monkeypatch.setattr(classifiers, "_maximize_over_unitaries", recording)
        return calls

    def test_user_fac2_ascent_converges_before_the_cap(self, monkeypatch):
        # the second channel of this stream: plain polar steps crept along a
        # flat ridge until all four restarts stopped at MAX_STEPS, at
        # 0.505124813748; with the extrapolated step they stop on the gain rule
        rng = np.random.default_rng(0)
        chan = [_random_two_kraus(2, rng) for _ in range(2)][1]
        calls = self._record_ascents(monkeypatch)
        rep = classifiers.certify("FAC2", "user-kraus", 0.0, channel=chan, restarts=4)
        ((_, _, _, _, (value, _, steps)),) = calls
        assert steps < 4 * fidelity.MAX_STEPS
        assert value >= 0.505124813807 - 1e-12
        assert rep.worst_value >= 0.505124813807 - 1e-12

    def test_user_fac2_reaches_the_plain_ascent(self, monkeypatch, plain_ascent):
        rng = np.random.default_rng(0)
        chans = [_random_two_kraus(2, rng) for _ in range(4)]
        chans += [_random_two_kraus(3, rng) for _ in range(4)]
        calls = self._record_ascents(monkeypatch)
        for chan in chans:
            classifiers.certify("FAC2", "user-kraus", 0.0, channel=chan, restarts=4)
        assert len(calls) == len(chans)
        for gram, d, restarts, seed, (value, _, _) in calls:
            assert value >= plain_ascent(gram, d, restarts, seed) - 1e-12

    def test_fbc_members_are_convex(self):
        # lambda_max is convex and the Choi map linear, so a mixture of FBC
        # members is a member, with a worst value below the mixed values
        rng = np.random.default_rng(11)
        chans = [convex_mix(0.2, _random_two_kraus(3, rng), depolarizing(3, 0.0))
                 for _ in range(2)]
        reps = [classifiers.certify("FBC", "user-kraus", 0.0, channel=c) for c in chans]
        assert all((r.verdict, r.evidence) == ("member", "exact") for r in reps)
        mix = classifiers.certify(
            "FBC", "user-kraus", 0.0, channel=convex_mix(0.5, *chans)
        )
        assert (mix.verdict, mix.evidence) == ("member", "exact")
        assert mix.worst_value <= 0.5 * (reps[0].worst_value + reps[1].worst_value) + 1e-12

    def test_user_channel_violation_is_conclusive(self):
        rep = classifiers.certify(
            "FAC2", "user-kraus", 0.0, channel=unitary_channel(np.eye(2))
        )
        assert rep.verdict == "non-member"

    def test_unital_user_channel_is_not_a_ncebc_member(self):
        # the d = 3 Werner-Holevo channel mixed with a unitary is unital,
        # yet its own lattice reaches S(A|B) = -0.143: the maximally
        # entangled input (+0.091) is no worst case for a user channel
        ops = []
        for i, j in itertools.combinations(range(3), 2):
            k = np.zeros((3, 3))
            k[i, j], k[j, i] = 1.0, -1.0
            ops.append(k / np.sqrt(2.0))
        z = np.random.default_rng(1).normal(size=(2, 3, 3))
        q, r = np.linalg.qr(z[0] + 1j * z[1])
        u = q * (np.diag(r) / np.abs(np.diag(r)))
        chan = convex_mix(0.6, KrausChannel(3, 3, ops), unitary_channel(u))
        rep = classifiers.certify("NCEBC", "user-kraus", 0.0, channel=chan)
        assert (rep.verdict, rep.evidence) == ("non-member", "sampled")
        assert rep.worst_value < -0.14
        rescored = classifiers._entropy_scorer("NCEBC", chan)(rep.worst_input.q[None])[0]
        assert -rep.worst_value == rescored

    def test_fac2_bound_uses_output_dimension(self):
        # the qubit-to-qutrit isometry keeps the Bell output at F = 2/3 on a
        # 3 x 3 system, so the FAC2 bound is 1/3, not 1/dim_in = 1/2
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        rep = classifiers.certify(
            "FAC2", "user-kraus", 0.0, channel=KrausChannel(2, 3, (v,)), restarts=4
        )
        assert rep.verdict == "non-member"
        assert abs(rep.margin + 1.0 / 3.0) <= 1e-9

    def test_fbc_rejects_non_square_channel(self):
        # the one-sided output of a qubit-to-qutrit channel is a 2 x 3 state
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        with pytest.raises(FidelionError, match="FBC") as info:
            classifiers.certify("FBC", "user-kraus", 0.0, channel=KrausChannel(2, 3, (v,)))
        assert "dim_in=2" in str(info.value) and "dim_out=3" in str(info.value)

    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_channel_outside_two_to_four_dimensions_is_rejected(self, cls):
        # a 1-dim channel sent the Schmidt lattice into an endless loop, and
        # a large one the scorer into a 16 d^6-byte allocation
        u5, _ = np.linalg.qr(np.random.default_rng(0).normal(size=(5, 5)))
        for chan in (KrausChannel(1, 1, ([[1]],)), unitary_channel(u5)):
            with pytest.raises(UnsupportedDimensionError, match="2 <= dim_in, dim_out <= 4"):
                classifiers.certify(cls, "user-kraus", 0.0, channel=chan, restarts=1)

    @pytest.mark.parametrize("cls", ["NCEAC", "FAC2"])
    def test_ququart_channel_gets_ququart_inputs(self, cls):
        rep = classifiers.certify(
            cls, "user-kraus", 0.0, channel=depolarizing(4, 0.2), restarts=1
        )
        assert rep.worst_input.q.shape == (4,)
        assert rep.evidence == "sampled"

    def test_schmidt_grid_is_a_simplex_lattice(self):
        # d = 3 keeps its m = 13 lattice in (i, j) order; d = 4 takes m = 7;
        # both end with the uniform vectors on the last k parts, k = 2 .. d,
        # which neither lattice contains
        q3 = classifiers._schmidt_grid(3, 101)
        expected = [np.array([i, j, 13 - i - j]) / 13 for i in range(14) for j in range(14 - i)]
        expected += [np.array([0.0, 0.5, 0.5]), np.full(3, 1.0 / 3.0)]
        assert len(q3) == len(expected) == 107
        assert all(np.array_equal(a, b) for a, b in zip(q3, expected))
        q4 = np.array(classifiers._schmidt_grid(4, 101))
        assert q4.shape == (123, 4)
        assert np.array_equal(q4[-3:], [[0, 0, 0.5, 0.5], [0, *[1 / 3] * 3], [0.25] * 4])
        assert np.allclose(q4.sum(axis=1), 1.0) and q4.min() >= 0.0
        assert len({tuple(np.round(q * 7).astype(int)) for q in q4[:-3]}) == 120
        # reference: every point of the (m + 1)^(d - 1) box whose first d - 1
        # parts sum to at most m, in itertools.product order, then the rank-k
        # uniform vectors
        for d, grid in itertools.product((3, 4, 5), (101, 1000, 5000)):
            m = 3
            while math.comb(m + d - 1, d - 1) <= grid:
                m += 1
            expected = np.array([
                np.array([*n, m - sum(n)], dtype=float) / m
                for n in itertools.product(range(m + 1), repeat=d - 1)
                if sum(n) <= m
            ] + [np.array([0.0] * (d - k) + [1.0 / k] * k) for k in range(2, d + 1)])
            qs = classifiers._schmidt_grid(d, grid)
            assert len(qs) == math.comb(m + d - 1, d - 1) + d - 1
            assert qs.shape == expected.shape and qs.tobytes() == expected.tobytes()

    def test_qubit_grid_holds_the_maximally_entangled_input(self):
        # an even grid gains the row q0 = 1/2; an odd grid holds it already
        for grid in (101, 102, 1000):
            qs = classifiers._schmidt_grid(2, grid)
            assert (qs == 0.5).all(axis=1).any()
        for grid in (101, 201, 1001):
            q0 = np.linspace(0.0, 1.0, grid)
            expected = np.stack([q0, 1.0 - q0], axis=1)
            assert classifiers._schmidt_grid(2, grid).tobytes() == expected.tobytes()

    def test_schmidt_grid_stays_small_at_a_large_grid(self):
        # 400 067 rows of 3 floats are 9.6 MB; the build must not hold the
        # (m + 1)^2 box or one array per point
        tracemalloc.start()
        try:
            qs = classifiers._schmidt_grid(3, 400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qs.shape == (400_067, 3)
        assert peak < 40e6

    def test_verdict_stable_under_grid_refinement(self):
        for p in (0.4, 0.57, 0.6):
            v101 = classifiers.certify("FAC2", "qubit-depol", p, grid=101).verdict
            v401 = classifiers.certify("FAC2", "qubit-depol", p, grid=401).verdict
            assert v101 == v401

    def test_worst_case_monotone_in_p(self):
        fac2 = [classifiers.certify("FAC2", "qubit-depol", p).worst_value
                for p in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(fac2, fac2[1:]))
        ncea = [-classifiers.certify("NCEAC", "qubit-depol", p).worst_value
                for p in np.linspace(0, 1, 11)]
        assert all(b >= a - 1e-12 for a, b in zip(ncea, ncea[1:]))


def _fields(rep):
    """Every field of a report, the floats as their bytes, so that equal
    fields are bitwise equal (-0.0 and 0.0 differ here)."""
    return (
        rep.cls, rep.p, rep.verdict, rep.evidence, rep.worst_input.q.tobytes(),
        np.float64(rep.worst_value).tobytes(), np.float64(rep.margin).tobytes(),
    )


class TestCertifyMany:
    @pytest.mark.parametrize("n", [1, 21, 101])
    @pytest.mark.parametrize("family", classifiers.DEPOLARIZING)
    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_each_report_equals_certify_alone(self, cls, family, n):
        # p = 1 alone, then grids from p = 0 to p = 1, whose outputs at p = 1
        # take the clip path of the validation; the lattices of 21 or 101 p
        # run over BLOCK rows, so some stacks hold the rows of two p
        ps = [1.0] if n == 1 else np.linspace(0.0, 1.0, n).tolist()
        d = classifiers.DEPOLARIZING[family]
        sizes = [len(classifiers._search_lattice(c, d, 101, True)) for c in ("NCEBC", "NCEAC")]
        assert n == 1 or all(n * k > theorems.BLOCK and theorems.BLOCK % k for k in sizes)
        reports = classifiers.certify_many(cls, family, ps)
        assert len(reports) == n
        for p, rep in zip(ps, reports):
            assert _fields(rep) == _fields(classifiers.certify(cls, family, p))

    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_user_channel_at_several_p(self, cls):
        # a user channel ignores p; every report is the one certify gives
        chan = _random_two_kraus(2, np.random.default_rng(5))
        ps = [0.0, 0.25, 0.5]
        reports = classifiers.certify_many(cls, "user-kraus", ps, channel=chan, restarts=2)
        for p, rep in zip(ps, reports):
            alone = classifiers.certify(cls, "user-kraus", p, channel=chan, restarts=2)
            assert _fields(rep) == _fields(alone)

    @pytest.mark.parametrize("cls", ["FAC2", "NCEAC"])
    def test_user_channel_is_certified_once(self, cls, monkeypatch):
        # the family ignores p, so five p cost one certification: one ascent
        # for FAC2, one scorer for NCEAC
        ascents, scorers = [], []
        real_ascent, real_scorer = classifiers._maximize_over_unitaries, classifiers._entropy_scorer

        def ascent(*args):
            ascents.append(1)
            return real_ascent(*args)

        def scorer(cls, chan):
            scorers.append(chan)
            return real_scorer(cls, chan)

        monkeypatch.setattr(classifiers, "_maximize_over_unitaries", ascent)
        monkeypatch.setattr(classifiers, "_entropy_scorer", scorer)
        chan = _random_two_kraus(3, np.random.default_rng(6))
        ps = np.linspace(0.0, 1.0, 5).tolist()
        reports = classifiers.certify_many(cls, "user-kraus", ps, channel=chan, restarts=2)
        assert (len(ascents), len(scorers)) == ((1, 0) if cls == "FAC2" else (0, 1))
        assert all(scored is chan for scored in scorers)
        assert [rep.p for rep in reports] == ps
        assert len({_fields(replace(rep, p=0.0)) for rep in reports}) == 1

    def test_p_beyond_a_block_take_one_scan(self, monkeypatch):
        # more than BLOCK values of p go to one worst-case scan, and the
        # family builds no channel for any of them
        built = []
        family_worst = classifiers._family_worst

        def recorded(cls, d, ps, grid):
            built.append(len(ps))
            return family_worst(cls, d, ps, grid)

        def no_channel(self):
            raise AssertionError("a KrausChannel was built")

        monkeypatch.setattr(classifiers, "_family_worst", recorded)
        monkeypatch.setattr(KrausChannel, "__post_init__", no_channel)
        ps = np.linspace(0.0, 1.0, 2 * theorems.BLOCK + 88).tolist()
        reports = classifiers.certify_many("NCEBC", "qutrit-depol", ps)
        assert built == [len(ps)]
        assert [rep.p for rep in reports] == ps
        for i in range(0, len(ps), 37):
            alone = classifiers.certify("NCEBC", "qutrit-depol", ps[i])
            assert _fields(reports[i]) == _fields(alone)

    def test_memory_is_flat_in_the_number_of_p(self):
        # at grid 5001 the qubit lattice has k = 2501 > BLOCK rows, so the
        # scores of each p span several stacks; the scan holds those of one
        # lattice and one stack, whatever the number of p
        classifiers.certify("NCEAC", "qubit-depol", 0.5, grid=5001)  # caches built
        peaks = []
        for ps in ([0.5], np.linspace(0.0, 1.0, 64).tolist()):
            tracemalloc.start()
            try:
                classifiers.certify_many("NCEAC", "qubit-depol", ps, grid=5001)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 100e3

    def test_no_p_gives_no_report(self):
        assert classifiers.certify_many("NCEAC", "qubit-depol", []) == []
        chan = depolarizing(2, 0.5)
        assert classifiers.certify_many("NCEAC", "user-kraus", [], channel=chan) == []
        # no p still takes every argument check, with the error of one p
        v = np.zeros((3, 2))
        v[0, 0] = v[1, 1] = 1.0
        for cls, chan, error in (
            ("NCEAC", KrausChannel(1, 1, ([[1]],)), UnsupportedDimensionError),
            ("FBC", KrausChannel(2, 3, (v,)), DimensionMismatchError),
        ):
            for ps in ([], [0.0]):
                with pytest.raises(error):
                    classifiers.certify_many(cls, "user-kraus", ps, channel=chan)

    @pytest.mark.parametrize("family", classifiers.FAMILIES)
    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_restarts_are_range_checked_for_every_class_and_family(self, cls, family):
        # as the CLI checks --restarts on every sweep, although only the user
        # FAC2 ascent uses it
        chan = depolarizing(2, 0.5) if family == "user-kraus" else None
        for restarts in (0, -1, fidelity.MAX_RESTARTS + 1):
            for ps in ([], [0.4]):
                with pytest.raises(InvalidParameterError, match="restarts must be at"):
                    classifiers.certify_many(cls, family, ps, channel=chan, restarts=restarts)
        rep = classifiers.certify(cls, family, 0.4, channel=chan, restarts=1)
        assert rep.verdict in classifiers._RANKS

    def test_bad_p_raises_for_the_stack(self, capsys):
        # one bad p fails the whole stack with the error that building its
        # channel gives, although the family builds none; the CLI rejects
        # such a p as an input error
        cases = itertools.product(
            classifiers.CLASSES, classifiers.DEPOLARIZING.items(), (np.nan, -0.1, 1.1, 1.5)
        )
        for cls, (family, d), bad in cases:
            with pytest.raises(InvalidParameterError) as built:
                depolarizing(d, bad)
            with pytest.raises(InvalidParameterError, match=re.escape(str(built.value))):
                classifiers.certify_many(cls, family, [0.5, bad])
            flag = "--p-max" if bad > 1.0 else "--p-min"
            argv = ["sweep", "--class", cls, "--family", family, flag, str(bad)]
            assert cli.main(argv) == 2
            assert capsys.readouterr().err.startswith("error: ")


THRESHOLDS = [
    ("qubit-depol", "FAC2", 0.57735),
    ("qubit-depol", "FBC", 0.33333),
    ("qubit-depol", "NCEAC", 0.86465),
    ("qubit-depol", "NCEBC", 0.747614),
    # 1/(d+1), 1/sqrt(d+1), and the roots of S(A|B) = 0 at the worst
    # input: Schmidt rank d for NCEAC, rank 2 for NCEBC
    ("qutrit-depol", "FBC", 0.25),
    ("qutrit-depol", "FAC2", 0.5),
    ("qutrit-depol", "NCEAC", 0.844342),
    ("qutrit-depol", "NCEBC", 0.708933),
    ("ququart-depol", "FBC", 0.2),
    ("ququart-depol", "FAC2", 0.447214),
    ("ququart-depol", "NCEBC", 0.682931),
    ("ququart-depol", "NCEAC", 0.831276),
]


class TestThreshold:
    @pytest.mark.parametrize(
        "family,cls,expected",
        THRESHOLDS,
        # the qubit cases keep their ids from before the family argument
        ids=[f"{c}-{e}" if f == "qubit-depol" else f"{f}-{c}-{e}" for f, c, e in THRESHOLDS],
    )
    def test_depolarizing_thresholds(self, family, cls, expected):
        res = classifiers.threshold(cls, family)
        assert res.bracket[1] - res.bracket[0] <= 1e-5
        assert abs(res.p_star - expected) <= 1e-4
        lo_rep = classifiers.certify(cls, family, res.bracket[0])
        hi_rep = classifiers.certify(cls, family, res.bracket[1])
        assert lo_rep.margin > 0 >= hi_rep.margin

    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_even_grid_gives_the_odd_grid_threshold(self, cls):
        # without its added q0 = 1/2 row, the NCEAC grid of 102 points would
        # move the bracket one bisection step
        at_even = classifiers.threshold(cls, "qubit-depol", grid=102)
        assert at_even == classifiers.threshold(cls, "qubit-depol", grid=101)


class TestThresholdVerdictExit:
    def test_nceac_qubit_threshold_runs_no_complex_eigensolve(self, monkeypatch):
        solves = []
        for name in ("eigvalsh", "eigh"):
            solve = getattr(np.linalg, name)

            def recorded(m, *args, _solve=solve, **kwargs):
                solves.append(m.dtype.name)
                return _solve(m, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        classifiers.threshold("NCEAC", "qubit-depol")
        assert solves and set(solves) == {"float64"}


def _stub_verdicts(monkeypatch, verdict):
    """Stand-in for ``_family_worst`` behind ``threshold``: each p gets a
    worst value 1 below the class bound, on it or 1 above, which the shared
    rule ``_rank`` reads as the verdict ``verdict(p)``."""
    offsets = {"member": -1.0, "undecided": 0.0, "non-member": 1.0}

    def family_worst(cls, d, ps, grid):
        bound = classifiers._family_bound(cls, d)
        values = np.array([bound + offsets[verdict(p)] for p in ps])
        return values, np.full((len(ps), d), 1.0 / d)

    monkeypatch.setattr(classifiers, "_family_worst", family_worst)


def _banded(width):
    """Verdicts member below p = 0.5, undecided on [0.5, 0.5 + width] and
    non-member above."""
    def verdict(p):
        if p < 0.5:
            return "member"
        return "undecided" if p <= 0.5 + width else "non-member"

    return verdict


def _flip_at(p_flip, exceptions=None):
    """Verdicts member below ``p_flip`` and non-member above, but for the
    coarse p in ``exceptions``."""
    exceptions = exceptions or {}

    def verdict(p):
        return exceptions.get(round(p, 12), "member" if p < p_flip else "non-member")

    return verdict


class TestThresholdOnVerdicts:
    def test_wide_undecided_band_raises(self, monkeypatch):
        _stub_verdicts(monkeypatch, _banded(1e-4))
        with pytest.raises(NonMonotoneError, match="undecided"):
            classifiers.threshold("NCEAC", "qubit-depol")

    def test_narrow_undecided_band_closes_inside_tolerance(self, monkeypatch):
        # the bracket ends at the first p that is not a member (0.5, on the
        # coarse grid); the first non-member is then found within the width
        _stub_verdicts(monkeypatch, _banded(2e-6))
        res = classifiers.threshold("NCEAC", "qubit-depol")
        assert res.bracket[1] == 0.5
        assert 0.5 - classifiers.THRESHOLD_TOL <= res.bracket[0] < 0.5

    @pytest.mark.parametrize("verdicts", [
        {0.3: "non-member"},  # member, non-member, member, non-member
        {0.0: "undecided"},  # the scan starts short of a member
    ])
    def test_non_monotone_verdicts_raise(self, verdicts, monkeypatch):
        _stub_verdicts(monkeypatch, _flip_at(0.5, verdicts))
        with pytest.raises(NonMonotoneError):
            classifiers.threshold("FBC", "qubit-depol")

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_qubit_entropy_threshold_certifies_each_p_once_on_the_lattice(
        self, cls, monkeypatch
    ):
        certified, family_worst = [], classifiers._family_worst

        def recorded(cls, d, ps, grid):
            certified.extend(ps)
            return family_worst(cls, d, ps, grid)

        def refine(*args):
            raise AssertionError("a depolarizing search refined")

        monkeypatch.setattr(classifiers, "_family_worst", recorded)
        monkeypatch.setattr(classifiers, "_refine_qubit", refine)
        res = classifiers.threshold(cls, "qubit-depol")
        assert len(certified) == len(set(certified)) == classifiers.COARSE_POINTS + res.iterations

    @pytest.mark.parametrize(
        "family,cls", [(f, c) for f, c, _ in THRESHOLDS], ids=[f"{f}-{c}" for f, c, _ in THRESHOLDS]
    )
    def test_each_verdict_is_the_one_certify_many_reports(self, family, cls, monkeypatch):
        # threshold reads its verdicts off the worst values with the rule that
        # certify_many's reports take: every p it scores gets the rank that
        # certify_many gives that p alone, and no p is scored twice. Past the
        # coarse scan each p is one midpoint, and ``iterations`` counts them
        # all, also the steps that find the first non-member when a coarse p
        # on the boundary is undecided (qutrit FBC 1/4 and FAC2 1/2, ququart
        # FBC 1/5)
        visited, ranks = [], []
        family_worst, rank = classifiers._family_worst, classifiers._rank

        def recorded_worst(cls, d, ps, grid):
            visited.extend(ps)
            return family_worst(cls, d, ps, grid)

        def recorded_rank(*args):
            ranks.append(rank(*args))
            return ranks[-1]

        monkeypatch.setattr(classifiers, "_family_worst", recorded_worst)
        monkeypatch.setattr(classifiers, "_rank", recorded_rank)
        res = classifiers.threshold(cls, family)
        monkeypatch.undo()
        assert len(ranks) == len(visited) == len(set(visited))
        extra = len(visited) - classifiers.COARSE_POINTS - res.iterations
        assert extra == 0
        for p, got in zip(visited, ranks):
            (report,) = classifiers.certify_many(cls, family, [p])
            assert classifiers._RANKS[got] == report.verdict

    def test_thresholds_build_no_report(self, monkeypatch, tmp_path):
        # the 12 thresholds keep their golden bytes with no report and no
        # Schmidt state built, and take the argument checks once, on no p
        checks, certify_many = [], classifiers.certify_many

        def checked(*args, **kwargs):
            checks.append(args)
            return certify_many(*args, **kwargs)

        def unreached(*args, **kwargs):
            raise AssertionError("threshold built a report")

        monkeypatch.setattr(classifiers, "certify_many", checked)
        monkeypatch.setattr(classifiers, "_report", unreached)
        monkeypatch.setattr(classifiers, "SchmidtPureState", unreached)
        data = Path(__file__).parent / "data"
        for family, cls, _ in THRESHOLDS:
            out = tmp_path / f"threshold_{cls}_{family}.csv"
            argv = ["threshold", "--class", cls, "--family", family, "--out", str(out)]
            assert cli.main(argv) == 0
            assert out.read_bytes() == (data / out.name).read_bytes()
        assert checks == [(cls, family, [], 101) for family, cls, _ in THRESHOLDS]


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




class TestNceaClosedForm:
    def test_fully_depolarizing(self):
        assert np.isclose(ncea_conditional_entropy_closed_form(0.0, 0.5), 1.0)

    def test_matches_direct_computation_on_grid(self):
        max_dev = 0.0
        for p in np.linspace(0, 1, 11):
            chan = depolarizing(2, p)
            for q0 in np.linspace(0, 1, 11):
                out = apply_two_local(chan, chan, schmidt_state([q0, 1 - q0]))
                direct = conditional_von_neumann(out)
                closed = ncea_conditional_entropy_closed_form(p, q0)
                max_dev = max(max_dev, abs(direct - closed))
        assert max_dev <= 1e-13

    def test_minimum_near_zero_at_threshold(self):
        res = minimize_scalar(
            lambda q0: ncea_conditional_entropy_closed_form(0.86465, q0),
            bounds=(0.0, 1.0),
            method="bounded",
        )
        assert abs(res.fun) <= 1e-4
        assert abs(res.x - 0.5) <= 1e-3


class TestNcebcClosedForm:
    def test_fully_depolarizing(self):
        assert np.isclose(
            ncebc_conditional_entropy_closed_form(0.0, np.pi / 4), 1.0
        )

    def test_bell_output_at_p_one(self):
        assert np.isclose(
            ncebc_conditional_entropy_closed_form(1.0, np.pi / 4), -1.0
        )

    def test_value_near_zero_at_threshold(self):
        val = ncebc_conditional_entropy_closed_form(0.747614, np.pi / 4)
        assert abs(val) <= 1e-3

    def test_matches_direct_computation(self):
        max_dev = 0.0
        for p in np.linspace(0, 1, 9):
            chan = depolarizing(2, p)
            for alpha in np.linspace(0.05, np.pi - 0.05, 9):
                ket = np.zeros(4, dtype=complex)
                ket[0], ket[3] = np.cos(alpha), np.sin(alpha)
                from fidelion.states import DensityMatrix

                rho = DensityMatrix((2, 2), np.outer(ket, ket.conj()))
                direct = conditional_von_neumann(apply_one_sided(chan, rho, "B"))
                closed = ncebc_conditional_entropy_closed_form(p, alpha)
                max_dev = max(max_dev, abs(direct - closed))
        assert max_dev <= 1e-13

    def test_maximally_entangled_input_is_worst(self):
        # at d = 2 (and not at d = 3) the worst NCEBC input is maximally
        # entangled: over a scan of alpha in [0, pi] the conditional entropy
        # is least at pi/4 and 3pi/4 (indices 25 and 75) once it can go
        # negative, from the threshold p* = 0.747614 up
        alphas = np.linspace(0.0, np.pi, 101)

        def scan(p, grid=alphas):
            return np.array([ncebc_conditional_entropy_closed_form(p, a) for a in grid])

        for p in (0.747614, 0.75, 0.8, 0.9, 1.0):
            assert np.argmin(scan(p)) in (25, 75)
        # below the threshold no input goes negative: the minimum is the
        # product inputs' 0 (alpha = 0, pi/2, pi)
        vals = scan(0.7)
        assert vals.min() >= -1e-12
        assert np.argmin(vals) in (0, 50, 100)
        # at p* no input of a fine scan scores below the maximally entangled one
        p_star = 0.747614
        bell = ncebc_conditional_entropy_closed_form(p_star, np.pi / 4)
        assert scan(p_star, np.linspace(0.0, np.pi, 721)).min() >= bell - 1e-12


def _entropy(w):
    """Shannon entropy in bits of the nonzero entries of ``w``."""
    w = np.asarray(w, dtype=float)
    w = w[w > 0.0]
    return float(-np.sum(w * np.log2(w)))


def _rank_k(d, k):
    """The Schmidt vector uniform on the last k of d parts."""
    return np.array([0.0] * (d - k) + [1.0 / k] * k)


def _rank_k_conditional_entropy(cls, d, k, p):
    """S(A|B) of the depolarizing output on the rank-k input, from its
    spectra. NCEBC: p + (1-p)/(dk) once and (1-p)/(dk) kd - 1 times; the B
    marginal p/k + (1-p)/d k times and (1-p)/d d - k times. NCEAC: with a
    the input's marginal, the output is p(1-p)(a_i + a_j)/d + (1-p)^2/d^2
    at |ij> plus p^2/k times the all-ones block on span{|ii> : a_i > 0},
    which adds p^2 to one eigenvalue of that block; the B marginal is
    p a + (1-p)/d."""
    if cls == "NCEBC":
        joint = [p + (1 - p) / (d * k)] + [(1 - p) / (d * k)] * (k * d - 1)
        marginal = [p / k + (1 - p) / d] * k + [(1 - p) / d] * (d - k)
    else:
        a = _rank_k(d, k)
        joint = (p * (1 - p) * (a[:, None] + a[None, :]) / d + (1 - p) ** 2 / d**2).ravel()
        joint[-1] += p**2
        marginal = p * a + (1 - p) / d
    return _entropy(joint) - _entropy(marginal)


#: family, class, Schmidt rank of the worst input, root of its S(A|B)
ENTROPY_ROOTS = [
    ("qubit-depol", "NCEBC", 2, 0.747614),
    ("qubit-depol", "NCEAC", 2, 0.864647),
    ("qutrit-depol", "NCEBC", 2, 0.708933),
    ("qutrit-depol", "NCEAC", 3, 0.844342),
    ("ququart-depol", "NCEBC", 2, 0.682931),
    ("ququart-depol", "NCEAC", 4, 0.831276),
]


class TestRankKClosedForms:
    @pytest.mark.parametrize("d", [2, 3, 4])
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_spectra_match_the_scorer(self, cls, d):
        qs = np.array([_rank_k(d, k) for k in range(2, d + 1)])
        ps = np.linspace(0.0, 1.0, 11)
        kernel = classifiers._depolarizing_scorer(cls, qs)
        for p in ps:
            expected = [_rank_k_conditional_entropy(cls, d, k, p) for k in range(2, d + 1)]
            oracle = classifiers._entropy_scorer(cls, depolarizing(d, p))
            assert np.abs(-oracle(qs) - expected).max() <= 1e-13
            assert np.abs(-kernel(p) - expected).max() <= 1e-13

    @pytest.mark.parametrize("family, cls, k, expected", ENTROPY_ROOTS)
    def test_threshold_bracket_holds_the_closed_form_root(self, family, cls, k, expected):
        d = classifiers.DEPOLARIZING[family]

        def f(p, k=k):
            return _rank_k_conditional_entropy(cls, d, k, p)

        root = brentq(f, 0.5, 0.99, xtol=1e-15)
        assert abs(root - expected) <= 5e-7
        # every other rank is still positive there: this is the class boundary
        assert all(f(root, j) > 0.0 for j in range(2, d + 1) if j != k)
        # the low end is a member, S(A|B) >= BOUNDARY_TOL; the high end is the
        # first p that is not, which an undecided band may leave short of
        # the root by the p that moves S(A|B) by BOUNDARY_TOL
        slope = abs(f(root + 1e-6) - f(root - 1e-6)) / 2e-6
        lo, hi = classifiers.threshold(cls, family).bracket
        assert lo < root <= hi + BOUNDARY_TOL / slope

    def test_qubit_ncebc_bracket_holds_the_hashing_bound_zero(self):
        # -S(A|B) of (I (x) N)(psi) is the coherent information of N, which at
        # the maximally entangled input is the hashing bound
        def hashing(p):
            e = 3 * (1 - p) / 4
            return 1 - _entropy([1 - e, e / 3, e / 3, e / 3])

        root = brentq(hashing, 0.5, 0.99, xtol=1e-15)
        assert abs(root - 0.7476138) <= 1e-7
        lo, hi = classifiers.threshold("NCEBC", "qubit-depol").bracket
        assert lo < root < hi


class TestPropertySuite:
    def test_all_closure_checks_pass(self):
        checks = classifiers.property_suite()
        names = {c.name for c in checks}
        assert names == {
            "compose-fbc",
            "convex-mix-fbc",
            "post-compose-fbc",
            "pure-to-mixed-fac2",
        }
        for check in checks:
            assert check.passed, f"{check.name}: worst={check.worst_value}"
            assert check.worst_value <= check.bound + 1e-9

    def test_fbc_checks_match_the_choi_oracle(self):
        # (I (x) N^dag)(Phi) = sum_k (I (x) K_k^dag) Phi (I (x) K_k), built with
        # np.kron; its top eigenvalue is the worst output fidelity over pure inputs
        phi = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2

        def oracle(chan):
            adjoint = sum(
                np.kron(np.eye(2), k.conj().T) @ phi @ np.kron(np.eye(2), k) for k in chan.ops
            )
            return np.linalg.eigvalsh(adjoint)[-1]

        u = np.array([[1.0, 1.0j], [1.0j, 1.0]]) / np.sqrt(2.0)  # the suite's fixed unitary
        composite = compose(depolarizing(2, 0.3), depolarizing(2, 0.3))
        post = compose(depolarizing(2, 0.3), unitary_channel(u))
        members = {
            "compose-fbc": composite,
            "post-compose-fbc": post,
            "convex-mix-fbc": convex_mix(0.5, composite, post),
        }
        worst = {c.name: c.worst_value for c in classifiers.property_suite()}
        for name, chan in members.items():
            assert abs(worst[name] - oracle(chan)) <= 1e-12, name
        mean = (worst["compose-fbc"] + worst["post-compose-fbc"]) / 2
        assert worst["convex-mix-fbc"] <= mean + 1e-12

    def test_pure_to_mixed_is_the_two_local_closed_form(self):
        (check,) = [c for c in classifiers.property_suite() if c.name == "pure-to-mixed-fac2"]
        assert abs(check.worst_value - depol_2local_fidelity(0.55, 0.5)) <= 1e-12

    def test_draws_no_random_state(self, monkeypatch):
        def no_rng(*args, **kwargs):
            raise AssertionError("property_suite drew from a random generator")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        assert all(c.passed for c in classifiers.property_suite())
