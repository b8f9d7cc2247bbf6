import csv
import functools
import itertools
import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from fidelion import classifiers, fidelity, theorems
from fidelion.channels import (
    KrausChannel,
    _act_on_factor,
    apply_one_sided,
    apply_two_local,
    compose,
    convex_mix,
    depol_2local_fidelity,
    depolarizing,
    unitary_channel,
)
from fidelion.entropy import conditional_von_neumann
from fidelion.errors import (
    FidelionError,
    InvalidParameterError,
    NonMonotoneError,
    UnsupportedDimensionError,
    UnsupportedFamilyError,
)
from fidelion.fidelity import fidelity_optimize, fidelity_two_qubit
from fidelion.states import (
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


def _scorer(cls, *chans):
    """The entropy scorer of the channels ``chans``."""
    return classifiers._entropy_scorer(cls, *(classifiers._basis_images(cls, c) for c in chans))


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
            scores = _scorer(cls, chan)(qs)
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
            score = _scorer(cls, chan)
            stacked = score(qs)
            assert np.array_equal(stacked, [score(q[None])[0] for q in qs])
            assert np.array_equal(stacked[7:19], score(qs[7:19]))

    def test_non_unital_channel_takes_the_grid(self):
        # a user channel such as amplitude damping takes the NCEBC grid, whose
        # scores must equal the exact-projector route too
        chan = _amplitude_damping(0.4)
        qs = classifiers._schmidt_grid(2, 101)
        scores = _scorer("NCEBC", chan)(qs)
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
        score = _scorer(cls, chan)
        monkeypatch.setattr(classifiers, "_validate", recorded_validate)
        score(qs)
        assert dtypes == [dtype]

    def test_rank_two_qutrit_input_against_plain_numpy(self):
        # p psi + (1 - p) rho_A (x) I/3 for the NCEBC output of depol(3, 0.71):
        # the rank-2 input has S(A|B) < 0, the uniform input S(A|B) > 0
        p = 0.71
        score = _scorer("NCEBC", depolarizing(3, p))

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
        score = _scorer("NCEAC", depolarizing(2, 0.5))
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
        "cls, family, p, chan",
        [
            ("NCEAC", "qubit-depol", 0.8, None),
            ("NCEBC", "user-kraus", 0.0, _amplitude_damping(0.4)),
        ],
        ids=["NCEAC-qubit-depol", "NCEBC-amplitude-damping"],
    )
    def test_no_input_projector_is_validated(self, cls, family, p, chan, monkeypatch):
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
        classifiers.certify(cls, family, p, channel=chan)
        assert len(validated) == len(checked) > 1
        for q, m in zip(checked, validated):
            assert not np.array_equal(m, _schmidt_projectors(q))


class TestSchmidtSearch:
    @staticmethod
    def _record(monkeypatch):
        """Record the rows and the scores of every stack that a scorer of
        ``_entropy_scorer`` scores."""
        calls = []
        scorer = classifiers._entropy_scorer

        def recorded(cls, *chans):
            score = scorer(cls, *chans)

            # wraps keeps the scorer's dims, which the qubit refine reads
            @functools.wraps(score)
            def scored(qs, at=0):
                values = score(qs, at)
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
        single = _scorer("NCEAC", chan)(lattice)
        assert np.array_equal(np.concatenate([v for _, v in blocks]), single)

    @pytest.mark.parametrize("family", ["qubit-depol", "qutrit-depol"])
    def test_many_p_are_scored_in_blocks(self, family, monkeypatch):
        # the lattices of all p form one run of rows, cut into stacks of at
        # most BLOCK rows whatever the number of p
        calls = self._record(monkeypatch)
        ps = np.linspace(0.0, 1.0, 101)
        classifiers.certify_many("NCEAC", family, ps)
        assert max(len(qs) for qs, _ in calls) <= theorems.BLOCK
        lattice = classifiers._schmidt_grid(classifiers.DEPOLARIZING[family], 101)
        blocks = calls[: -(-len(ps) * len(lattice) // theorems.BLOCK)]
        assert np.array_equal(np.concatenate([qs for qs, _ in blocks]), np.tile(lattice, (101, 1)))

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_refine_reaches_a_dense_scan(self, cls):
        # a user channel takes the NCEBC grid path
        if cls == "NCEBC":
            chan = _amplitude_damping(0.4)
        else:
            chan = _random_two_kraus(2, np.random.default_rng(3))
        rep = classifiers.certify(cls, "user-kraus", 0.0, channel=chan)
        refined = -rep.worst_value
        score = _scorer(cls, chan)
        lattice = score(classifiers._schmidt_grid(2, 101))
        q0 = np.linspace(0.0, 1.0, 20001)
        dense = np.concatenate([
            score(np.stack([x, 1.0 - x], axis=1)) for x in np.array_split(q0, 100)
        ])
        assert refined >= lattice.max()
        assert refined >= dense.max() - 1e-12
        assert score(rep.worst_input.q[None])[0] == refined

    def test_refine_bracket_at_stop_scores_no_row(self):
        # brackets 0 and 1 start at and above stop; bracket 2 (a member, whose
        # scores stay below 0) refines until the continuity bound settles it
        score = _scorer(
            "NCEAC", *(depolarizing(2, p) for p in (0.9, 0.88, 0.8))
        )
        scored = []

        @functools.wraps(score)
        def recorded(qs, at=0):
            scored.append(np.broadcast_to(at, len(qs)).copy())
            return score(qs, at)

        lo, hi = np.array([0.4, 0.4, 0.4]), np.array([0.6, 0.6, 0.6])
        q = np.array([[0.5, 0.5]] * 3)
        value = np.array([0.0, 0.5, -0.5])
        got_q, got_value = classifiers._refine_qubit(recorded, lo, hi, q, value, stop=0.0)
        assert scored and all((at == 2).all() for at in scored)
        assert np.array_equal(got_q[:2], q[:2]) and np.array_equal(got_value[:2], value[:2])
        rows = sum(map(len, scored))
        scored.clear()
        full_q, full_value = classifiers._refine_qubit(recorded, lo, hi, q, value)
        assert rows < sum(map(len, scored))
        verdicts = [
            classifiers._report("NCEAC", 0.8, x[2], float(v[2]), 0.0, True).verdict
            for x, v in ((got_q, got_value), (full_q, full_value))
        ]
        assert verdicts == ["member", "member"]
        # every point the full refine scores lies in the starting bracket
        bound = classifiers._settle_bound(lo[2:], hi[2:], got_q[2:], score.dims[0])[0]
        assert full_value[2] <= got_value[2] + bound
        scored.clear()
        classifiers._refine_qubit(recorded, lo, hi, q, value, stop=-0.5)
        assert scored == []

    def test_nceac_sweep_golden_inputs_rescore_to_their_values(self):
        for cls in ("NCEAC", "NCEBC"):
            path = Path(__file__).parent / "data" / f"sweep_{cls}_qubit-depol.csv"
            with open(path, newline="") as fh:
                rows = list(csv.DictReader(fh))
            assert len(rows) == 101
            for row in rows:
                q0 = float(row["q0_worst"])
                score = _scorer(cls, depolarizing(2, float(row["p"])))
                value = score(np.array([[q0, 1.0 - q0]]))[0]
                # both columns are printed to 12 significant digits
                assert abs(-value - float(row["value"])) <= 1e-12


class TestSettleBound:
    """The continuity bound on which a qubit refine settles a member."""

    @staticmethod
    def _channels():
        """Qubit depolarizing channels, amplitude damping and two random
        channels, qubit to qubit and qubit to qutrit."""
        rng = np.random.default_rng(5)
        return (
            [depolarizing(2, p) for p in (0.3, 0.65, 0.86, 0.95)]
            + [_amplitude_damping(gamma) for gamma in (0.2, 0.5, 0.9)]
            + [_random_two_kraus(2, rng), _random_two_kraus(2, rng, 3)]
        )

    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_no_score_in_a_bracket_exceeds_the_bound(self, cls):
        # brackets of half-width 1e-6 to 2e-2 around anchors that include
        # both ends of q0, each scanned at 401 points
        anchors = np.array([0.0, 0.03, 0.25, 0.5, 0.71, 0.98, 1.0])
        widths = np.array([1e-6, 1e-5, 1e-4, 2e-3, 2e-2])
        q0, width = np.repeat(anchors, len(widths)), np.tile(widths, len(anchors))
        lo, hi = np.maximum(q0 - width, 0.0), np.minimum(q0 + width, 1.0)
        q = np.stack([q0, 1.0 - q0], axis=1)
        x = np.linspace(lo, hi, 401, axis=-1)
        scan = np.stack([x, 1.0 - x], axis=-1).reshape(-1, 2)
        for chan in self._channels():
            score = _scorer(cls, chan)
            # the bound takes the output's A factor
            assert score.dims[0] == (chan.dim_out if cls == "NCEAC" else 2)
            bound = score(q) + classifiers._settle_bound(lo, hi, q, score.dims[0])
            assert (score(scan).reshape(len(q), 401).max(axis=1) <= bound).all()

    @pytest.mark.parametrize(
        "cls, family", [("NCEAC", "qubit-depol"), ("NCEBC", "user-kraus"), ("NCEAC", "user-kraus")]
    )
    def test_settled_verdicts_equal_the_full_refine(self, cls, family):
        if family == "qubit-depol":
            stages = [classifiers._lattice_stage(cls, family, np.linspace(0.0, 1.0, 201).tolist())]
        else:
            # the last channel's NCEAC peak lies between lattice points: the
            # lattice leaves it undecided, and the full refine a non-member
            chans = self._channels() + [compose(depolarizing(2, 0.91536), _amplitude_damping(0.1))]
            stages = [
                classifiers._lattice_stage(cls, family, [0.0], channel=chan) for chan in chans
            ]

        def verdicts(stop):
            return [
                report.verdict
                for searched in stages
                for report in classifiers._refine_stage(searched, stop)
            ]

        full = verdicts(np.inf)
        assert verdicts(0.0 + classifiers.BOUNDARY_TOL) == full
        if family == "qubit-depol":
            assert set(full) == {"member", "non-member"}
        elif cls == "NCEAC":
            assert (stages[-1][0].report.verdict, full[-1]) == ("undecided", "non-member")


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
        recomputed = fidelity_two_qubit(out).value
        assert abs(recomputed - 0.55) <= 1e-9
        assert recomputed > 0.5 + 1e-9

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
        # a missing bound would build a channel and a lattice of a million
        # rows; the stand-ins fail at once instead
        def unreached(*args, **kwargs):
            raise AssertionError("work started before the grid was checked")

        monkeypatch.setattr(classifiers, "_family_channel", unreached)
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
                f = fidelity_two_qubit(out) if d == 2 else fidelity_optimize(out, restarts=2)
                sampled = max(sampled, f.value)
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
                f = fidelity_two_qubit(out) if d == 2 else fidelity_optimize(out, restarts=2)
                sampled = max(sampled, f.value)
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
        restarts, seeds, result) each."""
        calls = []
        real = classifiers._maximize_over_unitaries

        def recording(gram, d, restarts, seeds):
            out = real(gram, d, restarts, seeds)
            calls.append((gram, d, restarts, seeds, out))
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
        ((_, _, _, _, (values, _, steps)),) = calls
        assert steps[0] < 4 * fidelity.MAX_STEPS
        assert values[0] >= 0.505124813807 - 1e-12
        assert rep.worst_value >= 0.505124813807 - 1e-12

    def test_user_fac2_reaches_the_plain_ascent(self, monkeypatch, plain_ascent):
        rng = np.random.default_rng(0)
        chans = [_random_two_kraus(2, rng) for _ in range(4)]
        chans += [_random_two_kraus(3, rng) for _ in range(4)]
        calls = self._record_ascents(monkeypatch)
        for chan in chans:
            classifiers.certify("FAC2", "user-kraus", 0.0, channel=chan, restarts=4)
        assert len(calls) == len(chans)
        for gram, d, restarts, seeds, (values, _, _) in calls:
            assert values[0] >= plain_ascent(gram, d, restarts, seeds)[0] - 1e-12

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
        rescored = _scorer("NCEBC", chan)(rep.worst_input.q[None])[0]
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
        # both end with the uniform vector, which neither lattice contains
        q3 = classifiers._schmidt_grid(3, 101)
        expected = [np.array([i, j, 13 - i - j]) / 13 for i in range(14) for j in range(14 - i)]
        expected.append(np.full(3, 1.0 / 3.0))
        assert len(q3) == len(expected) == 106
        assert all(np.array_equal(a, b) for a, b in zip(q3, expected))
        q4 = np.array(classifiers._schmidt_grid(4, 101))
        assert q4.shape == (121, 4)
        assert np.array_equal(q4[-1], np.full(4, 0.25))
        assert np.allclose(q4.sum(axis=1), 1.0) and q4.min() >= 0.0
        assert len({tuple(np.round(q * 7).astype(int)) for q in q4[:-1]}) == 120
        # reference: every point of the (m + 1)^(d - 1) box whose first d - 1
        # parts sum to at most m, in itertools.product order, then the uniform
        for d, grid in itertools.product((3, 4, 5), (101, 1000, 5000)):
            m = 3
            while math.comb(m + d - 1, d - 1) <= grid:
                m += 1
            expected = np.array([
                np.array([*n, m - sum(n)], dtype=float) / m
                for n in itertools.product(range(m + 1), repeat=d - 1)
                if sum(n) <= m
            ] + [np.full(d, 1.0 / d)])
            qs = classifiers._schmidt_grid(d, grid)
            assert len(qs) == math.comb(m + d - 1, d - 1) + 1
            assert qs.shape == expected.shape and qs.tobytes() == expected.tobytes()

    def test_schmidt_grid_stays_small_at_a_large_grid(self):
        # 400 066 rows of 3 floats are 9.6 MB; the build must not hold the
        # (m + 1)^2 box or one array per point
        tracemalloc.start()
        try:
            qs = classifiers._schmidt_grid(3, 400_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert qs.shape == (400_066, 3)
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
    @pytest.mark.parametrize("family", ["qubit-depol", "qutrit-depol"])
    @pytest.mark.parametrize("cls", classifiers.CLASSES)
    def test_each_report_equals_certify_alone(self, cls, family, n):
        # p = 1 alone, then grids from p = 0 to p = 1, whose outputs at p = 1
        # take the clip path of the validation; the lattices of 21 or 101 p
        # run over BLOCK rows, so some stacks hold the rows of two p
        ps = [1.0] if n == 1 else np.linspace(0.0, 1.0, n).tolist()
        lattice = classifiers._schmidt_grid(classifiers.DEPOLARIZING[family], 101)
        assert n == 1 or (n * len(lattice) > theorems.BLOCK and theorems.BLOCK % len(lattice))
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

        def scorer(cls, *chans):
            scorers.append(len(chans))
            return real_scorer(cls, *chans)

        monkeypatch.setattr(classifiers, "_maximize_over_unitaries", ascent)
        monkeypatch.setattr(classifiers, "_entropy_scorer", scorer)
        chan = _random_two_kraus(3, np.random.default_rng(6))
        ps = np.linspace(0.0, 1.0, 5).tolist()
        reports = classifiers.certify_many(cls, "user-kraus", ps, channel=chan, restarts=2)
        assert (ascents, scorers) == (([1], []) if cls == "FAC2" else ([], [1]))
        assert [rep.p for rep in reports] == ps
        assert len({_fields(replace(rep, p=0.0)) for rep in reports}) == 1

    def test_p_beyond_a_block_are_taken_block_by_block(self, monkeypatch):
        # at most BLOCK channels (and their basis images) are held at once
        built = []
        scorer = classifiers._entropy_scorer

        def recorded(cls, *chans):
            built.append(len(chans))
            return scorer(cls, *chans)

        monkeypatch.setattr(classifiers, "_entropy_scorer", recorded)
        ps = np.linspace(0.0, 1.0, 2 * theorems.BLOCK + 88).tolist()
        reports = classifiers.certify_many("NCEBC", "qutrit-depol", ps)
        assert built[:3] == [theorems.BLOCK, theorems.BLOCK, 88]
        monkeypatch.undo()
        assert [rep.p for rep in reports] == ps
        for i in range(0, len(ps), 37):
            alone = classifiers.certify("NCEBC", "qutrit-depol", ps[i])
            assert _fields(reports[i]) == _fields(alone)

    def test_no_p_gives_no_report(self):
        assert classifiers.certify_many("NCEAC", "qubit-depol", []) == []

    def test_bad_p_raises_for_the_stack(self):
        with pytest.raises(InvalidParameterError):
            classifiers.certify_many("NCEAC", "qubit-depol", [0.5, 1.5])


THRESHOLDS = [
    ("qubit-depol", "FAC2", 0.57735),
    ("qubit-depol", "FBC", 0.33333),
    ("qubit-depol", "NCEAC", 0.86465),
    ("qubit-depol", "NCEBC", 0.747614),
    # 1/(d+1), 1/sqrt(d+1), and the roots of S(A|B) = 0 on p^2 Phi +
    # (1 - p^2) I/9 and on p Phi + (1 - p) I/9
    ("qutrit-depol", "FBC", 0.25),
    ("qutrit-depol", "FAC2", 0.5),
    ("qutrit-depol", "NCEAC", 0.844342),
    ("qutrit-depol", "NCEBC", 0.712913),
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


class TestThresholdVerdictExit:
    @pytest.mark.parametrize("family,cls", [(f, c) for f, c, _ in THRESHOLDS])
    def test_equals_the_search_without_a_stop(self, family, cls, monkeypatch):
        res = classifiers.threshold(cls, family)
        search = classifiers._certify_many

        def without_stop(*args, stop, **kwargs):
            return search(*args, stop=np.inf, **kwargs)

        monkeypatch.setattr(classifiers, "_certify_many", without_stop)
        assert classifiers.threshold(cls, family) == res

    @pytest.mark.parametrize("family,cls", [(f, c) for f, c, _ in THRESHOLDS])
    def test_equals_the_confirmation_without_a_stop(self, family, cls, monkeypatch):
        res = classifiers.threshold(cls, family)
        refine = classifiers._refine_qubit

        def without_stop(score, lo, hi, q, value, stop):
            return refine(score, lo, hi, q, value, np.inf)

        monkeypatch.setattr(classifiers, "_refine_qubit", without_stop)
        assert classifiers.threshold(cls, family) == res

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


def _stub_stages(monkeypatch, lattice, confirmed=None):
    """Stand-ins for the two stages behind ``threshold``: the lattice stage
    gives each p the verdict ``lattice(p)``, and, when ``confirmed`` is
    given, leaves each p a refine whose verdict is ``confirmed(p)``. Returns
    the calls of the refine stage that refine any p, each as its ``(ps,
    stop)``."""
    refines = []

    def lattice_stage(cls, family, ps, grid=101, channel=None, restarts=20, seed=42):
        refine = None if confirmed is None else ()
        return [
            classifiers._Searched(SimpleNamespace(p=p, verdict=lattice(p)), refine) for p in ps
        ]

    def refine_stage(searched, stop):
        ps = [s.report.p for s in searched]
        if ps:
            refines.append((ps, stop))
        return [SimpleNamespace(p=p, verdict=confirmed(p)) for p in ps]

    monkeypatch.setattr(classifiers, "_lattice_stage", lattice_stage)
    monkeypatch.setattr(classifiers, "_refine_stage", refine_stage)
    return refines


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
        _stub_stages(monkeypatch, _banded(1e-4))
        with pytest.raises(NonMonotoneError, match="undecided"):
            classifiers.threshold("NCEAC", "qubit-depol")

    def test_narrow_undecided_band_closes_inside_tolerance(self, monkeypatch):
        # the bracket ends at the first p that is not a member (0.5, on the
        # coarse grid); the first non-member is then found within the width
        _stub_stages(monkeypatch, _banded(2e-6))
        res = classifiers.threshold("NCEAC", "qubit-depol")
        assert res.bracket[1] == 0.5
        assert 0.5 - classifiers.THRESHOLD_TOL <= res.bracket[0] < 0.5

    @pytest.mark.parametrize("verdicts", [
        {0.3: "non-member"},  # member, non-member, member, non-member
        {0.0: "undecided"},  # the scan starts short of a member
    ])
    def test_non_monotone_verdicts_raise(self, verdicts, monkeypatch):
        _stub_stages(monkeypatch, _flip_at(0.5, verdicts))
        with pytest.raises(NonMonotoneError):
            classifiers.threshold("FBC", "qubit-depol")

    def test_every_search_stops_at_the_non_member_bound(self, monkeypatch):
        # below 0 + BOUNDARY_TOL a refine could end undecided where the full
        # refine proves non-membership; above it, it would refine past a
        # settled verdict. The members on [0.5, 0.6) turn non-members, so
        # the walk runs twice and confirms twice
        refines = _stub_stages(monkeypatch, _flip_at(0.6), _flip_at(0.5))
        classifiers.threshold("NCEAC", "qubit-depol")
        assert len(refines) == 2
        assert [stop for _, stop in refines] == [0.0 + classifiers.BOUNDARY_TOL] * 2
        monkeypatch.undo()
        stops = []
        refine = classifiers._refine_qubit

        def recorded(score, lo, hi, q, value, stop):
            stops.append(stop)
            return refine(score, lo, hi, q, value, stop)

        monkeypatch.setattr(classifiers, "_refine_qubit", recorded)
        classifiers.threshold("NCEAC", "qubit-depol")
        assert stops == [0.0 + classifiers.BOUNDARY_TOL]

    @pytest.mark.parametrize("cls,family", [("NCEAC", "qubit-depol"), ("NCEBC", "user-kraus")])
    def test_lattice_stage_refines_nothing(self, cls, family, monkeypatch):
        def refine(*args, **kwargs):
            raise AssertionError("the lattice stage refined")

        monkeypatch.setattr(classifiers, "_refine_qubit", refine)
        channel = _amplitude_damping(0.4) if family == "user-kraus" else None
        ps = [0.0] if channel else np.linspace(0.0, 1.0, 21).tolist()
        searched = classifiers._lattice_stage(cls, family, ps, channel=channel)
        assert all(s.refine is not None for s in searched)


class TestThresholdConfirmation:
    @staticmethod
    def _on_verdicts(monkeypatch, verdict):
        """``threshold`` on the verdicts ``verdict(p)``, taken as final."""
        with monkeypatch.context() as patch:
            _stub_stages(patch, verdict)
            return classifiers.threshold("NCEAC", "qubit-depol")

    @staticmethod
    def _assert_refined_once(refines):
        """No p is refined by more than one confirmation."""
        ps = [p for call, _ in refines for p in call]
        assert len(ps) == len(set(ps))

    def test_confirmed_non_member_moves_the_walk(self, monkeypatch):
        # the lattice puts the flip at 0.6, the refine at 0.5
        expected = self._on_verdicts(monkeypatch, _flip_at(0.5))
        refines = _stub_stages(monkeypatch, _flip_at(0.6), _flip_at(0.5))
        res = classifiers.threshold("NCEAC", "qubit-depol")
        assert res == expected
        assert abs(res.p_star - 0.5) <= classifiers.THRESHOLD_TOL
        assert len(refines) == 2
        self._assert_refined_once(refines)

    def test_lattice_non_monotone_confirmed_monotone_does_not_raise(self, monkeypatch):
        # a lattice member at 0.55, above the first non-member, is a
        # non-member once refined
        expected = self._on_verdicts(monkeypatch, _flip_at(0.5))
        refines = _stub_stages(monkeypatch, _flip_at(0.5, {0.55: "member"}), _flip_at(0.5))
        assert classifiers.threshold("NCEAC", "qubit-depol") == expected
        assert 0.55 in refines[0][0]
        self._assert_refined_once(refines)

    def test_confirmed_non_monotone_raises(self, monkeypatch):
        # a member at 0.3 under the lattice is a non-member once refined
        refines = _stub_stages(monkeypatch, _flip_at(0.5), _flip_at(0.5, {0.3: "non-member"}))
        with pytest.raises(NonMonotoneError, match="do not run"):
            classifiers.threshold("NCEAC", "qubit-depol")
        assert len(refines) == 1
        self._assert_refined_once(refines)

    def test_lattice_non_members_are_not_refined(self, monkeypatch):
        refines = _stub_stages(monkeypatch, _flip_at(0.5), _flip_at(0.5))
        classifiers.threshold("NCEAC", "qubit-depol")
        assert len(refines) == 1
        assert all(p < 0.5 for p in refines[0][0])

    def test_nceac_qubit_takes_one_confirmation(self, monkeypatch):
        # one lattice scoring per visited p, and one refine of the visited p
        # whose lattice verdict is not non-member
        lattice_ps, refined = [], []
        lattice_stage, refine_stage = classifiers._lattice_stage, classifiers._refine_stage

        def recorded_lattice(cls, family, ps, *args, **kwargs):
            lattice_ps.extend(ps)
            return lattice_stage(cls, family, ps, *args, **kwargs)

        def recorded_refine(searched, stop):
            refined.append([s.report for s in searched])
            return refine_stage(searched, stop)

        monkeypatch.setattr(classifiers, "_lattice_stage", recorded_lattice)
        monkeypatch.setattr(classifiers, "_refine_stage", recorded_refine)
        res = classifiers.threshold("NCEAC", "qubit-depol")
        assert len(lattice_ps) == len(set(lattice_ps)) == classifiers.COARSE_POINTS + res.iterations
        assert len(refined) == 1 and len(refined[0]) == 26
        assert all(report.verdict != "non-member" for report in refined[0])
        monkeypatch.undo()
        lattice = classifiers._lattice_stage("NCEAC", "qubit-depol", lattice_ps)
        assert sum(s.report.verdict != "non-member" for s in lattice) == 26

    def test_nceac_qubit_threshold_refines_few_rows(self, monkeypatch):
        # a full refine of the 26 confirmed p scores 2912 rows; the member
        # side settles on the continuity bound
        rows, refine = [], classifiers._refine_qubit

        def counted(score, lo, hi, q, value, stop):
            @functools.wraps(score)
            def recorded(qs, at=0):
                rows.append(len(qs))
                return score(qs, at)

            return refine(recorded, lo, hi, q, value, stop)

        monkeypatch.setattr(classifiers, "_refine_qubit", counted)
        classifiers.threshold("NCEAC", "qubit-depol")
        assert 0 < sum(rows) < 600


class TestNceaClosedForm:
    def test_fully_depolarizing(self):
        assert np.isclose(classifiers.ncea_conditional_entropy_closed_form(0.0, 0.5), 1.0)

    def test_matches_direct_computation_on_grid(self):
        max_dev = 0.0
        for p in np.linspace(0, 1, 11):
            chan = depolarizing(2, p)
            for q0 in np.linspace(0, 1, 11):
                out = apply_two_local(chan, chan, schmidt_state([q0, 1 - q0]))
                direct = conditional_von_neumann(out)
                closed = classifiers.ncea_conditional_entropy_closed_form(p, q0)
                max_dev = max(max_dev, abs(direct - closed))
        assert max_dev <= 1e-13

    def test_minimum_near_zero_at_threshold(self):
        res = minimize_scalar(
            lambda q0: classifiers.ncea_conditional_entropy_closed_form(0.86465, q0),
            bounds=(0.0, 1.0),
            method="bounded",
        )
        assert abs(res.fun) <= 1e-4
        assert abs(res.x - 0.5) <= 1e-3


class TestNcebcClosedForm:
    def test_fully_depolarizing(self):
        assert np.isclose(
            classifiers.ncebc_conditional_entropy_closed_form(0.0, np.pi / 4), 1.0
        )

    def test_bell_output_at_p_one(self):
        assert np.isclose(
            classifiers.ncebc_conditional_entropy_closed_form(1.0, np.pi / 4), -1.0
        )

    def test_value_near_zero_at_threshold(self):
        val = classifiers.ncebc_conditional_entropy_closed_form(0.747614, np.pi / 4)
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
                closed = classifiers.ncebc_conditional_entropy_closed_form(p, alpha)
                max_dev = max(max_dev, abs(direct - closed))
        assert max_dev <= 1e-13

    def test_maximally_entangled_input_is_worst(self):
        # the unital shortcut scores alpha = pi/4 alone; over a scan of
        # alpha in [0, pi] the conditional entropy is least at the two
        # maximally entangled inputs (pi/4 and 3pi/4, indices 25 and 75)
        # once it can go negative, from the threshold p* = 0.747614 up
        alphas = np.linspace(0.0, np.pi, 101)

        def scan(p, grid=alphas):
            return np.array([classifiers.ncebc_conditional_entropy_closed_form(p, a) for a in grid])

        for p in (0.747614, 0.75, 0.8, 0.9, 1.0):
            assert np.argmin(scan(p)) in (25, 75)
        # below the threshold no input goes negative: the minimum is the
        # product inputs' 0 (alpha = 0, pi/2, pi)
        vals = scan(0.7)
        assert vals.min() >= -1e-12
        assert np.argmin(vals) in (0, 50, 100)
        # at p* no input of a fine scan scores below the shortcut's input
        p_star = 0.747614
        shortcut = classifiers.ncebc_conditional_entropy_closed_form(p_star, np.pi / 4)
        assert scan(p_star, np.linspace(0.0, np.pi, 721)).min() >= shortcut - 1e-12


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
