import tracemalloc

import numpy as np
import pytest

from fidelion import fidelity, theorems
from fidelion.errors import InvalidParameterError
from fidelion.fidelity import r_quantity
from fidelion.states import (
    DensityMatrix,
    _ginibre,
    random_density_matrix,
    schmidt_state,
    weyl_spectrum,
    weyl_state,
)

BELL = schmidt_state([0.5, 0.5])
MIXED_4 = DensityMatrix((2, 2), np.eye(4) / 4)


def werner(w):
    return DensityMatrix((2, 2), w * BELL.matrix + (1 - w) * np.eye(4) / 4)


def isotropic3(w):
    phi = schmidt_state([1 / 3, 1 / 3, 1 / 3])
    return DensityMatrix((3, 3), w * phi.matrix + (1 - w) * np.eye(9) / 9)


def items(suite, rho):
    """One two-qubit state's ``(theorem_id, status, margin)`` items from the
    suite's own check on a stack of one."""
    outcomes = theorems._check_block((suite,), rho.matrix[None].copy())
    return [(o.theorem_id, theorems.STATUSES[o.status[0]], float(o.margin[0])) for o in outcomes]


def statuses(suite, rho):
    return {tid: status for tid, status, _ in items(suite, rho)}


class TestPerStateChecks:
    def test_lemma1_bell(self):
        assert statuses("lemma1", BELL) == {"lemma1": "holds"}

    def test_lemma1_maximally_mixed(self):
        # both sides false: 0 > 1 and 0 > 1 - 0
        assert statuses("lemma1", MIXED_4) == {"lemma1": "holds"}

    def test_renyi_bounds_werner(self):
        assert [s for _, s, _ in items("renyi", werner(0.9))] == ["holds", "holds"]

    def test_renyi_bounds_maximally_mixed(self):
        # F = 1/4 <= 1/2 and S2 = 2 >= log2(Gamma) = 1: both sides false
        assert [s for _, s, _ in items("renyi", MIXED_4)] == ["holds", "holds"]

    def test_min_entropy_tight_cases(self):
        for rho in (BELL, MIXED_4):
            by_id = statuses("minentropy", rho)
            assert by_id["theorem8"] in ("holds", "boundary")
            assert by_id["theorem9"] in ("holds", "boundary")

    def test_min_entropy_conditional_items_on_entangled(self):
        by_id = statuses("minentropy", werner(0.9))
        assert by_id["theorem10"] == "holds"
        assert by_id["theorem11"] == "holds"

    def test_conditional_items_skip_below_half(self):
        by_id = statuses("minentropy", MIXED_4)
        assert by_id["theorem10"] == "skip"
        assert by_id["theorem11"] == "skip"

    def test_tsallis_bounds(self):
        assert [s for _, s, _ in items("tsallis", BELL)] == ["holds", "holds"]
        assert [s for _, s, _ in items("tsallis", MIXED_4)] == ["holds", "holds"]

    def test_weyl_observations_bell_params(self):
        t = (1.0, -1.0, 1.0)
        by_id = statuses("weyl", weyl_state(t))
        # Omega = 3 violates the 0 < Omega < 1 side condition
        assert by_id["obs1"] == "skip"
        assert by_id["obs2"] == "skip"
        for tid in ("obs3", "obs4", "obs5", "obs6"):
            assert by_id[tid] == "holds"

    def test_weyl_observations_zero_params(self):
        t = (0.0, 0.0, 0.0)
        by_id = statuses("weyl", weyl_state(t))
        assert by_id["obs3"] == "holds"
        assert by_id["obs5"] == "holds"

    def test_weyl_observations_use_exact_fidelity(self):
        # det T > 0: F = (1 + s1 + s2 - s3)/4 = 0.325, not (1 + sum |t_i|)/4 = 0.475
        t = (0.3, 0.3, 0.3)
        checked = items("weyl", weyl_state(t))
        margins = {tid: margin for tid, _, margin in checked}
        assert all(status == "holds" for _, status, _ in checked)
        for tid in ("obs1", "obs2", "obs3", "obs4"):
            assert abs(margins[tid] - 0.175) <= 1e-12
        for tid in ("obs5", "obs6"):
            assert abs(margins[tid] - 0.0475) <= 1e-12

    def test_relative_entropy_maximally_mixed(self):
        ((_, status, margin),) = items("relent", MIXED_4)
        assert status == "holds"
        assert margin >= 2.0  # R = 2 and lambda_max = 1/4


class TestSuites:
    @pytest.mark.parametrize(
        "suite,n_checks",
        [
            ("lemma1", 1),
            ("renyi", 2),
            ("tsallis", 2),
            ("minentropy", 4),
            ("weyl", 6),
        ],
    )
    def test_no_failures_on_small_samples(self, suite, n_checks):
        checks = theorems.run_suite(suite, samples=300, seed=7)
        assert len(checks) == n_checks
        for check in checks:
            assert check.failures == 0, f"{check.theorem_id} failed"
            assert check.counterexample is None
            assert check.excluded <= max(1, check.samples // 100)

    def test_relent_small_sample(self):
        (check,) = theorems.run_suite("relent", samples=25, seed=3)
        assert check.failures == 0
        assert check.worst_margin >= -theorems.RELENT_TOL

    def test_all_runs_every_suite(self):
        checks = theorems.run_suite("all", samples=50, seed=1)
        ids = [c.theorem_id for c in checks]
        assert set(ids) >= {
            "lemma1", "theorem6", "theorem7", "theorem8", "theorem9",
            "theorem10", "theorem11", "theorem12", "theorem13",
            "obs1", "obs2", "obs3", "obs4", "obs5", "obs6", "theorem14",
        }

    def test_all_equals_the_six_suites_run_alone(self):
        samples, seed = theorems.BLOCK + 40, 9
        alone = []
        for suite in theorems.SUITES:
            n = max(1, samples // 10) if suite == "relent" else samples
            alone.extend(theorems.run_suite(suite, n, seed))
        assert theorems.run_suite("all", samples, seed) == alone

    def test_all_validates_each_ginibre_block_once(self, monkeypatch):
        samples = 2 * theorems.BLOCK + 1
        blocks = -(-samples // theorems.BLOCK)
        calls = []
        real = theorems._validated_qubits

        def counting(m):
            calls.append(len(m))
            return real(m)

        monkeypatch.setattr(theorems, "_validated_qubits", counting)
        theorems.run_suite("all", samples, seed=2)
        # one call per block of the shared Hilbert-Schmidt stream, one per weyl block
        assert len(calls) == 2 * blocks
        assert sum(calls) == 2 * samples

    @pytest.mark.parametrize("samples", [0, theorems.MAX_SAMPLES + 1])
    def test_samples_out_of_range_are_rejected_before_any_draw(self, samples, monkeypatch):
        def unreachable(*args):
            raise AssertionError("drew states for a rejected sample count")

        monkeypatch.setattr(theorems, "_draws", unreachable)
        for suite in ("lemma1", "all"):
            with pytest.raises(InvalidParameterError, match="^samples must be at "):
                theorems.run_suite(suite, samples)

    def test_deterministic_per_seed(self):
        a = theorems.run_suite("lemma1", samples=200, seed=5)
        b = theorems.run_suite("lemma1", samples=200, seed=5)
        assert a[0] == b[0]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            theorems.run_suite("bogus")


def _reductions():
    """The validated data and the outcomes of the four Hilbert-Schmidt
    suites on seeded stacks of 500 two-qubit states of each rank 1 to 4."""
    rng = np.random.default_rng(13)
    m = np.concatenate([_ginibre(rng, 500, 4, rank) for rank in (1, 2, 3, 4)])
    outcomes = theorems._check_block(theorems.SUITES[:4], m)
    return theorems._validated_qubits(m), {o.theorem_id: o for o in outcomes}


class TestReductions:
    """What the check ids reduce to on one real 4 x 4 spectrum: a change
    to the transcription of one check of a pair breaks its pin."""

    @pytest.mark.parametrize(
        "first,second",
        [("theorem6", "theorem7"), ("theorem12", "theorem13"), ("theorem8", "theorem9")],
    )
    def test_paired_checks_share_their_margin(self, first, second):
        _, outcomes = _reductions()
        assert np.array_equal(outcomes[first].status, outcomes[second].status)
        assert np.abs(outcomes[first].margin - outcomes[second].margin).max() <= 1e-14

    def test_min_entropy_checks_read_f_below_lambda_max(self):
        q, outcomes = _reductions()
        margin = np.log2(q.eig[:, -1] / q.f)
        assert np.abs(outcomes["theorem8"].margin - margin).max() <= 1e-14

    def test_lemma1_never_fails(self):
        # ||T||_1^2 = ||T||_2^2 + R, so its two sides always share a sign
        _, outcomes = _reductions()
        assert (outcomes["lemma1"].status != theorems.FAILS).all()

    def test_entangled_iff_the_singular_values_sum_above_one(self):
        q, outcomes = _reductions()
        s = q.sing.sum(axis=1)
        off = (np.abs(q.f - 0.5) > 1e-9) & (np.abs(s - 1.0) > 1e-9)
        assert off.sum() > 1900 and 0 < (q.f > 0.5).sum() < len(q.f)
        assert np.array_equal(q.f[off] > 0.5, s[off] > 1.0)
        # theorem12's right side is ((s1 + s2 + s3)^2 - 1)/4, so its margin
        # is the nearer of that and F - 1/2 to 0
        closest = np.minimum(np.abs(q.f - 0.5), np.abs((s**2 - 1.0) / 4.0))
        assert np.abs(np.abs(outcomes["theorem12"].margin) - closest).max() <= 1e-14


class TestRelativeEntropyFamilies:
    def test_full_rank_werner_mixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = werner(rng.uniform(0.05, 0.95))
            assert [s for _, s, _ in items("relent", rho)] == ["holds"]

    def test_qutrit_isotropic_states(self):
        # theorem14 at d = 3, where r_quantity is a polar-ascent lower bound:
        # the margin the relent check would call "holds"
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = isotropic3(rng.uniform(0.05, 0.9))
            margin = r_quantity(rho, 2, seed=2) + rho.eigenvalues()[-1]
            assert margin > theorems.RELENT_TOL


def _ginibre_draw(rng):
    """One Hilbert-Schmidt random two-qubit state, drawn as the per-state stream does."""
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m = g @ g.conj().T
    return DensityMatrix((2, 2), m / np.trace(m).real)


def _weyl_draws(rng, samples):
    """One-at-a-time rejection sampling: accepted parameters and the
    index of the candidate each was accepted at."""
    params, attempts, attempt = [], [], 0
    while len(params) < samples:
        t = rng.uniform(-1.0, 1.0, 3)
        if weyl_spectrum(t)[0] >= 0.0:
            params.append(t)
            attempts.append(attempt)
        attempt += 1
    return params, attempts


def _per_state_run(suite, samples, seed):
    """The suite as a loop over single states, aggregated item by item."""
    rng = np.random.default_rng(seed)
    if suite == "weyl":
        params, _ = _weyl_draws(rng, samples)
        draws = [weyl_state(t) for t in params]
    else:
        draws = [_ginibre_draw(rng) for _ in range(samples)]
    out = {}
    for rho in draws:
        for theorem_id, status, margin in items(suite, rho):
            acc = out.setdefault(theorem_id, [0, 0, 0, np.inf, None])
            if status == "boundary":
                acc[2] += 1
            elif status != "skip":
                acc[0] += 1
                acc[3] = min(acc[3], margin)
                if status == "fails":
                    acc[1] += 1
                    acc[4] = rho if acc[4] is None else acc[4]
    return out


class TestBlocks:
    @pytest.mark.parametrize(
        "suite,seed",
        [("lemma1", 11), ("renyi", 12), ("tsallis", 13), ("minentropy", 14), ("weyl", 5)],
    )
    def test_blocked_run_equals_per_state_loop(self, suite, seed):
        samples = 3 * theorems.BLOCK + 1
        expected = [
            theorems.TheoremCheck(tid, n, failures, excluded,
                                  worst if np.isfinite(worst) else 0.0, counterexample)
            for tid, (n, failures, excluded, worst, counterexample)
            in _per_state_run(suite, samples, seed).items()
        ]
        assert theorems.run_suite(suite, samples, seed) == expected

    def test_weyl_seed_carries_accepted_rows_across_a_block_edge(self):
        # candidates are drawn BLOCK at a time; at seed 5 the candidate draw
        # that completes a block also holds rows of the next one
        block = theorems.BLOCK
        _, attempts = _weyl_draws(np.random.default_rng(5), 3 * block + 1)
        crossings = [
            j for j in (1, 2, 3)
            if attempts[j * block] // block == attempts[j * block - 1] // block
        ]
        assert crossings

    def test_omega_is_half_r_of_the_validated_block(self):
        # the weyl suite reads Omega = R/2 of the correlation singular values,
        # which is the paper's |t1 t2| + |t1 t3| + |t2 t3| of the drawn state
        samples, seed = 3 * theorems.BLOCK + 1, 5
        params, _ = _weyl_draws(np.random.default_rng(seed), samples)
        at = np.abs(np.array(params))
        omega = at[:, 0] * at[:, 1] + at[:, 0] * at[:, 2] + at[:, 1] * at[:, 2]
        m = np.concatenate(list(theorems._draws("weyl", samples, seed)))
        half_r = theorems._r(theorems._validated_qubits(m).sing) / 2.0
        assert np.abs(half_r - omega).max() <= 1e-15

    def test_a_block_takes_two_eigvalsh_and_no_contraction(self, monkeypatch):
        # the validation's eigvalsh and the correlation form's, and no other
        # solve, for the four suites together; the Bloch-Fano data and the
        # correlation form take no einsum and no BLAS product
        m = next(theorems._draws("lemma1", theorems.BLOCK, 3))
        solves = []
        solve = np.linalg.eigvalsh

        def recorded(a):
            solves.append((a.shape, a.dtype.kind))
            return solve(a)

        def forbidden(*args, **kwargs):
            raise AssertionError("ran a dense contraction or another solve")

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        for name in ("eigh", "eig", "eigvals", "svd", "det", "solve", "inv"):
            monkeypatch.setattr(np.linalg, name, forbidden)
        with monkeypatch.context() as patch:
            for name in ("einsum", "matmul", "dot", "tensordot", "inner", "vdot"):
                patch.setattr(np, name, forbidden)
            fidelity._two_qubit_spectrum(theorems._bloch_fano(m, (2, 2)).t)
        assert solves == [((theorems.BLOCK, 4, 4), "f")]
        solves.clear()
        theorems._check_block(theorems.SUITES[:4], m)
        assert solves == [((theorems.BLOCK, 4, 4), "c"), ((theorems.BLOCK, 4, 4), "f")]

    def test_tallies_by_chunks_of_blocks_change_nothing(self, monkeypatch):
        samples, seed = 3 * theorems.BLOCK + 1, 9
        expected = theorems.run_suite("all", samples, seed)
        for blocks in (1, 2):
            monkeypatch.setattr(theorems, "TALLY_BLOCKS", blocks)
            assert theorems.run_suite("all", samples, seed) == expected

    def test_memory_is_flat_in_the_sample_count(self, monkeypatch):
        # six theorems hold 16 bytes of outcome per sample each: 688 KB more
        # at the larger count if every block were held to the end
        monkeypatch.setattr(theorems, "TALLY_BLOCKS", 2)
        theorems.run_suite("weyl", theorems.BLOCK, 3)  # caches built outside the trace
        peaks = []
        for samples in (4 * theorems.BLOCK, 32 * theorems.BLOCK):
            tracemalloc.start()
            theorems.run_suite("weyl", samples, 3)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[1] - peaks[0] < 100_000

    def test_weyl_spectrum_of_a_stack_matches_rows(self):
        t = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 3))
        stacked = weyl_spectrum(t)
        assert stacked.shape == (50, 4)
        for row, spectrum in zip(t, stacked):
            assert np.array_equal(spectrum, weyl_spectrum(row))


class TestRelentBlocks:
    def test_block_margins_equal_the_per_state_check(self, monkeypatch):
        # the per-state loop the suite replaces: sequential draws, one
        # r_quantity per state, exact at d = 2
        samples, seed = theorems.BLOCK + 5, 3
        margins = []
        real = theorems._relent

        def recording(m, w):
            outcomes = real(m, w)
            margins.extend(outcomes[0].margin)
            return outcomes

        monkeypatch.setattr(theorems, "_relent", recording)
        (check,) = theorems.run_suite("relent", samples, seed)
        monkeypatch.undo()
        rng = np.random.default_rng(seed)
        expected = []
        for _ in range(samples):
            rho = random_density_matrix(2, 2, seed=rng)
            expected.append(r_quantity(rho) + rho.eigenvalues()[-1])
        assert len(margins) == samples
        assert np.array_equal(margins, expected)
        assert check.samples == samples and check.failures == 0
        assert check.worst_margin == min(margins)

    def test_two_qubit_blocks_run_no_ascent_and_one_eigh_each(self, monkeypatch):
        # each block takes one stacked eigh for its logs (complex) and one for
        # the exact maximum over unitaries (real), and no polar ascent
        def no_ascent(*args):
            raise AssertionError("the two-qubit relent check ran the polar ascent")

        monkeypatch.setattr(fidelity, "_maximize_over_unitaries", no_ascent)
        solves = []
        real = np.linalg.eigh

        def eigh(m, *args, **kwargs):
            solves.append((m.shape, m.dtype.kind))
            return real(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        theorems.run_suite("relent", 2 * theorems.BLOCK + 3, 4)
        blocks = [theorems.BLOCK, theorems.BLOCK, 3]
        assert solves == [((k, 4, 4), kind) for k in blocks for kind in "cf"]

    def test_no_ascent_gets_more_than_a_block_of_rows(self, monkeypatch):
        rows = []
        real = theorems._max_two_qubit

        def recording(m):
            rows.append(len(m))
            return real(m)

        monkeypatch.setattr(theorems, "_max_two_qubit", recording)
        theorems.run_suite("relent", 2 * theorems.BLOCK + 3, 4)
        assert rows == [theorems.BLOCK, theorems.BLOCK, 3]


class TestCounterexample:
    def _forced(self, monkeypatch, suite, threshold):
        """Make the suite's check fail exactly where the largest eigenvalue
        of the state exceeds ``threshold``."""
        monkeypatch.setitem(
            theorems._QUBIT_CHECKS, suite,
            lambda q: [theorems._inequality(suite, threshold - q.eig[:, -1])],
        )

    @pytest.mark.parametrize("suite", ["lemma1", "weyl"])
    def test_counterexample_is_the_first_failing_draw(self, suite, monkeypatch):
        samples, seed = 3 * theorems.BLOCK + 1, 8
        rng = np.random.default_rng(seed)
        if suite == "weyl":
            params, _ = _weyl_draws(rng, samples)
            states = [weyl_state(t) for t in params]
        else:
            states = [_ginibre_draw(rng) for _ in range(samples)]
        value = np.array([rho.eigenvalues()[-1] for rho in states])
        # no failure in the first block, so the index maps across blocks
        threshold = value[: theorems.BLOCK + 1].max()
        failing = np.flatnonzero(value > threshold)
        assert failing.size and failing[0] > theorems.BLOCK
        self._forced(monkeypatch, suite, threshold)
        # tallied at once, and block by block
        for blocks in (theorems.TALLY_BLOCKS, 1):
            monkeypatch.setattr(theorems, "TALLY_BLOCKS", blocks)
            (check,) = theorems.run_suite(suite, samples, seed)
            assert check.failures == failing.size
            assert check.samples + check.excluded == samples
            assert check.counterexample == states[failing[0]]


class TestTheoremCheckEquality:
    def test_equal_unequal_and_differently_shaped(self):
        def check(counterexample):
            return theorems.TheoremCheck("lemma1", 10, 1, 0, -0.5, counterexample)

        rho = random_density_matrix(2, 2, seed=1)
        assert check(rho) == check(random_density_matrix(2, 2, seed=1))
        assert check(rho) != check(random_density_matrix(2, 2, seed=2))
        assert check(rho) != check(random_density_matrix(3, 3, seed=1))
        assert check(rho) != check(None)
        assert check(None) == check(None)
        with pytest.raises(TypeError):
            hash(check(None))
