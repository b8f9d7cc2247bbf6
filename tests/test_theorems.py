import numpy as np
import pytest

from fidelion import theorems
from fidelion.states import (
    DensityMatrix,
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


class TestPerStateChecks:
    def test_lemma1_bell(self):
        item = theorems.check_lemma1(BELL)
        assert item.status == "holds"

    def test_lemma1_maximally_mixed(self):
        # both sides false: 0 > 1 and 0 > 1 - 0
        item = theorems.check_lemma1(MIXED_4)
        assert item.status == "holds"

    def test_renyi_bounds_werner(self):
        items = theorems.check_renyi2_bounds(werner(0.9))
        assert [i.status for i in items] == ["holds", "holds"]

    def test_renyi_bounds_maximally_mixed(self):
        # F = 1/4 <= 1/2 and S2 = 2 >= log2(Gamma) = 1: both sides false
        items = theorems.check_renyi2_bounds(MIXED_4)
        assert [i.status for i in items] == ["holds", "holds"]

    def test_min_entropy_tight_cases(self):
        for rho in (BELL, MIXED_4):
            items = theorems.check_min_entropy_bounds(rho)
            by_id = {i.theorem_id: i for i in items}
            assert by_id["theorem8"].status in ("holds", "boundary")
            assert by_id["theorem9"].status in ("holds", "boundary")

    def test_min_entropy_conditional_items_on_entangled(self):
        items = theorems.check_min_entropy_bounds(werner(0.9))
        by_id = {i.theorem_id: i for i in items}
        assert by_id["theorem10"].status == "holds"
        assert by_id["theorem11"].status == "holds"

    def test_conditional_items_skip_below_half(self):
        items = theorems.check_min_entropy_bounds(MIXED_4)
        by_id = {i.theorem_id: i for i in items}
        assert by_id["theorem10"].status == "skip"
        assert by_id["theorem11"].status == "skip"

    def test_tsallis_bounds(self):
        assert [i.status for i in theorems.check_tsallis_bounds(BELL)] == ["holds", "holds"]
        assert [i.status for i in theorems.check_tsallis_bounds(MIXED_4)] == ["holds", "holds"]

    def test_weyl_observations_bell_params(self):
        items = theorems.check_weyl_observations((1.0, -1.0, 1.0))
        by_id = {i.theorem_id: i for i in items}
        # Omega = 3 violates the 0 < Omega < 1 side condition
        assert by_id["obs1"].status == "skip"
        assert by_id["obs2"].status == "skip"
        for tid in ("obs3", "obs4", "obs5", "obs6"):
            assert by_id[tid].status == "holds"

    def test_weyl_observations_zero_params(self):
        items = theorems.check_weyl_observations((0.0, 0.0, 0.0))
        by_id = {i.theorem_id: i for i in items}
        assert by_id["obs3"].status == "holds"
        assert by_id["obs5"].status == "holds"

    def test_weyl_observations_use_exact_fidelity(self):
        # det T > 0: F = (1 + s1 + s2 - s3)/4 = 0.325, not (1 + sum |t_i|)/4 = 0.475
        items = theorems.check_weyl_observations((0.3, 0.3, 0.3))
        margins = {i.theorem_id: i.margin for i in items}
        assert all(i.status == "holds" for i in items)
        for tid in ("obs1", "obs2", "obs3", "obs4"):
            assert abs(margins[tid] - 0.175) <= 1e-12
        for tid in ("obs5", "obs6"):
            assert abs(margins[tid] - 0.0475) <= 1e-12

    def test_relative_entropy_maximally_mixed(self):
        item = theorems.check_relative_entropy_theorem(MIXED_4, restarts=2, seed=0)
        assert item.status == "holds"
        assert item.margin >= 2.0  # R = 2 and lambda_max = 1/4


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

    def test_deterministic_per_seed(self):
        a = theorems.run_suite("lemma1", samples=200, seed=5)
        b = theorems.run_suite("lemma1", samples=200, seed=5)
        assert a[0] == b[0]

    def test_unknown_suite(self):
        with pytest.raises(ValueError):
            theorems.run_suite("bogus")


class TestRelativeEntropyFamilies:
    def test_full_rank_werner_mixtures(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            rho = werner(rng.uniform(0.05, 0.95))
            item = theorems.check_relative_entropy_theorem(rho, restarts=2, seed=1)
            assert item.status == "holds"

    def test_qutrit_isotropic_states(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            rho = isotropic3(rng.uniform(0.05, 0.9))
            item = theorems.check_relative_entropy_theorem(rho, restarts=2, seed=2)
            assert item.status == "holds"


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


PER_STATE_CHECKS = {
    "lemma1": theorems.check_lemma1,
    "renyi": theorems.check_renyi2_bounds,
    "tsallis": theorems.check_tsallis_bounds,
    "minentropy": theorems.check_min_entropy_bounds,
}


def _per_state_run(suite, samples, seed):
    """The suite as a loop over single states, aggregated item by item."""
    rng = np.random.default_rng(seed)
    if suite == "weyl":
        params, _ = _weyl_draws(rng, samples)
        runs = [(weyl_state(t), theorems.check_weyl_observations(t)) for t in params]
    else:
        runs = []
        for _ in range(samples):
            rho = _ginibre_draw(rng)
            items = PER_STATE_CHECKS[suite](rho)
            runs.append((rho, [items] if isinstance(items, theorems.TheoremItem) else items))
    out = {}
    for rho, items in runs:
        for item in items:
            acc = out.setdefault(item.theorem_id, [0, 0, 0, np.inf, None])
            if item.status == "boundary":
                acc[2] += 1
            elif item.status != "skip":
                acc[0] += 1
                acc[3] = min(acc[3], item.margin)
                if item.status == "fails":
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

    def test_weyl_spectrum_of_a_stack_matches_rows(self):
        t = np.random.default_rng(3).uniform(-1.0, 1.0, (50, 3))
        stacked = weyl_spectrum(t)
        assert stacked.shape == (50, 4)
        for row, spectrum in zip(t, stacked):
            assert np.array_equal(spectrum, weyl_spectrum(row))


class TestRelentBlocks:
    def test_block_margins_equal_the_per_state_check(self, monkeypatch):
        # the per-state loop the suite replaces: sequential draws, one check
        # per state with optimizer seed k
        samples, seed, restarts = theorems.BLOCK + 5, 3, 2
        margins = []
        real = theorems._relent

        def recording(w, v, d, restarts, seeds):
            outcomes = real(w, v, d, restarts, seeds)
            margins.extend(outcomes[0].margin)
            return outcomes

        monkeypatch.setattr(theorems, "_relent", recording)
        (check,) = theorems.run_suite("relent", samples, seed, restarts)
        monkeypatch.undo()
        rng = np.random.default_rng(seed)
        expected = [
            theorems.check_relative_entropy_theorem(
                random_density_matrix(2, 2, seed=rng), restarts=restarts, seed=k
            ).margin
            for k in range(samples)
        ]
        assert len(margins) == samples
        assert np.abs(np.array(margins) - expected).max() <= 1e-12
        assert check.samples == samples and check.failures == 0
        assert check.worst_margin == min(margins)

    def test_no_ascent_gets_more_than_a_block_of_rows(self, monkeypatch):
        from fidelion import fidelity

        rows = []
        real = fidelity._maximize_over_unitaries

        def recording(gram, d, restarts, seeds):
            rows.append(len(seeds) * restarts)
            return real(gram, d, restarts, seeds)

        monkeypatch.setattr(fidelity, "_maximize_over_unitaries", recording)
        theorems.run_suite("relent", 2 * theorems.BLOCK + 3, 4, restarts=2)
        assert rows == [2 * theorems.BLOCK, 2 * theorems.BLOCK, 2 * 3]


class TestCounterexample:
    def _forced(self, monkeypatch, suite, threshold):
        """Make the suite's first check fail exactly where a quantity of the
        state exceeds ``threshold``: the largest eigenvalue, or t1 for weyl."""
        if suite == "weyl":
            monkeypatch.setattr(
                theorems, "_weyl_observations",
                lambda t, q: [theorems._inequality("obs3", threshold - t[:, 0])],
            )
        else:
            monkeypatch.setitem(
                theorems._RANDOM_STATE_CHECKS, suite,
                lambda q: [theorems._inequality("lemma1", threshold - q.eig[:, -1])],
            )

    @pytest.mark.parametrize("suite", ["lemma1", "weyl"])
    def test_counterexample_is_the_first_failing_draw(self, suite, monkeypatch):
        samples, seed = 3 * theorems.BLOCK + 1, 8
        rng = np.random.default_rng(seed)
        if suite == "weyl":
            params, _ = _weyl_draws(rng, samples)
            states = [weyl_state(t) for t in params]
            value = np.array([t[0] for t in params])
        else:
            states = [_ginibre_draw(rng) for _ in range(samples)]
            value = np.array([rho.eigenvalues()[-1] for rho in states])
        # no failure in the first block, so the index maps across blocks
        threshold = value[: theorems.BLOCK + 1].max()
        failing = np.flatnonzero(value > threshold)
        assert failing.size and failing[0] > theorems.BLOCK
        self._forced(monkeypatch, suite, threshold)
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
