import numpy as np
import pytest

from fidelion import theorems
from fidelion.states import DensityMatrix, random_density_matrix, schmidt_state

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
