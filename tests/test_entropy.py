import numpy as np
import pytest

from fidelion import entropy
from fidelion.errors import InvalidAlphaError, SupportViolationError
from fidelion.fidelity import fidelity_optimize, r_quantity
from fidelion.states import (
    SUPPORT_EPS,
    DensityMatrix,
    decompose,
    random_density_matrix,
    schmidt_state,
)

MIXED_4 = DensityMatrix((2, 2), np.eye(4) / 4)
BELL = schmidt_state([0.5, 0.5])


def product_state(rho_a, rho_b, dims=(2, 2)):
    return DensityMatrix(dims, np.kron(rho_a, rho_b))


class TestVonNeumann:
    def test_pure(self):
        assert abs(entropy.von_neumann(BELL)) <= 1e-12

    def test_maximally_mixed(self):
        assert np.isclose(entropy.von_neumann(MIXED_4), 2.0)

    def test_half_mixed_product(self):
        rho = product_state(np.eye(2) / 2, np.diag([1.0, 0.0]))
        assert np.isclose(entropy.von_neumann(rho), 1.0)


class TestRenyi:
    def test_maximally_mixed_alpha2(self):
        assert np.isclose(entropy.renyi(MIXED_4, 2), 2.0)

    def test_pure_alpha2(self):
        assert abs(entropy.renyi(BELL, 2)) <= 1e-12

    def test_flat_spectrum_alpha_independent(self):
        rho = DensityMatrix((2, 2), np.diag([0.5, 0.5, 0.0, 0.0]))
        assert np.isclose(entropy.renyi(rho, 0.5), 1.0)
        assert np.isclose(entropy.renyi(rho, 3), 1.0)

    @pytest.mark.parametrize("alpha", [0.0, -1.0, 1.0])
    def test_invalid_alpha(self, alpha):
        with pytest.raises(InvalidAlphaError):
            entropy.renyi(MIXED_4, alpha)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf])
    @pytest.mark.parametrize(
        "functional",
        [entropy.renyi, entropy.conditional_renyi, entropy.tsallis, entropy.conditional_tsallis],
    )
    def test_non_finite_alpha(self, functional, alpha):
        # no silent nan: the alpha -> infinity limit has its own function
        with pytest.raises(InvalidAlphaError, match="min_entropy"):
            functional(random_density_matrix(2, 2, seed=1), alpha)

    @pytest.mark.parametrize(
        "functional", [entropy.renyi, entropy.conditional_renyi, entropy.conditional_tsallis]
    )
    def test_underflowing_power_sum(self, functional):
        # at alpha = 1e4 the power sums of this state fall below the smallest
        # normal float, where the log gave inf and the quotient nan
        with pytest.raises(InvalidAlphaError, match="min_entropy"):
            functional(random_density_matrix(2, 2, seed=1), 1e4)

    def test_large_alpha_where_no_power_sum_underflows(self):
        pure = schmidt_state([1.0, 0.0])
        for functional in (entropy.renyi, entropy.conditional_renyi, entropy.tsallis,
                           entropy.conditional_tsallis):
            assert abs(functional(pure, 1e6)) <= 1e-12
        # Tsallis takes no log and no quotient: its large-alpha limit is 1/(alpha - 1)
        rho = random_density_matrix(2, 2, seed=1)
        assert entropy.tsallis(rho, 1e4) == pytest.approx(1.0 / (1e4 - 1.0), rel=1e-12)

    def test_monotone_in_alpha(self):
        for seed in range(50):
            rho = random_density_matrix(2, 2, seed=seed)
            s_inf = entropy.min_entropy(rho)
            s2 = entropy.renyi(rho, 2)
            s1 = entropy.von_neumann(rho)
            assert s1 >= 0.0
            assert s_inf <= s2 + 1e-9
            assert s2 <= s1 + 1e-9


    def test_power_sums_add_the_support_alone(self):
        # rank-deficient spectra: the sum runs over the support in order, the
        # same for one spectrum and for each row of a stack (the von Neumann
        # sum too)
        rng = np.random.default_rng(4)
        for d in (3, 4):
            states = [random_density_matrix(d, d, rank=r, seed=rng) for r in range(1, d * d, 2)]
            for rho in states:
                lam = rho.eigenvalues()[rho.eigenvalues() > SUPPORT_EPS]
                assert entropy.renyi(rho, 2) == float(-np.log2(np.sum(lam**2)))
                assert entropy.tsallis(rho, 0.5) == float((np.sum(lam**0.5) - 1.0) / 0.5)
                assert entropy.von_neumann(rho) == float(-np.sum(lam * np.log2(lam)))
            stack = np.stack([rho.eigenvalues() for rho in states])
            assert np.array_equal(
                entropy._renyi(stack, 2), [entropy.renyi(rho, 2) for rho in states]
            )
            assert np.array_equal(
                entropy._shannon(stack), [entropy.von_neumann(rho) for rho in states]
            )


class TestNearAlphaOne:
    """Renyi and Tsallis sums within NEAR_ONE of alpha = 1 go through expm1
    and log1p; outside it they are the plain power sums."""

    FUNCTIONALS = {
        # the alpha -> 1 limit of each: von Neumann entropies, Tsallis in nats
        entropy.renyi: lambda rho: entropy.von_neumann(rho),
        entropy.conditional_renyi: lambda rho: entropy.conditional_von_neumann(rho),
        entropy.tsallis: lambda rho: entropy.von_neumann(rho) * np.log(2.0),
        entropy.conditional_tsallis: (
            lambda rho: entropy.conditional_von_neumann(rho) * np.log(2.0)),
    }

    @pytest.mark.parametrize("alpha", [1.0 - 2e-12, 1.0 + 2e-12])
    def test_von_neumann_limit(self, alpha):
        # the plain sums were off by about 1e-4 here: log2(Tr rho^alpha) is
        # a rounding error of 1e-16 divided by |1 - alpha|
        rho = random_density_matrix(2, 2, seed=1)
        for functional, limit in self.FUNCTIONALS.items():
            assert abs(functional(rho, alpha) - limit(rho)) <= 1e-9

    @pytest.mark.parametrize("cut", [1.0 - entropy.NEAR_ONE, 1.0 + entropy.NEAR_ONE])
    def test_both_sides_of_the_cut_agree(self, cut):
        rho = random_density_matrix(3, 3, seed=2)
        inside = np.nextafter(cut, 1.0)
        for functional in self.FUNCTIONALS:
            assert abs(functional(rho, inside) - functional(rho, cut)) <= 1e-13

    def test_alpha_two_takes_the_plain_sums(self):
        for seed in range(5):
            rho = random_density_matrix(2, 2, seed=seed)
            lam, lam_b = rho.eigenvalues(), rho.marginal_b_eigenvalues()
            p2, p2_b = np.sum(lam**2), np.sum(lam_b**2)
            assert entropy.tsallis(rho, 2) == float((p2 - 1.0) / (1 - 2))
            assert entropy.conditional_tsallis(rho, 2) == float((p2_b - p2) / ((2 - 1) * p2_b))
            assert entropy.conditional_renyi(rho, 2) == float(
                np.log2(p2) / (1 - 2) - np.log2(p2_b) / (1 - 2))


class TestConditionals:
    def test_bell_conditional_renyi2(self):
        assert np.isclose(entropy.conditional_renyi(BELL, 2), -1.0)

    def test_product_additivity(self):
        rho_a = np.diag([0.75, 0.25])
        rho = product_state(rho_a, np.eye(2) / 2)
        s2_a = -np.log2(0.75**2 + 0.25**2)
        assert np.isclose(entropy.conditional_renyi(rho, 2), s2_a)

    def test_maximally_mixed(self):
        assert np.isclose(entropy.conditional_renyi(MIXED_4, 2), 1.0)

    def test_pure_states_conditional_equals_minus_marginal(self):
        for seed in range(50):
            rho = random_density_matrix(2, 2, rank=1, seed=seed)
            s_b = entropy.von_neumann(
                DensityMatrix((1, 2), rho.marginal("B"))
            )
            assert abs(entropy.conditional_von_neumann(rho) + s_b) <= 1e-9


class TestMinEntropy:
    def test_bell(self):
        assert abs(entropy.min_entropy(BELL)) <= 1e-12
        assert np.isclose(entropy.conditional_min_entropy(BELL), -1.0)

    def test_maximally_mixed(self):
        assert np.isclose(entropy.min_entropy(MIXED_4), 2.0)
        assert np.isclose(entropy.conditional_min_entropy(MIXED_4), 1.0)

    def test_weyl_large_eigenvalue(self):
        from fidelion.states import weyl_state

        rho = weyl_state((0.8, -0.8, 0.8))  # lambda_max = (1 + 2.4)/4 = 0.85
        assert np.linalg.eigvalsh(rho.matrix)[-1] > 0.5
        assert entropy.min_entropy(rho) < 1.0


class TestTsallis:
    def test_pure(self):
        assert abs(entropy.tsallis(BELL, 2)) <= 1e-12

    def test_maximally_mixed(self):
        assert np.isclose(entropy.tsallis(MIXED_4, 2), 0.75)

    def test_single_qubit_mixed(self):
        rho = DensityMatrix((1, 2), np.eye(2) / 2)
        assert np.isclose(entropy.tsallis(rho, 2), 0.5)

    def test_conditional_bell(self):
        assert np.isclose(entropy.conditional_tsallis(BELL, 2), -1.0)

    def test_conditional_product_pure(self):
        assert abs(entropy.conditional_tsallis(schmidt_state([1.0, 0.0]), 2)) <= 1e-12

    def test_conditional_maximally_mixed(self):
        assert np.isclose(entropy.conditional_tsallis(MIXED_4, 2), 0.5)


class TestRelativeEntropy:
    def test_equal_states(self):
        assert abs(entropy.relative_entropy(MIXED_4, MIXED_4)) <= 1e-12

    def test_pure_vs_maximally_mixed(self):
        assert np.isclose(entropy.relative_entropy(BELL, MIXED_4), 2.0)

    def test_support_violation(self):
        sigma = DensityMatrix((1, 2), np.diag([1.0, 0.0]))
        rho = DensityMatrix((1, 2), np.diag([0.0, 1.0]))
        with pytest.raises(SupportViolationError):
            entropy.relative_entropy(sigma, rho)

    def test_klein_inequality_500_pairs(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            sigma = random_density_matrix(2, 2, rank=int(rng.integers(1, 5)), seed=rng)
            rho = random_density_matrix(2, 2, seed=rng)
            d = entropy.relative_entropy(sigma, rho)
            assert d >= -1e-9
            if d <= 1e-9:
                diff = sigma.matrix - rho.matrix
                tn = np.abs(np.linalg.eigvalsh((diff + diff.conj().T) / 2)).sum()
                assert tn <= 1e-4


class TestClosedForms:
    def test_maximally_mixed(self):
        bf = decompose(MIXED_4)
        assert np.isclose(entropy.renyi2_closed_form(bf), 2.0)
        assert np.isclose(entropy.conditional_renyi2_closed_form(bf), 1.0)
        assert np.isclose(entropy.tsallis2_closed_form(bf), 0.75)
        assert np.isclose(entropy.conditional_tsallis2_closed_form(bf), 0.25)

    def test_bell(self):
        bf = decompose(BELL)
        assert abs(entropy.renyi2_closed_form(bf)) <= 1e-12
        assert np.isclose(entropy.conditional_renyi2_closed_form(bf), -1.0)
        assert abs(entropy.tsallis2_closed_form(bf)) <= 1e-12
        assert np.isclose(entropy.conditional_tsallis2_closed_form(bf), -0.5)

    def test_closed_forms_match_spectral_200_states(self):
        for seed in range(200):
            rho = random_density_matrix(2, 2, seed=seed)
            bf = decompose(rho)
            assert abs(entropy.renyi2_closed_form(bf) - entropy.renyi(rho, 2)) <= 1e-9
            assert (
                abs(entropy.conditional_renyi2_closed_form(bf) - entropy.conditional_renyi(rho, 2))
                <= 1e-9
            )
            assert abs(entropy.tsallis2_closed_form(bf) - entropy.tsallis(rho, 2)) <= 1e-9

    def test_conditional_tsallis_linear_form_normalization(self):
        # the linear form is the quotient form times Tr(rho_B^2); on the
        # Bell state they differ (-1/2 vs -1), and the exact relation
        # holds for arbitrary states
        assert np.isclose(entropy.conditional_tsallis2_closed_form(decompose(BELL)), -0.5)
        assert np.isclose(entropy.conditional_tsallis(BELL, 2), -1.0)
        for seed in range(50):
            rho = random_density_matrix(2, 2, seed=seed)
            purity_b = float(np.trace(rho.marginal("B") @ rho.marginal("B")).real)
            linear = entropy.conditional_tsallis2_closed_form(decompose(rho))
            quotient = entropy.conditional_tsallis(rho, 2)
            assert abs(linear - quotient * purity_b) <= 1e-10


def test_entropy_summary_reports_methods():
    summary = entropy.entropy_summary(BELL)
    assert summary["S(AB)"].method == "spectral"
    assert summary["S2(AB) closed"].method == "closed-form"
    assert abs(summary["S(A|B)"].value + 1.0) <= 1e-9


def _count_solves(monkeypatch) -> dict:
    """Count ``numpy.linalg.eigh`` and ``eigvalsh`` calls by (function,
    trailing shape), so a stacked (k, n, n) solve counts too."""
    solves = {}
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counted(m, *args, _name=name, _original=original, **kwargs):
            key = (_name, np.shape(m)[-2:])
            solves[key] = solves.get(key, 0) + 1
            return _original(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return solves


def test_joint_state_is_not_diagonalized_again(monkeypatch):
    # every joint spectrum comes from the eigenvalues kept at construction,
    # the 2 x 2 B marginal is solved once, on first use, for all callers,
    # and each base-2 log takes one eigh: relative_entropy logs both states,
    # r_quantity one, and its exact two-qubit maximum takes one more
    rho = random_density_matrix(2, 2, seed=3)
    sigma = random_density_matrix(2, 2, seed=4)
    solves = _count_solves(monkeypatch)
    entropy.entropy_summary(rho)
    entropy.relative_entropy(sigma, rho)
    r_quantity(rho, restarts=1)
    assert solves == {("eigvalsh", (2, 2)): 1, ("eigh", (4, 4)): 4}


def test_spectra_take_no_eigenvectors(monkeypatch):
    # a full-rank state is validated on eigenvalues alone, and its entropies
    # solve no eigenvector; the one eigh is the exact two-qubit fidelity
    # maximization, on the real 4 x 4 form of the state
    solves = _count_solves(monkeypatch)
    rho = random_density_matrix(2, 2, seed=3)
    entropy.entropy_summary(rho)
    assert solves == {("eigvalsh", (4, 4)): 1, ("eigvalsh", (2, 2)): 1}
    fidelity_optimize(rho, restarts=2)
    assert solves == {("eigvalsh", (4, 4)): 1, ("eigvalsh", (2, 2)): 1, ("eigh", (4, 4)): 1}
