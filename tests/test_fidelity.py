import tracemalloc

import numpy as np
import pytest

from fidelion import classifiers, fidelity, theorems
from fidelion.channels import KrausChannel
from fidelion.errors import (
    DimensionMismatchError,
    InvalidParameterError,
    SupportViolationError,
    UnsupportedDimensionError,
)
from fidelion.linalg import partial_trace
from fidelion.states import (
    DensityMatrix,
    _log2_on_support,
    decompose,
    random_density_matrix,
    schmidt_state,
    weyl_spectrum,
    weyl_state,
)

BELL = schmidt_state([0.5, 0.5])
MIXED_4 = DensityMatrix((2, 2), np.eye(4) / 4)


def werner(w: float) -> DensityMatrix:
    return DensityMatrix((2, 2), w * BELL.matrix + (1 - w) * np.eye(4) / 4)


def haar_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


class TestTwoQubitClosedForm:
    def test_bell(self):
        assert np.isclose(fidelity.fidelity_two_qubit(BELL).value, 1.0)

    def test_maximally_mixed(self):
        assert np.isclose(fidelity.fidelity_two_qubit(MIXED_4).value, 0.25)

    def test_werner(self):
        # T = diag(w, -w, w), |T|_1 = 3w, F = (1 + 3w)/4
        assert np.isclose(fidelity.fidelity_two_qubit(werner(0.8)).value, 0.85)

    def test_dimension_check(self):
        with pytest.raises(DimensionMismatchError):
            fidelity.fidelity_two_qubit(random_density_matrix(3, 3, seed=0))

    def test_value_bounds(self):
        for seed in range(100):
            rho = random_density_matrix(2, 2, seed=seed)
            res = fidelity.fidelity_two_qubit(rho)
            assert res.value >= 0.25 - 1e-9
            assert res.value <= fidelity.fidelity_upper_bound(rho) + 1e-9

    def test_trace_norm_criterion(self):
        # |T|_1 > 1 iff F > 1/2
        from fidelion.states import decompose

        for seed in range(200):
            rho = random_density_matrix(2, 2, seed=seed)
            tn = np.linalg.svd(decompose(rho).t, compute_uv=False).sum()
            f = fidelity.fidelity_two_qubit(rho).value
            if abs(tn - 1.0) > 1e-9:
                assert (tn > 1.0) == (f > 0.5)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(9)
        for seed in range(25):
            rho = random_density_matrix(2, 2, seed=seed)
            u = haar_unitary(2, rng)
            v = haar_unitary(2, rng)
            uv = np.kron(u, v)
            rotated = DensityMatrix((2, 2), uv @ rho.matrix @ uv.conj().T)
            assert np.isclose(
                fidelity.fidelity_two_qubit(rotated).value,
                fidelity.fidelity_two_qubit(rho).value,
                atol=1e-9,
            )

    def test_convexity(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            r1 = random_density_matrix(2, 2, seed=rng)
            r2 = random_density_matrix(2, 2, seed=rng)
            f1 = fidelity.fidelity_two_qubit(r1).value
            f2 = fidelity.fidelity_two_qubit(r2).value
            for lam in (0.25, 0.5, 0.75):
                mix = DensityMatrix((2, 2), lam * r1.matrix + (1 - lam) * r2.matrix)
                f_mix = fidelity.fidelity_two_qubit(mix).value
                assert f_mix <= lam * f1 + (1 - lam) * f2 + 1e-8


def _pure(ket):
    ket = ket / np.linalg.norm(ket)
    return np.outer(ket, ket.conj())


def _spectrum_oracle_states():
    """Two-qubit states on which the one-eigensolve spectrum meets its
    edge cases: Hilbert-Schmidt states of ranks 1 to 4, a Weyl lattice
    (degenerate and zero singular values, det T > 0), Weyl states with
    |s3| down to 1e-14 turned by local unitaries, and pure and mixed
    product states."""
    rng = np.random.default_rng(22)
    states = [
        random_density_matrix(2, 2, rank=rank, seed=seed)
        for rank in (1, 2, 3, 4)
        for seed in range(25)
    ]
    axis = (-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0)
    lattice = np.array([(x, y, z) for x in axis for y in axis for z in axis])
    states += [weyl_state(t) for t in lattice[weyl_spectrum(lattice)[:, 0] >= 0.0]]
    for s3 in (1e-14, -1e-14, 1e-12, -1e-10, 1e-6, 0.2):
        rho = weyl_state([0.6, -0.3, s3])
        for _ in range(4):
            uv = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            states.append(DensityMatrix((2, 2), uv @ rho.matrix @ uv.conj().T))
    for _ in range(10):
        a, b = ([1, 1j] @ rng.normal(size=(2, 2)) for _ in range(2))
        states.append(DensityMatrix((2, 2), np.kron(_pure(a), _pure(b))))
        mixed = [random_density_matrix(2, 1, seed=rng).matrix for _ in range(2)]
        states.append(DensityMatrix((2, 2), np.kron(*mixed)))
    states += [schmidt_state([q, 1.0 - q]) for q in (0.5, 0.7, 0.99, 1.0)]
    return states


class TestTwoQubitSpectrum:
    """T's singular values and F from one real 4 x 4 eigensolve, against
    the SVD of T and the branch on the sign of det T."""

    STATES = _spectrum_oracle_states()

    def test_matches_svd_and_determinant_branch(self):
        for rho in self.STATES:
            t = decompose(rho).t
            s = np.linalg.svd(t, compute_uv=False)
            sign = 1.0 if np.linalg.det(t) <= 0 else -1.0
            sing, f = fidelity._two_qubit_spectrum(t)
            assert np.abs(sing - s).max() <= 1e-14
            assert abs(f - (1.0 + s[0] + s[1] + sign * s[2]) / 4.0) <= 1e-14

    def test_marginal_spectrum_matches_partial_trace(self):
        m = np.stack([rho.matrix for rho in self.STATES])
        eig_b = theorems._validated_qubits(m).eig_b
        expected = np.linalg.eigvalsh(partial_trace(m, (2, 2), "B"))
        assert np.abs(eig_b - expected).max() <= 1e-14

    def test_stack_rows_equal_single_states_bitwise(self):
        stack = np.stack([decompose(rho).t for rho in self.STATES])
        sing, f = fidelity._two_qubit_spectrum(stack)
        assert sing.shape == (len(stack), 3) and f.shape == (len(stack),)
        for row, t in enumerate(stack):
            alone_sing, alone_f = fidelity._two_qubit_spectrum(t)
            assert np.array_equal(alone_sing, sing[row]) and alone_f == f[row]
            one_sing, one_f = fidelity._two_qubit_spectrum(t[None])
            assert np.array_equal(one_sing[0], sing[row]) and one_f[0] == f[row]


class TestOptimizer:
    def test_matches_closed_form(self):
        for seed in range(25):
            rho = random_density_matrix(2, 2, seed=seed)
            res = fidelity.fidelity_optimize(rho, restarts=20, seed=42)
            assert abs(res.value - fidelity.fidelity_two_qubit(rho).value) <= 1e-12
            assert res.value <= res.upper + 1e-8

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_maximally_entangled(self, d):
        rho = schmidt_state(np.full(d, 1.0 / d))
        res = fidelity.fidelity_optimize(rho, restarts=3, seed=1)
        assert abs(res.value - 1.0) <= 1e-8

    def test_maximally_mixed_qutrit(self):
        rho = DensityMatrix((3, 3), np.eye(9) / 9)
        res = fidelity.fidelity_optimize(rho, restarts=3, seed=1)
        assert abs(res.value - 1.0 / 9.0) <= 1e-8

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(12)
        for seed in (0, 1):
            rho = random_density_matrix(2, 2, seed=seed)
            uv = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
            rotated = DensityMatrix((2, 2), uv @ rho.matrix @ uv.conj().T)
            f0 = fidelity.fidelity_optimize(rho, restarts=10, seed=3).value
            f1 = fidelity.fidelity_optimize(rotated, restarts=10, seed=3).value
            assert abs(f0 - f1) <= 1e-6

    def test_result_trace_fields(self):
        res = fidelity.fidelity_optimize(random_density_matrix(3, 3, seed=0), restarts=5, seed=0)
        assert res.method == "optimized"
        assert res.restarts == 5
        assert res.iterations > 0
        assert res.best_unitary.shape == (3, 3)
        # two qubits are maximized exactly, without a polar step
        res = fidelity.fidelity_optimize(BELL, restarts=5, seed=0)
        assert res.method == "quaternion"
        assert res.value == res.upper
        assert res.iterations == 0
        assert res.best_unitary.shape == (2, 2)

    @pytest.mark.parametrize("d", [3, 4])
    def test_pure_states_match_schmidt_formula(self, d):
        # F = (sum_i sqrt q_i)^2 / d for a pure state with Schmidt vector q,
        # whatever local unitaries U_A (x) U_B act on it
        rng = np.random.default_rng(d)
        for _ in range(5):
            q = rng.dirichlet(np.ones(d))
            uv = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
            rho = DensityMatrix((d, d), uv @ schmidt_state(q).matrix @ uv.conj().T)
            res = fidelity.fidelity_optimize(rho, restarts=20, seed=5)
            assert abs(res.value - np.sqrt(q).sum() ** 2 / d) <= 1e-10
            u = res.best_unitary
            assert np.abs(u @ u.conj().T - np.eye(d)).max() <= 1e-12
            v = u.ravel()
            assert abs(np.vdot(v, rho.matrix @ v).real / d - res.value) <= 1e-12

    def test_accepts_any_numpy_seed(self):
        rho = random_density_matrix(3, 3, seed=8)
        seeds = (7, np.random.SeedSequence(7), np.random.default_rng(7))
        results = [fidelity.fidelity_optimize(rho, restarts=3, seed=s) for s in seeds]
        for res in results:
            assert res.value <= res.upper + 1e-12
            assert res.best_unitary.shape == (3, 3)
        again = fidelity.fidelity_optimize(rho, restarts=3, seed=7)
        assert again.value == results[0].value
        assert np.array_equal(again.best_unitary, results[0].best_unitary)

    def test_rejects_rectangular(self):
        with pytest.raises(DimensionMismatchError):
            fidelity.fidelity_optimize(random_density_matrix(2, 3, seed=0))


class TestTwoQubitExact:
    """At d = 2 the maximum over unitaries is one real 4 x 4 eigenvalue."""

    STATES = [random_density_matrix(2, 2, seed=s) for s in range(300)]

    def test_matches_closed_form(self):
        for rho in self.STATES:
            res = fidelity.fidelity_optimize(rho)
            assert abs(res.value - fidelity.fidelity_two_qubit(rho).value) <= 1e-14
            assert res.value == res.upper

    def test_positive_determinant_branch(self):
        # det T > 0, where the plain trace norm (1 + |T|_1)/4 = 0.475 is wrong
        rho = weyl_state([0.3, 0.3, 0.3])
        t = decompose(rho).t
        assert np.linalg.det(t) > 0
        sing, closed = fidelity._two_qubit_spectrum(t)
        assert np.abs(sing - 0.3).max() <= 1e-14
        value = fidelity.fidelity_optimize(rho).value
        assert abs(value - closed) <= 1e-14 and abs(value - 0.325) <= 1e-14

    def test_best_unitary_is_unitary_and_attains_the_value(self):
        for rho in self.STATES:
            res = fidelity.fidelity_optimize(rho)
            u = res.best_unitary
            assert np.abs(u @ u.conj().T - np.eye(2)).max() <= 1e-12
            v = u.ravel()
            assert abs(np.vdot(v, rho.matrix @ v).real / 2 - res.value) <= 1e-12

    @pytest.mark.parametrize("objective", ["rho", "-log2 rho"])
    def test_no_ascent_restart_beats_the_eigenvalue(self, objective):
        m = np.stack([rho.matrix for rho in self.STATES[:60]])
        if objective == "-log2 rho":
            m = -_log2_on_support(m)[0]
        exact = fidelity._max_fixed(m, 2, 1, range(len(m)))[0]
        for j in range(len(m)):
            # the best of 20 restarts is at least each of them
            ascent = fidelity._maximize_over_unitaries(
                fidelity._fixed(m[j : j + 1], 20), 2, 20, [1]
            )[0][0]
            assert exact[j] >= ascent - 1e-13

    def test_restarts_below_one_are_rejected_at_every_d(self):
        for d in (2, 3, 4):
            rho = random_density_matrix(d, d, seed=0)
            with pytest.raises(InvalidParameterError):
                fidelity.fidelity_optimize(rho, restarts=0)
            with pytest.raises(InvalidParameterError):
                fidelity.r_quantity(rho, restarts=0)


    def test_restarts_past_the_bound_are_rejected_at_every_d(self):
        for d in (2, 3, 4):
            rho = random_density_matrix(d, d, seed=0)
            with pytest.raises(InvalidParameterError, match="at most"):
                fidelity.fidelity_optimize(rho, restarts=fidelity.MAX_RESTARTS + 1)
            with pytest.raises(InvalidParameterError, match="at most"):
                fidelity.r_quantity(rho, restarts=fidelity.MAX_RESTARTS + 1)


class TestUpperBound:
    def test_tight_cases(self):
        assert np.isclose(fidelity.fidelity_upper_bound(BELL), 1.0)
        assert np.isclose(fidelity.fidelity_upper_bound(MIXED_4), 0.25)

    def test_dominates_closed_form(self):
        for seed in range(100):
            rho = random_density_matrix(2, 2, seed=seed)
            assert (
                fidelity.fidelity_two_qubit(rho).value
                <= fidelity.fidelity_upper_bound(rho) + 1e-9
            )


class TestWitness:
    def test_qutrit_values(self):
        w = fidelity.teleportation_witness(3)
        mixed = DensityMatrix((3, 3), np.eye(9) / 9)
        assert np.isclose(fidelity.witness_value(w, mixed), 2.0 / 9.0)
        ent = schmidt_state([1 / 3, 1 / 3, 1 / 3])
        assert np.isclose(fidelity.witness_value(w, ent), -2.0 / 3.0)

    def test_nonnegative_on_separable_products(self):
        w = fidelity.teleportation_witness(2)
        rng = np.random.default_rng(2)
        for _ in range(100):
            ka = rng.normal(size=2) + 1j * rng.normal(size=2)
            kb = rng.normal(size=2) + 1j * rng.normal(size=2)
            ka /= np.linalg.norm(ka)
            kb /= np.linalg.norm(kb)
            ket = np.kron(ka, kb)
            sigma = DensityMatrix((2, 2), np.outer(ket, ket.conj()))
            assert fidelity.witness_value(w, sigma) >= -1e-10

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            fidelity.teleportation_witness(5)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            fidelity.witness_value(fidelity.teleportation_witness(3), BELL)


class TestRQuantity:
    def test_maximally_mixed(self):
        # -Tr[log2(I/4) sigma] = 2 for every sigma
        assert abs(fidelity.r_quantity(MIXED_4, restarts=2, seed=0) - 2.0) <= 1e-10

    def test_rejects_rank_deficient(self):
        with pytest.raises(SupportViolationError):
            fidelity.r_quantity(BELL)

    def test_lower_bounded_by_minus_fidelity(self):
        rho = werner(0.8)  # full rank
        r = fidelity.r_quantity(rho, restarts=4, seed=0)
        f = fidelity.fidelity_optimize(rho, restarts=4, seed=0).value
        assert r >= -f - 1e-8

    def test_epsilon_bell_mixture(self):
        rho = werner(0.8)
        r = fidelity.r_quantity(rho, restarts=4, seed=1)
        f = fidelity.fidelity_two_qubit(rho).value
        assert r >= -f - 1e-8


def reference_ascent(gram, d, restarts, seed):
    """The polar ascent one restart at a time, with the rules of the stacked
    one: rounds cycle through two plain polar steps and one SQUAREM step, a
    step is kept only if it gains, and a restart stops once a plain step
    gains at most ``STEP_GAIN_TOL`` or after ``MAX_STEPS`` projections.
    Returns the best value (first maximum in restart order), its restart,
    its unitary and the projections of each restart."""
    rng = np.random.default_rng(seed)
    best_val, best_r, best_x, steps = -np.inf, None, None, []
    for r in range(restarts):
        x = (np.eye(d, dtype=complex) if r == 0 else haar_unitary(d, rng)).ravel()
        row = np.array([r])
        g = gram(row, x[None])[0] @ x
        value = np.vdot(x, g).real / d
        n = 0
        while n < fidelity.MAX_STEPS:
            stage = n % 3
            if stage == 0:
                x0 = x
            elif stage == 1:
                x1 = x
            if stage == 2:
                rr, v = x1 - x0, x - 2 * x1 + x0
                # the norms are reduced as the stacked ascent reduces a row
                norm_r, norm_v = (np.sqrt((z.conj() * z).real.sum()) for z in (rr, v))
                a = min(-norm_r / norm_v, -1.0) if norm_v > 0 else -1.0
                target = x0 - 2 * a * rr + a * a * v
            else:
                target = g
            w, _, vh = np.linalg.svd(target.reshape(d, d))
            x_next = (w @ vh).ravel()
            g_next = gram(row, x_next[None])[0] @ x_next
            next_value = np.vdot(x_next, g_next).real / d
            n += 1
            gain = next_value - value
            if gain > 0:
                x, g, value = x_next, g_next, next_value
            if stage < 2 and gain <= fidelity.STEP_GAIN_TOL:
                break
        steps.append(n)
        if value > best_val:
            best_val, best_r, best_x = value, r, x
    return best_val, best_r, best_x.reshape(d, d), steps


def random_channel(d, seed):
    """A random two-Kraus channel on a qudit."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(2, d, d)) + 1j * rng.normal(size=(2, d, d))
    w, v = np.linalg.eigh(sum(x.conj().T @ x for x in a))
    inv_sqrt = v @ np.diag(w**-0.5) @ v.conj().T
    return KrausChannel(d, d, [x @ inv_sqrt for x in a])


class TestStackedAscent:
    @pytest.mark.parametrize("restarts", [1, 7])
    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_fixed_objective_matches_reference_loop(self, d, restarts):
        # the ascent is called directly: at d = 2 fidelity_optimize is exact
        # and ascends no more, while user FAC2 still ascends there
        for seed in range(3):
            rho = random_density_matrix(d, d, seed=10 * d + seed)
            gram = fidelity._fixed(rho.matrix[None], restarts)
            values, unitaries, steps = fidelity._maximize_over_unitaries(
                gram, d, restarts, [seed]
            )
            ref_value, _, ref_u, ref_steps = reference_ascent(gram, d, restarts, seed)
            assert abs(values[0] - ref_value) <= 1e-12
            assert np.abs(unitaries[0] - ref_u).max() <= 1e-12
            assert steps[0] == sum(ref_steps)
            if d > 2:
                res = fidelity.fidelity_optimize(rho, restarts=restarts, seed=seed)
                assert res.value == values[0] and res.iterations == steps[0]
                assert np.array_equal(res.best_unitary, unitaries[0])

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_user_fac2_callback_matches_reference_loop(self, d, monkeypatch):
        calls = []
        real = classifiers._maximize_over_unitaries

        def recording(gram, d_out, restarts, seeds):
            out = real(gram, d_out, restarts, seeds)
            calls.append((gram, d_out, restarts, seeds, out))
            return out

        monkeypatch.setattr(classifiers, "_maximize_over_unitaries", recording)
        classifiers.certify("FAC2", "user-kraus", 0.0, channel=random_channel(d, d), restarts=3,
                            seed=1)
        ((gram, d_out, restarts, seeds, (values, unitaries, steps)),) = calls
        ref_value, _, ref_u, ref_steps = reference_ascent(gram, d_out, restarts, seeds[0])
        assert abs(values[0] - ref_value) <= 1e-12
        assert np.abs(unitaries[0] - ref_u).max() <= 1e-12
        assert steps[0] == sum(ref_steps)

    def test_ties_go_to_the_first_restart(self):
        # the zero objective is 0 at every unitary: all restarts tie exactly,
        # take no step, and the identity start of restart 0 is kept
        d, restarts = 3, 5
        gram = fidelity._fixed(np.zeros((1, 9, 9), dtype=complex), restarts)
        values, unitaries, steps = fidelity._maximize_over_unitaries(gram, d, restarts, [4])
        assert values[0] == 0.0 and steps[0] == restarts
        assert reference_ascent(gram, d, restarts, 4)[1] == 0
        assert np.array_equal(unitaries[0], np.eye(d))

    @pytest.mark.parametrize("restarts", [1, 3])
    def test_objectives_stacked_together_equal_each_alone(self, restarts):
        states = [random_density_matrix(3, 3, seed=s) for s in range(4)]
        m = np.stack([rho.matrix for rho in states])
        seeds = [11, 12, 13, 14]
        together = fidelity._maximize_over_unitaries(
            fidelity._fixed(m, restarts), 3, restarts, seeds
        )
        for j, seed in enumerate(seeds):
            alone = fidelity._maximize_over_unitaries(
                fidelity._fixed(m[j : j + 1], restarts), 3, restarts, [seed]
            )
            for a, b in zip(together, alone):
                assert np.array_equal(a[j], b[0])

    def test_one_objective_holds_no_per_row_copy(self):
        # 2 000 copies of a 16 x 16 complex matrix are 8.2 MB; one objective
        # must reach every row by broadcasting, not by a copy per row
        rho = random_density_matrix(4, 4, seed=3)
        tracemalloc.start()
        try:
            fidelity.fidelity_optimize(rho, restarts=2000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6e6

    def test_a_row_at_max_steps_stops_alone(self, monkeypatch):
        # restarts=1 makes each objective one row, so projections come per row
        states = [random_density_matrix(4, 4, seed=s) for s in range(1, 7)]
        m = np.stack([rho.matrix for rho in states])
        free = [reference_ascent(fidelity._fixed(m[j : j + 1], 1), 4, 1, 0)[3][0]
                for j in range(len(states))]
        cap = max(free) - 1
        assert sorted(free)[-2] < cap  # exactly one row reaches the cap
        monkeypatch.setattr(fidelity, "MAX_STEPS", cap)
        values, _, steps = fidelity._maximize_over_unitaries(
            fidelity._fixed(m, 1), 4, 1, [0] * len(states)
        )
        assert list(steps) == [min(n, cap) for n in free]
        for j in range(len(states)):
            ref_value = reference_ascent(fidelity._fixed(m[j : j + 1], 1), 4, 1, 0)[0]
            assert abs(values[j] - ref_value) <= 1e-12


class TestExtrapolatedAscent:
    """The extrapolated step reaches at least what plain polar steps reach,
    and degenerate objectives pass through it without a warning."""

    @pytest.mark.parametrize("d", [3, 4])
    def test_reaches_the_plain_ascent(self, d, plain_ascent):
        for seed in range(100, 106):
            rho = random_density_matrix(d, d, seed=seed)
            res = fidelity.fidelity_optimize(rho, restarts=20, seed=1)
            plain = plain_ascent(fidelity._fixed(rho.matrix[None], 20), d, 20, [1])[0]
            assert res.value >= plain - 1e-12

    @pytest.mark.filterwarnings("error")
    def test_degenerate_objectives_raise_no_warning(self):
        with np.errstate(all="raise"):
            # the zero objective: every restart ties and restart 0 is kept
            gram = fidelity._fixed(np.zeros((1, 9, 9), dtype=complex), 5)
            values, unitaries, _ = fidelity._maximize_over_unitaries(gram, 3, 5, [4])
            assert values[0] == 0.0 and np.array_equal(unitaries[0], np.eye(3))
            mixed = DensityMatrix((3, 3), np.eye(9) / 9)
            assert abs(fidelity.fidelity_optimize(mixed, restarts=5).value - 1 / 9) <= 1e-12
            # pure states, where successive iterates stop moving
            for d in (3, 4):
                q = np.random.default_rng(d).dirichlet(np.ones(d))
                res = fidelity.fidelity_optimize(schmidt_state(q), restarts=5)
                assert abs(res.value - np.sqrt(q).sum() ** 2 / d) <= 1e-10

    @pytest.mark.filterwarnings("error")
    def test_extrapolation_on_exact_sequences(self):
        with np.errstate(all="raise"):
            x0 = np.array([[0.0, 2.0], [1.0, 1.0], [0.0, 0.0]], dtype=complex)
            x1 = np.array([[1.0, 1.0], [2.0, 1.0], [0.0, 0.0]], dtype=complex)
            x2 = np.array([[1.5, 0.5], [3.0, 1.0], [0.0, 0.0]], dtype=complex)
            y = fidelity._extrapolate(x0.copy(), x1, x2)
        # a geometric sequence of ratio 1/2 (a = -2) lands on its limit; on a
        # line (v = 0) and at rest (r = v = 0) a is -1, which gives x2
        assert np.array_equal(y, [[2.0, 0.0], [3.0, 1.0], [0.0, 0.0]])


class TestWorkCount:
    """One stacked SVD per round of the ascent, whatever the restarts."""

    def _counting_svd(self, monkeypatch):
        calls = []
        real = np.linalg.svd

        def svd(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(fidelity.np.linalg, "svd", svd)
        return calls

    def test_fidelity_optimize_takes_one_svd_per_round(self, monkeypatch):
        rho = random_density_matrix(4, 4, seed=21)
        _, _, _, ref_steps = reference_ascent(fidelity._fixed(rho.matrix[None], 20), 4, 20, 42)
        calls = self._counting_svd(monkeypatch)
        res = fidelity.fidelity_optimize(rho, restarts=20, seed=42)
        assert res.iterations == sum(ref_steps)
        assert len(calls) == max(ref_steps) < sum(ref_steps)

    def test_relent_suite_takes_one_ascent(self, monkeypatch):
        from fidelion import theorems

        # at most one ascent for the whole suite; at d = 2 the maximum is
        # exact, so that ascent takes no polar round and no SVD
        calls = self._counting_svd(monkeypatch)
        maxima = []
        real = fidelity._max_fixed

        def recording(m, d, restarts, seeds):
            out = real(m, d, restarts, seeds)
            maxima.append(out[2])
            return out

        monkeypatch.setattr(fidelity, "_max_fixed", recording)
        theorems.run_suite("relent", 12, 7)
        assert len(maxima) == 1 and len(maxima[0]) == 12
        assert not maxima[0].any()
        assert len(calls) == 0
