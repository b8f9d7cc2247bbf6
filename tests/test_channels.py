import numpy as np
import pytest

from fidelion import channels
from fidelion.errors import DimensionMismatchError, InvalidParameterError, ParseError
from fidelion.fidelity import fidelity_optimize, teleportation_witness, witness_value
from fidelion.states import DensityMatrix, random_density_matrix, schmidt_state

BELL = schmidt_state([0.5, 0.5])


def single(d, mat):
    return DensityMatrix((1, d), mat)


class TestKrausChannel:
    def test_trace_preservation_enforced(self):
        with pytest.raises(InvalidParameterError):
            channels.KrausChannel(2, 2, (np.eye(2) * 0.5,))
        # the whole Kraus set counts: sum K^dag K = (1 + eps) I is kept up to
        # eps = 1e-10
        ops = channels.depolarizing(3, 0.4).ops
        channels.KrausChannel(3, 3, np.sqrt(1.0 + 5e-11) * ops)
        with pytest.raises(InvalidParameterError):
            channels.KrausChannel(3, 3, np.sqrt(1.0 + 2e-10) * ops)

    def test_needs_an_operator(self):
        with pytest.raises(InvalidParameterError):
            channels.KrausChannel(2, 2, ())

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_entries_rejected(self, entry):
        # nan > tol is False, so only an explicit check keeps these out
        k = np.eye(2, dtype=complex)
        k[0, 0] = entry
        with pytest.raises(InvalidParameterError, match="finite"):
            channels.KrausChannel(2, 2, (k,))

    def test_operators_are_one_read_only_stack(self):
        ops = [np.eye(2, dtype=complex) / np.sqrt(2), np.diag([1, -1]).astype(complex) / np.sqrt(2)]
        chan = channels.KrausChannel(2, 2, ops)
        assert chan.ops.shape == (2, 2, 2)
        assert not chan.ops.flags.writeable
        assert all(k.flags.writeable for k in ops)

    def test_depolarizing_is_unital(self):
        for d, p in ((2, 0.3), (3, 0.7)):
            out = channels.apply(channels.depolarizing(d, p), single(d, np.eye(d) / d))
            assert np.abs(out.matrix - np.eye(d) / d).max() <= 1e-10


class TestDepolarizing:
    def test_parameter_validation(self):
        with pytest.raises(InvalidParameterError):
            channels.depolarizing(5, 0.5)
        with pytest.raises(InvalidParameterError):
            channels.depolarizing(2, 1.5)

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_superoperator_is_real_and_matches_definition(self, d):
        # S = sum_k K (x) conj(K) acts on row-major vec(X); the definition is
        # S = p I + ((1-p)/d) vec(I) vec(I)^T, and every Kraus operator is real
        vec_i = np.eye(d).reshape(-1)
        for p in np.linspace(0.0, 1.0, 101):
            k = channels.depolarizing(d, p).ops
            s = np.einsum("kai,kbj->abij", k, k.conj()).reshape(d * d, d * d)
            assert not s.imag.any()
            expected = p * np.eye(d * d) + (1 - p) / d * np.outer(vec_i, vec_i)
            assert np.abs(s - expected).max() <= 1e-15

    def test_p_one_is_identity(self):
        chan = channels.depolarizing(2, 1.0)
        rho = random_density_matrix(1, 2, seed=3)
        out = channels.apply(chan, rho)
        assert np.abs(out.matrix - rho.matrix).max() <= 1e-12

    def test_p_zero_is_constant(self):
        chan = channels.depolarizing(3, 0.0)
        rho = random_density_matrix(1, 3, seed=4)
        out = channels.apply(chan, rho)
        assert np.abs(out.matrix - np.eye(3) / 3).max() <= 1e-12

    def test_half_depolarized_ground_state(self):
        chan = channels.depolarizing(2, 0.5)
        out = channels.apply(chan, single(2, np.diag([1.0, 0.0])))
        assert np.abs(out.matrix - np.diag([0.75, 0.25])).max() <= 1e-12

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_affine_action_on_random_inputs(self, d):
        rng = np.random.default_rng(d)
        for _ in range(20):
            p = rng.uniform()
            chan = channels.depolarizing(d, p)
            rho = random_density_matrix(1, d, seed=rng)
            out = channels.apply(chan, rho)
            expected = p * rho.matrix + (1 - p) * np.eye(d) / d
            assert np.abs(out.matrix - expected).max() <= 1e-10


class TestApply:
    def test_one_sided_identity_action(self):
        out = channels.apply_one_sided(channels.depolarizing(2, 1.0), BELL, side="B")
        assert np.abs(out.matrix - BELL.matrix).max() <= 1e-12

    def test_two_local_output_matches_closed_form_matrix(self):
        # the closed-form matrix is an independent route against the
        # Kraus simulation; a regression in either shows up entrywise
        chan = {}
        max_dev = 0.0
        for p in np.linspace(0, 1, 21):
            chan[p] = channels.depolarizing(2, p)
            for q0 in np.linspace(0, 1, 21):
                out = channels.apply_two_local(chan[p], chan[p], schmidt_state([q0, 1 - q0]))
                analytic = channels.two_local_depol_output(p, q0)
                max_dev = max(max_dev, np.abs(out.matrix - analytic).max())
        assert max_dev <= 1e-12

    def test_one_sided_output_matches_closed_form_matrix(self):
        max_dev = 0.0
        for p in np.linspace(0, 1, 21):
            chan = channels.depolarizing(2, p)
            for q0 in np.linspace(0, 1, 21):
                out = channels.apply_one_sided(chan, schmidt_state([q0, 1 - q0]), side="B")
                analytic = channels.one_sided_depol_output(p, q0)
                max_dev = max(max_dev, np.abs(out.matrix - analytic).max())
        assert max_dev <= 1e-12

    def test_outputs_are_valid_states(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            d = int(rng.integers(2, 4))
            p = rng.uniform()
            rho = random_density_matrix(d, d, seed=rng)
            out = channels.apply_one_sided(channels.depolarizing(d, p), rho, side="B")
            # construction validates Hermiticity, trace, and positivity
            assert abs(np.trace(out.matrix).real - 1.0) <= 1e-12

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            channels.apply_one_sided(channels.depolarizing(3, 0.5), BELL, side="B")


def random_channel(d_in, d_out, n, rng):
    """Kraus blocks of a random isometry C^d_in -> C^(n d_out)."""
    g = rng.normal(size=(n * d_out, d_in)) + 1j * rng.normal(size=(n * d_out, d_in))
    v, _ = np.linalg.qr(g)
    return channels.KrausChannel(d_in, d_out, tuple(v.reshape(n, d_out, d_in)))


def kraus_sum(ops, m):
    return sum(k @ m @ k.conj().T for k in ops)


class TestKernelOracle:
    # non-square, non-unital Kraus operators: a transposed or conjugated
    # Kraus index in the kernel shows up here, unlike on depolarizing maps
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_explicit_kron_sums(self, d):
        rng = np.random.default_rng(10 + d)
        d_out = 3 if d == 2 else 2
        n1 = random_channel(d, d_out, 3, rng)
        n2 = random_channel(d, d + 1, 2, rng)
        eye = np.eye(d)

        rho = random_density_matrix(1, d, seed=rng)
        out = channels.apply(n1, rho)
        assert out.dims == (1, d_out)
        assert np.abs(out.matrix - kraus_sum(n1.ops, rho.matrix)).max() <= 1e-12

        rho = random_density_matrix(d, d, seed=rng)
        out = channels.apply_one_sided(n1, rho, side="B")
        assert out.dims == (d, d_out)
        expected = kraus_sum([np.kron(eye, k) for k in n1.ops], rho.matrix)
        assert np.abs(out.matrix - expected).max() <= 1e-12

        out = channels.apply_one_sided(n1, rho, side="A")
        assert out.dims == (d_out, d)
        expected = kraus_sum([np.kron(k, eye) for k in n1.ops], rho.matrix)
        assert np.abs(out.matrix - expected).max() <= 1e-12

        out = channels.apply_two_local(n1, n2, rho)
        assert out.dims == (d_out, d + 1)
        expected = kraus_sum([np.kron(k1, k2) for k1 in n1.ops for k2 in n2.ops], rho.matrix)
        assert np.abs(out.matrix - expected).max() <= 1e-12


    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_kernel_matches_kron_oracle(self, d):
        # the kernel itself against sum_k (K_k (x) I) m (K_k (x) I)^dag or
        # (I (x) K_k) m (I (x) K_k)^dag, on single and stacked operands, with
        # d_out != d_in and the adjoint stack K^dag (not trace preserving)
        rng = np.random.default_rng(30 + d)
        d_out = d + 1
        ops = random_channel(d, d_out, 3, rng).ops
        adjoint = np.swapaxes(ops, 1, 2).conj()
        other = 2
        for k in (ops, adjoint):
            acted = k.shape[2]
            for side in ("A", "B"):
                dims = (acted, other) if side == "A" else (other, acted)
                eye = np.eye(other)
                lifted = [np.kron(op, eye) if side == "A" else np.kron(eye, op) for op in k]
                stack = np.stack([random_density_matrix(*dims, seed=rng).matrix for _ in range(4)])
                out = channels._act_on_factor(k, stack, dims, side)
                for row, m in zip(out, stack):
                    assert np.abs(row - kraus_sum(lifted, m)).max() <= 1e-13
                single = channels._act_on_factor(k, stack[0], dims, side)
                assert np.abs(single - kraus_sum(lifted, stack[0])).max() <= 1e-13

    @pytest.mark.parametrize("d", [2, 3, 4])
    def test_stack_equals_one_matrix_at_a_time(self, d):
        # both sides, d_out != d_in, and the adjoint stack K^dag (d_in x d_out
        # operators, not trace preserving) acting on its d_out-sized factor
        rng = np.random.default_rng(20 + d)
        d_out = d + 1
        ops = random_channel(d, d_out, 3, rng).ops
        adjoint = np.swapaxes(ops, 1, 2).conj()
        cases = [(ops, (d, d), "A"), (ops, (d, d), "B"), (ops, (d, 2), "A"),
                 (ops, (2, d), "B"), (adjoint, (d_out, d), "A"), (adjoint, (d, d_out), "B")]
        for k, dims, side in cases:
            n = dims[0] * dims[1]
            stack = np.stack([random_density_matrix(*dims, seed=rng).matrix for _ in range(5)])
            out = channels._act_on_factor(k, stack.reshape(5, 1, n, n), dims, side)
            assert out.shape[:2] == (5, 1)
            for row, m in zip(out[:, 0], stack):
                assert np.array_equal(row, channels._act_on_factor(k, m, dims, side))


class TestComposeAndMix:
    def test_compose_with_identity(self):
        chan = channels.depolarizing(2, 0.4)
        comp = channels.compose(channels.unitary_channel(np.eye(2)), chan)
        rho = random_density_matrix(1, 2, seed=0)
        assert np.abs(
            channels.apply(comp, rho).matrix - channels.apply(chan, rho).matrix
        ).max() <= 1e-12

    def test_compose_depolarizing_multiplies_p(self):
        comp = channels.compose(channels.depolarizing(2, 0.6), channels.depolarizing(2, 0.5))
        expected = channels.depolarizing(2, 0.3)
        rng = np.random.default_rng(1)
        for _ in range(10):
            rho = random_density_matrix(1, 2, seed=rng)
            assert np.abs(
                channels.apply(comp, rho).matrix - channels.apply(expected, rho).matrix
            ).max() <= 1e-10

    def test_mix_extremes(self):
        n1 = channels.depolarizing(2, 0.2)
        n2 = channels.depolarizing(2, 0.9)
        rho = random_density_matrix(1, 2, seed=2)
        full = channels.convex_mix(1.0, n1, n2)
        assert np.abs(
            channels.apply(full, rho).matrix - channels.apply(n1, rho).matrix
        ).max() <= 1e-12

    def test_mix_of_depolarizing_is_depolarizing(self):
        mix = channels.convex_mix(0.5, channels.depolarizing(2, 0.2), channels.depolarizing(2, 0.8))
        expected = channels.depolarizing(2, 0.5)
        rho = random_density_matrix(1, 2, seed=5)
        assert np.abs(
            channels.apply(mix, rho).matrix - channels.apply(expected, rho).matrix
        ).max() <= 1e-10


class TestClosedFormFidelities:
    def test_two_local_values(self):
        assert abs(channels.depol_2local_fidelity(1 / np.sqrt(3), 0.5) - 0.5) <= 1e-12
        assert channels.depol_2local_fidelity(0.0, 0.3) == 0.25
        assert np.isclose(channels.depol_2local_fidelity(0.5, 0.5), 0.4375)

    def test_fbc_values(self):
        assert abs(channels.depol_fbc_fidelity(1 / 3, 0.5) - 0.5) <= 1e-12
        assert np.isclose(channels.depol_fbc_fidelity(1.0, 0.5), 1.0)
        expected = (1 + 0.2 + 0.8 * np.sqrt(0.1875)) / 4
        assert np.isclose(channels.depol_fbc_fidelity(0.2, 0.25), expected)

    @pytest.mark.parametrize("formula,applier", [
        (channels.depol_2local_fidelity, "two_local"),
        (channels.depol_fbc_fidelity, "one_sided"),
    ])
    def test_formulas_match_simulation_on_grid(self, formula, applier):
        for p in np.linspace(0, 1, 21):
            chan = channels.depolarizing(2, p)
            for q0 in np.linspace(0, 1, 21):
                rho = schmidt_state([q0, 1 - q0])
                if applier == "two_local":
                    out = channels.apply_two_local(chan, chan, rho)
                else:
                    out = channels.apply_one_sided(chan, rho, side="B")
                assert abs(formula(p, q0) - fidelity_optimize(out).value) <= 1e-9


class TestQutritWitness:
    def test_formula_values(self):
        assert abs(channels.qutrit_witness_min(0.5)) <= 1e-15
        assert np.isclose(channels.qutrit_witness_min(0.0), 2.0 / 9.0)
        assert np.isclose(channels.qutrit_witness_min(1.0), -2.0 / 3.0)

    def test_matches_simulation_at_uniform_input(self):
        w = teleportation_witness(3)
        uniform = schmidt_state([1 / 3, 1 / 3, 1 / 3])
        for p in (0.0, 0.25, 0.5, 0.75, 1.0):
            chan = channels.depolarizing(3, p)
            out = channels.apply_two_local(chan, chan, uniform)
            assert abs(witness_value(w, out) - channels.qutrit_witness_min(p)) <= 1e-10

    def test_uniform_schmidt_vector_minimizes(self):
        # oracle: scan the Schmidt simplex with the affine two-local form
        # omega = p^2 rho + (1-p)^2 I/9 + p(1-p)(rho_1 x I/3 + I/3 x rho_2),
        # then refine around the best grid point
        from scipy.optimize import minimize

        p = 0.8
        w = teleportation_witness(3).matrix

        def value(q0, q1):
            q2 = 1.0 - q0 - q1
            if q2 < 0:
                return np.inf
            rho = schmidt_state([q0, q1, q2])
            marg = np.diag([q0, q1, q2]).astype(complex)
            omega = (
                p**2 * rho.matrix
                + (1 - p) ** 2 * np.eye(9) / 9
                + p * (1 - p) * (np.kron(marg, np.eye(3) / 3) + np.kron(np.eye(3) / 3, marg))
            )
            return np.trace(w @ omega).real

        grid = np.linspace(0, 1, 41)
        vals = [(value(q0, q1), q0, q1) for q0 in grid for q1 in grid if q0 + q1 <= 1]
        _, q0_best, q1_best = min(vals)
        res = minimize(
            lambda q: value(np.clip(q[0], 0, 1), np.clip(q[1], 0, 1)),
            [q0_best, q1_best],
            method="Nelder-Mead",
            options={"fatol": 1e-14, "xatol": 1e-8},
        )
        assert abs(res.x[0] - 1 / 3) <= 1e-3
        assert abs(res.x[1] - 1 / 3) <= 1e-3
        assert abs(res.fun - channels.qutrit_witness_min(p)) <= 1e-9


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        chan = channels.depolarizing(2, 0.35)
        path = tmp_path / "depol.chan"
        channels.write_channel_file(chan, path)
        back = channels.read_channel_file(path)
        assert back.dim_in == 2 and back.dim_out == 2
        assert len(back.ops) == len(chan.ops)
        for a, b in zip(back.ops, chan.ops):
            assert np.array_equal(a, b)

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.chan"
        path.write_text("dims 2 2\nkraus 1\n1+0j 0+0j\n")
        with pytest.raises(ParseError):
            channels.read_channel_file(path)
