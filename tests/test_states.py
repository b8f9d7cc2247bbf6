import numpy as np
import pytest

from fidelion.errors import (
    InvalidParameterError,
    NonHermitianError,
    NotPSDError,
    ParseError,
    UnsupportedDimensionError,
)
from fidelion.states import (
    BlochFano,
    _bloch_fano,
    _ginibre,
    _validate,
    DensityMatrix,
    SchmidtPureState,
    decompose,
    gell_mann_basis,
    random_density_matrix,
    read_state_file,
    reconstruct,
    schmidt_state,
    weyl_spectrum,
    weyl_state,
    write_state_file,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]])
SZ = np.array([[1, 0], [0, -1]], dtype=complex)


def bell_phi_plus() -> DensityMatrix:
    ket = np.zeros(4, dtype=complex)
    ket[0] = ket[3] = 1 / np.sqrt(2)
    return DensityMatrix((2, 2), np.outer(ket, ket.conj()))


class TestGellMann:
    def test_qubit_basis_is_pauli(self):
        gx, gy, gz = gell_mann_basis(2)
        assert np.allclose(gx, SX)
        assert np.allclose(gy, SY)
        assert np.allclose(gz, SZ)

    @pytest.mark.parametrize("d", [2, 3, 4, 5, 8])
    def test_orthogonality_and_tracelessness(self, d):
        basis = gell_mann_basis(d)
        assert len(basis) == d * d - 1
        for i, gi in enumerate(basis):
            assert abs(np.trace(gi)) <= 1e-14
            assert np.abs(gi - gi.conj().T).max() <= 1e-14
            for j, gj in enumerate(basis):
                expected = 2.0 if i == j else 0.0
                assert abs(np.trace(gi @ gj) - expected) <= 1e-13

    def test_unsupported_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            gell_mann_basis(9)


class TestDensityMatrix:
    def test_rejects_negative_spectrum(self):
        with pytest.raises(NotPSDError):
            DensityMatrix((2, 1), np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix((2, 1), np.diag([0.7, 0.7]))

    def test_rejects_non_finite_entries(self):
        with pytest.raises(InvalidParameterError, match="non-finite"):
            DensityMatrix((2, 1), np.diag([np.nan, 1.0]))

    def test_clips_tiny_negative_eigenvalues(self):
        m = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11])
        rho = DensityMatrix((2, 2), m)
        assert rho.eigenvalues()[0] >= -1e-15
        assert abs(np.trace(rho.matrix).real - 1.0) <= 1e-12
        # the kept spectrum is renormalized together with the clipped matrix
        assert np.abs(rho.eigenvalues() - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-12

    def test_stack_validates_each_matrix_as_one_state(self):
        # one matrix needs clipping, the others do not; each row of the
        # stacked result equals the state built from that matrix alone
        clipped = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)
        stack = np.stack([
            random_density_matrix(2, 2, seed=1).matrix, clipped,
            random_density_matrix(2, 2, rank=1, seed=2).matrix,
        ])
        # a stack in which every matrix needs clipping takes the same path
        every = np.stack([clipped, np.diag([-5e-11, 1.0 + 5e-11, 0.0, 0.0]).astype(complex)])
        # and so does one clipped matrix, against a stack of one
        one = clipped[None]
        for case in (stack, every, one):
            m, w, v = _validate(case.copy())
            for row, matrix in enumerate(case):
                rho = DensityMatrix((2, 2), matrix)
                assert np.array_equal(m[row], rho.matrix)
                assert np.array_equal(w[row], rho.eigenvalues())
                assert np.array_equal(v[row], rho.eigenvectors)
        m, w, v = _validate(clipped.copy())
        assert m.shape == (4, 4) and w.shape == (4,) and w[0] >= 0.0
        assert abs(np.trace(m).real - 1.0) <= 1e-12

    def test_stack_rejects_one_bad_matrix(self):
        stack = np.stack([np.eye(2, dtype=complex) / 2, np.diag([1.5, -0.5]).astype(complex)])
        with pytest.raises(NotPSDError, match="-5.000e-01"):
            _validate(stack)

    def test_copies_the_callers_array(self):
        m = np.eye(4, dtype=complex) / 4
        rho = DensityMatrix((2, 2), m)
        m[0, 0] = 1
        assert m.flags.writeable
        assert np.array_equal(rho.matrix, np.eye(4) / 4)
        assert not rho.matrix.flags.writeable

    def test_marginal_spectrum_is_kept(self):
        rho = random_density_matrix(2, 3, seed=8)
        w = rho.marginal_b_eigenvalues()
        assert w is rho.marginal_b_eigenvalues()
        assert not w.flags.writeable
        assert np.abs(w - np.linalg.eigvalsh(rho.marginal("B"))).max() <= 1e-15


def _rotated(spectrum, seed):
    """``U diag(spectrum) U^dagger`` for a random unitary ``U``."""
    rng = np.random.default_rng(seed)
    n = len(spectrum)
    u, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    m = (u * np.asarray(spectrum)) @ u.conj().T
    return (m + m.conj().T) / 2


class TestSpectrumOnlyValidation:
    """``_validate(m, vectors=False)`` against the eigendecomposition path."""

    @staticmethod
    def _stack_with_clips():
        # rows 1 and 3 have an eigenvalue in (-1e-10, 0), the others do not
        clipped = np.diag([1.0 + 5e-11, 0.0, 0.0, -5e-11]).astype(complex)
        rotated = _rotated([0.6 + 4e-11, 0.4, 0.0, -4e-11], seed=3)
        assert -1e-10 < np.linalg.eigvalsh(rotated)[0] < 0
        return np.concatenate([
            _ginibre(np.random.default_rng(1), 1, 4, 4), clipped[None],
            _ginibre(np.random.default_rng(2), 1, 4, 4), rotated[None],
            _ginibre(np.random.default_rng(4), 40, 4, 4),
        ])

    @pytest.mark.parametrize("bad,error", [
        (np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex), NonHermitianError),
        (np.diag([0.7, 0.7]).astype(complex), ValueError),
        (np.diag([1.5, -0.5]).astype(complex), NotPSDError),
        (np.diag([np.nan, 1.0]).astype(complex), InvalidParameterError),
        (np.diag([np.inf, 0.0]).astype(complex), InvalidParameterError),
        (np.array([[0.5, np.inf], [0.0, 0.5]], dtype=complex), InvalidParameterError),
    ], ids=["non-hermitian", "bad-trace", "not-psd", "nan", "inf", "inf-off-diagonal"])
    def test_same_errors_and_messages(self, bad, error):
        good = np.eye(2, dtype=complex) / 2
        for case in (bad, np.stack([good, bad, good])):
            messages = []
            for vectors in (True, False):
                with pytest.raises(error) as info:
                    _validate(case.copy(), vectors=vectors)
                messages.append(str(info.value))
            assert messages[0] == messages[1]
        if error is InvalidParameterError:
            assert "non-finite" in messages[0]

    def test_clips_the_same_rows_bitwise(self):
        stack = self._stack_with_clips()
        m_v, w_v, _ = _validate(stack.copy())
        m_s, w_s, v_s = _validate(stack.copy(), vectors=False)
        assert v_s is None
        assert np.array_equal(m_s, m_v)
        changed = np.flatnonzero((m_v != stack).any(axis=(-2, -1)))
        assert changed.tolist() == [1, 3]
        assert np.array_equal(w_s[changed], w_v[changed])
        assert w_s[:, 0].min() >= 0.0
        # one clipped matrix alone takes the same path
        one, _, _ = _validate(stack[3].copy(), vectors=False)
        assert np.array_equal(one, m_v[3])

    def test_eigenvalues_agree_with_eigh(self):
        stack = self._stack_with_clips()
        _, w_v, _ = _validate(stack.copy())
        _, w_s, _ = _validate(stack.copy(), vectors=False)
        assert w_s.shape == w_v.shape
        assert np.abs(w_s - w_v).max() <= 1e-14


class TestEquality:
    def test_density_matrices(self):
        rho = random_density_matrix(2, 2, seed=1)
        assert rho == random_density_matrix(2, 2, seed=1)
        assert rho != random_density_matrix(2, 2, seed=2)
        # the same matrix on other local dimensions, and a larger state
        assert rho != DensityMatrix((1, 4), rho.matrix)
        assert rho != random_density_matrix(3, 3, seed=1)
        with pytest.raises(TypeError):
            hash(rho)

    def test_schmidt_vectors(self):
        q = SchmidtPureState(np.array([0.25, 0.75]))
        assert q == SchmidtPureState(np.array([0.25, 0.75]))
        assert q != SchmidtPureState(np.array([0.75, 0.25]))
        assert q != SchmidtPureState(np.array([0.25, 0.75, 0.0]))
        with pytest.raises(TypeError):
            hash(q)


class TestDecompose:
    def test_maximally_mixed(self):
        bf = decompose(DensityMatrix((2, 2), np.eye(4) / 4))
        assert np.abs(bf.a).max() <= 1e-12
        assert np.abs(bf.b).max() <= 1e-12
        assert np.abs(bf.t).max() <= 1e-12

    def test_bell_state_oracle(self):
        # oracle: expected coefficients by direct trace computation
        rho = bell_phi_plus()
        expected_t = np.zeros((3, 3))
        for i, si in enumerate((SX, SY, SZ)):
            for j, sj in enumerate((SX, SY, SZ)):
                expected_t[i, j] = np.trace(rho.matrix @ np.kron(si, sj)).real
        bf = decompose(rho)
        assert np.abs(bf.a).max() <= 1e-12
        assert np.abs(bf.b).max() <= 1e-12
        assert np.abs(bf.t - expected_t).max() <= 1e-12
        assert np.allclose(np.diag(bf.t), [1.0, -1.0, 1.0], atol=1e-12)

    def test_weyl_params_reappear_on_diagonal(self):
        t = np.array([0.3, -0.2, 0.4])
        bf = decompose(weyl_state(t))
        assert np.allclose(np.diag(bf.t), t, atol=1e-12)
        assert np.abs(bf.t - np.diag(np.diag(bf.t))).max() <= 1e-12

    def test_marginal_consistency(self):
        # a relates to the kept-A marginal through the single-system
        # Bloch expansion rho_A = (I + sum_i (2 a_i / d_A) g_i) / d_A
        for seed in range(20):
            rho = random_density_matrix(2, 3, seed=seed)
            bf = decompose(rho)
            d_a = 2
            marg = np.eye(d_a, dtype=complex)
            for coeff, g in zip(bf.a, gell_mann_basis(d_a)):
                marg = marg + (2 * coeff / d_a) * g
            marg /= d_a
            assert np.abs(marg - rho.marginal("A")).max() <= 1e-10


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3)])
    def test_stack_rows_equal_single_states_bitwise(self, dims):
        n = dims[0] * dims[1]
        stack = _ginibre(np.random.default_rng(6), 30, n, n)
        bf = _bloch_fano(stack, dims)
        assert bf.a.shape == (30, dims[0] ** 2 - 1)
        assert bf.t.shape == (30, dims[0] ** 2 - 1, dims[1] ** 2 - 1)
        for row, m in enumerate(stack):
            alone = _bloch_fano(m, dims)
            assert np.array_equal(alone.a, bf.a[row])
            assert np.array_equal(alone.b, bf.b[row])
            assert np.array_equal(alone.t, bf.t[row])


class TestReconstruct:
    def test_zero_coefficients(self):
        bf = BlochFano((2, 2), np.zeros(3), np.zeros(3), np.zeros((3, 3)))
        rho = reconstruct(bf)
        assert np.abs(rho.matrix - np.eye(4) / 4).max() <= 1e-14

    def test_bell_from_coefficients(self):
        bf = BlochFano((2, 2), np.zeros(3), np.zeros(3), np.diag([1.0, -1.0, 1.0]))
        rho = reconstruct(bf)
        assert np.abs(rho.matrix - bell_phi_plus().matrix).max() <= 1e-10

    def test_not_psd(self):
        bf = BlochFano((2, 2), np.zeros(3), np.zeros(3), np.diag([1.0, 1.0, 1.0]))
        with pytest.raises(NotPSDError):
            reconstruct(bf)

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_round_trip_random_states(self, dims):
        for seed in range(125):
            rho = random_density_matrix(*dims, seed=seed)
            back = reconstruct(decompose(rho))
            assert np.abs(back.matrix - rho.matrix).max() <= 1e-10


class TestWeyl:
    def test_zero_params(self):
        assert np.abs(weyl_state((0, 0, 0)).matrix - np.eye(4) / 4).max() <= 1e-14

    def test_bell_params(self):
        assert np.abs(weyl_state((1, -1, 1)).matrix - bell_phi_plus().matrix).max() <= 1e-12

    def test_spectrum_formula_examples(self):
        assert np.allclose(weyl_spectrum((0, 0, 0)), [0.25, 0.25, 0.25, 0.25])
        assert np.allclose(weyl_spectrum((1, 1, -1)), [0, 0, 0, 1])

    def test_rank_one_case(self):
        vals = np.linalg.eigvalsh(weyl_state((1, 1, -1)).matrix)
        assert np.allclose(np.sort(vals), [0, 0, 0, 1], atol=1e-12)

    def test_invalid_params(self):
        with pytest.raises(NotPSDError):
            weyl_state((1, 1, 1))

    def test_spectrum_matches_eigensolver_100_seeds(self):
        from fidelion.theorems import _weyl_blocks

        for seed in range(100):
            t = next(_weyl_blocks(np.random.default_rng(seed), 1))[0]
            direct = np.linalg.eigvalsh(weyl_state(t).matrix)
            assert np.abs(weyl_spectrum(t) - direct).max() <= 1e-10


class TestSchmidt:
    def test_product_case(self):
        rho = schmidt_state([1.0, 0.0])
        expected = np.zeros((4, 4))
        expected[0, 0] = 1.0
        assert np.abs(rho.matrix - expected).max() <= 1e-14

    def test_bell_case(self):
        assert np.abs(schmidt_state([0.5, 0.5]).matrix - bell_phi_plus().matrix).max() <= 1e-14

    def test_qutrit_maximally_entangled(self):
        rho = schmidt_state([1 / 3, 1 / 3, 1 / 3])
        ket = np.zeros(9, dtype=complex)
        ket[[0, 4, 8]] = 1 / np.sqrt(3)
        assert np.abs(rho.matrix - np.outer(ket, ket.conj())).max() <= 1e-14

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            SchmidtPureState(np.array([0.7, 0.7]))


class TestRandomStates:
    def test_rank_one_is_pure(self):
        rho = random_density_matrix(2, 2, rank=1, seed=7)
        assert abs(rho.purity() - 1.0) <= 1e-10

    def test_deterministic_per_seed(self):
        a = random_density_matrix(3, 3, seed=11)
        b = random_density_matrix(3, 3, seed=11)
        assert np.array_equal(a.matrix, b.matrix)

    def test_invariant_sweep(self):
        # constructor revalidates Hermiticity / trace / positivity
        for seed in range(1000):
            rho = random_density_matrix(2, 2, seed=seed)
            assert rho.eigenvalues()[0] >= -1e-10


class TestStateFiles:
    def test_round_trip_is_exact(self, tmp_path):
        rho = random_density_matrix(2, 3, seed=5)
        path = tmp_path / "state.txt"
        write_state_file(rho, path)
        back = read_state_file(path)
        assert back.dims == rho.dims
        assert np.array_equal(back.matrix, rho.matrix)

    def test_format_shape(self, tmp_path):
        path = tmp_path / "bell.txt"
        write_state_file(bell_phi_plus(), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "dims 2 2"
        assert len(lines) == 5
        assert len(lines[1].split()) == 4

    @pytest.mark.parametrize(
        "content",
        [
            "",
            "dims 2\n",
            "dims 2 2\n1+0j 0+0j\n",
            "dims 2 2\n" + "\n".join(["notanumber " * 4] * 4) + "\n",
            "dims -1 -1\n1+0j\n",
            "dims 0 2\n",
            "dims 1 2\nnan+0j 0j\n0j 1+0j\n",
        ],
    )
    def test_parse_errors(self, tmp_path, content):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(ParseError):
            read_state_file(path)
