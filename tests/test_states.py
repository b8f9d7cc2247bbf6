import numpy as np
import pytest

from fidelion import theorems
from fidelion.entropy import entropy_summary
from fidelion.errors import (
    DimensionMismatchError,
    FidelionError,
    InvalidParameterError,
    NonHermitianError,
    NotPSDError,
    ParseError,
    UnsupportedDimensionError,
)
from fidelion.fidelity import fidelity_optimize
from fidelion.states import (
    BLOCK,
    BlochFano,
    _bloch_fano,
    _clipped,
    _ginibre,
    _operator_stack,
    _schmidt_projectors,
    _validate,
    _weyl_matrix,
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


def assert_same_bits(x, y):
    """Equal dtype, shape and bytes: signed zeros count, unlike ``==``."""
    x, y = np.ascontiguousarray(x), np.ascontiguousarray(y)
    assert x.dtype == y.dtype and x.shape == y.shape
    assert x.tobytes() == y.tobytes()


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
            m, w = _validate(case.copy())
            for row, matrix in enumerate(case):
                rho = DensityMatrix((2, 2), matrix)
                assert np.array_equal(m[row], rho.matrix)
                assert np.array_equal(w[row], rho.eigenvalues())
        m, w = _validate(clipped.copy())
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

    def test_dims_are_kept_as_a_pair_of_ints(self):
        m = np.eye(4) / 4
        rho = DensityMatrix([2, 2], m)
        assert type(rho.dims) is tuple and rho.dims == (2, 2)
        assert all(type(d) is int for d in DensityMatrix(np.array([2, 2]), m).dims)
        assert rho == DensityMatrix((2, 2), m)
        assert entropy_summary(rho)["S2(AB) closed"].method == "closed-form"
        assert fidelity_optimize(rho).value == 0.25
        assert np.array_equal(decompose(rho).t, np.zeros((3, 3)))
        for dims in ((2, 2, 1), (4,), 4, (2.7, 2), [[2], [2, 2]]):
            with pytest.raises(DimensionMismatchError, match="dims must be a pair"):
                DensityMatrix(dims, m)

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
    """``_validate`` takes eigenvalues only: one stacked ``eigvalsh``, and an
    ``eigh`` for the rows it clips alone."""

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

    @pytest.mark.parametrize("bad,error,message", [
        (np.array([[0.5, 0.1], [0.2, 0.5]], dtype=complex), NonHermitianError,
         "density matrix is not Hermitian within 1e-12"),
        (np.diag([0.7, 0.7]).astype(complex), ValueError,
         "density matrix trace differs from 1 by more than 1e-12"),
        (np.diag([1.5, -0.5]).astype(complex), NotPSDError, "eigenvalue -5.000e-01 below -1e-10"),
        (np.diag([np.nan, 1.0]).astype(complex), InvalidParameterError,
         "density matrix has non-finite entries"),
        (np.diag([np.inf, 0.0]).astype(complex), InvalidParameterError,
         "density matrix has non-finite entries"),
        (np.array([[0.5, np.inf], [0.0, 0.5]], dtype=complex), InvalidParameterError,
         "density matrix has non-finite entries"),
    ], ids=["non-hermitian", "bad-trace", "not-psd", "nan", "inf", "inf-off-diagonal"])
    def test_same_errors_and_messages(self, bad, error, message):
        # one matrix and a stack holding it fail alike
        good = np.eye(2, dtype=complex) / 2
        for case in (bad, np.stack([good, bad, good])):
            with pytest.raises(error) as info:
                _validate(case.copy())
            assert str(info.value) == message

    def test_clips_the_same_rows_bitwise(self):
        stack = self._stack_with_clips()
        m, w = _validate(stack.copy())
        changed = np.flatnonzero((m != stack).any(axis=(-2, -1)))
        assert changed.tolist() == [1, 3]
        for row in changed:
            m_row, w_row = _clipped(*np.linalg.eigh(stack[row]))
            assert np.array_equal(m[row], m_row)
            assert np.array_equal(w[row], w_row)
        assert w[:, 0].min() >= 0.0
        # one clipped matrix alone takes the same path
        one, _ = _validate(stack[3].copy())
        assert np.array_equal(one, m[3])

    def test_eigenvalues_agree_with_eigh(self):
        stack = self._stack_with_clips()
        m, w = _validate(stack.copy())
        w_eigh = np.linalg.eigh(m)[0]
        assert w.shape == w_eigh.shape
        assert np.abs(w - w_eigh).max() <= 1e-14


def _recorded_solves(monkeypatch):
    """The name, dtype name and row count of every ``eigvalsh`` and ``eigh``
    call."""
    solves = []
    for name in ("eigvalsh", "eigh"):
        solve = getattr(np.linalg, name)

        def recorded(m, *args, _solve=solve, _name=name, **kwargs):
            solves.append((_name, m.dtype.name, len(m) if m.ndim > 2 else 1))
            return _solve(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, recorded)
    return solves


class TestExactlyRealSpectrum:
    """The dtype picks the eigensolver: a real array is solved as real
    symmetric, a complex one as complex Hermitian. ``DensityMatrix`` hands
    an exactly-real matrix, or B marginal, over as its real view."""

    @staticmethod
    def _real_stack():
        # pure qubit and qutrit Schmidt projectors (real, rank one, most of
        # them with an eigenvalue just below 0), padded to 9 x 9 by a block
        # that keeps them unit-trace, and real mixed states
        rng = np.random.default_rng(5)
        pure = [_schmidt_projectors(rng.dirichlet(np.ones(d), size=20)).real for d in (2, 3)]
        padded = np.zeros((20, 9, 9))
        padded[:, :4, :4] = pure[0]
        mixed = _schmidt_projectors(rng.dirichlet(np.ones(3), size=20)).real
        mixed = 0.7 * mixed + 0.3 * np.eye(9) / 9
        return np.concatenate([padded, pure[1], mixed])

    def test_the_dtype_picks_one_solve_of_the_stack(self, monkeypatch):
        real = self._real_stack()[40:]
        # Hilbert-Schmidt states, and one row whose imaginary parts are all 0
        stack = _ginibre(np.random.default_rng(6), 20, 9, 9)
        stack[7] = real[7]
        assert not stack[7].imag.any()
        solves = _recorded_solves(monkeypatch)
        _, w_real = _validate(real.copy())
        assert solves == [("eigvalsh", "float64", 20)]
        solves.clear()
        _, w = _validate(stack.copy())
        assert solves == [("eigvalsh", "complex128", 20)]
        for row in range(len(stack)):
            _, w_row = _validate(stack[row].copy())
            assert np.array_equal(w_row, w[row])
        monkeypatch.undo()
        # the exactly-real row, solved as complex, lies within rounding of
        # its real solve
        assert np.abs(w[7] - w_real[7]).max() <= 1e-14

    def test_density_matrix_solves_exactly_real_matrices_as_real(self, monkeypatch):
        real = self._real_stack()
        solves = _recorded_solves(monkeypatch)
        clipped = 0
        for m in real:
            m_real, w_real = _validate(m.copy())
            clipped += not np.array_equal(m_real, m)
            states = [DensityMatrix((3, 3), m), DensityMatrix((3, 3), m.astype(complex))]
            for rho in states:
                assert rho.matrix.dtype == np.complex128
                assert np.array_equal(rho.matrix, m_real) and not rho.matrix.imag.any()
                assert np.array_equal(rho.eigenvalues(), w_real)
            assert np.array_equal(*(rho.marginal_b_eigenvalues() for rho in states))
        assert {dtype for _, dtype, _ in solves} == {"float64"}
        # the pure rows take the clip path, the mixed ones do not
        assert 20 < clipped < 40

    def test_weyl_suite_takes_real_solves_only(self, monkeypatch):
        t = np.random.default_rng(4).uniform(-1, 1, (50, 3))
        assert _weyl_matrix(t).dtype == np.float64
        solves = _recorded_solves(monkeypatch)
        theorems.run_suite("weyl", 300, 3)
        assert solves and {dtype for _, dtype, _ in solves} == {"float64"}

    def test_marginal_spectrum_follows_the_rule(self, monkeypatch):
        real = DensityMatrix((3, 3), self._real_stack()[45])
        mixed = random_density_matrix(2, 3, seed=8)
        solves = _recorded_solves(monkeypatch)
        w_real, w_mixed = real.marginal_b_eigenvalues(), mixed.marginal_b_eigenvalues()
        assert solves == [("eigvalsh", "float64", 1), ("eigvalsh", "complex128", 1)]
        monkeypatch.undo()
        assert np.array_equal(w_real, np.linalg.eigvalsh(real.marginal("B").real))
        assert np.array_equal(w_mixed, np.linalg.eigvalsh(mixed.marginal("B")))


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


    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_stack_rows_equal_single_states_bitwise(self, dims):
        n = dims[0] * dims[1]
        for k in (1, 7, BLOCK, BLOCK + 1):
            stack = _ginibre(np.random.default_rng(6), k, n, n)
            bf = _bloch_fano(stack, dims)
            assert bf.a.shape == (k, dims[0] ** 2 - 1)
            assert bf.t.shape == (k, dims[0] ** 2 - 1, dims[1] ** 2 - 1)
            for row, m in enumerate(stack):
                alone = _bloch_fano(m, dims)
                assert np.array_equal(alone.a, bf.a[row])
                assert np.array_equal(alone.b, bf.b[row])
                assert np.array_equal(alone.t, bf.t[row])

    @staticmethod
    def _einsum_oracle(m, dims):
        """The dense contraction with every Bloch-Fano operator at once."""
        d_a, d_b = dims
        n_a, n_b = d_a**2 - 1, d_b**2 - 1
        c = np.einsum("kij,...ji->...k", _operator_stack(dims), m).real
        t = (d_a * d_b / 4) * c[..., n_a + n_b :]
        return (
            (d_a / 2) * c[..., :n_a],
            (d_b / 2) * c[..., n_a : n_a + n_b],
            t.reshape(t.shape[:-1] + (n_a, n_b)),
        )

    @pytest.mark.parametrize("dims", [(2, 2), (2, 3), (3, 3), (4, 4)])
    def test_matches_the_einsum_contraction_bitwise(self, dims):
        # random states, single and stacked, and Schmidt projectors, whose
        # exact zeros give signed zero products
        n = dims[0] * dims[1]
        d = min(dims)
        schmidt = np.zeros((20, n, n), dtype=complex)
        schmidt[:, : d * d, : d * d] = _schmidt_projectors(
            np.random.default_rng(3).dirichlet(np.ones(d), size=20)
        )
        cases = [_ginibre(np.random.default_rng(k), k, n, n) for k in (1, 7, BLOCK + 1)]
        cases += [cases[1][3], schmidt, -schmidt]
        if dims == (2, 2):
            cases.append(_weyl_matrix(np.random.default_rng(4).uniform(-1, 1, (50, 3))))
        for m in cases:
            bf = _bloch_fano(m, dims)
            for got, expected in zip((bf.a, bf.b, bf.t), self._einsum_oracle(m, dims)):
                assert_same_bits(got, expected)

    @pytest.mark.parametrize("dims", [(2, 2), (3, 3)])
    def test_a_real_matrix_gives_the_bits_of_its_complex_cast(self, dims):
        n = dims[0] * dims[1]
        d = min(dims)
        real = _schmidt_projectors(np.random.default_rng(8).dirichlet(np.ones(d), size=9)).real
        real = np.concatenate([real, -real, np.eye(n)[None] / n])
        for m in (real, real[2]):
            bf, cast = _bloch_fano(m, dims), _bloch_fano(m.astype(complex), dims)
            for got, expected in zip((bf.a, bf.b, bf.t), (cast.a, cast.b, cast.t)):
                assert_same_bits(got, expected)


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

    @pytest.mark.parametrize("t", [[1, 2], [0.1, 0.2, 0.3, 0.4], [[0.1, 0.2]]])
    def test_spectrum_needs_a_last_axis_of_three(self, t):
        with pytest.raises(DimensionMismatchError, match="Weyl parameters must be a 3-vector"):
            weyl_spectrum(t)

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


@pytest.mark.parametrize(
    "bad_input,message",
    [
        (lambda: DensityMatrix((2, 1), np.diag([0.7, 0.7])), "trace differs"),
        (lambda: SchmidtPureState(np.array([0.7, 0.7])), "probability vector"),
        (lambda: theorems.run_suite("bogus"), "unknown suite"),
    ],
    ids=["trace", "schmidt", "suite"],
)
def test_bad_values_raise_a_package_error(bad_input, message):
    # a FidelionError, and still a ValueError for callers that catch that
    with pytest.raises(FidelionError, match=message) as info:
        bad_input()
    assert isinstance(info.value, ValueError)


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

    @pytest.mark.parametrize("k,n,rank", [(1, 4, 4), (7, 4, 4), (BLOCK + 1, 4, 4), (5, 9, 3),
                                          (3, 16, 16), (4, 6, 1)])
    def test_ginibre_equals_the_divided_product_bitwise(self, k, n, rank):
        def oracle(rng):
            x = rng.normal(size=(k, 2, n, rank))
            g = x[:, 0] + 1j * x[:, 1]
            m = g @ g.conj().swapaxes(-1, -2)
            return m / np.trace(m, axis1=-2, axis2=-1).real[:, None, None]

        for seed in range(3):
            rng, oracle_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            assert_same_bits(_ginibre(rng, k, n, rank), oracle(oracle_rng))
            assert rng.bit_generator.state == oracle_rng.bit_generator.state


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
