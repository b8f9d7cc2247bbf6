"""Linear algebra of small operators: the partial trace and 64 x 64 size
gate of ``fidelion.linalg``, the eigenvalues that every ``DensityMatrix``
keeps from its validation, and the base-2 matrix logarithm, the one
routine that solves a state's eigenvectors."""

import numpy as np
import pytest

from fidelion import linalg
from fidelion.errors import (
    DimensionMismatchError,
    NonHermitianError,
    SizeOverflowError,
)
from fidelion.states import DensityMatrix, random_density_matrix

SX = np.array([[0, 1], [1, 0]], dtype=complex)


class TestHermitianEig:
    def test_identity(self):
        rho = DensityMatrix((2, 2), np.eye(4) / 4)
        assert np.allclose(rho.eigenvalues(), [0.25] * 4)

    def test_diagonal(self):
        rho = DensityMatrix((3, 1), np.diag([0.5, 0.2, 0.3]))
        assert np.allclose(rho.eigenvalues(), [0.2, 0.3, 0.5])
        assert np.allclose(np.abs(np.linalg.eigh(rho.matrix)[1]), np.eye(3)[:, [1, 2, 0]])

    def test_pauli_x(self):
        rho = DensityMatrix((2, 1), (np.eye(2) + SX) / 2)
        assert np.allclose(rho.eigenvalues(), [0, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            DensityMatrix((2, 1), np.array([[0.5, 0.5], [0, 0.5]], dtype=complex))

    def test_reconstruction_and_trace_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            d_a, d_b = (int(k) for k in rng.integers(1, 4, size=2))
            rank = int(rng.integers(1, d_a * d_b + 1))
            rho = random_density_matrix(d_a, d_b, rank=rank, seed=rng)
            w, v = rho.eigenvalues(), np.linalg.eigh(rho.matrix)[1]
            assert np.all(np.diff(w) >= 0)
            assert np.abs((v * w) @ v.conj().T - rho.matrix).max() <= 1e-10
            assert abs(w.sum() - 1.0) <= 1e-10
            assert np.abs(v.conj().T @ v - np.eye(d_a * d_b)).max() <= 1e-10
            assert np.abs(w - np.linalg.eigvalsh(rho.matrix)).max() <= 1e-12

    def test_stored_spectrum_is_read_only(self):
        rho = random_density_matrix(2, 2, seed=0)
        for arr in (rho.matrix, rho.eigenvalues()):
            with pytest.raises(ValueError):
                arr[0] = 0


class TestPartialTrace:
    def test_product_state(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        a = a @ a.conj().T
        a /= np.trace(a)
        b = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
        b = b @ b.conj().T
        b /= np.trace(b)
        m = np.kron(a, b)
        assert np.abs(linalg.partial_trace(m, (2, 3), "A") - a).max() <= 1e-12
        assert np.abs(linalg.partial_trace(m, (2, 3), "B") - b).max() <= 1e-12

    def test_bell_marginal_maximally_mixed(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = ket[3] = 1 / np.sqrt(2)
        rho = np.outer(ket, ket.conj())
        assert np.abs(linalg.partial_trace(rho, (2, 2), "B") - np.eye(2) / 2).max() <= 1e-12

    def test_trace_over_both_gives_total_trace(self):
        rng = np.random.default_rng(1)
        m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        m = m @ m.conj().T
        m /= np.trace(m)
        reduced = linalg.partial_trace(m, (2, 3), "A")
        total = linalg.partial_trace(reduced, (1, 2), "B").trace()
        assert abs(total - 1.0) <= 1e-12

    def test_real_input_stays_real(self):
        # float64 in gives float64 out, complex stays complex, and an integer
        # (or float32) operator comes out as float64, with the same values
        rng = np.random.default_rng(2)
        m = rng.normal(size=(5, 6, 6))
        for keep in ("A", "B"):
            real = linalg.partial_trace(m, (2, 3), keep)
            assert real.dtype == np.float64
            as_complex = linalg.partial_trace(m.astype(complex), (2, 3), keep)
            assert as_complex.dtype == np.complex128
            assert np.array_equal(real, as_complex)
            ints = np.arange(36).reshape(6, 6)
            for cast in (ints, ints.astype(np.float32), ints.tolist()):
                out = linalg.partial_trace(cast, (2, 3), keep)
                assert out.dtype == np.float64
                assert np.array_equal(out, linalg.partial_trace(ints.astype(float), (2, 3), keep))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(4), (2, 3), "A")

    def test_overflow(self):
        with pytest.raises(SizeOverflowError):
            linalg.partial_trace(np.eye(72), (9, 8), "A")

    @pytest.mark.parametrize("dtype", [int, float, complex])
    def test_shape_errors_read_the_same_for_every_dtype(self, dtype):
        with pytest.raises(DimensionMismatchError, match=r"expected a matrix, got shape \(4,\)"):
            linalg.partial_trace(np.ones(4, dtype=dtype), (2, 2), "A")
        with pytest.raises(DimensionMismatchError, match="does not match dims"):
            linalg.partial_trace(np.eye(4, dtype=dtype), (2, 3), "B")
        with pytest.raises(DimensionMismatchError, match="keep must be 'A' or 'B'"):
            linalg.partial_trace(np.eye(4, dtype=dtype), (2, 2), "C")
        with pytest.raises(SizeOverflowError, match="dimension 72 exceeds 64"):
            linalg.partial_trace(np.eye(72, dtype=dtype), (9, 8), "A")


class TestMatrixLog:
    def test_maximally_mixed(self):
        log_m, null = DensityMatrix((2, 2), np.eye(4) / 4).log2()
        assert null.shape == (4, 0)
        assert np.abs(log_m + 2 * np.eye(4)).max() <= 1e-12

    def test_rank_deficient_diagonal(self):
        log_m, null = DensityMatrix((2, 2), np.diag([0.5, 0.5, 0.0, 0.0])).log2()
        assert null.shape == (4, 2)
        assert np.allclose(log_m, np.diag([-1.0, -1.0, 0.0, 0.0]), atol=1e-12)
        assert np.allclose(null @ null.conj().T, np.diag([0.0, 0.0, 1.0, 1.0]), atol=1e-12)

    def test_pure_projector(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = ket[3] = 1 / np.sqrt(2)
        log_m, null = DensityMatrix((2, 2), np.outer(ket, ket.conj())).log2()
        assert null.shape == (4, 3)
        assert np.abs(null.conj().T @ ket).max() <= 1e-12
        assert np.abs(log_m).max() <= 1e-10
