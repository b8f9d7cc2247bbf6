import numpy as np
import pytest

from fidelion import linalg
from fidelion.errors import (
    DimensionMismatchError,
    NonHermitianError,
    SizeOverflowError,
)

SX = np.array([[0, 1], [1, 0]], dtype=complex)


def random_hermitian(n, rng):
    m = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return (m + m.conj().T) / 2


class TestHermitianEig:
    def test_identity(self):
        spec = linalg.hermitian_eig(np.eye(4))
        assert np.allclose(spec.eigenvalues, [1, 1, 1, 1])

    def test_diagonal(self):
        spec = linalg.hermitian_eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(spec.eigenvalues, [1, 2, 3])
        assert np.allclose(np.abs(spec.eigenvectors), np.eye(3))

    def test_pauli_x(self):
        spec = linalg.hermitian_eig(SX)
        assert np.allclose(spec.eigenvalues, [-1, 1])

    def test_rejects_non_hermitian(self):
        with pytest.raises(NonHermitianError):
            linalg.hermitian_eig(np.array([[0, 1], [0, 0]], dtype=complex))

    def test_reconstruction_and_trace_100_seeds(self):
        for seed in range(100):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(2, 10))
            m = random_hermitian(n, rng)
            w, v = linalg.hermitian_eig(m)
            assert np.all(np.diff(w) >= 0)
            assert np.abs((v * w) @ v.conj().T - m).max() <= 1e-10
            assert abs(w.sum() - np.trace(m).real) <= 1e-10
            gram = v.conj().T @ v
            assert np.abs(gram - np.eye(n)).max() <= 1e-10


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

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            linalg.partial_trace(np.eye(4), (2, 3), "A")

    def test_overflow(self):
        with pytest.raises(SizeOverflowError):
            linalg.partial_trace(np.eye(72), (9, 8), "A")


class TestMatrixLog:
    def test_maximally_mixed(self):
        log_m, deficient = linalg.matrix_log_on_support(np.eye(4) / 4)
        assert not deficient
        assert np.abs(log_m + 2 * np.eye(4)).max() <= 1e-12

    def test_rank_deficient_diagonal(self):
        log_m, deficient = linalg.matrix_log_on_support(np.diag([0.5, 0.5, 0.0, 0.0]))
        assert deficient
        assert np.allclose(log_m, np.diag([-1.0, -1.0, 0.0, 0.0]), atol=1e-12)

    def test_pure_projector(self):
        ket = np.zeros(4, dtype=complex)
        ket[0] = ket[3] = 1 / np.sqrt(2)
        log_m, deficient = linalg.matrix_log_on_support(np.outer(ket, ket.conj()))
        assert deficient
        assert np.abs(log_m).max() <= 1e-10
