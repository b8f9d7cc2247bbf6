"""Local-unitary invariance as an oracle-free gate.

The fidelity of entanglement is invariant under ``rho -> (U (x) V) rho
(U (x) V)^dag``, and each channel class under ``N -> V o N o U``: the inputs
range over all pure states, and each score is invariant under local
unitaries on the output. So a second run on a seeded Haar rotation checks
the first, with no oracle.
"""

import numpy as np
import pytest

from fidelion.channels import KrausChannel
from fidelion.classifiers import certify
from fidelion.fidelity import fidelity_optimize
from fidelion.states import DensityMatrix, random_density_matrix

TOL = 1e-12


def haar_unitary(d, rng):
    g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_two_kraus(d, rng):
    """Channel with the two d x d blocks of a random isometry as Kraus
    operators."""
    z = rng.normal(size=(2 * d, d)) + 1j * rng.normal(size=(2 * d, d))
    v, _ = np.linalg.qr(z)
    return KrausChannel(d, d, (v[:d], v[d:]))


@pytest.mark.parametrize("d", [2, 3, 4])
def test_fidelity_bracket_is_invariant(d):
    rng = np.random.default_rng(100 + d)
    for _ in range(20):
        rho = random_density_matrix(d, d, rank=int(rng.integers(1, d * d + 1)), seed=rng)
        w = np.kron(haar_unitary(d, rng), haar_unitary(d, rng))
        rotated = DensityMatrix((d, d), w @ rho.matrix @ w.conj().T)
        res, res_rot = (fidelity_optimize(s, restarts=20, seed=1) for s in (rho, rotated))
        assert abs(res.value - res_rot.value) <= TOL
        assert abs(res.upper - res_rot.upper) <= TOL


@pytest.mark.parametrize("cls", ["FBC", "FAC2"])
@pytest.mark.parametrize("d", [2, 3])
def test_user_fidelity_worst_value_is_invariant(cls, d):
    # FAC2 runs at the default restarts: at restarts=8 the polar ascent of
    # one d = 3 channel of this kind stops at a local maximum
    rng = np.random.default_rng(200 + d)
    for _ in range(12):
        chan = random_two_kraus(d, rng)
        u, v = haar_unitary(d, rng), haar_unitary(d, rng)
        rotated = KrausChannel(d, d, tuple(v @ k @ u for k in chan.ops))
        worst, worst_rot = (
            certify(cls, "user-kraus", 0.0, channel=c).worst_value for c in (chan, rotated)
        )
        assert abs(worst - worst_rot) <= TOL
