import numpy as np
import pytest

from fidelion import fidelity


def _plain_ascent(gram, d, restarts, seeds):
    """Best value per objective of the plain polar ascent, without the
    extrapolated step: from the package's starting points, each round every
    row still ascending takes one polar step, keeps it if it gains and stops
    once a step gains at most ``STEP_GAIN_TOL``, or after ``MAX_STEPS``."""
    x = np.concatenate([fidelity._restart_points(d, restarts, seed) for seed in seeds])
    rows = np.arange(len(x))

    def gradient_value(rows, y):
        g = (gram(rows, y) @ y[:, :, None])[:, :, 0]
        return g, np.einsum("ij,ij->i", y.conj(), g).real / d

    g, value = gradient_value(rows, x)
    for _ in range(fidelity.MAX_STEPS):
        if not rows.size:
            break
        w, _, vh = np.linalg.svd(g.reshape(-1, d, d))
        x_next = (w @ vh).reshape(-1, d * d)
        g_next, next_value = gradient_value(rows, x_next)
        gain = next_value - value[rows]
        up = gain > 0
        x[rows[up]], value[rows[up]], g[up] = x_next[up], next_value[up], g_next[up]
        ascending = gain > fidelity.STEP_GAIN_TOL
        rows, g = rows[ascending], g[ascending]
    return value.reshape(-1, restarts).max(axis=1)


@pytest.fixture
def plain_ascent():
    """The plain polar ascent as a test oracle: the package's ascent must
    reach at least its value."""
    return _plain_ascent
