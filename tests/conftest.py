import numpy as np
import pytest

from fidelion import fidelity


def _plain_ascent(gram, d, restarts, seed):
    """Best value of the plain polar ascent, without the extrapolated step:
    from the package's starting points, each round every row still
    ascending takes one polar step, keeps it if it gains and stops once a
    step gains at most ``STEP_GAIN_TOL``, or after ``MAX_STEPS``."""
    x = fidelity._restart_points(d, restarts, seed)
    rows = np.arange(len(x))

    def gradient_value(y):
        g = (gram(y) @ y[:, :, None])[:, :, 0]
        return g, np.einsum("ij,ij->i", y.conj(), g).real / d

    g, value = gradient_value(x)
    for _ in range(fidelity.MAX_STEPS):
        if not rows.size:
            break
        w, _, vh = np.linalg.svd(g.reshape(-1, d, d))
        x_next = (w @ vh).reshape(-1, d * d)
        g_next, next_value = gradient_value(x_next)
        gain = next_value - value[rows]
        up = gain > 0
        x[rows[up]], value[rows[up]], g[up] = x_next[up], next_value[up], g_next[up]
        ascending = gain > fidelity.STEP_GAIN_TOL
        rows, g = rows[ascending], g[ascending]
    return value.max()


@pytest.fixture
def plain_ascent():
    """The plain polar ascent as a test oracle: the package's ascent must
    reach at least its value."""
    return _plain_ascent
