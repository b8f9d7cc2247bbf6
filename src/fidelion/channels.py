"""Kraus channels and the depolarizing channel.

The depolarizing channel ``N_d(X) = p X + (1-p) Tr(X) I/d`` is built from
its definition: the Kraus set is ``sqrt(p) I`` and the d^2 matrix units
``sqrt((1-p)/d) |i><j|``, since ``sum_ij |i><j| X |j><i| = Tr(X) I``.
All its operators are real, and so is its superoperator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatchError, InvalidParameterError, ParseError
from .states import DensityMatrix, _format_rows, _parse_rows, _read_lines, _write_lines

_TP_TOL = 1e-10


@dataclass(frozen=True)
class KrausChannel:
    """A CPTP map as a finite list of Kraus operators.

    ``ops`` is given as any sequence of (d_out, d_in) matrices and kept as
    one read-only stacked (n, d_out, d_in) copy. Finite entries and trace
    preservation ``sum K^dag K = I`` (to 1e-10) are checked at
    construction; complete positivity is implied by the Kraus form.
    """

    dim_in: int
    dim_out: int
    ops: np.ndarray = field(repr=False)

    def __post_init__(self):
        if len(self.ops) == 0:
            raise InvalidParameterError("a channel needs at least one Kraus operator")
        for k in self.ops:
            if np.shape(k) != (self.dim_out, self.dim_in):
                raise DimensionMismatchError(
                    f"Kraus operator shape {np.shape(k)} != ({self.dim_out}, {self.dim_in})"
                )
        ops = np.array(self.ops, dtype=complex)
        if not np.isfinite(ops).all():
            raise InvalidParameterError("Kraus operators must have finite entries")
        total = np.einsum("kai,kaj->ij", ops.conj(), ops)
        if np.abs(total - np.eye(self.dim_in)).max() > _TP_TOL:
            raise InvalidParameterError("Kraus operators are not trace preserving")
        ops.setflags(write=False)
        object.__setattr__(self, "ops", ops)


#: axes of a (d_A, d_B, d_A, d_B) operator that put the row and column index
#: of the acted-on factor last, and the axes that put them back
_ACTED_LAST = {"A": (1, 3, 0, 2), "B": (0, 2, 1, 3)}
_ACTED_BACK = {"A": (2, 0, 3, 1), "B": (0, 2, 1, 3)}


def _act_on_factor(k: np.ndarray, m: np.ndarray, dims: tuple[int, int], side: str) -> np.ndarray:
    """``sum_k K_k m K_k^dag`` for a stack ``k`` of (n, d_out, d_in) operators
    acting on factor ``side`` of a (d_A, d_B) operator ``m``, or of each
    operator in a stack ``(..., d_A d_B, d_A d_B)``. This is the only Kraus
    sum in the package: channel application of every kind and the adjoint map
    (the stack ``K^dag``, which need not be trace preserving) reduce to it.

    The Kraus set becomes one superoperator ``S = sum_k K_k (x) conj(K_k)``
    of shape (d_out^2, d_in^2), acting on the row-major vector of the factor.
    The acted-on index pair is moved last, the whole stack is multiplied by
    ``S^T`` once, and the axes are moved back; each matrix of a stack comes
    out exactly as it does alone."""
    _, d_out, d_in = k.shape
    s = np.einsum("kai,kbj->abij", k, k.conj()).reshape(d_out * d_out, d_in * d_in)
    lead = m.shape[:-2]
    front = tuple(range(len(lead)))
    d_a, d_b = dims
    kept = d_b if side == "A" else d_a
    r = m.reshape(lead + (d_a, d_b, d_a, d_b))
    r = r.transpose(front + tuple(len(lead) + i for i in _ACTED_LAST[side]))
    out = (r.reshape(lead + (kept * kept, d_in * d_in)) @ s.T).reshape(
        lead + (kept, kept, d_out, d_out)
    )
    out = out.transpose(front + tuple(len(lead) + i for i in _ACTED_BACK[side]))
    d = kept * d_out
    return out.reshape(lead + (d, d))


def unitary_channel(u: np.ndarray) -> KrausChannel:
    u = np.asarray(u, dtype=complex)
    return KrausChannel(u.shape[0], u.shape[0], (u,))


def _check_unit(name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        raise InvalidParameterError(f"{name} must lie in [0, 1], got {value}")


def depolarizing(d: int, p: float) -> KrausChannel:
    """Depolarizing channel ``X -> p X + (1-p) Tr(X) I/d`` for d in {2,3,4}."""
    if d not in (2, 3, 4):
        raise InvalidParameterError(f"depolarizing supported for d in {{2,3,4}}, got {d}")
    _check_unit("p", p)
    units = np.eye(d * d).reshape(d * d, d, d)
    ops = np.concatenate([np.sqrt(p) * np.eye(d)[None], np.sqrt((1 - p) / d) * units])
    return KrausChannel(d, d, ops)


def apply(channel: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply a channel to the whole system of a bipartite state."""
    if channel.dim_in != rho.dim:
        raise DimensionMismatchError(
            f"channel dim {channel.dim_in} does not match state dim {rho.dim}"
        )
    out = _act_on_factor(channel.ops, rho.matrix, (1, channel.dim_in), "B")
    dims = rho.dims if channel.dim_out == channel.dim_in else (1, channel.dim_out)
    return DensityMatrix(dims, out)


def apply_one_sided(channel: KrausChannel, rho: DensityMatrix, side: str = "B") -> DensityMatrix:
    """Apply ``I (x) N`` (side 'B') or ``N (x) I`` (side 'A')."""
    d_a, d_b = rho.dims
    if side == "B":
        if channel.dim_in != d_b:
            raise DimensionMismatchError(f"channel dim {channel.dim_in} != d_B {d_b}")
        dims = (d_a, channel.dim_out)
    elif side == "A":
        if channel.dim_in != d_a:
            raise DimensionMismatchError(f"channel dim {channel.dim_in} != d_A {d_a}")
        dims = (channel.dim_out, d_b)
    else:
        raise DimensionMismatchError(f"side must be 'A' or 'B', got {side!r}")
    return DensityMatrix(dims, _act_on_factor(channel.ops, rho.matrix, rho.dims, side))


def apply_two_local(n1: KrausChannel, n2: KrausChannel, rho: DensityMatrix) -> DensityMatrix:
    """Apply ``N1 (x) N2`` to a bipartite state."""
    d_a, d_b = rho.dims
    if n1.dim_in != d_a or n2.dim_in != d_b:
        raise DimensionMismatchError(
            f"channel dims ({n1.dim_in}, {n2.dim_in}) do not match state dims {rho.dims}"
        )
    m = _act_on_factor(n2.ops, rho.matrix, rho.dims, "B")
    m = _act_on_factor(n1.ops, m, (d_a, n2.dim_out), "A")
    return DensityMatrix((n1.dim_out, n2.dim_out), m)


def compose(n1: KrausChannel, n2: KrausChannel) -> KrausChannel:
    """Serial composition ``N1 o N2`` (N2 acts first)."""
    if n2.dim_out != n1.dim_in:
        raise DimensionMismatchError(
            f"cannot compose: inner dims {n2.dim_out} != {n1.dim_in}"
        )
    ops = tuple(k1 @ k2 for k1 in n1.ops for k2 in n2.ops)
    return KrausChannel(n2.dim_in, n1.dim_out, ops)


def convex_mix(lam: float, n1: KrausChannel, n2: KrausChannel) -> KrausChannel:
    """Convex mixture ``lam N1 + (1 - lam) N2``."""
    _check_unit("mixing weight", lam)
    if (n1.dim_in, n1.dim_out) != (n2.dim_in, n2.dim_out):
        raise DimensionMismatchError("mixed channels must share input/output dims")
    ops = []
    if lam > 0:
        ops.append(np.sqrt(lam) * n1.ops)
    if lam < 1:
        ops.append(np.sqrt(1 - lam) * n2.ops)
    return KrausChannel(n1.dim_in, n1.dim_out, np.concatenate(ops))


# -- closed-form qubit depolarizing outputs ---------------------------------


def depol_2local_fidelity(p: float, q0: float) -> float:
    """Output fidelity of ``N_2 (x) N_2`` on the Schmidt state with
    weight q0: ``(1/4)[1 + p^2 + 4 p^2 sqrt(q0 (1 - q0))]``."""
    _check_unit("p", p)
    _check_unit("q0", q0)
    return (1.0 + p**2 + 4.0 * p**2 * np.sqrt(q0 * (1.0 - q0))) / 4.0


def depol_fbc_fidelity(p: float, q0: float) -> float:
    """Output fidelity of the one-sided ``I (x) N_2`` on the Schmidt state:
    ``(1/4)[1 + p + 4 p sqrt(q0 (1 - q0))]``."""
    _check_unit("p", p)
    _check_unit("q0", q0)
    return (1.0 + p + 4.0 * p * np.sqrt(q0 * (1.0 - q0))) / 4.0


def two_local_depol_output(p: float, q0: float) -> np.ndarray:
    """Closed-form output matrix of ``N_2 (x) N_2`` on the Schmidt state."""
    _check_unit("p", p)
    _check_unit("q0", q0)
    q1 = 1.0 - q0
    c = 4.0 * p**2 * np.sqrt(q0 * q1) / 4.0
    return np.array(
        [
            [((1 - p) ** 2 + 4 * p * q0) / 4, 0, 0, c],
            [0, (1 - p**2) / 4, 0, 0],
            [0, 0, (1 - p**2) / 4, 0],
            [c, 0, 0, ((1 - p) ** 2 + 4 * p * q1) / 4],
        ],
        dtype=complex,
    )


def one_sided_depol_output(p: float, q0: float) -> np.ndarray:
    """Closed-form output matrix of ``I (x) N_2`` on the Schmidt state."""
    _check_unit("p", p)
    _check_unit("q0", q0)
    q1 = 1.0 - q0
    c = p * np.sqrt(q0 * q1)
    return np.array(
        [
            [(2 * p * q0 + (1 - p) * q0) / 2, 0, 0, c],
            [0, (1 - p) * q0 / 2, 0, 0],
            [0, 0, (1 - p) * q1 / 2, 0],
            [c, 0, 0, (2 * p * q1 + (1 - p) * q1) / 2],
        ],
        dtype=complex,
    )


def qutrit_witness_min(p: float) -> float:
    """Minimum over Schmidt inputs of ``Tr[W omega_out]`` for the two-local
    qutrit depolarizing channel: ``(2 - 8 p^2)/9``, attained at the
    uniform Schmidt vector (1/3, 1/3, 1/3)."""
    _check_unit("p", p)
    return (2.0 - 8.0 * p**2) / 9.0


# -- channel serialization ---------------------------------------------------


def write_channel_file(channel: KrausChannel, path) -> None:
    """Write a channel as text: a ``dims d_in d_out`` line, a ``kraus n``
    line, then each operator as d_out rows of complex literals separated
    by blank lines."""
    lines = [f"dims {channel.dim_in} {channel.dim_out}", f"kraus {len(channel.ops)}"]
    for k in channel.ops:
        lines += ["", *_format_rows(k)]
    _write_lines(lines, path)


def read_channel_file(path) -> KrausChannel:
    """Parse a channel file written by :func:`write_channel_file`."""
    lines = _read_lines(path)
    if len(lines) < 2 or not lines[0].startswith("dims") or not lines[1].startswith("kraus"):
        raise ParseError("channel file must start with 'dims' and 'kraus' lines")
    try:
        _, d_in, d_out = lines[0].split()
        d_in, d_out = int(d_in), int(d_out)
        count = int(lines[1].split()[1])
    except (ValueError, IndexError) as exc:
        raise ParseError("malformed channel header") from exc
    body = lines[2:]
    if len(body) != count * d_out:
        raise ParseError(f"expected {count * d_out} operator rows, found {len(body)}")
    ops = [_parse_rows(body[i * d_out : (i + 1) * d_out], d_in) for i in range(count)]
    try:
        return KrausChannel(d_in, d_out, ops)
    except (InvalidParameterError, DimensionMismatchError) as exc:
        raise ParseError(f"file does not contain a valid channel: {exc}") from exc
