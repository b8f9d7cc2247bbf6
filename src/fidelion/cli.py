"""Command-line front end.

Subcommands: ``analyze`` a state file, ``witness`` a state file, ``sweep``
a channel family over p, find a class ``threshold``, and ``verify`` the
inequality suites. CSV output uses a header row, '.' decimals, and 12
significant digits; identical (command, seed, config) produce byte
identical files. Exit status: 0 success, 1 verification failure, 2 input
error.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import os
import sys

import numpy as np

from . import classifiers, theorems
from .channels import read_channel_file
from .entropy import entropy_summary
from .errors import FidelionError, InvalidParameterError
from .fidelity import (
    MAX_RESTARTS,
    _check_restarts,
    _two_qubit_spectrum,
    fidelity_optimize,
    fidelity_upper_bound,
    teleportation_witness,
    witness_value,
)
from .states import BOUNDARY_TOL, decompose, read_state_file

DEFAULT_SEED = 42
DEFAULT_GRID = 101
DEFAULT_RESTARTS = 20
#: bound on ``--grid`` values of p (one for ``user-kraus``) times ``--grid``,
#: checked before the p grid is built; the rows a sweep scores lie below it,
#: as a depolarizing family scores the ascending rows of its lattice alone
#: (51 of 101 at d = 2, 23 of 107 at d = 3), and the NCEAC qubit sweep at
#: ``--grid 1001`` takes about 0.5 s on a 2-core machine
MAX_SWEEP_ROWS = 10**8


def _fmt(x: float) -> str:
    # adding 0.0 turns -0.0 into 0.0, so no value prints as "-0"
    return f"{float(x) + 0.0:.12g}"


def _write_csv(path: str | None, header: list[str], rows: list[list]) -> None:
    """Write the CSV to ``path``, or to standard output when it is None."""
    formatted = [[c if isinstance(c, str) else _fmt(c) for c in row] for row in rows]
    target = contextlib.nullcontext(sys.stdout) if path is None else open(path, "w", newline="")
    with target as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(formatted)


def _resolve_seed(args) -> int:
    seed, source = args.seed, "--seed"
    if seed is None:
        env = os.environ.get("FIDELION_SEED")
        if env is None:
            return DEFAULT_SEED
        try:
            seed, source = int(env), "FIDELION_SEED"
        except ValueError:
            raise InvalidParameterError(f"FIDELION_SEED must be an integer, got {env!r}") from None
    if seed < 0:
        raise InvalidParameterError(f"{source} must be non-negative, got {seed}")
    return seed


def _cmd_analyze(args) -> int:
    rho = read_state_file(args.state)
    d_a, d_b = rho.dims
    lines = [f"state: dims {d_a} x {d_b}"]
    rows: list[list] = []

    if d_a == d_b and 2 <= d_a <= 4:
        res = fidelity_optimize(rho, restarts=args.restarts, seed=args.seed)
        if res.method == "optimized":
            lines.append(
                f"fidelity: bracket [{_fmt(res.value)}, {_fmt(res.upper)}] (optimized)"
                f" restarts={res.restarts} steps={res.iterations}"
            )
        else:
            lines.append(f"fidelity: {_fmt(res.value)} ({res.method})")
        rows.append(["F", res.value, res.method])
        bound = fidelity_upper_bound(rho)
        lines.append(f"lambda_max bound: {_fmt(bound)}")
        rows.append(["lambda_max", bound, "spectral"])

    if rho.dims == (2, 2):
        bf = decompose(rho)
        sing, _ = _two_qubit_spectrum(bf.t)
        lines.append(
            "bloch: |a|=" + _fmt(np.linalg.norm(bf.a))
            + " |b|=" + _fmt(np.linalg.norm(bf.b))
            + " singular(T)=(" + ", ".join(_fmt(s) for s in sing) + ")"
            + " |T|_1=" + _fmt(sing.sum())
        )

    lines.append("entropies:")
    for name, rep in entropy_summary(rho).items():
        lines.append(f"  {name} = {_fmt(rep.value)} ({rep.method})")
        rows.append([name, rep.value, rep.method])

    print("\n".join(lines))
    if args.out:
        _write_csv(args.out, ["quantity", "value", "method"], rows)
    return 0


def _cmd_witness(args) -> int:
    rho = read_state_file(args.state)
    d_a, d_b = rho.dims
    if d_a != d_b:
        raise FidelionError(f"witness needs a d x d state, got dims {rho.dims}")
    w = teleportation_witness(d_a)
    value = witness_value(w, rho)
    # a value within BOUNDARY_TOL of 0, as a product or an isotropic state at
    # F = 1/d gives up to rounding, detects nothing
    verdict = "useful-for-teleportation" if value < -BOUNDARY_TOL else "not-detected"
    print(f"Tr[W rho] = {_fmt(value)} ({verdict})")
    if args.out:
        _write_csv(args.out, ["d", "value", "verdict"], [[str(d_a), value, verdict]])
    return 0


def _load_channel(args):
    if getattr(args, "channel", None) is None:
        return None
    return read_channel_file(args.channel)


def _cmd_sweep(args) -> int:
    classifiers._check_grid(args.grid)
    for flag, p in (("--p-min", args.p_min), ("--p-max", args.p_max)):
        # NaN fails the comparison too
        if not 0.0 <= p <= 1.0:
            raise InvalidParameterError(f"{flag} must be a finite number in [0, 1], got {p}")
    n_p = 1 if args.family == "user-kraus" else args.grid
    if n_p * args.grid > MAX_SWEEP_ROWS:
        raise InvalidParameterError(
            f"--grid {args.grid} gives {n_p} values of p times {args.grid} lattice points,"
            f" more than {MAX_SWEEP_ROWS} rows"
        )
    channel = _load_channel(args)
    if args.family == "user-kraus":
        ps = [0.0]
    else:
        ps = np.linspace(args.p_min, args.p_max, args.grid).tolist()
    reports = classifiers.certify_many(
        args.cls, args.family, ps, args.grid,
        channel=channel, restarts=args.restarts, seed=args.seed,
    )
    rows = [
        [rep.cls, rep.p, float(rep.worst_input.q[0]), rep.worst_value, rep.verdict, rep.margin]
        for rep in reports
    ]
    _write_csv(args.out, ["class", "p", "q0_worst", "value", "verdict", "margin"], rows)
    return 0


def _cmd_threshold(args) -> int:
    res = classifiers.threshold(args.cls, args.family, grid=args.grid)
    print(
        f"class={args.cls} family={args.family} p_star={_fmt(res.p_star)} "
        f"bracket=[{_fmt(res.bracket[0])}, {_fmt(res.bracket[1])}] "
        f"iterations={res.iterations}"
    )
    if args.out:
        _write_csv(
            args.out,
            ["class", "family", "p_star", "lo", "hi", "iterations"],
            [[args.cls, args.family, res.p_star, res.bracket[0], res.bracket[1],
              str(res.iterations)]],
        )
    return 0


def _cmd_verify(args) -> int:
    checks = theorems.run_suite(args.suite, samples=args.samples, seed=args.seed)
    rows = [
        [c.theorem_id, str(c.samples), str(c.failures), str(c.excluded), c.worst_margin]
        for c in checks
    ]
    _write_csv(args.out, ["theorem_id", "samples", "failures", "excluded", "worst_margin"], rows)
    return 1 if any(c.failures for c in checks) else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fidelion",
        description="Entanglement fidelity, entropies, and channel-class certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, grid=False, restarts=False, samples=False):
        p.add_argument("--seed", type=int, default=None,
                       help="RNG seed (default 42; FIDELION_SEED overrides when absent)")
        p.add_argument("--out", default=None, help="write CSV to this path")
        if grid:
            p.add_argument("--grid", type=int, default=DEFAULT_GRID,
                           help="grid size for p sweeps and Schmidt searches")
        if restarts:
            p.add_argument("--restarts", type=int, default=DEFAULT_RESTARTS,
                           help=f"optimizer restarts, 1 to {MAX_RESTARTS}; run time"
                           " grows linearly in restarts")
        if samples:
            p.add_argument("--samples", type=int, default=10_000,
                           help="random states per check")

    p = sub.add_parser("analyze", help="fidelity, entropies, and Bloch data of a state file")
    p.add_argument("state")
    common(p, restarts=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("witness", help="teleportation-witness value of a state file")
    p.add_argument("state")
    common(p)
    p.set_defaults(func=_cmd_witness)

    p = sub.add_parser("sweep", help="classify a channel family across p")
    p.add_argument("--class", dest="cls", required=True, choices=classifiers.CLASSES)
    p.add_argument("--family", required=True, choices=classifiers.FAMILIES)
    p.add_argument("--channel", default=None, help="channel file for family user-kraus")
    p.add_argument("--p-min", type=float, default=0.0)
    p.add_argument("--p-max", type=float, default=1.0)
    common(p, grid=True, restarts=True)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("threshold", help="bisect the membership boundary in p")
    p.add_argument("--class", dest="cls", required=True, choices=classifiers.CLASSES)
    p.add_argument("--family", required=True, choices=tuple(classifiers.DEPOLARIZING))
    common(p, grid=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("verify", help="run the inequality suites on random states")
    p.add_argument("--suite", default="all", choices=("all",) + theorems.SUITES)
    p.add_argument("--opt-restarts", type=int, default=4,
                   help="range-checked and unused: the relent check maximizes"
                        " its two-qubit states exactly")
    common(p, samples=True)
    p.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parsing leaves the parser as it was, so one serves every call of main
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # every command takes --seed; a bad one is an input error even
        # where the command draws nothing from it, and so is a restart count
        # out of range where the command runs no optimizer; a sample count
        # out of range is rejected before any draw
        args.seed = _resolve_seed(args)
        for flag in ("restarts", "opt_restarts"):
            if hasattr(args, flag):
                _check_restarts(getattr(args, flag), f"--{flag.replace('_', '-')}")
        if hasattr(args, "samples"):
            theorems._check_samples(args.samples, "--samples")
        return args.func(args)
    except (FidelionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
