"""The benchmark's workloads: the operations of one pass and the check of
each operation's output.

A pass is a list of operations built from the workload seed and the pass
number. Random inputs are drawn from a stream keyed by (seed, pass), so no two
passes of a run share an input and a cache of earlier results cannot help.
Operations whose inputs do not depend on the pass (the qubit thresholds and
the qutrit certificate) repeat identically in every pass. Building a pass
writes its input files; only ``Op.call`` is timed.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from fidelion import classifiers, cli
from fidelion.states import random_density_matrix, write_state_file

VERIFY_SUITES = ("lemma1", "renyi", "tsallis", "minentropy", "weyl")
THRESHOLD_CLASSES = ("FBC", "FAC2", "NCEBC", "NCEAC")

#: theorem ids each suite must report, in CSV order
VERIFY_IDS = {
    "lemma1": ("lemma1",),
    "renyi": ("theorem6", "theorem7"),
    "tsallis": ("theorem12", "theorem13"),
    "minentropy": ("theorem8", "theorem9", "theorem10", "theorem11"),
    "weyl": ("obs1", "obs2", "obs3", "obs4", "obs5", "obs6"),
    "relent": ("theorem14",),
}

#: analytic qubit-depolarizing thresholds (the repository's reference gates)
THRESHOLD_REFERENCE = {"FBC": 0.33333, "FAC2": 0.57735, "NCEBC": 0.747614, "NCEAC": 0.86465}
THRESHOLD_TOL = 1e-4
BRACKET_MAX = 1e-5

#: the analyze CSV rounds to 12 significant digits, so F and its upper bound
#: may tie or cross by one unit in the last printed digit
CSV_ROUNDING = 1e-12

SIZES = {
    "verify-qubit": {"suites": list(VERIFY_SUITES), "samples_per_suite": 2000},
    "threshold-qubit": {
        "classes": list(THRESHOLD_CLASSES),
        "family": "qubit-depol",
        "grid": 101,
    },
    "fidelity-search": {
        "relent_samples": 12,
        "relent_restarts": 4,
        "certify": {"class": "FAC2", "family": "qutrit-depol", "p": 0.4, "restarts": 1},
        "analyze_dims": [4, 4],
        "analyze_restarts": 20,
    },
}


@dataclass(frozen=True)
class Outcome:
    """Result of checking one operation's output."""

    ok: bool
    output: bytes  # the bytes that must repeat whenever the key repeats
    reason: str = ""
    verdict: str | None = None
    bracket_gap: float | None = None


@dataclass(frozen=True)
class Op:
    """One timed call into fidelion and the check of what it returned."""

    kind: str
    key: tuple  # operations with equal keys must give byte-identical output
    call: Callable[[], object]
    check: Callable[[object], Outcome]
    samples: int = 0  # verified samples (random states) the operation covers
    items: int = 0  # samples plus analyzed states, the base of eig-per-item


def pass_seed(seed: int, k: int) -> int:
    """Seed of pass ``k``: independent streams for every (seed, pass)."""
    return int(np.random.SeedSequence([seed, k]).generate_state(1)[0])


def _cli_op(kind, key, argv, out: Path, check_rows, samples=0, items=0) -> Op:
    def call():
        out.unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv + ["--out", str(out)])

    def check(code) -> Outcome:
        if code != 0:
            return Outcome(False, b"", f"exit code {code}")
        if not out.is_file():
            return Outcome(False, b"", "no CSV written")
        data = out.read_bytes()
        try:
            return check_rows(data, list(csv.reader(io.StringIO(data.decode()))))
        except (ValueError, IndexError, KeyError) as exc:
            return Outcome(False, data, f"malformed CSV: {exc!r}")

    return Op(kind, key, call, check, samples, items)


def _check_verify(suite: str, samples: int):
    def check(data, rows) -> Outcome:
        if rows[0] != ["theorem_id", "samples", "failures", "excluded", "worst_margin"]:
            return Outcome(False, data, f"header {rows[0]}")
        ids = tuple(r[0] for r in rows[1:])
        if ids != VERIFY_IDS[suite]:
            return Outcome(False, data, f"theorem ids {ids}")
        counted = 0
        for tid, n, failures, excluded, _ in rows[1:]:
            if int(failures):
                return Outcome(False, data, f"{tid}: {failures} failures")
            if int(n) + int(excluded) > samples:
                return Outcome(False, data, f"{tid}: more results than samples")
            counted += int(n)
        if counted == 0:
            return Outcome(False, data, "no sample was checked")
        return Outcome(True, data)

    return check


def _check_threshold(cls: str):
    def check(data, rows) -> Outcome:
        if rows[0] != ["class", "family", "p_star", "lo", "hi", "iterations"]:
            return Outcome(False, data, f"header {rows[0]}")
        row = rows[1]
        p, lo, hi = float(row[2]), float(row[3]), float(row[4])
        if row[0] != cls or len(rows) != 2:
            return Outcome(False, data, f"rows {rows[1:]}")
        if abs(p - THRESHOLD_REFERENCE[cls]) > THRESHOLD_TOL:
            return Outcome(False, data, f"p* {p} is not {THRESHOLD_REFERENCE[cls]}")
        if not lo <= p <= hi or hi - lo > BRACKET_MAX:
            return Outcome(False, data, f"bracket [{lo}, {hi}]")
        return Outcome(True, data)

    return check


def _check_analyze(data, rows) -> Outcome:
    if rows[0] != ["quantity", "value", "method"]:
        return Outcome(False, data, f"header {rows[0]}")
    values = {r[0]: float(r[1]) for r in rows[1:]}
    f, upper = values["F"], values["lambda_max"]
    if not (math.isfinite(f) and math.isfinite(upper)) or f > upper + CSV_ROUNDING:
        return Outcome(False, data, f"F {f} and upper bound {upper}")
    return Outcome(True, data, bracket_gap=upper - f)


def _certify_op(cls, family, p, restarts, seed) -> Op:
    def call():
        return classifiers.certify(cls, family, p, restarts=restarts, seed=seed)

    def check(rep) -> Outcome:
        q = ",".join(repr(float(x)) for x in rep.worst_input.q)
        data = (
            f"{rep.cls},{rep.p!r},{rep.verdict},{q},{rep.worst_value!r},"
            f"{rep.margin!r},{rep.evidence}\n"
        ).encode()
        # the analytic threshold is 1/2, so p = 0.4 is a member; "undecided"
        # is allowed and counted, a wrong verdict is a failure
        if rep.verdict not in ("member", "undecided"):
            return Outcome(False, data, f"verdict {rep.verdict}", verdict=rep.verdict)
        return Outcome(True, data, verdict=rep.verdict)

    return Op(f"certify:{cls}:{family}", ("certify", cls, family, p, restarts, seed),
              call, check)


def _verify_op(suite, samples, seed, out: Path, restarts=None) -> Op:
    argv = ["verify", "--suite", suite, "--samples", str(samples), "--seed", str(seed)]
    if restarts is not None:
        argv += ["--opt-restarts", str(restarts)]
    return _cli_op(f"verify:{suite}", ("verify", suite, samples, seed, restarts), argv,
                   out / f"verify-{suite}.csv", _check_verify(suite, samples),
                   samples=samples, items=samples)


def verify_qubit(seed: int, k: int, out: Path) -> list[Op]:
    sizes = SIZES["verify-qubit"]
    s = pass_seed(seed, k)
    return [_verify_op(suite, sizes["samples_per_suite"], s, out) for suite in sizes["suites"]]


def threshold_qubit(seed: int, k: int, out: Path) -> list[Op]:
    sizes = SIZES["threshold-qubit"]
    return [
        _cli_op(
            f"threshold:{cls}",
            ("threshold", cls, sizes["family"], sizes["grid"], seed),
            ["threshold", "--class", cls, "--family", sizes["family"],
             "--grid", str(sizes["grid"]), "--seed", str(seed)],
            out / f"threshold-{cls}.csv",
            _check_threshold(cls),
        )
        for cls in sizes["classes"]
    ]


def fidelity_search(seed: int, k: int, out: Path) -> list[Op]:
    sizes = SIZES["fidelity-search"]
    s = pass_seed(seed, k)
    state = out / "analyze-state.txt"
    d_a, d_b = sizes["analyze_dims"]
    write_state_file(random_density_matrix(d_a, d_b, seed=np.random.default_rng(s)), state)
    cert = sizes["certify"]
    return [
        _verify_op("relent", sizes["relent_samples"], s, out, restarts=sizes["relent_restarts"]),
        _certify_op(cert["class"], cert["family"], cert["p"], cert["restarts"], seed),
        _cli_op(
            "analyze",
            ("analyze", s, sizes["analyze_restarts"]),
            ["analyze", str(state), "--restarts", str(sizes["analyze_restarts"]),
             "--seed", str(s)],
            out / "analyze.csv",
            _check_analyze,
            items=1,
        ),
    ]


WORKLOADS = {
    "verify-qubit": verify_qubit,
    "threshold-qubit": threshold_qubit,
    "fidelity-search": fidelity_search,
}
