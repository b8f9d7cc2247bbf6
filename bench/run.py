"""Benchmark of fidelion's CLI workloads, end to end and per module.

Usage, from the root of a checkout:

    python3 bench/run.py --workload verify-qubit --seed 42 --seconds 15 --trace 0

With ``--trace 0`` it repeats passes of the workload's operations for
``--seconds`` seconds with tracing off and reports the end-to-end metrics
(``wall_ref``, ``setup_s``, ``peak_rss_mb``). With ``--trace 1`` it runs
untraced passes for half the time, then the same passes again with every
traced function wrapped, and reports the per-layer metrics and the tracing
overhead. Times are reported in reference units: each operation's wall time
is divided by the speed of the machine measured while it ran (see
``SpeedSampler``); raw seconds stay in the record.

Every operation's output is checked and hashed; operations whose inputs are
equal must give identical bytes, traced or not. The last line of standard
output is the JSON result; the full record, with provenance, is written to
``bench/out/``. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

# one thread per process: pin BLAS and OpenMP before numpy is imported
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

#: fresh interpreters started to time set-up; the median is reported
SETUP_RUNS = 5
#: a run always measures at least this many untraced passes
MIN_PASSES = 2
#: the reference kernel's operand; one reference unit is REF_UNIT_REPS
#: iterations (about 40 ms on a quiet 2-core Xeon VM), and the speed sampler
#: runs SLICE_REPS iterations every SAMPLE_PERIOD_S seconds (about 5 % extra)
REF_UNIT_REPS = 1000
SLICE_REPS = 80
SAMPLE_PERIOD_S = 0.05
REF_MATRIX = np.add.outer(np.arange(4.0), np.arange(4.0)) + np.diag([1.0, -2.0, 3.0, -4.0])
_EIGH = np.linalg.eigh
SETUP_CODE = "import fidelion.cli as c; c.build_parser(); print('ready', flush=True)"

#: span names reported as <name>.calls and <name>.self_ref
LAYERS = ("states.DensityMatrix", "states.random_density_matrix", "states.decompose",
          "states.schmidt_state", "linalg.partial_trace", "linalg.matrix_log_on_support",
          "entropy", "channels.apply_one_sided", "channels.apply_two_local",
          "channels.depolarizing", "classifiers.certify", "classifiers.threshold",
          "fidelity.fidelity_optimize", "fidelity.r_quantity", "fidelity.fidelity_two_qubit",
          "theorems.run_suite")


class Ledger:
    """Counts attempted and failed operations and compares output digests:
    two runs of an operation with the same key must give identical bytes."""

    def __init__(self):
        self.digests: dict[tuple, str] = {}
        self.key_runs: Counter = Counter()
        self.attempted = 0
        self.failures: list[dict] = []
        self.verdicts = Counter()

    def record(self, op, outcome, label: str) -> bool:
        self.attempted += 1
        digest = hashlib.sha256(outcome.output).hexdigest()
        self.key_runs[op.key] += 1
        first = self.digests.setdefault(op.key, digest)
        if not outcome.ok:
            reason = outcome.reason or "check failed"
        elif first != digest:
            reason = "output bytes differ from an earlier run with the same inputs"
        else:
            reason = ""
        if outcome.verdict is not None:
            self.verdicts[outcome.verdict] += 1
        if reason:
            self.failures.append({"op": op.kind, "run": label, "reason": reason})
            return False
        return True


def reference_slice() -> float:
    """Run one slice of the reference kernel and return its duration.

    The kernel is fixed work in fidelion's mix (4x4 ``eigh``, ``kron``, a
    matrix product, interpreter overhead) that calls no fidelion code. It uses
    the eigensolver bound at import, so the tracer's counters never see it."""
    t0 = time.perf_counter()
    for _ in range(SLICE_REPS):
        _, v = _EIGH(REF_MATRIX)
        np.kron(v[:2, :2], v[2:, 2:]) @ REF_MATRIX
    return time.perf_counter() - t0


class SpeedSampler:
    """Measures how fast the machine runs while an operation runs.

    Inside the block a timer signal runs a reference slice every
    ``SAMPLE_PERIOD_S`` seconds, between the operation's bytecodes; one more
    slice runs before and after the block. On a shared host the speed of a
    core changes within a second, so only samples taken during the operation
    track it."""

    def __init__(self):
        self.slices: list[float] = []
        self.busy_s = 0.0  # slices run inside the block
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.busy_s += self._record()

    def _record(self) -> float:
        duration = reference_slice()
        self.slices.append(duration)
        return duration

    def __enter__(self):
        self.slices, self.busy_s = [], 0.0
        self._record()
        self.start, self._c0 = time.perf_counter(), time.process_time()
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        #: the block's wall and CPU seconds, without the slices run inside it
        self.wall_s = time.perf_counter() - self.start - self.busy_s
        self.cpu_s = time.process_time() - self._c0 - self.busy_s
        self._record()

    def ref_unit_s(self) -> float:
        """Seconds one reference unit (REF_UNIT_REPS kernel iterations) took."""
        return statistics.fmean(self.slices) * REF_UNIT_REPS / SLICE_REPS


def run_pass(ops, ledger: Ledger, sampler: SpeedSampler, label: str) -> dict:
    """Run one pass's operations in order; time each call, then check it.

    An operation's ``wall_s`` excludes the sampler's slices, and its
    ``wall_ref`` is ``wall_s`` in reference units measured during it."""
    from workloads import Outcome

    records = []
    for op in ops:
        with sampler:
            try:
                result, error = op.call(), None
            except Exception:  # a crash is a failed operation, not a failed run
                result, error = None, traceback.format_exc(limit=3)
        wall, cpu, ref = sampler.wall_s, sampler.cpu_s, sampler.ref_unit_s()
        outcome = op.check(result) if error is None else Outcome(False, b"", error)
        ok = ledger.record(op, outcome, label)
        records.append({"kind": op.kind, "start": sampler.start, "wall_s": wall,
                        "cpu_s": cpu, "sampler_s": sampler.busy_s, "ref_unit_s": ref,
                        "wall_ref": wall / ref, "ok": ok, "samples": op.samples,
                        "items": op.items, "bracket_gap": outcome.bracket_gap})
    return {"label": label,
            **{key: sum(r[key] for r in records) for key in ("wall_s", "cpu_s", "wall_ref")},
            "ops": records}


def timed_passes(build, seed: int, seconds: float, ledger: Ledger,
                 sampler: SpeedSampler) -> list[dict]:
    """Untraced passes k = 0, 1, ... until ``seconds`` have passed."""
    passes = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        k = len(passes)
        passes.append(run_pass(build(seed, k, OUT), ledger, sampler, f"pass{k}"))
    return passes


def rerun_pass0(build, seed: int, ledger: Ledger, sampler: SpeedSampler) -> None:
    """Run pass 0's operations whose inputs no other pass repeated, so that
    every output is compared with a second untraced run."""
    ops = [op for op in build(seed, 0, OUT) if ledger.key_runs[op.key] == 1]
    if ops:
        run_pass(ops, ledger, sampler, "rerun0")


def measure_setup() -> float:
    """Median time for a fresh interpreter to import fidelion.cli and build
    the parser, timed from the parent until the child reports ready."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        with subprocess.Popen([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env,
                              stdout=subprocess.PIPE, text=True) as child:
            try:
                line = child.stdout.readline().strip()
                elapsed = time.perf_counter() - t0
                child.stdout.read()
                code = child.wait(timeout=60)
            except BaseException:
                child.kill()
                raise
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up child failed: exit {code}, output {line!r}")
        times.append(elapsed)
    return statistics.median(times)


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git reports "unknown")."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(workload: str, seed: int, seconds: int, trace: int) -> dict:
    import scipy
    from workloads import SIZES

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": SIZES[workload],
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[dict]) -> dict:
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "wall_ref": metric(statistics.median(p["wall_ref"] for p in passes), "ref"),
        "setup_s": metric(measure_setup(), "s"),
        "peak_rss_mb": metric(peak_kb / 1024.0, "MB"),
    }


def per_layer(tracer, untraced: list[dict], traced: list[dict], ledger: Ledger) -> dict:
    """Counts come from traced pass 0, whose inputs the seed fixes. Self times
    are medians over the traced passes, and per-suite rates come from the
    untraced passes; both are in reference units, like ``wall_ref``."""
    import workloads
    from tracer import SPANS

    totals = [tracer.layer_totals(k, [r["start"] for r in p["ops"]],
                                  [r["ref_unit_s"] for r in p["ops"]])
              for k, p in enumerate(traced)]
    counts = tracer.counts.get(0, {})

    def calls(name):
        return totals[0].get(name, (0, 0.0))[0]

    def self_ref(name):
        return statistics.median(t.get(name, (0, 0.0))[1] for t in totals)

    out = {}
    for name in LAYERS:
        out[f"{name}.calls"] = metric(calls(name), "count")
        out[f"{name}.self_ref"] = metric(self_ref(name), "ref")

    outputs = calls("channels.apply_one_sided") + calls("channels.apply_two_local")
    certifies = calls("classifiers.certify")
    items = sum(r["items"] for r in traced[0]["ops"]) + outputs
    eig = counts.get("linalg.eig", 0)
    out["linalg.eig.calls"] = metric(eig, "count")
    out["linalg.eig.per_item"] = metric(eig / items if items else 0.0, "count/item")
    out["linalg.svd.calls"] = metric(counts.get("linalg.svd", 0), "count")
    out["classifiers.outputs_per_certify"] = metric(
        outputs / certifies if certifies else 0.0, "count/call")
    checked = sum(ledger.verdicts.values())
    out["classifiers.undecided_fraction"] = metric(
        ledger.verdicts["undecided"] / checked if checked else 0.0, "fraction")
    out["fidelity.fidelity_optimize.evals"] = metric(
        counts.get("fidelity.fidelity_optimize.evals", 0), "count")
    out["fidelity.unitary_from_params.calls"] = metric(
        counts.get("fidelity.unitary_from_params", 0), "count")
    gaps = [r["bracket_gap"] for r in untraced[0]["ops"] if r["bracket_gap"] is not None]
    out["fidelity.bracket_gap"] = metric(gaps[0] if gaps else 0.0, "1")

    for suite in workloads.VERIFY_IDS:
        costs = [r["wall_ref"] / r["samples"] * 1000 for p in untraced for r in p["ops"]
                 if r["kind"] == f"verify:{suite}"]
        out[f"theorems.{suite}.ref_per_ksample"] = metric(
            statistics.median(costs) if costs else 0.0, "ref/ksample")
    for check in (name for name in SPANS if name.startswith("theorems.check_")):
        out[f"{check}.self_ref"] = metric(self_ref(check), "ref")
    rates = []
    for p in untraced:
        verify = [r for r in p["ops"] if r["kind"].startswith("verify:")]
        if verify:
            rates.append(sum(r["samples"] for r in verify) / sum(r["wall_ref"] for r in verify))
    out["theorems.verify_samples_per_ref"] = metric(
        statistics.median(rates) if rates else 0.0, "1/ref")
    out["cli.main.self_ref"] = metric(self_ref("cli.main"), "ref")
    overhead = (statistics.median(p["wall_ref"] for p in traced)
                / statistics.median(p["wall_ref"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = metric(overhead, "fraction")
    return out


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=int, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (SRC / "fidelion" / "cli.py").is_file():
        print(f"error: no fidelion sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    args = parse_args(argv)

    import workloads

    OUT.mkdir(exist_ok=True)
    build = workloads.WORKLOADS[args.workload]
    ledger = Ledger()
    sampler = SpeedSampler()
    record = {"provenance": provenance(args.workload, args.seed, args.seconds, args.trace)}

    if args.trace == 0:
        untraced = timed_passes(build, args.seed, args.seconds, ledger, sampler)
        rerun_pass0(build, args.seed, ledger, sampler)
        metrics = end_to_end(untraced)
    else:
        from tracer import Tracer

        untraced = timed_passes(build, args.seed, args.seconds / 2, ledger, sampler)
        rerun_pass0(build, args.seed, ledger, sampler)
        tracer = Tracer()
        traced = []
        for k in range(len(untraced)):
            ops = build(args.seed, k, OUT)
            with tracer.installed(k):
                traced.append(run_pass(ops, ledger, sampler, f"traced{k}"))
        metrics = per_layer(tracer, untraced, traced, ledger)
        spans = OUT / f"{args.workload}-seed{args.seed}.spans.npz"
        record["spans"] = {"path": str(spans.relative_to(ROOT)), "count": tracer.save(spans)}
        record["traced_passes"] = traced

    record["provenance"]["passes"] = len(untraced)
    record.update(untraced_passes=untraced, failures=ledger.failures, metrics=metrics)
    result = {"correct": not ledger.failures, "attempted": ledger.attempted,
              "failed": len(ledger.failures), "metrics": metrics}
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    for failure in ledger.failures:
        print(f"failed: {failure}", file=sys.stderr)
    print("provenance: " + json.dumps(record["provenance"]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
