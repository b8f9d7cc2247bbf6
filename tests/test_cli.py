import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import fidelion
from fidelion import cli, fidelity
from fidelion.channels import depolarizing, write_channel_file
from fidelion.states import DensityMatrix, schmidt_state, write_state_file

BELL = schmidt_state([0.5, 0.5])
MIXED_4 = DensityMatrix((2, 2), np.eye(4) / 4)


@pytest.fixture
def bell_file(tmp_path):
    path = tmp_path / "bell.state"
    write_state_file(BELL, path)
    return str(path)


@pytest.fixture
def mixed_file(tmp_path):
    path = tmp_path / "mixed.state"
    write_state_file(MIXED_4, path)
    return str(path)


def run(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def value_of(out: str, label: str) -> float:
    for line in out.splitlines():
        if line.strip().startswith(label):
            return float(line.split("=")[1].split("(")[0].strip())
    raise AssertionError(f"label {label!r} not found in output:\n{out}")


class TestAnalyze:
    def test_bell(self, bell_file, capsys):
        code, out, _ = run(["analyze", bell_file], capsys)
        assert code == 0
        assert "fidelity: 1 (closed-form)" in out
        assert abs(value_of(out, "S(AB)")) <= 1e-9
        assert abs(value_of(out, "S(A|B)") + 1.0) <= 1e-9

    def test_maximally_mixed(self, mixed_file, capsys):
        code, out, _ = run(["analyze", mixed_file], capsys)
        assert code == 0
        assert "fidelity: 0.25 (closed-form)" in out
        assert abs(value_of(out, "S(AB)") - 2.0) <= 1e-9
        assert abs(value_of(out, "S(A|B)") - 1.0) <= 1e-9

    def test_werner_closed_form(self, tmp_path, capsys):
        rho = DensityMatrix((2, 2), 0.8 * BELL.matrix + 0.2 * np.eye(4) / 4)
        path = tmp_path / "werner.state"
        write_state_file(rho, path)
        code, out, _ = run(["analyze", str(path)], capsys)
        assert code == 0
        assert "fidelity: 0.85 (closed-form)" in out

    def test_csv_output(self, bell_file, tmp_path, capsys):
        out_csv = tmp_path / "report.csv"
        code, _, _ = run(["analyze", bell_file, "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "quantity,value,method"
        assert any(line.startswith("F,1,") for line in lines)
        # the rounded spectrum of this Bell state (top eigenvalue a hair above
        # 1) gives no negative unconditional entropy
        for name in ("S(AB)", "S2(AB)", "Sinf(AB)", "T2(AB)", "S2(AB) closed", "T2(AB) closed"):
            assert any(line.startswith(f"{name},0,") for line in lines), name
        # a Bell state with exact entries has a joint spectrum of exactly
        # {0, 0, 0, 1}; its zero entropies print as 0, not -0
        exact = tmp_path / "exact-bell.state"
        write_state_file(DensityMatrix((2, 2), np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2), exact)
        code, out, _ = run(["analyze", str(exact), "--out", str(out_csv)], capsys)
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert "S(AB),0,spectral" in lines
        assert "-0 " not in out and not any(",-0," in line for line in lines)

    def test_qutrit_reports_optimizer_work(self, tmp_path, capsys):
        path = tmp_path / "ent3.state"
        write_state_file(schmidt_state([0.5, 0.3, 0.2]), path)
        out_csv = tmp_path / "report.csv"
        code, out, _ = run(
            ["analyze", str(path), "--restarts", "3", "--out", str(out_csv)], capsys
        )
        assert code == 0
        line = next(x for x in out.splitlines() if x.startswith("fidelity:"))
        assert "(optimized) restarts=3 steps=" in line
        assert int(line.rsplit("steps=", 1)[1]) >= 3
        # the optimizer's work is printed, never written to the CSV
        assert "steps" not in out_csv.read_text()

    def test_missing_file_is_input_error(self, capsys):
        code, _, err = run(["analyze", "/nonexistent/state.txt"], capsys)
        assert code == 2
        assert "error" in err

    def test_malformed_file_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.state"
        path.write_text("garbage\n")
        code, _, err = run(["analyze", str(path)], capsys)
        assert code == 2

    def test_non_finite_entry_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "nan.state"
        path.write_text("dims 1 2\nnan+0j 0j\n0j 1+0j\n")
        code, out, err = run(["analyze", str(path)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert "non-finite" in err
        assert "Hermitian" not in err


class TestBadInput:
    @pytest.mark.parametrize("args,env", [
        (["analyze", "{qutrit}", "--restarts", "0"], {}),
        (["verify", "--suite", "relent", "--samples", "5", "--opt-restarts", "0"], {}),
        (["verify", "--suite", "lemma1", "--samples", "0"], {}),
        (["verify", "--suite", "all", "--samples", "-3"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--grid", "0"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--grid", "5"], {}),
        (["verify", "--suite", "lemma1", "--samples", "5"], {"FIDELION_SEED": "abc"}),
        (["sweep", "--class", "FBC", "--family", "user-kraus", "--channel", "{nanchannel}"], {}),
        (["sweep", "--class", "FAC2", "--family", "user-kraus", "--channel", "{nanchannel}"], {}),
        (["verify", "--suite", "lemma1", "--samples", "5", "--seed", "-1"], {}),
        (["verify", "--suite", "lemma1", "--samples", "5"], {"FIDELION_SEED": "-3"}),
        (["analyze", "{qutrit}", "--seed", "-1"], {}),
        (["sweep", "--class", "FAC2", "--family", "user-kraus", "--channel", "{channel}",
          "--seed", "-5"], {}),
        (["threshold", "--class", "FBC", "--family", "qubit-depol", "--seed", "-1"], {}),
        (["analyze", "{qubits}", "--seed", "-1"], {}),
        (["analyze", "{qubits}", "--restarts", "0"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--restarts", "0"], {}),
        (["verify", "--suite", "lemma1", "--samples", "5", "--opt-restarts", "0"], {}),
        (["sweep", "--class", "NCEBC", "--family", "user-kraus", "--channel", "{onechannel}"], {}),
        (["sweep", "--class", "NCEAC", "--family", "user-kraus", "--channel", "{onechannel}"], {}),
        (["sweep", "--class", "FBC", "--family", "user-kraus", "--channel", "{onechannel}"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--channel", "{channel}"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--p-max", "2"], {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--p-max", "inf"], {}),
        (["sweep", "--class", "NCEAC", "--family", "qubit-depol", "--p-min", "nan"], {}),
        (["sweep", "--class", "NCEAC", "--family", "qubit-depol", "--p-min", "-0.5"], {}),
        # far past MAX_GRID, where a missing bound fails at once on allocation
        (["threshold", "--class", "FBC", "--family", "qubit-depol", "--grid", "10000000000000"],
         {}),
        (["sweep", "--class", "FBC", "--family", "qubit-depol", "--grid", "10000000000000"], {}),
        # far past MAX_RESTARTS: analyze and a user FAC2 sweep would fail at
        # once on allocation, and verify would run and exit 0
        (["analyze", "{qutrit}", "--restarts", "10000000000000"], {}),
        (["sweep", "--class", "FAC2", "--family", "user-kraus", "--channel", "{channel}",
          "--restarts", "10000000000000"], {}),
        (["verify", "--suite", "relent", "--samples", "5", "--opt-restarts", "10000000000000"],
         {}),
    ], ids=["analyze-restarts-0", "relent-opt-restarts-0", "samples-0", "samples-negative",
            "sweep-grid-0", "sweep-grid-5", "env-seed-not-integer", "fbc-nan-channel",
            "fac2-nan-channel", "seed-negative", "env-seed-negative", "analyze-seed-negative",
            "sweep-seed-negative", "threshold-seed-negative", "analyze-2q-seed-negative",
            "analyze-2q-restarts-0", "sweep-depol-restarts-0", "lemma1-opt-restarts-0",
            "ncebc-one-dim-channel", "nceac-one-dim-channel", "fbc-one-dim-channel",
            "depol-family-with-channel", "sweep-p-max-2", "sweep-p-max-inf", "sweep-p-min-nan",
            "sweep-p-min-negative", "threshold-grid-huge", "sweep-grid-huge",
            "analyze-restarts-huge", "sweep-user-fac2-restarts-huge", "relent-opt-restarts-huge"])
    def test_rejected_with_exit_2(self, args, env, tmp_path, capsys, monkeypatch):
        for name, value in env.items():
            monkeypatch.setenv(name, value)
        qutrit = tmp_path / "qutrit.state"
        write_state_file(DensityMatrix((3, 3), np.eye(9) / 9), qutrit)
        qubits = tmp_path / "qubits.state"
        write_state_file(MIXED_4, qubits)
        nanchannel = tmp_path / "nan.chan"
        nanchannel.write_text("dims 2 2\nkraus 1\n\nnan+0j 0j\n0j 1+0j\n")
        onechannel = tmp_path / "one.chan"
        onechannel.write_text("dims 1 1\nkraus 1\n\n1+0j\n")
        channel = tmp_path / "depol.chan"
        write_channel_file(depolarizing(2, 0.5), channel)
        out_csv = tmp_path / "out.csv"
        placeholders = {
            "{qutrit}": str(qutrit), "{qubits}": str(qubits), "{nanchannel}": str(nanchannel),
            "{channel}": str(channel), "{onechannel}": str(onechannel),
        }
        argv = [placeholders.get(a, a) for a in args]
        code, out, err = run(argv + ["--out", str(out_csv)], capsys)
        assert code == 2
        assert err.startswith("error:")
        assert not out_csv.exists()
        assert "inf" not in out

    @pytest.mark.parametrize("argv,flag", [
        (["analyze", "{qutrit}"], "--restarts"),
        (["sweep", "--class", "FBC", "--family", "qubit-depol"], "--restarts"),
        (["verify", "--suite", "lemma1", "--samples", "5"], "--opt-restarts"),
    ])
    def test_restarts_past_the_bound_name_the_flag(self, argv, flag, tmp_path, capsys):
        qutrit = tmp_path / "qutrit.state"
        write_state_file(DensityMatrix((3, 3), np.eye(9) / 9), qutrit)
        argv = [str(qutrit) if a == "{qutrit}" else a for a in argv]
        code, _, err = run(argv + [flag, str(fidelity.MAX_RESTARTS + 1)], capsys)
        assert code == 2
        assert err.startswith(f"error: {flag} must be at most {fidelity.MAX_RESTARTS}")


class TestWitness:
    def test_qutrit_entangled(self, tmp_path, capsys):
        path = tmp_path / "ent3.state"
        write_state_file(schmidt_state([1 / 3, 1 / 3, 1 / 3]), path)
        code, out, _ = run(["witness", str(path)], capsys)
        assert code == 0
        assert "useful-for-teleportation" in out
        assert abs(value_of(out, "Tr[W rho]") + 2.0 / 3.0) <= 1e-9

    def test_mixed_not_detected(self, mixed_file, capsys):
        code, out, _ = run(["witness", mixed_file], capsys)
        assert code == 0
        assert "not-detected" in out


class TestSweep:
    @pytest.mark.parametrize("flag,value", [
        ("--p-max", "2"), ("--p-max", "inf"), ("--p-min", "nan"), ("--p-min", "-0.5"),
    ])
    def test_p_range_is_checked_before_the_grid_is_built(self, flag, value, capsys):
        # the error names the flag and its value, not an interior grid point,
        # and no numpy warning comes first
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, _, err = run(["sweep", "--class", "FBC", "--family", "qubit-depol",
                                flag, value], capsys)
        assert code == 2
        assert err.startswith(f"error: {flag} must be")
        assert err.rstrip().endswith(f"got {float(value)}")

    def test_fac2_narrow_sweep_flips_at_threshold(self, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--class", "FAC2", "--family", "qubit-depol",
             "--p-min", "0.55", "--p-max", "0.6", "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "class,p,q0_worst,value,verdict,margin"
        rows = [ln.split(",") for ln in lines[1:]]
        assert len(rows) == 101
        verdicts = [r[4] for r in rows]
        assert verdicts[0] == "member"
        assert verdicts[-1] == "non-member"
        flip_p = float(rows[verdicts.index("non-member")][1])
        assert abs(flip_p - 0.57735) <= 6e-4  # p step is 5e-4

    def test_user_channel_single_row(self, tmp_path, capsys):
        chan_path = tmp_path / "chan.txt"
        write_channel_file(depolarizing(2, 1.0), chan_path)
        out_csv = tmp_path / "user.csv"
        code, _, _ = run(
            ["sweep", "--class", "FAC2", "--family", "user-kraus",
             "--channel", str(chan_path), "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        assert lines[1].split(",")[4] == "non-member"


FAMILIES = ["qubit-depol", "qutrit-depol"]


def assert_golden(out_csv: Path, name: str) -> None:
    # written by the one-Schmidt-point-at-a-time search, before the
    # stacked scores and the bisection on verdicts; the two NCEAC sweeps
    # were rewritten when the qubit refine became a stacked bracket refine
    # and the kernel one superoperator product: only their q0_worst column
    # moved, on flat maxima and exact ties; they were rewritten again when
    # entropy scores came to be summed from the channel's images of
    # |ii><jj|: only q0_worst moved, in 28 qubit rows on flat maxima (p = 0
    # and p in 0.66-0.99) and the qutrit row at p = 0, an exact tie at
    # log2 9; the two qubit sweeps were rewritten when the scorer came to
    # validate on eigenvalues alone: NCEAC q0_worst moved in 20 rows on
    # flat maxima (p in 0.68-0.97), and the NCEBC value and margin at
    # p = 0.89 moved in the twelfth digit; the two NCEAC sweeps were
    # rewritten when the depolarizing Kraus set became I and the matrix
    # units: q0_worst moved in 22 qubit rows on flat maxima (p in
    # 0.67-0.95), with value and margin at p = 0.84 in the twelfth digit,
    # and in the qutrit row at p = 0.6, an exact tie between product inputs
    assert out_csv.read_bytes() == (Path(__file__).parent / "data" / name).read_bytes()


class TestGoldenClassifierCsv:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cls", ["FBC", "FAC2", "NCEBC", "NCEAC"])
    def test_threshold_csv_matches_golden_file(self, cls, family, tmp_path, capsys):
        out_csv = tmp_path / "thr.csv"
        code, out, _ = run(
            ["threshold", "--class", cls, "--family", family, "--out", str(out_csv)], capsys
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / f"threshold_{cls}_{family}.csv"
        assert_golden(out_csv, golden.name)
        # the printed line carries the golden row's numbers, formatted alike
        row = golden.read_text().splitlines()[1].split(",")
        p_star, lo, hi = (cli._fmt(float(x)) for x in row[2:5])
        assert out == (
            f"class={cls} family={family} p_star={p_star} "
            f"bracket=[{lo}, {hi}] iterations={row[5]}\n"
        )

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("cls", ["NCEBC", "NCEAC"])
    def test_sweep_csv_matches_golden_file(self, cls, family, tmp_path, capsys):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            ["sweep", "--class", cls, "--family", family, "--out", str(out_csv)], capsys
        )
        assert code == 0
        assert_golden(out_csv, f"sweep_{cls}_{family}.csv")


class TestThresholdCommand:
    def test_fbc(self, tmp_path, capsys):
        out_csv = tmp_path / "thr.csv"
        code, out, _ = run(
            ["threshold", "--class", "FBC", "--family", "qubit-depol",
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        assert "p_star=" in out
        p_star = float(out_csv.read_text().splitlines()[1].split(",")[2])
        assert abs(p_star - 1 / 3) <= 1e-4

    def test_has_no_restarts_option(self, capsys):
        # thresholds run the depolarizing families, where no optimizer runs
        with pytest.raises(SystemExit) as info:
            cli.main(["threshold", "--class", "FBC", "--family", "qubit-depol",
                      "--restarts", "4"])
        assert info.value.code == 2
        assert "--restarts" in capsys.readouterr().err


class TestVerify:
    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize(
        "suite", ["lemma1", "renyi", "tsallis", "minentropy", "weyl", "relent"]
    )
    def test_csv_matches_golden_file(self, suite, seed, tmp_path, capsys):
        # the golden files were written by the one-state-at-a-time runner,
        # the relent ones by the exact two-qubit maximization, which needs
        # no optimizer seed (the polar ascent gave the same bytes)
        out_csv = tmp_path / "verify.csv"
        code, _, _ = run(
            ["verify", "--suite", suite, "--samples", "2000", "--seed", str(seed),
             "--out", str(out_csv)],
            capsys,
        )
        assert code == 0
        golden = Path(__file__).parent / "data" / f"verify_{suite}_seed{seed}.csv"
        assert out_csv.read_bytes() == golden.read_bytes()

    def test_lemma1_deterministic_csv(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(
                ["verify", "--suite", "lemma1", "--samples", "200",
                 "--seed", "9", "--out", str(path)],
                capsys,
            )
            assert code == 0
        assert a.read_bytes() == b.read_bytes()
        lines = a.read_text().splitlines()
        assert lines[0] == "theorem_id,samples,failures,excluded,worst_margin"
        row = lines[1].split(",")
        assert row[0] == "lemma1"
        assert row[2] == "0"

    def test_relent_small(self, capsys):
        code, out, _ = run(
            ["verify", "--suite", "relent", "--samples", "10", "--seed", "3"],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1].split(",")[0] == "theorem14"

    def test_env_seed_used_when_flag_absent(self, tmp_path, capsys, monkeypatch):
        flagged = tmp_path / "flagged.csv"
        via_env = tmp_path / "env.csv"
        run(["verify", "--suite", "lemma1", "--samples", "150",
             "--seed", "123", "--out", str(flagged)], capsys)
        monkeypatch.setenv("FIDELION_SEED", "123")
        run(["verify", "--suite", "lemma1", "--samples", "150",
             "--out", str(via_env)], capsys)
        assert flagged.read_bytes() == via_env.read_bytes()

    def test_flag_overrides_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("FIDELION_SEED", "11")
        a = tmp_path / "a.csv"
        run(["verify", "--suite", "lemma1", "--samples", "150",
             "--seed", "22", "--out", str(a)], capsys)
        monkeypatch.delenv("FIDELION_SEED")
        b = tmp_path / "b.csv"
        run(["verify", "--suite", "lemma1", "--samples", "150",
             "--seed", "22", "--out", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()


def test_main_reuses_one_parser():
    # main parses with one cached parser; build_parser builds a new one
    assert cli._parser() is cli._parser()
    assert cli.build_parser() is not cli._parser()


def test_cli_import_leaves_scipy_out():
    # scipy is a test extra only; the package runs on numpy alone
    src = str(Path(fidelion.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, fidelion.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
