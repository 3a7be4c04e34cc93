import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from cvqsim import cli, gaussian as g, gkp

R10 = float(g.squeezing_db_to_r(10.0))

EPR_PROGRAM = f"""# EPR pair and its correlation forms
mode a b;
sq a {R10}r x;
sq b {R10}r p;
bs a b t=0.5;
hom a theta=0.0 -> m0;
report cov;
"""

SCHEDULE_PROGRAM = "schedule { data 2; anc 1; ps 0 0.3; sqz 1 0.8; }\n"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_timings(payload: str) -> dict:
    d = json.loads(payload)
    d.pop("timings", None)
    return d


class TestBudgetCommand:

    def test_reference_numbers(self, capsys):
        code, out, err = run_cli(capsys, "budget", "--loss-db-km", "0.2",
                                 "--length-m", "100", "--pulse-ns", "50")
        assert code == 0 and err == ""
        payload = json.loads(out)
        assert payload["transmission"] == pytest.approx(0.9954, abs=1e-4)
        assert payload["capacity"] == 10 and type(payload["capacity"]) is int

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(capsys, "budget", "--loss-db-km", "0.2",
                               "--length-m", "1000", "--pulse-ns", "50",
                               "--format", "csv")
        assert code == 0
        header, row = out.strip().split("\n")
        assert "transmission" in header and "capacity" in header

    def test_missing_flag_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "budget", "--loss-db-km", "0.2")
        assert code == 1
        assert "length-m" in err

    def test_bad_value_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "budget", "--loss-db-km", "-0.2",
                               "--length-m", "100", "--pulse-ns", "50")
        assert code == 2
        assert json.loads(err)["error"]["type"] == "ValueError"


class TestRunCommand:

    def test_deterministic_output_bytes(self, tmp_path, capsys):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        assert cli.main(["run", str(prog), "--seed", "7",
                         "--out", str(out1)]) == 0
        assert cli.main(["run", str(prog), "--seed", "7",
                         "--out", str(out2)]) == 0
        d1 = strip_timings(out1.read_text())
        d2 = strip_timings(out2.read_text())
        assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)

    def test_seed_changes_outcomes(self, tmp_path, capsys):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        code, out7, _ = run_cli(capsys, "run", str(prog), "--seed", "7")
        code2, out8, _ = run_cli(capsys, "run", str(prog), "--seed", "8")
        assert code == 0 and code2 == 0
        v7 = json.loads(out7)["outcomes"][0]["value"]
        v8 = json.loads(out8)["outcomes"][0]["value"]
        assert v7 != v8

    def test_missing_seed_is_usage_error(self, tmp_path, capsys):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        code, _, err = run_cli(capsys, "run", str(prog))
        assert code == 1 and "--seed" in err

    @pytest.mark.parametrize("extra", [(), ("--shots", "2"),
                                       ("--backend", "fock")],
                             ids=["single", "shots", "fock"])
    def test_negative_seed_is_usage_error(self, tmp_path, capsys, extra):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "-1",
                                 *extra)
        assert code == 1 and out == "" and "--seed" in err

    def test_missing_file_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "run", "no-such.cvq", "--seed", "1")
        assert code == 1 and "no-such.cvq" in err

    def test_parse_error_diagnostic(self, tmp_path, capsys):
        prog = tmp_path / "bad.cvq"
        prog.write_text("mode q0;\nps q1 0.5;\n")
        code, _, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2
        entry = json.loads(err)["error"]
        assert entry["type"] == "ParseError"
        assert entry["message"] == "undeclared mode q1"
        assert entry["line"] == 2 and entry["column"] == 4

    def test_invalid_program_diagnostic(self, tmp_path, capsys):
        prog = tmp_path / "cubic.cvq"
        prog.write_text("mode q0; cubic q0 gamma=0.1;\n")
        code, _, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2
        assert "non-Gaussian op on Gaussian backend" in \
            json.loads(err)["error"]["message"]

    def test_zero_variance_homodyne_diagnostic(self, tmp_path, capsys):
        prog = tmp_path / "zero_var.cvq"
        prog.write_text("mode q0 q1; sq q0 400dB x; bs q0 q1 t=1.0;"
                        " hom q0 theta=0 -> m0; report cov;\n")
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2 and out == ""
        entry = json.loads(err)["error"]
        assert entry["type"] == "ValueError"
        assert "zero variance" in entry["message"]

    def test_runtime_diagnostic_names_the_instruction(self, tmp_path, capsys):
        prog = tmp_path / "zero_var.cvq"
        prog.write_text("mode q0 q1; sq q0 400dB x; bs q0 q1 t=1.0;\n"
                        "  hom q0 theta=0 -> m0; report cov;\n")
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2 and out == ""
        entry = json.loads(err)["error"]
        assert entry["type"] == "ValueError"
        assert "zero variance" in entry["message"]
        assert (entry["line"], entry["column"]) == (2, 3)

    def test_non_finite_homodyne_is_runtime_error(self, tmp_path, capsys):
        prog = tmp_path / "overflow_hom.cvq"
        prog.write_text("mode q0; sq q0 400r p;\n  hom q0 theta=0 -> m0;\n")
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2 and out == ""
        entry = json.loads(err)["error"]
        assert entry["type"] == "ValueError"
        assert "non-finite" in entry["message"]
        assert (entry["line"], entry["column"]) == (2, 3)

    def test_statement_without_modes_is_rejected(self, tmp_path, capsys):
        prog = tmp_path / "no_modes.cvq"
        prog.write_text("report cov;\n")
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2 and out == ""
        assert "no mode declared" in json.loads(err)["error"]["message"]

    @pytest.mark.parametrize("text, column", [
        ("mode q0; sq q0 400r x; report cov;\n", 24),
        ("mode q0; sq q0 200r x; sq q0 200r x; report form c=[1.0, 0.0];\n",
         38),
    ])
    def test_non_finite_moments_are_runtime_errors(self, tmp_path, capsys,
                                                   text, column):
        prog = tmp_path / "overflow.cvq"
        prog.write_text(text)
        code, out, err = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert code == 2 and out == ""
        entry = json.loads(err)["error"]
        assert entry["type"] == "ValueError"
        assert entry["message"] == "reported moments are not finite"
        assert (entry["line"], entry["column"]) == (1, column)

    def test_failed_run_folds_warnings_into_one_json_line(self, tmp_path):
        # a fresh process: pytest's own warning capture would hide the
        # RuntimeWarning that numpy prints before the diagnostic
        prog = tmp_path / "overflow.cvq"
        prog.write_text("mode q0; sq q0 400r x; report cov;\n")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "cvqsim.cli", "run", str(prog),
             "--seed", "1"], env=env, capture_output=True, text=True)
        assert proc.returncode == 2 and proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1
        payload = json.loads(proc.stderr)
        assert payload["error"]["message"] == "reported moments are not finite"
        assert payload["warnings"]
        for w in payload["warnings"]:
            assert w["category"] == "RuntimeWarning"
            assert "overflow" in w["message"]
            path, line = w["location"].rsplit(":", 1)
            assert Path(path).name == "gaussian.py" and int(line) > 0

    def test_successful_command_re_emits_its_warnings(self, capsys,
                                                      monkeypatch):
        def noisy(_args):
            warnings.warn("loose tolerance", UserWarning)
            return {}
        monkeypatch.setitem(cli._COMMANDS, "budget", noisy)
        with pytest.warns(UserWarning, match="loose tolerance"):
            code, out, _ = run_cli(capsys, "budget", "--loss-db-km", "0.2",
                                   "--length-m", "100", "--pulse-ns", "50")
        assert code == 0 and out == "{}\n"

    def test_fock_backend(self, tmp_path, capsys):
        prog = tmp_path / "kerrish.cvq"
        prog.write_text("mode q0; sq q0 0.4r x; cubic q0 gamma=0.05;"
                        " report cov;\n")
        code, out, _ = run_cli(capsys, "run", str(prog), "--backend", "fock",
                               "--seed", "3", "--cutoff", "40")
        assert code == 0
        assert json.loads(out)["reports"][0]["type"] == "cov"

    def test_shots_fan_out_and_stay_ordered(self, tmp_path, capsys):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        code, out, _ = run_cli(capsys, "run", str(prog), "--seed", "5",
                               "--shots", "3")
        assert code == 0
        payload = json.loads(out)
        assert [s["shot"] for s in payload["shots"]] == [0, 1, 2]
        values = [s["outcomes"][0]["value"] for s in payload["shots"]]
        assert len(set(values)) == 3
        code2, out2, _ = run_cli(capsys, "run", str(prog), "--seed", "5",
                                 "--shots", "3")
        assert strip_timings(out2) == strip_timings(out)

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        prog = tmp_path / "epr.cvq"
        prog.write_text(EPR_PROGRAM)
        monkeypatch.setenv("CVQ_OUT_DIR", str(tmp_path))
        assert cli.main(["run", str(prog), "--seed", "2",
                         "--out", "nested.json"]) == 0
        assert (tmp_path / "nested.json").exists()


class TestLoopCommand:

    def test_schedule_program_runs(self, tmp_path, capsys):
        prog = tmp_path / "sched.cvq"
        prog.write_text(SCHEDULE_PROGRAM)
        code, out, _ = run_cli(capsys, "loop", str(prog), "--seed", "1")
        assert code == 0
        payload = json.loads(out)
        assert payload["reports"][0]["type"] == "loop"
        assert payload["reports"][0]["survivors"] == [0, 1]

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        prog = tmp_path / "sched.cvq"
        prog.write_text(SCHEDULE_PROGRAM)
        code, out, err = run_cli(capsys, "loop", str(prog), "--seed", "-1")
        assert code == 1 and out == "" and "--seed" in err

    def test_non_schedule_program_rejected(self, tmp_path, capsys):
        prog = tmp_path / "plain.cvq"
        prog.write_text("mode q0; ps q0 0.1;\n")
        code, _, err = run_cli(capsys, "loop", str(prog), "--seed", "1")
        assert code == 2
        assert "schedule" in json.loads(err)["error"]["message"]


class TestStreamCommand:

    def test_1d_ratio(self, capsys):
        code, out, _ = run_cli(capsys, "stream", "--spec", "1d",
                               "--pulses", "500", "--squeezing", "15dB")
        assert code == 0
        payload = json.loads(out)
        for form in payload["forms"].values():
            ratio = form["mean_var"] / form["vacuum_var"]
            assert ratio == pytest.approx(10 ** -1.5, abs=1e-9)

    def test_2d_needs_width(self, capsys):
        code, _, err = run_cli(capsys, "stream", "--spec", "2d",
                               "--pulses", "50", "--squeezing", "10dB")
        assert code == 1 and "--width" in err
        code2, out, _ = run_cli(capsys, "stream", "--spec", "2d",
                                "--pulses", "50", "--width", "3",
                                "--squeezing", "10dB")
        assert code2 == 0
        assert json.loads(out)["peak_active_modes"] <= 24

    def test_squeezing_suffix_required(self, capsys):
        code, _, err = run_cli(capsys, "stream", "--spec", "1d",
                               "--pulses", "50", "--squeezing", "15")
        assert code == 1 and "suffix" in err

    @pytest.mark.parametrize("value", ["xdB", "r"])
    def test_malformed_squeezing_is_usage_error(self, capsys, value):
        code, out, err = run_cli(capsys, "stream", "--spec", "1d",
                                 "--pulses", "50", "--squeezing", value)
        assert code == 1 and out == ""
        assert "--squeezing" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("r", [17.0, 20.0])
    @pytest.mark.parametrize("spec", [("1d",), ("2d", "--width", "5")],
                             ids=["1d", "2d_w5"])
    def test_large_squeezing_reports_the_exact_variance(self, capsys, spec,
                                                        r):
        code, out, _ = run_cli(capsys, "stream", "--spec", *spec,
                               "--pulses", "100", "--squeezing", f"{r}r")
        assert code == 0
        for form in json.loads(out)["forms"].values():
            assert form["expected_var"] == math.exp(-2 * r) / 2
            assert math.isclose(form["mean_var"], form["expected_var"],
                                rel_tol=1e-15)

    def test_lossy_ratio_is_weaker(self, capsys):
        _, lossless, _ = run_cli(capsys, "stream", "--spec", "1d",
                                 "--pulses", "300", "--squeezing", "15dB")
        _, lossy, _ = run_cli(capsys, "stream", "--spec", "1d",
                              "--pulses", "300", "--squeezing", "15dB",
                              "--eta", "0.99")
        pick = lambda s: min(f["mean_var"] / f["vacuum_var"]
                             for f in json.loads(s)["forms"].values())
        assert pick(lossy) > pick(lossless)


class TestGkpCommand:

    def test_state_report(self, capsys):
        code, out, _ = run_cli(capsys, "gkp", "--delta", "0.3",
                               "--cutoff", "60")
        assert code == 0
        payload = json.loads(out)
        assert payload["threshold_margin_db"] == pytest.approx(
            gkp_margin(0.3), abs=1e-12)
        assert payload["synthesis_leakage"]["zero"] < 1e-4
        assert payload["logical_overlap"] < 0.05

    def test_sites_count_lattice_peaks(self, capsys):
        # at the default cutoff of 100 only the central peak of |0> fits
        code, out, _ = run_cli(capsys, "gkp", "--delta", "0.2",
                               "--cutoff", "150")
        assert code == 0
        params = gkp.GkpParams(0.2, 150)
        zero = json.loads(out)["sites"]["zero"]
        assert zero == len(gkp.lattice_sites(0, params)[0])
        assert zero > 2

    def test_large_cutoff_reports_finite_numbers(self, capsys):
        # past cutoff 600 the grid reaches where the Hermite recurrence
        # leaves double range unless it is rescaled
        code, out, _ = run_cli(capsys, "gkp", "--delta", "0.3",
                               "--cutoff", "800")
        assert code == 0
        payload = json.loads(out)
        assert payload["sites"] == {"zero": 11, "one": 12}
        for j in ("zero", "one"):
            assert 0.9 < payload["lattice_mass"][j] < 1.0

    def test_impossible_cutoff_is_runtime_error(self, capsys):
        code, _, err = run_cli(capsys, "gkp", "--delta", "0.2",
                               "--cutoff", "40")
        assert code == 2
        assert "cutoff" in json.loads(err)["error"]["message"]

    def test_tiny_delta_is_runtime_error(self, capsys):
        code, out, err = run_cli(capsys, "gkp", "--delta", "1e-6")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert "too small" in json.loads(err)["error"]["message"]

    def test_curve_csv_deterministic(self, capsys):
        args = ("gkp", "--curve", "0.2,0.4", "--samples", "2000",
                "--seed", "11")
        code, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code == 0 and code2 == 0
        assert out1 == out2
        lines = out1.strip().split("\n")
        assert lines[0] == "sigma,p_closed_form,p_monte_carlo,stderr"
        assert len(lines) == 3

    @pytest.mark.parametrize("curve", ["0.1,abc", ","])
    def test_malformed_curve_is_usage_error(self, capsys, curve):
        code, out, err = run_cli(capsys, "gkp", "--curve", curve,
                                 "--seed", "1")
        assert code == 1 and out == ""
        assert "--curve" in err and len(err.splitlines()) == 1

    def test_curve_needs_seed(self, capsys):
        code, _, err = run_cli(capsys, "gkp", "--curve", "0.2")
        assert code == 1 and "--seed" in err

    def test_curve_negative_seed_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, "gkp", "--curve", "0.3",
                                 "--seed", "-1")
        assert code == 1 and out == "" and "--seed" in err

    def test_gkp_needs_some_request(self, capsys):
        code, _, err = run_cli(capsys, "gkp")
        assert code == 1


_RENDERED = {
    "run": ("run", "{epr}", "--seed", "5"),
    "run_shots": ("run", "{epr}", "--seed", "5", "--shots", "2"),
    "run_fock": ("run", "{epr}", "--seed", "5", "--backend", "fock",
                 "--cutoff", "20"),
    "loop": ("loop", "{sched}", "--seed", "5"),
    "stream_1d": ("stream", "--spec", "1d", "--pulses", "2000",
                  "--squeezing", "10dB"),
    "stream_2d": ("stream", "--spec", "2d", "--width", "3", "--pulses", "50",
                  "--squeezing", "0.7r", "--eta", "0.9"),
    "gkp": ("gkp", "--delta", "0.3", "--cutoff", "60"),
    "budget": ("budget", "--loss-db-km", "0.2", "--length-m", "100",
               "--pulse-ns", "50"),
}


def _canonical(text: str) -> str:
    return json.dumps(json.loads(text), sort_keys=True) + "\n"


class TestRendering:
    """Every JSON output is one line of key-sorted compact JSON, and
    --out gets the bytes stdout gets."""

    @pytest.mark.parametrize("name", _RENDERED)
    def test_one_sorted_line_on_stdout_and_out(self, tmp_path, capsys,
                                               monkeypatch, name):
        # a stopped clock: every timing reads 0.0, so two runs give
        # equal bytes
        monkeypatch.setattr(time, "perf_counter", lambda: 1.0)
        (tmp_path / "epr.cvq").write_text(EPR_PROGRAM)
        (tmp_path / "sched.cvq").write_text(SCHEDULE_PROGRAM)
        argv = [a.format(epr=tmp_path / "epr.cvq",
                         sched=tmp_path / "sched.cvq")
                for a in _RENDERED[name]]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        assert out == _canonical(out)
        path = tmp_path / "out.json"
        assert cli.main(argv + ["--out", str(path)]) == 0
        assert path.read_bytes() == out.encode()

    def test_diagnostic_is_one_sorted_line(self, capsys):
        code, out, err = run_cli(capsys, "budget", "--loss-db-km", "-0.2",
                                 "--length-m", "100", "--pulse-ns", "50")
        assert code == 2 and out == ""
        assert err == _canonical(err)


class TestDeterminism:

    def test_same_seed_same_bytes_apart_from_timings(self, tmp_path, capsys):
        epr = tmp_path / "epr.cvq"
        epr.write_text(EPR_PROGRAM)
        sched = tmp_path / "sched.cvq"
        sched.write_text(SCHEDULE_PROGRAM)
        commands = [
            ("stream", "--spec", "1d", "--pulses", "2000",
             "--squeezing", "10dB"),
            ("gkp", "--delta", "0.3"),
            ("run", str(epr), "--seed", "5"),
            ("run", str(epr), "--seed", "5", "--backend", "fock",
             "--cutoff", "20"),
            ("loop", str(sched), "--seed", "5"),
        ]
        for argv in commands:
            outs = []
            for _ in range(2):
                code, out, _ = run_cli(capsys, *argv)
                assert code == 0, argv
                outs.append(json.dumps(strip_timings(out), sort_keys=True))
            assert outs[0] == outs[1], argv


# Every numeric flag, given a non-finite value on top of a valid command,
# plus finite values whose arithmetic overflows: a squeezing whose e^(2r)
# is not a float, and budget sizes whose pulse capacity is infinite or
# whose pulse length underflows to zero.  The cases run in one fresh
# process, under a timeout, because a value that slips through
# validation can hang a loop (gkp once spun forever on --delta nan), and
# that must fail this test rather than stall it.
_SWEEP_DRIVER = """
import contextlib, io, json, sys
from cvqsim import cli
results = []
for argv in json.loads(sys.argv[1]):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    results.append([code, out.getvalue(), err.getvalue()])
print(json.dumps(results))
"""
_NON_FINITE = ("nan", "inf", "-inf")
_SWEEP_FLAGS = {
    "run": ["--seed", "--shots", "--cutoff"],
    "loop": ["--seed"],
    "stream": ["--pulses", "--width", "--eta"],
    "gkp": ["--delta", "--cutoff"],
    "curve": ["--curve", "--samples", "--seed"],
    "budget": ["--loss-db-km", "--length-m", "--pulse-ns", "--velocity"],
}
_SWEEP = ([(name, f"{flag}={value}") for name, flags in _SWEEP_FLAGS.items()
           for flag in flags for value in _NON_FINITE]
          + [("stream", f"--squeezing={value}{unit}")
             for value in _NON_FINITE for unit in ("dB", "r")]
          + [("curve", "--samples=0"),
             ("stream", "--squeezing=400r"), ("stream", "--squeezing=3500dB"),
             ("budget", "--pulse-ns=1e-310"), ("budget", "--velocity=1e-300"),
             ("budget", "--velocity=1e-320")]
          # a loop squeeze factor whose square under- or overflows
          + [("sqz", value) for value in ("1e300", "1e-300", "1e160",
                                          "1e-160")])


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("sweep")
    (tmp / "epr.cvq").write_text(EPR_PROGRAM)
    (tmp / "sched.cvq").write_text(SCHEDULE_PROGRAM)
    bases = {
        "run": ["run", str(tmp / "epr.cvq"), "--seed", "1"],
        "loop": ["loop", str(tmp / "sched.cvq"), "--seed", "1"],
        "stream": ["stream", "--spec", "2d", "--width", "3", "--pulses",
                   "50", "--squeezing", "10dB"],
        "gkp": ["gkp", "--delta", "0.3", "--cutoff", "40"],
        "curve": ["gkp", "--curve", "0.3", "--samples", "100", "--seed", "1"],
        "budget": ["budget", "--loss-db-km", "0.2", "--length-m", "100",
                   "--pulse-ns", "50"],
    }

    def argv(name, extra):
        if name == "sqz":           # the value goes into the program
            path = tmp / f"sqz{extra}.cvq"
            path.write_text(f"schedule {{ data 2; anc 1; sqz 0 {extra}; }}\n")
            return ["loop", str(path), "--seed", "1"]
        # argparse keeps a flag's last occurrence, so the appended value wins
        return bases[name] + [extra]

    argvs = [argv(name, extra) for name, extra in _SWEEP]
    env = dict(os.environ,
               PYTHONPATH=str(Path(cli.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", _SWEEP_DRIVER, json.dumps(argvs)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(zip(_SWEEP, json.loads(proc.stdout)))


class TestNonFiniteFlags:

    @pytest.mark.parametrize("case", _SWEEP, ids=" ".join)
    def test_rejected_with_one_line(self, sweep, case):
        code, out, err = sweep[case]
        assert code in (1, 2) and out == ""
        assert len(err.splitlines()) == 1
        if code == 2:
            assert json.loads(err)["error"]["type"] == "ValueError"


class TestTopLevel:

    def test_non_finite_payload_is_runtime_error(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._COMMANDS, "budget",
                            lambda args: {"value": float("nan")})
        code, out, err = run_cli(capsys, "budget", "--loss-db-km", "0.2",
                                 "--length-m", "100", "--pulse-ns", "50")
        assert code == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "teleport-me")
        assert code == 1

    def test_no_subcommand_is_usage_error(self, capsys):
        assert cli.main([]) == 1

    def test_closed_stdout_exits_quietly(self, tmp_path, capsys):
        # an 80 x 80 covariance: more than the 64 KiB a pipe buffers, so
        # the write meets the closed read end whatever the scheduling
        n = 40
        prog = tmp_path / "big.cvq"
        prog.write_text(
            f"mode {' '.join(f'q{i}' for i in range(n))};\n"
            + "".join(f"sq q{i} 0.3r x;\n" for i in range(n))
            + "".join(f"bs q{i} q{i + 1} t=0.3;\n" for i in range(n - 1))
            + "report cov;\n")
        _, out, _ = run_cli(capsys, "run", str(prog), "--seed", "1")
        assert len(out.encode()) > 64 * 1024
        env = {k: v for k, v in os.environ.items() if k != "PYTHONWARNINGS"}
        env["PYTHONPATH"] = str(Path(cli.__file__).parent.parent)
        proc = subprocess.Popen(
            [sys.executable, "-m", "cvqsim.cli", "run", str(prog),
             "--seed", "1"], env=env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE)
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == cli.EXIT_OK
        assert err == b""


def gkp_margin(delta: float) -> float:
    return -20.0 * math.log10(delta) - 20.5
