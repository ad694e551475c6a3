"""Command-line surface: subcommands, formats, determinism, exit codes."""

import contextlib
import io
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings
from scipy import stats

from qslimit import density_solver, report
from qslimit.cf_bounds import build_chain, make_envelope
from qslimit.cli import _build_parser, main
from qslimit.envelope_integrals import sup_fk_bound

ROOT = Path(__file__).resolve().parent.parent

def _read(path):
    with open(path) as fh:
        return fh.read()


def test_bounds_json(tmp_path, capsys):
    out_path = tmp_path / "bounds.json"
    rc = main(["--output", str(out_path), "bounds", "--max-p", "4.5", "--json"])
    assert rc == 0
    payload = json.loads(_read(out_path))
    assert set(payload) == {"chain", "envelope", "sup"}
    assert [row["k"] for row in payload["sup"]] == [0, 1]
    ceilings = {row["p"]: row["ceiling"] for row in payload["chain"]}
    assert ceilings[1.5] == 187.0
    assert ceilings[2.5] == 103215.0
    assert ceilings[3.5] == 197102280.0
    assert payload["envelope"][-1]["t_hi"] == "inf"


def test_bounds_text_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    assert main(["--output", str(p1), "bounds", "--log"]) == 0
    assert main(["--output", str(p2), "bounds", "--log"]) == 0
    assert _read(p1) == _read(p2)
    assert "provenance" in _read(p1).splitlines()[0]


def _sup_line(out, f):
    """The bound of bounds' `sup f <= ...` line, and the line."""
    line, = (ln for ln in out.splitlines() if ln.startswith(f"sup {f} <= "))
    return float(line.split()[3]), line


def test_supf_log_refinement(capsys):
    rc = main(["bounds", "--log"])
    out = capsys.readouterr().out
    assert rc == 0
    bound, line = _sup_line(out, "f")
    assert bound < 15.3
    assert line.endswith("(max f < 16: PASS)")


def test_supf_json(capsys):
    # the envelope's own integrals against their caps, and exit 0 even on FAIL
    for use_log, want in [(False, [(18.131676658113552, "FAIL"), (3648.6862563808754, "FAIL")]),
                          (True, [(15.278652912212381, "PASS"), (2492.0469826790786, "FAIL")])]:
        rc = main(["bounds", "--json", "--log"] if use_log else ["bounds", "--json"])
        assert rc == 0
        sup = json.loads(capsys.readouterr().out)["sup"]
        env = make_envelope(build_chain(3.5), use_log=use_log)
        for k, (row, cap, (value, verdict)) in enumerate(zip(sup, (16.0, 2466.0), want)):
            assert (row["k"], row["cap"], row["verdict"]) == (k, cap, verdict)
            assert row["bound"] == sup_fk_bound(env, k)
            assert row["bound"] == pytest.approx(value, rel=1e-12)
        assert len(sup) == 2
    # only the integrals that converge: sup f' needs a tail p > 2, sup f a tail p > 1
    for max_p, ks in [("1.5", [0]), ("1", [])]:
        assert main(["bounds", "--max-p", max_p, "--json"]) == 0
        assert [row["k"] for row in json.loads(capsys.readouterr().out)["sup"]] == ks
    assert main(["bounds", "--max-p", "1"]) == 0
    assert "sup" not in capsys.readouterr().out


def test_supf1_deep_chain(capsys):
    rc = main(["bounds", "--max-p", "4.5", "--log"])
    out = capsys.readouterr().out
    assert rc == 0
    bound, line = _sup_line(out, "f'")
    assert bound < 2466.0
    assert line.endswith("(max f' < 2466: PASS)")
    assert main(["bounds", "--max-p", "4.5", "--log", "--json"]) == 0
    row = json.loads(capsys.readouterr().out)["sup"][1]
    assert row["bound"] == pytest.approx(2465.8953905778517, rel=1e-12)


def test_phi_csv(tmp_path, capsys):
    out_path = tmp_path / "phi.csv"
    rc = main(["--output", str(out_path), "phi", "--t-max", "50",
               "--grid-size", "1024"])
    err = capsys.readouterr().err
    assert rc == 0
    assert "converged in" in err
    lines = _read(out_path).strip().splitlines()
    assert lines[0] == "t,re,im"
    assert len(lines) == 1025
    assert tuple(float(v) for v in lines[1].split(",")) == (0.0, 1.0, 0.0)


def test_phi_at_the_discretization_floor_exits_one(tmp_path, capsys):
    # tol 1e-8 is below this grid's floor: one error line, no 200-sweep stall
    out_path = tmp_path / "phi.csv"
    rc = main(["--output", str(out_path), "phi", "--t-max", "50",
               "--grid-size", "257"])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("error: cf iteration reached its discretization floor")
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not out_path.exists()


@pytest.mark.parametrize("command", ["density", "cdf"])
def test_oversized_density_grid_exits_one_before_any_sweep(command, monkeypatch, capsys):
    # 1,000,001 points fit a Grid, but the solve would run for about an hour
    monkeypatch.setattr(density_solver, "apply_T", None)
    assert main([command, "--dx", "1e-5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a density sweep over 1000001 grid points")
    assert err.count("\n") == 1


@pytest.mark.parametrize("dx", ["0.5", "0.9"])
def test_density_at_a_coarse_dx_reaches_a_tight_tol(dx, tmp_path, capsys):
    # with the mean pinned, a coarse grid has no slow translate mode left:
    # tol 1e-8 is reached well inside the 60-sweep budget
    conv_path = tmp_path / "conv.json"
    rc = main(["density", "--tol", "1e-8", "--dx", dx, "--convergence", str(conv_path)])
    captured = capsys.readouterr()
    assert rc == 0 and captured.err == ""
    assert captured.out.startswith("x,f\n")
    conv = json.loads(conv_path.read_text())
    assert conv["iterations"] <= 45 and conv["diff_history"][-1] < 1e-8
    assert abs(conv["mean"]) < 1e-3


def test_invert_csv(tmp_path):
    out_path = tmp_path / "f.csv"
    rc = main(["--output", str(out_path), "invert", "--t-max", "50",
               "--grid-size", "1024", "--x-min", "-3", "--x-max", "5"])
    assert rc == 0
    lines = _read(out_path).strip().splitlines()
    assert lines[0] == "x,f"
    data = np.loadtxt(str(out_path), delimiter=",", skiprows=1)
    mass = np.trapezoid(data[:, 1], data[:, 0])
    assert mass == pytest.approx(1.0, abs=1e-2)

    rc = main(["--output", str(out_path), "invert", "--t-max", "50",
               "--grid-size", "1024", "--k", "1"])
    assert rc == 0
    lines = _read(out_path).strip().splitlines()
    assert lines[:2] == ["# k=1", "x,fk"]
    assert len(lines) == 2 + 2001


def test_invert_derivative_order_limit_at_the_defaults(tmp_path, capsys):
    # the default grid stops at T = 50: the tail of t^k |phi| beyond it is below
    # 1e-6 up to k = 4, and k = 5 is refused with one line
    out_path = tmp_path / "f4.csv"
    assert main(["--output", str(out_path), "invert", "--k", "4"]) == 0
    assert _read(out_path).startswith("# k=4\nx,fk\n")
    capsys.readouterr()
    assert main(["--output", str(tmp_path / "f5.csv"), "invert", "--k", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: truncation tail estimate") and "for k=5" in err
    assert err.count("\n") == 1 and "Traceback" not in err
    assert not (tmp_path / "f5.csv").exists()


def test_density_convergence_file(tmp_path):
    csv_path, conv_path = tmp_path / "f.csv", tmp_path / "conv.json"
    rc = main(["--output", str(csv_path), "density", "--convergence", str(conv_path)])
    assert rc == 0
    payload = json.loads(_read(conv_path))
    assert payload["iterations"] <= 60
    assert payload["diff_history"][-1] < 1e-6
    assert abs(payload["mean"]) < 5e-3
    # one solve behind both files
    data = np.loadtxt(str(csv_path), delimiter=",", skiprows=1)
    assert float(data[:, 1].max()) == payload["max_f"]


def test_density_csv(tmp_path):
    out_path = tmp_path / "f.csv"
    rc = main(["--output", str(out_path), "density", "--dx", "0.01"])
    assert rc == 0
    lines = _read(out_path).strip().splitlines()
    assert lines[0] == "x,f"
    assert len(lines) == 1 + 1001
    data = np.loadtxt(str(out_path), delimiter=",", skiprows=1)
    assert np.trapezoid(data[:, 1], dx=0.01) == pytest.approx(1.0, abs=1e-9)


def test_cdf_csv(tmp_path):
    out_path = tmp_path / "cdf.csv"
    rc = main(["--output", str(out_path), "cdf"])
    assert rc == 0
    lines = _read(out_path).strip().splitlines()
    assert lines[0] == "x,F"
    last = float(lines[-1].split(",")[1])
    assert last == pytest.approx(1.0, abs=2e-3)


def test_simulate_json_histogram_and_ks(tmp_path, capsys):
    # reference CDF on the standardized scale: a wide normal grid is enough
    # to exercise the plumbing (the statistical gate lives in the acceptance
    # run, against the genuine fixed-point CDF)
    cdf_path = tmp_path / "ref.csv"
    xs = np.linspace(-8.0, 8.0, 4001)
    with open(cdf_path, "w") as fh:
        fh.write("x,F\n")
        for x, F in zip(xs, stats.norm.cdf(xs)):
            fh.write(f"{x:.17g},{F:.17g}\n")
    hist_path = tmp_path / "hist.csv"
    rc = main(["simulate", "--n", "300", "--samples", "20000", "--seed", "42",
               "--cdf", str(cdf_path), "--histogram", str(hist_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n"] == 300
    assert payload["m"] == 20000
    assert 0.0 <= payload["ks"] <= 1.0
    lines = _read(hist_path).strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count"
    assert len(lines) == 1 + 40
    assert sum(int(line.split(",")[2]) for line in lines[1:]) == 20000


@pytest.mark.parametrize("text", ["x,F\n0,0.5\n", "x,F\n"])
def test_simulate_rejects_a_one_row_cdf(tmp_path, capsys, text):
    cdf_path = tmp_path / "one_row.csv"
    cdf_path.write_text(text)
    assert main(["simulate", "--n", "10", "--samples", "100",
                 "--cdf", str(cdf_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cdf_path}: ") and err.count("\n") == 1


def test_simulate_is_byte_deterministic(tmp_path):
    p1, p2 = tmp_path / "s1.json", tmp_path / "s2.json"
    args = ["simulate", "--n", "40", "--samples", "5000", "--seed", "9"]
    assert main(["--output", str(p1)] + args) == 0
    assert main(["--output", str(p2)] + args) == 0
    assert _read(p1) == _read(p2)


def test_moments_text_and_json(capsys):
    rc = main(["moments", "--max-k", "6"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k")
    assert len(lines) == 8
    rc = main(["moments", "--max-k", "6", "--json"])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert len(payload["moments"]) == 7
    assert payload["moments"][2] == pytest.approx(0.4202637, abs=1e-6)
    assert len(payload["abs_bounds"]) == 7


def test_pipeline_errors_exit_one(capsys):
    rc = main(["bounds", "--max-p", "2.0"])  # unreachable exponent
    captured = capsys.readouterr()
    assert rc == 1
    assert captured.err.startswith("error:")


# Every sizing flag gets a small valid value, and --tol a loose one that ends
# each solve in a few sweeps (so a valid run stays cheap), except at most
# one flag, which gets a value the CLI must turn away.
_INVALID = st.sampled_from(["0", "-1", "-0.5", "nan", "inf", "1e400", "x"])
_SIZING_FLAGS = {
    "--tol": st.floats(1e-2, 1e-1),
    "--t-max": st.floats(0.5, 10.0),
    "--grid-size": st.integers(2, 64),
    "--dx": st.floats(0.05, 1.0),
}
_FLAGS_OF = {
    "phi": ("--tol", "--t-max", "--grid-size"),
    "invert": ("--tol", "--t-max", "--grid-size", "--dx"),
    "density": ("--tol", "--dx"),
    "cdf": ("--tol", "--dx"),
}


@st.composite
def _sizing_argv(draw):
    cmd = draw(st.sampled_from(sorted(_FLAGS_OF)))
    bad = draw(st.sampled_from((None,) + _FLAGS_OF[cmd]))
    argv = [cmd]
    for flag in _FLAGS_OF[cmd]:
        value = _INVALID if flag == bad else _SIZING_FLAGS[flag].map(str)
        argv += [flag, draw(value)]
    return argv


@given(_sizing_argv())
@settings(max_examples=60, deadline=None)
def test_sizing_flags_never_escape_as_tracebacks(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse rejects the value
            rc = exc.code
    assert rc in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if rc == 1:
        assert err.getvalue().startswith("error:"), argv
        assert err.getvalue().count("\n") == 1, argv


@pytest.mark.parametrize("argv", [
    ["phi", "--grid-size", "1"],
    ["density", "--dx", "0"],
    ["cdf", "--dx", "0"],
    ["invert", "--dx", "0"],
    ["phi", "--tol", "nan"],
    ["density", "--tol", "nan"],
    ["density", "--dx", "1e-9"],
    ["invert", "--dx", "1e-9"],
    ["phi", "--grid-size", "1000000000"],
    ["phi", "--t-max", "1e9"],
    ["invert", "--t-max", "1e9"],
    ["phi", "--t-max", "50000"],
    ["invert", "--t-max", "50000"],
    ["phi", "--grid-size", "1000000"],
    ["bounds", "--max-p", "inf"],
    ["bounds", "--max-p", "30.5"],
    ["simulate", "--n", "10", "--samples", "1"],
    ["simulate", "--n", "1000000000000", "--samples", "2"],
    ["simulate", "--n", "10", "--samples", "1000000000000"],
    ["invert", "--t-max", "30", "--grid-size", "256", "--tol", "1e-6", "--k", "300"],
    ["invert", "--k", "-1"],
    ["moments", "--max-k", "100000"],
    ["phi", "--t-max", "inf"],
    ["invert", "--t-max", "inf"],
    ["phi", "--t-max", "1e300"],
    ["invert", "--t-max", "1e300"],
    ["report", "--seed", "-1"],
    ["simulate", "--n", "10", "--seed", "-1"],
    ["density", "--x-min", "0"],
    ["invert", "--x-min", "5", "--x-max", "-3"],
    ["invert", "--t-max", "1e-320"],
    ["phi", "--t-max", "1e308", "--grid-size", "5"],
    ["phi", "--grid-size", "4"],
])
@pytest.mark.filterwarnings("error")  # a warning before the error line fails too
def test_bad_sizes_exit_one(argv, capsys):
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_report_rejects_a_bad_seed_before_solving(monkeypatch, capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("report solved a fixed point before checking its seed")

    monkeypatch.setattr(report, "iterate_cf", no_solve)
    assert main(["report", "--seed", "-1"]) == 1
    assert capsys.readouterr().err == \
        "error: seed must be a non-negative integer, got -1\n"


def _doc_commands():
    """Every qslimit command line of README's command block and of the CI workflow."""
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```")[1]
    args = [ln.split("#")[0][len("qslimit "):] for ln in block.splitlines()
            if ln.startswith("qslimit ")]
    workflow = (ROOT / ".github" / "workflows" / "tests.yml").read_text()
    args += re.findall(r"-m qslimit (.*)", workflow)
    return [shlex.split(a.split(">")[0]) for a in args]


def test_documented_commands_parse(capsys):
    # parse only: a flag removed or renamed in the CLI fails here, not in a reader's shell
    commands = _doc_commands()
    assert len(commands) >= 10
    parser = _build_parser()
    for argv in commands:
        try:
            parser.parse_args(argv)
        except SystemExit:
            pytest.fail(f"documented command no longer parses: qslimit {shlex.join(argv)}\n"
                        f"{capsys.readouterr().err}")


def test_usage_errors_exit_two():
    with pytest.raises(SystemExit) as err:
        main(["bogus-subcommand"])
    assert err.value.code == 2


def test_report_is_wired_up():
    with pytest.raises(SystemExit) as err:
        main(["report", "--help"])
    assert err.value.code == 0


@pytest.mark.skipif(shutil.which("qslimit") is None,
                    reason="console script not on PATH")
def test_console_script():
    proc = subprocess.run(["qslimit", "bounds", "--json"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    json.loads(proc.stdout)


def test_import_leaves_scipy_stats_unloaded():
    # scipy.stats would add about 140 modules and 19 MiB to every process for
    # one chi-square tail, which quicksort_sim sums in closed form
    code = "import qslimit.cli, sys; print('scipy.stats' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("command", [["-m", "qslimit", "bounds"],
                                     [str(ROOT / "scripts" / "reproduce_bounds.py")]],
                         ids=["qslimit", "reproduce_bounds"])
def test_closed_stdout_exits_one(command, buffered):
    # the reader closes the pipe before the first byte: buffered output
    # fails at the last flush, unbuffered output at the first write
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen([sys.executable, *command], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == 1
    assert err == "error: [Errno 32] Broken pipe\n"
