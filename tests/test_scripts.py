"""The scripts in scripts/ run end to end and print their key numbers."""

import runpy
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / f"{name}.py"))["main"]


def test_reproduce_bounds(capsys):
    assert _main("reproduce_bounds")([]) == 0
    out = capsys.readouterr().out
    assert "chain to p = 4.5" in out
    assert "   1.50  186.3919163          187              0.325%" in out
    assert "  sup f' <= 3622.5347 (plain)   2465.8954 (log splice)" in out


def test_run_simulation(capsys):
    assert _main("run_simulation")(["--ns", "100", "--samples", "2000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("limit variance = 0.4202")
    rows = [line.split() for line in out.splitlines() if line.startswith("     100  ")]
    assert len(rows) == 1
    # exact Var X_100 / 100^2, and the seeded sample variance near it
    exact, sample = float(rows[0][1]), float(rows[0][2])
    assert rows[0][1] == "0.3538266678"
    assert abs(sample / exact - 1.0) < 0.1
