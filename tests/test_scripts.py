"""The scripts in scripts/ run end to end and print their key numbers."""

import re
import runpy
from pathlib import Path

import pytest

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


def test_run_simulation_rejects_a_non_uniform_cdf(tmp_path):
    cdf_path = tmp_path / "uneven.csv"
    cdf_path.write_text("x,F\n-1,0.1\n0,0.5\n2,0.9\n")
    with pytest.raises(ValueError, match="uneven.csv: CDF grid must be uniformly spaced"):
        _main("run_simulation")(["--ns", "100", "--samples", "200",
                                 "--ref-cdf", str(cdf_path)])


def test_compare_routes_quick(tmp_path, capsys):
    csv_path = tmp_path / "routes.csv"
    assert _main("compare_routes")(["--quick", "--csv", str(csv_path)]) == 0
    out = capsys.readouterr().out
    a = re.search(r"^route A \(density map\): (\d+) sweeps, last diff (\S+), ", out, re.M)
    b = re.search(r"^route B \(cf \+ inversion\): (\d+) sweeps, last diff (\S+), ", out, re.M)
    gap = re.search(r"^A vs B on \[-2.0, 4.0\]: sup (\S+), rms (\S+)$", out, re.M)
    assert int(a[1]) <= 60 and float(a[2]) < 1e-6
    assert int(b[1]) <= 200 and float(b[2]) < 1e-8
    assert float(gap[2]) <= float(gap[1]) < 1e-4
    rows = [line.split() for line in out.splitlines() if line[:4] in ("  2 ", "  3 ", "  4 ")]
    assert [row[0] for row in rows] == ["2", "3", "4"]
    # moment pump vs the two grids: m_2 = 7 - 2 pi^2 / 3 on all three
    assert all(abs(float(v) - 0.4202637) < 1e-4 for v in rows[0][1:])
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "x,f_density_map,f_cf_inversion,abs_gap"
    assert len(lines) == 1 + 1201
    assert f"wrote 1201 rows to {csv_path}" in out
