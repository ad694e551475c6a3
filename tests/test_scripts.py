"""The scripts in scripts/ run end to end and print their key numbers."""

import re
import runpy
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from qslimit.cli import _csv
from qslimit.quicksort_sim import exact_variance

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


def _csv_cells(path):
    raw = path.read_bytes()
    assert b"\r" not in raw and raw.endswith(b"\n")
    header, *rows = raw.decode().splitlines()
    for row in rows:  # every cell is the %.17g form of the float it reads back as
        assert all(f"{float(cell):.17g}" == cell for cell in row.split(","))
    return header, [row.split(",") for row in rows]


def test_script_csvs_use_the_cli_writer(tmp_path, capsys):
    bounds_path = tmp_path / "bounds.csv"
    assert _main("reproduce_bounds")(["--depths", "1.5", "4.5", "--csv", str(bounds_path)]) == 0
    header, rows = _csv_cells(bounds_path)
    assert header == "depth,sup_f_plain,sup_f_log,sup_f1_plain,sup_f1_log"
    assert rows[0][0] == "1.5" and rows[0][2:] == ["nan", "nan", "nan"]
    assert float(rows[1][4]) == 2465.8953905778517

    sim_path = tmp_path / "sim.csv"
    assert _main("run_simulation")(["--ns", "100", "--samples", "200",
                                    "--csv", str(sim_path)]) == 0
    header, rows = _csv_cells(sim_path)
    assert header == "n,exact_var_over_n2,sample_var,rel_gap"
    assert rows[0][0] == "100" and float(rows[0][1]) == exact_variance(100) / 100**2

    cdf_path = tmp_path / "normal.csv"
    xs = np.linspace(-8.0, 8.0, 1601)
    cdf_path.write_text(_csv(["x,F"], xs, stats.norm.cdf(xs)))
    assert _main("run_simulation")(["--ns", "100", "--samples", "200", "--ref-cdf",
                                    str(cdf_path), "--csv", str(sim_path)]) == 0
    header, rows = _csv_cells(sim_path)
    assert header == "n,exact_var_over_n2,sample_var,rel_gap,ks"
    assert 0.0 <= float(rows[0][4]) <= 1.0
    capsys.readouterr()


def test_run_simulation_rejects_a_non_uniform_cdf(tmp_path):
    cdf_path = tmp_path / "uneven.csv"
    cdf_path.write_text("x,F\n-1,0.1\n0,0.5\n2,0.9\n")
    with pytest.raises(ValueError, match="uneven.csv: CDF grid must be uniformly spaced"):
        _main("run_simulation")(["--ns", "100", "--samples", "200",
                                 "--ref-cdf", str(cdf_path)])


def test_compare_routes(tmp_path, capsys):
    csv_path = tmp_path / "routes.csv"
    assert _main("compare_routes")(["--csv", str(csv_path)]) == 0
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
