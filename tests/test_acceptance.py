"""End-to-end gates: every headline number at its stated tolerance.

Each test runs one criterion through `qslimit.report` and appends the result
to the session log; the terminal summary reprints them as one PASS/FAIL line
apiece.  The shared artifacts (CF fixed point, density fixed point, moments,
reference CDF) are built once per session in conftest.
"""

from qslimit import report


def _record(log, res):
    log.append(res)
    assert res.passed, res.line()


def test_bound_chain_constants(acceptance_log):
    _record(acceptance_log, report.check_bound_chain())


def test_sup_density_and_derivative_bounds(acceptance_log):
    _record(acceptance_log, report.check_sup_bounds())


def test_oscillatory_integral_decay(acceptance_log):
    res = report.check_vdc()
    _record(acceptance_log, res)
    # the 2000 integrals' worst margin under 2 t^-1/2, to the printed digit
    assert "worst margin -1.114e-02" in res.line(), res.line()


def test_cf_fixed_point(acceptance_log, artifacts):
    _record(acceptance_log, report.check_cf_fixed_point(artifacts))
    # the default solve takes 11 sweeps to a last residual of 3.163e-9
    assert artifacts["cf_iters"] == 11
    assert abs(artifacts["cf_diff"] / 3.163e-9 - 1.0) <= 1e-3


def test_density_fixed_point(acceptance_log, artifacts):
    _record(acceptance_log, report.check_density_fixed_point(artifacts))


def test_route_independence(acceptance_log, artifacts):
    _record(acceptance_log, report.check_route_independence(artifacts))


def test_simulation_statistics(acceptance_log, artifacts):
    _record(acceptance_log, report.check_simulation(artifacts))


def test_side_observations_stay_observations(acceptance_log, artifacts):
    _record(acceptance_log, report.check_excluded_claims(artifacts))
