"""Shared fixtures.

The characteristic-function fixed point is the most expensive shared
artifact (13 map evaluations, about 1.4 s on a busy 2-core Xeon), so
everything downstream of it is computed once per session through
`build_artifacts` and shared.  Acceptance tests append their CriterionResult
records to a session list; the terminal summary reprints them as one
PASS/FAIL line each at the end of the run.
"""

import pytest

from qslimit import report
from qslimit.moments import pump_moments

_ACCEPTANCE = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE


@pytest.fixture(scope="session")
def artifacts():
    return report.build_artifacts()


@pytest.fixture(scope="session")
def cf_fixed(artifacts):
    return artifacts["phi"], artifacts["cf_iters"], artifacts["cf_diff"]


@pytest.fixture(scope="session")
def density_fixed(artifacts):
    return (artifacts["density"], artifacts["density_iters"],
            artifacts["density_history"])


@pytest.fixture(scope="session")
def moments8():
    return pump_moments(8)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    terminalreporter.section("acceptance criteria")
    for res in _ACCEPTANCE:
        terminalreporter.write_line(res.line())
