"""The report contract: every check's (name, mode, status, detail), in order.

``tests/data/golden_report.json`` holds the report of every scenario at
generic theta and at theta = 1/3.  A change to the package may change how
long a check takes, but not what it reports; the data file changes only with
a change that says why.  The suites come from the session cache, so the
scenarios other tests already ran are not run again.
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

GOLDEN = json.loads((Path(__file__).parent / "data" / "golden_report.json").read_text())
THETAS = {"generic": None, "1/3": Fraction(1, 3)}


@pytest.mark.parametrize("theta_key", sorted(THETAS))
@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden(scenario_cache, name, theta_key):
    _sc, report = scenario_cache(name, THETAS[theta_key])
    got = [[r.name, r.mode, r.status, r.detail] for r in report.results]
    want = GOLDEN[name][theta_key]
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"row {i} differs"
    assert len(got) == len(want)
