import pytest

from qiso.catalog import BUILDERS, build_all

_SCENARIOS = {}  # theta -> {name: scenario}
_REPORTS = {}


def get_scenario(name, theta=None):
    """A scenario and its report, each suite run once per session.

    Each theta's scenarios come from one ``build_all``, as in
    ``qiso verify all``: the double torus and the deformation scenario are
    built on the torus scenario and share its Haar solve, so the golden report
    checks that shared path.
    """
    if theta not in _SCENARIOS:
        names = sorted(BUILDERS)
        _SCENARIOS[theta] = dict(zip(names, build_all(names, theta)))
    sc = _SCENARIOS[theta][name]
    if (name, theta) not in _REPORTS:
        _REPORTS[name, theta] = sc.suite()
    return sc, _REPORTS[name, theta]


@pytest.fixture(scope="session")
def scenario_cache():
    return get_scenario
