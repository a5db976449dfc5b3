import pytest

from multigrid_ilc.scenario import resolve, shipped_scenario
from multigrid_ilc.sweep import _scheme_scenario


@pytest.fixture(scope="session")
def two_mg_resolved():
    return resolve(shipped_scenario("two-mg"))


@pytest.fixture(scope="session")
def scheme_scenario(two_mg_resolved):
    """Factory: the shipped two-MG scenario with every ILC re-pointed at one
    scheme with catalogue default gains, as the boundary table builds it."""

    def make(scheme):
        return _scheme_scenario(two_mg_resolved, scheme)

    return make
