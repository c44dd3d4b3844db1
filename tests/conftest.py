import pytest
from hypothesis import settings

from radcount import load_bundled

# every run draws the same examples and keeps no example database, so a
# rerun of the suite checks exactly what the last one did
settings.register_profile("radcount", derandomize=True, database=None)
settings.load_profile("radcount")

BUNDLED = ("zero", "square-well", "annulus", "gaussian", "bump",
           "counterexample", "counterexample-damped",
           "counterexample-damped-strong")


@pytest.fixture(scope="session")
def catalog():
    """The bundled instances, loaded once per session."""
    return {name: load_bundled(name) for name in BUNDLED}
