import pathlib

import pytest
from hypothesis import settings

from accesskit import parse_system, to_system_model

ROOT = pathlib.Path(__file__).resolve().parent.parent
SYSTEMS = ROOT / "systems"

# Every property test draws the same examples on every run: derandomized,
# with no example database and no deadline.  A test sets only its
# max_examples.
settings.register_profile("accesskit", derandomize=True, database=None, deadline=None)
settings.load_profile("accesskit")


def load_model(name):
    spec = parse_system((SYSTEMS / f"{name}.sys").read_text())
    return to_system_model(spec)


def load_spec(name):
    return parse_system((SYSTEMS / f"{name}.sys").read_text())


# Session scope: analysis results and matrix caches live on the model, so
# sharing one instance keeps the suite fast without changing any verdict.


@pytest.fixture(scope="session")
def coil():
    return load_model("coil")


@pytest.fixture(scope="session")
def rational2d():
    return load_model("rational2d")


@pytest.fixture(scope="session")
def coil_reversed():
    return load_model("coil_reversed")


@pytest.fixture(scope="session")
def fivestep():
    return load_model("fivestep")


@pytest.fixture(scope="session")
def drift():
    return load_model("drift")


@pytest.fixture(scope="session")
def integrator():
    return load_model("integrator")


@pytest.fixture(scope="session")
def sinemap_spec():
    return load_spec("sinemap")
