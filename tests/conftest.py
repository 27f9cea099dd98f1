import pathlib

import pytest

from boolfrac import lang
from boolfrac import prob

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="session")
def die_path():
    return str(FIXTURES / "die.cs")


@pytest.fixture(scope="session")
def die():
    return lang.parse_space((FIXTURES / "die.cs").read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def uniform(die):
    return die.measures["uniform"]


@pytest.fixture
def built(monkeypatch):
    """Every Measure constructed while the test runs, in order."""
    made = []
    init = prob.Measure.__init__

    def counting_init(self, space, weights):
        made.append(self)
        init(self, space, weights)

    monkeypatch.setattr(prob.Measure, "__init__", counting_init)
    return made
