import pathlib

import pytest

import benchinputs
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


@pytest.fixture(scope="session")
def query_inputs(tmp_path_factory):
    """query_inputs(seed): the benchmark's `query` inputs of that seed,
    made once a session and shared, so a test must not change them."""
    made = {}

    def inputs(seed):
        if seed not in made:
            made[seed] = benchinputs.query_inputs(seed, tmp_path_factory.mktemp("query"))
        return made[seed]

    return inputs


@pytest.fixture
def built(monkeypatch):
    """Every Measure built while the test runs, in order: a space file's
    measures too, which are built by the public constructor."""
    made = []
    init = prob.Measure.__init__

    def counting_init(self, space, weights):
        made.append(self)
        init(self, space, weights)

    monkeypatch.setattr(prob.Measure, "__init__", counting_init)
    return made
