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
    """Every Measure built while the test runs, in order: by the public
    constructor or from a space file's weight texts, which both end in
    `Measure._fill`."""
    made = []
    fill = prob.Measure._fill

    def counting_fill(self, space, scaled, scale):
        made.append(self)
        fill(self, space, scaled, scale)

    monkeypatch.setattr(prob.Measure, "_fill", counting_fill)
    return made
