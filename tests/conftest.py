import pytest
from hypothesis import settings

# Property tests draw the same examples on every run, so a failure reproduces.
settings.register_profile("kgforge", derandomize=True)
settings.load_profile("kgforge")

from kgforge.gateway import LlmGateway, ReplayBackend
from kgforge.synth import toy_graph, write_toy_dataset, write_toy_fixture


@pytest.fixture(scope="session")
def toy_kg():
    return toy_graph()


@pytest.fixture(scope="session")
def toy_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy_dataset")
    write_toy_dataset(root)
    return root


@pytest.fixture(scope="session")
def toy_fixture_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("fixtures") / "toy_replay.jsonl"
    write_toy_fixture(path)
    return path


@pytest.fixture
def replay_gateway(toy_fixture_path):
    return LlmGateway(ReplayBackend(toy_fixture_path))
