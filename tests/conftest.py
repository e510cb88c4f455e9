import pytest
from hypothesis import HealthCheck, settings

from sl2prod import make_field, oracle
from sl2prod.cli import DEFAULT_SUITE

pytest_plugins = ["pytester"]

settings.register_profile(
    "suite", deadline=None, max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])
settings.load_profile("suite")

SMALL_FIELDS = [(5, 1), (7, 1), (3, 2)]


def _qid(pa):
    return f"q{pa[0] ** pa[1]}"


@pytest.fixture(params=DEFAULT_SUITE, ids=_qid)
def F(request):
    return make_field(*request.param)


@pytest.fixture(params=SMALL_FIELDS, ids=_qid)
def small_F(request):
    return make_field(*request.param)


@pytest.fixture
def no_group_table(monkeypatch):
    """Building an oracle group table fails the test."""
    def fail(F):
        raise AssertionError(f"group table built at q = {F.q}")
    monkeypatch.setattr(oracle, "GroupTable", fail)
