import math

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
# every odd prime power up to 61, in increasing order
ODD_PRIME_POWERS_TO_61 = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (17, 1),
                          (19, 1), (23, 1), (5, 2), (3, 3), (29, 1), (31, 1),
                          (37, 1), (41, 1), (43, 1), (47, 1), (7, 2), (53, 1),
                          (59, 1), (61, 1)]
ODD_PRIME_POWERS_TO_31 = ODD_PRIME_POWERS_TO_61[:12]


def odd_prime_powers(lo, hi):
    """(p, a) for every odd prime power lo <= p^a <= hi, in increasing order."""
    out = []
    for q in range(max(lo, 3), hi + 1):
        p = next(d for d in range(2, q + 1) if q % d == 0)     # least prime factor
        a = round(math.log(q, p))
        if p > 2 and p ** a == q:
            out.append((p, a))
    return out


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
