"""Matrix arithmetic and the sharp Bruhat decomposition."""

import random

import pytest
from hypothesis import given, strategies as st

from sl2prod import (BigCell, Torus, bruhat_compose, bruhat_decompose,
                     bruhat_product, bruhat_trace, conjugate, iter_sl2,
                     make_field, mat_det, mat_inv, mat_mul, mat_pow,
                     mat_trace, sl2)
from sl2prod.mat2 import iter_trace_fiber

F7 = make_field(7)
I2 = (1, 0, 0, 1)


def test_constructor_validates():
    assert sl2(F7, 2, 1, 1, 1) == (2, 1, 1, 1)
    with pytest.raises(ValueError):
        sl2(F7, 1, 0, 0, 2)
    with pytest.raises(ValueError):
        sl2(F7, 9, 0, 0, 1)


def test_basic_products():
    x = sl2(F7, 2, 1, 1, 1)
    assert mat_mul(F7, I2, x) == x
    n = (0, 1, 6, 0)
    assert mat_mul(F7, n, n) == (6, 0, 0, 6)
    assert mat_trace(F7, mat_inv(F7, x)) == mat_trace(F7, x) == 3
    assert mat_mul(F7, x, mat_inv(F7, x)) == I2
    assert mat_pow(F7, x, 0) == I2
    assert mat_pow(F7, x, 3) == mat_mul(F7, x, mat_mul(F7, x, x))


def test_trace_invariance_exhaustive(small_F):
    F = small_F
    g = sl2(F, F.scalar(2), 1, 1, 1)
    for x in iter_sl2(F):
        assert mat_trace(F, mat_inv(F, x)) == mat_trace(F, x)
        assert mat_trace(F, conjugate(F, g, x)) == mat_trace(F, x)


def test_trace_fibers_in_canonical_order(small_F):
    """Each trace fiber is the trace-t part of iter_sl2, in the same order."""
    F = small_F
    group = list(iter_sl2(F))
    for t in F.elements():
        assert list(iter_trace_fiber(F, t)) == [m for m in group
                                                if mat_trace(F, m) == t], t


def test_group_order(F):
    n = sum(1 for _ in iter_sl2(F))
    assert n == F.q * (F.q ** 2 - 1)


def test_bruhat_decompose_golden():
    assert bruhat_decompose(F7, (1, 5, 0, 1)) == Torus(1, 5)
    assert bruhat_decompose(F7, (2, 1, 1, 1)) == BigCell(2, 6, 1)
    # the Weyl representative is X12(0) n(1) X12(0)
    assert bruhat_decompose(F7, (0, 1, 6, 0)) == BigCell(0, 1, 0)


def test_bruhat_compose_golden():
    assert bruhat_compose(F7, Torus(3, 0)) == (3, 0, 0, 5)
    assert bruhat_compose(F7, BigCell(2, 6, 1)) == (2, 1, 1, 1)
    assert bruhat_compose(F7, Torus(1, 0)) == I2
    with pytest.raises(ValueError):
        bruhat_compose(F7, Torus(0, 1))


def test_bruhat_trace_golden():
    assert bruhat_trace(F7, BigCell(2, 6, 1)) == 3
    for psi in range(7):
        assert bruhat_trace(F7, Torus(3, psi)) == 1
    assert bruhat_trace(F7, BigCell(5, 2, 2)) == 0


def test_bruhat_product_golden():
    assert bruhat_product(F7, Torus(2, 1), Torus(3, 1)) == Torus(6, 5)
    # psi1 + tau2 = 0 lands back in the torus cell
    f = bruhat_product(F7, BigCell(1, 2, 3), BigCell(4, 1, 5))
    assert isinstance(f, Torus)
    g = bruhat_product(F7, Torus(1, 0), BigCell(4, 1, 5))
    assert g == BigCell(4, 1, 5)


def test_bruhat_roundtrip_exhaustive(small_F):
    F = small_F
    for m in iter_sl2(F):
        f = bruhat_decompose(F, m)
        assert bruhat_compose(F, f) == m
        assert bruhat_decompose(F, bruhat_compose(F, f)) == f
        assert bruhat_trace(F, f) == mat_trace(F, m)


def test_bruhat_product_exhaustive_q5():
    F = make_field(5)
    forms = [bruhat_decompose(F, m) for m in iter_sl2(F)]
    els = list(iter_sl2(F))
    for x, fx in zip(els, forms):
        for y, fy in zip(els, forms):
            assert bruhat_product(F, fx, fy) == bruhat_decompose(F, mat_mul(F, x, y))


@pytest.mark.parametrize("q", [9, 11, 13])
def test_bruhat_product_sampled(q):
    F = make_field(3, 2) if q == 9 else make_field(q)
    els = list(iter_sl2(F))
    rng = random.Random(q)
    for _ in range(2000):
        x, y = rng.choice(els), rng.choice(els)
        fx, fy = bruhat_decompose(F, x), bruhat_decompose(F, y)
        assert bruhat_product(F, fx, fy) == bruhat_decompose(F, mat_mul(F, x, y))


@given(data=st.data())
def test_bruhat_roundtrip_random(data):
    F = make_field(*data.draw(st.sampled_from([(11, 1), (13, 1), (3, 2)])))
    m = data.draw(st.sampled_from(list(iter_sl2(F))))
    f = bruhat_decompose(F, m)
    assert bruhat_compose(F, f) == m
    assert bruhat_trace(F, f) == mat_trace(F, m)


@given(data=st.data())
def test_det_multiplicative_random(data):
    F = make_field(*data.draw(st.sampled_from([(11, 1), (3, 2)])))
    els = list(iter_sl2(F))
    x, y = data.draw(st.sampled_from(els)), data.draw(st.sampled_from(els))
    assert mat_det(F, mat_mul(F, x, y)) == 1
