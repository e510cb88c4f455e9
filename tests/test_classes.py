"""Class taxonomy: classification, representatives, negation, inversion,
PSL projection, element orders."""

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sl2prod import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                     classify_sl2, conjugate, inverse_class, is_q_good,
                     iter_sl2, make_field, mat_inv, mat_neg, negate_class,
                     parse_label, parse_psl_label, parse_sl2_label,
                     psl_classify, psl_element_order, psl_lift_pair,
                     psl_project, representative)
from sl2prod import classes
from sl2prod.classes import ProductTable, bits, class_index
from sl2prod.laws import law_table

F5, F7 = make_field(5), make_field(7)


def test_classify_golden():
    assert classify_sl2(F7, (1, 3, 0, 1)) == SL2Label("U", 3)
    assert classify_sl2(F7, (3, 0, 0, 5)) == SL2Label("SS", 1)
    assert classify_sl2(F7, (0, 6, 1, 3)) == SL2Label("NSS", 3)
    assert classify_sl2(F7, (1, 0, 0, 1)) == SL2Label("I")
    assert classify_sl2(F7, (6, 0, 0, 6)) == SL2Label("-I")
    with pytest.raises(ValueError):
        classify_sl2(F7, (1, 1, 1, 1))


def test_representative_golden():
    assert representative(F5, SL2Label("U", 1)) == (1, 1, 0, 1)
    assert representative(F7, SL2Label("SS", 1)) == (3, 0, 0, 5)
    assert representative(F7, SL2Label("NSS", 0)) == (0, 6, 1, 0)
    with pytest.raises(ValueError):
        representative(F7, SL2Label("SS", 0))  # -1 is not a square mod 7
    with pytest.raises(ValueError):
        representative(F7, SL2Label("U", 5))  # 5 is not a class representative


def test_class_count(F):
    assert len(all_classes_sl2(F)) == F.q + 4


def test_partition_exhaustive(F):
    counts = Counter(classify_sl2(F, m, check=False) for m in iter_sl2(F))
    assert set(counts) == set(all_classes_sl2(F))
    assert sum(counts.values()) == F.q * (F.q ** 2 - 1)
    for s in (1, F.nonsquare_rep):
        assert counts[SL2Label("U", s)] == (F.q ** 2 - 1) // 2
        assert counts[SL2Label("NU", s)] == (F.q ** 2 - 1) // 2


def test_classify_constant_on_orbits(small_F):
    F = small_F
    els = list(iter_sl2(F))
    if F.q <= 7:
        for x in els:
            Lx = classify_sl2(F, x)
            assert all(classify_sl2(F, conjugate(F, g, x), check=False) == Lx
                       for g in els)
    else:
        rng = random.Random(F.q)
        for x in rng.sample(els, 120):
            Lx = classify_sl2(F, x)
            for g in rng.sample(els, 40):
                assert classify_sl2(F, conjugate(F, g, x)) == Lx


@given(data=st.data())
def test_classify_conjugation_invariant_random(data):
    F = make_field(*data.draw(st.sampled_from([(11, 1), (13, 1), (3, 2)])))
    els = list(iter_sl2(F))
    x = data.draw(st.sampled_from(els))
    g = data.draw(st.sampled_from(els))
    assert classify_sl2(F, conjugate(F, g, x)) == classify_sl2(F, x)


def test_classify_representative_roundtrip(F):
    for L in all_classes_sl2(F):
        assert classify_sl2(F, representative(F, L)) == L


def test_inverse_and_negate_match_matrices(F):
    for L in all_classes_sl2(F):
        r = representative(F, L)
        assert inverse_class(F, L) == classify_sl2(F, mat_inv(F, r))
        assert negate_class(F, L) == classify_sl2(F, mat_neg(F, r))


def test_negate_golden():
    assert negate_class(F7, SL2Label("U", 1)) == SL2Label("NU", 3)
    assert negate_class(F7, SL2Label("SS", 1)) == SL2Label("SS", 6)
    assert negate_class(F7, SL2Label("I")) == SL2Label("-I")


def test_inverse_golden():
    assert inverse_class(F7, SL2Label("NSS", 3)) == SL2Label("NSS", 3)
    assert inverse_class(F7, SL2Label("U", 1)) == SL2Label("U", 3)
    assert inverse_class(F5, SL2Label("U", 1)) == SL2Label("U", 1)


def test_psl_projection(F):
    for L in all_classes_sl2(F):
        assert psl_project(F, negate_class(F, L)) == psl_project(F, L)
    ps = all_classes_psl(F)
    assert len(ps) == len(set(ps))
    assert {psl_project(F, L) for L in all_classes_sl2(F)} == set(ps)


def test_psl_lift_pair(F):
    for P in all_classes_psl(F):
        D, N = psl_lift_pair(F, P)
        assert N == negate_class(F, D)
        assert psl_project(F, D) == psl_project(F, N) == P


def test_psl_golden():
    assert psl_project(F7, SL2Label("U", 1)) == PSLLabel("PU", 1)
    assert psl_lift_pair(F7, PSLLabel("PU", 1)) == (SL2Label("U", 1),
                                                    SL2Label("NU", 3))
    assert psl_project(F7, SL2Label("SS", 1)) == psl_project(F7, SL2Label("SS", 6))
    assert psl_project(F7, SL2Label("-I")) == PSLLabel("P1")


def test_psl_partition(F):
    got = {psl_classify(F, m, check=False) for m in iter_sl2(F)}
    assert got == set(all_classes_psl(F))


def test_orders_golden():
    assert psl_element_order(F5, PSLLabel("PNSS", 1)) == 3
    assert is_q_good(F5, PSLLabel("PNSS", 1))
    assert psl_element_order(F5, PSLLabel("PSS", 0)) == 2
    assert not is_q_good(F5, PSLLabel("PSS", 0))
    assert psl_element_order(F7, PSLLabel("PNSS", 0)) == 2
    assert is_q_good(F7, PSLLabel("PNSS", 0))
    with pytest.raises(ValueError):
        is_q_good(F7, PSLLabel("PU", 1))


def test_order_divides_group_exponent(F):
    for P in all_classes_psl(F):
        t = psl_element_order(F, P)
        if P.kind == "P1":
            assert t == 1
        elif P.kind == "PU":
            assert t == F.p
        else:
            assert t > 1 and ((F.q - 1) % t == 0 or (F.q + 1) % t == 0)


def test_q_good_trace_criterion(F):
    """q-good is equivalent to one of 2-t, 2+t being a square for a lift."""
    two = F.scalar(2)
    for P in all_classes_psl(F):
        if not P.is_semisimple:
            continue
        crit = any(v != 0 and F.is_square(v)
                   for t in (P.param, F.neg(P.param))
                   for v in (F.sub(two, t),))
        assert is_q_good(F, P) == crit


def test_label_grammar_roundtrip(F):
    for L in all_classes_sl2(F):
        assert parse_sl2_label(F, str(L)) == L
    for P in all_classes_psl(F):
        assert parse_psl_label(F, str(P)) == P


def test_label_parse_errors():
    with pytest.raises(ValueError):
        parse_label(F7, "U[2]")       # 2 is a square, rep must be 1 or 3
    with pytest.raises(ValueError):
        parse_label(F7, "SS[0]")      # trace 0 is non-split mod 7
    with pytest.raises(ValueError):
        parse_label(F7, "SS[2]")      # central trace
    with pytest.raises(ValueError):
        parse_label(F7, "Q[1]")
    assert parse_label(F7, "PSS[6]") == PSLLabel("PSS", 1)  # canonicalized


def test_canonical_label_order(F):
    labs = all_classes_sl2(F)
    assert [L.sort_key for L in labs] == sorted(L.sort_key for L in labs)
    assert str(labs[0]) == "I" and str(labs[1]) == "-I"


def test_compose_memo(monkeypatch):
    """compose(mask, j) equals the OR-fold of the cells (i, j) over the bits
    i of mask, and a repeated (mask, j) neither fills a cell nor walks the
    mask again."""
    F = make_field(13)
    C, law = class_index(F, "sl2"), law_table(F, "sl2")
    fills = []

    def fill(i, j):
        fills.append((i, j))
        return law.pair(i, j)
    P = ProductTable(C, fill)
    rng = random.Random(13)
    masks = [rng.randrange(1, C.full + 1) for _ in range(30)] + [1, C.full]
    n = len(C.labels)
    for mask in masks:
        for j in range(n):
            want = 0
            for i in bits(mask):
                want |= law.pair(i, j)
            assert P.compose(mask, j) == want, (mask, j)
    assert len(P.composed) == len(set(masks)) * n
    filled, walks = len(fills), []
    monkeypatch.setattr(classes, "bits", lambda mask: walks.append(mask) or bits(mask))
    for mask in masks:
        for j in range(n):
            P.compose(mask, j)
    assert len(fills) == filled and walks == []
