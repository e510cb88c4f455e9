"""Closed-form product laws and their structural properties.

The master law-vs-oracle equality runs in test_acceptance; here the laws
are pinned on golden cases and checked for the symmetry, inversion,
coverage, and dual-path properties that hold at every supported q.
"""

import itertools

import pytest

from sl2prod import laws
from sl2prod import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                     commutator_expressible_psl, inverse_class, make_field,
                     negate_class, psl_distinct_unipotent_product_by_order,
                     psl_inverse_class, psl_pair_product, psl_pair_product_law,
                     psl_pair_product_via_lifts, psl_triple_product,
                     sl2_pair_product, sl2_pair_product_law,
                     sl2_triple_product)
from sl2prod.classes import ProductTable, class_index, parse_label
from sl2prod.field import FieldCtx
from sl2prod.laws import law_table
from sl2prod.witness import factor_pair

F5, F7 = make_field(5), make_field(7)


def strs(labels):
    return sorted(str(L) for L in labels)


def test_semisimple_square_golden():
    out = sl2_pair_product(F7, SL2Label("SS", 1), SL2Label("SS", 1))
    assert out == set(all_classes_sl2(F7)) - {SL2Label("-I")}
    out = sl2_pair_product(F7, SL2Label("NSS", 0), SL2Label("NSS", 0))
    semis = {L for L in all_classes_sl2(F7) if L.is_semisimple}
    assert out == {SL2Label("I"), SL2Label("-I")} | semis


def test_distinct_unipotent_golden():
    out = sl2_pair_product(F7, SL2Label("U", 1), SL2Label("U", 3))
    # NSS[3] belongs as well: 2 - 3 c^2 takes the value 3 at c^2 = 2
    assert strs(out) == ["I", "NSS[3]", "NSS[4]", "SS[6]", "U[1]", "U[3]"]


def test_unipotent_square_q5_exception():
    out = sl2_pair_product(F5, SL2Label("U", 1), SL2Label("U", 1))
    assert strs(out) == ["I", "NSS[1]", "NU[1]", "U[2]"]
    # over q > 5 a unipotent square recovers its own class
    out7 = sl2_pair_product(F7, SL2Label("U", 1), SL2Label("U", 1))
    assert SL2Label("U", 1) in out7 and SL2Label("U", 3) in out7


def test_central_translation():
    for L in all_classes_sl2(F7):
        assert sl2_pair_product(F7, SL2Label("I"), L) == {L}
        assert sl2_pair_product(F7, SL2Label("-I"), L) == {negate_class(F7, L)}
    law = sl2_pair_product_law(F7, SL2Label("I"), SL2Label("U", 1))
    assert law.rule == "central_translation"


def test_rule_provenance():
    assert sl2_pair_product_law(F7, SL2Label("U", 1), SL2Label("U", 3)).rule == \
        "distinct_unipotent_classes"
    assert sl2_pair_product_law(F7, SL2Label("NU", 1), SL2Label("NU", 1)).rule == \
        "negative_unipotent_class_square"
    assert sl2_pair_product_law(F7, SL2Label("SS", 1), SL2Label("U", 1)).rule == \
        "semisimple_times_unipotent"
    assert psl_pair_product_law(F7, PSLLabel("PU", 1), PSLLabel("PU", 3)).rule == \
        "psl_unipotent_classes"


def test_pair_laws_are_computed_once(monkeypatch):
    """A pair law and its rule are computed once per field, into the class
    index; repeated asks, with or without the rule, read that entry."""
    F = make_field(11)
    C = class_index(F, "sl2")
    orig, calls = laws._sl2_pair, []
    monkeypatch.setattr(laws, "_sl2_pair", lambda *a: calls.append(a) or orig(*a))
    monkeypatch.setattr(C, "pairs", {})
    U1 = SL2Label("U", 1)
    law = sl2_pair_product_law(F, U1, U1)
    assert sl2_pair_product_law(F, U1, U1) == law
    assert sl2_pair_product(F, U1, U1) == law.classes
    assert law.rule == "unipotent_class_square" and len(calls) == 1


def _semisimple_by_shift_scan(F, C, shift, cls):
    """The reference for laws._semisimple_by_shift: a scan over the classes
    for every ask."""
    out = 0
    for k, L in enumerate(C.labels):
        if L.is_semisimple:
            v = F.sub(shift, L.param)
            if v and F.same_class(v, cls):
                out |= 1 << k
    return out


@pytest.mark.parametrize("pa", [(5, 1), (7, 1), (3, 2), (3, 3), (31, 1), (211, 1),
                                (3, 5)], ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_shift_masks_match_scan(pa):
    """The four masks kept for _semisimple_by_shift give the scan's mask at
    both shifts and every unit, in both groups."""
    F = make_field(*pa)
    for kind in ("sl2", "psl2"):
        C = class_index(F, kind)
        for shift in (F.scalar(2), F.neg(F.scalar(2))):
            for cls in F.units():
                assert laws._semisimple_by_shift(F, C, shift, cls) == \
                    _semisimple_by_shift_scan(F, C, shift, cls), (kind, shift, cls)
        assert len(C.shifts) == 4


def test_pair_query_at_large_q_builds_no_table():
    """Pair products at q = 10007 build no (q + 4)^2 table, and a law table
    allocates a column only when a cell in it is asked for."""
    F = make_field(10007)
    C = class_index(F, "sl2")
    g = (1, 1, 0, 1)
    for L2 in (SL2Label("U", 1), SL2Label("U", F.nonsquare_rep)):
        cert = factor_pair(F, g, SL2Label("U", 1), L2)
        assert cert is None or cert.ok(F)
    assert C.law is None
    T = ProductTable(C, lambda i, j: 0)
    assert T.pair(2, 3) == T.triple(2, 3, 4) == 0
    assert sorted(T._columns) == [3, 4]


def test_pair_products_reject_foreign_labels():
    """A label that is not a class of the field is a ValueError."""
    F = F7
    SS0, PSS0, I = SL2Label("SS", 0), PSLLabel("PSS", 0), SL2Label("I")
    for call in (lambda: sl2_pair_product(F, SS0, SS0),
                 lambda: sl2_pair_product_law(F, I, SS0),
                 lambda: sl2_triple_product(F, I, I, SS0),
                 lambda: psl_pair_product(F, PSS0, PSS0),
                 lambda: psl_pair_product_law(F, PSS0, PSLLabel("P1")),
                 lambda: psl_triple_product(F, PSS0, PSS0, PSS0)):
        with pytest.raises(ValueError, match="is not a class"):
            call()


def test_pair_symmetry(F):
    labs = all_classes_sl2(F)
    for L1, L2 in itertools.combinations(labs, 2):
        assert sl2_pair_product(F, L1, L2) == sl2_pair_product(F, L2, L1)


def test_pair_inversion(F):
    """(C1 C2)^-1 = C2^-1 C1^-1 at the label level."""
    labs = all_classes_sl2(F)
    for L1 in labs:
        for L2 in labs:
            lhs = {inverse_class(F, L) for L in sl2_pair_product(F, L1, L2)}
            rhs = sl2_pair_product(F, inverse_class(F, L2), inverse_class(F, L1))
            assert lhs == rhs, (L1, L2)


def test_trace_minus_two_exclusion(F):
    """Distinct unipotent square classes never reach trace -2."""
    U1, U2 = SL2Label("U", 1), SL2Label("U", F.nonsquare_rep)
    out = sl2_pair_product(F, U1, U2)
    assert SL2Label("-I") not in out
    assert not any(L.kind == "NU" for L in out)


def test_macbeath_coverage(F):
    """Any two semisimple classes multiply onto every semisimple class."""
    semis = [L for L in all_classes_sl2(F) if L.is_semisimple]
    for L1 in semis:
        for L2 in semis:
            assert set(semis) <= sl2_pair_product(F, L1, L2)


def test_psl_golden():
    out = psl_pair_product(F5, PSLLabel("PU", 1), PSLLabel("PU", 1))
    assert strs(out) == ["P1", "PNSS[1]", "PU[1]", "PU[2]"]
    out = psl_pair_product(F7, PSLLabel("PSS", 1), PSLLabel("PNSS", 0))
    assert out == set(all_classes_psl(F7)) - {PSLLabel("P1")}
    out = psl_pair_product(F7, PSLLabel("PNSS", 0), PSLLabel("PNSS", 0))
    assert out == set(all_classes_psl(F7)) - {PSLLabel("PU", 1), PSLLabel("PU", 3)}


def test_psl_dual_path_agreement(F):
    """Theorem-direct and lift-project computations coincide everywhere."""
    ps = all_classes_psl(F)
    for P1 in ps:
        for P2 in ps:
            assert psl_pair_product(F, P1, P2) == \
                psl_pair_product_via_lifts(F, P1, P2), (P1, P2)


def test_by_order_reformulation(F):
    direct = psl_pair_product(F, PSLLabel("PU", 1),
                              PSLLabel("PU", F.nonsquare_rep))
    assert psl_distinct_unipotent_product_by_order(F) == direct


def test_by_order_branch_shapes():
    # q = 1 mod 4: no identity, non-split side complete
    F9 = make_field(3, 2)
    out = psl_distinct_unipotent_product_by_order(F9)
    assert PSLLabel("P1") not in out
    assert all(P in out for P in all_classes_psl(F9) if P.kind == "PNSS")
    # q = 3 mod 4: identity present, split side complete
    out7 = psl_distinct_unipotent_product_by_order(F7)
    assert PSLLabel("P1") in out7
    assert all(P in out7 for P in all_classes_psl(F7) if P.kind == "PSS")


def test_triple_golden():
    out = sl2_triple_product(F7, SL2Label("U", 1), SL2Label("U", 1), SL2Label("U", 3))
    assert out == set(all_classes_sl2(F7)) - {SL2Label("-I")}
    out = psl_triple_product(F5, PSLLabel("PU", 1), PSLLabel("PU", 1),
                             PSLLabel("PU", 2))
    assert out == set(all_classes_psl(F5))


def test_triple_central_membership_rule(F):
    """I lands in C1C2C3 exactly when C3^-1 meets the pairwise product, and
    -I through the negated inverse; both fall out of composition."""
    labs = [L for L in all_classes_sl2(F) if not L.is_central]
    for L1, L2, L3 in itertools.combinations_with_replacement(labs, 3):
        out = sl2_triple_product(F, L1, L2, L3)
        pair = sl2_pair_product(F, L1, L2)
        assert (SL2Label("I") in out) == (inverse_class(F, L3) in pair)
        assert (SL2Label("-I") in out) == \
            (negate_class(F, inverse_class(F, L3)) in pair)


def test_triple_containment_psl(F):
    """Three classes, at least two distinct: everything but maybe P1."""
    ps = [P for P in all_classes_psl(F) if P.kind != "P1"]
    noncentral = frozenset(ps)
    for trip in itertools.combinations_with_replacement(ps, 3):
        if len(set(trip)) < 2:
            continue
        out = psl_triple_product(F, *trip)
        assert noncentral <= out, trip
        assert (PSLLabel("P1") in out) == \
            (psl_inverse_class(F, trip[2]) in psl_pair_product(F, *trip[:2]))


def test_triple_containment_sl2_above_5(F):
    if F.q == 5:
        pytest.skip("SL2(5) containment fails for exactly-one-semisimple triples")
    labs = [L for L in all_classes_sl2(F) if not L.is_central]
    noncentral = frozenset(labs)
    for trip in itertools.combinations_with_replacement(labs, 3):
        if len(set(trip)) < 2:
            continue
        assert noncentral <= sl2_triple_product(F, *trip), trip


@pytest.mark.parametrize("kind,trip", [
    ("sl2", ("SS[1]", "SS[3]", "SS[5]")), ("sl2", ("SS[7]", "SS[87]", "NSS[89]")),
    ("psl2", ("PSS[1]", "PSS[3]", "PSS[5]")), ("psl2", ("PSS[24]", "PSS[104]", "PNSS[93]"))])
def test_triple_reaches_the_group_in_few_cells(kind, trip):
    """A fold visits its column's central rows first, so a triple of three
    distinct semisimple classes at q = 211 fills at most 4 law cells from a
    fresh class index (a lowest-row-first fold fills 6 to 169)."""
    F = FieldCtx(211, 1)
    out = law_table(F, kind).of_labels(*(parse_label(F, s) for s in trip))
    assert out >= {L for L in class_index(F, kind).labels if not L.is_central}
    filled = sum(cell is not None for column in law_table(F, kind)._columns.values()
                 for cell in column)
    assert filled <= 4


def test_triple_sl2_q5_counterexample():
    """Documented failure of the naive containment over F_5."""
    out = sl2_triple_product(F5, SL2Label("NSS", 1), SL2Label("U", 1),
                             SL2Label("U", 1))
    assert SL2Label("U", 1) not in out


def test_commutator_predicate_golden():
    assert not commutator_expressible_psl(F5, PSLLabel("PSS", 0))
    assert not commutator_expressible_psl(F7, PSLLabel("PNSS", 0))
    assert commutator_expressible_psl(F5, PSLLabel("PU", 1))
    assert commutator_expressible_psl(F5, PSLLabel("P1"))


def test_commutator_predicate_shape(F):
    """Excluded classes: q-bad semisimple at q = 1 mod 4, q-good non-split
    at q = 3 mod 4."""
    from sl2prod import is_q_good
    for P in all_classes_psl(F):
        got = commutator_expressible_psl(F, P)
        if not P.is_semisimple:
            assert got
        elif F.q % 4 == 1:
            assert got == is_q_good(F, P)
        else:
            assert got == (not (P.kind == "PNSS" and is_q_good(F, P)))
