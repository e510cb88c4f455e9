"""Closed-form product laws and their structural properties.

The master law-vs-oracle equality runs in test_acceptance; here the laws
are pinned on golden cases and checked for the symmetry, inversion,
coverage, and dual-path properties that hold at every supported q.
"""

import hashlib
import itertools
import json
import random
import tracemalloc

import pytest

from sl2prod import laws, oracle
from sl2prod import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                     commutator_expressible_psl, inverse_class, make_field,
                     negate_class, psl_distinct_unipotent_product_by_order,
                     psl_inverse_class, psl_lift_pair, psl_pair_product,
                     psl_pair_product_law, psl_project, psl_triple_product,
                     sl2_pair_product, sl2_pair_product_law,
                     sl2_triple_product, sort_labels)
from sl2prod.classes import ProductTable, class_index, parse_label
from sl2prod.field import FieldCtx
from sl2prod.laws import law_table
from sl2prod.witness import factor_pair

from conftest import ODD_PRIME_POWERS_TO_31, _qid

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


# sha256 of the JSON answers of every ordered pair, [A, B, classes, rule],
# and of every ordered triple, its classes, each class list in canonical
# order; taken before the central-first fold was dropped.  The pairs of
# each field and group take all of its group's rules, 10 in SL2 and 5 in PSL2.
ANSWER_GOLDEN = {
    ((7, 1), "sl2"): ("582126120ae56176ab7e642540b130167210a16d7b403d2f7024239a4c20c3c3",
                      "112235dcc767bfb6e72f00e9c96c8da6116ce321aebd89e157df86ef8199ba2c"),
    ((7, 1), "psl2"): ("82de2e1bf82870073c5e66281865f16be3c7375371dbbe490609a96e62f7e926",
                       "a83890f90d2d8f81c95bd1253888cb3b91922185b8ef1c07d9e3d45cd085a7bf"),
    ((3, 2), "sl2"): ("9125ad8ed4edbc8c648cc9e0086b336f88250fd4b4e39f15e247770517b4bf26",
                      "bd7d155887c6d696bb3e49c4cc1faad3e4c3042c7e1af4ba4e32d0f75dfe0f16"),
    ((3, 2), "psl2"): ("768719b4826e8c1146c9a1ae455270b2b0adf4c32a2c32d18fd3034ff2898ecb",
                       "b24a80b5d5be5fb78829bc73ea21ea3e2cb93d757a5837a7c177736bdf61aad1"),
}


def _sha256_json(out):
    return hashlib.sha256(json.dumps(out).encode()).hexdigest()


@pytest.mark.parametrize("pa,kind", list(ANSWER_GOLDEN),
                         ids=lambda v: _qid(v) if isinstance(v, tuple) else v)
def test_every_answer_golden(pa, kind):
    """Every pair answer, rule included, and every triple answer, byte for
    byte."""
    F = make_field(*pa)
    labels = all_classes_sl2(F) if kind == "sl2" else all_classes_psl(F)
    pair_law = sl2_pair_product_law if kind == "sl2" else psl_pair_product_law
    triple = sl2_triple_product if kind == "sl2" else psl_triple_product
    pairs = [[str(A), str(B), [str(L) for L in sort_labels(law.classes)], law.rule]
             for A, B in itertools.product(labels, repeat=2)
             for law in [pair_law(F, A, B)]]
    triples = [[str(L) for L in sort_labels(triple(F, *trip))]
               for trip in itertools.product(labels, repeat=3)]
    assert len({rule for *_, rule in pairs}) == (10 if kind == "sl2" else 5)
    assert (_sha256_json(pairs), _sha256_json(triples)) == ANSWER_GOLDEN[pa, kind]


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


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
def test_pair_answer_is_kept_whole(small_F, kind):
    """Each pair query returns the one ProductLaw kept for its ordered pair,
    and the label-set query that law's classes.  The reversed ask names its
    factors in its own order, with the same classes and rule."""
    F = small_F
    pair_law = sl2_pair_product_law if kind == "sl2" else psl_pair_product_law
    pair = sl2_pair_product if kind == "sl2" else psl_pair_product
    for A, B in itertools.combinations_with_replacement(class_index(F, kind).labels, 2):
        law, back = pair_law(F, A, B), pair_law(F, B, A)
        assert pair_law(F, A, B) is law and pair_law(F, B, A) is back
        assert pair(F, A, B) is law.classes
        assert (law.left, law.right, back.left, back.right) == (A, B, B, A)
        assert (back.classes, back.rule) == (law.classes, law.rule)


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
                                (3, 5)], ids=_qid)
def test_shift_masks_match_scan(pa, monkeypatch):
    """The one mask kept for _semisimple_by_shift gives the scan's mask at
    both shifts and every unit, in both groups; its pass reads one quadratic
    character per semisimple class, and the ask one more, for cls."""
    F = make_field(*pa)
    is_square, calls = FieldCtx.is_square, []
    monkeypatch.setattr(FieldCtx, "is_square", lambda self, x: calls.append(x) or is_square(self, x))
    for kind in ("sl2", "psl2"):
        C = class_index(F, kind)
        monkeypatch.setattr(C, "shifts", None)
        calls.clear()
        laws._semisimple_by_shift(F, C, F.scalar(2), 1)
        assert len(calls) == sum(L.is_semisimple for L in C.labels) + 1, kind
        assert type(C.shifts) is int
        for shift in (F.scalar(2), F.neg(F.scalar(2))):
            for cls in F.units():
                assert laws._semisimple_by_shift(F, C, shift, cls) == \
                    _semisimple_by_shift_scan(F, C, shift, cls), (kind, shift, cls)


@pytest.mark.parametrize("pa", [(5, 1), (7, 1), (3, 2), (1009, 1), (3, 7), (10007, 1)], ids=_qid)
def test_unipotent_cells_by_negation(pa):
    """U[e1] * NU[e2] is the negation of U[e1] * U[class(-e2)].  Each U * U
    cell holds both U classes and each U * NU cell both NU classes, the
    memberships the paper guards with |k| > 5, but for 4 cells at q = 5:
    e2 + s*e1*a^2 falls in each square class for at least (q - 5)/4 units a,
    a Jacobi-sum count that is positive for q > 5."""
    F = make_field(*pa)
    C = class_index(F, "sl2")
    T, neg = law_table(F, "sl2"), oracle._negation(F, C)
    reps = (1, F.nonsquare_rep)
    missing = 0
    for e1, e2 in itertools.product(reps, repeat=2):
        U1, U2, NU2 = (C.at(SL2Label(k, e)) for k, e in (("U", e1), ("U", e2), ("NU", e2)))
        assert T.pair(U1, NU2) == oracle._image(
            neg, T.pair(U1, C.at(SL2Label("U", F.square_class(F.neg(e2))))))
        for cell, kind in ((T.pair(U1, U2), "U"), (T.pair(U1, NU2), "NU")):
            missing += any(not cell >> C.slot[kind, r] & 1 for r in reps)
        for se1 in (e1, F.neg(e1)):
            values = [F.add(e2, F.mul(se1, F.mul(a, a))) for a in F.units()]
            squares = sum(v != 0 and F.is_square(v) for v in values)
            nonsquares = sum(v != 0 for v in values) - squares
            assert min(squares, nonsquares) >= (F.q - 5) / 4, (e1, e2, se1)
    assert missing == (4 if F.q == 5 else 0)


def test_pair_query_at_large_q_builds_no_table():
    """Witnesses at q = 10007 build no (q + 4)^2 table: the law table holds
    just the cells they asked, each fill under both orders, and no pair query
    is memoized.  A law table allocates a column only when a cell in it is
    asked for or filled."""
    F = FieldCtx(10007, 1)
    C = class_index(F, "sl2")
    g = (1, 1, 0, 1)
    for L2 in (SL2Label("U", 1), SL2Label("U", F.nonsquare_rep)):
        cert = factor_pair(F, g, SL2Label("U", 1), L2)
        assert cert is None or cert.ok(F)
    assert {j: list(column) for j, column in C.law._columns.items()} == {2: [2, 3], 3: [2]}
    assert C.pairs == {}
    T = ProductTable(C, lambda i, j: 0)
    assert T.pair(2, 3) == T.triple(2, 3, 4) == 0
    assert sorted(T._columns) == [2, 3, 4]


def test_random_triples_at_large_q_keep_only_filled_cells():
    """1000 SL2 and 1000 PSL2 seeded random triples at q = 10007 hold under
    40 MiB: a law-table column keeps only the cells its folds filled, where
    a list of q + 4 slots per column took 210 MiB."""
    F = FieldCtx(10007, 1)
    rng = random.Random(1)
    S, P = all_classes_sl2(F), all_classes_psl(F)
    trips = ([(sl2_triple_product, rng.choices(S, k=3)) for _ in range(1000)]
             + [(psl_triple_product, rng.choices(P, k=3)) for _ in range(1000)])
    tracemalloc.start()
    try:
        for triple, labels in trips:
            triple(F, *labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2 ** 20, peak


def test_closed_form_triples_share_their_masks():
    """A closed-form triple is one of the 2^c masks of its law table, c the
    number of central classes, so its memo entry holds no mask of its own:
    1000 SL2 and 1000 PSL2 seeded random triples at q = 99991, with both
    class indices built, peak at 26 MiB of tracemalloc, where a fresh q-bit
    mask per entry peaked at 45 MiB (Python 3.11)."""
    F = FieldCtx(99991, 1)
    rng = random.Random(1)
    S, P = all_classes_sl2(F), all_classes_psl(F)
    trips = ([(sl2_triple_product, rng.choices(S, k=3)) for _ in range(1000)]
             + [(psl_triple_product, rng.choices(P, k=3)) for _ in range(1000)])
    tracemalloc.start()
    try:
        for triple, labels in trips:
            triple(F, *labels)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 35 * 2 ** 20, peak
    for kind, c in (("sl2", 2), ("psl2", 1)):
        law = law_table(F, kind)
        assert len(law._forms) == 2 ** c and len(law.closed) > 900
        assert all(any(out is form for form in law._forms) for out in law.closed.values())


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


def lifted_pair_product(F, P1, P2):
    """The reference for the PSL2 laws: the projection of the SL2 law of one
    lift of each class.  Changing a lift only negates the product set, which
    projection erases, so one lift per class suffices."""
    D1, D2 = psl_lift_pair(F, P1)[0], psl_lift_pair(F, P2)[0]
    return frozenset(psl_project(F, L) for L in sl2_pair_product(F, D1, D2))


def test_psl_dual_path_agreement(F):
    """Theorem-direct and lift-project computations coincide everywhere."""
    ps = all_classes_psl(F)
    for P1 in ps:
        for P2 in ps:
            assert psl_pair_product(F, P1, P2) == \
                lifted_pair_product(F, P1, P2), (P1, P2)


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
    """A triple of three distinct semisimple classes at q = 211 is in closed
    form, so it makes at most 1 law fill from a fresh class index (a fold in
    index order would make 6 to 169)."""
    F = FieldCtx(211, 1)
    law, fill, fills = law_table(F, kind), law_table(F, kind)._fill, []
    law._fill = lambda i, j: fills.append((i, j)) or fill(i, j)
    out = law.of_labels(*(parse_label(F, s) for s in trip))
    assert out >= {L for L in class_index(F, kind).labels if not L.is_central}
    assert len(fills) <= 1


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_31, ids=_qid)
def test_closed_form_triples_equal_the_fold(pa):
    """For every ordered triple of classes, in both groups, the law table's
    triple, in closed form unless a factor is central, equals the fold
    compose(pair(i, j), k) over the same law cells; SL2(5) alone, whose
    covering number is 5, keeps the fold."""
    F = make_field(*pa)
    for kind in ("sl2", "psl2"):
        law = law_table(F, kind)
        assert (law.closed is None) == ((F.q, kind) == (5, "sl2"))
        n = len(law.classes.labels)
        for i, j, k in itertools.product(range(n), repeat=3):
            assert law.triple(i, j, k) == law.compose(law.pair(i, j), k), (kind, i, j, k)


def test_triple_missing_the_centre_at_large_q_fills_one_cell(monkeypatch):
    """U[1]·U[1]·SS[3] at q = 99991 misses I, so a fold could not stop early
    and would fill about q/2 cells of q bits (637 MB); the closed form fills
    the one cell U[1]·U[1], composes nothing, and stays within 40 MiB with
    the class index built."""
    F = FieldCtx(99991, 1)

    def compose_called(*args):
        raise AssertionError("a closed-form triple composed")
    monkeypatch.setattr(ProductTable, "compose", compose_called)
    tracemalloc.start()
    try:
        law = law_table(F, "sl2")
        out = law.of_labels(*(parse_label(F, s) for s in ("U[1]", "U[1]", "SS[3]")))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert SL2Label("I") not in out and SL2Label("-I") in out
    assert {j: list(column) for j, column in law._columns.items()} == {2: [2]}
    assert peak < 40 * 2 ** 20, peak


def test_triples_keep_only_cells_and_closed_forms():
    """A stream of triples with a central factor at q = 211 in both groups,
    and of every SL2(5) triple, each asked twice, leaves each law table
    holding only its filled cells and its closed forms: every answer is a
    fold, or a closed form, of kept cells, and no fold is kept."""
    rng, F211 = random.Random(211), FieldCtx(211, 1)
    for F, kind in ((F211, "sl2"), (F211, "psl2"), (FieldCtx(5, 1), "sl2")):
        law = law_table(F, kind)
        n, c = len(law.classes.labels), law.classes.n_central
        if F.q == 5:
            trips = list(itertools.product(range(n), repeat=3))
        else:
            trips = [rng.sample([rng.randrange(c), rng.randrange(n), rng.randrange(n)], 3)
                     for _ in range(300)]
        for trip in trips * 2:
            i, j, k = sorted(trip) if min(trip) < c else trip
            assert law.triple(*trip) == law.compose(law.pair(i, j), k), (kind, trip)
        assert set(vars(law)) == {"classes", "_fill", "_forms", "_columns", "closed"}
        assert law.closed == ({} if F.q == 211 else None), (F.q, kind)


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
