"""Acceptance criteria, one test per criterion.

Every comparison is exact (label-set equality against the exhaustive
oracle); the only tolerances are the stated wall-clock budgets.  Each test
prints one PASS line on success (visible with pytest -s / -v).
"""

import itertools
import math
import random
import time

from sl2prod import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                     brute_commutator_set, brute_pair_product,
                     brute_pair_product_psl, brute_triple_product,
                     bruhat_compose, bruhat_decompose, bruhat_product,
                     classify_sl2, commutator_expressible_psl,
                     covering_numbers, enumerate_sl2, factor_pair, is_q_good,
                     inverse_class, iter_sl2, macbeath_triple, make_field,
                     mat_inv, mat_mul, mat_trace,
                     psl_distinct_unipotent_product_by_order,
                     psl_pair_product, psl_triple_product,
                     representative, sl2_pair_product, sl2_triple_product,
                     verify_laws)
from sl2prod.cli import DEFAULT_SUITE
from sl2prod.oracle import triple_containment_expected

FIELDS = [make_field(p, a) for p, a in DEFAULT_SUITE]


def test_criterion_1_pairwise_law_certification():
    """Exact law/oracle equality for every ordered pair, both groups,
    q in {5,7,9,11,13}, under 60 seconds."""
    t0 = time.monotonic()
    checked = 0
    for F in FIELDS:
        T = enumerate_sl2(F)
        for L1 in all_classes_sl2(F):
            for L2 in all_classes_sl2(F):
                assert sl2_pair_product(F, L1, L2) == \
                    brute_pair_product(T, L1, L2), (F.q, str(L1), str(L2))
                checked += 1
        for P1 in all_classes_psl(F):
            for P2 in all_classes_psl(F):
                assert psl_pair_product(F, P1, P2) == \
                    brute_pair_product_psl(T, P1, P2), (F.q, str(P1), str(P2))
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 60.0, f"pair certification took {elapsed:.1f}s"
    print(f"PASS criterion 1: {checked} pair products law==oracle "
          f"({elapsed:.1f}s < 60s)")


def test_criterion_2_triple_law_certification():
    """Triple products: containments where claimed, full oracle equality,
    and central memberships matching the oracle, under 120 seconds."""
    t0 = time.monotonic()
    checked = 0
    for F in FIELDS:
        T = enumerate_sl2(F)
        labs = all_classes_sl2(F)
        noncentral = frozenset(L for L in labs if not L.is_central)
        for trip in itertools.combinations_with_replacement(labs, 3):
            law = sl2_triple_product(F, *trip)
            brute = brute_triple_product(T, *trip, kind="sl2")
            assert law == brute, (F.q, trip)
            if triple_containment_expected(F, "sl2", trip):
                assert noncentral <= law, (F.q, trip)
            for c in (SL2Label("I"), SL2Label("-I")):
                assert (c in law) == (c in brute)
            checked += 1
        plabs = all_classes_psl(F)
        pnoncentral = frozenset(P for P in plabs if P.kind != "P1")
        for trip in itertools.combinations_with_replacement(plabs, 3):
            law = psl_triple_product(F, *trip)
            brute = brute_triple_product(T, *trip, kind="psl2")
            assert law == brute, (F.q, trip)
            if triple_containment_expected(F, "psl2", trip):
                assert pnoncentral <= law, (F.q, trip)
            assert (PSLLabel("P1") in law) == (PSLLabel("P1") in brute)
            checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0, f"triple certification took {elapsed:.1f}s"
    print(f"PASS criterion 2: {checked} triple products law==oracle with "
          f"claimed containments ({elapsed:.1f}s < 120s)")


def test_criterion_3_covering_numbers():
    """(cn, ecn) = (3, 4) for PSL2 at all suite q and SL2 at q > 5;
    SL2(5) recorded without assertion."""
    recorded = {}
    for F in FIELDS:
        assert covering_numbers(F, "psl2") == (3, 4), f"PSL2({F.q})"
        if F.q > 5:
            assert covering_numbers(F, "sl2") == (3, 4), f"SL2({F.q})"
        else:
            recorded["SL2(5)"] = covering_numbers(F, "sl2")
    print(f"PASS criterion 3: covering numbers (3,4) everywhere asserted; "
          f"recorded {recorded}")


def test_criterion_4_finite_field_reformulation():
    """Order-based description equals the trace-based product for the two
    distinct PSL unipotent classes at every q, both residue branches, and
    the q-good trace criterion holds for every semisimple class."""
    branches = set()
    for F in FIELDS:
        branches.add(F.q % 4)
        direct = psl_pair_product(F, PSLLabel("PU", 1),
                                  PSLLabel("PU", F.nonsquare_rep))
        assert psl_distinct_unipotent_product_by_order(F) == direct, F.q
        two = F.scalar(2)
        for P in all_classes_psl(F):
            if P.is_semisimple:
                crit = any(v != 0 and F.is_square(v)
                           for t in (P.param, F.neg(P.param))
                           for v in (F.sub(two, t),))
                assert is_q_good(F, P) == crit, (F.q, str(P))
    assert branches == {1, 3}
    print("PASS criterion 4: by-order reformulation equals trace form on "
          "both q mod 4 branches; trace criterion exact")


def test_criterion_5_witness_soundness_completeness():
    """factor_pair: witness iff the law admits, exhaustive over classes for
    q <= 7; macbeath_triple: all q^3 trace triples for q <= 9, products
    re-verified."""
    for F in [make_field(5), make_field(7)]:
        labs = all_classes_sl2(F)
        for Lg, L1, L2 in itertools.product(labs, repeat=3):
            g = representative(F, Lg)
            cert = factor_pair(F, g, L1, L2)
            admitted = Lg in sl2_pair_product(F, L1, L2)
            assert (cert is not None) == admitted, (F.q, Lg, L1, L2)
            if cert is not None:
                assert cert.ok(F), (F.q, Lg, L1, L2)
    counts = []
    for F in [make_field(5), make_field(7), make_field(3, 2)]:
        n = 0
        for al in F.elements():
            for be in F.elements():
                for ga in F.elements():
                    A, B, C = macbeath_triple(F, al, be, ga)
                    assert mat_mul(F, mat_mul(F, A, B), C) == (1, 0, 0, 1)
                    assert (mat_trace(F, A), mat_trace(F, B),
                            mat_trace(F, C)) == (al, be, ga)
                    n += 1
        counts.append(n)
    assert counts == [125, 343, 729]
    print("PASS criterion 5: factor_pair sound+complete (q<=7); macbeath "
          "realizes all trace triples (q<=9)")


def test_criterion_6_commutator_characterization():
    """Brute commutator set equals the order-based predicate at every q;
    the q=5 and q=7 exclusions are exactly PSS[0] and PNSS[0]."""
    for F in FIELDS:
        T = enumerate_sl2(F)
        got = brute_commutator_set(T, "psl2")
        want = frozenset(P for P in all_classes_psl(F)
                         if commutator_expressible_psl(F, P))
        assert got == want, F.q
        if F.q == 5:
            assert set(all_classes_psl(F)) - got == {PSLLabel("PSS", 0)}
        if F.q == 7:
            assert set(all_classes_psl(F)) - got == {PSLLabel("PNSS", 0)}
    print("PASS criterion 6: semisimple-unipotent commutator classes match "
          "the predicate at all q")


def test_criterion_7_structural_suites():
    """Bruhat round trip and symbolic product (exhaustive q <= 7, sampled
    >= 10^4 pairs for 9 <= q <= 13); class partition; reality properties."""
    for F in [make_field(5), make_field(7)]:
        els = list(iter_sl2(F))
        forms = [bruhat_decompose(F, m) for m in els]
        for m, f in zip(els, forms):
            assert bruhat_compose(F, f) == m
        for x, fx in zip(els, forms):
            for y, fy in zip(els, forms):
                assert bruhat_product(F, fx, fy) == \
                    bruhat_decompose(F, mat_mul(F, x, y))
    for F in [make_field(3, 2), make_field(11), make_field(13)]:
        els = list(iter_sl2(F))
        rng = random.Random(F.q)
        for _ in range(10_000):
            x, y = rng.choice(els), rng.choice(els)
            assert bruhat_product(F, bruhat_decompose(F, x),
                                  bruhat_decompose(F, y)) == \
                bruhat_decompose(F, mat_mul(F, x, y))
    for F in FIELDS:
        T = enumerate_sl2(F)
        assert len(all_classes_sl2(F)) == F.q + 4
        assert sum(len(T.fiber(L)) for L in all_classes_sl2(F)) == F.q * (F.q ** 2 - 1)
        for L in all_classes_sl2(F):
            assert inverse_class(F, L) == \
                classify_sl2(F, mat_inv(F, representative(F, L)))
    print("PASS criterion 7: Bruhat suites, q+4 partition, reality "
          "properties all exact")


def _certify(fields):
    """verify_laws for both groups at each field: every pair and triple law
    equals the oracle, every ordered pair and every unordered triple is
    checked, and the covering numbers are (3, 4).  Returns the number of
    products checked."""
    checked = 0
    for F in fields:
        for kind, labels in (("sl2", all_classes_sl2(F)),
                             ("psl2", all_classes_psl(F))):
            rep = verify_laws(F, kind)
            n = len(labels)
            assert rep.ok, (F.q, kind, rep.to_dict())
            assert rep.pair_count == n * n, (F.q, kind)
            assert rep.triple_count == math.comb(n + 2, 3), (F.q, kind)
            assert rep.covering == (3, 4), (F.q, kind)
            checked += rep.pair_count + rep.triple_count
    return checked


def test_criterion_8_certification_beyond_suite():
    """verify_laws for both groups at q in {17, 19, 23, 25}: every pair and
    triple law equals the oracle, every ordered pair and every unordered
    triple is checked, and the covering numbers are (3, 4)."""
    t0 = time.monotonic()
    checked = _certify([make_field(17), make_field(19), make_field(23),
                        make_field(5, 2)])
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 8: {checked} pair and triple products law==oracle "
          f"at q in {{17, 19, 23, 25}}, covering (3,4) ({elapsed:.1f}s)")


def test_criterion_9_certification_to_61():
    """The same certification as criterion 8 at every odd prime power
    27 <= q <= 61."""
    t0 = time.monotonic()
    checked = _certify([make_field(3, 3), make_field(29), make_field(31),
                        make_field(37), make_field(41), make_field(43),
                        make_field(47), make_field(7, 2), make_field(53),
                        make_field(59), make_field(61)])
    elapsed = time.monotonic() - t0
    print(f"PASS criterion 9: {checked} pair and triple products law==oracle "
          f"at every odd prime power 27 <= q <= 61, covering (3,4) "
          f"({elapsed:.1f}s)")
