"""Witness construction: conjugators, factorizations, trace triples,
commutator certificates."""

import itertools
import random
import tracemalloc

import pytest

from sl2prod import (PSLLabel, SL2Label, all_classes_psl, all_classes_sl2,
                     classify_sl2, commutator_expressible_psl,
                     commutator_witness_psl, conjugate, conjugating_element,
                     enumerate_sl2, factor_pair, factor_pair_psl, iter_sl2,
                     macbeath_triple, make_field, mat_inv, mat_mul, mat_neg,
                     mat_trace, psl_classify, psl_element_order,
                     psl_representative, representative, sl2_pair_product,
                     witness)

F5, F7, F9 = make_field(5), make_field(7), make_field(3, 2)


def test_conjugating_element_golden():
    got = conjugating_element(F5, representative(F5, SL2Label("U", 1)), (1, 4, 0, 1))
    assert got == (2, 0, 0, 3)
    assert conjugating_element(F5, representative(F5, SL2Label("U", 1)),
                               representative(F5, SL2Label("U", 2))) is None
    # identity is the first self-conjugator for upper-triangular reps
    for L in ("U[1]", "NU[1]", "SS[0]"):
        from sl2prod import parse_sl2_label
        x = representative(F5, parse_sl2_label(F5, L))
        assert conjugating_element(F5, x, x) == (1, 0, 0, 1)


def test_conjugating_element_keeps_a_running_minimum():
    """The about 2q conjugators at q = 10007 are generated one at a time,
    never held in a list (2.9 MB when they were)."""
    F = make_field(10007)
    u = representative(F, SL2Label("U", 1))
    tracemalloc.start()
    try:
        h = conjugating_element(F, u, u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert h == (1, 0, 0, 1)
    assert peak < 0.5 * 2 ** 20


def test_conjugating_element_validates():
    x = representative(F7, SL2Label("NSS", 0))
    y = representative(F7, SL2Label("NSS", 3))
    assert conjugating_element(F7, x, y) is None  # different traces
    with pytest.raises(ValueError):
        conjugating_element(F7, (1, 0, 0, 2), (1, 0, 0, 2))  # not in SL2
    h = conjugating_element(F7, x, (3, 1, 4, 4))
    if h is not None:
        from sl2prod import conjugate
        assert conjugate(F7, h, x) == (3, 1, 4, 4)


def test_factor_pair_golden():
    cert = factor_pair(F7, (1, 3, 0, 1), SL2Label("U", 1), SL2Label("U", 1))
    assert cert.ok(F7)
    assert mat_mul(F7, cert.x, cert.y) == (1, 3, 0, 1)
    assert factor_pair(F7, (1, 0, 0, 1), SL2Label("U", 1), SL2Label("U", 1)) is None
    cert = factor_pair(F5, (4, 0, 0, 4), SL2Label("SS", 0), SL2Label("SS", 0))
    assert cert.ok(F5) and cert.x == cert.y
    assert mat_mul(F5, cert.x, cert.x) == (4, 0, 0, 4)


def test_factor_pair_deterministic():
    a = factor_pair(F7, (1, 3, 0, 1), SL2Label("U", 1), SL2Label("U", 3))
    b = factor_pair(F7, (1, 3, 0, 1), SL2Label("U", 1), SL2Label("U", 3))
    assert a == b


def test_factor_pair_complete_q5():
    """Witness iff the law admits membership, for every (g-class, L1, L2)."""
    labs = all_classes_sl2(F5)
    for Lg, L1, L2 in itertools.product(labs, repeat=3):
        g = representative(F5, Lg)
        cert = factor_pair(F5, g, L1, L2)
        if Lg in sl2_pair_product(F5, L1, L2):
            assert cert is not None and cert.ok(F5), (Lg, L1, L2)
        else:
            assert cert is None, (Lg, L1, L2)


def test_factor_pair_nontrivial_targets_q7():
    T_labels = all_classes_sl2(F7)
    for L1, L2 in [(SL2Label("U", 1), SL2Label("NU", 1)),
                   (SL2Label("NU", 3), SL2Label("NU", 1)),
                   (SL2Label("SS", 1), SL2Label("U", 3)),
                   (SL2Label("NSS", 0), SL2Label("NSS", 0))]:
        admitted = sl2_pair_product(F7, L1, L2)
        for Lg in T_labels:
            cert = factor_pair(F7, representative(F7, Lg), L1, L2)
            assert (cert is not None) == (Lg in admitted)
            if cert:
                assert cert.ok(F7)


def test_factor_pair_psl():
    g = representative(F5, SL2Label("NU", 1))
    cert = factor_pair_psl(F5, g, PSLLabel("PU", 1), PSLLabel("PU", 1))
    assert cert is not None and cert.ok(F5)
    assert psl_classify(F5, mat_mul(F5, cert.x, cert.y)) == psl_classify(F5, g)


def test_factor_pair_psl_complete_q5():
    from sl2prod import psl_pair_product, psl_representative
    plabs = all_classes_psl(F5)
    for Pg, P1, P2 in itertools.product(plabs, repeat=3):
        g = psl_representative(F5, Pg)
        cert = factor_pair_psl(F5, g, P1, P2)
        if Pg in psl_pair_product(F5, P1, P2):
            assert cert is not None and cert.ok(F5), (Pg, P1, P2)
            assert mat_mul(F5, cert.x, cert.y) == g
        else:
            assert cert is None, (Pg, P1, P2)


def test_macbeath_golden():
    A, B, C = macbeath_triple(F5, 0, 0, 1)
    assert (A, B, C) == ((0, 4, 1, 0), (2, 0, 4, 3), (0, 3, 3, 1))
    A, B, C = macbeath_triple(F7, 1, 1, 1)
    assert mat_mul(F7, mat_mul(F7, A, B), C) == (1, 0, 0, 1)
    assert (mat_trace(F7, A), mat_trace(F7, B), mat_trace(F7, C)) == (1, 1, 1)


def test_macbeath_degenerate_triples():
    """Cases where the companion start matrix admits no completion."""
    for triple in [(2, 0, 0), (F7.neg(2), 1, F7.neg(1)), (2, 2, 2)]:
        A, B, C = macbeath_triple(F7, *triple)
        assert mat_mul(F7, mat_mul(F7, A, B), C) == (1, 0, 0, 1)
        assert (mat_trace(F7, A), mat_trace(F7, B), mat_trace(F7, C)) == triple


def test_macbeath_exhaustive_q5():
    for al in F5.elements():
        for be in F5.elements():
            for ga in F5.elements():
                A, B, C = macbeath_triple(F5, al, be, ga)
                assert mat_mul(F5, mat_mul(F5, A, B), C) == (1, 0, 0, 1)
                assert (mat_trace(F5, A), mat_trace(F5, B),
                        mat_trace(F5, C)) == (al, be, ga)


def test_commutator_witness_unipotent_q5():
    g = representative(F5, SL2Label("U", 1))
    cert = commutator_witness_psl(F5, g)
    assert cert is not None and cert.ok(F5)
    assert psl_classify(F5, cert.s).is_semisimple
    assert classify_sl2(F5, cert.u).kind == "U"
    assert psl_element_order(F5, psl_classify(F5, cert.u)) == 5
    assert psl_element_order(F5, psl_classify(F5, cert.s)) in (2, 3)


def test_commutator_witness_excluded_classes():
    assert commutator_witness_psl(F5, representative(F5, SL2Label("SS", 0))) is None
    assert commutator_witness_psl(F7, representative(F7, SL2Label("NSS", 0))) is None


def test_commutator_witness_identity():
    for g in [(1, 0, 0, 1), (F7.neg(1), 0, 0, F7.neg(1))]:
        cert = commutator_witness_psl(F7, g)
        assert cert is not None and cert.ok(F7)
        assert cert.u == (1, 0, 0, 1)
        assert classify_sl2(F7, cert.s).is_semisimple


def test_commutator_witness_every_expressible_class(small_F):
    F = small_F
    for P in all_classes_psl(F):
        from sl2prod import psl_representative
        g = psl_representative(F, P)
        cert = commutator_witness_psl(F, g)
        if commutator_expressible_psl(F, P):
            assert cert is not None and cert.ok(F)
            if P.kind != "P1":
                assert classify_sl2(F, cert.u).kind == "U"
                assert classify_sl2(F, cert.s).is_semisimple
        else:
            assert cert is None


# -- the literal scans the witness constructions must reproduce -------------


def scan_conjugators(F, x):
    """{y: first h in iter_sl2 with h x h^-1 = y}: one literal pass, so the
    first conjugator onto every y comes from a single walk of the group."""
    first = {}
    for h in iter_sl2(F):
        first.setdefault(mat_mul(F, mat_mul(F, h, x), mat_inv(F, h)), h)
    return first


def scan_commutator(F, g):
    """(s, u, sign_flipped) with s u s^-1 = +-g u, first in the order of
    iter_sl2, for g outside the center."""
    classified = [(m, classify_sl2(F, m, check=False)) for m in iter_sl2(F)]
    unipotents = [m for m, L in classified if L.kind == "U"]
    semis = [m for m, L in classified if L.is_semisimple]
    for u in unipotents:
        gu, ngu = mat_mul(F, g, u), mat_mul(F, mat_neg(F, g), u)
        for s in semis:
            lhs = mat_mul(F, mat_mul(F, s, u), mat_inv(F, s))
            if lhs == gu:
                return s, u, False
            if lhs == ngu:
                return s, u, True
    return None


def scan_macbeath(F, alpha, beta, gamma):
    """The companion matrix, then the trace-alpha elements of iter_sl2, each
    tried against the trace-beta elements in scan order."""
    companion = (0, F.neg(1), 1, alpha)
    fiber = [m for m in iter_sl2(F) if mat_trace(F, m) == alpha and m != companion]
    partners = [m for m in iter_sl2(F) if mat_trace(F, m) == beta]
    for A in [companion] + fiber:
        for B in partners:
            if mat_trace(F, mat_mul(F, A, B)) == gamma:
                return A, B, mat_inv(F, mat_mul(F, A, B))
    return None


def scan_factor(F, g, L1, L2):
    """First x in the enumerated fiber of L1 with x^-1 g in L2."""
    for x in enumerate_sl2(F).fiber[L1]:
        y = mat_mul(F, mat_inv(F, x), g)
        if classify_sl2(F, y) == L2:
            return x, y
    return None


def degenerate_traces(F):
    """Trace triples whose companion matrix has no partner: (2s, b, s b) for
    a sign s, with b^2 - 4 a nonzero non-square."""
    out = []
    for s in (1, F.neg(1)):
        for b in F.elements():
            disc = F.sub(F.mul(b, b), F.scalar(4))
            if disc and not F.is_square(disc):
                out.append((F.mul(s, 2), b, F.mul(s, b)))
    return out


@pytest.mark.parametrize("F", [F5, F7, F9], ids=["q5", "q7", "q9"])
def test_conjugating_element_matches_scan(F):
    rng = random.Random(F.q)
    G = list(iter_sl2(F))
    reps = [representative(F, L) for L in all_classes_sl2(F)]
    for x in reps:
        first = scan_conjugators(F, x)
        seeded = [conjugate(F, rng.choice(G), x) for _ in range(3)]
        for y in reps + seeded + [rng.choice(G) for _ in range(3)]:
            assert conjugating_element(F, x, y) == first.get(y), (x, y)


@pytest.mark.parametrize("F", [F5, F7, F9], ids=["q5", "q7", "q9"])
def test_commutator_witness_matches_scan(F):
    rng = random.Random(F.q)
    G = list(iter_sl2(F))
    targets = [psl_representative(F, P) for P in all_classes_psl(F)]
    targets += [rng.choice(G) for _ in range(4)]
    for g in targets:
        if psl_classify(F, g).is_central:
            continue
        cert = commutator_witness_psl(F, g)
        if commutator_expressible_psl(F, psl_classify(F, g)):
            assert (cert.s, cert.u, cert.sign_flipped) == scan_commutator(F, g), g
        else:
            assert cert is None, g


@pytest.mark.parametrize("F", [F5, F7, F9], ids=["q5", "q7", "q9"])
def test_macbeath_matches_scan(F):
    """Every trace triple at q = 5 and 7, every degenerate one at q = 9."""
    triples = (degenerate_traces(F) if F.q == 9
               else itertools.product(F.elements(), repeat=3))
    for triple in triples:
        assert macbeath_triple(F, *triple) == scan_macbeath(F, *triple), triple


def test_factor_scan_matches_scan_q5():
    labs = all_classes_sl2(F5)
    for Lg, L1, L2 in itertools.product(labs, repeat=3):
        cert = witness._factor_scan(F5, representative(F5, Lg), L1, L2)
        got = None if cert is None else (cert.x, cert.y)
        assert got == scan_factor(F5, representative(F5, Lg), L1, L2), (Lg, L1, L2)


# -- above the enumeration bound --------------------------------------------


@pytest.mark.parametrize("q", [37, 101])
def test_commutator_witness_above_enumeration_bound(q):
    F = make_field(q)
    for P in all_classes_psl(F):
        cert = commutator_witness_psl(F, psl_representative(F, P))
        if commutator_expressible_psl(F, P):
            assert cert is not None and cert.ok(F), P
        else:
            assert cert is None, P


def test_factor_pair_above_enumeration_bound():
    F = make_field(37)
    ss = [L for L in all_classes_sl2(F) if L.is_semisimple]
    for L1, L2 in [(ss[0], ss[-1]), (SL2Label("U", 1), SL2Label("U", F.nonsquare_rep))]:
        admitted = [L for L in all_classes_sl2(F) if L in sl2_pair_product(F, L1, L2)]
        g = conjugate(F, (1, 1, 1, 2), representative(F, admitted[-1]))
        cert = factor_pair(F, g, L1, L2)
        assert cert is not None and cert.ok(F), (L1, L2)
    for triple in degenerate_traces(F):
        A, B, C = macbeath_triple(F, *triple)
        assert mat_mul(F, mat_mul(F, A, B), C) == (1, 0, 0, 1)
        assert (mat_trace(F, A), mat_trace(F, B), mat_trace(F, C)) == triple

