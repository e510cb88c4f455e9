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
from sl2prod.cli import DEFAULT_SUITE
from sl2prod.mat2 import IDENT, fiber_solutions, iter_trace_fiber

F5, F7, F9 = make_field(5), make_field(7), make_field(3, 2)
F11, F13 = make_field(11), make_field(13)


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
    with pytest.raises(ValueError):
        conjugating_element(F7, (1, 7, 0, 1), (1, 0, 0, 1))  # 7 is not in GF(7)
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


def test_macbeath_checks_traces(monkeypatch):
    """A solver answering another trace question is caught by the traces;
    A*B*C = I alone cannot catch it, since C is (A*B)^-1."""
    monkeypatch.setattr(witness, "fiber_solutions",
                        lambda F, t, y, rs: fiber_solutions(F, 2, y, (4,)))
    with pytest.raises(witness.WitnessError, match="miss the traces"):
        macbeath_triple(F7, 3, 5, 6)


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
    for x in enumerate_sl2(F).fiber(L1):
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


@pytest.mark.parametrize("F", [F5, F7, F9, F11, F13],
                         ids=["q5", "q7", "q9", "q11", "q13"])
def test_macbeath_matches_scan(F):
    """Every trace triple at q = 5 and 7, every degenerate one at q = 9, 11
    and 13."""
    triples = (degenerate_traces(F) if F.q > 7
               else itertools.product(F.elements(), repeat=3))
    for triple in triples:
        assert macbeath_triple(F, *triple) == scan_macbeath(F, *triple), triple


def test_factor_scan_matches_scan_q5():
    labs = all_classes_sl2(F5)
    for g, L1, L2 in itertools.product(seeded_targets(F5, labs), labs, labs):
        cert = witness._factor_scan(F5, g, L1, L2)
        got = None if cert is None else (cert.x, cert.y)
        assert got == scan_factor(F5, g, L1, L2), (g, L1, L2)


# -- the trace-fiber walks that fiber_solutions replaced --------------------


def random_sl2(F, rng):
    """A seeded element of SL2(F) with a nonzero top-left entry."""
    a, b, c = rng.randrange(1, F.q), rng.randrange(F.q), rng.randrange(F.q)
    return (a, b, c, F.div(F.add(1, F.mul(b, c)), a))


def seeded_targets(F, labels, rep=representative):
    """Each class representative, then one seeded conjugate of each."""
    rng = random.Random(F.q)
    reps = [rep(F, L) for L in labels]
    return reps + [conjugate(F, random_sl2(F, rng), g) for g in reps]


def trace_of_product(F, x, y):
    """tr(x y), with four products instead of mat_mul's eight."""
    return F.add(F.add(F.mul(x[0], y[0]), F.mul(x[1], y[2])),
                 F.add(F.mul(x[2], y[1]), F.mul(x[3], y[3])))


def walk_factor_scans(F, g, L1, labels):
    """{L2: (x, y) or None} by the walk _factor_scan made before it solved
    for x: L1's trace fiber in canonical order, each x rejected by tr(x g)
    before its class and x^-1 g are checked.  One walk serves every L2."""
    t1 = mat_trace(F, representative(F, L1))
    walk = [(x, trace_of_product(F, x, g)) for x in iter_trace_fiber(F, t1)]
    out = dict.fromkeys(labels)
    for L2 in labels:
        want = F.sub(F.mul(t1, mat_trace(F, g)),
                     mat_trace(F, representative(F, L2)))
        for x, t in walk:
            if t != want or classify_sl2(F, x, check=False) != L1:
                continue
            y = mat_mul(F, mat_inv(F, x), g)
            if classify_sl2(F, y, check=False) == L2:
                out[L2] = (x, y)
                break
    return out


def walk_partners(F, A, beta):
    """{gamma: first B of the trace-beta fiber with tr(A B) = gamma}, the walk
    that found Macbeath's B before fiber_solutions, one pass for every gamma."""
    first = {}
    for B in iter_trace_fiber(F, beta):
        first.setdefault(trace_of_product(F, A, B), B)
    return first


def walk_commutator(F, g):
    """(s, u, sign_flipped) by the u loop of commutator_witness_psl before
    fiber_solutions: the trace-2 fiber in canonical order, I skipped, each u
    rejected by tr(g u) before its conjugators are searched."""
    two, ntwo = F.scalar(2), F.neg(2)
    for u in iter_trace_fiber(F, two):
        if u == IDENT:
            continue
        t = trace_of_product(F, g, u)
        if t not in (two, ntwo):
            continue
        flipped = t == ntwo
        target = mat_mul(F, mat_neg(F, g) if flipped else g, u)
        s = min((h for h in witness._conjugators(F, u, target)
                 if mat_trace(F, h) not in (two, ntwo)), default=None)
        if s is not None:
            return s, u, flipped
    return None


WALKED = DEFAULT_SUITE
SAMPLED = ((5, 2), (3, 3), (31, 1))


def _ids(fields):
    return [f"q{p ** a}" for p, a in fields]


def sample(F, population, k):
    population = list(population)
    return random.Random(F.q).sample(population, min(k, len(population)))


@pytest.mark.parametrize("pa", WALKED + SAMPLED, ids=_ids(WALKED + SAMPLED))
def test_factor_scan_matches_walk(pa):
    """Every (g, L1, L2) with g a class representative or a seeded conjugate
    of one at q <= 13; a seeded sample of (g, L1), with every L2, above."""
    F = make_field(*pa)
    labs = all_classes_sl2(F)
    cases = list(itertools.product(seeded_targets(F, labs), labs))
    if pa in SAMPLED:
        cases = sample(F, cases, 15)
    for g, L1 in cases:
        walk = walk_factor_scans(F, g, L1, labs)
        for L2 in labs:
            cert = witness._factor_scan(F, g, L1, L2)
            got = None if cert is None else (cert.x, cert.y)
            assert got == walk[L2], (g, L1, L2)


@pytest.mark.parametrize("pa", WALKED + SAMPLED, ids=_ids(WALKED + SAMPLED))
def test_macbeath_partner_matches_walk(pa):
    """Macbeath's B for every (A, beta, gamma), A a class representative or
    a seeded conjugate of one, at q <= 13; a seeded sample of (A, beta),
    with every gamma, above."""
    F = make_field(*pa)
    cases = list(itertools.product(seeded_targets(F, all_classes_sl2(F)),
                                   F.elements()))
    if pa in SAMPLED:
        cases = sample(F, cases, 12)
    for A, beta in cases:
        first = walk_partners(F, A, beta)
        for gamma in F.elements():
            got = next(fiber_solutions(F, beta, A, (gamma,)), None)
            assert got == first.get(gamma), (A, beta, gamma)


@pytest.mark.parametrize("pa", WALKED + SAMPLED, ids=_ids(WALKED + SAMPLED))
def test_macbeath_unipotent_partners_match_companion(pa):
    """Each non-central class of trace +-2 reaches, with the B of each trace
    beta, the same traces tr(A B) as the companion matrix of its trace; so
    when the companion has no partner, macbeath_triple tries only sI."""
    F = make_field(*pa)
    for L in all_classes_sl2(F):
        if L.kind in ("U", "NU"):
            A = representative(F, L)
            companion = (0, F.neg(1), 1, mat_trace(F, A))
            for beta in F.elements():
                assert (walk_partners(F, A, beta).keys()
                        == walk_partners(F, companion, beta).keys()), (L, beta)


@pytest.mark.parametrize("pa", WALKED + SAMPLED, ids=_ids(WALKED + SAMPLED))
def test_commutator_witness_matches_walk(pa):
    """Every expressible non-central class, as its representative and as a
    seeded conjugate, at q <= 13; a seeded sample of them above."""
    F = make_field(*pa)
    labs = [P for P in all_classes_psl(F)
            if commutator_expressible_psl(F, P) and not P.is_central]
    targets = seeded_targets(F, labs, psl_representative)
    if pa in SAMPLED:
        targets = sample(F, targets, 6)
    for g in targets:
        cert = commutator_witness_psl(F, g)
        assert (cert.s, cert.u, cert.sign_flipped) == walk_commutator(F, g), g


# -- large q: witnesses need no enumeration, up to and above its bound ------


@pytest.mark.parametrize("q", [37, 101, 131])
def test_commutator_witness_above_enumeration_bound(q):
    F = make_field(q)
    for P in all_classes_psl(F):
        cert = commutator_witness_psl(F, psl_representative(F, P))
        if commutator_expressible_psl(F, P):
            assert cert is not None and cert.ok(F), P
        else:
            assert cert is None, P


def test_factor_pair_at_q37():
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


@pytest.mark.parametrize("q", [1009, 10007])
def test_solved_searches_at_large_q(q):
    """The searches that walked a whole trace fiber (two factor_pair cases,
    the commutator, a degenerate Macbeath triple of each sign), on inputs
    where the walk was longest: a diagonal target puts every solution of
    tr(x g) = r in a single row of the fiber, and at -2 Macbeath's A was
    -I, in the fiber's last row.  Correctness only; nothing is timed."""
    F = make_field(q)
    labs = all_classes_sl2(F)
    ss = [L for L in labs if L.kind == "SS"]
    nss = [L for L in labs if L.kind == "NSS"]
    for L1, L2 in [(ss[1], nss[0]), (SL2Label("U", 1), ss[1])]:
        admitted = sl2_pair_product(F, L1, L2)
        Lg = [L for L in ss if L in admitted][-1]
        cert = factor_pair(F, representative(F, Lg), L1, L2)
        assert cert is not None and cert.ok(F), (L1, L2)
    cert = commutator_witness_psl(F, representative(F, ss[1]))
    assert cert is not None and cert.ok(F)
    for triple in first_degenerate_traces(F):
        A, B, C = macbeath_triple(F, *triple)
        assert mat_mul(F, mat_mul(F, A, B), C) == (1, 0, 0, 1)
        assert (mat_trace(F, A), mat_trace(F, B), mat_trace(F, C)) == triple


def first_degenerate_traces(F):
    """The first degenerate triple of each sign, (2, b, b) and (-2, b, -b)."""
    triples = degenerate_traces(F)
    return [next(t for t in triples if t[0] == F.mul(s, 2)) for s in (1, F.neg(1))]


@pytest.mark.parametrize("sign", ["+", "-"])
def test_macbeath_tries_companion_then_scalar(monkeypatch, sign):
    """Macbeath's A is the companion or the scalar, never a walk through
    the fiber: at most 2 solver passes and no classification, also at -2,
    where the fiber's first A with a partner, -I, lies in its last row."""
    F = make_field(1009)
    triple = first_degenerate_traces(F)["+-".index(sign)]
    calls = {"fiber_solutions": 0, "classify_sl2": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(witness, name, counted(name, getattr(witness, name)))
    A, B, C = macbeath_triple(F, *triple)
    assert (mat_trace(F, A), mat_trace(F, B), mat_trace(F, C)) == triple
    assert calls["fiber_solutions"] <= 2 and calls["classify_sl2"] == 0, calls
