"""Oracle internals: enumeration, fibers, brute products, covering numbers,
commutator sets."""

import io
import itertools
import json
from contextlib import redirect_stdout

import pytest

from sl2prod import (EnumerationBoundError, PSLLabel, SL2Label,
                     all_classes_psl, all_classes_sl2, brute_commutator_set,
                     brute_pair_product, brute_pair_product_psl,
                     brute_triple_product, classify_sl2,
                     commutator_expressible_psl, covering_numbers,
                     enumerate_sl2, iter_sl2, laws, make_field, mat_det,
                     mat_mul, oracle, psl_classify, psl_lift_pair,
                     psl_project, psl_triple_product, representative,
                     sl2_triple_product, verify_laws)
from sl2prod.classes import ProductTable, class_index
from sl2prod.cli import main as cli_main

F5, F7 = make_field(5), make_field(7)


def test_enumeration_counts():
    assert enumerate_sl2(F5).order == 120
    assert enumerate_sl2(F7).order == 336
    assert enumerate_sl2(make_field(3, 2)).order == 720


def test_enumeration_bound():
    F37 = make_field(37)
    with pytest.raises(EnumerationBoundError):
        enumerate_sl2(F37, max_q=31)
    with pytest.raises(EnumerationBoundError):
        verify_laws(F37, "sl2")
    with pytest.raises(EnumerationBoundError):
        covering_numbers(F37, "psl2")
    assert issubclass(EnumerationBoundError, ValueError)


def test_fibers_partition(F):
    """Each fiber holds its class's elements in the order of iter_sl2, which
    matters because a counterexample is the first match in a fiber."""
    T = enumerate_sl2(F)
    assert sum(len(v) for v in T.fiber.values()) == T.order
    assert list(T.fiber) == list(all_classes_sl2(F))
    classified = [(m, classify_sl2(F, m)) for m in iter_sl2(F)]
    for L, members in T.fiber.items():
        assert members == [m for m, K in classified if K == L], L


@pytest.mark.parametrize("name", ["verify_laws", "covering_numbers",
                                  "brute_triple_product", "brute_commutator_set",
                                  "triple_containment_expected"])
def test_bad_kind_rejected(name, monkeypatch):
    """A kind other than sl2 and psl2 is a ValueError, raised before any
    enumeration, and leaves no class index behind in the field's memo."""
    T, U1 = enumerate_sl2(F7), SL2Label("U", 1)
    call = {"verify_laws": lambda: verify_laws(F7, "SL2"),
            "covering_numbers": lambda: covering_numbers(F7, "SL2"),
            "brute_triple_product": lambda: brute_triple_product(T, U1, U1, U1, kind="x"),
            "brute_commutator_set": lambda: brute_commutator_set(T, "bogus"),
            "triple_containment_expected":
                lambda: oracle.triple_containment_expected(F7, "x", (U1, U1, U1))}[name]
    keys = set(F7.memo)

    def enumerate_sl2_called(*args, **kwargs):
        raise AssertionError("enumerated before the kind was checked")
    monkeypatch.setattr(oracle, "enumerate_sl2", enumerate_sl2_called)
    with pytest.raises(ValueError, match="kind must be sl2 or psl2"):
        call()
    assert set(F7.memo) == keys


def test_brute_pair_golden():
    out = brute_pair_product(enumerate_sl2(F5), SL2Label("U", 1), SL2Label("U", 1))
    assert sorted(map(str, out)) == ["I", "NSS[1]", "NU[1]", "U[2]"]
    T7 = enumerate_sl2(F7)
    out = brute_pair_product(T7, SL2Label("SS", 1), SL2Label("SS", 1))
    assert out == set(all_classes_sl2(F7)) - {SL2Label("-I")}
    for L in all_classes_sl2(F7):
        assert brute_pair_product(T7, SL2Label("I"), L) == {L}


def _count_passes(monkeypatch):
    """Record the class of every column that takes a group pass."""
    passes, direct_columns = [], oracle._direct_columns

    def counted(T):
        direct = direct_columns(T)

        def column(j):
            passes.append(j)
            return direct(j)
        return column
    monkeypatch.setattr(oracle, "_direct_columns", counted)
    return passes


# column passes of the symmetric fill: one per orbit of the classes under
# negation, sigma and phi, but none for {I, -I}; (q+1)/2 at prime q
SYMMETRIC_PASSES = {(5, 1): 3, (7, 1): 4, (3, 2): 4, (13, 1): 7, (5, 2): 9,
                    (3, 3): 6}


@pytest.mark.parametrize("pa", SYMMETRIC_PASSES, ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_symmetric_table_matches_direct_fill(monkeypatch, pa):
    """Every SL2 column filled by its own group pass equals the column the
    symmetric fill gives, and so do the PSL2 cells projected from each."""
    F = make_field(*pa)
    T = enumerate_sl2(F, max_q=F.q)
    n = len(all_classes_sl2(F))
    direct = oracle._direct_columns(T)
    want = [direct(j) for j in range(n)]
    passes = _count_passes(monkeypatch)
    S = oracle._sl2_products(T)
    assert [[S.pair(i, j) for i in range(n)] for j in range(n)] == want
    assert len(passes) == SYMMETRIC_PASSES[pa]
    if F.a == 1:
        assert len(passes) == (F.q + 1) // 2
    got = oracle._psl_products(F, S)
    ref = oracle._psl_products(F, ProductTable(S.classes, lambda i, j: want[j][i]))
    m = len(all_classes_psl(F))
    assert [[got.pair(i, j) for i in range(m)] for j in range(m)] == \
        [[ref.pair(i, j) for i in range(m)] for j in range(m)]


def test_certify_column_passes(monkeypatch):
    """verify at q = 27 and 31, both groups and covering included, makes
    6 + 16 column passes, where a pass per column made 31 + 35."""
    passes = _count_passes(monkeypatch)
    for F in (make_field(3, 3), make_field(31)):
        for kind in ("sl2", "psl2"):
            class_index(F, kind).brute = None
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind, max_q=F.q).ok
    assert len(passes) == 22


def test_brute_pair_symmetric(small_F):
    T = enumerate_sl2(small_F)
    labs = all_classes_sl2(small_F)
    for L1 in labs:
        for L2 in labs:
            assert brute_pair_product(T, L1, L2) == brute_pair_product(T, L2, L1)


def test_paranoid_mode_agrees(small_F):
    T = enumerate_sl2(small_F)
    for L1 in all_classes_sl2(small_F):
        for L2 in all_classes_sl2(small_F):
            assert brute_pair_product(T, L1, L2) == \
                brute_pair_product(T, L1, L2, paranoid=True), (str(L1), str(L2))


@pytest.mark.parametrize("F", [F5, F7], ids=["q5", "q7"])
def test_psl_projection_matches_literal_fibers(F):
    """Each projected PSL2 cell equals the projection of every product of
    the full SL2 fibers over both classes (both lifts of each)."""
    T = enumerate_sl2(F)
    for P1 in all_classes_psl(F):
        for P2 in all_classes_psl(F):
            left = [x for D in set(psl_lift_pair(F, P1)) for x in T.fiber[D]]
            right = [y for D in set(psl_lift_pair(F, P2)) for y in T.fiber[D]]
            literal = {psl_classify(F, mat_mul(F, x, y), check=False)
                       for x in left for y in right}
            assert brute_pair_product_psl(T, P1, P2) == literal, (str(P1), str(P2))


def test_composed_triple_matches_literal_q5():
    """The fold over the brute and the law tables against literal triple
    products, for every ordered SL2 and PSL2 triple at q = 5.  PSL2 triples
    multiply the fibers over both lifts of each class and project."""
    T = enumerate_sl2(F5)

    def literal(lefts, rights, thirds, name):
        products = {mat_mul(F5, x, y) for x in lefts for y in rights}
        return {name(classify_sl2(F5, mat_mul(F5, m, z), check=False))
                for m in products for z in thirds}

    labs = all_classes_sl2(F5)
    for L1, L2, L3 in itertools.product(labs, repeat=3):
        want = literal(T.fiber[L1], T.fiber[L2], [representative(F5, L3)],
                       lambda L: L)
        assert brute_triple_product(T, L1, L2, L3) == want, (L1, L2, L3)
        assert sl2_triple_product(F5, L1, L2, L3) == want, (L1, L2, L3)

    def over(P):
        return [x for D in set(psl_lift_pair(F5, P)) for x in T.fiber[D]]

    project = lambda L: psl_project(F5, L)
    for P1, P2, P3 in itertools.product(all_classes_psl(F5), repeat=3):
        want = literal(over(P1), over(P2),
                       [representative(F5, D) for D in psl_lift_pair(F5, P3)],
                       project)
        assert brute_triple_product(T, P1, P2, P3, kind="psl2") == want, (P1, P2, P3)
        assert psl_triple_product(F5, P1, P2, P3) == want, (P1, P2, P3)


def test_verify_reports(small_F):
    for kind in ("sl2", "psl2"):
        rep = verify_laws(small_F, kind, with_covering=False)
        assert rep.ok
        n = len(all_classes_sl2(small_F)) if kind == "sl2" \
            else len(all_classes_psl(small_F))
        assert rep.pair_count == n * n
        d = rep.to_dict()
        assert d["ok"] and d["pairs"]["failures"] == []


def test_verify_pair_count_example():
    assert verify_laws(F7, "sl2", with_covering=False).pair_count == 121


def test_covering_numbers_golden():
    assert covering_numbers(F7, "psl2") == (3, 4)
    assert covering_numbers(make_field(3, 2), "sl2") == (3, 4)
    # SL2(5) is the documented outlier: recorded, never asserted to be (3, 4)
    cn5, ecn5 = covering_numbers(F5, "sl2")
    assert (cn5, ecn5) != (3, 4) and cn5 is not None and ecn5 is not None


def test_brute_commutator_golden():
    got = brute_commutator_set(enumerate_sl2(F5), "psl2")
    assert got == set(all_classes_psl(F5)) - {PSLLabel("PSS", 0)}
    got7 = brute_commutator_set(enumerate_sl2(F7), "psl2")
    assert got7 == set(all_classes_psl(F7)) - {PSLLabel("PNSS", 0)}


def test_brute_commutator_matches_predicate(F):
    got = brute_commutator_set(enumerate_sl2(F), "psl2")
    want = {P for P in all_classes_psl(F) if commutator_expressible_psl(F, P)}
    assert got == want


def test_brute_commutator_sl2_kind():
    got = brute_commutator_set(enumerate_sl2(F5), "sl2")
    assert SL2Label("I") in got
    assert {psl_classify(F5, representative(F5, L)) for L in got} == \
        brute_commutator_set(enumerate_sl2(F5), "psl2")


# -- mutation check: a broken law must be caught --------------------------


@pytest.mark.parametrize("kind,name,where,dropped", [
    ("sl2", "sl2_pair_product", (SL2Label("U", 1), SL2Label("U", 3)),
     SL2Label("SS", 6)),
    ("psl2", "psl_pair_product", (PSLLabel("PU", 1), PSLLabel("PU", 3)),
     PSLLabel("PNSS", 3)),
])
def test_verify_catches_broken_pair_law(monkeypatch, kind, name, where, dropped):
    """laws.<name> drops one class from the product of one pair at q = 7;
    verify_laws and `sl2prod verify` must report exactly that pair, with a
    product in the dropped class."""
    orig = getattr(laws, name)

    def broken(F, a, b):
        out = orig(F, a, b)
        if F.q == 7 and (a, b) == where:
            assert dropped in out
            return out - {dropped}
        return out
    monkeypatch.setattr(laws, name, broken)
    rep = verify_laws(F7, kind, with_covering=False)
    assert not rep.ok
    assert len(rep.pair_mismatches) == 1
    assert rep.triple_mismatches == [] and rep.containment_failures == []
    m = rep.pair_mismatches[0]
    assert m.where == where
    assert set(m.brute) - set(m.law) == {dropped}
    assert set(m.law) - set(m.brute) == set()
    ce = m.counterexample
    assert ce is not None and mat_det(F7, ce) == 1
    got = classify_sl2(F7, ce)
    assert (got if kind == "sl2" else psl_project(F7, got)) == dropped
    assert m.to_dict()["counterexample"] == list(ce)

    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["verify", "--field", "7"])
    data = json.loads(out.getvalue())
    assert code == 1 and data["ok"] is False
    failed = [r for r in data["reports"] if not r["ok"]]
    assert [r["group"] for r in failed] == [kind]
    assert [f["where"] for f in failed[0]["pairs"]["failures"]] == \
        [[str(L) for L in where]]


@pytest.mark.parametrize("kind,name,where,dropped", [
    ("sl2", "_sl2_pair", (SL2Label("U", 1), SL2Label("U", 3)), SL2Label("SS", 6)),
    ("psl2", "_psl_pair", (PSLLabel("PU", 1), PSLLabel("PU", 3)), PSLLabel("PNSS", 3)),
])
def test_verify_triple_counterexamples(monkeypatch, kind, name, where, dropped):
    """laws.<name> drops one class from one q = 7 pair cell, so the law
    table's triple folds go wrong too; every triple mismatch must carry a
    product that lies in a class the law missed."""
    orig = getattr(laws, name)
    C = laws.class_index(F7, kind)

    def broken(F, a, b):
        mask, rule = orig(F, a, b)
        if F.q == 7 and {a, b} == set(where):
            return mask & ~(1 << C.at(dropped)), rule
        return mask, rule
    monkeypatch.setattr(laws, name, broken)
    C.law = None        # the field's law table is refilled from the broken law
    try:
        rep = verify_laws(F7, kind, with_covering=False)
    finally:
        C.law = None
    assert rep.triple_mismatches
    name_of = (lambda L: L) if kind == "sl2" else (lambda L: psl_project(F7, L))
    for m in rep.triple_mismatches:
        missing = set(m.brute) - set(m.law)
        assert missing and not set(m.law) - set(m.brute), m.where
        ce = m.counterexample
        assert ce is not None and mat_det(F7, ce) == 1, m.where
        assert name_of(classify_sl2(F7, ce)) in missing, m.where
        assert m.to_dict()["counterexample"] == list(ce)
