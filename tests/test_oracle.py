"""Oracle internals: enumeration, fibers, brute products, covering numbers,
commutator sets."""

import io
import itertools
import json
import tracemalloc
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
from sl2prod.cli import DEFAULT_SUITE, main as cli_main
from sl2prod.field import FieldCtx

F5, F7 = make_field(5), make_field(7)


def test_enumeration_counts():
    assert enumerate_sl2(F5).order == 120
    assert enumerate_sl2(F7).order == 336
    assert enumerate_sl2(make_field(3, 2)).order == 720


def test_enumeration_bound(no_group_table):
    """Above oracle.ENUMERATION_BOUND every entry point that enumerates
    raises EnumerationBoundError before a group table is built."""
    F131 = make_field(131)
    for call in (lambda: enumerate_sl2(F131), lambda: verify_laws(F131, "sl2"),
                 lambda: covering_numbers(F131, "psl2")):
        with pytest.raises(EnumerationBoundError, match="131"):
            call()
    assert class_index(F131, "sl2").group is None
    assert issubclass(EnumerationBoundError, ValueError)


def test_enumeration_bound_boundary(monkeypatch):
    """q equal to the bound enumerates; the next odd prime above it does not."""
    monkeypatch.setattr(oracle, "ENUMERATION_BOUND", 7)
    assert enumerate_sl2(F7).order == 336
    with pytest.raises(EnumerationBoundError):
        enumerate_sl2(make_field(11))


def test_fibers_partition(F):
    """Each fiber holds its class's elements in the order of iter_sl2, which
    matters because a counterexample is the first match in a fiber."""
    T = enumerate_sl2(F)
    labels = all_classes_sl2(F)
    assert sum(len(T.fiber(L)) for L in labels) == T.order
    classified = [(m, classify_sl2(F, m)) for m in iter_sl2(F)]
    for L in labels:
        assert T.fiber(L) == [m for m, K in classified if K == L], L


def test_group_table_memory():
    """The group table keeps only the fibers of trace +-2, about 2q^2
    elements, and rebuilds a semisimple fiber from its trace: at q = 61 it
    holds under 1 MiB, where all q^3 - q elements took 17 MiB."""
    F = FieldCtx(61, 1)
    all_classes_sl2(F)      # the class index is the field's, not the table's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        T = oracle.GroupTable(F)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert T.order == 61 * (61 ** 2 - 1)
    assert held < 2 ** 20, held


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


def _count_passes(monkeypatch, classified=None):
    """Record (class, fiber rows walked) for every column that takes a
    group pass; the rows given as known are not walked.  The list
    classified, if given, gets (class, classify_sl2 calls) for each pass."""
    passes, direct_columns = [], oracle._direct_columns
    calls, classify = [0], oracle.classify_sl2

    def counted_classify(*args, **kwargs):
        calls[0] += 1
        return classify(*args, **kwargs)

    def counted(T):
        direct = direct_columns(T)
        n = len(all_classes_sl2(T.field))

        def column(j, known=None):
            passes.append((j, n - len(known or {})))
            before = calls[0]
            out = direct(j, known)
            if classified is not None:
                classified.append((j, calls[0] - before))
            return out
        return column
    monkeypatch.setattr(oracle, "_direct_columns", counted)
    monkeypatch.setattr(oracle, "classify_sl2", counted_classify)
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
    T = enumerate_sl2(F)
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
    6 + 16 column passes, where a pass per column made 31 + 35.  Those
    passes walk 369 fiber rows, where walking every row took 6 * 31 +
    16 * 35 = 746."""
    passes = _count_passes(monkeypatch)
    for F in (make_field(3, 3), make_field(31)):
        for kind in ("sl2", "psl2"):
            class_index(F, kind).brute = None
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind).ok
    assert len(passes) == 22
    assert sum(rows for _, rows in passes) == 369


@pytest.mark.parametrize("pa", [(3, 3), (31, 1)], ids=["q27", "q31"])
def test_only_the_unipotent_pass_classifies(monkeypatch, pa):
    """Of the symmetric fill's passes, only the pass of U[1] walks rows of
    trace +-2, so only it classifies products, at most 4q of them (the
    z y^-1 of trace +-2 over the classes z of trace +-2)."""
    F = make_field(*pa)
    T = enumerate_sl2(F)
    classified = []
    _count_passes(monkeypatch, classified)
    oracle._sl2_products(T)
    u1 = class_index(F, "sl2").at(SL2Label("U", 1))
    assert [j for j, calls in classified if calls] == [u1]
    assert dict(classified)[u1] <= 4 * F.q


@pytest.mark.parametrize("pa", DEFAULT_SUITE, ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_direct_columns_match_literal_products(pa):
    """Each column of the direct pass, with no rows known, is row by row the
    class mask of x * y over x in C_i, y the representative of C_j; so
    the rows of trace +-2 against semisimple columns are checked too."""
    F = make_field(*pa)
    T = enumerate_sl2(F)
    C = class_index(F, "sl2")
    direct = oracle._direct_columns(T)
    for j, L in enumerate(C.labels):
        y = representative(F, L)
        want = [0] * len(C.labels)
        for i, D in enumerate(C.labels):
            for x in T.fiber(D):
                want[i] |= 1 << C.at(classify_sl2(F, mat_mul(F, x, y), check=False))
        assert direct(j) == want, str(L)


@pytest.mark.parametrize("F", [F7, make_field(3, 2)], ids=["q7", "q9"])
@pytest.mark.parametrize("semisimple", [False, True], ids=["U1", "SS"])
def test_known_rows_stay_as_given(F, semisimple):
    """Rows given as known come back as given, and every other row as the
    pass with no rows known fills it.  The column is U[1] or the first
    semisimple class; the known rows are every row of trace +-2 and every
    other semisimple row, or I and -I alone, as in the pass of U[1]."""
    T = enumerate_sl2(F)
    C = class_index(F, "sl2")
    n = len(C.labels)
    direct = oracle._direct_columns(T)
    j = next(k for k, L in enumerate(C.labels) if L.is_semisimple) if semisimple \
        else C.at(SL2Label("U", 1))
    want = direct(j)
    for rows in ([i for i, L in enumerate(C.labels) if not L.is_semisimple or i % 2],
                 [C.at(SL2Label("I")), C.at(SL2Label("-I"))]):
        known = {i: 1 << (n + i) for i in rows}     # outside every class mask
        got = direct(j, known)
        for i in range(n):
            assert got[i] == known.get(i, want[i]), (rows, str(C.labels[i]))


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
            left = [x for D in set(psl_lift_pair(F, P1)) for x in T.fiber(D)]
            right = [y for D in set(psl_lift_pair(F, P2)) for y in T.fiber(D)]
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
        want = literal(T.fiber(L1), T.fiber(L2), [representative(F5, L3)],
                       lambda L: L)
        assert brute_triple_product(T, L1, L2, L3) == want, (L1, L2, L3)
        assert sl2_triple_product(F5, L1, L2, L3) == want, (L1, L2, L3)

    def over(P):
        return [x for D in set(psl_lift_pair(F5, P)) for x in T.fiber(D)]

    project = lambda L: psl_project(F5, L)
    for P1, P2, P3 in itertools.product(all_classes_psl(F5), repeat=3):
        want = literal(over(P1), over(P2),
                       [representative(F5, D) for D in psl_lift_pair(F5, P3)],
                       project)
        assert brute_triple_product(T, P1, P2, P3, kind="psl2") == want, (P1, P2, P3)
        assert psl_triple_product(F5, P1, P2, P3) == want, (P1, P2, P3)


def test_verify_reports(small_F):
    for kind in ("sl2", "psl2"):
        rep = verify_laws(small_F, kind)
        assert rep.ok
        n = len(all_classes_sl2(small_F)) if kind == "sl2" \
            else len(all_classes_psl(small_F))
        assert rep.pair_count == n * n
        d = rep.to_dict()
        assert d["ok"] and d["pairs"]["failures"] == []


def test_verify_pair_count_example():
    assert verify_laws(F7, "sl2").pair_count == 121


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
    rep = verify_laws(F7, kind)
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
        rep = verify_laws(F7, kind)
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
