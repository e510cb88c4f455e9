"""Class taxonomy: classification, representatives, negation, inversion,
PSL projection, element orders."""

import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from sl2prod import (BigCell, CommutatorCert, Factorization, PSLLabel,
                     ProductLaw, SL2Label, Torus, VerificationReport,
                     all_classes_psl, all_classes_sl2, classify_sl2, conjugate,
                     inverse_class, is_q_good, iter_sl2, make_field, mat_inv,
                     mat_neg, negate_class, parse_label, parse_psl_label,
                     parse_sl2_label, psl_classify, psl_element_order,
                     psl_lift_pair, psl_project, psl_representative,
                     representative, sort_labels)
from sl2prod import (brute_pair_product, brute_pair_product_psl,
                     brute_triple_product, commutator_expressible_psl,
                     enumerate_sl2, factor_pair, factor_pair_psl,
                     psl_pair_product, psl_pair_product_law,
                     psl_pair_product_via_lifts, psl_triple_product,
                     sl2_pair_product, sl2_pair_product_law, sl2_triple_product)
from sl2prod import classes
from sl2prod.classes import ProductTable, bits, class_index
from sl2prod.laws import law_table
from sl2prod.oracle import Mismatch, _product_table as brute_table

F5, F7 = make_field(5), make_field(7)


def test_classify_golden():
    assert classify_sl2(F7, (1, 3, 0, 1)) == SL2Label("U", 3)
    assert classify_sl2(F7, (3, 0, 0, 5)) == SL2Label("SS", 1)
    assert classify_sl2(F7, (0, 6, 1, 3)) == SL2Label("NSS", 3)
    assert classify_sl2(F7, (1, 0, 0, 1)) == SL2Label("I")
    assert classify_sl2(F7, (6, 0, 0, 6)) == SL2Label("-I")
    with pytest.raises(ValueError):
        classify_sl2(F7, (1, 1, 1, 1))


@pytest.mark.parametrize("classify", [classify_sl2, psl_classify])
@pytest.mark.parametrize("q,m", [(7, (1, 7, 0, 1)), (7, (1, 0.5, 0, 1)),
                                 (7, (8, 0, 0, 1)), (9, (1, -2, 0, 1))])
def test_classify_rejects_non_elements(classify, q, m):
    """Entries must be integer encodings in 0..q-1, as for mat2.sl2; each of
    these has determinant 1 modulo q yet is not a matrix over GF(q)."""
    with pytest.raises(ValueError):
        classify(make_field(q), m)


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


@pytest.mark.parametrize("pa", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3),
                                (211, 1), (3, 5), (10007, 1)],
                         ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_psl_labels_filtered_in_sl2_order(pa):
    """The PSL2 labels, filtered from the SL2 labels in their order, are the
    projections of every SL2 label, sorted."""
    F = make_field(*pa)
    want = sort_labels({psl_project(F, L) for L in all_classes_sl2(F)})
    assert all_classes_psl(F) == want


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
    for text in ("U[١]", "SS[３]"):    # digits, but not ASCII ones
        with pytest.raises(ValueError, match="bad label"):
            parse_label(F7, text)
    assert parse_label(F7, "PSS[6]") == PSLLabel("PSS", 1)  # canonicalized


U1, PU1 = SL2Label("U", 1), PSLLabel("PU", 1)
# labels that are no class at q = 7: a parameter on a central kind, a
# square-class parameter other than 1 and 3, a trace of the wrong split kind,
# a central trace, an unknown kind, and an uncanonical PSS trace
NOT_CLASSES_Q7 = [SL2Label("I", 5), SL2Label("U", 2), SL2Label("SS", 0),
                  SL2Label("SS", 2), SL2Label("Q", 1), PSLLabel("PSS", 6),
                  PSLLabel("PU", 5), PSLLabel("P1", 3)]
# each public function that takes a label, with the group it judges it in
LABEL_CONSUMERS = {
    "parse_label": (None, lambda F, L: parse_label(F, str(L))),    # L's own group
    "representative": ("SL2", representative),
    "sl2_pair_product": ("SL2", lambda F, L: sl2_pair_product(F, U1, L)),
    "sl2_pair_product_law": ("SL2", lambda F, L: sl2_pair_product_law(F, L, U1)),
    "sl2_triple_product": ("SL2", lambda F, L: sl2_triple_product(F, U1, L, U1)),
    "factor_pair": ("SL2", lambda F, L: factor_pair(F, (1, 1, 0, 1), L, U1)),
    "brute_pair_product": ("SL2", lambda F, L: brute_pair_product(enumerate_sl2(F), U1, L)),
    "brute_pair_product_paranoid": ("SL2", lambda F, L: brute_pair_product(
        enumerate_sl2(F), L, U1, paranoid=True)),
    "brute_triple_product": ("SL2", lambda F, L: brute_triple_product(
        enumerate_sl2(F), L, U1, U1)),
    "GroupTable.fiber": ("SL2", lambda F, L: enumerate_sl2(F).fiber(L)),
    "psl_representative": ("PSL2", psl_representative),
    "psl_lift_pair": ("PSL2", psl_lift_pair),
    "psl_element_order": ("PSL2", psl_element_order),
    "is_q_good": ("PSL2", is_q_good),
    "commutator_expressible_psl": ("PSL2", commutator_expressible_psl),
    "psl_pair_product": ("PSL2", lambda F, L: psl_pair_product(F, PU1, L)),
    "psl_pair_product_law": ("PSL2", lambda F, L: psl_pair_product_law(F, L, PU1)),
    "psl_pair_product_via_lifts": ("PSL2", lambda F, L: psl_pair_product_via_lifts(F, PU1, L)),
    "psl_triple_product": ("PSL2", lambda F, L: psl_triple_product(F, PU1, PU1, L)),
    "factor_pair_psl": ("PSL2", lambda F, L: factor_pair_psl(F, (1, 1, 0, 1), PU1, L)),
    "brute_pair_product_psl": ("PSL2", lambda F, L: brute_pair_product_psl(
        enumerate_sl2(F), L, PU1)),
    "brute_triple_product_psl": ("PSL2", lambda F, L: brute_triple_product(
        enumerate_sl2(F), PU1, L, PU1, "psl2")),
}


@pytest.mark.parametrize("name,L", [
    (name, L) for name in LABEL_CONSUMERS for L in NOT_CLASSES_Q7
    # as text, PSS[6] is the class PSS[1] (test_label_parse_errors)
    if (name, L) != ("parse_label", PSLLabel("PSS", 6))],
    ids=lambda v: v if isinstance(v, str) else str(v))
def test_label_consumers_reject_non_classes(name, L):
    """The class index judges every label: each function that takes one
    refuses a label that is no class of the field, with the index's message
    naming the label with its parameter, the group and the field."""
    group, call = LABEL_CONSUMERS[name]
    group = group or ("PSL2" if isinstance(L, PSLLabel) else "SL2")
    want = "^" + re.escape(f"{L} is not a class of {group}(GF(7))") + "$"
    if name == "parse_label":
        want += "|^bad label"   # I[5], Q[1] and P1[3] are outside the grammar
    with pytest.raises(ValueError, match=want):
        call(F7, L)


@pytest.mark.parametrize("pa", [(7, 1), (3, 2), (3, 3), (211, 1)],
                         ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_kind_masks(pa):
    """Each kind mask is the OR of the bits of that kind's classes."""
    F = make_field(*pa)
    for kind in ("sl2", "psl2"):
        C = class_index(F, kind)
        want = {}
        for k, L in enumerate(C.labels):
            want[L.kind] = want.get(L.kind, 0) | 1 << k
        assert C.kind_mask == want


ONE = SL2Label("I")
# each record with its repr as a dataclass printed it
RECORDS = [
    (U1, "SL2Label(kind='U', param=1)"),
    (PSLLabel("PU", 3), "PSLLabel(kind='PU', param=3)"),
    (Torus(2, 3), "Torus(alpha=2, psi=3)"),
    (BigCell(1, 2, 3), "BigCell(tau=1, alpha=2, psi=3)"),
    (ProductLaw(ONE, U1, frozenset({U1}), "central_translation"),
     "ProductLaw(left=SL2Label(kind='I', param=0), right=SL2Label(kind='U', param=1),"
     " classes=frozenset({SL2Label(kind='U', param=1)}), rule='central_translation')"),
    (Factorization((1, 1, 0, 1), (1, 0, 0, 1), (1, 1, 0, 1), U1, ONE),
     "Factorization(x=(1, 1, 0, 1), y=(1, 0, 0, 1), target=(1, 1, 0, 1),"
     " left=SL2Label(kind='U', param=1), right=SL2Label(kind='I', param=0))"),
    (CommutatorCert((3, 0, 0, 5), (1, 1, 0, 1), (1, 2, 0, 1), False),
     "CommutatorCert(s=(3, 0, 0, 5), u=(1, 1, 0, 1), target=(1, 2, 0, 1),"
     " sign_flipped=False)"),
    (Mismatch((U1, U1), (ONE,), (ONE, U1)),
     "Mismatch(where=(SL2Label(kind='U', param=1), SL2Label(kind='U', param=1)),"
     " law=(SL2Label(kind='I', param=0),), brute=(SL2Label(kind='I', param=0),"
     " SL2Label(kind='U', param=1)), counterexample=None)"),
    (VerificationReport(5, "sl2", 81, [], 165, [], [], (3, 4)),
     "VerificationReport(q=5, kind='sl2', pair_count=81, pair_mismatches=[],"
     " triple_count=165, triple_mismatches=[], containment_failures=[],"
     " covering=(3, 4))"),
]


@pytest.mark.parametrize("record,text", RECORDS, ids=lambda r: type(r).__name__)
def test_record_semantics(record, text):
    """Set order and printed output rest on these: a record hashes as the
    tuple of its fields, prints as it did as a dataclass, cannot be
    assigned to, and pickles."""
    fields = tuple(getattr(record, name) for name in record._fields)
    if type(record) is not VerificationReport:     # holds lists
        assert hash(record) == hash(fields)
    assert repr(record) == text
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert pickle.loads(pickle.dumps(record)) == record


def test_label_group_checked():
    with pytest.raises(ValueError, match="PSL2 label, SL2 expected"):
        parse_sl2_label(F7, "PU[1]")
    with pytest.raises(ValueError, match="PSL2 label, SL2 expected"):
        parse_sl2_label(F7, "P1")
    with pytest.raises(ValueError, match="SL2 label, PSL2 expected"):
        parse_psl_label(F7, "U[1]")
    with pytest.raises(ValueError, match="SL2 label, PSL2 expected"):
        parse_psl_label(F7, "-I")


def test_canonical_label_order(F):
    labs = all_classes_sl2(F)
    assert [L.sort_key for L in labs] == sorted(L.sort_key for L in labs)
    assert str(labs[0]) == "I" and str(labs[1]) == "-I"


def test_compose_memo(monkeypatch):
    """compose(mask, j) equals the OR-fold of the cells (i, j) over the bits
    i of mask, and a repeated (mask, j) neither fills a cell nor walks the
    mask again.  A fold stops at the whole group: a mask whose first cell is
    the whole group fills that one cell."""
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

    fills.clear()
    P = ProductTable(C, fill)
    i, j = next((i, j) for j in range(n) for i in range(n)
                if law.pair(i, j) == C.full)
    assert P.compose(C.full >> i << i, j) == C.full
    assert fills == [(i, j)]


FOLD_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]


def _plain_or(table, mask, j):
    out = 0
    for i in bits(mask):
        out |= table.pair(i, j)
    return out


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
@pytest.mark.parametrize("pa", FOLD_FIELDS, ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_fold_is_the_plain_or(kind, pa):
    """On the law table and the brute table, compose(mask, j) is the OR of
    the cells (i, j) over the bits i of mask, for every pair-cell mask and
    200 seeded random masks: visiting the central rows first changes only
    which cells are filled."""
    F = make_field(*pa)
    C = class_index(F, kind)
    n = len(C.labels)
    rng = random.Random(pa[0] ** pa[1])
    for table in (law_table(F, kind), brute_table(enumerate_sl2(F), kind)):
        masks = {table.pair(i, j) for i in range(n) for j in range(n)}
        masks.update(rng.randrange(1, C.full + 1) for _ in range(200))
        for mask in masks:
            for j in range(n):
                assert table.compose(mask, j) == _plain_or(table, mask, j), (mask, j)


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
@pytest.mark.parametrize("pa", FOLD_FIELDS[:5], ids=lambda pa: f"q{pa[0] ** pa[1]}")
def test_central_rows_are_the_rows_reaching_the_centre(kind, pa):
    """Row i is a central row of column k exactly when the brute cell (i, k)
    holds a central class."""
    F = make_field(*pa)
    C = class_index(F, kind)
    brute = brute_table(enumerate_sl2(F), kind)
    center = sum(1 << k for k, L in enumerate(C.labels) if L.is_central)
    n = len(C.labels)
    for k in range(n):
        want = sum(1 << i for i in range(n) if brute.pair(i, k) & center)
        assert C.central_rows(k) == want, C.labels[k]


def test_fold_with_a_foreign_central_row():
    """A table whose cells put I into rows that are not central rows, and
    one such row's cells the whole group, still folds to the plain OR."""
    F = make_field(13)
    C, law = class_index(F, "sl2"), law_table(F, "sl2")
    n = len(C.labels)
    odd = next(k for k, L in enumerate(C.labels) if L.is_semisimple)

    def fill(i, j):
        if i == odd:
            return C.full
        return law.pair(i, j) | (1 if not C.central_rows(j) >> i & 1 else 0)
    P = ProductTable(C, fill)
    rng = random.Random(31)
    for mask in [rng.randrange(1, C.full + 1) for _ in range(200)] + [C.full]:
        for j in range(n):
            assert P.compose(mask, j) == _plain_or(P, mask, j), (mask, j)
