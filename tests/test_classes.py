"""Class taxonomy: classification, representatives, negation, inversion,
PSL projection, element orders."""

import inspect
import pickle
import random
import re
from collections import Counter

import pytest
from hypothesis import given, strategies as st

import sl2prod
from sl2prod import (CommutatorCert, Factorization, PSLLabel, ProductLaw,
                     SL2Label, VerificationReport,
                     all_classes_psl, all_classes_sl2, classify_sl2, conjugate,
                     inverse_class, is_q_good, iter_sl2, make_field, mat_inv,
                     mat_mul, mat_neg, mat_trace, negate_class, parse_descriptor,
                     parse_label, parse_psl_label, parse_sl2_label,
                     psl_classify, psl_element_order, psl_lift_pair,
                     psl_project, psl_representative, representative, sl2,
                     sort_labels)
from sl2prod import (brute_commutator_set, brute_pair_product,
                     brute_pair_product_psl, brute_triple_product,
                     commutator_expressible_psl, commutator_witness_psl,
                     conjugating_element, covering_numbers, enumerate_sl2,
                     eps_shift_solvable, factor_pair, factor_pair_psl,
                     macbeath_triple, psl_pair_product, psl_pair_product_law,
                     psl_triple_product, sl2_pair_product,
                     sl2_pair_product_law, sl2_triple_product, verify_laws)
from sl2prod import classes
from sl2prod.classes import ProductTable, bits, class_index
from sl2prod.laws import law_table
from sl2prod.mat2 import IDENT, minus_ident
from sl2prod.oracle import Mismatch, _product_table as brute_table
from conftest import ODD_PRIME_POWERS_TO_61, _qid
from test_laws import lifted_pair_product
from test_oracle import literal_pair_product

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
@pytest.mark.parametrize("q,m", [(7, (1, 7, 0, 1))])
def test_classify_rejects_non_elements(classify, q, m):
    """Entries must be integer encodings in 0..q-1, as for mat2.sl2: this one
    has determinant 1 modulo q yet is not a matrix over GF(q). The other
    non-element cases are rows of the malformed-input table below."""
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
                                (211, 1), (3, 5), (10007, 1)], ids=_qid)
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
    got = {psl_project(F, classify_sl2(F, m, check=False)) for m in iter_sl2(F)}
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


def repeated_multiplication_order(F, P):
    """The reference for psl_element_order: powers of the representative
    until one is +-I."""
    if P.kind == "P1":
        return 1
    if P.kind == "PU":
        return F.p
    m = psl_representative(F, P)
    x, n = m, 1
    while x not in (IDENT, minus_ident(F)):
        x = mat_mul(F, x, m)
        n += 1
    return n


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61 + [(1009, 1), (3, 7)], ids=_qid)
def test_element_order_matches_repeated_multiplication(pa):
    """Every PSL2 class up to q = 61, and 30 seeded semisimple classes at
    1009 and 3^7, have the order that repeated multiplication finds."""
    F = make_field(*pa)
    ps = all_classes_psl(F)
    if F.q > 61:
        ps = random.Random(F.q).sample([P for P in ps if P.is_semisimple], 30)
    for P in ps:
        assert psl_element_order(F, P) == repeated_multiplication_order(F, P), P


@pytest.mark.parametrize("pa", [(5, 2), (211, 1), (3, 5), (10007, 1)], ids=_qid)
def test_lucas_trace_is_the_trace_of_the_power(pa):
    """The Lucas ladder gives tr(m^n), m^n by square and multiply, for 60
    seeded (m, n), with m in SL2 and 0 <= n <= q^2, and n = 0, 1, 2."""
    F = make_field(*pa)

    def power(m, n):
        out = IDENT
        while n:
            if n & 1:
                out = mat_mul(F, out, m)
            m, n = mat_mul(F, m, m), n >> 1
        return out

    rng = random.Random(F.q)
    for trial in range(60):
        a, b, c = rng.randrange(1, F.q), rng.randrange(F.q), rng.randrange(F.q)
        m = (a, b, c, F.div(F.add(1, F.mul(b, c)), a))
        n = trial if trial < 3 else rng.randrange(F.q ** 2)
        assert classes._lucas_trace(F, mat_trace(F, m), n) == \
            mat_trace(F, power(m, n)), (m, n)


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
# a central trace, an unknown kind, and an uncanonical PSS trace; then inputs
# that a label of a class equals as a tuple: a bool or a float param (U[1],
# PU[1]), a negative param or one >= q (SS[6], PSS[1] mod 7), a plain tuple
# and a str
NOT_CLASSES_Q7 = [SL2Label("I", 5), SL2Label("U", 2), SL2Label("SS", 0),
                  SL2Label("SS", 2), SL2Label("Q", 1), PSLLabel("PSS", 6),
                  PSLLabel("PU", 5), PSLLabel("P1", 3),
                  SL2Label("U", True), SL2Label("U", 1.0), PSLLabel("PU", True),
                  PSLLabel("PU", 1.0), SL2Label("SS", -1), SL2Label("SS", 13),
                  PSLLabel("PSS", -6), PSLLabel("PSS", 8), ("U", 1), ("PU", 1),
                  "U[1]", "PU[1]"]
# a class of the other group, for the functions that judge in one group
OTHER_GROUP = {"SL2": PU1, "PSL2": U1}
# each public function that takes a label, with the group it judges it in;
# brute_pair_product_paranoid and psl_pair_product_via_lifts are the
# references that test_oracle and test_laws compare against, which must go
# through the same judge
LABEL_CONSUMERS = {
    "parse_label": (None, lambda F, L: parse_label(F, str(L))),    # L's own group
    "representative": ("SL2", representative),
    "sl2_pair_product": ("SL2", lambda F, L: sl2_pair_product(F, U1, L)),
    "sl2_pair_product_law": ("SL2", lambda F, L: sl2_pair_product_law(F, L, U1)),
    "sl2_triple_product": ("SL2", lambda F, L: sl2_triple_product(F, U1, L, U1)),
    "factor_pair": ("SL2", lambda F, L: factor_pair(F, (1, 1, 0, 1), L, U1)),
    "brute_pair_product": ("SL2", lambda F, L: brute_pair_product(enumerate_sl2(F), U1, L)),
    "brute_pair_product_paranoid": ("SL2", lambda F, L: literal_pair_product(
        enumerate_sl2(F), L, U1)),
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
    "psl_pair_product_via_lifts": ("PSL2", lambda F, L: lifted_pair_product(F, PU1, L)),
    "psl_triple_product": ("PSL2", lambda F, L: psl_triple_product(F, PU1, PU1, L)),
    "factor_pair_psl": ("PSL2", lambda F, L: factor_pair_psl(F, (1, 1, 0, 1), PU1, L)),
    "brute_pair_product_psl": ("PSL2", lambda F, L: brute_pair_product_psl(
        enumerate_sl2(F), L, PU1)),
    "brute_triple_product_psl": ("PSL2", lambda F, L: brute_triple_product(
        enumerate_sl2(F), PU1, L, PU1, "psl2")),
}


def _label_id(v):
    if v in LABEL_CONSUMERS:
        return v
    return str(v) if isinstance(v, (SL2Label, PSLLabel)) else repr(v)


@pytest.mark.parametrize("name,L", [
    (name, L) for name, (group, _) in LABEL_CONSUMERS.items()
    for L in NOT_CLASSES_Q7 + ([OTHER_GROUP[group]] if group else [])
    # as text, PSS[6] is the class PSS[1] (test_label_parse_errors), and the
    # strs are the classes U[1] and PU[1]
    if name != "parse_label" or not (L == PSLLabel("PSS", 6) or isinstance(L, str))],
    ids=_label_id)
def test_label_consumers_reject_non_classes(name, L):
    """The class index judges every label: each function that takes one
    refuses a label that is no class of the field, with the index's message
    naming the label with its parameter, the group and the field."""
    # a memo that holds U[1] * U[1] must not answer for U[True] * U[1]
    sl2_pair_product(F7, U1, U1), psl_pair_product(F7, PU1, PU1)
    group, call = LABEL_CONSUMERS[name]
    group = group or ("PSL2" if isinstance(L, PSLLabel) else "SL2")
    want = "^" + re.escape(f"{L} is not a class of {group}(GF(7))") + "$"
    if name == "parse_label":
        # I[5], U[True], ('U', 1) and the like are outside the grammar, and
        # SS[13] and PSS[8] have a trace outside 0..6
        want += r"|^bad label|^element (13|8) is not an integer in 0\.\.6$"
    with pytest.raises(ValueError, match=want):
        call(F7, L)


# at q = 7: a bool, floats, a negative, an int >= q, a str and None
NOT_ELEMENTS_Q7 = [True, 1.0, 0.5, -1, 7, "1", None]
# matrices with such an entry, one of determinant 1 modulo 7 with an entry
# >= 7, and ones of determinant 0, of length 3 and 5, a str, a list, and no
# sequence at all
NOT_SL2_Q7 = ([(1, v, 0, 1) for v in NOT_ELEMENTS_Q7]
              + [(8, 0, 0, 1), (1, 1, 1, 1), (1, 0, 0), (1, 0, 0, 1, 0),
                 "[[1,1],[0,1]]", [1, 1, 0, 1], None, 5])
# at q = 9, a matrix of determinant 1 modulo 3 with a negative entry
NOT_SL2_Q9 = [(1, -2, 0, 1)]
NOT_KINDS = ["SL2", "psl", "", None, True, 2, ["sl2"], {}]
# label texts that are no str, among them the labels themselves
NOT_TEXTS = [None, 5, b"U[1]", ("U", 1), U1, PU1]
# name: (malformed inputs, call) for every other input of a public function:
# field arguments, label texts, field elements, matrices and group kinds
MALFORMED = {
    "make_field": ([7.0, True, "7", None, -7, 9, 2, 3, 10 ** 6, 3 ** 11], make_field),
    "make_field(7, a)": ([1.0, True, "1", None, 0, -1], lambda a: make_field(7, a)),
    "parse_descriptor": ([7, 7.0, None, b"7", ("7",), "7.0", "-7", "", "7^",
                          "3^2^1", "\u0667"], parse_descriptor),
    "parse_label": (NOT_TEXTS, lambda t: parse_label(F7, t)),
    "parse_sl2_label": (NOT_TEXTS + ["PU[1]"], lambda t: parse_sl2_label(F7, t)),
    "parse_psl_label": (NOT_TEXTS + ["U[1]"], lambda t: parse_psl_label(F7, t)),
    "FieldCtx.of": (NOT_ELEMENTS_Q7, F7.of),
    "sl2": (NOT_ELEMENTS_Q7, lambda v: sl2(F7, 1, v, 0, 1)),
    "macbeath_triple": (NOT_ELEMENTS_Q7, lambda v: macbeath_triple(F7, 0, v, 1)),
    "eps_shift_solvable": (NOT_ELEMENTS_Q7 + [0],
                           lambda v: eps_shift_solvable(F7, 1, v, 1)),
    "classify_sl2": (NOT_SL2_Q7, lambda m: classify_sl2(F7, m)),
    "psl_classify": (NOT_SL2_Q7, lambda m: psl_classify(F7, m)),
    "classify_sl2(GF(9))": (NOT_SL2_Q9, lambda m: classify_sl2(make_field(3, 2), m)),
    "psl_classify(GF(9))": (NOT_SL2_Q9, lambda m: psl_classify(make_field(3, 2), m)),
    "conjugating_element": (NOT_SL2_Q7,
                            lambda m: conjugating_element(F7, (1, 1, 0, 1), m)),
    "commutator_witness_psl": (NOT_SL2_Q7, lambda m: commutator_witness_psl(F7, m)),
    "factor_pair": (NOT_SL2_Q7, lambda m: factor_pair(F7, m, U1, U1)),
    "factor_pair_psl": (NOT_SL2_Q7, lambda m: factor_pair_psl(F7, m, PU1, PU1)),
    "verify_laws": (NOT_KINDS, lambda k: verify_laws(F7, k)),
    "covering_numbers": (NOT_KINDS, lambda k: covering_numbers(F7, k)),
    "brute_commutator_set": (NOT_KINDS,
                             lambda k: brute_commutator_set(enumerate_sl2(F7), k)),
    "brute_triple_product(kind=)": (NOT_KINDS, lambda k: brute_triple_product(
        enumerate_sl2(F7), U1, U1, U1, kind=k)),
}


@pytest.mark.parametrize("name,bad", [
    (name, bad) for name, (inputs, _) in MALFORMED.items() for bad in inputs],
    ids=lambda v: v if isinstance(v, str) and v in MALFORMED else repr(v))
def test_public_functions_reject_malformed_input(name, bad):
    """Every other malformed input of a public function is a ValueError too,
    never a TypeError, an AttributeError or an answer."""
    with pytest.raises(ValueError):
        MALFORMED[name][1](bad)


# the public names the sweep leaves out, each with its reason; a FieldCtx, a
# GroupTable and the labels a caller holds are taken as make_field,
# enumerate_sl2 and the class index made them
EXEMPT = {
    tuple(f"FieldCtx.{name}" for name in (
        "scalar", "add", "neg", "sub", "mul", "inv", "div", "is_square",
        "sqrt", "square_class", "same_class", "elements", "units")):
        "element arithmetic other than of, unchecked by design as a hot "
        "primitive; of (swept) rejects an int outside 0..q-1, and so do inv, "
        "div, is_square and sqrt",
    ("mat_mul", "mat_inv", "mat_neg", "mat_det", "mat_trace", "conjugate"):
        "mat2 arithmetic, unchecked by design on the matrices that sl2 validates",
    ("iter_sl2",): "a fiber iterator: it takes only a field context",
    ("negate_class", "inverse_class", "psl_project", "psl_inverse_class"):
        "label-to-label maps, documented as unchecked (classes docstring)",
    ("sort_labels",): "orders the labels it is given and takes no field to "
                      "judge them by, like the label-to-label maps",
    ("all_classes_sl2", "all_classes_psl", "enumerate_sl2",
     "psl_distinct_unipotent_product_by_order"): "take only a field context",
    ("SL2Label", "PSLLabel", "ProductLaw", "Factorization", "CommutatorCert",
     "VerificationReport", "Mat", "EnumerationBoundError"): "records and types, built unchecked; a label "
                               "is judged where a function takes it",
}


def test_sweep_covers_the_public_surface():
    """Each public name outside the submodules is swept or exempt, and each
    exempt name is public."""
    swept = {name.split("(")[0]
             for name in (*LABEL_CONSUMERS, *MALFORMED)}
    exempt = {name for names in EXEMPT for name in names}
    public = {name for name in sl2prod.__all__
              if not inspect.ismodule(getattr(sl2prod, name))}
    assert public - {name.split(".")[0] for name in swept | exempt} == set()
    assert {name.split(".")[0] for name in exempt} <= public     # no stale exemption
    assert not swept & exempt


@pytest.mark.parametrize("pa", [(7, 1), (3, 2), (3, 3), (211, 1)], ids=_qid)
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
    back = pickle.loads(pickle.dumps(record))
    assert back == record and type(back) is type(record)


def test_label_group_checked():
    """The two label types share one body but neither is the other."""
    assert not isinstance(U1, PSLLabel) and not isinstance(PU1, SL2Label)
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


def _low_bits(mask):
    """The set bits of mask, lowest first, cleared one at a time."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def test_labels_of_is_the_set_of_bits():
    """bits and labels_of, each one pass over bin(mask), give the set bits
    of mask in order, and their labels, on seeded masks of 0 to 10^5 bits,
    sparse and dense."""
    labels = tuple(SL2Label("SS", t) for t in range(10 ** 5))
    C = classes.ClassIndex(F7, labels, "test")
    rng = random.Random(5)
    masks = [0, 1, 2, 3, 1 << 10 ** 5 - 1, C.full >> 50_000 << 50_000]
    masks += [sum(1 << rng.randrange(10 ** 5) for _ in range(rng.randrange(1, 60)))
              for _ in range(20)]
    masks += [rng.getrandbits(rng.randrange(1, 4000)) | 1 for _ in range(20)]
    for mask in masks:
        want = list(_low_bits(mask))
        assert list(bits(mask)) == want, mask
        assert C.labels_of(mask) == frozenset(labels[k] for k in want), mask


def test_compose_is_the_stopping_fold(monkeypatch):
    """compose(mask, j) equals the OR-fold of the cells (i, j) over the bits
    i of mask.  A repeated (mask, j) fills no cell, as cells are kept, and
    walks the mask again in one bits call, as folds are not.  A fold stops
    at the whole group: a mask whose first cell is the whole group fills
    that one cell."""
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
    filled, walks = len(fills), []
    monkeypatch.setattr(classes, "bits", lambda mask: walks.append(mask) or bits(mask))
    for mask in masks:
        for j in range(n):
            P.compose(mask, j)
    assert len(fills) == filled
    assert walks == [mask for mask in masks for _ in range(n)]

    fills.clear()
    P = ProductTable(C, fill)
    i, j = next((i, j) for j in range(n) for i in range(n)
                if law.pair(i, j) == C.full)
    assert P.compose(C.full >> i << i, j) == C.full
    assert fills == [(i, j)]


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
def test_rows_fill_each_missing_cell_once(kind):
    """rows() fills each cell (i, j), i <= j, that is still missing, once,
    and row m holds cell (m, k) at bit k*n: a second call, or a call on a
    filled table, fills nothing."""
    F = make_field(13)
    C, law = class_index(F, kind), law_table(F, kind)
    n, fills = len(C.labels), []

    def fill(i, j):
        fills.append((i, j))
        return law.pair(i, j)
    P = ProductTable(C, fill)
    P.pair(3, 1)
    rows = P.rows()
    assert sorted(fills) == [(i, j) for i in range(n) for j in range(i, n)]
    assert rows == [sum(law.pair(m, k) << k * n for k in range(n)) for m in range(n)]
    assert P.rows() == rows and len(fills) == n * (n + 1) // 2


FOLD_FIELDS = [(5, 1), (7, 1), (3, 2), (11, 1), (13, 1), (5, 2), (3, 3)]


def _plain_or(table, mask, j):
    out = 0
    for i in bits(mask):
        out |= table.pair(i, j)
    return out


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
@pytest.mark.parametrize("pa", FOLD_FIELDS, ids=_qid)
def test_fold_is_the_plain_or(kind, pa):
    """On the law table and the brute table, compose(mask, j) is the OR of
    the cells (i, j) over the bits i of mask, for every pair-cell mask and
    200 seeded random masks: stopping at the whole group changes only which
    cells are filled."""
    F = make_field(*pa)
    C = class_index(F, kind)
    n = len(C.labels)
    rng = random.Random(pa[0] ** pa[1])
    for table in (law_table(F, kind), brute_table(F, kind)):
        masks = {table.pair(i, j) for i in range(n) for j in range(n)}
        masks.update(rng.randrange(1, C.full + 1) for _ in range(200))
        for mask in masks:
            for j in range(n):
                assert table.compose(mask, j) == _plain_or(table, mask, j), (mask, j)


@pytest.mark.parametrize("kind", ["sl2", "psl2"])
@pytest.mark.parametrize("pa", FOLD_FIELDS[:5], ids=_qid)
def test_central_rows_are_the_rows_reaching_the_centre(kind, pa):
    """Row i is a central row of column k exactly when the brute cell (i, k)
    holds a central class."""
    F = make_field(*pa)
    C = class_index(F, kind)
    brute = brute_table(F, kind)
    center = sum(1 << k for k, L in enumerate(C.labels) if L.is_central)
    n = len(C.labels)
    for k in range(n):
        want = sum(1 << i for i in range(n) if brute.pair(i, k) & center)
        assert sum({1 << i for i in C.central_rows(k)}) == want, C.labels[k]
