"""Closed-form products of conjugacy classes in SL2(F_q) and PSL2(F_q).

Every pairwise product is described exactly as a set of classes, held as a
bitmask over the group's ClassIndex; the memberships that the source
propositions guard with |k| > 5 are implemented through the underlying
solvability criteria (shift equations in the field), which stay correct at
q = 5.  Triple products are folds over the law table, a ProductTable whose
cells are the pairwise laws; the pairwise laws are complete, so the fold is
exact.  The oracle module certifies all of this against brute force.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import FieldCtx, eps_shift_solvable
from .classes import (PSLLabel, ProductTable, SL2Label, all_classes_psl,
                      class_index, is_q_good, negate_class, psl_inverse_class,
                      psl_lift_pair, psl_project)


class ProductLaw(NamedTuple):
    left: object
    right: object
    classes: frozenset
    rule: str


def _solvable_unipotents(F, C, kind, e1, e2):
    """Mask of the classes kind[s] for which some unit a puts e2 + e1*a^2 in
    the square class of s."""
    return sum(C.bit(kind, s) for s in (1, F.nonsquare_rep)
               if eps_shift_solvable(F, e1, e2, s) is not None)


def _semisimple_by_shift(F, C, shift, cls):
    """Mask of the semisimple classes with class(shift - t) == class(cls),
    for shift = 2 or -2.  The four masks, one per shift and square class,
    are built in one pass over the classes and kept on C; a semisimple
    trace t is never +-2, so shift - t is a unit."""
    if C.shifts is None:
        shifts = (F.scalar(2), F.neg(F.scalar(2)))
        C.shifts = {(s, square): 0 for s in shifts for square in (True, False)}
        for k, L in enumerate(C.labels):
            if L.is_semisimple:
                for s in shifts:
                    C.shifts[s, F.is_square(F.sub(s, L.param))] |= 1 << k
    return C.shifts[shift, F.is_square(cls)]


def sl2_pair_product_law(F: FieldCtx, L1: SL2Label, L2: SL2Label) -> ProductLaw:
    return ProductLaw(L1, L2, *_pair(F, "sl2", L1, L2))


def sl2_pair_product(F: FieldCtx, L1: SL2Label, L2: SL2Label) -> frozenset:
    return _pair(F, "sl2", L1, L2)[0]


def _pair(F, kind, A, B):
    """(label set, rule) of A * B, kept in C.pairs; ValueError for a foreign label."""
    C = class_index(F, kind)
    key = (A.kind, A.param, B.kind, B.param)    # cheaper to hash than (A, B)
    got = C.pairs.get(key)
    if got is None:
        if key[:2] not in C.slot or key[2:] not in C.slot:
            C.at(A), C.at(B)                    # raises the ValueError
        mask, rule = (_sl2_pair if kind == "sl2" else _psl_pair)(F, A, B)
        got = C.pairs[key] = C.labels_of(mask), rule
    return got


def _sl2_pair(F, L1, L2):
    """(mask, rule) of L1 * L2."""
    if L2.sort_key < L1.sort_key:
        L1, L2 = L2, L1
    C = class_index(F, "sl2")
    # central factors translate the other class
    if L1.kind == "I":
        return 1 << C.at(L2), "central_translation"
    if L1.kind == "-I":
        return 1 << C.at(negate_class(F, L2)), "central_translation"

    k1, k2 = L1.kind, L2.kind
    units, neg_units = C.kind_mask["U"], C.kind_mask["NU"]

    if k1 == "U" and k2 == "U":
        e1, e2 = L1.param, L2.param
        # unipotent members: the off-diagonal entry of the trace-2 elements
        # of the product is e2 + e1*a^2 with a a unit
        out = _solvable_unipotents(F, C, "U", e1, e2)
        out |= _semisimple_by_shift(F, C, F.scalar(2), F.mul(e1, e2))
        if e1 == e2:
            out |= C.bit("NU", e1)
            rule = "unipotent_class_square"
        else:
            rule = "distinct_unipotent_classes"
        if F.same_class(F.neg(e1), e2):
            out |= C.bit("I")
        return out, rule

    if k1 == "U" and k2 == "NU":
        e1, e2 = L1.param, L2.param
        out = _semisimple_by_shift(F, C, F.neg(F.scalar(2)), F.mul(e1, e2))
        if F.same_class(F.neg(e1), e2):
            out |= C.bit("U", F.square_class(F.neg(e1)))
        # trace -2 part: the P-matrix with c = 0 has entry e2 - e1*a^2
        out |= _solvable_unipotents(F, C, "NU", F.neg(e1), e2)
        if F.same_class(e1, e2):
            out |= C.bit("-I")
        return out, "unipotent_times_negative_unipotent"

    if k1 == "NU" and k2 == "NU":
        # (-u)(-u') = uu', so NU[e1] * NU[e2] is U[class(-e1)] * U[class(-e2)]
        out = _sl2_pair(F, *(SL2Label("U", F.square_class(F.neg(L.param)))
                             for L in (L1, L2)))[0]
        if L1 == L2:
            return out, "negative_unipotent_class_square"
        return out, "distinct_negative_unipotent_classes"

    if L2.is_semisimple and k1 in ("U", "NU"):
        return _semisimple_times_unipotent(F, C, L2, L1)

    # both semisimple
    t1, t2 = L1.param, L2.param
    if L1 == L2:
        if k1 == "SS":
            if t1 == 0:
                return C.full, "semisimple_class_square"
            return C.full & ~C.bit("-I"), "semisimple_class_square"
        drop = units | (neg_units if t1 == 0 else C.bit("-I"))
        return C.full & ~drop, "semisimple_class_square"
    if t1 != F.neg(t2):
        drop = C.bit("I") | C.bit("-I")
    elif k1 == "SS":
        drop = C.bit("I")
    else:
        drop = C.bit("I") | neg_units
    return C.full & ~drop, "distinct_semisimple_classes"


def _semisimple_times_unipotent(F, C, S, L):
    """S * L for a semisimple class S and a class L of kind U or NU.

    For x in S and y in NU[e], xy = (-x)(-y) with -x in -S and -y in
    U[class(-e)], so S * NU[e] is (-S) * U[class(-e)]."""
    t, eps, rule = S.param, L.param, "semisimple_times_unipotent"
    if L.kind == "NU":
        t, eps = F.neg(t), F.square_class(F.neg(eps))
        rule = "semisimple_times_negative_unipotent"
    out = C.kind_mask["SS"] | C.kind_mask["NSS"]
    if S.kind == "NSS":
        out &= ~C.bit("NSS", t)
    for s in (1, F.nonsquare_rep):
        if F.same_class(F.sub(t, F.scalar(2)), F.mul(eps, s)):
            out |= C.bit("U", s)
        if F.same_class(F.add(t, F.scalar(2)), F.mul(eps, s)):
            out |= C.bit("NU", s)
    return out, rule


def law_table(F: FieldCtx, kind: str) -> ProductTable:
    """The pairwise laws of SL2(F) (kind "sl2") or PSL2(F) (kind "psl2") as
    a ProductTable on F's class index, filled cell by cell as folds ask."""
    C = class_index(F, kind)
    if C.law is None:
        pair = _sl2_pair if kind == "sl2" else _psl_pair
        C.law = ProductTable(C, lambda i, j: pair(F, C.labels[i], C.labels[j])[0])
    return C.law


def sl2_triple_product(F: FieldCtx, L1: SL2Label, L2: SL2Label, L3: SL2Label) -> frozenset:
    """Exact triple product, folded from the complete pairwise laws."""
    return law_table(F, "sl2").of_labels(L1, L2, L3)


# -- PSL2 ------------------------------------------------------------------


def psl_pair_product_law(F: FieldCtx, P1: PSLLabel, P2: PSLLabel) -> ProductLaw:
    return ProductLaw(P1, P2, *_pair(F, "psl2", P1, P2))


def psl_pair_product(F: FieldCtx, P1: PSLLabel, P2: PSLLabel) -> frozenset:
    return _pair(F, "psl2", P1, P2)[0]


def _psl_pair(F, P1, P2):
    """(mask, rule) of P1 * P2."""
    if P2.sort_key < P1.sort_key:
        P1, P2 = P2, P1
    C = class_index(F, "psl2")
    if P1.kind == "P1":
        return 1 << C.at(P2), "psl_central_translation"

    units = C.kind_mask["PU"]

    if P1.kind == "PU" and P2.kind == "PU":
        # semisimple members: 2 - t or 2 + t in the class of cls, and 2 + t
        # is in the class of cls iff -2 - t is in the class of -cls
        cls, two = F.mul(P1.param, P2.param), F.scalar(2)
        out = (units | _semisimple_by_shift(F, C, two, cls)
               | _semisimple_by_shift(F, C, F.neg(two), F.neg(cls)))
        if F.same_class(F.neg(P1.param), P2.param):
            out |= C.bit("P1")
        return out, "psl_unipotent_classes"

    if P1.kind == "PU":
        # semisimple class times unipotent class
        t, eps = P2.param, P1.param
        out = C.kind_mask["PSS"] | C.kind_mask["PNSS"]
        if t == 0 and not F.is_square(F.neg(1)):
            out &= ~(1 << C.at(P2))
        for s in (1, F.nonsquare_rep):
            cls = F.mul(eps, s)
            if any(F.same_class(v, cls)
                   for v in (F.sub(t, F.scalar(2)), F.sub(F.neg(t), F.scalar(2))) if v):
                out |= C.bit("PU", s)
        return out, "psl_semisimple_times_unipotent"

    if P1 == P2:
        if P1.kind == "PNSS" and P1.param == 0:
            return C.full & ~units, "psl_semisimple_class_square"
        return C.full, "psl_semisimple_class_square"
    return C.full & ~C.bit("P1"), "psl_distinct_semisimple_classes"


def psl_pair_product_via_lifts(F: FieldCtx, P1: PSLLabel, P2: PSLLabel) -> frozenset:
    """Cross-check path: project the product of any two SL2 lifts.

    Changing a lift only negates the product set, which projection erases,
    so one lift per class suffices."""
    D1 = psl_lift_pair(F, P1)[0]
    D2 = psl_lift_pair(F, P2)[0]
    return frozenset(psl_project(F, L) for L in sl2_pair_product(F, D1, D2))


def psl_triple_product(F: FieldCtx, P1: PSLLabel, P2: PSLLabel, P3: PSLLabel) -> frozenset:
    """Exact triple product, folded from the complete pairwise laws."""
    return law_table(F, "psl2").of_labels(P1, P2, P3)


def psl_distinct_unipotent_product_by_order(F: FieldCtx) -> frozenset:
    """The product of the two distinct PSL unipotent classes, stated through
    the q-good / q-bad order dichotomy of its semisimple members."""
    out = {P for P in all_classes_psl(F) if P.kind == "PU"}
    semis = [P for P in all_classes_psl(F) if P.is_semisimple]
    if F.q % 4 == 1:
        out.update(P for P in semis if P.kind == "PNSS")
        out.update(P for P in semis if P.kind == "PSS" and not is_q_good(F, P))
    else:
        out.update(P for P in semis if P.kind == "PSS")
        out.update(P for P in semis if P.kind == "PNSS" and not is_q_good(F, P))
        out.add(PSLLabel("P1"))
    return frozenset(out)


def commutator_expressible_psl(F: FieldCtx, P: PSLLabel) -> bool:
    """Whether the class elements are commutators of a semisimple and a
    unipotent element of PSL2(q) (the identity via a degenerate witness)."""
    class_index(F, "psl2").at(P)
    if not P.is_semisimple:
        return True
    if F.q % 4 == 1:
        return is_q_good(F, P)
    return not (P.kind == "PNSS" and is_q_good(F, P))
