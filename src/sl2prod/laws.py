"""Closed-form products of conjugacy classes in SL2(F_q) and PSL2(F_q).

Every pairwise product is described exactly as a set of classes, held as a
bitmask over the group's ClassIndex; the memberships that the source
propositions guard with |k| > 5 are implemented through the underlying
solvability criteria (shift equations in the field), which stay correct at
q = 5.  Triple products come from the law table, a ProductTable of the
pairwise laws: in closed form (law_table), or as exact folds over its cells.
The oracle module certifies all of this against brute force.
"""

from __future__ import annotations

from typing import NamedTuple

from .field import FieldCtx, eps_shift_solvable
from .classes import (PSLLabel, ProductTable, SL2Label, all_classes_psl,
                      class_index, is_q_good, negate_class)


class ProductLaw(NamedTuple):
    left: object
    right: object
    classes: frozenset
    rule: str


def _semisimple_by_shift(F, C, shift, cls):
    """Mask of the semisimple classes with class(shift - t) == class(cls),
    for shift = 2 or -2; a semisimple trace t is never +-2, so shift - t is
    a unit.  One pass over the classes keeps on C the mask of those with
    2 - t a square, one character each.  Since (2 - t)(-2 - t) = t^2 - 4 is
    a square exactly on the split classes, shift -2 flips the non-split
    classes, and a nonsquare cls flips every semisimple class."""
    if C.shifts is None:    # class k is binary digit k from the right
        two = F.scalar(2)
        C.shifts = int("".join("01"[L.is_semisimple and F.is_square(F.sub(two, L.param))]
                               for L in reversed(C.labels)), 2)
    *_, split, nonsplit = C.kind_mask.values()   # the last two kinds, in both groups
    out = C.shifts if shift == F.scalar(2) else C.shifts ^ nonsplit
    return out if F.is_square(cls) else out ^ split ^ nonsplit


def sl2_pair_product_law(F: FieldCtx, L1: SL2Label, L2: SL2Label) -> ProductLaw:
    return _pair(F, "sl2", L1, L2)


def sl2_pair_product(F: FieldCtx, L1: SL2Label, L2: SL2Label) -> frozenset:
    return _pair(F, "sl2", L1, L2).classes


def _pair(F, kind, A, B):
    """The ProductLaw of A * B, asked of the law in index order and kept in
    C.pairs under the class indices of A and B; ValueError for a label of no
    class of the group."""
    C = class_index(F, kind)
    key = i, j = C.at(A), C.at(B)
    got = C.pairs.get(key)
    if got is None:
        law = _sl2_pair if kind == "sl2" else _psl_pair
        mask, rule = law(F, C, A, B) if i <= j else law(F, C, B, A)
        got = C.pairs[key] = ProductLaw(A, B, C.labels_of(mask), rule)
    return got


def _sl2_pair(F, C, L1, L2):
    """(mask, rule) of L1 * L2 for classes L1, L2 of C = class_index(F,
    "sl2") in index order."""
    # central factors translate the other class
    if L1.kind == "I":
        return 1 << C.slot[L2], "central_translation"
    if L1.kind == "-I":
        return 1 << C.slot[negate_class(F, L2)], "central_translation"

    k1, k2 = L1.kind, L2.kind
    units, neg_units = C.kind_mask["U"], C.kind_mask["NU"]

    if k1 == "U" and k2 in ("U", "NU"):
        # U[e1] * NU[e2] = -(U[e1] * U[class(-e2)]), and negation swaps U with
        # NU, I with -I and the shift 2 with -2.  With s = 1 for U[e2] and
        # s = -1 for NU[e2], the product's elements of trace 2s with c = 0
        # have off-diagonal entry e2 + s*e1*a^2 for a unit a
        e1, e2, two = L1.param, L2.param, F.scalar(2)
        if k2 == "U":
            se1, other, centre = e1, "NU", "I"
        else:
            se1, two, other, centre = F.neg(e1), F.neg(two), "U", "-I"
        out = _semisimple_by_shift(F, C, two, F.mul(e1, e2))
        out |= sum(C.bit(k2, r) for r in (1, F.nonsquare_rep)
                   if eps_shift_solvable(F, se1, e2, r) is not None)
        if F.same_class(se1, e2):
            out |= C.bit(other, e2)
        if F.same_class(F.neg(se1), e2):
            out |= C.bit(centre)
        if k2 == "NU":
            return out, "unipotent_times_negative_unipotent"
        return out, "unipotent_class_square" if e1 == e2 else "distinct_unipotent_classes"

    if k1 == "NU" and k2 == "NU":
        # (-u)(-u') = uu', so NU[e1] * NU[e2] is U[class(-e1)] * U[class(-e2)],
        # whose law is symmetric in e1 and e2 (e2 + e1 a^2 = a^2 (e1 + e2 / a^2))
        out = _sl2_pair(F, C, negate_class(F, L1), negate_class(F, L2))[0]
        if L1 == L2:
            return out, "negative_unipotent_class_square"
        return out, "distinct_negative_unipotent_classes"

    if k1 in ("U", "NU"):     # in index order, so L2 is semisimple
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

    For S of trace t, S * U[e] holds every semisimple class (but S itself
    when S is NSS) and one class of each unipotent kind: U[class((t - 2) e)]
    and NU[class((t + 2) e)].  For x in S and y in NU[e], xy = (-x)(-y) with
    -x in -S and -y in U[class(-e)], so S * NU[e] is (-S) * U[class(-e)]."""
    rule = "semisimple_times_unipotent"
    if L.kind == "NU":
        S, L = negate_class(F, S), negate_class(F, L)
        rule = "semisimple_times_negative_unipotent"
    t, e, two = S.param, L.param, F.scalar(2)
    out = C.kind_mask["SS"] | C.kind_mask["NSS"]
    if S.kind == "NSS":
        out &= ~C.bit("NSS", t)
    return (out | C.bit("U", F.square_class(F.mul(F.sub(t, two), e)))
            | C.bit("NU", F.square_class(F.mul(F.add(t, two), e)))), rule


def law_table(F: FieldCtx, kind: str) -> ProductTable:
    """The pairwise laws of SL2(F) (kind "sl2") or PSL2(F) (kind "psl2") as
    a ProductTable on F's class index, filled cell by cell as folds ask, with
    triples in closed form (the paper's triple theorem, cn = 3) except in SL2(5)."""
    C = class_index(F, kind)
    if C.law is None:
        pair = _sl2_pair if kind == "sl2" else _psl_pair
        C.law = ProductTable(C, lambda i, j: pair(F, C, C.labels[i], C.labels[j])[0])
        C.law.closed = None if (F.q, kind) == (5, "sl2") else {}
    return C.law


def sl2_triple_product(F: FieldCtx, L1: SL2Label, L2: SL2Label, L3: SL2Label) -> frozenset:
    """Exact triple product, from the law table's closed form or fold."""
    return law_table(F, "sl2").of_labels(L1, L2, L3)


# -- PSL2 ------------------------------------------------------------------


def psl_pair_product_law(F: FieldCtx, P1: PSLLabel, P2: PSLLabel) -> ProductLaw:
    return _pair(F, "psl2", P1, P2)


def psl_pair_product(F: FieldCtx, P1: PSLLabel, P2: PSLLabel) -> frozenset:
    return _pair(F, "psl2", P1, P2).classes


def _psl_pair(F, C, P1, P2):
    """(mask, rule) of P1 * P2 for classes P1, P2 of C = class_index(F,
    "psl2") in index order."""
    if P1.kind == "P1":
        return 1 << C.slot[P2], "psl_central_translation"

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
        # a lift of trace t times U[e] holds U[class((t - 2) e)] and
        # NU[class((t + 2) e)], so P2 * PU[e] holds PU[class(v e)] for
        # v = t - 2 and -t - 2
        t, e, two = P2.param, P1.param, F.scalar(2)
        out = C.kind_mask["PSS"] | C.kind_mask["PNSS"]
        if t == 0 and not F.is_square(F.neg(1)):
            out &= ~(1 << C.slot[P2])
        for v in (F.sub(t, two), F.sub(F.neg(t), two)):
            out |= C.bit("PU", F.square_class(F.mul(v, e)))
        return out, "psl_semisimple_times_unipotent"

    if P1 == P2:
        if P1.kind == "PNSS" and P1.param == 0:
            return C.full & ~units, "psl_semisimple_class_square"
        return C.full, "psl_semisimple_class_square"
    return C.full & ~C.bit("P1"), "psl_distinct_semisimple_classes"


def psl_triple_product(F: FieldCtx, P1: PSLLabel, P2: PSLLabel, P3: PSLLabel) -> frozenset:
    """Exact triple product, from the law table's closed form or fold."""
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
