"""Constructive certificates for class-product membership.

Identical inputs yield identical witnesses, and most are the first match
in the row-major lexicographic order of mat2.iter_sl2.  Two are not: a
factorization across two U/NU classes (see factor_pair), and Macbeath's A,
the companion matrix whenever that has a partner.  None is found by
enumerating the group.  Conjugators are the det-1 points of the linear
space of solutions of h x = y h, found one coordinate at a time from a
quadratic; the other searches ask mat2.fiber_solutions for the elements of
one trace fiber with a prescribed tr(x y), a quadratic per row of the
fiber, and test only those.  So witnesses exist at every q, above the
oracle's enumeration bound too.

Every returned witness is re-validated: factorizations and commutator
certificates by direct multiplication and classification, Macbeath triples
(C is (A*B)^-1) by their traces.  A construction that finds no witness
where the laws or Macbeath's theorem promise one raises WitnessError.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .field import FieldCtx, eps_shift_solvable
from .mat2 import (IDENT, Mat, fiber_solutions, mat_det, mat_inv, mat_mul,
                   mat_neg, mat_trace, sl2)
from .classes import (PSLLabel, SL2Label, all_classes_sl2, classify_sl2,
                      inverse_class, negate_class, psl_classify,
                      psl_lift_pair, representative)
from .laws import commutator_expressible_psl, sl2_pair_product


class WitnessError(RuntimeError):
    """No witness found where the laws or Macbeath's theorem promise one: a
    defect in sl2prod, not in its input."""


class Factorization(NamedTuple):
    x: Mat
    y: Mat
    target: Mat
    left: SL2Label
    right: SL2Label

    def ok(self, F: FieldCtx) -> bool:
        return (mat_mul(F, self.x, self.y) == self.target
                and classify_sl2(F, self.x) == self.left
                and classify_sl2(F, self.y) == self.right)


class CommutatorCert(NamedTuple):
    s: Mat
    u: Mat
    target: Mat
    sign_flipped: bool   # True when [s,u] equals -target (same PSL element)

    def ok(self, F: FieldCtx) -> bool:
        c = mat_mul(F, mat_mul(F, self.s, self.u),
                    mat_mul(F, mat_inv(F, self.s), mat_inv(F, self.u)))
        want = mat_neg(F, self.target) if self.sign_flipped else self.target
        return c == want


def conjugating_element(F: FieldCtx, x: Mat, y: Mat):
    """First h in canonical order with h x h^-1 = y, or None; x, y in SL2."""
    for a, b, c, d in (x, y):
        sl2(F, a, b, c, d)
    if _is_scalar(x):
        return (0, 1, F.neg(1), 0) if x == y else None    # first of iter_sl2
    return min(_conjugators(F, x, y), default=None)


def _is_scalar(m: Mat) -> bool:
    return m[1] == 0 and m[2] == 0 and m[0] == m[3]


def _cyclic_basis(F: FieldCtx, m: Mat) -> Mat:
    """The matrix with columns v and m v, for a v that the non-scalar m does
    not map onto a multiple of itself."""
    a, b, c, d = m
    v0, v1 = (1, 0) if c else (0, 1) if b else (1, 1)
    return (v0, F.add(F.mul(a, v0), F.mul(b, v1)),
            v1, F.add(F.mul(c, v0), F.mul(d, v1)))


def _conjugators(F: FieldCtx, x: Mat, y: Mat) -> Iterator[Mat]:
    """Yield every h in SL2 with h x h^-1 = y, for x, y in SL2 and x not scalar.

    Such h exist iff y has x's trace and is not scalar: then both are cyclic
    with one characteristic polynomial, and B = P_y P_x^-1 built from cyclic
    bases has B x = y B.  The solutions of the linear equation h x = y h are
    s B + t B x, whose determinant is det(B) (s^2 + tr(x) s t + t^2); for
    each s the det-1 points are the roots of a quadratic in t."""
    tau = mat_trace(F, x)
    if mat_trace(F, y) != tau or _is_scalar(y):
        return
    B = mat_mul(F, _cyclic_basis(F, y), mat_inv(F, _cyclic_basis(F, x)))
    Bx = mat_mul(F, B, x)
    # t = (-tau s +- r) / 2 with r^2 = (tau^2 - 4) s^2 + 4 / det(B)
    k = F.sub(F.mul(tau, tau), F.scalar(4))
    k0 = F.div(F.scalar(4), mat_det(F, B))
    half = F.inv(F.scalar(2))
    for s in range(F.q):
        r = F.sqrt(F.add(F.mul(k, F.mul(s, s)), k0))
        if r is None:
            continue
        mid = F.neg(F.mul(tau, s))
        for root in ((r, F.neg(r)) if r else (0,)):
            t = F.mul(F.add(mid, root), half)
            yield tuple(F.add(F.mul(s, b), F.mul(t, bx)) for b, bx in zip(B, Bx))


def _complete_column(F: FieldCtx, a: int, c: int) -> Mat:
    """Some SL2 matrix with first column (a, c)."""
    if c == 0:
        return (a, 0, 0, F.inv(a))
    return (a, F.neg(F.inv(c)), c, 0)


def _observation_product(F, e1, e2, a, c):
    """(h u1 h^-1, u2) with h completing column (a, c) and u_i = [[1,e_i],[0,1]]."""
    h = _complete_column(F, a, c)
    x = mat_mul(F, mat_mul(F, h, (1, e1, 0, 1)), mat_inv(F, h))
    return x, (1, e2, 0, 1)


def _factor_unipotent_pair(F, g, L1, L2):
    """Constructive path for U x U products via the conjugated-product matrix
    family: trace is 2 - e1*e2*c^2, the c = 0 members are X12(e2 + e1*a^2)."""
    e1, e2 = L1.param, L2.param
    target = classify_sl2(F, g)
    if target.kind == "I":
        if inverse_class(F, L1) != L2:
            return None
        x = representative(F, L1)
        return Factorization(x, mat_inv(F, x), g, L1, L2)
    if target.kind == "U":
        a = eps_shift_solvable(F, e1, e2, target.param)
        if a is None:
            return None
        candidates = [(a, 0)]
    elif target.kind == "-I":
        return None
    elif target.kind == "NU":
        csq = F.div(F.scalar(4), F.mul(e1, e2))
        c = F.sqrt(csq)
        if c is None:
            return None
        candidates = [(a, c) for a in F.elements()]
    else:
        csq = F.div(F.sub(F.scalar(2), target.param), F.mul(e1, e2))
        c = F.sqrt(csq)
        if c is None:
            return None
        candidates = [(0, c)]
    for a, c in candidates:
        x, y = _observation_product(F, e1, e2, a, c)
        prod = mat_mul(F, x, y)
        if classify_sl2(F, prod, check=False) != target:
            continue
        s = conjugating_element(F, prod, g)
        if s is None:
            continue
        sinv = mat_inv(F, s)
        return Factorization(mat_mul(F, mat_mul(F, s, x), sinv),
                             mat_mul(F, mat_mul(F, s, y), sinv), g, L1, L2)
    return None


def _factor_scan(F, g, L1, L2):
    """Deterministic fallback: first x in the canonical order of L1's class
    with x^-1 g in L2, among the x of L1's trace fiber with that tr(x g)."""
    t1 = mat_trace(F, representative(F, L1))
    # y = x^-1 g needs L2's trace t2, and x^-1 = t1 I - x in SL2, so
    # tr(x g) = t1 tr(g) - t2 rejects x before y is formed
    want = F.sub(F.mul(t1, mat_trace(F, g)), mat_trace(F, representative(F, L2)))
    for x in fiber_solutions(F, t1, g, (want,)):
        if classify_sl2(F, x, check=False) != L1:
            continue
        y = mat_mul(F, mat_inv(F, x), g)
        if classify_sl2(F, y, check=False) == L2:
            return Factorization(x, y, g, L1, L2)
    return None


def factor_pair(F: FieldCtx, g: Mat, L1: SL2Label, L2: SL2Label):
    """Factor g as x*y with x in L1, y in L2, or None when the product law
    excludes g's class.  For two U/NU classes it is an observation product
    conjugated onto g by the first conjugator, in general not the first x
    in canonical order; otherwise x is the first that fits (_factor_scan)."""
    if classify_sl2(F, g) not in sl2_pair_product(F, L1, L2):
        return None
    # unipotent-family pairs reduce to the U x U construction by sign moves
    red_g, s1, s2 = g, L1, L2
    if s1.kind == "NU":
        red_g, s1 = mat_neg(F, red_g), negate_class(F, s1)
    if s2.kind == "NU":
        red_g, s2 = mat_neg(F, red_g), negate_class(F, s2)
    if s1.kind == "U" and s2.kind == "U":
        got = _factor_unipotent_pair(F, red_g, s1, s2)
        if got is not None:
            x, y = got.x, got.y
            if L1.kind == "NU":
                x = mat_neg(F, x)
            if L2.kind == "NU":
                y = mat_neg(F, y)
            cert = Factorization(x, y, g, L1, L2)
            if cert.ok(F):
                return cert
    cert = _factor_scan(F, g, L1, L2)
    if cert is None or not cert.ok(F):
        raise WitnessError("law admitted a class with no witness")
    return cert


def factor_pair_psl(F: FieldCtx, g: Mat, P1: PSLLabel, P2: PSLLabel):
    """Factor g itself across SL2 lifts of two PSL classes.

    g is in the lifted product iff it lies in D1*D2 or (-D1)*D2, so two of
    the four lift combinations cover everything and the witness multiplies
    to g exactly, with no sign ambiguity left."""
    D1 = psl_lift_pair(F, P1)[0]
    D2 = psl_lift_pair(F, P2)[0]
    for left in (D1, negate_class(F, D1)):
        cert = factor_pair(F, g, left, D2)
        if cert is not None:
            return cert
    return None


def macbeath_triple(F: FieldCtx, alpha: int, beta: int, gamma: int):
    """(A, B, C) with the given traces and A*B*C = I.

    A is the companion matrix if it has a partner B (tr(B) = beta and
    tr(A*B) = gamma), else the first element of the trace-alpha fiber, in
    canonical order, that has one; B is the first partner.  At alpha other
    than +-2 the fiber is one class, so every A has a partner or none has.
    At alpha = 2s, s = +-1, a non-central A is s(I + N) with N = v w^T,
    w^T v = 0, and it needs tr(N B) = w^T B v = s gamma - beta.  Some B of
    trace beta meets a nonzero right side; a zero one needs v to be an
    eigenvector of B, and whether a B of trace beta has one does not depend
    on A.  So when the companion has no partner, no non-central A has one,
    and A is the scalar sI."""
    for v in (alpha, beta, gamma):
        F.of(v)
    A = (0, F.neg(1), 1, alpha)
    # first B in canonical order with tr(B) = beta and tr(B A) = gamma
    B = next(fiber_solutions(F, beta, A, (gamma,)), None)
    if B is None and alpha in (F.scalar(2), F.neg(2)):
        s = F.div(alpha, 2)
        A = (s, 0, 0, s)
        B = next(fiber_solutions(F, beta, A, (gamma,)), None)
    if B is None:
        raise WitnessError(f"trace triple {(alpha, beta, gamma)} not realizable")
    C = mat_inv(F, mat_mul(F, A, B))
    if tuple(mat_trace(F, m) for m in (A, B, C)) != (alpha, beta, gamma):
        raise WitnessError(f"A, B, C miss the traces {(alpha, beta, gamma)}")
    return A, B, C


def commutator_witness_psl(F: FieldCtx, g: Mat):
    """CommutatorCert for the image of g, or None when the class is not a
    semisimple-unipotent commutator.  The identity gets the degenerate
    witness u = I.

    Otherwise u is the first unipotent in canonical order for which some
    semisimple s has s u s^-1 = +-g u, and s is the first such s.  Since
    s u s^-1 has trace 2, only u with tr(g u) = +-2 qualify, and the sign
    is the one that makes +-g u trace 2."""
    P = psl_classify(F, g)
    if not commutator_expressible_psl(F, P):
        return None
    cert = _commutator_cert(F, g, P)
    if not cert.ok(F):
        raise WitnessError(f"commutator witness for {P} fails its check")
    return cert


def _commutator_cert(F, g, P):
    if P.kind == "P1":
        s = representative(F, _first_semisimple_label(F))
        return CommutatorCert(s, IDENT, g, g != IDENT)
    two, ntwo = F.scalar(2), F.neg(2)
    for u in fiber_solutions(F, two, g, (two, ntwo)):
        if u == IDENT:
            continue
        gu = mat_mul(F, g, u)
        flipped = mat_trace(F, gu) == ntwo
        target = mat_neg(F, gu) if flipped else gu
        if classify_sl2(F, target, check=False) != classify_sl2(F, u, check=False):
            continue    # not conjugate, so no s at all
        s = min((h for h in _conjugators(F, u, target)
                 if mat_trace(F, h) not in (two, ntwo)), default=None)
        if s is not None:
            return CommutatorCert(s, u, g, flipped)
    raise WitnessError(f"expressible class {P} with no commutator witness")


def _first_semisimple_label(F):
    return next(L for L in all_classes_sl2(F) if L.is_semisimple)
