"""Constructive certificates for class-product membership.

Identical inputs yield identical witnesses, and most are the first match
in the row-major lexicographic order of mat2.iter_sl2.  Two are not: a
factorization across two U/NU classes (see factor_pair), and Macbeath's A,
the companion matrix whenever that has a partner.  None is found by
enumerating the group.  Conjugators are the det-1 points of the plane of
solutions of h x = y h, yielded in canonical order (_conjugators): in the
plane's echelon coordinates (v, w), each level v meets det h = 1 in the
roots of one quadratic (mat2.quadratic_roots), so the first conjugator
costs O(1) field operations.  The other searches ask mat2.fiber_solutions
for the elements of one trace fiber with a prescribed tr(x y), a quadratic
per row of the fiber, and test only those.  So witnesses exist at every q,
above the oracle's enumeration bound too.

A search does not classify a class that a trace already fixes: a candidate
x of the factor scan has tr(x) = t1 and tr(x^-1 g) = t2 by construction,
and a semisimple class is fixed by its trace.  Every returned witness is
still re-validated (ok(F)): factorizations and commutator certificates by
direct multiplication and classification, Macbeath triples (C is
(A*B)^-1) by their traces.  A construction that finds no witness
where the laws or Macbeath's theorem promise one raises WitnessError.
"""

from __future__ import annotations

from collections.abc import Iterator
from typing import NamedTuple

from .field import FieldCtx, eps_shift_solvable
from .mat2 import (IDENT, Mat, conjugate, fiber_solutions, mat_det, mat_inv,
                   mat_mul, mat_neg, mat_trace, quadratic_roots)
from .classes import (PSLLabel, SL2Label, all_classes_sl2, class_index, classify_sl2,
                      negate_class, psl_classify, psl_lift_pair, representative)
from .laws import commutator_expressible_psl, law_table


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
    """First h in canonical order with h x h^-1 = y, or None; x, y in SL2.
    The conjugators come in that order, so this is the first one yielded."""
    if classify_sl2(F, x) != classify_sl2(F, y):    # ValueError unless both are in SL2
        return None
    # a scalar x is y, and (0, 1, -1, 0) is the first element of iter_sl2
    return (0, 1, F.neg(1), 0) if _is_scalar(x) else next(_conjugators(F, x, y), None)


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
    """Yield every h in SL2 with h x h^-1 = y, in canonical order, for x, y
    in SL2 and x not scalar.

    Such h exist iff y has x's trace and is not scalar: then both are cyclic
    with one characteristic polynomial, and B = P_y P_x^-1 built from cyclic
    bases has B x = y B.  The solutions of the linear equation h x = y h are
    the plane of B and B x; in its echelon basis (P, Q), h = v P + w Q has
    h[e] = v, h[f] = w and zeros before e, so canonical order is the order
    of (v, w).  Each level v meets det h = c0 v^2 + c1 v w + c2 w^2 = 1 in
    the roots of one quadratic in w: the first conjugator takes O(1) field
    operations.  At tr(x) = +-2 the form is a constant times a square: with
    c2 = 0 the levels c0 v^2 = 1 are whole lines, and with c2 a nonsquare
    no level meets det h = 1."""
    tau = mat_trace(F, x)
    if mat_trace(F, y) != tau or _is_scalar(y):
        return
    B = mat_mul(F, _cyclic_basis(F, y), mat_inv(F, _cyclic_basis(F, x)))
    P, Q = _echelon(F, B, mat_mul(F, B, x))
    c0, c2 = mat_det(F, P), mat_det(F, Q)
    c1 = F.sub(mat_det(F, tuple(map(F.add, P, Q))), F.add(c0, c2))
    if tau in (F.scalar(2), F.neg(2)):
        if c2 == 0:
            for v in quadratic_roots(F, c0, 0, F.neg(1)):
                yield from (_span(F, v, P, w, Q) for w in F.elements())
            return
        if not F.is_square(c2):
            return
    for v in F.elements():
        for w in quadratic_roots(F, c2, F.mul(c1, v), F.sub(F.mul(c0, F.mul(v, v)), 1)):
            yield _span(F, v, P, w, Q)


def _echelon(F: FieldCtx, X: Mat, Y: Mat) -> tuple[Mat, Mat]:
    """The reduced echelon basis (P, Q) of the plane of X and Y: pivots
    P[e] = Q[f] = 1 with e < f, P[f] = 0, and zeros before each pivot."""
    e = next(i for i in range(4) if X[i] or Y[i])
    if not X[e]:
        X, Y = Y, X
    P = _scaled(F, F.inv(X[e]), X)
    Y = _plus(F, Y, F.neg(Y[e]), P)
    f = next(i for i in range(4) if Y[i])
    Q = _scaled(F, F.inv(Y[f]), Y)
    return _plus(F, P, F.neg(P[f]), Q), Q


def _span(F: FieldCtx, s: int, X: Mat, t: int, Y: Mat) -> Mat:
    """s X + t Y."""
    return tuple(F.add(F.mul(s, a), F.mul(t, b)) for a, b in zip(X, Y))


def _scaled(F: FieldCtx, s: int, X: Mat) -> Mat:
    """s X."""
    return tuple(F.mul(s, a) for a in X)


def _plus(F: FieldCtx, X: Mat, t: int, Y: Mat) -> Mat:
    """X + t Y."""
    return tuple(F.add(a, F.mul(t, b)) for a, b in zip(X, Y))


def _factor_unipotent_pair(F, g, Lg, L1, L2):
    """x in L1, y in L2 with x*y = g, g of class Lg, for two U/NU classes,
    or None: an observation product conjugated onto g by its first conjugator.

    With the NU factors negated, and g too when one factor is, the pair is
    U[e1] x U[e2].  For h with first column (a, c), h X12(e1) h^-1 =
    [[1 - e1 a c, e1 a^2], [-e1 c^2, 1 + e1 a c]], and its product with
    X12(e2) has trace 2 - e1 e2 c^2.  One (a, c) per target suffices, as the
    law admits I only when class(-e1) = class(e2) (then x = X12(e1), y its
    inverse), U[s] only when eps_shift_solvable finds a (c = 0), never -I,
    NU only as NU[e1] when e1 = e2, and a semisimple t, one class, only when
    (2 - t)/(e1 e2) is a square.  So every target but I and U takes a = 0
    and c^2 = (2 - tr g)/(e1 e2): the one admitted class of its trace."""
    e1, e2 = (negate_class(F, L).param if L.kind == "NU" else L.param
              for L in (L1, L2))
    red_g, target = ((mat_neg(F, g), negate_class(F, Lg))
                     if (L1.kind == "NU") != (L2.kind == "NU") else (g, Lg))
    x, y = (1, e1, 0, 1), (1, e2, 0, 1)
    if target.kind == "I":
        y = mat_inv(F, x)
    else:
        if target.kind == "U":
            a, c = eps_shift_solvable(F, e1, e2, target.param), 0
        else:
            a, c = 0, F.sqrt(F.div(F.sub(F.scalar(2), mat_trace(F, red_g)),
                                   F.mul(e1, e2)))
        if a is None or c is None:
            return None
        ac = F.mul(e1, F.mul(a, c))
        x = (F.sub(1, ac), F.mul(e1, F.mul(a, a)),
             F.neg(F.mul(e1, F.mul(c, c))), F.add(1, ac))
        s = next(_conjugators(F, mat_mul(F, x, y), red_g), None)
        if s is None:
            return None
        x, y = conjugate(F, s, x), conjugate(F, s, y)
    x, y = (mat_neg(F, m) if L.kind == "NU" else m for m, L in zip((x, y), (L1, L2)))
    return Factorization(x, y, g, L1, L2)


def _factor_scan(F, g, L1, L2):
    """First x in the canonical order of L1's class with x^-1 g in L2, among
    the x of L1's trace fiber with that tr(x g)."""
    if L1.is_central or L2.is_central:      # one candidate: x = z or g z^-1 = g z
        candidates = [representative(F, L1) if L1.is_central
                      else mat_mul(F, g, representative(F, L2))]
        decided = False, False
    else:
        pm2 = {"U": F.scalar(2), "NU": F.neg(2)}      # a semisimple label's param is its trace
        t1, t2 = pm2.get(L1.kind, L1.param), pm2.get(L2.kind, L2.param)
        # y = x^-1 g needs L2's trace t2, and x^-1 = t1 I - x in SL2, so
        # tr(x g) = t1 tr(g) - t2 rejects x before y is formed; each
        # candidate has both traces, which fix a semisimple class
        want = F.sub(F.mul(t1, mat_trace(F, g)), t2)
        candidates = fiber_solutions(F, t1, g, (want,))
        decided = L1.is_semisimple, L2.is_semisimple
    for x in candidates:
        if not decided[0] and classify_sl2(F, x, check=False) != L1:
            continue
        y = mat_mul(F, mat_inv(F, x), g)
        if decided[1] or classify_sl2(F, y, check=False) == L2:
            return Factorization(x, y, g, L1, L2)
    return None


def factor_pair(F: FieldCtx, g: Mat, L1: SL2Label, L2: SL2Label):
    """Factor g as x*y with x in L1, y in L2, or None when g's class is not a
    bit of the law cell (L1, L2).  Two U/NU classes take a closed form
    conjugated onto g (_factor_unipotent_pair), in general not the first x in
    canonical order; every other pair takes the first x that fits
    (_factor_scan).  A missing witness or a failed check raises WitnessError."""
    return _factor(F, g, classify_sl2(F, g), (L1,), L2)    # a bad g is refused first


def _factor(F, g, Lg, lefts, L2):
    """factor_pair's witness for the first L1 of lefts whose law cell
    (L1, L2) holds Lg, the class of g, or None if no cell does."""
    C, law = class_index(F, "sl2"), law_table(F, "sl2")
    rows, j, k = [C.at(L1) for L1 in lefts], C.at(L2), C.at(Lg)     # a bad L1 first
    for L1, i in zip(lefts, rows):
        if law.pair(i, j) >> k & 1:
            cert = (_factor_unipotent_pair(F, g, Lg, L1, L2) if {L1.kind, L2.kind} <= {"U", "NU"}
                    else _factor_scan(F, g, L1, L2))
            if cert is None or not cert.ok(F):
                raise WitnessError("law admitted a class with no witness")
            return cert
    return None


def factor_pair_psl(F: FieldCtx, g: Mat, P1: PSLLabel, P2: PSLLabel):
    """Factor g itself across SL2 lifts of two PSL classes.

    g is in the lifted product iff it lies in D1*D2 or (-D1)*D2, so two of
    the four lift combinations cover everything and the witness multiplies
    to g exactly, with no sign ambiguity left."""
    D1 = psl_lift_pair(F, P1)[0]
    D2 = psl_lift_pair(F, P2)[0]
    return _factor(F, g, classify_sl2(F, g), (D1, negate_class(F, D1)), D2)


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
        s = representative(F, next(L for L in all_classes_sl2(F) if L.is_semisimple))
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
        s = next((h for h in _conjugators(F, u, target)
                  if mat_trace(F, h) not in (two, ntwo)), None)
        if s is not None:
            return CommutatorCert(s, u, g, flipped)
    raise WitnessError(f"expressible class {P} with no commutator witness")
