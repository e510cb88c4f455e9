"""2x2 matrices over GF(q), the sharp Bruhat decomposition, and trace fibers.

Matrices are row-major 4-tuples (a, b, c, d) of canonical field encodings.
The SL2 constructor validates entries and the determinant; the arithmetic
helpers assume well-formed input and do not re-check.  iter_trace_fiber
walks the elements of one trace in canonical order, and fiber_solutions
yields, in the same order, those x of a fiber with tr(x y) in a given set,
solving one quadratic per row instead of walking the fiber.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .field import FieldCtx

Mat = tuple[int, int, int, int]

IDENT: Mat = (1, 0, 0, 1)


def sl2(F: FieldCtx, a: int, b: int, c: int, d: int) -> Mat:
    """Validated SL2 element: entries in range, determinant 1."""
    for v in (a, b, c, d):
        F.of(v)
    m = (a, b, c, d)
    if mat_det(F, m) != 1:
        raise ValueError(f"matrix {m} has determinant {mat_det(F, m)}, not 1")
    return m


def mat_det(F: FieldCtx, m: Mat) -> int:
    a, b, c, d = m
    return F.sub(F.mul(a, d), F.mul(b, c))


def mat_mul(F: FieldCtx, x: Mat, y: Mat) -> Mat:
    a, b, c, d = x
    e, f, g, h = y
    return (F.add(F.mul(a, e), F.mul(b, g)), F.add(F.mul(a, f), F.mul(b, h)),
            F.add(F.mul(c, e), F.mul(d, g)), F.add(F.mul(c, f), F.mul(d, h)))


def mat_inv(F: FieldCtx, m: Mat) -> Mat:
    a, b, c, d = m
    det = mat_det(F, m)
    if det == 1:
        return (d, F.neg(b), F.neg(c), a)
    if det == 0:
        raise ZeroDivisionError(f"matrix {m} is singular")
    t = F.inv(det)
    return (F.mul(d, t), F.mul(F.neg(b), t), F.mul(F.neg(c), t), F.mul(a, t))


def mat_neg(F: FieldCtx, m: Mat) -> Mat:
    return (F.neg(m[0]), F.neg(m[1]), F.neg(m[2]), F.neg(m[3]))


def mat_trace(F: FieldCtx, m: Mat) -> int:
    return F.add(m[0], m[3])


def mat_pow(F: FieldCtx, m: Mat, n: int) -> Mat:
    if n < 0:
        return mat_pow(F, mat_inv(F, m), -n)
    r = IDENT
    while n:
        if n & 1:
            r = mat_mul(F, r, m)
        m = mat_mul(F, m, m)
        n >>= 1
    return r


def conjugate(F: FieldCtx, g: Mat, x: Mat) -> Mat:
    """g * x * g^-1."""
    return mat_mul(F, mat_mul(F, g, x), mat_inv(F, g))


def minus_ident(F: FieldCtx) -> Mat:
    n1 = F.neg(1)
    return (n1, 0, 0, n1)


# -- sharp Bruhat form -----------------------------------------------------
#
# Generators: h(a) = diag(a, a^-1), n(a) = h(a) * [[0,1],[-1,0]],
# X12(t) = [[1,t],[0,1]].  Every SL2 element is uniquely h(alpha) X12(psi)
# (the Borel cell, c = 0) or X12(tau) n(alpha) X12(psi) (the big cell).


class Torus(NamedTuple):
    alpha: int
    psi: int


class BigCell(NamedTuple):
    tau: int
    alpha: int
    psi: int

BruhatForm = Torus | BigCell


def bruhat_decompose(F: FieldCtx, m: Mat) -> BruhatForm:
    a, b, c, d = m
    if c == 0:
        return Torus(a, F.div(b, a))
    cinv = F.inv(c)
    return BigCell(F.mul(a, cinv), F.neg(cinv), F.mul(d, cinv))


def bruhat_compose(F: FieldCtx, f: BruhatForm) -> Mat:
    if f.alpha == 0:
        raise ValueError("alpha must be a unit")
    if isinstance(f, Torus):
        return (f.alpha, F.mul(f.alpha, f.psi), 0, F.inv(f.alpha))
    ainv = F.inv(f.alpha)
    # X12(tau) n(alpha) X12(psi) = [[-tau/alpha, alpha - tau*psi/alpha],
    #                               [-1/alpha,   -psi/alpha]]
    return (F.neg(F.mul(f.tau, ainv)),
            F.sub(f.alpha, F.mul(F.mul(f.tau, f.psi), ainv)),
            F.neg(ainv),
            F.neg(F.mul(f.psi, ainv)))


def bruhat_trace(F: FieldCtx, f: BruhatForm) -> int:
    if isinstance(f, Torus):
        return F.add(f.alpha, F.inv(f.alpha))
    return F.neg(F.mul(F.inv(f.alpha), F.add(f.tau, f.psi)))


def bruhat_product(F: FieldCtx, f1: BruhatForm, f2: BruhatForm) -> BruhatForm:
    """Sharp form of compose(f1) * compose(f2), computed symbolically."""
    if isinstance(f1, Torus) and isinstance(f2, Torus):
        a2sq = F.mul(f2.alpha, f2.alpha)
        return Torus(F.mul(f1.alpha, f2.alpha),
                     F.add(F.div(f1.psi, a2sq), f2.psi))
    if isinstance(f1, Torus):
        a1sq = F.mul(f1.alpha, f1.alpha)
        return BigCell(F.mul(a1sq, F.add(f1.psi, f2.tau)),
                       F.mul(f1.alpha, f2.alpha),
                       f2.psi)
    if isinstance(f2, Torus):
        a2sq = F.mul(f2.alpha, f2.alpha)
        return BigCell(f1.tau,
                       F.div(f1.alpha, f2.alpha),
                       F.add(F.div(f1.psi, a2sq), f2.psi))
    s = F.add(f1.psi, f2.tau)
    if s == 0:
        ratio = F.div(f2.alpha, f1.alpha)
        return Torus(F.neg(F.div(f1.alpha, f2.alpha)),
                     F.add(F.mul(F.mul(ratio, ratio), f1.tau), f2.psi))
    sinv = F.inv(s)
    return BigCell(F.sub(f1.tau, F.mul(F.mul(f1.alpha, f1.alpha), sinv)),
                   F.neg(F.mul(F.mul(f1.alpha, f2.alpha), sinv)),
                   F.sub(f2.psi, F.mul(F.mul(f2.alpha, f2.alpha), sinv)))


def iter_sl2(F: FieldCtx):
    """All of SL2(F) in canonical order: row-major lexicographic on entries."""
    q = F.q
    for a in range(q):
        if a == 0:
            for b in range(1, q):
                c = F.neg(F.inv(b))
                for d in range(q):
                    yield (0, b, c, d)
        else:
            ainv = F.inv(a)
            for b in range(q):
                for c in range(q):
                    yield (a, b, c, F.mul(ainv, F.add(1, F.mul(b, c))))


def iter_trace_fiber(F: FieldCtx, t: int):
    """The q^2 + O(q) elements of SL2(F) with trace t, in the canonical order
    of iter_sl2: a runs over F, d = t - a, and b*c = a*d - 1 is solved for c."""
    q = F.q
    invs = [0] + [F.inv(b) for b in range(1, q)]
    for a in range(q):
        d = F.sub(t, a)
        bc = F.sub(F.mul(a, d), 1)
        if bc == 0:
            for c in range(q):
                yield (a, 0, c, d)
            for b in range(1, q):
                yield (a, b, 0, d)
        else:
            for b in range(1, q):
                yield (a, b, F.mul(bc, invs[b]), d)


def fiber_solutions(F: FieldCtx, t: int, y: Mat, rs):
    """The x of iter_trace_fiber(F, t) with tr(x y) in rs (distinct values),
    in the same order.  For x = [[a, b], [c, t - a]] and y = [[e, f], [g, h]],
    tr(x y) = a (e - h) + t h + g b + f c, so each row a is bc_solutions
    for m = a (t - a) - 1 and R = r - t h - a (e - h)."""
    e, f, g, h = y
    eh = F.sub(e, h)
    r0s = [F.sub(r, F.mul(t, h)) for r in rs]
    for a in range(F.q):
        d = F.sub(t, a)
        m = F.sub(F.mul(a, d), 1)
        k = F.mul(a, eh)
        row = [bc_solutions(F, m, g, f, F.sub(r0, k)) for r0 in r0s]
        for b, c in row[0] if len(row) == 1 else heapq.merge(*row):
            yield (a, b, c, d)


def bc_solutions(F: FieldCtx, m: int, g: int, f: int, R: int):
    """The (b, c) with b c = m and g b + f c = R, in increasing order.  Most
    cases have at most two, the roots of g b^2 - R b + f m = 0; the
    degenerate ones (m = 0, or g = 0 with f = R = 0) have about q, and
    those are yielded lazily, so a first-match search stops early."""
    if m == 0:      # b = 0 with f c = R, then c = 0 with g b = R and b != 0
        if f:
            yield 0, F.div(R, f)
        elif R == 0:
            yield from ((0, c) for c in range(F.q))
        if g and R:
            yield F.div(R, g), 0
        elif g == R == 0:
            yield from ((b, 0) for b in range(1, F.q))
    elif g == 0:    # R b = f m, with b != 0, so c = R / f
        if R and f:
            yield F.div(F.mul(f, m), R), F.div(R, f)
        elif R == f == 0:
            yield from ((b, F.div(m, b)) for b in range(1, F.q))
    else:           # b = (R +- root) / 2g, root^2 = R^2 - 4 g f m
        root = F.sqrt(F.sub(F.mul(R, R), F.mul(F.scalar(4), F.mul(g, F.mul(f, m)))))
        if root is None:
            return
        half_g = F.inv(F.add(g, g))
        bs = {F.mul(F.add(R, root), half_g), F.mul(F.sub(R, root), half_g)}
        for b in sorted(bs - {0}):
            yield b, F.div(m, b)
