"""2x2 matrices over GF(q) and their trace fibers.

Matrices are row-major 4-tuples (a, b, c, d) of canonical field encodings.
The SL2 constructor validates entries and the determinant; the arithmetic
helpers assume well-formed input and do not re-check.  iter_trace_fiber
walks the elements of one trace in canonical order, and fiber_solutions
yields, in the same order, those x of a fiber with tr(x y) in a given set,
solving one quadratic per row (quadratic_roots, roots in increasing order)
instead of walking the fiber.
"""

from __future__ import annotations

import heapq

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


def conjugate(F: FieldCtx, g: Mat, x: Mat) -> Mat:
    """g * x * g^-1."""
    return mat_mul(F, mat_mul(F, g, x), mat_inv(F, g))


def minus_ident(F: FieldCtx) -> Mat:
    n1 = F.neg(1)
    return (n1, 0, 0, n1)


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
    """The (b, c) with b c = m and g b + f c = R, in increasing order: for
    m != 0, (b, m / b) for the nonzero roots b of g b^2 - R b + f m; for
    m = 0, b = 0 with f c = R, then c = 0 with g b = R and b != 0.  The
    whole lines of a zero polynomial are yielded lazily."""
    if m:
        for b in quadratic_roots(F, g, F.neg(R), F.mul(f, m)):
            if b:
                yield b, F.div(m, b)
    else:
        yield from ((0, c) for c in quadratic_roots(F, 0, f, F.neg(R)))
        yield from ((b, 0) for b in quadratic_roots(F, 0, g, F.neg(R)) if b)


def quadratic_roots(F: FieldCtx, a2: int, a1: int, a0: int):
    """The roots of a2 X^2 + a1 X + a0 in increasing order, and all of F, as
    a range, when the polynomial is 0."""
    if not a2:
        if a1:
            return (F.neg(F.div(a0, a1)),)
        return () if a0 else F.elements()
    root = F.sqrt(F.sub(F.mul(a1, a1), F.mul(F.scalar(4), F.mul(a2, a0))))
    if root is None:
        return ()
    half = F.inv(F.add(a2, a2))
    return sorted({F.mul(F.sub(root, a1), half), F.mul(F.sub(F.neg(root), a1), half)})
