"""Independent GF(q) and SL2(q) arithmetic for input generation and checks.

This module shares no code with sl2prod, so that every answer the
benchmark checks is re-derived on a path other than the one it timed.  It
follows sl2prod's documented encoding: an element of GF(p^a) is the integer
sum(c_i * p^i) of its coordinates modulo the lexicographically smallest
monic irreducible polynomial of degree a (low-degree coefficients compared
first).  Matrices are row-major 4-tuples (a, b, c, d).

Labels are handled as strings in sl2prod's grammar: I, -I, U[s], NU[s],
SS[t], NSS[t] for SL2 and P1, PU[s], PSS[t], PNSS[t] for PSL2.
"""

from __future__ import annotations

import re
from functools import lru_cache
from itertools import product

IDENT = (1, 0, 0, 1)

_LABEL_RE = re.compile(r"^(I|-I|P1)$|^(U|NU|SS|NSS|PU|PSS|PNSS)\[(\d+)\]$")


def _polymod(coeffs, modulus, p):
    """Remainder of a coefficient list (low degree first) by a monic modulus."""
    r = list(coeffs)
    deg = len(modulus) - 1
    for top in range(len(r) - 1, deg - 1, -1):
        lead = r[top]
        if lead:
            for i, m in enumerate(modulus):
                r[top - deg + i] = (r[top - deg + i] - lead * m) % p
    return r[:deg]


def _has_factor(f, p):
    """Whether the monic f (low degree first) has a monic factor of degree
    1..deg(f)//2, by trial division."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for low in product(range(p), repeat=d):
            g = list(low) + [1]
            if not any(_polymod(f, g, p)):
                return True
    return False


class GF:
    """GF(p^a): prime fields use integer arithmetic mod p, extension fields
    an addition table and discrete logarithms to a primitive element."""

    def __init__(self, p: int, a: int = 1):
        self.p, self.a, self.q = p, a, p ** a
        q = self.q
        if a > 1:
            self.modulus = next(
                list(low) + [1] for low in product(range(p), repeat=a)
                if not _has_factor(list(low) + [1], p))
            digits = [[(v // p ** i) % p for i in range(a)] for v in range(q)]
            enc = {tuple(d): v for v, d in enumerate(digits)}
            self._add = [enc[tuple((u + w) % p for u, w in zip(dx, dy))]
                         for dx in digits for dy in digits]

            def polymul(x, y):
                out = [0] * (2 * a - 1)
                for i, u in enumerate(digits[x]):
                    for j, w in enumerate(digits[y]):
                        out[i + j] += u * w
                return enc[tuple(_polymod([c % p for c in out], self.modulus, p))]

            for g in range(2, q):
                exp, x = [1], g
                while x != 1:
                    exp.append(x)
                    x = polymul(x, g)
                if len(exp) == q - 1:
                    break
            self._exp = exp
            self._log = [0] * q
            for k, x in enumerate(exp):
                self._log[x] = k
        self.nonsquare_rep = next(x for x in range(1, q) if not self.is_square(x))

    def add(self, x, y):
        if self.a == 1:
            return (x + y) % self.p
        return self._add[x * self.q + y]

    def neg(self, x):
        if self.a == 1:
            return -x % self.p
        return self.mul(x, self.p - 1)

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def mul(self, x, y):
        if self.a == 1:
            return x * y % self.p
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        if self.a == 1:
            return pow(x, self.p - 2, self.p)
        return self._exp[-self._log[x] % (self.q - 1)]

    def scalar(self, k):
        return k % self.p

    def is_square(self, x):
        """Nonzero squares only: 0 is not a square here."""
        if x == 0:
            return False
        if self.a == 1:
            return pow(x, (self.p - 1) // 2, self.p) == 1
        return self._log[x] % 2 == 0

    def square_class(self, x):
        return 1 if self.is_square(x) else self.nonsquare_rep


@lru_cache(maxsize=None)
def field(descriptor: str) -> GF:
    """Field from a descriptor "p" or "p^a"."""
    p, _, a = descriptor.partition("^")
    return GF(int(p), int(a or 1))


# -- matrices ----------------------------------------------------------------


def mat_mul(F, x, y):
    a, b, c, d = x
    e, f, g, h = y
    m, s = F.mul, F.add
    return (s(m(a, e), m(b, g)), s(m(a, f), m(b, h)),
            s(m(c, e), m(d, g)), s(m(c, f), m(d, h)))


def det(F, m):
    return F.sub(F.mul(m[0], m[3]), F.mul(m[1], m[2]))


def inv_sl2(F, m):
    a, b, c, d = m
    return (d, F.neg(b), F.neg(c), a)


def neg(F, m):
    return tuple(F.neg(v) for v in m)


def trace(F, m):
    return F.add(m[0], m[3])


def random_sl2(F, rng):
    """Uniform element of SL2(F)."""
    q = F.q
    while True:
        a, b, c = rng.randrange(q), rng.randrange(q), rng.randrange(q)
        if a:
            return (a, b, c, F.mul(F.inv(a), F.add(1, F.mul(b, c))))
        if b:
            return (0, b, F.neg(F.inv(b)), rng.randrange(q))


# -- labels --------------------------------------------------------------------


def parse(text: str):
    """(kind, param) of a label string; raises ValueError if malformed."""
    m = _LABEL_RE.match(text)
    if not m:
        raise ValueError(f"bad label {text!r}")
    if m.group(1):
        return m.group(1), 0
    return m.group(2), int(m.group(3))


def fmt(kind, param=0):
    return kind if kind in ("I", "-I", "P1") else f"{kind}[{param}]"


def _is_split(F, t):
    return F.is_square(F.sub(F.mul(t, t), F.scalar(4)))


def classify(F, m) -> str:
    """SL2 class label of m; raises ValueError if det(m) != 1."""
    if det(F, m) != 1:
        raise ValueError(f"{m} is not in SL2")
    a, b, c, d = m
    t = F.add(a, d)
    for kind, centre, central in (("U", 2, "I"), ("NU", F.neg(2), "-I")):
        if t == centre:
            if b == 0 and c == 0:
                return central
            return fmt(kind, F.square_class(b if c == 0 else F.neg(c)))
    return fmt("SS" if _is_split(F, t) else "NSS", t)


def project(F, label: str) -> str:
    """PSL2 label of the image of an SL2 class."""
    kind, s = parse(label)
    if kind in ("I", "-I"):
        return "P1"
    if kind == "U":
        return fmt("PU", s)
    if kind == "NU":
        return fmt("PU", F.square_class(F.neg(s)))
    return fmt("P" + kind, min(s, F.neg(s)))


@lru_cache(maxsize=None)
def sl2_classes(F):
    """All SL2 class labels."""
    out = ["I", "-I"] + [fmt(k, s) for k in ("U", "NU") for s in (1, F.nonsquare_rep)]
    for t in range(F.q):
        if t not in (2, F.neg(2)):
            out.append(fmt("SS" if _is_split(F, t) else "NSS", t))
    return tuple(out)


@lru_cache(maxsize=None)
def psl_classes(F):
    return tuple(sorted({project(F, L) for L in sl2_classes(F)}))


@lru_cache(maxsize=None)
def _class_set(F, group):
    return frozenset(sl2_classes(F) if group == "sl2" else psl_classes(F))


def valid(F, label: str, group: str) -> bool:
    """Whether label names a class of SL2(F) (group "sl2") or PSL2(F)."""
    return label in _class_set(F, group)


def lift(label: str) -> str:
    """One SL2 class over a PSL2 label; SL2 labels are returned as they are."""
    kind, s = parse(label)
    return fmt({"P1": "I", "PU": "U", "PSS": "SS", "PNSS": "NSS"}.get(kind, kind), s)


def representative(F, label: str):
    """A fixed element of an SL2 class: +-I, [[+-1, s], [0, +-1]], or the
    companion matrix [[0, -1], [1, t]] of trace t."""
    kind, s = parse(label)
    n1 = F.neg(1)
    return ({"I": IDENT, "-I": (n1, 0, 0, n1), "U": (1, s, 0, 1),
             "NU": (n1, s, 0, n1)}.get(kind) or (0, n1, 1, s))


def member(F, label: str, rng):
    """A random element of the class named by an SL2 or PSL2 label (for a PSL2
    label, of one of its two lifts, chosen at random)."""
    flip = label.startswith("P") and rng.random() < 0.5
    h = random_sl2(F, rng)
    m = mat_mul(F, mat_mul(F, h, representative(F, lift(label))), inv_sl2(F, h))
    return neg(F, m) if flip else m


def commutator_expressible(F, label: str) -> bool:
    """Whether a PSL2 class holds commutators [s, u] with s semisimple and u
    unipotent: tr [s, X12(e)] = 2 + e^2 c^2 with c the lower-left entry of s,
    so a semisimple class of trace +-t is reached iff t - 2 or -t - 2 is a
    nonzero square; central and unipotent classes are always reached."""
    kind, t = parse(label)
    if kind not in ("PSS", "PNSS"):
        return True
    return any(F.is_square(F.sub(v, 2)) for v in (t, F.neg(t)))


# -- exact class products ----------------------------------------------------------


@lru_cache(maxsize=None)
def _tables(F):
    """Addition and multiplication tables (index u * q + v) and inverses."""
    q, r = F.q, range(F.q)
    return ([F.add(u, v) for u in r for v in r], [F.mul(u, v) for u in r for v in r],
            [0] + [F.inv(v) for v in range(1, q)])


def coset_classes(F, x, label: str) -> set:
    """The SL2 labels of x*y for every y in the SL2 class label, by running
    through all q^2 + O(q) matrices of the class's trace.  With x in a class
    C, this is exactly the set of classes met by the product C * label."""
    kind, _ = parse(label)
    if kind in ("I", "-I"):
        return {classify(F, mat_mul(F, x, representative(F, label)))}
    q = F.q
    ADD, MUL, INV = _tables(F)
    t = trace(F, representative(F, label))
    two, mtwo = F.scalar(2), F.neg(2)
    x0, x1, x2, x3 = x
    X1, X2 = MUL[x1 * q:(x1 + 1) * q], MUL[x2 * q:(x2 + 1) * q]
    unipotent = kind in ("U", "NU")
    traces, central = set(), set()
    for p in range(q):
        d = F.sub(t, p)
        base = ADD[MUL[x0 * q + p] * q + MUL[x3 * q + d]] * q
        c = F.sub(F.mul(p, d), 1)        # y = [[p, r], [s, d]] needs r * s = c
        cq = c * q
        ys = [(MUL[cq + INV[s]], s) for s in range(1, q)]
        if c == 0:
            ys += [(r, 0) for r in range(q)]
        if unipotent:
            ys = [(r, s) for r, s in ys if classify(F, (p, r, s, d)) == label]
        trs = [ADD[base + ADD[X1[s] * q + X2[r]]] for r, s in ys]
        traces.update(trs)
        for v in (two, mtwo):           # x*y may be central or unipotent
            i = -1
            while v in trs[i + 1:]:
                i = trs.index(v, i + 1)
                r, s = ys[i]
                central.add(classify(F, mat_mul(F, x, (p, r, s, d))))
    traces -= {two, mtwo}
    return central | {fmt("SS" if _is_split(F, v) else "NSS", v) for v in traces}


def product_classes(F, group: str, x, label: str) -> set:
    """coset_classes for an SL2 or PSL2 label; for PSL2, x is an SL2 lift
    and the answer is projected to PSL2 labels."""
    out = coset_classes(F, x, lift(label))
    return out if group == "sl2" else {project(F, c) for c in out}
