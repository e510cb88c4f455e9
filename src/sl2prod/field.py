"""Exact arithmetic in GF(q) for odd prime powers 5 <= q <= 10^5.

Field elements are plain ints in 0..q-1, the canonical encoding
sum(c_i * p^i) of the coordinate vector (c_0, ..., c_{a-1}) modulo a fixed
irreducible polynomial.  0 and 1 encode the additive and multiplicative
identities.  A FieldCtx is immutable but for its memo, and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian

MAX_FIELD_ORDER = 10 ** 5     # a context takes about 0.35 KB per element
LIVE_FIELDS = 16              # contexts make_field keeps alive


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


# Polynomials over F_p are coefficient tuples, lowest degree first, with no
# trailing zeros (the zero polynomial is the empty tuple).

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(f, g, p):
    if not f or not g:
        return ()
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_trim(out)


def _poly_mod(f, m, p):
    """Remainder of f modulo the monic polynomial m."""
    r = list(f)
    dm = len(m) - 1
    while len(r) - 1 >= dm and r:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim(r)


def _is_irreducible(f, p):
    deg = len(f) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for low in _cartesian(range(p), repeat=d):
            g = low + (1,)
            if not _poly_mod(f, g, p):
                return False
    return True


def _smallest_irreducible(p, a):
    """Lexicographically smallest monic irreducible of degree a over F_p,
    low-degree coefficients compared first.  Degree 1 yields x itself."""
    for low in _cartesian(range(p), repeat=a):
        f = low + (1,)
        if _is_irreducible(f, p):
            return f
    raise AssertionError("no irreducible polynomial found")


class FieldCtx:
    """A fixed finite field F_q, q = p^a odd, with precomputed square data.

    Use make_field(); direct construction is not part of the API.  memo maps
    "sl2" and "psl2" to their ClassIndex (see classes.class_index), which
    owns the field's tables; a context pickles as its make_field call.
    """

    __slots__ = ("p", "a", "q", "modulus", "square_set", "nonsquare_rep",
                 "_exp", "_log", "_neg", "_sqrt", "_enc", "_tuples", "memo")

    def __init__(self, p: int, a: int):
        q = p ** a
        self.p, self.a, self.q = p, a, q
        self.memo = {}
        self.modulus = _smallest_irreducible(p, a)

        powers = [p ** i for i in range(a)]
        tuples = []
        for v in range(q):
            rest, coeffs = v, []
            for _ in range(a):
                rest, c = divmod(rest, p)
                coeffs.append(c)
            tuples.append(tuple(coeffs))
        self._tuples = tuples
        self._enc = {t: i for i, t in enumerate(tuples)}

        def as_int(poly):
            return sum(c * powers[i] for i, c in enumerate(poly))

        def raw_mul(x, y):
            f = _poly_mod(_poly_mul(_poly_trim(tuples[x]), _poly_trim(tuples[y]), p),
                          self.modulus, p)
            return as_int(f)

        gen = self._find_generator(raw_mul)
        exp = [1] * (q - 1)
        log = [0] * q
        acc = 1
        for k in range(1, q - 1):
            acc = raw_mul(acc, gen)
            exp[k] = acc
            log[acc] = k
        self._exp, self._log = exp, log

        self._neg = [self._enc[tuple((-c) % p for c in t)] for t in tuples]

        self.square_set = frozenset(exp[k] for k in range(0, q - 1, 2))
        self.nonsquare_rep = min(x for x in range(1, q) if x not in self.square_set)

        sqrt = {}
        for x in range(1, q):
            sqrt.setdefault(raw_mul(x, x), x)
        self._sqrt = sqrt

    def __reduce__(self):
        return make_field, (self.p, self.a)

    def _find_generator(self, raw_mul):
        q = self.q
        n = q - 1
        factors, m, d = [], n, 2
        while d * d <= m:
            if m % d == 0:
                factors.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            factors.append(m)

        def raw_pow(x, e):
            r = 1
            while e:
                if e & 1:
                    r = raw_mul(r, x)
                x = raw_mul(x, x)
                e >>= 1
            return r

        for g in range(2, q):
            if all(raw_pow(g, n // f) != 1 for f in factors):
                return g
        raise AssertionError("no generator found")

    # -- basic arithmetic ------------------------------------------------

    def of(self, v: int) -> int:
        if not 0 <= v < self.q:
            raise ValueError(f"element {v} out of range for {self!r}")
        return v

    def scalar(self, k: int) -> int:
        """Encoding of the prime-subfield scalar k (k copies of 1)."""
        return k % self.p

    def add(self, x: int, y: int) -> int:
        if self.a == 1:
            return (x + y) % self.q
        p = self.p
        tx, ty = self._tuples[x], self._tuples[y]
        return self._enc[tuple((u + v) % p for u, v in zip(tx, ty))]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self._neg[y])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return self._exp[-self._log[x] % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def power(self, x: int, n: int) -> int:
        if x == 0:
            if n == 0:
                return 1
            if n < 0:
                raise ZeroDivisionError("negative power of 0")
            return 0
        return self._exp[(self._log[x] * n) % (self.q - 1)]

    # -- square classes --------------------------------------------------

    def is_square(self, x: int) -> bool:
        if x == 0:
            raise ValueError("is_square is undefined at 0")
        return x in self.square_set

    def sqrt(self, x: int):
        """Smaller-encoded square root of x, 0 for 0, None for nonsquares."""
        if x == 0:
            return 0
        return self._sqrt.get(x)

    def square_class(self, x: int) -> int:
        """Canonical representative (1 or nonsquare_rep) of x's square class."""
        return 1 if self.is_square(x) else self.nonsquare_rep

    def same_class(self, x: int, y: int) -> bool:
        return self.is_square(x) == self.is_square(y)

    # -- misc --------------------------------------------------------------

    def elements(self) -> range:
        return range(self.q)

    def units(self) -> range:
        return range(1, self.q)

    @property
    def descriptor(self) -> str:
        return str(self.p) if self.a == 1 else f"{self.p}^{self.a}"

    def __repr__(self) -> str:
        return f"GF({self.descriptor})"


def make_field(p: int, a: int = 1) -> FieldCtx:
    """Finite field F_{p^a} with the deterministic modulus and square tables.

    One context per (p, a) among the last LIVE_FIELDS asked, however spelt;
    a dropped context that no caller holds takes its tables with it.  Rejects
    even characteristic, non-prime p, a < 1, and q outside 5..MAX_FIELD_ORDER.
    """
    return _make_field(p, a)


@lru_cache(maxsize=LIVE_FIELDS)
def _make_field(p: int, a: int) -> FieldCtx:
    if p == 2:
        raise ValueError("even characteristic")
    # checked before p ** a or _is_prime(p) can take long, using q >= 2 ** a
    if p > MAX_FIELD_ORDER or a >= MAX_FIELD_ORDER.bit_length():
        raise ValueError(f"q = {p}^{a} exceeds the field bound {MAX_FIELD_ORDER}")
    if not _is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")
    if a < 1:
        raise ValueError(f"extension degree must be >= 1, got {a}")
    if not 5 <= p ** a <= MAX_FIELD_ORDER:
        raise ValueError(f"q = {p ** a} is outside 5..{MAX_FIELD_ORDER}")
    return FieldCtx(p, a)


def parse_descriptor(text: str) -> FieldCtx:
    """Parse a field descriptor "p" or "p^a" (e.g. "7", "3^2")."""
    parts = text.split("^")
    if len(parts) > 2 or not all(s.strip().isdigit() for s in parts):
        raise ValueError(f"bad field descriptor {text!r}, expected p or p^a")
    p = int(parts[0])
    a = int(parts[1]) if len(parts) == 2 else 1
    return make_field(p, a)


# -- quadratic solvers used by the product laws ---------------------------

def eps_shift_solvable(F: FieldCtx, e1: int, e2: int, eps: int):
    """Smallest a in F* with e2 + e1*a^2 nonzero and in eps's square class,
    or None.  Total search; over F_q both square classes are reachable
    except in small degenerate cases."""
    for v in (e1, e2, eps):
        if v == 0:
            raise ValueError("eps_shift_solvable needs nonzero arguments")
    target = F.is_square(eps)
    for a in F.units():
        v = F.add(e2, F.mul(e1, F.mul(a, a)))
        if v and F.is_square(v) == target:
            return a
    return None


def diff_of_squares(F: FieldCtx, eps: int):
    """(b, c), both nonzero, with b^2 - c^2 = eps, via b=(1+eps)/2, c=(1-eps)/2."""
    if eps in (0, 1, F.neg(1)):
        raise ValueError("diff_of_squares needs eps outside {0, 1, -1}")
    b = F.div(F.add(1, eps), 2)
    c = F.div(F.sub(1, eps), 2)
    return b, c


def sum_of_two_nonzero_squares(F: FieldCtx, eps: int):
    """Lexicographically first (x, y), both nonzero, with x^2 + y^2 = eps, or None."""
    if eps == 0:
        raise ValueError("sum_of_two_nonzero_squares needs eps != 0")
    for x in F.units():
        rest = F.sub(eps, F.mul(x, x))
        if rest == 0:
            continue
        y = F.sqrt(rest)
        if y is not None:
            return x, y
    return None
