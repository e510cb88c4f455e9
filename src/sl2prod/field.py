"""Exact arithmetic in GF(q) for odd prime powers 5 <= q <= 10^5.

Field elements are plain ints in 0..q-1, the canonical encoding
sum(c_i * p^i) of the coordinate vector (c_0, ..., c_{a-1}) modulo a fixed
irreducible polynomial.  0 and 1 encode the additive and multiplicative
identities.  Arithmetic is table lookups, the same for every q.  A FieldCtx
is immutable but for its memo, and safe to share.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product as _cartesian

MAX_FIELD_ORDER = 10 ** 5     # a context takes up to about 96 B per element
LIVE_FIELDS = 16              # contexts make_field keeps alive


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, smallest first, by trial division;
    none for n < 2."""
    factors, d = [], 2
    while d * d <= n:
        if n % d == 0:
            factors.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return factors + [n] if n > 1 else factors


# Polynomials over F_p are coefficient tuples, lowest degree first, with no
# trailing zeros (the zero polynomial is the empty tuple).

def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, fi in enumerate(f):
        if fi:
            for j, gj in enumerate(g):
                out[i + j] = (out[i + j] + fi * gj) % p
    return _poly_trim(out)


def _poly_mod(f, m, p):
    """Remainder of f modulo the monic polynomial m of degree at least 1."""
    r = list(f)
    dm = len(m) - 1
    while len(r) > dm:
        lead = r[-1]
        if lead:
            shift = len(r) - 1 - dm
            for i, mi in enumerate(m):
                if mi:      # the moduli are sparse
                    r[shift + i] = (r[shift + i] - lead * mi) % p
        r.pop()
    return _poly_trim(r)


def _is_irreducible(f, p):
    for d in range(1, (len(f) - 1) // 2 + 1):
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
    """A fixed finite field F_q, q = p^a odd, as four q-sized tables.

    Arithmetic works on logarithms to the least generator g: _exp[k] = g^k
    and _log inverts it, so x * y adds logarithms, and x + y = x (1 + y/x)
    reads log(1 + g^k) from the Zech table _zech[k]; _neg[x] = -x.  The
    squares are the even powers of g.  Use make_field(); direct
    construction is not part of the API.  memo maps "sl2" and "psl2" to
    their ClassIndex (see classes.class_index), which owns the field's
    tables; a context pickles as its make_field call.
    """

    __slots__ = ("p", "a", "q", "modulus", "nonsquare_rep",
                 "_exp", "_log", "_zech", "_neg", "memo")

    def __init__(self, p: int, a: int):
        q = p ** a
        self.p, self.a, self.q = p, a, q
        self.memo = {}
        self.modulus = _smallest_irreducible(p, a)

        powers = [p ** i for i in range(a)]

        def raw_mul(x, y):      # used only to build exp
            if a == 1:
                return x * y % p
            # coefficient lists, trimmed: no power of p above v
            fx, fy = ([v // w % p for w in powers if w <= v] for v in (x, y))
            f = _poly_mod(_poly_mul(fx, fy, p), self.modulus, p)
            return sum(c * w for c, w in zip(f, powers))

        gen = self._find_generator(raw_mul)
        exp = [1] * (q - 1)
        log = [0] * q
        acc = 1
        for k in range(1, q - 1):
            acc = raw_mul(acc, gen)
            exp[k] = acc
            log[acc] = k
        self._exp, self._log = exp, log

        # g^half = -1, so 1 + g^k = 0 exactly at k = half, and -x = x g^half;
        # adding 1 to an encoding changes only its constant coefficient
        half = (q - 1) // 2
        self._zech = [log[v - v % p + (v + 1) % p] for v in exp]
        self._zech[half] = None
        self._neg = [0] + [exp[log[x] - half] for x in range(1, q)]
        # the squares are the even powers of g, and 1 = g^0 is one
        self.nonsquare_rep = next(x for x in range(2, q) if log[x] & 1)

    def __reduce__(self):
        return make_field, (self.p, self.a)

    def _find_generator(self, raw_mul):
        q = self.q
        n = q - 1
        factors = _prime_factors(n)

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
        if isinstance(v, bool) or not isinstance(v, int) or not 0 <= v < self.q:
            raise ValueError(f"element {v!r} is not an integer in 0..{self.q - 1}")
        return v

    def scalar(self, k: int) -> int:
        """Encoding of the prime-subfield scalar k (k copies of 1)."""
        return k % self.p

    def add(self, x: int, y: int) -> int:
        """x + y for encodings in 0..q-1, unchecked: a hot primitive."""
        if x == 0:
            return y
        if y == 0:
            return x
        lx = self._log[x]
        z = self._zech[self._log[y] - lx]       # a negative index wraps mod q - 1
        return 0 if z is None else self._exp[(lx + z) % (self.q - 1)]

    def neg(self, x: int) -> int:
        """-x for an encoding in 0..q-1, unchecked: a hot primitive."""
        return self._neg[x]

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self._neg[y])

    def mul(self, x: int, y: int) -> int:
        """x * y for encodings in 0..q-1, unchecked: a hot primitive."""
        if x == 0 or y == 0:
            return 0
        return self._exp[(self._log[x] + self._log[y]) % (self.q - 1)]

    def inv(self, x: int) -> int:
        if not 0 < x < self.q:
            self.of(x)          # ValueError outside 0..q-1
            raise ZeroDivisionError("inverse of 0")
        return self._exp[-self._log[x] % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        if not (0 < x < self.q and 0 < y < self.q):
            # 0 / y is 0; of and inv reject the rest
            return self.mul(self.of(x), self.inv(y))
        return self._exp[(self._log[x] - self._log[y]) % (self.q - 1)]

    # -- square classes --------------------------------------------------

    def is_square(self, x: int) -> bool:
        """Whether the encoding x in 1..q-1 is a square: log x is even."""
        if not 0 < x < self.q:
            self.of(x)          # ValueError outside 0..q-1
            raise ValueError("is_square is undefined at 0")
        return not self._log[x] & 1

    def sqrt(self, x: int):
        """Smaller-encoded square root of the encoding x in 0..q-1, 0 for 0,
        None for nonsquares; g^(k/2) and its negative are the roots of g^k."""
        if not 0 < x < self.q:
            return self.of(x)       # 0 is its own root; of rejects the rest
        k = self._log[x]
        if k & 1:
            return None
        r = self._exp[k >> 1]
        s = self._neg[r]
        return r if r < s else s

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
    """Finite field F_{p^a} with the deterministic modulus and generator.

    One context per (p, a) among the last LIVE_FIELDS asked, however spelt;
    a dropped context that no caller holds takes its tables with it.  Rejects
    even characteristic, non-prime p, a < 1, q outside 5..MAX_FIELD_ORDER,
    and a p or a that is not an int (the cache would take 7.0 or True as 7 or 1).
    """
    if type(p) is not int or type(a) is not int:
        raise ValueError(f"p and a must be ints, got {p!r} and {a!r}")
    return _make_field(p, a)


@lru_cache(maxsize=LIVE_FIELDS)
def _make_field(p: int, a: int) -> FieldCtx:
    if p == 2:
        raise ValueError("even characteristic")
    # checked before p ** a or factoring p can take long, using q >= 2 ** a
    if p > MAX_FIELD_ORDER or a >= MAX_FIELD_ORDER.bit_length():
        raise ValueError(f"q = {p}^{a} exceeds the field bound {MAX_FIELD_ORDER}")
    if _prime_factors(p) != [p]:
        raise ValueError(f"p must be an odd prime, got {p}")
    if a < 1:
        raise ValueError(f"extension degree must be >= 1, got {a}")
    if not 5 <= p ** a <= MAX_FIELD_ORDER:
        raise ValueError(f"q = {p ** a} is outside 5..{MAX_FIELD_ORDER}")
    return FieldCtx(p, a)


def parse_descriptor(text: str) -> FieldCtx:
    """Parse a field descriptor "p" or "p^a" (e.g. "7", "3^2") in ASCII
    digits; isdecimal() and int() alone also take "٧" and "３"."""
    parts = [s.strip() for s in text.split("^")] if isinstance(text, str) else []
    if not 1 <= len(parts) <= 2 or not all(s.isascii() and s.isdecimal() for s in parts):
        raise ValueError(f"bad field descriptor {text!r}, expected p or p^a")
    p = int(parts[0])
    a = int(parts[1]) if len(parts) == 2 else 1
    return make_field(p, a)


# -- the quadratic solver used by the product laws ------------------------

def eps_shift_solvable(F: FieldCtx, e1: int, e2: int, eps: int):
    """Smallest a in F* with e2 + e1*a^2 nonzero and in eps's square class,
    or None.  Total search; over F_q both square classes are reachable
    except in small degenerate cases."""
    for v in (e1, e2, eps):
        if F.of(v) == 0:
            raise ValueError("eps_shift_solvable needs nonzero arguments")
    target = F.is_square(eps)
    for a in F.units():
        v = F.add(e2, F.mul(e1, F.mul(a, a)))
        if v and F.is_square(v) == target:
            return a
    return None

