"""Field construction, square classes, and the quadratic solver."""

import gc
import importlib
import itertools
import pickle
import pkgutil
import random
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

import sl2prod
from sl2prod import eps_shift_solvable, make_field, parse_descriptor, verify_laws
from sl2prod.classes import class_index
from sl2prod.field import (LIVE_FIELDS, FieldCtx, _poly_mod, _poly_mul, _poly_trim,
                           _smallest_irreducible)


def _squares(F):
    return {x for x in F.units() if F.is_square(x)}


def test_make_field_golden():
    F5 = make_field(5)
    assert (F5.p, F5.a, F5.q) == (5, 1, 5)
    assert _squares(F5) == {1, 4}
    F7 = make_field(7)
    assert _squares(F7) == {1, 2, 4}
    assert F7.nonsquare_rep == 3


def test_make_field_rejections():
    with pytest.raises(ValueError, match="even characteristic"):
        make_field(2, 1)
    with pytest.raises(ValueError):
        make_field(9, 1)
    with pytest.raises(ValueError):
        make_field(3, 1)  # q = 3 < 5
    with pytest.raises(ValueError):
        make_field(5, 0)
    # above the field bound, refused before any O(q) or big-integer work
    for args in ((3, 20), (3, 10 ** 12), (10 ** 18 + 3,)):
        with pytest.raises(ValueError, match="exceeds the field bound"):
            make_field(*args)


def test_extension_field_modulus_is_lex_smallest():
    # over F_3 the candidates x^2, x^2+x, x^2+2x all have root 0; x^2+1 is
    # the first irreducible in low-degree-first order
    F9 = make_field(3, 2)
    assert F9.modulus == (1, 0, 1)
    assert F9.q == 9


def _coefficients(p, a):
    """Coefficient tuple of every encoding, lowest degree first."""
    return [tuple(v // p ** i % p for i in range(a)) for v in range(p ** a)]


def _polynomial_tables(p, a):
    """A context's tables and square data built the slow way: every product
    is a polynomial product reduced modulo the modulus, and the generator is
    the least element of order q - 1."""
    q = p ** a
    modulus = _smallest_irreducible(p, a)
    tuples = _coefficients(p, a)
    enc = {t: v for v, t in enumerate(tuples)}

    def mul(x, y):
        f = _poly_mod(_poly_mul(_poly_trim(tuples[x]), _poly_trim(tuples[y]), p),
                      modulus, p)
        return sum(c * p ** i for i, c in enumerate(f))

    def powers(g):
        out = [1, g]
        while out[-1] != 1:
            out.append(mul(out[-1], g))
        return out[:-1]

    exp = next(e for e in map(powers, range(2, q)) if len(e) == q - 1)
    log = [0] * q
    for k, x in enumerate(exp):
        log[x] = k
    sqrt = {0: 0}
    for x in range(1, q):       # x runs upward, so the smaller root wins
        sqrt.setdefault(mul(x, x), x)
    return {"modulus": modulus, "_exp": exp, "_log": log,
            "_neg": [enc[tuple(-c % p for c in t)] for t in tuples]}, sqrt


@pytest.mark.parametrize("p,a", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3), (31, 1),
                                 (7, 2), (3, 4), (11, 2), (5, 3), (211, 1),
                                 (3, 5), (7, 3)])
def test_tables_match_polynomial_construction(p, a):
    F = make_field(p, a)
    tables, sqrt = _polynomial_tables(p, a)
    assert {name: getattr(F, name) for name in tables} == tables
    nonsquare_rep = min(x for x in F.units() if x not in sqrt)
    assert F.nonsquare_rep == nonsquare_rep
    assert [F.sqrt(x) for x in F.elements()] == [sqrt.get(x) for x in F.elements()]
    for x in F.units():
        assert F.is_square(x) == (x in sqrt), x
        assert F.square_class(x) == (1 if x in sqrt else nonsquare_rep), x
    _assert_coefficientwise(F, itertools.product(F.elements(), repeat=2))
    # 1 + g^k = 0 only where g^k = -1; no field keeps coefficient tuples
    assert [k for k, z in enumerate(F._zech) if z is None] == [(F.q - 1) // 2]
    assert not hasattr(F, "_tuples") and not hasattr(F, "_enc")


def _assert_coefficientwise(F, pairs):
    """add and sub agree with the sum and difference of coefficient tuples."""
    tuples = _coefficients(F.p, F.a)
    enc = {t: v for v, t in enumerate(tuples)}
    for x, y in pairs:
        tx, ty = tuples[x], tuples[y]
        assert F.add(x, y) == enc[tuple((u + v) % F.p for u, v in zip(tx, ty))], (x, y)
        assert F.sub(x, y) == enc[tuple((u - v) % F.p for u, v in zip(tx, ty))], (x, y)


@pytest.mark.parametrize("p,a", [(7, 5), (3, 9)])
def test_add_matches_coefficients_sampled(p, a):
    F = make_field(p, a)
    rng = random.Random(F.q)
    pairs = [(rng.randrange(F.q), rng.randrange(F.q)) for _ in range(5000)]
    _assert_coefficientwise(F, pairs)
    for x, _ in pairs:
        if x:
            assert F.is_square(F.mul(x, x)), x
            assert F.sqrt(F.mul(x, x)) == min(x, F.neg(x)), x


@pytest.mark.parametrize("p,a", [(10007, 1), (3, 7)])
def test_context_memory(p, a):
    """A context holds its four q-sized tables (exp, log, Zech, negation)
    and nothing else of that size: at most 110 B per element."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        F = FieldCtx(p, a)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held <= 110 * F.q, held / F.q


def test_element_check():
    F7 = make_field(7)
    assert [F7.of(v) for v in (0, 6)] == [0, 6]
    for v in (True, False, 0.5, 1.0, -1, 7, "1", None):
        with pytest.raises(ValueError):
            F7.of(v)


def test_parse_descriptor():
    assert parse_descriptor("7").q == 7
    assert parse_descriptor("3^2").q == 9
    with pytest.raises(ValueError):
        parse_descriptor("six")
    with pytest.raises(ValueError):
        parse_descriptor("2^3")
    # str.isdigit accepts "²", which int() rejects; isdecimal() and int()
    # accept "١٣" (Arabic-Indic 13) and "３" (fullwidth 3)
    for text in ("²", "3^²", "", "3^", "١٣", "3^３"):
        with pytest.raises(ValueError, match="bad field descriptor"):
            parse_descriptor(text)


def test_one_context_per_field():
    """Every spelling of a field gives the same context, so caches keyed on
    the field are shared."""
    assert make_field(7) is make_field(7, 1) is parse_descriptor("7")
    assert make_field(3, 2) is make_field(p=3, a=2) is parse_descriptor("3^2")
    F = make_field(7)
    verify_laws(F, "psl2")      # the memo now holds tables with closures
    assert pickle.loads(pickle.dumps(F)) is F


# more fields than make_field keeps alive
OTHER_PRIMES = (11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71, 73)
assert len(OTHER_PRIMES) > LIVE_FIELDS


def _q7_tables():
    """Weak references to the class indices of a fresh q = 7 context and to
    their law and brute tables, after the tables, the closed-form triples
    verify reads from the law table, and the verification reports are built."""
    for p in OTHER_PRIMES:      # a context for q = 7 that no one else holds
        make_field(p)
    F = make_field(7)
    refs = []
    for kind in ("sl2", "psl2"):
        assert verify_laws(F, kind).ok
        C = class_index(F, kind)
        assert C.law.closed and C.brute._columns
        refs += [weakref.ref(C), weakref.ref(C.law), weakref.ref(C.brute)]
    return refs


def test_tables_die_with_their_field():
    refs = _q7_tables()
    for p in OTHER_PRIMES:
        make_field(p)
    gc.collect()
    assert [r() for r in refs] == [None] * 6


def test_make_field_is_the_only_cache():
    """No module keeps per-field state beside the bounded field cache."""
    cached = []
    for info in pkgutil.iter_modules(sl2prod.__path__):
        module = importlib.import_module(f"sl2prod.{info.name}")
        cached += [(info.name, name) for name, obj in vars(module).items()
                   if hasattr(obj, "cache_info")]
    assert cached == [("field", "_make_field")]


def test_field_axioms_exhaustive(small_F):
    F = small_F
    for x in F.elements():
        assert F.add(x, 0) == x
        assert F.mul(x, 1) == x
        assert F.add(x, F.neg(x)) == 0
        if x:
            assert F.mul(x, F.inv(x)) == 1
    for x in F.elements():
        for y in F.elements():
            assert F.add(x, y) == F.add(y, x)
            assert F.mul(x, y) == F.mul(y, x)


def test_scalar_embedding(F):
    assert F.scalar(0) == 0 and F.scalar(1) == 1
    two = F.scalar(2)
    assert F.add(1, 1) == two
    assert F.add(two, two) == F.scalar(4)
    assert F.neg(two) == F.scalar(-2)


def test_square_count_and_minus_one(F):
    assert len(_squares(F)) == (F.q - 1) // 2
    assert F.is_square(1)
    assert not F.is_square(F.nonsquare_rep)
    assert F.is_square(F.neg(1)) == (F.q % 4 == 1)


def _power(F, x, n):
    """x^n for n >= 0, by square and multiply on F.mul."""
    out = 1
    while n:
        if n & 1:
            out = F.mul(out, x)
        x, n = F.mul(x, x), n >> 1
    return out


def test_is_square_matches_euler_criterion(F):
    for x in F.units():
        assert F.is_square(x) == (_power(F, x, (F.q - 1) // 2) == 1)
    with pytest.raises(ValueError):
        F.is_square(0)


def test_square_class_multiplicative(F):
    for x in F.units():
        for y in F.units():
            assert F.is_square(F.mul(x, y)) == (F.is_square(x) == F.is_square(y))


def test_sqrt(F):
    assert F.sqrt(0) == 0
    for x in F.units():
        r = F.sqrt(x)
        if F.is_square(x):
            assert r is not None and F.mul(r, r) == x
            assert r <= F.neg(r)  # the smaller-encoded root
        else:
            assert r is None


def test_sqrt_golden():
    F7 = make_field(7)
    assert F7.sqrt(2) == 3
    assert F7.sqrt(3) is None


def test_is_square_examples():
    assert make_field(5).is_square(4)
    assert not make_field(7).is_square(3)


def test_eps_shift_solvable_golden():
    F7, F5 = make_field(7), make_field(5)
    # smallest witnesses, recomputed by exhaustive scan
    assert eps_shift_solvable(F7, 1, 1, 3) == 2
    assert eps_shift_solvable(F5, 1, 1, 1) is None
    assert eps_shift_solvable(F7, 1, 2, 2) == 3
    with pytest.raises(ValueError):
        eps_shift_solvable(F7, 0, 1, 1)


def test_eps_shift_solvable_rejects_non_elements():
    F7 = make_field(7)
    for args in ((-1, 1, 1), (9, 1, 1), (1, 1, True)):
        with pytest.raises(ValueError):
            eps_shift_solvable(F7, *args)


def test_div_inverts_mul(F):
    for y in F.units():
        for x in F.elements():
            assert F.mul(F.div(x, y), y) == x
    with pytest.raises(ZeroDivisionError):
        F.div(1, 0)


def test_eps_shift_witness_satisfies_equation(F):
    for e1 in (1, F.nonsquare_rep):
        for e2 in (1, F.nonsquare_rep):
            for eps in (1, F.nonsquare_rep):
                a = eps_shift_solvable(F, e1, e2, eps)
                brute = [x for x in F.units()
                         if (v := F.add(e2, F.mul(e1, F.mul(x, x))))
                         and F.same_class(v, eps)]
                if a is None:
                    assert not brute
                else:
                    assert a == brute[0]
                    v = F.add(e2, F.mul(e1, F.mul(a, a)))
                    assert v != 0 and F.same_class(v, eps)


def test_u_invariant_every_ternary_form_isotropic(F):
    """Diagonal 3-variable forms over F_q always have a nonzero zero."""
    if F.q > 13:
        pytest.skip("exhaustive check capped at q = 13")
    sq0 = {F.mul(x, x) for x in F.elements()}
    for al in F.units():
        for be in F.units():
            vals = {F.add(F.mul(al, s), F.mul(be, t)) for s in sq0 for t in sq0}
            for ga in F.units():
                # z = 1 solutions, else z = 0 with x, y not both zero
                ok = F.neg(ga) in vals or (
                    F.is_square(F.neg(F.div(be, al))))
                assert ok, (al, be, ga)


@given(data=st.data())
def test_field_ops_random_associativity(data):
    F = make_field(*data.draw(st.sampled_from([(11, 1), (13, 1), (3, 2)])))
    x = data.draw(st.integers(0, F.q - 1))
    y = data.draw(st.integers(0, F.q - 1))
    z = data.draw(st.integers(0, F.q - 1))
    assert F.mul(F.mul(x, y), z) == F.mul(x, F.mul(y, z))
    assert F.add(F.add(x, y), z) == F.add(x, F.add(y, z))
    assert F.mul(x, F.add(y, z)) == F.add(F.mul(x, y), F.mul(x, z))


def test_square_data_rejects_non_elements():
    """is_square, sqrt, inv, square_class and the dividend of div
    reject an encoding outside 0..q-1 as of does, instead of reading a
    negative one through Python's negative list index (at q = 5, -1 would
    pass for the square 4)."""
    F5 = make_field(5)
    for fn in (F5.is_square, F5.sqrt, F5.inv, F5.square_class,
               lambda v: F5.div(v, 1)):
        for v in (-1, -4, 5, 7):
            with pytest.raises(ValueError):
                fn(v)
    assert (F5.is_square(4), F5.sqrt(4), F5.inv(4), F5.sqrt(0)) == (True, 2, 4, 0)
    with pytest.raises(ValueError):
        F5.is_square(0)
    with pytest.raises(ZeroDivisionError):
        F5.inv(0)
