"""Field construction, square classes, and the quadratic solvers."""

import gc
import importlib
import pickle
import pkgutil
import weakref

import pytest
from hypothesis import given, strategies as st

import sl2prod
from sl2prod import (diff_of_squares, eps_shift_solvable, make_field,
                     parse_descriptor, sum_of_two_nonzero_squares, verify_laws)
from sl2prod.classes import class_index
from sl2prod.field import LIVE_FIELDS


def test_make_field_golden():
    F5 = make_field(5)
    assert (F5.p, F5.a, F5.q) == (5, 1, 5)
    assert F5.square_set == {1, 4}
    F7 = make_field(7)
    assert F7.square_set == {1, 2, 4}
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


def test_parse_descriptor():
    assert parse_descriptor("7").q == 7
    assert parse_descriptor("3^2").q == 9
    with pytest.raises(ValueError):
        parse_descriptor("six")
    with pytest.raises(ValueError):
        parse_descriptor("2^3")


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


def _q7_class_indices():
    """Weak references to the class indices of a fresh q = 7 context after
    its law tables, brute tables and verification reports are built."""
    for p in OTHER_PRIMES:      # a context for q = 7 that no one else holds
        make_field(p)
    F = make_field(7)
    refs = []
    for kind in ("sl2", "psl2"):
        assert verify_laws(F, kind).ok
        C = class_index(F, kind)
        assert C.law is not None and C.brute is not None
        refs.append(weakref.ref(C))
    assert class_index(F, "sl2").group is not None
    return refs


def test_tables_die_with_their_field():
    refs = _q7_class_indices()
    for p in OTHER_PRIMES:
        make_field(p)
    gc.collect()
    assert [r() for r in refs] == [None, None]


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
    assert len(F.square_set) == (F.q - 1) // 2
    assert 1 in F.square_set
    assert F.nonsquare_rep not in F.square_set
    assert F.is_square(F.neg(1)) == (F.q % 4 == 1)


def test_is_square_matches_euler_criterion(F):
    for x in F.units():
        assert F.is_square(x) == (F.power(x, (F.q - 1) // 2) == 1)
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


def test_diff_of_squares(F):
    for eps in F.units():
        if eps in (1, F.neg(1)):
            with pytest.raises(ValueError):
                diff_of_squares(F, eps)
            continue
        b, c = diff_of_squares(F, eps)
        assert b != 0 and c != 0
        assert F.sub(F.mul(b, b), F.mul(c, c)) == eps


def test_diff_of_squares_golden():
    assert diff_of_squares(make_field(7), 3) == (2, 6)
    assert diff_of_squares(make_field(5), 3) == (2, 4)


def test_sum_of_two_nonzero_squares(F):
    for eps in F.units():
        got = sum_of_two_nonzero_squares(F, eps)
        brute = [(x, y) for x in F.units() for y in F.units()
                 if F.add(F.mul(x, x), F.mul(y, y)) == eps]
        if got is None:
            assert not brute
        else:
            assert got == brute[0]


def test_sum_of_two_nonzero_squares_golden():
    F7, F5 = make_field(7), make_field(5)
    assert sum_of_two_nonzero_squares(F7, 3) == (1, 3)
    assert sum_of_two_nonzero_squares(F5, 2) == (1, 1)
    assert sum_of_two_nonzero_squares(F7, 4) == (3, 3)


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
