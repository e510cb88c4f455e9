"""Oracle internals: enumeration, fibers, brute products, covering numbers,
commutator sets."""

import functools
import io
import itertools
import json
import math
import operator
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from types import SimpleNamespace

import pytest

from sl2prod import (EnumerationBoundError, PSLLabel, SL2Label,
                     all_classes_psl, all_classes_sl2, brute_commutator_set,
                     brute_pair_product, brute_pair_product_psl,
                     brute_triple_product, classes, classify_sl2,
                     commutator_expressible_psl, covering_numbers,
                     enumerate_sl2, iter_sl2, laws, make_field, mat_det,
                     mat_mul, oracle, psl_classify, psl_lift_pair,
                     psl_project, psl_triple_product, representative,
                     sl2_triple_product, verify_laws)
from sl2prod.classes import ProductTable, class_index, negate_class
from sl2prod.cli import DEFAULT_SUITE, main as cli_main
from sl2prod.field import FieldCtx
from sl2prod.mat2 import iter_trace_fiber

from conftest import ODD_PRIME_POWERS_TO_31, ODD_PRIME_POWERS_TO_61, _qid

F5, F7 = make_field(5), make_field(7)


def test_enumeration_counts():
    for F, order in ((F5, 120), (F7, 336), (make_field(3, 2), 720)):
        T = enumerate_sl2(F)
        assert sum(len(T.fiber(L)) for L in all_classes_sl2(F)) == order


def test_enumeration_bound(no_group_table):
    """Above oracle.ENUMERATION_BOUND verify_laws and covering_numbers raise
    EnumerationBoundError before a table is built, and up to it they build
    no group table: the brute fill reads the field alone."""
    F257 = make_field(257)
    for call in (lambda: verify_laws(F257, "sl2"), lambda: covering_numbers(F257, "psl2")):
        with pytest.raises(EnumerationBoundError, match="257"):
            call()
    assert class_index(F257, "sl2").brute is None
    assert issubclass(EnumerationBoundError, ValueError)
    F = FieldCtx(7, 1)
    assert verify_laws(F, "sl2").ok and covering_numbers(F, "psl2") == (3, 4)


def test_bound_refused_before_anything_is_built():
    """GroupTable itself, and so enumerate_sl2, refuses a q above the bound,
    and verify_laws and covering_numbers refuse it before they build a class
    index."""
    for call in (oracle.GroupTable, enumerate_sl2):
        with pytest.raises(EnumerationBoundError, match="257"):
            call(FieldCtx(257, 1))
    for call in (verify_laws, covering_numbers):
        F = FieldCtx(257, 1)
        with pytest.raises(EnumerationBoundError, match="257"):
            call(F, "sl2")
        assert F.memo == {}, call


def test_enumeration_bound_boundary(monkeypatch):
    """q equal to the bound enumerates; the next odd prime above it does not."""
    monkeypatch.setattr(oracle, "ENUMERATION_BOUND", 7)
    assert enumerate_sl2(F7).field is F7
    with pytest.raises(EnumerationBoundError):
        enumerate_sl2(make_field(11))


def test_fibers_partition(F):
    """Each fiber holds its class's elements in the order of iter_sl2, which
    matters because a counterexample is the first match in a fiber."""
    T = enumerate_sl2(F)
    labels = all_classes_sl2(F)
    assert sum(len(T.fiber(L)) for L in labels) == F.q * (F.q ** 2 - 1)
    classified = [(m, classify_sl2(F, m)) for m in iter_sl2(F)]
    for L in labels:
        assert T.fiber(L) == [m for m, K in classified if K == L], L


def test_group_table_memory(monkeypatch):
    """Building the group table classifies nothing and keeps nothing but its
    field: every fiber, those of trace +-2 too, is read from its trace when
    asked for.  At q = 61 the table holds under 1 KiB, where keeping the
    fibers of trace +-2 (about 2q^2 elements) took 0.6 MiB and all q^3 - q
    elements 17 MiB."""
    F = FieldCtx(61, 1)
    all_classes_sl2(F)      # the class index is the field's, not the table's

    def classify_called(*args, **kwargs):
        raise AssertionError("the group table classified an element")
    with monkeypatch.context() as patch:
        patch.setattr(oracle, "classify_sl2", classify_called)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            T = oracle.GroupTable(F)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
    assert vars(T) == {"field": F}
    assert sum(len(T.fiber(L)) for L in all_classes_sl2(F)
               if not L.is_semisimple) == 2 * 61 ** 2
    assert held < 2 ** 10, held


@pytest.mark.parametrize("name", ["verify_laws", "covering_numbers",
                                  "brute_triple_product", "brute_commutator_set",
                                  "triple_containment_expected"])
def test_bad_kind_rejected(name, monkeypatch):
    """A kind other than sl2 and psl2 is a ValueError, raised before the
    brute fill starts, and leaves no class index behind in the field's memo."""
    T, U1 = enumerate_sl2(F7), SL2Label("U", 1)
    call = {"verify_laws": lambda: verify_laws(F7, "SL2"),
            "covering_numbers": lambda: covering_numbers(F7, "SL2"),
            "brute_triple_product": lambda: brute_triple_product(T, U1, U1, U1, kind="x"),
            "brute_commutator_set": lambda: brute_commutator_set(T, "bogus"),
            "triple_containment_expected":
                lambda: oracle.triple_containment_expected(F7, "x", (U1, U1, U1))}[name]
    keys = set(F7.memo)

    def direct_columns_called(*args, **kwargs):
        raise AssertionError("filled before the kind was checked")
    monkeypatch.setattr(oracle, "_direct_columns", direct_columns_called)
    with pytest.raises(ValueError, match="kind must be sl2 or psl2"):
        call()
    assert set(F7.memo) == keys


def test_brute_pair_golden():
    out = brute_pair_product(enumerate_sl2(F5), SL2Label("U", 1), SL2Label("U", 1))
    assert sorted(map(str, out)) == ["I", "NSS[1]", "NU[1]", "U[2]"]
    T7 = enumerate_sl2(F7)
    out = brute_pair_product(T7, SL2Label("SS", 1), SL2Label("SS", 1))
    assert out == set(all_classes_sl2(F7)) - {SL2Label("-I")}
    for L in all_classes_sl2(F7):
        assert brute_pair_product(T7, SL2Label("I"), L) == {L}


def _count_passes(monkeypatch, classified=None):
    """Record (class, missing rows, rows walked) for every column that takes
    a group pass.  The rows given as known are not missing; of the missing
    rows, those the pass sets to the negated mask of their partner are not
    walked.  A walked row of trace +-2 reads its class through one
    oracle._traces call, and a walked semisimple row its chunk masks through
    one oracle._saturate call, so the rows walked are counted as those
    calls.  The list classified, if given, gets (class, classify_sl2 calls)
    for each pass."""
    passes, direct_columns = [], oracle._direct_columns
    calls = [0, 0]

    def counting(k, call):
        def counted(*args, **kwargs):
            calls[k] += 1
            return call(*args, **kwargs)
        return counted

    def counted(F, negate=None):
        direct = direct_columns(F, negate)
        n = len(all_classes_sl2(F))

        def column(j, known=None):
            before, walked = calls
            out = direct(j, known)
            passes.append((j, n - len(known or {}), calls[1] - walked))
            if classified is not None:
                classified.append((j, calls[0] - before))
            return out
        return column
    monkeypatch.setattr(oracle, "_direct_columns", counted)
    monkeypatch.setattr(oracle, "classify_sl2", counting(0, oracle.classify_sl2))
    for name in ("_traces", "_saturate"):
        monkeypatch.setattr(oracle, name, counting(1, getattr(oracle, name)))
    return passes


# column passes of the symmetric fill: one per pair of classes under
# negation, but none for {I, -I}; (q+3)/2 at every q
SYMMETRIC_PASSES = {(5, 1): 4, (7, 1): 5, (3, 2): 6, (13, 1): 8, (5, 2): 14,
                    (3, 3): 15}


@pytest.mark.parametrize("pa", SYMMETRIC_PASSES, ids=_qid)
def test_symmetric_table_matches_direct_fill(monkeypatch, pa):
    """Every SL2 column filled by its own group pass equals the column the
    symmetric fill gives, and so do the PSL2 cells projected from each."""
    F = make_field(*pa)
    n = len(all_classes_sl2(F))
    direct = oracle._direct_columns(F)
    want = [direct(j) for j in range(n)]
    passes = _count_passes(monkeypatch)
    S = oracle._sl2_products(F)
    assert [[S.pair(i, j) for i in range(n)] for j in range(n)] == want
    assert len(passes) == SYMMETRIC_PASSES[pa] == (F.q + 3) // 2
    got = oracle._psl_products(F, S)
    ref = oracle._psl_products(F, ProductTable(S.classes, lambda i, j: want[j][i]))
    m = len(all_classes_psl(F))
    assert [[got.pair(i, j) for i in range(m)] for j in range(m)] == \
        [[ref.pair(i, j) for i in range(m)] for j in range(m)]


def test_certify_column_passes(monkeypatch):
    """verify at q = 27 and 31, both groups and covering included, makes
    15 + 17 column passes, where a pass per column made 31 + 35.  Those
    passes miss 527 rows, where every row of every pass took 15 * 31 +
    17 * 35 = 1060, and walk 273 of them, one of each negation pair."""
    passes = _count_passes(monkeypatch)
    for F in (make_field(3, 3), make_field(31)):
        for kind in ("sl2", "psl2"):
            class_index(F, kind).brute = None
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind).ok
    assert len(passes) == 32
    assert sum(missing for _, missing, _ in passes) == 527
    assert sum(walked for _, _, walked in passes) == 273


def test_certify_fold_walks(monkeypatch):
    """verify at q = 27 and 31, both groups and covering included, from fresh
    fields, walks at most 2385 masks through classes.bits: a key folds its
    brute cell once, for every k at once, and its law cell only where the law
    table has no closed form for it; covering numbers fold each mask once.
    One compose per (mask, class) walked 9287, and before that a fold that
    took its central rows first walked two parts, 16442."""
    walks, bits = [], oracle.bits
    monkeypatch.setattr(oracle, "bits", lambda mask: walks.append(mask) or bits(mask))
    monkeypatch.setattr(classes, "bits", oracle.bits)
    for pa in ((3, 3), (31, 1)):
        F = FieldCtx(*pa)
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind).ok
    assert len(walks) <= 2385


def test_certify_trace_walks(monkeypatch):
    """The SL2 fills at q = 27 and 31, from fresh fields, walk 2532 trace
    elements tr(x y), all in the 6 rows of trace +-2 that the passes of U[1]
    and U[nu] walk, and read 2508 chunk masks in their 267 walked
    semisimple rows: a semisimple row reads the trace set of each chunk of
    its fiber as one mask, chunk 0 first, and only until it holds every
    semisimple trace.  When a semisimple row read its traces element by
    element, a chunk of q at a time until all q had been seen, the fills
    walked 73875 elements; with the dual walks of the passes of U[1] and
    U[nu] as well, 80635; packed fibers in stride q walked 82573, and
    walking each fiber whole, both classes of each dual pair included,
    206222."""
    walked, read, traces, saturate = [], [], oracle._traces, oracle._saturate

    def counted_traces(*args):
        out = traces(*args)
        walked.append(len(out))
        return out

    def counted_saturate(chunks, t, full):
        def counted(t):
            for mask in chunks(t):
                read.append(t)
                yield mask
        return saturate(counted, t, full)
    monkeypatch.setattr(oracle, "_traces", counted_traces)
    monkeypatch.setattr(oracle, "_saturate", counted_saturate)
    for pa in ((3, 3), (31, 1)):
        oracle._sl2_products(FieldCtx(*pa))
    assert (len(walked), sum(walked)) == (6, 2532)
    assert len(read) == 2508


def _walked_rows(monkeypatch, F):
    """Record each row that a walk reads.  A row of trace +-2 is recorded
    as (class, us, vs), its packed elements as oracle._traces reads them:
    its first element x = [[a, b], [c, d]], with u = a*q + b and
    v = c*q + d, names it.  A semisimple row is recorded as (class, None,
    None), the class of the trace that oracle._saturate reads its chunk
    masks for."""
    walked, traces, saturate = [], oracle._traces, oracle._saturate
    C = class_index(F, "sl2")
    semisimple = {L.param: L for L in C.labels if L.is_semisimple}

    def recorded_traces(ADD, left, right, us, vs):
        x = (*divmod(us[0], F.q), *divmod(vs[0], F.q))
        walked.append((classify_sl2(F, x), us, vs))
        return traces(ADD, left, right, us, vs)

    def recorded_saturate(chunks, t, full):
        walked.append((semisimple[t], None, None))
        return saturate(chunks, t, full)
    monkeypatch.setattr(oracle, "_traces", recorded_traces)
    monkeypatch.setattr(oracle, "_saturate", recorded_saturate)
    return walked


def _chunks_by_b(F, t):
    """The elements of trace t from iter_trace_fiber, grouped by b: list b
    is chunk b of the fill."""
    chunks = [[] for _ in range(F.q)]
    for x in iter_trace_fiber(F, t):
        chunks[x[1]].append(x)
    return chunks


def _read_whole(monkeypatch):
    """Make every semisimple row read all its chunk masks, and return the
    list that gets (trace, [chunk masks]) of each row read."""
    rows = []

    def whole(chunks, t, full):
        rows.append((t, list(chunks(t))))
        return functools.reduce(operator.or_, rows[-1][1])
    monkeypatch.setattr(oracle, "_saturate", whole)
    return rows


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61, ids=_qid)
def test_chunks_hold_the_fiber(monkeypatch, pa):
    """Each class is walked on its own: every other row is known, so the
    pass of I walks that row alone, and reads no other class, those of
    trace +-2 included.  A class of trace +-2, those of +-I included, is
    read as its packed elements, which are exactly its GroupTable fiber,
    each element once.  A semisimple class of trace t is read as q chunk
    masks, chunk b for b = 0 ... q - 1, which against I are {t} where the
    fiber holds an element of that b and empty where it holds none (chunk
    0 of an NSS class)."""
    F = FieldCtx(*pa)
    T = enumerate_sl2(F)
    C = class_index(F, "sl2")
    n = len(C.labels)
    rows = _read_whole(monkeypatch)
    walked = _walked_rows(monkeypatch, F)
    for i, L in enumerate(C.labels):
        walked.clear()
        rows.clear()
        oracle._direct_columns(F)(0, {k: 0 for k in range(n) if k != i})
        assert [K for K, _, _ in walked] == [L]
        if L.is_semisimple:
            chunks = _chunks_by_b(F, L.param)
            assert rows == [(L.param, [1 << L.param if chunk else 0 for chunk in chunks])]
            assert any(chunks[0]) == (L.kind == "SS")
        else:
            _, us, vs = walked[0]
            got = [(*divmod(u, F.q), *divmod(v, F.q)) for u, v in zip(us, vs)]
            assert sorted(got) == sorted(T.fiber(L)), str(L)


def _sl2_passes(monkeypatch, F):
    """The passes of the SL2 fill of F, as _count_passes records them."""
    with monkeypatch.context() as patched:
        passes = _count_passes(patched)
        oracle._sl2_products(F)
    return passes


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61, ids=_qid)
def test_chunk_masks_are_the_literal_traces(monkeypatch, pa):
    """Completing the square gives each chunk's trace set exactly: for
    every semisimple class, every representative y that a pass of the fill
    walks and every chunk b, the chunk's mask equals the set of tr(x y)
    over the elements x of the fiber with that b, read one by one from
    iter_trace_fiber (the mask of the empty chunk 0 of an NSS class is 0).
    Each row is read whole, its saturating stop turned off."""
    F = FieldCtx(*pa)
    q = F.q
    C = class_index(F, "sl2")
    n = len(C.labels)
    passes = [j for j, _, _ in _sl2_passes(monkeypatch, F)]
    rows = _read_whole(monkeypatch)
    direct = oracle._direct_columns(F)
    add, mul = ([[op(x, z) for z in range(q)] for x in range(q)] for op in (F.add, F.mul))
    fibers = {L: _chunks_by_b(F, L.param) for L in C.labels if L.is_semisimple}
    for j in passes:
        e, f, g, h = (mul[v] for v in representative(F, C.labels[j]))     # x -> x e, ...
        for L, chunks in fibers.items():
            rows.clear()
            direct(j, {k: 0 for k in range(n) if k != C.at(L)})
            want = [sum({1 << add[add[e[a]][g[b]]][add[f[c]][h[d]]] for a, b, c, d in chunk})
                    for chunk in chunks]
            assert rows == [(L.param, want)], (str(C.labels[j]), str(L))


def test_sl2_fill_memory():
    """The SL2 fill at q = 61 builds no chunk of a semisimple fiber and
    keeps only the packed classes of trace +-2 that its walks reach: its
    tracemalloc peak stays at 0.5 MiB or less (0.40 MiB measured with
    Python 3.11), where keeping the semisimple chunks that its walks
    reached took 1.27 MiB, under a bound of 4 MiB, and packing every fiber
    it walked 9.3 MiB."""
    F = FieldCtx(61, 1)
    tracemalloc.start()
    try:
        oracle._sl2_products(F)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 ** 19, peak


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61, ids=_qid)
def test_saturating_walk_matches_full_walk(monkeypatch, pa):
    """The SL2 table whose semisimple rows stop reading chunk masks once
    they hold every semisimple trace equals the one whose rows read every
    chunk mask of the fiber."""
    F = FieldCtx(*pa)
    n = len(all_classes_sl2(F))
    got = oracle._sl2_products(F)
    rows = _read_whole(monkeypatch)
    want = oracle._sl2_products(F)
    assert len(rows) >= (F.q - 1) // 2
    assert [[got._fill(i, j) for i in range(n)] for j in range(n)] == \
        [[want._fill(i, j) for i in range(n)] for j in range(n)]


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61, ids=_qid)
def test_brute_fill_is_symmetric(pa):
    """The brute tables' raw fills give C_i * C_j = C_j * C_i, which
    ProductTable.pair takes for granted when it fills one order for both.
    The SL2 columns come from direct passes and their negation images, so a
    cell and its transpose are derived apart; the PSL2 projection is read
    from the raw SL2 fill in the order it asks."""
    F = FieldCtx(*pa)
    S = oracle._sl2_products(F)
    P = oracle._psl_products(F, SimpleNamespace(classes=S.classes, pair=S._fill))
    for table in (S, P):
        n = len(table.classes.labels)
        for i, j in itertools.combinations(range(n), 2):
            assert table._fill(i, j) == table._fill(j, i), (table.classes.name, i, j)


def test_certify_law_evaluations(monkeypatch):
    """From fresh fields, verify_laws for both groups at 27 and 31 asks the
    SL2 law once per cell i <= j (496 + 630), and 3 more times per field
    for the U * U law behind NU * NU, and the PSL2 law once per cell i <= j
    (136 + 171)."""
    calls = Counter()
    for name in ("_sl2_pair", "_psl_pair"):
        law = getattr(laws, name)
        monkeypatch.setattr(laws, name, lambda *args, law=law, name=name:
                            calls.update([name]) or law(*args))
    for pa in ((3, 3), (31, 1)):
        F = FieldCtx(*pa)
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind).ok
    assert calls == {"_sl2_pair": 1132, "_psl_pair": 307}


@pytest.mark.parametrize("pa", [(3, 3), (31, 1)], ids=["q27", "q31"])
def test_only_the_unipotent_pass_classifies(monkeypatch, pa):
    """Of the symmetric fill's passes, only those of U[1] and U[nu] walk
    rows of trace +-2, so only they classify products, each at most 2q of
    them (the x y of trace +-2 over the walked rows x of U[1] and U[nu]);
    every later pass knows the rows of trace +-2 and reads their duals
    there.  When those two passes also walked every class z of trace +-2
    against y^-1, each classified up to 4q."""
    F = make_field(*pa)
    classified = []
    _count_passes(monkeypatch, classified)
    oracle._sl2_products(F)
    C = class_index(F, "sl2")
    unipotent = [C.at(SL2Label("U", 1)), C.at(SL2Label("U", F.nonsquare_rep))]
    assert [j for j, calls in classified if calls] == unipotent
    assert all(dict(classified)[j] <= 2 * F.q for j in unipotent)


@pytest.mark.parametrize("pa", [*DEFAULT_SUITE, (5, 2)], ids=_qid)
def test_direct_columns_match_literal_products(pa):
    """Each column of the direct pass, with no rows known, is row by row the
    class mask of x * y over x in C_i, y the representative of C_j; so
    the rows of trace +-2 against semisimple columns are checked too, and
    the rows each pass sets from their negation partner, at q = 25 in a
    field of degree 2 too."""
    F = make_field(*pa)
    T = enumerate_sl2(F)
    C = class_index(F, "sl2")
    direct = oracle._direct_columns(F)
    for j, L in enumerate(C.labels):
        y = representative(F, L)
        want = [0] * len(C.labels)
        for i, D in enumerate(C.labels):
            for x in T.fiber(D):
                want[i] |= 1 << C.at(classify_sl2(F, mat_mul(F, x, y), check=False))
        assert direct(j) == want, str(L)


@pytest.mark.parametrize("pa", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)], ids=_qid)
def test_direct_pass_reads_each_fiber_once(monkeypatch, pa):
    """A fill reads no class fiber through _fiber: a class of trace +-2 is
    packed from its trace once, and kept, so every later walk of it, in the
    same pass or another, reads the same objects, and a semisimple class is
    read as chunk masks, built from no element.  A pass with no known rows
    walks no semisimple row whose negation partner is the lesser index (the
    pass walks the partner and negates its mask).  Of the classes of trace
    +-2, the passes with no known rows walk exactly I, U[1] and U[nu], and
    negate them for -I, NU[1] and NU[nu]."""
    F = make_field(*pa)
    C = class_index(F, "sl2")

    def fiber_read(F, L):
        raise AssertionError(f"the fill read the fiber of {L}")
    monkeypatch.setattr(oracle, "_fiber", fiber_read)
    oracle._sl2_products(F)
    walked = _walked_rows(monkeypatch, F)
    direct = oracle._direct_columns(F)
    first = next(k for k, L in enumerate(C.labels) if L.is_semisimple)
    direct(first)
    negated = {L for L in C.labels
               if L.is_semisimple and C.at(negate_class(F, L)) < C.at(L)}
    assert negated and not negated & {L for L, _, _ in walked}
    for j in range(len(C.labels)):
        direct(j)
    assert {L for L, _, _ in walked if not L.is_semisimple} == \
        {SL2Label("I"), SL2Label("U", 1), SL2Label("U", F.nonsquare_rep)}
    packed = [(L, us, vs) for L, us, vs in walked if us is not None]
    kept = {}
    for L, us, vs in packed:
        kept_us, kept_vs = kept.setdefault(L, (us, vs))
        assert kept_us is us and kept_vs is vs, str(L)
    assert len(kept) < len(packed)


@pytest.mark.parametrize("pa", [(5, 1), (7, 1), (3, 2), (5, 2), (3, 3)], ids=_qid)
def test_a_pass_reads_only_the_rows_it_walks(monkeypatch, pa):
    """Every row a pass reads is a row that the pass walks, and each walked
    row is read once: the rows walked are the missing rows whose negation
    partner is not a lesser missing row (a class that is its own negation
    is walked).  So a class of trace +-2 is read only as a row of
    its own, never for a dual of another row.  Each pass of the symmetric
    fill is checked, then each pass with no rows known."""
    F = make_field(*pa)
    C = class_index(F, "sl2")
    n = len(C.labels)
    neg = [C.at(negate_class(F, L)) for L in C.labels]
    walked = _walked_rows(monkeypatch, F)
    passes, direct_columns = [], oracle._direct_columns

    def checked(F, negate=None):
        direct = direct_columns(F, negate)

        def column(j, known=None):
            missing = set(range(n)) - set(known or {})
            walked.clear()
            out = direct(j, known)
            rows = {C.labels[i] for i in missing if neg[i] not in missing or neg[i] >= i}
            assert {L for L, _, _ in walked} == rows, str(C.labels[j])
            assert len(walked) == len(rows), str(C.labels[j])
            passes.append(j)
            return out
        return column
    monkeypatch.setattr(oracle, "_direct_columns", checked)
    oracle._sl2_products(F)
    direct = oracle._direct_columns(F)
    for j in range(n):
        direct(j)
    assert len(passes) == (F.q + 3) // 2 + n


@pytest.mark.parametrize("F", [F7, make_field(3, 2)], ids=["q7", "q9"])
@pytest.mark.parametrize("semisimple", [False, True], ids=["U1", "SS"])
def test_known_rows_stay_as_given(monkeypatch, F, semisimple):
    """Rows given as known, true cells of the brute table, come back as
    given, every other row as the pass with no rows known fills it, and no
    known semisimple row is read.  The column is U[1] or the
    first semisimple class; the known rows are every row of trace +-2 and
    every other semisimple row, which a pass reads its duals from, or I and
    -I alone, as in the pass of U[1]."""
    C = class_index(F, "sl2")
    n = len(C.labels)
    S = oracle._sl2_products(F)
    j = next(k for k, L in enumerate(C.labels) if L.is_semisimple) if semisimple \
        else C.at(SL2Label("U", 1))
    want = oracle._direct_columns(F)(j)
    walked = _walked_rows(monkeypatch, F)
    for rows in ([i for i, L in enumerate(C.labels) if not L.is_semisimple or i % 2],
                 [C.at(SL2Label("I")), C.at(SL2Label("-I"))]):
        known = {i: S.pair(i, j) for i in rows}
        walked.clear()
        got = oracle._direct_columns(F)(j, known)
        for i in range(n):
            assert got[i] == known.get(i, want[i]), (rows, str(C.labels[i]))
        assert walked
        assert not {C.labels[i] for i in rows if C.labels[i].is_semisimple} & \
            {L for L, _, _ in walked}


def test_brute_pair_symmetric(small_F):
    T = enumerate_sl2(small_F)
    labs = all_classes_sl2(small_F)
    for L1 in labs:
        for L2 in labs:
            assert brute_pair_product(T, L1, L2) == brute_pair_product(T, L2, L1)


def literal_pair_product(T, L1, L2):
    """The reference for the SL2 product table: the literal double loop over
    both fibers with mat_mul and classify_sl2."""
    F = T.field
    xs, ys = T.fiber(L1), T.fiber(L2)
    return frozenset(classify_sl2(F, mat_mul(F, x, y), check=False)
                     for x in xs for y in ys)


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61[:5], ids=_qid)
def test_dual_read_matches_literal_products(pa):
    """The rule by which every walked semisimple row reads its classes of
    trace +-2, against literal products: for semisimple C_i, C_j and a
    class D of trace +-2, D is in C_i * C_j exactly when C_i is in
    C_j * D^-1 (from x y = d, x^-1 = y d^-1, and C_i is real).
    C_i * C_j = C_j * C_i, as x y = y (y^-1 x y), so each unordered pair is
    multiplied once and read both ways.  Each fiber is built once.  A cell
    takes the trace of every product x y literally and classifies those of
    trace +-2, the only classes of it that are asserted; every product of
    C_j * D^-1 is classified."""
    F = make_field(*pa)
    T = enumerate_sl2(F)
    fibers = {L: T.fiber(L) for L in all_classes_sl2(F)}
    semisimple = [L for L in fibers if L.is_semisimple]
    duals = [D for D in fibers if not D.is_semisimple]
    pm2 = {F.scalar(2), F.neg(F.scalar(2))}
    add, mul = F.add, [[F.mul(a, e) for e in range(F.q)] for a in range(F.q)]

    def product_classes(xs, ys, traces=None):
        """The classes of the x y, or of those whose trace ae + bg + cf + dh
        is in traces."""
        out = set()
        for x in xs:
            a, b, c, d = (mul[v] for v in x)
            out.update(classify_sl2(F, mat_mul(F, x, y), check=False) for y in ys
                       if traces is None or
                       add(add(a[y[0]], b[y[2]]), add(c[y[1]], d[y[3]])) in traces)
        return out
    right = {(B, D): product_classes(fibers[B], fibers[classes.inverse_class(F, D)])
             for B in semisimple for D in duals}
    for A, B in itertools.combinations_with_replacement(semisimple, 2):
        cell = product_classes(fibers[A], fibers[B], pm2)
        for D in duals:
            assert (D in cell) == (A in right[B, D]) == (B in right[A, D]), \
                (str(A), str(B), str(D))


def test_paranoid_mode_agrees(small_F):
    """Every cell of the SL2 product table equals the literal double loop."""
    T = enumerate_sl2(small_F)
    for L1 in all_classes_sl2(small_F):
        for L2 in all_classes_sl2(small_F):
            assert brute_pair_product(T, L1, L2) == \
                literal_pair_product(T, L1, L2), (str(L1), str(L2))


@pytest.mark.parametrize("F", [F5, F7], ids=["q5", "q7"])
def test_psl_projection_matches_literal_fibers(F):
    """Each projected PSL2 cell equals the projection of every product of
    the full SL2 fibers over both classes (both lifts of each)."""
    T = enumerate_sl2(F)
    for P1 in all_classes_psl(F):
        for P2 in all_classes_psl(F):
            left = [x for D in set(psl_lift_pair(F, P1)) for x in T.fiber(D)]
            right = [y for D in set(psl_lift_pair(F, P2)) for y in T.fiber(D)]
            literal = {psl_project(F, classify_sl2(F, mat_mul(F, x, y), check=False))
                       for x in left for y in right}
            assert brute_pair_product_psl(T, P1, P2) == literal, (str(P1), str(P2))


def test_composed_triple_matches_literal_q5():
    """The fold over the brute and the law tables against literal triple
    products, for every ordered SL2 and PSL2 triple at q = 5.  PSL2 triples
    multiply the fibers over both lifts of each class and project."""
    T = enumerate_sl2(F5)

    def literal(lefts, rights, thirds, name):
        products = {mat_mul(F5, x, y) for x in lefts for y in rights}
        return {name(classify_sl2(F5, mat_mul(F5, m, z), check=False))
                for m in products for z in thirds}

    labs = all_classes_sl2(F5)
    for L1, L2, L3 in itertools.product(labs, repeat=3):
        want = literal(T.fiber(L1), T.fiber(L2), [representative(F5, L3)],
                       lambda L: L)
        assert brute_triple_product(T, L1, L2, L3) == want, (L1, L2, L3)
        assert sl2_triple_product(F5, L1, L2, L3) == want, (L1, L2, L3)

    def over(P):
        return [x for D in set(psl_lift_pair(F5, P)) for x in T.fiber(D)]

    project = lambda L: psl_project(F5, L)
    for P1, P2, P3 in itertools.product(all_classes_psl(F5), repeat=3):
        want = literal(over(P1), over(P2),
                       [representative(F5, D) for D in psl_lift_pair(F5, P3)],
                       project)
        assert brute_triple_product(T, P1, P2, P3, kind="psl2") == want, (P1, P2, P3)
        assert psl_triple_product(F5, P1, P2, P3) == want, (P1, P2, P3)


def test_verify_reports(small_F):
    for kind in ("sl2", "psl2"):
        rep = verify_laws(small_F, kind)
        assert rep.ok
        n = len(all_classes_sl2(small_F)) if kind == "sl2" \
            else len(all_classes_psl(small_F))
        assert rep.pair_count == n * n
        d = rep.to_dict()
        assert d["ok"] and d["pairs"]["failures"] == []


def test_verify_pair_count_example():
    assert verify_laws(F7, "sl2").pair_count == 121


def test_covering_numbers_golden():
    assert covering_numbers(F7, "psl2") == (3, 4)
    assert covering_numbers(make_field(3, 2), "sl2") == (3, 4)
    # SL2(5) is the documented outlier: recorded, never asserted to be (3, 4)
    cn5, ecn5 = covering_numbers(F5, "sl2")
    assert (cn5, ecn5) != (3, 4) and cn5 is not None and ecn5 is not None


def test_brute_commutator_golden():
    got = brute_commutator_set(enumerate_sl2(F5), "psl2")
    assert got == set(all_classes_psl(F5)) - {PSLLabel("PSS", 0)}
    got7 = brute_commutator_set(enumerate_sl2(F7), "psl2")
    assert got7 == set(all_classes_psl(F7)) - {PSLLabel("PNSS", 0)}


def test_brute_commutator_matches_predicate(F):
    got = brute_commutator_set(enumerate_sl2(F), "psl2")
    want = {P for P in all_classes_psl(F) if commutator_expressible_psl(F, P)}
    assert got == want


def test_brute_commutator_sl2_kind():
    got = brute_commutator_set(enumerate_sl2(F5), "sl2")
    assert SL2Label("I") in got
    assert {psl_classify(F5, representative(F5, L)) for L in got} == \
        brute_commutator_set(enumerate_sl2(F5), "psl2")


# -- mutation check: a broken law must be caught --------------------------


U13 = (SL2Label("U", 1), SL2Label("U", 3))
NU13 = (SL2Label("NU", 1), SL2Label("NU", 3))
PU13 = (PSLLabel("PU", 1), PSLLabel("PU", 3))


# (group, law, the law's arguments it breaks, the ordered pairs verify must
# report, the class it drops)
BROKEN_PAIR_LAWS = [
    ("sl2", "_sl2_pair", (U13,), (U13, U13[::-1]), SL2Label("SS", 6)),
    ("psl2", "_psl_pair", (PU13,), (PU13, PU13[::-1]), PSLLabel("PNSS", 3)),
    ("sl2", "_sl2_pair", (U13, U13[::-1]), (U13, U13[::-1], NU13, NU13[::-1]),
     SL2Label("SS", 6)),
    ("psl2", "_psl_pair", (PU13, PU13[::-1]), (PU13, PU13[::-1]), PSLLabel("PNSS", 3)),
]
BROKEN_IDS = [f"{kind}-{name}-where{n}-dropped{n}"
              for n, (kind, name, *_) in enumerate(BROKEN_PAIR_LAWS)]


def _break_law(monkeypatch, F, kind, name, args, dropped):
    """Patch laws.<name> to drop the class dropped from its answer at q = 7
    for the factors args, and return the class index whose law table it
    fills."""
    orig, C = getattr(laws, name), class_index(F, kind)

    def broken(F, C, a, b):
        mask, rule = orig(F, C, a, b)
        if F.q == 7 and (a, b) in args:
            assert mask >> C.at(dropped) & 1
            return mask & ~(1 << C.at(dropped)), rule
        return mask, rule
    monkeypatch.setattr(laws, name, broken)
    return C


@pytest.mark.parametrize("kind,name,args,where,dropped", BROKEN_PAIR_LAWS, ids=BROKEN_IDS)
def test_verify_catches_broken_pair_law(monkeypatch, kind, name, args, where, dropped):
    """laws.<name> drops one class from its answer for U[1]·U[3] (PU in
    PSL2) at q = 7, asked in index order, or in both orders.  The law table
    asks each cell once, in index order, for both of its ordered pairs, so
    verify_laws and `sl2prod verify` must report exactly the ordered pairs
    `where`, each with a product in the dropped class: U[1]·U[3] (PU) both
    ways, and in SL2 with both orders broken also NU[1]·NU[3] both ways,
    whose law asks U[3]·U[1] since (-u)(-u') = uu' and -1 is not a square
    mod 7.  The broken cells reach the law table's triple folds too: there
    must be such mismatches, and each one only misses classes and carries a
    product in a missed class.  The field is make_field(7)'s, the one the
    CLI gets."""
    F = make_field(7)
    C = _break_law(monkeypatch, F, kind, name, args, dropped)
    C.law = None        # the field's law table is refilled from the broken law
    try:
        rep = verify_laws(F, kind)
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["verify", "--field", "7"])
    finally:
        C.law = None
    assert not rep.ok
    assert [m.where for m in rep.pair_mismatches] == list(where)
    name_of = (lambda L: L) if kind == "sl2" else (lambda L: psl_project(F, L))
    for m in rep.pair_mismatches:
        assert set(m.brute) - set(m.law) == {dropped}
        assert set(m.law) - set(m.brute) == set()
        ce = m.counterexample
        assert ce is not None and mat_det(F, ce) == 1
        assert name_of(classify_sl2(F, ce)) == dropped
        assert m.to_dict()["counterexample"] == list(ce)
    assert rep.triple_mismatches
    for t in rep.triple_mismatches:
        missing = set(t.brute) - set(t.law)
        assert missing and not set(t.law) - set(t.brute), t.where
        ce = t.counterexample
        assert ce is not None and mat_det(F, ce) == 1, t.where
        assert name_of(classify_sl2(F, ce)) in missing, t.where
        assert t.to_dict()["counterexample"] == list(ce)

    data = json.loads(out.getvalue())
    assert code == 1 and data["ok"] is False
    failed = [r for r in data["reports"] if not r["ok"]]
    assert [r["group"] for r in failed] == [kind]
    assert [f["where"] for f in failed[0]["pairs"]["failures"]] == \
        [[str(L) for L in w] for w in where]


def test_verify_fills_no_pair_query_memo():
    """verify reads the law table, not the public pair queries, so it leaves
    the memo of those queries empty."""
    F = FieldCtx(7, 1)
    for kind in ("sl2", "psl2"):
        assert verify_laws(F, kind).ok
    assert [class_index(F, kind).pairs for kind in ("sl2", "psl2")] == [{}, {}]


def test_verify_reports_containment_failures(monkeypatch):
    """A brute SL2 table that drops SS[6] from every cell at q = 7 breaks the
    promised containment of G minus the centre in 156 triple products, which
    verify reads from the brute folds; each containment failure names SS[6]
    alone, and `sl2prod verify` exits 1 with them in its JSON."""
    F = make_field(7)
    orig, C = oracle._sl2_products, class_index(F, "sl2")
    ss6 = C.at(SL2Label("SS", 6))

    def broken(F):
        table = orig(F)
        return ProductTable(table.classes, lambda i, j: table.pair(i, j) & ~(1 << ss6))
    monkeypatch.setattr(oracle, "_sl2_products", broken)
    C.brute = None
    try:
        rep = verify_laws(F, "sl2")
        out = io.StringIO()
        with redirect_stdout(out):
            code = cli_main(["verify", "--field", "7", "--group", "sl2"])
    finally:
        C.brute = None
    assert not rep.ok and len(rep.containment_failures) == 156
    assert all(f["missing"] == ["SS[6]"] for f in rep.containment_failures)
    data = json.loads(out.getvalue())
    assert code == 1 and data["ok"] is False
    [report] = data["reports"]
    assert report["triples"]["containment_failures"] == rep.containment_failures


# -- the triple check, key by key, against one check per triple -------------


def _names(C, mask):
    return tuple(C.labels[k] for k in classes.bits(mask))


def _reference_tables(F, kind):
    """The class index, law table, brute table and the Mismatch of a cell
    whose law mask got differs from its brute mask want."""
    C = class_index(F, kind)
    law, brute = laws.law_table(F, kind), oracle._product_table(F, kind)

    def mismatch(cell, got, want):
        missing = want & ~got
        return oracle.Mismatch(
            tuple(C.labels[i] for i in cell), _names(C, got), _names(C, want),
            oracle._counterexample(F, kind, brute, cell, missing) if missing else None)
    return C, law, brute, mismatch


def _per_cell_pair_mismatches(F, kind):
    """The pair check of verify_laws, one cell at a time, in (i, j) order."""
    C, law, brute, mismatch = _reference_tables(F, kind)
    n = len(C.labels)
    return [mismatch((i, j), law.pair(i, j), brute.pair(i, j))
            for i, j in itertools.product(range(n), repeat=2)
            if law.pair(i, j) != brute.pair(i, j)]


def _per_triple_verify(F, kind):
    """verify_laws with one check per pair cell and one per triple
    i <= j <= k, in index order."""
    C, law, brute, mismatch = _reference_tables(F, kind)
    labels, n = C.labels, len(C.labels)
    triple_mismatches, containment_failures = [], []
    pair_mismatches = _per_cell_pair_mismatches(F, kind)
    noncentral = C.full >> C.n_central << C.n_central
    for i, j, k in itertools.combinations_with_replacement(range(n), 3):
        got, want = law.triple(i, j, k), brute.triple(i, j, k)
        trip = (labels[i], labels[j], labels[k])
        if got != want:
            triple_mismatches.append(mismatch((i, j, k), got, want))
        if noncentral & ~want and oracle.triple_containment_expected(F, kind, trip):
            containment_failures.append({
                "triple": [str(L) for L in trip],
                "missing": [str(L) for L in _names(C, noncentral & ~want)]})
    return oracle.VerificationReport(
        F.q, kind, n * n, pair_mismatches, math.comb(n + 2, 3), triple_mismatches,
        containment_failures, covering_numbers(F, kind))


def _assert_same_report(got, want):
    """Equal reports: the same JSON, and the same mismatches in the same
    order, each with the same counterexample."""
    assert got.to_dict() == want.to_dict()
    for found, ref in ((got.pair_mismatches, want.pair_mismatches),
                       (got.triple_mismatches, want.triple_mismatches)):
        assert [m.where for m in found] == [m.where for m in ref]
        assert [m.counterexample for m in found] == [m.counterexample for m in ref]
    assert got == want


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_31, ids=_qid)
def test_grouped_triples_match_per_triple_check(pa):
    """verify_laws, which checks the triples once per key (pair cells, k,
    C_i central), reports what one check per triple reports, at every odd
    prime power up to 31; SL2(5), whose folds miss non-central classes,
    takes the triple-by-triple containment check."""
    F = FieldCtx(*pa)
    for kind in ("sl2", "psl2"):
        _assert_same_report(verify_laws(F, kind), _per_triple_verify(F, kind))


@pytest.mark.parametrize("kind,name,args,where,dropped", BROKEN_PAIR_LAWS, ids=BROKEN_IDS)
def test_grouped_triples_match_per_triple_check_broken_law(monkeypatch, kind, name,
                                                           args, where, dropped):
    """With the broken pair laws of test_verify_catches_broken_pair_law,
    the row-wise pair check and the key-wise triple check report the same
    mismatches, in the same order and with the same counterexamples, as one
    check per cell and one per triple."""
    F = make_field(7)
    C = _break_law(monkeypatch, F, kind, name, args, dropped)
    C.law = None
    try:
        rep, ref = verify_laws(F, kind), _per_triple_verify(F, kind)
    finally:
        C.law = None
    assert [m.where for m in rep.pair_mismatches] == list(where)
    assert rep.triple_mismatches
    _assert_same_report(rep, ref)


def test_grouped_triples_match_per_triple_check_broken_brute(monkeypatch):
    """With the brute SL2 table of test_verify_reports_containment_failures,
    which drops SS[6] from every cell at q = 7, the key-wise check reports
    the same triple mismatches and containment failures, in the same order,
    as one check per triple."""
    F = make_field(7)
    orig, C = oracle._sl2_products, class_index(F, "sl2")
    ss6 = C.at(SL2Label("SS", 6))

    def broken(F):
        table = orig(F)
        return ProductTable(table.classes, lambda i, j: table.pair(i, j) & ~(1 << ss6))
    monkeypatch.setattr(oracle, "_sl2_products", broken)
    C.brute = None
    try:
        rep, ref = verify_laws(F, "sl2"), _per_triple_verify(F, "sl2")
    finally:
        C.brute = None
    assert rep.triple_mismatches and len(rep.containment_failures) == 156
    _assert_same_report(rep, ref)


def test_grouped_triples_match_per_triple_check_shared_gap():
    """SL2(5) has no closed-form triples, so its law folds are compared
    with the brute folds.  Law and brute tables that both drop SS[0] from
    every cell agree on every pair and triple, and the key-wise check must
    still find the triples whose fold misses SS[0] where the source
    results promise containment, as one check per triple does."""
    F = FieldCtx(5, 1)
    C = class_index(F, "sl2")
    true = oracle._product_table(F, "sl2")
    ss0 = C.at(SL2Label("SS", 0))
    assert laws.law_table(F, "sl2").closed is None
    C.law = ProductTable(C, lambda i, j: true.pair(i, j) & ~(1 << ss0))
    C.brute = ProductTable(C, C.law.pair)
    rep, ref = verify_laws(F, "sl2"), _per_triple_verify(F, "sl2")
    assert not (rep.pair_mismatches or rep.triple_mismatches)
    assert rep.containment_failures
    assert all("SS[0]" in f["missing"] for f in rep.containment_failures)
    _assert_same_report(rep, ref)


def test_verify_makes_no_compose_call(monkeypatch):
    """verify at q = 27 and 31, both groups and covering included, from
    fresh fields, folds whole table rows: clean tables take no
    ProductTable.compose call."""
    calls, compose = [], ProductTable.compose
    monkeypatch.setattr(ProductTable, "compose",
                        lambda self, *args: calls.append(args) or compose(self, *args))
    for pa in ((3, 3), (31, 1)):
        F = FieldCtx(*pa)
        for kind in ("sl2", "psl2"):
            assert verify_laws(F, kind).ok
    assert calls == []


def _compose_covering_numbers(F, kind):
    """covering_numbers with one ProductTable.compose per (mask, class), as
    it was before the row folds."""
    C = class_index(F, kind)
    P = oracle._product_table(F, kind)
    noncentral = range(C.n_central, len(C.labels))

    def least(level, step):
        for n in range(1, oracle.COVERING_LIMIT + 1):
            if n > 1:
                level = step(level)
            if all(S == C.full for S in level):
                return n
        return None

    cn = least([1 << k for k in noncentral],
               lambda level: [P.compose(S, k) for S, k in zip(level, noncentral)])
    ecn = least({1 << k for k in noncentral},
                lambda level: {P.compose(S, k) for S in level for k in noncentral})
    return cn, ecn


@pytest.mark.parametrize("pa", ODD_PRIME_POWERS_TO_61, ids=_qid)
def test_covering_numbers_match_compose_reference(pa):
    """The covering numbers from row folds equal those from one compose per
    (mask, class), at every odd prime power up to 61."""
    F = FieldCtx(*pa)
    for kind in ("sl2", "psl2"):
        assert covering_numbers(F, kind) == _compose_covering_numbers(F, kind)


def test_covering_numbers_match_compose_reference_planted(monkeypatch):
    """Planted brute tables at q = 7 whose covering numbers are not (3, 4)
    give the same numbers from row folds as from compose: every cell of two
    non-central classes the whole group gives (2, 2), U[1]^2 without U[3]
    (PU in PSL2) gives (4, 4), and every cell without SS[6] (PNSS[3]) gives
    (None, None); the true table with COVERING_LIMIT 3 gives (3, None)."""
    F = FieldCtx(7, 1)
    for kind, (U1, U3), gone in (("sl2", U13, SL2Label("SS", 6)),
                                 ("psl2", PU13, PSLLabel("PNSS", 3))):
        C = class_index(F, kind)
        true = oracle._product_table(F, kind)
        u1, u3, g = C.at(U1), C.at(U3), C.at(gone)
        plants = {
            (2, 2): lambda i, j: C.full if min(i, j) >= C.n_central else true.pair(i, j),
            (4, 4): lambda i, j: true.pair(i, j) & ~((i == j == u1) << u3),
            (None, None): lambda i, j: true.pair(i, j) & ~(1 << g)}
        for want, fill in plants.items():
            C.brute = ProductTable(C, fill)
            got = covering_numbers(F, kind)
            C.brute = ProductTable(C, fill)     # a fresh table for compose
            assert got == _compose_covering_numbers(F, kind) == want
        C.brute = true
    monkeypatch.setattr(oracle, "COVERING_LIMIT", 3)
    for kind in ("sl2", "psl2"):
        assert covering_numbers(F, kind) == _compose_covering_numbers(F, kind) == (3, None)


def test_verify_reports_unreached_covering_number(monkeypatch):
    """With COVERING_LIMIT at 3, no 3-fold product of classes at q = 7 is
    the whole group in every case, so ecn is None (null in the JSON): the
    report is not ok, and `sl2prod verify` exits 1."""
    monkeypatch.setattr(oracle, "COVERING_LIMIT", 3)
    for kind in ("sl2", "psl2"):
        assert covering_numbers(F7, kind) == (3, None)
        rep = verify_laws(F7, kind)
        assert not rep.ok and rep.to_dict()["covering"] == {"cn": 3, "ecn": None}
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli_main(["verify", "--field", "7"])
    data = json.loads(out.getvalue())
    assert code == 1 and data["ok"] is False
    assert [r["covering"] for r in data["reports"]] == [{"cn": 3, "ecn": None}] * 2
    assert '"ecn": null' in out.getvalue()
