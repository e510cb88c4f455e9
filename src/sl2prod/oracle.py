"""Exhaustive ground truth for SL2(F_q)/PSL2(F_q) class products.

Enumerates the class fibers of SL2, computes literal class products,
certifies every closed-form law, and computes covering numbers.  All exact;
any disagreement with the laws module is reported with a counterexample.

Class products come from one ProductTable per group over the shared
ClassIndex (see classes), whose cell (i, j) is the class mask of C_i * C_j.
Both tables live on the field's class indices; the group is kept nowhere,
as the fill reads every class as chunks of its trace fiber.

- SL2: every element of C_i * C_j is conjugate to some x * y with x in C_i
  and y a fixed representative of C_j, so one pass per y can fill column j
  (see _direct_columns), and a trace tr(x y) other than +-2 fixes the
  class.  Only the lesser class of each negation pair other than {I, -I}
  takes a pass, (q+3)/2 at every q, as C_i * (-C_j) = -(C_i * C_j), and a
  pass walks one of each negation pair of the rows whose column is still
  missing.  A row of trace +-2 reads its class element by element and
  classifies its products of trace +-2 (only the passes of U[1] and U[nu]
  walk such rows).  A semisimple row reads the traces of each chunk of its
  fiber as one mask, by completing the square, and each class D of trace
  +-2 from the filled row of D^-1.  At q = 27 and 31 the fills walk 2532
  elements and read 2508 chunk masks, where whole fibers were 206222 traces.
- PSL2: cells are projected from SL2 cells.  For SL2 lifts D1, D2 of P1, P2
  the other lifts are -D1, -D2, and switching a lift only negates the
  product set, which projection erases; so P1 * P2 is the projection of
  D1 * D2.
- Triple products and covering numbers are OR-folds over table rows: row m
  is one int with cell (m, k) in its field k (ProductTable.rows), so one OR
  of the rows of a class set S gives S * C_k for every k.  verify_laws checks
  the laws' table (laws.law_table) against the brute table, pairs row by row
  and a triple i <= j <= k once per key (cell (i, j), C_i central or not),
  every k in one fold of the brute rows (79 keys, 1432 (key, k) checks, for
  7770 triples at q = 31), against law folds or ProductTable.triple's closed
  form.  Containment and covering numbers come from the brute folds.

GroupTable, enumerate_sl2, verify_laws and covering_numbers refuse q >
ENUMERATION_BOUND = 251 before building anything; on a shared 2-core host
(Python 3.11), `sl2prod verify --field 251` takes about 1 s at 36 MB max RSS.
"""

from __future__ import annotations

import functools
import itertools
import math
from array import array
from typing import NamedTuple

from .field import FieldCtx
from .mat2 import (Mat, iter_trace_fiber, mat_inv, mat_mul, mat_trace,
                   quadratic_roots)
from .classes import (PSLLabel, ProductTable, SL2Label, all_classes_sl2,
                      bits, class_index, classify_sl2, inverse_class,
                      negate_class, psl_lift_pair, psl_project, representative)
from . import laws

ENUMERATION_BOUND = 251


class EnumerationBoundError(ValueError):
    """q is above the bound up to which the oracle may enumerate SL2(F_q)."""


def _check_bound(F: FieldCtx):
    if F.q > ENUMERATION_BOUND:
        raise EnumerationBoundError(
            f"q = {F.q} exceeds the enumeration bound {ENUMERATION_BOUND}")


def _fiber(F: FieldCtx, L: SL2Label) -> list[Mat]:
    """Class L in the order of iter_sl2, read from the trace fiber of L (at
    trace +-2, the elements that classify_sl2 puts in L)."""
    t = mat_trace(F, representative(F, L))      # ValueError for a label of no class
    fiber = iter_trace_fiber(F, t)
    return (list(fiber) if L.is_semisimple
            else [m for m in fiber if classify_sl2(F, m, check=False) == L])


class GroupTable:
    """SL2(F_q) as its class fibers: fiber(L) is class L, read from its trace
    on each call.  The table keeps only its field."""

    def __init__(self, F: FieldCtx):
        _check_bound(F)
        self.field = F

    def fiber(self, L: SL2Label) -> list[Mat]:
        return _fiber(self.field, L)


def enumerate_sl2(F: FieldCtx) -> GroupTable:
    """SL2(F) as its class fibers, each read when asked for."""
    return GroupTable(F)


# -- class-product tables ----------------------------------------------------


def _product_table(F: FieldCtx, kind: str) -> ProductTable:
    C = class_index(F, kind)
    if C.brute is None:
        C.brute = (_sl2_products(F) if kind == "sl2"
                   else _psl_products(F, _product_table(F, "sl2")))
    return C.brute


def _direct_columns(F: FieldCtx, negate=None):
    """The base case of the SL2 table: column(j, known) lists the masks of
    C_i * C_j over all i, from one pass with the representative y of C_j; a
    row i in the dict known is its mask there, and is not walked.  As
    (-C_i) * C_j = -(C_i * C_j), of each negation pair of missing rows the
    pass walks the lesser (or the only missing one) and gives the other
    negate(mask), the fill's memo of _image(neg, mask) or the pass's own.
    Missing rows are filled in class order, the six of trace +-2 first.  A
    walked row of trace +-2 reads its whole class x against y, packed on
    first reach and kept (at t = 2s, x = (a, b, c, t - a) with b != 0 has
    c = -(a - s)^2/b, in U or NU[class(b)], and with b = 0 it is s I or in
    U or NU[class(-c)]): a trace tr(x y) other than +-2 sets its semisimple
    class, and classify_sl2 places a product of trace +-2.

    A walked semisimple row of trace t ORs one q-bit trace mask per chunk
    of its fiber until it holds every semisimple trace (_saturate).  Chunk
    b != 0 holds (a, b, (a(t - a) - 1)/b, t - a) over every a, and chunk 0,
    read first, the (a, 0, c, t - a) with a(t - a) = 1 over every c.  For
    y = [[e, f], [g, h]], tr(x y) on chunk b != 0 is A a^2 + B a + C with
    A = -f/b, B = e - h + t f/b and C = t h + b g - f/b, so for f != 0 its
    image is v + A (squares and 0), v = C - B^2/4A = t (e + h)/2 +
    b (g + (e - h)^2/4f) + (t^2/4 - 1) f/b; for f = 0 it is linear.  Chunk 0
    is f c plus a constant, so an SS row with f != 0 saturates at once.  A
    class D of trace +-2 is bit i of the row of D^-1, filled by then: D in
    C_i * C_j iff C_i in D^-1 * C_j, as C_i is real."""
    q = F.q
    C = class_index(F, "sl2")
    ADD = [F.add(x, y) for x in range(q) for y in range(q)]    # ADD[x*q + y]
    MUL = [F.mul(x, y) for x in range(q) for y in range(q)]
    row = {L.param: k for k, L in enumerate(C.labels) if L.is_semisimple}
    pm2 = {k: C.at(inverse_class(F, L)) for k, L in enumerate(C.labels)
           if not L.is_semisimple}      # each class of trace +-2: its inverse
    neg = _negation(F, C)
    negate = negate or functools.cache(lambda mask: _image(neg, mask))
    inv = [0] + [F.inv(b) for b in range(1, q)]
    minus = [F.neg(x) for x in range(q)]
    square = [0] + [F.square_class(x) for x in range(1, q)]
    half, quarter = F.inv(F.scalar(2)), F.inv(F.scalar(4))
    every, traces_ss = (1 << q) - 1, sum(1 << t for t in row)
    classes_ss = sum(1 << k for k in row.values())
    squares = {MUL[x * q + x] for x in range(q)}      # and 0
    shifted = {e: [sum({1 << ADD[v * q + MUL[e * q + s]] for s in squares}) for v in range(q)]
               for e in (0, 1, F.nonsquare_rep)}    # shifted[e][v]: v + e (squares and 0)

    @functools.cache
    def packed(i):      # C_i of trace +-2 as u = a*q + b and v = c*q + d
        s, cls = representative(F, C.labels[i])[0], C.labels[i].param    # s = t/2 = +-1
        t = ADD[s * q + s]
        ds = [ADD[t * q + x] for x in minus]                                    # d = t - a
        ms = [ADD[MUL[a * q + d] * q + minus[1]] * q for a, d in enumerate(ds)]  # (ad - 1) q
        bs = [b for b in range(1, q) if square[b] == cls]
        cs = [c for c in range(q) if square[minus[c]] == cls]
        return (array("l", [a * q + b for b in bs for a in range(q)] + [s * q] * len(cs)),
                array("l", [MUL[m + inv[b]] * q + d for b in bs for m, d in zip(ms, ds)]
                      + [c * q + s for c in cs]))

    def traces(w):
        """left and right, so that tr(x w) = ae + bg + cf + dh is _traces over the packed x."""
        me, mf, mg, mh = (MUL[v * q:(v + 1) * q] for v in w)
        left = [ADD[x + g] * q for x in [e * q for e in me] for g in mg]     # at a*q + b
        right = [ADD[x + h] for x in [f * q for f in mf] for h in mh]       # at c*q + d
        return left, right

    def images(y):
        """images(y)(t) yields the trace mask of each chunk of the trace-t
        fiber against y, chunk 0 first: chunk b != 0 at v = k + b gf + dt fb."""
        e, f, g, h = y
        eh = ADD[e * q + minus[h]]
        mid, gf, line = h, g, [every] * q if eh else shifted[0]     # f = 0: v = t h + b g
        if f:
            mid = MUL[ADD[e * q + h] * q + half]
            gf = ADD[g * q + MUL[MUL[MUL[eh * q + eh] * q + quarter] * q + inv[f]]]
        per_b = [(MUL[b * q + gf], fb, shifted[square[minus[fb]]] if f else line)
                 for b, fb in ((b, MUL[f * q + inv[b]]) for b in range(1, q))]

        def chunks(t):
            th, eig = MUL[t * q + h], quadratic_roots(F, 1, minus[t], 1)    # a(t - a) = 1
            yield every if f and eig else sum({1 << ADD[MUL[a * q + eh] * q + th] for a in eig})
            k, dt = MUL[t * q + mid] * q, ADD[MUL[MUL[t * q + t] * q + quarter] * q + minus[1]] * q
            for bg, fb, masks in per_b:
                yield masks[ADD[ADD[k + bg] * q + MUL[dt + fb]]]
        return chunks

    def column(j, known=None):
        known = known or {}
        y = representative(F, C.labels[j])
        of_y, chunks = None, images(y)
        masks = [known.get(i, 0) for i in range(len(C.labels))]
        missing = set(range(len(C.labels))) - known.keys()
        walked = {min(i, neg[i]) if neg[i] in missing else i for i in missing}
        for i in sorted(missing):               # the rows of trace +-2 come first
            if i not in walked:
                masks[i] = negate(masks[neg[i]])
            elif i in pm2:                      # its whole class, against y
                of_y = of_y or traces(y)
                for u, v, t in zip(*packed(i), _traces(ADD, *of_y, *packed(i))):
                    masks[i] |= 1 << (row[t] if t in row else C.at(classify_sl2(
                        F, mat_mul(F, (*divmod(u, q), *divmod(v, q)), y), check=False)))
            else:       # D in C_i * C_j iff C_i in D^-1 * C_j, as C_i is real
                ts = _saturate(chunks, C.labels[i].param, traces_ss) & traces_ss
                masks[i] = classes_ss if ts == traces_ss else sum(1 << row[t] for t in bits(ts))
                masks[i] |= sum(1 << k for k, r in pm2.items() if masks[r] >> i & 1)
        return masks
    return column


def _traces(ADD, left, right, us, vs) -> list[int]:
    """tr(x w) = ADD[left[u] + right[v]] for the packed elements (u, v) of x."""
    return [ADD[left[u] + right[v]] for u, v in zip(us, vs)]


def _saturate(chunks, t: int, full: int) -> int:
    """The OR of the trace masks chunks(t), read only until it holds full."""
    out = 0
    for mask in chunks(t):
        out |= mask
        if out & full == full:
            break
    return out


def _image(perm, mask: int) -> int:
    """Mask of the classes perm[k] for the classes k in mask."""
    out = 0
    for k in bits(mask):
        out |= 1 << perm[k]
    return out


def _negation(F: FieldCtx, C) -> list[int]:
    """neg[k] is the index of the class -C_k."""
    return [C.at(negate_class(F, L)) for L in C.labels]


def _sl2_products(F: FieldCtx) -> ProductTable:
    """The SL2 table.  Filled in class order, a class whose column is
    missing takes one pass (none for I, as C_i * I = C_i), and the column
    of its negation is derived from it cell by cell, as
    C_i * (-C_r) = -(C_i * C_r).  Class products commute
    (xy = y * y^-1 x y), so the pass walks only the rows whose own column
    is still missing, and reads cell (i, r) of every other row i as cell
    (r, i)."""
    C = class_index(F, "sl2")
    n = len(C.labels)
    neg = _negation(F, C)
    negate = functools.cache(lambda mask: _image(neg, mask))     # columns share most masks
    direct = _direct_columns(F, negate)
    columns: dict[int, list[int]] = {}
    for r in range(n):
        if r not in columns:
            columns[r] = ([1 << i for i in range(n)] if r == 0      # I, as C_i * I = C_i
                          else direct(r, {i: column[r] for i, column in columns.items()}))
            columns[neg[r]] = list(map(negate, columns[r]))
    return ProductTable(C, lambda i, j: columns[j][i])


def _psl_products(F: FieldCtx, S: ProductTable) -> ProductTable:
    """PSL2 cells projected from the SL2 table S."""
    C = class_index(F, "psl2")
    project = [C.at(psl_project(F, L)) for L in S.classes.labels]
    lift = [S.classes.at(psl_lift_pair(F, P)[0]) for P in C.labels]
    image = functools.cache(lambda mask: _image(project, mask))    # cells share most masks
    return ProductTable(C, lambda i, j: image(S.pair(lift[i], lift[j])))


def _fold(rows, mask: int) -> int:
    """The OR of the rows of the bits of mask: of a table's, S * C_k in field k."""
    out = 0
    for m in bits(mask):
        out |= rows[m]
    return out


def brute_pair_product(T: GroupTable, L1: SL2Label, L2: SL2Label) -> frozenset:
    """Exact label set of C1*C2, read from the SL2 product table."""
    return _product_table(T.field, "sl2").of_labels(L1, L2)


def brute_pair_product_psl(T: GroupTable, P1: PSLLabel, P2: PSLLabel) -> frozenset:
    """Exact PSL label set, projected from the SL2 cell of one lift of each
    class."""
    return _product_table(T.field, "psl2").of_labels(P1, P2)


def brute_triple_product(T: GroupTable, L1, L2, L3, kind: str = "sl2") -> frozenset:
    """Triple product folded from the brute pair table; exact since class
    products are conjugation closed."""
    return _product_table(T.field, kind).of_labels(L1, L2, L3)


def brute_commutator_set(T: GroupTable, kind: str = "psl2") -> frozenset:
    """Labels of [s, u] over semisimple s and unipotent u.

    u runs over one representative per unipotent class plus the identity
    (conjugating the pair sweeps the commutator's class, and the identity
    is only reachable through the degenerate witness u = 1)."""
    F = T.field
    class_index(F, kind)        # rejects a kind other than sl2 and psl2
    us = [(u, mat_inv(F, u)) for u in
          (representative(F, SL2Label("U", r)) for r in (1, F.nonsquare_rep))]
    out = {SL2Label("I")}
    for s in (s for L in all_classes_sl2(F) if L.is_semisimple for s in T.fiber(L)):
        s_inv = mat_inv(F, s)
        for u, u_inv in us:
            c = mat_mul(F, mat_mul(F, s, u), mat_mul(F, s_inv, u_inv))
            out.add(classify_sl2(F, c, check=False))
    return frozenset(out if kind == "sl2" else (psl_project(F, L) for L in out))


# -- verification ------------------------------------------------------------


class Mismatch(NamedTuple):
    where: tuple
    law: tuple
    brute: tuple
    counterexample: Mat | None = None

    def to_dict(self):
        return {"where": [str(L) for L in self.where],
                "law": [str(L) for L in self.law],
                "brute": [str(L) for L in self.brute],
                "counterexample": list(self.counterexample) if self.counterexample else None}


class VerificationReport(NamedTuple):
    q: int
    kind: str
    pair_count: int
    pair_mismatches: list
    triple_count: int
    triple_mismatches: list
    containment_failures: list
    covering: tuple             # (cn, ecn)

    @property
    def ok(self) -> bool:
        """No mismatch or containment failure, and covering numbers (3, 4)
        at every q, but (5, 5) for SL2(5)."""
        covering = (5, 5) if (self.q, self.kind) == (5, "sl2") else (3, 4)
        return not (self.pair_mismatches or self.triple_mismatches
                    or self.containment_failures) and self.covering == covering

    def to_dict(self):
        return {
            "q": self.q,
            "group": self.kind,
            "pairs": {"checked": self.pair_count,
                      "failures": [m.to_dict() for m in self.pair_mismatches]},
            "triples": {"checked": self.triple_count,
                        "failures": [m.to_dict() for m in self.triple_mismatches],
                        "containment_failures": self.containment_failures},
            "covering": {"cn": self.covering[0], "ecn": self.covering[1]},
            "ok": self.ok,
        }


def _counterexample(F: FieldCtx, kind, brute: ProductTable, cell, missing):
    """A product of the classes of cell in a class of the nonzero mask
    missing, which the brute cell holds.  For a pair (i, j) it is the first
    x * y, over x in the fiber of C_i and y the representative of C_j (for
    PSL2, of their SL2 lifts).  A triple (i, j, k) takes the pair (m, k) for
    the first class C_m of the brute cell C_i * C_j whose product with C_k
    meets missing."""
    C = brute.classes
    if len(cell) == 3:
        i, j, k = cell
        cell = next((m, k) for m in bits(brute.pair(i, j)) if brute.pair(m, k) & missing)
    L1, L2 = (C.labels[i] for i in cell)
    at = C.at
    if kind == "psl2":
        L1, L2 = psl_lift_pair(F, L1)[0], psl_lift_pair(F, L2)[0]
        at = lambda L: C.at(psl_project(F, L))
    y = representative(F, L2)
    for x in _fiber(F, L1):
        m = mat_mul(F, x, y)
        if missing >> at(classify_sl2(F, m, check=False)) & 1:
            return m
    return None


def triple_containment_expected(F, kind, trip):
    """Where the source results promise G minus centers inside C1*C2*C3."""
    class_index(F, kind)        # rejects a kind other than sl2 and psl2
    if any(L.is_central for L in trip):
        return False
    if len(set(trip)) < 2:
        return False
    if kind == "psl2":
        return True
    if F.q > 5:
        return True
    # over F_5 the containment is only established for lifts of triples with
    # at least two distinct PSL2 classes and zero or >= 2 semisimple members
    if len({psl_project(F, L) for L in trip}) < 2:
        return False
    return sum(L.is_semisimple for L in trip) != 1


def verify_laws(F: FieldCtx, kind: str) -> VerificationReport:
    """Every pair cell and every triple fold of the law table against the
    brute table, plus covering numbers."""
    _check_bound(F)
    C = class_index(F, kind)        # rejects a bad kind before enumerating
    law, brute = laws.law_table(F, kind), _product_table(F, kind)
    labels, n = C.labels, len(C.labels)
    pair_mismatches, triple_mismatches, containment_failures = [], [], []

    def names(mask):
        return tuple(labels[k] for k in bits(mask))     # index order is canonical

    def mismatch(cell, got, want):
        missing = want & ~got
        return Mismatch(tuple(labels[i] for i in cell), names(got), names(want),
                        _counterexample(F, kind, brute, cell, missing) if missing else None)

    law_rows, brute_rows = law.rows(), brute.rows()
    differ = [i for i in range(n) if law_rows[i] != brute_rows[i]]     # go cell by cell
    for i, j in itertools.product(differ, range(n)):
        got, want = law.pair(i, j), brute.pair(i, j)
        if got != want:
            pair_mismatches.append(mismatch((i, j), got, want))

    # a (key, k), read at its pair of least j, goes triple by triple if it fails, or misses a
    # non-central class with C_i non-central: no triple with a central factor expects containment.
    # A closed-form law triple is read from law.triple, the code that answers triple queries
    noncentral = C.full >> C.n_central << C.n_central     # central classes come first
    keys: dict[tuple, list] = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        key = law_rows[i] >> j * n & C.full, brute_rows[i] >> j * n & C.full, i < C.n_central
        keys.setdefault(key, []).append((i, j))
    suspect = []
    for (law_cell, brute_cell, central), cells in keys.items():
        i, j = min(cells, key=lambda cell: cell[1])
        want = _fold(brute_rows, brute_cell)
        got = None if law.closed is not None and not central else _fold(law_rows, law_cell)
        for k in range(j, n):
            brute_k = want >> k * n & C.full
            law_k = law.triple(i, j, k) if got is None else got >> k * n & C.full
            if law_k != brute_k or noncentral & ~brute_k and not central:
                suspect += [(a, b, k) for a, b in cells if b <= k]
    for i, j, k in sorted(suspect):
        got, want = law.triple(i, j, k), brute.triple(i, j, k)
        trip = (labels[i], labels[j], labels[k])
        if got != want:
            triple_mismatches.append(mismatch((i, j, k), got, want))
        if noncentral & ~want and triple_containment_expected(F, kind, trip):
            containment_failures.append({
                "triple": [str(L) for L in trip],
                "missing": [str(L) for L in names(noncentral & ~want)]})

    return VerificationReport(F.q, kind, n * n, pair_mismatches, math.comb(n + 2, 3),
                              triple_mismatches, containment_failures,
                              covering_numbers(F, kind))


# -- covering numbers --------------------------------------------------------


COVERING_LIMIT = 8


def covering_numbers(F: FieldCtx, kind: str) -> tuple:
    """(cn, ecn) computed from n-fold class products, folded over the rows
    of the brute table: one fold of a mask S gives S * C_k for every k.

    cn: least n with C^n = G for every non-central class C.
    ecn: least n with C_1...C_n = G for every n-tuple of non-central classes.
    Returns None in a slot not reached within COVERING_LIMIT factors."""
    _check_bound(F)
    C = class_index(F, kind)        # rejects a bad kind before enumerating
    rows, size = _product_table(F, kind).rows(), len(C.labels)
    noncentral = range(C.n_central, size)     # central classes come first

    def least(level, step):
        """Least n <= COVERING_LIMIT at which every mask of level, after
        n - 1 steps, is the whole group; None if there is none."""
        for n in range(1, COVERING_LIMIT + 1):
            if n > 1:
                level = step(level)
            if all(S == C.full for S in level):
                return n
        return None

    cn = least([1 << k for k in noncentral],       # C_k^n for each class C_k
               lambda level: [_fold(rows, S) >> k * size & C.full
                              for S, k in zip(level, noncentral)])
    ecn = least({1 << k for k in noncentral},      # every n-fold product
                lambda level: {out >> k * size & C.full for out in
                               (_fold(rows, S) for S in level) for k in noncentral})
    return cn, ecn
