"""Exhaustive ground truth for SL2(F_q)/PSL2(F_q) class products.

Enumerates the class fibers of SL2, computes literal class products,
certifies every closed-form law, and computes covering numbers.  All exact;
any disagreement with the laws module is reported with a counterexample.

Class products come from one ProductTable per group over the shared
ClassIndex (see classes), whose cell (i, j) is the class mask of C_i * C_j.
The class fibers and both product tables live on the field's class indices.

- SL2: every element of C_i * C_j is conjugate to some x * y with x in C_i
  and y a fixed representative of C_j, so one pass over the whole group per
  representative y can fill column j.  tr(x * y) = ae + bg + cf + dh is
  read from q x q add and mul tables, and a trace other than +-2 fixes the
  class (SS[t] or NSS[t]).  Only products of trace +-2 get their
  off-diagonal entries formed, which tell +-I and the (negative) unipotent
  classes apart exactly as classify_sl2 does.  Such a pass fills only the
  column of the least class of each orbit under class negation and two
  automorphisms, sigma and phi (see _symmetries); the rest of the orbit is
  derived from it, and the column of I is C_i * I = C_i.  That is (q+1)/2
  passes at prime q, and 6 instead of 31 at q = 27.
- PSL2: cells are projected from SL2 cells.  For SL2 lifts D1, D2 of P1, P2
  the other lifts are -D1, -D2, and switching a lift only negates the
  product set, which projection erases; so P1 * P2 is the projection of
  D1 * D2.
- Triple products and covering numbers are OR-folds over table cells, each
  distinct (mask, class) folded once (ProductTable.compose); verify_laws
  compares them with the same folds over the laws' table.

brute_pair_product(..., paranoid=True) is the literal double loop over both
fibers with mat_mul and classify_sl2, kept as the independent reference the
tests compare the table against.

On a shared 2-core host (Python 3.11, in-process, enumeration included),
`sl2prod verify --field 3^3` takes 0.09-0.14 s and `--field 31` 0.20-0.24 s.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field as dc_field

from .field import FieldCtx
from .mat2 import Mat, iter_trace_fiber, mat_inv, mat_mul
from .classes import (PSLLabel, ProductTable, SL2Label, all_classes_sl2,
                      bits, class_index, classify_sl2, negate_class,
                      psl_lift_pair, psl_project, representative, sort_labels)
from . import laws

DEFAULT_MAX_Q = 31


class EnumerationBoundError(ValueError):
    """q is above the bound up to which the oracle may enumerate SL2(F_q)."""


class GroupTable:
    """SL2(F_q) as its class fibers: fiber[L] lists the elements of class L
    in the canonical order of iter_sl2.  A trace other than +-2 is one SS or
    NSS class, so only the elements of trace +-2 are classified one by one."""

    def __init__(self, F: FieldCtx):
        self.field = F
        self.fiber: dict[SL2Label, list[Mat]] = {
            L: list(iter_trace_fiber(F, L.param)) if L.is_semisimple else []
            for L in all_classes_sl2(F)}
        for t in (F.scalar(2), F.neg(2)):
            for m in iter_trace_fiber(F, t):
                self.fiber[classify_sl2(F, m, check=False)].append(m)

    @property
    def order(self) -> int:
        return self.field.q * (self.field.q ** 2 - 1)


def enumerate_sl2(F: FieldCtx, max_q: int = DEFAULT_MAX_Q) -> GroupTable:
    """Every class fiber of SL2(F), kept on F's class index; refuses q > max_q."""
    if F.q > max_q:
        raise EnumerationBoundError(f"q = {F.q} exceeds the enumeration bound {max_q}")
    C = class_index(F, "sl2")
    if C.group is None:
        C.group = GroupTable(F)
    return C.group


# -- class-product tables ----------------------------------------------------


def _product_table(T: GroupTable, kind: str) -> ProductTable:
    C = class_index(T.field, kind)
    if C.brute is None:
        C.brute = (_sl2_products(T) if kind == "sl2"
                   else _psl_products(T.field, _product_table(T, "sl2")))
    return C.brute


def _direct_columns(T: GroupTable):
    """The base case of the SL2 table: column(j) is the list of the masks of
    C_i * C_j over all i, from one pass over the group with the representative
    of C_j."""
    F = T.field
    q = F.q
    C = class_index(F, "sl2")
    ADD = [F.add(x, y) for x in range(q) for y in range(q)]    # ADD[x*q + y]
    MUL = [F.mul(x, y) for x in range(q) for y in range(q)]

    trace_bit = [0] * q        # semisimple class of each trace; 0 at +-2
    for k, L in enumerate(C.labels):
        if L.is_semisimple:
            trace_bit[L.param] = 1 << k
    nsr = F.nonsquare_rep
    # trace +-2 -> (central class, square class -> unipotent class)
    pm2 = {F.scalar(2): (C.bit("I"), {1: C.bit("U", 1), nsr: C.bit("U", nsr)}),
           F.neg(2): (C.bit("-I"), {1: C.bit("NU", 1), nsr: C.bit("NU", nsr)})}

    fibers = [T.fiber[L] for L in C.labels]
    top = [[a * q + b for a, b, _, _ in fib] for fib in fibers]
    bottom = [[c * q + d for _, _, c, d in fib] for fib in fibers]

    def column(j):
        e, f, g, h = representative(F, C.labels[j])
        me, mf, mg, mh = (MUL[v * q:(v + 1) * q] for v in (e, f, g, h))
        # tr(x y) = ADD[left[a*q + b] + right[c*q + d]]
        left = [ADD[me[a] * q + mg[b]] * q for a in range(q) for b in range(q)]
        right = [ADD[mf[c] * q + mh[d]] for c in range(q) for d in range(q)]
        masks = []
        for i, fib in enumerate(fibers):
            traces = [ADD[left[u] + right[v]] for u, v in zip(top[i], bottom[i])]
            seen = set(traces)
            mask = 0
            for t in seen:
                mask |= trace_bit[t]
            if not seen.isdisjoint(pm2):
                for (a, b, c, d), t in zip(fib, traces):
                    if t in pm2:
                        upper = ADD[mf[a] * q + mh[b]]     # (x y)_12
                        lower = ADD[me[c] * q + mg[d]]     # (x y)_21
                        central, unipotent = pm2[t]
                        if upper == 0 and lower == 0:
                            mask |= central
                        else:
                            mask |= unipotent[F.square_class(
                                upper if lower == 0 else F.neg(lower))]
            masks.append(mask)
        return masks
    return column


def _image(perm, mask: int) -> int:
    """Mask of the classes perm[k] for the classes k in mask."""
    out = 0
    for k in bits(mask):
        out |= 1 << perm[k]
    return out


def _symmetries(F: FieldCtx, C) -> list:
    """(classes, cells) maps for negation, sigma and phi: column classes[r]
    has as cell cells[i] the cell i of column r with each class k moved to
    classes[k].

    C_i * (-C_r) = -(C_i * C_r), so negation leaves cells in place.  sigma
    (conjugation by diag(nu, 1)) swaps U[1] with U[nu] and NU[1] with NU[nu];
    phi (entrywise x -> x^p) sends SS/NSS[t] to SS/NSS[t^p].  Both are
    automorphisms of SL2(F_q), so they move cells as they move classes."""
    n = len(C.labels)
    neg = [C.at(negate_class(F, L)) for L in C.labels]
    sigma = list(range(n))
    for kind in ("U", "NU"):
        u, v = C.slot[kind, 1], C.slot[kind, F.nonsquare_rep]
        sigma[u], sigma[v] = v, u
    phi = [C.slot[L.kind, F.power(L.param, F.p)] if L.is_semisimple else k
           for k, L in enumerate(C.labels)]
    return [(neg, range(n)), (sigma, sigma), (phi, phi)]


def _sl2_products(T: GroupTable) -> ProductTable:
    """The SL2 table.  Filled in class order, a class whose column is
    missing is the least of its orbit under _symmetries: one pass fills its
    column (none for I, as C_i * I = C_i), and the rest of the orbit is
    derived from it."""
    C = class_index(T.field, "sl2")
    n = len(C.labels)
    direct, moves = _direct_columns(T), _symmetries(T.field, C)
    columns: dict[int, list[int]] = {}
    for r in range(n):
        if r in columns:
            continue
        columns[r] = [1 << i for i in range(n)] if C.labels[r].is_central else direct(r)
        todo = [r]
        while todo:
            s = todo.pop()
            for perm, cells in moves:
                if perm[s] not in columns:
                    out = columns[perm[s]] = [0] * n
                    for i, mask in enumerate(columns[s]):
                        out[cells[i]] = _image(perm, mask)
                    todo.append(perm[s])
    return ProductTable(C, lambda i, j: columns[j][i])


def _psl_products(F: FieldCtx, S: ProductTable) -> ProductTable:
    """PSL2 cells projected from the SL2 table S."""
    C = class_index(F, "psl2")
    project = [C.at(psl_project(F, L)) for L in S.classes.labels]
    lift = [S.classes.at(psl_lift_pair(F, P)[0]) for P in C.labels]
    return ProductTable(C, lambda i, j: _image(project, S.pair(lift[i], lift[j])))


def brute_pair_product(T: GroupTable, L1: SL2Label, L2: SL2Label,
                       paranoid: bool = False) -> frozenset:
    """Exact label set of C1*C2.

    Default mode reads the SL2 product table.  Paranoid mode runs the
    literal double loop over both fibers."""
    if not paranoid:
        return _product_table(T, "sl2").of_labels(L1, L2)
    F = T.field
    return frozenset(classify_sl2(F, mat_mul(F, x, y), check=False)
                     for x in T.fiber[L1] for y in T.fiber[L2])


def brute_pair_product_psl(T: GroupTable, P1: PSLLabel, P2: PSLLabel) -> frozenset:
    """Exact PSL label set, projected from the SL2 cell of one lift of each
    class."""
    return _product_table(T, "psl2").of_labels(P1, P2)


def brute_triple_product(T: GroupTable, L1, L2, L3, kind: str = "sl2") -> frozenset:
    """Triple product folded from the brute pair table; exact since class
    products are conjugation closed."""
    return _product_table(T, kind).of_labels(L1, L2, L3)


def brute_commutator_set(T: GroupTable, kind: str = "psl2") -> frozenset:
    """Labels of [s, u] over semisimple s and unipotent u.

    u runs over one representative per unipotent class plus the identity
    (conjugating the pair sweeps the commutator's class, and the identity
    is only reachable through the degenerate witness u = 1)."""
    F = T.field
    class_index(F, kind)        # rejects a kind other than sl2 and psl2
    u_reps = [representative(F, SL2Label("U", 1)),
              representative(F, SL2Label("U", F.nonsquare_rep))]
    semis = [fiber for L, fiber in T.fiber.items() if L.is_semisimple]
    out = set()
    for u in u_reps:
        uinv = mat_inv(F, u)
        for s in itertools.chain.from_iterable(semis):
            c = mat_mul(F, mat_mul(F, s, u), mat_mul(F, mat_inv(F, s), uinv))
            out.add(classify_sl2(F, c, check=False))
    out.add(SL2Label("I"))
    if kind == "sl2":
        return frozenset(out)
    return frozenset(psl_project(F, L) for L in out)


# -- verification ------------------------------------------------------------


@dataclass
class Mismatch:
    where: tuple
    law: tuple
    brute: tuple
    counterexample: Mat | None = None

    def to_dict(self):
        return {"where": [str(L) for L in self.where],
                "law": [str(L) for L in self.law],
                "brute": [str(L) for L in self.brute],
                "counterexample": list(self.counterexample) if self.counterexample else None}


@dataclass
class VerificationReport:
    q: int
    kind: str
    pair_count: int = 0
    pair_mismatches: list = dc_field(default_factory=list)
    triple_count: int = 0
    triple_mismatches: list = dc_field(default_factory=list)
    containment_failures: list = dc_field(default_factory=list)
    covering: tuple | None = None

    @property
    def ok(self) -> bool:
        return not (self.pair_mismatches or self.triple_mismatches
                    or self.containment_failures)

    def to_dict(self):
        return {
            "q": self.q,
            "group": self.kind,
            "pairs": {"checked": self.pair_count,
                      "failures": [m.to_dict() for m in self.pair_mismatches]},
            "triples": {"checked": self.triple_count,
                        "failures": [m.to_dict() for m in self.triple_mismatches],
                        "containment_failures": self.containment_failures},
            "covering": (None if self.covering is None
                         else {"cn": self.covering[0], "ecn": self.covering[1]}),
            "ok": self.ok,
        }


def _pair_counterexample(T: GroupTable, kind, L1, L2, missing):
    """A concrete product landing in a class the law missed.  For PSL2 the
    search runs over the fiber of the SL2 lift of L1 and projects."""
    F = T.field
    name = lambda L: L
    if kind == "psl2":
        L1, L2 = psl_lift_pair(F, L1)[0], psl_lift_pair(F, L2)[0]
        name = lambda L: psl_project(F, L)
    y = representative(F, L2)
    for x in T.fiber[L1]:
        m = mat_mul(F, x, y)
        if name(classify_sl2(F, m, check=False)) in missing:
            return m
    return None


def _triple_counterexample(T: GroupTable, kind, brute: ProductTable, i, j, k,
                           missing):
    """An element of C_i * C_j * C_k in a class of the mask missing: w * z
    with z the representative of C_k and w in a class C_m of C_i * C_j (a
    brute pair cell) whose product with C_k meets missing."""
    labels = brute.classes.labels
    for m in bits(brute.pair(i, j)):
        hit = brute.pair(m, k) & missing
        if hit:
            return _pair_counterexample(T, kind, labels[m], labels[k],
                                        brute.classes.labels_of(hit))
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


_PAIR_LAWS = {"sl2": "sl2_pair_product", "psl2": "psl_pair_product"}


def verify_laws(F: FieldCtx, kind: str, max_q: int = DEFAULT_MAX_Q,
                with_covering: bool = True) -> VerificationReport:
    """Compare every pairwise and triple law with brute force."""
    C = class_index(F, kind)        # rejects a bad kind before enumerating
    T = enumerate_sl2(F, max_q=max_q)
    report = VerificationReport(q=F.q, kind=kind)
    # read at run time, so that the law being certified is the one in place
    law_pair = getattr(laws, _PAIR_LAWS[kind])
    law, brute = laws.law_table(F, kind), _product_table(T, kind)
    labels = C.labels

    for i, L1 in enumerate(labels):
        for j, L2 in enumerate(labels):
            report.pair_count += 1
            got, want = law_pair(F, L1, L2), C.labels_of(brute.pair(i, j))
            if got != want:
                missing = want - got
                ce = _pair_counterexample(T, kind, L1, L2, missing) if missing else None
                report.pair_mismatches.append(
                    Mismatch((L1, L2), sort_labels(got), sort_labels(want), ce))

    noncentral = C.full & ~sum(1 << k for k, L in enumerate(labels) if L.is_central)
    for i, j, k in itertools.combinations_with_replacement(range(len(labels)), 3):
        report.triple_count += 1
        got, want = law.triple(i, j, k), brute.triple(i, j, k)
        trip = (labels[i], labels[j], labels[k])
        if got != want:
            ce = _triple_counterexample(T, kind, brute, i, j, k, want & ~got)
            report.triple_mismatches.append(
                Mismatch(trip, sort_labels(C.labels_of(got)),
                         sort_labels(C.labels_of(want)), ce))
        if noncentral & ~got and triple_containment_expected(F, kind, trip):
            report.containment_failures.append({
                "triple": [str(L) for L in trip],
                "missing": [str(L) for L in sort_labels(C.labels_of(noncentral & ~got))]})

    if with_covering:
        report.covering = covering_numbers(F, kind, max_q=max_q)
    return report


# -- covering numbers --------------------------------------------------------


def covering_numbers(F: FieldCtx, kind: str, limit: int = 8,
                     max_q: int = DEFAULT_MAX_Q) -> tuple:
    """(cn, ecn) computed from literal brute n-fold class products.

    cn: least n with C^n = G for every non-central class C.
    ecn: least n with C_1...C_n = G for every n-tuple of non-central classes.
    Returns None in a slot not reached within `limit`."""
    C = class_index(F, kind)        # rejects a bad kind before enumerating
    P = _product_table(enumerate_sl2(F, max_q=max_q), kind)
    noncentral = [k for k, L in enumerate(C.labels) if not L.is_central]

    def least(level, step):
        """Least n <= limit at which every mask of level, after n - 1 steps,
        is the whole group; None if there is none."""
        for n in range(1, limit + 1):
            if n > 1:
                level = step(level)
            if all(S == C.full for S in level):
                return n
        return None

    cn = least([1 << C for C in noncentral],       # C^n for each class C
               lambda level: [P.compose(S, C) for S, C in zip(level, noncentral)])
    ecn = least({1 << C for C in noncentral},      # every n-fold product
                lambda level: {P.compose(S, C) for S in level for C in noncentral})
    return cn, ecn
