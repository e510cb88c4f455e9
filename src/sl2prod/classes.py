"""Conjugacy-class taxonomy of SL2(F_q) and PSL2(F_q).

SL2 label grammar: I, -I, U[s], NU[s], SS[t], NSS[t] with s a square-class
representative (1 or the field's nonsquare representative) and t a trace
encoding.  PSL2 grammar: P1, PU[s], PSS[t], PNSS[t] with t the smaller of
the two lift traces {t, -t}.

Inside the library a class is its index in all_classes_sl2(F) or
all_classes_psl(F), a set of classes an int bitmask (ClassIndex), and a
membership one bit of a mask; labels, whose two types share one body, are
only parsed, printed and returned.  The class index judges every label:
each function that takes one from outside asks class_index(F, kind).at
first, and the label-to-label maps (negate_class, inverse_class,
psl_project, psl_inverse_class) do not.  at takes only its group's label
type with a param of type int, since a label hashes and compares as its
tuple: U[True], U[1.0] and ("U", 1) would all find the slot of U[1]; so
memos are keyed by class index.  The laws and the oracle each fill a
ProductTable of pair-product masks and answer triples from it.  The field's
memo owns both class indices, and each index its group's tables.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import compress, count
from typing import NamedTuple

from .field import FieldCtx, _prime_factors
from .mat2 import IDENT, Mat, minus_ident, quadratic_roots, sl2

_RANK = {"I": 0, "-I": 1, "U": 2, "NU": 3, "SS": 4, "NSS": 5,   # each group's kinds
         "P1": 0, "PU": 1, "PSS": 2, "PNSS": 3}                  # in canonical order
_LIFT_KIND = {"P1": "I", "PU": "U", "PSS": "SS", "PNSS": "NSS"}
_FLAGS = bytes.maketrans(b"01", b"\0\1")      # binary digits as compress flags


class _Label(NamedTuple):
    kind: str          # I, -I, U, NU, SS, NSS (SL2) or P1, PU, PSS, PNSS (PSL2)
    param: int = 0     # square-class rep for U/NU/PU, trace for the semisimple kinds

    def __str__(self) -> str:
        if self.is_central and not self.param:
            return self.kind
        return f"{self.kind}[{self.param}]"

    @property
    def is_central(self) -> bool:
        return self.kind in ("I", "-I", "P1")

    @property
    def is_semisimple(self) -> bool:
        return self.kind in ("SS", "NSS", "PSS", "PNSS")

    @property
    def sort_key(self):
        return (_RANK[self.kind], self.param)


class SL2Label(_Label):
    __slots__ = ()


class PSLLabel(_Label):
    __slots__ = ()


_LABEL_RE = re.compile(r"^(I|-I|P1)$|^(U|NU|SS|NSS|PU|PSS|PNSS)\[([0-9]+)\]$")


def classify_sl2(F: FieldCtx, m: Mat, check: bool = True) -> SL2Label:
    """Label of the SL2 conjugacy class of m; if check, a 4-tuple that mat2.sl2 accepts."""
    if check:
        if not isinstance(m, tuple) or len(m) != 4:
            raise ValueError(f"matrix {m!r} is not a 4-tuple")
        sl2(F, *m)
    a, b, c, d = m
    t = F.add(a, d)
    two, ntwo = F.scalar(2), F.neg(2)
    if t == two:
        if b == 0 and c == 0:
            return SL2Label("I")
        # conjugation-invariant square class: b when upper triangular, else -c
        return SL2Label("U", F.square_class(b if c == 0 else F.neg(c)))
    if t == ntwo:
        if b == 0 and c == 0:
            return SL2Label("-I")
        return SL2Label("NU", F.square_class(b if c == 0 else F.neg(c)))
    disc = F.sub(F.mul(t, t), F.scalar(4))
    return SL2Label("SS" if F.is_square(disc) else "NSS", t)


def representative(F: FieldCtx, L: SL2Label) -> Mat:
    """The table representative of the class L of SL2(F), deterministic per
    field."""
    class_index(F, "sl2").at(L)
    n1, t = F.neg(1), L.param
    if L.kind == "I":
        return IDENT
    if L.kind == "-I":
        return minus_ident(F)
    if L.kind == "U":
        return (1, t, 0, 1)
    if L.kind == "NU":
        return (n1, t, 0, n1)
    if L.kind == "NSS":
        return (0, n1, 1, t)
    alpha = quadratic_roots(F, 1, F.neg(t), 1)[0]     # the smaller eigenvalue
    return (alpha, 0, 0, F.inv(alpha))


def all_classes_sl2(F: FieldCtx) -> tuple[SL2Label, ...]:
    """The q+4 class labels in canonical order."""
    return class_index(F, "sl2").labels


def _sl2_labels(F: FieldCtx) -> tuple[SL2Label, ...]:
    nsr = F.nonsquare_rep
    out = [SL2Label("I"), SL2Label("-I"),
           SL2Label("U", 1), SL2Label("U", nsr),
           SL2Label("NU", 1), SL2Label("NU", nsr)]
    two, ntwo = F.scalar(2), F.neg(2)
    split, nonsplit = [], []
    for t in F.elements():
        if t in (two, ntwo):
            continue
        disc = F.sub(F.mul(t, t), F.scalar(4))
        (split if F.is_square(disc) else nonsplit).append(t)
    out.extend(SL2Label("SS", t) for t in split)
    out.extend(SL2Label("NSS", t) for t in nonsplit)
    return tuple(out)


def _psl_labels(F: FieldCtx) -> tuple[PSLLabel, ...]:
    """The SL2 labels I, U[s] and SS/NSS[t] with t <= -t, projected in SL2
    order."""
    return tuple(psl_project(F, L) for L in class_index(F, "sl2").labels
                 if L.kind in ("I", "U") or L.is_semisimple and L.param <= F.neg(L.param))


def negate_class(F: FieldCtx, L: SL2Label) -> SL2Label:
    """Label of -x for x in the class L of SL2(F)."""
    if L.kind == "I":
        return SL2Label("-I")
    if L.kind == "-I":
        return SL2Label("I")
    if L.kind == "U":
        return SL2Label("NU", F.square_class(F.neg(L.param)))
    if L.kind == "NU":
        return SL2Label("U", F.square_class(F.neg(L.param)))
    return SL2Label(L.kind, F.neg(L.param))


def inverse_class(F: FieldCtx, L: SL2Label) -> SL2Label:
    """Label of x^-1 for x in the class L of SL2(F); SS, NSS, I, -I are real."""
    if L.kind in ("U", "NU"):
        return SL2Label(L.kind, F.square_class(F.neg(L.param)))
    return L


def psl_inverse_class(F: FieldCtx, P: PSLLabel) -> PSLLabel:
    """Label of x^-1 for x in the class P of PSL2(F)."""
    if P.kind == "PU":
        return PSLLabel("PU", F.square_class(F.neg(P.param)))
    return P


def psl_project(F: FieldCtx, L: SL2Label) -> PSLLabel:
    """The PSL2 class of the image of the class L of SL2(F)."""
    if L.is_central:
        return PSLLabel("P1")
    if L.kind == "U":
        return PSLLabel("PU", L.param)
    if L.kind == "NU":
        return PSLLabel("PU", F.square_class(F.neg(L.param)))
    t = min(L.param, F.neg(L.param))
    return PSLLabel("PSS" if L.kind == "SS" else "PNSS", t)


def psl_classify(F: FieldCtx, m: Mat) -> PSLLabel:
    return psl_project(F, classify_sl2(F, m))


def psl_lift_pair(F: FieldCtx, P: PSLLabel) -> tuple[SL2Label, SL2Label]:
    """The two SL2 classes over the class P of PSL2(F), as (D, negate_class(D))."""
    class_index(F, "psl2").at(P)
    D = SL2Label(_LIFT_KIND[P.kind], P.param)
    return D, negate_class(F, D)


def all_classes_psl(F: FieldCtx) -> tuple[PSLLabel, ...]:
    """The (q+5)/2 PSL2 class labels in canonical order."""
    return class_index(F, "psl2").labels


def psl_representative(F: FieldCtx, P: PSLLabel) -> Mat:
    """Canonical SL2 lift of the PSL class representative."""
    return representative(F, psl_lift_pair(F, P)[0])


def psl_element_order(F: FieldCtx, P: PSLLabel) -> int:
    """Order of the class elements in PSL2.  A lift m of trace P.param has m^N = I,
    N = q - 1 (PSS) or q + 1 (PNSS); each prime r is divided out of N while m^(N/r)
    is +-I, that is, as m is semisimple, while tr(m^(N/r)) = +-2 (_lucas_trace)."""
    class_index(F, "psl2").at(P)
    if P.kind == "P1":
        return 1
    if P.kind == "PU":
        return F.p
    n, scalars = F.q - 1 if P.kind == "PSS" else F.q + 1, (F.scalar(2), F.neg(2))
    for r in _prime_factors(n):
        while n % r == 0 and _lucas_trace(F, P.param, n // r) in scalars:
            n //= r
    return n


def _lucas_trace(F: FieldCtx, t: int, n: int) -> int:
    """tr(m^n) for m of trace t in SL2(F): V_2k = V_k^2 - 2, V_2k+1 = V_k V_k+1 - t."""
    v, w, two = F.scalar(2), t, F.scalar(2)     # (V_0, V_1), climbing the bits of n
    for bit in bin(n)[2:]:
        vw = F.sub(F.mul(v, w), t)
        v, w = (vw, F.sub(F.mul(w, w), two)) if bit == "1" else (F.sub(F.mul(v, v), two), vw)
    return v


def is_q_good(F: FieldCtx, P: PSLLabel) -> bool:
    """Divisibility test on the order of a semisimple PSL class."""
    t = psl_element_order(F, P)
    if not P.is_semisimple:
        raise ValueError(f"is_q_good is defined on semisimple classes, got {P}")
    bound = F.q - 1 if P.kind == "PSS" else F.q + 1    # t divides it, so an odd t is good
    return t % 2 == 1 or bound % (4 * t) == 0


def parse_label(F: FieldCtx, text: str):
    """Parse an SL2 or PSL2 label string; PSS/PNSS traces are canonicalized.
    ValueError unless the label is a class of its group over F."""
    m = _LABEL_RE.match(text.strip()) if isinstance(text, str) else None
    if not m:
        raise ValueError(f"bad label {text!r}")
    kind, param = m.group(1) or m.group(2), F.of(int(m.group(3) or 0))
    if kind in ("PSS", "PNSS"):
        param = min(param, F.neg(param))
    L = (PSLLabel if kind.startswith("P") else SL2Label)(kind, param)
    class_index(F, "psl2" if isinstance(L, PSLLabel) else "sl2").at(L)
    return L


def parse_sl2_label(F: FieldCtx, text: str) -> SL2Label:
    L = parse_label(F, text)
    if not isinstance(L, SL2Label):
        raise ValueError(f"{text!r} is a PSL2 label, SL2 expected")
    return L


def parse_psl_label(F: FieldCtx, text: str) -> PSLLabel:
    L = parse_label(F, text)
    if not isinstance(L, PSLLabel):
        raise ValueError(f"{text!r} is an SL2 label, PSL2 expected")
    return L


def sort_labels(labels):
    return tuple(sorted(labels, key=lambda L: L.sort_key))


# -- class sets as bitmasks ---------------------------------------------------


def bits(mask: int):
    """Indices of the set bits of mask, lowest first: one pass over
    bin(mask), as in ClassIndex.labels_of, or none for at most one bit."""
    if mask & (mask - 1) == 0:
        return (mask.bit_length() - 1,) if mask else ()
    return compress(count(), bin(mask)[:1:-1].encode().translate(_FLAGS))


def _joined(cells: list[int], width: int) -> int:
    """The int with cells[k] at bit k*width on, joined by halves (n log n shifts, not n^2)."""
    if len(cells) <= 32:
        out = 0
        for cell in reversed(cells):
            out = out << width | cell
        return out
    half = len(cells) // 2
    return _joined(cells[:half], width) | _joined(cells[half:], width) << half * width


class ClassIndex:
    """The classes of one group over the field F in canonical order; class k
    is bit k of a class-set mask.  Its tables are filled on first use: pairs
    (the laws.ProductLaw of each public pair query, keyed by the ordered
    class indices), shifts (the mask of the semisimple classes with 2 - t a
    square, from which laws._semisimple_by_shift reads its masks),
    central_rows, law by laws, and brute by the oracle."""

    def __init__(self, F: FieldCtx, labels, name: str):
        self.law = self.brute = self.shifts = None
        self.label_type = type(labels[0])       # SL2Label or PSLLabel
        self.pairs: dict[tuple[int, int], tuple] = {}
        self.field, self.labels, self.name = F, labels, name
        self.full, self.n_central = (1 << len(labels)) - 1, sum(L.is_central for L in labels)
        self.slot = {L: k for k, L in enumerate(labels)}   # slot[kind, param] too
        # the labels come grouped by kind, so each kind's mask is one run of bits
        ends = {L.kind: k + 1 for k, L in enumerate(labels)}
        self.kind_mask = {kind: (1 << hi) - (1 << lo)
                          for (kind, hi), lo in zip(ends.items(), (0, *ends.values()))}
        self._sets, self._central = {}, {}      # labels_of and central_rows memos

    def at(self, L) -> int:
        """Index of the class L; ValueError unless L is a label of the
        group's type, with an int param, that names one of its classes."""
        k = (self.slot.get(L)
             if type(L) is self.label_type and type(L.param) is int else None)
        if k is None:
            raise ValueError(f"{L} is not a class of {self.name}")
        return k

    def bit(self, kind: str, param: int = 0) -> int:
        return 1 << self.slot[kind, param]

    def labels_of(self, mask: int) -> frozenset:
        out = self._sets.get(mask)
        if out is None:
            flags = bin(mask)[:1:-1].encode().translate(_FLAGS)   # byte k is bit k
            out = self._sets[mask] = frozenset(compress(self.labels, flags))
        return out

    def central_rows(self, k: int) -> tuple[int, ...]:
        """The row z * C_k^-1 of each central z, in index order: the row whose cell holds z."""
        rows = self._central.get(k)
        if rows is None:
            F, L = self.field, self.labels[k]
            rows = self._central[k] = tuple(self.at(M) for M in (
                (psl_inverse_class(F, L),) if isinstance(L, PSLLabel)
                else (inverse_class(F, L), inverse_class(F, negate_class(F, L)))))
        return rows


def class_index(F: FieldCtx, kind: str) -> ClassIndex:
    """The class index of SL2(F) ("sl2") or PSL2(F) ("psl2"), kept in F's memo."""
    try:
        C = F.memo.get(kind)
    except TypeError:       # an unhashable kind is a miss, so a ValueError below
        C = None
    if C is None:
        if kind not in ("sl2", "psl2"):
            raise ValueError(f"kind must be sl2 or psl2, got {kind!r}")
        C = F.memo[kind] = ClassIndex(
            F, _sl2_labels(F) if kind == "sl2" else _psl_labels(F), f"{kind.upper()}({F!r})")
    return C


class ProductTable:
    """Class products of one group: cell (i, j) is the mask of C_i * C_j; they
    commute (xy = y * y^-1 x y), so one fill(i, j), i <= j, on first use of
    either order, serves both.  A fold compose(mask, j) ORs the cells of the
    bits of mask in index order and stops once it is the whole group, so the
    cells it skips stay unfilled."""
    closed: dict | None = None      # closed-form triples by (cell, k), if laws.law_table allows

    def __init__(self, classes: ClassIndex, fill):
        self.classes = classes
        self._fill = fill
        c = classes.n_central   # each closed-form triple is one of these 2^c masks
        self._forms = tuple(classes.full >> c << c | z for z in range(1 << c))
        self._columns: dict[int, dict[int, int]] = defaultdict(dict)  # filled cells only

    def pair(self, i: int, j: int) -> int:
        cell = self._columns[j].get(i)
        if cell is None:
            cell = self._columns[i][j] = self._columns[j][i] = self._fill(min(i, j), max(i, j))
        return cell

    def rows(self) -> list[int]:
        """Row m as one int, cell (m, k) at bit k*n on: column m, its missing cells filled."""
        n, columns = len(self.classes.labels), self._columns
        for j in range(n):
            for i in range(j + 1):
                if i not in columns[j]:
                    columns[j][i] = columns[i][j] = self._fill(i, j)
        return [_joined([columns[m][k] for k in range(n)], n) for m in range(n)]

    def compose(self, mask: int, j: int) -> int:
        """Mask of S * C_j for the class set S given by mask."""
        column, full, out = self._columns[j], self.classes.full, 0
        for i in bits(mask):
            cell = column.get(i)
            out |= self.pair(i, j) if cell is None else cell
            if out == full:     # no further cell can change the fold
                break
        return out

    def triple(self, i: int, j: int, k: int) -> int:
        """Mask of C_i * C_j * C_k.  Products commute, so factors go in index
        order, central first: a fold with a central factor reads one cell.  The
        closed form: every non-central class, and each central z with z * C_k^-1 in C_i * C_j."""
        C = self.classes
        c = C.n_central                     # the central classes are 0 .. c - 1
        if i < c or j < c or k < c:
            i, j, k = sorted((i, j, k))
        cell = self.pair(i, j)
        if self.closed is None or i < c:
            return self.compose(cell, k)
        out = self.closed.get((cell, k))
        if out is None:
            z = 0       # bit z for each central z whose row z * C_k^-1 the cell holds
            for row in reversed(C.central_rows(k)):
                z = z << 1 | cell >> row & 1
            out = self.closed[cell, k] = self._forms[z]
        return out

    def of_labels(self, *labels) -> frozenset:
        """Label set of the product of two or three classes given by label."""
        at = [self.classes.at(L) for L in labels]
        return self.classes.labels_of((self.pair if len(at) == 2 else self.triple)(*at))
