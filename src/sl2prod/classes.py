"""Conjugacy-class taxonomy of SL2(F_q) and PSL2(F_q).

SL2 label grammar: I, -I, U[s], NU[s], SS[t], NSS[t] with s a square-class
representative (1 or the field's nonsquare representative) and t a trace
encoding.  PSL2 grammar: P1, PU[s], PSS[t], PNSS[t] with t the smaller of
the two lift traces {t, -t}.

Inside the library a class is its index in all_classes_sl2(F) or
all_classes_psl(F) and a set of classes is an int bitmask (ClassIndex).
The class index judges every label: each function that takes one from
outside asks class_index(F, kind).at first, and the label-to-label maps
(negate_class, inverse_class, psl_project, psl_inverse_class) do not.
The laws and the oracle each fill a ProductTable of pair-product masks and
fold triples over it; label sets are built only for public return values.
The field's memo owns both class indices, and each index its group's tables.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain
from typing import NamedTuple

from .field import FieldCtx
from .mat2 import IDENT, Mat, mat_mul, minus_ident, sl2

_KIND_RANK = {"I": 0, "-I": 1, "U": 2, "NU": 3, "SS": 4, "NSS": 5}
_PSL_KIND_RANK = {"P1": 0, "PU": 1, "PSS": 2, "PNSS": 3}
_LIFT_KIND = {"P1": "I", "PU": "U", "PSS": "SS", "PNSS": "NSS"}


class SL2Label(NamedTuple):
    kind: str          # one of I, -I, U, NU, SS, NSS
    param: int = 0     # square-class rep for U/NU, trace for SS/NSS

    def __str__(self) -> str:
        if self.kind in ("I", "-I") and not self.param:
            return self.kind
        return f"{self.kind}[{self.param}]"

    @property
    def is_central(self) -> bool:
        return self.kind in ("I", "-I")

    @property
    def is_semisimple(self) -> bool:
        return self.kind in ("SS", "NSS")

    @property
    def sort_key(self):
        return (_KIND_RANK[self.kind], self.param)


class PSLLabel(NamedTuple):
    kind: str          # one of P1, PU, PSS, PNSS
    param: int = 0

    def __str__(self) -> str:
        if self.kind == "P1" and not self.param:
            return "P1"
        return f"{self.kind}[{self.param}]"

    @property
    def is_central(self) -> bool:
        return self.kind == "P1"

    @property
    def is_semisimple(self) -> bool:
        return self.kind in ("PSS", "PNSS")

    @property
    def sort_key(self):
        return (_PSL_KIND_RANK[self.kind], self.param)


_LABEL_RE = re.compile(r"^(I|-I|P1)$|^(U|NU|SS|NSS|PU|PSS|PNSS)\[([0-9]+)\]$")


def classify_sl2(F: FieldCtx, m: Mat, check: bool = True) -> SL2Label:
    """Label of the SL2 conjugacy class of m, validated by mat2.sl2 if check."""
    a, b, c, d = m
    if check:
        sl2(F, a, b, c, d)
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
    r = F.sqrt(F.sub(F.mul(t, t), F.scalar(4)))
    half = F.inv(F.scalar(2))
    alpha = min(F.mul(F.add(t, r), half), F.mul(F.sub(t, r), half))
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


def psl_classify(F: FieldCtx, m: Mat, check: bool = True) -> PSLLabel:
    return psl_project(F, classify_sl2(F, m, check=check))


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
    """Order of the class elements in PSL2, by repeated multiplication."""
    class_index(F, "psl2").at(P)
    if P.kind == "P1":
        return 1
    if P.kind == "PU":
        return F.p
    m, mi = psl_representative(F, P), minus_ident(F)
    x, n = m, 1
    while x != IDENT and x != mi:
        x = mat_mul(F, x, m)
        n += 1
    return n


def is_q_good(F: FieldCtx, P: PSLLabel) -> bool:
    """Divisibility test on the order of a semisimple PSL class."""
    t = psl_element_order(F, P)
    if not P.is_semisimple:
        raise ValueError(f"is_q_good is defined on semisimple classes, got {P}")
    bound = F.q - 1 if P.kind == "PSS" else F.q + 1
    if t % 2 == 1:
        return bound % t == 0
    return bound % (4 * t) == 0


def parse_label(F: FieldCtx, text: str):
    """Parse an SL2 or PSL2 label string; PSS/PNSS traces are canonicalized.
    ValueError unless the label is a class of its group over F."""
    m = _LABEL_RE.match(text.strip())
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
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class ClassIndex:
    """The classes of one group over the field F in canonical order; class k
    is bit k of a class-set mask.  Its tables are filled on first use: pairs
    (the label set and rule of each pair query), shifts (the semisimple masks
    of laws._semisimple_by_shift), central_rows, law by laws, and brute and
    (SL2 only) group by the oracle."""

    def __init__(self, F: FieldCtx, labels, name: str):
        self.law = self.brute = self.group = self.shifts = None
        self.pairs: dict[tuple, tuple[frozenset, str]] = {}
        self.field, self.labels, self.name = F, labels, name
        self.full = (1 << len(labels)) - 1
        self.slot = {(L.kind, L.param): k for k, L in enumerate(labels)}
        # the labels come grouped by kind, so each kind's mask is one run of bits
        ends = {L.kind: k + 1 for k, L in enumerate(labels)}
        self.kind_mask = {kind: (1 << hi) - (1 << lo)
                          for (kind, hi), lo in zip(ends.items(), (0, *ends.values()))}
        self._sets, self._central = {}, {}      # labels_of and central_rows memos

    def at(self, L) -> int:
        """Index of the class L; ValueError if L is not a class of the group."""
        k = self.slot.get((L.kind, L.param))    # cheaper than hashing L
        if k is None:
            raise ValueError(f"{L} is not a class of {self.name}")
        return k

    def bit(self, kind: str, param: int = 0) -> int:
        return 1 << self.slot[kind, param]

    def labels_of(self, mask: int) -> frozenset:
        out = self._sets.get(mask)
        if out is None:
            out = self._sets[mask] = frozenset(self.labels[k] for k in bits(mask))
        return out

    def central_rows(self, k: int) -> int:
        """Mask of the rows i whose cell (i, k) can hold a central z: C_i = z * C_k^-1."""
        rows = self._central.get(k)
        if rows is None:
            F, L = self.field, self.labels[k]
            inverses = ((psl_inverse_class(F, L),) if isinstance(L, PSLLabel)
                        else (inverse_class(F, L), inverse_class(F, negate_class(F, L))))
            rows = self._central[k] = sum({1 << self.at(M) for M in inverses})
        return rows


def class_index(F: FieldCtx, kind: str) -> ClassIndex:
    """The class index of SL2(F) ("sl2") or PSL2(F) ("psl2"), kept in F's memo."""
    C = F.memo.get(kind)
    if C is None:
        if kind not in ("sl2", "psl2"):
            raise ValueError(f"kind must be sl2 or psl2, got {kind!r}")
        C = F.memo[kind] = ClassIndex(
            F, _sl2_labels(F) if kind == "sl2" else _psl_labels(F), f"{kind.upper()}({F!r})")
    return C


class ProductTable:
    """Class products of one group: cell (i, j) is the mask of C_i * C_j,
    computed by fill(i, j) on first use, and each fold compose(mask, j) is
    kept in composed.  A fold takes the bits of mask in central_rows(j) first
    and stops once it is the whole group, so the cells it skips stay unfilled."""

    def __init__(self, classes: ClassIndex, fill):
        self.classes = classes
        self._fill = fill
        self._columns = defaultdict(lambda: [None] * len(classes.labels))   # on first use
        self.composed: dict[tuple[int, int], int] = {}

    def pair(self, i: int, j: int) -> int:
        cell = self._columns[j][i]
        if cell is None:
            cell = self._columns[j][i] = self._fill(i, j)
        return cell

    def compose(self, mask: int, j: int) -> int:
        """Mask of S * C_j for the class set S given by mask."""
        out = self.composed.get((mask, j))
        if out is None:
            column, full = self._columns[j], self.classes.full
            central, out = self.classes.central_rows(j) & mask, 0
            for i in chain(bits(central), bits(mask ^ central)):
                cell = column[i]
                out |= self.pair(i, j) if cell is None else cell
                if out == full:     # no further cell can change the fold
                    break
            self.composed[mask, j] = out
        return out

    def triple(self, i: int, j: int, k: int) -> int:
        """Mask of C_i * C_j * C_k; exact because class products are unions
        of classes."""
        return self.compose(self.pair(i, j), k)

    def of_labels(self, L1, L2, *more) -> frozenset:
        """Label set of the product of two or more classes given by label."""
        at = self.classes.at
        mask = self.pair(at(L1), at(L2))
        for L in more:
            mask = self.compose(mask, at(L))
        return self.classes.labels_of(mask)
