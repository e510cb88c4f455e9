"""The sharp Bruhat form of SL2(F_q), a reference that the structural
tests certify (criterion 7 in test_acceptance, and test_mat2).

Nothing in sl2prod reads it: the laws, the witnesses and the oracle work on
matrices and class labels.
"""

from __future__ import annotations

from typing import NamedTuple

from sl2prod.field import FieldCtx
from sl2prod.mat2 import Mat


# -- sharp Bruhat form -----------------------------------------------------
#
# Generators: h(a) = diag(a, a^-1), n(a) = h(a) * [[0,1],[-1,0]],
# X12(t) = [[1,t],[0,1]].  Every SL2 element is uniquely h(alpha) X12(psi)
# (the Borel cell, c = 0) or X12(tau) n(alpha) X12(psi) (the big cell).


class Torus(NamedTuple):
    alpha: int
    psi: int


class BigCell(NamedTuple):
    tau: int
    alpha: int
    psi: int

BruhatForm = Torus | BigCell


def bruhat_decompose(F: FieldCtx, m: Mat) -> BruhatForm:
    a, b, c, d = m
    if c == 0:
        return Torus(a, F.div(b, a))
    cinv = F.inv(c)
    return BigCell(F.mul(a, cinv), F.neg(cinv), F.mul(d, cinv))


def bruhat_compose(F: FieldCtx, f: BruhatForm) -> Mat:
    if f.alpha == 0:
        raise ValueError("alpha must be a unit")
    if isinstance(f, Torus):
        return (f.alpha, F.mul(f.alpha, f.psi), 0, F.inv(f.alpha))
    ainv = F.inv(f.alpha)
    # X12(tau) n(alpha) X12(psi) = [[-tau/alpha, alpha - tau*psi/alpha],
    #                               [-1/alpha,   -psi/alpha]]
    return (F.neg(F.mul(f.tau, ainv)),
            F.sub(f.alpha, F.mul(F.mul(f.tau, f.psi), ainv)),
            F.neg(ainv),
            F.neg(F.mul(f.psi, ainv)))


def bruhat_trace(F: FieldCtx, f: BruhatForm) -> int:
    if isinstance(f, Torus):
        return F.add(f.alpha, F.inv(f.alpha))
    return F.neg(F.mul(F.inv(f.alpha), F.add(f.tau, f.psi)))


def bruhat_product(F: FieldCtx, f1: BruhatForm, f2: BruhatForm) -> BruhatForm:
    """Sharp form of compose(f1) * compose(f2), computed symbolically."""
    if isinstance(f1, Torus) and isinstance(f2, Torus):
        a2sq = F.mul(f2.alpha, f2.alpha)
        return Torus(F.mul(f1.alpha, f2.alpha),
                     F.add(F.div(f1.psi, a2sq), f2.psi))
    if isinstance(f1, Torus):
        a1sq = F.mul(f1.alpha, f1.alpha)
        return BigCell(F.mul(a1sq, F.add(f1.psi, f2.tau)),
                       F.mul(f1.alpha, f2.alpha),
                       f2.psi)
    if isinstance(f2, Torus):
        a2sq = F.mul(f2.alpha, f2.alpha)
        return BigCell(f1.tau,
                       F.div(f1.alpha, f2.alpha),
                       F.add(F.div(f1.psi, a2sq), f2.psi))
    s = F.add(f1.psi, f2.tau)
    if s == 0:
        ratio = F.div(f2.alpha, f1.alpha)
        return Torus(F.neg(F.div(f1.alpha, f2.alpha)),
                     F.add(F.mul(F.mul(ratio, ratio), f1.tau), f2.psi))
    sinv = F.inv(s)
    return BigCell(F.sub(f1.tau, F.mul(F.mul(f1.alpha, f1.alpha), sinv)),
                   F.neg(F.mul(F.mul(f1.alpha, f2.alpha), sinv)),
                   F.sub(f2.psi, F.mul(F.mul(f2.alpha, f2.alpha), sinv)))
