"""Independent output checks, run by run.py after the worker has exited.

Every check re-derives the answer with gf, the benchmark's own field and
matrix arithmetic, never with sl2prod: certificates are re-multiplied,
every label set is tested against seeded concrete products of class
members, and a seeded subset of label sets (exact_ops) is compared with the
exact class product, which gf computes by running through a whole class;
classifications are recomputed, None answers are matched against the
exclusion the generator drew them from, and verify reports must be ok with
the pair and triple counts implied by the class counts and covering
numbers (3, 4).

_plant() and self_test() make sure the checks catch wrong results: they
plant label sets with a class missing or a class too many, a broken
certificate and a report with ok false into copies of real outputs, drawing
what to plant from a seed of their own, and require each to fail its check.
"""

from __future__ import annotations

import json
import random
from math import comb

import gf

SAMPLES = 3                 # concrete products tested per label set
EXACT = {"pair": 50, "triple": 12}    # laws ops per pass compared exactly
NUDGE = (1, 1, 0, 1)        # multiplying a certificate entry by this breaks it


def _rng(seed, index):
    return random.Random(f"check:{seed}:{index}")


def _samples(F, group, labels, rng):
    """Classes of SAMPLES seeded products x1*x2*... with xi in labels[i]."""
    out = []
    for _ in range(SAMPLES):
        m = gf.IDENT
        for L in labels:
            m = gf.mat_mul(F, m, gf.member(F, L, rng))
        c = gf.classify(F, m)
        out.append(c if group == "sl2" else gf.project(F, c))
    return out


def _triple_classes(F, group, labels, answer):
    """The exact triple product, as far as it decides the answer: the
    classes of x*C2*z for fixed x in C1 and z in C3 all lie in the product,
    and any other class D lies in it iff D * C3^-1 meets C1 * C2."""
    a, b, c = labels
    x, z = gf.representative(F, gf.lift(a)), gf.representative(F, gf.lift(c))
    found = gf.product_classes(F, group, gf.mat_mul(F, z, x), b)
    c1c2 = gf.product_classes(F, group, x, b)
    z_inv = gf.classify(F, gf.inv_sl2(F, z))
    every = gf.sl2_classes(F) if group == "sl2" else gf.psl_classes(F)
    for d in (set(answer) - found) | (set(every) - set(answer)):
        if gf.product_classes(F, group, gf.representative(F, gf.lift(d)), z_inv) & c1c2:
            found.add(d)
    return found


def _label_set(F, group, labels, classes, rng, exact):
    if len(set(classes)) != len(classes) or not all(gf.valid(F, c, group) for c in classes):
        return f"malformed label set {classes}"
    for c in _samples(F, group, labels, rng):
        if c not in classes:
            return f"a product of {labels} lies in {c}, missing from the answer"
    if exact:
        if len(labels) == 2:
            want = gf.product_classes(F, group, gf.representative(F, gf.lift(labels[0])),
                                      labels[1])
        else:
            want = _triple_classes(F, group, labels, classes)
        if want != set(classes):
            return (f"label set of {labels} misses {sorted(want - set(classes))} and "
                    f"wrongly holds {sorted(set(classes) - want)}")
    return None


def _classify(F, m, group):
    c = gf.classify(F, m)
    return c if group == "sl2" else gf.project(F, c)


def _factorisation(F, op, out, group):
    """out is {"x", "y"} or None; op has labels, g and expect_none."""
    if out is None:
        return None if op["expect_none"] else "no factorisation of a target inside the product"
    if op["expect_none"]:
        return "a factorisation of a target outside the product"
    x, y = tuple(out["x"]), tuple(out["y"])
    if gf.mat_mul(F, x, y) != tuple(op["g"]):
        return "x*y != g"
    got = [_classify(F, x, group), _classify(F, y, group)]
    return None if got == op["labels"] else f"factors lie in {got}, not {op['labels']}"


def _macbeath(F, traces, abc):
    A, B, C = (tuple(m) for m in abc)
    if any(gf.det(F, m) != 1 for m in (A, B, C)):
        return "a factor is not in SL2"
    if gf.mat_mul(F, gf.mat_mul(F, A, B), C) != gf.IDENT:
        return "A*B*C != I"
    got = [gf.trace(F, m) for m in (A, B, C)]
    return None if got == list(traces) else f"traces {got}, not {traces}"


def _conjugator(F, op, h):
    x, y = tuple(op["x"]), tuple(op["y"])
    if h is None:
        return None if op["expect_none"] else "no conjugator for conjugate matrices"
    h = tuple(h)
    if gf.det(F, h) != 1 or gf.mat_mul(F, h, x) != gf.mat_mul(F, y, h):
        return "h x h^-1 != y"
    return None


def _commutator(F, g, out):
    P = _classify(F, g, "psl2")
    if out is None:
        return None if not gf.commutator_expressible(F, P) else f"no witness for {P}"
    s, u = tuple(out["s"]), tuple(out["u"])
    if not gf.classify(F, s).startswith(("SS[", "NSS[")):
        return "s is not semisimple"
    if not (gf.classify(F, u) == "I" or gf.classify(F, u).startswith("U[")):
        return "u is not unipotent"
    c = gf.mat_mul(F, gf.mat_mul(F, s, u),
                   gf.mat_mul(F, gf.inv_sl2(F, s), gf.inv_sl2(F, u)))
    want = gf.neg(F, g) if out["sign_flipped"] else g
    return None if c == want else "[s, u] != +-g"


def _verify(F, out):
    if out["rc"] != 0:
        return f"verify exited {out['rc']}"
    obj = json.loads(out["stdout"])
    counts = {"sl2": F.q + 4, "psl2": (F.q + 5) // 2}
    reports = {r["group"]: r for r in obj["reports"]}
    if sorted(reports) != ["psl2", "sl2"] or len(obj["reports"]) != 2 or obj["ok"] is not True:
        return "verify did not certify both groups"
    for group, r in reports.items():
        n = counts[group]
        if (r["q"] != F.q or r["ok"] is not True or r["pairs"]["checked"] != n * n
                or r["pairs"]["failures"] or r["triples"]["checked"] != comb(n + 2, 3)
                or r["triples"]["failures"] or r["triples"]["containment_failures"]
                or r["covering"] != {"cn": 3, "ecn": 4}):
            return f"{group} report is not a full certificate"
    return None


def _flat(rows):
    return (*rows[0], *rows[1])


def _cli(F, op, rng, out, exact):
    if out["rc"] != 0:
        return f"exit code {out['rc']}"
    obj = json.loads(out["stdout"])
    kind, group = op["kind"], op["group"]
    if kind == "classify":
        want = _classify(F, tuple(op["m"]), group)
        return None if obj == {"label": want} else f"{obj} != {want}"
    if kind == "classes":
        want = gf.sl2_classes(F) if group == "sl2" else gf.psl_classes(F)
        got = [c["label"] for c in obj["classes"]]
        if obj["field"] != op["field"] or obj["group"] != group or sorted(got) != sorted(want):
            return "wrong class list"
        for c in obj["classes"]:
            if _classify(F, _flat(c["representative"]), group) != c["label"]:
                return f"representative of {c['label']} lies elsewhere"
        return None
    if kind in ("product", "triple"):
        return _label_set(F, group, op["labels"], obj["classes"], rng, exact)
    if kind == "macbeath":
        bad = _macbeath(F, op["traces"], [_flat(obj[k]) for k in "ABC"])
        return bad or (None if obj["check"] == "ok" else "check not ok")
    found = {"x": _flat(obj["x"]), "y": _flat(obj["y"])} if obj["found"] else None
    bad = _factorisation(F, op, found, "sl2")
    return bad or (None if not found or obj["check"] == "ok" else "check not ok")


def exact_ops(seed, ops):
    """Indices of the ops whose label sets are compared with the exact
    product: EXACT[kind] seeded laws ops of each kind, and every CLI
    product and triple."""
    rng = random.Random(f"exact:{seed}")
    out = {i for i, op in enumerate(ops) if op.get("kind") in ("product", "triple")}
    for kind, n in EXACT.items():
        idx = [i for i, op in enumerate(ops) if op["op"] == kind]
        out.update(rng.sample(idx, min(n, len(idx))))
    return out


def check(seed, index, op, out, exact=False):
    """None if out is a correct answer to op, else what is wrong.  exact:
    compare a label set with the exact product, not only with samples."""
    F = gf.field(op["field"])
    rng = _rng(seed, index)
    kind = op["op"]
    try:
        if kind == "parse":
            k, t = gf.parse(op["label"])
            want = gf.fmt(k, min(t, F.neg(t))) if k in ("PSS", "PNSS") else op["label"]
            return None if out == want else f"parsed as {out}, not {want}"
        if kind == "classify":
            want = _classify(F, tuple(op["m"]), op["group"])
            return None if out == want else f"{out} != {want}"
        if kind == "expressible":
            want = gf.commutator_expressible(F, op["label"])
            return None if out is want else f"{out} != {want}"
        if kind == "pair":
            if not out["rule"]:
                return "no rule"
            return _label_set(F, op["group"], op["labels"], out["classes"], rng, exact)
        if kind == "triple":
            return _label_set(F, op["group"], op["labels"], out, rng, exact)
        if kind == "factor_pair":
            return _factorisation(F, op, out, "sl2")
        if kind == "factor_pair_psl":
            return _factorisation(F, op, out, "psl2")
        if kind == "macbeath":
            return _macbeath(F, op["traces"], out)
        if kind == "conjugating_element":
            return _conjugator(F, op, out)
        if kind == "commutator":
            return _commutator(F, tuple(op["g"]), out)
        if kind == "verify":
            return _verify(F, out)
        if kind == "cli":
            return _cli(F, op, rng, out, exact)
    except (ValueError, KeyError, TypeError, IndexError) as e:
        return f"malformed output: {type(e).__name__}: {e}"
    return f"unknown op {kind!r}"


# -- self-test -------------------------------------------------------------------


def _wrong_sets(F, group, classes, rng):
    """(kind, wrong copy of classes): one class dropped, one class added."""
    every = gf.sl2_classes(F) if group == "sl2" else gf.psl_classes(F)
    drop = rng.choice(classes)
    out = [("label_set_missing", [c for c in classes if c != drop])]
    others = [c for c in every if c not in classes]
    if others:
        out.append(("label_set_extra", sorted([*classes, rng.choice(others)])))
    return out


def _nudge(F, m):
    return list(gf.mat_mul(F, tuple(m), NUDGE))


def _plant(seed, index, op, out, exact):
    """[(kind, wrong copy of out)] for op; label sets only where the check
    is exact.  What to plant is drawn from a seed the checks do not use."""
    F = gf.field(op["field"])
    rng = random.Random(f"plant:{seed}:{index}")
    kind = op["op"]
    if kind == "pair" and exact:
        return [(k, {**out, "classes": c})
                for k, c in _wrong_sets(F, op["group"], out["classes"], rng)]
    if kind == "triple" and exact:
        return _wrong_sets(F, op["group"], out, rng)
    if kind in ("factor_pair", "factor_pair_psl") and out is not None:
        return [("certificate", {**out, "x": _nudge(F, out["x"])})]
    if kind == "macbeath":
        return [("certificate", [*out[:2], _nudge(F, out[2])])]
    if kind == "verify":
        obj = json.loads(out["stdout"])
        obj["reports"][rng.randrange(2)]["ok"] = False
        return [("report", {**out, "stdout": json.dumps(obj)})]
    if kind == "cli" and out["rc"] == 0:
        obj = json.loads(out["stdout"])
        if op["kind"] in ("product", "triple"):
            return [(k, {**out, "stdout": json.dumps({**obj, "classes": c})})
                    for k, c in _wrong_sets(F, op["group"], obj["classes"], rng)]
        if op["kind"] == "witness" and obj["found"]:
            x = _nudge(F, _flat(obj["x"]))
            obj["x"] = [x[:2], x[2:]]
            return [("certificate", {**out, "stdout": json.dumps(obj)})]
    return []


def self_test(seed, ops, outputs, verdicts, exact):
    """Plant one wrong result of each kind the workload's answers allow, in
    copies of answers that passed, and check each one.  Returns
    {kind: caught}."""
    result = {}
    for i, (op, out, bad) in enumerate(zip(ops, outputs, verdicts)):
        if bad is not None:
            continue
        for kind, wrong in _plant(seed, i, op, out, i in exact):
            if kind not in result:
                result[kind] = check(seed, i, op, wrong, i in exact) is not None
    return result
