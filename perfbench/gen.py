"""Seeded input generation, run in the parent process (run.py).

generate(workload, seed, seconds) returns the spec a worker receives: the
set-up it performs and the ops of one pass, all plain JSON.  The same seed
gives the same spec.  Op counts per kind are fixed and scale with seconds;
the rates below were sized so that a pass takes about that long on a 2-core
x86 host at the seed commit.  Only the inputs that fill the counts depend
on the seed, so every run of a workload does comparable work.
"""

from __future__ import annotations

import json
import random

import gf
from sl2prod import (all_classes_psl, all_classes_sl2, parse_descriptor,
                     psl_pair_product, sl2_pair_product)

# Workload -> set-up: fields built with make_field, whether the group table
# is enumerated, whether sl2prod.cli is imported.
SETUP = {
    "certify": {"fields": ["3^3", "31"], "enumerate": True, "cli": True},
    "laws": {"fields": ["211", "3^5"], "enumerate": False, "cli": False},
    "laws-repeat": {"fields": ["211", "3^5"], "enumerate": False, "cli": False},
    "witness": {"fields": ["19", "3^2"], "enumerate": True, "cli": False},
    "cli": {"fields": ["211", "3^5", "31"], "enumerate": False, "cli": True},
}

# Ops per second of --seconds, per op kind.
LAWS_RATE = {"parse": 8, "pair": 250, "triple": 55, "classify": 8, "expressible": 8}
# laws asks every pair and triple query once.  laws-repeat asks each op of a
# laws stream ASKS times, in seeded order, so that all but the first ask of
# a query can be served from sl2prod's caches.  No measured query traffic
# exists for sl2prod: the two streams bracket it.
ASKS = 4
WITNESS_RATE = {"factor_pair": 80, "factor_pair_psl": 30, "macbeath": 20,
                "conjugating_element": 30}
WITNESS_NONE = 0.1      # share of targets drawn outside the law's product
CLI_RATE = {"classify": 2.0, "classes": 1.0, "product": 2.0, "triple": 1.6,
            "macbeath": 1.4, "witness": 2.0}
CLI_WITNESS_NONE = 0.15
# Two witness functions have slow paths that only some inputs take, and whose cost
# per input spans 0-5 s at q = 19: commutator_witness_psl's scan, and
# macbeath_triple's scan of a trace fiber when the companion matrix has no
# partner (0.26 % of random trace triples at q = 19).  Drawn per seed, a
# handful of such inputs decided wall_s and op_tail_ms.  So each pass holds,
# for every 6 s of --seconds and at each field, one member of every PSL2
# class as commutator targets, drawn from a fixed seed, and every degenerate
# trace triple; --seed only places them in the stream, and the random
# macbeath triples are non-degenerate.
COMMUTATOR_POOL_SEED = "commutator-pool"


def _counts(rate, seconds):
    return {k: max(1, round(r * seconds)) for k, r in rate.items()}


def _stream(rng, counts, strata):
    """(kind, field, group) slots in seeded order: exact counts per kind,
    each split evenly over the kind's strata, a list of (field, group)."""
    slots = []
    for kind, n in counts.items():
        cells = strata(kind)
        slots += [(kind, *cells[i % len(cells)]) for i in range(n)]
    rng.shuffle(slots)
    return slots


def _probe(fields, rng):
    """Inputs for the direct per-call timings of traced runs."""
    out = {}
    for d in fields:
        F = gf.field(d)
        out[d] = {"pairs": [[rng.randrange(1, F.q), rng.randrange(1, F.q)]
                            for _ in range(2000)],
                  "mats": [list(gf.random_sl2(F, rng)) for _ in range(500)]}
    return out


def _laws(rng, seconds):
    fields = SETUP["laws"]["fields"]
    both = [(d, g) for d in fields for g in ("sl2", "psl2")]
    slots = _stream(rng, _counts(LAWS_RATE, seconds),
                    lambda kind: [(d, "psl2") for d in fields] if kind == "expressible" else both)
    # The last label of triples cycles through a shuffled class list: a
    # triple whose last class was seen before finds most of its pair cells
    # cached, and chance collisions made runs differ by several percent.
    lasts = {}
    seen = set()
    ops = []
    for slot in slots:
        kind, d, group = slot
        F = gf.field(d)
        labels = gf.sl2_classes(F) if group == "sl2" else gf.psl_classes(F)
        op = {"op": kind, "field": d, "group": group}
        if kind in ("parse", "expressible"):
            label = rng.choice(labels)
            k, t = gf.parse(label)
            if kind == "parse" and k in ("PSS", "PNSS") and rng.random() < 0.5:
                label = gf.fmt(k, F.neg(t))   # the other lift's trace
            op["label"] = label
        elif kind in ("pair", "triple"):
            if kind == "triple":
                cycle = lasts.setdefault(slot, [])
                if not cycle:
                    cycle.extend(rng.sample(labels, len(labels)))
                last = [cycle.pop()]
            else:
                last = []
            while True:         # no query is asked twice, in either order
                op["labels"] = [rng.choice(labels) for _ in range(2)] + last
                key = (slot, *sorted(op["labels"][:2]), *last)
                if key not in seen:
                    break
            seen.add(key)
        else:
            op["m"] = list(gf.random_sl2(F, rng))
        ops.append(op)
    return ops


def _laws_repeat(rng, seconds):
    ops = [op for op in _laws(rng, seconds) for _ in range(ASKS)]
    rng.shuffle(ops)
    return ops


def _law_split(d, group, left, right):
    """Class labels inside and outside the closed-form product."""
    F = parse_descriptor(d)
    if group == "sl2":
        allc, law = all_classes_sl2(F), sl2_pair_product
    else:
        allc, law = all_classes_psl(F), psl_pair_product
    by_name = {str(L): L for L in allc}
    inside = {str(L) for L in law(F, by_name[left], by_name[right])}
    return sorted(inside), sorted(set(by_name) - inside)


def _factor_target(rng, d, group, labels, none_share):
    """(labels, target, expect_none) for a factorisation query."""
    F = gf.field(d)
    while True:
        pair = [rng.choice(labels) for _ in range(2)]
        inside, outside = _law_split(d, group, *pair)
        want_none = rng.random() < none_share
        pool = outside if want_none else inside
        if pool:
            return pair, list(gf.member(F, rng.choice(pool), rng)), want_none


def _degenerate_traces(F):
    """Trace triples (a, b, c) for which macbeath_triple's first candidate,
    the companion matrix of trace a, has no partner: a = 2s and c = s*b for
    a sign s, with b^2 - 4 a nonzero non-square.  Checked against the
    function at q = 7, 9, 19, 25 and 27."""
    out = []
    for s in (1, F.neg(1)):
        for b in range(F.q):
            disc = F.sub(F.mul(b, b), F.scalar(4))
            if disc and not F.is_square(disc):
                out.append([F.mul(s, 2), b, F.mul(s, b)])
    return out


def _witness(rng, seconds):
    fields = SETUP["witness"]["fields"]
    group = {"factor_pair": "sl2", "factor_pair_psl": "psl2"}
    ops = []
    for kind, d, g in _stream(rng, _counts(WITNESS_RATE, seconds),
                              lambda kind: [(d, group.get(kind)) for d in fields]):
        F = gf.field(d)
        op = {"op": kind, "field": d}
        if g:
            labels = gf.sl2_classes(F) if g == "sl2" else gf.psl_classes(F)
            op["group"] = g
            op["labels"], op["g"], op["expect_none"] = _factor_target(
                rng, d, g, labels, WITNESS_NONE)
        elif kind == "macbeath":
            degenerate = _degenerate_traces(F)
            while True:
                op["traces"] = [rng.randrange(F.q) for _ in range(3)]
                if op["traces"] not in degenerate:
                    break
        else:
            labels = gf.sl2_classes(F)
            x = gf.member(F, rng.choice(labels), rng)
            if rng.random() < WITNESS_NONE:
                other = rng.choice([L for L in labels if L != gf.classify(F, x)])
                y = gf.member(F, other, rng)
            else:
                h = gf.random_sl2(F, rng)
                y = gf.mat_mul(F, gf.mat_mul(F, h, x), gf.inv_sl2(F, h))
            op["x"], op["y"] = list(x), list(y)
            op["expect_none"] = gf.classify(F, x) != gf.classify(F, y)
        ops.append(op)
    pool_rng = random.Random(COMMUTATOR_POOL_SEED)
    for _ in range(max(1, round(seconds / 6))):
        for d in fields:
            F = gf.field(d)
            fixed = [{"op": "commutator", "field": d, "g": list(gf.member(F, P, pool_rng))}
                     for P in gf.psl_classes(F)]
            fixed += [{"op": "macbeath", "field": d, "traces": t}
                      for t in _degenerate_traces(F)]
            for op in fixed:
                ops.insert(rng.randrange(len(ops) + 1), op)
    return ops


def _matrix_arg(m):
    return json.dumps([[m[0], m[1]], [m[2], m[3]]], separators=(",", ":"))


def _cli(rng, seconds):
    ops = []
    big = [(d, g) for d in ("211", "3^5") for g in ("sl2", "psl2")]
    for kind, d, group in _stream(
            rng, _counts(CLI_RATE, seconds),
            lambda kind: [("31", "sl2")] if kind in ("macbeath", "witness") else big):
        F = gf.field(d)
        labels = gf.sl2_classes(F) if group == "sl2" else gf.psl_classes(F)
        op = {"op": "cli", "kind": kind, "field": d, "group": group}
        args = [kind, "--field", d]
        if kind == "classify":
            op["m"] = list(gf.random_sl2(F, rng))
            args += ["--group", group, _matrix_arg(op["m"])]
        elif kind == "classes":
            args += ["--group", group]
        elif kind in ("product", "triple"):
            op["labels"] = [rng.choice(labels) for _ in range(2 if kind == "product" else 3)]
            args += ["--group", group, "--", *op["labels"]]
        elif kind == "macbeath":
            op["traces"] = [rng.randrange(F.q) for _ in range(3)]
            args += [str(t) for t in op["traces"]]
        else:
            unipotent = [L for L in gf.sl2_classes(F) if L.startswith(("U[", "NU["))]
            op["labels"], op["g"], op["expect_none"] = _factor_target(
                rng, d, "sl2", unipotent, CLI_WITNESS_NONE)
            args += ["--", _matrix_arg(op["g"]), *op["labels"]]
        op["args"] = args      # "--" lets labels such as -I through argparse
        ops.append(op)
    return ops


def _certify(rng, seconds):
    ops = [{"op": "verify", "field": d} for d in SETUP["certify"]["fields"]]
    rng.shuffle(ops)
    return ops


GENERATORS = {"certify": _certify, "laws": _laws, "laws-repeat": _laws_repeat,
              "witness": _witness, "cli": _cli}


def generate(workload: str, seed: int, seconds: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    ops = GENERATORS[workload](rng, seconds)
    return {"workload": workload, "seed": seed, "setup": SETUP[workload],
            "ops": ops, "probe": _probe(SETUP[workload]["fields"], rng)}
