"""Command-line interface: classification, product laws, witnesses,
verification, covering numbers.  JSON output by default, byte-stable for
fixed inputs.

Each subcommand returns its JSON object and a function from it to its
--format text lines; main alone reads --field, prints and decides every exit
code: 0 success, 1 verification failure, 2 usage error, 3 domain error (even
characteristic, q < 5 or q > 10^5, malformed label or matrix, verify/covering
above q = 251), 4 internal error (a witness construction failed where one is
promised).  A closed stdout ends quietly with the code already decided.
triple's "rule" is the fixed tag composed_from_pairwise_laws, kept for
byte-stable output; it is not the rule that answered.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import laws, oracle, witness
from .classes import (all_classes_psl, all_classes_sl2, classify_sl2,
                      parse_psl_label, parse_sl2_label, psl_classify,
                      psl_representative, representative, sort_labels)
from .field import FieldCtx, make_field, parse_descriptor
from .mat2 import Mat, sl2

DEFAULT_SUITE = ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1))


def _matrix(F: FieldCtx, text: str) -> Mat:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise ValueError(f"matrix {text!r} is not valid JSON: {e}")
    except RecursionError:
        raise ValueError("matrix JSON is nested too deeply")
    if (not isinstance(rows, list) or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
        raise ValueError(f"matrix {text!r} must be [[a,b],[c,d]]")
    return sl2(F, *rows[0], *rows[1])


def _label(F, text, group):
    return (parse_sl2_label if group == "sl2" else parse_psl_label)(F, text)


def _mat_json(m: Mat):
    return [[m[0], m[1]], [m[2], m[3]]]


# -- subcommands -------------------------------------------------------------


def _cmd_classify(F, args):
    m = _matrix(F, args.matrix)
    label = classify_sl2(F, m) if args.group == "sl2" else psl_classify(F, m)
    return {"label": str(label)}, lambda o: [o["label"]]


def _cmd_classes(F, args):
    labels = all_classes_sl2(F) if args.group == "sl2" else all_classes_psl(F)
    reps = (representative if args.group == "sl2" else psl_representative)
    obj = {"field": F.descriptor, "group": args.group,
           "classes": [{"label": str(L), "representative": _mat_json(reps(F, L))}
                       for L in labels]}
    return obj, lambda o: [f"{c['label']}: {c['representative']}"
                           for c in o["classes"]]


def _cmd_product(F, args):
    pair_law = laws.sl2_pair_product_law if args.group == "sl2" else laws.psl_pair_product_law
    law = pair_law(F, *(_label(F, t, args.group) for t in args.labels))
    obj = {"classes": [str(L) for L in sort_labels(law.classes)], "rule": law.rule}
    return obj, lambda o: [" ".join(o["classes"]), f"rule: {o['rule']}"]


def _cmd_triple(F, args):
    Ls = [_label(F, t, args.group) for t in args.labels]
    fn = laws.sl2_triple_product if args.group == "sl2" else laws.psl_triple_product
    out = fn(F, *Ls)
    obj = {"classes": [str(L) for L in sort_labels(out)],
           "rule": "composed_from_pairwise_laws"}
    return obj, lambda o: [" ".join(o["classes"])]


def _cmd_witness(F, args):
    g = _matrix(F, args.matrix)
    factor = witness.factor_pair if args.group == "sl2" else witness.factor_pair_psl
    cert = factor(F, g, *(_label(F, t, args.group) for t in args.labels))
    if cert is None:
        return {"found": False}, lambda o: ["no factorization: class not in product"]
    obj = {"found": True, "x": _mat_json(cert.x), "y": _mat_json(cert.y),
           "labels": [str(cert.left), str(cert.right)], "check": "ok"}
    return obj, lambda o: [f"x = {o['x']}", f"y = {o['y']}", f"check: {o['check']}"]


def _cmd_macbeath(F, args):
    A, B, C = witness.macbeath_triple(F, *args.traces)
    obj = {"A": _mat_json(A), "B": _mat_json(B), "C": _mat_json(C), "check": "ok"}
    return obj, lambda o: [f"A = {o['A']}", f"B = {o['B']}", f"C = {o['C']}"]


def _cmd_commutator(F, args):
    g = _matrix(F, args.matrix)
    cert = witness.commutator_witness_psl(F, g)
    if cert is None:
        return ({"expressible": False},
                lambda o: ["not a semisimple-unipotent commutator"])
    obj = {"expressible": True, "s": _mat_json(cert.s), "u": _mat_json(cert.u),
           "sign_flipped": cert.sign_flipped, "check": "ok"}
    return obj, lambda o: [f"s = {o['s']}", f"u = {o['u']}",
                           f"sign_flipped: {o['sign_flipped']}"]


def _cmd_verify(F, args):
    kinds = [args.group] if args.group else ["sl2", "psl2"]
    fields = [F] if F is not None else [make_field(p, a) for p, a in DEFAULT_SUITE]
    reports = [oracle.verify_laws(F, k).to_dict() for F in fields for k in kinds]
    obj = {"reports": reports, "ok": all(r["ok"] for r in reports)}
    return obj, lambda o: [*(f"q={r['q']} {r['group']}: pairs {r['pairs']['checked']}"
                             f" triples {r['triples']['checked']}"
                             f" {'PASS' if r['ok'] else 'FAIL'}" for r in o["reports"]),
                           "ALL PASS" if o["ok"] else "FAILURES PRESENT"]


def _cmd_covering(F, args):
    kinds = [args.group] if args.group else ["sl2", "psl2"]
    obj = {"field": F.descriptor}
    for kind in kinds:
        cn, ecn = oracle.covering_numbers(F, kind)
        obj[kind] = {"cn": cn, "ecn": ecn}
    return obj, lambda o: [f"{k}: cn={v['cn']} ecn={v['ecn']}"
                           for k, v in o.items() if k != "field"]


def _int(text: str) -> int:
    """An integer in ASCII digits; int() alone also takes "٣", "３", "3_0"
    and "+3"."""
    if not re.fullmatch(r"-?[0-9]+", text):
        raise argparse.ArgumentTypeError(f"invalid integer: {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    n = _int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="sl2prod",
        description="Conjugacy-class products in SL2/PSL2 over odd finite fields")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, group=True):
        sp.add_argument("--field", help="field descriptor p or p^a, q >= 5 odd")
        sp.add_argument("--format", choices=("json", "text"), default="json")
        if group:
            sp.add_argument("--group", choices=("sl2", "psl2"), default="sl2")

    sp = sub.add_parser("classify", help="conjugacy class of a matrix")
    common(sp)
    sp.add_argument("matrix", help='JSON matrix "[[a,b],[c,d]]"')
    sp.set_defaults(fn=_cmd_classify)

    sp = sub.add_parser("classes", help="list all class labels and representatives")
    common(sp)
    sp.set_defaults(fn=_cmd_classes)

    dash = ", after -- if one starts with - (as -I does)"

    sp = sub.add_parser("product", help="closed-form product of two classes")
    common(sp)
    sp.add_argument("labels", nargs=2, help="two class labels" + dash)
    sp.set_defaults(fn=_cmd_product)

    sp = sub.add_parser("triple", help="product of three classes")
    common(sp)
    sp.add_argument("labels", nargs=3, help="three class labels" + dash)
    sp.set_defaults(fn=_cmd_triple)

    sp = sub.add_parser("witness", help="factor a matrix across two classes")
    common(sp)
    sp.add_argument("matrix", help='target matrix "[[a,b],[c,d]]"')
    sp.add_argument("labels", nargs=2, help="two class labels" + dash)
    sp.set_defaults(fn=_cmd_witness)

    sp = sub.add_parser("macbeath", help="trace triple realization A*B*C = I")
    common(sp, group=False)
    sp.add_argument("traces", nargs=3, type=_int, help="three trace encodings")
    sp.set_defaults(fn=_cmd_macbeath)

    sp = sub.add_parser("commutator",
                        help="semisimple-unipotent commutator witness in PSL2")
    common(sp, group=False)
    sp.add_argument("matrix", help='target matrix "[[a,b],[c,d]]"')
    sp.set_defaults(fn=_cmd_commutator)

    sp = sub.add_parser("verify", help="certify all laws against brute force")
    common(sp)
    sp.add_argument("--jobs", type=_positive_int, default=1,
                    help="accepted for compatibility; verify always runs in "
                         "one process")
    sp.set_defaults(fn=_cmd_verify, group=None)

    sp = sub.add_parser("covering", help="covering and extended covering numbers")
    common(sp)
    sp.set_defaults(fn=_cmd_covering, group=None)

    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    try:
        F = None if args.field is None else parse_descriptor(args.field)
        if F is None and args.command != "verify":
            raise ValueError("--field is required for this command")
        obj, text_lines = args.fn(F, args)
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except witness.WitnessError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4
    lines = [json.dumps(obj, indent=2)] if args.format == "json" else text_lines(obj)
    try:
        for line in lines:
            print(line)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader left, as `head` does: devnull keeps the flush at exit quiet
        with open(os.devnull, "w") as devnull:
            os.dup2(devnull.fileno(), sys.stdout.fileno())
    return 1 if obj.get("ok") is False else 0


if __name__ == "__main__":
    sys.exit(main())
