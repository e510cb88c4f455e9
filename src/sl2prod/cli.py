"""Command-line interface: classification, product laws, witnesses,
verification, covering numbers.  JSON output by default, byte-stable for
fixed inputs.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 domain
error (even characteristic, q < 5 or q > 10^5, malformed label or matrix),
4 internal error (a witness construction failed where one is promised).
"""

from __future__ import annotations

import argparse
import json
import sys

from . import laws, oracle, witness
from .classes import (all_classes_psl, all_classes_sl2, classify_sl2,
                      parse_psl_label, parse_sl2_label, psl_classify,
                      psl_representative, representative, sort_labels)
from .field import FieldCtx, make_field, parse_descriptor
from .mat2 import Mat, sl2

DEFAULT_SUITE = ((5, 1), (7, 1), (3, 2), (11, 1), (13, 1))


class DomainError(ValueError):
    pass


def _field(args) -> FieldCtx:
    if args.field is None:
        raise DomainError("--field is required for this command")
    return parse_descriptor(args.field)


def _matrix(F: FieldCtx, text: str) -> Mat:
    try:
        rows = json.loads(text)
    except json.JSONDecodeError as e:
        raise DomainError(f"matrix {text!r} is not valid JSON: {e}")
    except RecursionError:
        raise DomainError("matrix JSON is nested too deeply")
    if (not isinstance(rows, list) or len(rows) != 2
            or any(not isinstance(r, list) or len(r) != 2 for r in rows)):
        raise DomainError(f"matrix {text!r} must be [[a,b],[c,d]]")
    return sl2(F, *rows[0], *rows[1])


def _label(F, text, group):
    return (parse_sl2_label if group == "sl2" else parse_psl_label)(F, text)


def _mat_json(m: Mat):
    return [[m[0], m[1]], [m[2], m[3]]]


def _emit(args, obj, text_lines):
    if args.format == "json":
        print(json.dumps(obj, indent=2))
    else:
        for line in text_lines(obj):
            print(line)


# -- subcommands -------------------------------------------------------------


def _cmd_classify(args) -> int:
    F = _field(args)
    m = _matrix(F, args.matrix)
    label = classify_sl2(F, m) if args.group == "sl2" else psl_classify(F, m)
    _emit(args, {"label": str(label)}, lambda o: [o["label"]])
    return 0


def _cmd_classes(args) -> int:
    F = _field(args)
    labels = all_classes_sl2(F) if args.group == "sl2" else all_classes_psl(F)
    reps = (representative if args.group == "sl2" else psl_representative)
    obj = {"field": F.descriptor, "group": args.group,
           "classes": [{"label": str(L), "representative": _mat_json(reps(F, L))}
                       for L in labels]}
    _emit(args, obj, lambda o: [f"{c['label']}: {c['representative']}"
                                for c in o["classes"]])
    return 0


def _cmd_product(args) -> int:
    F = _field(args)
    pair_law = laws.sl2_pair_product_law if args.group == "sl2" else laws.psl_pair_product_law
    law = pair_law(F, *(_label(F, t, args.group) for t in args.labels))
    obj = {"classes": [str(L) for L in sort_labels(law.classes)], "rule": law.rule}
    _emit(args, obj, lambda o: [" ".join(o["classes"]), f"rule: {o['rule']}"])
    return 0


def _cmd_triple(args) -> int:
    F = _field(args)
    Ls = [_label(F, t, args.group) for t in args.labels]
    fn = laws.sl2_triple_product if args.group == "sl2" else laws.psl_triple_product
    out = fn(F, *Ls)
    obj = {"classes": [str(L) for L in sort_labels(out)],
           "rule": "composed_from_pairwise_laws"}
    _emit(args, obj, lambda o: [" ".join(o["classes"])])
    return 0


def _cmd_witness(args) -> int:
    F = _field(args)
    g = _matrix(F, args.matrix)
    factor = witness.factor_pair if args.group == "sl2" else witness.factor_pair_psl
    cert = factor(F, g, *(_label(F, t, args.group) for t in args.labels))
    if cert is None:
        _emit(args, {"found": False}, lambda o: ["no factorization: class not in product"])
        return 0
    obj = {"found": True, "x": _mat_json(cert.x), "y": _mat_json(cert.y),
           "labels": [str(cert.left), str(cert.right)], "check": "ok"}
    _emit(args, obj, lambda o: [f"x = {o['x']}", f"y = {o['y']}", f"check: {o['check']}"])
    return 0


def _cmd_macbeath(args) -> int:
    F = _field(args)
    A, B, C = witness.macbeath_triple(F, *args.traces)
    obj = {"A": _mat_json(A), "B": _mat_json(B), "C": _mat_json(C), "check": "ok"}
    _emit(args, obj, lambda o: [f"A = {o['A']}", f"B = {o['B']}", f"C = {o['C']}"])
    return 0


def _cmd_commutator(args) -> int:
    F = _field(args)
    g = _matrix(F, args.matrix)
    cert = witness.commutator_witness_psl(F, g)
    if cert is None:
        _emit(args, {"expressible": False},
              lambda o: ["not a semisimple-unipotent commutator"])
        return 0
    obj = {"expressible": True, "s": _mat_json(cert.s), "u": _mat_json(cert.u),
           "sign_flipped": cert.sign_flipped, "check": "ok"}
    _emit(args, obj, lambda o: [f"s = {o['s']}", f"u = {o['u']}",
                                f"sign_flipped: {o['sign_flipped']}"])
    return 0


def _cmd_verify(args) -> int:
    kinds = [args.group] if args.group else ["sl2", "psl2"]
    if args.field is not None:
        fields = [_field(args)]
    else:
        fields = [make_field(p, a) for p, a in DEFAULT_SUITE]
    reports = [oracle.verify_laws(F, k).to_dict() for F in fields for k in kinds]
    ok = all(r["ok"] for r in reports)
    obj = {"reports": reports, "ok": ok}
    def text_lines(o):
        lines = []
        for r in o["reports"]:
            lines.append(f"q={r['q']} {r['group']}: pairs {r['pairs']['checked']}"
                         f" triples {r['triples']['checked']}"
                         f" {'PASS' if r['ok'] else 'FAIL'}")
        lines.append("ALL PASS" if o["ok"] else "FAILURES PRESENT")
        return lines
    _emit(args, obj, text_lines)
    return 0 if ok else 1


def _cmd_covering(args) -> int:
    F = _field(args)
    kinds = [args.group] if args.group else ["sl2", "psl2"]
    results = {}
    for kind in kinds:
        cn, ecn = oracle.covering_numbers(F, kind)
        results[kind] = {"cn": cn, "ecn": ecn}
    obj = {"field": F.descriptor, **results}
    _emit(args, obj, lambda o: [f"{k}: cn={v['cn']} ecn={v['ecn']}"
                                for k, v in results.items()])
    return 0


def _positive_int(text: str) -> int:
    n = int(text)
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

    sp = sub.add_parser("product", help="closed-form product of two classes")
    common(sp)
    sp.add_argument("labels", nargs=2, help="two class labels")
    sp.set_defaults(fn=_cmd_product)

    sp = sub.add_parser("triple", help="product of three classes")
    common(sp)
    sp.add_argument("labels", nargs=3, help="three class labels")
    sp.set_defaults(fn=_cmd_triple)

    sp = sub.add_parser("witness", help="factor a matrix across two classes")
    common(sp)
    sp.add_argument("matrix", help='target matrix "[[a,b],[c,d]]"')
    sp.add_argument("labels", nargs=2, help="two class labels")
    sp.set_defaults(fn=_cmd_witness)

    sp = sub.add_parser("macbeath", help="trace triple realization A*B*C = I")
    common(sp, group=False)
    sp.add_argument("traces", nargs=3, type=int, help="three trace encodings")
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
        return args.fn(args)
    except ValueError as e:      # DomainError included
        print(f"error: {e}", file=sys.stderr)
        return 3
    except witness.WitnessError as e:
        print(f"internal error: {e}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
