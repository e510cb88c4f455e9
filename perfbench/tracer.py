"""Tracing for traced runs (--trace 1), installed from outside sl2prod.

sl2prod modules import functions by name, so install() replaces every
binding of a wrapped function in every loaded sl2prod module: oracle.mat_mul,
witness.mat_mul, classes.mat_mul and mat2.mat_mul all get one wrapper.

Two kinds of wrapper:

- Span wrappers on layer-entry functions (SPANNED).  Every call is a frame
  on a stack.  A call that enters a layer from another layer, or from an op,
  is also recorded as a span (name, start, end, parent span, op id); spans
  stay in memory until summary().  Per group the tracer accumulates calls,
  inclusive time (outermost calls of the group only) and self time (the
  frame's duration minus its direct child frames).
- Counters on hot leaves (COUNTERS): exact call counts and no clock.  Timing
  functions this small would distort the self times of their callers, so
  their per-call cost is timed directly instead, by per_call_ns().
"""

from __future__ import annotations

import functools
import statistics
import sys
import time

# (module, function, group); a group's layer is its prefix before the dot.
SPANNED = [
    ("field", "make_field", "field.make_field"),
    ("field", "parse_descriptor", "field.parse_descriptor"),
    ("classes", "parse_label", "classes.parse"),
    ("classes", "parse_sl2_label", "classes.parse"),
    ("classes", "parse_psl_label", "classes.parse"),
    ("classes", "psl_classify", "classes.psl_classify"),
    ("classes", "representative", "classes.representative"),
    ("classes", "psl_representative", "classes.representative"),
    ("classes", "all_classes_sl2", "classes.all_classes"),
    ("classes", "all_classes_psl", "classes.all_classes"),
    ("classes", "is_q_good", "classes.is_q_good"),
    ("laws", "sl2_pair_product", "laws.pair"),
    ("laws", "sl2_pair_product_law", "laws.pair"),
    ("laws", "psl_pair_product", "laws.pair"),
    ("laws", "psl_pair_product_law", "laws.pair"),
    ("laws", "sl2_triple_product", "laws.triple"),
    ("laws", "psl_triple_product", "laws.triple"),
    ("laws", "commutator_expressible_psl", "laws.commutator_expressible"),
    ("oracle", "enumerate_sl2", "oracle.enumerate"),
    ("oracle", "brute_pair_product", "oracle.brute_pair"),
    ("oracle", "brute_pair_product_psl", "oracle.brute_pair"),
    ("oracle", "brute_triple_product", "oracle.brute_triple"),
    ("oracle", "covering_numbers", "oracle.covering"),
    ("oracle", "verify_laws", "oracle.verify"),
    ("witness", "factor_pair", "witness.factor_pair"),
    ("witness", "factor_pair_psl", "witness.factor_pair_psl"),
    ("witness", "macbeath_triple", "witness.macbeath_triple"),
    ("witness", "conjugating_element", "witness.conjugating_element"),
    ("witness", "commutator_witness_psl", "witness.commutator_witness_psl"),
    ("cli", "main", "cli.main"),
    ("cli", "build_parser", "cli.build_parser"),
]

COUNTERS = ("field.add", "field.mul", "mat2.mat_mul", "mat2.iter_sl2_items",
            "classes.classify", "classes.label_hash", "classes.label_eq",
            "oracle.brute_pair_cells", "oracle.brute_pair_products",
            "witness.factor_pair_enum", "witness.certs", "witness.cert_products")


def _verify_tag(F, kind, *args, **kwargs):
    return f"{kind}.{F.q}"


class Tracer:
    def __init__(self):
        self.stack = []     # frames: [group, layer, start, child_s, span index]
        self.spans = []
        self.agg = {}       # group -> [calls, inclusive_s, self_s]
        self.active = {}    # group -> nesting depth
        self.counts = {name: [0] for name in COUNTERS}
        self.ops = []       # per op: index, kind, field, seconds, counter deltas
        self.op_id = None
        self._patched = []  # (object, attribute, original value)

    # -- wrappers ------------------------------------------------------------

    def _set(self, obj, attr, new):
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, new)

    def _rebind(self, orig, new):
        """Point every sl2prod binding of orig at new."""
        for name, mod in list(sys.modules.items()):
            if name == "sl2prod" or name.startswith("sl2prod."):
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._set(mod, attr, new)

    def uninstall(self):
        """Restore every binding install() replaced."""
        while self._patched:
            obj, attr, orig = self._patched.pop()
            setattr(obj, attr, orig)

    def _spanned(self, fn, group, tag=None, watches=()):
        """Span wrapper.  Each watch is (read, on_exit): on exit, on_exit
        gets read() after minus read() before the call, the call's result
        (None if it raised) and whether the call entered the layer."""
        layer = group.split(".")[0]
        clock = time.perf_counter
        stack, spans, active, agg = self.stack, self.spans, self.active, self.agg
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else None
            idx = None
            if parent is None or parent[1] != layer:
                idx = len(spans)
                spans.append(None)
            before = [read() for read, _ in watches]
            depth = active.get(group, 0)
            active[group] = depth + 1
            frame = [group, layer, clock(), 0.0, idx]
            stack.append(frame)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                active[group] = depth
                dur = end - frame[2]
                keys = (group,) if tag is None else (group, f"{group}.{tag(*args, **kwargs)}")
                for key in keys:
                    a = agg.get(key) or agg.setdefault(key, [0, 0.0, 0.0])
                    a[0] += 1
                    if depth == 0:
                        a[1] += dur
                    a[2] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                if idx is not None:
                    pidx = next((f[4] for f in reversed(stack) if f[4] is not None), None)
                    spans[idx] = (keys[-1], frame[2], end, pidx, tracer.op_id)
                for (read, on_exit), b in zip(watches, before):
                    on_exit(read() - b, result, idx is not None)
        return wrapper

    def install(self):
        """Wrap sl2prod's functions; call after sl2prod (and sl2prod.cli, if
        used) has been imported."""
        import importlib
        from sl2prod.classes import SL2Label
        from sl2prod.field import FieldCtx
        c = self.counts

        def bump(name, n=1):
            c[name][0] += n

        def mat_muls():
            return c["mat2.mat_mul"][0]

        def pair_cells(delta, result, entry):
            if delta:     # a cache miss: the cell was computed
                bump("oracle.brute_pair_cells")
                bump("oracle.brute_pair_products", delta)

        def certificate(delta, result, entry):
            if entry and result is not None:
                bump("witness.certs")
                bump("witness.cert_products", delta)

        def enum_fallback(delta, result, entry):
            if delta:
                bump("witness.factor_pair_enum")

        watches = {group: [(mat_muls, certificate)] for _, _, group in SPANNED
                   if group.startswith("witness.")}
        watches["oracle.brute_pair"] = [(mat_muls, pair_cells)]
        watches["witness.factor_pair"].append(
            (lambda: self.agg.get("oracle.enumerate", (0,))[0], enum_fallback))
        for modname, fname, group in SPANNED:
            mod = sys.modules.get(f"sl2prod.{modname}")
            if mod is None:
                continue
            orig = getattr(mod, fname)
            tag = _verify_tag if group == "oracle.verify" else None
            self._rebind(orig, self._spanned(orig, group, tag, watches.get(group, ())))

        for cls, meth, name in ((FieldCtx, "add", "field.add"),
                                (FieldCtx, "mul", "field.mul")):
            orig, cell = getattr(cls, meth), c[name]

            def counted(F, x, y, _orig=orig, _cell=cell):
                _cell[0] += 1
                return _orig(F, x, y)
            self._set(cls, meth, counted)

        orig_hash, orig_eq = SL2Label.__hash__, SL2Label.__eq__
        hash_cell, eq_cell = c["classes.label_hash"], c["classes.label_eq"]

        def label_hash(L):
            hash_cell[0] += 1
            return orig_hash(L)

        def label_eq(L, other):
            eq_cell[0] += 1
            return orig_eq(L, other)
        self._set(SL2Label, "__hash__", label_hash)
        self._set(SL2Label, "__eq__", label_eq)

        mat2 = importlib.import_module("sl2prod.mat2")
        classes = importlib.import_module("sl2prod.classes")
        orig_mm, mm_cell = mat2.mat_mul, c["mat2.mat_mul"]

        def mat_mul(F, x, y):
            mm_cell[0] += 1
            return orig_mm(F, x, y)

        orig_cl, cl_cell = classes.classify_sl2, c["classes.classify"]

        def classify_sl2(F, m, check=True):
            cl_cell[0] += 1
            return orig_cl(F, m, check)

        orig_it, it_cell, active = mat2.iter_sl2, c["mat2.iter_sl2_items"], self.active

        def iter_sl2(F):
            counting = not active.get("oracle.enumerate")
            for m in orig_it(F):
                if counting:
                    it_cell[0] += 1
                yield m

        self._rebind(orig_mm, mat_mul)
        self._rebind(orig_cl, classify_sl2)
        self._rebind(orig_it, iter_sl2)

    # -- ops -----------------------------------------------------------------

    def op_call(self, index, kind, field, fn):
        """fn wrapped as op number index: a root frame and span, plus the
        counter deltas of the op."""
        clock = time.perf_counter
        counts = self.counts

        def run():
            before = {k: v[0] for k, v in counts.items()}
            idx = len(self.spans)
            self.spans.append(None)
            self.op_id = index
            frame = ["op." + kind, "op", clock(), 0.0, idx]
            self.stack.append(frame)
            try:
                return fn()
            finally:
                end = clock()
                self.stack.pop()
                self.spans[idx] = (frame[0], frame[2], end, None, index)
                self.op_id = None
                self.ops.append({"index": index, "kind": kind, "field": field,
                                 "s": end - frame[2], "child_s": frame[3],
                                 "counts": {k: v[0] - before[k] for k, v in counts.items()}})
        return run

    def process_costs(self, import_s):
        """Fixed costs of this process: import, field set-up, parser, and
        the CLI's own work (self time of cli.main)."""
        agg = self.agg
        return {"import_s": import_s,
                "make_field_s": agg.get("field.make_field", (0, 0.0))[1],
                "build_parser_s": agg.get("cli.build_parser", (0, 0.0))[1],
                "cli_self_s": agg.get("cli.main", (0, 0.0, 0.0))[2]}

    def summary(self):
        return {"counts": {k: v[0] for k, v in self.counts.items()},
                "agg": self.agg, "spans": self.spans, "ops": self.ops}


def per_call_ns(fn, args, repeat=7):
    """Median over repeats of the cost of fn(a, b, c) per call, in ns, for
    argument triples args, less the cost of the bare loop."""
    clock = time.perf_counter_ns
    samples = []
    for _ in range(repeat):
        t0 = clock()
        for a, b, c in args:
            fn(a, b, c)
        t1 = clock()
        for a, b, c in args:
            pass
        t2 = clock()
        samples.append(((t1 - t0) - (t2 - t1)) / len(args))
    return statistics.median(samples)
