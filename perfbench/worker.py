"""Benchmark worker: one fresh process per measured pass, so that sl2prod's
caches start cold.

    python worker.py MODE SPEC RESULT

MODE is "setup" (set up, print "ready" and the set-up seconds, time the
reference work, exit), "run" (also time the spec's ops) or "trace" (the
same under the tracer, followed by direct per-call timings).  Set-up
imports sl2prod, builds the spec's fields with make_field and, where the
workload needs the group, enumerates it.  The worker writes raw outputs and
timings to RESULT; the parent checks and scales them.  The cli workload's
worker launches one sl2prod process per op instead, one at a time.
"""

from __future__ import annotations

import time

START = time.perf_counter()     # set-up is timed from here to "ready"

import contextlib
import io
import json
import os
import resource
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# What the installed `sl2prod` console script runs.
CLI_BOOT = "import sys; from sl2prod.cli import main; sys.exit(main())"
OP_TIMEOUT_S = 150
REF_EVERY_S = 0.2       # interval of reference timings during the timed phase
REF_SETUP = 15          # reference timings right after set-up, which scale setup_s
REF_NEAR = 15           # reference timings on each side of an op that scale it


def reference():
    """A fixed piece of pure-Python work (integer arithmetic, tuples, a dict)
    whose duration tracks the speed of the host, which drifts by tens of
    percent over minutes on a shared machine."""
    s, d = 1, {}
    for i in range(4000):
        s = (s * 31 + i) % 1000003
        d[s & 1023] = (s, i)
    return len(d)


class Speedometer:
    """Times reference(), from a timer signal every REF_EVERY_S seconds or
    when asked, and adds up the time spent on it, so that op timings can
    leave it out."""

    def __init__(self):
        self.samples, self.spent = [], 0.0

    def sample(self, *_):
        t0 = time.perf_counter()
        reference()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt

    def start(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REF_EVERY_S, REF_EVERY_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)


def _labels(classes):
    return sorted(str(L) for L in classes)


def _same(out):
    return out      # matrices are tuples, which JSON writes as lists


def _prepare(sl2prod, op, fields):
    """(callable, serializer) for one op; labels and matrices are built here,
    outside the timed region."""
    F = fields[op["field"]]
    kind = op["op"]
    parse = sl2prod.parse_sl2_label if op.get("group") == "sl2" else sl2prod.parse_psl_label
    labels = [parse(F, s) for s in op.get("labels", ())]
    sl2 = op.get("group") == "sl2"
    if kind == "parse":
        return (lambda: sl2prod.parse_label(F, op["label"])), str
    if kind == "pair":
        fn = sl2prod.sl2_pair_product_law if sl2 else sl2prod.psl_pair_product_law
        return (lambda: fn(F, *labels)), lambda law: {"classes": _labels(law.classes),
                                                      "rule": law.rule}
    if kind == "triple":
        fn = sl2prod.sl2_triple_product if sl2 else sl2prod.psl_triple_product
        return (lambda: fn(F, *labels)), _labels
    if kind == "classify":
        fn = sl2prod.classify_sl2 if sl2 else sl2prod.psl_classify
        m = tuple(op["m"])
        return (lambda: fn(F, m)), str
    if kind == "expressible":
        P = sl2prod.parse_psl_label(F, op["label"])
        return (lambda: sl2prod.commutator_expressible_psl(F, P)), bool
    if kind in ("factor_pair", "factor_pair_psl"):
        fn = getattr(sl2prod, kind)
        g = tuple(op["g"])
        return (lambda: fn(F, g, *labels)), lambda c: c and {"x": c.x, "y": c.y}
    if kind == "macbeath":
        return (lambda: sl2prod.macbeath_triple(F, *op["traces"])), _same
    if kind == "conjugating_element":
        x, y = tuple(op["x"]), tuple(op["y"])
        return (lambda: sl2prod.conjugating_element(F, x, y)), _same
    if kind == "commutator":
        g = tuple(op["g"])
        return ((lambda: sl2prod.commutator_witness_psl(F, g)),
                lambda c: c and {"s": c.s, "u": c.u, "sign_flipped": c.sign_flipped})
    if kind == "verify":
        def verify():
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = sl2prod.cli.main(["verify", "--field", op["field"], "--jobs", "1"])
            return rc, buf.getvalue()
        return verify, lambda r: {"rc": r[0], "stdout": r[1]}
    raise ValueError(f"unknown op {kind!r}")


def _prepare_cli(op, env, trace_path):
    if trace_path is None:
        argv = [sys.executable, "-c", CLI_BOOT, *op["args"]]
    else:
        argv = [sys.executable, os.path.join(HERE, "cliop.py"), trace_path, *op["args"]]

    def run():
        p = subprocess.run(argv, capture_output=True, text=True, env=env,
                           timeout=OP_TIMEOUT_S)
        return p.returncode, p.stdout
    return run, lambda r: {"rc": r[0], "stdout": r[1]}


def _merge_cli_traces(paths):
    """Sum the per-process tracer summaries of traced cli ops; spans keep
    the op's index as their op id."""
    counts, agg, spans, processes = {}, {}, [], []
    for i, path in enumerate(paths):
        with open(path) as f:
            s = json.load(f)
        os.remove(path)
        for k, v in s["counts"].items():
            counts[k] = counts.get(k, 0) + v
        for k, v in s["agg"].items():
            a = agg.setdefault(k, [0, 0.0, 0.0])
            for j in range(3):
                a[j] += v[j]
        base = len(spans)
        spans.extend((name, start, end, None if parent is None else parent + base, i)
                     for name, start, end, parent, _ in s["spans"])
        processes.append(s["process"])
    return {"counts": counts, "agg": agg, "spans": spans, "ops": [],
            "processes": processes}


def _probe_timings(sl2prod, fields, probe):
    """Per-call ns of the hot leaves, timed directly at each field with the
    tracer removed."""
    from tracer import per_call_ns
    out = {}
    for d, inputs in probe.items():
        F = fields[d]
        pairs = [(F, x, y) for x, y in inputs["pairs"]]
        mats = [tuple(m) for m in inputs["mats"]]
        out[d] = {"ext": F.a > 1,
                  "add_ns": per_call_ns(type(F).add, pairs),
                  "mul_ns": per_call_ns(type(F).mul, pairs),
                  "mat_mul_ns": per_call_ns(sl2prod.mat_mul,
                                            [(F, x, y) for x, y in zip(mats, mats[1:])]),
                  "classify_ns": per_call_ns(sl2prod.classify_sl2,
                                             [(F, m, False) for m in mats])}
    return out


def main() -> int:
    mode, spec_path, result_path = sys.argv[1:4]
    with open(spec_path) as f:
        spec = json.load(f)
    setup = spec["setup"]
    t = time.perf_counter()
    import sl2prod
    if setup["cli"]:
        import sl2prod.cli
    import_s = time.perf_counter() - t
    cli_ops = spec["workload"] == "cli"
    tracer = None
    if mode == "trace" and not cli_ops:    # cli ops trace in their own processes
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    fields = {}
    for d in setup["fields"]:
        p, _, a = d.partition("^")
        fields[d] = sl2prod.make_field(int(p), int(a or 1))
    if setup["enumerate"]:
        for F in fields.values():
            sl2prod.enumerate_sl2(F)
    print(f"ready {time.perf_counter() - START!r}", flush=True)
    speed = Speedometer()
    for _ in range(REF_SETUP):
        speed.sample()
    setup_ref_s = statistics.median(speed.samples)
    speed.samples.clear()
    if mode == "setup":
        with open(result_path, "w") as f:
            json.dump({"setup_ref_s": setup_ref_s}, f)
        return 0

    trace_paths = []
    prepared = []
    env = dict(os.environ)
    for i, op in enumerate(spec["ops"]):
        if cli_ops:
            path = None
            if mode == "trace":
                path = f"{result_path}.op{i}.json"
                trace_paths.append(path)
            fn, ser = _prepare_cli(op, env, path)
        else:
            fn, ser = _prepare(sl2prod, op, fields)
            if tracer is not None:
                fn = tracer.op_call(i, op["op"], op["field"], fn)
        prepared.append((fn, ser))

    latencies, local_ref, raw, errors = [], [], [], []
    clock = time.perf_counter
    if not cli_ops:     # a CLI op cannot pause for the timer: sample between ops
        speed.start()
    for fn, _ in prepared:
        t0, r0, n0 = clock(), speed.spent, len(speed.samples)
        try:
            out, err = fn(), None
        except Exception as e:  # an op that raises is a failed op, not a crash
            out, err = None, f"{type(e).__name__}: {e}"
        latencies.append(clock() - t0 - (speed.spent - r0))
        local_ref.append((n0, len(speed.samples)))
        raw.append(out)
        errors.append(err)
        if cli_ops:
            speed.sample()
    speed.stop()
    for _ in range(REF_NEAR):       # so that the last ops have timings after them
        speed.sample()
    # Per op, the median of the reference timings during it and the
    # REF_NEAR before and after it: the host's speed swings within seconds.
    local_ref = [statistics.median(speed.samples[max(0, n0 - REF_NEAR):n1 + REF_NEAR])
                 for n0, n1 in local_ref]

    outputs = []
    for (_, ser), out, err in zip(prepared, raw, errors):
        outputs.append(None if err else ser(out))
    who = resource.RUSAGE_CHILDREN if cli_ops else resource.RUSAGE_SELF
    result = {"latencies": latencies, "outputs": outputs,
              "setup_ref_s": setup_ref_s, "local_ref_s": local_ref,
              "errors": errors, "rss_mb": resource.getrusage(who).ru_maxrss / 1024}
    if cli_ops and mode == "trace":
        result["trace"] = _merge_cli_traces(trace_paths)
    elif tracer is not None:
        result["trace"] = tracer.summary()
        result["trace"]["processes"] = [tracer.process_costs(import_s)]
        tracer.uninstall()
    if mode == "trace":
        result["probe"] = _probe_timings(sl2prod, fields, spec["probe"])
    with open(result_path, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
