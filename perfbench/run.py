"""sl2prod benchmark: one command, five workloads, checked outputs.

    python3 perfbench/run.py --workload {certify,laws,laws-repeat,witness,cli}
                             --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the benchmark imports sl2prod from
src/ and writes only under .perfbench/.  It generates the workload's inputs
from --seed, starts a fresh worker process for each measured pass (so
sl2prod's caches start cold), checks every output after the worker has
exited, and prints a summary followed by one JSON line:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics over ROUNDS untraced passes on the
same inputs; set-up time is the median of SETUP_SAMPLES worker starts.
Times are scaled to the reference speed that worker.reference() measures.
--trace 1 runs the inputs once untraced and once traced, and reports the
per-layer metrics, read from the traced pass, plus the tracing overhead;
the full trace goes to .perfbench/trace-<workload>-<seed>.json.
perfbench/README.md says what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("certify", "laws", "laws-repeat", "witness", "cli")
# Untraced passes per run, each in a fresh worker on the same inputs.  Op
# latencies are medians over the passes, and wall_s their sum.  One
# certify pass already lasts 20-35 s.
ROUNDS = {"certify": 1, "laws": 3, "laws-repeat": 3, "witness": 3, "cli": 3}
SETUP_SAMPLES = 5           # readiness times per run, from passes and set-up-only workers
DEADLINE_S = 170            # every run ends within this, or fails
TAIL_BEYOND = 10            # samples a tail percentile must have beyond it
NOMINAL_REF_S = 1.3e-3      # duration of worker.reference() at the reference speed
WITNESS_FNS = ("factor_pair", "factor_pair_psl", "macbeath_triple",
            "conjugating_element", "commutator_witness_psl")


class BenchError(Exception):
    pass


def _env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(mode, spec_path, result_path, deadline):
    """Start a worker; return (its set-up seconds, result or None)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), mode, str(spec_path), str(result_path)],
        cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        line = proc.stdout.readline().split()
        proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)     # the worker and any CLI op it runs
        proc.communicate()
        raise BenchError(f"{mode} worker passed the {DEADLINE_S} s deadline")
    if len(line) != 2 or line[0] != "ready" or proc.returncode != 0:
        raise BenchError(f"{mode} worker failed (exit {proc.returncode})")
    with open(result_path) as f:
        return float(line[1]), json.load(f)


def _tail(values):
    """(label, value) of the highest percentile with TAIL_BEYOND samples
    beyond it, or of the maximum if there are too few samples."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return "max", ordered[-1]
    return f"p{100 * (n - TAIL_BEYOND) / n:.3g}", ordered[n - TAIL_BEYOND - 1]


def _finite(x):
    # A failed op counts as infinitely slow; JSON has no infinity.
    return x if x != float("inf") else sys.float_info.max


def check_pass(seed, spec, result, exact):
    """Per op: None if its output checks out, else what is wrong.  A query
    asked again with the same answer shares the first ask's check."""
    verdicts, first = [], {}
    for i, (op, out, err) in enumerate(zip(spec["ops"], result["outputs"], result["errors"])):
        key = json.dumps([op, out], sort_keys=True)
        if err:
            verdicts.append(err)
        elif key in first and i not in exact:
            verdicts.append(verdicts[first[key]])
        else:
            first.setdefault(key, i)
            verdicts.append(check.check(seed, i, op, out, i in exact))
    return verdicts


def digest(result):
    blob = json.dumps(result["outputs"], sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def same_as_before(key, value):
    """Record the output digest of a run under key (workload, seed and a
    hash of the inputs) in .perfbench/digests.json; False if an earlier run
    of the same key recorded another digest."""
    path = ROOT / ".perfbench" / "digests.json"
    try:
        with open(path) as f:
            known = json.load(f)
    except (OSError, ValueError):
        known = {}
    if known.setdefault(key, value) != value:
        return False
    tmp = path.with_suffix(f".{os.getpid()}")
    with open(tmp, "w") as f:
        json.dump(known, f, indent=0, sort_keys=True)
    os.replace(tmp, path)
    return True


def _scale(ref_s):
    """Factor that takes a time measured while worker.reference() took
    ref_s to the reference speed."""
    return NOMINAL_REF_S / ref_s


def _scaled_ops(r):
    return [s * _scale(ref) for s, ref in zip(r["latencies"], r["local_ref_s"])]


def end_to_end(results, verdicts, setup_samples):
    """Metrics over the untraced passes: per-op latency is the median over
    passes, a failed op counting as infinitely slow.  Times are scaled to
    the reference speed: each op latency by the reference timings around
    the op, and set-up by those right after it.  wall_s is the sum of the
    op latencies, so a slow burst in one pass does not move it."""
    scaled = [_scaled_ops(r) for r in results]
    per_op = zip(*([float("inf") if bad else s * 1e3 for s, bad in zip(lat, v)]
                   for lat, v in zip(scaled, verdicts)))
    lat_ms = [statistics.median(samples) for samples in per_op]
    pct, tail = _tail(lat_ms)
    failed = sum(bad is not None for v in verdicts for bad in v)
    attempted = sum(len(v) for v in verdicts)
    raw_s = [statistics.median(samples) for samples in zip(*(r["latencies"] for r in results))]
    note = (f"op_tail_ms is the {pct} of {len(lat_ms)} op latencies, each the median of "
            f"{len(results)} passes\nunscaled: setup_s "
            f"{statistics.median(s for s, _ in setup_samples):.6g}, wall_s "
            f"{sum(raw_s):.6g}, op_p50_ms "
            f"{statistics.median(raw_s) * 1e3:.6g}, op_tail_ms {_tail(raw_s)[1] * 1e3:.6g}; "
            f"median reference timing {statistics.median(r['setup_ref_s'] for _, r in setup_samples) * 1e3:.4g} ms")
    metrics = {
        "setup_s": (statistics.median(s * _scale(r["setup_ref_s"]) for s, r in setup_samples),
                    "s"),
        "wall_s": (_finite(sum(lat_ms) / 1e3), "s"),
        "op_p50_ms": (_finite(statistics.median(lat_ms)), "ms"),
        "op_tail_ms": (_finite(tail), "ms"),
        "ok_ratio": (1 - failed / attempted, "ratio"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    return metrics, note


def _median_process(processes, key):
    return statistics.median(p[key] for p in processes) if processes else 0.0


def per_layer(spec, traced, untraced):
    t, probe = traced["trace"], traced["probe"]
    counts, agg = t["counts"], t["agg"]

    def calls(group):
        return agg.get(group, [0, 0.0, 0.0])[0]

    def incl(group):
        return agg.get(group, [0, 0.0, 0.0])[1]

    def probe_mean(key, ext=None):
        vals = [v[key] for v in probe.values() if ext is None or v["ext"] == ext]
        return statistics.mean(vals) if vals else 0.0

    cells = counts.get("oracle.brute_pair_cells", 0)
    fp = calls("witness.factor_pair")
    m = {
        "field.make_field_s": (_median_process(t["processes"], "make_field_s"), "s"),
        "field.add_ns.prime": (probe_mean("add_ns", False), "ns"),
        "field.add_ns.ext": (probe_mean("add_ns", True), "ns"),
        "field.mul_ns.prime": (probe_mean("mul_ns", False), "ns"),
        "field.mul_ns.ext": (probe_mean("mul_ns", True), "ns"),
        "field.add_calls": (counts.get("field.add", 0), "count"),
        "field.mul_calls": (counts.get("field.mul", 0), "count"),
        "mat2.mat_mul_calls": (counts.get("mat2.mat_mul", 0), "count"),
        "mat2.mat_mul_ns": (probe_mean("mat_mul_ns"), "ns"),
        "mat2.iter_sl2_items": (counts.get("mat2.iter_sl2_items", 0), "count"),
        "classes.classify_calls": (counts.get("classes.classify", 0), "count"),
        "classes.classify_ns": (probe_mean("classify_ns"), "ns"),
        "classes.label_hash_calls": (counts.get("classes.label_hash", 0), "count"),
        "classes.label_eq_calls": (counts.get("classes.label_eq", 0), "count"),
        "laws.pair_calls": (calls("laws.pair"), "count"),
        "laws.pair_s": (incl("laws.pair"), "s"),
        "laws.triple_calls": (calls("laws.triple"), "count"),
        "laws.triple_s": (incl("laws.triple"), "s"),
        "oracle.enumerate_s": (incl("oracle.enumerate"), "s"),
        "oracle.brute_pair_calls": (calls("oracle.brute_pair"), "count"),
        "oracle.brute_pair_s": (incl("oracle.brute_pair"), "s"),
        "oracle.brute_triple_s": (incl("oracle.brute_triple"), "s"),
        "oracle.covering_s": (incl("oracle.covering"), "s"),
        "oracle.products_per_cell": (
            counts.get("oracle.brute_pair_products", 0) / cells if cells else 0.0, "count"),
    }
    for group in ("sl2", "psl2"):
        for q in (27, 31):
            m[f"oracle.verify_s.{group}.{q}"] = (incl(f"oracle.verify.{group}.{q}"), "s")
    for b in WITNESS_FNS:
        m[f"witness.{b}_calls"] = (calls(f"witness.{b}"), "count")
        m[f"witness.{b}_s"] = (incl(f"witness.{b}"), "s")
    m["witness.enum_fallback_ratio"] = (
        counts.get("witness.factor_pair_enum", 0) / fp if fp else 0.0, "ratio")
    certs = counts.get("witness.certs", 0)
    m["witness.mat_mul_per_cert"] = (
        counts.get("witness.cert_products", 0) / certs if certs else 0.0, "count")
    m["cli.import_s"] = (_median_process(t["processes"], "import_s")
                         if spec["setup"]["cli"] else 0.0, "s")
    m["cli.build_parser_s"] = (_median_process(t["processes"], "build_parser_s"), "s")
    m["cli.self_s"] = (_median_process(t["processes"], "cli_self_s"), "s")
    m["cli.output_bytes"] = (sum(len(o["stdout"]) for o in traced["outputs"]
                                 if isinstance(o, dict) and "stdout" in o), "bytes")
    m["trace.overhead_ratio"] = (sum(_scaled_ops(traced)) / sum(_scaled_ops(untraced)),
                                 "ratio")
    return m


def layer_split(traced):
    """Where the traced pass spent its time: self time of each spanned
    layer, and the hot leaves' cost estimated as calls x directly timed ns
    at the op's field (mat_mul and classify include their own field ops)."""
    t, probe = traced["trace"], traced["probe"]
    out = {}
    for group, (_, _, self_s) in t["agg"].items():
        if group.count(".") == 1:
            name = group.split(".")[0] + ".self_s"
            out[name] = out.get(name, 0.0) + self_s
    est = {"field.add": "add_ns", "field.mul": "mul_ns", "mat2.mat_mul": "mat_mul_ns",
           "classes.classify": "classify_ns"}
    for o in t["ops"]:
        for counter, key in est.items():
            name = counter + ".est_s"
            out[name] = out.get(name, 0.0) + o["counts"][counter] * probe[o["field"]][key] * 1e-9
        out["op.self_s"] = out.get("op.self_s", 0.0) + o["s"] - o["child_s"]
    return out


def bench(workload, seed, seconds, trace):
    import gen      # imports sl2prod, so only once src/ is on the path
    # Each pass gets an equal share of --seconds.
    spec = gen.generate(workload, seed, seconds / ROUNDS[workload])
    work = ROOT / ".perfbench" / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = time.monotonic() + DEADLINE_S
    spec_path = work / "spec.json"
    with open(spec_path, "w") as f:
        json.dump(spec, f)
    try:
        if trace:
            _, untraced = run_worker("run", spec_path, work / "untraced.json", deadline)
            _, traced = run_worker("trace", spec_path, work / "traced.json", deadline)
            passes = [untraced, traced]
        else:
            setup, passes = [], []
            for _ in range(ROUNDS[workload]):
                ready, result = run_worker("run", spec_path, work / "untraced.json", deadline)
                setup.append((ready, result))
                passes.append(result)
            while len(setup) < SETUP_SAMPLES:
                setup.append(run_worker("setup", spec_path, work / "setup.json", deadline))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    # Passes with identical outputs share one check.
    exact = check.exact_ops(seed, spec["ops"])
    checked = {}
    for r in passes:
        key = digest(r)
        if key not in checked:
            checked[key] = check_pass(seed, spec, r, exact)
    verdicts = [checked[digest(r)] for r in passes]
    digests = sorted(checked)
    attempted = sum(len(v) for v in verdicts)
    failed = sum(bad is not None for v in verdicts for bad in v)
    planted = check.self_test(seed, spec["ops"], passes[0]["outputs"], verdicts[0], exact)
    inputs = hashlib.sha256(json.dumps(spec, sort_keys=True).encode()).hexdigest()[:16]
    repeatable = len(digests) == 1 and same_as_before(f"{workload}:{seed}:{inputs}", digests[0])
    correct = failed == 0 and bool(planted) and all(planted.values()) and repeatable

    print(f"workload {workload}  seed {seed}  ops {len(spec['ops'])}  "
          f"fields {', '.join(spec['setup']['fields'])}  passes {len(passes)}  "
          f"label sets checked exactly {len(exact)}")
    print("output digest " + " ".join(digests)
          + ("" if repeatable else "  (DIFFERS between passes or from an earlier run)"))
    for v in verdicts:
        for i, bad in enumerate(v):
            if bad is not None:
                print(f"FAILED op {i} {spec['ops'][i]['op']}: {bad}")
    print("checker self-test: planted " + ", ".join(
        f"{k} ({'counted as failed' if ok else 'MISSED'})" for k, ok in planted.items()))
    if trace:
        metrics = per_layer(spec, traced, untraced)
        split = layer_split(traced)
        trace_path = ROOT / ".perfbench" / f"trace-{workload}-{seed}.json"
        with open(trace_path, "w") as f:
            json.dump({"workload": workload, "seed": seed, "layer_split": split,
                       "probe": traced["probe"], **traced["trace"]}, f)
        print(f"trace written to {trace_path.relative_to(ROOT)}; time split:")
        for name, value in sorted(split.items(), key=lambda kv: -kv[1]):
            print(f"  {name:36s} {value:.4f} s")
    else:
        metrics, note = end_to_end(passes, verdicts, setup)
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=8)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "sl2prod" / "__init__.py").is_file():
        print(f"error: no sl2prod sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    try:
        bench(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
