#!/usr/bin/env python3
"""End-to-end benchmark of the MAPLE simulator.

Builds perfbench/ (the simulator library from src/ plus bench_e2e) into
.bench_build/perfbench, then runs each workload as its own bench_e2e
process with every MAPLE_* environment variable removed, and prints every
metric of BENCHMARK.json by name with its unit. The last line of stdout is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

  python3 perfbench/run_benchmark.py                      # all workloads
  python3 perfbench/run_benchmark.py --workload fig08 --seed 3 --seconds 20
  python3 perfbench/run_benchmark.py --trace 1 --trace-dir runs/spans
  python3 perfbench/run_benchmark.py --out results/a1.json   # for compare.py
  python3 perfbench/run_benchmark.py --smoke              # self-check

--trace 0 reports the end-to-end metrics; --trace 1 additionally runs one
rep with MAPLE_TRACE set plus the layer probes, writes the benchmark's own
spans to <trace-dir>/<workload>.spans.json and reports the per-layer
metrics instead. Exit status is 0 when a result was printed (failed ops
are counted in it, not fatal) and non-zero when nothing could be measured.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ["fig08", "spmv_maple", "cohgrid256", "restore_grid4"]
# bench_e2e must finish within this many seconds. It starts a rep only if
# the rep still fits in --seconds, so an untraced run takes about --seconds;
# a traced run adds one rep and the probes.
PROCESS_TIMEOUT_S = 170
# Host times are reported at a reference host speed. While reps run,
# bench_e2e samples the speed of a fixed kernel every 20 ms
# (host_speed.hpp); a rep's host seconds are multiplied by
# (its mean sample rate / REF_CAL_EPS) ** HOST_SENSITIVITY. The simulator
# slows about 1.5 times as much as the kernel, in log terms, when other
# tenants load the host (README.md, "Host-speed scaling").
REF_CAL_EPS = 20e6
HOST_SENSITIVITY = 1.5


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure (once) and build bench_e2e; returns its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "bench_e2e",
                  "-j", jobs])
    for cmd in steps:
        p = subprocess.run(cmd, capture_output=True, text=True)
        if p.returncode != 0:
            log((p.stdout + p.stderr)[-4000:])
            raise SystemExit("run_benchmark: build failed: " + " ".join(cmd))
    return os.path.join(BUILD, "bench_e2e")


def scrubbed_env():
    return {k: v for k, v in os.environ.items() if not k.startswith("MAPLE_")}


def run_workload(binary, workload, seed, seconds, trace_dir, smoke,
                 threads=None, corrupt_golden=False):
    """One bench_e2e process; returns its parsed JSON document."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    if trace_dir:
        cmd += ["--trace-dir", trace_dir]
    if smoke:
        cmd.append("--smoke")
    if threads:
        cmd += ["--threads", str(threads)]
    if corrupt_golden:
        cmd.append("--corrupt-golden")
    t0 = time.monotonic()
    try:
        p = subprocess.run(cmd, capture_output=True, text=True,
                           env=scrubbed_env(), timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"run_benchmark: {workload} exceeded "
                         f"{PROCESS_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        log(p.stderr[-4000:])
        raise SystemExit(f"run_benchmark: {workload} exited "
                         f"{p.returncode} without a result")
    for line in p.stderr.splitlines():
        if line.startswith("bench_e2e:"):
            log(line)
    doc = json.loads(lines[-1])
    doc["process_s"] = time.monotonic() - t0
    return doc


def span_self_times(path, skip_reps):
    """Median self time (duration minus children's) per span name."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: e for e in events}
    child = {i: 0.0 for i in spans}
    for e in events:
        if e["args"]["parent"] >= 0:
            child[e["args"]["parent"]] += e["dur"]
    by_name = {}
    for i, e in spans.items():
        if e["args"]["rep"] not in skip_reps:
            by_name.setdefault(e["name"], []).append(
                (e["dur"] - child[i]) * 1e-6)
    return {n: statistics.median(v) for n, v in sorted(by_name.items())}


def spans_nest(path):
    """Every span lies inside its parent, in the same rep."""
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    spans = {e["args"]["id"]: e for e in events}
    eps = 1e-3  # microseconds
    for e in events:
        p = spans.get(e["args"]["parent"])
        if e["args"]["parent"] < 0:
            continue
        if (p is None or p["args"]["rep"] != e["args"]["rep"]
                or e["ts"] < p["ts"] - eps
                or e["ts"] + e["dur"] > p["ts"] + p["dur"] + eps):
            return False
    return bool(events)


def scaled(rep, key):
    """A rep's host seconds rescaled to the reference host speed."""
    return rep[key] * (rep["cal_eps"] / REF_CAL_EPS) ** HOST_SENSITIVITY


def summarize(doc, spec, trace_dir):
    """Named metrics of one bench_e2e document."""
    reps = doc["reps"]
    good = [r for r in reps if r["failed"] == 0] or reps
    wall = statistics.median(scaled(r, "wall_s") for r in good)
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(scaled(r, "setup_s") for r in good),
        "sim_kips": statistics.median(r["insts"] / scaled(r, "wall_s") / 1e3
                                      for r in good),
        "peak_rss_mb": doc["peak_rss_mb"],
    }
    host = {
        "host_wall_s": statistics.median(r["wall_s"] for r in good),
        "host_setup_s": statistics.median(r["setup_s"] for r in good),
        "cal_meps": statistics.median(r["cal_eps"] for r in good) / 1e6,
    }
    counts = doc.get("counts", {})
    layer = dict(counts)
    fingerprint = dict(counts, **doc.get("extra", {}))
    out = {
        "reps": len(reps),
        "process_s": doc["process_s"],
        "attempted": doc["attempted"],
        "failed": doc["failed"],
        "failed_frac": doc["failed"] / doc["attempted"],
        "host": host,
        "sim_fingerprint": fingerprint,
        "fingerprint_hash": hashlib.sha256(json.dumps(
            fingerprint, sort_keys=True).encode()).hexdigest()[:16],
    }
    if "note" in doc:
        out["note"] = doc["note"]
    if "grid" in doc:
        g = doc["grid"]
        layer["soc.grid.scaling"] = wall / scaled(g, "wall_s")
        out["grid"] = {"threads": g["threads"], "failed": g["failed"]}
    if "traced" in doc:
        t = doc["traced"]
        layer.update(t["stalls"])
        layer["trace.overhead_pct"] = (scaled(t, "wall_s") / wall - 1) * 100
        layer.update(doc["probes"])
        # Most simulator events are coroutine resumes, so the resume probe
        # prices them; an estimate until the simulator times its layers.
        layer["sim.busy_s_est"] = (counts.get("sim.events", 0.0)
                                   * doc["probes"]["sim.resume_ns"] * 1e-9)
        skip = {t["rep"], len(reps)}  # traced rep, restore's threaded rep
        spans = os.path.join(trace_dir, doc["workload"] + ".spans.json")
        self_s = span_self_times(spans, skip)
        out["span_self_s"] = self_s
        for name in ("setup.dataset", "setup.soc", "setup.upload",
                     "setup.warm", "setup.grid", "ckpt.snapshot",
                     "ckpt.restore"):
            if name in self_s:
                layer[name + "_s"] = self_s[name]
    out["per_layer"] = layer
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    out["metrics"] = {
        "end_to_end": {k: {"value": v, "unit": units[k]}
                       for k, v in e2e.items()},
        "per_layer": {m["name"]: {"value": layer[m["name"]],
                                  "unit": m["unit"]}
                      for m in spec["per_layer"] if m["name"] in layer},
    }
    return out


def print_report(name, s, spec):
    def num(v):
        if isinstance(v, float) and v.is_integer():
            return str(int(v))
        return f"{v:.6g}" if isinstance(v, float) else str(v)

    print(f"== {name}: {s['reps']} reps in a {s['process_s']:.1f} s process "
          f"(times are medians; peak RSS after rep 1), {s['attempted']} ops, "
          f"{s['failed']} failed (failed_frac {s['failed_frac']:.3g})")
    for m in spec["end_to_end"]:
        v = s["metrics"]["end_to_end"][m["name"]]
        print(f"  {m['name']:<28} {num(v['value']):>14} {v['unit']:<8} "
              f"({m['better']} is better, bound {m['bound']:.0%})")
    h = s["host"]
    print(f"  unscaled host medians: wall {h['host_wall_s']:.6g} s, setup "
          f"{h['host_setup_s']:.6g} s, host-speed samples {h['cal_meps']:.4g}"
          f" M events/s (reference {REF_CAL_EPS / 1e6:g})")
    if "model_err_pct" in s["sim_fingerprint"]:
        print(f"  {'model_err_pct':<28} "
              f"{num(s['sim_fingerprint']['model_err_pct']):>14} %        "
              "(vs the paper's 1.51x FPGA geomean)")
    if "note" in s:
        print(f"  note: {s['note']}")
    print(f"  sim_fingerprint {s['fingerprint_hash']}")
    for k, v in sorted(s["sim_fingerprint"].items()):
        print(f"    {k:<40} {num(v)}")
    for k, v in sorted(s["per_layer"].items()):
        if k not in s["sim_fingerprint"]:
            print(f"  {k:<40} {num(v)}")
    for k, v in s.get("span_self_s", {}).items():
        print(f"  self {k:<35} {v:.6f} s")


def smoke(binary, spec, out_dir):
    """Tiny run of every workload plus the failure paths; returns errors."""
    errors = []
    trace_dir = os.path.join(out_dir, "trace")
    named = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    for w in WORKLOADS:
        doc = run_workload(binary, w, 1, 0, trace_dir, True, threads=2)
        s = summarize(doc, spec, trace_dir)
        print_report(w, s, spec)
        printed = set(s["metrics"]["end_to_end"]) | set(s["metrics"]["per_layer"])
        if named - printed:
            errors.append(f"{w}: metrics not printed: {sorted(named - printed)}")
        if s["failed"]:
            errors.append(f"{w}: failed_frac {s['failed_frac']}")
        if not spans_nest(os.path.join(trace_dir, w + ".spans.json")):
            errors.append(f"{w}: spans do not nest")
        if w == "restore_grid4" and doc["grid"]["failed"]:
            errors.append("restore_grid4: 1- and 2-thread fingerprints differ")
    doc = run_workload(binary, "cohgrid256", 1, 0, None, True,
                       corrupt_golden=True)
    if doc["failed"] != doc["attempted"] or doc["attempted"] < 1:
        errors.append("a corrupted golden was not counted as a failed op")
    return errors


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", default="all",
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="measuring time per workload (BENCHMARK.json "
                         "run_seconds by default)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--trace-dir", default=os.path.join(
        ROOT, ".bench_build", "trace"))
    ap.add_argument("--out", help="also write the full result as JSON here")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--bin", help="use this bench_e2e instead of building")
    ap.add_argument("--out-dir", default=os.path.join(
        ROOT, ".bench_build", "smoke"), help="smoke-test output directory")
    a = ap.parse_args()
    if a.seed < 0:
        ap.error("--seed must be non-negative")

    spec = load_spec()
    binary = a.bin or build()
    if a.smoke:
        errors = smoke(binary, spec, a.out_dir)
        for e in errors:
            log("SMOKE FAIL: " + e)
        print("smoke: " + ("FAIL" if errors else "ok"))
        return 1 if errors else 0

    seconds = spec["run_seconds"] if a.seconds is None else a.seconds
    trace_dir = os.path.abspath(a.trace_dir) if a.trace else None
    workloads = WORKLOADS if a.workload == "all" else [a.workload]
    kind = "per_layer" if a.trace else "end_to_end"
    results = {}
    t0 = time.monotonic()
    for w in workloads:
        doc = run_workload(binary, w, a.seed, seconds, trace_dir, False)
        results[w] = summarize(doc, spec, trace_dir)
        print_report(w, results[w], spec)
    measure_s = time.monotonic() - t0
    log(f"run_benchmark: {len(workloads)} workload(s) in {measure_s:.1f} s")

    if a.out:
        with open(a.out, "w") as f:
            json.dump({"seed": a.seed, "seconds": seconds, "trace": a.trace,
                       "measure_s": measure_s, "workloads": results},
                      f, indent=1, sort_keys=True)
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    if len(workloads) == 1:
        metrics = results[workloads[0]]["metrics"][kind]
    else:
        metrics = {f"{w}.{k}": v for w, r in results.items()
                   for k, v in r["metrics"][kind].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
