#!/usr/bin/env python3
"""The repo benchmark: build, run, check, report.

    benchmark/run.sh [--workload NAME] [--seed N] [--seconds S]
                     [--trace 0|1] [--smoke] [--out FILE] [--write-golden]

With --workload, runs that one workload in its own process and prints,
as the last line of standard output, one JSON object:
{"correct", "attempted", "failed", "metrics"} -- the end-to-end metrics
with --trace 0, the per-layer metrics with --trace 1.

Without --workload, runs all five workloads (each traced, so both metric
sets are measured), prints a table per workload and writes one results
JSON (--out, default build-bench/results.json) for benchmark/compare.py.

The program is built from ../src into build-bench/ (Release).
See benchmark/README.md for the workloads, metrics and checks.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
BINARY = BUILD / "ssdcheck_benchmark"
GOLDEN = HERE / "golden.json"

WORKLOADS = ["fig11", "write-gc", "read-exch", "fault-hostile", "trace-capture"]
DEFAULT_SEED = 0  # the seed the goldens were recorded with
RUN_TIMEOUT_S = 170
FIG11_DEVICES = "ABCDEFG"

# Counter totals compared against the goldens.
GOLDEN_COUNTERS = [
    "ssd_writes", "ssd_reads", "ssd_flushes", "ssd_gc_runs",
    "ssd_gc_pages_moved", "ssd_buffer_hits", "ssd_backpressure",
    "ssd_retired_blocks", "blockdev_submissions", "blockdev_attempts",
    "blockdev_retries", "blockdev_recovered", "resilience_hedges",
    "resilience_hedge_wins", "resilience_shed", "resilience_expired",
    "resilience_breaker_opens", "core_probes", "core_hot_swaps",
    "core_degraded_entries", "obs_trace_events", "obs_trace_bytes",
    "obs_audit_records", "obs_audit_bytes",
]
GOLDEN_OUTCOME = [
    "hl_correct", "hl_total", "nl_correct", "nl_total", "faulted",
    "failed", "sim_span_ns", "sim_end_ns",
]


def median(values):
    return statistics.median(values) if values else 0.0


def per(n, d, scale=1.0):
    return n * scale / d if d else 0.0


def build():
    """Configure (once) and build the measuring program; exit on failure."""
    BUILD.mkdir(parents=True, exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        cfg = ["cmake", "-S", str(HERE), "-B", str(BUILD),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cfg += ["-G", "Ninja"]
        steps.append(cfg)
    jobs = str(min(4, os.cpu_count() or 1))
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "ssdcheck_benchmark", "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True)
        except OSError as e:
            sys.exit(f"benchmark build failed: {e}")
        if proc.returncode != 0:
            if cmd is steps[0] and len(steps) == 2:
                # A failed configure leaves no usable cache behind.
                shutil.rmtree(BUILD, ignore_errors=True)
            sys.stderr.write(proc.stdout[-4000:] + proc.stderr[-4000:])
            sys.exit(f"benchmark build failed: {' '.join(cmd)}")


def measure(workload, seed, seconds, trace, smoke):
    """Run the measuring program once; return its raw JSON."""
    cmd = [str(BINARY), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit(f"{workload}: no result within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        sys.exit(f"{workload}: measuring program exited {proc.returncode}")
    return json.loads(proc.stdout)


def fig11_table(cells):
    """Per-device mean HL/NL accuracy over the 7 workloads (EXPERIMENTS.md)."""
    def recall(correct, total):
        return correct / total if total else 1.0
    table = {}
    for k, dev in enumerate(FIG11_DEVICES):
        row = cells[7 * k:7 * k + 7]
        hl = sum(recall(c[0], c[1]) for c in row) / 7 * 100
        nl = sum(recall(c[2], c[3]) for c in row) / 7 * 100
        table[dev] = [round(hl, 1), round(nl, 1)]
    return table


def golden_record(raw):
    untraced = [t for t in raw["trials"] if t["kind"] != "traced"]
    rec = {"digest": untraced[0]["digest"],
           "export_digest": untraced[0]["export_digest"]}
    rec.update({k: raw["outcome"][k] for k in GOLDEN_OUTCOME})
    rec["counters"] = {k: raw["counters"][k] for k in GOLDEN_COUNTERS}
    return rec


def golden_mismatches(raw, golden):
    want = golden["workloads"].get(raw["workload"])
    if want is None:
        return ["no golden recorded for this workload"]
    got = golden_record(raw)
    out = [f"golden {k}: {got[k]} != {v}" for k, v in want.items()
           if k != "counters" and got[k] != v]
    out += [f"golden counter {k}: {got['counters'][k]} != {v}"
            for k, v in want["counters"].items() if got["counters"][k] != v]
    if raw["workload"] == "fig11":
        table = fig11_table(raw["cells"])
        if table != golden["fig11_table"]:
            out.append(f"Fig. 11 table {table} != EXPERIMENTS.md "
                       f"{golden['fig11_table']}")
    return out


def check(raw, golden):
    """Correctness checks. Returns (failed requests, list of reasons)."""
    trials = raw["trials"]
    reasons = []
    bad = set()  # trials whose requests count as failed
    ref = trials[0]  # the warm-up
    for k, t in enumerate(trials):
        for key in ("digest", "export_digest"):
            if t[key] != ref[key]:
                reasons.append(f"trial {k} ({t['kind']}) {key} {t[key]} "
                               f"differs from the warm-up's {ref[key]}")
                bad.add(k)
    if golden is not None:
        mismatches = golden_mismatches(raw, golden)
        if mismatches:
            # A wrong outcome is wrong in every trial.
            reasons += mismatches
            bad = set(range(len(trials)))
    return raw["requests"] * len(bad), reasons


def end_to_end(raw):
    o = raw["outcome"]
    n = raw["requests"]
    timed = [t["ns_per_req"] for t in raw["trials"] if t["kind"] == "timed"]
    return {
        # Every trial replays the same work on a fresh stack, so trials
        # differ only by host interference, which only adds time.
        "replay_ns_per_req": (min(timed), "ns"),
        "setup_s": (median([s["total_s"] for s in raw["setup"]]), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024, "MB"),
        "hl_accuracy_pct": (per(o["hl_correct"], o["hl_total"], 100), "%"),
        "nl_accuracy_pct": (per(o["nl_correct"], o["nl_total"], 100), "%"),
        "sim_lat_mean_us": (o["lat_mean_ns"] / 1e3, "us"),
        "sim_lat_p9999_us": (o["lat_p9999_ns"] / 1e3, "us"),
        "sim_kiops": (per(n, o["sim_span_ns"], 1e6), "kIOPS"),
        "ok_pct": (per(n - o["failed"], n, 100), "%"),
    }


def per_layer(raw):
    L = raw["layers"]
    c = raw["counters"]
    n = raw["requests"]
    loop = [t["loop_ns"] / n for t in raw["trials"] if t["kind"] == "timed"]
    base = median(loop)
    setup = raw["setup"]
    m = {name: (L[name], "ns") for name in (
        "ssd.submit_ns", "ssd.gc_call_ns", "ssd.flush_call_ns",
        "ssd.plain_call_ns", "resilience.self_ns", "core.predict_ns",
        "core.complete_ns", "core.supervisor_ns", "obs.upkeep_ns",
        "host.other_ns", "host.req_ns_p50", "host.req_ns_p99",
        "trace.clock_ns")}
    m.update({
        "obs.export_ms": (L["obs.export_ms"], "ms"),
        "trace.overhead_pct": (per(L["trace.loop_ns_per_req"] - base, base,
                                   100), "%"),
        "trace.sample_bias_pct": (L["trace.sample_bias_pct"], "%"),
        "trace.sampled_reqs": (L["trace.sampled_reqs"], "count"),
        "setup.diagnosis_s": (median([s["diagnosis_s"] for s in setup]), "s"),
        "setup.precondition_ms": (
            median([s["precondition_ms"] for s in setup]), "ms"),
        "setup.trace_build_ms": (
            median([s["trace_build_ms"] for s in setup]), "ms"),
        "ssd.flushes_per_kreq": (per(c["ssd_flushes"], n, 1e3), "1/kreq"),
        "ssd.gc_runs_per_kreq": (per(c["ssd_gc_runs"], n, 1e3), "1/kreq"),
        "ssd.write_amp": (per(c["ssd_writes"] + c["ssd_gc_pages_moved"],
                              c["ssd_writes"]), "ratio"),
        "ssd.buffer_hit_ratio": (per(c["ssd_buffer_hits"], c["ssd_reads"]),
                                 "ratio"),
        "ssd.backpressure_per_kreq": (per(c["ssd_backpressure"], n, 1e3),
                                      "1/kreq"),
        "ssd.retired_blocks": (c["ssd_retired_blocks"], "count"),
        "blockdev.attempts_per_req": (
            per(c["blockdev_attempts"], c["blockdev_submissions"]), "ratio"),
        "blockdev.retries_per_kreq": (per(c["blockdev_retries"], n, 1e3),
                                      "1/kreq"),
        "blockdev.recovered_ratio": (
            per(c["blockdev_recovered"], c["blockdev_errored"]), "ratio"),
        "resilience.hedges_per_kreq": (per(c["resilience_hedges"], n, 1e3),
                                       "1/kreq"),
        "resilience.hedge_win_ratio": (
            per(c["resilience_hedge_wins"], c["resilience_hedges"]), "ratio"),
        "core.probes_per_kreq": (per(c["core_probes"], n, 1e3), "1/kreq"),
        "core.hot_swaps": (c["core_hot_swaps"], "count"),
        "core.degraded_entries": (c["core_degraded_entries"], "count"),
        "obs.trace_events_per_req": (per(c["obs_trace_events"], n), "count"),
        "obs.trace_bytes_per_req": (per(c["obs_trace_bytes"], n), "B"),
        "obs.audit_records_per_req": (per(c["obs_audit_records"], n),
                                      "count"),
    })
    return m


def spread(values):
    """(q1, q3) of @p values, as statistics.quantiles(n=4) gives them."""
    if len(values) < 2:
        return (values[0], values[0]) if values else (0.0, 0.0)
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def evaluate(raw, golden):
    failed, reasons = check(raw, golden)
    timed = [t["ns_per_req"] for t in raw["trials"] if t["kind"] == "timed"]
    q1, q3 = spread(timed)
    e2e = end_to_end(raw)
    layers = per_layer(raw) if "layers" in raw else {}
    return {
        "correct": failed == 0,
        "attempted": raw["requests"] * len(raw["trials"]),
        "failed": failed,
        "failures": reasons,
        "replay_ns_trials": timed,
        "replay_ns_q1": q1,
        "replay_ns_median": median(timed),
        "replay_ns_q3": q3,
        "end_to_end": {k: v for k, (v, _) in e2e.items()},
        "per_layer": {k: v for k, (v, _) in layers.items()},
        "units": {k: u for k, (_, u) in {**e2e, **layers}.items()},
        "raw": raw,
    }


def print_table(name, metrics, units):
    for key, value in metrics.items():
        print(f"  {name:<14} {key:<28} {value:>16.4f} {units[key]}")


def load_golden(seed, smoke):
    if seed != DEFAULT_SEED or smoke:
        return None  # only the determinism checks apply
    return json.loads(GOLDEN.read_text())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None)
    ap.add_argument("--smoke", action="store_true",
                    help="scale/10, one setup, one timed trial")
    ap.add_argument("--out", default=str(BUILD / "results.json"))
    ap.add_argument("--write-golden", action="store_true",
                    help="record this run's default-seed outcomes as goldens")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]

    build()
    if args.workload:
        trace = bool(args.trace)
        raw = measure(args.workload, args.seed, seconds, trace, args.smoke)
        golden = load_golden(args.seed, args.smoke)
        ev = evaluate(raw, golden)
        for reason in ev["failures"]:
            print(f"FAIL {args.workload}: {reason}")
        metrics = ev["per_layer"] if trace else ev["end_to_end"]
        print_table(args.workload, metrics, ev["units"])
        print(json.dumps({
            "correct": ev["correct"], "attempted": ev["attempted"],
            "failed": ev["failed"],
            "metrics": {k: {"value": v, "unit": ev["units"][k]}
                        for k, v in metrics.items()}}))
        return 0

    if args.write_golden and (args.seed != DEFAULT_SEED or args.smoke):
        ap.error("--write-golden needs the default seed and full scale")
    trace = args.trace != 0
    golden = None if args.write_golden else load_golden(args.seed,
                                                         args.smoke)
    results = {"seed": args.seed, "seconds": seconds, "smoke": args.smoke,
               "workloads": {}}
    ok = True
    for name in WORKLOADS:
        raw = measure(name, args.seed, seconds, trace, args.smoke)
        ev = evaluate(raw, golden)
        ok = ok and ev["correct"]
        results["workloads"][name] = ev
        status = "ok" if ev["correct"] else "FAIL"
        print(f"{name}: {status}, {ev['attempted']} requests replayed, "
              f"replay min {ev['end_to_end']['replay_ns_per_req']:.1f}, "
              f"q1/median/q3 {ev['replay_ns_q1']:.1f}/"
              f"{ev['replay_ns_median']:.1f}/{ev['replay_ns_q3']:.1f} ns "
              f"over K={len(ev['replay_ns_trials'])}")
        for reason in ev["failures"]:
            print(f"  FAIL: {reason}")
        print_table(name, ev["end_to_end"], ev["units"])
        print_table(name, ev["per_layer"], ev["units"])
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n")
    print(f"wrote {out}")
    if args.write_golden:
        old = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
        new = {"seed": DEFAULT_SEED,
               "fig11_table": old.get("fig11_table", fig11_table(
                   results["workloads"]["fig11"]["raw"]["cells"])),
               "workloads": {n: golden_record(results["workloads"][n]["raw"])
                             for n in WORKLOADS}}
        GOLDEN.write_text(json.dumps(new, indent=1) + "\n")
        print(f"wrote {GOLDEN}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
