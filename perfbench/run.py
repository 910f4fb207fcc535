#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds perfbench/ (the simra_perfbench binary, linked against the library
sources under src/) on first use, runs one workload, checks its outputs
against the digests pinned in perfbench/pins.json, and prints as its last
line one JSON object with the keys correct, attempted, failed and metrics.

    python3 perfbench/run.py --workload serve_batch --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one table

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones. The exit code is 0 only when every output check passed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_smra_fleet", "serve_batch", "serve_open")
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("library sources not found under " +
                         os.path.join(ROOT, "src"))
    out = os.path.join(build_dir(), "perfbench")
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=Release"] + generator
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    jobs = str(min(4, os.cpu_count() or 1))
    step = ["cmake", "--build", out, "--target", "simra_perfbench", "-j", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return os.path.join(out, "simra_perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def run_binary(binary, args):
    """Runs simra_perfbench; returns (comment lines, parsed result)."""
    cmd = [binary] + args
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out after %d s: %s" % (RUN_TIMEOUT_S, cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise BenchError("simra_perfbench exited %d" % proc.returncode)
    return [l for l in lines[:-1]], json.loads(lines[-1])


def run_sweeps(binary, cmd, seconds):
    """Untraced sweep_smra_fleet: one sweep per process, as a user runs the
    figure, repeated until `seconds` have passed. Another sweep starts only
    if it should end within half a sweep of the deadline. Returns (notes,
    raw) with the sweeps combined: set-up is the time from each launch to
    its first timed operation."""
    start = time.monotonic()
    raws = []
    while True:
        launched = time.monotonic_ns()
        notes, raw = run_binary(binary, cmd)
        raw["metrics"]["setup_s"] = (raw["ready_ns"] - launched) * 1e-9
        raws.append(raw)
        elapsed = time.monotonic() - start
        if elapsed + 0.5 * elapsed / len(raws) >= seconds:
            break

    def each(name):
        return [r["metrics"][name] for r in raws]

    walls = each("latency_p50_us")
    checks = {}
    for i, r in enumerate(raws, 1):
        for name, ok in r["checks"].items():
            checks["sweep%d.%s" % (i, name)] = ok
        checks["sweep%d.table_repeats" % i] = (
            r["digests"] == raws[0]["digests"])
    combined = dict(raws[0])
    combined.update(
        checks=checks,
        attempted=sum(r["attempted"] for r in raws),
        failed=sum(r["failed"] for r in raws),
        metrics={
            "setup_s": statistics.median(each("setup_s")),
            # Sweep points over the summed wall time of every sweep.
            "ops_per_s": len(raws) / sum(1.0 / v for v in each("ops_per_s")),
            "latency_p50_us": statistics.median(walls),
            "peak_rss_mb": statistics.median(each("peak_rss_mb")),
            "e2e.latency_p99_us": max(walls),
            "e2e.cpu_s": statistics.median(each("e2e.cpu_s")),
        })
    notes.append("# sweeps %d, one process each; sweep wall s %s" % (
        len(raws), " ".join("%.3f" % (w * 1e-6) for w in walls)))
    return notes, combined


def check_pins(raw, pins):
    """Compares the run's digests with the pinned ones for its seed.

    Returns a list of (check name, passed, detail)."""
    pinned = pins.get(raw["workload"], {}).get(str(raw["seed"]), {})
    checks = []
    for name, want in sorted(pinned.items()):
        got = raw["digests"].get(name)
        checks.append(("pinned." + name, got == want,
                       "got %s, pinned %s" % (got, want)))
    return checks


def run_workload(binary, spec, args, workload):
    cmd = ["--workload", workload, "--seed", str(args.seed),
           "--seconds", repr(float(args.seconds)), "--trace", str(args.trace)]
    if args.threads:
        cmd += ["--threads", str(args.threads)]
    if args.drop_ticket:
        cmd.append("--drop-ticket")
    if workload == "sweep_smra_fleet" and not args.trace:
        notes, raw = run_sweeps(binary, cmd, args.seconds)
    else:
        notes, raw = run_binary(binary, cmd)
    checks = [(name, ok, "") for name, ok in raw["checks"].items()]
    checks += check_pins(raw, load_json(args.pins))

    kind = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for m in spec[kind]:
        if m["name"] not in raw["metrics"]:
            raise BenchError("%s did not report %s" % (workload, m["name"]))
        metrics[m["name"]] = {"value": raw["metrics"][m["name"]],
                              "unit": m["unit"]}
    failed_checks = [c for c in checks if not c[1]]
    attempted = max(int(raw["attempted"]), 1)
    failed = min(int(raw["failed"]) + len(failed_checks), attempted)

    for line in notes:
        print(line)
    print("# stamp " + json.dumps(raw["stamp"], sort_keys=True))
    print("# digests " + json.dumps(raw["digests"], sort_keys=True))
    for name, _, detail in failed_checks:
        print("# CHECK FAILED %s %s" % (name, detail))
    print("# failed_pct %.4f (%d of %d)" % (100.0 * failed / attempted,
                                            failed, attempted))
    for name, m in metrics.items():
        print("# %-34s %18.6f %s" % (name, m["value"], m["unit"]))

    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "time": time.time(),
              "stamp": raw["stamp"], "digests": raw["digests"],
              "checks": {c[0]: c[1] for c in checks},
              "attempted": attempted, "failed": failed,
              "metrics": raw["metrics"]}
    results = os.path.join(build_dir(), "results")
    os.makedirs(results, exist_ok=True)
    name = "%s-seed%d-trace%d-%d.json" % (workload, args.seed, args.trace,
                                          int(time.time() * 1000))
    with open(os.path.join(results, name), "w") as f:
        json.dump(record, f, indent=1, sort_keys=True)

    return {"correct": not failed_checks, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=0,
                        help="override the workload's SIMRA_THREADS")
    parser.add_argument("--pins", default=os.path.join(HERE, "pins.json"),
                        help="pinned digests (default perfbench/pins.json)")
    parser.add_argument("--drop-ticket", action="store_true",
                        help="test hook: count one never-submitted ticket "
                             "in the exactly-once check")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        binary = build()
        if args.workload != "all":
            result = run_workload(binary, spec, args, args.workload)
        else:
            result = {"correct": True, "attempted": 0, "failed": 0,
                      "metrics": {}}
            for workload in WORKLOADS:
                print("## " + workload)
                one = run_workload(binary, spec, args, workload)
                result["correct"] = result["correct"] and one["correct"]
                result["attempted"] += one["attempted"]
                result["failed"] += one["failed"]
                for name, m in one["metrics"].items():
                    result["metrics"][workload + "." + name] = m
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("perfbench: " + str(e))
        return 2
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
