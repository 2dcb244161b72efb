#!/usr/bin/env python3
"""Builds and runs the eTrain whole-system benchmark.

Usage (from the repository root):

  python3 perfbench/run.py --workload fleet-city --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all          # every workload, default seeds
  python3 perfbench/run.py --self-test             # the benchmark's own arithmetic

The first run configures and builds perfbench/CMakeLists.txt into
$CARGO_TARGET_DIR (default .bench_build) under the repository root; later
runs rebuild only when a source file changed. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.
BENCHMARK.json names the workloads, their reasons and the metrics each run
must report; perfbench/workloads.json holds each workload's default and
held-out seeds.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["perfbench", "perfbench_selftest", "etrain_gatewayd", "report_check"]
RUN_TIMEOUT_S = 170


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, d, "perfbench")


def source_stamp():
    """Digest of every build input's path, size and mtime."""
    h = hashlib.sha256()
    files = [os.path.join(ROOT, "examples", "etrain_gatewayd.cpp"),
             os.path.join(ROOT, "examples", "report_check.cpp")]
    files += sorted(os.path.join(HERE, f) for f in os.listdir(HERE)
                    if f.endswith((".cc", ".h", ".txt")))
    for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, "src")):
        dirnames.sort()
        files += [os.path.join(dirpath, f) for f in sorted(filenames)]
    for f in filter(os.path.exists, files):
        st = os.stat(f)
        h.update(f"{f}\0{st.st_size}\0{st.st_mtime_ns}\n".encode())
    return h.hexdigest()


def build():
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    stamp_path = os.path.join(out, "perfbench.stamp")
    stamp = source_stamp()
    bins = [os.path.join(out, t) for t in TARGETS]
    if all(os.path.exists(b) for b in bins) and os.path.exists(stamp_path):
        with open(stamp_path) as f:
            if f.read() == stamp:
                return out
    log_path = os.path.join(out, "build.log")
    jobs = str(os.cpu_count() or 1)
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", out,
                  "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                 ["cmake", "--build", out, "-j", jobs, "--target"] + TARGETS]
        for cmd in steps:
            if subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT) != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                sys.stderr.write(f"perfbench: build failed ({' '.join(cmd)})\n")
                sys.exit(1)
    with open(stamp_path, "w") as f:
        f.write(stamp)
    return out


def load_json(*parts):
    with open(os.path.join(*parts)) as f:
        return json.load(f)


def layer_of(name):
    """The layer a per-layer metric belongs to: the first part of a
    two-part name (loadgen.frames_sent), else the first two parts
    (gateway.ladder.lat_p50_ms.base)."""
    parts = name.split(".")
    return parts[0] if len(parts) == 2 else ".".join(parts[:2])


def check_metrics(workload, result, spec, trace):
    """Checks a run's metrics against BENCHMARK.json and orders them as it
    does. An untraced run must report every end-to-end metric. A traced run
    must report every metric of each layer it touched; a layer it bypasses
    entirely is reported as 0. Exits on any mismatch."""
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    got = result["metrics"]
    units = {m["name"]: m["unit"] for m in wanted}
    errors = [f"{n} is not in BENCHMARK.json" for n in got if n not in units]
    errors += [f"{n} has unit {got[n]['unit']}, BENCHMARK.json says {u}"
               for n, u in units.items() if n in got and got[n]["unit"] != u]
    touched = {layer_of(n) for n in got}
    missing = [n for n in units if n not in got]
    if trace:
        errors += [f"{n} is missing, but its layer ran" for n in missing
                   if layer_of(n) in touched]
    else:
        errors += [f"{n} is missing" for n in missing]
    if errors:
        sys.stderr.write("".join(f"perfbench: {workload}: {e}\n"
                                 for e in errors))
        sys.exit(1)
    bypassed = sorted({layer_of(n) for n in missing})
    if bypassed:
        print(f"bypassed layers (reported as 0): {' '.join(bypassed)}")
    result["metrics"] = {
        n: got.get(n, {"value": 0, "unit": units[n]}) for n in units}
    return result


def run_one(bin_dir, workload, seed, seconds, trace):
    """Runs one workload; returns (printed lines, parsed result)."""
    out_dir = os.path.join(bin_dir, "runs", workload)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    cmd = [os.path.join(bin_dir, "perfbench"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", "1" if trace else "0",
           "--out-dir", out_dir, "--bin-dir", bin_dir]
    # Its own session, so that on a timeout the gateway daemons it spawned
    # are killed with it.
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.stderr.write(f"perfbench: {workload} exceeded {RUN_TIMEOUT_S} s\n")
        sys.exit(1)
    lines = stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(stdout)
        sys.stderr.write(f"perfbench: {workload} failed "
                         f"(exit {proc.returncode})\n")
        sys.exit(1)
    return lines[:-1], json.loads(lines[-1])


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all")
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--self-test", action="store_true")
    args = p.parse_args()

    bin_dir = build()
    if args.self_test:
        out_dir = os.path.join(bin_dir, "runs", "selftest")
        shutil.rmtree(out_dir, ignore_errors=True)
        os.makedirs(out_dir)
        sys.exit(subprocess.call([os.path.join(bin_dir, "perfbench_selftest"),
                                  bin_dir, out_dir]))

    spec = load_json(ROOT, "BENCHMARK.json")
    seeds = load_json(HERE, "workloads.json")
    seconds = args.seconds or spec["run_seconds"]
    known = {w["name"]: w["why"] for w in spec["workloads"]}
    if set(known) != set(seeds):
        sys.stderr.write("perfbench: BENCHMARK.json and workloads.json "
                         "name different workloads\n")
        sys.exit(2)
    names = list(known) if args.workload == "all" else [args.workload]
    if any(n not in known for n in names):
        sys.stderr.write(f"perfbench: unknown workload {args.workload}\n")
        sys.exit(2)

    results = {}
    for name in names:
        seed = args.seed if args.seed is not None else seeds[name]["default_seed"]
        lines, result = run_one(bin_dir, name, seed, seconds, args.trace)
        print(f"== {name}: {known[name]}")
        print("\n".join(lines))
        results[name] = check_metrics(name, result, spec, args.trace)
    if len(names) == 1:
        print(json.dumps(results[names[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
