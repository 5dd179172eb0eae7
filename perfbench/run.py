#!/usr/bin/env python3
"""Runs one workload of the subex benchmark and prints its metrics.

Builds perfbench/ (the library from ../src plus the benchmark binary) with
CMake into $CARGO_TARGET_DIR (default .bench_build) under the checkout root,
runs the workload declared in perfbench/workloads.json, and prints a
human-readable summary, a `meta` line and, as the last line, one JSON object:

  {"correct": true, "attempted": N, "failed": 0,
   "metrics": {"name": {"value": V, "unit": "U"}, ...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json,
with --trace 1 its per-layer metrics. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read {path}: {e}")


def parse_args(workloads):
    parser = argparse.ArgumentParser(
        prog="perfbench/run.py",
        description="Run one subex benchmark workload.",
        allow_abbrev=False)
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="length of the measured window")
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True,
                        help="1 = per-layer metrics from a traced run")
    parser.add_argument("--inject", choices=["none", "detect", "explain"],
                        default="none",
                        help="slow one layer by 20%% of its own time "
                             "(sensitivity check)")
    parser.add_argument("--update-golden", action="store_true",
                        help="rewrite paper_grid's golden file, then exit")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.update_golden and args.workload != "paper_grid":
        parser.error("--update-golden applies to paper_grid only")
    return args


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"library sources not found at {os.path.join(ROOT, 'src')}")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.join(ROOT, target, "perfbench")
    jobs = str(os.cpu_count() or 1)
    steps = [["cmake", "-S", HERE, "-B", build_dir,
              "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "-j", jobs]]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("build failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def config_flags(config):
    flags = []
    for key, value in config.items():
        if isinstance(value, list):
            value = ",".join(str(v) for v in value)
        elif key.endswith("_file"):
            value = os.path.join(HERE, value)
        flags += ["--set", f"{key}={value}"]
    return flags


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def commit():
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True)
        return proc.stdout.strip() or "unknown"
    except OSError:
        return "unknown"


def main():
    workloads = load_json(os.path.join(HERE, "workloads.json"))
    args = parse_args(workloads)
    spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    binary = build()
    config = workloads[args.workload]["config"]
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inject", args.inject] + config_flags(config)
    if args.update_golden:
        cmd.append("--write-golden")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {BINARY_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0:
        sys.stderr.write("\n".join(lines[-20:]) + "\n")
        fail(f"{args.workload} exited with {proc.returncode}")
    if args.update_golden:
        print("\n".join(lines))
        return
    results = [l for l in lines if l.startswith("RESULT ")]
    builds = [l for l in lines if l.startswith("build: ")]
    if not results or not builds:
        fail("benchmark binary printed no RESULT/build line")
    raw = json.loads(results[-1][len("RESULT "):])
    print("\n".join(l for l in lines if not l.startswith("RESULT ")))

    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(raw["metrics"]):
        fail("metric names differ from BENCHMARK.json: "
             f"{sorted(set(units) ^ set(raw['metrics']))}")
    metrics = {name: {"value": raw["metrics"][name], "unit": units[name]}
               for name in units}
    attempted, failed = raw["attempted"], raw["failed"]
    for name, m in metrics.items():
        print(f"  {args.workload:14s} {name:32s} {m['value']:.6g} {m['unit']}")
    print(f"  {args.workload:14s} {'error_rate':32s} "
          f"{failed / max(attempted, 1):.6g} ratio "
          f"({failed} failed of {attempted})")
    compiler, build_type = builds[-1][len("build: "):].rsplit(" ", 1)
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inject": args.inject,
        "cpu": cpu_model(), "nproc": os.cpu_count(),
        "threads": {k: v for k, v in config.items()
                    if k in ("pool_threads", "cpus")},
        "build_type": build_type, "compiler": compiler, "commit": commit(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps({"correct": bool(raw["correct"]), "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
