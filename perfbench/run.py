#!/usr/bin/env python3
"""End-to-end benchmark of the REFIT simulator (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the simulator from source into .bench_build/ at the repository root,
runs one workload, checks its simulated outputs against perfbench/golden.json
and prints one JSON result line as the last line of standard output: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

    python3 perfbench/run.py --record-golden

re-records golden.json from the current sources for GOLDEN_SEEDS and the
held-out seed.
"""
import argparse
import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
GOLDEN = BENCH / "golden.json"
SPEC = ROOT / "BENCHMARK.json"
WORKLOADS = ["mlp-wear", "cnn-fc", "chip-scan", "serve-drift"]
GOLDEN_SEEDS = list(range(32))
# Kept for confirming a claimed gain, not for tuning.
HELD_OUT_SEED = 1000003
SIM_FIELDS = ["final_accuracy", "detect_precision", "detect_recall",
              "detect_cycles", "device_writes", "logits_hash", "state_hash"]
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no simulator sources in {ROOT / 'src'}; the benchmark builds "
             "them from the checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "--build", str(BUILD), "--target", "perfbench",
              "-j", jobs]]
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.insert(0, ["cmake", "-S", str(BENCH), "-B", str(BUILD),
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def perfbench(args):
    try:
        proc = subprocess.run([str(BINARY)] + args, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench {' '.join(args)} timed out")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode or not lines:
        fail(f"perfbench {' '.join(args)} exited with {proc.returncode}")
    return json.loads(lines[-1])


def golden_checks(workload, seed, sim):
    """(attempted, failures) against the recorded values for this seed."""
    recorded = json.loads(GOLDEN.read_text())["workloads"][workload]
    expected = recorded.get(str(seed))
    if expected is None:
        print(f"golden: no recorded values for seed {seed}; only the "
              "run's own consistency checks apply")
        return 0, []
    failures = [f"golden {f}: expected {expected[f]}, got {sim[f]}"
                for f in SIM_FIELDS if expected[f] != sim[f]]
    return len(SIM_FIELDS), failures


def run(opts):
    spec = json.loads(SPEC.read_text())
    build()
    out = perfbench(["--workload", opts.workload, "--seed", str(opts.seed),
                     "--seconds", str(opts.seconds), "--trace",
                     str(opts.trace), "--out-dir", str(BUILD / "out")])
    attempted, golden_failures = golden_checks(opts.workload, opts.seed,
                                               out["sim"])
    attempted += out["checks"]["attempted"]
    failures = out["checks"]["failures"] + golden_failures
    for f in failures:
        print(f"check failed: {f}")
    print(f"{opts.workload} seed {opts.seed}: sim {json.dumps(out['sim'])}")
    print(f"notes: {json.dumps(out['notes'])}")
    layer = "per_layer" if opts.trace else "end_to_end"
    metrics = {m["name"]: {"value": out["metrics"][m["name"]],
                           "unit": m["unit"]} for m in spec[layer]}
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))


def record_golden():
    build()
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in GOLDEN_SEEDS + [HELD_OUT_SEED]:
            sim = perfbench(["--workload", workload, "--seed", str(seed),
                             "--sim-only"])["sim"]
            table[workload][str(seed)] = sim
            print(f"{workload} seed {seed}: {json.dumps(sim)}", flush=True)
    GOLDEN.write_text(json.dumps({
        "about": "Simulated outputs per workload and seed, recorded with "
                 "run.py --record-golden. Held-out seeds are kept for "
                 "confirming a claimed gain, not for tuning.",
        "held_out_seeds": [HELD_OUT_SEED],
        "workloads": table,
    }, indent=1) + "\n")


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=15)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--record-golden", action="store_true")
    opts = p.parse_args()
    if opts.record_golden:
        record_golden()
    elif opts.workload is None or opts.seed is None:
        p.error("--workload and --seed are required")
    else:
        run(opts)


if __name__ == "__main__":
    main()
