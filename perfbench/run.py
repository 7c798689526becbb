#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

Builds the benchmark program (perfbench/CMakeLists.txt, which pulls in the SMA
libraries from the repository root) into .bench_build/perfbench, runs one
workload in its own process and prints its report.  The last line
of standard output is one JSON object with exactly the keys "correct",
"attempted", "failed" and "metrics".  With --trace 0 the metrics are the
end-to-end metrics, with --trace 1 the per-layer ledger of a traced run.

Every result is also appended, with the host fingerprint the program
reports, to .bench_build/perfbench/results.jsonl; perfbench/compare.py
compares two such files and refuses when their fingerprints differ.

Exit status: 0 when every correctness gate held, 1 on a correctness
violation (the result line is still printed), 2 when the benchmark could
not be built or run (no result line).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ["goes_cont_pair", "frederic_semi_seq", "shard_outofcore",
             "serve_mixed"]
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build():
    """Configures once, then brings the benchmark program up to date."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no SMA sources next to {HERE.name}/ (looked in {ROOT})")
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sma_perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail(f"build step {' '.join(cmd[:2])} exited {proc.returncode}")
    return BUILD / "sma_perfbench"


def run_one(binary, workload, seed, seconds, trace):
    """Runs one workload; returns (exit code, result dict or None)."""
    work = BUILD / "work"
    traces = BUILD / "traces"
    work.mkdir(parents=True, exist_ok=True)
    traces.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--workdir", str(work)]
    if trace:
        cmd += ["--trace-out", str(traces / f"{workload}-{seed}.jsonl")]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {workload}: {e}", file=sys.stderr)
        return 2, None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        full = json.loads(lines[-1])
    except (ValueError, IndexError):
        sys.stdout.write(proc.stdout)
        print(f"perfbench: {workload}: sma_perfbench exited {proc.returncode} "
              "without a result", file=sys.stderr)
        return 2, None
    if proc.returncode not in (0, 1):
        return 2, None
    print("\n".join(lines[:-1]))
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": trace, "fingerprint": full.get("fingerprint", {}),
              "correct": full["correct"], "attempted": full["attempted"],
              "failed": full["failed"], "metrics": full["metrics"]}
    with open(BUILD / "results.jsonl", "a") as out:
        out.write(json.dumps(record) + "\n")
    result = {k: full[k] for k in ("correct", "attempted", "failed", "metrics")}
    return proc.returncode, result


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    binary = build()
    if args.workload != "all":
        code, result = run_one(binary, args.workload, args.seed, args.seconds,
                               args.trace)
        if result is None:
            sys.exit(2)
        print(json.dumps(result))
        sys.exit(code)

    worst = 0
    for w in WORKLOADS:
        code, result = run_one(binary, w, args.seed, args.seconds, args.trace)
        worst = max(worst, code)
        print()
    print("perfbench: all workloads " + ("PASS" if worst == 0 else "FAIL"))
    sys.exit(worst)


if __name__ == "__main__":
    main()
