#!/usr/bin/env python3
"""Benchmark entry point: build spdkfac_bench from this source tree, run one
workload, and print one JSON result line.

    python3 bench/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

The build goes to build-bench/e2e under the repository root (a directory the
root .gitignore already ignores), where the run's full document,
BENCH_e2e.json, is written too.  The result line holds
BENCHMARK.json's end-to-end metrics with --trace 0 and its per-layer metrics
with --trace 1.  Exits non-zero when the build fails, the binary fails, or a
correctness check fails.
"""
import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
RUN_TIMEOUT_S = 170


def run(cmd, cwd=None, env=None, timeout=None):
    """Runs cmd in its own process group with stdout sent to stderr, so this
    script's stdout carries only the result line; kills the whole group on
    timeout or interrupt.  Returns the exit code."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=sys.stderr,
                            start_new_session=True)
    try:
        return proc.wait(timeout=timeout)
    except BaseException:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        raise


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    build_dir = ROOT / "build-bench" / "e2e"
    if not (build_dir / "CMakeCache.txt").exists():
        if run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                "-DCMAKE_BUILD_TYPE=Release"]) != 0:
            sys.exit("run.py: configure failed")
    if run(["cmake", "--build", str(build_dir), "-j",
            str(min(os.cpu_count() or 1, 4))]) != 0:
        sys.exit("run.py: build failed")

    doc_path = build_dir / "BENCH_e2e.json"
    doc_path.unlink(missing_ok=True)
    (build_dir / "tmp").mkdir(exist_ok=True)
    # Socket ranks rendezvous under $TMPDIR; a relative one keeps the path
    # short (sun_path holds 107 bytes) and inside the build directory.
    env = dict(os.environ, TMPDIR="tmp")
    cmd = [str(build_dir / "spdkfac_bench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--out", doc_path.name] + (["--trace"] if args.trace else [])
    code = run(cmd, cwd=build_dir, env=env, timeout=RUN_TIMEOUT_S)
    if not doc_path.exists():
        sys.exit(f"run.py: spdkfac_bench exited {code} without a result")

    result = json.loads(doc_path.read_text())["workloads"][0]
    measured = result["metrics"]
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        got = measured.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            sys.exit(f"run.py: metric {m['name']} missing or not in {m['unit']}")
        metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
    correct = code == 0 and result["correct"]
    print(json.dumps({"correct": correct,
                      "attempted": int(result["attempted"]),
                      "failed": int(result["failed"]),
                      "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
