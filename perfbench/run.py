#!/usr/bin/env python3
"""Build and run the qoesim benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --write-references

Run from the repository root. The first call configures and builds the
runner (Release) under .bench_build/perfbench; later calls rebuild only what
changed. The runner's stdout is passed through once its metric names have
been checked against BENCHMARK.json; its last line is the JSON result.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD_DIR / "perfbench"
REFERENCES = BENCH_DIR / "references.txt"
WORKLOADS = ["backbone_churn", "access_bloat", "megaflow_open"]
REFERENCE_SEEDS = range(1, 11)
RUN_TIMEOUT_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build the runner; build output goes to stderr."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no qoesim sources next to {BENCH_DIR}")
        return False
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("build failed: " + " ".join(cmd))
            return False
    return True


def git_sha():
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_binary(args):
    """Run the runner to completion; it never outlives this process."""
    proc = subprocess.Popen([str(BINARY)] + args, stdout=subprocess.PIPE,
                            text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner exceeded {RUN_TIMEOUT_S} s")
        return None, 1
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    return out, proc.returncode


def expected_names(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_names(stdout, trace):
    """The result line must carry exactly the metrics BENCHMARK.json lists."""
    lines = stdout.strip().splitlines()
    if not lines:
        return "runner printed nothing"
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return "last line is not JSON"
    printed = list(result.get("metrics", {}))
    want = expected_names(trace)
    if sorted(printed) != sorted(want):
        return (f"metric names differ from BENCHMARK.json: "
                f"missing {sorted(set(want) - set(printed))}, "
                f"extra {sorted(set(printed) - set(want))}")
    return None


def write_references():
    lines = ["# perfbench reference digests: <workload> <seed> <one digest per cell>",
             "# Regenerate with: python3 perfbench/run.py --write-references"]
    for workload in WORKLOADS:
        for seed in REFERENCE_SEEDS:
            out, code = run_binary(["--workload", workload, "--seed", str(seed),
                                    "--print-digests"])
            if code != 0 or out is None:
                log(f"{workload} seed {seed} failed; references not written")
                return 1
            lines.append(out.strip())
            log(f"{workload} seed {seed} done")
    REFERENCES.write_text("\n".join(lines) + "\n")
    log(f"wrote {REFERENCES}")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--references", default=str(REFERENCES),
                    help="reference digest file (default: %(default)s)")
    ap.add_argument("--write-references", action="store_true",
                    help="regenerate the reference digests of seeds 1-10")
    args = ap.parse_args()
    if not args.write_references and args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    if not build():
        return 3
    if args.write_references:
        return write_references()

    spans = BUILD_DIR / f"spans-{args.workload}-{args.seed}.json"
    out, code = run_binary([
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--references", args.references, "--spans", str(spans),
        "--git-sha", git_sha()])
    if out is None:
        return 1
    problem = check_names(out, args.trace)
    if problem:
        log(problem)
        return 1
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    # Turn SIGTERM into an exception so run_binary's cleanup stops the runner.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
