#!/usr/bin/env python3
"""Build and run the h2reuse benchmark.

    python3 h2bench/run.py --workload study|audit --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
h2bench/ (which compiles the library from src/) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later runs rebuild only what changed.
Build output goes to standard error.

The h2bench program's output is passed through; its last line, re-emitted
here as the last line of standard output, is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.

Outputs are checked against h2bench/digests.json, which pins each
workload's output digest for the seeds it lists. Exit status: 0 when the
outputs are correct, 1 when they are not or the build fails, 2 on bad
arguments. No result is printed unless the h2bench program ran.

    python3 h2bench/run.py --pin-digests N
rewrites the digest table for seeds 0..N-1 from the current program.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DIGESTS = os.path.join(HERE, "digests.json")
WORKLOADS = ("study", "audit")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# A run must end within 180 s; stop an overrunning h2bench before that.
RUN_TIMEOUT_S = 170


def fail(message, code=1):
    print(f"h2bench: {message}", file=sys.stderr)
    sys.exit(code)


def bounded_int(low, high):
    def parse(text):
        if not text.isdigit():
            raise argparse.ArgumentTypeError(f"not a whole number: {text!r}")
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(
                f"{value} is outside {low}..{high}")
        return value
    return parse


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, target, "h2bench")


def build():
    """Configures once, then builds incrementally. Returns the binary."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"no library sources under {ROOT}/src; run from a full checkout")
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    step = ["cmake", "--build", out, "--parallel", jobs]
    if subprocess.run(step, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return os.path.join(out, "h2bench")


def load_digests():
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    except (OSError, ValueError) as error:
        fail(f"cannot read digest table {DIGESTS}: {error}")
    if not isinstance(table, dict):
        fail(f"digest table {DIGESTS} is not a JSON object")
    return table


def run_h2bench(binary, workload, seed, seconds, trace, expect, scratch):
    """Runs h2bench; returns (exit code, stdout lines)."""
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--scratch", scratch]
    if expect:
        command += ["--expect-digest", expect]
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return proc.returncode, proc.stdout.splitlines()


def check_result(line):
    try:
        result = json.loads(line)
    except ValueError:
        return None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return None
    return result


def pin_digests(binary, seeds):
    table = {}
    for workload in WORKLOADS:
        table[workload] = {}
        for seed in range(seeds):
            scratch = os.path.join(build_dir(), f"pin-{os.getpid()}")
            code, lines = run_h2bench(binary, workload, seed, 1, 0, "",
                                     scratch)
            if code != 0:
                fail(f"{workload} seed {seed} failed its own checks")
            digest = next(line.split()[8] for line in lines
                          if line.startswith("h2bench workload "))
            table[workload][str(seed)] = digest
            print(f"{workload} {seed} {digest}", file=sys.stderr)
    with open(DIGESTS, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=bounded_int(0, 2**63 - 1))
    parser.add_argument("--seconds", type=bounded_int(1, 3600))
    parser.add_argument("--trace", type=bounded_int(0, 1))
    parser.add_argument("--pin-digests", type=bounded_int(1, 10000),
                        metavar="N")
    args = parser.parse_args()

    if args.pin_digests is not None:
        pin_digests(build(), args.pin_digests)
        return 0
    if None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")

    table = load_digests()
    expect = table.get(args.workload, {}).get(str(args.seed), "")
    binary = build()
    scratch = os.path.join(build_dir(), f"run-{os.getpid()}")
    code, lines = run_h2bench(binary, args.workload, args.seed, args.seconds,
                             args.trace, expect, scratch)
    result = check_result(lines[-1]) if lines else None
    if result is None:
        for line in lines:
            print(line, file=sys.stderr)
        fail(f"{args.workload} printed no result (exit {code})",
             code if code not in (0, None) else 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if code == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
