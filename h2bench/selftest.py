#!/usr/bin/env python3
"""Tiny-scale self-test of the h2reuse benchmark.

    python3 h2bench/selftest.py

Run from the root of a checkout; builds like run.py does. Checks that:
  * every workload prints every metric BENCHMARK.json names, with its
    unit, in both the untraced and the traced run, and passes its checks;
  * a corrupted expected digest makes the h2bench program that run.py
    built fail (non-zero exit, "correct": false);
  * an unknown workload or a bad seed, seconds or trace argument fails
    cleanly: exit status 2, no result, no Python traceback.
Exits 0 when every check passes.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = [sys.executable, os.path.join(HERE, "run.py")]

failures = []


def check(ok, what):
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def run(*args):
    proc = subprocess.run(RUN + list(args), cwd=ROOT, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return proc, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    # Builds once, before anything is timed.
    proc, _ = run("--workload", "audit", "--seed", "0", "--seconds", "1",
                  "--trace", "0")
    check(proc.returncode == 0, "build and first run")

    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in (("0", "end_to_end"), ("1", "per_layer")):
            proc, result = run("--workload", workload, "--seed", "0",
                               "--seconds", "1", "--trace", trace)
            what = f"{workload} --trace {trace}"
            check(proc.returncode == 0 and result is not None
                  and result["correct"] is True and result["failed"] == 0
                  and result["attempted"] >= 1, f"{what}: correct result")
            metrics = (result or {}).get("metrics", {})
            for metric in spec[group]:
                got = metrics.get(metric["name"], {})
                check(got.get("unit") == metric["unit"]
                      and isinstance(got.get("value"), (int, float)),
                      f"{what}: {metric['name']} in {metric['unit']}")
            check(set(metrics) == {m["name"] for m in spec[group]},
                  f"{what}: no metric beyond BENCHMARK.json")

    build = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR")
                         or ".bench_build", "h2bench")
    scratch = os.path.join(build, "selftest-scratch")
    os.makedirs(scratch, exist_ok=True)
    try:
        proc = subprocess.run(
            [os.path.join(build, "h2bench"), "--workload", "study", "--seed",
             "0", "--seconds", "1", "--trace", "0", "--scratch", scratch,
             "--expect-digest", "0123456789abcdef"],
            cwd=ROOT, text=True, stdout=subprocess.PIPE)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    check(proc.returncode != 0 and result is not None
          and result["correct"] is False and result["failed"] > 0,
          "corrupted expected digest fails the run")

    bad_arguments = [
        ("--workload", "nosuch", "--seed", "0", "--seconds", "1",
         "--trace", "0"),
        ("--workload", "audit", "--seed", "-1", "--seconds", "1",
         "--trace", "0"),
        ("--workload", "audit", "--seed", "abc", "--seconds", "1",
         "--trace", "0"),
        ("--workload", "audit", "--seed", "99999999999999999999",
         "--seconds", "1", "--trace", "0"),
        ("--workload", "audit", "--seed", "1", "--seconds", "0",
         "--trace", "0"),
        ("--workload", "audit", "--seed", "1", "--seconds", "1",
         "--trace", "2"),
        ("--workload", "audit", "--seed", "1"),
    ]
    for args in bad_arguments:
        proc, result = run(*args)
        check(proc.returncode == 2 and result is None
              and "Traceback" not in proc.stderr,
              "rejects " + " ".join(args))

    print(f"{len(failures)} check(s) failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
