#!/usr/bin/env python3
"""Build and run one workload of the S1LISP end-to-end benchmark.

    python3 s1bench/run.py --workload compile|run|service --seed N \\
        --seconds S --trace 0|1

Run it from the root of a checkout. It configures and builds the benchmark
package (s1bench/CMakeLists.txt, which pulls in the repository's own
project) into $CARGO_TARGET_DIR/s1bench, default .bench_build/s1bench,
then runs the s1bench binary. Build output goes to stderr; the last line
of stdout is the result as one JSON object. See s1bench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TYPE = "RelWithDebInfo"


def fail(message):
    print("s1bench: " + message, file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.isfile(os.path.join(build_dir, "Makefile")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configuring the benchmark failed")
    targets = ["cmake", "--build", build_dir, "-j", jobs,
               "--target", "s1bench", "s1lispd"]
    if subprocess.run(targets, stdout=sys.stderr).returncode != 0:
        fail("building the benchmark failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["compile", "run", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    # The benchmark builds the program under test from the checkout it sits
    # in; without the sources there is nothing to measure.
    for needed in ("CMakeLists.txt", "src", "tools", "examples",
                   "BENCHMARK.json"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fail("no S1LISP source tree beside the benchmark (missing %s)"
                 % needed)

    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    scratch = os.path.relpath(os.path.join(ROOT, target_dir), ROOT)
    build_dir = os.path.join(ROOT, scratch, "s1bench")
    build(build_dir)

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        per_layer = ",".join("%s=%s" % (m["name"], m["unit"])
                             for m in json.load(f)["per_layer"])
    binary = os.path.join(build_dir, "s1bench")
    daemon = os.path.join(build_dir, "s1lisp", "tools", "s1lispd")
    trace_out = os.path.join(
        scratch, "trace-%s-%d.json" % (args.workload, args.seed))
    sys.stdout.flush()
    # Relative socket paths stay short of the unix-socket length limit.
    os.chdir(ROOT)
    os.execv(binary, [binary,
                      "--workload", args.workload,
                      "--seed", str(args.seed),
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace),
                      "--root", ".",
                      "--scratch", scratch,
                      "--daemon", daemon,
                      "--trace-out", trace_out,
                      "--per-layer", per_layer])


if __name__ == "__main__":
    main()
