#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S]
                             [--trace 0|1] [--trace-out PATH]

Run from the repository root. The benchmark is a CMake package of its own
(perfbench/CMakeLists.txt) over the library sources in src/; it is built in
Release mode into $CARGO_TARGET_DIR, or .bench_build when that is unset.
Build output goes to standard error, so the last line of standard output is
the benchmark's JSON result. A traced run writes its spans to
<build dir>/traces/<workload>-seed<N>.json unless --trace-out is given.
See perfbench/README.md for the workloads and metrics.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(build_dir):
    """Configure (once) and build the benchmark binary; returns its path."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "--parallel", jobs], check=True, stdout=sys.stderr)
    return os.path.join(build_dir, "perfbench")


def option(args, name, default):
    return args[args.index(name) + 1] if name in args[:-1] else default


def main():
    args = sys.argv[1:]
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        print(f"perfbench: build failed: {error}", file=sys.stderr)
        return 1
    if option(args, "--trace", "0") == "1" and "--trace-out" not in args:
        traces = os.path.join(build_dir, "traces")
        os.makedirs(traces, exist_ok=True)
        name = (f"{option(args, '--workload', 'none')}"
                f"-seed{option(args, '--seed', '42')}.json")
        args += ["--trace-out", os.path.join(traces, name)]
    sys.stdout.flush()
    return subprocess.run([binary] + args, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
