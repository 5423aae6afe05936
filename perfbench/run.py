#!/usr/bin/env python3
"""Build the binaries under test and run one benchmark workload.

Run from the repository root:

    python3 perfbench/run.py --workload exhaust --seed 1 --seconds 10 --trace 0

Builds `rv-shard` and `rv-serve` from the workspace and the benchmark
package in `perfbench/` (release profile, offline), into
`$CARGO_TARGET_DIR` or `.bench_build/`, then runs `rv-perfbench` with the
given arguments and the toolchain's `rustc -V`. The toolchain is queried
here, not by `rv-perfbench`, so no toolchain process counts among the
benchmark's children (their peak RSS is `peak_rss_mb`). Cargo's output goes to stderr, so the last line of
stdout is the benchmark's JSON result. See perfbench/README.md.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main():
    if not (os.path.isfile(os.path.join(ROOT, "Cargo.toml"))
            and os.path.isdir(os.path.join(ROOT, "crates"))):
        print("perfbench: no workspace next to perfbench/ (run from a "
              "checkout of the repository)", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                             or os.path.join(ROOT, ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "-p", "rv-experiments", "--bin", "rv-shard",
         "-p", "rv-serve", "--bin", "rv-serve"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in builds:
        built = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if built.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 1
    try:
        rustc = subprocess.run(["rustc", "-V"], capture_output=True, text=True,
                               check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        rustc = "unknown"
    bin_dir = os.path.join(target, "release")
    cmd = ([os.path.join(bin_dir, "rv-perfbench"), "--bin-dir", bin_dir,
            "--rustc-version", rustc] + sys.argv[1:])
    return subprocess.run(cmd, cwd=ROOT).returncode


if __name__ == "__main__":
    sys.exit(main())
