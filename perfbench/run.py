#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload corpus-replay --seed 1 --seconds 20 --trace 0

It builds `perfbench/` in release mode into `$CARGO_TARGET_DIR` (default
`.bench_build`), then runs it with the same arguments. The last line of
standard output is the result object; build output goes to standard error.
"""

import os
import subprocess
import sys

MANIFEST = os.path.join("perfbench", "Cargo.toml")


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def quiet(cmd):
    """The first line `cmd` prints, or "unknown"."""
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.strip().splitlines()
    return lines[0] if out.returncode == 0 and lines else "unknown"


def main():
    if not (os.path.isfile(MANIFEST) and os.path.isdir("crates")):
        fail("run me from the repository root: perfbench/ and crates/ are needed")
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", MANIFEST],
        stdout=sys.stderr,
        env=env,
    )
    if build.returncode != 0:
        fail("build failed")
    env["PERFBENCH_GIT_REV"] = quiet(["git", "rev-parse", "--short=12", "HEAD"])
    env["PERFBENCH_RUSTC"] = quiet(["rustc", "--version"])
    exe = os.path.join(env["CARGO_TARGET_DIR"], "release", "cycada-perfbench")
    bench = subprocess.run([exe] + sys.argv[1:], env=env)
    sys.exit(bench.returncode)


if __name__ == "__main__":
    main()
