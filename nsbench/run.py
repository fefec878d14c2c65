#!/usr/bin/env python3
"""Builds the benchmark and nscd from this checkout, then runs one workload.

Usage, from the root of the checkout:

    python3 nsbench/run.py --workload sim_sweep|serve_warm|serve_cold \
        --seed N --seconds S --trace 0|1

Both builds go to $CARGO_TARGET_DIR (default .bench_build). Cargo's output
goes to stderr; stdout carries only the benchmark's two JSON lines, the
last of which is the result. Exits 2 without a result when the checkout
holds no repository to build.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(args, env):
    done = subprocess.run(["cargo", "build", "--release", "--offline", "--quiet"] + args,
                          cwd=ROOT, env=env, stdout=sys.stderr)
    if done.returncode != 0:
        sys.exit("nsbench: build failed: cargo " + " ".join(args))


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return "unknown"
    return lines[1]


def main():
    for need in ("Cargo.toml", os.path.join("crates", "serve", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, need)):
            sys.exit("nsbench: %s is missing from the checkout root; nothing to build" % need)
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build(["-p", "nsc-serve", "--bin", "nscd"], env)
    build(["--manifest-path", os.path.join(HERE, "Cargo.toml")], env)
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "nsbench"), "--nscd", os.path.join(release, "nscd"),
           "--commit", commit()] + sys.argv[1:]
    sys.exit(subprocess.run(cmd, cwd=ROOT).returncode)


if __name__ == "__main__":
    main()
