#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {solve|engine-backlog|api-cluster} \
        --seed N --seconds N --trace {0|1}

The Go toolchain's caches, the benchmark binary and the traced run's span
files all live under .bench_build/ in the checkout (or $CARGO_TARGET_DIR
when set), so nothing is read or written outside it. The first run builds
the binary; later runs reuse the build cache. The last line of standard
output is the benchmark's JSON result.
"""

import argparse
import os
import subprocess
import sys


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    bench_dir = os.path.join(root, "perfbench")
    build = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build"))
    os.makedirs(build, exist_ok=True)
    home = os.path.join(build, "home")
    env = dict(os.environ)
    env.update({
        "HOME": home,
        "XDG_CONFIG_HOME": os.path.join(home, ".config"),
        "XDG_CACHE_HOME": os.path.join(home, ".cache"),
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": "",
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    binary = os.path.join(build, "perfbench")
    built = subprocess.run(
        ["go", "build", "-buildvcs=false", "-o", binary, "."],
        cwd=bench_dir, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return built.returncode or 1

    commit = "unknown"
    # Stop git at the checkout: a checkout that is not a repository must
    # not report the commit of some repository above it.
    git_env = dict(env, GIT_CEILING_DIRECTORIES=os.path.dirname(root))
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=git_env,
                             capture_output=True, text=True, timeout=10)
        if rev.returncode == 0 and rev.stdout.strip():
            commit = rev.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass

    run = subprocess.run(
        [binary, "-workload", args.workload, "-seed", str(args.seed),
         "-seconds", str(args.seconds), "-trace", str(args.trace),
         "-out", build, "-commit", commit],
        cwd=root, env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
