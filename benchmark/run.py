#!/usr/bin/env python3
"""Builds `weaverd` and the benchmark from source, then runs one workload.

    python3 benchmark/run.py --workload sweep-cold|serve-hot \
        --seed N --seconds S --trace 0|1

Run it from the repository root. Both builds go to `$CARGO_TARGET_DIR`
(`.bench_build` when unset). The benchmark's output is passed through:
its last line is the result object. The exit code is the benchmark's, or
2 when a build fails.

    python3 benchmark/run.py --self-check --seed N

runs every workload twice with the same seed for a short time and checks
that the quality values and pass step counts repeat exactly.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["sweep-cold", "serve-hot"]


def build(env):
    """Builds weaverd (repository workspace) and the benchmark (its own)."""
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "--bin", "weaverd"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        # Build output goes to stderr: stdout carries only results.
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print("benchmark: build failed: " + " ".join(cmd), file=sys.stderr)
            return False
    return True


def run(binary, weaverd, args, env):
    """Runs the benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run(
        [binary, *args, "--weaverd", weaverd],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
    )
    return proc.returncode, proc.stdout.splitlines()


def self_check(binary, weaverd, seed, env):
    """Two short runs per workload with one seed must agree exactly."""
    ok = True
    for workload in WORKLOADS:
        seen = []
        for _ in range(2):
            args = ["--workload", workload, "--seed", str(seed), "--seconds", "2", "--trace", "0"]
            code, lines = run(binary, weaverd, args, env)
            if code != 0 or len(lines) < 2:
                print(f"self-check: {workload} exited {code}", file=sys.stderr)
                return 1
            info = json.loads(lines[-2])["weaver_benchmark"]
            seen.append({k: info.get(k) for k in ("quality", "steps", "quality_set_size")})
        same = seen[0] == seen[1]
        ok &= same
        print(f"self-check: {workload}: {'identical' if same else 'DIFFERENT'} quality and step counts")
    return 0 if ok else 1


def main():
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not build(env):
        return 2
    release = os.path.join(env["CARGO_TARGET_DIR"], "release")
    binary = os.path.join(release, "weaver-benchmark")
    weaverd = os.path.join(release, "weaverd")
    args = sys.argv[1:]
    if "--self-check" in args:
        seed = args[args.index("--seed") + 1] if "--seed" in args else "1"
        return self_check(binary, weaverd, seed, env)
    code, lines = run(binary, weaverd, args, env)
    for line in lines:
        print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
