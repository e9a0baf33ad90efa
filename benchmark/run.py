#!/usr/bin/env python3
"""The benchmark's entry point: build the package, then measure once.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Every argument goes to the `benchmark` binary unchanged; its last line
of standard output is the result. The build is an up-to-date check
after the first run in a checkout.

The package is a workspace of its own (nothing outside `benchmark/`
changes to build it), so Cargo would not apply the root manifest's
`[profile.release]` to it. This runner forwards that table, so the
program crates are compiled here the way the root workspace compiles
them — the profile a later change tunes there is the profile measured.
"""

import json
import os
import subprocess
import sys
import tomllib

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def root_release_profile():
    try:
        with open(os.path.join(ROOT, "Cargo.toml"), "rb") as manifest:
            table = tomllib.load(manifest).get("profile", {}).get("release", {})
    except FileNotFoundError:
        return {}
    return {k: v for k, v in table.items() if isinstance(v, (str, int, bool))}


def output_of(*command):
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else "unknown"
    except OSError:
        return "unknown"


def main():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    profile = root_release_profile()
    build = ["cargo", "build", "--release", "--offline", "--quiet"]
    build += ["--manifest-path", os.path.join("benchmark", "Cargo.toml")]
    for key, value in profile.items():
        build += ["--config", f"profile.release.{key}={json.dumps(value)}"]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr)
    if built.returncode != 0:
        return built.returncode

    env["BENCH_BUILD"] = json.dumps(
        {
            "rustc": output_of("rustc", "--version"),
            "rustflags": os.environ.get("RUSTFLAGS", ""),
            "profile_release": profile or "cargo defaults",
            "git_commit": output_of("git", "rev-parse", "HEAD"),
        }
    )
    binary = os.path.join(ROOT, target, "release", "benchmark")
    return subprocess.run([binary] + sys.argv[1:], cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
