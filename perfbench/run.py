#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <serve-small|sweep|cluster> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the `rap` binary and the benchmark
(release profile, into $CARGO_TARGET_DIR, default `.bench_build`), then
runs the benchmark, whose last line of standard output is the result
object. Build output goes to standard error. Exits non-zero without a
result line when the repository sources are missing or a build fails.
"""

import os
import signal
import subprocess
import sys

# A run measures at most 60 s plus set-up and checks; anything slower is
# a hang.
RUN_TIMEOUT_S = 170


def main() -> int:
    root = os.getcwd()
    if not (
        os.path.isfile(os.path.join(root, "Cargo.toml"))
        and os.path.isdir(os.path.join(root, "crates", "cli"))
        and os.path.isfile(os.path.join(root, "perfbench", "Cargo.toml"))
    ):
        print(
            "run.py: run from the repository root; the workspace sources "
            "(Cargo.toml, crates/) are missing here",
            file=sys.stderr,
        )
        return 2
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    builds = [
        ["cargo", "build", "--release", "--offline", "--quiet", "-p", "rap-cli"],
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
        ],
    ]
    for cmd in builds:
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            print(f"run.py: build failed: {' '.join(cmd)}", file=sys.stderr)
            return 2
    release = os.path.join(target, "release")
    bench = [
        os.path.join(release, "rap-perfbench"),
        *sys.argv[1:],
        "--rap-bin", os.path.join(release, "rap"),
        "--out-dir", os.path.join(target, "perfbench"),
    ]
    # Its own session, so that a hung run can be stopped together with
    # every server it spawned.
    proc = subprocess.Popen(bench, env=env, start_new_session=True)
    try:
        return proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"run.py: benchmark exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
