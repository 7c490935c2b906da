#!/usr/bin/env python3
"""Build the benchmark and run one workload on one CPU.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The benchmark is built from source with
`cargo build --release --offline` into `$CARGO_TARGET_DIR` (default
`perfbench/target`); build output goes to standard error. The binary then
replaces this process, with its CPU affinity narrowed to one CPU. On a
two-vCPU machine the scheduler otherwise places the four ping-pong threads
of a TCP workload (two clients, two server workers) differently from run
to run, and throughput moved between ~48k and ~133k ops/s across runs of
identical code; confined to one CPU the same runs agree within a few
percent.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    manifest = os.path.join(HERE, "Cargo.toml")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        return build.returncode or 1
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")
    binary = os.path.join(target, "release", "xse-perfbench")
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    os.execv(binary, [binary] + sys.argv[1:])
    return 1  # execv does not return


if __name__ == "__main__":
    sys.exit(main())
