#!/usr/bin/env python3
"""Every bench binary refuses a flag it does not take.

    bench_flags_test.py <bench binary>...

Runs each binary with --no-such-flag and requires exit status 2 and a
usage line on stderr, so a mistyped flag in a CI job or a script fails
instead of running the default workload. Exits 0 when every binary
refuses, 1 naming each one that does not.
"""
import subprocess
import sys


def main(binaries):
    failed = 0
    for binary in binaries:
        run = subprocess.run([binary, "--no-such-flag"], capture_output=True,
                             text=True, timeout=120)
        if run.returncode != 2 or "usage:" not in run.stderr:
            print(f"FAIL {binary}: exit {run.returncode}, "
                  f"stderr {run.stderr!r}")
            failed += 1
    print(f"{len(binaries) - failed}/{len(binaries)} binaries refuse "
          "--no-such-flag")
    return 1 if failed or not binaries else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
