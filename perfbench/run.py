#!/usr/bin/env python3
"""Build and run symmerge's end-to-end benchmark.

Run from anywhere inside a checkout:

    python3 perfbench/run.py --workload corpus|service \
        --seed N --seconds S --trace 0|1

The script builds the harness (this directory's Go module) and cmd/symxd
from the checkout's sources into .bench_build/, with the Go build cache
there too, then runs the harness. The harness prints the result as the last
line of standard output; its log goes to standard error.
"""

import argparse
import os
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BUILD_TIMEOUT = 850
RUN_TIMEOUT = 175


def go_env():
    env = dict(os.environ)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOTMPDIR=tmp,
        TMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
        GOENV="off",
        # The go command keeps telemetry under the user config directory.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        XDG_CACHE_HOME=os.path.join(BUILD, "cache"),
    )
    return env


def build():
    """Builds bin/perfbench and bin/symxd; returns their paths."""
    for need in ("go.mod", "symx", os.path.join("cmd", "symxd"), os.path.join("perfbench", "go.mod")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit("perfbench: %s is missing; run inside a full symmerge checkout" % need)
    bindir = os.path.join(BUILD, "bin")
    os.makedirs(bindir, exist_ok=True)
    cmd = ["go", "build", "-o", bindir + os.sep, ".", "symmerge/cmd/symxd"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=go_env(), stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as err:
        sys.exit("perfbench: build failed: %s" % err)
    if proc.returncode != 0:
        sys.exit("perfbench: build failed (exit %d)" % proc.returncode)
    return os.path.join(bindir, "perfbench"), os.path.join(bindir, "symxd")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["corpus", "service"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    harness, symxd = build()
    cmd = [harness, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(args.trace),
           "-symxd", symxd, "-pins", os.path.join(HERE, "pins.json"),
           "-out", os.path.join(BUILD, "perfbench")]
    # Own process group, so a timeout stops the harness and its daemons.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=go_env(), start_new_session=True)
    deadline = time.monotonic() + RUN_TIMEOUT
    try:
        code = proc.wait(timeout=max(1, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        sys.exit("perfbench: run exceeded %ds" % RUN_TIMEOUT)
    except KeyboardInterrupt:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    sys.exit(code)


if __name__ == "__main__":
    main()
