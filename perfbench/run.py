#!/usr/bin/env python3
"""Build and run the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload flush-bound --seed 7 --seconds 10 --trace 0

It builds perfbench/ (a Go module of its own that imports the repository
through a directory replace) into .bench_build/, keeping the Go build
cache, temporary files and every store and trace the run writes inside
the checkout, then runs the binary and passes its output and exit code
through. Without the repository around it the build fails, and so does
this script, before printing any result.
"""

import os
import signal
import subprocess
import sys

RUN_TIMEOUT_S = 170

# The child being waited for; a SIGTERM to this script stops it first, so
# no process outlives the run.
child = None


def on_term(signum, frame):
    if child is not None and child.poll() is None:
        child.kill()
        child.wait()
    sys.exit(128 + signum)


def run(args, timeout, **kw):
    """Run args to completion (killing it after timeout seconds)."""
    global child
    child = subprocess.Popen(args, **kw)
    try:
        return child.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        return None


def main():
    root = os.getcwd()
    here = os.path.dirname(os.path.abspath(__file__))
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(root, build)
    for sub in ("gocache", "tmp", "gopath"):
        os.makedirs(os.path.join(build, sub), exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "TMPDIR": os.path.join(build, "tmp"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOENV": "off",
        "GOFLAGS": "",
        "GOWORK": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOTELEMETRY": "off",
        "CGO_ENABLED": "0",
    })
    signal.signal(signal.SIGTERM, on_term)
    binary = os.path.join(build, "perfbench")
    if run(["go", "build", "-o", binary, "."], None, cwd=here, env=env, stdout=sys.stderr) != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 2
    args = [binary, "-root", os.path.join(root, ".perfbench")] + sys.argv[1:]
    code = run(args, RUN_TIMEOUT_S, cwd=root, env=env)
    if code is None:
        print("perfbench: run timed out after %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    return code


if __name__ == "__main__":
    sys.exit(main())
