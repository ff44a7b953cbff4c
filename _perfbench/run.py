#!/usr/bin/env python3
"""Build the SPEAr benchmark from the checkout's source and run it.

Run from the repository root:

    python3 _perfbench/run.py --workload dec-mean --seed 1 --seconds 24 --trace 0

Arguments are passed to the benchmark binary unchanged (see main.go).
The Go build cache, temporary files and the binary go under the build
directory ($CARGO_TARGET_DIR, else .bench_build) so nothing outside the
checkout is written. A build failure exits non-zero before any result
is printed.
"""
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "_perfbench")
# The binary enforces its own time limit; this one only catches a hang.
RUN_TIMEOUT_S = 178


def source_digest():
    """SHA-256 over the Go sources and module files of the checkout."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith(".") and d != "testdata")
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def main():
    build = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build = os.path.join(ROOT, build)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build, "gocache"),
        "GOPATH": os.path.join(build, "gopath"),
        "GOMODCACHE": os.path.join(build, "gopath", "pkg", "mod"),
        "GOTMPDIR": os.path.join(build, "tmp"),
        "XDG_CONFIG_HOME": os.path.join(build, "config"),
        "GOENV": "off",
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
    })
    for key in ("GOCACHE", "GOPATH", "GOTMPDIR", "XDG_CONFIG_HOME"):
        os.makedirs(env[key], exist_ok=True)
    binary = os.path.join(build, "perfbench")
    tmp = "%s.%d" % (binary, os.getpid())
    b = subprocess.run(["go", "build", "-o", tmp, "."], cwd=BENCH, env=env,
                       stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if b.returncode != 0:
        sys.stderr.write(b.stdout)
        sys.stderr.write("perfbench: build failed\n")
        if os.path.exists(tmp):
            os.remove(tmp)
        return 2
    os.replace(tmp, binary)
    args = [binary] + sys.argv[1:] + [
        "--source", source_digest(),
        "--commit", commit(),
        "--out", os.path.join(build, "perfbench-spans"),
    ]
    try:
        return subprocess.run(args, cwd=ROOT, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run timed out\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
