#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fig2-stream --seed 1 --seconds 15 --trace 0

The Go module in this directory replaces the `repro` module with the
checkout root, so the benchmark is compiled from the checkout's own source
on every run (incrementally, through a build cache kept in .bench_build/).
Every file the toolchain and the benchmark write stays under .bench_build/
in the checkout. Build output goes to standard error; the benchmark's last
line of standard output is its JSON result.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"


def source_digest():
    """SHA-256 over the checkout's Go sources, standing in for a commit id
    when the checkout is not a git repository."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if d not in (".bench_build", ".git"))
        for name in sorted(filenames):
            if name.endswith(".go") or name in ("go.mod", "go.sum"):
                path = Path(dirpath) / name
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(b"\0")
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def commit_id():
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            if target.is_file():
                return target.read_text().strip()[:12]
        else:
            return ref[:12]
    return "none"


def main():
    env = dict(os.environ)
    env.update(
        GOCACHE=str(BUILD / "gocache"),
        GOMODCACHE=str(BUILD / "gomodcache"),
        GOPATH=str(BUILD / "gopath"),
        GOTMPDIR=str(BUILD / "tmp"),
        XDG_CONFIG_HOME=str(BUILD / "config"),
        GOENV="off",
        GOWORK="off",
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="",
    )
    for d in ("gocache", "tmp", "config", "perfbench"):
        (BUILD / d).mkdir(parents=True, exist_ok=True)
    binary = BUILD / "perfbench" / "perfbench"
    build = subprocess.run(
        ["go", "build", "-o", str(binary), "."],
        cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    stamp = "commit=%s src=%s" % (commit_id(), source_digest())
    run = subprocess.run(
        [str(binary), "-stamp", stamp, "-out", str(BUILD / "perfbench")] + sys.argv[1:],
        cwd=ROOT, env=env,
    )
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
