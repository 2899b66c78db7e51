#!/usr/bin/env python3
"""Builds the benchmark from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The program is built with `cargo build --release --offline` into
`$CARGO_TARGET_DIR` (default `.bench_build`). Build output goes to standard
error; the last line of standard output is the run's JSON result. The run
is stamped with the host's `rustc` version and the source revision: the git
commit when the tree is a git checkout, otherwise a hash of the sources.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CRATES = ["workload", "engine", "sparklens", "ppm", "ml", "core", "serve"]
# Sources that determine the built program, hashed when git is unavailable.
SOURCE_ROOTS = ["Cargo.toml", "Cargo.lock", "crates", "perfbench"]
SKIP_DIRS = {"out", "target", ".bench_build"}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def source_hash():
    digest = hashlib.sha256()
    for name in SOURCE_ROOTS:
        top = ROOT / name
        files = [top] if top.is_file() else sorted(
            p for p in top.rglob("*")
            if p.is_file() and not SKIP_DIRS.intersection(p.relative_to(ROOT).parts)
        )
        for path in files:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256:" + digest.hexdigest()[:16]


def revision():
    if (ROOT / ".git").exists():
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        if head.returncode == 0:
            dirty = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                   capture_output=True, text=True).stdout.strip()
            return head.stdout.strip() + ("+dirty" if dirty else "")
    return source_hash()


def main():
    missing = [c for c in CRATES if not (ROOT / "crates" / c / "Cargo.toml").is_file()]
    if missing:
        fail(f"the repository's crates are missing ({', '.join(missing)}); "
             "run from a full checkout")
    target = Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")
    if not target.is_absolute():
        target = Path.cwd() / target
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", str(BENCH / "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        fail("building the benchmark failed")
    rustc = subprocess.run(["rustc", "--version"], capture_output=True, text=True)
    binary = target / "release" / "perfbench"
    args = [str(binary), *sys.argv[1:],
            "--rustc", rustc.stdout.strip() or "unknown",
            "--revision", revision()]
    sys.stdout.flush()
    # The program writes its reports relative to the repository root.
    os.chdir(ROOT)
    os.execv(binary, args)


if __name__ == "__main__":
    main()
