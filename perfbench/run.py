#!/usr/bin/env python3
"""Build lexequald and the perfbench harness from source, then run one
benchmark workload (or the harness self-test).

Run from the repository root:

    python3 perfbench/run.py --workload paper_match --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Builds go to $CARGO_TARGET_DIR (default .bench_build); results, spans and
scratch files go to perfbench/out. Build output goes to stderr, so the
last stdout line is the harness's JSON result.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path.cwd()
BENCH = ROOT / "perfbench"


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def source_id():
    """The commit if this is a git checkout, else a digest of the sources."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    files = sorted(
        p for p in (ROOT / "crates").rglob("*") if p.is_file() and p.suffix in (".rs", ".toml")
    )
    for p in [ROOT / "Cargo.toml", *files]:
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return "src-sha256:" + h.hexdigest()[:16]


def main():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "service").is_dir():
        fail("run from the repository root: crates/service is missing")
    target = pathlib.Path(os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    cargo("-p", "lexequal-service", "--bin", "lexequald")
    cargo("--manifest-path", str(BENCH / "Cargo.toml"))
    harness = target / "release" / "perfbench"
    daemon = target / "release" / "lexequald"
    args = [
        str(harness),
        "--daemon", str(daemon),
        "--out", str(BENCH / "out"),
        "--commit", source_id(),
        *sys.argv[1:],
    ]
    sys.stdout.flush()
    proc = subprocess.run(args, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
