#!/usr/bin/env python3
"""Build `parcc` and the benchmark harness from source, then run one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload expander-200k --seed 1 --seconds 20 --trace 0

Cargo builds into `$CARGO_TARGET_DIR` (default `.bench_build` in the
repository). Generated inputs live in a temporary directory under
`.bench_tmp/` that the harness removes when it exits; a traced run
(`--trace 1`) writes its spans to `perfbench/out/`. The last line of
standard output is the result object; the harness exits non-zero when an
output fails its oracle check.
"""

import hashlib
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"


def source_revision():
    """The git commit when the checkout is a repository, else a digest of the sources."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            )
            return out.stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    files = [ROOT / "Cargo.toml", ROOT / "Cargo.lock"]
    for top in ("crates", "shims", "src"):
        files += sorted(p for p in (ROOT / top).rglob("*") if p.is_file())
    for path in files:
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "sources-sha256:" + digest.hexdigest()[:16]


def main():
    env = dict(os.environ)
    target = pathlib.Path(env.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = pathlib.Path.cwd() / target
    env["CARGO_TARGET_DIR"] = str(target)
    builds = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "parcc"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path", str(BENCH / "Cargo.toml")],
    ]
    for cmd in builds:
        if subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            return 2
    cmd = [
        str(target / "release" / "perfbench"),
        *sys.argv[1:],
        "--parcc", str(target / "release" / "parcc"),
        "--work", str(ROOT / ".bench_tmp"),
        "--spans", str(BENCH / "out"),
        "--source", source_revision(),
    ]
    code = subprocess.run(cmd, cwd=ROOT, env=env).returncode
    try:
        (ROOT / ".bench_tmp").rmdir()
    except OSError:
        pass
    return code


if __name__ == "__main__":
    sys.exit(main())
