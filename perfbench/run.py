#!/usr/bin/env python3
"""Repository benchmark entry point.

    python3 perfbench/run.py --workload flow|lint|miter|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `perfbench` measuring binary
(its own Cargo package in this directory) and the shipped `rsn-serve`
daemon from source, refuses a binary older than the sources it was built
from, prints a provenance line, then runs the workload. The last line of
standard output is the result object; see perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import pathlib
import re
import signal
import subprocess
import sys
import time

# Whole-run limit for the measuring process (the build is not counted).
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850
WORKLOADS = ("flow", "lint", "miter", "serve")


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def built_from(binary):
    """The source files cargo recorded for `binary` in its dep-info file
    (`<binary>.d`): every file of its own package and of each path
    dependency that its build read."""
    dep_info = binary.with_name(binary.name + ".d")
    if not dep_info.is_file():
        fail(f"no dep-info file {dep_info} for {binary.name}", 3)
    files = []
    for line in dep_info.read_text().splitlines():
        _, sep, deps = line.partition(": ")
        if sep and not line.startswith("#"):
            files += [pathlib.Path(d.replace("\\ ", " "))
                      for d in re.split(r"(?<!\\) ", deps.strip()) if d]
    if not files:
        fail(f"dep-info file {dep_info} lists no sources", 3)
    return files


def digest(root, files):
    h = hashlib.sha256()
    for f in sorted(set(files)):
        h.update(str(f.relative_to(root) if f.is_relative_to(root) else f).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def commit(root):
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def serve_defaults(binary):
    """The daemon's own defaults, read from its `--help`."""
    text = subprocess.run([str(binary), "--help"], capture_output=True, text=True,
                          timeout=30).stdout
    found = {}
    for flag in ("threads", "sweep-threads", "cache"):
        m = re.search(rf"--{flag} <N>.*?\[default: (\d+)\]", text)
        found[flag.replace("-", "_")] = int(m.group(1)) if m else None
    return found


def build(root, env):
    steps = [
        ["cargo", "build", "--release", "--offline", "--manifest-path", "perfbench/Cargo.toml"],
        ["cargo", "build", "--release", "--offline", "-p", "rsn-serve", "--bin", "rsn-serve"],
    ]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        left = max(1.0, deadline - time.monotonic())
        try:
            r = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr, stderr=sys.stderr,
                               timeout=left)
        except subprocess.TimeoutExpired:
            fail(f"build timed out: {' '.join(cmd)}", 1)
        if r.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()

    root = pathlib.Path.cwd()
    for need in ("Cargo.toml", "Cargo.lock", "crates", "perfbench/Cargo.toml"):
        if not (root / need).exists():
            fail(f"{need} not found: run from the root of a full repository checkout")

    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    # Every thread count the code under test derives is pinned to the
    # host's core count and recorded below.
    env["RSN_THREADS"] = str(nproc)
    env.pop("RSN_TRACE", None)
    env.pop("RSN_FAIL", None)
    target = pathlib.Path(env["CARGO_TARGET_DIR"])
    if not target.is_absolute():
        target = root / target

    build(root, env)
    # A binary cargo found fresh keeps its old mtime, so each binary is
    # compared only with the sources its own build read.
    bins = {name: target / "release" / name for name in ("perfbench", "rsn-serve")}
    sources = []
    for name, path in bins.items():
        if not path.is_file():
            fail(f"{name} binary missing at {path}", 1)
        deps = [d if d.is_absolute() else root / d for d in built_from(path)]
        missing = [d for d in deps if not d.is_file()]
        if missing:
            fail(f"refusing {name} binary {path}: built from {missing[0]}, which is gone", 3)
        newest = max(deps, key=lambda f: f.stat().st_mtime)
        if path.stat().st_mtime < newest.stat().st_mtime:
            fail(f"refusing stale {name} binary {path}: older than {newest}", 3)
        sources += deps
    manifests = [root / m for m in ("Cargo.toml", "Cargo.lock", "perfbench/Cargo.toml",
                                    "perfbench/Cargo.lock")]

    provenance = {
        "nproc": nproc,
        "threads": {
            "RSN_THREADS": nproc,
            "flow_fault_sweep": nproc,
            "lint_solver": 1,
            "miter_portfolio": nproc,
            "serve": {**serve_defaults(bins["rsn-serve"]), "solver_threads": nproc,
                      "clients": 1},
        },
        "commit": commit(root),
        "source_digest": digest(root, sources + manifests),
        "profile": "release (debug = true, as the workspace's [profile.release])",
        "workload": args.workload,
        "seed": args.seed,
    }
    print("provenance " + json.dumps(provenance, sort_keys=True), flush=True)

    cmd = [str(bins["perfbench"]), args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--serve-bin", str(bins["rsn-serve"]), "--out-dir", ".bench_out"]
    # Own process group, so a timeout also stops the daemon it started.
    proc = subprocess.Popen(cmd, cwd=root, env=env, start_new_session=True)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        # The daemon is the measuring process's child: wait until the
        # whole group is gone.
        for _ in range(500):
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.01)
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 1)
    if code != 0:
        fail(f"{args.workload} exited with code {code}", 1)


if __name__ == "__main__":
    main()
