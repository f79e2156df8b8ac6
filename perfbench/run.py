#!/usr/bin/env python3
"""Builds the `perfbench` package from source and runs one workload of it.

    python3 perfbench/run.py --workload query_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10

Run from the repository root. The package is built in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), offline, against the
repository's crates by path. With `--trace 0` the last line of the output
is one JSON object holding the end-to-end metrics; with `--trace 1` it holds
the per-layer metrics, and the kept spans are written to
`<target dir>/perfbench-trace-<workload>.tsv`. `--workload all` runs every
workload in turn and ends with one JSON object whose metric names are
prefixed with the workload's.

Exit codes: 0 when a result was printed (its `correct` field says whether
every output check passed), 1 when the build or a run failed, 2 on bad
arguments.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ["query_mix", "churn_stream", "rr_sets"]
# A run must end well within the three minutes one invocation may take.
RUN_TIMEOUT_S = 170

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def commit_id():
    """The git commit, or a digest of the sources where the tree is no git
    checkout of its own."""
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            )
            if out.returncode == 0 and out.stdout.strip():
                return out.stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    for path in sorted((ROOT / "crates").rglob("*")):
        if path.is_file() and path.suffix in (".rs", ".toml"):
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    return "no-git-sources-" + h.hexdigest()[:16]


def build(target):
    cmd = [
        "cargo", "build", "--release", "--offline", "--quiet",
        "--manifest-path", str(HERE / "Cargo.toml"),
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
    return done.returncode == 0


def run_one(binary, target, args, workload, commit):
    cmd = [
        str(binary),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--threads", str(args.threads),
        "--commit", commit,
    ]
    if args.trace:
        cmd += ["--trace-out", str(target / f"perfbench-trace-{workload}.tsv")]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print(f"perfbench: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return None
    lines = out.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stdout.write(out)
        print(f"perfbench: {workload} exited with {proc.returncode}", file=sys.stderr)
        return None
    return lines


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--threads", type=int, default=1)
    args = p.parse_args()

    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = Path.cwd() / target
    if not build(target):
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = target / "release" / "perfbench"
    commit = commit_id()

    if args.workload != "all":
        lines = run_one(binary, target, args, args.workload, commit)
        if lines is None:
            return 1
        print("\n".join(lines), flush=True)
        return 0

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in WORKLOADS:
        lines = run_one(binary, target, args, w, commit)
        if lines is None:
            return 1
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for name, m in res["metrics"].items():
            total["metrics"][f"{w}.{name}"] = m
    print(json.dumps(total), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
