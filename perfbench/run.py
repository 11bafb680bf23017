#!/usr/bin/env python3
"""Build and run the SHIFT end-to-end benchmark.

    python3 perfbench/run.py --workload spec-fig7 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles ../src) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench; later calls only rebuild what changed.
The binary's stdout is passed through, with this script's own '#'
lines (commit, baseline/history label) inserted before the final JSON
line, which stays last. Traced runs write their spans next to the
build. Exits non-zero, printing no result, when the build or the run
fails.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def die(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(bdir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        die("no simulator sources (src/) beside perfbench/; "
            "run from the root of a full checkout")
    os.makedirs(bdir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", jobs])
    log_path = os.path.join(bdir, "build.log")
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                status = subprocess.run(cmd, stdout=log,
                                        stderr=subprocess.STDOUT).returncode
            except OSError as e:
                die(f"cannot run {cmd[0]}: {e}")
            if status != 0:
                log.flush()
                with open(log_path) as f:
                    tail = f.read().splitlines()[-20:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build failed (see {log_path})")
    return os.path.join(bdir, "perfbench")


def commit_id():
    """The git commit, or a content hash of the sources when the
    checkout is not a git repository."""
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True)
            if out.returncode == 0:
                return out.stdout.strip()
        except OSError:
            pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def record_history(bdir, host, record):
    """Append this result to the local log and label earlier ones: a
    result from another host fingerprint is history, not a baseline."""
    path = os.path.join(bdir, "results.jsonl")
    baseline = history = 0
    if os.path.isfile(path):
        with open(path) as f:
            for line in f:
                try:
                    old = json.loads(line)
                except ValueError:
                    continue
                if old.get("workload") != record["workload"] or \
                        old.get("trace") != record["trace"]:
                    continue
                if old.get("host") == host:
                    baseline += 1
                else:
                    history += 1
    with open(path, "a") as f:
        f.write(json.dumps(record, sort_keys=True) + "\n")
    return (f"# earlier results of this workload: {baseline} on this host "
            f"fingerprint (comparable), {history} from other fingerprints "
            f"(history only, not a baseline)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one short pass per workload; non-zero exit "
                             "when any operation fails")
    args = parser.parse_args()
    if not args.smoke and not args.workload:
        parser.error("--workload is required (or --smoke)")

    bdir = build_dir()
    binary = build(bdir)
    cmd = [binary]
    if args.smoke:
        cmd.append("--smoke")
    else:
        cmd += ["--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            cmd += ["--spans", os.path.join(
                bdir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if args.smoke:
        print("\n".join(lines))
        return proc.returncode
    if proc.returncode != 0 or not lines:
        die(f"perfbench exited with status {proc.returncode}")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        die("perfbench printed no result line")

    host = None
    for line in lines[:-1]:
        print(line)
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    commit = commit_id()
    print(f"# commit {commit}")
    print(record_history(bdir, host, {
        "host": host, "commit": commit, "workload": args.workload,
        "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "result": result}))
    print(lines[-1])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
