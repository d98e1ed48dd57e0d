#!/usr/bin/env python3
"""Session benchmark of the streamcast library.

    python3 sessionbench/run.py --workload NAME [--seed N] [--seconds S]
                                [--trace 0|1]

Run from the root of a source checkout. The script builds the library and
the sessionbench binary from source into .bench_build/sessionbench (cmake
rebuilds only what changed), makes sure every cell of the workload has a
reference output digest for the seed, then runs the binary in a process of
its own and passes its output through. The last line of output is the JSON
result; the exit status is the binary's (1 on an output mismatch). See
sessionbench/README.md.
"""

import argparse
import hashlib
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "sessionbench"
BINARY = BUILD / "sessionbench"
STORED = HERE / "references.tsv"

WORKLOADS = {
    "cluster-exact": "reliable runs of every scheme below the 50k sketch "
                     "threshold",
    "cluster-scale": "reliable runs at or above 50k nodes (scale path)",
    "lossy-recovery": "Gilbert-Elliott runs under every recovery and "
                      "startup policy",
    "multicluster-sharded": "16-cluster super-tree runs sharded across the "
                            "host's cores",
}


def parse_args():
    parser = argparse.ArgumentParser(
        description="Run one workload's session mix for a fixed time and "
                    "print its end-to-end (--trace 0) or per-layer "
                    "(--trace 1) metrics.",
        epilog="workloads: " + "; ".join(
            f"{name}: {why}" for name, why in WORKLOADS.items()),
        allow_abbrev=False)
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"],
                        help="workload to run; 'all' runs each in turn")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of the randomized overlays and loss "
                             "channels (default 0)")
    parser.add_argument("--seconds", type=int, default=10,
                        help="how long to measure (default 10)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="1 = traced run with per-layer metrics")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 3600:
        parser.error("--seconds must be in [1, 3600]")
    return args


def fail(message):
    print(f"sessionbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no library sources under {ROOT / 'src'}; run from a full "
             "source checkout")
    jobs = str(os.cpu_count() or 1)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "sessionbench",
                  "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the JSON result.
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def source_id():
    """The git commit when there is one, and always a digest of src/."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            h.update(str(path.relative_to(ROOT)).encode())
            h.update(path.read_bytes())
    ident = "src-sha256:" + h.hexdigest()[:16]
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=True).stdout.strip()
        ident = "git:" + commit + " " + ident
    except (OSError, subprocess.CalledProcessError):
        pass
    return ident


def references(workload, seed):
    """Reference files for the run: the stored digests plus, for cells
    the store lacks at this seed, digests captured from one audited run
    each. Capture runs in a process of its own so it cannot touch the timed
    process's peak memory."""
    cache = BUILD / "references" / f"{workload}-seed{seed}.tsv"

    def flags():
        files = [STORED] + ([cache] if cache.is_file() else [])
        return [arg for f in files for arg in ("--references", str(f))]

    captured = subprocess.run(
        [str(BINARY), "--workload", workload, "--seed", str(seed),
         "--capture", *flags()], capture_output=True, text=True)
    if captured.returncode != 0:
        sys.stderr.write(captured.stderr)
        fail(f"reference capture for {workload} failed")
    if captured.stdout:
        cache.parent.mkdir(parents=True, exist_ok=True)
        with cache.open("a") as out:
            out.write(captured.stdout)
    return flags()


def run(workload, args, source):
    command = [str(BINARY), "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--source", source, *references(workload, args.seed)]
    return subprocess.run(command).returncode


def main():
    args = parse_args()
    build()
    source = source_id()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    status = 0
    for name in names:
        status = max(status, run(name, args, source))
    sys.exit(status)


if __name__ == "__main__":
    main()
