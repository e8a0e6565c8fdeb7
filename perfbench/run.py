#!/usr/bin/env python3
"""Build and run one perfbench workload; print its result as JSON.

Run from the root of a padico checkout:

    python3 perfbench/run.py --workload session_storm --seed 1 \\
        --seconds 10 --trace 0

The first run configures and builds an optimised (Release) copy of the
libraries and the perfbench program under .bench_build/perfbench; later
runs only rebuild what changed.  The program runs the workload in one
single-threaded process and checks its own invariants; this script adds
the checks against the recorded digests and simulated paper cells in
perfbench/expected.json.  The last line of standard output is

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

and the exit code is 0 only when every check passed.  Human-readable
lines (prefixed "#") come before it, including one "# env" line with
the compiler, flags, core count and source revision the result was
measured with.  The full record, with that environment, also lands in
.bench_build/perfbench/results/.

    --record   write this run's digests and cells into expected.json
               instead of comparing against it (after a deliberate
               model change)
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
WORKLOADS = ("session_storm", "san_bulk", "churn_mix", "paper_stack")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170
# Simulated cells are virtual-time figures: equal up to printing noise.
CELL_RTOL = 1e-9


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        fail("no padico sources (CMakeLists.txt, src/) next to " + HERE)
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    # The compiler's temporary files stay inside the checkout too.
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=env,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except subprocess.TimeoutExpired:
            fail("build timed out: " + " ".join(cmd))
        if done.returncode != 0:
            sys.stderr.write(done.stdout.decode(errors="replace"))
            fail("build failed: " + " ".join(cmd))


def source_revision():
    """git HEAD when the checkout is a repository, plus a digest of the
    sources the benchmark builds (a checkout need not be one)."""
    sha = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL, timeout=30,
                                 check=True).stdout.decode().strip()
        except (OSError, subprocess.SubprocessError):
            pass
    h = hashlib.sha256()
    paths = [os.path.join(ROOT, "CMakeLists.txt")]
    for top in ("src", "perfbench"):
        for d, dirs, files in os.walk(os.path.join(ROOT, top)):
            dirs.sort()
            paths += [os.path.join(d, f) for f in sorted(files)]
    for p in paths:
        h.update(os.path.relpath(p, ROOT).encode())
        with open(p, "rb") as f:
            h.update(f.read())
    return sha, h.hexdigest()[:16]


def compare(result, expected):
    """Checks of this run's digests and cells against the recorded ones."""
    checks = []
    recorded = expected.get("digests", {})
    for key, got in sorted(result["digests"].items()):
        if key in recorded:
            checks.append({"name": "recorded digest " + key,
                           "ok": got == recorded[key],
                           "detail": "got %s, recorded %s" % (got, recorded[key])})
    cells = expected.get("cells", {})
    wrong = []
    for name, got in sorted(result["cells"].items()):
        want = cells.get(name)
        if want is None or got is None or abs(got - want) > CELL_RTOL * abs(want):
            wrong.append("%s=%r (recorded %r)" % (name, got, want))
    if result["cells"]:
        checks.append({"name": "simulated cells equal recorded values",
                       "ok": not wrong, "detail": "; ".join(wrong[:5])})
    return checks


def record(result, path):
    with open(path) as f:
        expected = json.load(f)
    expected.setdefault("digests", {}).update(result["digests"])
    expected.setdefault("cells", {}).update(result["cells"])
    with open(path, "w") as f:
        json.dump(expected, f, indent=1, sort_keys=True)
        f.write("\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    ap.add_argument("--expected", default=os.path.join(HERE, "expected.json"))
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        fail("--seed must be >= 0 and --seconds in (0, 60]")

    build()
    results = os.path.join(BUILD, "results")
    os.makedirs(results, exist_ok=True)
    tag = "%s-%d-trace%s" % (args.workload, args.seed, args.trace)
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", args.trace]
    if args.trace == "1":
        cmd += ["--spans-out", os.path.join(results, tag + ".spans.jsonl")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                             check=False)
    except subprocess.TimeoutExpired:
        fail("workload timed out after %d s" % RUN_TIMEOUT_S, 1)
    lines = run.stdout.decode(errors="replace").splitlines()
    result = None
    for line in lines:
        if line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
        else:
            print(line)
    if result is None:
        fail("perfbench exited with code %d and no result" % run.returncode, 1)

    if args.record:
        record(result, args.expected)
        checks = []
    else:
        with open(args.expected) as f:
            checks = compare(result, json.load(f))
    for c in checks:
        print("# check %-40s %s %s" % (c["name"], "ok" if c["ok"] else "FAILED",
                                       c["detail"] if not c["ok"] else ""))
    result["checks"] += checks
    correct = run.returncode == 0 and all(c["ok"] for c in result["checks"])

    sha, src = source_revision()
    env = dict(result["build"], nproc=os.cpu_count(), git_sha=sha,
               source_digest=src)
    print("# env " + json.dumps(env, sort_keys=True))
    attempted = max(1, int(result["attempted"]))
    failed = int(result["failed"]) if correct else attempted
    final = {"correct": correct, "attempted": attempted, "failed": failed,
             "metrics": result["metrics"]}
    with open(os.path.join(results, tag + ".json"), "w") as f:
        json.dump(dict(final, env=env, checks=result["checks"],
                       digests=result["digests"]), f, indent=1)
    print(json.dumps(final))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
