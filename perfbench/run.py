#!/usr/bin/env python3
"""Host-speed benchmark of the PEARL simulator.

Run from the root of a source tree:

    python3 perfbench/run.py --workload chip16_ml --seed 100 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

The script configures and builds perfbench/ (a CMake package that
compiles ../src) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench, then runs the pearl_perfbench binary with a
clean PEARL_* environment.  The last line of standard output is the
binary's JSON result: {"correct", "attempted", "failed", "metrics"}.

--smoke runs every workload briefly in both trace modes and asserts
that every metric named in BENCHMARK.json is printed with its unit, and
that a deliberately perturbed digest is reported as a failed run.

The benchmark writes only under its build directory: the build log,
one report per run and the spans of the last traced repetition.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("chip16_ml", "scale128_hub", "fig9_sweep")
# A run spends up to ~2 minutes on its golden check and set-up before
# its --seconds loop starts.
RUN_OVERHEAD_S = 140
BUILD_TIMEOUT_S = 840


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def clean_env():
    """The caller's environment without any PEARL_* knob."""
    return {k: v for k, v in os.environ.items() if not k.startswith("PEARL_")}


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(bdir):
    """Configure once, then (re)build the binary; returns its path."""
    for need in ("src/CMakeLists.txt", "tests/golden/fcfs.csv"):
        if not (ROOT / need).is_file():
            fail(f"{need} not found: run from a full source tree")
    bdir.mkdir(parents=True, exist_ok=True)
    log_path = bdir / "build.log"
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "--target",
                  "pearl_perfbench", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    env=clean_env(), timeout=BUILD_TIMEOUT_S,
                                    check=False).returncode
            except subprocess.TimeoutExpired:
                fail(f"build timed out; see {log_path}")
            if rc != 0:
                log.flush()
                tail = log_path.read_text(errors="replace").splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); see {log_path}")
    binary = bdir / "pearl_perfbench"
    if not binary.is_file():
        fail(f"build produced no {binary}")
    return binary


def git_sha():
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30,
                             check=False)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def source_id():
    """Content hash of the simulator and benchmark sources, so reports
    from checkouts that are not git repositories can still be told
    apart."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for path in sorted((ROOT / top).rglob("*")):
            if path.is_file() and path.suffix in (".cpp", ".hpp", ".txt", ".py"):
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_binary(binary, bdir, workload, seed, seconds, trace, extra=()):
    """Run the benchmark binary; returns (stdout lines, parsed result)."""
    report = bdir / "reports" / f"{workload}_seed{seed}_trace{trace}.json"
    report.parent.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), "--workload", workload, "--seconds", str(seconds),
           "--trace", str(trace), "--git-sha", git_sha(),
           "--source-id", source_id(), "--report", str(report), *extra]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    timeout = seconds + RUN_OVERHEAD_S
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=clean_env(),
                              stdout=subprocess.PIPE, text=True,
                              timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {timeout} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print("\n".join(lines))
        fail(f"{workload} exited with code {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail(f"malformed result line: {lines[-1]}")
    return lines, result


def smoke(binary, bdir):
    """Every named metric, with its unit, on every workload and mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            _, result = run_binary(binary, bdir, workload, None, 1, trace,
                                   ("--smoke",))
            got = result["metrics"]
            if not result["correct"] or result["failed"]:
                problems.append(f"{workload}/trace{trace}: not correct")
            for m in expected[trace]:
                entry = got.get(m["name"])
                if entry is None:
                    problems.append(f"{workload}/trace{trace}: {m['name']} missing")
                elif entry.get("unit") != m["unit"] or not isinstance(
                        entry.get("value"), (int, float)):
                    problems.append(f"{workload}/trace{trace}: {m['name']} "
                                    f"printed as {entry}, unit {m['unit']}")
            extra = set(got) - {m["name"] for m in expected[trace]}
            if extra:
                problems.append(f"{workload}/trace{trace}: unlisted {sorted(extra)}")
            print(f"# smoke {workload} trace {trace}: {len(got)} metrics")
    _, perturbed = run_binary(binary, bdir, "chip16_ml", None, 1, 0,
                              ("--smoke", "--perturb-digest"))
    if perturbed["correct"] or perturbed["failed"] < 1:
        problems.append("a perturbed digest was not reported as a failed run")
    for p in problems:
        print(f"# smoke problem: {p}")
    print(json.dumps({"smoke": "ok" if not problems else "failed",
                      "problems": len(problems)}))
    return 0 if not problems else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, help="workload seed (default: the "
                    "workload's own: chip16_ml 100, scale128_hub 1, "
                    "fig9_sweep 100)")
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")
    if not 1 <= args.seconds <= 3600:
        ap.error("--seconds must be in [1, 3600]")
    if args.seed is not None and args.seed < 0:
        ap.error("--seed must be non-negative")

    bdir = build_dir()
    started = time.monotonic()
    binary = build(bdir)
    print(f"# build {time.monotonic() - started:.1f} s in {bdir}")
    if args.smoke:
        return smoke(binary, bdir)
    lines, result = run_binary(binary, bdir, args.workload, args.seed,
                               args.seconds, args.trace)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
