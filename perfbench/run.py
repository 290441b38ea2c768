#!/usr/bin/env python3
"""Repository benchmark: build the simulator and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds
perfbench/CMakeLists.txt (the simulator libraries plus the harness) into
$CARGO_TARGET_DIR (default .bench_build) under the current directory;
later calls rebuild incrementally. Build output goes to stderr, so the
last line of stdout is always the harness's JSON result.

--selftest is a short-horizon smoke pass: every workload, traced and
untraced, on a seed held out from tuning. It checks that each run is
correct, and that every metric BENCHMARK.json names is emitted with its
unit (the traced runs also check that the post-run replays leave
metrics() unchanged; a violation fails the run).
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
HELD_OUT_SEED = 7331


def build() -> Path:
    build_dir = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build")).resolve() / "perfbench"
    # Keep compiler temporaries inside the build tree as well.
    tmp = build_dir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    out = sys.stderr.fileno()
    if not (build_dir / "build.ninja").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir), "-G", "Ninja",
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=out, env=env)
    jobs = str(min(os.cpu_count() or 1, 4))
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=out, env=env)
    return build_dir / "wmn_perfbench"


def selftest(exe: Path) -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            label = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [str(exe), "--workload", workload, "--seed", str(HELD_OUT_SEED),
                 "--seconds", "1", "--trace", str(trace), "--smoke"],
                stdout=subprocess.PIPE, text=True)
            lines = proc.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                problems.append(f"{label}: no JSON result (exit {proc.returncode})")
                continue
            if proc.returncode != 0 or not result["correct"] or result["failed"]:
                problems.append(f"{label}: run not correct: {lines[-1]}")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != expected[trace]:
                missing = sorted(set(expected[trace]) - set(got))
                extra = sorted(set(got) - set(expected[trace]))
                wrong = sorted(k for k in set(got) & set(expected[trace])
                               if got[k] != expected[trace][k])
                problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {missing}, extra {extra}, wrong unit {wrong}")
            print(f"selftest {label}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
    for p in problems:
        print(f"selftest FAILED: {p}")
    print("selftest " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed, args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    try:
        exe = build()
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    if args.selftest:
        return selftest(exe)
    sys.stdout.flush()
    return subprocess.run(
        [str(exe), "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace)]).returncode


if __name__ == "__main__":
    sys.exit(main())
