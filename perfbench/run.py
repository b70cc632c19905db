"""The frspec benchmark: one command, every metric by name with its unit.

    python3 perfbench/run.py --workload sweep-n4|limit-n8|atlas-n6
                             [--seed N] [--seconds S] [--trace 0|1] [--smoke]

Run from anywhere inside a checkout that holds ``src/frspec``.  The run
repeats the workload, each repetition in a fresh interpreter
(``worker.py``), because a CLI user pays import and first-call costs on
every run.  Repetitions start until ``--seconds`` would be exceeded (at
least three untraced, or two of each kind when traced).

--trace 0  reports the end-to-end metrics of BENCHMARK.json: the median over
           repetitions of wall_s, setup_s, solve_s and peak_rss_mb.  The
           times are reference seconds, corrected for the speed of the
           machine while they ran (speedclock.py); the report prints the
           raw seconds beside them.
--trace 1  alternates untraced and traced repetitions and reports the
           per-layer metrics of BENCHMARK.json, including
           trace.overhead_frac = traced wall / untraced raw wall - 1.
--smoke    N = 2 inputs and one repetition of each kind (the self-check).

The report (environment, median, quartiles and sample count per metric,
fail_frac, failed operations) goes to stdout; the last stdout line is one
JSON object {"correct", "attempted", "failed", "metrics"}.  Working files go
to .bench_build/perfbench/ in the checkout.  Exit code 0 when a result was
printed (failed operations make "correct" false), 1 when the benchmark
itself failed, 2 when the checkout has no frspec sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep-n4", "limit-n8", "atlas-n6")
DEADLINE_S = 170.0  # the whole run, start-up included, ends within this
# Thread pools of the repetition.  Every workload is one client whose BLAS
# calls are on 4x4 matrices (the propagators), where a second OpenBLAS
# thread only spin-waits: on a virtual machine that has idled, waking it on
# the other vCPU cost 0.8 s of CPU time in the first FilteredStepper of a
# process, at random.  One thread is within the workloads' nproc = 2 limit.
POOL_THREADS = "1"

# wall_s, setup_s and solve_s are reference seconds (speedclock.py); the
# raw_* rows of the report are the same times as the clock on the wall read.
E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mb": "MB"}
RAW_UNITS = {"raw_wall_s": "s", "raw_setup_s": "s", "raw_solve_s": "s"}
EXACT_UNITS = ("count", "bytes")  # per-layer counts that must repeat exactly


class BenchError(RuntimeError):
    pass


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def child_env() -> dict:
    env = dict(os.environ)
    for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[k] = POOL_THREADS
    return env


def git_commit() -> str | None:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src" / "frspec").glob("*.py")):
        h.update(p.name.encode() + b"\0" + p.read_bytes())
    return h.hexdigest()


def run_worker(argv: list[str], env: dict, deadline: float) -> subprocess.CompletedProcess:
    remaining = deadline - time.monotonic()
    if remaining <= 1:
        raise BenchError("out of time before the next repetition")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"repetition timed out: {' '.join(argv)}") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"worker {' '.join(argv)} exited {proc.returncode}:\n{proc.stderr.strip()[-2000:]}"
        )
    return proc


def benchmark_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0, help="workload seed; data seeds derive from it")
    ap.add_argument("--seconds", type=float, default=30.0, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="N = 2 inputs, one repetition")
    args = ap.parse_args()

    if not (ROOT / "src" / "frspec" / "__init__.py").is_file():
        print(f"perfbench: no frspec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        return bench(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


def bench(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    wanted = benchmark_spec()[args.trace]
    size = "smoke" if args.smoke else "standard"
    tag = f"{args.workload}-{size}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir = ROOT / ".bench_build" / "perfbench" / tag
    workdir.mkdir(parents=True, exist_ok=True)
    env = child_env()

    # One untimed N = 2 repetition first.  It compiles frspec to bytecode and
    # pages in the code the timed repetitions run: the first touch of pages
    # left idle for a while can cost up to seconds of CPU time on a virtual
    # machine, a cost that a user's repeated runs do not pay.
    warm = workdir / "warmup"
    run_worker(
        ["--workload", args.workload, "--seed", str(args.seed), "--size", "smoke",
         "--out", str(warm), "--run-id", f"{tag}-warmup"],
        env, deadline,
    )
    record = json.loads((warm / "result.json").read_text())["env"]
    record.update(
        git_commit=git_commit(), source_sha256=source_digest(), workload=args.workload,
        seed=args.seed, run_seconds=args.seconds, trace=args.trace, size=size,
    )

    modes = (0, 1) if args.trace else (0,)
    min_each = 1 if args.smoke else (2 if args.trace else 3)
    reps: dict[int, list] = {m: [] for m in modes}
    start, longest, i = time.monotonic(), 0.0, 0
    while True:
        if min(len(r) for r in reps.values()) >= min_each and (
            args.smoke or time.monotonic() - start + longest > args.seconds
        ):
            break
        mode = modes[i % len(modes)]
        rep_dir = workdir / f"rep{i:03d}"
        t0 = time.monotonic()
        run_worker(
            ["--workload", args.workload, "--seed", str(args.seed), "--size", size,
             "--trace", str(mode), "--out", str(rep_dir), "--run-id", f"{tag}-{i}"],
            env, deadline,
        )
        longest = max(longest, time.monotonic() - t0)
        reps[mode].append(json.loads((rep_dir / "result.json").read_text()))
        i += 1

    ops = [op for rs in reps.values() for r in rs for op in r["ops"]]
    failed = [op for op in ops if op["error"] is not None]
    problems = [f"{op['name']}: {op['error']}" for op in failed]

    rows = {}  # name -> (unit, q1, median, q3, n)
    untraced = reps[0]
    for name, unit in {**E2E_UNITS, **RAW_UNITS}.items():
        rows[name] = (unit, *quartiles([r[name] for r in untraced]), len(untraced))
    fail_frac = len(failed) / len(ops)
    rows["fail_frac"] = ("ratio", fail_frac, fail_frac, fail_frac, len(ops))
    if args.trace:
        traced = reps[1]
        for name, unit in traced[0]["per_layer_units"].items():
            vals = [r["per_layer"][name] for r in traced]
            if unit in EXACT_UNITS:
                if len(set(vals)) > 1:
                    problems.append(f"count {name} differs between repetitions: {vals}")
                rows[name] = (unit, vals[0], vals[0], vals[0], len(vals))
            else:
                rows[name] = (unit, *quartiles(vals), len(vals))
        overhead = rows["trace.wall_s"][2] / rows["raw_wall_s"][2] - 1.0
        rows["trace.overhead_frac"] = ("ratio", overhead, overhead, overhead, len(traced))

    metrics = {}
    for name, unit in wanted.items():
        if name not in rows:
            raise BenchError(f"BENCHMARK.json names metric {name}, which this run does not compute")
        if rows[name][0] != unit:
            raise BenchError(f"metric {name}: unit {rows[name][0]} != {unit} in BENCHMARK.json")
        metrics[name] = {"value": rows[name][2], "unit": unit}

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} size={size}")
    print("env " + json.dumps(record, sort_keys=True))
    print(f"{'metric':48s} {'unit':>6s} {'median':>14s} {'q1':>14s} {'q3':>14s} {'n':>5s}")
    for name, (unit, q1, med, q3, n) in rows.items():
        if args.trace or name in E2E_UNITS or name in RAW_UNITS or name == "fail_frac":
            print(f"{name:48s} {unit:>6s} {med:14.6g} {q1:14.6g} {q3:14.6g} {n:5d}")
    for p in problems:
        print(f"FAILED {p}")
    summary = {"env": record, "metrics": {k: list(v) for k, v in rows.items()}, "problems": problems,
               "repetitions": reps}
    (workdir / "summary.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
