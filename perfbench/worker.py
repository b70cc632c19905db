"""One repetition of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --size standard|smoke
                                --trace 0|1 --out DIR --run-id ID

The repetition imports frspec from ``src/`` of the checkout, wraps its entry
points (set-up calls only when untraced, every public call when traced),
runs the workload's operations, then checks their outputs outside the timed
region and writes ``result.json`` (and ``spans.jsonl`` when traced) to DIR.
Untraced, a ``speedclock.SpeedClock`` samples the machine's speed during
the operations, and the times are given in reference seconds and raw.
Exit codes: 0 done (failed operations are data, not errors), 3 a wrapped
entry point is missing or was never called.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from pathlib import Path

import numpy as np

import speedclock
import tracing

ROOT = Path(__file__).resolve().parent.parent
EXIT_ENTRY_POINT = 3

COUNT, SECONDS = "count", "s"

# (name, unit); every per-layer metric the traced run reports.  A metric
# that does not apply to a workload reads 0.
PER_LAYER = [
    ("solvers.FilteredStepper.init.total_s", SECONDS),
    ("solvers.FilteredStepper.init.calls", COUNT),
    ("solvers.FilteredStepper.step.calls", COUNT),
    ("solvers.FilteredStepper.step.self_s", SECONDS),
    ("solvers.FilteredStepper.step.p50_ms", "ms"),
    ("solvers.FilteredStepper.step.p99_ms", "ms"),
    ("solvers.filtered_steps_per_s", "1/s"),
    ("solvers.LimitStepper.step.calls", COUNT),
    ("solvers.LimitStepper.step.self_s", SECONDS),
    ("solvers.LimitStepper.step.p50_ms", "ms"),
    ("solvers.LimitStepper.step.p99_ms", "ms"),
    ("solvers.limit_steps_per_s", "1/s"),
    ("fields.convolve_quadratic.full.calls", COUNT),
    ("fields.convolve_quadratic.full.self_s", SECONDS),
    ("fields.convolve_quadratic.horizontal.calls", COUNT),
    ("fields.convolve_quadratic.horizontal.self_s", SECONDS),
    ("fields.transport.calls", COUNT),
    ("fields.leray_project.self_s", SECONDS),
    ("fields.to_physical.self_s", SECONDS),
    ("fields.sobolev_norm.self_s", SECONDS),
    ("fields.fft.transforms", COUNT),
    ("fields.fft.points", COUNT),
    ("fields.fft.bytes_computed", "bytes"),
    ("waves.coefficients.calls", COUNT),
    ("waves.coefficients.self_s", SECONDS),
    ("waves.field_from_coefficients.self_s", SECONDS),
    ("waves.apply_filter.calls", COUNT),
    ("waves.apply_filter.self_s", SECONDS),
    ("waves.decompose.self_s", SECONDS),
    ("forms.tables.build_s", SECONDS),
    ("forms.tables.rows", COUNT),
    ("forms.tables.under_rows", COUNT),
    *[(f"forms.tables.rows.{c}", COUNT) for c in (
        "0pp", "0mm", "p0p", "m0m", "pm0", "mp0",
        "ppp", "ppm", "pmp", "pmm", "mpp", "mpm", "mmp", "mmm",
    )],
    ("forms.confirm.calls", COUNT),
    ("forms.confirm.hits", COUNT),
    ("forms.confirm.yield", "ratio"),
    ("forms.q_tilde1.calls", COUNT),
    ("forms.q_tilde1.self_s", SECONDS),
    ("forms.q_tilde2.self_s", SECONDS),
    ("forms.q_underline.self_s", SECONDS),
    ("forms.b_form.self_s", SECONDS),
    ("forms.a2_limit.self_s", SECONDS),
    ("forms.q_eps.self_s", SECONDS),
    ("forms.remainders.total_s", SECONDS),
    ("resonance.enumerate_kstar.total_s", SECONDS),
    ("resonance.kstar.triads", COUNT),
    ("resonance.exact_sqrt_sum_is_zero.calls", COUNT),
    ("resonance.screen_yield", "ratio"),
    ("geometry.omega_sq_exact.calls", COUNT),
    ("dyadic.bony_split.total_s", SECONDS),
    ("dyadic.dyadic_block.calls", COUNT),
    ("dyadic.bernstein_ratio.total_s", SECONDS),
    ("harness.run_sweep.total_s", SECONDS),
    ("harness.random_initial_data.total_s", SECONDS),
    ("harness.audit_cancellations.total_s", SECONDS),
    ("cli.main.limit.total_s", SECONDS),
    ("cli.main.resonances.total_s", SECONDS),
    ("cli.main.audit.total_s", SECONDS),
    ("cli.main.norms.total_s", SECONDS),
    *[(f"{layer}.self_s", SECONDS) for layer in tracing.LAYERS],
    ("trace.wall_s", SECONDS),
    ("trace.unattributed_s", SECONDS),
    ("trace.spans", COUNT),
]


def per_layer_metrics(tracer: tracing.Tracer, wall: float, tables: dict) -> dict:
    agg = tracer.aggregate()
    counts = tracer.counts
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []}

    def span(name):
        return agg.get(name, empty)

    def ms(name, q):
        d = span(name)["durations"]
        return float(np.percentile(d, q)) * 1e3 if d else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    v = {}
    for path, stat in (
        ("solvers.FilteredStepper.init", "total_s"), ("solvers.FilteredStepper.init", "calls"),
        ("fields.convolve_quadratic.full", "calls"), ("fields.convolve_quadratic.full", "self_s"),
        ("fields.convolve_quadratic.horizontal", "calls"),
        ("fields.convolve_quadratic.horizontal", "self_s"),
        ("fields.transport", "calls"), ("fields.leray_project", "self_s"),
        ("fields.to_physical", "self_s"), ("fields.sobolev_norm", "self_s"),
        ("waves.coefficients", "calls"), ("waves.coefficients", "self_s"),
        ("waves.field_from_coefficients", "self_s"), ("waves.apply_filter", "calls"),
        ("waves.apply_filter", "self_s"), ("waves.decompose", "self_s"),
        ("forms.q_tilde1", "calls"), ("forms.q_tilde1", "self_s"), ("forms.q_tilde2", "self_s"),
        ("forms.q_underline", "self_s"), ("forms.b_form", "self_s"), ("forms.a2_limit", "self_s"),
        ("forms.q_eps", "self_s"), ("forms.remainders", "total_s"),
        ("resonance.enumerate_kstar", "total_s"), ("resonance.exact_sqrt_sum_is_zero", "calls"),
        ("geometry.omega_sq_exact", "calls"), ("dyadic.bony_split", "total_s"),
        ("dyadic.dyadic_block", "calls"), ("dyadic.bernstein_ratio", "total_s"),
        ("harness.run_sweep", "total_s"), ("harness.random_initial_data", "total_s"),
        ("harness.audit_cancellations", "total_s"), ("cli.main.limit", "total_s"),
        ("cli.main.resonances", "total_s"), ("cli.main.audit", "total_s"),
        ("cli.main.norms", "total_s"),
    ):
        v[f"{path}.{stat}"] = span(path)[stat]
    for cls, short in (("FilteredStepper", "filtered"), ("LimitStepper", "limit")):
        s = span(f"solvers.{cls}.step")
        v[f"solvers.{cls}.step.calls"] = s["calls"]
        v[f"solvers.{cls}.step.self_s"] = s["self_s"]
        v[f"solvers.{cls}.step.p50_ms"] = ms(f"solvers.{cls}.step", 50)
        v[f"solvers.{cls}.step.p99_ms"] = ms(f"solvers.{cls}.step", 99)
        v[f"solvers.{short}_steps_per_s"] = ratio(s["calls"], s["total_s"])
    for key in ("fields.fft.transforms", "fields.fft.points", "fields.fft.bytes_computed"):
        v[key] = counts[key]
    v["forms.tables.build_s"] = span("forms.tables.build")["total_s"]
    v["forms.tables.rows"] = tables["rows"]
    v["forms.tables.under_rows"] = tables["under_rows"]
    for c, n in tables["classes"].items():
        v[f"forms.tables.rows.{c}"] = n
    v["forms.confirm.calls"] = counts["forms.confirm.calls"]
    v["forms.confirm.hits"] = counts["forms.confirm.hits"]
    v["forms.confirm.yield"] = ratio(counts["forms.confirm.hits"], counts["forms.confirm.calls"])
    v["resonance.kstar.triads"] = counts["resonance.kstar.triads"]
    v["resonance.screen_yield"] = ratio(counts["resonance.screen.hits"], counts["resonance.screen.calls"])
    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, a in agg.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += a["self_s"]
    for layer, s in layer_self.items():
        v[f"{layer}.self_s"] = s
    v["trace.wall_s"] = wall
    v["trace.unattributed_s"] = wall - sum(layer_self.values())
    v["trace.spans"] = len(tracer.spans)
    missing = [n for n, _ in PER_LAYER if n not in v]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return {n: v[n] for n, _ in PER_LAYER}


def environment() -> dict:
    import scipy
    import scipy.fft

    blas = None
    try:
        cfg = np.show_config(mode="dicts")
        dep = cfg.get("Build Dependencies", {}).get("blas", {})
        blas = {k: dep.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, AttributeError):
        pass
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    threads = {
        k: os.environ.get(k)
        for k in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
        )
    }
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas": blas,
        "thread_env": threads,
        "numpy_fft": "pocketfft, single-threaded",
        "scipy_fft_workers": scipy.fft.get_workers(),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--size", choices=("standard", "smoke"), default="standard")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    ap.add_argument("--run-id", default="0")
    args = ap.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    tracer = tracing.Tracer(args.run_id) if args.trace else None
    if tracer is not None:
        tracer.install_fft_counters()
    import frspec  # noqa: F401  (import cost is not part of wall_s)

    for layer in tracing.LAYERS:
        __import__(f"frspec.{layer}")
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    try:
        if tracer is not None:
            tracer.install()
            recorder = tracer
        else:
            recorder = tracing.SetupTimer()
            recorder.install()
    except tracing.MissingEntryPoint as exc:
        print(f"perfbench: missing frspec entry point {exc}", file=sys.stderr)
        return EXIT_ENTRY_POINT

    args.out.mkdir(parents=True, exist_ok=True)
    ctx = workloads.Context(args.size, args.seed, args.out)
    wl.prepare(ctx)

    clock = speedclock.SpeedClock() if tracer is None else None
    if clock is not None:
        clock.start()
    t0 = tracing.perf()
    outcome = wl.run(ctx)
    t1 = tracing.perf()
    wall = t1 - t0
    if clock is not None:
        clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False

    ops = wl.check(ctx, outcome, recorder.engines)
    if recorder.engines:
        tables = workloads.table_counts(recorder.engines[0])
    else:
        tables = {"rows": 0, "under_rows": 0, "classes": dict.fromkeys(workloads.SIGN_CLASSES, 0)}
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "data_seeds": ctx.data_seeds,
        "trace": args.trace,
        "wall_s": wall,
        "ops": [{"name": o.name, "error": o.error, "detail": o.detail} for o in ops],
        "env": environment(),
    }
    if tracer is None:
        # end-to-end times in reference seconds (speedclock.py), raw beside them
        result["wall_s"] = clock.seconds([(t0, t1)])
        result["setup_s"] = clock.seconds(recorder.intervals)
        result["solve_s"] = result["wall_s"] - result["setup_s"]
        result["raw_wall_s"] = clock.seconds([(t0, t1)], raw=True)
        result["raw_setup_s"] = clock.seconds(recorder.intervals, raw=True)
        result["raw_solve_s"] = result["raw_wall_s"] - result["raw_setup_s"]
        result["speed_samples"] = len(clock.samples)
        result["peak_rss_mb"] = peak_rss_mb
        never = [p for p in workloads.SETUP_EXPECTED[args.workload] if not recorder.calls[p]]
    else:
        metrics = per_layer_metrics(tracer, wall, tables)
        result["per_layer"] = metrics
        result["per_layer_units"] = dict(PER_LAYER)
        seen = {name for name in tracer.aggregate()} | {k for k, n in tracer.counts.items() if n}
        skip = set(wl.screen_calls) if args.size == "smoke" else set()
        never = [n for n in wl.traced_calls if n not in seen and n not in skip]
        tracer.write_spans(args.out / "spans.jsonl")
    if never:
        print(
            f"perfbench: workload {args.workload} never called frspec entry point(s) {never}",
            file=sys.stderr,
        )
        return EXIT_ENTRY_POINT
    (args.out / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
