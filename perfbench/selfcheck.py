"""Self-check of the benchmark (about half a minute).

    python3 perfbench/selfcheck.py

1. BENCHMARK.json has the shape the benchmark contract asks for.
2. Every workload runs at N = 2 with one repetition, untraced and traced;
   the last output line has exactly the keys correct, attempted, failed and
   metrics, and every metric BENCHMARK.json names is present with its unit.
3. The output checks catch perturbed results: one err_Hs2 scaled by
   1 + 1e-6, one K* triad dropped, one triad with a wrong sign.
4. A wrapped entry point that does not exist fails loudly.
Exit code 0 when all hold.
"""

from __future__ import annotations

import csv
import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

failures: list[str] = []


def expect(cond: bool, msg: str) -> None:
    print(("ok   " if cond else "FAIL ") + msg)
    if not cond:
        failures.append(msg)


def check_spec() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect(
        set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"},
        "BENCHMARK.json keys",
    )
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names) and len(set(names)) == len(names), "names valid and unique")
    expect(all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"]), "units valid")
    expect(all(0 < m["bound"] <= 0.25 for m in spec["end_to_end"]), "bounds in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    expect(
        len(setup) == 1 and setup[0]["unit"] == "s" and setup[0]["bound"] == max(m["bound"] for m in spec["end_to_end"]),
        "setup_s present with the largest bound",
    )
    expect(2 <= len(spec["workloads"]) <= 8 and all(len(w["why"]) <= 200 for w in spec["workloads"]), "workloads")
    expect(1 <= len(spec["per_layer"]) <= 128, "per-layer count")
    return spec


def check_runs(spec: dict) -> None:
    units = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for w in spec["workloads"]:
        for trace in (0, 1):
            label = f"{w['name']} trace={trace}"
            proc = subprocess.run(
                [*spec["command"], "--workload", w["name"], "--seed", "0", "--seconds", "1",
                 "--trace", str(trace), "--smoke"],
                cwd=ROOT, capture_output=True, text=True, timeout=170,
            )
            expect(proc.returncode == 0, f"{label} exits 0 {proc.stderr.strip()[-500:]}")
            if proc.returncode != 0:
                continue
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(out) == {"correct", "attempted", "failed", "metrics"}, f"{label} result keys")
            expect(out["correct"] is True and out["failed"] == 0, f"{label} correct, nothing failed")
            expect(isinstance(out["attempted"], int) and out["attempted"] >= 1, f"{label} attempted >= 1")
            got = {k: v["unit"] for k, v in out["metrics"].items()}
            expect(got == units[trace], f"{label} every named metric present with its unit")
            expect(
                all(isinstance(v["value"], (int, float)) for v in out["metrics"].values()),
                f"{label} metric values are numbers",
            )


def check_perturbations() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import tracing

    timer = tracing.SetupTimer()
    timer.install()
    import workloads

    out = ROOT / ".bench_build" / "perfbench" / "selfcheck"
    out.mkdir(parents=True, exist_ok=True)

    # err_Hs2 against a reference: exact copy passes, 1 + 1e-6 fails
    ctx = workloads.Context("smoke", 0, out)
    workloads.sweep_prepare(ctx)
    runs = workloads.sweep_run(ctx)
    s, cfg, report, error = runs[0]
    key = "sweep-n4/smoke/seed0"
    workloads.REFERENCE["err_Hs2"][key] = {
        "tolerance": 1e-9,
        "values": {str(s): {f"{e:.17g}": [r[2] for r in report.rows if r[0] == e] for e in cfg.eps_list}},
    }
    ops = workloads.sweep_check(ctx, runs, timer.engines)
    expect(error is None and all(op.error is None for op in ops), "sweep outputs pass their checks")
    report.rows[0] = (*report.rows[0][:2], report.rows[0][2] * (1 + 1e-6), *report.rows[0][3:])
    ops = workloads.sweep_check(ctx, runs, timer.engines)
    expect(any(op.error and "reference" in op.error for op in ops), "err_Hs2 scaled by 1 + 1e-6 fails")
    del workloads.REFERENCE["err_Hs2"][key]

    # K* listing: complete passes, one triad dropped fails, a wrong sign fails
    ctx = workloads.Context("standard", 0, out)
    workloads.atlas_prepare(ctx)
    rc, _, err = workloads.run_cli(["--config", str(ctx.config_path), "--out", str(out), "resonances"])
    geometry = workloads.SimConfig.from_file(ctx.config_path).geometry()
    expected = workloads.REFERENCE["geometry"]["1,2,3/N6"]["kstar"]
    path = out / "resonances.csv"
    expect(rc == 0 and workloads.kstar_problems(path, geometry, expected) is None, "K* listing passes")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    for label, bad_rows in (
        ("one K* triad dropped fails", rows[1:]),
        ("one K* triad with a flipped sign fails", [{**rows[0], "c": "-" if rows[0]["c"] == "+" else "+"}] + rows[1:]),
    ):
        bad = out / "resonances_perturbed.csv"
        with open(bad, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
            writer.writeheader()
            writer.writerows(bad_rows)
        expect(workloads.kstar_problems(bad, geometry, expected) is not None, label)

    try:
        tracing._install("frspec.fields:no_such_entry_point", lambda f: f)
        expect(False, "missing entry point raises")
    except tracing.MissingEntryPoint as exc:
        expect("no_such_entry_point" in str(exc), "missing entry point raises and names it")


def main() -> int:
    spec = check_spec()
    check_runs(spec)
    check_perturbations()
    print("selfcheck " + ("FAILED: " + "; ".join(failures) if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
