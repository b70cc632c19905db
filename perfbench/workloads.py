"""The benchmark's workloads: inputs, operations and output checks.

Each workload is a closed loop with one client: one repetition runs its
operations one after the other in a single fresh process.  An operation is
one (seed, eps) trajectory, one limit solve or one CLI command.  Operations
never raise: an exception or a non-zero exit code is recorded with its type
and message, and an output that fails its check is a failed operation too.

Why these three:
  sweep-n4   the default ``frspec sweep`` config through ``run_sweep`` for
             several data seeds.  The filtered stepper and the fields FFT
             kernel take about two thirds of the time; the resonance table
             is small (44,880 rows).
  limit-n8   ``frspec limit`` at N = 8 on a^2 = (1, 2, 3): no filtered
             stepper, the table build (449,472 rows) and its apply inside
             q_tilde1 dominate, and six radical sign classes take the exact
             confirmation path.
  atlas-n6   ``frspec resonances``, ``audit`` and ``norms`` at N = 6 on
             a^2 = (1, 2, 3): the standalone K* enumerator in resonance.py
             (1e-9 screen, not the 1e-11 screen of the table builder), the
             audit identities and dyadic, with no time stepping.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import re
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

# frspec entry points are looked up through their modules at call time, so
# the wrappers installed by tracing.py see every call.
from frspec import cli, harness
from frspec.harness import SimConfig
from frspec.resonance import ResonantTriad

REFERENCE = json.loads((Path(__file__).parent / "reference.json").read_text())

SIGN_CHAR = {-1: "m", 0: "0", 1: "p"}
SIGN_CLASSES = (
    "0pp", "0mm", "p0p", "m0m", "pm0", "mp0",
    "ppp", "ppm", "pmp", "pmm", "mpp", "mpm", "mmp", "mmm",
)

# criterion 6 of the acceptance suite
ENERGY_DRIFT_MAX = 1e-5
# Bony paraproduct identity, as stated in the audit of frspec norms
BONY_RESIDUAL_MAX = 1e-12


@dataclass
class Op:
    """One operation's outcome; `error` is None when it succeeded."""

    name: str
    error: str | None = None
    detail: str | None = None

    def fail(self, msg: str) -> None:
        if self.error is None:
            self.error = msg


@dataclass
class Context:
    size: str  # "standard" or "smoke"
    seed: int  # workload seed
    out: Path  # scratch directory of this repetition
    params: dict = field(default_factory=dict)
    data_seeds: list = field(default_factory=list)
    config_path: Path | None = None


def describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def data_seeds(seed: int, n: int) -> list[int]:
    """Data seeds derived from the workload seed (same seed, same inputs)."""
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n, dtype=np.uint32)]


def geometry_key(a_sq, N) -> str:
    return ",".join(str(x) for x in a_sq) + f"/N{N}"


def table_counts(engine) -> dict:
    """Rows of the engine's resonance tables, in total and per sign class."""
    tab, under = engine.tables
    classes = dict.fromkeys(SIGN_CLASSES, 0)
    if tab.rows:
        codes = (tab.ia.astype(np.int64) + 1) * 9 + (tab.ib + 1) * 3 + (tab.ic + 1)
        for code, n in zip(*np.unique(codes, return_counts=True)):
            a, b, c = code // 9 - 1, (code // 3) % 3 - 1, code % 3 - 1
            classes[SIGN_CHAR[a] + SIGN_CHAR[b] + SIGN_CHAR[c]] = int(n)
    return {"rows": int(tab.rows), "under_rows": int(len(under.kf)), "classes": classes}


def check_table_counts(engine, key: str) -> str | None:
    want = REFERENCE["geometry"][key]
    got = table_counts(engine)
    for k in ("rows", "under_rows", "classes"):
        if got[k] != want[k]:
            return f"table {k} {got[k]} != reference {want[k]} for {key}"
    return None


def run_cli(argv: list[str]) -> tuple[int | None, str, str | None]:
    """One CLI command in-process: (exit code, stdout, error)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the command line
        return (exc.code if isinstance(exc.code, int) else 2), out.getvalue(), err.getvalue()
    except Exception as exc:
        return None, out.getvalue(), describe(exc) + "\n" + traceback.format_exc()
    return rc, out.getvalue(), (err.getvalue() or None) if rc else None


def cli_op(name: str, rc, stderr) -> Op:
    op = Op(name)
    if rc is None:
        op.fail(stderr.splitlines()[0])
        op.detail = stderr
    elif rc != 0:
        op.fail(f"exit code {rc}: {(stderr or '').strip()[:300]}")
    return op


def _write_config(path: Path, params: dict, seed: int) -> Path:
    lines = [f"{k} = {v}" for k, v in params.items()] + [f"seed = {seed}"]
    path.write_text("\n".join(lines) + "\n")
    return path


# -- sweep-n4 ----------------------------------------------------------------------------


SWEEP = {
    # default `frspec sweep` config with a short horizon: one snapshot per eps
    "standard": {"N": 4, "T": 0.05, "seeds": 2},
    "smoke": {"N": 2, "T": 0.01, "snapshot_dt": 0.01, "seeds": 1},
}


def sweep_prepare(ctx: Context) -> None:
    p = SWEEP[ctx.size]
    ctx.params = p
    ctx.data_seeds = data_seeds(ctx.seed, p["seeds"])


def sweep_run(ctx: Context) -> list:
    """run_sweep per data seed; each builds its own FormEngine, as in the CLI."""
    p = ctx.params
    over = {k: v for k, v in p.items() if k != "seeds"}
    runs = []
    for s in ctx.data_seeds:
        cfg = replace(SimConfig(), seed=s, out_dir=str(ctx.out), **over).validate()
        try:
            report = harness.run_sweep(cfg)
            harness.write_csv(report, ctx.out / f"sweep_seed{s}.csv")
        except Exception as exc:  # NumericalError escapes run_sweep from the limit solve
            runs.append((s, cfg, None, describe(exc) + "\n" + traceback.format_exc()))
        else:
            runs.append((s, cfg, report, None))
    return runs


def sweep_check(ctx: Context, runs, engines) -> list[Op]:
    ops = []
    ref = REFERENCE["err_Hs2"].get(f"sweep-n4/{ctx.size}/seed{ctx.seed}")
    if len(engines) != len(runs):
        engines = [None] * len(runs)
    for (s, cfg, report, error), engine in zip(runs, engines):
        limit_op = Op(f"seed {s} limit solve")
        eps_ops = {eps: Op(f"seed {s} eps {eps:g}") for eps in cfg.eps_list}
        ops += [limit_op, *eps_ops.values()]
        if error is not None:
            for op in ops[-len(eps_ops) - 1:]:
                op.fail(error.splitlines()[0])
                op.detail = error
            continue
        failures = report.summary.get("failures", {})
        worst = []
        for eps, op in eps_ops.items():
            rows = [r for r in report.rows if r[0] == eps]
            key = f"{eps:.17g}"
            if key in failures:
                op.fail(f"NumericalError: {failures[key]}")
            errs = [r[2] for r in rows]
            if not errs or not all(math.isfinite(e) for e in errs):
                op.fail(f"err_Hs2 not finite: {errs}")
            drift = max((r[3] for r in rows), default=math.inf)
            if not drift <= ENERGY_DRIFT_MAX:
                op.fail(f"energy drift {drift:.3e} > {ENERGY_DRIFT_MAX:g}")
            if ref is not None:
                bad = check_close(errs, ref["values"][str(s)][key], ref["tolerance"])
                if bad:
                    op.fail(f"err_Hs2 differs from reference: {bad}")
            worst.append(max(errs, default=math.inf))
        # criterion 7: the error falls as eps falls
        order = sorted(range(len(cfg.eps_list)), key=lambda i: -cfg.eps_list[i])
        if not all(worst[i] > worst[j] for i, j in zip(order, order[1:])):
            limit_op.fail(f"error does not fall with eps: {worst}")
        if engine is None:
            limit_op.fail("expected one FormEngine per data seed")
        else:
            bad = check_table_counts(engine, geometry_key(cfg.a_sq, cfg.N))
            if bad:
                limit_op.fail(bad)
    return ops


def check_close(got: list, want: list, rel: float) -> str | None:
    if len(got) != len(want):
        return f"{len(got)} values, reference has {len(want)}"
    for g, w in zip(got, want):
        if not abs(g - w) <= rel * abs(w):
            return f"{g!r} vs {w!r} (rel tol {rel:g})"
    return None


# -- limit-n8 ----------------------------------------------------------------------------

LIMIT = {
    "standard": {"a1_sq": 1, "a2_sq": 2, "a3_sq": 3, "N": 8, "T": 0.02, "dt_limit": 0.005, "snapshot_dt": 0.005},
    "smoke": {"a1_sq": 1, "a2_sq": 2, "a3_sq": 3, "N": 2, "T": 0.015, "dt_limit": 0.005, "snapshot_dt": 0.005},
}


def limit_prepare(ctx: Context) -> None:
    ctx.params = LIMIT[ctx.size]
    ctx.data_seeds = data_seeds(ctx.seed, 1)
    ctx.config_path = _write_config(ctx.out / "limit.cfg", ctx.params, ctx.data_seeds[0])


def limit_run(ctx: Context):
    return run_cli(["--config", str(ctx.config_path), "--out", str(ctx.out), "limit"])


def limit_check(ctx: Context, result, engines) -> list[Op]:
    rc, stdout, stderr = result
    op = cli_op("limit", rc, stderr)
    if op.error is None:
        with open(ctx.out / "limit.csv") as fh:
            res = [float(r["err_Hs2"]) for r in csv.DictReader(fh)]
        if not res or not all(math.isfinite(x) for x in res):
            op.fail(f"self-residual not finite: {res}")
        p = ctx.params
        key = geometry_key((p["a1_sq"], p["a2_sq"], p["a3_sq"]), p["N"])
        if len(engines) != 1:
            op.fail(f"expected one FormEngine, saw {len(engines)}")
        else:
            bad = check_table_counts(engines[0], key)
            if bad:
                op.fail(bad)
    return [op]


# -- atlas-n6 ----------------------------------------------------------------------------

ATLAS = {
    "standard": {"a1_sq": 1, "a2_sq": 2, "a3_sq": 3, "N": 6},
    "smoke": {"a1_sq": 1, "a2_sq": 2, "a3_sq": 3, "N": 2},
}
ATLAS_COMMANDS = ("resonances", "audit", "norms")


def atlas_prepare(ctx: Context) -> None:
    ctx.params = ATLAS[ctx.size]
    ctx.data_seeds = data_seeds(ctx.seed, 1)
    ctx.config_path = _write_config(ctx.out / "atlas.cfg", ctx.params, ctx.data_seeds[0])


def atlas_run(ctx: Context):
    base = ["--config", str(ctx.config_path), "--out", str(ctx.out)]
    return {cmd: run_cli(base + [cmd]) for cmd in ATLAS_COMMANDS}


def kstar_problems(csv_path: Path, geometry, expected: int) -> str | None:
    """Check the K* listing written by `frspec resonances`."""
    with open(csv_path) as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != expected:
        return f"{len(rows)} resonant triads, reference {expected}"
    seen = set()
    for r in rows:
        k, m, n = (tuple(int(r[f"{v}{i}"]) for i in (1, 2, 3)) for v in "kmn")
        a, b, c = (1 if r[s] == "+" else -1 for s in "abc")
        rads = tuple(geometry.omega_sq_exact(v) for v in (k, m, n))
        if not ResonantTriad(k, m, n, a, b, c, rads).verify(geometry):
            return f"triad {k} {m} {n} ({a},{b},{c}) fails verify()"
        seen.add((k, m, n, a, b, c))
    if len(seen) != len(rows):
        return "duplicate triads"
    return None


def atlas_check(ctx: Context, results, engines) -> list[Op]:
    p = ctx.params
    key = geometry_key((p["a1_sq"], p["a2_sq"], p["a3_sq"]), p["N"])
    ops = []
    for cmd in ATLAS_COMMANDS:
        rc, stdout, stderr = results[cmd]
        op = cli_op(cmd, rc, stderr)
        ops.append(op)
        if op.error is not None:
            continue
        if cmd == "resonances":
            geometry = SimConfig.from_file(ctx.config_path).geometry()
            bad = kstar_problems(ctx.out / "resonances.csv", geometry, REFERENCE["geometry"][key]["kstar"])
        elif cmd == "audit":
            with open(ctx.out / "audit.csv") as fh:
                status = [r["status"] for r in csv.DictReader(fh)]
            bad = None if status and all(s == "pass" for s in status) else f"audit status {status}"
            if bad is None:
                bad = check_table_counts(engines[0], key) if len(engines) == 1 else f"{len(engines)} FormEngines"
        else:
            m = re.search(r"bony residual (\S+)", stdout)
            bony = float(m.group(1)) if m else math.inf
            bad = None if bony <= BONY_RESIDUAL_MAX else f"bony residual {bony} > {BONY_RESIDUAL_MAX:g}"
        if bad:
            op.fail(bad)
    return ops


@dataclass(frozen=True)
class Workload:
    prepare: object
    run: object
    check: object
    # entry points a traced repetition must reach (span names or counters)
    traced_calls: tuple
    # of those, the ones whose call depends on the float screen finding
    # candidates, which the tiny smoke geometries do not have
    screen_calls: tuple = ()


WORKLOADS = {
    "sweep-n4": Workload(
        sweep_prepare, sweep_run, sweep_check,
        traced_calls=(
            "harness.run_sweep", "harness.random_initial_data", "harness.write_csv",
            "solvers.FilteredStepper.init", "solvers.FilteredStepper.step",
            "solvers.LimitStepper.init", "solvers.LimitStepper.step", "solvers.solve_limit",
            "fields.convolve_quadratic.full", "fields.convolve_quadratic.horizontal",
            "fields.transport", "fields.leray_project", "fields.to_physical", "fields.sobolev_norm",
            "waves.coefficients", "waves.field_from_coefficients", "waves.apply_filter", "waves.decompose",
            "forms.FormEngine.init", "forms.tables.build", "forms.q_tilde1", "forms.q_tilde2",
            "forms.q_underline", "forms.b_form", "forms.a2_limit", "forms.q_eps", "forms.remainders",
        ),
    ),
    "limit-n8": Workload(
        limit_prepare, limit_run, limit_check,
        traced_calls=(
            "cli.main.limit", "harness.run_sweep", "harness.random_initial_data",
            "solvers.LimitStepper.step", "solvers.solve_limit",
            "fields.convolve_quadratic.horizontal", "waves.coefficients", "waves.decompose",
            "forms.FormEngine.init", "forms.tables.build", "forms.q_tilde1", "forms.q_limit",
            "forms.q_tilde2", "forms.q_underline", "forms.b_form", "forms.a2_limit",
            "forms.confirm.calls", "geometry.omega_sq_exact", "resonance.exact_sqrt_sum_is_zero",
        ),
        screen_calls=("forms.confirm.calls", "geometry.omega_sq_exact", "resonance.exact_sqrt_sum_is_zero"),
    ),
    "atlas-n6": Workload(
        atlas_prepare, atlas_run, atlas_check,
        traced_calls=(
            "cli.main.resonances", "cli.main.audit", "cli.main.norms",
            "resonance.enumerate_kstar", "resonance.screen.calls", "resonance.exact_sqrt_sum_is_zero",
            "geometry.omega_sq_exact", "harness.audit_cancellations", "harness.random_initial_data",
            "forms.FormEngine.init", "forms.tables.build", "forms.q_underline", "forms.q_tilde1",
            "dyadic.bony_split", "dyadic.dyadic_block", "dyadic.bernstein_ratio",
        ),
        screen_calls=("resonance.screen.calls", "resonance.exact_sqrt_sum_is_zero", "geometry.omega_sq_exact"),
    ),
}

# set-up entry points each workload must reach in an untraced repetition
SETUP_EXPECTED = {
    "sweep-n4": (
        "frspec.harness:random_initial_data", "frspec.forms:FormEngine.__init__",
        "frspec.forms:FormEngine.tables", "frspec.solvers:FilteredStepper.__init__",
        "frspec.solvers:LimitStepper.__init__",
    ),
    "limit-n8": (
        "frspec.harness:random_initial_data", "frspec.forms:FormEngine.__init__",
        "frspec.forms:FormEngine.tables", "frspec.solvers:LimitStepper.__init__",
    ),
    "atlas-n6": (
        "frspec.harness:random_initial_data", "frspec.forms:FormEngine.__init__",
        "frspec.forms:FormEngine.tables",
    ),
}
