"""Command-line frontend.

Subcommands: simulate (one epsilon), limit (the limit system only), sweep,
resonances, audit, norms.  Exit codes: 0 success, 2 configuration error,
3 numerical failure, 4 audit failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

from .fields import l2_norm
from .harness import (
    ConfigError,
    SimConfig,
    audit_cancellations,
    format_float,
    random_initial_data,
    run_sweep,
    write_csv,
)
from .resonance import enumerate_kstar
from .solvers import NumericalError, checkpoint_periods, write_checkpoint
from . import dyadic

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_AUDIT = 4


def _load_config(args) -> SimConfig:
    cfg = SimConfig.from_file(args.config) if args.config else SimConfig().validate()
    over = {}
    if args.seed is not None:
        over["seed"] = args.seed
    if args.out is not None:
        over["out_dir"] = args.out
    if args.epsilon:
        over["eps_list"] = tuple(args.epsilon)
    if over:
        cfg = replace(cfg, **over).validate()
    _check_outdir(Path(cfg.out_dir))
    return cfg


def _check_outdir(path: Path) -> None:
    """Raise OSError unless `path` is a directory or can be made one.

    Checked before any computation, so that an unusable --out is a
    configuration error; the directory itself is made when a command writes.
    """
    existing = path
    while not existing.exists() and existing != existing.parent:
        existing = existing.parent
    if not existing.is_dir():
        raise NotADirectoryError(f"output directory {path}: {existing} is not a directory")
    if not os.access(existing, os.W_OK | os.X_OK):
        raise PermissionError(f"output directory {path}: {existing} is not writable")


def _outdir(cfg: SimConfig) -> Path:
    p = Path(cfg.out_dir)
    p.mkdir(parents=True, exist_ok=True)
    return p


def _print_failures(report) -> bool:
    """Print each failure `run_sweep` recorded to stderr; True if any."""
    failures = report.summary.get("failures", {})
    for eps, msg in failures.items():
        print(f"  eps={eps}: FAILED: {msg}", file=sys.stderr)
    return bool(failures)


def cmd_sweep(cfg: SimConfig) -> int:
    report = run_sweep(cfg, progress=lambda msg: print(msg, file=sys.stderr))
    out = _outdir(cfg) / "sweep.csv"
    write_csv(report, out)
    print(f"wrote {out}")
    for eps, err in report.summary["errors"].items():
        print(f"  eps={eps}: max err {format_float(err)}")
    if _print_failures(report):
        return EXIT_NUMERICAL
    return EXIT_OK


def cmd_simulate(cfg: SimConfig) -> int:
    eps = cfg.eps_list[0]
    if math.isinf(eps):
        raise ConfigError("simulate requires a finite epsilon; use `frspec limit` for eps = inf")
    cfg_one = replace(cfg, eps_list=(eps,)).validate()
    try:
        checkpoint_periods(cfg_one.geometry())
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = run_sweep(cfg_one)
    out = _outdir(cfg) / f"simulate_eps{format_float(eps)}.csv"
    write_csv(report, out)
    if _print_failures(report):
        return EXIT_NUMERICAL
    ck = _outdir(cfg) / f"state_eps{format_float(eps)}.frsp"
    write_checkpoint(ck, report.final_states[format_float(eps)])
    print(f"wrote {out} and {ck}")
    return EXIT_OK


def cmd_limit(cfg: SimConfig) -> int:
    cfg_inf = replace(cfg, eps_list=(math.inf,)).validate()
    report = run_sweep(cfg_inf)
    out = _outdir(cfg) / "limit.csv"
    write_csv(report, out)
    if _print_failures(report):
        return EXIT_NUMERICAL
    print(f"wrote {out}; max self-residual {format_float(report.summary['errors']['inf'])}")
    return EXIT_OK


def cmd_resonances(cfg: SimConfig) -> int:
    triads = enumerate_kstar(cfg.geometry())
    rows = [
        (*t.k, *t.m, *t.n, "+" if t.a > 0 else "-", "+" if t.b > 0 else "-", "+" if t.c > 0 else "-")
        for t in triads
    ]
    out = _outdir(cfg) / "resonances.csv"
    write_csv(
        rows,
        out,
        header=("k1", "k2", "k3", "m1", "m2", "m3", "n1", "n2", "n3", "a", "b", "c"),
    )
    print(f"wrote {out} ({len(rows)} resonant triads)")
    return EXIT_OK


def cmd_audit(cfg: SimConfig) -> int:
    report = audit_cancellations(cfg)
    out = _outdir(cfg) / "audit.csv"
    write_csv(report, out)
    for name, res, tol, status in report.rows:
        print(f"  {status:4s}  {name}: residual {format_float(res)} (tol {format_float(tol)})")
    ratio = report.summary["info"]["a2_osc_vs_full_laplacian_ratio"]
    print(f"  note: oscillating dissipation diagonal / full Laplacian = {format_float(ratio)}")
    if not report.summary["passed"]:
        offending = [r[0] for r in report.rows if r[3] != "pass"]
        print(f"AUDIT FAILED: {', '.join(offending)}", file=sys.stderr)
        return EXIT_AUDIT
    print(f"wrote {out}; audit passed")
    return EXIT_OK


def cmd_norms(cfg: SimConfig) -> int:
    V, _ = random_initial_data(cfg)
    g = cfg.geometry()
    Q = dyadic.q_max(g)
    rows = []
    C, cq = dyadic.dyadic_coefficients(cfg.s, V)
    for qi, q in enumerate(range(-1, Q + 1)):
        blk = dyadic.dyadic_block(q, V)
        e = l2_norm(blk)
        if e > 1e-14:
            br = dyadic.bernstein_ratio(q, blk, k=1)
            rows.append(
                (q, e, cq[qi], br["derivative_ratio"], br["integrability_ratio"])
            )
        else:
            rows.append((q, e, cq[qi], 0.0, 0.0))
    t1, t2, r = dyadic.bony_split(V, V)
    direct = dyadic._pointwise_product(V, V)
    bony_res = l2_norm(t1 + t2 + r - direct) / max(l2_norm(direct), 1e-300)
    out = _outdir(cfg) / "norms.csv"
    write_csv(
        rows,
        out,
        header=("q", "block_l2", "c_q", "bernstein_k1", "bernstein_gain"),
    )
    print(f"wrote {out}; H^s equivalence constant {format_float(C)}; bony residual {format_float(bony_res)}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="frspec",
        description="Spectral toolkit for the low-Froude stratified fluid limit",
    )
    parser.add_argument("--config", type=str, default=None, help="config file (key = value)")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--out", type=str, default=None, help="output directory")
    parser.add_argument(
        "--epsilon",
        type=float,
        action="append",
        default=None,
        help="Froude number (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "limit", "sweep", "resonances", "audit", "norms"):
        sub.add_parser(name)
    args = parser.parse_args(argv)

    try:
        cfg = _load_config(args)
    except (ConfigError, OSError, ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    handlers = {
        "simulate": cmd_simulate,
        "limit": cmd_limit,
        "sweep": cmd_sweep,
        "resonances": cmd_resonances,
        "audit": cmd_audit,
        "norms": cmd_norms,
    }
    try:
        return handlers[args.command](cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
