"""Experiment orchestration: configuration, reproducible data, sweeps, audits.

The configuration is a flat key = value text file ('#' comments).  All
randomness flows through numpy's default_rng seeded from the config, and
every reduction is evaluated in a fixed order, so a (config, seed) pair
reproduces its reports byte for byte.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .fields import SpectralField4, l2_norm, leray_project, sobolev_norm
from .forms import FormEngine, project_tilde
from .geometry import TorusGeometry
from .solvers import (
    EnergyLedger,
    FilteredStepper,
    LimitTrajectory,
    NumericalError,
    SimState,
    solve_limit,
)
from .waves import (
    EigenBasis,
    apply_filter,
    coefficients,
    decompose,
    field_from_coefficients,
)

__all__ = [
    "SimConfig",
    "ConfigError",
    "RunReport",
    "random_initial_data",
    "run_sweep",
    "audit_cancellations",
    "bc_sums",
    "write_csv",
    "format_float",
]


class ConfigError(ValueError):
    """Invalid or inconsistent configuration."""


@dataclass(frozen=True)
class SimConfig:
    a_sq: tuple = (Fraction(1), Fraction(1), Fraction(1))
    N: int = 4
    nu: float = 1.0
    eps_list: tuple = (1e-1, 1e-2, 1e-3)
    T: float = 1.0
    dt: float = 1e-3
    dt_limit: float = 5e-3
    snapshot_dt: float = 5e-2
    s: float = 5.0
    seed: int = 0
    spectrum_r: float = 3.0
    amplitude: float = 1.0
    out_dir: str = "out"
    constants: dict = field(
        default_factory=lambda: {
            "C": 1.0,
            "c": 1.0,
            "K": 1.0,
            "p": math.inf,
            "sigma": 1.0,
        }
    )

    def geometry(self) -> TorusGeometry:
        return TorusGeometry(self.a_sq, self.N)

    def validate(self) -> "SimConfig":
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if any(x <= 0 for x in self.a_sq):
            raise ConfigError("squared periods must be positive rationals")
        if self.nu < 0:
            raise ConfigError("nu must be nonnegative")
        if self.dt <= 0 or self.dt_limit <= 0 or self.T <= 0:
            raise ConfigError("T, dt, dt_limit must be positive")
        if any((e <= 0 and not math.isinf(e)) for e in self.eps_list):
            raise ConfigError("epsilon values must be positive (or inf)")
        if not 0 < self.snapshot_dt <= self.T:
            raise ConfigError("snapshot_dt must satisfy 0 < snapshot_dt <= T")
        for name, dt in (("dt", self.dt), ("dt_limit", self.dt_limit)):
            ratio = self.snapshot_dt / dt
            if abs(ratio - round(ratio)) > 1e-9:
                raise ConfigError(f"snapshot_dt must be a multiple of {name}")
        if self.spectrum_r < 0:
            raise ConfigError("spectrum_r must be nonnegative")
        return self

    @staticmethod
    def from_file(path) -> "SimConfig":
        text = Path(path).read_text()
        kv = {}
        for lineno, line in enumerate(text.splitlines(), 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            k, v = (part.strip() for part in line.split("=", 1))
            kv[k] = v
        return SimConfig.from_dict(kv)

    @staticmethod
    def from_dict(kv: dict) -> "SimConfig":
        def frac(v):
            try:
                return Fraction(v)
            except (ValueError, ZeroDivisionError) as e:
                raise ConfigError(f"not an exact rational: {v!r}") from e

        def flt(v):
            if str(v).strip().lower() in ("inf", "infinity"):
                return math.inf
            try:
                return float(v)
            except ValueError as e:
                raise ConfigError(f"not a number: {v!r}") from e

        cfg = SimConfig()
        known = {}
        consts = dict(cfg.constants)
        for k, v in kv.items():
            if k in ("a1_sq", "a2_sq", "a3_sq"):
                continue
            elif k == "N":
                known["N"] = int(v)
            elif k in ("nu", "T", "dt", "dt_limit", "snapshot_dt", "s", "spectrum_r", "amplitude"):
                known[k] = flt(v)
            elif k == "eps":
                known["eps_list"] = tuple(flt(x) for x in str(v).split(",") if x.strip())
            elif k == "seed":
                known["seed"] = int(v)
            elif k == "out_dir":
                known["out_dir"] = str(v)
            elif k.startswith("const_"):
                consts[k[len("const_"):]] = flt(v)
            else:
                raise ConfigError(f"unknown configuration key {k!r}")
        a_sq = tuple(
            frac(kv.get(f"a{i}_sq", "1")) for i in (1, 2, 3)
        )
        cfg = replace(cfg, a_sq=a_sq, constants=consts, **known)
        return cfg.validate()


@dataclass
class RunReport:
    header: tuple
    rows: list
    summary: dict
    timings: dict
    # last SimState of each finite eps that reached T, keyed like summary["errors"]
    final_states: dict = field(default_factory=dict)


def format_float(x: float) -> str:
    """17-significant-digit, locale-free decimal formatting."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(report_or_rows, path, header=None) -> None:
    if isinstance(report_or_rows, RunReport):
        rows, header = report_or_rows.rows, report_or_rows.header
    else:
        rows = report_or_rows
        if header is None:
            raise ValueError("header required when writing raw rows")
    lines = [",".join(str(h) for h in header)]
    for row in rows:
        lines.append(",".join(format_float(x) if not isinstance(x, str) else x for x in row))
    Path(path).write_text("\n".join(lines) + "\n")


# -- reproducible initial data --------------------------------------------------------


def random_initial_data(config: SimConfig):
    """Deterministic random zero-mean divergence-free field with the
    configured spectral slope; returns (field, part-norm report)."""
    g = config.geometry()
    L = g.L
    rng = np.random.default_rng(config.seed)
    raw = rng.standard_normal((L, L, L, 4)) + 1j * rng.standard_normal((L, L, L, 4))
    w = (1.0 + g.check_sq) ** (-config.spectrum_r / 2.0)
    f = SpectralField4(g, w[..., None] * raw)
    f.make_hermitian()
    f.pin_zero_mode()
    f = leray_project(f)
    nrm = l2_norm(f)
    if nrm > 0:
        f = (config.amplitude / nrm) * f
    dec = decompose(f)
    report = {
        "norm_total": l2_norm(f),
        "norm_underline": l2_norm(dec.underline),
        "norm_bar": l2_norm(dec.bar),
        "norm_osc": l2_norm(dec.osc),
    }
    return f, report


# -- the epsilon sweep ------------------------------------------------------------------

SWEEP_HEADER = ("epsilon", "t", "err_Hs2", "energy_drift", "remainder_L2")


def _limit_self_residual(
    engine: FormEngine, traj: LimitTrajectory, i: int
) -> float:
    """Centered-difference S0 residual at an interior snapshot."""
    if i == 0 or i == len(traj.times) - 1:
        return math.nan
    dt = traj.times[i + 1] - traj.times[i - 1]
    U_prev = traj.total(i - 1)
    U_next = traj.total(i + 1)
    U_mid = traj.total(i)
    dU = (1.0 / dt) * (U_next - U_prev)
    rhs = engine.q_limit(U_mid, U_mid) - engine.a2_limit(U_mid)
    return l2_norm(dU + rhs)


def run_sweep(config: SimConfig, progress=None) -> RunReport:
    """Solve the limit system once, then the filtered system per epsilon.

    Emits one row per (epsilon, snapshot time) with the max-norm error
    against the reconstructed limit, the energy-law drift so far, and the
    magnitude of the oscillating remainders.

    A `NumericalError` is recorded, never raised: ``summary["errors"]``
    holds inf and ``summary["failures"]`` the message under the epsilon's
    ``format_float`` key ("inf" for eps = inf).  A failed limit solve
    leaves nothing to compare against, so it is recorded as
    "limit solve: <message>" for every epsilon and no rows are emitted.
    The last state of each finite epsilon that reaches T is kept in
    ``final_states`` under the same key.
    """
    timings = {}
    final_states = {}
    g = config.geometry()
    engine = FormEngine(g, config.nu)
    V0, data_report = random_initial_data(config)

    t0 = time.perf_counter()
    tab, qu = engine.tables
    timings["tables"] = time.perf_counter() - t0

    t0 = time.perf_counter()
    snap_stride_limit = int(round(config.snapshot_dt / config.dt_limit))
    limit_failure = None
    try:
        traj = solve_limit(
            engine, V0, config.T, config.dt_limit, snapshot_every=snap_stride_limit
        )
    except NumericalError as exc:
        limit_failure = f"limit solve: {exc}"
    timings["limit_solve"] = time.perf_counter() - t0

    rows = []
    summary = {
        "data": data_report,
        "errors": {},
        "resonance_counts": {
            "tilde_rows": tab.rows,
            "underline_rows": len(qu.kf),
            "sign_classes": tab.class_rows(),
        },
    }
    if limit_failure is not None:
        for eps in config.eps_list:
            summary["errors"][format_float(eps)] = math.inf
            summary.setdefault("failures", {})[format_float(eps)] = limit_failure
        return RunReport(SWEEP_HEADER, rows, summary, timings)
    finite_eps = [e for e in config.eps_list if not math.isinf(e)]
    if any(math.isinf(e) for e in config.eps_list):
        for i in range(1, len(traj.times) - 1):
            res = _limit_self_residual(engine, traj, i)
            rows.append((math.inf, traj.times[i], res, 0.0, 0.0))
        summary["errors"]["inf"] = max(
            (r[2] for r in rows if not math.isnan(r[2])), default=0.0
        )

    snap_stride = int(round(config.snapshot_dt / config.dt))
    nsteps = int(round(config.T / config.dt))
    for eps in finite_eps:
        t0 = time.perf_counter()
        try:
            stepper = FilteredStepper(engine, eps, config.dt)
            state = SimState(0.0, V0.copy(), config.nu, eps)
            ledger = EnergyLedger(0.5 * l2_norm(V0) ** 2)
            errs = []
            isnap = 1
            for i in range(nsteps):
                state = stepper.step(state, ledger, enforce_cfl=(i % snap_stride == 0))
                if (i + 1) % snap_stride == 0:
                    V_eps = state.physical_V()
                    approx = (
                        traj.underline(state.t)
                        + traj.bars[isnap]
                        + apply_filter(state.t / eps, traj.oscs[isnap])
                    )
                    err = sobolev_norm(config.s - 2.0, V_eps - approx)
                    r1, r2, r3, srem = engine.remainders(state.t, eps, state.U)
                    rem = l2_norm(r1 + r2 + r3 + srem)
                    rows.append(
                        (eps, state.t, err, ledger.drift(V_eps), rem)
                    )
                    errs.append(err)
                    isnap += 1
            summary["errors"][format_float(eps)] = max(errs)
            final_states[format_float(eps)] = state
        except NumericalError as exc:
            summary["errors"][format_float(eps)] = math.inf
            summary.setdefault("failures", {})[format_float(eps)] = str(exc)
        timings[f"eps={eps}"] = time.perf_counter() - t0
        if progress:
            progress(f"eps={eps} done in {timings[f'eps={eps}']:.1f}s")
    return RunReport(SWEEP_HEADER, rows, summary, timings, final_states)


# -- cancellation audit --------------------------------------------------------------------


def bc_sums(field: SpectralField4, n3: int):
    """The horizontal-average interaction sums B and C at even vertical mode n3.

    Returns a dict with the four quantities B^{+,-}, B^{-,+} (2-vectors)
    and C^{+,-}, C^{-,+} (scalars) built from the e_pm components of the
    field at the half modes (m_h, n3/2) and (-m_h, n3/2).
    """
    if n3 % 2 != 0:
        raise ValueError("the interaction sums live on even vertical modes")
    g = field.geometry
    basis = EigenBasis.of(g)
    c = coefficients(field)
    i3 = n3 // 2 + g.N
    if not (0 <= i3 < g.L):
        raise ValueError("half mode outside the truncation")
    nc3 = float(n3) / g.a[2]

    def comp(sign_a, sign_b):
        # sum over m_h of nc3 * U^{a,3}(-m_h, n3/2) * U^{b,(h|4)}(m_h, n3/2)
        ca = c[sign_a][::-1, ::-1, :][:, :, i3]  # at (-m_h, n3/2)
        ea = (basis.ep if sign_a == 1 else basis.em)[::-1, ::-1, :, :][:, :, i3]
        cb = c[sign_b][:, :, i3]
        eb = (basis.ep if sign_b == 1 else basis.em)[:, :, i3]
        u_a3 = ca * ea[..., 2]
        B = np.zeros(2, dtype=np.complex128)
        for h in (0, 1):
            B[h] = np.sum(nc3 * u_a3 * cb * eb[..., h])
        C = np.sum(nc3 * u_a3 * cb * eb[..., 3])
        return B, C

    Bpm, Cpm = comp(1, -1)
    Bmp, Cmp = comp(-1, 1)
    return {"B+-": Bpm, "B-+": Bmp, "C+-": Cpm, "C-+": Cmp}


@dataclass
class AuditResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def audit_cancellations(config: SimConfig, n_seeds: int = 10) -> RunReport:
    """Evaluate the explicit limit-form identities on randomized inputs.

    Residuals above tolerance fail the audit.  The dissipation identity is
    audited against the exact phase-free diagonal; the ratio of the
    oscillating diagonal to the full Laplacian (1/2 by the structure of
    the wave vectors) is reported informationally.
    """
    g = config.geometry()
    engine = FormEngine(g, config.nu)
    basis = EigenBasis.of(g)
    results: list[AuditResult] = []
    info: dict = {}

    worst_qu = 0.0
    worst_t1osc = 0.0
    worst_e0 = 0.0
    worst_bc = 0.0
    for k in range(n_seeds):
        cfg_k = replace(config, seed=config.seed + k)
        V, _ = random_initial_data(cfg_k)
        til = project_tilde(V)
        til_norm = l2_norm(til)

        qu = engine.q_underline(til, til)
        worst_qu = max(worst_qu, l2_norm(qu) / til_norm**2)

        dec = decompose(V)
        t1bb = engine.q_tilde1(dec.bar, dec.bar)
        cb = coefficients(t1bb)
        osc_part = math.sqrt(
            float(np.sum(np.abs(cb[1]) ** 2 + np.abs(cb[-1]) ** 2))
        )
        worst_t1osc = max(worst_t1osc, osc_part / max(l2_norm(dec.bar) ** 2, 1e-300))

        # e0 projection of Qt1 vs the direct 2.5D advection oracle
        from .fields import convolve_quadratic

        t1 = engine.q_tilde1(til, til)
        c1 = coefficients(t1)
        got = field_from_coefficients(g, {0: c1[0]})
        adv = leray_project(
            convolve_quadratic(dec.bar, dec.bar, stencil="horizontal"),
            check_mean=False,
        )
        cadv = coefficients(adv)
        want = field_from_coefficients(g, {0: cadv[0]})
        worst_e0 = max(worst_e0, l2_norm(got - want) / max(l2_norm(want), 1e-300))

        # B / C antisymmetry on every even vertical mode
        for n3 in range(-g.N, g.N + 1):
            if n3 % 2 != 0:
                continue
            s = bc_sums(V, n3)
            scale = max(
                np.max(np.abs(s["B+-"])), np.max(np.abs(s["B-+"])),
                abs(s["C+-"]), abs(s["C-+"]), 1e-300,
            )
            resB = np.max(np.abs(s["B+-"] + s["B-+"])) / scale
            resC = abs(s["C+-"] + s["C-+"]) / scale
            worst_bc = max(worst_bc, resB, resC)

    results.append(AuditResult("q_underline_self_cancellation", worst_qu, 1e-12))
    results.append(AuditResult("q_tilde1_bar_bar_osc_projection", worst_t1osc, 1e-12))
    results.append(AuditResult("q_tilde1_e0_projection_transport", worst_e0, 1e-10))
    results.append(AuditResult("bc_pair_antisymmetry", worst_bc, 1e-10))

    # dissipation diagonal on the oscillating subspace
    cfg0 = replace(config, seed=config.seed)
    V, _ = random_initial_data(cfg0)
    co = coefficients(V)
    osc = field_from_coefficients(g, {1: co[1], -1: co[-1]})
    a2o = engine.a2_limit(osc)
    ksq = g.check_sq
    vshare = np.einsum(
        "xyzj,xyzj->xyz", basis.ep[..., :3], np.conj(basis.ep[..., :3])
    ).real
    want = field_from_coefficients(
        g,
        {
            1: -config.nu * ksq * vshare * co[1],
            -1: -config.nu * ksq * vshare * co[-1],
        },
    )
    res = l2_norm(a2o - want) / max(l2_norm(want), 1e-300)
    results.append(AuditResult("a2_limit_osc_phase_free_diagonal", res, 1e-12))
    full_lap = field_from_coefficients(
        g, {1: -config.nu * ksq * co[1], -1: -config.nu * ksq * co[-1]}
    )
    info["a2_osc_vs_full_laplacian_ratio"] = l2_norm(a2o) / l2_norm(full_lap)

    rows = [
        (r.name, r.residual, r.tolerance, "pass" if r.passed else "FAIL")
        for r in results
    ]
    ok = all(r.passed for r in results)
    return RunReport(
        ("identity", "residual", "tolerance", "status"),
        rows,
        {"passed": ok, "info": info},
        {},
    )
