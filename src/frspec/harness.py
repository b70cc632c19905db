"""Experiment orchestration: configuration, reproducible data, sweeps, audits.

The configuration is a flat key = value text file ('#' comments).  All
randomness flows through numpy's default_rng seeded from the config, and
every reduction is evaluated in a fixed order, so a (config, seed) pair
reproduces its reports byte for byte.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from pathlib import Path

import numpy as np
from numpy.random import default_rng

from .fields import SpectralField4, l2_norm, leray_project, sobolev_norm, transport
from .forms import FormEngine, project_tilde
from .geometry import TorusGeometry
from .solvers import (
    EnergyLedger,
    FilteredStepper,
    LimitTrajectory,
    NumericalError,
    SimState,
    _is_multiple,
    solve_limit,
)
from .waves import (
    EigenBasis,
    _full_rows,
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

    def geometry(self) -> TorusGeometry:
        return TorusGeometry(self.a_sq, self.N)

    def validate(self) -> "SimConfig":
        if not isinstance(self.N, numbers.Integral):  # as TorusGeometry takes it
            raise ConfigError(f"N must be an integer, not {self.N!r}")
        if self.N < 1:
            raise ConfigError("N must be >= 1")
        if any(x <= 0 for x in self.a_sq):
            raise ConfigError("squared periods must be positive rationals")
        if not 0 <= self.nu < math.inf:  # NaN included
            raise ConfigError("nu must be finite and nonnegative")
        if not math.isfinite(self.s):
            raise ConfigError("s must be finite")
        for name in ("T", "dt", "dt_limit", "amplitude"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and positive")
        if not self.eps_list:
            raise ConfigError("eps must list at least one epsilon")
        if not all(e > 0 for e in self.eps_list):  # NaN included
            raise ConfigError("epsilon values must be positive (or inf)")
        if not 0 < self.snapshot_dt <= self.T:
            raise ConfigError("snapshot_dt must satisfy 0 < snapshot_dt <= T")
        for name, dt in (("dt", self.dt), ("dt_limit", self.dt_limit)):
            if not _is_multiple(self.snapshot_dt, dt):
                raise ConfigError(f"snapshot_dt must be a multiple of {name}")
        # the last snapshot lands on T, so no step runs past the horizon
        if not _is_multiple(self.T, self.snapshot_dt):
            raise ConfigError("T must be a multiple of snapshot_dt")
        if not 0 <= self.spectrum_r < math.inf:
            raise ConfigError("spectrum_r must be finite and nonnegative")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ConfigError("seed must be a nonnegative integer")
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
            else:
                raise ConfigError(f"unknown configuration key {k!r}")
        a_sq = tuple(
            frac(kv.get(f"a{i}_sq", "1")) for i in (1, 2, 3)
        )
        cfg = replace(cfg, a_sq=a_sq, **known)
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
    configured spectral slope; returns (field, part-norm report).

    Raises ConfigError when the field's energy is zero or subnormal (the
    slope or the amplitude underflows it): no relative energy drift, and
    no other ratio to the data, can be read off such a field."""
    g = config.geometry()
    L, N = g.L, g.N
    rng = default_rng(config.seed)
    raw = rng.standard_normal((L, L, L, 4)) + 1j * rng.standard_normal((L, L, L, 4))
    raw *= ((1.0 + g.check_sq) ** (-config.spectrum_r / 2.0))[..., None]
    # the real part of the draw: (V_hat(n) + conj V_hat(-n)) / 2 on n3 >= 0
    f = SpectralField4(g, 0.5 * (raw[:, :, N:] + np.conj(raw[::-1, ::-1, N::-1])))
    f.pin_zero_mode()
    f = leray_project(f)
    nrm = l2_norm(f)
    if nrm > 0:
        f = (config.amplitude / nrm) * f
    total = l2_norm(f)
    if not 0.5 * total**2 >= np.finfo(float).tiny:
        raise ConfigError(
            f"initial data have zero energy in floating point (spectrum_r = {config.spectrum_r:g}, "
            f"amplitude = {config.amplitude:g})"
        )
    dec = decompose(f)
    report = {
        "norm_total": total,
        "norm_underline": l2_norm(dec.underline),
        "norm_bar": l2_norm(dec.bar),
        "norm_osc": l2_norm(dec.osc),
    }
    return f, report


# -- the epsilon sweep ------------------------------------------------------------------

SWEEP_HEADER = ("epsilon", "t", "err_Hs2", "energy_drift", "remainder_L2")


def _limit_self_residuals(
    engine: FormEngine, traj: LimitTrajectory
) -> list[tuple[float, float]]:
    """(t, centered-difference S0 residual) at each interior snapshot.
    Each snapshot is assembled once and kept while the window of three
    (previous, middle, next) passes it."""
    out = []
    prev, mid = traj.total(0), traj.total(1)
    for i in range(1, len(traj.times) - 1):
        nxt = traj.total(i + 1)
        dU = (1.0 / (traj.times[i + 1] - traj.times[i - 1])) * (nxt - prev)
        rhs = engine.q_limit(mid) - engine.a2_limit(mid)
        out.append((traj.times[i], l2_norm(dU + rhs)))
        prev, mid = mid, nxt
    return out


def run_sweep(config: SimConfig, progress=None) -> RunReport:
    """Solve the limit system once, then the filtered system per epsilon.

    Emits one row per (epsilon, snapshot time) with the error against the
    reconstructed limit in the H^{s-2} Sobolev norm (the `err_Hs2`
    column), the energy-law drift so far, and the magnitude of the
    oscillating remainder.

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
        for t, res in _limit_self_residuals(engine, traj):
            rows.append((math.inf, t, res, 0.0, 0.0))
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
                    # L(t/eps) is the identity on the underline and e_0 parts
                    approx = apply_filter(state.t / eps, traj.total(isnap))
                    err = sobolev_norm(config.s - 2.0, state.V - approx)
                    rem = l2_norm(engine.remainders(state.t, eps, state.V))
                    rows.append((eps, state.t, err, ledger.drift(state.V), rem))
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
    c = _full_rows(coefficients(field))  # the half modes of either sign of n3
    i3 = n3 // 2 + g.N
    if not (0 <= i3 < g.L):
        raise ValueError("half mode outside the truncation")
    nc3 = float(n3) / g.a[2]

    def comp(sign_a, sign_b):
        # sum over m_h of nc3 * U^{a,3}(-m_h, n3/2) * U^{b,(h|4)}(m_h, n3/2)
        ca = c[sign_a][::-1, ::-1, :][:, :, i3]  # at (-m_h, n3/2)
        ea = basis.evec[sign_a][::-1, ::-1, :, :][:, :, i3]
        cb = c[sign_b][:, :, i3]
        eb = basis.evec[sign_b][:, :, i3]
        u_a3 = ca * ea[..., 2]
        B = np.zeros(2, dtype=np.complex128)
        for h in (0, 1):
            B[h] = np.sum(nc3 * u_a3 * cb * eb[..., h])
        C = np.sum(nc3 * u_a3 * cb * eb[..., 3])
        return B, C

    Bpm, Cpm = comp(1, -1)
    Bmp, Cmp = comp(-1, 1)
    return {"B+-": Bpm, "B-+": Bmp, "C+-": Cpm, "C-+": Cmp}


def _lattice_norm(rows: np.ndarray) -> float:
    """Lattice l2 norm of rows (..., N + 1) of a real field, as the fields'
    norms sum it: the plane n3 = 0 once, every plane n3 > 0 twice."""
    sq = np.abs(rows) ** 2
    return float(np.sqrt(np.sum(sq[..., 0]) + 2.0 * np.sum(sq[..., 1:])))


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
    the wave vectors, whatever nu is) is reported informationally, from
    the symbols at unit viscosity.
    """
    g = config.geometry()
    engine = FormEngine(g, config.nu)
    results: list[AuditResult] = []
    info: dict = {}

    worst_qu = 0.0
    worst_t1osc = 0.0
    worst_e0 = 0.0
    worst_bc = 0.0
    for k in range(n_seeds):
        cfg_k = replace(config, seed=config.seed + k)
        V, _ = random_initial_data(cfg_k)
        til_norm = l2_norm(project_tilde(V))
        C = coefficients(V)  # the coefficients of V are those of its tilde part

        qu = engine.q_underline(C)
        worst_qu = max(worst_qu, l2_norm(qu) / max(til_norm**2, 1e-300))

        dec = decompose(V)
        waves = _lattice_norm(engine.q_tilde1(coefficients(dec.bar))[1:])  # rows e_+, e_-
        worst_t1osc = max(worst_t1osc, waves / max(l2_norm(dec.bar) ** 2, 1e-300))

        # e0 row of Qt1 (the horizontal 2.5D advection) vs the
        # full-stencil symmetric transport oracle
        got = engine.q_tilde1(C)[0]
        want = coefficients(transport(dec.bar, dec.bar))[0]
        worst_e0 = max(worst_e0, _lattice_norm(got - want) / max(_lattice_norm(want), 1e-300))

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
    V, _ = random_initial_data(config)
    co = coefficients(V)
    osc = field_from_coefficients(g, {1: co[1], -1: co[-1]})
    a2o = engine.a2_limit(osc)
    ksq = g.check_sq[..., g.N :]
    # |e_pm^vel|^2 summed from the eigenvectors themselves, not the exact
    # 1/2 that limit_symbol reads, so the check stays independent
    ep_vel = EigenBasis.of(g).ep[..., g.N :, :3]
    share = np.sum(np.abs(ep_vel) ** 2, axis=-1)
    lam = -config.nu * ksq * share
    want = field_from_coefficients(g, {1: lam * co[1], -1: lam * co[-1]})
    res = l2_norm(a2o - want) / max(l2_norm(want), 1e-300)
    results.append(AuditResult("a2_limit_osc_phase_free_diagonal", res, 1e-12))
    # the ratio is 1/2 from the wave vectors at any nu: read it off the
    # symbols at unit viscosity, so that nu = 0 leaves it defined, and as
    # undefined (nan) on data without waves
    lap = l2_norm(field_from_coefficients(g, {1: -ksq * co[1], -1: -ksq * co[-1]}))
    diag = l2_norm(field_from_coefficients(g, {1: -ksq * share * co[1], -1: -ksq * share * co[-1]}))
    info["a2_osc_vs_full_laplacian_ratio"] = diag / lap if lap > 0 else math.nan

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
