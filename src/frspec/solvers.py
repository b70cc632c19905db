"""Time integration of the filtered system and of the explicit limit system.

The filtered unknown U(t) = L(-t/eps) V(t) satisfies a system whose only
eps-dependence sits in bounded oscillatory phases.  The stepper keeps the
physical frame V (`SimState.V`), where the complete linear part
L = A2 - (1/eps) P A is a constant 4x4 matrix per mode, and the
nonlinearity is advanced by a Lawson (exponential) RK4 scheme.  The
linear flow keeps the divergence-free fields, exp(s dt L) P =
P exp(s dt L) P with P the Leray projector (`fields.leray_symbol`), and
on the real frame of `waves.EigenBasis.frame` (e_0, then the wave pair
t, f_4) it splits into the decay of e_0 at nu |n|^2 and a damped
oscillator at omega/eps, damped on the velocity only.  So the stepper
builds the real stacks P, exp(dt L / 2) P and exp(dt L) P once, in
closed form from the frame, `omega` and the one A2 symbol
`FormEngine.a2_diag` (`_propagator`), and applies them by
`fields.apply_per_mode`.  This removes the 1/eps stiffness
entirely and keeps the discrete energy law accurate uniformly in eps:
over one step the homogeneous part satisfies

    1/2 |V|^2 - 1/2 |exp(dt L) V|^2 = nu * int |grad v|^2 dt

exactly (the buoyancy part is skew), so the dissipation ledger charges
the linear part by this polarization identity and only the O(dt)
nonlinear displacement is charged by quadrature; its backward propagator
exp(-dt L) P is the same closed form at s = -1.  Every operator of a
step acts per mode and keeps a field real, so the propagators hold the
L L (N + 1) stored modes n3 >= 0 of a field (the propagator at -n is the
one at n).  Every stage is the public `convolve_quadratic`, unprojected:
`lawson_rk4` projects what reaches a stage input or the new state, and a
step makes 6 per-mode passes (7 with the energy ledger).

The limit system is advanced with the same Lawson scheme but diagonal
heat factors: the horizontal average is a closed-form vertical heat flow,
the geostrophic-like part a 2.5D Navier-Stokes system, the wave part has
its phase-free dissipation (half Laplacian) and the resonance-restricted
transport.  The limit stepper keeps the eigen-coefficient stack C of
`waves.coefficients` (rows e_0, e_+, e_-, modes n3 >= 0), on which the
heat factors act row by row; the e_0 row of the transport needs no Leray
projection, since <P v, e_0> = <v, e_0> (P is self-adjoint per mode and
P e_0 = e_0).  Its nonlinearity is minus the tilde-output limit forms of
`forms`, q_tilde1(C) + q_tilde2(und, C), on the stack itself: the stepper
assembles no field in it and calls no `fields` kernel.

A checkpoint stores V on the full lattice: `write_checkpoint` mirrors the
stored modes onto n3 < 0, and `read_checkpoint` checks that a payload,
which comes from outside the program, is a real field before it keeps
the modes n3 >= 0.
"""

from __future__ import annotations

import math
import numbers
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .fields import (
    SpectralField4,
    apply_per_mode,
    convolve_quadratic,
    l2_norm,
    leray_symbol,
    sobolev_norm,
    to_physical,
)
from .forms import FormEngine
from .geometry import TorusGeometry
from .waves import (
    apply_filter,
    coefficients,
    decompose,
    field_from_coefficients,
    underline_part,
)

__all__ = [
    "SimState",
    "EnergyLedger",
    "EnergyBounds",
    "NumericalError",
    "CFLViolation",
    "cfl_bound",
    "lawson_rk4",
    "FilteredStepper",
    "solve_underline",
    "LimitStepper",
    "LimitTrajectory",
    "solve_limit",
    "energy_bounds",
    "blowup_monitor",
    "checkpoint_periods",
    "write_checkpoint",
    "read_checkpoint",
    "grad_linf",
]


class NumericalError(RuntimeError):
    """NaN/overflow encountered during time stepping."""


class CFLViolation(NumericalError):
    """Advective step bound dt <= 0.5 / (N max|u|) exceeded."""


@dataclass
class SimState:
    t: float
    V: SpectralField4  # physical frame; the filtered unknown is L(-t/eps) V
    nu: float
    eps: float

    @property
    def geometry(self) -> TorusGeometry:
        return self.V.geometry


@dataclass
class EnergyLedger:
    """Running discrete energy balance 1/2|V|^2 + nu int |grad v|^2."""

    e0: float
    dissipated: float = 0.0

    def drift(self, V: SpectralField4) -> float:
        e = 0.5 * l2_norm(V) ** 2
        return abs(e + self.dissipated - self.e0) / self.e0


def grad_linf(U: SpectralField4) -> float:
    """sup-norm of the full gradient tensor (via collocation sampling)."""
    g = U.geometry
    k1, k2, k3 = g.check_grid
    total = None
    for kk in (k1, k2, k3[..., g.N :]):
        block = SpectralField4(g, 1j * kk[..., None] * U.coeffs)
        sq = np.sum(to_physical(block).values ** 2, axis=-1)
        total = sq if total is None else total + sq
    return float(np.sqrt(np.max(total)))


def cfl_bound(V: SpectralField4) -> float:
    """Advective step bound 0.5 / (N max|u|) of the velocity of V, sampled
    on the padded grid (only the three velocity components are
    transformed).

    The bound reads max|u| on the 3N + 1 sample grid, and the peak of the
    trigonometric polynomial can lie between its points, so the bound may
    overstate the exact one by about 9% (the default data, seed 0: 0.0688
    against 0.0632 from a 64^3 grid).  The rigorous bound from the
    coefficient sum sum_n |u_hat(n)| is not used: it gives 0.011-0.014 on
    the unit-torus N = 4 data and 0.0035 on the (1, 2, 3), N = 8 limit
    data, which would reject that run's dt = 0.005."""
    phys = to_physical(V, ncomp=3)
    umax = float(np.max(np.sqrt(np.sum(phys.values**2, axis=-1))))
    if umax == 0.0:
        return math.inf
    return 0.5 / (V.geometry.N * umax)


def _require_cfl(dt: float, V: SpectralField4) -> None:
    bound = cfl_bound(V)
    if dt > bound:
        raise CFLViolation(f"dt={dt} exceeds the advective bound {bound:.3e}")


def lawson_rk4(x, rhs, prop, dt: float):
    """One Lawson (exponential) RK4 step of x' = L x + Pi rhs(x), where Pi
    projects onto a space that the linear flow keeps, exp(s dt L) Pi =
    Pi exp(s dt L) Pi.

    `prop(s, w)` applies exp(s dt L) Pi for s in (0, 1/2, 1), so
    `prop(0, .)` is Pi itself, to an array w or to a stack of arrays along a
    new leading axis.  `rhs(y, tau)` is the nonlinearity at the stage time
    offset tau in (0, dt/2, dt/2, dt); it need not lie in the space.  Every
    increment that a propagator carries is projected by it, so the scheme
    projects only ka, the one increment that reaches an rhs input without a
    propagator, and the new state; x itself must lie in the space.  The
    pairs (x, k1) at s = 1 and (x + dt/2 k1, x) at s = 1/2 each go through
    one stacked call.  Returns the new state and prop(1, x), which the
    energy ledger reuses.
    """
    k1 = rhs(x, 0.0)
    full_x, full_k1 = prop(1.0, np.stack((x, k1)))
    half_y, half_x = prop(0.5, np.stack((x + (0.5 * dt) * k1, x)))
    ka = rhs(half_y, 0.5 * dt)
    kb = rhs(half_x + (0.5 * dt) * prop(0.0, ka), 0.5 * dt)
    kc = rhs(full_x + dt * prop(0.5, kb), dt)
    x_new = prop(0.0, full_x + (dt / 6.0) * (full_k1 + 2.0 * prop(0.5, ka + kb) + kc))
    return x_new, full_x


def _require_geometry(g: TorusGeometry, field: SpectralField4, name: str) -> None:
    if field.geometry is not g and field.geometry != g:
        raise ValueError(f"{name} lives on another geometry than the engine")


def _is_multiple(x: float, unit: float) -> bool:
    """x / unit lies within 1e-9 of an integer >= 1 (at least one step)."""
    ratio = x / unit
    return math.isfinite(ratio) and round(ratio) >= 1 and abs(ratio - round(ratio)) <= 1e-9


def _step_size(dt: float) -> float:
    dt = float(dt)
    if not 0.0 < dt < math.inf:
        raise ValueError(f"dt must be positive and finite, got {dt}")
    return dt


def _propagator(frame, omega, a2, eps: float, h: float) -> np.ndarray:
    """exp(h L) P per mode in closed form, the real stack (..., 4, 4)
    F^T B F on the modes of the frames F (..., 3, 4) of
    `EigenBasis.frame`, their frequencies omega and the A2 symbol a2
    (`FormEngine.a2_diag`, -nu |ncheck|^2).

    In the frame L = diag(A2) - (1/eps) P A is block diagonal.  The row
    e_0 (f_1 on the vertical line) decays at a = nu |ncheck|^2.  On the
    rows (t, f_4) (f_2, f_3 on the vertical line, where omega = 0) L is
    the damped oscillator G = [[-a, w], [-w, 0]], w = omega / eps,
    damped on the velocity only; G + a/2 I squares to
    mu^2 I with mu^2 = a^2/4 - w^2, so exp(h G) = e^{-a h/2} [cosh(mu h) I
    + sinh(mu h)/mu (G + a/2 I)], with mu imaginary when the mode is
    underdamped and sinh(mu h)/mu = h at mu = 0.  At n = 0 the frame,
    and so the stack, is zero.
    """
    a = -a2
    w = omega / eps
    mu = np.sqrt((0.25 * a * a - w * w).astype(np.complex128))
    critical = mu == 0.0
    ch = np.cosh(mu * h).real
    sh = np.where(critical, h, np.sinh(mu * h) / np.where(critical, 1.0, mu)).real
    damp = np.exp(-0.5 * a * h)
    B = np.zeros(a.shape + (3, 3))
    B[..., 0, 0] = np.exp(-a * h)
    B[..., 1, 1] = damp * (ch - 0.5 * a * sh)
    B[..., 1, 2] = damp * w * sh
    B[..., 2, 1] = -B[..., 1, 2]
    B[..., 2, 2] = damp * (ch + 0.5 * a * sh)
    return np.swapaxes(frame, -1, -2) @ B @ frame


class FilteredStepper:
    """Lawson-RK4 integrator of the filtered system at fixed (nu, eps, dt)
    on the stored modes n3 >= 0.  Its propagators exp(s dt L) P, for
    s in (1/2, 1) and the ledger's s = -1, are the closed form of
    `_propagator` on the real frame, even in n, so the one at -n is the
    one at n; s = 0 is the Leray projector itself."""

    def __init__(self, engine: FormEngine, eps: float, dt: float):
        self.dt = _step_size(dt)
        self.eps = float(eps)
        if not self.eps > 0.0:
            raise ValueError(f"eps must be positive (inf for no penalization), got {self.eps}")
        self.engine = engine
        self.geometry = engine.geometry
        self.nu = engine.nu
        N = self.geometry.N
        frame = engine.basis.frame[:, :, N:].reshape(-1, 3, 4)
        omega = engine.basis.omega[:, :, N:].reshape(-1)
        a2 = engine.a2_diag.reshape(-1)
        # the propagators exp(s dt L) P of `lawson_rk4` and the ledger's
        # s = -1, keyed by the step fraction s; s = 0 is the projector P
        self._prop = {0.0: leray_symbol(self.geometry)}
        for s in (0.5, 1.0, -1.0):
            self._prop[s] = _propagator(frame, omega, a2, self.eps, s * self.dt)

    @staticmethod
    def _check(coeffs: np.ndarray):
        if not np.all(np.isfinite(coeffs)):
            raise NumericalError("non-finite coefficients in time step")

    def step(
        self,
        state: SimState,
        ledger: EnergyLedger | None = None,
        enforce_cfl: bool = True,
    ) -> SimState:
        if state.nu != self.nu or state.eps != self.eps:
            raise ValueError("state parameters do not match this stepper")
        _require_geometry(self.geometry, state.V, "the state")
        dt = self.dt
        V = state.V
        self._check(V.coeffs)
        if enforce_cfl:
            _require_cfl(dt, V)

        g = self.geometry

        def rhs(w, tau):  # autonomous: no stage times; projected by the scheme
            W = SpectralField4(g, w)
            return -convolve_quadratic(W, W).coeffs

        # the coefficient arrays are the state, and the projecting
        # propagators act on them (and on stacks of them) directly
        prop = self._prop
        v_new, Efv = lawson_rk4(V.coeffs, rhs, lambda s, w: apply_per_mode(prop[s], w), dt)
        self._check(v_new)
        V_new = SpectralField4(g, v_new)

        if ledger is not None:
            # exact linear dissipation by polarization, averaged over the
            # two endpoint placements of the nonlinear displacement: from V
            # to exp(dt L) V, and from exp(-dt L) V_new to V_new
            d0 = 0.5 * l2_norm(V) ** 2 - 0.5 * l2_norm(SpectralField4(g, Efv)) ** 2
            back = SpectralField4(g, apply_per_mode(prop[-1.0], v_new))
            d1 = 0.5 * l2_norm(back) ** 2 - 0.5 * l2_norm(V_new) ** 2
            ledger.dissipated += 0.5 * (d0 + d1)

        return SimState(state.t + dt, V_new, self.nu, self.eps)


# -- horizontal-average (underline) subsystem: exact heat flow -------------------


def solve_underline(U0: SpectralField4, nu: float, t: float) -> SpectralField4:
    """Exact solution of the underline limit system at time t.

    Components 1, 2 decay by exp(-nu |ncheck|^2 t) on the vertical line of
    `g.check_sq` (the array of the A2 symbol `FormEngine.a2_diag`),
    component 4 is constant in time; a nonzero third component is rejected.
    """
    g = U0.geometry
    line = U0.coeffs[g.N, g.N]
    if np.max(np.abs(line[:, 2])) > 1e-12 * max(1.0, float(np.max(np.abs(line)))):
        raise ValueError("underline data must have zero third component")
    out = underline_part(U0)
    f = np.exp(-nu * g.check_sq[g.N, g.N, g.N :] * t)
    out.coeffs[g.N, g.N, :, :2] *= f[:, None]
    return out


# -- limit system ------------------------------------------------------------------


def _field(g: TorusGeometry, C: np.ndarray) -> SpectralField4:
    return field_from_coefficients(g, {a: C[a] for a in (0, 1, -1)})  # sum_a C[a] e_a


@dataclass
class LimitState:
    t: float
    C: np.ndarray  # (3, L, L, N + 1) eigen-coefficient stack (n3 >= 0), rows e_0, e_+, e_-


@dataclass
class LimitTrajectory:
    geometry: TorusGeometry
    nu: float
    times: list[float]
    underline0: SpectralField4
    C: list[np.ndarray]  # the stack of each snapshot on n3 >= 0: row 0 bar, rows +-1 waves

    def underline(self, t: float) -> SpectralField4:
        return solve_underline(self.underline0, self.nu, t)

    def total(self, i: int) -> SpectralField4:
        return self.underline(self.times[i]) + _field(self.geometry, self.C[i])


class LimitStepper:
    """Joint Lawson-RK4 step of the (bar, osc) limit subsystems.

    The stepper integrates the eigen-coefficient stack C = coefficients(V)
    of `waves`: row 0 is the bar part, rows +-1 the waves, so each part
    stays in its span by construction.  The heat factors are exp(dt lam)
    of the phase-free dissipation symbol `FormEngine.limit_symbol`, the one
    `a2_limit` applies.  One-way coupling: the underline part is advanced
    exactly and fed to both at stage times; the bar part feeds the waves.
    """

    def __init__(self, engine: FormEngine, dt: float, und0: SpectralField4):
        self.engine = engine
        self.geometry = engine.geometry
        self.nu = engine.nu
        self.dt = _step_size(dt)
        _require_geometry(self.geometry, und0, "the underline data")
        self.und0 = underline_part(und0)
        lam = engine.limit_symbol
        # the heat factors of `lawson_rk4`, keyed by the step fraction s;
        # every stack stays in its span, so s = 0 is the identity
        self._heat = {0.5: np.exp((0.5 * self.dt) * lam), 1.0: np.exp(self.dt * lam)}

    def _rhs(self, C: np.ndarray, und: SpectralField4) -> np.ndarray:
        """The limit nonlinearity on the coefficient stack C: minus the
        tilde-output limit forms, q_tilde1(C) (bar x bar on row 0, the
        resonant wave forcing on rows +-1) plus q_tilde2(und, C) (the
        advection of the bar part and the coupling of the waves by the
        underline part)."""
        eng = self.engine
        return -(eng.q_tilde1(C) + eng.q_tilde2(und, C))

    def step(self, s: LimitState) -> LimitState:
        dt = self.dt
        # the underline state at the three distinct stage offsets, each
        # evaluated once; offset 0 also serves the CFL check
        und = {tau: solve_underline(self.und0, self.nu, s.t + tau) for tau in (0.0, 0.5 * dt, dt)}
        _require_cfl(dt, und[0.0] + _field(self.geometry, s.C))

        def rhs(C: np.ndarray, tau: float) -> np.ndarray:
            return self._rhs(C, und[tau])

        heat = self._heat
        C, _ = lawson_rk4(s.C, rhs, lambda frac, C: heat[frac] * C if frac else C, dt)
        if not np.all(np.isfinite(C)):
            raise NumericalError("non-finite coefficients in limit step")
        return LimitState(s.t + dt, C)


def solve_limit(
    engine: FormEngine,
    V0: SpectralField4,
    T: float,
    dt: float,
    snapshot_every: int = 1,
) -> LimitTrajectory:
    """Advance the decomposed limit system from V0 to time T, keeping every
    `snapshot_every`-th step and the last.  ValueError on a T that is not
    positive, finite and a whole number of steps (`_is_multiple`), a
    `snapshot_every` that is not an integer >= 1, or a V0 on another
    geometry than the engine's."""
    if not 0.0 < T < math.inf:  # NaN included
        raise ValueError(f"T must be positive and finite, got {T}")
    if not isinstance(snapshot_every, numbers.Integral) or snapshot_every < 1:
        raise ValueError(f"snapshot_every must be an integer >= 1, got {snapshot_every!r}")
    _require_geometry(engine.geometry, V0, "the initial data")
    dec = decompose(V0)  # also rejects data that is not divergence-free
    stepper = LimitStepper(engine, dt, dec.underline)  # rejects an invalid dt
    if not _is_multiple(T, stepper.dt):
        raise ValueError(f"T must be a whole number of steps dt = {stepper.dt}, got {T}")
    nsteps = int(round(T / stepper.dt))
    s = LimitState(0.0, coefficients(V0))
    times = [0.0]
    stacks = [s.C]
    # each step checks its result for non-finite values and raises
    # NumericalError, so numpy's overflow warnings on the way add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps):
            s = stepper.step(s)
            if (i + 1) % snapshot_every == 0 or i == nsteps - 1:
                times.append(s.t)
                stacks.append(s.C)
    return LimitTrajectory(engine.geometry, engine.nu, times, dec.underline, stacks)


# -- a priori energy-bound calculators ----------------------------------------------


@dataclass
class EnergyBounds:
    phi: float
    e1: float
    e2: float
    e3: float
    factors: dict


def _exp_cap(x: float) -> float:
    """exp with graceful overflow to inf (the nested bounds explode fast)."""
    return math.inf if x > 709.0 else math.exp(x)


def _vertical_slices(field: SpectralField4, M3: int = 64) -> np.ndarray:
    """Horizontal spectra as functions of x3: array (M3, L, L, 4)."""
    g = field.geometry
    c = np.moveaxis(_mirrored(field), 2, 0)  # (L, L, L, 4) -> (n3, n1, n2, 4)
    big = np.zeros((M3, g.L, g.L, 4), dtype=np.complex128)
    idx = (np.arange(g.L) - g.N) % M3
    big[idx] = c
    return np.fft.ifft(big, axis=0) * M3


def _mixed_norm(
    field: SpectralField4, p_vertical: float, sigma_h: float, gradient_h: bool = False
) -> float:
    """L^p_v (H^sigma_h) norm (with an optional horizontal gradient inside)."""
    g = field.geometry
    M3 = 64
    slices = _vertical_slices(field, M3)
    k1, k2, _ = g.check_grid
    kh2 = (k1**2 + k2**2)[:, :, 0]
    w = (1.0 + kh2) ** sigma_h
    if gradient_h:
        w = w * kh2
    per_x3 = np.sqrt(np.einsum("zxyc,xy->z", np.abs(slices) ** 2, w))
    if np.isinf(p_vertical):
        return float(np.max(per_x3))
    a3 = g.a[2]
    dx = 2 * np.pi * a3 / M3
    return float((np.sum(per_x3**p_vertical) * dx) ** (1.0 / p_vertical))


def _vertical_sobolev(line_field: SpectralField4, s: float, comps=(0, 1)) -> float:
    g = line_field.geometry
    w = (1.0 + g.check_sq[g.N, g.N, g.N :]) ** s
    w[1:] *= 2.0  # the mode n3 > 0 and its mirror -n3
    line = line_field.coeffs[g.N, g.N]
    tot = sum(np.sum(w * np.abs(line[:, c]) ** 2) for c in comps)
    return float(np.sqrt(tot))


def energy_bounds(
    V0: SpectralField4,
    T: float,
    nu: float,
    s: float,
    constants: dict | None = None,
) -> EnergyBounds:
    """Evaluate the nested-exponential a priori bounds from the initial data.

    The abstract constants (C, c, K, p, sigma) default to 1, 1, 1, inf, 1
    and can be overridden through `constants`.
    """
    cst = {"C": 1.0, "c": 1.0, "K": 1.0, "p": math.inf, "sigma": 1.0}
    if constants:
        cst.update(constants)
    C, csmall, K, p, sigma = cst["C"], cst["c"], cst["K"], cst["p"], cst["sigma"]

    dec = decompose(V0)
    bar, und, osc = dec.bar, dec.underline, dec.osc

    bar_hs = sobolev_norm(s, bar)
    grad_bar_lp = _mixed_norm(bar, p, sigma, gradient_h=True)
    bar_linf_l2 = _mixed_norm(bar, math.inf, 0.0)
    grad_bar_linf_l2 = _mixed_norm(bar, math.inf, 0.0, gradient_h=True)
    und_hs = _vertical_sobolev(und, s, comps=(0, 1))
    und_l2_full = _vertical_sobolev(und, 0.0, comps=(0, 1, 3))
    und_hs_full = _vertical_sobolev(und, s, comps=(0, 1, 3))
    osc_l2 = l2_norm(osc)
    osc_hs = sobolev_norm(s, osc)

    phi = _exp_cap(
        (C * K**2 * grad_bar_linf_l2**2 / (csmall * nu))
        * _exp_cap(
            (K / (csmall * nu)) * (1.0 + bar_linf_l2**2) * grad_bar_linf_l2**2
        )
    )
    def scaled_exp(base, exponent):
        return 0.0 if base == 0.0 else base * _exp_cap(exponent)

    e1 = scaled_exp(
        C * bar_hs**2,
        (C * K * phi / (csmall * nu)) * grad_bar_lp + (C / nu) * und_hs**2,
    )
    e2 = scaled_exp(C * osc_l2**2, e1 / nu + T * und_hs_full**2)
    expo3 = e1 / nu + T * und_l2_full**2
    expo3 = math.inf if e2 > 1e150 else expo3 + e2 * e2 / nu
    e3 = scaled_exp(osc_hs**2, expo3)
    return EnergyBounds(
        phi,
        e1,
        e2,
        e3,
        {
            "bar_hs": bar_hs,
            "grad_bar_lp": grad_bar_lp,
            "bar_linf_l2": bar_linf_l2,
            "grad_bar_linf_l2": grad_bar_linf_l2,
            "und_hs": und_hs,
            "osc_l2": osc_l2,
            "osc_hs": osc_hs,
        },
    )


# -- blow-up monitor -----------------------------------------------------------------


def blowup_monitor(times, fields) -> np.ndarray:
    """Trapezoid accumulation of int_0^t |grad U|_Linf."""
    vals = np.array([grad_linf(f) for f in fields])
    times = np.asarray(times, dtype=float)
    out = np.zeros_like(times)
    for i in range(1, len(times)):
        out[i] = out[i - 1] + 0.5 * (vals[i] + vals[i - 1]) * (times[i] - times[i - 1])
    return out


# -- checkpoint I/O --------------------------------------------------------------------

_MAGIC = b"FRSP"
_VERSION = 3
# v1: magic, version, then N, a1, a2, a3, nu, eps, t as doubles.  v2 appends
# the numerator and denominator of each a_i^2 as unsigned 64-bit integers:
# the float periods do not determine the rational squared periods.  v3 keeps
# the v2 header; its payload is V, where v1 and v2 store U = L(-t/eps) V.
# Every payload holds all L^3 modes in lexicographic order.
_HEADER_BYTES = {1: 64, 2: 112, 3: 112}
# a payload must be a real field: its Hermitian defect (l2) is at most this
# fraction of its l2 norm (the states `frspec simulate` writes sit below 1e-16)
_HERMITIAN_TOL = 1e-8


def _mirrored(field: SpectralField4) -> np.ndarray:
    """The (L, L, L, 4) coefficients of a real field over the whole lattice:
    the stored modes, and conj V_hat(-n) on n3 < 0, plus 0.0, which writes
    an exact zero as +0, as per-mode arithmetic on those modes gives it."""
    g, h = field.geometry, field.coeffs
    N = g.N
    out = np.empty((g.L, g.L, g.L, 4), dtype=np.complex128)
    out[:, :, N:] = h
    out[:, :, :N] = np.conj(h[::-1, ::-1, N:0:-1]) + 0.0
    return out


def checkpoint_periods(g: TorusGeometry) -> list[int]:
    """Numerator and denominator of each a_i^2, as the checkpoint header
    stores them; ValueError if one does not fit in 64 bits."""
    exact = [x for r in g.a_sq for x in (r.numerator, r.denominator)]
    if max(exact) >= 1 << 64:
        raise ValueError(
            f"squared periods {', '.join(map(str, g.a_sq))} do not fit a checkpoint "
            "header (64-bit numerators and denominators)"
        )
    return exact


def write_checkpoint(path, state: SimState) -> None:
    g = state.geometry
    a = g.a
    exact = checkpoint_periods(g)
    header = _MAGIC + struct.pack("<I", _VERSION)
    header += struct.pack(
        "<7d", float(g.N), a[0], a[1], a[2], state.nu, state.eps, state.t
    )
    header += struct.pack("<6Q", *exact)
    body = _mirrored(state.V)
    # lexicographic mode order is the C order of the (i1, i2, i3) array
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.astype("<c16").tobytes(order="C"))


def read_checkpoint(path) -> SimState:
    """Read a v3, v2 or v1 checkpoint.  A v1 or v2 payload holds U, which
    is returned as V = L(t/eps) U.  A v1 file stores only the float
    periods; its squared periods are recovered as the nearest fractions
    with denominator at most 10^9, which need not be the ones it was
    written from.  ValueError, naming the file, for a header or payload
    that cannot be a state: among them a nu outside [0, inf), a t that is
    not finite, and a payload that is not a real field (a NaN included),
    since only its n3 >= 0 modes are kept."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER_BYTES[_VERSION])
        if head[:4] != _MAGIC:
            raise ValueError(f"checkpoint {path}: bad magic {head[:4]!r}")
        version = struct.unpack_from("<I", head, 4)[0] if len(head) >= 8 else _VERSION
        if version not in _HEADER_BYTES:
            raise ValueError(f"checkpoint {path}: unsupported version {version}")
        size = _HEADER_BYTES[version]
        if len(head) < size:
            raise ValueError(
                f"checkpoint {path}: header is {len(head)} bytes, expected {size}"
            )
        Nf, a1, a2, a3, nu, eps, t = struct.unpack_from("<7d", head, 8)
        if not eps > 0:
            raise ValueError(f"checkpoint {path}: eps = {eps} is not positive")
        if not 0 <= nu < math.inf:  # NaN included
            raise ValueError(f"checkpoint {path}: nu = {nu} is not finite and nonnegative")
        if not math.isfinite(t):
            raise ValueError(f"checkpoint {path}: t = {t} is not finite")
        if not (math.isfinite(Nf) and Nf >= 1 and Nf == int(Nf)):
            raise ValueError(f"checkpoint {path}: N = {Nf} is not an integer >= 1")
        N = int(Nf)
        try:
            if version == 1:
                a_sq = tuple(Fraction(x * x).limit_denominator(10**9) for x in (a1, a2, a3))
            else:
                p1, q1, p2, q2, p3, q3 = struct.unpack_from("<6Q", head, 64)
                a_sq = (Fraction(p1, q1), Fraction(p2, q2), Fraction(p3, q3))
            g = TorusGeometry(a_sq, N)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValueError(f"checkpoint {path}: {exc}") from exc
        L = g.L
        raw = head[size:] + fh.read()
    want = L * L * L * 4 * 16
    if len(raw) != want:
        raise ValueError(
            f"checkpoint {path}: payload is {len(raw)} bytes, expected {want} for N = {N}"
        )
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(L, L, L, 4).astype(np.complex128)
    # l2 norms of V_hat(n) - conj(V_hat(-n)) over n3 >= 0 and of V_hat, as
    # real dot products: NaN for a NaN or inf payload
    with np.errstate(invalid="ignore"):
        miss = (coeffs[:, :, N:] - np.conj(coeffs[::-1, ::-1, N::-1])).ravel().view(np.float64)
    flat = coeffs.ravel().view(np.float64)
    defect, size = np.sqrt(miss @ miss), np.sqrt(flat @ flat)
    if not defect <= _HERMITIAN_TOL * size:
        raise ValueError(
            f"checkpoint {path}: payload is not a real field: Hermitian defect "
            f"{defect:.3e}, l2 norm {size:.3e}"
        )
    V = SpectralField4(g, coeffs[:, :, N:].copy())
    if version < 3:
        V = apply_filter(t / eps, V)
    return SimState(t, V, nu, eps)
