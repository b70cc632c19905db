"""Time integration of the filtered system and of the explicit limit system.

The filtered unknown U(t) = L(-t/eps) V(t) satisfies a system whose only
eps-dependence sits in bounded oscillatory phases.  The stepper works in
the physical frame V, where the complete linear part (dissipation plus
the 1/eps buoyancy coupling) is a constant 4x4 matrix per mode whose
exponential is computed exactly once per step size; the nonlinearity is
advanced by a Lawson (exponential) Runge-Kutta 4 scheme.  This removes
the 1/eps stiffness entirely and keeps the discrete energy law accurate
uniformly in eps: over one step the homogeneous part satisfies

    1/2 |V|^2 - 1/2 |exp(dt L) V|^2 = nu * int |grad v|^2 dt

exactly (the buoyancy part is skew), so the dissipation ledger charges
the linear part by this polarization identity and only the O(dt)
nonlinear displacement is charged by quadrature.

The limit system is advanced with the same Lawson scheme but diagonal
heat factors: the horizontal average is a closed-form vertical heat flow,
the geostrophic-like part a 2.5D Navier-Stokes system, the wave part has
its phase-free dissipation (half Laplacian) and the resonance-restricted
transport.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.linalg import expm

from .fields import (
    SpectralField4,
    convolve_quadratic,
    l2_norm,
    leray_project,
    sobolev_norm,
    to_physical,
)
from .forms import FormEngine
from .geometry import TorusGeometry
from .waves import EigenBasis, apply_filter, bar_part, decompose, osc_part, underline_part

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
    U: SpectralField4  # filtered unknown
    nu: float
    eps: float

    @property
    def geometry(self) -> TorusGeometry:
        return self.U.geometry

    def physical_V(self) -> SpectralField4:
        """Recover V(t) = L(t/eps) U(t)."""
        return apply_filter(self.t / self.eps, self.U)


@dataclass
class EnergyLedger:
    """Running discrete energy balance 1/2|V|^2 + nu int |grad v|^2."""

    e0: float
    dissipated: float = 0.0

    def drift(self, V: SpectralField4) -> float:
        e = 0.5 * l2_norm(V) ** 2
        return abs(e + self.dissipated - self.e0) / self.e0


def _grad_sq_velocity(V: SpectralField4) -> float:
    ksq = V.geometry.check_sq
    return float(np.sum(ksq[..., None] * np.abs(V.coeffs[..., :3]) ** 2))


def grad_linf(U: SpectralField4) -> float:
    """sup-norm of the full gradient tensor (via collocation sampling)."""
    g = U.geometry
    k1, k2, k3 = g.check_grid
    total = None
    for kk in (k1, k2, k3):
        block = SpectralField4(g, 1j * kk[..., None] * U.coeffs)
        sq = np.sum(to_physical(block).values ** 2, axis=-1)
        total = sq if total is None else total + sq
    return float(np.sqrt(np.max(total)))


def cfl_bound(V: SpectralField4) -> float:
    """Advective step bound 0.5 / (N max|u|) of the velocity of V."""
    phys = to_physical(V)
    umax = float(np.max(np.sqrt(np.sum(phys.values[..., :3] ** 2, axis=-1))))
    if umax == 0.0:
        return math.inf
    return 0.5 / (V.geometry.N * umax)


def _require_cfl(dt: float, V: SpectralField4) -> None:
    bound = cfl_bound(V)
    if dt > bound:
        raise CFLViolation(f"dt={dt} exceeds the advective bound {bound:.3e}")


def lawson_rk4(x, rhs, half, full, dt: float):
    """One Lawson (exponential) RK4 step of x' = L x + rhs(x).

    `half` and `full` apply exp(dt L / 2) and exp(dt L); `rhs(y, tau)` is
    the nonlinearity at the stage time offset tau in (0, dt/2, dt/2, dt).
    The state only needs `+` and scalar `*`.  Returns the new state and
    full(x), which the energy ledger reuses.
    """
    k1 = rhs(x, 0.0)
    full_x = full(x)
    ka = rhs(half(x + (0.5 * dt) * k1), 0.5 * dt)
    kb = rhs(half(x) + (0.5 * dt) * ka, 0.5 * dt)
    kc = rhs(full_x + dt * half(kb), dt)
    x_new = full_x + (dt / 6.0) * (full(k1) + 2.0 * half(ka + kb) + kc)
    return x_new, full_x


class FilteredStepper:
    """Lawson-RK4 integrator of the filtered system at fixed (nu, eps, dt)."""

    def __init__(self, engine: FormEngine, eps: float, dt: float):
        if dt <= 0:
            raise ValueError("dt must be positive")
        self.engine = engine
        self.geometry = engine.geometry
        self.nu = engine.nu
        self.eps = float(eps)
        self.dt = float(dt)
        mats = self._generator()
        self._E_half = expm(0.5 * self.dt * mats)
        self._E_full = expm(self.dt * mats)
        self._E_full_inv = np.linalg.inv(self._E_full)

    def _generator(self) -> np.ndarray:
        """(L^3, 4, 4) linear part per mode: dissipation - (1/eps) PA."""
        g = self.geometry
        nu = self.nu
        inv_eps = 1.0 / self.eps
        k1, k2, k3 = g.check_grid
        L = g.L
        ks = g.check_sq
        mats = np.zeros((g.nmodes, 4, 4))
        lam = (-nu * ks).reshape(-1)
        for j in range(3):
            mats[:, j, j] = lam
        # -(1/eps) * PA symbol
        ksafe = np.where(ks.reshape(-1) > 0, ks.reshape(-1), 1.0)
        kk1 = np.broadcast_to(k1, (L, L, L)).reshape(-1)
        kk2 = np.broadcast_to(k2, (L, L, L)).reshape(-1)
        kk3 = np.broadcast_to(k3, (L, L, L)).reshape(-1)
        mats[:, 0, 3] = inv_eps * kk1 * kk3 / ksafe
        mats[:, 1, 3] = inv_eps * kk2 * kk3 / ksafe
        mats[:, 2, 3] = -inv_eps * (1.0 - kk3 * kk3 / ksafe)
        mats[:, 3, 2] = inv_eps
        zero = g.flat_index((0, 0, 0))
        mats[zero] = 0.0
        return mats

    def _apply(self, E: np.ndarray, V: SpectralField4) -> SpectralField4:
        g = self.geometry
        c = V.coeffs.reshape(g.nmodes, 4)
        out = np.matmul(E, c[..., None])
        return SpectralField4(g, out.reshape(g.L, g.L, g.L, 4))

    def _nonlinear(self, V: SpectralField4) -> SpectralField4:
        out = -1.0 * leray_project(convolve_quadratic(V, V), check_mean=False)
        return out.pin_zero_mode()

    def _check(self, V: SpectralField4):
        if not np.all(np.isfinite(V.coeffs)):
            raise NumericalError("non-finite coefficients in time step")

    def step(
        self,
        state: SimState,
        ledger: EnergyLedger | None = None,
        enforce_cfl: bool = True,
    ) -> SimState:
        if state.nu != self.nu or state.eps != self.eps:
            raise ValueError("state parameters do not match this stepper")
        dt = self.dt
        V = state.physical_V()
        self._check(V)
        if enforce_cfl:
            _require_cfl(dt, V)
        Eh, Ef = self._E_half, self._E_full
        V_new, EfV = lawson_rk4(
            V,
            lambda W, tau: self._nonlinear(W),  # autonomous: no stage times
            lambda W: self._apply(Eh, W),
            lambda W: self._apply(Ef, W),
            dt,
        )
        V_new = leray_project(V_new, check_mean=False).pin_zero_mode()
        self._check(V_new)

        if ledger is not None:
            # exact linear dissipation by polarization, averaged over the
            # two endpoint placements of the nonlinear displacement
            z = self._apply(self._E_full_inv, V_new) - V
            d0 = 0.5 * l2_norm(V) ** 2 - 0.5 * l2_norm(EfV) ** 2
            Vz = V + z
            d1 = 0.5 * l2_norm(Vz) ** 2 - 0.5 * l2_norm(self._apply(Ef, Vz)) ** 2
            ledger.dissipated += 0.5 * (d0 + d1)

        t_new = state.t + dt
        U_new = apply_filter(-t_new / self.eps, V_new)
        return SimState(t_new, U_new, self.nu, self.eps)


# -- horizontal-average (underline) subsystem: exact heat flow -------------------


def heat_factor_line(geometry: TorusGeometry, nu: float, t: float) -> np.ndarray:
    k3 = geometry.n_axis.astype(float) / geometry.a[2]
    return np.exp(-nu * k3**2 * t)


def solve_underline(U0: SpectralField4, nu: float, t: float) -> SpectralField4:
    """Exact solution of the underline limit system at time t.

    Components 1, 2 decay by the vertical heat factor, component 4 is
    constant in time; a nonzero third component is rejected.
    """
    g = U0.geometry
    line = U0.coeffs[g.N, g.N, :, :]
    if np.max(np.abs(line[:, 2])) > 1e-12 * max(1.0, float(np.max(np.abs(line)))):
        raise ValueError("underline data must have zero third component")
    out = underline_part(U0)
    f = heat_factor_line(g, nu, t)
    out.coeffs[g.N, g.N, :, 0] *= f
    out.coeffs[g.N, g.N, :, 1] *= f
    return out


# -- limit system ------------------------------------------------------------------


@dataclass
class LimitState:
    t: float
    bar: SpectralField4
    osc: SpectralField4


@dataclass
class LimitTrajectory:
    geometry: TorusGeometry
    nu: float
    times: list[float]
    underline0: SpectralField4
    bars: list[SpectralField4]
    oscs: list[SpectralField4]

    def underline(self, t: float) -> SpectralField4:
        return solve_underline(self.underline0, self.nu, t)

    def total(self, i: int) -> SpectralField4:
        return self.underline(self.times[i]) + self.bars[i] + self.oscs[i]


@dataclass
class _BarOsc:
    """The (bar, osc) pair the limit stepper advances, with + and scalar *."""

    bar: SpectralField4
    osc: SpectralField4

    def __add__(self, other: "_BarOsc") -> "_BarOsc":
        return _BarOsc(self.bar + other.bar, self.osc + other.osc)

    def __mul__(self, s: float) -> "_BarOsc":
        return _BarOsc(self.bar * s, self.osc * s)

    __rmul__ = __mul__


class LimitStepper:
    """Joint Lawson-RK4 step of the (bar, osc) limit subsystems.

    One-way coupling: the underline part is advanced exactly and fed to
    both at stage times; the bar part feeds the osc part.
    """

    def __init__(self, engine: FormEngine, dt: float, und0: SpectralField4):
        self.engine = engine
        self.geometry = engine.geometry
        self.nu = engine.nu
        self.dt = float(dt)
        self.und0 = underline_part(und0)
        g = self.geometry
        vshare = EigenBasis.of(g).vshare
        ksq = g.check_sq
        self._heat_bar_h = np.exp(-self.nu * ksq * 0.5 * self.dt)
        self._heat_bar_f = np.exp(-self.nu * ksq * self.dt)
        self._heat_osc_h = np.exp(-self.nu * ksq * vshare * 0.5 * self.dt)
        self._heat_osc_f = np.exp(-self.nu * ksq * vshare * self.dt)

    def _rhs_bar(self, bar: SpectralField4, und: SpectralField4) -> SpectralField4:
        """- P_h [ (ubar + uund) . grad_h ubar ] restricted to the e_0 span."""
        adv = convolve_quadratic(bar + und, bar, stencil="horizontal")
        return -1.0 * bar_part(leray_project(adv, check_mean=False))

    def _rhs_osc(
        self, osc: SpectralField4, bar: SpectralField4, und: SpectralField4
    ) -> SpectralField4:
        """Resonant transport of the wave part by itself and by the bar part
        in one table sum: the sum is bilinear and symmetric, so
        q(o, o) + 2 q(b, o) = q(o, o + 2b).  The FFT (0,0,0) class is left
        out, since its output lies on e_0 and osc_part drops it."""
        eng = self.engine
        nl = eng.q_resonant(osc, osc + 2.0 * bar)
        return -1.0 * (osc_part(nl) + eng.b_form(und, osc))

    def _heat(self, x: _BarOsc, fac_bar: np.ndarray, fac_osc: np.ndarray) -> _BarOsc:
        g = self.geometry
        return _BarOsc(
            SpectralField4(g, fac_bar[..., None] * x.bar.coeffs),
            SpectralField4(g, fac_osc[..., None] * x.osc.coeffs),
        )

    def step(self, s: LimitState) -> LimitState:
        dt = self.dt
        _require_cfl(dt, solve_underline(self.und0, self.nu, s.t) + s.bar + s.osc)

        def rhs(x: _BarOsc, tau: float) -> _BarOsc:
            und = solve_underline(self.und0, self.nu, s.t + tau)
            return _BarOsc(self._rhs_bar(x.bar, und), self._rhs_osc(x.osc, x.bar, und))

        new, _ = lawson_rk4(
            _BarOsc(s.bar, s.osc),
            rhs,
            lambda x: self._heat(x, self._heat_bar_h, self._heat_osc_h),
            lambda x: self._heat(x, self._heat_bar_f, self._heat_osc_f),
            dt,
        )
        b_new = bar_part(new.bar)
        o_new = osc_part(new.osc)
        if not (np.all(np.isfinite(b_new.coeffs)) and np.all(np.isfinite(o_new.coeffs))):
            raise NumericalError("non-finite coefficients in limit step")
        return LimitState(s.t + dt, b_new, o_new)


def solve_limit(
    engine: FormEngine,
    V0: SpectralField4,
    T: float,
    dt: float,
    snapshot_every: int = 1,
) -> LimitTrajectory:
    """Advance the decomposed limit system from V0 to time T."""
    dec = decompose(V0)
    nsteps = int(round(T / dt))
    stepper = LimitStepper(engine, dt, dec.underline)
    s = LimitState(0.0, dec.bar, dec.osc)
    times = [0.0]
    bars = [s.bar.copy()]
    oscs = [s.osc.copy()]
    # each step checks its result for non-finite values and raises
    # NumericalError, so numpy's overflow warnings on the way add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(nsteps):
            s = stepper.step(s)
            if (i + 1) % snapshot_every == 0 or i == nsteps - 1:
                times.append(s.t)
                bars.append(s.bar.copy())
                oscs.append(s.osc.copy())
    return LimitTrajectory(engine.geometry, engine.nu, times, dec.underline, bars, oscs)


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
    c = np.moveaxis(field.coeffs, 2, 0)  # (L, L, L, 4) -> (n3, n1, n2, 4)
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
    k3 = g.n_axis.astype(float) / g.a[2]
    w = (1.0 + k3**2) ** s
    line = line_field.coeffs[g.N, g.N, :, :]
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
_VERSION = 1


def write_checkpoint(path, state: SimState) -> None:
    g = state.geometry
    a = g.a
    header = _MAGIC + struct.pack("<I", _VERSION)
    header += struct.pack(
        "<7d", float(g.N), a[0], a[1], a[2], state.nu, state.eps, state.t
    )
    body = np.ascontiguousarray(state.U.coeffs, dtype=np.complex128)
    # lexicographic mode order is the C order of the (i1, i2, i3) array
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(body.astype("<c16").tobytes(order="C"))


def read_checkpoint(path) -> SimState:
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != _MAGIC:
            raise ValueError(f"bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", fh.read(4))
        if version != _VERSION:
            raise ValueError(f"unsupported checkpoint version {version}")
        Nf, a1, a2, a3, nu, eps, t = struct.unpack("<7d", fh.read(56))
        N = int(round(Nf))
        a_sq = tuple(
            Fraction(x * x).limit_denominator(10**9) for x in (a1, a2, a3)
        )
        g = TorusGeometry(a_sq, N)
        L = g.L
        raw = fh.read()
    want = L * L * L * 4 * 16
    if len(raw) != want:
        raise ValueError(
            f"checkpoint {path}: payload is {len(raw)} bytes, expected {want} for N = {N}"
        )
    coeffs = np.frombuffer(raw, dtype="<c16").reshape(L, L, L, 4).copy()
    return SimState(t, SpectralField4(g, coeffs.astype(np.complex128)), nu, eps)
