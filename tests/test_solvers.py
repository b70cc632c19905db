"""Time steppers, the explicit limit system, energy machinery, and I/O."""

import math

import numpy as np
import pytest

from frspec.fields import (
    SpectralField4,
    inner_l2,
    l2_norm,
    leray_project,
    single_mode_field,
    sobolev_norm,
    zero_field,
)
from frspec.forms import FormEngine, project_tilde
from frspec.geometry import TorusGeometry
from frspec.solvers import (
    CFLViolation,
    EnergyLedger,
    FilteredStepper,
    LimitStepper,
    LimitState,
    NumericalError,
    SimState,
    blowup_monitor,
    energy_bounds,
    grad_linf,
    read_checkpoint,
    solve_limit,
    solve_underline,
    write_checkpoint,
)
from frspec.waves import apply_filter, bar_part, coefficients, decompose, eigenbasis, osc_part

from conftest import random_field


@pytest.fixture(scope="module")
def engine4(unit_torus_4):
    return FormEngine(unit_torus_4, nu=1.0)


class TestFilteredStepper:
    def test_pure_vertical_heat_is_exact(self, engine4, unit_torus_4):
        # underline data produces no transport, so the exact linear
        # propagator reproduces the heat factor to machine precision
        g = unit_torus_4
        V0 = single_mode_field(g, (0, 0, 1), [1.0, 0.5, 0, 0.25])
        st = FilteredStepper(engine4, eps=1e-2, dt=0.1)
        state = SimState(0.0, V0.copy(), 1.0, 1e-2)
        state = st.step(state, enforce_cfl=False)  # no advection in this data
        got = state.physical_V().coeffs[g.N, g.N, g.N + 1]
        fac = math.exp(-1.0 * 0.1)
        want = np.array([fac, 0.5 * fac, 0, 0.25])
        assert np.max(np.abs(got - want)) < 1e-13

    def test_state_mismatch_rejected(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=60, amplitude=0.5)
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with pytest.raises(ValueError):
            st.step(SimState(0.0, V0, 1.0, 0.2))

    def test_energy_identity_per_step(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=61, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        state = SimState(0.0, V0.copy(), 1.0, 1e-2)
        ledger = EnergyLedger(0.5 * l2_norm(V0) ** 2)
        for _ in range(20):
            state = st.step(state, ledger, enforce_cfl=False)
            assert ledger.drift(state.physical_V()) < 1e-6

    def test_richardson_local_order(self, unit_torus_4):
        # two half steps against one full step on smooth data: order >= 4
        eng = FormEngine(unit_torus_4, nu=1.0)
        V0 = random_field(unit_torus_4, seed=62, amplitude=1.0, spectrum_r=3.0)
        eps = 0.5
        errs = []
        for dt in (2e-2, 1e-2):
            ref = FilteredStepper(eng, eps, dt / 4)
            sr = SimState(0.0, V0.copy(), 1.0, eps)
            for _ in range(4 * 2):
                sr = ref.step(sr, enforce_cfl=False)
            coarse = FilteredStepper(eng, eps, dt)
            sc = SimState(0.0, V0.copy(), 1.0, eps)
            for _ in range(2):
                sc = coarse.step(sc, enforce_cfl=False)
            errs.append(l2_norm(sc.U - sr.U))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.7

    def test_cfl_violation_raises(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=63, amplitude=200.0)
        st = FilteredStepper(engine4, eps=0.1, dt=0.05)
        with pytest.raises(CFLViolation):
            st.step(SimState(0.0, V0, 1.0, 0.1))

    @pytest.mark.parametrize("eps", [0.1, 1e-3, math.inf])
    def test_stacked_propagators_match_per_mode_loop(self, engine4, eps):
        # one stacked expm / inv call gives the per-mode results bit for bit
        from scipy.linalg import expm

        dt = 1e-3
        st = FilteredStepper(engine4, eps=eps, dt=dt)
        mats = st._generator()
        E_half = np.array([expm(0.5 * dt * m) for m in mats])
        E_full = np.array([expm(dt * m) for m in mats])
        assert np.array_equal(st._E_half, E_half)
        assert np.array_equal(st._E_full, E_full)
        assert np.array_equal(st._E_full_inv, np.array([np.linalg.inv(m) for m in E_full]))

    def test_nan_raises(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=64)
        V0.coeffs[4, 4, 5, 0] = np.nan
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with pytest.raises(NumericalError):
            st.step(SimState(0.0, V0, 1.0, 0.1))

    def test_divergence_free_preserved(self, engine4, unit_torus_4):
        from frspec.fields import divergence_max

        V0 = random_field(unit_torus_4, seed=65, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        state = SimState(0.0, V0, 1.0, 1e-2)
        for _ in range(10):
            state = st.step(state, enforce_cfl=False)
        assert divergence_max(state.U) < 1e-12
        assert state.U.zero_mean()


class TestUnderline:
    def test_heat_factor_example(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 1), [1, 0, 0, 0])
        out = solve_underline(f, nu=1.0, t=1.0)
        got = out.coeffs[4, 4, 5, 0]
        assert abs(got - math.exp(-1.0)) < 1e-12
        assert abs(got - 0.3678794412) < 1e-9

    def test_t0_identity_and_density_constant(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 2), [1, 2, 0, 5])
        out0 = solve_underline(f, nu=1.0, t=0.0)
        assert np.max(np.abs(out0.coeffs - f.coeffs)) < 1e-15
        out = solve_underline(f, nu=1.0, t=3.0)
        assert out.coeffs[4, 4, 6, 3] == f.coeffs[4, 4, 6, 3]

    def test_vertical_energy_balance(self, unit_torus_4):
        # |u(t)|_{Hs}^2 + 2 nu int_0^t |d3 u|_{Hs}^2 = |u(0)|_{Hs}^2
        g = unit_torus_4
        rng = np.random.default_rng(66)
        f = zero_field(g)
        for n3 in range(-g.N, g.N + 1):
            if n3 == 0:
                continue
            f.coeffs[g.N, g.N, n3 + g.N, 0] = rng.standard_normal()
            f.coeffs[g.N, g.N, n3 + g.N, 1] = rng.standard_normal()
        f.make_hermitian()
        nu, t, s = 0.7, 0.9, 2.0
        k3 = g.n_axis.astype(float) / g.a[2]
        w = (1.0 + k3**2) ** s

        def hs_sq(field):
            line = field.coeffs[g.N, g.N, :, :2]
            return float(np.sum(w[:, None] * np.abs(line) ** 2))

        out = solve_underline(f, nu, t)
        # Simpson quadrature of the dissipation integral
        from scipy.integrate import simpson

        M = 2001
        taus = np.linspace(0.0, t, M)
        vals = []
        for tau in taus:
            ut = solve_underline(f, nu, tau)
            line = ut.coeffs[g.N, g.N, :, :2]
            vals.append(float(np.sum(w[:, None] * (k3**2)[:, None] * np.abs(line) ** 2)))
        integral = float(simpson(vals, x=taus))
        lhs = hs_sq(out) + 2 * nu * integral
        assert abs(lhs - hs_sq(f)) < 1e-10 * hs_sq(f)

    def test_rejects_third_component(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 1), [0, 0, 1, 0])
        with pytest.raises(ValueError):
            solve_underline(f, nu=1.0, t=0.5)


class TestLimitSteppers:
    def test_zero_data_stays_zero(self, engine4, unit_torus_4):
        st = LimitStepper(engine4, 1e-2, zero_field(unit_torus_4))
        s = LimitState(0.0, zero_field(unit_torus_4), zero_field(unit_torus_4))
        s = st.step(s)
        assert l2_norm(s.bar) == l2_norm(s.osc) == 0.0

    def test_cfl_violation_raises(self, engine4, unit_torus_4):
        # the guard bounds the total limit velocity, underline included
        g = unit_torus_4
        und = single_mode_field(g, (0, 0, 1), [200.0, 0, 0, 0])
        st = LimitStepper(engine4, 1e-2, und)
        with pytest.raises(CFLViolation):
            st.step(LimitState(0.0, zero_field(g), zero_field(g)))
        dec = decompose(random_field(g, seed=63, amplitude=200.0))
        st = LimitStepper(engine4, 1e-2, zero_field(g))
        with pytest.raises(CFLViolation):
            st.step(LimitState(0.0, dec.bar, dec.osc))

    def test_bar_2d_navier_stokes_energy(self, unit_torus_4):
        # x3-independent bar data, no underline: 2D NS energy balance
        g = unit_torus_4
        eng = FormEngine(g, nu=1.0)
        rng = np.random.default_rng(67)
        f = zero_field(g)
        for n1 in range(-g.N, g.N + 1):
            for n2 in range(-g.N, g.N + 1):
                if (n1, n2) == (0, 0):
                    continue
                t = eigenbasis(g, (n1, n2, 0))
                amp = rng.standard_normal() * (1.0 + n1 * n1 + n2 * n2) ** -1.5
                f.coeffs[n1 + g.N, n2 + g.N, g.N] += amp * t.e0
        f.make_hermitian()
        bar0 = bar_part(f)
        dt = 2e-3
        st = LimitStepper(eng, dt, zero_field(g))
        s = LimitState(0.0, bar0.copy(), zero_field(g))
        diss = 0.0
        ksq = g.check_sq
        H = np.exp(-1.0 * ksq * dt)[..., None]
        Hinv = np.exp(1.0 * ksq * dt)[..., None]
        for _ in range(50):
            before = s.bar.coeffs.copy()
            s = st.step(s)
            # exact linear dissipation by polarization, averaged over the two
            # endpoint placements of the nonlinear displacement
            z = Hinv * s.bar.coeffs - before
            d0 = 0.5 * np.sum(np.abs(before) ** 2) - 0.5 * np.sum(np.abs(H * before) ** 2)
            bz = before + z
            d1 = 0.5 * np.sum(np.abs(bz) ** 2) - 0.5 * np.sum(np.abs(H * bz) ** 2)
            diss += 0.5 * (d0 + d1)
        drift = abs(0.5 * l2_norm(s.bar) ** 2 + diss - 0.5 * l2_norm(bar0) ** 2)
        assert drift < 1e-6 * 0.5 * l2_norm(bar0) ** 2
        # the flow stays x3-independent
        off = s.bar.coeffs.copy()
        off[:, :, g.N, :] = 0.0
        assert np.max(np.abs(off)) < 1e-13

    def test_underline_shear_is_energy_neutral(self, engine4, unit_torus_4):
        # <uund . grad_h ubar, ubar> = 0: transport by a horizontal shear
        g = unit_torus_4
        V = random_field(g, seed=68)
        dec = decompose(V)
        from frspec.fields import convolve_quadratic

        adv = convolve_quadratic(dec.underline, dec.bar, stencil="horizontal")
        pairing = abs(inner_l2(adv, dec.bar))
        assert pairing < 1e-10 * max(l2_norm(adv) * l2_norm(dec.bar), 1e-300)

    def test_osc_pure_heat_when_uncoupled(self, unit_torus_4):
        # no resonant partners and no bar/underline: the wave part decays by
        # its phase-free dissipation factor exp(-nu |ncheck|^2 t / 2)
        g = unit_torus_4
        eng = FormEngine(g, nu=1.0)
        t = eigenbasis(g, (1, 0, 1))
        osc0 = single_mode_field(g, (1, 0, 1), 0.3 * t.ep)
        st = LimitStepper(eng, 1e-2, zero_field(g))
        s = LimitState(0.0, zero_field(g), osc0.copy())
        for _ in range(10):
            s = st.step(s)
        fac = math.exp(-1.0 * 2.0 * 0.1 / 2.0)  # |ncheck|^2 = 2, t = 0.1
        want = fac * osc0.coeffs
        assert np.max(np.abs(s.osc.coeffs - want)) < 1e-12

    def test_osc_l2_balance_on_resonant_torus(self):
        # nonempty resonant set: the restricted transport moves no energy
        g = TorusGeometry((1, 1, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=69, amplitude=1.0, spectrum_r=2.0)
        osc0 = decompose(V).osc
        dt = 2e-3
        st = LimitStepper(eng, dt, zero_field(g))
        s = LimitState(0.0, zero_field(g), osc0.copy())
        basis_e = eng.basis
        vshare = np.einsum(
            "xyzj,xyzj->xyz", basis_e.ep[..., :3], np.conj(basis_e.ep[..., :3])
        ).real
        lam = g.check_sq * vshare
        H = np.exp(-1.0 * lam * dt)[..., None]
        Hinv = np.exp(1.0 * lam * dt)[..., None]
        diss = 0.0
        for _ in range(50):
            before = s.osc.coeffs.copy()
            s = st.step(s)
            z = Hinv * s.osc.coeffs - before
            d0 = 0.5 * np.sum(np.abs(before) ** 2) - 0.5 * np.sum(np.abs(H * before) ** 2)
            bz = before + z
            d1 = 0.5 * np.sum(np.abs(bz) ** 2) - 0.5 * np.sum(np.abs(H * bz) ** 2)
            diss += 0.5 * (d0 + d1)
        drift = abs(0.5 * l2_norm(s.osc) ** 2 + diss - 0.5 * l2_norm(osc0) ** 2)
        assert drift < 1e-8 * 0.5 * l2_norm(osc0) ** 2

    def test_single_wave_mode_feels_no_nonlinearity(self):
        g = TorusGeometry((1, 1, 1), 2)
        eng = FormEngine(g, nu=1.0)
        t = eigenbasis(g, (2, 2, 2))
        osc0 = single_mode_field(g, (2, 2, 2), t.ep)
        nl = eng.q_tilde1(osc0, osc0)
        assert l2_norm(nl) < 1e-14


class TestSolveLimit:
    def test_wave_free_data_is_heat_flow(self, engine4, unit_torus_4):
        g = unit_torus_4
        f = single_mode_field(g, (0, 0, 2), [0.5, -0.25, 0, 1.0])
        traj = solve_limit(engine4, f, T=0.5, dt=1e-2, snapshot_every=50)
        want = solve_underline(f, nu=1.0, t=0.5)
        got = traj.total(len(traj.times) - 1)
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-13

    def test_one_way_coupling_exact(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=70, amplitude=1.0, spectrum_r=3.0)
        traj = solve_limit(engine4, V0, T=0.2, dt=1e-2, snapshot_every=10)
        dec = decompose(V0)
        want = solve_underline(dec.underline, nu=1.0, t=0.2)
        got = traj.underline(0.2)
        assert np.array_equal(got.coeffs, want.coeffs)

    def test_subspace_invariance_along_flow(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=71, amplitude=1.0, spectrum_r=3.0)
        traj = solve_limit(engine4, V0, T=0.2, dt=1e-2, snapshot_every=5)
        for bar, osc in zip(traj.bars, traj.oscs):
            cb = coefficients(bar)
            drift_b = np.sqrt(np.sum(np.abs(cb[1]) ** 2 + np.abs(cb[-1]) ** 2))
            co = coefficients(osc)
            drift_o = np.sqrt(np.sum(np.abs(co[0]) ** 2))
            line = np.max(np.abs(bar.coeffs[4, 4])) + np.max(np.abs(osc.coeffs[4, 4]))
            assert drift_b < 1e-10 and drift_o < 1e-10 and line < 1e-10

    def test_s0_residual_fine_snapshots(self, engine4, unit_torus_4):
        # reconstructed U(t) satisfies the limit system: 4th-order FD time
        # derivative against the limit-form right-hand side
        V0 = random_field(unit_torus_4, seed=72, amplitude=1.0, spectrum_r=3.0)
        dt = 2.5e-3
        traj = solve_limit(engine4, V0, T=1.0, dt=dt, snapshot_every=1)
        checks = range(2, len(traj.times) - 2, 40)
        worst = 0.0
        for i in checks:
            dU = (1.0 / (12 * dt)) * (
                -1.0 * traj.total(i + 2)
                + 8.0 * traj.total(i + 1)
                - 8.0 * traj.total(i - 1)
                + traj.total(i - 2)
            )
            U = traj.total(i)
            rhs = engine4.q_limit(U, U) - engine4.a2_limit(U)
            worst = max(worst, l2_norm(dU + rhs))
        assert worst < 1e-4

    def test_matches_two_call_wave_forcing(self, monkeypatch):
        # oracle: the wave forcing as two full q_tilde1 evaluations per stage
        class TwoCallStepper(LimitStepper):
            def _rhs_osc(self, osc, bar, und):
                eng = self.engine
                nl = eng.q_tilde1(osc, osc) + 2.0 * eng.q_tilde1(bar, osc)
                return -1.0 * (osc_part(nl) + eng.b_form(und, osc))

        g = TorusGeometry((1, 2, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V0 = random_field(g, seed=73, amplitude=1.0, spectrum_r=3.0)
        got = solve_limit(eng, V0, T=0.05, dt=5e-3)
        monkeypatch.setattr("frspec.solvers.LimitStepper", TwoCallStepper)
        want = solve_limit(eng, V0, T=0.05, dt=5e-3)
        assert len(got.times) == len(want.times) == 11
        for parts_got, parts_want in ((got.bars, want.bars), (got.oscs, want.oscs)):
            for x, y in zip(parts_got, parts_want):
                assert l2_norm(x - y) <= 1e-12 * l2_norm(y)


class TestEnergyBounds:
    def test_zero_data(self, unit_torus_4):
        b = energy_bounds(zero_field(unit_torus_4), T=2.0, nu=1.0, s=5.0)
        assert b.phi == 1.0
        assert b.e1 == b.e2 == b.e3 == 0.0

    def test_monotone_in_horizon(self, unit_torus_4):
        V = random_field(unit_torus_4, seed=73, amplitude=1e-4, spectrum_r=3.0)
        prev = None
        for T in (0.5, 1.0, 2.0):
            b = energy_bounds(V, T=T, nu=1.0, s=5.0)
            if prev is not None:
                assert b.e2 >= prev.e2 and b.e3 >= prev.e3
            prev = b

    def test_constants_override(self, unit_torus_4):
        V = random_field(unit_torus_4, seed=74, amplitude=1e-4, spectrum_r=3.0)
        b1 = energy_bounds(V, T=1.0, nu=1.0, s=5.0)
        b2 = energy_bounds(V, T=1.0, nu=1.0, s=5.0, constants={"C": 4.0})
        assert b2.e1 > b1.e1


class TestBlowupMonitor:
    def test_zero_field(self, unit_torus_4):
        fields = [zero_field(unit_torus_4) for _ in range(3)]
        out = blowup_monitor([0.0, 0.5, 1.0], fields)
        assert np.all(out == 0.0)

    def test_heat_mode_closed_form(self, unit_torus_4):
        # |grad U|_Linf of 2 A cos(n.x) e_c decays by the heat factor; the
        # time integral has the closed form |ncheck| amp (1 - e^{-nu lam t})/(nu lam)
        g = unit_torus_4
        nu, lam = 1.0, 4.0  # mode (0, 0, 2)
        A = 0.3
        # imaginary coefficient: the gradient is a cosine whose extremum sits
        # on a collocation point, so the sampled sup-norm is exact
        f0 = single_mode_field(g, (0, 0, 2), [1j * A, 0, 0, 0])
        times = np.linspace(0.0, 1.0, 161)
        fields = [solve_underline(f0, nu, t) for t in times]
        out = blowup_monitor(times, fields)
        amp = 2 * A  # peak of 2 A cos
        want = 2.0 * amp * (1 - math.exp(-nu * lam * 1.0)) / (nu * lam)
        assert abs(out[-1] - want) < 1e-3 * want

    def test_quadrature_order_two(self, unit_torus_4):
        g = unit_torus_4
        f0 = single_mode_field(g, (0, 0, 1), [1j, 0, 0, 0])
        errs = []
        for M in (21, 41):
            times = np.linspace(0.0, 1.0, M)
            fields = [solve_underline(f0, 1.0, t) for t in times]
            out = blowup_monitor(times, fields)
            # amp 2, |ncheck| = 1, nu lam = 1
            want = 2.0 * 1.0 * (1 - math.exp(-1.0)) / 1.0
            errs.append(abs(out[-1] - want))
        order = math.log2(errs[0] / errs[1])
        assert order > 1.8


class TestCheckpoints:
    def test_round_trip_bitwise(self, tmp_path, unit_torus_4):
        V = random_field(unit_torus_4, seed=75)
        state = SimState(0.375, V, nu=0.7, eps=1e-2)
        p = tmp_path / "state.frsp"
        write_checkpoint(p, state)
        back = read_checkpoint(p)
        assert np.array_equal(back.U.coeffs, state.U.coeffs)
        assert back.t == state.t and back.nu == state.nu and back.eps == state.eps
        assert back.geometry == unit_torus_4
        assert p.read_bytes()[:4] == b"FRSP"

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.frsp"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError):
            read_checkpoint(p)

    def test_truncated_payload_names_the_file(self, tmp_path, unit_torus_4):
        p = tmp_path / "cut.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=77), nu=1.0, eps=0.1))
        p.write_bytes(p.read_bytes()[:200])
        want = unit_torus_4.L**3 * 4 * 16
        with pytest.raises(ValueError) as err:
            read_checkpoint(p)
        msg = str(err.value)
        assert str(p) in msg and "136 bytes" in msg and f"expected {want}" in msg

    def test_infinite_eps_round_trips(self, tmp_path, unit_torus_4):
        V = random_field(unit_torus_4, seed=76)
        state = SimState(0.0, V, nu=1.0, eps=math.inf)
        p = tmp_path / "inf.frsp"
        write_checkpoint(p, state)
        assert math.isinf(read_checkpoint(p).eps)
