"""Time steppers, the explicit limit system, energy machinery, and I/O."""

import math
import struct
from fractions import Fraction

import numpy as np
import pytest

import frspec.fields as fields
import frspec.forms as forms
import frspec.solvers as solvers
from frspec.fields import (
    SpectralField4,
    convolve_quadratic,
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
    lawson_rk4,
    read_checkpoint,
    solve_limit,
    solve_underline,
    write_checkpoint,
)
from frspec.waves import (
    EigenBasis,
    apply_filter,
    bar_part,
    coefficients,
    decompose,
    eigenbasis,
    field_from_coefficients,
)

from conftest import from_lattice, full_lattice, random_field, stored


@pytest.fixture(scope="module")
def engine4(unit_torus_4):
    return FormEngine(unit_torus_4, nu=1.0)


def _bar(g, C):
    """The bar field (row e_0) of a limit coefficient stack."""
    return field_from_coefficients(g, {0: C[0]})


def _osc(g, C):
    """The wave field (rows e_+, e_-) of a limit coefficient stack."""
    return field_from_coefficients(g, {1: C[1], -1: C[-1]})


def _energy(g, coeffs):
    """1/2 the squared l2 norm of the field with stored coefficients `coeffs`."""
    return 0.5 * l2_norm(SpectralField4(g, coeffs)) ** 2


def _generator(eng, eps):
    """The test-side generator diag(A2) - (1/eps) PA (L L (N + 1), 4, 4)
    of the filtered system on the stored modes, from the shared symbols
    `EigenBasis.pa` and `FormEngine.a2_diag`."""
    g = eng.geometry
    mats = eng.basis.pa[:, :, g.N :].reshape(-1, 4, 4) * (-1.0 / eps)
    for j in range(3):
        mats[:, j, j] += eng.a2_diag.reshape(-1)
    return mats


def _full_propagator(eng, eps, h):
    """The closed-form exp(h L) P (L, L, L, 4, 4) over the full lattice,
    from the full frame and the A2 symbol of the whole lattice."""
    basis, g = eng.basis, eng.geometry
    return solvers._propagator(basis.frame, basis.omega, -eng.nu * g.check_sq, eps, h)


class TestFilteredStepper:
    def test_pure_vertical_heat_is_exact(self, engine4, unit_torus_4):
        # underline data produces no transport, so the exact linear
        # propagator reproduces the heat factor to machine precision
        g = unit_torus_4
        V0 = single_mode_field(g, (0, 0, 1), [1.0, 0.5, 0, 0.25])
        st = FilteredStepper(engine4, eps=1e-2, dt=0.1)
        state = SimState(0.0, V0.copy(), 1.0, 1e-2)
        state = st.step(state, enforce_cfl=False)  # no advection in this data
        got = state.V.coeffs[stored(g, (0, 0, 1))]
        fac = math.exp(-1.0 * 0.1)
        want = np.array([fac, 0.5 * fac, 0, 0.25])
        assert np.max(np.abs(got - want)) < 1e-13

    def test_state_mismatch_rejected(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=60, amplitude=0.5)
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with pytest.raises(ValueError):
            st.step(SimState(0.0, V0, 1.0, 0.2))

    def test_state_on_another_geometry_rejected(self, engine4):
        # a state of the (1, 2, 3) torus with the unit torus's N: the
        # stepper once advanced it with the unit torus's symbols
        V0 = random_field(TorusGeometry((1, 2, 3), 4), seed=60, amplitude=0.5)
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with pytest.raises(ValueError, match="another geometry"):
            st.step(SimState(0.0, V0, 1.0, 0.1))

    def test_energy_identity_per_step(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=61, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        state = SimState(0.0, V0.copy(), 1.0, 1e-2)
        ledger = EnergyLedger(0.5 * l2_norm(V0) ** 2)
        for _ in range(20):
            state = st.step(state, ledger, enforce_cfl=False)
            assert ledger.drift(state.V) < 1e-6

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
            errs.append(l2_norm(sc.V - sr.V))
        order = math.log2(errs[0] / errs[1])
        assert order >= 3.7

    def test_cfl_violation_raises(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=63, amplitude=200.0)
        st = FilteredStepper(engine4, eps=0.1, dt=0.05)
        with pytest.raises(CFLViolation):
            st.step(SimState(0.0, V0, 1.0, 0.1))

    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3, math.inf])
    def test_stacked_propagators_match_per_mode_loop(self, eps):
        # the closed-form stacks exp(s dt L) P, s in (1/2, 1, -1), against
        # expm of the generator diag(A2) - (1/eps) PA built mode by mode
        # from the shared symbols; s = 0 is the Leray projector itself
        from scipy.linalg import expm

        from frspec.fields import leray_symbol

        dt = 1e-3
        for a_sq, N in [((1, 1, 1), 4), ((1, 2, 3), 5)]:
            eng = FormEngine(TorusGeometry(a_sq, N), nu=1.0)
            st = FilteredStepper(eng, eps=eps, dt=dt)
            P = leray_symbol(eng.geometry)
            assert st._prop[0.0] is P
            mats = _generator(eng, eps)
            for s in (0.5, 1.0, -1.0):
                want = np.array([expm(s * dt * m) @ p for m, p in zip(mats, P)])
                assert st._prop[s].shape == want.shape
                assert np.max(np.abs(st._prop[s] - want)) <= 1e-15

    @pytest.mark.parametrize("eps", [0.1, 1e-2, 1e-3])
    def test_squared_half_step_is_the_full_step_exponential(self, engine4, eps):
        # the half-step propagator squared stands for expm(dt M) P to
        # rounding, as the closed form at s = 1 does
        from scipy.linalg import expm

        st = FilteredStepper(engine4, eps=eps, dt=1e-3)
        want = expm(st.dt * _generator(engine4, eps)) @ st._prop[0.0]
        assert np.max(np.abs(st._prop[0.5] @ st._prop[0.5] - want)) <= 1e-15
        assert np.max(np.abs(st._prop[1.0] - want)) <= 1e-15

    @pytest.mark.parametrize("eps", [0.1, 1e-3, math.inf])
    def test_generator_is_built_from_the_shared_symbols(self, engine4, unit_torus_4, eps):
        # the real frame holds the generator diag(A2) - (1/eps) PA, built
        # from the one A2 symbol and the one PA stack, in the closed form's
        # blocks: F M F^T = [[-a, 0, 0], [0, -a, w], [0, -w, 0]] with
        # a = nu |ncheck|^2 and w = omega / eps, and F^T F is the Leray
        # projector
        from frspec.fields import leray_symbol

        g = unit_torus_4
        basis = EigenBasis.of(g)
        F = basis.frame[:, :, g.N :].reshape(-1, 3, 4)
        a = -engine4.a2_diag.reshape(-1)
        w = basis.omega[:, :, g.N :].reshape(-1) / eps
        want = np.zeros((len(a), 3, 3))
        want[:, 0, 0] = want[:, 1, 1] = -a
        want[:, 1, 2], want[:, 2, 1] = w, -w
        got = F @ _generator(engine4, eps) @ np.swapaxes(F, 1, 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        assert np.max(np.abs(np.swapaxes(F, 1, 2) @ F - leray_symbol(g))) <= 1e-15
        assert np.all(F[(g.N * g.L + g.N) * (g.N + 1)] == 0.0)  # n = 0
        assert np.array_equal(engine4.a2_diag, -engine4.nu * g.check_sq[..., g.N :])

    @pytest.mark.parametrize("eps", [0.1, 1e-3, math.inf])
    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_generator_at_minus_n_is_the_one_at_n(self, a_sq, N, eps):
        # the half stack serves n3 < 0 because the generator, built from
        # the shared symbols over the full lattice (the A2 symbol
        # -nu |ncheck|^2 of the whole lattice, whose stored half is
        # a2_diag), is even in n bit for bit, and so are the closed-form
        # propagators over the full frame (array_equal: an exact zero may
        # carry either sign), whose stored half the stepper holds byte for
        # byte
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=0.7)
        mats = eng.basis.pa.reshape(g.nmodes, 4, 4) * (-1.0 / eps)
        for j in range(3):
            mats[:, j, j] += (-eng.nu * g.check_sq).reshape(-1)
        full = mats.reshape(g.L, g.L, g.L, 4, 4)
        assert np.array_equal(full, full[::-1, ::-1, ::-1])
        st = FilteredStepper(eng, eps=eps, dt=1e-3)
        for s in (0.5, 1.0, -1.0):
            E = _full_propagator(eng, eps, s * 1e-3)
            assert np.array_equal(E, E[::-1, ::-1, ::-1])
            assert st._prop[s].tobytes() == E[:, :, N:].reshape(-1, 4, 4).tobytes()

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 8)])
    def test_inviscid_propagators_are_exactly_unitary(self, a_sq, N):
        # at nu = 0 the flow is a rotation of each wave pair by omega dt /
        # eps (up to 10 radians at eps = 1e-4): exp(dt L) P is orthogonal
        # on the divergence-free modes and exp(-dt L) P inverts it there,
        # to rounding
        eng = FormEngine(TorusGeometry(a_sq, N), nu=0.0)
        st = FilteredStepper(eng, eps=1e-4, dt=1e-3)
        E, back, P = st._prop[1.0], st._prop[-1.0], st._prop[0.0]
        assert np.max(np.abs(np.swapaxes(E, 1, 2) @ E - P)) <= 2e-15
        assert np.max(np.abs(back @ E - P)) <= 2e-15

    def test_critically_damped_mode(self, unit_torus_4):
        # at n = (1, 0, 0), nu = 2 and eps = 1: a = 2 and w = 1, so
        # mu^2 = a^2/4 - w^2 = 0 and the wave block is
        # exp(h G) = e^{-h} [[1 - h, h], [-h, 1 + h]]
        from scipy.linalg import expm

        g = unit_torus_4
        eng = FormEngine(g, nu=2.0)
        st = FilteredStepper(eng, eps=1.0, dt=1e-3)
        i = np.ravel_multi_index(stored(g, (1, 0, 0)), (g.L, g.L, g.N + 1))
        F = EigenBasis.of(g).frame[g.mode_index((1, 0, 0))]
        M = _generator(eng, 1.0)[i]
        for s in (0.5, 1.0, -1.0):
            h = s * st.dt
            B = np.zeros((3, 3))
            B[0, 0] = math.exp(-2.0 * h)
            B[1:, 1:] = math.exp(-h) * np.array([[1.0 - h, h], [-h, 1.0 + h]])
            assert np.max(np.abs(st._prop[s][i] - F.T @ B @ F)) <= 1e-15
            assert np.max(np.abs(st._prop[s][i] - expm(h * M) @ st._prop[0.0][i])) <= 1e-15

    def test_no_penalization_is_the_heat_flow(self, engine4, unit_torus_4):
        # at eps = inf (w = 0) the wave block is diag(e^{-a h}, 1): the
        # velocity decays at a = nu |ncheck|^2 and the density is kept
        g = unit_torus_4
        F = EigenBasis.of(g).frame[:, :, g.N :].reshape(-1, 3, 4)
        a = -engine4.a2_diag.reshape(-1)
        st = FilteredStepper(engine4, eps=math.inf, dt=1e-3)
        for s in (0.5, 1.0, -1.0):
            decay = np.exp(-a * s * st.dt)
            want = np.swapaxes(F, 1, 2) @ (np.stack([decay, decay, np.ones_like(a)], -1)[..., None] * F)
            assert np.max(np.abs(st._prop[s] - want)) <= 1e-15

    def test_nan_raises(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=64)
        V0.coeffs[4, 4, 1, 0] = np.nan
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with pytest.raises(NumericalError):
            st.step(SimState(0.0, V0, 1.0, 0.1))

    def test_overflow_is_a_numerical_error(self, engine4, unit_torus_4):
        # |V|^2 overflows but V is finite: stage 1's Hermitian check passes
        # it (its norms are NaN only for a NaN or inf input), and the
        # step's products overflow into the non-finite result it reports
        V0 = random_field(unit_torus_4, seed=64, amplitude=1e160)
        st = FilteredStepper(engine4, eps=0.1, dt=1e-3)
        with np.errstate(all="ignore"), pytest.raises(NumericalError):
            st.step(SimState(0.0, V0, 1.0, 0.1), enforce_cfl=False)

    @pytest.mark.parametrize(
        "eps, dt, name",
        [
            (-0.1, 1e-3, "eps"),
            (0.0, 1e-3, "eps"),
            (math.nan, 1e-3, "eps"),
            (-math.inf, 1e-3, "eps"),
            (0.1, 0.0, "dt"),
            (0.1, -1e-3, "dt"),
            (0.1, math.nan, "dt"),
            (0.1, math.inf, "dt"),
        ],
    )
    def test_invalid_parameters_rejected(self, engine4, eps, dt, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            FilteredStepper(engine4, eps=eps, dt=dt)

    @pytest.mark.parametrize("eps", [0.1, 1e-3])
    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_half_spectrum_step_has_the_bytes_of_the_full_lattice_step(self, a_sq, N, eps):
        # the step integrates the stored modes n3 >= 0; a step over all L^3
        # modes of the full lattice (the real per-mode matmul with P and
        # the closed-form exp(s dt L) P from the full frame, for a Leray
        # projector P = I - nhat nhat^T built over the whole lattice, the
        # public convolve on the stored modes mirrored back, unprojected)
        # gives the same V, byte for byte, and the same dissipation from
        # the norms of its stored modes
        from frspec.fields import apply_per_mode

        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        dt = 1e-3
        k = np.stack([np.broadcast_to(x, g.check_sq.shape).ravel() for x in g.check_grid], axis=-1)
        khat = k / np.sqrt(np.where(g.mask_zero, 1.0, g.check_sq)).reshape(-1, 1)
        P = np.zeros((g.nmodes, 4, 4))
        P[:, :3, :3] = np.eye(3) - khat[:, :, None] * khat[:, None, :]
        P[:, 3, 3] = 1.0
        P[(N * g.L + N) * g.L + N] = 0.0  # n = 0
        stacks = {0.0: P}
        for s in (0.5, 1.0, -1.0):
            stacks[s] = _full_propagator(eng, eps, s * dt).reshape(-1, 4, 4)

        apply = apply_per_mode

        def nonlinear(W, tau):
            return -full_lattice(convolve_quadratic(*[from_lattice(g, W)] * 2))

        def energy(W):
            return 0.5 * l2_norm(from_lattice(g, W)) ** 2

        def full_step(V, ledger):
            V_new, EfV = lawson_rk4(V, nonlinear, lambda s, W: apply(stacks[s], W), dt)
            d0 = energy(V) - energy(EfV)
            d1 = energy(apply(stacks[-1.0], V_new)) - energy(V_new)
            ledger.dissipated += 0.5 * (d0 + d1)
            return V_new

        V0 = random_field(g, seed=66, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(eng, eps=eps, dt=dt)
        state, ledger = SimState(0.0, V0, 1.0, eps), EnergyLedger(0.5 * l2_norm(V0) ** 2)
        V, ref = full_lattice(V0), EnergyLedger(ledger.e0)
        for _ in range(20):
            state = st.step(state, ledger, enforce_cfl=False)
            V = full_step(V, ref)
        assert state.V.coeffs.tobytes() == V[:, :, N:].tobytes()
        assert ledger.dissipated == ref.dissipated

    def test_divergence_free_preserved(self, engine4, unit_torus_4):
        from frspec.fields import divergence_max

        V0 = random_field(unit_torus_4, seed=65, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        state = SimState(0.0, V0, 1.0, 1e-2)
        for _ in range(10):
            state = st.step(state, enforce_cfl=False)
        assert divergence_max(state.V) < 1e-12
        assert state.V.zero_mean()


class TestUnderline:
    def test_heat_factor_example(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 1), [1, 0, 0, 0])
        out = solve_underline(f, nu=1.0, t=1.0)
        got = out.coeffs[4, 4, 1, 0]
        assert abs(got - math.exp(-1.0)) < 1e-12
        assert abs(got - 0.3678794412) < 1e-9

    def test_t0_identity_and_density_constant(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 2), [1, 2, 0, 5])
        out0 = solve_underline(f, nu=1.0, t=0.0)
        assert np.max(np.abs(out0.coeffs - f.coeffs)) < 1e-15
        out = solve_underline(f, nu=1.0, t=3.0)
        assert out.coeffs[4, 4, 2, 3] == f.coeffs[4, 4, 2, 3]

    def test_vertical_energy_balance(self, unit_torus_4):
        # |u(t)|_{Hs}^2 + 2 nu int_0^t |d3 u|_{Hs}^2 = |u(0)|_{Hs}^2
        g = unit_torus_4
        rng = np.random.default_rng(66)
        f = zero_field(g)
        f.coeffs[g.N, g.N, 1:, :2] = rng.standard_normal((g.N, 2))
        nu, t, s = 0.7, 0.9, 2.0
        k3 = g.n_axis.astype(float) / g.a[2]
        w = (1.0 + k3**2) ** s

        def hs_sq(field):
            line = full_lattice(field)[g.N, g.N, :, :2]
            return float(np.sum(w[:, None] * np.abs(line) ** 2))

        out = solve_underline(f, nu, t)
        # Simpson quadrature of the dissipation integral
        from scipy.integrate import simpson

        M = 2001
        taus = np.linspace(0.0, t, M)
        vals = []
        for tau in taus:
            ut = solve_underline(f, nu, tau)
            line = full_lattice(ut)[g.N, g.N, :, :2]
            vals.append(float(np.sum(w[:, None] * (k3**2)[:, None] * np.abs(line) ** 2)))
        integral = float(simpson(vals, x=taus))
        lhs = hs_sq(out) + 2 * nu * integral
        assert abs(lhs - hs_sq(f)) < 1e-10 * hs_sq(f)

    @pytest.mark.parametrize("a_sq, nu, t", [((1, 1, 1), 1.0, 0.5), ((1, 2, 3), 0.7, 1.3)])
    def test_heat_factor_is_the_a2_symbol(self, a_sq, nu, t):
        # one dissipation source: components 1 and 2 decay by exp(t A2) of
        # the engine's symbol on the vertical line, bit for bit
        g = TorusGeometry(a_sq, 4)
        f = decompose(random_field(g, seed=67, amplitude=1.0, spectrum_r=3.0)).underline
        out = solve_underline(f, nu, t)
        factor = np.exp(t * FormEngine(g, nu).a2_diag[g.N, g.N])
        line = f.coeffs[g.N, g.N]
        assert np.max(np.abs(line[:, :2])) > 0
        for c in (0, 1):
            assert np.array_equal(out.coeffs[g.N, g.N, :, c], factor * line[:, c])
        assert np.array_equal(out.coeffs[g.N, g.N, :, 3], line[:, 3])

    def test_rejects_third_component(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 1), [0, 0, 1, 0])
        with pytest.raises(ValueError):
            solve_underline(f, nu=1.0, t=0.5)


class TestLimitSteppers:
    def test_zero_data_stays_zero(self, engine4, unit_torus_4):
        st = LimitStepper(engine4, 1e-2, zero_field(unit_torus_4))
        s = LimitState(0.0, coefficients(zero_field(unit_torus_4)))
        s = st.step(s)
        L, N = unit_torus_4.L, unit_torus_4.N
        assert s.C.shape == (3, L, L, N + 1) and not np.any(s.C)

    @pytest.mark.parametrize("dt", [0.0, -5e-3, math.nan, math.inf])
    def test_invalid_step_size_rejected(self, engine4, unit_torus_4, dt):
        with pytest.raises(ValueError, match="^dt must be positive"):
            LimitStepper(engine4, dt, zero_field(unit_torus_4))
        with pytest.raises(ValueError, match="^dt must be positive"):
            solve_limit(engine4, zero_field(unit_torus_4), T=0.01, dt=dt)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            (dict(T=-1.0), "^T must be positive and finite"),
            (dict(T=0.0), "^T must be positive and finite"),
            (dict(T=math.nan), "^T must be positive and finite"),
            (dict(T=math.inf), "^T must be positive and finite"),
            (dict(T=0.01, snapshot_every=0), "^snapshot_every must be an integer >= 1"),
            (dict(T=0.01, snapshot_every=-2), "^snapshot_every must be an integer >= 1"),
            (dict(T=0.01, snapshot_every=1.5), "^snapshot_every must be an integer >= 1"),
            (dict(T=0.012), "^T must be a whole number of steps"),
            (dict(T=0.001), "^T must be a whole number of steps"),
        ],
        ids=["T-negative", "T-zero", "T-nan", "T-inf", "every-0", "every-negative", "every-float",
             "T-between-steps", "T-below-one-step"],
    )
    def test_invalid_horizon_or_snapshot_stride_rejected(self, engine4, unit_torus_4, kwargs, message):
        # these once returned a one-snapshot trajectory (T = -1), raised
        # from int(round(T / dt)) or from the stride's modulo, stopped at
        # t = 0.01 short of T = 0.012, or returned no step at all (T = 0.001)
        with pytest.raises(ValueError, match=message):
            solve_limit(engine4, zero_field(unit_torus_4), dt=5e-3, **kwargs)

    def test_underline_on_another_geometry_rejected(self, engine4):
        und = single_mode_field(TorusGeometry((1, 2, 3), 4), (0, 0, 1), [1.0, 0, 0, 0])
        with pytest.raises(ValueError, match="another geometry"):
            LimitStepper(engine4, 1e-2, und)

    def test_cfl_violation_raises(self, engine4, unit_torus_4):
        # the guard bounds the total limit velocity, underline included
        g = unit_torus_4
        und = single_mode_field(g, (0, 0, 1), [200.0, 0, 0, 0])
        st = LimitStepper(engine4, 1e-2, und)
        with pytest.raises(CFLViolation):
            st.step(LimitState(0.0, coefficients(zero_field(g))))
        V = random_field(g, seed=63, amplitude=200.0)
        st = LimitStepper(engine4, 1e-2, zero_field(g))
        with pytest.raises(CFLViolation):
            st.step(LimitState(0.0, coefficients(V)))

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
                f.coeffs[n1 + g.N, n2 + g.N, 0] += amp * t.e0
        plane = f.coeffs[:, :, 0]
        plane[:] = 0.5 * (plane + np.conj(plane[::-1, ::-1]))  # the real field
        bar0 = bar_part(f)
        dt = 2e-3
        st = LimitStepper(eng, dt, zero_field(g))
        s = LimitState(0.0, coefficients(bar0))
        diss = 0.0
        ksq = g.check_sq[..., g.N :]
        H = np.exp(-1.0 * ksq * dt)[..., None]
        Hinv = np.exp(1.0 * ksq * dt)[..., None]
        for _ in range(50):
            before = _bar(g, s.C).coeffs
            s = st.step(s)
            # exact linear dissipation by polarization, averaged over the two
            # endpoint placements of the nonlinear displacement
            z = Hinv * _bar(g, s.C).coeffs - before
            d0 = _energy(g, before) - _energy(g, H * before)
            bz = before + z
            d1 = _energy(g, bz) - _energy(g, H * bz)
            diss += 0.5 * (d0 + d1)
        drift = abs(0.5 * l2_norm(_bar(g, s.C)) ** 2 + diss - 0.5 * l2_norm(bar0) ** 2)
        assert drift < 1e-6 * 0.5 * l2_norm(bar0) ** 2
        # the flow stays x3-independent
        off = _bar(g, s.C).coeffs
        off[:, :, 0, :] = 0.0
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
        s = LimitState(0.0, coefficients(osc0))
        for _ in range(10):
            s = st.step(s)
        fac = math.exp(-1.0 * 2.0 * 0.1 / 2.0)  # |ncheck|^2 = 2, t = 0.1
        want = fac * osc0.coeffs
        assert np.max(np.abs(_osc(g, s.C).coeffs - want)) < 1e-12

    def test_osc_l2_balance_on_resonant_torus(self):
        # nonempty resonant set: the restricted transport moves no energy
        g = TorusGeometry((1, 1, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=69, amplitude=1.0, spectrum_r=2.0)
        osc0 = decompose(V).osc
        dt = 2e-3
        st = LimitStepper(eng, dt, zero_field(g))
        s = LimitState(0.0, coefficients(osc0))
        basis_e = eng.basis
        vshare = np.einsum(
            "xyzj,xyzj->xyz", basis_e.ep[..., :3], np.conj(basis_e.ep[..., :3])
        ).real
        lam = (g.check_sq * vshare)[..., g.N :]
        H = np.exp(-1.0 * lam * dt)[..., None]
        Hinv = np.exp(1.0 * lam * dt)[..., None]
        diss = 0.0
        for _ in range(50):
            before = _osc(g, s.C).coeffs
            s = st.step(s)
            z = Hinv * _osc(g, s.C).coeffs - before
            d0 = _energy(g, before) - _energy(g, H * before)
            bz = before + z
            d1 = _energy(g, bz) - _energy(g, H * bz)
            diss += 0.5 * (d0 + d1)
        drift = abs(0.5 * l2_norm(_osc(g, s.C)) ** 2 + diss - 0.5 * l2_norm(osc0) ** 2)
        assert drift < 1e-8 * 0.5 * l2_norm(osc0) ** 2

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_heat_factor_step_has_the_bytes_of_the_two_propagator_formula(self, a_sq, N):
        # lawson_rk4 with the heat factors and prop(0) the identity, called
        # directly and through LimitStepper.step, makes the arithmetic of
        # the scheme written with separate half and full propagators
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=71, amplitude=1.0, spectrum_r=3.0)
        dt = 5e-3
        st = LimitStepper(eng, dt, decompose(V).underline)
        half, full = np.exp((0.5 * dt) * eng.limit_symbol), np.exp(dt * eng.limit_symbol)
        heat = {0.5: half, 1.0: full}
        s = LimitState(0.0, coefficients(V))
        x = s.C
        for _ in range(3):
            t = s.t

            def rhs(C, tau):
                und = solve_underline(st.und0, eng.nu, t + tau)
                return -(eng.q_tilde1(C) + eng.q_tilde2(und, C))

            k1 = rhs(x, 0.0)
            ka = rhs(half * (x + (0.5 * dt) * k1), 0.5 * dt)
            kb = rhs(half * x + (0.5 * dt) * ka, 0.5 * dt)
            kc = rhs(full * x + dt * (half * kb), dt)
            want = full * x + (dt / 6.0) * (full * k1 + 2.0 * (half * (ka + kb)) + kc)
            got, full_x = lawson_rk4(x, rhs, lambda frac, C: heat[frac] * C if frac else C, dt)
            s = st.step(s)
            assert got.tobytes() == want.tobytes() and full_x.tobytes() == (full * x).tobytes()
            assert s.C.tobytes() == want.tobytes()
            x = want

    def test_single_wave_mode_feels_no_nonlinearity(self):
        g = TorusGeometry((1, 1, 1), 2)
        eng = FormEngine(g, nu=1.0)
        t = eigenbasis(g, (2, 2, 2))
        osc0 = single_mode_field(g, (2, 2, 2), t.ep)
        nl = eng.q_tilde1(coefficients(osc0))
        assert np.linalg.norm(nl) < 1e-14


class TestSolveLimit:
    def test_initial_data_on_another_geometry_rejected(self):
        # the (1, 2, 3) engine once ran on unit-torus data of the same N
        eng = FormEngine(TorusGeometry((1, 2, 3), 4), nu=1.0)
        V0 = random_field(TorusGeometry((1, 1, 1), 4), seed=70, amplitude=1.0, spectrum_r=3.0)
        with pytest.raises(ValueError, match="another geometry"):
            solve_limit(eng, V0, T=0.01, dt=5e-3)

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
        for C in traj.C:
            bar, osc = _bar(unit_torus_4, C), _osc(unit_torus_4, C)
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
            rhs = engine4.q_limit(U) - engine4.a2_limit(U)
            worst = max(worst, l2_norm(dU + rhs))
        assert worst < 1e-4

    def test_matches_two_call_wave_forcing(self, monkeypatch):
        # oracle: the nonlinearity on fields, with the wave forcing as the
        # wave rows of two q_tilde1 evaluations per stage, on the stacks of
        # the fields o + b and b (by polarization, q(o, o) + 2 q(b, o) =
        # q(o + b) - q(b)), and the e_0 row as the Leray-projected FFT
        # advection by bar + underline
        class TwoCallStepper(LimitStepper):
            calls = 0

            def _rhs(self, C, und):
                TwoCallStepper.calls += 1
                eng, g = self.engine, self.geometry
                bar = field_from_coefficients(g, {0: C[0]})
                osc = field_from_coefficients(g, {1: C[1], -1: C[-1]})
                nl = eng.q_tilde1(coefficients(bar + osc)) - eng.q_tilde1(coefficients(bar))
                nl[0] = 0.0
                adv = convolve_quadratic(bar + und, bar, stencil="horizontal")
                field = bar_part(leray_project(adv, check_mean=False))
                return -1.0 * (coefficients(field) + nl + eng.b_form(und, C))

        g = TorusGeometry((1, 2, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V0 = random_field(g, seed=73, amplitude=1.0, spectrum_r=3.0)
        got = solve_limit(eng, V0, T=0.05, dt=5e-3)
        monkeypatch.setattr("frspec.solvers.LimitStepper", TwoCallStepper)
        want = solve_limit(eng, V0, T=0.05, dt=5e-3)
        assert TwoCallStepper.calls == 4 * 10  # the oracle ran every stage
        assert len(got.times) == len(want.times) == 11
        for x, y in zip(got.C, want.C):
            for rows in (slice(0, 1), slice(1, 3)):  # the bar part, the waves
                assert np.linalg.norm(x[rows] - y[rows]) <= 1e-12 * np.linalg.norm(y[rows])


    def test_step_forces_the_waves_by_one_self_interaction(self, monkeypatch):
        # every stage forms one resonant row product, on its own stack
        seen = []
        row_products = FormEngine._row_products

        def spy(self, C, tab):
            g = self.geometry
            seen.append(C.shape == (3, g.L, g.L, g.N + 1) and tab is self.tables[0])
            return row_products(self, C, tab)

        g = TorusGeometry((1, 2, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=86, amplitude=1.0, spectrum_r=3.0)
        stepper = LimitStepper(eng, 5e-3, decompose(V).underline)
        monkeypatch.setattr(FormEngine, "_row_products", spy)
        stepper.step(LimitState(0.0, coefficients(V)))
        assert seen == [True] * 4

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 2, 3), 8)])
    def test_rhs_is_minus_q_limit(self, a_sq, N):
        # the stepper's nonlinearity and the limit form run the same kernels
        # on the same operands: on the coefficient stack they agree to
        # rounding (7.5e-16 of max |q| at (1,2,3)/N8)
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=87, amplitude=1.0, spectrum_r=3.0)
        und = decompose(V).underline
        q = coefficients(eng.q_limit(V))
        rhs = LimitStepper(eng, 5e-3, und)._rhs(coefficients(V), und)
        assert np.max(np.abs(q)) > 0
        assert np.max(np.abs(q + rhs)) <= 1e-14 * np.max(np.abs(q))


class TestStepWork:
    """Each stepper keeps the variable it integrates, so a step converts
    between frames nowhere.  Counted through the names `frspec.solvers`
    and `frspec.forms` bind."""

    @staticmethod
    def _count(monkeypatch, name, module=solvers):
        calls = []
        fn = getattr(module, name)

        def counting(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        return calls

    @staticmethod
    def _components(monkeypatch, name):
        """The components of each batch passed to fields.<name>."""
        seen = []
        fn = getattr(fields, name)

        def counting(g, x, *args):
            seen.append(len(x))
            out = fn(g, x, *args)
            if name == "_from_grid":  # the native layout [n2, n3, n1]
                assert out.shape == (len(x), g.L, g.N + 1, g.L)
            return out

        monkeypatch.setattr(fields, name, counting)
        return seen

    def test_filtered_step_applies_no_filter(self, engine4, unit_torus_4, monkeypatch):
        V0 = random_field(unit_torus_4, seed=87, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        calls = self._count(monkeypatch, "apply_filter")
        state = st.step(SimState(0.3, V0, 1.0, 1e-2), EnergyLedger(0.5 * l2_norm(V0) ** 2))
        assert calls == [] and state.t == 0.3 + 1e-3

    @pytest.mark.parametrize("enforce_cfl, inverse", [(False, [4] * 4), (True, [3] + [4] * 4)], ids=["no-cfl", "cfl"])
    def test_filtered_step_work(self, engine4, unit_torus_4, monkeypatch, enforce_cfl, inverse):
        # every stage is one public convolve with no projection; the step
        # makes 7 per-mode passes: (x, k1) at s = 1 and (x + dt/2 k1, x) at
        # s = 1/2 stacked, P ka, E_half P kb, E_half P (ka + kb), P on the
        # new state and the ledger's exp(-dt L) V_new, and no zero-mean
        # check; one inverse transform of the 4 components and one forward
        # of the 9 distinct products per stage (the CFL bound samples the 3
        # velocity components of V once more)
        V0 = random_field(unit_torus_4, seed=87, amplitude=1.0, spectrum_r=3.0)
        st = FilteredStepper(engine4, eps=1e-2, dt=1e-3)
        convolves = self._count(monkeypatch, "convolve_quadratic")
        passes = self._count(monkeypatch, "apply_per_mode")
        projections = self._count(monkeypatch, "leray_project", fields)
        means = self._count(monkeypatch, "zero_mean", SpectralField4)
        filters = self._count(monkeypatch, "apply_filter")
        inv = self._components(monkeypatch, "_to_grid")
        fwd = self._components(monkeypatch, "_from_grid")
        st.step(SimState(0.0, V0, 1.0, 1e-2), EnergyLedger(1.0), enforce_cfl=enforce_cfl)
        assert (len(convolves), len(passes), len(filters)) == (4, 7, 0)
        assert (len(projections), len(means)) == (0, 0)
        assert (inv, fwd) == (inverse, [9] * 4)

    def test_limit_step_reads_the_underline_line(self, monkeypatch):
        # per step: the exact underline state once at each of the three
        # distinct stage times t, t + dt/2 and t + dt (the one at t also
        # serves the CFL check); the forms read its vertical line directly
        g = TorusGeometry((1, 2, 3), 8)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=88, amplitude=1.0, spectrum_r=3.0)
        stepper = LimitStepper(eng, 5e-3, decompose(V).underline)
        calls = self._count(monkeypatch, "underline_part")
        calls_forms = self._count(monkeypatch, "underline_part", forms)
        times = []
        solve = solvers.solve_underline

        def spy(U0, nu, t):
            times.append(t)
            return solve(U0, nu, t)

        monkeypatch.setattr(solvers, "solve_underline", spy)
        stepper.step(LimitState(0.25, coefficients(V)))
        assert (len(calls), len(calls_forms)) == (3, 0)
        assert times == [0.25, 0.25 + 2.5e-3, 0.25 + 5e-3]

    def test_limit_step_assembles_one_field_for_its_cfl_check(self, monkeypatch):
        # the right-hand side is the limit forms' own: the stepper assembles
        # one field, for the CFL velocity, and converts nothing to
        # coefficients; the forms assemble one bar field per stage and make
        # no coefficients call either
        g = TorusGeometry((1, 2, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=88, amplitude=1.0, spectrum_r=3.0)
        stepper = LimitStepper(eng, 5e-3, decompose(V).underline)
        C0 = coefficients(V)
        to_c = self._count(monkeypatch, "coefficients")
        to_field = self._count(monkeypatch, "field_from_coefficients")
        to_c_forms = self._count(monkeypatch, "coefficients", forms)
        to_field_forms = self._count(monkeypatch, "field_from_coefficients", forms)
        s = stepper.step(LimitState(0.0, C0))
        assert len(to_c) == 0 and len(to_field) == 1
        assert len(to_c_forms) == 0 and len(to_field_forms) == 4
        assert s.C.shape == C0.shape

    def test_limit_stage_makes_one_horizontal_convolve_on_one_operand(self, monkeypatch):
        # per stage: the bar x bar advection, one operand object in both
        # slots; the underline advection is a sum along n3, and no stage
        # makes a full-stencil transport
        g = TorusGeometry((1, 2, 3), 3)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=88, amplitude=1.0, spectrum_r=3.0)
        stepper = LimitStepper(eng, 5e-3, decompose(V).underline)
        calls = []

        def conv(A, B, stencil="full"):
            calls.append((A is B, stencil))
            return convolve_quadratic(A, B, stencil)

        for mod in (forms, solvers):
            monkeypatch.setattr(mod, "convolve_quadratic", conv)
        monkeypatch.setattr(forms, "transport", lambda A, B: pytest.fail("a limit stage made a transport"))
        stepper.step(LimitState(0.0, coefficients(V)))
        assert calls == [(True, "horizontal")] * 4

    def test_solve_limit_stores_one_stack_per_snapshot(self, engine4, unit_torus_4):
        V0 = random_field(unit_torus_4, seed=89, amplitude=1.0, spectrum_r=3.0)
        traj = solve_limit(engine4, V0, T=0.05, dt=1e-2, snapshot_every=2)
        assert traj.times == pytest.approx([0.0, 0.02, 0.04, 0.05])
        assert [k for k, v in vars(traj).items() if isinstance(v, list)] == ["times", "C"]
        L, N = unit_torus_4.L, unit_torus_4.N
        assert all(type(C) is np.ndarray and C.shape == (3, L, L, N + 1) for C in traj.C)
        assert len(traj.C) == len(traj.times)


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
        # v3 stores the stepper's own variable V, so it comes back bit for bit
        V = random_field(unit_torus_4, seed=75)
        state = SimState(0.375, V, nu=0.7, eps=1e-2)
        p = tmp_path / "state.frsp"
        write_checkpoint(p, state)
        back = read_checkpoint(p)
        assert np.array_equal(back.V.coeffs, state.V.coeffs)
        assert back.t == state.t and back.nu == state.nu and back.eps == state.eps
        assert back.geometry == unit_torus_4
        raw = p.read_bytes()
        assert raw[:8] == b"FRSP" + struct.pack("<I", 3)
        L, N = unit_torus_4.L, unit_torus_4.N
        assert len(raw) == 112 + L**3 * 4 * 16
        # the payload is the full lattice: the stored modes, bit for bit, and
        # their mirrors
        payload = np.frombuffer(raw[112:], dtype="<c16").reshape(L, L, L, 4)
        assert payload[:, :, N:].tobytes() == V.coeffs.tobytes()
        assert np.array_equal(payload, full_lattice(V))

    def test_bad_magic_rejected(self, tmp_path):
        p = tmp_path / "junk.frsp"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="bad magic") as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    def test_truncated_payload_names_the_file(self, tmp_path, unit_torus_4):
        p = tmp_path / "cut.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=77), nu=1.0, eps=0.1))
        p.write_bytes(p.read_bytes()[:200])
        want = unit_torus_4.L**3 * 4 * 16
        with pytest.raises(ValueError) as err:
            read_checkpoint(p)
        msg = str(err.value)
        assert str(p) in msg and "88 bytes" in msg and f"expected {want}" in msg

    @pytest.mark.parametrize("cut", [6, 30])
    def test_truncated_header_names_the_file(self, tmp_path, unit_torus_4, cut):
        p = tmp_path / "cut.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=77), nu=1.0, eps=0.1))
        p.write_bytes(p.read_bytes()[:cut])
        with pytest.raises(ValueError) as err:
            read_checkpoint(p)
        msg = str(err.value)
        assert str(p) in msg and f"{cut} bytes" in msg and "expected 112" in msg

    def test_infinite_eps_round_trips(self, tmp_path, unit_torus_4):
        V = random_field(unit_torus_4, seed=76)
        state = SimState(0.375, V, nu=1.0, eps=math.inf)
        p = tmp_path / "inf.frsp"
        write_checkpoint(p, state)
        back = read_checkpoint(p)
        assert math.isinf(back.eps) and back.t == 0.375
        assert np.array_equal(back.V.coeffs, V.coeffs)

    @pytest.mark.parametrize(
        "a1_sq",
        [Fraction(123456789, 1000), Fraction(1) + Fraction(1, 10**12), Fraction(1, 10**10)],
        ids=["big-denominator", "one-plus-1e-12", "1e-10"],
    )
    def test_rational_periods_round_trip_exactly(self, tmp_path, a1_sq):
        # the float periods cannot tell these squared periods from their
        # neighbours; the v2 header stores the exact fractions
        g = TorusGeometry((a1_sq, 2, 3), 2)
        V = random_field(g, seed=78)
        p = tmp_path / "exact.frsp"
        write_checkpoint(p, SimState(0.5, V, nu=1.0, eps=0.1))
        back = read_checkpoint(p)
        assert back.geometry.a_sq == (a1_sq, Fraction(2), Fraction(3))
        assert back.geometry == g and np.array_equal(back.V.coeffs, V.coeffs)
        assert len(p.read_bytes()) == 112 + g.L**3 * 4 * 16

    @staticmethod
    def _v1_file(path, g, U, eps=0.1):
        header = b"FRSP" + struct.pack("<I", 1)
        header += struct.pack("<7d", float(g.N), *g.a, 0.7, eps, 0.25)
        path.write_bytes(header + full_lattice(U).astype("<c16").tobytes())

    @staticmethod
    def _v2_file(path, g, U, eps=0.1):
        # the v2 layout: the v1 fields, the exact a_i^2, then U
        header = b"FRSP" + struct.pack("<I", 2)
        header += struct.pack("<7d", float(g.N), *g.a, 0.7, eps, 0.25)
        header += struct.pack("<6Q", *(x for r in g.a_sq for x in (r.numerator, r.denominator)))
        assert len(header) == 112
        path.write_bytes(header + full_lattice(U).astype("<c16").tobytes())

    def test_v2_payload_reads_as_V(self, tmp_path):
        # v1 and v2 files store the filtered unknown U; they read as
        # V = L(t/eps) U, exactly as apply_filter forms it
        g = TorusGeometry((1, 2, 3), 2)
        U = random_field(g, seed=79)
        p = tmp_path / "v2.frsp"
        self._v2_file(p, g, U)
        back = read_checkpoint(p)
        assert back.geometry == g
        assert np.array_equal(back.V.coeffs, apply_filter(0.25 / 0.1, U).coeffs)
        assert not np.array_equal(back.V.coeffs, U.coeffs)
        assert (back.t, back.nu, back.eps) == (0.25, 0.7, 0.1)

    @pytest.mark.parametrize("eps", [0.0, -0.1, math.nan])
    def test_nonpositive_eps_is_rejected(self, tmp_path, eps):
        g = TorusGeometry((1, 2, 3), 2)
        p = tmp_path / "eps.frsp"
        self._v2_file(p, g, random_field(g, seed=83), eps=eps)
        with pytest.raises(ValueError, match="not positive") as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize("N", [math.inf, math.nan, 2.5, 0.0])
    def test_truncation_must_be_a_positive_integer(self, tmp_path, N):
        p = tmp_path / "N.frsp"
        write_checkpoint(p, SimState(0.0, random_field(TorusGeometry((1, 2, 3), 2), seed=84), nu=1.0, eps=0.1))
        raw = bytearray(p.read_bytes())
        raw[8:16] = struct.pack("<d", N)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="not an integer >= 1") as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize(
        "offset, value, message",
        [(40, -1.0, "nu = -1.0 is not"), (40, math.nan, "nu = nan is not"), (40, math.inf, "nu = inf is not"),
         (56, math.nan, "t = nan is not"), (56, math.inf, "t = inf is not")],
        ids=["nu-negative", "nu-nan", "nu-inf", "t-nan", "t-inf"],
    )
    def test_header_nu_and_t_are_checked(self, tmp_path, unit_torus_4, offset, value, message):
        # nu (bytes 40-47) must lie in [0, inf) and t (bytes 56-63) be
        # finite, as the configuration requires of its own values
        p = tmp_path / "head.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=85), nu=1.0, eps=0.1))
        raw = bytearray(p.read_bytes())
        raw[offset : offset + 8] = struct.pack("<d", value)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match=message) as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    @pytest.mark.parametrize(
        "mode, value",
        [((1, 2, 1), 0.5), ((1, 2, 1), np.nan), ((1, 2, 6), np.nan), ((4, 4, 4), np.inf)],
        ids=["n3<0-perturbed", "n3<0-nan", "n3>0-nan", "zero-mode-inf"],
    )
    def test_payload_must_be_a_real_field(self, tmp_path, unit_torus_4, mode, value):
        # the reader keeps the modes n3 >= 0 only, so a payload whose n3 < 0
        # half is not their mirror, or that holds a NaN or inf, is refused
        # (full-lattice indices n + N)
        p = tmp_path / "payload.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=86), nu=1.0, eps=0.1))
        L = unit_torus_4.L
        raw = bytearray(p.read_bytes())
        payload = np.frombuffer(raw, dtype="<c16", offset=112).reshape(L, L, L, 4).copy()
        payload[mode + (0,)] += value
        p.write_bytes(bytes(raw[:112]) + payload.tobytes())
        with pytest.raises(ValueError, match="payload is not a real field") as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    def test_v1_files_stay_readable(self, tmp_path):
        g = TorusGeometry((1, 2, 3), 2)
        V = random_field(g, seed=79)
        p = tmp_path / "v1.frsp"
        self._v1_file(p, g, V)
        back = read_checkpoint(p)
        assert back.geometry == g
        assert np.array_equal(back.V.coeffs, apply_filter(0.25 / 0.1, V).coeffs)
        assert (back.t, back.nu, back.eps) == (0.25, 0.7, 0.1)

    def test_v1_unrecoverable_periods_name_the_file(self, tmp_path):
        g = TorusGeometry((Fraction(1, 10**10), 2, 3), 2)
        p = tmp_path / "tiny.frsp"
        self._v1_file(p, g, random_field(g, seed=80))
        with pytest.raises(ValueError) as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    def test_unsupported_version_rejected(self, tmp_path, unit_torus_4):
        p = tmp_path / "v9.frsp"
        write_checkpoint(p, SimState(0.0, random_field(unit_torus_4, seed=81), nu=1.0, eps=0.1))
        raw = bytearray(p.read_bytes())
        raw[4:8] = struct.pack("<I", 9)
        p.write_bytes(bytes(raw))
        with pytest.raises(ValueError, match="unsupported version 9") as err:
            read_checkpoint(p)
        assert str(p) in str(err.value)

    def test_periods_beyond_64_bits_are_refused(self, tmp_path):
        g = TorusGeometry((Fraction(1 << 64, 3), 2, 3), 2)
        p = tmp_path / "wide.frsp"
        with pytest.raises(ValueError, match="64-bit"):
            write_checkpoint(p, SimState(0.0, random_field(g, seed=82), nu=1.0, eps=0.1))
        assert not p.exists()
