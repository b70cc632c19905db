"""Eigen structure of the projected buoyancy operator and the filtering group."""

import itertools

import numpy as np
import pytest

from frspec.fields import l2_norm, leray_project, single_mode_field, sobolev_norm
from frspec.geometry import TorusGeometry
from frspec.waves import (
    F_BASIS,
    EigenBasis,
    apply_filter,
    apply_pa,
    coefficients,
    decompose,
    eigenbasis,
    pa_symbol,
)

from conftest import full_lattice, full_stack, random_field, stored


class TestSymbol:
    def test_vertical_mode_matrix(self, unit_torus_4):
        m = pa_symbol(unit_torus_4, (0, 0, 1))
        want = np.zeros((4, 4))
        want[3, 2] = -1.0
        assert np.array_equal(m, want)

    def test_horizontal_mode(self, unit_torus_4):
        m = pa_symbol(unit_torus_4, (1, 0, 0))
        # fourth column: buoyancy pushes vertically, fully solenoidal here
        assert np.allclose(m[:, 3], [0, 0, 1, 0])
        assert m[3, 2] == -1.0

    def test_range_orthogonal_to_frequency(self, unit_torus_4):
        rng = np.random.default_rng(0)
        for n in [(1, 2, 3), (0, 1, -4), (-2, 0, 1)]:
            m = pa_symbol(unit_torus_4, n)
            kc = np.append(np.asarray(n, dtype=float) / unit_torus_4.a, 0.0)
            x = rng.standard_normal(4)
            assert abs(kc @ (m @ x)) < 1e-13

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_symbol_is_the_shared_stack(self, a_sq, N):
        # one PA symbol: pa_symbol reads EigenBasis.pa, built from the same
        # formulas, at every mode; apply_pa applies it mode by mode
        g = TorusGeometry(a_sq, N)
        pa = EigenBasis.of(g).pa
        assert pa.shape == (g.L,) * 3 + (4, 4)
        for n in itertools.product(range(-N, N + 1), repeat=3):
            if n == (0, 0, 0):
                continue
            kc = np.asarray(n, dtype=float) / g.a
            ksq = float(kc @ kc)
            want = np.zeros((4, 4))
            want[:3, 3] = -kc * kc[2] / ksq
            want[2, 3] += 1.0
            want[3, 2] = -1.0
            got = pa_symbol(g, n)
            assert np.array_equal(got, pa[tuple(c + N for c in n)])
            assert np.max(np.abs(got - want)) <= 1e-15, n
        assert np.all(pa[N, N, N] == 0.0)
        f = random_field(g, seed=20)
        want = np.einsum("xyzij,xyzj->xyzi", pa[:, :, N:], f.coeffs)
        assert np.array_equal(apply_pa(f).coeffs, want)

    def test_mode_outside_the_truncation_rejected(self, unit_torus_4):
        with pytest.raises(ValueError, match="outside the truncation"):
            pa_symbol(unit_torus_4, (5, 0, 0))

    @pytest.mark.parametrize("n", [(5, 0, 1), (-5, 0, 1), (0, 0, 5), (0, 0, -5), (1, -7, 2)])
    @pytest.mark.parametrize("fn", [pa_symbol, eigenbasis], ids=["pa_symbol", "eigenbasis"])
    def test_modes_past_either_edge_rejected(self, unit_torus_4, fn, n):
        # a negative entry would wrap around to another mode's data, a
        # positive one would overrun the stack
        with pytest.raises(ValueError, match=rf"mode \({n[0]}, {n[1]}, {n[2]}\) lies outside the truncation N = 4"):
            fn(unit_torus_4, n)

    def test_zero_mode_rejected(self, unit_torus_4):
        with pytest.raises(ValueError):
            pa_symbol(unit_torus_4, (0, 0, 0))
        with pytest.raises(ValueError):
            eigenbasis(unit_torus_4, (0, 0, 0))


class TestEigenbasis:
    def test_paper_e0_example(self, unit_torus_4):
        t = eigenbasis(unit_torus_4, (3, 4, 0))
        assert t.omega == pytest.approx(1.0)
        assert np.allclose(t.e0, [-0.8, 0.6, 0, 0])

    def test_mode_101(self, unit_torus_4):
        # omega = 1/sqrt(2); e_+ is fixed by requiring PA e_+ = -i omega e_+,
        # which selects the conjugate of the naive reading of the printed
        # eigenvector table (see the generator test below).
        t = eigenbasis(unit_torus_4, (1, 0, 1))
        assert t.omega == pytest.approx(1 / np.sqrt(2))
        assert np.allclose(t.ep, [-0.5j, 0, 0.5j, 1 / np.sqrt(2)])
        assert np.allclose(t.em, np.conj(t.ep))

    def test_vertical_line_basis(self, unit_torus_4):
        t = eigenbasis(unit_torus_4, (0, 0, 2))
        assert t.omega == 0.0
        assert np.array_equal(
            t.f,
            np.array([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=float),
        )

    @pytest.mark.parametrize("a_sq", [(1, 1, 1), (1, 4, 1)])
    def test_orthonormal_eigenrelation_sweep(self, a_sq):
        g = TorusGeometry(a_sq, 4)
        b = EigenBasis.of(g)
        worst_orth = worst_eig = 0.0
        for n in itertools.product(range(-4, 5), repeat=3):
            if n == (0, 0, 0) or (n[0] == 0 and n[1] == 0):
                continue
            i = tuple(c + 4 for c in n)
            E = np.stack([b.e0[i], b.ep[i], b.em[i]])
            worst_orth = max(
                worst_orth, np.max(np.abs(E @ np.conj(E.T) - np.eye(3)))
            )
            m = pa_symbol(g, n)
            w = b.omega[i]
            worst_eig = max(
                worst_eig,
                np.max(np.abs(m @ b.ep[i] + 1j * w * b.ep[i])),
                np.max(np.abs(m @ b.em[i] - 1j * w * b.em[i])),
                np.max(np.abs(m @ b.e0[i])),
            )
        assert worst_orth < 1e-14
        assert worst_eig < 1e-14


    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_real_frame_of_the_eigenbasis(self, a_sq, N):
        # the frame rows are e_0, t = -sqrt2 Im e_+ and f_4 = sqrt2 Re e_+
        # where n_h != 0, F_BASIS on the vertical line and zero at n = 0;
        # it is orthonormal, and P A rotates (t, f_4): P A t = omega f_4,
        # P A f_4 = -omega t, P A e_0 = 0
        g = TorusGeometry(a_sq, N)
        b = EigenBasis.of(g)
        F, osc = b.frame, b.mask_osc
        assert F.shape == (g.L,) * 3 + (3, 4) and F.dtype == np.float64
        assert np.array_equal(F[osc][:, 0], b.e0[osc].real)
        assert np.max(np.abs(F[osc][:, 1] + np.sqrt(2.0) * b.ep[osc].imag)) <= 1e-15
        assert np.max(np.abs(F[osc][:, 2] - np.sqrt(2.0) * b.ep[osc].real)) <= 1e-15
        vertical = g.mask_h_zero & ~g.mask_zero
        assert np.array_equal(F[vertical], np.broadcast_to(F_BASIS, (2 * N, 3, 4)))
        assert np.all(F[N, N, N] == 0.0)
        gram = F @ np.swapaxes(F, -1, -2)
        assert np.max(np.abs(gram[~g.mask_zero] - np.eye(3))) <= 1e-15
        PF = F @ np.swapaxes(b.pa, -1, -2)  # rows (P A f)^T
        w = b.omega[..., None]
        assert np.max(np.abs(PF[..., 0, :])) <= 1e-15
        assert np.max(np.abs(PF[..., 1, :] - w * F[..., 2, :])) <= 1e-15
        assert np.max(np.abs(PF[..., 2, :] + w * F[..., 1, :])) <= 1e-15


class TestSignIndexedLayout:
    """One stack of eigenvectors, rows (e_0, e_+, e_-), indexed by sign."""

    @pytest.fixture(
        scope="class",
        params=[((1, 1, 1), 4), ((1, 2, 3), 8), ((2, 3, 5), 6)],
        ids=["unit-4", "a123-8", "a235-6"],
    )
    def geometry(self, request):
        return TorusGeometry(*request.param)

    def test_rows_are_e0_ep_em(self, geometry):
        # conj(e_a) = e_-a: e_0 is real and e_- is stored as conj(e_+), so a
        # projection on e_a reads the row -a and no conjugate is stored
        b = EigenBasis.of(geometry)
        L = geometry.L
        assert b.evec.shape == (3, L, L, L, 4) and b.evec.dtype == np.complex128
        for a, e in ((0, b.e0), (1, b.ep), (-1, b.em)):
            assert np.shares_memory(b.evec[a], e) and np.array_equal(b.evec[a], e)
        assert b.evec[-1].tobytes() == np.conj(b.evec[1]).tobytes()
        for a in (0, 1, -1):
            assert np.array_equal(np.conj(b.evec[a]), b.evec[-a]), a

    def test_wave_velocity_share_is_one_half(self, geometry):
        # |e_pm^vel|^2 = |t|^2 / 2 = 1/2 on every wave mode, and the limit
        # dissipation symbol reads that exact half (zero on the vertical line)
        from frspec.forms import FormEngine

        b = EigenBasis.of(geometry)
        share = np.sum(np.abs(b.evec[1:, ..., :3]) ** 2, axis=-1)
        assert np.max(np.abs(share[:, b.mask_osc] - 0.5)) <= 4.4e-16
        assert np.all(share[:, ~b.mask_osc] == 0.0)
        eng = FormEngine(geometry, nu=0.7)
        N = geometry.N
        lam = eng.limit_symbol
        assert np.array_equal(lam[0], eng.a2_diag)
        for a in (1, -1):
            want = eng.a2_diag * share[a, ..., N:]
            assert np.max(np.abs(lam[a] - want)) <= 1e-15 * np.max(np.abs(want)), a
            assert np.all(lam[a][~b.mask_osc[..., N:]] == 0.0)

    def test_coefficients_are_the_projections_on_each_row(self, geometry):
        b = EigenBasis.of(geometry)
        for seed in (21, 22):
            V = random_field(geometry, seed=seed, spectrum_r=1.0)
            c = coefficients(V)
            N = geometry.N
            assert c.shape == (3, geometry.L, geometry.L, N + 1)
            for a in (0, 1, -1):
                want = np.einsum("xyzc,xyzc->xyz", full_lattice(V), np.conj(b.evec[a]))
                assert c[a].tobytes() == want[..., N:].tobytes(), a
                assert np.array_equal(full_stack(c)[a], want), a


class TestStackMirror:
    """`coefficients` evaluates the stored modes n3 >= 0, and the full
    lattice fills n3 < 0 by c_0(-n) = -conj c_0(n) and c_pm(-n) = conj c_mp(n);
    the oracle is the per-mode einsum over the mirrored full lattice, equal
    under ==."""

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 2, 3), 8), ((1, 4, 1), 6)])
    @pytest.mark.parametrize("steps", [0, 3], ids=["random", "stepped"])
    def test_coefficients_equal_the_full_lattice_einsum(self, a_sq, N, steps):
        from frspec.forms import FormEngine
        from frspec.solvers import FilteredStepper, SimState

        g = TorusGeometry(a_sq, N)
        evec_conj = np.conj(EigenBasis.of(g).evec)
        for seed in (23, 24):
            V = random_field(g, seed=seed, amplitude=1.0, spectrum_r=3.0)
            state = SimState(0.0, V, 1.0, 0.01)
            stepper = FilteredStepper(FormEngine(g, 1.0), eps=0.01, dt=1e-3) if steps else None
            for _ in range(steps):
                state = stepper.step(state, enforce_cfl=False)
            want = np.einsum("xyzc,sxyzc->sxyz", full_lattice(state.V), evec_conj)
            assert np.array_equal(full_stack(coefficients(state.V)), want)


class TestLerayKeepsTheKernelRow:
    """<P v, e_0> = <v, e_0>: the Leray projection P is self-adjoint per mode
    and P e_0 = e_0, so the limit stepper reads the e_0 row of its transport
    without projecting it."""

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_e0_row_of_leray_projection(self, a_sq, N):
        g = TorusGeometry(a_sq, N)
        for seed in (31, 32):
            v = random_field(g, seed=seed, divergence_free=False)  # real field
            pv = leray_project(v)
            assert l2_norm(pv - v) > 0.1 * l2_norm(v)  # far from divergence-free
            want = coefficients(v)[0]
            got = coefficients(pv)[0]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


class TestDecomposition:
    def test_vertical_support_only(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (0, 0, 3), [1, 2, 0, 4])
        dec = decompose(f)
        assert l2_norm(dec.bar) == 0.0
        assert l2_norm(dec.osc) == 0.0
        assert np.max(np.abs(dec.underline.coeffs - f.coeffs)) < 1e-15

    def test_pure_e0_mode(self, unit_torus_4):
        t = eigenbasis(unit_torus_4, (2, 1, -1))
        f = single_mode_field(unit_torus_4, (2, 1, -1), t.e0)
        dec = decompose(f)
        assert l2_norm(dec.underline) == 0.0
        assert l2_norm(dec.osc) < 1e-14
        assert np.max(np.abs(dec.bar.coeffs - f.coeffs)) < 1e-14

    def test_pythagoras_and_reconstruction(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=11)
        dec = decompose(f)
        total_sq = (
            l2_norm(dec.underline) ** 2 + l2_norm(dec.bar) ** 2 + l2_norm(dec.osc) ** 2
        )
        assert abs(total_sq - l2_norm(f) ** 2) < 1e-12 * l2_norm(f) ** 2
        assert np.max(np.abs(dec.total().coeffs - f.coeffs)) < 1e-12

    def test_projection_idempotence(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=12)
        dec = decompose(f)
        again = decompose(dec.osc)
        assert l2_norm(again.underline) < 1e-13
        assert l2_norm(again.bar) < 1e-13
        assert np.max(np.abs(again.osc.coeffs - dec.osc.coeffs)) < 1e-13

    def test_rejects_divergent_input(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=13, divergence_free=False)
        with pytest.raises(ValueError):
            decompose(f)

    def test_rejects_nan_input(self, unit_torus_4):
        # a NaN divergence is not within the bound (the check reads
        # "not div <= bound", since "div > bound" is False for NaN)
        f = random_field(unit_torus_4, seed=13)
        f.coeffs[1, 2, 3, 0] = np.nan
        with pytest.raises(ValueError, match="divergence-free"):
            decompose(f)


class TestFilter:
    def test_tau_zero_identity(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=14)
        out = apply_filter(0.0, f)
        assert np.array_equal(out.coeffs, f.coeffs)

    def test_pi_phase_on_unit_frequency(self, unit_torus_4):
        # n = (1,0,0) has omega = 1: at tau = pi both wave components flip sign
        t = eigenbasis(unit_torus_4, (1, 0, 0))
        f = single_mode_field(unit_torus_4, (1, 0, 0), t.ep + t.em + t.e0)
        out = apply_filter(np.pi, f)
        want = -t.ep - t.em + t.e0
        got = out.coeffs[stored(unit_torus_4, (1, 0, 0))]
        assert np.max(np.abs(got - want)) < 1e-13

    def test_isometry_all_sobolev(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=15)
        out = apply_filter(1.7, f)
        for s in (0.0, 1.5, 5.0):
            assert abs(sobolev_norm(s, out) - sobolev_norm(s, f)) < 1e-12 * sobolev_norm(s, f)

    def test_semigroup(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=16)
        a = apply_filter(0.3, apply_filter(0.9, f))
        b = apply_filter(1.2, f)
        assert np.max(np.abs(a.coeffs - b.coeffs)) < 1e-12

    def test_identity_on_kernel(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=17)
        dec = decompose(f)
        kern = dec.underline + dec.bar
        out = apply_filter(2.3, kern)
        assert np.max(np.abs(out.coeffs - kern.coeffs)) < 1e-13

    def test_generator_first_order(self, unit_torus_4):
        # (L(h)V - V)/h + PA V -> 0 at first order: this pins the sign
        # convention of the wave components
        f = random_field(unit_torus_4, seed=18)
        pa = apply_pa(f)
        res = []
        for h in (1e-2, 1e-3, 1e-4):
            d = (apply_filter(h, f) - f) * (1.0 / h) + pa
            res.append(l2_norm(d))
        assert res[0] / res[1] == pytest.approx(10.0, rel=0.05)
        assert res[1] / res[2] == pytest.approx(10.0, rel=0.05)

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_large_phases_match_expm(self, a_sq, N):
        # |tau| = 1e3 is the sweep's largest t/eps (eps = 1e-3, T = 1).  The
        # bound is the oracle's: scaling and squaring at |tau PA| ~ 1e3 costs
        # expm about 1e-11, while the phases exp(i tau omega) are good to
        # |tau| ulp(omega) ~ 1e-13; L(-tau) undoes L(tau) to rounding
        from scipy.linalg import expm

        g = TorusGeometry(a_sq, N)
        V = random_field(g, seed=20)
        pa = EigenBasis.of(g).pa[:, :, N:]
        norm = np.linalg.norm(V.coeffs, axis=-1)
        for tau in (1e3, -1e3):
            got = apply_filter(tau, V)
            want = np.einsum("xyzij,xyzj->xyzi", expm(-tau * pa), V.coeffs)
            err = np.linalg.norm(got.coeffs - want, axis=-1)
            assert np.all(err <= 5e-11 * norm), tau
            back = apply_filter(-tau, got)
            assert np.max(np.abs(back.coeffs - V.coeffs)) <= 1e-13 * np.max(np.abs(V.coeffs)), tau

    def test_preserves_reality(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=19)
        out = apply_filter(0.61, f)
        # the n3 = 0 plane, which holds n and -n, stays Hermitian
        plane = out.coeffs[:, :, 0]
        assert np.max(np.abs(plane - np.conj(plane[::-1, ::-1]))) < 1e-13
