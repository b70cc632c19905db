"""Lattice geometry, transforms, projection and transport kernels."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import frspec.fields as fields
from frspec.fields import (
    SpectralField4,
    convolve_quadratic,
    inner_l2,
    l2_norm,
    leray_project,
    convolve_plane,
    single_mode_field,
    sobolev_norm,
    to_physical,
    to_spectral,
    transport,
    zero_field,
)
from frspec.geometry import TorusGeometry, check_frequency
from frspec.solvers import cfl_bound
from frspec.waves import bar_part, underline_part

from conftest import from_lattice, full_lattice, random_field, stored


class TestCheckFrequency:
    def test_unit_periods(self):
        g = TorusGeometry((1, 1, 1), 4)
        k = check_frequency(g, (3, 4, 0))
        assert np.allclose(k, [3, 4, 0])
        assert np.hypot(k[0], k[1]) == 5.0

    def test_direct_division(self):
        g = TorusGeometry((4, 1, 1), 4)  # a1 = 2
        assert np.allclose(check_frequency(g, (3, 4, 0)), [1.5, 4, 0])

    def test_zero_mode(self):
        g = TorusGeometry((1, 1, 1), 2)
        assert np.allclose(check_frequency(g, (0, 0, 0)), [0, 0, 0])

    @pytest.mark.parametrize("n", [(4, -4, 0), (-4, 4, 4), (0, 0, -4)])
    def test_mode_index_inside_the_truncation(self, n):
        g = TorusGeometry((1, 2, 3), 4)
        assert g.mode_index(n) == tuple(c + 4 for c in n)
        assert g.flat_index(n) == np.ravel_multi_index(g.mode_index(n), (g.L,) * 3)

    @pytest.mark.parametrize("n", [(5, 0, 1), (-5, 0, 1), (0, 0, 5), (0, 0, -5)])
    def test_mode_index_outside_the_truncation_rejected(self, n):
        g = TorusGeometry((1, 2, 3), 4)
        for fn in (g.mode_index, g.flat_index):
            with pytest.raises(ValueError, match="outside the truncation N = 4"):
                fn(n)

    @pytest.mark.parametrize("real_vec", [True, False])
    @pytest.mark.parametrize("n", [(5, 0, 1), (-5, 0, 1), (0, 0, 5), (0, 0, -5)])
    def test_single_mode_outside_the_truncation_rejected(self, n, real_vec):
        g = TorusGeometry((1, 1, 1), 4)
        with pytest.raises(ValueError, match="outside the truncation N = 4"):
            single_mode_field(g, n, [1, 0, 0, 0] if real_vec else [1j, 0, 0, 0])

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            TorusGeometry((0, 1, 1), 2)
        with pytest.raises(ValueError):
            TorusGeometry((1, 1, 1), 0)


class TestLeray:
    def test_parallel_mode_killed(self, unit_torus_4):
        # n = (1,0,0): the ncheck-parallel part of (1,2,3) is the first slot
        f = single_mode_field(unit_torus_4, (1, 0, 0), [1, 2, 3, 4])
        out = leray_project(f)
        got = out.coeffs[stored(unit_torus_4, (1, 0, 0))]
        assert np.allclose(got, [0, 2, 3, 4], atol=1e-14)

    def test_parallel_input_annihilated(self, unit_torus_4):
        # n = (1,1,0), V = (1,1,0,7): velocity parallel to ncheck
        f = single_mode_field(unit_torus_4, (1, 1, 0), [1, 1, 0, 7])
        out = leray_project(f)
        got = out.coeffs[stored(unit_torus_4, (1, 1, 0))]
        assert np.allclose(got, [0, 0, 0, 7], atol=1e-14)

    def test_idempotent_and_fourth_untouched(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=3, divergence_free=False)
        once = leray_project(f)
        twice = leray_project(once)
        assert np.max(np.abs(once.coeffs - twice.coeffs)) < 1e-14
        inner = f.coeffs[..., 3].copy()
        inner[stored(unit_torus_4, (0, 0, 0))] = 0.0
        assert np.max(np.abs(once.coeffs[..., 3] - inner)) < 1e-15

    def test_self_adjoint_per_mode(self, unit_torus_4):
        A = random_field(unit_torus_4, seed=4, divergence_free=False)
        B = random_field(unit_torus_4, seed=5, divergence_free=False)
        lhs = inner_l2(leray_project(A), B)
        rhs = inner_l2(A, leray_project(B))
        assert abs(lhs - rhs) < 1e-12 * abs(lhs)

    def test_rejects_nonzero_mean(self, unit_torus_4):
        f = zero_field(unit_torus_4)
        f.coeffs[stored(unit_torus_4, (0, 0, 0)) + (0,)] = 1.0
        with pytest.raises(ValueError):
            leray_project(f)


class TestPerModeOperators:
    """The Leray projector and the propagators act per mode through one
    real batched matmul on the float64 view of the coefficients."""

    @pytest.fixture(scope="class", params=[((1, 1, 1), 4), ((1, 2, 3), 5)], ids=["unit-4", "a123-5"])
    def geometry(self, request):
        return TorusGeometry(*request.param)

    def test_leray_matches_the_projection_formula(self, geometry):
        # v - ncheck (ncheck . v) / |ncheck|^2 on the velocity, the
        # buoyancy kept, n = 0 pinned
        g = geometry
        for seed in (21, 22):
            f = random_field(g, seed=seed, divergence_free=False)
            v = f.coeffs
            k1, k2, k3 = g.check_grid
            k3 = k3[..., g.N :]
            ksq = np.where(g.check_sq[..., g.N :] == 0.0, 1.0, g.check_sq[..., g.N :])
            kdotv = k1 * v[..., 0] + k2 * v[..., 1] + k3 * v[..., 2]
            want = v.copy()
            for j, k in enumerate((k1, k2, k3)):
                want[..., j] -= k * kdotv / ksq
            want[g.N, g.N, 0] = 0.0
            got = leray_project(f).coeffs
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))

    def test_leray_is_idempotent_kills_gradients_and_the_mean(self, geometry):
        g = geometry
        f = random_field(g, seed=23, divergence_free=False)
        once = leray_project(f)
        twice = leray_project(once)
        assert np.max(np.abs(twice.coeffs - once.coeffs)) <= 1e-15 * np.max(np.abs(once.coeffs))
        # a gradient field ncheck phi (buoyancy zero) projects to zero
        phi = f.coeffs[..., 3]
        grad = zero_field(g)
        k1, k2, k3 = g.check_grid
        for j, k in enumerate((k1, k2, k3[..., g.N :])):
            grad.coeffs[..., j] = k * phi
        out = leray_project(grad).coeffs
        assert np.max(np.abs(out)) <= 1e-15 * np.max(np.abs(grad.coeffs))
        # the mean: rejected unless check_mean is off, and then zeroed
        f.coeffs[g.N, g.N, 0] = (1.0, -2.0, 0.5, 3.0)
        with pytest.raises(ValueError, match="zero-mean"):
            leray_project(f)
        assert np.all(leray_project(f, check_mean=False).coeffs[g.N, g.N, 0] == 0.0)

    def test_apply_per_mode_is_the_complex_matmul(self, geometry):
        g = geometry
        rng = np.random.default_rng(24)
        nm = g.L * g.L * (g.N + 1)
        E = rng.standard_normal((nm, 4, 4))
        c = random_field(g, seed=25, divergence_free=False).coeffs
        want = np.matmul(E.astype(np.complex128), c.reshape(nm, 4, 1)).reshape(c.shape)
        got = fields.apply_per_mode(E, c)
        assert got.shape == c.shape and got.dtype == np.complex128
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
        # the operand may be a strided view, as to_spectral returns
        assert np.array_equal(fields.apply_per_mode(E, np.asfortranarray(c)), got)

    def test_kernel_arrays_are_built_once_per_geometry_and_read_only(self, geometry):
        g = geometry
        arrays = fields._mode_arrays(g)
        again = fields._mode_arrays(g)
        assert all(a is b for a, b in zip(arrays, again))
        assert not any(a.flags.writeable for a in arrays)
        # each geometry object keeps its own; none outlives its geometry
        import gc
        import weakref

        other = TorusGeometry(g.a_sq, g.N)
        assert fields._mode_arrays(other)[1] is not fields._mode_arrays(g)[1]
        assert np.array_equal(fields._mode_arrays(other)[1], fields._mode_arrays(g)[1])
        f = random_field(other, seed=26)
        transport(leray_project(f), f)
        to_spectral(to_physical(f))
        ref = weakref.ref(other)
        del other, f
        gc.collect()
        assert ref() is None


class TestTransforms:
    def test_zero_round_trip(self, unit_torus_4):
        z = zero_field(unit_torus_4)
        assert l2_norm(to_spectral(to_physical(z))) == 0.0

    def test_single_mode_round_trip(self, unit_torus_4):
        f = single_mode_field(unit_torus_4, (2, -1, 3), [1, 0.5j, 0, 2])
        back = to_spectral(to_physical(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12

    def test_round_trip_random(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=1, divergence_free=False)
        back = to_spectral(to_physical(f))
        assert np.max(np.abs(back.coeffs - f.coeffs)) < 1e-12 * np.max(np.abs(f.coeffs))

    def test_parseval(self, unit_torus_4):
        g = unit_torus_4
        f = random_field(g, seed=2, divergence_free=False)
        phys = to_physical(f)
        M = phys.grid_points
        phys_energy = np.sum(phys.values**2) * (g.volume / M**3)
        spec_energy = l2_norm(f) ** 2 * g.volume
        assert abs(phys_energy - spec_energy) < 1e-12 * spec_energy

    def test_grid_too_small_rejected(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=1)
        with pytest.raises(ValueError):
            to_physical(f, grid_points=5)


class TestConvolution:
    def test_zero_field_input(self, unit_torus_4):
        A = random_field(unit_torus_4, seed=1)
        out = convolve_quadratic(A, zero_field(unit_torus_4))
        assert l2_norm(out) == 0.0

    def test_two_mode_hand_convolution(self, unit_torus_4):
        # real fields: A at +-k, B at +-m; the four product modes +-k +-m
        # carry (a . i mcheck) b with the conjugates of the -k / -m slots
        g = unit_torus_4
        k, m = np.array((1, 0, 0)), np.array((0, 1, 1))
        a_vec = np.array([0, 1, 1, 0])
        b_vec = np.array([1, 0, 0, 2])
        A = single_mode_field(g, k, a_vec)
        B = single_mode_field(g, m, b_vec)
        out = full_lattice(convolve_quadratic(A, B))
        mc = m / g.a
        for sk, sm in itertools.product((1, -1), (1, -1)):
            a = a_vec if sk == 1 else np.conj(a_vec)
            b = b_vec if sm == 1 else np.conj(b_vec)
            expect = 1j * sm * (a[:3] @ mc) * b
            mode = tuple(sk * k + sm * m + g.N)
            assert np.max(np.abs(out[mode] - expect)) < 1e-13
            out[mode] = 0.0
        # nothing anywhere else
        assert np.max(np.abs(out)) < 1e-13

    def test_skew_cancellation(self, unit_torus_4):
        A = random_field(unit_torus_4, seed=6)  # divergence-free
        B = random_field(unit_torus_4, seed=7, divergence_free=False)
        out = convolve_quadratic(A, B)
        pairing = abs(inner_l2(out, B))
        assert pairing < 1e-10 * l2_norm(out) * l2_norm(B)

    def test_corner_mode_alias_free(self, unit_torus_4):
        # real fields at k = m = +-(N, N, N): the product modes +-2N must
        # leave the lattice, not wrap onto it (this catches an undersized
        # dealias grid); the product at k - m = 0 is the pinned mean
        g = unit_torus_4
        N = g.N
        A = single_mode_field(g, (N, N, N), [1, 0, 0, 0])
        B = single_mode_field(g, (N, N, N), [0, 0, 1, 0])
        out = convolve_quadratic(A, B)
        assert l2_norm(out) < 1e-14

    @pytest.mark.parametrize("N", [4, 6, 8])
    def test_product_grid_is_the_smallest_alias_free_one(self, N):
        # M = 3N + 1 points per axis: the corner product 2N wraps to
        # 2N - M = -N - 1, just outside the box (test_corner_mode_alias_free),
        # where M = 3N would wrap it onto -N; no FFT size is needed
        g = TorusGeometry((1, 2, 3), N)
        assert fields._pad_size(N) == 3 * N + 1
        assert to_physical(random_field(g, seed=8)).grid_points == 3 * N + 1


def _advective_oracle(A, B, stencil="full"):
    """The advective kernel a . grad B with numpy complex transforms, kept as
    the oracle of the divergence-form kernel: 3 + 12 inverse transforms of a
    and grad B, one per component, and 4 forward."""
    g = A.geometry
    L, N = g.L, g.N
    M = fields._pad_size(N)
    idx = (np.arange(L) - N) % M

    def embed(c):
        out = np.zeros((M, M, M) + c.shape[3:], dtype=np.complex128)
        out[np.ix_(idx, idx, idx)] = c
        return out

    k1, k2, k3 = g.check_grid
    v = full_lattice(B)
    grad = np.empty(v.shape + (3,), dtype=np.complex128)
    grad[..., 0] = 1j * k1[..., None] * v
    grad[..., 1] = 1j * k2[..., None] * v
    grad[..., 2] = 0.0 if stencil == "horizontal" else 1j * k3[..., None] * v
    big_a = np.fft.ifftn(embed(full_lattice(A)[..., :3]), axes=(0, 1, 2)) * (M**3)
    big_g = np.fft.ifftn(embed(grad.reshape(L, L, L, 12)), axes=(0, 1, 2)) * (M**3)
    prod = np.einsum("xyzj,xyzcj->xyzc", big_a, big_g.reshape(M, M, M, 4, 3))
    hat = np.fft.fftn(prod, axes=(0, 1, 2)) / (M**3)
    return from_lattice(g, hat[np.ix_(idx, idx, idx)]).pin_zero_mode()


class TestDivergenceFormKernel:
    @pytest.fixture(scope="class", params=[((1, 1, 1), 4), ((1, 2, 3), 5)], ids=["unit-4", "a123-5"])
    def geometry(self, request):
        return TorusGeometry(*request.param)

    @staticmethod
    def _inputs(g, stencil, seed):
        # the precondition of each stencil: div a = 0, or div_h a_h = 0
        # (the limit system's bar + underline fields)
        V = random_field(g, seed=seed)
        return V if stencil == "full" else bar_part(V) + underline_part(V)

    @pytest.mark.parametrize("stencil", ["full", "horizontal"])
    @pytest.mark.parametrize("same", [True, False], ids=["A-is-B", "distinct"])
    def test_matches_advective_oracle(self, geometry, stencil, same):
        A = self._inputs(geometry, stencil, 11)
        B = A if same else self._inputs(geometry, stencil, 12)
        want = _advective_oracle(A, B, stencil).coeffs
        got = convolve_quadratic(A, B, stencil).coeffs
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))

    def test_transport_matches_oracle_and_is_symmetric(self, geometry):
        A = self._inputs(geometry, "full", 13)
        B = self._inputs(geometry, "full", 14)
        raw = _advective_oracle(A, B) + _advective_oracle(B, A)
        want = leray_project(0.5 * raw, check_mean=False).coeffs
        got = transport(A, B).coeffs
        assert np.max(np.abs(got - want)) < 1e-13 * np.max(np.abs(want))
        assert np.array_equal(got, transport(B, A).coeffs)

    def test_self_transport_is_the_projected_self_advection(self, geometry):
        # transport(A, A) forms each product once: the symmetrized sum
        # would double it and halve the result, both exact
        for seed in (17, 18):
            A = self._inputs(geometry, "full", seed)
            want = leray_project(convolve_quadratic(A, A), check_mean=False)
            assert transport(A, A).coeffs.tobytes() == want.coeffs.tobytes()

    def test_distinct_products_match_all_twelve(self, geometry):
        """The symmetric full stencil transforms 9 distinct products; the
        result has the bytes of transforming all 12 products a_j B_c."""
        A = self._inputs(geometry, "full", 15)
        B = self._inputs(geometry, "full", 16)
        twelve = np.arange(12).reshape(3, 4)
        M = fields._pad_size(geometry.N)

        def samples(F):
            return fields._to_grid(geometry, F.coeffs.reshape(-1, 4).T, M)

        def divergence(prod):
            return SpectralField4(geometry, fields._divergence(geometry, prod, twelve))

        a = samples(A)
        prod = (a[:3, None] * a[None]).reshape((12,) + a.shape[1:])
        assert convolve_quadratic(A, A).coeffs.tobytes() == divergence(prod).coeffs.tobytes()
        b = samples(B)
        prod = (a[:3, None] * b[None] + b[:3, None] * a[None]).reshape((12,) + a.shape[1:])
        want = leray_project(0.5 * divergence(prod), check_mean=False)
        assert transport(A, B).coeffs.tobytes() == want.coeffs.tobytes()


def _padded_to_grid(g, rows, M):
    """The oracle of `fields._to_grid`: the rows (C, L L (N + 1)) scattered
    into a padded (M, M, M // 2 + 1) grid, then scipy's irfftn."""
    from scipy.fft import irfftn

    L, N = g.L, g.N
    idx = (np.arange(L) - N) % M
    pad = np.zeros((len(rows), M, M, M // 2 + 1), dtype=np.complex128)
    pad[:, idx[:, None], idx[None, :], : N + 1] = rows.reshape(-1, L, L, N + 1)
    return irfftn(pad, s=(M, M, M), axes=(1, 2, 3), norm="forward")


def _padded_from_grid(g, values):
    """The oracle of `fields._from_grid`: scipy's rfftn of the samples
    (C, M, M, M), gathered at the retained modes, in the kernel's native
    layout [n2, n3, n1]."""
    from scipy.fft import rfftn

    L, N, M = g.L, g.N, values.shape[1]
    idx = (np.arange(L) - N) % M
    hat = rfftn(values, axes=(1, 2, 3), norm="forward")[:, idx[:, None], idx[None, :], : N + 1]
    return hat.transpose(0, 2, 3, 1)


def _dense_kernel(A, B, J, symmetrize=False):
    """The product kernel as it was before it derived its products: every
    component of both operands transformed, all 4 J products a_j B_c (plus
    b_j A_c if `symmetrize`) formed and transformed, then
    i sum_j ncheck_j P_hat_jc."""
    g = A.geometry
    N = g.N
    M = fields._pad_size(N)

    def samples(F):
        return fields._to_grid(g, F.coeffs.reshape(-1, 4).T, M)

    a, b = samples(A), samples(B)
    prod = (a[:J, None] * b[None]).reshape((4 * J,) + a.shape[1:])
    if symmetrize:
        prod += (b[:J, None] * a[None]).reshape((4 * J,) + a.shape[1:])
    hat = fields._from_grid(g, prod).transpose(0, 3, 1, 2)  # [n2, n3, n1] -> [n1, n2, n3]
    k1, k2, k3 = g.check_grid
    ks = (k1, k2, k3[..., N:])
    half = 1j * sum(ks[j] * hat[4 * j : 4 * j + 4] for j in range(J))
    half[:, N, N, 0] = 0.0
    return np.moveaxis(half, 0, -1)


class TestLiveComponents:
    """The kernel transforms only the operand rows that are not identically
    zero and forms only the products with no zero factor; every output has
    the bytes of the dense kernel, signed zeros included."""

    @pytest.fixture(scope="class", params=[((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 2, 3), 8)],
                    ids=["unit-4", "a123-5", "a123-8"])
    def geometry(self, request):
        return TorusGeometry(*request.param)

    @staticmethod
    def _fields(g, seed):
        V = random_field(g, seed=seed, amplitude=1.0, spectrum_r=3.0)
        bar = bar_part(V)
        return {"bar": bar, "underline+bar": underline_part(V) + bar, "real": V}

    @pytest.mark.parametrize("kind", ["bar", "underline+bar", "real"])
    def test_bytes_of_the_dense_kernel(self, geometry, kind):
        for seed in (61, 62):
            F = self._fields(geometry, seed)[kind]
            G = random_field(geometry, seed=seed + 10, amplitude=1.0)
            for stencil, J in (("full", 3), ("horizontal", 2)):
                want = _dense_kernel(F, F, J)
                assert convolve_quadratic(F, F, stencil).coeffs.tobytes() == want.tobytes()
                want = _dense_kernel(F, G, J)
                assert convolve_quadratic(F, G, stencil).coeffs.tobytes() == want.tobytes()
            for X, Y in ((F, F), (F, G)):
                raw = SpectralField4(geometry, _dense_kernel(X, Y, 3, symmetrize=True))
                want = leray_project(0.5 * raw, check_mean=False)
                assert transport(X, Y).coeffs.tobytes() == want.coeffs.tobytes()

    def test_zero_operand_makes_no_transform(self, unit_torus_4, monkeypatch):
        Z = zero_field(unit_torus_4)
        want = _dense_kernel(Z, Z, 3)
        for name in ("_to_grid", "_from_grid"):
            monkeypatch.setattr(fields, name, lambda *a, **k: pytest.fail("transformed a zero field"))
        assert convolve_quadratic(Z, Z).coeffs.tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_row_is_not_skipped(self, unit_torus_4, monkeypatch, bad):
        # components 3 and 4 of a bar field are zero; a non-finite value in
        # component 4 makes its row live: it is transformed and reaches the
        # output
        F = bar_part(random_field(unit_torus_4, seed=63))
        F.coeffs[1, 2, 1, 3] = F.coeffs[7, 6, 3, 3] = bad
        rows = []
        to_grid = fields._to_grid
        monkeypatch.setattr(fields, "_to_grid", lambda g, x, M: rows.append(len(x)) or to_grid(g, x, M))
        with np.errstate(invalid="ignore"):
            out = convolve_quadratic(F, F)
        assert rows == [3] and not np.all(np.isfinite(out.coeffs))

    def test_signed_zero_is_zero_and_an_imaginary_part_is_live(self, unit_torus_4, monkeypatch):
        # the live test reads both parts of every coefficient: a row of -0.0
        # (component 3) is not transformed, a row whose one nonzero is an
        # imaginary part (component 4) is
        F = bar_part(random_field(unit_torus_4, seed=64))
        F.coeffs[..., 2] = complex(-0.0, -0.0)
        F.coeffs[3, 5, 2, 3] = 0.25j
        G = F.copy()
        want = [_dense_kernel(X, Y, 3) for X, Y in ((F, F), (F, G))]
        rows = []
        to_grid = fields._to_grid
        monkeypatch.setattr(fields, "_to_grid", lambda g, x, M: rows.append(len(x)) or to_grid(g, x, M))
        for (X, Y), w in zip(((F, F), (F, G)), want):
            assert convolve_quadratic(X, Y).coeffs.tobytes() == w.tobytes()
        assert rows == [3, 5]

    def test_rows_after_the_last_product_are_not_summed(self, unit_torus_4, monkeypatch):
        # a bar field has no third velocity row, so the divergence of
        # transport(bar, bar) sums the rows j = 0, 1 only (its bytes are the
        # dense kernel's, above); a full field sums all three
        bar = bar_part(random_field(unit_torus_4, seed=65))
        V = random_field(unit_torus_4, seed=66)
        rows = []
        divergence = fields._divergence
        monkeypatch.setattr(fields, "_divergence", lambda g, p, s: rows.append(len(s)) or divergence(g, p, s))
        transport(bar, bar)
        transport(V, V)
        assert rows == [2, 3]


class TestConvolvePlane:
    """The 2-D advection kernel on coefficient planes (L, L) of n3 = 0."""

    def test_two_mode_hand_product(self):
        # u at k = (1, -2) and phi at m = (2, 1) meet at n = (3, -1) only:
        # i ncheck_h(n) . u(k) phi(m), with ncheck_h(n) = (3, -1 / sqrt2)
        g = TorusGeometry((1, 2, 3), 3)
        N, L = g.N, g.L
        u = np.zeros((2, L, L), dtype=np.complex128)
        phi = np.zeros((L, L), dtype=np.complex128)
        u[:, 1 + N, -2 + N] = (0.3 - 0.1j, 0.7j)
        phi[2 + N, 1 + N] = 1.5 + 0.5j
        want = np.zeros((L, L), dtype=np.complex128)
        want[3 + N, -1 + N] = 1j * (3.0 * u[0, 1 + N, -2 + N] - u[1, 1 + N, -2 + N] / np.sqrt(2.0)) * phi[2 + N, 1 + N]
        assert np.max(np.abs(convolve_plane(g, u, phi) - want)) < 1e-15

    def test_sums_outside_the_box_do_not_alias(self):
        # k + m outside [-N, N]^2 leaves the output: (3, 0) + (1, 0) would
        # alias to (-3, 0) on a grid of 2N + 1 points, and (3, 3) + (3, 3)
        # to (-1, -1)
        g = TorusGeometry((1, 1, 1), 3)
        N, L = g.N, g.L
        for k, m in (((3, 0), (1, 0)), ((3, 3), (3, 3))):
            u = np.zeros((2, L, L), dtype=np.complex128)
            phi = np.zeros((L, L), dtype=np.complex128)
            u[:, k[0] + N, k[1] + N] = (1.0, -1.0)
            phi[m[0] + N, m[1] + N] = 1.0
            assert np.max(np.abs(convolve_plane(g, u, phi))) < 1e-15


class TestTransformCount:
    """One batched inverse and one batched forward transform per call."""

    @pytest.fixture
    def calls(self, monkeypatch):
        log = []

        def counting(name, fn):
            def wrapper(g, x, *args):
                log.append((name, np.shape(x)[0]))
                out = fn(g, x, *args)
                if name == "forward":  # the native layout [n2, n3, n1]
                    assert out.shape == (len(x), g.L, g.N + 1, g.L)
                return out

            return wrapper

        def forbidden(*args, **kwargs):
            raise AssertionError("fields called numpy.fft")

        monkeypatch.setattr(fields, "_to_grid", counting("inverse", fields._to_grid))
        monkeypatch.setattr(fields, "_from_grid", counting("forward", fields._from_grid))
        for name in np.fft.__all__:
            if callable(getattr(np.fft, name)) and "freq" not in name and "shift" not in name:
                monkeypatch.setattr(np.fft, name, forbidden)
        return log

    @pytest.mark.parametrize(
        "call, batches",
        [
            (lambda A, B: convolve_quadratic(A, A), [("inverse", 4), ("forward", 9)]),
            (lambda A, B: convolve_quadratic(A, B), [("inverse", 7), ("forward", 12)]),
            (lambda A, B: convolve_quadratic(A, B, "horizontal"), [("inverse", 6), ("forward", 8)]),
            (lambda A, B: transport(A, B), [("inverse", 8), ("forward", 9)]),
            (lambda A, B: to_spectral(to_physical(A)), [("inverse", 4), ("forward", 4)]),
            # a bar field has components 1 and 2 only: 3 distinct products
            (lambda A, B: transport(*[bar_part(A)] * 2), [("inverse", 2), ("forward", 3)]),
            (lambda A, B: convolve_quadratic(*[bar_part(A)] * 2, "horizontal"),
             [("inverse", 2), ("forward", 3)]),
            (lambda A, B: convolve_quadratic(*[bar_part(A) + underline_part(A)] * 2, "horizontal"),
             [("inverse", 3), ("forward", 5)]),
            (lambda A, B: cfl_bound(A), [("inverse", 3)]),
        ],
        ids=["self", "pair", "horizontal", "transport", "round-trip", "bar-transport", "bar-horizontal",
             "underline-bar-horizontal", "cfl"],
    )
    def test_one_batched_call_each_way(self, unit_torus_4, calls, call, batches):
        A = random_field(unit_torus_4, seed=15)
        B = random_field(unit_torus_4, seed=16)
        call(A, B)
        assert calls == batches


class TestDftTransforms:
    """`_to_grid` and `_from_grid` are pruned DFT-matrix products on the
    retained modes: the padded real FFTs they replace, to rounding."""

    GEOMETRIES = [((1, 1, 1), 1), ((1, 1, 1), 2), ((1, 1, 1), 4), ((1, 2, 3), 8)]

    @pytest.mark.parametrize("a_sq, N", GEOMETRIES, ids=["unit-1", "unit-2", "unit-4", "a123-8"])
    @pytest.mark.parametrize("grid", ["pad", "2N+1", "2N+2"])
    def test_match_the_padded_scipy_transforms(self, a_sq, N, grid):
        # the pad size is 14 (even) at N = 4 and 25 (odd) at N = 8; a
        # to_physical override may go down to 2N + 1 points
        g = TorusGeometry(a_sq, N)
        M = {"pad": fields._pad_size(N), "2N+1": 2 * N + 1, "2N+2": 2 * N + 2}[grid]
        rng = np.random.default_rng(70 + N)
        shape = (9, g.L * g.L * (N + 1))
        rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        want = _padded_to_grid(g, rows, M)
        got = fields._to_grid(g, rows, M)
        assert got.shape == (9, M, M, M) and got.dtype == np.float64
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        values = rng.standard_normal((9, M, M, M))
        want = _padded_from_grid(g, values)
        got = fields._from_grid(g, values)
        assert got.shape == (9, g.L, N + 1, g.L)  # native layout [n2, n3, n1]
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
        f = random_field(g, seed=71, divergence_free=False)
        want = _padded_to_grid(g, f.coeffs.reshape(-1, 4).T, M)
        got = to_physical(f, grid_points=M).values.transpose(3, 0, 1, 2)
        assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("a_sq, N", GEOMETRIES, ids=["unit-1", "unit-2", "unit-4", "a123-8"])
    def test_round_trip(self, a_sq, N):
        g = TorusGeometry(a_sq, N)
        f = random_field(g, seed=72, divergence_free=False, amplitude=1.0)
        for M in (None, 2 * N + 1):
            back = to_spectral(to_physical(f, grid_points=M)).coeffs
            assert np.max(np.abs(back - f.coeffs)) <= 1e-15 * np.max(np.abs(f.coeffs))

    def test_a_subset_of_rows_has_the_bytes_of_the_full_batch(self):
        # the kernel transforms only its live rows; its bytes must not
        # depend on which other rows share the batch.  The pad sizes are
        # 14 (even), 20 and 25; 2N + 1 is the smallest to_physical grid
        rng = np.random.default_rng(73)
        for a_sq, N in (((1, 1, 1), 4), ((1, 2, 3), 6), ((1, 2, 3), 8)):
            g = TorusGeometry(a_sq, N)
            for M in (fields._pad_size(N), 2 * N + 1):
                shape = (9, g.L * g.L * (N + 1))
                rows = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
                values = rng.standard_normal((9, M, M, M))
                samples, hat = fields._to_grid(g, rows, M), fields._from_grid(g, values)
                for sub in ([0], [2, 5], [1, 4, 7, 8], list(range(8))):
                    assert fields._to_grid(g, rows[sub], M).tobytes() == samples[sub].tobytes()
                    assert fields._from_grid(g, values[sub]).tobytes() == hat[sub].tobytes()

    def test_matrices_are_built_once_per_geometry_and_grid(self, monkeypatch):
        import gc
        import weakref

        g = TorusGeometry((1, 2, 3), 4)
        M = fields._pad_size(g.N)
        mats = fields._dft(g, M)
        assert all(a is b for a, b in zip(mats, fields._dft(g, M)))
        assert not any(a.flags.writeable for a in mats)
        assert fields._dft(g, 2 * g.N + 1)[0].shape == (2 * g.N + 1, g.L)
        # the plane kernel reads the same matrices
        seen = []
        dft = fields._dft
        monkeypatch.setattr(fields, "_dft", lambda geo, m: seen.append(m) or dft(geo, m))
        convolve_plane(g, np.ones((2, g.L, g.L)), np.ones((g.L, g.L)))
        assert seen == [M]
        monkeypatch.undo()
        # each geometry object keeps its own; none outlives its geometry
        other = TorusGeometry(g.a_sq, g.N)
        E = fields._dft(other, M)[0]
        assert E is not mats[0] and np.array_equal(E, mats[0])
        to_spectral(to_physical(random_field(other, seed=74)))
        refs = weakref.ref(other), weakref.ref(E)
        del other, E
        gc.collect()
        assert all(r() is None for r in refs)


class _RecordingMatrix(np.ndarray):
    """A DFT matrix that logs the operand shapes of every matmul it enters
    (as `@` or as a transposed view) and computes it on plain arrays."""

    def __array_finalize__(self, obj):
        self.log = getattr(obj, "log", None)

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.log.append([np.shape(x) for x in inputs])
        plain = [x.view(np.ndarray) if isinstance(x, _RecordingMatrix) else x for x in inputs]
        return getattr(ufunc, method)(*plain, **kwargs)


class TestLegStructure:
    """Every leg of `_to_grid` and `_from_grid` is one matmul per row: a
    stack of C matrices for C rows, never a stack of C M or C L small
    products (numpy's batching of a product along a middle axis)."""

    @pytest.fixture
    def log(self, monkeypatch):
        log = []
        dft = fields._dft

        def recording(geo, M):
            mats = tuple(a.view(_RecordingMatrix) for a in dft(geo, M))
            for a in mats:
                a.log = log
            return mats

        monkeypatch.setattr(fields, "_dft", recording)
        return log

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 6), ((1, 2, 3), 8)],
                             ids=["unit-4", "a123-6", "a123-8"])
    def test_three_legs_of_one_matmul_per_row(self, a_sq, N, log):
        g = TorusGeometry(a_sq, N)
        M = fields._pad_size(N)
        rng = np.random.default_rng(75)
        for C in (1, 4, 9):
            rows = rng.standard_normal((C, g.L * g.L * (N + 1))) + 0j
            values = rng.standard_normal((C, M, M, M))
            for name, call in (("inverse", lambda: fields._to_grid(g, rows, M)),
                               ("forward", lambda: fields._from_grid(g, values))):
                log.clear()
                assert type(call()) is np.ndarray
                assert len(log) == 3, name
                for shapes in log:  # the stack of each leg: one matrix per row
                    assert np.broadcast_shapes(*(sh[:-2] for sh in shapes)) == (C,), (name, shapes)


class TestFieldStructure:
    def test_samples_are_the_real_field_of_the_full_lattice(self, unit_torus_4):
        # the stored modes n3 >= 0 determine the real field: its samples are
        # the complex transform of the mirrored full lattice
        g = unit_torus_4
        f = random_field(g, seed=8, divergence_free=False)
        phys = to_physical(f)
        M = phys.grid_points
        idx = (np.arange(g.L) - g.N) % M
        big = np.zeros((M, M, M, 4), dtype=np.complex128)
        big[np.ix_(idx, idx, idx)] = full_lattice(f)
        want = np.fft.ifftn(big, axes=(0, 1, 2)) * M**3
        assert np.isrealobj(phys.values)
        assert np.max(np.abs(want.imag)) < 1e-13
        assert np.max(np.abs(phys.values - want.real)) < 1e-13

    @pytest.mark.parametrize("shape", [(9, 9, 9, 4), (9, 9, 4, 4), (9, 9, 6, 4), (9, 9, 5, 3)])
    def test_only_the_stored_half_is_a_field(self, unit_torus_4, shape):
        # L = 9, N = 4: the stored modes are an (L, L, N + 1, 4) array
        assert zero_field(unit_torus_4).coeffs.shape == (9, 9, 5, 4)
        with pytest.raises(ValueError, match=r"must have shape \(9, 9, 5, 4\)"):
            SpectralField4(unit_torus_4, np.zeros(shape, dtype=np.complex128))

    def test_zero_mode_pinned(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=9)
        assert f.zero_mean()

    def test_sobolev_norm_single_mode(self, unit_torus_4):
        # a real single-mode field has two modes, n and -n; on n3 = 0 both
        # are stored, on n3 > 0 only n is
        f = single_mode_field(unit_torus_4, (1, 0, 0), [0, 0, 0, 1])
        assert abs(sobolev_norm(1.0, f) - 2.0) < 1e-14
        f = single_mode_field(unit_torus_4, (1, 0, 1), [0, 0, 0, 1])
        assert abs(sobolev_norm(1.0, f) - np.sqrt(6.0)) < 1e-14

    def test_sobolev_zero_is_l2(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=10)
        assert abs(sobolev_norm(0.0, f) - l2_norm(f)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(
    n=st.tuples(
        st.integers(-4, 4), st.integers(-4, 4), st.integers(-4, 4)
    ).filter(lambda t: t != (0, 0, 0)),
    vec=st.tuples(*(st.floats(-2, 2) for _ in range(4))),
)
def test_leray_projects_onto_divergence_free(n, vec):
    g = TorusGeometry((1, 1, 1), 4)
    f = single_mode_field(g, n, vec)
    out = full_lattice(leray_project(f))
    for m in (np.array(n), -np.array(n)):
        kc = m / g.a
        assert abs(kc @ out[tuple(m + g.N)][:3]) < 1e-12
