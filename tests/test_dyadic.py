"""Dyadic decomposition, paraproducts and Bernstein measurements."""

import numpy as np
import pytest

from frspec.dyadic import (
    _pointwise_product,
    bernstein_ratio,
    bony_split,
    chi_profile,
    dyadic_block,
    dyadic_coefficients,
    low_cut,
    phi_profile,
    q_max,
)
from frspec.fields import SpectralField4, l2_norm, single_mode_field, sobolev_norm, zero_field
from frspec.geometry import TorusGeometry

from conftest import random_field


class TestProfiles:
    def test_supports(self):
        t = np.linspace(0, 4, 4001)
        assert np.all(chi_profile(t[t >= 4 / 3]) == 0.0)
        assert np.all(chi_profile(t[t <= 3 / 4]) == 1.0)
        assert np.all(phi_profile(t[(t <= 3 / 4) | (t >= 8 / 3)]) == 0.0)
        assert phi_profile(1.0) > 0.0
        assert chi_profile(1.0) > 0.0
        assert phi_profile(0.5) == 0.0

    def test_partition_of_unity_profiles(self):
        t = np.linspace(0, 2.0**6, 3001)
        total = chi_profile(t)
        for q in range(0, 9):
            total = total + phi_profile(t / 2.0**q)
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestBlocks:
    def test_partition_reconstruction(self, unit_torus_4):
        g = unit_torus_4
        f = random_field(g, seed=20, divergence_free=False)
        total = zero_field(g)
        for q in range(-1, q_max(g) + 1):
            total.coeffs += dyadic_block(q, f).coeffs
        assert np.max(np.abs(total.coeffs - f.coeffs)) < 1e-12

    def test_mode_norm_five_support(self):
        # |ncheck| = 5 lives in blocks q with 2^q in (15/8, 20/3): q = 1, 2
        g = TorusGeometry((1, 1, 1), 6)
        f = single_mode_field(g, (3, 4, 0), [0, 0, 0, 1])
        active = [
            q for q in range(-1, q_max(g) + 1) if l2_norm(dyadic_block(q, f)) > 1e-14
        ]
        assert active == [1, 2]

    def test_mode_norm_one_support(self):
        g = TorusGeometry((1, 1, 1), 6)
        f = single_mode_field(g, (1, 0, 0), [0, 0, 0, 1])
        active = [
            q for q in range(-1, q_max(g) + 1) if l2_norm(dyadic_block(q, f)) > 1e-14
        ]
        assert active == [-1, 0]

    def test_low_cut_telescopes(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=21, divergence_free=False)
        q = 2
        acc = zero_field(unit_torus_4)
        for qp in range(-1, q):
            acc.coeffs += dyadic_block(qp, f).coeffs
        s = low_cut(q, f)
        assert np.max(np.abs(acc.coeffs - s.coeffs)) < 1e-12


class TestBony:
    def test_zero_factor(self, unit_torus_4):
        u = random_field(unit_torus_4, seed=22, divergence_free=False)
        t1, t2, r = bony_split(u, zero_field(unit_torus_4))
        assert l2_norm(t1) == l2_norm(t2) == l2_norm(r) == 0.0

    def test_separated_modes_land_in_paraproduct(self):
        g = TorusGeometry((1, 1, 1), 8)
        lo = single_mode_field(g, (1, 0, 0), [0, 0, 0, 1])   # |ncheck| = 1
        hi = single_mode_field(g, (8, 3, 1), [0, 0, 0, 1])   # |ncheck| ~ 8.6
        t_lo_hi, t_hi_lo, r = bony_split(lo, hi)
        prod = _pointwise_product(lo, hi)
        assert l2_norm(t_lo_hi - prod) < 1e-10 * l2_norm(prod)
        assert l2_norm(t_hi_lo) < 1e-12 * l2_norm(prod)
        assert l2_norm(r) < 1e-12 * l2_norm(prod)

    def test_sum_equals_product(self, unit_torus_4):
        u = random_field(unit_torus_4, seed=23, divergence_free=False)
        v = random_field(unit_torus_4, seed=24, divergence_free=False)
        t1, t2, r = bony_split(u, v)
        direct = _pointwise_product(u, v)
        err = l2_norm(t1 + t2 + r - direct)
        assert err < 1e-10 * l2_norm(direct)


class TestRegularityAndBernstein:
    def test_dyadic_coefficients_normalized(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=25, divergence_free=False)
        C, cq = dyadic_coefficients(2.0, f)
        assert abs(np.sum(cq**2) - 1.0) < 1e-10
        assert 0.05 < C < 20.0

    def test_bernstein_derivative_ratio(self):
        g = TorusGeometry((1, 1, 1), 8)
        f = random_field(g, seed=26, divergence_free=False)
        for q in range(0, 4):
            blk = dyadic_block(q, f)
            if l2_norm(blk) < 1e-12:
                continue
            r = bernstein_ratio(q, blk, k=1)["derivative_ratio"]
            assert 0.25 <= r <= 4.0

    def test_bernstein_k0_is_one(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=27, divergence_free=False)
        blk = dyadic_block(1, f)
        assert bernstein_ratio(1, blk, k=0)["derivative_ratio"] == pytest.approx(1.0)

    def test_bernstein_integrability_gain_bounded(self):
        g = TorusGeometry((1, 1, 1), 8)
        f = random_field(g, seed=28, divergence_free=False)
        for q in range(0, 4):
            blk = dyadic_block(q, f)
            if l2_norm(blk) < 1e-12:
                continue
            gain = bernstein_ratio(q, blk, k=0, p=2, r=np.inf, r_prime=2)[
                "integrability_ratio"
            ]
            assert gain <= 4.0

    def test_annulus_support_enforced(self, unit_torus_4):
        f = random_field(unit_torus_4, seed=29, divergence_free=False)
        with pytest.raises(ValueError):
            bernstein_ratio(3, f, k=1)

    def test_seminorm_equivalence(self, unit_torus_4):
        # (1+|k|^2)^{s/2} vs |k|^s on zero-mean fields: fixed-constant equivalence
        f = random_field(unit_torus_4, seed=30, divergence_free=False)
        s = 2.0
        lam = np.sqrt(unit_torus_4.check_sq[..., unit_torus_4.N :]) ** s
        semi = l2_norm(SpectralField4(unit_torus_4, lam[..., None] * f.coeffs))
        full = sobolev_norm(s, f)
        assert semi <= full <= 2.0**(s / 2) * semi
