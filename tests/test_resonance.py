"""Exact resonance arithmetic against independent floating and symbolic oracles."""

import itertools
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

import frspec.resonance as resonance
from frspec.geometry import TorusGeometry
from frspec.resonance import (
    RadicalValue,
    enumerate_iab,
    enumerate_kstar,
    exact_sqrt_sum_is_zero,
    fiber,
    is_resonant,
    kstar_pairs,
    radical_sign_triads,
)


def float_brute_force_kstar(a, N, tol=1e-9):
    """Independent floating enumeration of the all-sign resonant triads."""
    r = np.arange(-N, N + 1)
    modes = np.stack(np.meshgrid(r, r, r, indexing="ij"), -1).reshape(-1, 3)
    mc = modes / np.asarray(a, dtype=float)
    hnz = (modes[:, 0] != 0) | (modes[:, 1] != 0)
    denom = np.maximum(np.sum(mc**2, axis=1), 1e-300)
    om = np.where(hnz, np.sqrt((mc[:, 0] ** 2 + mc[:, 1] ** 2) / denom), 0.0)
    L = 2 * N + 1
    out = set()
    for i_n in np.nonzero(hnz)[0]:
        n = modes[i_n]
        m = n[None, :] - modes
        ok = hnz & (np.abs(m).max(1) <= N) & ((m[:, 0] != 0) | (m[:, 1] != 0))
        if not ok.any():
            continue
        ks = modes[ok]
        ms = m[ok]
        mi = ((ms[:, 0] + N) * L + (ms[:, 1] + N)) * L + (ms[:, 2] + N)
        wk, wm, wn = om[ok], om[mi], om[i_n]
        for a_, b_, c_ in itertools.product((1, -1), repeat=3):
            hit = np.abs(a_ * wk + b_ * wm - c_ * wn) < tol
            for kk, mm in zip(ks[hit], ms[hit]):
                out.add((tuple(kk), tuple(mm), tuple(n), a_, b_, c_))
    return out


def _per_n_loop_oracle(geometry, N):
    """radical_sign_triads as a Python loop over the output modes n: per n,
    mask the in-box partners, screen each of the 8 sign classes and confirm
    every hit through resonance.exact_sqrt_sum_is_zero."""
    g = geometry
    modes = resonance._box_modes(N)
    omN = resonance._omega_float(g)[resonance._subblock_flat(g, N)]
    h_nonzero = (modes[:, 0] != 0) | (modes[:, 1] != 0)
    Lb = 2 * N + 1
    sq_cache = {}

    def rsq(v):
        if v not in sq_cache:
            sq_cache[v] = g.omega_sq_exact(v)
        return sq_cache[v]

    out = []
    for idx_n, n in enumerate(modes):
        if not h_nonzero[idx_n]:
            continue
        m = n[None, :] - modes
        ok = h_nonzero & (np.abs(m).max(axis=1) <= N) & ((m[:, 0] != 0) | (m[:, 1] != 0))
        if not ok.any():
            continue
        ks, ms, wk = modes[ok], m[ok], omN[ok]
        wm = omN[((ms[:, 0] + N) * Lb + (ms[:, 1] + N)) * Lb + (ms[:, 2] + N)]
        wn = omN[idx_n]
        for a, b, c in itertools.product((1, -1), repeat=3):
            cand = np.abs(a * wk + b * wm - c * wn) < resonance.SCREEN_TOL
            for kk, mm in zip(ks[cand], ms[cand]):
                kk, mm, nn = tuple(kk.tolist()), tuple(mm.tolist()), tuple(n.tolist())
                rk, rm, rn = rsq(kk), rsq(mm), rsq(nn)
                if resonance.exact_sqrt_sum_is_zero([(a, rk), (b, rm), (-c, rn)]):
                    out.append((kk, mm, nn, a, b, c, (rk, rm, rn)))
    return out


class TestExactDecision:
    def test_radical_value_domain(self):
        with pytest.raises(ValueError):
            RadicalValue(Fraction(3, 2))
        assert float(RadicalValue(Fraction(1, 4), -1)) == -0.5

    def test_two_term_cases(self):
        half = Fraction(1, 2)
        assert exact_sqrt_sum_is_zero([(1, half), (-1, half)])
        assert not exact_sqrt_sum_is_zero([(1, half), (1, half)])
        assert not exact_sqrt_sum_is_zero([(1, half), (-1, Fraction(1, 3))])

    def test_three_term_known_identity(self):
        # sqrt(1/4) + sqrt(1/4) = sqrt(1) on the same quadratic ray
        q = Fraction(1, 4)
        assert exact_sqrt_sum_is_zero([(1, q), (1, q), (-1, Fraction(1))])
        assert not exact_sqrt_sum_is_zero([(1, q), (1, q), (-1, Fraction(9, 10))])
        # sign feasibility: sqrt(1/4) - sqrt(1/4) != sqrt(1)
        assert not exact_sqrt_sum_is_zero([(1, q), (-1, q), (-1, Fraction(1))])

    def test_equal_moduli_pair(self, unit_torus_4):
        # omega(1,0,1) = omega(-1,0,1): the (+,-) pair cancels; target n_h = 0
        assert is_resonant(unit_torus_4, (1, 0, 1), (-1, 0, 1), (0, 0, 2), 1, -1, 0)

    def test_collinear_pair_never_resonant(self, unit_torus_4):
        for a, b, c in itertools.product((1, -1), repeat=3):
            assert not is_resonant(
                unit_torus_4, (1, 0, 0), (1, 0, 0), (2, 0, 0), a, b, c
            )

    def test_omega_tilde_condition(self, unit_torus_4):
        # m = (n_h, -n3) has the same frequency as n: omega^b(m) = omega^c(n) iff b = c
        n = (2, 1, 3)
        m = (2, 1, -3)
        k = (0, 0, 6)
        assert is_resonant(unit_torus_4, k, m, n, 0, 1, 1)
        assert is_resonant(unit_torus_4, k, m, n, 0, -1, -1)
        assert not is_resonant(unit_torus_4, k, m, n, 0, 1, -1)

    def test_convolution_precondition(self, unit_torus_4):
        with pytest.raises(ValueError):
            is_resonant(unit_torus_4, (1, 0, 0), (1, 0, 0), (1, 0, 0), 1, 1, 1)


class TestEnumeration:
    @pytest.mark.parametrize("a_sq,a", [((1, 1, 1), (1, 1, 1)), ((1, 4, 1), (1, 2, 1))])
    def test_exact_equals_float_oracle_n6(self, a_sq, a):
        g = TorusGeometry(a_sq, 6)
        exact = {
            (t.k, t.m, t.n, t.a, t.b, t.c) for t in enumerate_kstar(g, 6)
        }
        oracle = float_brute_force_kstar(a, 6)
        assert exact == oracle

    def test_empty_on_unit_torus_n8_frozen(self):
        # frozen empirical fact: no all-sign resonances within the N = 8 box
        g = TorusGeometry((1, 1, 1), 8)
        assert enumerate_kstar(g, 8) == []

    def test_positive_control_sq3_torus(self):
        # a3^2 = 3: omega(1,0,3) = omega(0,1,-3) = 1/2, omega(1,1,0) = 1
        g = TorusGeometry((1, 1, 3), 3)
        triads = enumerate_kstar(g, 3)
        assert triads, "resonant triads must exist on the a3^2 = 3 torus"
        members = {(t.k, t.m, t.n, t.a, t.b, t.c) for t in triads}
        assert ((1, 0, 3), (0, 1, -3), (1, 1, 0), 1, 1, 1) in members
        for t in triads:
            assert t.verify(g)
        oracle = float_brute_force_kstar((1.0, 1.0, np.sqrt(3.0)), 3)
        assert members == oracle

    @pytest.mark.parametrize(
        "a_sq,gN,N", [((1, 2, 3), 6, 6), ((1, 1, 3), 4, 4), ((1, 2, 3), 8, 5), ((1, 1, 1), 4, 4)]
    )
    def test_chunked_pairs_match_per_n_loop(self, a_sq, gN, N, monkeypatch):
        g = TorusGeometry(a_sq, gN)
        calls = Counter()
        exact = resonance.exact_sqrt_sum_is_zero

        def counting(terms):
            calls[tuple(terms)] += 1
            return exact(terms)

        monkeypatch.setattr(resonance, "exact_sqrt_sum_is_zero", counting)
        want = sorted(_per_n_loop_oracle(g, N))
        want_calls = calls.copy()
        calls.clear()
        got = sorted(radical_sign_triads(g, N))
        assert got == want
        assert calls == want_calls
        assert bool(got) == (a_sq != (1, 1, 1))

    def test_chunk_size_does_not_change_kstar(self, monkeypatch):
        g = TorusGeometry((1, 1, 3), 4)
        want = enumerate_kstar(g)
        monkeypatch.setattr(resonance, "_PAIR_CHUNK", 100)
        assert want and enumerate_kstar(g) == want

    def test_lexicographic_order(self):
        g = TorusGeometry((1, 1, 3), 3)
        triads = enumerate_kstar(g, 3)
        keys = [t.sort_key() for t in triads]
        assert keys == sorted(keys)

    def test_symmetries(self):
        g = TorusGeometry((1, 1, 3), 4)
        members = {(t.k, t.m, t.n, t.a, t.b, t.c) for t in enumerate_kstar(g, 4)}
        for k, m, n, a, b, c in members:
            assert (m, k, n, b, a, c) in members  # slot swap
            neg = tuple(-x for x in k), tuple(-x for x in m), tuple(-x for x in n)
            assert (*neg, a, b, c) in members  # conjugation (omega is even)
            assert (k, m, n, -a, -b, -c) in members  # global sign flip


class TestFiber:
    def test_bound_full_scan_n4(self, unit_torus_4):
        g = unit_torus_4
        worst = 0
        for kh1, kh2 in itertools.product(range(-2, 3), repeat=2):
            if (kh1, kh2) == (0, 0):
                continue
            for n in [(1, 0, 1), (2, 1, -3), (1, 1, 0), (3, 0, 2)]:
                if (n[0] - kh1, n[1] - kh2) == (0, 0):
                    continue
                f = fiber(g, (kh1, kh2), n, k3_max=16)
                worst = max(worst, len(f))
        assert worst <= 8

    def test_degenerate_partner_excluded(self, unit_torus_4):
        # m_h = 0 disqualifies the whole fiber
        assert fiber(unit_torus_4, (1, 1), (1, 1, 2)) == []

    def test_positive_fiber_on_sq3(self):
        g = TorusGeometry((1, 1, 3), 3)
        f = fiber(g, (1, 0), (1, 1, 0), k3_max=12)
        assert 3 in f and -3 in f
        assert len(f) <= 8

    def test_polynomial_root_oracle(self):
        # clearing radicals twice gives a sign-free degree-8 polynomial in k3
        # whose integer roots are exactly the fiber
        sympy = pytest.importorskip("sympy")
        cases = [
            (TorusGeometry((1, 1, 3), 3), (1, 0), (1, 1, 0)),
            (TorusGeometry((1, 1, 3), 3), (0, 1), (1, 1, 0)),
            (TorusGeometry((1, 1, 1), 4), (1, 1), (2, 1, 1)),
            (TorusGeometry((1, 4, 1), 4), (1, -1), (2, 1, 2)),
        ]
        x = sympy.symbols("k3")
        for g, kh, n in cases:
            a1s, a2s, a3s = (sympy.Rational(s) for s in g.a_sq)
            Hk = sympy.Rational(kh[0] ** 2) / a1s + sympy.Rational(kh[1] ** 2) / a2s
            Sk = Hk + x**2 / a3s
            mh = (n[0] - kh[0], n[1] - kh[1])
            Hm = sympy.Rational(mh[0] ** 2) / a1s + sympy.Rational(mh[1] ** 2) / a2s
            Sm = Hm + (sympy.Rational(n[2]) - x) ** 2 / a3s
            Hn = sympy.Rational(n[0] ** 2) / a1s + sympy.Rational(n[1] ** 2) / a2s
            Sn = Hn + sympy.Rational(n[2] ** 2) / a3s
            rk, rm, rn = Hk / Sk, Hm / Sm, sympy.Rational(Hn, 1) / Sn
            expr = sympy.together((rn - rk - rm) ** 2 - 4 * rk * rm)
            num, _ = sympy.fraction(expr)
            poly = sympy.Poly(sympy.expand(num), x)
            assert poly.degree() <= 8
            coeffs = [float(c) for c in poly.all_coeffs()]
            roots = np.roots(coeffs)
            k3_max = 16
            int_roots = sorted(
                {
                    int(round(z.real))
                    for z in roots
                    if abs(z.imag) < 1e-7
                    and abs(z.real - round(z.real)) < 1e-7
                    and abs(z.real) <= k3_max
                }
            )
            exact = fiber(g, kh, n, k3_max=k3_max)
            # keep only integer roots that satisfy some signed equation in floats
            a = np.asarray(g.a)
            def w(v):
                vc = np.asarray(v, dtype=float) / a
                return np.sqrt((vc[0] ** 2 + vc[1] ** 2) / np.dot(vc, vc))
            confirmed = []
            for k3 in int_roots:
                kk = (kh[0], kh[1], k3)
                mm = (mh[0], mh[1], n[2] - k3)
                vals = [
                    abs(sa * w(kk) + sb * w(mm) - sc * w(n))
                    for sa, sb, sc in itertools.product((1, -1), repeat=3)
                ]
                if min(vals) < 1e-7:
                    confirmed.append(k3)
            assert confirmed == exact


class TestIab:
    @pytest.mark.parametrize("sgn", [1, -1])
    def test_same_sign_pairs_empty(self, unit_torus_4, sgn):
        for n3 in (-2, 0, 1, 4):
            assert enumerate_iab(unit_torus_4, n3, a=sgn, b=sgn) == []

    def test_zero_sign_against_wave_empty(self, unit_torus_4):
        assert enumerate_iab(unit_torus_4, 2, a=1, b=0) == []
        assert enumerate_iab(unit_torus_4, 2, a=0, b=-1) == []

    def test_odd_vertical_mode_empty(self, unit_torus_4):
        assert enumerate_iab(unit_torus_4, 3, a=1, b=-1) == []
        assert enumerate_iab(unit_torus_4, -1, a=-1, b=1) == []

    def test_even_vertical_mode_structure(self):
        g = TorusGeometry((1, 1, 1), 3)
        got = enumerate_iab(g, 2, a=1, b=-1)
        want = sorted(
            ((k1, k2, 1), (-k1, -k2, 1))
            for k1 in range(-3, 4)
            for k2 in range(-3, 4)
            if (k1, k2) != (0, 0)
        )
        assert got == want

    def test_n3_zero_opposite_family(self):
        g = TorusGeometry((1, 1, 1), 2)
        got = enumerate_iab(g, 0, a=1, b=-1)
        assert (((1, 0, 2), (-1, 0, -2))) in got
        for k, m in got:
            assert m == tuple(-x for x in k)

    def test_zero_zero_is_unrestricted(self, unit_torus_4):
        got = enumerate_iab(unit_torus_4, 1, N=2, a=0, b=0)
        count = 24 * 5 * 1  # k_h != 0 choices x k3 range, m3 = 1 - k3 in range
        # m3 in [-2, 2] restricts k3 to [-1, 2]: 4 values
        assert len(got) == 24 * 4


class TestKstarPairs:
    def test_pair_set_matches_triads(self):
        g = TorusGeometry((1, 1, 3), 3)
        pairs = kstar_pairs(g, 3)
        triads = enumerate_kstar(g, 3)
        assert pairs == {(t.k, t.n) for t in triads}
