"""The filtered bilinear forms, their limits, and the remainder decomposition."""

import itertools

import numpy as np
import pytest

import frspec.forms as forms
import frspec.resonance as resonance
from frspec.fields import (
    SpectralField4,
    convolve_quadratic,
    inner_l2,
    l2_norm,
    leray_project,
    single_mode_field,
    sobolev_norm,
    transport,
    zero_field,
)
from frspec.forms import FormEngine, project_tilde
from frspec.geometry import TorusGeometry
from frspec.resonance import exact_sqrt_sum_is_zero, is_resonant, omega_ratio_ints
from frspec.waves import (
    EigenBasis,
    bar_part,
    coefficients,
    decompose,
    eigenbasis,
    field_from_coefficients,
    osc_part,
    underline_part,
)

from conftest import random_field


@pytest.fixture(scope="module")
def engine4(unit_torus_4):
    return FormEngine(unit_torus_4, nu=1.0)


@pytest.fixture(scope="module")
def engine3(unit_torus_3):
    return FormEngine(unit_torus_3, nu=1.0)


# sign classes (a, b, c) in their row order within one output mode
CLASS_ORDER = [(0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1), (1, -1, 0), (-1, 1, 0)] + list(
    itertools.product((1, -1), repeat=3)
)
TABLE_ARRAYS = ("kf", "mf", "nf", "ia", "ib", "ic", "G", "ka", "mb", "nc")
UNDER_ARRAYS = ("kf", "mf", "n3i", "ia", "ib", "G4", "ka", "mb", "out")


def brute_force_triads(g):
    """Nested-loop resonant set of the tilde-output table.

    Returns the rows {(kf, mf, nf, a, b, c)} and the number of (pair, radical
    class) combinations that pass the table's float screen
    |a wk + b wm - c wn| < 1e-11.  Zero-sign classes are the integer
    equalities H_x S_y == H_y S_x; radical classes are decided by the scalar
    exact_sqrt_sum_is_zero."""
    H, S = omega_ratio_ints(g)
    N = g.N
    axis = range(-N, N + 1)
    modes = [(x, y, z) for x in axis for y in axis for z in axis if (x, y) != (0, 0)]
    flat = {n: g.flat_index(n) for n in modes}
    w = {f: float(np.sqrt(H[f] / S[f])) for f in flat.values()}
    radicands = sorted({g.omega_sq_exact(n) for n in modes})
    rid = {flat[n]: radicands.index(g.omega_sq_exact(n)) for n in modes}
    decided = {}

    def resonant(a, b, c, fk, fm, fn):
        key = (a, b, c, rid[fk], rid[fm], rid[fn])
        if key not in decided:
            terms = [(a, radicands[key[3]]), (b, radicands[key[4]]), (-c, radicands[key[5]])]
            decided[key] = exact_sqrt_sum_is_zero(terms)
        return decided[key]

    def same(x, y):
        return H[x] * S[y] == H[y] * S[x]

    rows, screened = set(), 0
    for n in modes:
        fn = flat[n]
        for k in modes:
            m = (n[0] - k[0], n[1] - k[1], n[2] - k[2])
            if m not in flat:
                continue
            fk, fm = flat[k], flat[m]
            for a, b, c in CLASS_ORDER:
                if a == 0:
                    ok = same(fm, fn)
                elif b == 0:
                    ok = same(fk, fn)
                elif c == 0:
                    ok = same(fk, fm)
                else:
                    screened += abs(a * w[fk] + b * w[fm] - c * w[fn]) < 1e-11
                    ok = resonant(a, b, c, fk, fm, fn)
                if ok:
                    rows.add((fk, fm, fn, a, b, c))
    return rows, screened


class TestTables:
    @pytest.mark.parametrize("a_sq", [(1, 2, 3), (1, 1, 1)])
    def test_against_brute_force(self, a_sq, monkeypatch):
        g = TorusGeometry(a_sq, 3)
        want_rows, want_screened = brute_force_triads(g)
        calls = []

        def counting(terms):
            calls.append(terms)
            return exact_sqrt_sum_is_zero(terms)

        monkeypatch.setattr(forms, "exact_sqrt_sum_is_zero", counting)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        assert len(calls) == want_screened
        if a_sq == (1, 2, 3):
            assert want_screened > 0
        got = list(zip(tab.kf.tolist(), tab.mf.tolist(), tab.nf.tolist(),
                       tab.ia.tolist(), tab.ib.tolist(), tab.ic.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == want_rows
        keys = [(nf, CLASS_ORDER.index((a, b, c)), kf) for kf, _, nf, a, b, c in got]
        assert keys == sorted(keys)
        assert np.array_equal(tab.G, eng._G_rows(tab.kf, tab.ia, tab.mf, tab.ib, tab.nf, tab.ic))

    def test_chunk_sizes_do_not_change_the_tables(self, monkeypatch):
        g = TorusGeometry((1, 2, 3), 3)
        big_t, big_u = FormEngine(g, nu=1.0).tables
        monkeypatch.setattr(resonance, "_PAIR_CHUNK", 500)
        monkeypatch.setattr(forms, "_G_CHUNK", 1000)
        small_t, small_u = FormEngine(g, nu=1.0).tables
        assert big_t.rows > 1000
        for name in TABLE_ARRAYS:
            x, y = getattr(big_t, name), getattr(small_t, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        for name in UNDER_ARRAYS:
            x, y = getattr(big_u, name), getattr(small_u, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_kstar_pairs_are_the_sorted_distinct_radical_pairs(self):
        eng = FormEngine(TorusGeometry((1, 2, 3), 3), nu=1.0)
        tab, _ = eng.tables
        allpm = (tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)
        want = sorted({(int(k), int(n)) for k, n in zip(tab.kf[allpm], tab.nf[allpm])})
        kf, nf = eng.kstar_pair_indices()
        assert want and list(zip(kf.tolist(), nf.tolist())) == want
        assert kf.dtype == nf.dtype == np.int64

    def test_class_rows(self):
        tab, _ = FormEngine(TorusGeometry((1, 2, 3), 3), nu=1.0).tables
        counts = tab.class_rows()
        assert list(counts) == [
            "".join("m0p"[x + 1] for x in cls) for cls in CLASS_ORDER
        ]
        for cls, n in zip(CLASS_ORDER, counts.values()):
            assert n == np.sum((tab.ia == cls[0]) & (tab.ib == cls[1]) & (tab.ic == cls[2]))
        assert sum(counts.values()) == tab.rows


def _row_products_2d(eng, V1, V2, tab):
    """The row product with 2-D (sign row, mode) gathers."""
    C1, C2 = eng._coeff_matrix(V1), eng._coeff_matrix(V2)
    x1 = C1[tab.ia + 1, tab.kf]
    y2 = C2[tab.ib + 1, tab.mf]
    x2 = C2[tab.ia + 1, tab.kf]
    y1 = C1[tab.ib + 1, tab.mf]
    return 0.5j * (0.5 * (x1 * y2 + x2 * y1))


def q_resonant_2d(eng, V1, V2):
    g = eng.geometry
    tab, _ = eng.tables
    out = np.zeros((3, g.nmodes), dtype=np.complex128)
    np.add.at(out, (tab.ic + 1, tab.nf), _row_products_2d(eng, V1, V2, tab) * tab.G)
    shape = (g.L,) * 3
    return field_from_coefficients(
        g, {-1: out[0].reshape(shape), 0: out[1].reshape(shape), 1: out[2].reshape(shape)}
    )


def q_underline_2d(eng, V1, V2):
    g = eng.geometry
    til1, til2 = project_tilde(V1), project_tilde(V2)
    fft_part = underline_part(transport(bar_part(til1), bar_part(til2)))
    _, qu = eng.tables
    out_line = np.zeros((g.L, 4), dtype=np.complex128)
    np.add.at(out_line, qu.n3i, _row_products_2d(eng, til1, til2, qu)[:, None] * qu.G4)
    out = zero_field(g)
    out.coeffs[g.N, g.N, :, :] = out_line
    return (fft_part + out).pin_zero_mode()


class TestFlatIndexApply:
    @pytest.mark.parametrize("a_sq, N", [((1, 2, 3), 3), ((1, 1, 1), 4)])
    def test_matches_2d_indexed_scatter(self, a_sq, N):
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        A = random_field(g, seed=61, spectrum_r=1.0)
        B = random_field(g, seed=62, spectrum_r=1.0)
        # random underline weights, so that the scatter sums nonzero rows
        _, qu = eng.tables
        rng = np.random.default_rng(63)
        qu.G4 = rng.standard_normal(qu.G4.shape) + 1j * rng.standard_normal(qu.G4.shape)
        for got, want in (
            (eng.q_resonant(A, B), q_resonant_2d(eng, A, B)),
            (eng.q_underline(A, B), q_underline_2d(eng, A, B)),
        ):
            assert np.max(np.abs(got.coeffs)) > 0
            assert got.coeffs.tobytes() == want.coeffs.tobytes()


class TestQeps:
    def test_bilinear_zero(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=31)
        out = engine4.q_eps(0.4, 0.1, V, zero_field(unit_torus_4))
        assert l2_norm(out) == 0.0

    def test_t0_is_projected_transport(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=32)
        got = engine4.q_eps(0.0, 0.05, V, V)
        want = leray_project(convolve_quadratic(V, V))
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10

    def test_energy_neutral(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=33)
        q = engine4.q_eps(0.7, 0.02, V, V)
        assert abs(inner_l2(q, V)) < 1e-10 * l2_norm(q) * l2_norm(V)

    def test_symmetric(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=34)
        B = random_field(unit_torus_4, seed=35)
        ab = engine4.q_eps(0.3, 0.1, A, B)
        ba = engine4.q_eps(0.3, 0.1, B, A)
        assert np.array_equal(ab.coeffs, ba.coeffs)

    def test_rejects_bad_eps(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=36)
        with pytest.raises(ValueError):
            engine4.q_eps(0.1, 0.0, V, V)


class TestA2:
    def test_underline_heat_display(self, unit_torus_4):
        eng = FormEngine(unit_torus_4, nu=1.0)
        f = single_mode_field(unit_torus_4, (0, 0, 1), [1, 2, 0, 4])
        out = eng.a2_limit(f)
        got = out.coeffs[4, 4, 5]
        # (nu d33 W1, nu d33 W2, 0, 0): factor -1 on components 1, 2
        assert np.allclose(got, [-1, -2, 0, 0], atol=1e-14)

    def test_osc_phase_free_diagonal_is_half_laplacian(self, unit_torus_4):
        # <A2 e_pm, e_pm> = -nu |ncheck|^2 / 2: the wave carries half its
        # energy in the undiffused fourth component
        eng = FormEngine(unit_torus_4, nu=1.0)
        t = eigenbasis(unit_torus_4, (1, 0, 1))
        f = single_mode_field(unit_torus_4, (1, 0, 1), t.ep)
        out = eng.a2_limit(f)
        got = out.coeffs[5, 4, 5]
        assert np.max(np.abs(got - (-1.0) * t.ep)) < 1e-13  # -nu |ncheck|^2/2 = -1

    def test_bar_full_laplacian(self, unit_torus_4):
        eng = FormEngine(unit_torus_4, nu=2.0)
        t = eigenbasis(unit_torus_4, (2, 1, 0))
        f = single_mode_field(unit_torus_4, (2, 1, 0), t.e0)
        out = eng.a2_limit(f)
        got = out.coeffs[6, 5, 4]
        assert np.max(np.abs(got - (-2.0 * 5.0) * t.e0)) < 1e-12

    def test_a2_eps_large_eps_is_plain_symbol(self, unit_torus_4):
        eng = FormEngine(unit_torus_4, nu=1.0)
        W = random_field(unit_torus_4, seed=37)
        got = eng.a2_eps(1.0, 1e12, W)
        want = eng.a2_symbol(W)
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10

    def test_a2_average_matches_limit(self, unit_torus_4):
        # 64 Blackman-weighted equispaced phases suffice for the dissipation
        # (its phase gaps are bounded below by 2 omega_min)
        eng = FormEngine(unit_torus_4, nu=1.0)
        W = random_field(unit_torus_4, seed=38)
        M, span = 64, 134.0
        th = (np.arange(M) + 0.5) * span / M
        w = np.blackman(M + 2)[1:-1]
        w = w / np.sum(w)
        acc = zero_field(unit_torus_4)
        for t_, w_ in zip(th, w):
            acc.coeffs += w_ * eng.a2_eps(t_, 1.0, W).coeffs
        want = eng.a2_limit(W)
        assert l2_norm(acc - want) < 5e-3 * l2_norm(want)


class TestQtilde1:
    def test_bar_bar_has_no_wave_output(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=39)
        dec = decompose(V)
        out = engine4.q_tilde1(dec.bar, dec.bar)
        c = coefficients(out)
        osc = np.sqrt(np.sum(np.abs(c[1]) ** 2 + np.abs(c[-1]) ** 2))
        assert osc < 1e-12 * l2_norm(dec.bar) ** 2

    def test_e0_projection_is_horizontal_transport(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=40)
        til = project_tilde(V)
        dec = decompose(V)
        out = engine4.q_tilde1(til, til)
        c = coefficients(out)
        got = field_from_coefficients(unit_torus_4, {0: c[0]})
        adv = leray_project(
            convolve_quadratic(dec.bar, dec.bar, stencil="horizontal"),
            check_mean=False,
        )
        ca = coefficients(adv)
        want = field_from_coefficients(unit_torus_4, {0: ca[0]})
        assert l2_norm(got - want) < 1e-10 * l2_norm(want)

    def test_exact_symmetry(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=41)
        B = random_field(unit_torus_4, seed=42)
        ab = engine4.q_tilde1(A, B)
        ba = engine4.q_tilde1(B, A)
        assert np.array_equal(ab.coeffs, ba.coeffs)

    def test_fft_class_plus_resonant_classes(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=41)
        B = random_field(unit_torus_4, seed=42)
        fft_class = bar_part(transport(bar_part(A), bar_part(B)))
        want = (fft_class + engine4.q_resonant(A, B)).pin_zero_mode()
        assert np.array_equal(engine4.q_tilde1(A, B).coeffs, want.coeffs)

    def test_resonant_exact_symmetry(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=41)
        B = random_field(unit_torus_4, seed=42)
        ab = engine4.q_resonant(A, B)
        ba = engine4.q_resonant(B, A)
        assert np.array_equal(ab.coeffs, ba.coeffs)

    @pytest.mark.parametrize(
        "a_sq, N, radical_rows", [((1, 2, 3), 3, 24), ((1, 1, 1), 4, 0)]
    )
    def test_one_resonant_sum_drives_the_waves(self, a_sq, N, radical_rows):
        # the wave forcing of the limit stepper, osc_part(q(o, o) + 2 q(b, o))
        # with both q_tilde1 calls, is one sum q_resonant(o, o + 2b)
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        assert np.sum((tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)) == radical_rows
        dec = decompose(random_field(g, seed=5, amplitude=1.0, spectrum_r=3.0))
        o, b = dec.osc, dec.bar
        want = osc_part(eng.q_tilde1(o, o) + 2.0 * eng.q_tilde1(b, o))
        got = osc_part(eng.q_resonant(o, o + 2.0 * b))
        assert l2_norm(got - want) < 1e-13 * l2_norm(want)

    def test_energy_neutral(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=43)
        til = project_tilde(V)
        q = engine4.q_tilde1(til, til)
        assert abs(inner_l2(q, til)) < 1e-10 * max(l2_norm(q) * l2_norm(til), 1e-300)

    def test_output_is_real_field(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=44)
        til = project_tilde(V)
        out = engine4.q_tilde1(til, til)
        assert out.hermitian_defect() < 1e-12


class TestQtilde2AndB:
    def test_zero_underline_slot(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=45)
        osc = decompose(V).osc
        out = engine4.b_form(zero_field(unit_torus_4), osc)
        assert l2_norm(out) == 0.0

    def test_single_mode_bookkeeping(self, unit_torus_4):
        # underline at vertical mode 2 couples the wave at (1, 0, -1) into
        # output (1, 0, 1) only (plus the conjugate modes)
        g = unit_torus_4
        eng = FormEngine(g, nu=1.0)
        und = single_mode_field(g, (0, 0, 2), [1.0, 0.5, 0, 2.0])
        t = eigenbasis(g, (1, 0, -1))
        osc = single_mode_field(g, (1, 0, -1), t.ep)
        out = eng.b_form(und, osc)
        assert l2_norm(out) > 1e-12
        mask = np.zeros_like(out.coeffs, dtype=bool)
        mask[g.N + 1, g.N, g.N + 1] = True
        mask[g.N - 1, g.N, g.N - 1] = True
        leak = out.coeffs.copy()
        leak[mask] = 0.0
        assert np.max(np.abs(leak)) < 1e-13

    def test_sobolev_commutation(self, engine4, unit_torus_4):
        # B couples only equal-|ncheck| modes, so it commutes with (-Lap)^{s/2}
        # and the two H^s pairings of the spec example coincide
        g = unit_torus_4
        V = random_field(g, seed=46)
        dec = decompose(V)
        und, osc = dec.underline, dec.osc
        s = 1.5
        lam = np.sqrt(g.check_sq) ** s
        B1 = engine4.b_form(und, osc)
        osc_s = SpectralField4(g, lam[..., None] * osc.coeffs)
        B2 = engine4.b_form(und, osc_s)
        scale = np.max(np.abs(B2.coeffs))
        assert np.max(np.abs(B2.coeffs - lam[..., None] * B1.coeffs)) < 1e-12 * scale
        pair1 = complex(np.sum(lam[..., None] ** 2 * B1.coeffs * np.conj(osc.coeffs)))
        pair2 = inner_l2(B2, osc_s)
        pair_scale = l2_norm(B2) * l2_norm(osc_s)
        assert abs(pair1 - pair2) < 1e-10 * pair_scale
        # the restricted transport is also energy-neutral, like its parent
        assert abs(pair2) < 1e-12 * pair_scale

    def test_q_tilde2_e0_projection_is_underline_transport(self, engine4, unit_torus_4):
        g = unit_torus_4
        V = random_field(g, seed=47)
        dec = decompose(V)
        out = engine4.q_tilde2(V, V)
        c = coefficients(out)
        got = field_from_coefficients(g, {0: c[0]})
        # with the 1/2-symmetrized kernel, both slot sums together give one
        # copy of the underline transport (matching the bar limit equation)
        adv = leray_project(
            convolve_quadratic(dec.underline, dec.bar, stencil="horizontal"),
            check_mean=False,
        )
        ca = coefficients(adv)
        want = field_from_coefficients(g, {0: ca[0]})
        assert l2_norm(got - want) < 1e-10 * max(l2_norm(want), 1e-300)


class TestQunderline:
    def test_self_cancellation(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=48)
        til = project_tilde(V)
        out = engine4.q_underline(til, til)
        assert l2_norm(out) < 1e-12 * l2_norm(til) ** 2

    def test_disjoint_horizontal_supports(self, engine4, unit_torus_4):
        g = unit_torus_4
        t1 = eigenbasis(g, (1, 0, 1))
        t2 = eigenbasis(g, (1, 1, -1))
        A = single_mode_field(g, (1, 0, 1), t1.ep)
        B = single_mode_field(g, (1, 1, -1), t2.ep)
        out = engine4.q_underline(A, B)
        assert l2_norm(out) < 1e-14

    def test_against_brute_force_triads(self, engine3, unit_torus_3):
        """Direct evaluation of the underline limit form from its definition."""
        g = unit_torus_3
        basis = EigenBasis.of(g)
        V = random_field(g, seed=49)
        til = project_tilde(V)
        c = coefficients(til)
        cof = {a: c[a].reshape(-1) for a in (0, 1, -1)}
        ev = {0: basis.e0.reshape(-1, 4), 1: basis.ep.reshape(-1, 4), -1: basis.em.reshape(-1, 4)}
        N, L = g.N, g.L
        want_line = np.zeros((L, 4), dtype=np.complex128)
        bar0 = coefficients(decompose(V).bar)
        for n3 in range(-N, N + 1):
            n = (0, 0, n3)
            nc3 = n3 / g.a[2]
            for k1 in range(-N, N + 1):
                for k2 in range(-N, N + 1):
                    if (k1, k2) == (0, 0):
                        continue
                    for k3 in range(-N, N + 1):
                        m = (-k1, -k2, n3 - k3)
                        if abs(m[2]) > N:
                            continue
                        k = (k1, k2, k3)
                        fk = g.flat_index(k)
                        fm = g.flat_index(m)
                        for a in (0, 1, -1):
                            for b in (0, 1, -1):
                                if not is_resonant(g, k, m, n, a, b, 0):
                                    continue
                                A4 = cof[a][fk] * ev[a][fk]
                                B4 = cof[b][fm] * ev[b][fm]
                                term = 1j * nc3 * (A4[2] * B4 + B4[2] * A4)
                                term[2] = 0.0  # Leray at (0,0,n3)
                                want_line[n3 + N] += 0.5 * term
        got = engine3.q_underline(til, til)
        got_line = got.coeffs[N, N, :, :]
        scale = max(np.max(np.abs(want_line)), l2_norm(til) ** 2)
        assert np.max(np.abs(got_line - want_line)) < 1e-12 * scale

    def test_output_purely_underline(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=50)
        B = random_field(unit_torus_4, seed=51)
        out = engine4.q_underline(project_tilde(A), project_tilde(B))
        off = out.coeffs.copy()
        off[unit_torus_4.N, unit_torus_4.N, :, :] = 0.0
        assert np.max(np.abs(off)) == 0.0


class TestTrilinear:
    def test_empty_set_gives_zero(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=52)
        val = engine4.trilinear_resonant(
            V.coeffs[..., 0], V.coeffs[..., 1], V.coeffs[..., 3]
        )
        assert val == 0.0

    def test_positive_control_brute_force(self):
        g = TorusGeometry((1, 1, 3), 3)
        eng = FormEngine(g, nu=1.0)
        rng = np.random.default_rng(53)
        a = rng.standard_normal((7, 7, 7)) + 1j * rng.standard_normal((7, 7, 7))
        b = rng.standard_normal((7, 7, 7)) + 1j * rng.standard_normal((7, 7, 7))
        c = rng.standard_normal((7, 7, 7)) + 1j * rng.standard_normal((7, 7, 7))
        got = eng.trilinear_resonant(a, b, c)
        from frspec.resonance import kstar_pairs

        want = 0.0 + 0.0j
        for k, n in sorted(kstar_pairs(g, 3)):
            m = tuple(np.subtract(n, k))
            want += (
                a[tuple(np.add(k, 3))] * b[tuple(np.add(m, 3))] * c[tuple(np.add(n, 3))]
            )
        assert got != 0.0
        assert abs(got - want) < 1e-12 * abs(want)

    def test_bounded_by_product_norm(self):
        # existence of the trilinear constant: measured ratios stay far
        # below a fixed bound across seeds
        g = TorusGeometry((1, 1, 3), 3)
        eng = FormEngine(g, nu=1.0)
        ratios = []
        for seed in range(10):
            A = random_field(g, seed=100 + seed, divergence_free=False)
            A.coeffs[3, 3, :, :] = 0.0
            B = random_field(g, seed=200 + seed, divergence_free=False)
            B.coeffs[3, 3, :, :] = 0.0
            C = random_field(g, seed=300 + seed, divergence_free=False)
            C.coeffs[3, 3, :, :] = 0.0
            val = sum(
                eng.trilinear_resonant(
                    A.coeffs[..., c], B.coeffs[..., c], C.coeffs[..., c]
                )
                for c in range(4)
            )
            ratios.append(
                abs(val)
                / (sobolev_norm(0.5, A) * sobolev_norm(0.5, B) * l2_norm(C))
            )
        assert max(ratios) < 0.01
        assert any(r > 0 for r in ratios)


class TestRemainders:
    def test_identity_per_call(self, engine4, unit_torus_4):
        U = random_field(unit_torus_4, seed=54)
        t, eps = 0.37, 0.03
        r1, r2, r3, s = engine4.remainders(t, eps, U)
        lhs = r1 + r2 + r3 + s
        rhs = (
            engine4.q_eps(t, eps, U, U)
            - engine4.q_limit(U, U)
            - (engine4.a2_eps(t, eps, U) - engine4.a2_limit(U))
        )
        assert l2_norm(lhs - rhs) < 1e-10 * max(l2_norm(rhs), 1e-300)

    def test_t0_phases_are_one(self, engine4, unit_torus_4):
        U = random_field(unit_torus_4, seed=55)
        r1, r2, r3, s = engine4.remainders(0.0, 0.5, U)
        til = project_tilde(U)
        want_r1 = project_tilde(
            engine4.q_eps(0.0, 1.0, til, til)
        ) - engine4.q_tilde1(til, til)
        assert np.max(np.abs(r1.coeffs - want_r1.coeffs)) < 1e-12

    def test_time_average_decays(self, engine3, unit_torus_3):
        U = random_field(unit_torus_3, seed=56)
        scales = [l2_norm(x) for x in engine3.remainders(0.0, 1.0, U)]

        def averaged(span, M=192):
            th = (np.arange(M) + 0.5) * span / M
            w = np.blackman(M + 2)[1:-1]
            w = w / np.sum(w)
            acc = [zero_field(unit_torus_3) for _ in range(4)]
            for t_, w_ in zip(th, w):
                rs = engine3.remainders(t_, 1.0, U)
                for i in range(4):
                    acc[i].coeffs += w_ * rs[i].coeffs
            return [l2_norm(x) for x in acc]

        short = averaged(50.0)
        long = averaged(400.0)
        for i in range(4):
            assert long[i] < 0.25 * scales[i]
            assert long[i] < short[i]

    def test_interaction_free_synthetic_input(self):
        # all coefficients on a corner mode: no quadratic interactions fit
        # in the box, so the transport remainders vanish structurally
        g = TorusGeometry((1, 1, 1), 2)
        eng = FormEngine(g, nu=1.0)
        t = eigenbasis(g, (2, 2, 2))
        U = single_mode_field(g, (2, 2, 2), t.ep)
        r1, r2, r3, s = eng.remainders(0.9, 0.1, U)
        assert l2_norm(r1) < 1e-14
        assert l2_norm(r2) < 1e-14
        assert l2_norm(r3) < 1e-14


class TestEvaluate:
    def test_timed_evaluation(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=59)
        ev = engine4.evaluate("q_tilde1", project_tilde(V), project_tilde(V))
        assert ev.interactions == engine4.tables[0].rows
        assert ev.seconds >= 0.0
        from frspec.fields import divergence_max

        assert divergence_max(ev.output) < 1e-10
        assert ev.output.zero_mean()

    @pytest.mark.parametrize("form", ["q_tilde1", "q_tilde2", "q_underline", "q_limit"])
    def test_interactions_are_the_rows_summed(self, engine3, unit_torus_3, form):
        tab, under = engine3.tables
        rows = {
            "q_tilde1": tab.rows,
            "q_tilde2": 0,
            "q_underline": len(under.kf),
            "q_limit": tab.rows + len(under.kf),
        }
        assert (tab.rows, len(under.kf)) == (14640, 864)
        V = random_field(unit_torus_3, seed=60)
        assert engine3.evaluate(form, V, V).interactions == rows[form]


class TestStructure:
    def test_tilde_forms_have_no_underline_output(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=57)
        for out in (
            engine4.q_tilde1(project_tilde(V), project_tilde(V)),
            engine4.q_tilde2(V, V),
        ):
            line = out.coeffs[unit_torus_4.N, unit_torus_4.N, :, :]
            assert np.max(np.abs(line)) < 1e-13

    def test_interaction_count_reported(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=58)
        engine4.q_tilde1(project_tilde(V), project_tilde(V))
        assert engine4.last_interactions == engine4.tables[0].rows > 0
