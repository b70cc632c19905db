"""The filtered quadratic forms, their limits, and the Schochet remainder."""

import itertools
from collections import Counter
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest

import frspec.forms as forms
import frspec.resonance as resonance
from frspec.fields import (
    SpectralField4,
    convolve_plane,
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
    apply_filter,
    bar_part,
    coefficients,
    decompose,
    eigenbasis,
    field_from_coefficients,
    osc_part,
    underline_part,
)

from conftest import float_omega, full_lattice, full_stack, pair_stream, random_field, stored


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
TABLE_ARRAYS = ("kf", "mf", "nf", "ia", "ib", "ic", "ka", "mb", "nc", "W", "counts")
UNDER_ARRAYS = ("kf", "mf", "n3i", "ia", "ib", "G4", "ka", "mb", "out")


def sign_row(s):
    """Row of sign s in the eigen stacks, rows (e_0, e_+, e_-)."""
    return np.where(np.asarray(s) < 0, 2, s).astype(np.int64)


def flat_of(s, f, nmodes):
    """Flat index of (sign s, mode f) in a raveled (3, L^3) coefficient matrix."""
    return sign_row(s) * nmodes + f


def stored_flat_of(s, f, N):
    """Flat index of (sign s, flat mode f with n3 >= 0) in a raveled
    (3, L, L, N + 1) stack of the stored modes."""
    L = 2 * N + 1
    i1, i2, i3 = np.unravel_index(f, (L, L, L))
    assert np.all(i3 >= N)
    return np.ravel_multi_index((sign_row(s), i1, i2, i3 - N), (3, L, L, N + 1))


def plan_rows_of(ia, kf, ib, mf, ic, nf, N):
    """Rows with (a, k) < (b, m) (signs compared first, then flat modes),
    c != 0 and output n3 >= 0, less the rows with k3 = m3 = n3 = 0."""
    L = 2 * N + 1
    rows = zip(ia.tolist(), kf.tolist(), ib.tolist(), mf.tolist(), ic.tolist(), nf.tolist())
    return np.array([i for i, (a, k, b, m, c, n) in enumerate(rows)
                     if (a, k) < (b, m) and c != 0 and n % L - N >= 0
                     and not k % L - N == m % L - N == n % L - N == 0],
                    dtype=np.int64)


def brute_force_triads(g):
    """Nested-loop resonant set {(kf, mf, nf, a, b, c)} of the tilde-output
    table.  Zero-sign classes are the integer equalities H_x S_y == H_y S_x;
    radical classes are decided by the scalar exact_sqrt_sum_is_zero."""
    H, S = omega_ratio_ints(g)
    N = g.N
    axis = range(-N, N + 1)
    modes = [(x, y, z) for x in axis for y in axis for z in axis if (x, y) != (0, 0)]
    flat = {n: g.flat_index(n) for n in modes}
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

    rows = set()
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
                    ok = resonant(a, b, c, fk, fm, fn)
                if ok:
                    rows.add((fk, fm, fn, a, b, c))
    return rows


def pair_stream_tables(eng):
    """The triad and underline tables screened from the chunked pair stream:
    zero-sign classes by exact frequency ids, radical classes by the float
    screen |a wk + b wm - c wn| < 1e-11 with every hit confirmed through
    eng._confirm_radical, sorted by lexsort.  The triad table is a record
    of its columns, plan arrays and class counts under the names of
    `forms.TriadTable`."""
    g = eng.geometry
    H, S = omega_ratio_ints(g)
    d = np.gcd(H, S)
    d[d == 0] = 1
    fid = np.unique(np.stack([H // d, S // d], axis=1), axis=0, return_inverse=True)[1].reshape(-1)
    om = float_omega(g)
    size = g.nmodes
    found = {"kf": [], "mf": [], "nf": [], "cls": []}

    def push(sel, kf, mf, nf, cls):
        found["kf"].append(kf[sel])
        found["mf"].append(mf[sel])
        found["nf"].append(nf[sel])
        found["cls"].append(np.full(len(sel), cls, dtype=np.int8))

    for kf, mf, nf in pair_stream(g.N):
        ik, im, i_n = fid[kf], fid[mf], fid[nf]
        for cls, eq in ((0, im == i_n), (2, ik == i_n), (4, ik == im)):
            sel = np.nonzero(eq)[0]
            push(sel, kf, mf, nf, cls)
            push(sel, kf, mf, nf, cls + 1)
        wk, wm, wn = om[kf], om[mf], om[nf]
        s, dd = wk + wm, wk - wm
        for cls, v in ((6, s - wn), (8, dd - wn), (9, dd + wn)):
            cand = np.nonzero(np.abs(v) < 1e-11)[0]
            for cl in (cls, 19 - cls):
                keep = [i for i in cand if eng._confirm_radical(kf[i], mf[i], nf[i], *CLASS_ORDER[cl])]
                push(np.asarray(keep, dtype=np.int64), kf, mf, nf, cl)
    kf, mf, nf, cls = (np.concatenate(found[key]) for key in ("kf", "mf", "nf", "cls"))
    order = np.lexsort((kf, cls, nf))
    kf, mf, nf = kf[order], mf[order], nf[order]
    ia, ib, ic = (np.ascontiguousarray(col) for col in forms._CLASS_SIGNS[cls[order]].T)
    plan = plan_rows_of(ia, kf, ib, mf, ic, nf, g.N)
    W = 2.0 * eng._G_rows(kf[plan], ia[plan], mf[plan], ib[plan], nf[plan], ic[plan])
    tab = SimpleNamespace(kf=kf, mf=mf, nf=nf, ia=ia, ib=ib, ic=ic,
                          ka=flat_of(ia[plan], kf[plan], size),
                          mb=flat_of(ib[plan], mf[plan], size),
                          nc=stored_flat_of(ic[plan], nf[plan], g.N), W=W,
                          counts=np.bincount(cls, minlength=len(CLASS_ORDER)))

    parts = [(kf[sel], mf[sel], nf[sel])
             for kf, mf, nf in pair_stream(g.N, underline=True)
             for sel in [np.nonzero(fid[kf] == fid[mf])[0]]]
    kf, mf, nf = (np.concatenate(p) for p in zip(*parts))
    n3i = nf - (size // 2 - g.N)
    ia = np.repeat(np.array([1, -1], dtype=np.int8), len(kf))
    kf, mf, nf, n3i = (np.concatenate([x, x]) for x in (kf, mf, nf, n3i))
    order = np.lexsort((kf, -ia, n3i))
    kf, mf, nf, n3i, ia = kf[order], mf[order], nf[order], n3i[order], ia[order]
    ib = -ia
    ev = EigenBasis.of(g).evec.reshape(3, -1, 4)
    ea_k, eb_m = ev[sign_row(ia), kf], ev[sign_row(ib), mf]
    nc3 = eng._ncheck_flat[nf, 2]
    G4 = (nc3 * ea_k[:, 2])[:, None] * eb_m + (nc3 * eb_m[:, 2])[:, None] * ea_k
    G4[:, 2] = 0.0
    under = forms.UnderTable(kf, mf, n3i, ia, ib, G4, ka=flat_of(ia, kf, size),
                             mb=flat_of(ib, mf, size),
                             out=(n3i[:, None] * 4 + np.arange(4)).reshape(-1))
    return tab, under


def admissible_radical_pairs(g):
    """The ordered mode pairs (k, m) of one radical class r whose
    equal-omega subclasses i, j admit a subclass l of that class with
    w_i + b w_j = c w_l for (b, c) in (+,+), (-,+), (-,-), where
    omega = w sqrt(r) and w = q / s; decided over Fractions."""
    q, s, r = resonance._radical_form(g, g.N)
    ids = resonance._freq_classes(g)
    w, size, by_class = {}, Counter(), {}
    for f in np.flatnonzero(r >= 0).tolist():
        i = int(ids[f])
        size[i] += 1
        if i not in w:
            w[i] = Fraction(int(q[f]), int(s[f]))
            by_class.setdefault(int(r[f]), []).append(i)
    total = 0
    for members in by_class.values():
        values = {w[x] for x in members}
        for i, j in itertools.product(members, repeat=2):
            if {w[i] + w[j], w[i] - w[j], w[j] - w[i]} & values:
                total += size[i] * size[j]
    return total


class TestTables:
    @pytest.mark.parametrize("a_sq", [(1, 2, 3), (1, 1, 1)])
    def test_against_brute_force(self, a_sq, monkeypatch):
        g = TorusGeometry(a_sq, 3)
        want_rows = brute_force_triads(g)
        calls = []

        def counting(terms):
            calls.append(terms)
            return exact_sqrt_sum_is_zero(terms)

        monkeypatch.setattr(forms, "exact_sqrt_sum_is_zero", counting)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        # one exact confirmation per radical row
        assert len(calls) == sum(0 not in row[3:] for row in want_rows)
        if a_sq == (1, 2, 3):
            assert calls
        got = list(zip(tab.kf.tolist(), tab.mf.tolist(), tab.nf.tolist(),
                       tab.ia.tolist(), tab.ib.tolist(), tab.ic.tolist()))
        assert len(got) == len(set(got))
        assert set(got) == want_rows
        keys = [(nf, CLASS_ORDER.index((a, b, c)), kf) for kf, _, nf, a, b, c in got]
        assert keys == sorted(keys)
        r = _plan_rows(tab, g.N)
        assert np.array_equal(
            tab.W, 2 * eng._G_rows(tab.kf[r], tab.ia[r], tab.mf[r], tab.ib[r], tab.nf[r], tab.ic[r])
        )

    def test_chunk_sizes_do_not_change_the_tables(self, monkeypatch):
        g = TorusGeometry((1, 2, 3), 3)
        big_t, big_u = FormEngine(g, nu=1.0).tables
        monkeypatch.setattr(forms, "_G_CHUNK", 1000)
        small_t, small_u = FormEngine(g, nu=1.0).tables
        assert big_t.rows > 1000
        for name in TABLE_ARRAYS:
            x, y = getattr(big_t, name), getattr(small_t, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        for name in UNDER_ARRAYS:
            x, y = getattr(big_u, name), getattr(small_u, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    # radical rows of the stored table on each torus of the next test
    RADICAL_ROWS = {((1, 2, 3), 3): 24, ((1, 1, 1), 4): 0, ((1, 4, 1), 5): 0, ((1, 2, 3), 6): 96,
                    ((2, 3, 5), 6): 48, ((1, 4, 1), 8): 144}

    @pytest.mark.parametrize("a_sq,N", list(RADICAL_ROWS))
    def test_class_join_matches_pair_stream(self, a_sq, N, monkeypatch):
        calls = Counter()

        def counting(terms):
            calls[tuple(terms)] += 1
            return exact_sqrt_sum_is_zero(terms)

        monkeypatch.setattr(forms, "exact_sqrt_sum_is_zero", counting)
        g = TorusGeometry(a_sq, N)
        want_t, want_u = pair_stream_tables(FormEngine(g, nu=1.0))
        want_calls = calls.copy()
        calls.clear()
        got_t, got_u = FormEngine(g, nu=1.0).tables
        assert calls == want_calls
        # one confirmation per radical row, so calls exactly where the torus
        # has radical rows
        assert sum(calls.values()) == self.RADICAL_ROWS[a_sq, N] == want_t.counts[6:].sum()
        for name in TABLE_ARRAYS:
            x, y = getattr(want_t, name), getattr(got_t, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
        for name in UNDER_ARRAYS:
            x, y = getattr(want_u, name), getattr(got_u, name)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name

    def test_build_work(self, monkeypatch):
        # one pair lookup per sign on the equal-omega pairs and one on the
        # radical-class pairs, one exact confirmation per radical row, and
        # no pair or code array left on the engine; counted through the
        # names `frspec.forms` and `frspec.resonance` bind
        g = TorusGeometry((1, 2, 3), 6)
        lookups, confirms = [], []

        def counting_codes(x, y, N, sign, fn=resonance._pair_codes):
            lookups.append((len(x), N, sign))
            return fn(x, y, N, sign)

        def counting_confirm(terms, fn=exact_sqrt_sum_is_zero):
            confirms.append(terms)
            return fn(terms)

        for module in (forms, resonance):
            monkeypatch.setattr(module, "_pair_codes", counting_codes)
        monkeypatch.setattr(forms, "exact_sqrt_sum_is_zero", counting_confirm)
        eng = FormEngine(g, nu=1.0)
        before = set(vars(eng))
        tab, _ = eng.tables
        equal_omega = len(resonance._class_pairs(resonance._freq_classes(g))[0])
        radical_pairs = admissible_radical_pairs(g)
        assert radical_pairs < len(resonance._class_pairs(resonance._radical_form(g, g.N)[2])[0]) // 10
        assert lookups == [(equal_omega, 6, -1), (equal_omega, 6, 1), (radical_pairs, 6, 1)]
        assert len(confirms) == tab.counts[6:].sum() == 96
        assert set(vars(eng)) == before
        # the build keeps the plan: the resonant set is not derived
        assert tab._columns is None

    def test_disagreeing_exact_checks_raise(self, monkeypatch):
        monkeypatch.setattr(forms, "exact_sqrt_sum_is_zero", lambda terms: False)
        with pytest.raises(ArithmeticError, match="disagree"):
            FormEngine(TorusGeometry((1, 2, 3), 3), nu=1.0).tables

    def test_kstar_pairs_are_the_sorted_distinct_radical_pairs(self):
        eng = FormEngine(TorusGeometry((1, 2, 3), 3), nu=1.0)
        tab, _ = eng.tables
        allpm = (tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)
        want = sorted({(int(k), int(n)) for k, n in zip(tab.kf[allpm], tab.nf[allpm])})
        kf, nf = eng.kstar_pair_indices()
        assert want and list(zip(kf.tolist(), nf.tolist())) == want
        assert kf.dtype == nf.dtype == np.int64

    @pytest.mark.parametrize(
        "a_sq,N",
        [((1, 2, 3), 3), ((1, 2, 3), 8), ((1, 1, 1), 4), ((1, 4, 1), 5)],
        ids=["a123-N3", "a123-N8", "unit-N4", "a141-N5"],
    )
    def test_class_rows(self, a_sq, N):
        # the counts the build recorded, against a bincount of the stored
        # sign columns
        tab, _ = FormEngine(TorusGeometry(a_sq, N), nu=1.0).tables
        counts = tab.class_rows()
        assert list(counts) == [
            "".join("m0p"[x + 1] for x in cls) for cls in CLASS_ORDER
        ]

        def code(a, b, c):
            return (a + 1) * 9 + (b + 1) * 3 + c + 1

        want = np.bincount(code(tab.ia.astype(np.int64), tab.ib, tab.ic), minlength=27)
        assert list(counts.values()) == [int(want[code(*cls)]) for cls in CLASS_ORDER]
        assert all(type(n) is int for n in counts.values())
        assert sum(counts.values()) == tab.rows

    def test_row_counts(self, engine3):
        # the stored resonant set on the N = 3 unit torus
        tab, under = engine3.tables
        assert (tab.rows, len(under.kf)) == (14640, 864)

    @pytest.mark.parametrize("a_sq,N,rows", [((1, 2, 3), 5, 3600), ((1, 1, 1), 4, 2080), ((1, 4, 1), 4, 2080)])
    def test_underline_weights_are_exactly_zero(self, a_sq, N, rows):
        """Every underline row (a at k, -a at m) has k + m = (0, 0, n3) and
        omega(k) = omega(m), so m = (-k_h, k3) and n3 = 2 k3 (n3 = 0 has
        nc3 = 0).  There e_{-a}(-k_h, k3) equals e_a(k_h, k3) except for the
        third component, which changes sign, so
        G4 = nc3 e_a(k)_3 (e_{-a}(m) - e_a(k)) lives on the third component,
        which the Leray projection at (0, 0, n3) removes: every weight is 0."""
        _, qu = FormEngine(TorusGeometry(a_sq, N), nu=1.0).tables
        assert len(qu.kf) == rows
        assert qu.G4.shape == (rows, 4)
        assert np.all(qu.G4 == 0.0)


def _full_flat(tab, nmodes):
    """Flat (sign row, mode) indices of (a, k), (b, m), (c, n) on every table row."""
    return tuple(flat_of(s, f, nmodes)
                 for s, f in ((tab.ia, tab.kf), (tab.ib, tab.mf), (tab.ic, tab.nf)))


def _plan_rows(tab, N):
    """Table rows of the apply plan: one per mirror pair, the one with
    (a, k) < (b, m), none of the (a, -a, 0) rows, and only outputs with
    n3 >= 0 off the plane block k3 = m3 = n3 = 0."""
    return plan_rows_of(tab.ia, tab.kf, tab.ib, tab.mf, tab.ic, tab.nf, N)


def _row_products_2d(C1, C2, tab, rows=slice(None)):
    """The row product of two coefficient stacks on the stored modes with
    2-D (sign row, mode) gathers from their full-lattice rows."""
    C1, C2 = (full_stack(C).reshape(3, -1) for C in (C1, C2))
    ia, kf, ib, mf = sign_row(tab.ia[rows]), tab.kf[rows], sign_row(tab.ib[rows]), tab.mf[rows]
    x1 = C1[ia, kf]
    y2 = C2[ib, mf]
    x2 = C2[ia, kf]
    y1 = C1[ib, mf]
    return 0.5j * (0.5 * (x1 * y2 + x2 * y1))


def q_resonant_2d(eng, C1, C2, rows=slice(None)):
    """The resonant sum of two coefficient stacks with 2-D gathers and
    scatters over the table rows `rows` (every row by default), each with
    weight G, on every output mode; returns the (3, L, L, L) output stack
    over the full lattice.  This full-table sum is the oracle of rows +-1
    of q_tilde1, compared through `full_stack`."""
    g = eng.geometry
    tab, _ = eng.tables
    w = eng._G_rows(tab.kf[rows], tab.ia[rows], tab.mf[rows], tab.ib[rows], tab.nf[rows], tab.ic[rows])
    out = np.zeros((3, g.nmodes), dtype=np.complex128)
    np.add.at(out, (sign_row(tab.ic[rows]), tab.nf[rows]), _row_products_2d(C1, C2, tab, rows) * w)
    return out.reshape((3,) + (g.L,) * 3)


def close_to(got, want, rel=1e-14):
    """got equals want within rel of the largest |want|, and want is not zero."""
    scale = np.max(np.abs(want))
    return scale > 0 and np.max(np.abs(got - want)) <= rel * scale


def wave_field(g, C):
    """The field of the wave rows of a coefficient stack, assembled in the
    (+1, -1) order."""
    return field_from_coefficients(g, {1: C[1], -1: C[-1]})


def full_field(g, C):
    """The field of all rows of a coefficient stack, assembled in the
    (0, +1, -1) order, as `FormEngine.q_limit` assembles it."""
    return field_from_coefficients(g, {a: C[a] for a in (0, 1, -1)})


def q_underline_2d(eng, V1, V2):
    """The underline-output form on two fields: the FFT (0, 0) class and the
    table rows with 2-D scatters."""
    g = eng.geometry
    til1, til2 = project_tilde(V1), project_tilde(V2)
    fft_part = underline_part(transport(bar_part(til1), bar_part(til2)))
    _, qu = eng.tables
    out_line = np.zeros((g.L, 4), dtype=np.complex128)
    C1, C2 = coefficients(til1), coefficients(til2)
    np.add.at(out_line, qu.n3i, _row_products_2d(C1, C2, qu)[:, None] * qu.G4)
    out = zero_field(g)
    out.coeffs[g.N, g.N] = out_line[g.N :]
    return (fft_part + out).pin_zero_mode()


# The general two-slot forms, written out from the kernels: each form of
# FormEngine is the diagonal of one of these symmetric bilinear forms.  The
# tilde-output forms return coefficient stacks on the stored modes, as the
# engine's do.


def horizontal_advection_2(A, B):
    """The symmetric bilinear form of the 2.5D advection a_h . grad_h B."""
    return 0.5 * (convolve_quadratic(A, B, "horizontal") + convolve_quadratic(B, A, "horizontal"))


def q_tilde1_2(eng, C1, C2):
    g = eng.geometry
    out = q_resonant_2d(eng, C1, C2)[..., g.N :].copy()
    bar1, bar2 = (field_from_coefficients(g, {0: C[0]}) for C in (C1, C2))
    out[0] = coefficients(horizontal_advection_2(bar1, bar2))[0]
    return out


def q_tilde2_2(eng, A, B):
    # the slot bar . grad underline is zero: the bar part has no vertical
    # velocity and the underline part no horizontal dependence; the e_0 row
    # comes from the FFT kernel
    g = eng.geometry
    und_a, und_b = underline_part(A), underline_part(B)
    C_a, C_b = coefficients(A), coefficients(B)
    out = 0.5 * (eng.b_form(und_a, C_b) + eng.b_form(und_b, C_a))
    bar_a, bar_b = (field_from_coefficients(g, {0: C[0]}) for C in (C_a, C_b))
    adv = 0.5 * (convolve_quadratic(und_a, bar_b, "horizontal") + convolve_quadratic(und_b, bar_a, "horizontal"))
    out[0] = coefficients(adv)[0]
    return out


def q_limit_2(eng, A, B):
    q = q_tilde1_2(eng, coefficients(A), coefficients(B)) + q_tilde2_2(eng, A, B)
    return (full_field(eng.geometry, q) + q_underline_2d(eng, A, B)).pin_zero_mode()


def form_on(eng, form, V):
    """A limit form of the engine on the field V, through the inputs it
    takes: the coefficient stack of V, and its underline part for q_tilde2."""
    if form == "q_tilde2":
        return eng.q_tilde2(underline_part(V), coefficients(V))
    if form in ("q_tilde1", "q_underline"):
        return getattr(eng, form)(coefficients(V))
    return getattr(eng, form)(V)


def q_eps_2(t, eps, A, B):
    return apply_filter(-t / eps, transport(apply_filter(t / eps, A), apply_filter(t / eps, B))).pin_zero_mode()


class TestFlatIndexApply:
    @pytest.mark.parametrize("a_sq, N", [((1, 2, 3), 3), ((1, 1, 1), 4)])
    def test_matches_2d_indexed_scatter(self, a_sq, N):
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=61, spectrum_r=1.0)
        # random underline weights, so that the scatter sums nonzero rows
        _, qu = eng.tables
        rng = np.random.default_rng(63)
        qu.G4 = rng.standard_normal(qu.G4.shape) + 1j * rng.standard_normal(qu.G4.shape)
        C = coefficients(V)
        # the resonant sum, rows +-1 of q_tilde1, against the full-table
        # sum: weight 2 G on one row of a pair, the plane block and the
        # mirror image of n3 > 0 on n3 < 0 reorder its additions
        got = eng.q_tilde1(C)
        assert got.shape == C.shape
        assert close_to(full_stack(got)[1:], q_resonant_2d(eng, C, C)[1:])
        got = eng.q_underline(C)
        assert np.max(np.abs(got.coeffs)) > 0
        # the oracle also sums the FFT (0, 0) class, which is exactly zero
        assert np.array_equal(got.coeffs, q_underline_2d(eng, V, V).coeffs)


@pytest.fixture(scope="module", params=[((1, 2, 3), 3), ((1, 1, 1), 4), ((1, 4, 1), 5), ((2, 3, 5), 6)],
                ids=lambda p: "-".join(map(str, p[0])) + f"-N{p[1]}")
def mirror_engine(request):
    return FormEngine(TorusGeometry(*request.param), nu=1.0)


class TestMirrorPlan:
    """Every table row (k,a,m,b,c) has its swap (m,b,k,a,c), and the apply
    plan keeps one row of each pair with weight 2 G, except the (a, -a, 0)
    pairs, whose G is identically zero (TestWaveWaveKernelForcing), the
    plane block k3 = m3 = n3 = 0 and the outputs with n3 < 0
    (TestPlaneBlock)."""

    @staticmethod
    def _mirror(tab, nmodes):
        """Index of each row's swap (m,b,k,a,c) in the table."""
        ka, mb, nc = _full_flat(tab, nmodes)
        width = 3 * nmodes
        key = (ka * width + mb) * width + nc
        order = np.argsort(key)
        assert np.all(np.diff(key[order]) > 0)
        swap = (mb * width + ka) * width + nc
        pos = np.searchsorted(key[order], swap)
        assert np.all(pos < len(key)) and np.array_equal(key[order][pos], swap)
        return order[pos]

    def test_every_row_has_its_mirror(self, mirror_engine):
        tab, _ = mirror_engine.tables
        j = self._mirror(tab, mirror_engine.geometry.nmodes)
        assert tab.rows > 0
        for x, y in (("kf", "mf"), ("mf", "kf"), ("ia", "ib"), ("ib", "ia"), ("nf", "nf"), ("ic", "ic")):
            assert np.array_equal(getattr(tab, x)[j], getattr(tab, y)), (x, y)
        _, _, nc = _full_flat(tab, mirror_engine.geometry.nmodes)
        assert np.array_equal(nc[j], nc)

    def test_G_is_bitwise_equal_on_a_pair(self, mirror_engine):
        tab, _ = mirror_engine.tables
        j = self._mirror(tab, mirror_engine.geometry.nmodes)
        G = mirror_engine._G_rows(tab.kf, tab.ia, tab.mf, tab.ib, tab.nf, tab.ic)
        assert G[j].tobytes() == G.tobytes()

    def test_no_row_is_its_own_mirror(self, mirror_engine):
        tab, _ = mirror_engine.tables
        ka, mb, _ = _full_flat(tab, mirror_engine.geometry.nmodes)
        assert not np.any(ka == mb)

    def test_plan_is_the_rows_with_ka_below_mb(self, mirror_engine):
        g = mirror_engine.geometry
        tab, _ = mirror_engine.tables
        r = _plan_rows(tab, g.N)
        # the wave-output rows off the plane block: each output n3 > 0 has
        # its mirror output -n, the pairs on n3 = 0 (radical rows) stay
        n3 = tab.nf % g.L - g.N
        waves = (tab.ic != 0) & ~((n3 == 0) & (tab.kf % g.L == g.N))
        upper, plane = np.sum(waves & (n3 > 0)), np.sum(waves & (n3 == 0))
        assert tab.rows % 2 == 0 and np.sum(tab.ic == 0) > 0
        assert upper == np.sum(waves & (n3 < 0)) and len(r) == (upper + plane) // 2
        ka, mb, _ = _full_flat(tab, g.nmodes)
        for name, want in (("ka", ka[r]), ("mb", mb[r]), ("nc", stored_flat_of(tab.ic[r], tab.nf[r], g.N))):
            got = getattr(tab, name)
            assert got.dtype == np.int64 and got.tobytes() == want.tobytes(), name

    def test_W_is_twice_G(self, mirror_engine):
        tab, _ = mirror_engine.tables
        r = _plan_rows(tab, mirror_engine.geometry.N)
        G = mirror_engine._G_rows(tab.kf[r], tab.ia[r], tab.mf[r], tab.ib[r], tab.nf[r], tab.ic[r])
        assert tab.W.dtype == np.complex128 and tab.W.tobytes() == (2 * G).tobytes()

    def test_q_resonant_has_no_e0_output(self, mirror_engine):
        # no plan row scatters into the e_0 row (row 0 of the flat
        # (3, L, L, N + 1) output), so the resonant sum of q_tilde1 leaves
        # its e_0 row to the bar advection, and the field of its rows +-1 is
        # a wave field
        g = mirror_engine.geometry
        tab, _ = mirror_engine.tables
        assert np.all(tab.nc >= g.L * g.L * (g.N + 1))
        q = mirror_engine.q_tilde1(coefficients(random_field(g, seed=64, spectrum_r=1.0)))
        assert np.max(np.abs(q[1:])) > 0
        field = wave_field(g, q)
        scale = np.max(np.abs(field.coeffs))
        assert np.max(np.abs(coefficients(field)[0])) <= 1e-15 * scale
        assert np.max(np.abs(osc_part(field).coeffs - field.coeffs)) <= 1e-15 * scale


@pytest.fixture(scope="module",
                params=[((1, 2, 3), 3, 4), ((1, 1, 3), 4, 24), ((1, 4, 1), 5, 0), ((2, 3, 5), 6, 0)],
                ids=lambda p: "-".join(map(str, p[0])) + f"-N{p[1]}")
def plane_engine(request):
    """An engine and the number of its plan rows with output on n3 = 0.
    On (2,3,5)/N6 the radical rows carry weight (TestRadicalRowWeights)."""
    a_sq, N, plane_plan_rows = request.param
    return FormEngine(TorusGeometry(a_sq, N), nu=1.0), plane_plan_rows


class TestPlaneBlock:
    """On the plane n3 = 0 every wave has omega = 1 and
    e_pm = (0, 0, +-i, 1) / sqrt2, so the rows with k3 = m3 = n3 = 0 (only
    zero-sign rows: a radical row there would need a + b = c in signs) sum
    to the advection of the plane of C_+ by the bar velocity on that plane,
    one 2-D kernel.  The rows with output n3 < 0 mirror those with n3 > 0,
    c_pm(-n) = conj c_mp(n).  The apply plan holds neither; the radical rows
    with output on n3 = 0 stay in it."""

    @staticmethod
    def _modes(g, flat):
        """(3, rows) integer modes of flat indices into a raveled (3, L^3) stack."""
        return np.stack(np.unravel_index(flat % g.nmodes, (g.L,) * 3)) - g.N

    def test_plan_has_no_plane_row_and_no_output_below_the_plane(self, plane_engine):
        eng, plane_plan_rows = plane_engine
        g = eng.geometry
        tab, _ = eng.tables
        k, m = self._modes(g, tab.ka), self._modes(g, tab.mb)
        n = k + m
        assert len(tab.W) > 0
        assert not np.any((k[2] == 0) & (m[2] == 0) & (n[2] == 0))
        assert np.all(n[2] >= 0)
        # the stored table keeps the rows the plan leaves out
        n3, k3 = tab.nf % g.L - g.N, tab.kf % g.L - g.N
        assert np.any((n3 == 0) & (k3 == 0)) and np.any(n3 < 0)
        # each row scatters into its output (c, n) of the stored stack
        nf = np.ravel_multi_index(tuple(n + g.N), (g.L,) * 3)
        c = np.where(tab.nc // (g.L * g.L * (g.N + 1)) == 2, -1, 1)
        assert np.array_equal(tab.nc, stored_flat_of(c, nf, g.N))
        # the rows on n3 = 0 are the radical ones, one per mirror pair
        on_plane = n[2] == 0
        assert np.sum(on_plane) == plane_plan_rows
        assert np.all(tab.ka[on_plane] >= g.nmodes) and np.all(tab.mb[on_plane] >= g.nmodes)
        radical = (tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)
        assert 2 * plane_plan_rows == np.sum(radical & (n3 == 0))

    def test_plane_kernel_is_the_plane_rows_sum(self, plane_engine):
        # oracle: the full-table sum over the wave-output rows with
        # k3 = m3 = n3 = 0, weight G on every row
        eng, _ = plane_engine
        g = eng.geometry
        N = g.N
        tab, _ = eng.tables
        n3, k3 = tab.nf % g.L - N, tab.kf % g.L - N
        rows = np.nonzero((n3 == 0) & (k3 == 0) & (tab.ic != 0))[0]
        assert len(rows) > 0 and np.all(tab.mf[rows] % g.L == N)
        assert np.all((tab.ia[rows] == 0) | (tab.ib[rows] == 0))
        C = coefficients(random_field(g, seed=71, amplitude=1.0, spectrum_r=1.0))
        want = q_resonant_2d(eng, C, C, rows)[..., N]
        u = np.moveaxis(C[0, :, :, 0, None] * EigenBasis.of(g).e0[:, :, N, :2], -1, 0)
        plus = convolve_plane(g, u, C[1, :, :, 0])
        assert close_to(plus, want[1])
        assert close_to(convolve_plane(g, u, C[-1, :, :, 0]), want[-1])
        # on a real field, c_-(n) = conj c_+(-n)
        assert close_to(np.conj(plus[::-1, ::-1]), want[-1])

    def test_q_tilde1_is_the_full_table_sum(self, plane_engine):
        eng, _ = plane_engine
        g = eng.geometry
        C = coefficients(random_field(g, seed=72, amplitude=1.0, spectrum_r=1.0))
        got, want = full_stack(eng.q_tilde1(C))[1:], q_resonant_2d(eng, C, C)[1:]
        assert close_to(got, want)
        # every plane n3 <= 0 on its own scale: the mirror below the plane,
        # and the plane, where the plane block meets the radical rows (their
        # weights are at rounding level on (1,2,3) and (1,1,3), so the plan
        # test above is what pins those rows there; on (2,3,5)/N6 they
        # carry weight, but none outputs on n3 = 0)
        for i3 in range(g.N + 1):
            assert close_to(got[..., i3], want[..., i3]), i3 - g.N


class TestWaveWaveKernelForcing:
    """Two resonant waves never force the kernel mode e_0.

    Take a table row (k, a, m, -a, 0) with n = k + m, and write kc, mc and
    nc = kc + mc for the checked modes (k1/a1, k2/a2, k3/a3) and so on.  Let
    v(k) = (-kc_3 kc_h / (|kc_h| |kc|), |kc_h| / |kc|), a real unit vector
    with v(k) . kc = 0.  Then e_a(k) = (i a v(k), 1) / sqrt2, and
    e_0(n) = (-nc_2, nc_1, 0, 0) / |nc_h| is real.  With X = kc_1 mc_2 - kc_2 mc_1,

        nc . v(k) = mc . v(k) = (|kc_h|^2 mc_3 - kc_3 kc_h . mc_h) / (|kc_h| |kc|),
        nc . v(m) = kc . v(m) = (|mc_h|^2 kc_3 - mc_3 kc_h . mc_h) / (|mc_h| |mc|),
        v(k) . e_0(n) = kc_3 X / (|kc_h| |kc| |nc_h|),
        v(m) . e_0(n) = -mc_3 X / (|mc_h| |mc| |nc_h|),

    since kc_h . (-nc_2, nc_1) = -X and mc_h . (-nc_2, nc_1) = X.  The
    tabulated weight is then, for either sign a (the factors i a and -i a
    multiply to a^2 = 1),

        G = (nc . e_a^vel(k)) <e_-a(m), e_0(n)> + (nc . e_-a^vel(m)) <e_a(k), e_0(n)>
          = 1/2 [(mc . v(k)) (v(m) . e_0(n)) + (kc . v(m)) (v(k) . e_0(n))]
          = -X (|kc_h|^2 mc_3^2 - |mc_h|^2 kc_3^2) / (2 |kc_h| |kc| |mc_h| |mc| |nc_h|),

    as the kc_3 mc_3 (kc_h . mc_h) terms cancel.  The bracket equals
    |kc|^2 |mc|^2 (omega(k)^2 - omega(m)^2), and the table holds the row
    (k, a, m, -a, 0) exactly when omega(k) = omega(m) (TestTables), so G is
    identically zero on it.  The apply plan leaves these rows out.
    """

    def test_closed_form_with_sympy(self):
        sp = pytest.importorskip("sympy")
        k, m = sp.symbols("k1:4", real=True), sp.symbols("m1:4", real=True)
        n = [x + y for x, y in zip(k, m)]

        def norm(v, dims):
            return sp.sqrt(sum(x**2 for x in v[:dims]))

        def evec(v, a):
            """e_a(v) as in the waves module docstring."""
            h, r, s = norm(v, 2), norm(v, 3), sp.sqrt(2)
            if a == 0:
                return [-v[1] / h, v[0] / h, 0, 0]
            return [-a * sp.I * v[0] * v[2] / (h * r * s), -a * sp.I * v[1] * v[2] / (h * r * s),
                    a * sp.I * h / (r * s), 1 / s]

        def dot(u, w):
            return sum(x * y for x, y in zip(u, w))

        X = k[0] * m[1] - k[1] * m[0]
        bracket = norm(k, 2) ** 2 * m[2] ** 2 - norm(m, 2) ** 2 * k[2] ** 2
        denom = 2 * norm(k, 2) * norm(k, 3) * norm(m, 2) * norm(m, 3) * norm(n, 2)
        for a in (1, -1):
            ea, eb, e0 = evec(k, a), evec(m, -a), evec(n, 0)
            # e_0 is real, so <u, e_0> = u . e_0
            G = dot(n, ea[:3]) * dot(eb, e0) + dot(n, eb[:3]) * dot(ea, e0)
            assert sp.expand(G * denom + X * bracket) == 0
        omega_sq = [norm(v, 2) ** 2 / norm(v, 3) ** 2 for v in (k, m)]
        assert sp.cancel(bracket - norm(k, 3) ** 2 * norm(m, 3) ** 2 * (omega_sq[0] - omega_sq[1])) == 0

        # the symbolic basis is the one the tables use, and the closed form is
        # the code's weight on every (a, -a, 0) row
        g = TorusGeometry((1, 2, 3), 4)
        eng = FormEngine(g, nu=1.0)
        ev = EigenBasis.of(g).evec
        subs = dict(zip(k, np.asarray((1, -2, 3)) / g.a))
        for a in (0, 1, -1):
            want = np.array([complex(sp.sympify(x).subs(subs)) for x in evec(k, a)])
            assert np.max(np.abs(ev[a][tuple(np.add((1, -2, 3), g.N))] - want)) <= 1e-15
        tab, _ = eng.tables
        r = np.nonzero(tab.ic == 0)[0]
        assert len(r) > 0
        G = eng._G_rows(tab.kf[r], tab.ia[r], tab.mf[r], tab.ib[r], tab.nf[r], tab.ic[r])
        kc, mc = (eng._ncheck_flat[f] for f in (tab.kf[r], tab.mf[r]))
        closed = sp.lambdify((k, m), -X * bracket / denom)(kc.T, mc.T)
        assert np.max(np.abs(G - closed)) <= 1e-15

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 6), ((1, 4, 1), 5), ((2, 3, 5), 5)])
    def test_weights_vanish_and_leave_the_plan(self, a_sq, N):
        eng = FormEngine(TorusGeometry(a_sq, N), nu=1.0)
        tab, _ = eng.tables
        r = np.nonzero(tab.ic == 0)[0]
        assert len(r) > 0 and np.all(tab.ib[r] == -tab.ia[r])
        G = eng._G_rows(tab.kf[r], tab.ia[r], tab.mf[r], tab.ib[r], tab.nf[r], tab.ic[r])
        assert np.max(np.abs(G)) <= 1e-13 * np.max(np.abs(tab.W))
        # no plan row outputs on e_0, row 0 of the stored output stack
        assert len(tab.W) == len(_plan_rows(tab, eng.geometry.N))
        assert np.all(tab.nc >= eng.geometry.L ** 2 * (eng.geometry.N + 1))


class TestRadicalRowWeights:
    """The radical rows (a, b, c all nonzero) of the triad table carry a
    weight G at rounding level on some tori and not on others.  max |G| is
    1.1e-16, 1.1e-16 and 4.4e-16 at (1,2,3)/N3, (1,1,3)/N4 and (1,2,3)/N6,
    against max |W| of 6.0, 9.9 and 12.0; it is 1.12 over the 48 radical
    rows at (2,3,5)/N6 and 6.62 over the 144 at (1,4,1)/N8.  So the rows
    stay in the apply plan, and the forms are checked where they weigh."""

    @staticmethod
    def _radical(eng):
        tab, _ = eng.tables
        r = np.nonzero((tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0))[0]
        assert len(r) > 0
        return r, eng._G_rows(tab.kf[r], tab.ia[r], tab.mf[r], tab.ib[r], tab.nf[r], tab.ic[r])

    @pytest.mark.parametrize("a_sq,N", [((1, 2, 3), 3), ((1, 1, 3), 4), ((1, 2, 3), 6)])
    def test_radical_weights_are_at_rounding_level(self, a_sq, N):
        eng = FormEngine(TorusGeometry(a_sq, N), nu=1.0)
        _, G = self._radical(eng)
        assert np.max(np.abs(G)) <= 1e-15 * np.max(np.abs(eng.tables[0].W))

    @pytest.mark.parametrize("a_sq,N", [((2, 3, 5), 6), ((1, 4, 1), 8)])
    def test_each_weighted_radical_row_is_the_single_mode_transport(self, a_sq, N):
        # per row (k, a, m, b, c): transport of the single-mode fields of
        # e_a(k) and e_b(m), projected on e_c(n) at n = k + m, is (i/2) G,
        # since its coefficient at n is 1/2 P i [(ncheck . e_a) e_b +
        # (ncheck . e_b) e_a] and P e_c = e_c
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        r, G = self._radical(eng)
        assert np.max(np.abs(G)) >= 1.0
        evec = EigenBasis.of(g).evec
        modes = np.stack(np.unravel_index(np.arange(g.nmodes), (g.L,) * 3), axis=-1)
        for row, weight in zip(r, G):
            k, m, n = (tuple(modes[f]) for f in (tab.kf[row], tab.mf[row], tab.nf[row]))
            a, b, c = (int(s[row]) for s in (tab.ia, tab.ib, tab.ic))
            A = single_mode_field(g, np.array(k) - N, evec[a][k])
            B = single_mode_field(g, np.array(m) - N, evec[b][m])
            got = full_stack(coefficients(transport(A, B)))[c][n]
            assert abs(got - 0.5j * weight) <= 1e-15 * np.max(np.abs(G)), (k, m, a, b, c)

    def test_weighted_radical_rows_move_q_tilde1(self):
        # on (2,3,5)/N6 the radical rows supply a nonzero share of the wave
        # output of q_tilde1 (1.4% of its largest coefficient on this
        # input), so the oracles on this torus check their weights
        g = TorusGeometry((2, 3, 5), 6)
        eng = FormEngine(g, nu=1.0)
        r, _ = self._radical(eng)
        C = coefficients(random_field(g, seed=72, amplitude=1.0, spectrum_r=1.0))
        whole = full_stack(eng.q_tilde1(C))[1:]
        radical = q_resonant_2d(eng, C, C, r)[1:]
        assert np.max(np.abs(radical)) >= 1e-2 * np.max(np.abs(whole))
        assert close_to(whole, q_resonant_2d(eng, C, C)[1:])


class TestQeps:
    def test_bilinear_zero(self, engine4, unit_torus_4):
        # the quadratic form of the bilinear T: zero at zero and of degree
        # two (scaling by 2 is exact in floating point)
        assert l2_norm(engine4.q_eps(0.4, 0.1, zero_field(unit_torus_4))) == 0.0
        V = random_field(unit_torus_4, seed=31)
        assert np.array_equal(engine4.q_eps(0.4, 0.1, 2.0 * V).coeffs,
                              4.0 * engine4.q_eps(0.4, 0.1, V).coeffs)

    def test_t0_is_projected_transport(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=32)
        got = engine4.q_eps(0.0, 0.05, V)
        want = leray_project(convolve_quadratic(V, V))
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-10

    def test_energy_neutral(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=33)
        q = engine4.q_eps(0.7, 0.02, V)
        assert abs(inner_l2(q, V)) < 1e-10 * l2_norm(q) * l2_norm(V)

    def test_rejects_bad_eps(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=36)
        with pytest.raises(ValueError):
            engine4.q_eps(0.1, 0.0, V)

    @pytest.mark.parametrize("a_sq, N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    @pytest.mark.parametrize("eps", [0.1, 0.01])
    def test_forms_are_the_filtered_stepper_derivative(self, a_sq, N, eps):
        # the filtered unknown U = L(-t/eps) V of one short FilteredStepper
        # step moves by dU/dt = -q_eps(t; U) + a2_eps(t; U): the forms
        # are conjugated in the stepper's frame, not evaluated at -t
        from frspec.solvers import FilteredStepper, SimState

        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=5, amplitude=1.0, spectrum_r=3.0)
        t, dt = 0.3, 1e-6
        after = FilteredStepper(eng, eps, dt).step(SimState(t, V, 1.0, eps), enforce_cfl=False)
        U = apply_filter(-t / eps, V)
        dU = (1.0 / dt) * (apply_filter(-(t + dt) / eps, after.V) - U)
        rhs = -1.0 * eng.q_eps(t, eps, U) + eng.a2_eps(t, eps, U)
        # O(dt / eps) from the difference quotient; 0.68-0.79 with the
        # conjugation reversed
        assert l2_norm(dU - rhs) < 1e-3 * l2_norm(dU)


class TestA2:
    @pytest.mark.parametrize("nu", [-1.0, float("nan"), float("inf")])
    def test_viscosity_must_be_finite_and_nonnegative(self, unit_torus_4, nu):
        with pytest.raises(ValueError, match="viscosity"):
            FormEngine(unit_torus_4, nu)

    def test_underline_heat_display(self, unit_torus_4):
        eng = FormEngine(unit_torus_4, nu=1.0)
        f = single_mode_field(unit_torus_4, (0, 0, 1), [1, 2, 0, 4])
        out = eng.a2_limit(f)
        got = out.coeffs[stored(unit_torus_4, (0, 0, 1))]
        # (nu d33 W1, nu d33 W2, 0, 0): factor -1 on components 1, 2
        assert np.allclose(got, [-1, -2, 0, 0], atol=1e-14)

    def test_osc_phase_free_diagonal_is_half_laplacian(self, unit_torus_4):
        # <A2 e_pm, e_pm> = -nu |ncheck|^2 / 2: the wave carries half its
        # energy in the undiffused fourth component
        eng = FormEngine(unit_torus_4, nu=1.0)
        t = eigenbasis(unit_torus_4, (1, 0, 1))
        f = single_mode_field(unit_torus_4, (1, 0, 1), t.ep)
        out = eng.a2_limit(f)
        got = out.coeffs[stored(unit_torus_4, (1, 0, 1))]
        assert np.max(np.abs(got - (-1.0) * t.ep)) < 1e-13  # -nu |ncheck|^2/2 = -1

    def test_bar_full_laplacian(self, unit_torus_4):
        eng = FormEngine(unit_torus_4, nu=2.0)
        t = eigenbasis(unit_torus_4, (2, 1, 0))
        f = single_mode_field(unit_torus_4, (2, 1, 0), t.e0)
        out = eng.a2_limit(f)
        got = out.coeffs[stored(unit_torus_4, (2, 1, 0))]
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
        c = engine4.q_tilde1(coefficients(dec.bar))
        osc = np.sqrt(np.sum(np.abs(c[1]) ** 2 + np.abs(c[-1]) ** 2))
        assert osc < 1e-12 * l2_norm(dec.bar) ** 2

    def test_e0_projection_is_horizontal_transport(self, engine4, unit_torus_4):
        # q_tilde1 advects the bar part with the horizontal stencil; the
        # oracle is the full-stencil symmetric projected transport, which
        # agrees since the bar part has no vertical velocity
        V = random_field(unit_torus_4, seed=40)
        dec = decompose(V)
        got = engine4.q_tilde1(coefficients(project_tilde(V)))[0]
        want = coefficients(transport(dec.bar, dec.bar))[0]
        assert np.linalg.norm(got - want) < 1e-10 * np.linalg.norm(want)

    def test_fft_class_plus_resonant_classes(self, engine4, unit_torus_4):
        # row 0: the e_0 row of the horizontal kernel on the bar field, one
        # operand object in both slots; rows +-1: the resonant sum, to
        # rounding (the plane block and the mirror image on n3 < 0 reorder it)
        V = random_field(unit_torus_4, seed=41)
        C = coefficients(V)
        bar = field_from_coefficients(unit_torus_4, {0: C[0]})
        got = engine4.q_tilde1(C)
        assert np.array_equal(got[0], coefficients(convolve_quadratic(bar, bar, "horizontal"))[0])
        assert close_to(full_stack(got)[1:], q_resonant_2d(engine4, C, C)[1:])

    @pytest.mark.parametrize(
        "a_sq, N, radical_rows", [((1, 2, 3), 3, 24), ((1, 1, 1), 4, 0), ((2, 3, 5), 6, 48)]
    )
    def test_one_resonant_sum_drives_the_waves(self, a_sq, N, radical_rows):
        # the wave forcing of the limit stepper, osc_part(q(o, o) + 2 q(b, o))
        # of the two-slot q_tilde1, is one resonant sum, rows +-1 of
        # q_tilde1(C), on the coefficient stack of o + b
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        assert np.sum((tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)) == radical_rows
        dec = decompose(random_field(g, seed=5, amplitude=1.0, spectrum_r=3.0))
        o, b = coefficients(dec.osc), coefficients(dec.bar)
        want = wave_field(g, q_tilde1_2(eng, o, o) + 2.0 * q_tilde1_2(eng, b, o))
        got = wave_field(g, eng.q_tilde1(o + b))
        assert l2_norm(got - want) < 1e-13 * l2_norm(want)

    def test_bar_advection_transforms_the_live_components(self, engine4, unit_torus_4, monkeypatch):
        # the bar field carries components 1 and 2 only: one inverse
        # transform of 2 components and one forward of the 3 distinct
        # products a_1 a_1, a_1 a_2, a_2 a_2
        import frspec.fields as fields

        calls = []

        def counting(name, fn):
            def wrapper(g, x, *args):
                calls.append((name, len(x)))
                out = fn(g, x, *args)
                if name == "_from_grid":  # the native layout [n2, n3, n1]
                    assert out.shape == (len(x), g.L, g.N + 1, g.L)
                return out

            return wrapper

        for name in ("_to_grid", "_from_grid"):
            monkeypatch.setattr(fields, name, counting(name, getattr(fields, name)))
        engine4.q_tilde1(coefficients(random_field(unit_torus_4, seed=42)))
        assert calls == [("_to_grid", 2), ("_from_grid", 3)]

    def test_energy_neutral(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=43)
        til = project_tilde(V)
        q = full_field(unit_torus_4, engine4.q_tilde1(coefficients(til)))
        assert abs(inner_l2(q, til)) < 1e-10 * max(l2_norm(q) * l2_norm(til), 1e-300)

    def test_output_is_real_field(self, engine4, unit_torus_4):
        # the output stack is that of a real field: c_0(-n) = -conj c_0(n)
        # and c_pm(-n) = conj c_mp(n), which the stored plane n3 = 0 holds
        # for both n and -n
        V = random_field(unit_torus_4, seed=44)
        q = full_stack(engine4.q_tilde1(coefficients(V)))
        mirror = np.conj(q[[0, 2, 1], ::-1, ::-1, ::-1])
        mirror[0] *= -1.0
        assert np.max(np.abs(q)) > 0 and np.max(np.abs(q - mirror)) < 1e-12


class TestQtilde2AndB:
    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 2, 3), 8), ((2, 3, 5), 6)])
    def test_matches_the_full_lattice_einsum(self, a_sq, N):
        # b_form reads ncheck(n) . e_b^vel and <e_b, e_b(n)>, e_b at
        # (n_h, -n3), in closed form; the oracle sums both from the basis
        # over the full lattice
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        basis = eng.basis
        k1, k2, k3 = g.check_grid
        for seed in (46, 47):
            V = random_field(g, seed=seed, amplitude=1.0, spectrum_r=3.0)
            und, C = underline_part(V), coefficients(V)
            Cf = full_stack(C)
            line = full_lattice(und)[g.N, g.N].copy()
            line[:, 2] = 0.0
            line[g.N] = 0.0
            valid = np.abs(2 * g.n_axis) <= g.N
            u = np.where(valid[:, None], line[np.where(valid, 2 * g.n_axis + g.N, 0)], 0.0)
            want = np.zeros((3,) + (g.L,) * 3, dtype=np.complex128)
            for b in (1, -1):
                cb, eb = Cf[b][:, :, ::-1], basis.evec[b][:, :, ::-1, :]
                eb_conj = np.conj(basis.evec[b])
                ndot_u = k1 * u[None, None, :, 0] + k2 * u[None, None, :, 1]
                ndot_eb = k1 * eb[..., 0] + k2 * eb[..., 1] + k3 * eb[..., 2]
                pair_bc = np.einsum("xyzj,xyzj->xyz", eb, eb_conj)
                pair_uc = np.einsum("zj,xyzj->xyz", u, eb_conj)
                contrib = 1j * (ndot_u * cb * pair_bc + ndot_eb * cb * pair_uc)
                want[b] = np.where(basis.mask_osc, contrib, 0.0)
            want = want[..., g.N :]
            got = eng.b_form(und, C)
            assert np.all(got[0] == 0.0)
            assert np.max(np.abs(got - want)) <= 2e-15 * np.max(np.abs(want))

    def test_zero_underline_slot(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=45)
        osc = decompose(V).osc
        out = engine4.b_form(zero_field(unit_torus_4), coefficients(osc))
        L, N = unit_torus_4.L, unit_torus_4.N
        assert out.shape == (3, L, L, N + 1)
        assert np.all(out == 0.0)

    def test_single_mode_bookkeeping(self, unit_torus_4):
        # underline at vertical mode 2 couples the wave at (1, 0, -1) into
        # output (1, 0, 1) only (plus the conjugate mode, which is not stored)
        g = unit_torus_4
        eng = FormEngine(g, nu=1.0)
        und = single_mode_field(g, (0, 0, 2), [1.0, 0.5, 0, 2.0])
        t = eigenbasis(g, (1, 0, -1))
        osc = single_mode_field(g, (1, 0, -1), t.ep)
        C = eng.b_form(und, coefficients(osc))
        assert np.all(C[0] == 0.0)
        out = wave_field(g, C)
        assert l2_norm(out) > 1e-12
        mask = np.zeros_like(out.coeffs, dtype=bool)
        mask[stored(g, (1, 0, 1))] = True
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
        lam = np.sqrt(g.check_sq[..., g.N :]) ** s
        B1 = wave_field(g, engine4.b_form(und, coefficients(osc)))
        osc_s = SpectralField4(g, lam[..., None] * osc.coeffs)
        B2 = wave_field(g, engine4.b_form(und, coefficients(osc_s)))
        scale = np.max(np.abs(B2.coeffs))
        assert np.max(np.abs(B2.coeffs - lam[..., None] * B1.coeffs)) < 1e-12 * scale
        pair1 = inner_l2(SpectralField4(g, lam[..., None] ** 2 * B1.coeffs), osc)
        pair2 = inner_l2(B2, osc_s)
        pair_scale = l2_norm(B2) * l2_norm(osc_s)
        assert abs(pair1 - pair2) < 1e-10 * pair_scale
        # the restricted transport is also energy-neutral, like its parent
        assert abs(pair2) < 1e-12 * pair_scale

    def test_q_tilde2_e0_projection_is_underline_transport(self, engine4, unit_torus_4):
        g = unit_torus_4
        V = random_field(g, seed=47)
        dec = decompose(V)
        got = engine4.q_tilde2(dec.underline, coefficients(V))[0]
        # with the 1/2-symmetrized kernel, both slot sums together give one
        # copy of the underline transport (matching the bar limit equation)
        adv = leray_project(
            convolve_quadratic(dec.underline, dec.bar, stencil="horizontal"),
            check_mean=False,
        )
        want = coefficients(adv)[0]
        assert np.linalg.norm(got - want) < 1e-10 * max(np.linalg.norm(want), 1e-300)

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 4, 1), 6), ((1, 2, 3), 8)])
    def test_e0_row_is_the_horizontal_kernel(self, a_sq, N):
        # the sum along n3 is the truncated product the 2/3-dealiased FFT
        # kernel returns, up to rounding (6.3e-16 of max at (1,2,3)/N8)
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        for seed in range(3):
            V = random_field(g, seed=140 + seed, amplitude=1.0, spectrum_r=3.0)
            C, und = coefficients(V), underline_part(V)
            bar = field_from_coefficients(g, {0: C[0]})
            want = coefficients(convolve_quadratic(und, bar, "horizontal"))[0]
            got = eng.q_tilde2(und, C)[0]
            assert np.max(np.abs(want)) > 0
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    def test_q_tilde2_makes_no_fft(self, engine4, unit_torus_4, monkeypatch):
        import frspec.fields as fields

        V = random_field(unit_torus_4, seed=47)
        for name in ("_to_grid", "_from_grid"):
            monkeypatch.setattr(fields, name, lambda *a, **k: pytest.fail("q_tilde2 made a transform"))
        out = engine4.q_tilde2(underline_part(V), coefficients(V))
        assert np.max(np.abs(out[0])) > 0 and np.max(np.abs(out[1:])) > 0


class TestQunderline:
    def test_self_cancellation(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=48)
        til = project_tilde(V)
        out = engine4.q_underline(coefficients(til))
        assert l2_norm(out) < 1e-12 * l2_norm(til) ** 2

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 5), ((1, 4, 1), 6), ((1, 2, 3), 8)])
    def test_bar_transport_has_no_underline_output(self, a_sq, N):
        """The FFT (0, 0) class of the underline form vanishes by
        construction: on the vertical line ncheck is vertical, and the e_0
        velocity has no vertical part (in the advective form, e_0(k) . mc = 0
        when m_h = -k_h).  The divergence-form kernel returns exact zeros, on
        one field and on two, so `q_underline` sums the table rows only."""
        g = TorusGeometry(a_sq, N)
        for seed in range(5):
            A = bar_part(random_field(g, seed=120 + seed, spectrum_r=1.0))
            B = bar_part(random_field(g, seed=130 + seed, spectrum_r=1.0))
            assert l2_norm(A) > 0 and l2_norm(B) > 0
            for X, Y in ((A, A), (A, B)):
                assert np.all(underline_part(transport(X, Y)).coeffs == 0.0)

    def test_disjoint_horizontal_supports(self, engine4, unit_torus_4):
        g = unit_torus_4
        t1 = eigenbasis(g, (1, 0, 1))
        t2 = eigenbasis(g, (1, 1, -1))
        A = single_mode_field(g, (1, 0, 1), t1.ep)
        B = single_mode_field(g, (1, 1, -1), t2.ep)
        out = engine4.q_underline(coefficients(A + B))
        assert l2_norm(out) < 1e-14

    def test_against_brute_force_triads(self, engine3, unit_torus_3):
        """Direct evaluation of the underline limit form from its definition."""
        g = unit_torus_3
        basis = EigenBasis.of(g)
        V = random_field(g, seed=49)
        til = project_tilde(V)
        c = coefficients(til)
        cof = {a: full_stack(c)[a].reshape(-1) for a in (0, 1, -1)}
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
        got = engine3.q_underline(c)
        got_line = full_lattice(got)[N, N]
        scale = max(np.max(np.abs(want_line)), l2_norm(til) ** 2)
        assert np.max(np.abs(got_line - want_line)) < 1e-12 * scale

    def test_output_purely_underline(self, engine4, unit_torus_4):
        A = random_field(unit_torus_4, seed=50)
        B = random_field(unit_torus_4, seed=51)
        out = engine4.q_underline(coefficients(project_tilde(A + B)))
        off = out.coeffs.copy()
        off[unit_torus_4.N, unit_torus_4.N, :, :] = 0.0
        assert np.max(np.abs(off)) == 0.0


class TestTrilinear:
    def test_empty_set_gives_zero(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=52)
        V = full_lattice(V)
        val = engine4.trilinear_resonant(V[..., 0], V[..., 1], V[..., 3])
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
            a, b, c = (full_lattice(X) for X in (A, B, C))
            val = sum(eng.trilinear_resonant(a[..., j], b[..., j], c[..., j]) for j in range(4))
            ratios.append(
                abs(val)
                / (sobolev_norm(0.5, A) * sobolev_norm(0.5, B) * l2_norm(C))
            )
        assert max(ratios) < 0.01
        assert any(r > 0 for r in ratios)


class TestRemainders:
    """`remainders(t, eps, V)` takes the filtered stepper's variable V and
    returns the remainder F_eps(t; U) - F_0(U), F = Q - A2, of the filtered
    unknown U = L(-t/eps) V, as the filter image of the phase-0 remainder
    on V: the limit forms commute with the filtering group."""

    def test_identity_per_call(self, engine4, unit_torus_4):
        # the remainder at t is the phase-0 remainder rotated by L(-t/eps)
        V = random_field(unit_torus_4, seed=54)
        t, eps = 0.37, 0.03
        got = engine4.remainders(t, eps, V)
        want = apply_filter(-t / eps, engine4.remainders(0.0, eps, V))
        assert np.array_equal(got.coeffs, want.coeffs)

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 6), ((2, 3, 5), 6)])
    def test_matches_the_remainder_of_the_filtered_unknown(self, a_sq, N):
        # F_eps(t; U) - F_0(U) evaluated on U itself, with its four filters,
        # on tori where the radical rows carry weight and where they do not
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=91, amplitude=1.0, spectrum_r=1.0)
        for t, eps in ((0.3, 0.01), (1.0, 1e-3), (0.05, 0.1), (0.77, 0.013)):
            U = apply_filter(-t / eps, V)
            want = (eng.q_eps(t, eps, U) - eng.a2_eps(t, eps, U)) - (eng.q_limit(U) - eng.a2_limit(U))
            got = eng.remainders(t, eps, V)
            assert l2_norm(got - want) <= 1e-14 * l2_norm(want), (t, eps)

    def test_t0_phases_are_one(self, engine4, unit_torus_4):
        # at t = 0 every phase is one and U = V: the filtered forms are T
        # and A2
        V = random_field(unit_torus_4, seed=55)
        got = engine4.remainders(0.0, 0.5, V)
        want = (transport(V, V).pin_zero_mode() - engine4.a2_symbol(V)) - (
            engine4.q_limit(V) - engine4.a2_limit(V)
        )
        assert np.max(np.abs(got.coeffs - want.coeffs)) < 1e-12

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    def test_norm_is_filter_free(self, a_sq, N):
        # L is unitary, so the remainder's norm is that of
        # T(V, V) - A2 V - q_limit(V) + a2_limit(V), whatever t/eps is
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        V = random_field(g, seed=57, amplitude=1.0, spectrum_r=3.0)
        want = l2_norm(transport(V, V).pin_zero_mode() - eng.a2_symbol(V) - eng.q_limit(V) + eng.a2_limit(V))
        for t, eps in ((0.3, 0.01), (1.0, 1e-3), (0.05, 0.1)):
            got = l2_norm(eng.remainders(t, eps, V))
            assert abs(got - want) <= 1e-13 * want

    def test_time_average_decays(self, engine3, unit_torus_3):
        # averaged over t at a fixed filtered unknown U, fed to the
        # remainder as V = L(t) U (eps = 1)
        U = random_field(unit_torus_3, seed=56)
        scale = l2_norm(engine3.remainders(0.0, 1.0, U))

        def averaged(span, M=192):
            th = (np.arange(M) + 0.5) * span / M
            w = np.blackman(M + 2)[1:-1]
            w = w / np.sum(w)
            acc = zero_field(unit_torus_3)
            for t_, w_ in zip(th, w):
                acc.coeffs += w_ * engine3.remainders(t_, 1.0, apply_filter(t_, U)).coeffs
            return l2_norm(acc)

        short = averaged(50.0)
        long = averaged(400.0)
        assert long < 0.25 * scale
        assert long < short

    def test_interaction_free_synthetic_input(self):
        # all coefficients on a corner mode: no quadratic interactions fit
        # in the box, so the transport terms vanish structurally and the
        # remainder is the rotated phase-0 dissipation difference alone
        g = TorusGeometry((1, 1, 1), 2)
        eng = FormEngine(g, nu=1.0)
        t = eigenbasis(g, (2, 2, 2))
        V = single_mode_field(g, (2, 2, 2), t.ep)
        assert l2_norm(eng.q_eps(0.0, 0.1, V)) < 1e-14
        assert l2_norm(eng.q_limit(V)) < 1e-14
        want = apply_filter(-0.9 / 0.1, eng.a2_limit(V) - eng.a2_symbol(V))
        assert l2_norm(want) > 0
        assert l2_norm(eng.remainders(0.9, 0.1, V) - want) < 1e-14

    def test_work_count(self, engine4, unit_torus_4, monkeypatch):
        # one filtered evaluation at phase 0 (1 transport), one limit
        # advection (bar x bar) on the horizontal stencil, and one rotation
        # (a filter with tau != 0); the underline x bar advection is a sum
        # along n3
        calls = Counter()
        for name in ("transport", "apply_filter", "convolve_quadratic"):
            fn = getattr(forms, name)

            def spy(*a, fn=fn, name=name):
                calls.update(["rotation" if name == "apply_filter" and a[0] != 0 else name])
                return fn(*a)

            monkeypatch.setattr(forms, name, spy)
        engine4.remainders(0.3, 0.01, random_field(unit_torus_4, seed=59))
        del calls["apply_filter"]  # phase 0: L(0) is the identity
        assert calls == {"transport": 1, "rotation": 1, "convolve_quadratic": 1}


class TestFilterGroupCommutation:
    """The limit forms keep exactly the phase-free interactions, so they
    commute with the filtering group: L(-tau) F(L(tau) V) = F(V).  This is
    the property that leaves the remainder F_eps - F_0 purely oscillating."""

    @pytest.mark.parametrize("a_sq,N", [((1, 1, 1), 4), ((1, 2, 3), 5)])
    @pytest.mark.parametrize("form", ["q_limit", "a2_limit"])
    def test_limit_forms_commute(self, a_sq, N, form):
        g = TorusGeometry(a_sq, N)
        eng = FormEngine(g, nu=1.0)
        tab, _ = eng.tables
        radical = np.sum((tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0))
        assert (radical > 0) == (a_sq == (1, 2, 3))
        fn = getattr(eng, form)
        V = random_field(g, seed=58, amplitude=1.0, spectrum_r=1.0)
        want = fn(V)
        assert l2_norm(want) > 0
        for tau in (0.3, -1.7, 12.5, 1e3):
            got = apply_filter(-tau, fn(apply_filter(tau, V)))
            assert l2_norm(got - want) <= 1e-13 * l2_norm(want), tau


class TestEvaluate:
    """One evaluation of each limit form hands the table of its classes to
    the row product once, counted by its rows: q_tilde1 sums that table's
    apply plan, and its plane block and its output on n3 >= 0 alone stand
    for the other rows."""

    @pytest.mark.parametrize("form", ["q_tilde1", "q_tilde2", "q_underline", "q_limit"])
    def test_interactions_are_the_rows_summed(self, engine3, unit_torus_3, form, monkeypatch):
        tab, under = engine3.tables
        rows = {
            "q_tilde1": [tab.rows],
            "q_tilde2": [],
            "q_underline": [len(under.kf)],
            "q_limit": [tab.rows, len(under.kf)],
        }
        seen = []
        row_products = FormEngine._row_products

        def spy(self, C, table):
            seen.append(len(table.kf))
            return row_products(self, C, table)

        monkeypatch.setattr(FormEngine, "_row_products", spy)
        form_on(engine3, form, random_field(unit_torus_3, seed=60))
        assert seen == rows[form]


class TestStructure:
    def test_tilde_forms_have_no_underline_output(self, engine4, unit_torus_4):
        V = random_field(unit_torus_4, seed=57)
        N = unit_torus_4.N
        for form in ("q_tilde1", "q_tilde2"):
            out = form_on(engine4, form, V)
            assert np.max(np.abs(out)) > 0 and np.all(out[:, N, N, :] == 0.0), form
            line = full_field(unit_torus_4, out).coeffs[N, N, :, :]
            assert np.max(np.abs(line)) < 1e-13

    @pytest.mark.parametrize("form", ["q_tilde1", "q_tilde2", "q_underline", "q_limit", "q_eps"])
    def test_outputs_are_divergence_free_and_zero_mean(self, engine4, unit_torus_4, form):
        # the forms project
        from frspec.fields import divergence_max

        V = random_field(unit_torus_4, seed=59)
        out = engine4.q_eps(0.3, 0.01, V) if form == "q_eps" else form_on(engine4, form, V)
        if form in ("q_tilde1", "q_tilde2"):
            out = full_field(unit_torus_4, out)
        assert divergence_max(out) < 1e-10
        assert out.zero_mean()


@pytest.fixture(scope="module", params=[((1, 1, 1), 4, 0), ((1, 2, 3), 5, 72), ((1, 4, 1), 6, 0)],
                ids=lambda p: "-".join(map(str, p[0])) + f"-N{p[1]}")
def self_engine(request):
    a_sq, N, radical_rows = request.param
    eng = FormEngine(TorusGeometry(a_sq, N), nu=1.0)
    tab, _ = eng.tables
    assert np.sum((tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)) == radical_rows
    return eng


class TestSelfInteractions:
    """Each form is the diagonal of a symmetric bilinear form: on V it has
    the bytes of the two-slot form (written out above from the kernels) on
    (V, V.copy()), except where the form sums in another order, so that it
    agrees to rounding: the e_0 row of q_tilde2, a sum along n3 that the
    two-slot form takes from the FFT kernel, and rows +-1 of q_tilde1, which
    the two-slot form takes from the full-table sum (weight G on every row)
    and q_tilde1 from its plan, plane block and stored output n3 >= 0."""

    FORMS = {"q_tilde1": lambda eng, A, B: q_tilde1_2(eng, coefficients(A), coefficients(B)),
             "q_tilde2": q_tilde2_2, "q_underline": q_underline_2d, "q_limit": q_limit_2}

    @staticmethod
    def _data(g):
        return random_field(g, seed=83, amplitude=1.0, spectrum_r=3.0)

    def test_q_resonant_matches_the_general_path(self, self_engine):
        # the resonant sum, rows +-1 of q_tilde1
        C = coefficients(self._data(self_engine.geometry))
        got = full_stack(self_engine.q_tilde1(C))[1:]
        assert close_to(got, q_resonant_2d(self_engine, C, C.copy())[1:])

    def test_q_resonant_matches_the_bar_osc_forcing(self, self_engine):
        # the limit stepper's former wave forcing q(osc, osc + 2 bar): the
        # table holds no (0, 0, c) row, so it is the resonant sum of q_tilde1
        # on C
        C = coefficients(self._data(self_engine.geometry))
        bar = np.zeros_like(C)
        bar[0] = C[0]
        osc = C - bar
        want = q_resonant_2d(self_engine, osc, osc + 2.0 * bar)
        assert close_to(full_stack(self_engine.q_tilde1(C))[1:], want[1:])

    @pytest.mark.parametrize("form", FORMS)
    def test_forms_match_the_general_path(self, self_engine, form, monkeypatch):
        if form == "q_underline":
            # q_underline(C) cancels to exactly zero: random weights give
            # the row sum something to compare
            _, qu = self_engine.tables
            rng = np.random.default_rng(85)
            G4 = rng.standard_normal(qu.G4.shape) + 1j * rng.standard_normal(qu.G4.shape)
            monkeypatch.setattr(qu, "G4", G4)
        V = self._data(self_engine.geometry)
        got, want = (
            x.coeffs if isinstance(x, SpectralField4) else x
            for x in (form_on(self_engine, form, V), self.FORMS[form](self_engine, V, V.copy()))
        )
        assert np.max(np.abs(got)) > 0
        if form == "q_tilde2":
            assert got[1:].tobytes() == want[1:].tobytes()
            got, want = got[0], want[0]  # a sum along n3 against the FFT kernel
        if form == "q_underline":
            assert np.array_equal(got, want)
        else:
            assert close_to(got, want)

    def test_q_eps_matches_the_general_path(self, self_engine):
        V = self._data(self_engine.geometry)
        got = self_engine.q_eps(0.3, 0.01, V).coeffs
        assert np.array_equal(got, q_eps_2(0.3, 0.01, V, V.copy()).coeffs)

    def test_remainders_match_a_copy_fed_evaluation(self, self_engine):
        # to rounding: the limit part carries the e_0 row of q_tilde2; the
        # phase-0 difference on V, rotated by L(-t/eps)
        eng = self_engine
        V = self._data(eng.geometry)
        got = eng.remainders(0.3, 0.01, V)
        want = apply_filter(-0.3 / 0.01, (q_eps_2(0.0, 0.01, V, V.copy()) - eng.a2_eps(0.0, 0.01, V)) - (
            q_limit_2(eng, V, V.copy()) - eng.a2_limit(V)
        ))
        assert np.max(np.abs(got.coeffs - want.coeffs)) <= 1e-14 * np.max(np.abs(want.coeffs))

    def test_q_limit_makes_no_transport(self, engine4, unit_torus_4, monkeypatch):
        # the limit forms advect the bar part with the limit stepper's
        # kernel: one horizontal convolution of the bar part by itself (one
        # operand object in both slots), assembled from the one coefficient
        # stack of V and never projected out of it; the advection by the
        # underline part is a sum along n3
        V = random_field(unit_torus_4, seed=84)
        calls, stacks = [], []

        def conv(A, B, stencil="full"):
            calls.append((A, B, stencil))
            return convolve_quadratic(A, B, stencil)

        def spy_coefficients(X):
            stacks.append(X)
            return coefficients(X)

        monkeypatch.setattr(forms, "transport", lambda A, B: pytest.fail("q_limit made a transport"))
        monkeypatch.setattr(forms, "convolve_quadratic", conv)
        monkeypatch.setattr(forms, "coefficients", spy_coefficients)
        engine4.q_limit(V)
        assert [(A is B, stencil) for A, B, stencil in calls] == [(True, "horizontal")]
        assert np.array_equal(calls[0][0].coeffs, bar_part(V).coeffs)
        assert [id(X) for X in stacks] == [id(V)]
