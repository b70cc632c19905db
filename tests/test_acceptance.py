"""Acceptance suite: one test per criterion, at the stated tolerances.

Each criterion prints a PASS/FAIL line (run with -s to see them live).

One clause is implemented exactly as stated and fails honestly:
criterion 5a asserts the plain mean over 64 equispaced phases at 5e-3.
The smallest nonzero triad phase on the N = 4 lattice is 1.48e-3, far
below 2 pi / 134, the slowest phase a 64-node alias-free rule averages,
so it stalls at Q err 5.2e-1 (its docstring has the numbers).  Criterion
5b checks the same averaging consistency at the same 5e-3 tolerance with
an adequate (windowed, long-span) quadrature and passes at 1.2e-5 (Q)
and 6.8e-6 (A2).

Criterion 3b checks the wave-part dissipation against its exact phase
average, which is half the printed nu Lap U_osc (the wave eigenvectors
keep half their energy in the undiffused density slot), and checks that
factor 1/2 itself.
"""

import itertools
import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy.linalg import expm

from frspec.dyadic import (
    bernstein_ratio,
    bony_split,
    dyadic_block,
    dyadic_coefficients,
    q_max,
)
from frspec.fields import (
    SpectralField4,
    l2_norm,
    leray_project,
    single_mode_field,
    sobolev_norm,
    zero_field,
)
from frspec.forms import FormEngine, project_tilde
from frspec.geometry import TorusGeometry
from frspec.harness import SimConfig, audit_cancellations, random_initial_data
from frspec.resonance import enumerate_iab, enumerate_kstar
from frspec.solvers import (
    EnergyLedger,
    FilteredStepper,
    SimState,
    energy_bounds,
    solve_limit,
    solve_underline,
)
from frspec.waves import (
    EigenBasis,
    apply_filter,
    apply_pa,
    coefficients,
    decompose,
    eigenbasis,
    field_from_coefficients,
    pa_symbol,
)

from conftest import random_field
from test_resonance import float_brute_force_kstar


def _report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion}] {status}: {detail} ({elapsed:.1f}s / budget {budget:.0f}s)")


# -- 1. eigen-structure suite -----------------------------------------------------------


def test_criterion_1_eigen_structure():
    t0 = time.perf_counter()
    worst_orth = worst_eig = worst_rec = 0.0
    for a_sq in ((1, 1, 1), (1, 4, 1)):
        g = TorusGeometry(a_sq, 8)
        b = EigenBasis.of(g)
        osc = b.mask_osc
        for vecs in ((b.e0, b.ep, b.em),):
            E = np.stack(vecs, axis=-2)  # (L,L,L,3,4)
            gram = np.einsum("...ic,...jc->...ij", E, np.conj(E))
            gram = gram - np.eye(3)
            worst_orth = max(worst_orth, np.max(np.abs(gram[osc])))
        # eigen relation PA e_pm = -+ i omega e_pm per mode
        for n in itertools.product(range(-8, 9), repeat=3):
            if n == (0, 0, 0) or (n[0] == 0 and n[1] == 0):
                continue
            i = tuple(c + 8 for c in n)
            m = pa_symbol(g, n)
            w = b.omega[i]
            worst_eig = max(
                worst_eig,
                np.max(np.abs(m @ b.ep[i] + 1j * w * b.ep[i])),
                np.max(np.abs(m @ b.em[i] - 1j * w * b.em[i])),
                np.max(np.abs(m @ b.e0[i])),
            )
        V = random_field(g, seed=1)
        dec = decompose(V)
        worst_rec = max(
            worst_rec, np.max(np.abs(dec.total().coeffs - V.coeffs))
        )
        kern = dec.underline + dec.bar
        worst_rec = max(worst_rec, np.max(np.abs(apply_pa(kern).coeffs)))
    elapsed = time.perf_counter() - t0
    ok = worst_orth < 1e-14 and worst_eig < 1e-13 and worst_rec < 1e-12
    _report(
        1,
        ok,
        f"orthonormality {worst_orth:.1e}, eigen-relation {worst_eig:.1e}, "
        f"kernel reconstruction {worst_rec:.1e}",
        elapsed,
        5,
    )
    assert worst_orth < 1e-14
    assert worst_eig < 1e-13
    assert worst_rec < 1e-12
    assert elapsed < 5.0


# -- 2. filter suite ----------------------------------------------------------------------


def test_criterion_2_filter_suite():
    t0 = time.perf_counter()
    g = TorusGeometry((1, 1, 1), 6)
    V = random_field(g, seed=2)
    iso = max(
        abs(sobolev_norm(s, apply_filter(1.3, V)) - sobolev_norm(s, V))
        / sobolev_norm(s, V)
        for s in (0.0, 2.0, 5.0)
    )
    semi = np.max(
        np.abs(
            apply_filter(0.7, apply_filter(0.6, V)).coeffs
            - apply_filter(1.3, V).coeffs
        )
    )
    dec = decompose(V)
    kern = dec.underline + dec.bar
    ident = np.max(np.abs(apply_filter(2.1, kern).coeffs - kern.coeffs))
    pa = apply_pa(V)
    res = [
        l2_norm((apply_filter(h, V) - V) * (1.0 / h) + pa)
        for h in (1e-2, 1e-3, 1e-4)
    ]
    order = min(
        math.log10(res[0] / res[1]), math.log10(res[1] / res[2])
    )
    elapsed = time.perf_counter() - t0
    ok = iso < 1e-12 and semi < 1e-12 and ident < 1e-12 and order >= 1.0 - 1e-3
    _report(
        2,
        ok,
        f"isometry {iso:.1e}, semigroup {semi:.1e}, kernel identity {ident:.1e}, "
        f"generator order {order:.2f}",
        elapsed,
        5,
    )
    assert ok
    assert elapsed < 5.0


# -- 3. cancellation audit ------------------------------------------------------------------


def test_criterion_3a_cancellation_audit():
    t0 = time.perf_counter()
    cfg = replace(SimConfig(), N=6, seed=0).validate()
    rep = audit_cancellations(cfg, n_seeds=10)
    by_name = {r[0]: r[1] for r in rep.rows}
    elapsed = time.perf_counter() - t0
    qu = by_name["q_underline_self_cancellation"]
    t1osc = by_name["q_tilde1_bar_bar_osc_projection"]
    e0 = by_name["q_tilde1_e0_projection_transport"]
    ok = qu < 1e-12 and t1osc < 1e-12 and e0 < 1e-10
    _report(
        "3a",
        ok,
        f"Q_under(til,til) {qu:.1e}, (Qt1(bar,bar))_osc {t1osc:.1e}, e0-projection {e0:.1e}",
        elapsed,
        30,
    )
    assert ok
    assert elapsed < 30.0


def _exact_dissipation_average(g, nu, n):
    """Period average of the conjugated dissipation at a mode with n_h != 0.

    (1/5) sum_j expm(-theta_j M) D expm(theta_j M) with M = pa_symbol(g, n),
    D = diag(-nu |ncheck|^2 (x3), 0) and theta_j = 2 pi j / (5 omega(n)).
    The integrand is a trigonometric polynomial in theta with frequencies
    0, omega(n), 2 omega(n), so five equispaced nodes over the period
    2 pi / omega(n) average it exactly.
    """
    M = pa_symbol(g, n)
    kc = np.asarray(n, dtype=float) / g.a
    ksq = float(kc @ kc)
    omega = math.hypot(kc[0], kc[1]) / math.sqrt(ksq)
    D = np.diag([-nu * ksq] * 3 + [0.0])
    theta = 2.0 * np.pi * np.arange(5) / (5.0 * omega)
    conj = [expm(-th * M) @ D @ expm(th * M) for th in theta]
    return np.mean(conj, axis=0)


def test_criterion_3b_osc_dissipation_clause_as_stated():
    """(A2_limit U)_osc against the exact phase average, and against nu Lap U_osc.

    The printed clause reads (A2_limit U)_osc = nu Lap U_osc.  What the
    limit form is defined as (FormEngine.a2_limit) is the phase-free part
    of the conjugated dissipation, whose diagonal on a wave mode is
    -nu |ncheck|^2 |e_pm^vel|^2: half the Laplacian, because e_pm keeps
    half its energy in the undiffused buoyancy slot.  The oracle is that
    period average built mode by mode from pa_symbol and scipy's expm,
    independent of the eigenbasis; the clause's factor-2 defect is
    checked as the ratio 1/2 to nu Lap U_osc.  Criterion 5b reaches the
    same limit by brute-force averaging of a2_eps.
    """
    t0 = time.perf_counter()
    nu = 1.0
    g = TorusGeometry((1, 1, 1), 6)
    eng = FormEngine(g, nu=nu)
    V = random_field(g, seed=3)
    co = coefficients(V)
    osc = field_from_coefficients(g, {1: co[1], -1: co[-1]})
    got = eng.a2_limit(osc)
    want = zero_field(g)
    for n in itertools.product(range(-g.N, g.N + 1), range(-g.N, g.N + 1), range(g.N + 1)):
        if n[0] == 0 and n[1] == 0:
            continue  # no wave modes on the vertical line
        i = (n[0] + g.N, n[1] + g.N, n[2])  # the stored modes n3 >= 0
        want.coeffs[i] = _exact_dissipation_average(g, nu, n) @ osc.coeffs[i]
    res = l2_norm(got - want) / l2_norm(want)
    ksq = g.check_sq[..., g.N :]
    lap = field_from_coefficients(
        g, {1: -nu * ksq * co[1], -1: -nu * ksq * co[-1]}
    )
    res_half = l2_norm(got - 0.5 * lap) / l2_norm(0.5 * lap)
    clause = l2_norm(got - lap) / l2_norm(lap)
    elapsed = time.perf_counter() - t0
    ok = res <= 1e-12 and res_half <= 1e-12
    _report(
        "3b",
        ok,
        f"wave part vs exact phase average: {res:.1e}; vs (nu/2) Lap: "
        f"{res_half:.1e}; printed clause nu Lap off by {clause:.3f} relative",
        elapsed,
        30,
    )
    assert res <= 1e-12, (
        f"(A2_limit U)_osc deviates from the exact period average by {res:.2e}"
    )
    assert res_half <= 1e-12, (
        "(A2_limit U)_osc is not half of nu Lap U_osc: relative deviation "
        f"{res_half:.2e}"
    )


# -- 4. resonance suite ------------------------------------------------------------------------


def test_criterion_4_resonance_suite():
    t0 = time.perf_counter()
    # exact enumerator vs floating brute force at 1e-9, N <= 6, both tori
    agree = True
    for a_sq, a in (((1, 1, 1), (1, 1, 1)), ((1, 4, 1), (1, 2, 1))):
        g = TorusGeometry(a_sq, 6)
        exact = {(t.k, t.m, t.n, t.a, t.b, t.c) for t in enumerate_kstar(g, 6)}
        agree = agree and exact == float_brute_force_kstar(a, 6, tol=1e-9)

    # fiber bound over the full N = 8 scan: grouping the exact pair set by
    # (k_h, n) bounds every fiber in the scanned box
    g8 = TorusGeometry((1, 1, 1), 8)
    counts = {}
    for t in enumerate_kstar(g8, 8):
        key = (t.k[0], t.k[1], t.n)
        counts.setdefault(key, set()).add(t.k[2])
    max_fiber_unit = max((len(v) for v in counts.values()), default=0)

    # non-vacuous fibers on the resonant control torus
    from frspec.resonance import fiber

    g3 = TorusGeometry((1, 1, 3), 3)
    max_fiber_ctrl = 0
    nonzero_fibers = 0
    for kh1, kh2 in itertools.product(range(-3, 4), repeat=2):
        if (kh1, kh2) == (0, 0):
            continue
        for n in [(1, 1, 0), (1, 0, 3), (2, 1, 0), (1, -1, 3)]:
            if (n[0] - kh1, n[1] - kh2) == (0, 0):
                continue
            f = fiber(g3, (kh1, kh2), n, k3_max=12)
            max_fiber_ctrl = max(max_fiber_ctrl, len(f))
            nonzero_fibers += bool(f)

    # I_{a,b} structure: the section-5 case analysis
    cases_ok = True
    for a_sq in ((1, 1, 1), (1, 4, 1)):
        g = TorusGeometry(a_sq, 4)
        for n3 in range(-4, 5):
            for sgn in (1, -1):
                cases_ok = cases_ok and enumerate_iab(g, n3, a=sgn, b=sgn) == []
                cases_ok = cases_ok and enumerate_iab(g, n3, a=sgn, b=0) == []
                cases_ok = cases_ok and enumerate_iab(g, n3, a=0, b=sgn) == []
            got = enumerate_iab(g, n3, a=1, b=-1)
            if n3 % 2 == 1 or n3 % 2 == -1:
                cases_ok = cases_ok and got == []
            elif n3 != 0:
                want = sorted(
                    ((k1, k2, n3 // 2), (-k1, -k2, n3 // 2))
                    for k1 in range(-4, 5)
                    for k2 in range(-4, 5)
                    if (k1, k2) != (0, 0)
                )
                cases_ok = cases_ok and got == want
            else:
                cases_ok = cases_ok and all(
                    m == tuple(-x for x in k) for k, m in got
                )
    elapsed = time.perf_counter() - t0
    ok = (
        agree
        and max_fiber_unit <= 8
        and max_fiber_ctrl <= 8
        and nonzero_fibers > 0
        and cases_ok
    )
    _report(
        4,
        ok,
        f"oracle agreement {agree}, max fiber (N=8 scan) {max_fiber_unit}, "
        f"control-torus max fiber {max_fiber_ctrl} ({nonzero_fibers} nonempty), "
        f"case analysis {cases_ok}",
        elapsed,
        60,
    )
    assert ok
    assert elapsed < 60.0


# -- 5. averaging consistency --------------------------------------------------------------------


def _averaging_setup():
    g = TorusGeometry((1, 1, 1), 4)
    eng = FormEngine(g, nu=1.0)
    V = random_field(g, seed=5, amplitude=1.0, spectrum_r=1.0)
    Q = eng.q_limit(V)
    A0 = eng.a2_limit(V)
    return g, eng, V, Q, A0


def _averaged(eng, g, V, thetas, weights, with_a2):
    w = np.asarray(weights) / np.sum(weights)
    qa = zero_field(g)
    aa = zero_field(g)
    for th, wi in zip(thetas, w):
        qa.coeffs += wi * eng.q_eps(th, 1.0, V).coeffs
        if with_a2:
            aa.coeffs += wi * eng.a2_eps(th, 1.0, V).coeffs
    return qa, aa


def test_criterion_5a_averaging_64_phases_as_stated():
    """64 equispaced phases, plain mean, 5e-3 relative.

    Expected to fail, by a property of the quadrature rather than of the
    program: it measures Q err 5.2e-1 and A2 err 7.6e-3, while 5b reaches
    the same limits at 1.2e-5 (Q) and 6.8e-6 (A2).  A plain mean over a
    span S averages out only phases well above 2 pi / S.  Phases reach
    up to 3 (three frequencies omega <= 1), so 64 equispaced nodes stay
    alias-free only up to a spacing of 2 pi / 3, i.e. a span of about 134.
    The smallest nonzero triad phase a omega(k) + b omega(m) - c omega(n)
    on the N = 4 unit torus is 1.48e-3, e.g. k = (-2,-1,-4), m = (1,2,1),
    n = (-1,1,-3) with signs (-,+,+); counting triads k + m = n with all
    three modes off the vertical line and signs in {-,0,+}, 197,280 rows
    have a nonzero phase below 2 pi / 134.  No alias-free 64-node
    equispaced rule can average these.  The source abstract does not fix
    the node count, so the clause is kept as stated and stays red.
    """
    t0 = time.perf_counter()
    g, eng, V, Q, A0 = _averaging_setup()
    M = 64
    span = 134.0  # alias-free maximum: spacing ~ 2 rad < 2 pi / omega_max
    th = (np.arange(M) + 0.5) * span / M
    qa, aa = _averaged(eng, g, V, th, np.ones(M), with_a2=True)
    err_q = l2_norm(qa - Q) / l2_norm(Q)
    err_a = l2_norm(aa - A0) / l2_norm(A0)
    elapsed = time.perf_counter() - t0
    ok = err_q <= 5e-3 and err_a <= 5e-3
    _report(
        "5a (64-node rule cannot reach the 1.48e-3 phase)",
        ok,
        f"plain 64-phase mean: Q err {err_q:.2e}, A2 err {err_a:.2e}",
        elapsed,
        60,
    )
    assert ok, (
        f"64 equispaced phases stall at Q err {err_q:.2e}: the smallest nonzero "
        "triad phase, 1.48e-3, is far below 2 pi / 134, the slowest phase a "
        "64-node alias-free rule averages; criterion 5b verifies the same "
        "limit at 5e-3 with an adequate rule"
    )


def test_criterion_5b_averaging_adequate_quadrature():
    t0 = time.perf_counter()
    g, eng, V, Q, A0 = _averaging_setup()
    # dissipation: 64 windowed nodes suffice (phase gap 2 omega_min ~ 0.49)
    M, span = 64, 134.0
    th = (np.arange(M) + 0.5) * span / M
    w = np.blackman(M + 2)[1:-1]
    _, aa = _averaged(eng, g, V, th, w, with_a2=True)
    err_a = l2_norm(aa - A0) / l2_norm(A0)
    # transport: the window must span past the 1.48e-3 near-resonance
    M, span = 7200, 14400.0
    th = (np.arange(M) + 0.5) * span / M
    w = np.kaiser(M + 2, 10.0)[1:-1]
    qa, _ = _averaged(eng, g, V, th, w, with_a2=False)
    err_q = l2_norm(qa - Q) / l2_norm(Q)
    elapsed = time.perf_counter() - t0
    ok = err_q <= 5e-3 and err_a <= 5e-3
    _report(
        "5b",
        ok,
        f"windowed average: Q err {err_q:.2e} (7200 nodes), A2 err {err_a:.2e} (64 nodes)",
        elapsed,
        60,
    )
    assert ok
    assert elapsed < 60.0


# -- 6. energy law ------------------------------------------------------------------------------


def test_criterion_6_energy_law():
    t0 = time.perf_counter()
    cfg = SimConfig().validate()
    g = cfg.geometry()
    eng = FormEngine(g, cfg.nu)
    V0, _ = random_initial_data(cfg)
    worst = {}
    for eps in (1e-1, 1e-2, 1e-3):
        stepper = FilteredStepper(eng, eps, 1e-3)
        state = SimState(0.0, V0.copy(), cfg.nu, eps)
        ledger = EnergyLedger(0.5 * l2_norm(V0) ** 2)
        drift = 0.0
        for i in range(1000):
            state = stepper.step(state, ledger, enforce_cfl=(i % 100 == 0))
            if (i + 1) % 50 == 0:
                drift = max(drift, ledger.drift(state.V))
        worst[eps] = drift
    elapsed = time.perf_counter() - t0
    ok = all(v <= 1e-5 for v in worst.values())
    _report(
        6,
        ok,
        "drift " + ", ".join(f"eps={e}: {v:.2e}" for e, v in worst.items()),
        elapsed,
        300,
    )
    assert ok
    assert elapsed < 300.0


# -- 7. main-theorem sweep -----------------------------------------------------------------------


def test_criterion_7_main_theorem_sweep():
    t0 = time.perf_counter()
    eps_list = (1e-1, 1e-2, 1e-3)
    monotone = 0
    table = []
    for seed in range(10):
        cfg = replace(
            SimConfig(),
            seed=seed,
            dt_limit=1e-2,
            snapshot_dt=5e-2,
        ).validate()
        g = cfg.geometry()
        eng = FormEngine(g, cfg.nu)
        V0, _ = random_initial_data(cfg)
        traj = solve_limit(eng, V0, cfg.T, cfg.dt_limit, snapshot_every=5)
        errs = []
        for eps in eps_list:
            stepper = FilteredStepper(eng, eps, cfg.dt)
            state = SimState(0.0, V0.copy(), cfg.nu, eps)
            isnap, worst = 1, 0.0
            for i in range(1000):
                state = stepper.step(state, enforce_cfl=(i % 50 == 0))
                if (i + 1) % 50 == 0:
                    # L(t/eps) is the identity on the underline and e_0 parts
                    approx = apply_filter(state.t / eps, traj.total(isnap))
                    worst = max(worst, sobolev_norm(3.0, state.V - approx))
                    isnap += 1
            errs.append(worst)
        table.append(errs)
        if errs[0] > errs[1] > errs[2]:
            monotone += 1
    elapsed = time.perf_counter() - t0
    ok = monotone >= 9
    lines = "; ".join(
        f"seed {i}: " + " > ".join(f"{e:.3g}" for e in row)
        for i, row in enumerate(table[:3])
    )
    _report(
        7,
        ok,
        f"monotone decreasing for {monotone}/10 seeds (e.g. {lines})",
        elapsed,
        900,
    )
    assert ok
    assert elapsed < 900.0


# -- 8. exact subsolutions and the L2 wave bound --------------------------------------------------


def test_criterion_8_exact_subsolutions_and_wave_bound():
    t0 = time.perf_counter()
    g = TorusGeometry((1, 1, 1), 4)
    eng = FormEngine(g, nu=1.0)

    # underline heat modes through the full filtered stepper
    V0 = single_mode_field(g, (0, 0, 2), [0.4, -0.2, 0, 0.7])
    stepper = FilteredStepper(eng, eps=1e-2, dt=0.05)
    state = SimState(0.0, V0.copy(), 1.0, 1e-2)
    for _ in range(4):
        state = stepper.step(state, enforce_cfl=False)
    fac = math.exp(-4.0 * 0.2)
    want = V0.coeffs.copy()
    want[..., 0] *= fac
    want[..., 1] *= fac
    heat_err = np.max(np.abs(state.V.coeffs - want))

    # E2 bound along simulated wave trajectories
    ok_bound = True
    for seed in (0, 1, 2):
        cfg = replace(SimConfig(), seed=seed, amplitude=0.5).validate()
        V, _ = random_initial_data(cfg)
        bounds = energy_bounds(V, T=0.5, nu=1.0, s=5.0)
        traj = solve_limit(eng, V, T=0.5, dt=5e-3, snapshot_every=10)
        grad = np.sqrt(g.check_sq[..., g.N :, None])
        diss = 0.0
        prev = None
        for i, t in enumerate(traj.times):
            osc = field_from_coefficients(g, {1: traj.C[i][1], -1: traj.C[i][-1]})
            gnorm = l2_norm(SpectralField4(g, grad * osc.coeffs)) ** 2
            if prev is not None:
                diss += 0.5 * (gnorm + prev) * (traj.times[i] - traj.times[i - 1])
            prev = gnorm
            lhs = l2_norm(osc) ** 2 + 1.0 * diss
            ok_bound = ok_bound and (lhs <= bounds.e2 or math.isinf(bounds.e2))
    elapsed = time.perf_counter() - t0
    ok = heat_err < 1e-12 and ok_bound
    _report(
        8,
        ok,
        f"underline heat error {heat_err:.1e} (exact propagator), E2 bound holds: {ok_bound}",
        elapsed,
        60,
    )
    assert ok
    assert elapsed < 60.0


# -- 9. Littlewood-Paley suite ---------------------------------------------------------------------


def test_criterion_9_littlewood_paley_suite():
    t0 = time.perf_counter()
    g = TorusGeometry((1, 1, 1), 6)
    f = random_field(g, seed=9, divergence_free=False)
    total = zero_field(g)
    for q in range(-1, q_max(g) + 1):
        total.coeffs += dyadic_block(q, f).coeffs
    part = np.max(np.abs(total.coeffs - f.coeffs))

    u = random_field(g, seed=10, divergence_free=False)
    from frspec.dyadic import _pointwise_product

    t1, t2, r = bony_split(u, f)
    direct = _pointwise_product(u, f)
    bony = l2_norm(t1 + t2 + r - direct) / l2_norm(direct)

    C, cq = dyadic_coefficients(2.5, f)
    ell2 = abs(float(np.sum(cq**2)) - 1.0)

    gq = TorusGeometry((1, 1, 1), 14)
    fq = random_field(gq, seed=11, divergence_free=False)
    worst_ratio = 0.0
    for q in range(0, 6):
        blk = dyadic_block(q, fq)
        if l2_norm(blk) < 1e-12:
            continue
        br = bernstein_ratio(q, blk, k=1)
        worst_ratio = max(
            worst_ratio, br["derivative_ratio"], 1.0 / br["derivative_ratio"]
        )
    elapsed = time.perf_counter() - t0
    ok = part < 1e-12 and bony < 1e-10 and ell2 < 1e-10 and worst_ratio <= 4.0
    _report(
        9,
        ok,
        f"partition {part:.1e}, bony {bony:.1e}, c_q ell2 defect {ell2:.1e}, "
        f"bernstein constant {worst_ratio:.2f} (q <= 5)",
        elapsed,
        30,
    )
    assert ok
    assert elapsed < 30.0
