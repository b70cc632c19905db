"""The oscillation-conjugated bilinear forms and their epsilon -> 0 limits.

Everything is built from one kernel, the symmetrized projected transport

    T(A, B) = 1/2 P [ a . grad B + b . grad A ],

computed pseudo-spectrally with 2/3-rule dealiasing.  The filtered form
conjugates T by the filtering group,

    Q_eps(t; V1, V2) = L(t/eps) T( L(-t/eps) V1, L(-t/eps) V2 ),

and the limit forms keep exactly those interactions whose phase is
identically zero.  In the eigen decomposition the interactions split into
sign classes: the (0,0,0) class is an unrestricted convolution of the
e_0 parts (evaluated by FFT), while every class with a nonzero sign is
supported on an exactly enumerated resonant set (evaluated by sparse
triad summation with exact-arithmetic membership decisions).

Per-row coupling weight: restricting the two inputs of T to eigen
components (a at k) and (b at m) and projecting the output on e_c(n),

    <T_row, e_c(n)> = (i/2) c1_a(k) c2_b(m) G,
    G = (ncheck(n) . e_a^vel(k)) <e_b(m), e_c(n)>
      + (ncheck(n) . e_b^vel(m)) <e_a(k), e_c(n)>,

which is the quantity tabulated below.  Rows come in (k,a) <-> (m,b)
swapped pairs, so evaluating with the symmetrized coefficient product
makes the forms bitwise symmetric in their arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SpectralField4, transport, zero_field
from .geometry import TorusGeometry
from .resonance import _pair_chunks, exact_sqrt_sum_is_zero, omega_ratio_ints
from .waves import (
    EigenBasis,
    apply_filter,
    bar_part,
    coefficients,
    field_from_coefficients,
    osc_part,
    underline_part,
)

__all__ = ["FormEngine", "project_tilde"]

# Sign classes (a, b, c) of the tilde-output table, in their row order
# within one output mode.  The radical classes (all signs nonzero) run
# a, b, c over (+1, -1); class i and class 19 - i are mirrors (-a, -b, -c).
_CLASSES = (
    (0, 1, 1), (0, -1, -1), (1, 0, 1), (-1, 0, -1), (1, -1, 0), (-1, 1, 0),
    (1, 1, 1), (1, 1, -1), (1, -1, 1), (1, -1, -1),
    (-1, 1, 1), (-1, 1, -1), (-1, -1, 1), (-1, -1, -1),
)
_CLASS_SIGNS = np.array(_CLASSES, dtype=np.int8)
_RADICAL_SCREEN = 1e-11
# table rows per G chunk: it bounds the memory of the table build, not its
# result.
_G_CHUNK = 1 << 15


def _flat(signs: np.ndarray, modes: np.ndarray, nmodes: int) -> np.ndarray:
    """Flat index of (sign row, mode) in a raveled (3, L^3) coefficient matrix."""
    return (signs.astype(np.int64) + 1) * nmodes + modes


def project_tilde(V: SpectralField4) -> SpectralField4:
    """Zero out the n_h = 0 modes."""
    g = V.geometry
    out = V.copy()
    out.coeffs[g.N, g.N, :, :] = 0.0
    return out


@dataclass
class TriadTable:
    """Sparse interaction rows for tilde-output sign classes."""

    kf: np.ndarray  # flat mode index of k
    mf: np.ndarray
    nf: np.ndarray
    ia: np.ndarray  # signs in {-1, 0, 1}
    ib: np.ndarray
    ic: np.ndarray
    G: np.ndarray  # complex coupling weight
    ka: np.ndarray  # flat (ia, kf), (ib, mf), (ic, nf): see _flat
    mb: np.ndarray
    nc: np.ndarray

    @property
    def rows(self) -> int:
        return len(self.kf)

    def class_rows(self) -> dict[str, int]:
        """Rows per sign class (a, b, c), keyed like "0pp" or "pmm", in the
        order of _CLASSES."""
        def code(a, b, c):
            return (a + 1) * 9 + (b + 1) * 3 + (c + 1)

        counts = np.bincount(code(self.ia.astype(np.int64), self.ib, self.ic), minlength=27)
        return {
            "".join("m0p"[x + 1] for x in cls): int(counts[code(*cls)]) for cls in _CLASSES
        }


@dataclass
class UnderTable:
    """Sparse rows with output on the vertical line (f-basis)."""

    kf: np.ndarray
    mf: np.ndarray
    n3i: np.ndarray  # index along the vertical line (0 .. L-1)
    ia: np.ndarray
    ib: np.ndarray
    G4: np.ndarray  # (rows, 4) f-projected coupling vector
    ka: np.ndarray  # flat (ia, kf), (ib, mf): see _flat
    mb: np.ndarray
    out: np.ndarray  # (rows * 4) flat index of (n3i, component) on the line


@dataclass
class FormEvaluation:
    """Result of a limit-form evaluation with bookkeeping.

    The output is divergence-free and zero-mean (the forms project);
    `interactions` counts the sparse triad rows summed.
    """

    output: SpectralField4
    interactions: int
    seconds: float


class FormEngine:
    """All epsilon-forms and limit forms for one geometry and viscosity."""

    def __init__(self, geometry: TorusGeometry, nu: float):
        if nu < 0:
            raise ValueError("viscosity must be nonnegative")
        self.geometry = geometry
        self.nu = float(nu)
        self.basis = EigenBasis.of(geometry)
        g = geometry
        L = g.L
        self._modes = np.stack(
            np.meshgrid(g.n_axis, g.n_axis, g.n_axis, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        H, S = omega_ratio_ints(g)
        Sf = np.where(S > 0, S, 1).astype(float)
        self._omega_flat = np.sqrt(H / Sf)
        # exact frequency classes: equal ids <=> H_x S_y == H_y S_x, from
        # H / S in lowest terms
        d = np.gcd(H, S)
        d[d == 0] = 1
        self._freq_id = np.unique(
            np.stack([H // d, S // d], axis=1), axis=0, return_inverse=True
        )[1].reshape(-1)
        k1, k2, k3 = g.check_grid
        self._ncheck_flat = np.stack(
            [
                np.broadcast_to(k1, (L, L, L)).reshape(-1),
                np.broadcast_to(k2, (L, L, L)).reshape(-1),
                np.broadcast_to(k3, (L, L, L)).reshape(-1),
            ],
            axis=-1,
        )
        # eigenvectors flattened, stacked by sign row {-1, 0, +1} -> {0, 1, 2}
        self._evec = np.stack(
            [
                self.basis.em.reshape(-1, 4),
                self.basis.e0.reshape(-1, 4),
                self.basis.ep.reshape(-1, 4),
            ]
        )
        self._tab_t1: TriadTable | None = None
        self._tab_qu: UnderTable | None = None
        self._kstar_pairs: tuple[np.ndarray, np.ndarray] | None = None
        self.last_interactions = 0

    # -- coefficient packing ----------------------------------------------------

    def _coeff_matrix(self, V: SpectralField4) -> np.ndarray:
        """(3, L^3) eigen coefficients, rows ordered (-1, 0, +1)."""
        c = coefficients(V)
        return np.stack([c[-1].reshape(-1), c[0].reshape(-1), c[1].reshape(-1)])

    # -- table construction -------------------------------------------------------

    def _G_rows(self, kf, ia, mf, ib, nf, ic) -> np.ndarray:
        ev = self._evec
        nck = self._ncheck_flat[nf]
        ea_k = ev[ia + 1, kf]
        eb_m = ev[ib + 1, mf]
        ec_n = np.conj(ev[ic + 1, nf])
        ndot_a = np.einsum("rj,rj->r", nck, ea_k[:, :3])
        ndot_b = np.einsum("rj,rj->r", nck, eb_m[:, :3])
        pair_bc = np.einsum("rj,rj->r", eb_m, ec_n)
        pair_ac = np.einsum("rj,rj->r", ea_k, ec_n)
        return ndot_a * pair_bc + ndot_b * pair_ac

    def _confirm_radical(self, k, m, n, a, b, c) -> bool:
        g = self.geometry
        return exact_sqrt_sum_is_zero(
            [
                (a, g.omega_sq_exact(k)),
                (b, g.omega_sq_exact(m)),
                (-c, g.omega_sq_exact(n)),
            ]
        )

    def _build_triad_table(self) -> TriadTable:
        """Rows sorted by (nf, class in _CLASSES order, kf).

        Zero-sign classes are equalities of exact frequency ids.  A radical
        class keeps the pairs with |a wk + b wm - c wn| < _RADICAL_SCREEN
        that pass exact confirmation; the screen value of the mirror class
        is the exact negation, so one screen serves both."""
        fid, om, modes = self._freq_id, self._omega_flat, self._modes
        found = {"kf": [], "mf": [], "nf": [], "cls": []}

        def push(sel, kf, mf, nf, cls):
            found["kf"].append(kf[sel])
            found["mf"].append(mf[sel])
            found["nf"].append(nf[sel])
            found["cls"].append(np.full(len(sel), cls, dtype=np.int8))

        for kf, mf, nf in _pair_chunks(self.geometry.N):
            ik, im, i_n = fid[kf], fid[mf], fid[nf]
            # (0, b, b): omega(m) = omega(n); (a, 0, a): omega(k) = omega(n);
            # (a, -a, 0): omega(k) = omega(m)
            for cls, eq in ((0, im == i_n), (2, ik == i_n), (4, ik == im)):
                sel = np.nonzero(eq)[0]
                push(sel, kf, mf, nf, cls)
                push(sel, kf, mf, nf, cls + 1)
            # a wk + b wm - c wn for a = +1: products with +-1 and the
            # subtraction of a negation are exact, so these are its floats
            wk, wm, wn = om[kf], om[mf], om[nf]
            s, d = wk + wm, wk - wm
            for cls, v in ((6, s - wn), (7, s + wn), (8, d - wn), (9, d + wn)):
                cand = np.nonzero(np.abs(v) < _RADICAL_SCREEN)[0]
                for cl in (cls, 19 - cls):
                    keep = [
                        i
                        for i in cand
                        if self._confirm_radical(
                            modes[kf[i]], modes[mf[i]], modes[nf[i]], *_CLASSES[cl]
                        )
                    ]
                    push(np.asarray(keep, dtype=np.int64), kf, mf, nf, cl)

        kf, mf, nf, cls = (np.concatenate(found.pop(key)) for key in ("kf", "mf", "nf", "cls"))
        order = np.lexsort((kf, cls, nf))
        kf, mf, nf = kf[order], mf[order], nf[order]
        ia, ib, ic = (np.ascontiguousarray(col) for col in _CLASS_SIGNS[cls[order]].T)
        G = np.empty(len(kf), dtype=np.complex128)
        for lo in range(0, len(kf), _G_CHUNK):
            r = slice(lo, lo + _G_CHUNK)
            G[r] = self._G_rows(kf[r], ia[r], mf[r], ib[r], nf[r], ic[r])
        size = self.geometry.nmodes
        return TriadTable(
            kf, mf, nf, ia, ib, ic, G,
            ka=_flat(ia, kf, size), mb=_flat(ib, mf, size), nc=_flat(ic, nf, size),
        )

    def _build_under_table(self) -> UnderTable:
        """Rows (a, -a) with k + m on the vertical line and omega(k) = omega(m),
        sorted by (n3i, a = +1 before -1, kf)."""
        g = self.geometry
        fid = self._freq_id
        found = []
        for kf, mf, nf in _pair_chunks(g.N, underline=True):
            sel = np.nonzero(fid[kf] == fid[mf])[0]
            found.append((kf[sel], mf[sel], nf[sel]))
        kf, mf, nf = (np.concatenate(parts) for parts in zip(*found))
        del found
        n3i = nf - (g.nmodes // 2 - g.N)  # (0, 0, n3) is the centre plus n3
        ia = np.repeat(np.array([1, -1], dtype=np.int8), len(kf))
        kf, mf, nf, n3i = (np.concatenate([x, x]) for x in (kf, mf, nf, n3i))
        order = np.lexsort((kf, -ia, n3i))
        kf, mf, nf, n3i, ia = kf[order], mf[order], nf[order], n3i[order], ia[order]
        ib = -ia
        ev = self._evec
        ea_k = ev[ia + 1, kf]
        eb_m = ev[ib + 1, mf]
        nc3 = self._ncheck_flat[nf, 2]
        ndot_a = nc3 * ea_k[:, 2]
        ndot_b = nc3 * eb_m[:, 2]
        G4 = ndot_a[:, None] * eb_m + ndot_b[:, None] * ea_k
        G4[:, 2] = 0.0  # Leray at (0,0,n3) kills the third component
        return UnderTable(
            kf, mf, n3i, ia, ib, G4,
            ka=_flat(ia, kf, g.nmodes), mb=_flat(ib, mf, g.nmodes),
            out=(n3i[:, None] * 4 + np.arange(4)).reshape(-1),
        )

    @property
    def tables(self) -> tuple[TriadTable, UnderTable]:
        if self._tab_t1 is None:
            self._tab_t1 = self._build_triad_table()
            self._tab_qu = self._build_under_table()
        return self._tab_t1, self._tab_qu

    # -- epsilon-dependent forms ---------------------------------------------------

    def q_eps(
        self, t: float, eps: float, V1: SpectralField4, V2: SpectralField4
    ) -> SpectralField4:
        """Filter-conjugated symmetrized transport (eq. level: the filtered
        system's bilinear term)."""
        if not eps > 0:
            raise ValueError("q_eps requires eps > 0 (use the limit forms at eps = 0)")
        theta = t / eps
        W1 = apply_filter(-theta, V1)
        W2 = apply_filter(-theta, V2)
        return apply_filter(theta, transport(W1, W2)).pin_zero_mode()

    def a2_symbol(self, W: SpectralField4) -> SpectralField4:
        """Plain dissipation symbol diag(-nu |ncheck|^2 x3, 0)."""
        g = self.geometry
        out = W.coeffs * 1.0
        lam = -self.nu * g.check_sq
        out[..., :3] *= lam[..., None]
        out[..., 3] = 0.0
        return SpectralField4(g, out)

    def a2_eps(self, t: float, eps: float, W: SpectralField4) -> SpectralField4:
        """Filter-conjugated dissipation."""
        if not eps > 0:
            raise ValueError("a2_eps requires eps > 0")
        theta = t / eps
        return apply_filter(theta, self.a2_symbol(apply_filter(-theta, W)))

    # -- limit forms ---------------------------------------------------------------

    def _row_products(
        self, V1: SpectralField4, V2: SpectralField4, tab: TriadTable | UnderTable
    ) -> np.ndarray:
        """(i/2) times the symmetrized coefficient product of each table row:
        c1_a(k) c2_b(m) averaged with its (V1 <-> V2) swap, so the sum is
        bitwise symmetric in its arguments."""
        C1 = self._coeff_matrix(V1).reshape(-1)
        C2 = self._coeff_matrix(V2).reshape(-1)
        # 0.5j * (0.5 * (x1 * y2 + x2 * y1)), in place: same floats, fewer
        # row-sized temporaries
        p = np.take(C1, tab.ka)
        p *= np.take(C2, tab.mb)
        q = np.take(C2, tab.ka)
        q *= np.take(C1, tab.mb)
        p += q
        np.multiply(0.5, p, out=p)
        np.multiply(0.5j, p, out=p)
        return p

    def q_resonant(self, V1: SpectralField4, V2: SpectralField4) -> SpectralField4:
        """The sparse exact-resonant classes of q_tilde1 (every sign class
        but (0,0,0)), summed over the triad table."""
        tab, _ = self.tables
        g = self.geometry
        out = np.zeros(3 * g.nmodes, dtype=np.complex128)
        if tab.rows:
            p = self._row_products(V1, V2, tab)
            p *= tab.G
            np.add.at(out, tab.nc, p)
        out = out.reshape(3, g.nmodes)
        self.last_interactions = tab.rows
        return field_from_coefficients(
            g,
            {
                -1: out[0].reshape((g.L,) * 3),
                0: out[1].reshape((g.L,) * 3),
                1: out[2].reshape((g.L,) * 3),
            },
        )

    def q_tilde1(self, V1: SpectralField4, V2: SpectralField4) -> SpectralField4:
        """Resonance-restricted symmetrized transport (tilde output).

        Inputs are taken through their tilde parts; the (0,0,0) class is an
        unrestricted convolution of the e_0 parts, all other classes are
        the sparse exact-resonant sums of `q_resonant`.
        """
        fft_part = bar_part(transport(bar_part(V1), bar_part(V2)))
        return (fft_part + self.q_resonant(V1, V2)).pin_zero_mode()

    def _b_sector(
        self, Vund: SpectralField4, Vtil: SpectralField4
    ) -> SpectralField4:
        """The (b, c) = (+-, +-) sector of the underline x tilde form:
        output n couples the underline field at (0, 0, 2 n3) with the tilde
        field at (n_h, -n3).  Carries the bare symmetrized kernel (no 1/2):
        this is the coupling exactly as it enters the wave limit equation."""
        g = self.geometry
        L, N = g.L, g.N
        basis = self.basis
        und = Vund.coeffs[N, N, :, :]  # (L, 4) along the vertical line
        C2 = coefficients(Vtil)

        out = {1: np.zeros((L, L, L), dtype=np.complex128),
               -1: np.zeros((L, L, L), dtype=np.complex128)}
        n3 = g.n_axis
        valid3 = np.abs(2 * n3) <= N  # underline partner inside the lattice
        i_k3 = np.where(valid3, 2 * n3 + N, 0)
        u_at = np.where(valid3[:, None], und[i_k3, :], 0.0)  # (L, 4) for each n3
        k1, k2, k3 = g.check_grid
        osc = basis.mask_osc

        # m = (n1, n2, -n3): flip the vertical index
        flip = slice(None, None, -1)
        for b in (1, -1):
            cb = C2[b][:, :, flip]
            eb = (basis.ep if b == 1 else basis.em)[:, :, flip, :]
            ndot_u = k1 * u_at[None, None, :, 0] + k2 * u_at[None, None, :, 1]
            ndot_eb = k1 * eb[..., 0] + k2 * eb[..., 1] + k3 * eb[..., 2]
            ec = basis.ep if b == 1 else basis.em  # resonance forces c = b
            pair_bc = np.einsum("xyzj,xyzj->xyz", eb, np.conj(ec))
            pair_uc = np.einsum("zj,xyzj->xyz", u_at.astype(np.complex128), np.conj(ec))
            contrib = 1j * (ndot_u * cb * pair_bc + ndot_eb * cb * pair_uc)
            out[b] += np.where(osc, contrib, 0.0)
        return field_from_coefficients(g, out)

    def b_form(self, Vund: SpectralField4, Vosc: SpectralField4) -> SpectralField4:
        """Limit coupling of the horizontal average into the wave part."""
        return self._b_sector(underline_part(Vund), osc_part(Vosc)).pin_zero_mode()

    def q_tilde2(self, V1: SpectralField4, V2: SpectralField4) -> SpectralField4:
        """Limit underline x tilde transport (tilde output), both slots."""
        und1 = underline_part(V1)
        und2 = underline_part(V2)
        til1 = project_tilde(V1)
        til2 = project_tilde(V2)
        bar1 = bar_part(til1)
        bar2 = bar_part(til2)
        fft_part = bar_part(transport(und1, bar2) + transport(bar1, und2))
        b_part = 0.5 * (self._b_sector(und1, til2) + self._b_sector(und2, til1))
        return (fft_part + b_part).pin_zero_mode()

    def q_underline(self, V1: SpectralField4, V2: SpectralField4) -> SpectralField4:
        """Limit tilde x tilde interaction with output on the vertical line."""
        g = self.geometry
        til1 = project_tilde(V1)
        til2 = project_tilde(V2)
        fft_part = underline_part(transport(bar_part(til1), bar_part(til2)))

        _, qu = self.tables
        out_line = np.zeros(g.L * 4, dtype=np.complex128)
        if len(qu.kf):
            contrib = self._row_products(til1, til2, qu)[:, None] * qu.G4
            np.add.at(out_line, qu.out, contrib.reshape(-1))
        self.last_interactions = len(qu.kf)
        out = zero_field(g)
        out.coeffs[g.N, g.N, :, :] = out_line.reshape(g.L, 4)
        return (fft_part + out).pin_zero_mode()

    def q_limit(self, V1: SpectralField4, V2: SpectralField4) -> SpectralField4:
        """The full limit form Q = Qt1 + Qt2 + Qu."""
        t1 = self.q_tilde1(project_tilde(V1), project_tilde(V2))
        t2 = self.q_tilde2(V1, V2)
        qu = self.q_underline(V1, V2)
        tab, under = self.tables
        self.last_interactions = tab.rows + len(under.kf)
        return t1 + t2 + qu

    def evaluate(self, form: str, V1: SpectralField4, V2: SpectralField4) -> FormEvaluation:
        """Timed evaluation of a named limit form with its interaction count."""
        import time as _time

        fn = {
            "q_tilde1": self.q_tilde1,
            "q_tilde2": self.q_tilde2,
            "q_underline": self.q_underline,
            "q_limit": self.q_limit,
        }[form]
        self.last_interactions = 0
        t0 = _time.perf_counter()
        out = fn(V1, V2)
        return FormEvaluation(out, self.last_interactions, _time.perf_counter() - t0)

    def a2_limit(self, W: SpectralField4) -> SpectralField4:
        """Phase-free part of the conjugated dissipation.

        Underline: heat in x3 on the horizontal components, none on the
        fourth.  Bar: full Laplacian.  Oscillating: the diagonal
        <A2 e_pm, e_pm> = -nu |ncheck|^2 * |velocity share of e_pm|^2,
        i.e. half the Laplacian, since the wave vectors carry half their
        energy in the non-diffused fourth component.
        """
        g = self.geometry
        vshare = self.basis.vshare
        c = coefficients(W)
        ksq = g.check_sq
        out = field_from_coefficients(
            g,
            {
                0: -self.nu * ksq * c[0],
                1: -self.nu * ksq * vshare * c[1],
                -1: -self.nu * ksq * vshare * c[-1],
            },
        )
        # underline part: nu * d33 on components 1, 2; fourth untouched
        line = W.coeffs[g.N, g.N, :, :]
        lam3 = -self.nu * (g.n_axis.astype(float) / g.a[2]) ** 2
        out.coeffs[g.N, g.N, :, 0] += lam3 * line[:, 0]
        out.coeffs[g.N, g.N, :, 1] += lam3 * line[:, 1]
        return out.pin_zero_mode()

    # -- resonant trilinear pairing -------------------------------------------------

    def kstar_pair_indices(self) -> tuple[np.ndarray, np.ndarray]:
        """Flat (k, n) index arrays of the deduplicated resonant pair set."""
        if self._kstar_pairs is None:
            tab, _ = self.tables
            allpm = (tab.ia != 0) & (tab.ib != 0) & (tab.ic != 0)
            size = self.geometry.nmodes
            self._kstar_pairs = np.divmod(np.unique(tab.kf[allpm] * size + tab.nf[allpm]), size)
        return self._kstar_pairs

    def trilinear_resonant(self, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> complex:
        """sum over (k, n) in K* of a_hat(k) b_hat(n-k) c_hat(n) for scalar
        coefficient lattices."""
        g = self.geometry
        kf, nf = self.kstar_pair_indices()
        if len(kf) == 0:
            return 0.0 + 0.0j
        af = np.asarray(a, dtype=np.complex128).reshape(-1)
        bf = np.asarray(b, dtype=np.complex128).reshape(-1)
        cf = np.asarray(c, dtype=np.complex128).reshape(-1)
        mk = self._modes[nf] - self._modes[kf]
        L = g.L
        mfl = ((mk[:, 0] + g.N) * L + (mk[:, 1] + g.N)) * L + (mk[:, 2] + g.N)
        return complex(np.sum(af[kf] * bf[mfl] * cf[nf]))

    # -- Schochet remainders ----------------------------------------------------------

    def remainders(self, t: float, eps: float, U: SpectralField4):
        """Oscillating remainder fields (R_I, R_II, R_III, S).

        Each R is the non-resonant part of the corresponding interaction
        class, with its explicit phases; computed as the difference between
        the filtered form and its resonant (limit) part, which agree on the
        resonant set with phase exactly one.
        """
        til = project_tilde(U)
        und = underline_part(U)
        q_til_til = self.q_eps(t, eps, til, til)
        r1 = project_tilde(q_til_til) - self.q_tilde1(til, til)
        r2 = 2.0 * project_tilde(self.q_eps(t, eps, und, til)) - self.q_tilde2(U, U)
        r3 = underline_part(q_til_til) - self.q_underline(til, til)
        s = -1.0 * (self.a2_eps(t, eps, U) - self.a2_limit(U))
        return r1, r2, r3, s
