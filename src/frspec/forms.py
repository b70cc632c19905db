"""The oscillation-conjugated quadratic forms and their epsilon -> 0 limits.

Everything is built from one kernel, the symmetrized projected transport

    T(A, B) = 1/2 P [ a . grad B + b . grad A ],

computed pseudo-spectrally with 2/3-rule dealiasing.  Every form is the
quadratic form of a symmetric bilinear one.  The filtered form conjugates
T by the filtering group: for the filtered unknown U = L(-t/eps) V of
`solvers`,

    Q_eps(t; U) = L(-t/eps) T( L(t/eps) U, L(t/eps) U ),

and the limit forms keep exactly those interactions whose phase is
identically zero.  The oscillating (Schochet) remainder is therefore the
filtered right-hand side minus the limit one, F_eps(t; U) - F_0(U), with
F = Q - A2.  In the eigen decomposition the interactions split into
sign classes: the (0,0,0) class is an unrestricted convolution of the
e_0 parts, while every class with a nonzero sign is supported on an
exactly enumerated resonant set (evaluated by sparse triad summation).
The e_0 parts have no vertical velocity, so that class runs on the 2.5D
kernel `convolve_quadratic(bar, bar, "horizontal")`; their advection by
the underline part, which depends on x3 alone, is a sum along n3.

The class forms take (3, L, L, N + 1) eigen-coefficient stacks (n3 >= 0)
and return stacks; `q_tilde1(C) + q_tilde2(und, C)` is the limit stepper's
right-hand side, so the limit nonlinearity has one definition.  The whole
forms `q_limit` and `a2_limit` take fields, like the filtered forms.

The tables are built by joins inside exact frequency classes (see
`resonance`): zero-sign classes by equal-omega ids, radical
classes by an integer identity in int64, proven exact while
3 s_max^3 < 2^63 for the reduced denominators s of omega^2 (N <= 363 on
a^2 = (1, 2, 3)), in Python integers past that; no float screen takes
part.  Every radical row is also confirmed over Fractions.  Each pair of
modes finds its third mode by one lookup in the (4N + 1)^3-byte code table
of `resonance._pair_codes` (36 KB at N = 8): one lookup per sign on the
equal-omega pairs, whose sums also give the underline table, and one in
`_radical_rows`.  The build pushes the rows one sign class and its mirror
at a time and chooses the apply plan per push, before the sort: in a push
the signs are fixed, so only 0pp and m0m of the zero-sign classes can hold
plan rows, and only the few hundred radical rows take a per-row test.  The plan is
sorted apart from the table, so no pass over the whole table serves the
plan alone.  The build records the rows of each sign class as it pushes
them (`TriadTable.counts`, read by `class_rows`), so no count re-reads the
table.

`b_form` couples the underline part into the waves through two factors
per sign b, with e_b taken at (n_h, -n3), both closed forms in omega(n),
since flipping n3 flips the horizontal entries of t (see `waves`):
ncheck(n) . e_b^vel = i b sqrt2 ncheck_3(n) omega(n) and
<e_b, e_b(n)> = omega(n)^2.

Per-row coupling weight: restricting the two inputs of T to eigen
components (a at k) and (b at m) and projecting the output on e_c(n),

    <T_row, e_c(n)> = (i/2) c_a(k) c_b(m) G,
    G = (ncheck(n) . e_a^vel(k)) <e_b(m), e_c(n)>
      + (ncheck(n) . e_b^vel(m)) <e_a(k), e_c(n)>,

which is the quantity tabulated below.  Rows come in (k,a) <-> (m,b)
swapped pairs with the same output, the same coefficient product and
bitwise-equal G, so the resonant sum runs once per pair with weight 2 G,
on the row with (a, k) < (b, m).  The (a, -a, 0) rows are not summed: two
resonant waves never force e_0.  With kc = ncheck(k), mc = ncheck(m) and
X = kc_1 mc_2 - kc_2 mc_1, such a row has
G = -X (|kc_h|^2 mc_3^2 - |mc_h|^2 kc_3^2) / (2 |kc_h| |kc| |mc_h| |mc| |nc_h|),
whose bracket vanishes exactly when omega(k) = omega(m) (derived in
tests/test_forms.py, TestWaveWaveKernelForcing).

Two more kinds of rows are not summed row by row.  On the plane n3 = 0
every wave has omega = 1 exactly (an integer test: ncheck = ncheck_h), so
every pair of modes there is resonant in the classes (0, b, b) and
(a, 0, a), and e_pm = (0, 0, +-i, 1) / sqrt2 for every n_h.  Those rows,
k3 = m3 = n3 = 0, sum to one 2-D advection, the bar velocity on that plane
advecting the plane of C_+ (`fields.convolve_plane`): at (1,2,3)/N8 they
are 92,448 of the 149,856 rows left after the mirror pairs (Embid &
Majda 1998 describe this vertically uniform part of the stratified
limit).  And the output is that of a real field, c_pm(-n) = conj c_mp(n),
so only the rows with output n3 >= 0, the stored modes, are summed.  The
radical rows with output on n3 = 0 stay in the sum.

Eigenvectors and coefficients come in the one layout of `waves` (rows e_0,
e_+, e_-, indexed by the sign a); a projection on e_c reads the row -c,
since conj(e_c) = e_-c.  A table row reads any mode, so a sum
gathers from `_full_rows(C)`, built once per call, at the flat index
(a mod 3) L^3 + mode of the raveled (3, L^3) stack.  The eigenvectors
vanish on the vertical line n_h = 0, so the coefficients and the bar part
of a field are those of its tilde part, and no form projects its input
first.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import SpectralField4, convolve_plane, convolve_quadratic, transport, zero_field
from .geometry import TorusGeometry
from .resonance import (
    VERTICAL,
    WAVE,
    _class_pairs,
    _freq_classes,
    _pair_codes,
    _radical_rows,
    exact_sqrt_sum_is_zero,
)
from .waves import (
    EigenBasis,
    _coefficients,
    _full_rows,
    _underline_line,
    apply_filter,
    coefficients,
    field_from_coefficients,
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
# table rows per G chunk: it bounds the memory of the table build, not its
# result.
_G_CHUNK = 1 << 15


def _flat(signs: np.ndarray, modes: np.ndarray, nmodes: int) -> np.ndarray:
    """Flat index of (sign, mode) in a raveled (3, L^3) coefficient matrix
    with rows c_0, c_+, c_- (sign a sits in row a mod 3)."""
    return (signs.astype(np.int64) % 3) * nmodes + modes


def _flat_stored(signs: np.ndarray, modes: np.ndarray, N: int) -> np.ndarray:
    """Flat index of (sign, mode), a flat mode with n3 >= 0, in a raveled
    (3, L, L, N + 1) stack of the stored modes, rows c_0, c_+, c_-."""
    L = 2 * N + 1
    return ((signs.astype(np.int64) % 3) * L * L + modes // L) * (N + 1) + modes % L - N


def _decode(key: np.ndarray, B: int):
    """Sort the row keys, bit fields (nf, class, kf) with kf in the low B
    bits and the class in the 4 above, in place, and return kf, nf and the
    class signs a, b, c (int8) of the sorted rows."""
    key.sort()
    kf = key & ((1 << B) - 1)
    key >>= B
    cls = key & 15
    key >>= 4
    return (kf, key, *(col.take(cls) for col in _CLASS_SIGNS.T))


def project_tilde(V: SpectralField4) -> SpectralField4:
    """Zero out the n_h = 0 modes."""
    g = V.geometry
    out = V.copy()
    out.coeffs[g.N, g.N, :, :] = 0.0
    return out


@dataclass
class TriadTable:
    """Sparse interaction rows for tilde-output sign classes.

    kf .. ic hold the whole resonant set.  Each row (k,a,m,b,c) has its
    mirror (m,b,k,a,c) in the set, with the same output and the same G, and
    no row is its own mirror.  The apply plan ka, mb, nc, W keeps one row
    per mirror pair, the one with (a, k) < (b, m) (signs compared first,
    then flat modes), in table order, with weight W = 2 G, and leaves out
    three kinds of rows: the (a, -a, 0) rows, whose G is identically zero;
    the rows with k3 = m3 = n3 = 0, the plane block that `q_tilde1` takes
    from one 2-D advection; and the rows with output n3 < 0, the mirror
    images c_pm(-n) = conj c_mp(n) of the rows with output n3 > 0.  The
    radical rows with output on n3 = 0 stay."""

    kf: np.ndarray  # flat mode index of k
    mf: np.ndarray
    nf: np.ndarray
    ia: np.ndarray  # signs in {-1, 0, 1}
    ib: np.ndarray
    ic: np.ndarray
    ka: np.ndarray  # plan rows: flat (ia, kf), (ib, mf), see _flat
    mb: np.ndarray
    nc: np.ndarray  # plan rows: flat (ic, nf) of the stored modes, see _flat_stored
    W: np.ndarray  # plan rows: complex weight 2 G
    counts: np.ndarray  # rows per sign class, in the order of _CLASSES

    @property
    def rows(self) -> int:
        return len(self.kf)

    def class_rows(self) -> dict[str, int]:
        """Rows per sign class (a, b, c), keyed like "0pp" or "pmm", in the
        order of _CLASSES: the counts the build recorded."""
        return {"".join("0pm"[x] for x in cls): int(n) for cls, n in zip(_CLASSES, self.counts)}


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


class FormEngine:
    """All epsilon-forms and limit forms for one geometry and viscosity."""

    def __init__(self, geometry: TorusGeometry, nu: float):
        if not 0 <= nu < math.inf:  # NaN included
            raise ValueError("viscosity must be finite and nonnegative")
        self.geometry = geometry
        self.nu = float(nu)
        self.basis = EigenBasis.of(geometry)
        g = geometry
        L = g.L
        self._modes = np.stack(
            np.meshgrid(g.n_axis, g.n_axis, g.n_axis, indexing="ij"), axis=-1
        ).reshape(-1, 3)
        grids = [np.broadcast_to(k, (L, L, L)).reshape(-1) for k in g.check_grid]
        self._ncheck_flat = np.stack(grids, axis=-1)
        # eigenvectors over flat modes, rows e_0, e_+, e_-; conj(e_a) = e_-a
        self._evec = self.basis.evec.reshape(3, -1, 4)
        # the one A2 symbol: -nu |ncheck|^2 on each velocity component (n3 >= 0)
        self.a2_diag = lam = -self.nu * g.check_sq[..., g.N :]
        # phase-free dissipation symbol per coefficient row: all of A2 on
        # e_0, and on e_pm only the velocity share |e_pm^vel|^2 = 1/2 of the
        # wave is diffused (no wave lives on the vertical line)
        wave = np.where(self.basis.mask_osc[..., g.N :], 0.5 * lam, 0.0)
        self.limit_symbol = np.stack([lam, wave, wave])
        self._tab_t1: TriadTable | None = None
        self._tab_qu: UnderTable | None = None
        self._kstar_pairs: tuple[np.ndarray, np.ndarray] | None = None

    # -- table construction -------------------------------------------------------

    def _G_rows(self, kf, ia, mf, ib, nf, ic) -> np.ndarray:
        nck = self._ncheck_flat[nf]
        ea_k = self._evec[ia, kf]
        eb_m = self._evec[ib, mf]
        ec_n = self._evec[-ic, nf]  # conj(e_c)
        ndot_a = np.einsum("rj,rj->r", nck, ea_k[:, :3])
        ndot_b = np.einsum("rj,rj->r", nck, eb_m[:, :3])
        pair_bc = np.einsum("rj,rj->r", eb_m, ec_n)
        pair_ac = np.einsum("rj,rj->r", ea_k, ec_n)
        return ndot_a * pair_bc + ndot_b * pair_ac

    def _confirm_radical(self, kf, mf, nf, a, b, c) -> bool:
        rk, rm, rn = (self.geometry._omega_sq(tuple(self._modes[f].tolist())) for f in (kf, mf, nf))
        return exact_sqrt_sum_is_zero([(a, rk), (b, rm), (-c, rn)])

    def _build_triad_table(self, xd, yd, xs, ys) -> TriadTable:
        """Rows sorted by (nf, class in _CLASSES order, kf); the apply plan
        is the rows with (a, k) < (b, m), c != 0 and output n3 >= 0, less
        the rows with k3 = m3 = n3 = 0, in that order.

        (xd, yd) and (xs, ys) are the ordered pairs of modes with equal
        omega whose difference y - x, and sum x + y, is a mode off the
        vertical line (`_pair_codes`).  The differences give the classes
        (0, b, b) with (m, n) = (x, y) and (a, 0, a) with (k, n) = (x, y),
        both with the third mode y - x; the sums give (a, -a, 0) with
        (k, m) = (x, y).  The radical classes are the rows of
        `_radical_rows` and their mirrors (-a, -b, -c), each also confirmed
        by exact_sqrt_sum_is_zero; a disagreement raises.

        The rows are pushed one sign class and its mirror at a time, and
        each push picks its plan rows before any sort: of the zero-sign classes only 0pp and
        m0m have a < b and c != 0, and their push arrays hold the output
        and plane conditions; only the radical rows take the per-row test
        (a, k) < (b, m).  Each row is one unique int64 key, the bit fields
        (nf, class, kf) with kf in the low B bits, B = bit_length(L^3 - 1),
        and the class in the 4 above them; the table keys and the plan keys
        are sorted apart and decode by masks and shifts (`_decode`)."""
        g = self.geometry
        N, L, size, centre = g.N, g.L, g.nmodes, g.nmodes // 2
        B = (size - 1).bit_length()
        keys, plan_keys = [], []
        counts = np.zeros(len(_CLASSES), dtype=np.int64)

        def push(kf, nf, cls, mirror, plan=None, mirror_plan=None):
            """Rows (kf, nf) of class `cls` and their mirrors, the same modes
            in class `mirror` (one class or one per row); the rows of the
            masks `plan` and `mirror_plan` join the apply plan."""
            key = (((nf << 4) | cls) << B) | kf
            mirrored = key + ((mirror - cls) << B)
            keys.extend((key, mirrored))
            for k, p in ((key, plan), (mirrored, mirror_plan)):
                if p is not None:
                    plan_keys.append(k[p])
            if np.ndim(cls):  # the radical rows: a few hundred
                for c in (cls, mirror):
                    counts[:] += np.bincount(c, minlength=len(_CLASSES))
            else:
                counts[[cls, mirror]] += kf.size

        def off_plane(kf, nf):
            """Output n3 >= 0 and not k3 = n3 = 0 (so not m3 = 0 either)."""
            n3 = nf % L - N
            return (n3 > 0) | ((n3 == 0) & (kf % L != N))

        # k3 = y3 - x3 in 0pp and x3 in m0m: with n3 = y3 = 0 both vanish
        # exactly when x3 = 0, so one mask serves both; 0mm and p0p have
        # a > b, pm0 and mp0 have c = 0
        plan = off_plane(xd, yd)
        push(yd - xd + centre, yd, 0, 1, plan=plan)
        push(xd, yd, 2, 3, mirror_plan=plan)
        del xd, yd, plan
        push(xs, xs + ys - centre, 4, 5)
        del xs, ys

        kf, mf, nf, b, c = _radical_rows(g, N)
        cls = 6 + (1 - b.astype(np.int64)) + (1 - c.astype(np.int64)) // 2
        for row in zip(kf.tolist(), mf.tolist(), nf.tolist(), cls.tolist()):
            for cl in (row[3], 19 - row[3]):
                if not self._confirm_radical(*row[:3], *_CLASSES[cl]):
                    raise ArithmeticError(
                        f"integer and radical resonance decisions disagree at "
                        f"flat modes {row[:3]}, class {_CLASSES[cl]}"
                    )
        # (a, k) < (b, m) per row: a row (+1, b) has it when b = +1 and
        # k < m, its mirror (-1, -b) when b = +1 and k < m, or b = -1
        plan, below = off_plane(kf, nf), kf < mf
        push(kf, nf, cls, 19 - cls, plan & below & (b == 1), plan & (below | (b == -1)))

        kf, nf, ia, ib, ic = _decode(np.concatenate(keys), B)
        del keys
        pk, pn, pa, pb, pc = _decode(np.concatenate(plan_keys), B)
        pm = pn - pk + centre
        W = np.empty(len(pk), dtype=np.complex128)
        for lo in range(0, len(pk), _G_CHUNK):
            r = slice(lo, lo + _G_CHUNK)
            W[r] = self._G_rows(pk[r], pa[r], pm[r], pb[r], pn[r], pc[r])
        W *= 2.0
        return TriadTable(
            kf, nf - kf + centre, nf, ia, ib, ic,
            ka=_flat(pa, pk, size), mb=_flat(pb, pm, size),
            nc=_flat_stored(pc, pn, N), W=W, counts=counts,
        )

    def _build_under_table(self, xs: np.ndarray, ys: np.ndarray) -> UnderTable:
        """Rows (a, -a) with k + m on the vertical line and omega(k) = omega(m),
        (k, m) one of the ordered equal-omega pairs (xs, ys) whose sum is on
        the vertical line (`_pair_codes`), sorted by (n3i, a = +1 before -1,
        kf) through the unique key (2 n3i + [a = -1]) * L^3 + kf."""
        g = self.geometry
        size, centre = g.nmodes, g.nmodes // 2
        # (0, 0, n3) is the centre plus n3
        key = (2 * (xs + ys - centre - (centre - g.N))) * size + xs
        key = np.concatenate([key, key + size])
        key.sort()
        kf = key % size
        key //= size
        n3i = key // 2
        ia = (1 - 2 * (key % 2)).astype(np.int8)
        nf = n3i + (centre - g.N)
        mf = nf - kf + centre
        ib = -ia
        ea_k = self._evec[ia, kf]
        eb_m = self._evec[ib, mf]
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
            g = self.geometry
            x, y = _class_pairs(_freq_classes(g))
            diff, add = _pair_codes(x, y, g.N, -1), _pair_codes(x, y, g.N, 1)
            sel = diff == WAVE, add == WAVE, add == VERTICAL
            del diff, add
            (xd, yd), (xs, ys), (xv, yv) = ((x[m], y[m]) for m in sel)
            del x, y, sel
            self._tab_t1 = self._build_triad_table(xd, yd, xs, ys)
            self._tab_qu = self._build_under_table(xv, yv)
        return self._tab_t1, self._tab_qu

    # -- epsilon-dependent forms ---------------------------------------------------

    def q_eps(self, t: float, eps: float, U: SpectralField4) -> SpectralField4:
        """Filter-conjugated symmetrized transport L(-t/eps) T(L(t/eps) U,
        L(t/eps) U), the filtered system's quadratic term."""
        if not eps > 0:
            raise ValueError("q_eps requires eps > 0 (use the limit forms at eps = 0)")
        theta = t / eps
        W = apply_filter(theta, U)
        return apply_filter(-theta, transport(W, W)).pin_zero_mode()

    def a2_symbol(self, W: SpectralField4) -> SpectralField4:
        """Plain dissipation symbol diag(-nu |ncheck|^2 x3, 0)."""
        out = W.coeffs * 1.0
        out[..., :3] *= self.a2_diag[..., None]
        out[..., 3] = 0.0
        return SpectralField4(self.geometry, out)

    def a2_eps(self, t: float, eps: float, W: SpectralField4) -> SpectralField4:
        """Filter-conjugated dissipation L(-t/eps) A2 L(t/eps) W."""
        if not eps > 0:
            raise ValueError("a2_eps requires eps > 0")
        theta = t / eps
        return apply_filter(-theta, self.a2_symbol(apply_filter(theta, W)))

    # -- limit forms ---------------------------------------------------------------

    def _row_products(self, C: np.ndarray, tab: TriadTable | UnderTable) -> np.ndarray:
        """(i/2) c_a(k) c_b(m) on each table row, from the coefficient
        stack C of `coefficients`, gathered from its full-lattice rows."""
        C = _full_rows(C).reshape(-1)
        p = np.take(C, tab.ka)
        p *= np.take(C, tab.mb)
        np.multiply(0.5j, p, out=p)
        return p

    def q_tilde1(self, C: np.ndarray) -> np.ndarray:
        """Resonance-restricted symmetrized transport on the coefficient
        stack C of a real tilde field; returns the output stack, that of a
        real field, on the stored modes like C.  Row 0, the (0,0,0) class,
        is the 2.5D advection of the e_0 part by itself (the horizontal
        kernel on one operand; no Leray projection, since
        <P v, e_0> = <v, e_0>).  Rows +-1 are the sparse exact-resonant
        classes:
        - on n3 = 0 every wave has omega = 1 and e_pm = (0, 0, +-i, 1) / sqrt2,
          so the rows with k3 = m3 = n3 = 0 sum to the advection of C_+ by
          the bar velocity u = C_0 e_0^vel on that plane,
          c_+(n) = i sum_{k+m=n} ncheck_h(n) . u(k) C_+(m), one 2-D kernel,
          and c_-(n) = conj c_+(-n);
        - the other rows are the apply plan, summed once per mirror pair
          (no plan row outputs on e_0)."""
        g = self.geometry
        N = g.N
        tab, _ = self.tables
        out = np.zeros((3, g.L, g.L, N + 1), dtype=np.complex128)
        if len(tab.W):
            p = self._row_products(C, tab)
            p *= tab.W
            np.add.at(out.reshape(-1), tab.nc, p)
        u = C[0, :, :, 0] * np.moveaxis(self.basis.e0[:, :, N, :2], -1, 0)
        plane = convolve_plane(g, u, C[1, :, :, 0])
        out[1, :, :, 0] += plane
        out[2, :, :, 0] += np.conj(plane[::-1, ::-1])
        bar = field_from_coefficients(g, {0: C[0]})
        conv = convolve_quadratic(bar, bar, "horizontal")
        out[0] = _coefficients(conv, slice(0, 1))[0]
        return out

    def b_form(self, Vund: SpectralField4, C: np.ndarray) -> np.ndarray:
        """Limit coupling of the horizontal average into the wave part: the
        (b, c) = (+-, +-) sector of the underline x tilde form.  Output n
        couples the underline part of Vund at (0, 0, 2 n3) with the wave
        rows of the tilde coefficient stack C at (n_h, -n3),
        c_b(n_h, -n3) = conj c_-b(-n_h, n3).  Returns a stack with a zero
        row 0.  Carries the bare symmetrized kernel (no 1/2): this is the
        coupling exactly as it enters the wave limit equation."""
        g = self.geometry
        N = g.N
        # und at (0, 0, 2 n3) vanishes unless 1 <= n3 <= N / 2 (its mean is
        # zero and 2 n3 <= N), so the output lives on those planes alone: z
        # of the stored stacks, zf of the full-lattice basis
        z, zf = slice(1, N // 2 + 1), slice(N + 1, N + N // 2 + 1)
        u_at = _underline_line(Vund)[N + 2 :: 2]  # und at (0, 0, 2 n3), n3 in z
        out = np.zeros((3, g.L, g.L, N + 1), dtype=np.complex128)
        k1, k2, k3 = g.check_grid
        omega = self.basis.omega[..., zf]  # zero on the vertical line, and so is the output
        # i ncheck(n) . und times <e_b(n_h, -n3), e_b(n)> = omega^2, for both b
        iu = 1j * u_at
        und_bc = (omega * omega) * (k1 * iu[:, 0] + k2 * iu[:, 1])
        r = math.sqrt(2.0) * k3[..., zf] * omega  # ncheck(n) . e_b^vel(n_h, -n3) = i b r
        for b in (1, -1):  # resonance forces c = b
            cb = np.conj(C[-b][::-1, ::-1, z])  # c_b at m = (n1, n2, -n3)
            # <und, e_b(n)>, reading conj e_b = e_-b
            pair_uc = np.einsum("zj,xyzj->xyz", u_at, self.basis.evec[-b][..., zf, :])
            out[b][..., z] = cb * (und_bc - (b * r) * pair_uc)
        return out

    def q_tilde2(self, Vund: SpectralField4, C: np.ndarray) -> np.ndarray:
        """Limit underline x tilde transport on the underline part of Vund
        and the tilde coefficient stack C; returns a stack on the stored
        modes, like C.  Rows +-1 are `b_form`.  Row 0 is the e_0 part of
        und_h . grad_h bar (bar . grad und is zero: bar has no vertical
        velocity, und no horizontal dependence).  e_0 depends on n_h alone,
        so it is the sum i sum_k3 ncheck_h(n) . und_h(k3) c_0(n_h, n3 - k3)
        over |k3|, |n3 - k3| <= N, the dealiased kernel's truncation: two
        Toeplitz products on the full-lattice line of c_0, rows n3 >= 0."""
        g = self.geometry
        out = self.b_form(Vund, C)
        line = _underline_line(Vund)[:, :2]  # und_h(k3)
        k3 = np.arange(g.N + 1)[:, None] - g.n_axis[None, :]  # n3 - m3 for row n3, column m3
        toeplitz = np.where((np.abs(k3) <= g.N)[..., None], line[np.clip(k3 + g.N, 0, g.L - 1)], 0.0)
        k1, k2, _ = g.check_grid
        c0 = _full_rows(C[:1])[0]
        out[0] = 1j * (k1 * (c0 @ toeplitz[..., 0].T) + k2 * (c0 @ toeplitz[..., 1].T))
        return out

    def q_underline(self, C: np.ndarray) -> SpectralField4:
        """Limit tilde x tilde interaction with output on the vertical line,
        on the coefficient stack C of the tilde field: the (a, -a) rows of
        the underline table.  The (0, 0) class needs no term: the e_0
        velocity has no vertical part, and on the vertical line ncheck is
        vertical."""
        g = self.geometry
        _, qu = self.tables
        out_line = np.zeros(g.L * 4, dtype=np.complex128)
        if len(qu.kf):
            contrib = self._row_products(C, qu)[:, None] * qu.G4
            np.add.at(out_line, qu.out, contrib.reshape(-1))
        out = zero_field(g)
        out.coeffs[g.N, g.N] = out_line.reshape(g.L, 4)[g.N :]
        return out.pin_zero_mode()

    def q_limit(self, V: SpectralField4) -> SpectralField4:
        """The full limit form Q = Qt1 + Qt2 + Qu, on one coefficient stack
        of V."""
        C = coefficients(V)
        q = self.q_tilde1(C) + self.q_tilde2(underline_part(V), C)
        out = field_from_coefficients(self.geometry, {a: q[a] for a in (0, 1, -1)})
        return (out + self.q_underline(C)).pin_zero_mode()

    def a2_limit(self, W: SpectralField4) -> SpectralField4:
        """Phase-free part of the conjugated dissipation.

        Underline: A2 itself, heat in x3 on the horizontal components and
        none on the fourth.  Bar: full Laplacian.  Oscillating: the diagonal
        <A2 e_pm, e_pm> = -nu |ncheck|^2 |e_pm^vel|^2, exactly half the
        Laplacian, since |e_pm^vel|^2 = 1/2: the wave vectors carry half
        their energy in the non-diffused fourth component.  The bar and
        wave diagonals are the rows of `limit_symbol`, whose exponentials
        are the limit stepper's heat factors.
        """
        c = self.limit_symbol * coefficients(W)
        out = field_from_coefficients(self.geometry, {a: c[a] for a in (0, 1, -1)})
        return (out + self.a2_symbol(underline_part(W))).pin_zero_mode()

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
        # m = n - k lies in the box, so its flat index is nf - kf + flat(0)
        return complex(np.sum(af[kf] * bf[nf - kf + g.nmodes // 2] * cf[nf]))

    # -- Schochet remainder ------------------------------------------------------------

    def remainders(self, t: float, eps: float, U: SpectralField4) -> SpectralField4:
        """The oscillating remainder F_eps(t; U) - F_0(U), F = Q - A2.

        The limit forms keep exactly the phase-free interactions of the
        filtered ones, so the difference holds every interaction with a
        nonzero phase, at its explicit phase t/eps."""
        filtered = self.q_eps(t, eps, U) - self.a2_eps(t, eps, U)
        return filtered - (self.q_limit(U) - self.a2_limit(U))
