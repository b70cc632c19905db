"""Per-mode spectral analysis of the projected penalization operator.

For each mode n with n_h != 0 the operator P A (Leray projection composed
with the buoyancy coupling) has, on the divergence-free subspace, the
orthonormal eigenbasis

    e_0(n) = (-nc_2, nc_1, 0, 0) / |nc_h|
    e_pm(n) = (1/sqrt2) (-+ i nc_1 nc_3 / (|nc_h| |nc|),
                         -+ i nc_2 nc_3 / (|nc_h| |nc|),
                         +- i |nc_h| / |nc|,
                         1)

with PA e_0 = 0 and PA e_pm = -+ i omega(n) e_pm, omega(n) = |nc_h|/|nc|.
The sign of the imaginary entries is pinned by requiring that the
filtering group L(tau) = exp(-tau PA) multiplies the e_pm component by
exp(+- i tau omega), i.e. by exp(i tau omega^alpha); this is the unique
convention under which the semigroup, the mode solutions and the
generator check are mutually consistent.

On modes with n_h = 0 the kernel is spanned by f_1 = (1,0,0,0),
f_2 = (0,1,0,0), f_3 = (0,0,0,1); a divergence-free field has no third
component there, and L(tau) is the identity.

`EigenBasis.frame` is the one source of this data: a real orthonormal
frame (L, L, L, 3, 4) of the divergence-free subspace of each mode (the
Craya-Herring frame), so that frame^T frame is the Leray projector.  Where
n_h != 0 its rows are e_0, t = (nc_1 nc_3, nc_2 nc_3, -|nc_h|^2, 0) /
(|nc_h| |nc|) and the buoyancy direction f_4 = (0, 0, 0, 1) (f_3 above);
there P A t = omega f_4 and P A f_4 = -omega t, and the wave pair is read
off the frame, e_pm = (f_4 -+ i t)/sqrt2, rotating in the plane (t, f_4).
On the vertical line the rows are f_1, f_2, f_3, and at n = 0 they are
zero.  The filtered stepper builds its propagators from this frame in
closed form.

Every layer shares one layout of the complex basis: `EigenBasis.evec` is
a single (3, L, L, L, 4) stack with rows e_0, e_+, e_-, so that Python's
negative index makes evec[a] the vector e_a for a in (0, 1, -1), and
`coefficients` returns the stack c_0, c_+, c_- indexed the same way.  Two
exact identities replace stored data.  conj(e_a) = e_-a (e_0 is real and
e_- is stored as conj(e_+)), so no conjugate stack is kept: a projection
on e_a reads the row -a.  And |e_pm^vel|^2 = |t|^2 / 2 = 1/2, so the
waves carry exactly half their energy in the velocity, the share that the
limit dissipation diffuses.  The symbol of P A itself is written once, as
the (L, L, L, 4, 4) stack `EigenBasis.pa`, which `pa_symbol` and
`apply_pa` read and the tests take as the oracle of the frame.

The coefficient stacks, like the fields (see `fields`), hold only the
modes n3 >= 0, (3, L, L, N + 1), and the per-mode operators (the
projections, `apply_filter`, `apply_pa`) act on those alone.  The basis
stacks cover the full lattice, which the table build and the single-mode
queries read.  The resonance sums gather coefficients at any mode through
`_full_rows`, the one conversion to the full lattice, by the symmetry of a
real field, c_0(-n) = -conj c_0(n) and c_pm(-n) = conj c_mp(n) (since
e_0(-n) = -e_0(n) and e_pm(-n) = e_pm(n) = conj e_mp(n), entry for entry).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .fields import SpectralField4, divergence_max, zero_field
from .geometry import TorusGeometry

__all__ = [
    "EigenBasis",
    "EigenTriple",
    "KernelDecomposition",
    "eigenbasis",
    "pa_symbol",
    "apply_pa",
    "apply_filter",
    "decompose",
    "underline_part",
    "bar_part",
    "osc_part",
    "coefficients",
    "field_from_coefficients",
]

F_BASIS = np.array(
    [
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ]
)


@dataclass(frozen=True)
class EigenTriple:
    """Eigen data of a single mode."""

    n: tuple[int, int, int]
    omega: float
    e0: np.ndarray | None  # None when n_h = 0
    ep: np.ndarray | None
    em: np.ndarray | None
    f: np.ndarray | None  # (3, 4) rows f_1, f_2, f_3 when n_h = 0


class EigenBasis:
    """Vectorized eigen data for every mode of a geometry (precomputed once)."""

    _instances: dict[TorusGeometry, "EigenBasis"] = {}

    def __init__(self, geometry: TorusGeometry):
        self.geometry = geometry
        g = geometry
        k1, k2, k3 = g.check_grid
        L = g.L
        osc = ~g.mask_h_zero  # modes with n_h != 0
        self.mask_osc = osc

        kh = np.sqrt(g.check_h_sq)
        safe_kh = np.where(osc, kh, 1.0)
        safe_kn = np.where(g.check_sq > 0, np.sqrt(g.check_sq), 1.0)
        self.omega = omega = np.where(osc, kh / safe_kn, 0.0)

        # the real frame of the module docstring: e_0, t and f_4 on the wave
        # modes, zero elsewhere until the vertical line is filled below
        self.frame = frame = np.zeros((L, L, L, 3, 4))
        frame[..., 0, 0] = np.where(osc, -k2 / safe_kh, 0.0)
        frame[..., 0, 1] = np.where(osc, k1 / safe_kh, 0.0)
        frame[..., 1, 0] = np.where(osc, k1 * k3 / (safe_kh * safe_kn), 0.0)
        frame[..., 1, 1] = np.where(osc, k2 * k3 / (safe_kh * safe_kn), 0.0)
        frame[..., 1, 2] = -omega
        frame[..., 2, 3] = np.where(osc, 1.0, 0.0)
        # rows e_0, e_+, e_-, taken from the frame before the vertical line
        # is filled: evec[a] is e_a for a in (0, 1, -1), and conj(e_a) = e_-a
        self.evec = np.zeros((3, L, L, L, 4), dtype=np.complex128)
        e0, ep, em = self.e0, self.ep, self.em = self.evec
        e0[:] = frame[..., 0, :]
        ep[:] = (frame[..., 2, :] - 1j * frame[..., 1, :]) * (1.0 / np.sqrt(2.0))
        np.conj(ep, out=em)
        frame[g.mask_h_zero & ~g.mask_zero] = F_BASIS

    @cached_property
    def pa(self) -> np.ndarray:
        """(L, L, L, 4, 4) symbol of P A per mode, zero at n = 0, which
        `pa_symbol` and `apply_pa` read; built on first use (the filtered
        stepper reads `frame` and `omega`)."""
        g = self.geometry
        k1, k2, k3 = g.check_grid
        ksq = np.where(g.mask_zero, 1.0, g.check_sq)
        m = np.zeros((g.L,) * 3 + (4, 4))
        m[..., 0, 3] = -k1 * k3 / ksq
        m[..., 1, 3] = -k2 * k3 / ksq
        m[..., 2, 3] = 1.0 - k3**2 / ksq
        m[..., 3, 2] = -1.0
        m[g.mask_zero] = 0.0
        return m

    @classmethod
    def of(cls, geometry: TorusGeometry) -> "EigenBasis":
        inst = cls._instances.get(geometry)
        if inst is None:
            inst = cls(geometry)
            cls._instances[geometry] = inst
        return inst


def eigenbasis(geometry: TorusGeometry, n) -> EigenTriple:
    """Eigen data for a single mode n != 0."""
    n = tuple(int(c) for c in n)
    if n == (0, 0, 0):
        raise ValueError("the zero mode has no eigen decomposition")
    basis = EigenBasis.of(geometry)
    i = geometry.mode_index(n)
    if n[0] == 0 and n[1] == 0:
        return EigenTriple(n, 0.0, None, None, None, F_BASIS.copy())
    return EigenTriple(
        n,
        float(basis.omega[i]),
        basis.e0[i].copy(),
        basis.ep[i].copy(),
        basis.em[i].copy(),
        None,
    )


def pa_symbol(geometry: TorusGeometry, n) -> np.ndarray:
    """The 4x4 symbol of P A at mode n != 0 of the truncation."""
    n = tuple(int(c) for c in n)
    if n == (0, 0, 0):
        raise ValueError("pa_symbol is undefined at n = 0")
    return EigenBasis.of(geometry).pa[geometry.mode_index(n)].copy()


def apply_pa(field: SpectralField4) -> SpectralField4:
    """Apply the symbol of P A to every mode (zero at the zero mode)."""
    g = field.geometry
    pa = EigenBasis.of(g).pa[:, :, g.N :]
    return SpectralField4(g, np.einsum("xyzij,xyzj->xyzi", pa, field.coeffs))


# -- eigen coefficients ---------------------------------------------------------


def coefficients(field: SpectralField4) -> np.ndarray:
    """Eigen coefficients c_a(n) = <V_hat(n), e_a(n)> on n_h != 0 modes.

    One (3, L, L, N + 1) array over the stored modes n3 >= 0 (zero where
    n_h = 0), rows c_0, c_+, c_- like `EigenBasis.evec`: c[a] is c_a for a
    in (0, 1, -1).
    """
    return _coefficients(field, slice(None))


def _full_rows(stored: np.ndarray) -> np.ndarray:
    """The full-lattice rows (R, L, L, L) of the coefficient rows
    (R, L, L, N + 1) on the stored modes of a real field: the whole stack
    (R = 3) or row c_0 alone (R = 1).  n3 < 0 holds c_0(-n) = -conj c_0(n)
    and c_pm(-n) = conj c_mp(n)."""
    R, L, _, K = stored.shape
    N = K - 1
    out = np.empty((R, L, L, L), dtype=np.complex128)
    out[..., N:] = stored
    opposite = [0, 2, 1][:R]  # the row of c_-a for each row c_a
    out[..., :N] = np.conj(stored[opposite, ::-1, ::-1, N:0:-1])
    out[0, ..., :N] *= -1.0
    return out


def _coefficients(field: SpectralField4, rows: slice) -> np.ndarray:
    """The rows `rows` of the `coefficients` stack, (R, L, L, N + 1), and
    only those.  Since conj(e_a) = e_-a, c_a = sum_j V_j (e_-a)_j reads
    the row -a of the basis itself."""
    g = field.geometry
    evec = EigenBasis.of(g).evec[:, :, :, g.N :]
    return np.stack([np.einsum("xyzc,xyzc->xyz", field.coeffs, evec[-a]) for a in (0, 1, -1)[rows]])


def field_from_coefficients(
    geometry: TorusGeometry, coeffs: dict[int, np.ndarray]
) -> SpectralField4:
    """Assemble sum_a c_a e_a into a spectral field from the rows c_a
    (L, L, N + 1) on the stored modes, adding the terms in the order of
    `coeffs`, a map from the sign a in (0, 1, -1) to c_a."""
    evec = EigenBasis.of(geometry).evec[:, :, :, geometry.N :]
    out = zero_field(geometry)
    for a, c in coeffs.items():
        out.coeffs += c[..., None] * evec[a]
    return out


@dataclass
class KernelDecomposition:
    """Three-way split V = underline + bar + osc."""

    underline: SpectralField4
    bar: SpectralField4
    osc: SpectralField4

    def total(self) -> SpectralField4:
        return self.underline + self.bar + self.osc


def _underline_line(field: SpectralField4) -> np.ndarray:
    """The vertical line (L, 4), n3 = -N..N, of `underline_part(field)`:
    components (1, 2, 4) of the n_h = 0, n != 0 modes, zero elsewhere; the
    mode -n3 is the conjugate of n3."""
    g = field.geometry
    stored = field.coeffs[g.N, g.N]  # n3 = 0..N
    line = np.concatenate([np.conj(stored[:0:-1]), stored])
    line[:, 2] = 0.0
    line[g.N] = 0.0
    return line


def underline_part(field: SpectralField4) -> SpectralField4:
    """Horizontal-average part: n_h = 0 modes, components (1, 2, 4) kept."""
    g = field.geometry
    out = zero_field(g)
    out.coeffs[g.N, g.N] = _underline_line(field)[g.N :]
    return out


def bar_part(field: SpectralField4) -> SpectralField4:
    """Kernel part on n_h != 0 modes: the e_0 component."""
    (c0,) = _coefficients(field, slice(0, 1))
    return field_from_coefficients(field.geometry, {0: c0})


def osc_part(field: SpectralField4) -> SpectralField4:
    """Wave part: the e_+ and e_- components."""
    cp, cm = _coefficients(field, slice(1, 3))
    return field_from_coefficients(field.geometry, {1: cp, -1: cm})


def decompose(field: SpectralField4, div_tol: float = 1e-8) -> KernelDecomposition:
    """Split a zero-mean divergence-free field into underline + bar + osc."""
    dv = divergence_max(field)
    scale = max(1.0, float(np.max(np.abs(field.coeffs))))
    if not dv <= div_tol * scale:
        raise ValueError(f"decompose requires a divergence-free field (max div {dv:.3e})")
    return KernelDecomposition(underline_part(field), bar_part(field), osc_part(field))


# -- the filtering group ---------------------------------------------------------


def apply_filter(tau: float, field: SpectralField4) -> SpectralField4:
    """Apply L(tau) = exp(-tau P A): phase exp(i tau omega^alpha) per component.

    Identity on the kernel (e_0 components and all n_h = 0 modes); unitary.
    """
    if tau == 0.0:
        return field.copy()
    g = field.geometry
    basis = EigenBasis.of(g)
    cp, cm = _coefficients(field, slice(1, 3))
    phase = np.exp(1j * tau * basis.omega[..., g.N :])
    ep, em = basis.ep[..., g.N :, :], basis.em[..., g.N :, :]
    out = field.coeffs.copy()
    # remove the oscillating components, re-add them with their phases
    out -= cp[..., None] * ep
    out -= cm[..., None] * em
    out += (cp * phase)[..., None] * ep
    out += (cm * np.conj(phase))[..., None] * em
    return SpectralField4(g, out)
