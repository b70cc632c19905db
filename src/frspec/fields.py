"""Four-component spectral and physical fields on the torus.

The fields of this package are real, V_hat(-n) = conj(V_hat(n)), so the
modes with n3 >= 0 determine them.  A SpectralField4 stores exactly those:
the Fourier coefficients V_hat(n) in C^4 in an (L, L, N + 1, 4) array
with L = 2N + 1 and axis indices (n1 + N, n2 + N, n3).  The first three
components are a velocity, the fourth is the buoyancy/density
perturbation.  All fields have zero global
average (the n = 0 coefficient, at (N, N, 0), is pinned to zero).  The
n3 = 0 plane holds both n and -n; the transforms read its Hermitian part.
The norms and the inner product are sums over the whole lattice: the
n3 = 0 plane counts once and every plane n3 > 0 twice, for itself and for
its mirror.

Quadratic products are evaluated pseudo-spectrally on a padded collocation
grid of exactly M = 3N + 1 points per axis (`_pad_size`), the smallest on
which the retained modes of a product of two fields are alias-free: the
product holds modes up to 2N, and 2N + N < M.  No transform is an FFT,
so M need not be an FFT-friendly size.

All transforms are pruned, separable DFT-matrix products that touch the
retained modes only (`_dft`; no zero-padded spectrum).  At these sizes
small matrix products cost less than the call overhead of FFTs.  Each leg
is one matrix product per row (per transformed component): a contracted
axis must be the first or the last of the row, so the legs rotate the
axes instead of batching small products along a middle axis.  The
inverse copies the rows `coeffs.reshape(-1, C).T` once as [n1, n3, n2],
contracts n1 by a left product with E (M, L), then n2 by a right product
with E.T, copies [x1, n3, x2] to [x1, x2, n3] and ends with one real
product on the float64 view along n3 (Hermitian weights 1 on n3 = 0, 2
on n3 > 0).  The forward starts with the real product along x3, contracts
x1 by a product of the transposed view [x2, n3, x1] with F.T (F =
conj(E).T / M; BLAS reads the view in place) and x2 by a left product
with F, and returns the kernel's native layout [n2, n3, n1]; `_divergence`
reads that layout and writes the `SpectralField4` layout, and
`to_spectral` transposes it.  Since every leg is a stack with one matrix
per row, a row's bytes do not depend on the other rows of the batch, so
skipping the zero rows (below) keeps every output byte.

Per-mode operators are real (modes, 4, 4) stacks applied by one
real batched matmul on the float64 view of the coefficients
(`apply_per_mode`, also to several coefficient arrays stacked along a
leading axis): the Leray projector (`leray_symbol`: I - nhat nhat^T on the
velocity, nhat = ncheck / |ncheck|, 1 on the buoyancy, 0 at n = 0) and the
stepper's propagators.  The DFT matrices (per grid size M), the check frequencies
(flat, and in the native layout) and the projector are built once and
kept in the geometry's cache, and so is the buffer of the kernel's
product samples, its largest transient array (per grid size M).

Transport is computed in divergence form, a . grad B =
div(a (x) B), with div_h for the horizontal stencil; this holds when the
velocity a is divergence-free (a_h horizontally divergence-free), which
every caller guarantees: Leray-projected fields, the limit system's bar
and underline parts.  One evaluation makes one inverse transform of the
live components of a and B and one forward transform of the products
P_jc = a_j B_c it forms.  The kernel derives that product set (`_products`)
from J (3, or 2 for div_h), whether the operands are symmetric (A is B, or
the symmetrized `transport`: then P_jc = P_cj and only j <= c is formed)
and which operand components are identically zero (one `any` pass over the
float64 view of the coefficients; a NaN or inf is live, -0.0 is zero).  A
zero component is not transformed and no product with a zero factor is
formed; leaving out such a term changes no output byte.  With every
component live: 3 + 4 inverse and 12 forward components (2 + 4 and 8
horizontal), 4 and 9 when A is B (full stencil and `transport`), 4 + 4 and
9 for `transport` of two fields.  The limit system's bar field has
components 1 and 2 only, so its self-advection makes 2 inverse and 3
forward (a_1 a_1, a_1 a_2, a_2 a_2), against 4 and 8.

`convolve_plane` is the same dealiased divergence-form product for one
scalar advected by a horizontal velocity on the plane n3 = 0, on
coefficient planes (L, L) over the whole plane rather than on fields, on
an M x M grid with M = `_pad_size(N)`, by the same matrices E and F.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .geometry import TorusGeometry

__all__ = [
    "SpectralField4",
    "PhysicalField4",
    "zero_field",
    "single_mode_field",
    "to_physical",
    "to_spectral",
    "leray_project",
    "leray_symbol",
    "apply_per_mode",
    "convolve_quadratic",
    "transport",
    "convolve_plane",
    "divergence_max",
    "l2_norm",
    "sobolev_norm",
    "inner_l2",
]


@dataclass
class SpectralField4:
    geometry: TorusGeometry
    coeffs: np.ndarray  # (L, L, N + 1, 4) complex128, the modes n3 >= 0

    def __post_init__(self):
        g = self.geometry
        shape = (g.L, g.L, g.N + 1, 4)
        if self.coeffs.shape != shape:
            raise ValueError(f"coefficient array must have shape {shape}, got {self.coeffs.shape}")
        if self.coeffs.dtype != np.complex128:
            self.coeffs = self.coeffs.astype(np.complex128)

    def copy(self) -> "SpectralField4":
        return SpectralField4(self.geometry, self.coeffs.copy())

    # -- algebra -------------------------------------------------------------

    def __add__(self, other):
        return SpectralField4(self.geometry, self.coeffs + other.coeffs)

    def __sub__(self, other):
        return SpectralField4(self.geometry, self.coeffs - other.coeffs)

    def __mul__(self, s):
        return SpectralField4(self.geometry, self.coeffs * s)

    __rmul__ = __mul__

    def __neg__(self):
        return SpectralField4(self.geometry, -self.coeffs)

    # -- structure -----------------------------------------------------------

    def pin_zero_mode(self) -> "SpectralField4":
        N = self.geometry.N
        self.coeffs[N, N, 0, :] = 0.0
        return self

    def zero_mean(self, tol: float = 1e-13) -> bool:
        N = self.geometry.N
        return bool(np.max(np.abs(self.coeffs[N, N, 0, :])) <= tol)


@dataclass
class PhysicalField4:
    geometry: TorusGeometry
    values: np.ndarray  # (M, M, M, 4) real; (M, M, M, ncomp) from to_physical(..., ncomp)
    grid_points: int


def zero_field(geometry: TorusGeometry) -> SpectralField4:
    L = geometry.L
    return SpectralField4(geometry, np.zeros((L, L, geometry.N + 1, 4), dtype=np.complex128))


def single_mode_field(geometry: TorusGeometry, n, vec) -> SpectralField4:
    """The real field with coefficient `vec` at mode n and conj(vec) at -n
    (one term at n = 0); ValueError for a mode outside the truncation."""
    geometry.mode_index(n)
    N = geometry.N
    n = np.array(n, dtype=int)
    vec = np.asarray(vec, dtype=np.complex128)
    f = zero_field(geometry)
    for m, v in [(n, vec)] + ([(-n, np.conj(vec))] if n.any() else []):
        if m[2] >= 0:  # a stored mode
            f.coeffs[m[0] + N, m[1] + N, m[2]] += v
    return f


# -- transforms ---------------------------------------------------------------


def _pad_size(N: int) -> int:
    """3N + 1, the smallest alias-free grid for a product of two fields."""
    return 3 * N + 1


def _dft(geometry: TorusGeometry, M: int) -> tuple[np.ndarray, ...]:
    """The DFT matrices of M points on the retained modes; built once per
    (geometry, M), read-only.

    E (M, L) samples the modes -N..N along one axis, E[x, n] =
    exp(2 pi i x n / M), and F = conj(E).T / M (L, M) takes samples back to
    those modes; each phase x n is reduced mod M first, so each entry is
    accurate to rounding.  Along n3 the real fields need the modes 0..N
    only: R (2 (N + 1), M) maps the (re, im) float64 view of those
    coefficients to real samples with the Hermitian weights w (1 at n3 = 0,
    2 at n3 > 0; n3 < M / 2 always), sum_n3 w Re(c E[x, n3]), and Rf
    (M, 2 (N + 1)) is the float64 view of F[n3 >= 0].T, which maps real
    samples to that view.
    """

    def build():
        N = geometry.N
        E = np.exp((2j * np.pi / M) * (np.outer(np.arange(M), np.arange(-N, N + 1)) % M))
        F = np.conj(E.T) / M
        w = np.where(np.arange(N + 1) == 0, 1.0, 2.0)
        R = np.ascontiguousarray(np.conj(E[:, N:] * w).view(np.float64).T)
        Rf = np.ascontiguousarray(F[N:].T).view(np.float64)
        for a in (E, F, R, Rf):
            a.setflags(write=False)
        return E, F, R, Rf

    return geometry._cached(("fields.dft", M), build)


def _to_grid(geometry: TorusGeometry, rows: np.ndarray, M: int) -> np.ndarray:
    """Samples (C, M, M, M) of the real fields whose stored coefficients
    are the rows of `rows` (C, L L (N + 1)), in the layout [n1, n2, n3].

    The rows are copied once, as [n1, n3, n2]; a left product with E along
    n1 gives [x1, n3, n2] and a right product with E.T along n2 gives
    [x1, n3, x2], which one transposing copy turns into [x1, x2, n3] for
    the real product with R along n3 on the float64 view.  Each product is
    one matmul per row over a contiguous stack (never one flat product over
    all rows, nor a stack of small products per row), so a row's samples
    have the same bytes whatever other rows share the batch: the kernel's
    skip of the zero rows relies on that."""
    L, K = geometry.L, geometry.N + 1
    E, _, R, _ = _dft(geometry, M)
    half = np.ascontiguousarray(rows.reshape(-1, L, L, K).transpose(0, 1, 3, 2))
    half = E @ half.reshape(-1, L, K * L)  # (C, M, K L): [x1, n3, n2]
    half = half.reshape(-1, M * K, L) @ E.T  # (C, M K, M): [x1, n3, x2]
    half = np.ascontiguousarray(half.reshape(-1, M, K, M).transpose(0, 1, 3, 2))
    vals = half.view(np.float64).reshape(-1, M * M, 2 * K) @ R
    return vals.reshape(-1, M, M, M)


def _from_grid(geometry: TorusGeometry, values: np.ndarray) -> np.ndarray:
    """Retained coefficients (C, L, N + 1, L) of samples (C, M, M, M), in
    the kernel's native layout [n2, n3, n1].

    The real product with Rf along x3 gives [x1, x2, n3]; the product of
    the transposed view [x2, n3, x1] with F.T (read in place by BLAS)
    contracts x1 into [x2, n3, n1], and a left product with F contracts x2
    into [n2, n3, n1].  No leg copies, and each is one matmul per row, as
    in `_to_grid`."""
    L, K = geometry.L, geometry.N + 1
    M = values.shape[1]
    _, F, _, Rf = _dft(geometry, M)
    half = np.ascontiguousarray(values).reshape(-1, M * M, M) @ Rf  # (C, M M, 2 K)
    half = half.view(np.complex128).reshape(-1, M, M * K).transpose(0, 2, 1) @ F.T  # [x2, n3, n1]
    hat = F @ half.reshape(-1, M, K * L)  # (C, L, K L): [n2, n3, n1]
    return hat.reshape(-1, L, K, L)


def to_physical(
    field: SpectralField4, grid_points: int | None = None, ncomp: int = 4
) -> PhysicalField4:
    """Sample the first `ncomp` components of the field (all four by
    default) on a uniform collocation grid (padded for dealiasing); only
    those components are transformed."""
    g = field.geometry
    M = grid_points or _pad_size(g.N)
    if M < 2 * g.N + 1:
        raise ValueError(f"grid of {M} points cannot hold modes up to N={g.N}")
    vals = _to_grid(g, field.coeffs[..., :ncomp].reshape(-1, ncomp).T, M)
    return PhysicalField4(g, vals.transpose(1, 2, 3, 0), M)


def to_spectral(phys: PhysicalField4) -> SpectralField4:
    """Inverse of to_physical on the retained modes."""
    g = phys.geometry
    hat = _from_grid(g, phys.values.transpose(3, 0, 1, 2))
    return SpectralField4(g, hat.transpose(3, 1, 2, 0))


# -- differential / projection operators --------------------------------------


def _mode_arrays(geometry: TorusGeometry) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The check frequencies (3, L L (N + 1)) and the Leray projector stack
    (L L (N + 1), 4, 4) of the stored modes, and the check frequencies in
    the kernel's native layout [n2, n3, n1]; built once per geometry,
    read-only."""

    def build():
        L, N = geometry.L, geometry.N
        k1, k2, k3 = geometry.check_grid
        ks = np.stack(np.broadcast_arrays(k1, k2, k3[..., N:])).reshape(3, -1)
        ksq = np.where(geometry.mask_zero, 1.0, geometry.check_sq)[..., N:]
        khat = ks.T / np.sqrt(ksq).reshape(-1, 1)  # 0 at n = 0
        P = np.zeros((ks.shape[1], 4, 4))
        P[:, :3, :3] = np.eye(3) - khat[:, :, None] * khat[:, None, :]
        P[:, 3, 3] = 1.0
        P[(N * L + N) * (N + 1)] = 0.0  # n = 0
        native = ks.reshape(3, L, L, N + 1).transpose(0, 2, 3, 1).reshape(3, -1)
        for a in (ks, P, native):
            a.setflags(write=False)
        return ks, P, native

    return geometry._cached("fields.mode_arrays", build)


def apply_per_mode(E: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """E(n) V_hat(n) for a real stack E (modes, 4, 4) and coefficients
    (..., 4) on those modes, or a stack of such arrays along leading axes:
    E @ (..., modes, 4, 2), the (re, im) float64 view, so conjugate
    coefficients give conjugate results bit for bit, and each array of a
    stack the bytes it has alone."""
    c = np.ascontiguousarray(coeffs)
    out = np.matmul(E, c.view(np.float64).reshape(-1, len(E), 4, 2))
    return out.view(np.complex128).reshape(c.shape)


def leray_symbol(geometry: TorusGeometry) -> np.ndarray:
    """The Leray projector of the stored modes as a real stack
    (L L (N + 1), 4, 4) for `apply_per_mode`; built once per geometry,
    read-only."""
    return _mode_arrays(geometry)[1]


def leray_project(field: SpectralField4, check_mean: bool = True) -> SpectralField4:
    """Per-mode projection of the first three components onto div-free vectors.

    The fourth component is untouched.  Idempotent and self-adjoint per mode.
    """
    g = field.geometry
    if check_mean and not field.zero_mean(tol=1e-12):
        raise ValueError("leray_project requires a zero-mean field")
    return SpectralField4(g, apply_per_mode(leray_symbol(g), field.coeffs)).pin_zero_mode()


def divergence_max(field: SpectralField4) -> float:
    """max_n |sum_i ncheck_i v_hat^i(n)|."""
    k1, k2, k3 = _mode_arrays(field.geometry)[0]
    v = field.coeffs.reshape(-1, 4)
    div = k1 * v[:, 0] + k2 * v[:, 1] + k3 * v[:, 2]
    return float(np.max(np.abs(div)))


def _runs(terms: list[tuple[int, int, int]]) -> tuple[tuple[int, int, int, int], ...]:
    """The terms (i, x, y) of products i, grouped into runs (i, n, x, y):
    the n consecutive products i, i + 1, ... whose factors are sample row
    x and the consecutive rows y, y + 1, ..."""
    runs: list[list[int]] = []
    for i, x, y in terms:
        r = runs[-1] if runs else None
        if r and r[2] == x and r[0] + r[1] == i and r[3] + r[1] == y:
            r[1] += 1
        else:
            runs.append([i, 1, x, y])
    return tuple(tuple(r) for r in runs)


@lru_cache(maxsize=None)
def _products(J: int, split: int, symmetrize: bool, live: tuple[bool, ...]):
    """The products the kernel forms, derived from the live operand rows.

    The operands are the rows of one coefficient stack: the velocity a is
    its first rows and B starts at row `split` (split = 0 when A is B);
    live[r] is False when row r is identically zero, and only the live
    rows are transformed.  P_jc (j < J, c < 4) is a_j b_c, or
    a_j b_c + b_j a_c if `symmetrize`; a term with a zero factor is left
    out, and so is a product with no term left.  Where P_jc = P_cj (A is
    B, or `symmetrize`) only the one with j <= c is formed: for J = 3 and
    every row live, the 9 distinct products.

    Returns the sample row x of each product's first factor, the `_runs`
    of the first terms and of the second terms of the products that have
    one (factors as sample rows), and slots (J', 4), the product of P_jc or
    -1 where P_jc is identically zero, for the rows j < J' up to the last
    one that has a product: a later row would add only zeros to the
    divergence (`transport` of two bar parts, whose third velocity rows are
    zero, sums J' = 2 rows of J = 3).  Every call with the same arguments
    shares these read-only values.  For J = 3 and every row live the first
    terms are three runs, a_0 (a_0..a_3), a_1 (a_1..a_3) and a_2 (a_2, a_3).
    """
    at = np.cumsum(live) - 1  # the sample row of each live operand row
    sym = split == 0 or symmetrize
    slots = np.full((J, 4), -1)
    first, second = [], []
    for j in range(J):
        for c in range(4):
            if sym and c < j:
                slots[j, c] = slots[c, j]
                continue
            terms = [(j, split + c)] + ([(split + j, c)] if symmetrize else [])
            terms = [(int(at[x]), int(at[y])) for x, y in terms if live[x] and live[y]]
            if terms:
                slots[j, c] = len(first)
                if len(terms) == 2:
                    second.append((len(first), *terms[1]))
                first.append((len(first), *terms[0]))
    x = np.array([t[1] for t in first], dtype=np.intp)
    rows = np.flatnonzero(slots.max(axis=1) >= 0)
    slots = slots[: rows[-1] + 1 if len(rows) else 0]
    for a in (x, slots):
        a.setflags(write=False)
    return x, _runs(first), _runs(second), slots


def _divergence(geometry: TorusGeometry, prod: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """Dealiased coefficients (L, L, N + 1, 4) of sum_j d_j P_jc
    from the samples prod (P, M, M, M) of the products, P_jc =
    prod[slots[j, c]] for j < J = len(slots), or identically zero where
    slots[j, c] = -1.

    One batched forward transform of the P products, then i ncheck_j P_hat_jc
    summed over j = 1..J (J = 2 is the horizontal div_h) in the transform's
    native layout [n2, n3, n1] with the check frequencies of that layout,
    by one path for every slot pattern: one gather of the terms (J, 4, ...)
    from the transforms, +0 where a slot is -1, one in-place multiply by
    ncheck_j and in-place adds into the j = 0 terms.  The multiply by i
    writes the `SpectralField4` layout [n1, n2, n3, c].  The mean (zero, a
    divergence has none) is pinned.  The sum starts at +0 (the j = 0 terms
    plus +0), so it is never -0: a zero term changes no byte, and a column
    with no product is +0, as i (+0) is.
    """
    L, N = geometry.L, geometry.N
    hat = _from_grid(geometry, prod).reshape(len(prod), -1)
    terms = hat[slots]  # (J, 4, K); a slot -1 reads the last product
    terms[slots < 0] = 0.0
    terms *= _mode_arrays(geometry)[2][: len(slots), None]
    out = terms[0]
    out += 0.0  # -0 + (+0) = +0
    for term in terms[1:]:
        out += term
    out = np.multiply(out.reshape(4, L, N + 1, L).transpose(3, 1, 2, 0), 1j, order="C")
    out[N, N, 0] = 0.0
    return out


def _product_buffer(geometry: TorusGeometry, M: int) -> np.ndarray:
    """The kernel's product samples (12, M, M, M), room for the most
    products a call forms (J = 3 rows of 4), kept in the geometry's cache
    per grid size: a call writes its products there and leaves with new
    coefficients only, so no caller holds a view of it, and no call takes
    fresh pages for its largest transient array."""
    return geometry._cached(("fields.products", M), lambda: np.empty((12, M, M, M)))


def _convolve(
    A: SpectralField4, B: SpectralField4, J: int, ncomp: int, symmetrize: bool = False
) -> SpectralField4:
    """The product kernel: the dealiased coefficients of sum_{j < J} d_j P_jc.

    The operands are the first `ncomp` components of A and the four of B,
    stacked for one batched inverse transform (when A is B they share one
    copy and B starts at row 0); the velocity a is the first rows, and
    P_jc = a_j b_c, or a_j b_c + b_j a_c if `symmetrize`.  Only the rows
    that are not identically zero are transformed (a NaN or inf counts as
    live).  The products are formed in the kept `_product_buffer`: one
    gather of their first factors, then one in-place multiply per run of
    `_products` by a slice of the samples (no gathered temporary), then one
    batched forward transform.
    """
    if A.geometry is not B.geometry and A.geometry != B.geometry:
        raise ValueError("fields live on different geometries")
    g = A.geometry
    if A is B:
        coeffs, split = np.ascontiguousarray(B.coeffs), 0
    else:
        coeffs, split = np.concatenate([A.coeffs[..., :ncomp], B.coeffs], axis=-1), ncomp
    rows = coeffs.reshape(-1, coeffs.shape[-1]).T
    # a row is live where a real or imaginary part is nonzero: one pass over
    # the float64 view, whose inner axis holds (n3, row, re/im)
    parts = coeffs.view(np.float64).reshape(g.L * g.L, -1).any(axis=0)
    live = tuple(parts.reshape(-1, coeffs.shape[-1], 2).any(axis=(0, 2)).tolist())
    x, first, second, slots = _products(J, split, symmetrize, live)
    if not len(x):  # every product is identically zero
        return zero_field(g)
    M = _pad_size(g.N)
    samples = _to_grid(g, rows if all(live) else rows[np.array(live)], M)
    # the first factors, gathered once into the product buffer (mode "clip"
    # writes into `out` directly; "raise" would stage a copy)
    prod = np.take(samples, x, axis=0, out=_product_buffer(g, M)[: len(x)], mode="clip")
    for i, n, _, y in first:
        prod[i : i + n] *= samples[y : y + n]
    for i, n, x2, y in second:
        prod[i : i + n] += samples[x2] * samples[y : y + n]
    return SpectralField4(g, _divergence(g, prod, slots))


def convolve_plane(geometry: TorusGeometry, u: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Dealiased coefficients (L, L) of div_h(u phi) on the plane n3 = 0:
    i ncheck_h(n) . sum_{k + m = n} u(k) phi(m) over k, m in the box.

    u is a (2, L, L) stack of horizontal velocity planes and phi an (L, L)
    plane, indexed (n1 + N, n2 + N) over the whole plane; neither needs to
    be the plane of a real field.  This is the advection u . grad_h phi
    when div_h u = 0.  The mean, at ncheck_h = 0, is zero."""
    E, F = _dft(geometry, _pad_size(geometry.N))[:2]
    samples = E @ np.concatenate([u, phi[None]]) @ E.T
    hat = F @ (samples[:2] * samples[2]) @ F.T
    k1, k2, _ = geometry.check_grid
    return 1j * (k1[..., 0] * hat[0] + k2[..., 0] * hat[1])


def convolve_quadratic(
    A: SpectralField4,
    B: SpectralField4,
    stencil: str = "full",
) -> SpectralField4:
    """Dealiased Fourier coefficients of the transport a . grad B.

    `a` is the velocity (first three components) of A; all four components
    of B are advected.  stencil = "full" uses the 3D gradient, "horizontal"
    only grad_h (used by the 2.5D limit system).  Computed as div(a (x) B)
    (div_h(a_h (x) B)), which equals the transport when a is divergence-free
    (a_h horizontally divergence-free).
    """
    J = 2 if stencil == "horizontal" else 3
    return _convolve(A, B, J, J)


def transport(A: SpectralField4, B: SpectralField4) -> SpectralField4:
    """Symmetrized projected transport 1/2 P [a.grad B + b.grad A].

    One symmetric product 1/2 P div(a (x) B + b (x) A) for divergence-free
    velocities; bitwise symmetric in (A, B).
    """
    if A is B:  # each product formed once, not doubled and halved (exact)
        return leray_project(_convolve(A, A, 3, 3), check_mean=False)
    return leray_project(0.5 * _convolve(A, B, 3, 4, symmetrize=True), check_mean=False)


# -- norms --------------------------------------------------------------------


def _mode_sum(x: np.ndarray):
    """The sum over the whole lattice of x (L, L, N + 1, ...), a quantity
    even in n: the n3 = 0 plane once, every plane n3 > 0 twice."""
    return np.sum(x[:, :, 0]) + 2.0 * np.sum(x[:, :, 1:])


def _squares(field: SpectralField4) -> np.ndarray:
    """The squares (L, L, N + 1, 8) of the (re, im) float64 view of the
    coefficients, whose sum per mode is |V_hat(n)|^2 with no square root
    taken and undone."""
    v = np.ascontiguousarray(field.coeffs).view(np.float64)
    return v * v


def l2_norm(field: SpectralField4) -> float:
    """Coefficient l2 norm (sum_n |V_hat(n)|^2)^(1/2)."""
    return float(np.sqrt(_mode_sum(_squares(field))))


def sobolev_norm(s: float, field: SpectralField4) -> float:
    """Non-homogeneous Sobolev norm (sum_n (1+|ncheck|^2)^s |V_hat(n)|^2)^(1/2)."""
    g = field.geometry
    w = (1.0 + g.check_sq[..., g.N :]) ** s
    return float(np.sqrt(_mode_sum(w[..., None] * _squares(field))))


def inner_l2(A: SpectralField4, B: SpectralField4) -> complex:
    """Coefficient inner product sum_n <A_hat(n), B_hat(n)>_{C^4}: a plane
    n3 > 0 and its mirror add up to twice the real part."""
    p = A.coeffs * np.conj(B.coeffs)
    return complex(np.sum(p[:, :, 0]) + 2.0 * np.sum(p[:, :, 1:].real))
