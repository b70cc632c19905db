"""Exact-arithmetic detection and enumeration of resonant wave interactions.

Every eigenfrequency satisfies omega(n)^2 = |ncheck_h|^2 / |ncheck|^2, a
rational number once the squared periods a_i^2 are rational.  Resonance
conditions are therefore equalities between signed square roots of
rationals and are decided exactly: a fast floating screen discards pairs
that are provably non-resonant (the float error is orders of magnitude
below the screen threshold) and every candidate is confirmed by clearing
radicals over Fractions.  No tolerance ever decides membership.

The candidate (k, m) pairs come from one chunked pair stream,
`_pair_chunks`: flat indices into the box [-N, N]^3 of every pair with k,
m and n = k + m in the box, built from per-axis pair products in numpy
chunks of bounded size.  `radical_sign_triads` screens it on a sub-box
N <= geometry.N, and `forms.FormEngine` builds its triad tables from it
with N = geometry.N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .geometry import TorusGeometry

__all__ = [
    "RadicalValue",
    "ResonantTriad",
    "exact_sqrt_sum_is_zero",
    "is_resonant",
    "enumerate_kstar",
    "kstar_pairs",
    "fiber",
    "enumerate_iab",
    "omega_ratio_ints",
    "SCREEN_TOL",
]

# Floating screen threshold: double-precision evaluation of the resonance
# expressions is exact to ~1e-14 at desk scale, so anything larger than
# this is certainly nonzero; anything smaller goes to the exact decision.
SCREEN_TOL = 1e-9
# (k, m) pairs per enumeration chunk: it bounds the memory of an
# enumeration, not its result.
_PAIR_CHUNK = 1 << 16


@dataclass(frozen=True)
class RadicalValue:
    """Signed square root of an exact rational radicand in [0, 1]."""

    radicand: Fraction
    sign: int = 1  # -1, 0, +1 (0 encodes the identically-zero frequency)

    def __post_init__(self):
        if self.radicand < 0 or self.radicand > 1:
            raise ValueError("radicand of an eigenfrequency must lie in [0, 1]")
        if self.sign not in (-1, 0, 1):
            raise ValueError("sign tag must be -1, 0 or +1")

    def __float__(self) -> float:
        return self.sign * float(self.radicand) ** 0.5


def _sqrt_pair_sign(s1: int, r1: Fraction, s2: int, r2: Fraction) -> int:
    """Exact sign of s1 sqrt(r1) + s2 sqrt(r2) (inputs with r > 0, s != 0)."""
    if s1 == s2:
        return s1
    if r1 == r2:
        return 0
    return s1 if r1 > r2 else s2


def exact_sqrt_sum_is_zero(terms) -> bool:
    """Exact decision of sum_i s_i sqrt(r_i) == 0 for up to three terms.

    `terms` is an iterable of (sign, Fraction radicand).  Terms with zero
    sign or zero radicand drop out.  For three surviving terms the radical
    is cleared by two squarings with explicit sign-consistency checks.
    """
    live = [(s, r) for s, r in terms if s != 0 and r != 0]
    if len(live) == 0:
        return True
    if len(live) == 1:
        return False
    if len(live) == 2:
        (s1, r1), (s2, r2) = live
        return s1 == -s2 and r1 == r2
    if len(live) != 3:
        raise ValueError("at most three radical terms are supported")
    (s1, r1), (s2, r2), (s3, r3) = live
    # decide s1 sqrt(r1) + s2 sqrt(r2) = -s3 sqrt(r3)
    lhs_sign = _sqrt_pair_sign(s1, r1, s2, r2)
    rhs_sign = -s3
    if lhs_sign == 0:
        return False  # rhs is strictly nonzero (r3 > 0)
    if lhs_sign != rhs_sign:
        return False
    # equal signs: compare squares;  (s1 sqrt r1 + s2 sqrt r2)^2 = r1 + r2 + 2 s1 s2 sqrt(r1 r2)
    t = r3 - r1 - r2  # must equal 2 s1 s2 sqrt(r1 r2)
    prod = r1 * r2
    if s1 * s2 > 0:
        if t <= 0:
            return False
    else:
        if t >= 0:
            return False
    return 4 * prod == t * t


@dataclass(frozen=True)
class ResonantTriad:
    """Interacting frequency triple with its exact resonance certificate."""

    k: tuple[int, int, int]
    m: tuple[int, int, int]
    n: tuple[int, int, int]
    a: int
    b: int
    c: int
    radicands: tuple[Fraction, Fraction, Fraction]

    def verify(self, geometry: TorusGeometry) -> bool:
        """Re-derive the certificate from scratch."""
        rk = geometry.omega_sq_exact(self.k)
        rm = geometry.omega_sq_exact(self.m)
        rn = geometry.omega_sq_exact(self.n)
        if (rk, rm, rn) != self.radicands:
            return False
        ok_conv = tuple(x + y for x, y in zip(self.k, self.m)) == self.n
        return ok_conv and exact_sqrt_sum_is_zero(
            [(self.a, rk), (self.b, rm), (-self.c, rn)]
        )

    def sort_key(self):
        return (*self.k, *self.m, *self.n, self.a, self.b, self.c)


def is_resonant(geometry: TorusGeometry, k, m, n, a: int, b: int, c: int) -> bool:
    """Exact decision of omega^a(k) + omega^b(m) = omega^c(n); requires k+m=n.

    Signs are -1, 0, +1; sign 0 means the identically-zero frequency, which
    covers the omega-tilde and horizontal-average conditions as well.
    """
    k = tuple(int(x) for x in k)
    m = tuple(int(x) for x in m)
    n = tuple(int(x) for x in n)
    if tuple(x + y for x, y in zip(k, m)) != n:
        raise ValueError("is_resonant requires k + m = n")
    rk = geometry.omega_sq_exact(k)
    rm = geometry.omega_sq_exact(m)
    rn = geometry.omega_sq_exact(n)
    return exact_sqrt_sum_is_zero([(a, rk), (b, rm), (-c, rn)])


# -- vectorized integer frequency data ------------------------------------------


def omega_ratio_ints(geometry: TorusGeometry):
    """Integer arrays (H, S) over the flat lattice with omega^2 = H / S exactly.

    H = D |ncheck_h|^2 and S = D |ncheck|^2 for the common denominator D.
    """
    g = geometry
    w1, w2, w3, _ = g.int_weights
    n = g.n_axis.astype(np.int64)
    H = (w1 * n[:, None, None] ** 2 + w2 * n[None, :, None] ** 2) + 0 * n[None, None, :]
    S = H + w3 * n[None, None, :] ** 2
    return H.reshape(-1), S.reshape(-1)


def _omega_float(geometry: TorusGeometry) -> np.ndarray:
    H, S = omega_ratio_ints(geometry)
    Sf = np.where(S > 0, S, 1).astype(float)
    return np.sqrt(H / Sf)


def _box_modes(N: int) -> np.ndarray:
    """All integer modes in [-N, N]^3, lexicographic, shape (L^3, 3)."""
    r = np.arange(-N, N + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


def _axis_pairs(N: int) -> tuple[np.ndarray, np.ndarray]:
    """The 3N^2 + 3N + 1 pairs (k_i, m_i) with |k_i|, |m_i|, |k_i + m_i| <= N."""
    r = np.arange(-N, N + 1, dtype=np.int64)
    k, m = np.meshgrid(r, r, indexing="ij")
    ok = np.abs(k + m) <= N
    return k[ok], m[ok]


def _pair_chunks(N: int, underline: bool = False):
    """Flat indices (kf, mf, nf = kf + mf - centre) into the box [-N, N]^3 of
    every pair with k, m, k + m in the box, k_h, m_h != 0 and n_h != 0
    (n_h == 0 if `underline`), in chunks of about _PAIR_CHUNK pairs: the
    product of the horizontal axes, broadcast against the vertical axis."""
    L = 2 * N + 1
    k, m = _axis_pairs(N)
    k1, k2 = np.repeat(k, len(k)), np.tile(k, len(k))
    m1, m2 = np.repeat(m, len(m)), np.tile(m, len(m))
    ok = ((k1 != 0) | (k2 != 0)) & ((m1 != 0) | (m2 != 0))
    nh0 = (k1 + m1 == 0) & (k2 + m2 == 0)
    ok &= nh0 if underline else ~nh0
    kh = ((k1[ok] + N) * L + (k2[ok] + N)) * L
    mh = ((m1[ok] + N) * L + (m2[ok] + N)) * L
    k3, m3 = k + N, m + N
    centre = L**3 // 2
    step = max(1, _PAIR_CHUNK // len(k3))
    for s in range(0, len(kh), step):
        kf = (kh[s : s + step, None] + k3).reshape(-1)
        mf = (mh[s : s + step, None] + m3).reshape(-1)
        yield kf, mf, kf + mf - centre


def radical_sign_triads(geometry: TorusGeometry, N: int | None = None):
    """All (k, m, n, a, b, c) with signs in {+,-}^3, k+m=n, all horizontal
    parts nonzero, max norm <= N, satisfying the resonance exactly.

    Returns a list of plain tuples (unsorted); enumerate_kstar wraps it.
    """
    g = geometry
    N = g.N if N is None else N
    if N > g.N:
        raise ValueError("enumeration beyond the geometry truncation")
    modes = _box_modes(N)
    om = _omega_float(g)[_subblock_flat(g, N)]
    sq_cache: dict[tuple[int, int, int], Fraction] = {}

    def rsq(t):
        r = sq_cache.get(t)
        if r is None:
            r = g.omega_sq_exact(t)
            sq_cache[t] = r
        return r

    out = []
    for kf, mf, nf in _pair_chunks(N):
        # a wk + b wm - c wn for a = +1: products with +-1 and the
        # subtraction of a negation are exact, so these are its floats, and
        # the class (-a, -b, -c) has the exact negation
        wk, wm, wn = om[kf], om[mf], om[nf]
        s, d = wk + wm, wk - wm
        for b, c, v in ((1, 1, s - wn), (1, -1, s + wn), (-1, 1, d - wn), (-1, -1, d + wn)):
            for i in np.nonzero(np.abs(v) < SCREEN_TOL)[0]:
                kk, mm, nn = (tuple(modes[x].tolist()) for x in (kf[i], mf[i], nf[i]))
                rk, rm, rn = rsq(kk), rsq(mm), rsq(nn)
                for a in (1, -1):
                    if exact_sqrt_sum_is_zero([(a, rk), (a * b, rm), (-a * c, rn)]):
                        out.append((kk, mm, nn, a, a * b, a * c, (rk, rm, rn)))
    return out


def _subblock_flat(geometry: TorusGeometry, N: int) -> np.ndarray:
    """Flat lattice indices of the sub-box [-N, N]^3 in lexicographic order."""
    g = geometry
    r = np.arange(-N, N + 1) + g.N
    I, J, K = np.meshgrid(r, r, r, indexing="ij")
    return ((I * g.L + J) * g.L + K).reshape(-1)


def enumerate_kstar(geometry: TorusGeometry, N: int | None = None) -> list[ResonantTriad]:
    """The resonant set K*: exact certificates, lexicographic order."""
    raw = radical_sign_triads(geometry, N)
    triads = [
        ResonantTriad(k, m, n, a, b, c, rads) for (k, m, n, a, b, c, rads) in raw
    ]
    triads.sort(key=ResonantTriad.sort_key)
    return triads


def kstar_pairs(geometry: TorusGeometry, N: int | None = None) -> set[tuple]:
    """Deduplicated (k, n) pairs of K* (signs stripped)."""
    return {(t.k, t.n) for t in enumerate_kstar(geometry, N)}


def fiber(geometry: TorusGeometry, k_h, n, k3_max: int | None = None) -> list[int]:
    """All k3 with ((k_h, k3), n - k, n) in K* for some sign choice.

    The scan covers |k3| <= k3_max (default 4N).  The count must not
    exceed 8 (the resonance condition clears to a degree-eight polynomial
    in k3); a violation indicates an arithmetic bug and raises.
    """
    g = geometry
    kh1, kh2 = int(k_h[0]), int(k_h[1])
    n = tuple(int(x) for x in n)
    if kh1 == 0 and kh2 == 0:
        raise ValueError("fiber requires k_h != 0")
    if n[0] == 0 and n[1] == 0:
        raise ValueError("fiber requires n_h != 0")
    if n[0] - kh1 == 0 and n[1] - kh2 == 0:
        return []  # partner would have m_h = 0
    k3_max = 4 * g.N if k3_max is None else int(k3_max)
    rn = g.omega_sq_exact(n)
    found = []
    for k3 in range(-k3_max, k3_max + 1):
        k = (kh1, kh2, k3)
        m = (n[0] - kh1, n[1] - kh2, n[2] - k3)
        rk = g.omega_sq_exact(k)
        rm = g.omega_sq_exact(m)
        hit = any(
            exact_sqrt_sum_is_zero([(a, rk), (b, rm), (-c, rn)])
            for a in (1, -1)
            for b in (1, -1)
            for c in (1, -1)
        )
        if hit:
            found.append(k3)
    if len(found) > 8:
        raise RuntimeError(
            f"fiber bound violated at k_h={k_h}, n={n}: {len(found)} members {found}"
        )
    return found


def enumerate_iab(
    geometry: TorusGeometry, n3: int, N: int | None = None, a: int = 1, b: int = -1
) -> list[tuple[tuple, tuple]]:
    """The horizontal-average interaction set I_{a,b}(n3).

    Pairs (k, m) with k + m = (0, 0, n3), nonzero horizontal parts, max
    norm <= N and omega^a(k) + omega^b(m) = 0 exactly.
    """
    g = geometry
    N = g.N if N is None else N
    n3 = int(n3)
    out = []
    for k1 in range(-N, N + 1):
        for k2 in range(-N, N + 1):
            if k1 == 0 and k2 == 0:
                continue
            for k3 in range(-N, N + 1):
                m3 = n3 - k3
                if abs(m3) > N:
                    continue
                k = (k1, k2, k3)
                m = (-k1, -k2, m3)
                rk = g.omega_sq_exact(k)
                rm = g.omega_sq_exact(m)
                if exact_sqrt_sum_is_zero([(a, rk), (b, rm)]):
                    out.append((k, m))
    out.sort()
    return out
