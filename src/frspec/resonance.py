"""Exact-arithmetic detection and enumeration of resonant wave interactions.

Every eigenfrequency satisfies omega(n)^2 = |ncheck_h|^2 / |ncheck|^2, a
rational number once the squared periods a_i^2 are rational.  Resonance
conditions are therefore equalities between signed square roots of
rationals and are decided exactly, in integers or over Fractions.  No
floating-point value decides or prunes membership.

The enumerators join modes inside exact frequency classes instead of
screening pairs.  With omega^2 = h / s in lowest terms:

- omega(x) = omega(y) exactly when x and y share the equal-omega id of
  (h, s) (`_freq_classes`); this decides every class with a zero sign.
- A three-term resonance a omega(k) + b omega(m) = c omega(n) with nonzero
  signs needs k, m, n in one radical class: squaring it once shows that
  omega(k) omega(m) and omega(k) omega(n) are rational, so h s of all three
  has the same square-free kernel r.  Inside a class omega = (q / s) sqrt(r)
  with h s = q^2 r, and the resonance is the integer identity
  a q_k s_m s_n + b q_m s_k s_n = c q_n s_k s_m.  Its terms are at most
  s_max^3 (q <= s), so it is evaluated in int64 while 3 s_max^3 < 2^63 and
  in Python integers past that.  s <= (w1 + w2 + w3) N^2 (`int_weights`),
  so int64 holds up to N = 363 on a^2 = (1, 2, 3).  The modes are paired
  only inside pairs of equal-omega subclasses of a class that the same
  identity, on one mode per subclass, lets some third subclass close.

A join yields pairs (x, y) of box modes; the third mode z = y +- x of a
pair, out of the box, in it off the vertical line or on it, is one
lookup in a code table on the padded lattice [-2N, 2N]^3 (`_pair_codes`,
(4N + 1)^3 bytes: 36 KB at N = 8), made once per call.

`radical_sign_triads` passes each radical row through
`exact_sqrt_sum_is_zero` as well, and raises if the two exact decisions
disagree; `forms.FormEngine` builds its triad tables from the same joins
and the same lookup.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

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
]


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


def _box_modes(N: int) -> np.ndarray:
    """All integer modes in [-N, N]^3, lexicographic, shape (L^3, 3)."""
    r = np.arange(-N, N + 1)
    return np.stack(np.meshgrid(r, r, r, indexing="ij"), axis=-1).reshape(-1, 3)


# -- exact joins inside frequency classes ----------------------------------------


def _lowest_terms(H: np.ndarray, S: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(h, s) = (H, S) / gcd(H, S), with the zero mode's (0, 0) kept."""
    d = np.gcd(H, S)
    d[d == 0] = 1
    return H // d, S // d


def _freq_classes(geometry: TorusGeometry) -> np.ndarray:
    """Equal-omega class id of every flat lattice mode with n_h != 0, -1 on
    n_h = 0: equal ids <=> H_x S_y == H_y S_x, from H / S in lowest terms.
    The ids number the distinct (h, s) in lexicographic order, through the
    1-D key h (s_max + 1) + s, which orders them the same way."""
    h, s = _lowest_terms(*omega_ratio_ints(geometry))
    ids = np.unique(h * (s.max() + 1) + s, return_inverse=True)[1]
    return np.where(h > 0, ids, -1)


def _primes_to(n: int) -> list[int]:
    """The primes p <= n, by a sieve of Eratosthenes."""
    sieve = np.ones(n + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    return np.flatnonzero(sieve).tolist()


def _square_split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(root, core) with v = root^2 core and core square-free, for v >= 1:
    the square of each prime p <= sqrt(max v) divided out while it divides."""
    u, inv = np.unique(np.asarray(v, dtype=np.int64), return_inverse=True)
    root, core = np.ones_like(u), u.copy()
    for p in _primes_to(isqrt(int(u.max(initial=1)))):
        hit = core % (p * p) == 0
        while hit.any():
            core[hit] //= p * p
            root[hit] *= p
            hit = core % (p * p) == 0
    return root[inv], core[inv]


def _radical_form(geometry: TorusGeometry, N: int):
    """omega = (q / s) sqrt(r) on the flat sub-box [-N, N]^3: omega^2 = h / s
    in lowest terms and h s = q^2 r with r square-free.  r is the radical
    class, -1 on n_h = 0 (q = 0 there)."""
    H, S = omega_ratio_ints(geometry)
    sub = _subblock_flat(geometry, N)
    h, s = _lowest_terms(H[sub], S[sub])
    live = h > 0
    q = np.zeros_like(h)
    r = np.full_like(h, -1)
    # h and s are coprime, so the square split of h s is the product of theirs
    (qh, rh), (qs, rs) = _square_split(h[live]), _square_split(s[live])
    q[live], r[live] = qh * qs, rh * rs
    return q, s, r


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The concatenated ranges start[t] .. start[t] + size[t] - 1 (int64)."""
    out = np.arange(int(size.sum()), dtype=np.int64)
    out -= np.repeat(np.cumsum(size) - size - start, size)
    return out


def _groups(key: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The positions x with key[x] >= 0, grouped by key (each group in
    position order), and the start and size of each group, in key order."""
    live = np.flatnonzero(key >= 0)
    members = live[np.argsort(key[live], kind="stable")]
    _, start, size = np.unique(key[members], return_index=True, return_counts=True)
    return members, start, size


def _class_pairs(key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Every ordered pair (x, y), as int64 positions, with key[x] == key[y] >= 0."""
    members, start, size = _groups(key)
    # member i of a class of size c pairs with positions start .. start + c - 1
    reps = np.repeat(size, size)
    return np.repeat(members, reps), members[_ranges(np.repeat(start, size), reps)]


# codes of `_pair_codes`: z outside the box [-N, N]^3, in it off the vertical
# line (z_h != 0), in it on the vertical line (z_h = 0)
OUTSIDE, WAVE, VERTICAL = 0, 1, 2


def _pair_codes(x: np.ndarray, y: np.ndarray, N: int, sign: int) -> np.ndarray:
    """uint8 code (OUTSIDE, WAVE or VERTICAL) of z = y + sign x for flat
    positions x, y of the box [-N, N]^3: one lookup per pair.

    The codes sit on the padded lattice [-2N, 2N]^3, which holds every z,
    in a table of P^3 = (4N + 1)^3 bytes (36 KB at N = 8).  A box mode v
    has the linear offset pad(v) = (v1 P + v2) P + v3, so
    pad(y) + sign pad(x) = pad(z), and pad maps the padded lattice onto
    -(P^3 - 1) / 2 .. (P^3 - 1) / 2; the table is rolled so that this
    offset, read as a numpy index (negative ones from the end), finds the
    code of z."""
    P = 4 * N + 1
    r = np.arange(-N, N + 1)
    dtype = np.int32 if P**3 < 2**31 else np.int64
    pad = ((r[:, None, None] * P + r[None, :, None]) * P + r[None, None, :]).astype(dtype).reshape(-1)
    inside = np.abs(np.arange(-2 * N, 2 * N + 1)) <= N
    cube = np.zeros((P, P, P), dtype=np.uint8)
    cube[np.ix_(inside, inside, inside)] = WAVE
    cube[2 * N, 2 * N, inside] = VERTICAL
    table = np.roll(cube.reshape(-1), -(P**3 // 2))
    at = pad[y]
    if sign > 0:
        at += pad[x]
    else:
        at -= pad[x]
    return table[at]


def _identity_dtype(s_max: int):
    """int64 when every term of the triad identity and every sum of two is
    proven to fit, 3 s_max^3 < 2^63; Python integers past that bound."""
    return np.int64 if 3 * int(s_max) ** 3 < 2**63 else object


def _identity_terms(q, s, kf, mf, nf, dtype):
    """(q_k s_m s_n, q_m s_k s_n, q_n s_k s_m) of each row, exact in `dtype`."""
    q, s = np.asarray(q).astype(dtype), np.asarray(s).astype(dtype)
    sk, sm, sn = s[kf], s[mf], s[nf]
    return q[kf] * sm * sn, q[mf] * sk * sn, q[nf] * sk * sm


def _radical_rows(geometry: TorusGeometry, N: int):
    """Every radical resonant row with a = +1 on the box [-N, N]^3: flat box
    indices kf, mf, nf (int64) and signs b, c (int8) with
    omega(k) + b omega(m) = c omega(n), all horizontal parts nonzero.

    k, m, n share one radical class r, since squaring the resonance once
    makes omega(k) omega(m) and omega(k) omega(n) rational.  Inside a class
    the resonance is the integer identity
    q_k s_m s_n + b q_m s_k s_n = c q_n s_k s_m; (b, c) = (+1, -1) has no
    solution, and a pair satisfies at most one of the other three.

    The modes of a radical class split into its equal-omega subclasses
    (`_freq_classes`), and omega(n) takes the value of n's subclass l, so a
    row needs its subclass pair (i, j) of k and m to be admissible: some
    subclass l of the class satisfies q_i s_j s_l + b q_j s_i s_l =
    c q_l s_i s_j for one of the three sign pairs.  That necessary
    condition is the same integer identity on one mode per subclass, taken
    over every ordered subclass triple (i, j, l) of a class; the mode pairs
    are formed only inside the admissible (i, j) (8,400 of the 221,696
    ordered pairs of the radical classes at (1, 2, 3)/N8), and the
    per-row identity still decides each of them."""
    q, s, r = _radical_form(geometry, N)
    dtype = _identity_dtype(s.max())
    members, start, size = _groups(_freq_classes(geometry)[_subblock_flat(geometry, N)])
    rep = members[start]  # one mode per subclass
    # ordered subclass pairs (i, j) of one radical class, each with every
    # subclass l of that class: the ranges of the classes' subclasses
    cls = r[rep]
    by_class, cstart, csize = _groups(cls)
    at = np.searchsorted(cls[by_class][cstart], cls)  # class of each subclass
    i, j = _class_pairs(cls)
    pair = np.repeat(np.arange(len(i)), csize[at[i]])
    l = by_class[_ranges(cstart[at[i]], csize[at[i]])]
    t1, t2, t3 = _identity_terms(q, s, rep[i[pair]], rep[j[pair]], rep[l], dtype)
    ok = np.zeros(len(i), dtype=bool)
    ok[pair[(t1 + t2 == t3) | (t1 - t2 == t3) | (t1 - t2 == -t3)]] = True
    i, j = i[ok], j[ok]
    # every mode of subclass i with every mode of subclass j
    kf = np.repeat(members[_ranges(start[i], size[i])], np.repeat(size[j], size[i]))
    mf = members[_ranges(np.repeat(start[j], size[i]), np.repeat(size[j], size[i]))]
    wave = _pair_codes(kf, mf, N, 1) == WAVE
    kf, mf = kf[wave], mf[wave]
    nf = kf + mf - len(s) // 2
    same = r[nf] == r[kf]
    kf, mf, nf = kf[same], mf[same], nf[same]
    t1, t2, t3 = _identity_terms(q, s, kf, mf, nf, dtype)
    plus, minus = t1 + t2 == t3, t1 - t2 == t3
    hit = plus | minus | (t1 - t2 == -t3)
    b = np.where(plus, 1, -1).astype(np.int8)[hit]
    c = np.where(minus | plus, 1, -1).astype(np.int8)[hit]
    return kf[hit], mf[hit], nf[hit], b, c


def radical_sign_triads(geometry: TorusGeometry, N: int | None = None):
    """All (k, m, n, a, b, c) with signs in {+,-}^3, k+m=n, all horizontal
    parts nonzero, max norm <= N, satisfying the resonance exactly.

    The rows of `_radical_rows` and their mirrors (-a, -b, -c), each also
    confirmed by exact_sqrt_sum_is_zero; a disagreement of the two exact
    decisions raises.  Returns a list of plain tuples (unsorted);
    enumerate_kstar wraps it.
    """
    g = geometry
    N = g.N if N is None else N
    if N > g.N:
        raise ValueError("enumeration beyond the geometry truncation")
    modes = _box_modes(N)
    out = []
    for kf, mf, nf, b, c in zip(*(col.tolist() for col in _radical_rows(g, N))):
        kk, mm, nn = (tuple(modes[x].tolist()) for x in (kf, mf, nf))
        rk, rm, rn = g._omega_sq(kk), g._omega_sq(mm), g._omega_sq(nn)
        for a in (1, -1):
            if not exact_sqrt_sum_is_zero([(a, rk), (a * b, rm), (-a * c, rn)]):
                raise ArithmeticError(
                    f"integer and radical resonance decisions disagree at {kk}, {mm}, {nn}"
                )
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
