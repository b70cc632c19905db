"""Lattice geometry of the anisotropic periodic box.

The domain is the 3-torus with side lengths 2*pi*a_i.  Fourier modes are
integer vectors n in [-N, N]^3 and enter all formulas through the
check-frequencies ncheck_i = n_i / a_i.  Resonance arithmetic downstream
requires the squared periods a_i^2 to be rational, so the geometry keeps
them as exact fractions alongside the float values used by the kernels.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

__all__ = ["TorusGeometry", "check_frequency"]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, float):
        if not x > 0 or not np.isfinite(x):
            raise ValueError(f"period squared must be positive and finite, got {x}")
        return Fraction(x).limit_denominator(10**12)
    raise TypeError(f"cannot interpret {x!r} as an exact rational")


@dataclass(frozen=True)
class TorusGeometry:
    """Anisotropic torus with truncation N; modes n_i in [-N, N].

    Parameters
    ----------
    a_sq : squared periods (a1^2, a2^2, a3^2) as exact rationals.
    N : truncation per axis, N >= 1.
    """

    a_sq: tuple[Fraction, Fraction, Fraction]
    N: int
    _cache: dict = field(default_factory=dict, compare=False, repr=False)

    def __init__(self, a_sq, N: int):
        a_sq = tuple(_as_fraction(x) for x in a_sq)
        if len(a_sq) != 3 or any(x <= 0 for x in a_sq):
            raise ValueError("need three positive rational squared periods")
        if N < 1:
            raise ValueError("truncation N must be >= 1")
        object.__setattr__(self, "a_sq", a_sq)
        object.__setattr__(self, "N", int(N))
        object.__setattr__(self, "_cache", {})

    # -- basic descriptors -------------------------------------------------

    @property
    def a(self) -> np.ndarray:
        """Float periods (a1, a2, a3)."""
        return np.sqrt(np.array([float(x) for x in self.a_sq]))

    @property
    def L(self) -> int:
        """Modes per axis, 2N + 1."""
        return 2 * self.N + 1

    @property
    def nmodes(self) -> int:
        return self.L**3

    @property
    def volume(self) -> float:
        """Box volume (2 pi)^3 a1 a2 a3."""
        return float((2.0 * np.pi) ** 3 * np.prod(self.a))

    def __hash__(self):
        return hash((self.a_sq, self.N))

    def __eq__(self, other):
        return (
            isinstance(other, TorusGeometry)
            and self.a_sq == other.a_sq
            and self.N == other.N
        )

    # -- lattice arrays (cached) -------------------------------------------

    def _cached(self, key, builder):
        if key not in self._cache:
            self._cache[key] = builder()
        return self._cache[key]

    @property
    def n_axis(self) -> np.ndarray:
        """Integer mode values -N..N along one axis."""
        return self._cached("n_axis", lambda: np.arange(-self.N, self.N + 1))

    @property
    def check_grid(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable check-frequency arrays (ncheck_1, ncheck_2, ncheck_3)."""

        def build():
            a = self.a
            n = self.n_axis.astype(float)
            k1 = (n / a[0])[:, None, None]
            k2 = (n / a[1])[None, :, None]
            k3 = (n / a[2])[None, None, :]
            return (k1, k2, k3)

        return self._cached("check_grid", build)

    @property
    def check_sq(self) -> np.ndarray:
        """|ncheck|^2 on the full lattice, shape (L, L, L)."""

        def build():
            k1, k2, k3 = self.check_grid
            return k1**2 + k2**2 + k3**2

        return self._cached("check_sq", build)

    @property
    def check_h_sq(self) -> np.ndarray:
        """|ncheck_h|^2 on the full lattice."""

        def build():
            k1, k2, k3 = self.check_grid
            return (k1**2 + k2**2) + 0.0 * k3

        return self._cached("check_h_sq", build)

    @property
    def mask_zero(self) -> np.ndarray:
        """Boolean mask of the n = 0 mode."""

        def build():
            m = np.zeros((self.L,) * 3, dtype=bool)
            m[self.N, self.N, self.N] = True
            return m

        return self._cached("mask_zero", build)

    @property
    def mask_h_zero(self) -> np.ndarray:
        """Mask of modes with n_h = 0 (vertical line), n = 0 included."""

        def build():
            m = np.zeros((self.L,) * 3, dtype=bool)
            m[self.N, self.N, :] = True
            return m

        return self._cached("mask_h_zero", build)

    # -- exact arithmetic ----------------------------------------------------

    def check_sq_exact(self, n) -> Fraction:
        """Exact |ncheck|^2 of an integer mode vector."""
        n1, n2, n3 = (int(c) for c in n)
        return (
            Fraction(n1 * n1, 1) / self.a_sq[0]
            + Fraction(n2 * n2, 1) / self.a_sq[1]
            + Fraction(n3 * n3, 1) / self.a_sq[2]
        )

    def check_h_sq_exact(self, n) -> Fraction:
        n1, n2 = int(n[0]), int(n[1])
        return Fraction(n1 * n1, 1) / self.a_sq[0] + Fraction(n2 * n2, 1) / self.a_sq[1]

    def omega_sq_exact(self, n) -> Fraction:
        """Exact squared eigenfrequency |ncheck_h|^2 / |ncheck|^2 (0 at n = 0)."""
        s = self.check_sq_exact(n)
        if s == 0:
            return Fraction(0)
        return self.check_h_sq_exact(n) / s

    def _omega_sq(self, n: tuple[int, int, int]) -> Fraction:
        """omega_sq_exact(n), computed once per mode of this geometry."""
        memo = self._cached("omega_sq", dict)
        if n not in memo:
            memo[n] = self.omega_sq_exact(n)
        return memo[n]

    @property
    def int_weights(self) -> tuple[int, int, int, int]:
        """Integers (w1, w2, w3, D) with D * ncheck_i^2 = w_i * n_i^2 exactly."""

        def build():
            dens = [Fraction(1, 1) / s for s in self.a_sq]  # 1/a_i^2
            D = int(np.lcm.reduce([f.denominator for f in dens]))
            w = tuple(int(f * D) for f in dens)
            return (*w, D)

        return self._cached("int_weights", build)

    # -- indexing helpers ----------------------------------------------------

    def mode_index(self, n) -> tuple[int, int, int]:
        """Array index (n1 + N, n2 + N, n3 + N) of a mode of the truncation;
        ValueError for a mode outside it, which would otherwise wrap around
        or overrun the (L, L, L) arrays."""
        n = tuple(int(c) for c in n)
        if max(map(abs, n)) > self.N:
            raise ValueError(f"mode {n} lies outside the truncation N = {self.N}")
        return tuple(c + self.N for c in n)

    def flat_index(self, n) -> int:
        """Lexicographic flat index of a mode vector."""
        i1, i2, i3 = self.mode_index(n)
        return (i1 * self.L + i2) * self.L + i3


def check_frequency(geometry: TorusGeometry, n) -> np.ndarray:
    """Check-frequency vector (n1/a1, n2/a2, n3/a3) of an integer mode."""
    return np.asarray(n, dtype=float) / geometry.a
