"""Dyadic frequency decomposition and paraproduct machinery.

The radial cutoffs are the usual smooth pair: chi equal to 1 on [0, 3/4],
vanishing beyond 4/3, and phi(t) = chi(t/2) - chi(t), supported in the
annulus (3/4, 8/3).  By telescoping,

    chi(t) + sum_{q=0..Q} phi(t / 2^q) = chi(t / 2^{Q+1}),

which equals 1 exactly once t / 2^{Q+1} <= 3/4, so the partition of unity
is exact (not just to roundoff) on the truncated lattice for Q large
enough.  Blocks above Q_max = ceil(log2 |ncheck|_max) + 1 vanish
identically.
"""

from __future__ import annotations

import numpy as np

from .fields import (
    PhysicalField4,
    SpectralField4,
    l2_norm,
    sobolev_norm,
    to_physical,
    to_spectral,
    zero_field,
)
from .geometry import TorusGeometry

__all__ = [
    "chi_profile",
    "phi_profile",
    "q_max",
    "dyadic_block",
    "low_cut",
    "bony_split",
    "bernstein_ratio",
    "dyadic_coefficients",
    "lp_norm",
]


def _smooth_step(x: np.ndarray) -> np.ndarray:
    """C-infinity step: 0 for x <= 0, 1 for x >= 1."""
    x = np.asarray(x, dtype=float)
    fx = np.where(x > 0, np.exp(-1.0 / np.maximum(x, 1e-300)), 0.0)
    f1 = np.where(1 - x > 0, np.exp(-1.0 / np.maximum(1 - x, 1e-300)), 0.0)
    return fx / (fx + f1)


def chi_profile(t) -> np.ndarray:
    """Radial cutoff: 1 on [0, 3/4], 0 on [4/3, inf)."""
    t = np.abs(np.asarray(t, dtype=float))
    return 1.0 - _smooth_step((t - 0.75) / (4.0 / 3.0 - 0.75))


def phi_profile(t) -> np.ndarray:
    """Annulus bump phi(t) = chi(t/2) - chi(t), supported in (3/4, 8/3)."""
    t = np.asarray(t, dtype=float)
    return chi_profile(t / 2.0) - chi_profile(t)


def q_max(geometry: TorusGeometry) -> int:
    kmax = float(np.sqrt(np.max(geometry.check_sq)))
    return int(np.ceil(np.log2(max(kmax, 1.0)))) + 1


def _block_multiplier(geometry: TorusGeometry, q: int) -> np.ndarray:
    """The multiplier of Delta_q on the stored modes n3 >= 0 of a field."""
    k = np.sqrt(geometry.check_sq[..., geometry.N :])
    if q == -1:
        return chi_profile(k)
    if q < -1:
        return np.zeros_like(k)
    return phi_profile(k / 2.0**q)


def dyadic_block(q: int, field: SpectralField4) -> SpectralField4:
    """Delta_q applied to a spectral field."""
    m = _block_multiplier(field.geometry, q)
    return SpectralField4(field.geometry, m[..., None] * field.coeffs)


def low_cut(q: int, field: SpectralField4) -> SpectralField4:
    """S_q = sum_{q' <= q-1} Delta_q'; multiplier chi(|ncheck| / 2^q)."""
    g = field.geometry
    k = np.sqrt(g.check_sq[..., g.N :])
    if q <= -1:
        m = np.zeros_like(k)
    else:
        m = chi_profile(k / 2.0**q)
    return SpectralField4(field.geometry, m[..., None] * field.coeffs)


def _pointwise_product(A: SpectralField4, B: SpectralField4) -> SpectralField4:
    """Dealiased componentwise product of two fields."""
    g = A.geometry
    pa = to_physical(A)
    pb = to_physical(B)
    prod = PhysicalField4(g, pa.values * pb.values, pa.grid_points)
    return to_spectral(prod)


def bony_split(
    U: SpectralField4, V: SpectralField4
) -> tuple[SpectralField4, SpectralField4, SpectralField4]:
    """Paraproduct split of the componentwise product U * V.

    Returns (T_U V, T_V U, R(U, V)); their sum is the dealiased product.
    """
    g = U.geometry
    Q = q_max(g)
    TUV = zero_field(g)
    TVU = zero_field(g)
    R = zero_field(g)
    blocks_U = [dyadic_block(q, U) for q in range(-1, Q + 1)]
    blocks_V = [dyadic_block(q, V) for q in range(-1, Q + 1)]
    for qi, q in enumerate(range(-1, Q + 1)):
        TUV.coeffs += _pointwise_product(low_cut(q - 1, U), blocks_V[qi]).coeffs
        TVU.coeffs += _pointwise_product(low_cut(q - 1, V), blocks_U[qi]).coeffs
        for nu in (-1, 0, 1):
            qj = qi + nu
            if 0 <= qj < len(blocks_V):
                R.coeffs += _pointwise_product(blocks_U[qi], blocks_V[qj]).coeffs
    return TUV, TVU, R


def lp_norm(field: SpectralField4, p: float) -> float:
    """Physical-space L^p norm over the box (quadrature on the padded grid)."""
    phys = to_physical(field)
    M = phys.grid_points
    w = field.geometry.volume / M**3
    mag = np.sqrt(np.sum(phys.values**2, axis=-1))
    if np.isinf(p):
        return float(np.max(mag))
    return float((np.sum(mag**p) * w) ** (1.0 / p))


def bernstein_ratio(
    q: int,
    field: SpectralField4,
    k: int,
    p: float = 2.0,
    r: float = 2.0,
    r_prime: float = 2.0,
) -> dict[str, float]:
    """Measured Bernstein constants for an annulus-supported field.

    Returns the derivative ratio ||(-Lap)^{k/2} u||_p / (2^{qk} ||u||_p)
    and the integrability gain ||u||_r / (2^{3q(1/r'-1/r)} ||u||_{r'}).
    """
    g = field.geometry
    m = _block_multiplier(g, q)
    outside = np.abs(field.coeffs[m[..., None] * np.ones(4) == 0.0])
    if outside.size and np.max(outside) > 1e-12 * max(1.0, np.max(np.abs(field.coeffs))):
        raise ValueError(f"field is not supported in the dyadic annulus q={q}")
    lam = np.sqrt(g.check_sq[..., g.N :]) ** k
    deriv = SpectralField4(g, lam[..., None] * field.coeffs)
    ratio_deriv = lp_norm(deriv, p) / (2.0 ** (q * k) * lp_norm(field, p))
    gain = lp_norm(field, r) / (
        2.0 ** (3 * q * (1.0 / r_prime - 1.0 / r)) * lp_norm(field, r_prime)
    )
    return {"derivative_ratio": ratio_deriv, "integrability_ratio": gain}


def dyadic_coefficients(s: float, field: SpectralField4) -> tuple[float, np.ndarray]:
    """Regularity coefficients c_q with ||Delta_q f||_L2 = C c_q 2^{-qs} ||f||_Hs.

    Returns (C, c_q array over q = -1 .. Q_max) with sum c_q^2 = 1.
    """
    g = field.geometry
    Q = q_max(g)
    hs = sobolev_norm(s, field)
    d = np.array(
        [
            2.0 ** (q * s) * l2_norm(dyadic_block(q, field))
            for q in range(-1, Q + 1)
        ]
    )
    C = float(np.sqrt(np.sum(d**2)) / hs)
    return C, d / np.sqrt(np.sum(d**2))
