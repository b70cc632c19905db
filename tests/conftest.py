import numpy as np
import pytest

from frspec.fields import SpectralField4, leray_project
from frspec.geometry import TorusGeometry


def random_field(geometry, seed=0, divergence_free=True, amplitude=None, spectrum_r=0.0):
    """Zero-mean real random field, optionally Leray-projected: the real
    part (V_hat(n) + conj V_hat(-n)) / 2 of a complex Gaussian draw on the
    full lattice, stored on n3 >= 0."""
    rng = np.random.default_rng(seed)
    L, N = geometry.L, geometry.N
    raw = rng.standard_normal((L, L, L, 4)) + 1j * rng.standard_normal((L, L, L, 4))
    if spectrum_r:
        raw = raw * (1.0 + geometry.check_sq[..., None]) ** (-spectrum_r / 2.0)
    f = SpectralField4(geometry, 0.5 * (raw[:, :, N:] + np.conj(raw[::-1, ::-1, N::-1])))
    f.pin_zero_mode()
    if divergence_free:
        f = leray_project(f)
    if amplitude is not None:
        from frspec.fields import l2_norm

        f = (amplitude / l2_norm(f)) * f
    return f


def full_lattice(field):
    """The (L, L, L, 4) coefficients of a real field over the whole
    lattice, indexed by n + N: the stored modes n3 >= 0, and conj V_hat(-n)
    on n3 < 0."""
    g = field.geometry
    N, h = g.N, field.coeffs
    out = np.empty((g.L, g.L, g.L, 4), dtype=np.complex128)
    out[:, :, N:] = h
    out[:, :, :N] = np.conj(h[::-1, ::-1, N:0:-1])
    return out


def full_stack(C):
    """The full-lattice rows (R, L, L, L) of coefficient rows (R, L, L, N + 1)
    on the stored modes n3 >= 0 of a real field, for the oracles that read
    every mode: n3 < 0 holds c_0(-n) = -conj c_0(n), c_pm(-n) = conj c_mp(n)."""
    from frspec.waves import _full_rows

    return _full_rows(C)


def from_lattice(geometry, coeffs):
    """The field whose full-lattice coefficients (L, L, L, 4) are `coeffs`
    (of a real field): its modes n3 >= 0."""
    return SpectralField4(geometry, coeffs[:, :, geometry.N :].copy())


def stored(geometry, n):
    """The array index (n1 + N, n2 + N, n3) of a mode with n3 >= 0 in the
    stored layout of a field."""
    assert n[2] >= 0
    return (n[0] + geometry.N, n[1] + geometry.N, n[2])


def pair_stream(N, underline=False, chunk=1 << 16):
    """The pair stream the resonance tables were once screened from: flat
    indices (kf, mf, nf = kf + mf - centre) into the box [-N, N]^3 of every
    pair with k, m, k + m in the box, k_h, m_h != 0 and n_h != 0 (n_h == 0
    if `underline`), in chunks of about `chunk` pairs built from per-axis
    pair products."""
    L = 2 * N + 1
    r = np.arange(-N, N + 1, dtype=np.int64)
    k, m = np.meshgrid(r, r, indexing="ij")
    ok = np.abs(k + m) <= N
    k, m = k[ok], m[ok]
    k1, k2 = np.repeat(k, len(k)), np.tile(k, len(k))
    m1, m2 = np.repeat(m, len(m)), np.tile(m, len(m))
    ok = ((k1 != 0) | (k2 != 0)) & ((m1 != 0) | (m2 != 0))
    nh0 = (k1 + m1 == 0) & (k2 + m2 == 0)
    ok &= nh0 if underline else ~nh0
    kh = ((k1[ok] + N) * L + (k2[ok] + N)) * L
    mh = ((m1[ok] + N) * L + (m2[ok] + N)) * L
    k3, m3 = k + N, m + N
    centre = L**3 // 2
    step = max(1, chunk // len(k3))
    for s in range(0, len(kh), step):
        kf = (kh[s : s + step, None] + k3).reshape(-1)
        mf = (mh[s : s + step, None] + m3).reshape(-1)
        yield kf, mf, kf + mf - centre


def float_omega(geometry):
    """omega(n) in double precision over the flat lattice."""
    from frspec.resonance import omega_ratio_ints

    H, S = omega_ratio_ints(geometry)
    return np.sqrt(H / np.where(S > 0, S, 1).astype(float))


@pytest.fixture(scope="session")
def unit_torus_4():
    return TorusGeometry((1, 1, 1), 4)


@pytest.fixture(scope="session")
def unit_torus_3():
    return TorusGeometry((1, 1, 1), 3)


@pytest.fixture(scope="session")
def aniso_torus_4():
    return TorusGeometry((1, 4, 1), 4)
