"""Independent oracles used by the test suite.

Everything here is deliberately written from scratch against textbook
definitions (or solved numerically from first principles) so it shares no
code path with the package implementation it checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# ---------------------------------------------------------------------------
# The half-space media the planar tests sweep, as (eps, mu, kappa)
# ---------------------------------------------------------------------------

ORACLE_MEDIA = {
    "lossless": (2.25, 1.0, 0.05),
    "absorbing": (2.25 + 0.1j, 1.0, 0.05 + 0.001j),
    "kappa_above_n": (4.0, 1.0, 2.5),
    # a circular mode with Im k^2 < 0 puts a branch cut inside the strip
    # the contour deformation sweeps: a gain mode, and a lossy |kappa| > Re n
    "gain_mode": (2.25, 1.0, 0.05 + 0.01j),
    "lossy_kappa_above_n": (4.0 + 0.4j, 1.0, 2.5),
    "lossy_plasmonic": (-2.0 + 0.3j, 1.0, 0.05 + 0.01j),
    # Im(eps mu) < 0 at kappa = 0: both modes share one branch point and cut
    "shared_cut": (-2.0 + 0.1j, -1.0 + 0.1j, 0.0),
    # eps = mu: r_ss = r_pp, so the curl x-y channel is exactly zero
    "dual": (2.0, 2.0, 0.05),
}


# ---------------------------------------------------------------------------
# Textbook Fresnel coefficients for a vacuum | (eps, mu) dielectric interface
# ---------------------------------------------------------------------------

def textbook_fresnel(eps: complex, mu: complex, k0: float, k_par: float):
    """(r_s, r_p) with r_s = (mu kz1 - kz2)/(mu kz1 + kz2),
    r_p = (eps kz1 - kz2)/(eps kz1 + kz2); kz on the Im >= 0 branch."""

    def sqrt_im(x):
        r = np.sqrt(complex(x))
        return -r if r.imag < 0 else r

    kz1 = sqrt_im(k0**2 - k_par**2)
    kz2 = sqrt_im(eps * mu * k0**2 - k_par**2)
    r_s = (mu * kz1 - kz2) / (mu * kz1 + kz2)
    r_p = (eps * kz1 - kz2) / (eps * kz1 + kz2)
    return r_s, r_p


# ---------------------------------------------------------------------------
# Plane-wave polarization bases above the interface
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WaveGeometry:
    """Wavevector split and polarization unit vectors for one plane wave."""

    k_par: float
    k_perp: complex
    k0: float
    e_s: np.ndarray
    e_p_plus: np.ndarray
    e_p_minus: np.ndarray


def polarization_vectors(k_par: float, k0: float, azimuth: float = 0.0) -> WaveGeometry:
    """s/p unit vectors of up(+)/down(-) waves with parallel wave number k_par.

    e_s = e_kpar x e_z ; e_p(+-) = (k_par e_z -+ k_perp e_kpar)/k0 with
    k_perp on the Im >= 0 branch. At normal incidence the parallel direction
    degenerates; it is fixed to e_x for azimuth 0 (pure convention, the
    azimuth-integrated results do not depend on it).
    """
    if k_par < 0 or k0 <= 0:
        raise ValueError("require k_par >= 0 and k0 > 0")
    k_perp = np.sqrt(complex(k0 * k0 - k_par * k_par))
    if k_perp.imag < 0:
        k_perp = -k_perp
    e_kpar = np.array([np.cos(azimuth), np.sin(azimuth), 0.0])
    e_z = np.array([0.0, 0.0, 1.0])
    e_s = np.cross(e_kpar, e_z)
    e_p_plus = (k_par * e_z - k_perp * e_kpar) / k0
    e_p_minus = (k_par * e_z + k_perp * e_kpar) / k0
    return WaveGeometry(k_par, complex(k_perp), k0, e_s, e_p_plus, e_p_minus)


# ---------------------------------------------------------------------------
# Central finite-difference curl of a Cartesian vector field
# ---------------------------------------------------------------------------

def fd_curl(field, xyz: np.ndarray, h: float) -> np.ndarray:
    """curl F at xyz via central differences with step h per coordinate."""
    xyz = np.asarray(xyz, dtype=float)

    def deriv(axis):
        dx = np.zeros(3)
        dx[axis] = h
        return (field(xyz + dx) - field(xyz - dx)) / (2.0 * h)

    dF = [deriv(i) for i in range(3)]  # dF[i][j] = d F_j / d x_i
    return np.array([
        dF[1][2] - dF[2][1],
        dF[2][0] - dF[0][2],
        dF[0][1] - dF[1][0],
    ])


# ---------------------------------------------------------------------------
# Curl of the homogeneous-medium Green's tensor at finite separation
# ---------------------------------------------------------------------------

_ANTISYM_XY = np.array([[0.0, 1.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])


def curl_g0_finite(med, rho: float) -> np.ndarray:
    """Curl of the homogeneous-medium Green's tensor at separation rho > 0,
    a complex 3x3 array in 1/m^2 (curl G itself, not curl Im G).

    The separation axis is taken along e_z (the coincidence limit is
    isotropic). The circular modes have k+- = k0 (n_r -+ kappa); each
    contributes e^{i k rho}(1 - i k rho)/(2 pi rho^3 (k+ + k-)) times
    [sigma I + (k rho/2) A] with sigma = +1 (-1) for the plus (minus) mode
    and A the x-y antisymmetric block, which is the image of the
    e_theta x e_phi asymmetry under the mapping.
    """
    if rho <= 0:
        raise ZeroDivisionError("curl_g0_finite has a pole at rho = 0")
    k_plus = med.k0 * (med.n_r - med.kappa)
    k_minus = med.k0 * (med.n_r + med.kappa)
    mat = np.zeros((3, 3), dtype=complex)
    for k, sigma in ((k_plus, 1.0), (k_minus, -1.0)):
        pref = med.mu * np.exp(1j * k * rho) * (1.0 - 1j * k * rho)
        pref /= 2.0 * np.pi * rho**3 * (k_plus + k_minus)
        mat += pref * (sigma * np.eye(3) + (k * rho / 2.0) * _ANTISYM_XY)
    return mat


# ---------------------------------------------------------------------------
# Richardson extrapolation in rho^2 (even error expansions)
# ---------------------------------------------------------------------------

def richardson_rho2(f, rho0: float, levels: int = 5):
    """Extrapolate f(rho) -> rho = 0 assuming f = f0 + c1 rho^2 + c2 rho^4 + ...

    Evaluates at rho0/2^j and eliminates even powers tablewise.
    """
    vals = [f(rho0 / 2**j) for j in range(levels)]
    table = [np.asarray(v, dtype=complex) for v in vals]
    for m in range(1, levels):
        fac = 4.0**m
        table = [
            (fac * table[j + 1] - table[j]) / (fac - 1.0)
            for j in range(len(table) - 1)
        ]
    return table[0]


# ---------------------------------------------------------------------------
# Cavity boundary-condition solve (two decoupled 4x4 systems at n = 1)
# ---------------------------------------------------------------------------

def _j1(x):
    x = complex(x)
    return np.sin(x) / x**2 - np.cos(x) / x


def _y1(x):
    x = complex(x)
    return -np.cos(x) / x**2 - np.sin(x) / x


def _h1(x):
    return _j1(x) + 1j * _y1(x)


def _uv(kind: str, x: complex):
    """(z_1(x), (1/x) d/dx [x z_1(x)]) for kind 'j' or 'h'."""
    x = complex(x)
    if kind == "j":
        u = _j1(x)
        du = np.sin(x) / x - 2.0 * _j1(x) / x  # j1' = j0 - 2 j1/x
    else:
        u = _h1(x)
        dj = np.sin(x) / x - 2.0 * _j1(x) / x
        dy = -np.cos(x) / x - 2.0 * _y1(x) / x
        du = dj + 1j * dy
    return u, u / x + du


def solve_cavity_coefficients(eps, mu, kappa, k0, a):
    """Interior n=1 scattering amplitudes (A_v, A_w) of a vacuum sphere in a
    chiral host, from the tangential-field matching at r = a.

    Matching conditions: tangential E continuous; tangential H continuous,
    which for the chiral constitutive relations reads
    curl G(in) = (1/mu) curl G(out) - (kappa k0/mu) G(out). The exterior
    curl-(+) eigenmodes entering the V channel carry k0 (n_r + kappa), the
    curl-(-) ones in the W channel k0 (n_r - kappa). The vacuum source term
    enters with relative weight k0^2 in the interior-ansatz normalization.
    """
    eps, mu, kappa = complex(eps), complex(mu), complex(kappa)
    nr = np.sqrt(eps * mu)
    k_v = k0 * (nr + kappa)  # exterior mode paired with the V channel
    k_w = k0 * (nr - kappa)
    p_src = k0**2
    uj0, vj0 = _uv("j", k0 * a)
    uh0, vh0 = _uv("h", k0 * a)
    uhv, vhv = _uv("h", k_v * a)
    uhw, vhw = _uv("h", k_w * a)
    g = kappa * k0 / mu

    m = np.array(
        [
            [uj0, uj0, -uhv, -uhw],
            [vj0, -vj0, -vhv, vhw],
            [k0 * uj0, -k0 * uj0, -(k_v / mu - g) * uhv, (k_w / mu + g) * uhw],
            [k0 * vj0, k0 * vj0, -(k_v / mu - g) * vhv, -(k_w / mu + g) * vhw],
        ],
        dtype=complex,
    )
    rhs = -p_src * np.array([uh0, vh0, k0 * uh0, k0 * vh0], dtype=complex)
    a_v, a_w, _, _ = np.linalg.solve(m, rhs)
    return complex(a_v), complex(a_w)


# ---------------------------------------------------------------------------
# Uniform random rigid rotations (quaternion method)
# ---------------------------------------------------------------------------

def random_rotations(n: int, rng: np.random.Generator) -> np.ndarray:
    """n rotation matrices drawn uniformly from SO(3)."""
    q = rng.normal(size=(n, 4))
    q /= np.linalg.norm(q, axis=1, keepdims=True)
    w, x, y, z = q.T
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
        ],
        axis=1,
    )


# ---------------------------------------------------------------------------
# Planar scattering integrals of a vacuum | chiral half-space interface
# ---------------------------------------------------------------------------

def chiral_reflections(eps: complex, mu: complex, kappa: complex, k0: float, kz0: complex):
    """(r_ss, r_pp, r_sp) of a vacuum | chiral medium interface as functions
    of the vacuum perpendicular wave number kz0 (real: traveling, i t:
    evanescent), in impedance / admittance form.

    With Z = sqrt(mu/eps), the circular modes k(+-) = k0 (n -+ kappa) and
    their perpendicular wave numbers q(+-) = sqrt(k(+-)^2 - k0^2 + kz0^2)
    (Im >= 0), each mode contributes g = Z k0 q/k and h = k0 q/(Z k). At
    kappa = 0, g = kz2/eps and h = kz2/mu, and r_ss, r_pp become the
    textbook (kz0 - h)/(kz0 + h) and (kz0 - g)/(kz0 + g). Nothing divides by
    kz0, so the set stays finite at grazing incidence.
    """
    eps, mu, kappa, kz0 = complex(eps), complex(mu), complex(kappa), complex(kz0)
    n = np.sqrt(eps * mu)
    if n.real < 0:
        n = -n
    imp = np.sqrt(mu / eps)
    g, h = [], []
    for k in (k0 * (n - kappa), k0 * (n + kappa)):
        q = np.sqrt(k * k - k0 * k0 + kz0 * kz0)
        if q.imag < 0:
            q = -q
        g.append(imp * k0 * q / k)
        h.append(k0 * q / (imp * k))
    (g_p, g_m), (h_p, h_m) = g, h
    den = (kz0 + g_m) * (kz0 + h_p) + (kz0 + g_p) * (kz0 + h_m)
    r_ss = ((kz0 + g_m) * (kz0 - h_p) + (kz0 + g_p) * (kz0 - h_m)) / den
    r_pp = ((kz0 - g_m) * (kz0 + h_p) + (kz0 - g_p) * (kz0 + h_m)) / den
    r_sp = 2j * kz0 * (g_p - g_m) / (imp * den)
    return r_ss, r_pp, r_sp


def planar_channel_integrals(eps: complex, mu: complex, kappa: complex, k0: float, z: float):
    """(values, scales) of the five scattering channels at height z: curl G
    xx, zz, x-y and G xx, zz, integrated with ``scipy.integrate.quad``.

    Channel amplitudes c(kz0) of the vacuum perpendicular wave number
    (q = kz0^2/k0^2):

        curl: r_sp (1 - q), 2 r_sp (1 - q), (kz0/k0)(r_ss - r_pp)
        G:    i (r_ss - q r_pp), 2i (1 - q) r_pp

    Each channel is pref * [int_0^k0 c(k) e^{2ikz} dk
    + int_0^inf -i c(it) e^{-2tz} dt] with pref = k0/8pi (curl) or 1/8pi
    (G); its scale is pref * (|first| + |second|). The tail runs to
    infinity in u = 2tz, split at the modes' branch points.
    """
    from scipy.integrate import quad

    def channels(kz0):
        r_ss, r_pp, r_sp = chiral_reflections(eps, mu, kappa, k0, kz0)
        q = (kz0 / k0) ** 2
        return np.array([
            r_sp * (1 - q), 2 * r_sp * (1 - q), (kz0 / k0) * (r_ss - r_pp),
            1j * (r_ss - q * r_pp), 2j * (1 - q) * r_pp,
        ])

    n = np.sqrt(complex(eps) * complex(mu))
    kinks_trav, kinks_evan = [], []
    for k in (k0 * (n - kappa), k0 * (n + kappa)):
        d = (complex(k) ** 2).real - k0 * k0
        (kinks_evan if d > 0 else kinks_trav).append(np.sqrt(abs(d)))
    trav_edges = [0.0] + sorted(p for p in kinks_trav if 0 < p < k0) + [k0]
    evan_edges = [0.0] + sorted(2 * z * p for p in kinks_evan if p > 0) + [np.inf]

    def integrate(fun, edges):
        """int fun over the pieces between edges, one complex sum per channel."""
        cache = {}

        def amp(x):
            if x not in cache:
                cache[x] = fun(x)
            return cache[x]

        total = np.zeros(5, dtype=complex)
        for lo, hi in zip(edges[:-1], edges[1:]):
            for ch in range(5):
                # the absolute tolerance follows the channel's magnitude, so a
                # real or imaginary part far below it does not stall quad
                mag = quad(lambda x: abs(amp(x)[ch]), lo, hi, epsrel=1e-6, limit=200)[0]
                opts = dict(epsabs=1e-14 * mag, epsrel=1e-13, limit=500)
                total[ch] += quad(lambda x: amp(x)[ch].real, lo, hi, **opts)[0]
                total[ch] += 1j * quad(lambda x: amp(x)[ch].imag, lo, hi, **opts)[0]
        return total

    trav = integrate(lambda k: channels(k) * np.exp(2j * k * z), trav_edges)
    # kz0 = i t with t = u/(2z): dt = du/(2z)
    evan = integrate(lambda u: -1j * channels(0.5j * u / z) * np.exp(-u), evan_edges) / (2 * z)
    pref = np.array([k0, k0, k0, 1.0, 1.0]) / (8 * np.pi)
    return pref * (trav + evan), pref * (np.abs(trav) + np.abs(evan))


# ---------------------------------------------------------------------------
# Perfect chiral mirror: the planar integrals in closed form
# ---------------------------------------------------------------------------

def _moment(n: int, x: float) -> complex:
    """int_0^1 t^n exp(i x t) dt for n in (0, 2)."""
    if abs(x) < 1.0:
        # power series; the closed form below cancels badly for small x
        total, term, j = 0j, 1 + 0j, 0
        while True:
            add = term / (j + n + 1)
            total += add
            if abs(add) < 1e-18 * abs(total):
                return total
            j += 1
            term *= 1j * x / j
    ix = 1j * x
    e = np.exp(ix)
    if n == 0:
        return (e - 1.0) / ix
    return e * (1.0 / ix - 2.0 / ix**2 + 2.0 / ix**3) - 2.0 / ix**3


def mirror_curl_xx(k0: float, z: float, sign: float):
    """(xx, scale) of the perfect mirror's scattering curl before taking Im.

    The mirror reflects with constant r_sp = sign and r_ss = r_pp = 0, so
    the traveling segment k0 int_0^1 (1 - s^2) e^{2i k0 z s} ds and the
    evanescent tail -i int_0^inf (1 + t^2/k0^2) e^{-2tz} dt are elementary
    (zz is exactly 2 xx, the x-y block vanishes). The scale is the sum of
    the segments' magnitudes, as in ``planar_channel_integrals``.
    """
    a = 2.0 * z
    trav = sign * k0 * (_moment(0, a * k0) - _moment(2, a * k0))
    evan = -1j * sign * (1.0 / a + 2.0 / (a**3 * k0 * k0))
    pref = k0 / (8.0 * np.pi)
    return pref * (trav + evan), pref * (abs(trav) + abs(evan))
