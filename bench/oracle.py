"""Reference values for the benchmark's correctness check.

Two oracles, both independent of ``chipurcell.halfspace`` and
``chipurcell.sommerfeld``:

* ``mirror_curl_xx`` evaluates the perfect mirror's wavevector integrals in
  closed form. The mirror reflects with constant r_sp = +-1 and
  r_ss = r_pp = 0, so both segments reduce to elementary integrals of
  k^n exp(2i k z) and k^n exp(-2 k z).
* ``halfspace_reference`` integrates the half-space channels with
  ``scipy.integrate.quad``. Its reflection set is written here as a function
  of the perpendicular wave number, scaled so that it stays finite at
  grazing incidence (k_perp = 0), where QUADPACK's oscillatory rule
  evaluates the endpoint.

The mirror oracle runs inside every benchmark run. The half-space oracle
needs scipy and runs offline: ``python3 bench/oracle.py`` rewrites
``bench/reference.json`` (the anchors are defined in ``workloads.py``).
"""

from __future__ import annotations

import cmath
import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_FILE = HERE / "reference.json"


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
    e = cmath.exp(ix)
    if n == 0:
        return (e - 1.0) / ix
    return e * (1.0 / ix - 2.0 / ix**2 + 2.0 / ix**3) - 2.0 / ix**3


def mirror_curl_xx(k0: float, z: float, sign: float) -> tuple[complex, float]:
    """(xx, scale) for the perfect mirror: the xx entry of the scattering
    curl before taking Im (zz is exactly 2 xx, the x-y block vanishes), and
    the magnitude scale sum |segment| the quadrature's tolerance refers to.
    """
    a = 2.0 * z
    trav = sign * k0 * (_moment(0, a * k0) - _moment(2, a * k0))
    evan = -1j * sign * (1.0 / a + 2.0 / (a**3 * k0 * k0))
    pref = k0 / (8.0 * math.pi)
    return pref * (trav + evan), pref * (abs(trav) + abs(evan))


# ---------------------------------------------------------------------------
# Half-space oracle (offline, needs scipy)
# ---------------------------------------------------------------------------

def _sqrt_up(x: complex) -> complex:
    r = cmath.sqrt(x)
    return -r if r.imag < 0 else r


def _reflections(med: dict, k0: float, kz0: complex):
    """(r_ss, r_pp, r_sp) at vacuum perpendicular wave number kz0.

    Same mode amplitudes as the package's reflection set, multiplied through
    by kz0 so that nothing divides by it: b(+-) = sqrt(mu/eps) k0 kz(+-)/k(+-)
    with kz(+-)^2 = k(+-)^2 - k0^2 + kz0^2.
    """
    eps, mu, kap = med["eps"], med["mu"], med["kappa"]
    n = cmath.sqrt(eps * mu)
    if n.real < 0:
        n = -n
    kp, km = k0 * (n - kap), k0 * (n + kap)
    root = cmath.sqrt(mu / eps) * k0
    bp = root * _sqrt_up(kp * kp - k0 * k0 + kz0 * kz0) / kp
    bm = root * _sqrt_up(km * km - k0 * k0 + kz0 * kz0) / km
    em = eps / mu
    d = (kz0 + bm) * (kz0 + em * bp) + (kz0 + bp) * (kz0 + em * bm)
    r_ss = ((kz0 + bm) * (kz0 - em * bp) + (kz0 + bp) * (kz0 - em * bm)) / d
    r_pp = ((kz0 - bm) * (kz0 + em * bp) + (kz0 - bp) * (kz0 + em * bm)) / d
    r_sp = 2j * cmath.sqrt(eps / mu) * kz0 * (bp - bm) / d
    return r_ss, r_pp, r_sp


def _channels(med: dict, k0: float, kz0: complex) -> list[complex]:
    """The five channel amplitudes (curl xx, zz, x-y; Im G xx, zz) without
    the exp(2i kz0 z) factor, in the package's channel definitions."""
    r_ss, r_pp, r_sp = _reflections(med, k0, kz0)
    q = (kz0 / k0) ** 2          # k_perp^2/k0^2, negative on the tail
    par = 1.0 - q                # k_par^2/k0^2
    return [
        r_sp * par,
        r_sp * 2.0 * par,
        (kz0 / k0) * (r_ss - r_pp),
        1j * (r_ss - q * r_pp),
        1j * 2.0 * par * r_pp,
    ]


def halfspace_reference(med: dict, k0: float, z: float) -> tuple[list[complex], list[float]]:
    """(curl xx, zz, xy, Im G xx, zz) integrals and their magnitude scales.

    Traveling segment: int_0^k0 c(k) exp(2i k z) dk with QUADPACK's QAWO
    weight. Evanescent tail: k_perp = i t, so k_par dk_par / k_perp = -i dt
    and the tail is int_0^inf c(i t) exp(-2 t z) (-i) dt.
    """
    from scipy.integrate import quad

    opts = dict(epsabs=0.0, epsrel=1e-13, limit=2000)
    # branch points of a lossless medium kink the tail; give them to quad
    n = cmath.sqrt(med["eps"] * med["mu"])
    kinks = []
    for kk in (k0 * (n - med["kappa"]), k0 * (n + med["kappa"])):
        q = kk * kk - k0 * k0
        if q.imag == 0 and q.real > 0:
            kinks.append(math.sqrt(q.real))
    cut = 60.0 / (2.0 * z)

    def part(fun, lo, hi, **kw):
        re = quad(lambda t: fun(t).real, lo, hi, **kw, **opts)[0]
        im = quad(lambda t: fun(t).imag, lo, hi, **kw, **opts)[0]
        return complex(re, im)

    values, scales = [], []
    for ch in range(5):
        amp = lambda k: _channels(med, k0, complex(k))[ch]
        w = 2.0 * z
        trav = (part(amp, 0.0, k0, weight="cos", wvar=w)
                + 1j * part(amp, 0.0, k0, weight="sin", wvar=w))
        tail = lambda t: -1j * _channels(med, k0, 1j * t)[ch] * math.exp(-2.0 * t * z)
        pts = [p for p in kinks if p < cut]
        evan = part(tail, 0.0, cut, points=pts or None)
        pref = (k0 if ch < 3 else 1.0) / (8.0 * math.pi)
        values.append(pref * (trav + evan))
        scales.append(pref * (abs(trav) + abs(evan)))
    return values, scales


# ---------------------------------------------------------------------------
# Decay rates from the channel integrals
# ---------------------------------------------------------------------------

def _dipoles(mol: dict) -> tuple[list[complex], list[complex]]:
    return [complex(*c) for c in mol["d"]], [complex(*c) for c in mol["m"]]


def rates_from_integrals(mol: dict, curl, curl_scale, img=None, img_scale=None):
    """(gamma_el, its scale, gamma_ch, its scale) in 1/s.

    ``curl`` = (xx, zz, xy) and ``img`` = (xx, zz) are the complex channel
    integrals, of which the rates use the imaginary parts; the PLANAR_PAPER
    contraction Im[m . T . d*] of chipurcell.rates. Each scale is the same
    contraction taken over absolute values with the channel magnitude
    scales: the quadrature converges each channel relative to its complex
    magnitude, which for lossless media in the near field exceeds the
    imaginary part by up to ~10^8, so an error bound on a rate is a share of
    this scale, not of the rate.
    """
    from chipurcell.constants import CONSTANTS as c

    d, m = _dipoles(mol)
    w = mol["omega_ik"]
    xx, zz, xy = (v.imag for v in curl)
    sxx, szz, sxy = curl_scale
    t = [[xx, xy, 0.0], [-xy, xx, 0.0], [0.0, 0.0, zz]]
    s = [[sxx, sxy, 0.0], [sxy, sxx, 0.0], [0.0, 0.0, szz]]
    if mol.get("isotropic"):
        md = sum(mi * di.conjugate() for mi, di in zip(m, d))
        ch = (2 * xx + zz) / 3.0 * md
        ch_scale = (2 * sxx + szz) / 3.0 * abs(md)
    else:
        ch = sum(m[i] * t[i][j] * d[j].conjugate() for i in range(3) for j in range(3))
        ch_scale = sum(abs(m[i]) * s[i][j] * abs(d[j]) for i in range(3) for j in range(3))
    pref_ch = 4.0 * c.mu0 * w / c.hbar
    g_ch, g_ch_scale = pref_ch * ch.imag, pref_ch * ch_scale
    if img is None:
        return 0.0, 0.0, g_ch, g_ch_scale
    gxx, gzz = (v.imag for v in img)
    dsq = [abs(v) ** 2 for v in d]
    if mol.get("isotropic"):
        wxx, wzz = 2.0 / 3.0 * sum(dsq), 1.0 / 3.0 * sum(dsq)
    else:
        wxx, wzz = dsq[0] + dsq[1], dsq[2]
    pref_el = 2.0 * c.mu0 * w * w / c.hbar
    g_el = pref_el * (wxx * gxx + wzz * gzz)
    g_el_scale = pref_el * (wxx * img_scale[0] + wzz * img_scale[1])
    return g_el, g_el_scale, g_ch, g_ch_scale


def mirror_rates(mol: dict, k0: float, z: float, sign: float):
    """Exact rates of the perfect mirror, with scales (see rates_from_integrals)."""
    xx, scale = mirror_curl_xx(k0, z, sign)
    return rates_from_integrals(mol, (xx, 2.0 * xx, 0j), (scale, 2.0 * scale, 0.0))


# ---------------------------------------------------------------------------
# Regenerating reference.json
# ---------------------------------------------------------------------------

def build_reference() -> dict:
    """Half-space anchors from the scipy oracle; closed-form anchors from the
    package as it stands (they pin today's closed forms). The known-defect
    inputs get half-space references too, under "known_defects"."""
    import workloads

    ref = {w: [_entry(p) for p in anchors] for w, anchors in workloads.ANCHORS.items()}
    ref["known_defects"] = {w: [_entry(p) for p in points]
                            for w, points in workloads.KNOWN_DEFECTS.items()}
    return ref


def _entry(p) -> dict:
    import warnings

    import workloads
    from chipurcell import cli

    entry = {"label": p.label}
    if p.label.get("limit") == "numeric" and p.label["geometry"] == "halfspace":
        med = {k: complex(*v) for k, v in workloads.MEDIA[p.label["medium"]].items()}
        with warnings.catch_warnings():
            # QUADPACK flags roundoff on the channels whose imaginary
            # part is ~1e-8 of their magnitude; the values still agree
            # with the package to ~1e-11 of that magnitude.
            warnings.simplefilter("ignore")
            values, scales = halfspace_reference(
                med, workloads.K0, p.scenario["geometry"]["z_m"])
        entry["integrals"] = [[v.real, v.imag] for v in values]
        entry["scales"] = scales
    elif p.label.get("limit") != "numeric":
        entry["values"] = list(workloads.run_point(cli, p))
    return entry

if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parent / "src"))
    sys.path.insert(0, str(HERE))
    REFERENCE_FILE.write_text(json.dumps(build_reference(), indent=1) + "\n")
    print(f"wrote {REFERENCE_FILE}")
