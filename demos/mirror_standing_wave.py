"""Standing-wave structure of the chiral rate in front of a perfect chiral mirror.

The reflected field interferes with the emitted one, so the chiral scattering
contribution oscillates with distance (period pi c / omega) in the far field
and grows like 1/z^3 in the near field, where the scattering contribution is
purely chiral (the idealized mirror's electric part vanishes there).

The mirror reflects with constant coefficients, so its exact wavevector
integral is elementary: Limit.NUMERIC evaluates that exact closed form at
every distance, with no quadrature, and bridges the two asymptotic limits.

Run:  python demos/mirror_standing_wave.py  [--csv mirror_sweep.csv]
"""

import sys

from chipurcell import (
    CONSTANTS,
    Handedness,
    Limit,
    PlanarGeometry,
    TransitionDipoles,
    rates_mirror,
)

OMEGA = 3.0e15
DEBYE = 3.33564e-30
K0 = OMEGA / CONSTANTS.c

mol = TransitionDipoles([DEBYE, 0, 0], [-1e-23j, 0, 0], OMEGA, isotropic=True)

print("right-handed perfect chiral mirror, isotropic molecule, omega = 3e15 rad/s")
print(f"reduced wavelength c/omega = {1 / K0:.3e} m\n")
print(f"{'k0 z':>8} {'limit':>14} {'gamma_ch limit':>17} {'gamma_ch exact':>17} {'rel diff':>10}")

rows = []
for k0z in (0.01, 0.03, 0.1, 0.5, 1.0, 3.0, 10.0, 15.0, 20.0):
    z = k0z / K0
    geom = PlanarGeometry(z_m=z, handedness=Handedness.RIGHT)
    limit = Limit.NONRETARDED if k0z < 0.1 else Limit.RETARDED
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        closed = rates_mirror(geom, mol, limit)
    exact = rates_mirror(geom, mol, Limit.NUMERIC)
    rel = abs(exact.gamma_ch - closed.gamma_ch) / max(abs(closed.gamma_ch), 1e-300)
    print(f"{k0z:8.2f} {limit.value:>14} {closed.gamma_ch:17.6e} {exact.gamma_ch:17.6e} {rel:10.2e}")
    rows.append((k0z, closed.gamma_ch, exact.gamma_ch))

print("""
Reading the table: the two limiting forms are good in their own regimes and
the exact curl, -+(k0^2/4pi)(cos s/s^3 + sin s/s^2) diag(1, 1, 2) with
s = 2 k0 z, interpolates between them. In the crossover (k0 z ~ 0.1 .. 10)
neither limit is trustworthy; the exact column is the answer. For isotropic
molecules the far-field limit keeps only the in-plane dipole channel, so the
exact rate exceeds it by about the z-channel's share.
""")

if "--csv" in sys.argv:
    path = sys.argv[sys.argv.index("--csv") + 1]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("k0z,gamma_ch_limit,gamma_ch_exact\n")
        for r in rows:
            fh.write(",".join(f"{v:.17g}" for v in r) + "\n")
    print(f"wrote {path}")
