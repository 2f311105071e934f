"""A chiral molecule above a realistic chiral half-space.

Three things are on display:

1. the four reflection coefficients of the vacuum | chiral-medium interface
   as a function of the parallel wave number (the cross channel r_sp is what
   couples to molecular handedness);
2. the closed-form rate limits and the exact quadrature pathway;
3. why the quadrature is the arbiter: for a lossless medium the near-field
   closed form keeps growing as 1/z^2 while the exact integrals saturate.

Run:  python demos/halfspace_near_field.py
"""

import warnings

import numpy as np

from chipurcell import (
    CONSTANTS,
    Limit,
    MediumResponse,
    PlanarGeometry,
    TransitionDipoles,
    fresnel_nonretarded,
    planar_reflections,
    rates_halfspace,
)

OMEGA = 3.0e15
DEBYE = 3.33564e-30
K0 = OMEGA / CONSTANTS.c

med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
mol = TransitionDipoles([DEBYE, 0, 0], [-1e-23j, 0, 0], OMEGA, isotropic=True)

print("interface: vacuum | (eps = 2.25, mu = 1, kappa = 0.05)\n")
print(f"{'k_par/k0':>9} {'r_ss':>9} {'r_pp':>9} {'Im r_sp':>10}")
xs = np.array([0.0, 0.5, 0.9, 1.5, 3.0, 10.0, 1e3])
k_perp = np.sqrt(K0**2 - (xs * K0) ** 2 + 0j)  # Im >= 0: evanescent once k_par > k0
for x, r_ss, r_pp, r_sp in zip(xs, *planar_reflections(med, k_perp)):
    print(f"{x:9.1f} {r_ss.real:9.4f} {r_pp.real:9.4f} {r_sp.imag:10.6f}")
r_ss, r_pp, r_sp = fresnel_nonretarded(med)
print(f"{'limit':>9} {r_ss.real:9.4f} {r_pp.real:9.4f} {r_sp.imag:10.6f}")
print("the coefficients settle on their near-field values once k_par >> k0.\n")

print("rates vs distance (isotropic molecule):")
print(f"{'k0 z':>7} {'gamma_ch closed':>17} {'gamma_ch quad':>16} {'gamma_el quad':>16}")
for k0z in (0.01, 0.03, 0.1, 1.0, 10.0):
    z = k0z / K0
    geom = PlanarGeometry(z_m=z, medium=med)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        if k0z <= 0.1:
            closed = rates_halfspace(geom, mol, Limit.NONRETARDED).gamma_ch
        else:
            closed = rates_halfspace(geom, mol, Limit.RETARDED).gamma_ch
    quad = rates_halfspace(geom, mol, Limit.NUMERIC)
    print(f"{k0z:7.2f} {closed:17.6e} {quad.gamma_ch:16.6e} {quad.gamma_el:16.6e}")

print("""
Note the near-field rows: the closed form blows up as 1/z^2 while the exact
quadrature saturates. That is real physics, not a numerical artifact: for a
lossless medium the diagonal reflections are real and the cross reflection
purely imaginary, so the evanescent tail contributes nothing to the
imaginary part of the scattering curl and the chiral near field stays
bounded. The 1/z^2 extrapolation is kept for cross-checking (and is what a
lossy medium would approach), but the quadrature column is the physical
prediction for lossless media. A lossy medium behaves differently - its
electric near field does diverge (absorption), which is why the electric
near-field channel requires Im eps > 0.
""")
