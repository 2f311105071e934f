"""Chiral decay rates in a bulk medium, with and without the cavity correction.

A chiral molecule dissolved in a chiral medium decays at slightly different
rates depending on whether its handedness matches the medium's. This script
walks through the numbers for a 1-Debye transition and shows how the degree
of discrimination scales with the medium's cross-susceptibility, and what
the real-cavity (local-field) correction does to it.

Run:  python demos/bulk_discrimination.py
"""

from chipurcell import (
    CavityConfig,
    MediumResponse,
    TransitionDipoles,
    f_factors,
    gamma_vacuum,
    rates_bulk,
    rates_lfc,
    rotatory_strength,
)

OMEGA = 3.0e15  # rad/s
DEBYE = 3.33564e-30  # C m

mol = TransitionDipoles(
    d=[DEBYE, 0, 0],
    m=[-1e-23j, 0, 0],  # quarter-phase magnetic dipole: R > 0
    omega_ik=OMEGA,
    isotropic=True,
)
print(f"molecule: |d| = 1 D, R = {rotatory_strength(mol):.3e} C A m^3")
print(f"vacuum rate: {gamma_vacuum(mol):.6e} 1/s\n")

print("medium eps = 2.25, mu = 1; sweeping the chiral cross-susceptibility:")
print(f"{'kappa':>8} {'gamma_el [1/s]':>16} {'gamma_ch [1/s]':>16} {'S':>12}")
for kappa in (-0.1, -0.05, -0.01, 0.01, 0.05, 0.1):
    med = MediumResponse(2.25, 1.0, kappa, OMEGA)
    b = rates_bulk(med, mol)
    print(f"{kappa:8.3f} {b.gamma_el:16.6e} {b.gamma_ch:16.6e} {b.s_disc:12.4e}")

print("\nThe chiral part is odd in kappa and in the molecular handedness;")
print("S is (to leading order) -6 kappa R / (c |d|^2).\n")

print("real-cavity correction (molecule in a small vacuum sphere, a = 1 nm):")
med = MediumResponse(2.25, 1.0, 0.05, OMEGA)
cav = CavityConfig(1e-9, med)
plain = rates_bulk(med, mol)
corr = rates_lfc(cav, mol)
factor_ratio = f_factors(med).f0.real / abs(3 * med.eps / (2 * med.eps + 1)) ** 2
print(f"  uncorrected:  gamma_ch = {plain.gamma_ch:.6e} 1/s, S = {plain.s_disc:.4e}")
print(f"  corrected:    gamma_ch = {corr.gamma_ch:.6e} 1/s, S = {corr.s_disc:.4e}")
print(f"  check: S ratio = {corr.s_disc / plain.s_disc:.6f} "
      f"(= f0 / (3 eps/(2 eps+1))^2 = {factor_ratio:.6f})\n")

print("absorbing host (eps = 2.25 + 0.3i): the near-field 1/a^3 channel dominates;")
for im_eps in (0.1, 0.3, 1.0):
    lossy = MediumResponse(2.25 + 1j * im_eps, 1.0, 0.05, OMEGA)
    b = rates_lfc(CavityConfig(1e-9, lossy), mol)
    print(f"  Im eps = {im_eps:4.1f}: gamma_ch = {b.gamma_ch:+.4e} 1/s, S = {b.s_disc:+.6e}")
print("note: S is independent of Im eps for real kappa (it cancels in the quotient).")
