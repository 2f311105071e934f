import cmath
import os
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))  # make tests/oracles.py importable

import chipurcell
from chipurcell import MediumResponse, TransitionDipoles, halfspace, planar_reflections

OMEGA = 3.0e15  # rad/s, a visible/UV-ish transition
DEBYE = 3.33564e-30  # C m
# kappa from zero through small values at which a difference of the cubes
# k-^3 - k+^3 loses digits, on lossless (eps, mu) and one absorbing pair
SMALL_KAPPA = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.05]
SMALL_KAPPA_MEDIA = [(2.25, 1.0), (12.0, 1.0), (4.0, 1.5), (2.25 + 0.1j, 1.0 + 0.02j)]
# (eps, mu, kappa) on which swapping eps and mu is checked: lossless,
# absorbing, lossy plasmonic and magnetic
DUALITY_MEDIA = [(2.25, 1.0, 0.05), (2.25 + 0.1j, 1.0, 0.05 + 0.001j), (-2.0 + 0.3j, 1.0, 0.05 + 0.01j),
                 (4.0, 2.5, 0.3)]


def mirror_curl(geom, omega: float) -> np.ndarray:
    """curl Im G of the perfect chiral mirror ``geom`` as its numeric rate
    contracts it: the rows that ``_tensors`` lays out from the numeric
    entries of ``_mirror_entries``, as a real 3x3 array."""
    entries = halfspace._mirror_entries(geom, omega, halfspace.Limit.NUMERIC)
    return np.array(halfspace._tensors(*entries)[0])


def quiet(fn, *args, **kwargs):
    """``fn(*args, **kwargs)``, silencing a closed form's out-of-range UserWarning."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        return fn(*args, **kwargs)


def package_env() -> dict:
    """The environment for a subprocess that must import the package under
    test, not another copy."""
    package_root = str(Path(chipurcell.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


@pytest.fixture
def cold_store():
    """Empties the cache of per-medium plans, which hold the stored node
    values and round index of their media, before and after the test: a test
    that injects a fault or counts calls through ``_amplitudes``,
    ``_reflections`` or ``integrate`` neither reads values stored by
    another test nor leaves its own behind."""
    halfspace._plan.cache_clear()
    yield
    halfspace._plan.cache_clear()


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


@pytest.fixture
def medium_std():
    """Lossless chiral medium used in worked checks throughout."""
    return MediumResponse(eps=2.25, mu=1.0, kappa=0.05, omega=OMEGA)


@pytest.fixture
def mol_iso():
    """Isotropic chiral molecule: 1 D electric dipole, quarter-phase magnetic."""
    return TransitionDipoles(
        d=[DEBYE, 0.0, 0.0],
        m=[1e-23j, 0.0, 0.0],
        omega_ik=OMEGA,
        isotropic=True,
    )


@pytest.fixture
def mol_aniso():
    """Anisotropic chiral molecule with all Cartesian components populated."""
    return TransitionDipoles(
        d=np.array([1.0 + 0.2j, -0.4 + 0.1j, 0.7 - 0.3j]) * DEBYE,
        m=np.array([0.3j, 1.0 - 0.5j, -0.2 + 0.8j]) * 1e-23,
        omega_ik=OMEGA,
        isotropic=False,
    )


def reflections_at(med, k_par):
    """(r_ss, r_pp, r_sp) of ``planar_reflections`` at one parallel wave
    number, as complex scalars."""
    k_perp = cmath.sqrt(med.k0 * med.k0 - k_par * k_par)  # principal root of a real: Im >= 0
    return tuple(complex(r) for r in planar_reflections(med, k_perp))


def random_lossless_medium(rng, omega=OMEGA):
    return MediumResponse(
        eps=float(rng.uniform(1.0, 10.0)),
        mu=float(rng.uniform(0.5, 2.0)),
        kappa=float(rng.uniform(-0.3, 0.3)),
        omega=omega,
    )


def random_molecule(rng, omega=OMEGA, isotropic=False):
    d = (rng.normal(size=3) + 1j * rng.normal(size=3)) * DEBYE
    m = (rng.normal(size=3) + 1j * rng.normal(size=3)) * 1e-23
    return TransitionDipoles(d=d, m=m, omega_ik=omega, isotropic=isotropic)
