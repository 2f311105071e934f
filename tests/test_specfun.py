import numpy as np
import pytest
from scipy import special as sps

from chipurcell.errors import PhysicsError
from specfun import (
    Parity,
    RadialKind,
    SphericalPoint,
    WaveFunctionIndex,
    assoc_legendre,
    assoc_legendre_dtheta,
    sph_bessel_j,
    sph_bessel_j_dx,
    sph_bessel_y,
    sph_bessel_y_dx,
    sph_hankel1,
    vector_wave_V,
    vector_wave_W,
    vector_wave_cartesian,
)
from oracles import fd_curl


class TestSphericalBessel:
    def test_j0_at_zero(self):
        assert sph_bessel_j(0, 0.0) == 1.0
        assert sph_bessel_j(3, 0.0) == 0.0

    def test_j1_leading_order(self):
        # j1(x) -> x/3
        assert sph_bessel_j(1, 1e-4) == pytest.approx(3.3333333300000e-5, rel=1e-10)

    def test_j2_frozen(self):
        # 40-digit series evaluation: 0.13473121008512521879
        assert sph_bessel_j(2, 5.0) == pytest.approx(0.13473121008512521879, rel=1e-13)

    @pytest.mark.parametrize("n", range(0, 11))
    def test_real_axis_against_scipy(self, n):
        for x in (0.05, 0.7, 3.1, 17.0, 64.0, 99.5):
            assert complex(sph_bessel_j(n, x)) == pytest.approx(
                complex(sps.spherical_jn(n, x)), rel=1e-12, abs=1e-280
            )
            assert complex(sph_bessel_y(n, x)) == pytest.approx(
                complex(sps.spherical_yn(n, x)), rel=1e-12
            )

    def test_hankel_closed_forms(self):
        # h0(x) = -i e^{ix}/x ; h1(x) = -e^{ix}(1 + i/x)/x
        x = 1.0
        assert sph_hankel1(0, x) == pytest.approx(-1j * np.exp(1j * x) / x, rel=1e-14)
        x = 2.0
        assert sph_hankel1(1, x) == pytest.approx(-np.exp(1j * x) * (1 + 1j / x) / x, rel=1e-14)

    def test_h2_complex_frozen(self):
        # 40-digit evaluation at 3 + 0.5i
        ref = 0.15346867424323953713 - 0.22754445518637077946j
        assert sph_hankel1(2, 3 + 0.5j) == pytest.approx(ref, rel=1e-13)

    def test_complex_argument_recurrence_consistency(self, rng):
        # j_{n-1} + j_{n+1} = (2n+1)/x j_n holds for complex x
        for _ in range(20):
            x = complex(rng.uniform(0.2, 40.0), rng.uniform(-5.0, 5.0))
            n = int(rng.integers(1, 9))
            lhs = sph_bessel_j(n - 1, x) + sph_bessel_j(n + 1, x)
            rhs = (2 * n + 1) / x * sph_bessel_j(n, x)
            assert abs(lhs - rhs) <= 1e-11 * max(abs(lhs), abs(rhs), 1e-30)

    def test_pole_at_zero(self):
        with pytest.raises(PhysicsError):
            sph_hankel1(1, 0.0)
        with pytest.raises(PhysicsError):
            sph_bessel_y(0, 0.0)

    def test_wronskian(self):
        # j_n y_n' - j_n' y_n = 1/x^2
        for n in range(0, 6):
            for x in np.linspace(0.1, 50.0, 37):
                w = sph_bessel_j(n, x) * sph_bessel_y_dx(n, x) - sph_bessel_j_dx(n, x) * sph_bessel_y(n, x)
                assert w.real == pytest.approx(1.0 / x**2, rel=1e-10)


class TestAssociatedLegendre:
    def test_low_orders(self):
        for u in (-0.9, -0.3, 0.0, 0.4, 0.99):
            assert assoc_legendre(1, 0, u) == pytest.approx(u, abs=1e-15)
            assert assoc_legendre(1, 1, u) == pytest.approx(np.sqrt(1 - u * u), rel=1e-14)

    def test_p21_frozen(self):
        # recurrence oracle: P_2^1(u) = 3 u sqrt(1-u^2) in this phase convention
        assert assoc_legendre(2, 1, 0.5) == pytest.approx(1.2990381056766579701, rel=1e-14)

    def test_against_scipy_up_to_phase(self):
        # scipy's lpmv carries the Condon-Shortley phase: P_n^m = (-1)^m lpmv
        for n in range(1, 6):
            for m in range(0, n + 1):
                for u in (-0.7, 0.1, 0.6):
                    ours = assoc_legendre(n, m, u)
                    ref = (-1.0) ** m * sps.lpmv(m, n, u)
                    assert ours == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            assoc_legendre(2, 1, 1.5)

    def test_dtheta_against_finite_difference(self):
        h = 1e-6
        for n in range(1, 5):
            for m in range(0, n + 1):
                for theta in (0.3, 1.2, 2.7):
                    fd = (
                        assoc_legendre(n, m, np.cos(theta + h))
                        - assoc_legendre(n, m, np.cos(theta - h))
                    ) / (2 * h)
                    assert assoc_legendre_dtheta(n, m, theta) == pytest.approx(fd, rel=1e-8, abs=1e-8)


class TestVectorWaves:
    def test_radial_component_structure_small_kr(self):
        # e_r component of V at theta=0: n(n+1) P_n^m(1) cos(m phi) j_n(kr)/(kr) / sqrt(2)
        idx = WaveFunctionIndex(Parity.EVEN, 0, 1, RadialKind.BESSEL)
        k = 1.0e7
        r = 1e-9  # kr = 1e-2, deep small-argument regime
        p = SphericalPoint(r, 1e-12, 0.3)
        v = vector_wave_V(idx, p, k)
        expected_r = 2.0 * (sph_bessel_j(1, k * r) / (k * r)) / np.sqrt(2.0)
        assert v[0] == pytest.approx(expected_r, rel=1e-9)
        assert np.isfinite(v).all()

    def test_v_frozen_value(self):
        # e_r component at theta=pi/2, phi=0, m=1, n=1, even, kr=2 (40-digit eval)
        idx = WaveFunctionIndex(Parity.EVEN, 1, 1, RadialKind.BESSEL)
        p = SphericalPoint(2.0, np.pi / 2, 0.0)
        v = vector_wave_V(idx, p, 1.0)
        assert v[0] == pytest.approx(0.307872719201886589, rel=1e-13)
        assert abs(v[1]) < 1e-15 and abs(v[2]) < 1e-15

    def test_w_frozen_value(self):
        # W(even, m=0, n=1) at kr=2, theta=1 (40-digit eval)
        idx = WaveFunctionIndex(Parity.EVEN, 0, 1, RadialKind.BESSEL)
        p = SphericalPoint(2.0, 1.0, 0.7)
        w = vector_wave_W(idx, p, 1.0)
        assert w[0] == pytest.approx(-0.16634434009867361983, rel=1e-13)
        assert w[1] == pytest.approx(0.14098747789886795735, rel=1e-13)
        assert w[2] == pytest.approx(0.25906596022229649704, rel=1e-13)

    def test_v_frozen_value_generic_point(self):
        idx = WaveFunctionIndex(Parity.EVEN, 1, 1, RadialKind.BESSEL)
        p = SphericalPoint(1.3, 1.1, 0.7)
        v = vector_wave_V(idx, p, 1.0)
        assert v[0] == pytest.approx(0.27019796353598043412, rel=1e-13)
        assert v[1] == pytest.approx(-0.052921371138847485968, rel=1e-12)
        assert v[2] == pytest.approx(-0.2993448034918601957, rel=1e-13)

    def test_v_plus_w_cancels_radial_part(self, rng):
        # V + W = sqrt(2) M: purely tangential, with M_theta = pi*azim*u etc.
        for _ in range(10):
            n = int(rng.integers(1, 4))
            m = int(rng.integers(0, n + 1))
            parity = Parity.EVEN if rng.random() < 0.5 else Parity.ODD
            idx = WaveFunctionIndex(parity, m, n, RadialKind.BESSEL)
            p = SphericalPoint(rng.uniform(0.5, 3.0), rng.uniform(0.3, 2.8), rng.uniform(0, 6.28))
            v = vector_wave_V(idx, p, 2.0)
            w = vector_wave_W(idx, p, 2.0)
            total = v + w
            assert abs(total[0]) < 1e-13 * max(1.0, np.max(np.abs(v)))
            # remaining tangential part carries the radial function u alone:
            # (V+W)_phi / (V+W)_theta is independent of the radial kind
            idxh = WaveFunctionIndex(parity, m, n, RadialKind.HANKEL1)
            vh = vector_wave_V(idxh, p, 2.0)
            wh = vector_wave_W(idxh, p, 2.0)
            th = vh + wh
            if abs(total[1]) > 1e-12 and abs(th[1]) > 1e-12:
                assert total[2] / total[1] == pytest.approx(th[2] / th[1], rel=1e-9)

    def test_real_for_real_arguments(self, rng):
        for _ in range(5):
            idx = WaveFunctionIndex(Parity.ODD, 1, 2, RadialKind.BESSEL)
            p = SphericalPoint(rng.uniform(0.5, 2.0), rng.uniform(0.2, 2.9), rng.uniform(0, 6.28))
            for f in (vector_wave_V, vector_wave_W):
                val = f(idx, p, 3.0)
                assert np.max(np.abs(val.imag)) < 1e-14 * max(1.0, np.max(np.abs(val)))

    def test_hankel_pole_at_origin(self):
        idx = WaveFunctionIndex(Parity.EVEN, 0, 1, RadialKind.HANKEL1)
        with pytest.raises(PhysicsError):
            vector_wave_V(idx, SphericalPoint(0.0, 1.0, 0.0), 1.0)

    @pytest.mark.parametrize("kind", [RadialKind.BESSEL, RadialKind.HANKEL1])
    def test_curl_eigen_relations(self, kind, rng):
        """curl V(k) = +k V(k) and curl W(k) = -k W(k), via finite differences."""
        k_plus = 1.45e7  # 1/m scale of an optical medium
        k_minus = 1.55e7
        for n in range(1, 4):
            for m in range(0, n + 1):
                for parity in (Parity.EVEN, Parity.ODD):
                    if parity is Parity.ODD and m == 0:
                        continue  # identically zero family
                    idx = WaveFunctionIndex(parity, m, n, kind)
                    for _ in range(4):
                        xyz = rng.normal(size=3)
                        xyz *= rng.uniform(0.5, 2.5) / (np.linalg.norm(xyz) * 1e7)
                        r = np.linalg.norm(xyz)
                        h = 1e-6 * r
                        for which, kval, sign in (("V", k_plus, 1.0), ("W", k_minus, -1.0)):
                            field = lambda q: vector_wave_cartesian(idx, q, kval, which)
                            curl = fd_curl(field, xyz, h)
                            ref = sign * kval * field(xyz)
                            scale = np.max(np.abs(ref))
                            if scale < 1e-20:
                                continue
                            assert np.max(np.abs(curl - ref)) <= 1e-6 * scale
