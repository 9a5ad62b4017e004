import math

import numpy as np
import pytest

from fsx.errors import HomogeneousDCViolation, InvalidParameter, SpectrumHit
from fsx.lattice import (
    DC_TOL,
    field_from_modes,
    is_homogeneous_admissible,
    make_lattice,
    plane_wave,
    xi_norm_sq,
)
from fsx.multipliers import (
    bessel_potential,
    derivative,
    fractional_laplacian,
    gradient,
    laplacian,
    poisson_decay,
    resolvent_wholespace,
)
from grid_reference import hessian


def random_zero_dc(lat, seed, count=12):
    rng = np.random.default_rng(seed)
    modes = {}
    while len(modes) < count:
        k = tuple(int(v) for v in rng.integers(-lat.K, lat.K + 1, size=lat.n))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    return field_from_modes(lat, modes), modes


class TestFractionalLaplacian:
    def test_s2_is_minus_laplacian(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (1, 0))
        v = fractional_laplacian(u, 2)
        assert np.max(np.abs(v.coef - u.coef)) < 1e-14

    def test_s1_on_345(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (3, 4))
        v = fractional_laplacian(u, 1)
        assert np.max(np.abs(v.coef - 5.0 * u.coef)) < 1e-13

    def test_half_and_minus_half_compose_to_identity(self):
        lat = make_lattice(2, 8)
        u, _ = random_zero_dc(lat, 3)
        v = fractional_laplacian(fractional_laplacian(u, 0.5), -0.5)
        assert np.max(np.abs(v.coef - u.coef)) < 1e-12 * u.peak()

    def test_semigroup(self):
        lat = make_lattice(2, 8)
        u, _ = random_zero_dc(lat, 4)
        s, t = 0.3, -0.9
        lhs = fractional_laplacian(fractional_laplacian(u, s), t)
        rhs = fractional_laplacian(u, s + t)
        assert np.max(np.abs(lhs.coef - rhs.coef)) < 1e-12 * rhs.peak()

    def test_dc_violation(self):
        lat = make_lattice(2, 4)
        u = field_from_modes(lat, {(0, 0): 1.0, (1, 0): 1.0})
        with pytest.raises(HomogeneousDCViolation):
            fractional_laplacian(u, 0.5)

    def test_tiny_dc_is_dropped(self):
        lat = make_lattice(2, 4)
        u = field_from_modes(lat, {(0, 0): 1e-14, (1, 0): 1.0})
        v = fractional_laplacian(u, 1.0)
        assert v.dc == 0.0


DC_SIDES = pytest.mark.parametrize("factor", [0.0, 0.5, 0.999, 1.001, 2.0, 1e6])


def with_dc(factor):
    """A field whose mean is factor * DC_TOL times its largest amplitude."""
    lat = make_lattice(2, 4)
    return field_from_modes(lat, {(0, 0): factor * DC_TOL * 3.0, (1, 0): 3.0, (0, 2): -1.0j})


class TestRefusedExactlyWhenNotMeanFree:
    """The symbols undefined at xi = 0 refuse a field exactly when
    is_homogeneous_admissible does, on both sides of DC_TOL * peak, and
    otherwise zero the mean."""

    @DC_SIDES
    @pytest.mark.parametrize("apply", [lambda u: fractional_laplacian(u, 0.5),
                                       lambda u: resolvent_wholespace(u, 0.0)],
                             ids=["fractional_laplacian", "inverse_laplacian"])
    def test_both_sides_of_the_tolerance(self, factor, apply):
        u = with_dc(factor)
        if is_homogeneous_admissible(u):
            assert factor < 1.0
            assert apply(u).dc == 0.0
        else:
            assert factor > 1.0
            with pytest.raises(HomogeneousDCViolation):
                apply(u)


class TestBesselPotential:
    def test_s0_identity(self):
        lat = make_lattice(2, 6)
        u, _ = random_zero_dc(lat, 5)
        v = bessel_potential(u, 0.0)
        assert np.max(np.abs(v.coef - u.coef)) == 0.0

    def test_constant_invariant(self):
        lat = make_lattice(2, 4)
        u = field_from_modes(lat, {(0, 0): 2.0})
        v = bessel_potential(u, 1.7)
        assert np.max(np.abs(v.coef - u.coef)) < 1e-15

    def test_s2_on_wave(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (1, 1))
        v = bessel_potential(u, 2)
        assert np.max(np.abs(v.coef - 3.0 * u.coef)) < 1e-14


class TestDerivative:
    def test_first_partial(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (1, 0))
        v = derivative(u, (1, 0))
        assert np.max(np.abs(v.coef - 1j * u.coef)) < 1e-15

    @pytest.mark.parametrize("order", [math.nan, math.inf, -1, 0.5])
    def test_bad_multi_index_refused(self, order):
        with pytest.raises(InvalidParameter):
            derivative(plane_wave(make_lattice(2, 4), (1, 0)), (order, 0))

    def test_mixed_derivative_oracle(self):
        lat = make_lattice(2, 10)
        u, modes = random_zero_dc(lat, 6)
        v = derivative(u, (2, 1))
        for k, c in modes.items():
            want = c * (1j * k[0]) ** 2 * (1j * k[1])
            got = v.coef[tuple(ki + lat.K for ki in k)]
            assert abs(got - want) < 1e-14 * max(abs(want), 1.0)


class TestCommutation:
    def test_multipliers_commute(self):
        lat = make_lattice(2, 8)
        u, _ = random_zero_dc(lat, 7)
        a = bessel_potential(fractional_laplacian(u, 0.7), -1.1)
        b = fractional_laplacian(bessel_potential(u, -1.1), 0.7)
        assert np.max(np.abs(a.coef - b.coef)) < 1e-13 * max(a.peak(), 1e-30)


class TestResolventWholespace:
    def test_wave_real_shift(self):
        lat = make_lattice(2, 4)
        f = plane_wave(lat, (1, 0))
        u = resolvent_wholespace(f, 1.0)
        assert np.max(np.abs(u.coef - f.coef / 2.0)) < 1e-14

    def test_wave_imag_shift(self):
        lat = make_lattice(2, 8)
        f = plane_wave(lat, (3, 4))
        u = resolvent_wholespace(f, 1j)
        assert np.max(np.abs(u.coef - f.coef / (25.0 + 1j))) < 1e-14

    def test_residual_on_random_corpus(self):
        lat = make_lattice(2, 12)
        lam = 10.0 * np.exp(3j * math.pi / 8)
        for seed in range(4):
            f, _ = random_zero_dc(lat, 100 + seed)
            u = resolvent_wholespace(f, lam)
            residual = lam * u.coef + xi_norm_sq(lat) * u.coef - f.coef
            rel = np.linalg.norm(residual) / np.linalg.norm(f.coef)
            assert rel < 1e-12

    def test_exact_inverse(self):
        lat = make_lattice(2, 8)
        f, _ = random_zero_dc(lat, 8)
        lam = 2.0 + 0.5j
        g = lam * f - laplacian(f)
        u = resolvent_wholespace(g, lam)
        assert np.max(np.abs(u.coef - f.coef)) < 1e-12 * f.peak()

    @pytest.mark.parametrize("lam", [math.nan, complex(1.0, math.nan), math.inf])
    def test_nonfinite_shift_refused(self, lam):
        with pytest.raises(InvalidParameter):
            resolvent_wholespace(plane_wave(make_lattice(2, 4), (1, 0)), lam)

    def test_lam_zero_needs_zero_dc(self):
        lat = make_lattice(2, 4)
        f = field_from_modes(lat, {(0, 0): 1.0, (1, 0): 1.0})
        with pytest.raises(HomogeneousDCViolation):
            resolvent_wholespace(f, 0.0)

    def test_lam_zero_inverts_laplacian(self):
        lat = make_lattice(2, 8)
        f, _ = random_zero_dc(lat, 9)
        u = resolvent_wholespace(f, 0.0)
        v = -1.0 * laplacian(u)
        assert np.max(np.abs(v.coef - f.coef)) < 1e-12 * f.peak()

    def test_negative_axis_rejected(self):
        lat = make_lattice(2, 4)
        f = plane_wave(lat, (1, 0))
        with pytest.raises(InvalidParameter):
            resolvent_wholespace(f, -0.5)

    def test_spectrum_hit(self):
        lat = make_lattice(2, 4)
        f = plane_wave(lat, (1, 0))
        with pytest.raises(SpectrumHit):
            resolvent_wholespace(f, -1.0)


class TestPoissonDecay:
    def test_per_mode(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (3, 4))
        v = poisson_decay(u, 0.2)
        assert np.max(np.abs(v.coef - math.exp(-1.0) * u.coef)) < 1e-14

    @pytest.mark.parametrize("t", [math.nan, math.inf, -0.1])
    def test_bad_depth_refused(self, t):
        with pytest.raises(InvalidParameter):
            poisson_decay(plane_wave(make_lattice(2, 8), (3, 4)), t)

    def test_hessian_of_wave(self):
        lat = make_lattice(2, 4)
        k = (2, -1)
        u = plane_wave(lat, k)
        second = hessian(u)
        assert len(second) == 4
        for i, d in enumerate(second):
            a, b = divmod(i, 2)
            assert np.max(np.abs(d.coef + k[a] * k[b] * u.coef)) < 1e-14

    def test_gradient_components(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (2, -1))
        gx, gy = gradient(u)
        assert np.max(np.abs(gx.coef - 2j * u.coef)) < 1e-14
        assert np.max(np.abs(gy.coef + 1j * u.coef)) < 1e-14
