import cmath
import math

import numpy as np
import pytest

from fsx.corpus import cosine_strip_field, sine_strip_field
from fsx.errors import ZeroField
from fsx.halfspace import make_half_field
from fsx.lattice import (
    Field,
    field_from_modes,
    make_lattice,
    plane_wave,
    xi_norm_sq,
    zero_field,
)
from fsx.multipliers import derivative, laplacian
from fsx.norms import halfspace_product_integral, lp_norm
from fsx.poisson import trace
from fsx.solvers import (
    DIRICHLET,
    NEUMANN,
    bvp_dirichlet,
    bvp_neumann,
    energy_form,
    resolvent_estimate_check,
    resolvent_halfspace,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 32)


def sine_mode(lat, m=1, kx=1, amp=1.0):
    return field_from_modes(lat, {(kx, m): amp / 2j, (kx, -m): -amp / 2j})


def cosine_mode(lat, m=1, kx=1, amp=1.0):
    return field_from_modes(lat, {(kx, m): amp / 2.0, (kx, -m): amp / 2.0})


def strip_points(lat, rng, count=20, margin=0.05):
    pts = np.empty((count, 2))
    pts[:, 0] = rng.uniform(0.0, lat.L, count)
    pts[:, 1] = rng.uniform(margin, lat.L / 2.0 - margin, count)
    return pts


class TestResolventHalfspace:
    def test_dirichlet_eigenmode(self, lat):
        # sin(x_n) e^{i x_1}: Laplacian eigenvalue 2, so (1 - Lap)^{-1} f = f/3
        f = make_half_field(sine_mode(lat))
        u, res = resolvent_halfspace(f, 1.0, DIRICHLET)
        assert res <= 1e-12
        assert np.max(np.abs(u.field.coef - f.field.coef / 3.0)) < 1e-12

    def test_neumann_eigenmode(self, lat):
        f = make_half_field(cosine_mode(lat, m=2))
        u, res = resolvent_halfspace(f, 1j, NEUMANN)
        assert res <= 1e-12
        want = f.field.coef / (1j + 5.0)
        assert np.max(np.abs(u.field.coef - want)) < 1e-13

    def test_image_identity_against_direct_division(self, lat):
        # the sine corpus is globally odd, so the resolvent is mode-wise
        # division; the image pipeline must reproduce it
        lam = 10.0 * cmath.exp(1j * math.pi / 3)
        for seed in range(3):
            rng = np.random.default_rng(50 + seed)
            f = sine_strip_field(lat, rng)
            direct = Field(lat, f.coef / (lam + xi_norm_sq(lat)))
            u, _ = resolvent_halfspace(make_half_field(f), lam, DIRICHLET)
            scale = max(np.abs(direct.coef).max(), 1e-30)
            assert np.max(np.abs(u.field.coef - direct.coef)) <= 1e-10 * scale

    def test_image_identity_neumann(self, lat):
        lam = 0.1 * cmath.exp(1j * 0.74 * math.pi)
        rng = np.random.default_rng(60)
        f = cosine_strip_field(lat, rng)
        direct = Field(lat, f.coef / (lam + xi_norm_sq(lat)))
        u, _ = resolvent_halfspace(make_half_field(f), lam, NEUMANN)
        scale = max(np.abs(direct.coef).max(), 1e-30)
        assert np.max(np.abs(u.field.coef - direct.coef)) <= 1e-10 * scale

    def test_dirichlet_boundary_vanishes(self, lat):
        rng = np.random.default_rng(61)
        f = sine_strip_field(lat, rng)
        u, _ = resolvent_halfspace(make_half_field(f), 2.0, DIRICHLET)
        assert trace(u.field).peak() <= 1e-12 * u.field.peak()

    def test_neumann_boundary_derivative_vanishes(self, lat):
        rng = np.random.default_rng(62)
        f = cosine_strip_field(lat, rng)
        u, _ = resolvent_halfspace(make_half_field(f), 2.0, NEUMANN)
        dn = trace(derivative(u.field, (0, 1)))
        assert dn.peak() <= 1e-12 * max(u.field.peak(), 1e-30)

    def test_zero_source_gives_zero(self, lat):
        f = make_half_field(zero_field(lat))
        u, _ = resolvent_halfspace(f, 1.0 + 1.0j, DIRICHLET)
        assert u.field.peak() == 0.0


class TestResolventEstimates:
    def test_eigenmode_real_shift_ratio(self, lat):
        f = make_half_field(sine_mode(lat))  # eigenvalue w^2 = 2
        lam = 3.0
        r0, r1, r2 = resolvent_estimate_check(f, lam, DIRICHLET)
        assert r0 == pytest.approx(lam / (lam + 2.0), rel=1e-10)
        assert r0 <= 1.0
        assert r1 == pytest.approx(math.sqrt(lam) * math.sqrt(2.0) / (lam + 2.0), rel=1e-10)
        assert r2 == pytest.approx(2.0 / (lam + 2.0), rel=1e-10)

    def test_ray_sweep_bounded(self, lat):
        rng = np.random.default_rng(70)
        f = make_half_field(sine_strip_field(lat, rng))
        for theta in (0.0, math.pi / 4, math.pi / 2):
            for mod in (0.1, 1.0, 10.0, 100.0):
                lam = mod * cmath.exp(1j * theta)
                r0, r1, r2 = resolvent_estimate_check(f, lam, DIRICHLET)
                assert r0 + r1 + r2 < 10.0

    def test_zero_field_raises(self, lat):
        with pytest.raises(ZeroField):
            resolvent_estimate_check(make_half_field(zero_field(lat)), 1.0, DIRICHLET)

    def test_source_whose_squares_underflow_is_refused(self, lat):
        f = make_half_field(sine_mode(lat, amp=1e-200))
        with pytest.raises(ZeroField):
            resolvent_estimate_check(f, 1.0, DIRICHLET)

    @pytest.mark.parametrize("K", [1, 2, 8])
    def test_no_nonzero_strip_mode_reads_zero(self, K):
        """The zero-source test reads the strip L2 norm: a column of degree
        <= K cannot vanish at the M/2 >= 4K heights the rule reads, so no
        single sine or cosine mode reads 0."""
        lat = make_lattice(2, K)
        for kx in range(-K, K + 1):
            for k in range(K + 1):
                for sign in (1.0, -1.0)[: 2 if k else 1]:
                    u = field_from_modes(lat, {(kx, k): 0.5, (kx, -k): 0.5 * sign})
                    assert lp_norm(u, 2.0, "halfspace") > 0.0


class TestDirichletBVP:
    def test_pure_boundary_data_is_poisson_profile(self, lat):
        g = plane_wave(lat.boundary(), (1,))
        sol = bvp_dirichlet(None, g)
        assert sol.lattice == lat
        rng = np.random.default_rng(80)
        for x1, xn in strip_points(lat, rng):
            want = cmath.exp(-xn) * cmath.exp(1j * x1)
            assert abs(sol.evaluate((x1, xn)) - want) < 1e-10

    def test_eigenmode_source_zero_boundary(self, lat):
        f = make_half_field(sine_mode(lat))
        sol = bvp_dirichlet(f, None)
        # -Lap eigenvalue is 2, harmonic part vanishes
        assert np.max(np.abs(sol.v.coef - f.field.coef / 2.0)) < 1e-12
        assert sol.w.boundary.peak() < 1e-12
        assert sol.interior_residual() <= 1e-10
        assert sol.boundary_mismatch() <= 1e-10

    def test_mixed_data_residuals(self, lat):
        rng = np.random.default_rng(81)
        f = make_half_field(sine_strip_field(lat, rng))
        gmodes = {(2,): 0.3 + 0.1j, (-1,): 0.2j}
        g = field_from_modes(lat.boundary(), gmodes)
        sol = bvp_dirichlet(f, g)
        scale = lp_norm(f.field, 2.0, "halfspace")
        assert sol.interior_residual() <= 1e-8 * scale + 10 * sol.reflection_residual
        assert sol.boundary_mismatch() <= 1e-8 * max(lp_norm(g, math.inf), 1.0)

    def test_linearity(self, lat):
        rng = np.random.default_rng(82)
        f1 = sine_strip_field(lat, rng)
        f2 = sine_strip_field(lat, rng)
        g1 = field_from_modes(lat.boundary(), {(1,): 0.5})
        g2 = field_from_modes(lat.boundary(), {(3,): -0.25j})
        a = bvp_dirichlet(make_half_field(f1), g1)
        b = bvp_dirichlet(make_half_field(f2), g2)
        c = bvp_dirichlet(make_half_field(f1 + f2), g1 + g2)
        pts = strip_points(lat, rng, count=8)
        for x in pts:
            lhs = c.evaluate(x)
            rhs = a.evaluate(x) + b.evaluate(x)
            assert abs(lhs - rhs) < 1e-9 * max(abs(rhs), 1.0)

    def test_uniqueness_zero_data(self, lat):
        sol = bvp_dirichlet(make_half_field(zero_field(lat)), None)
        assert sol.v.peak() == 0.0
        assert sol.w.boundary.peak() == 0.0


class TestNeumannBVP:
    def test_pure_boundary_data(self, lat):
        # with nu = -e_n the extension e^{-x_n} e^{i x_1} has normal
        # derivative +1 * e^{i x_1} at the boundary
        g = plane_wave(lat.boundary(), (1,))
        sol = bvp_neumann(None, g)
        assert sol.lattice == lat
        rng = np.random.default_rng(83)
        for x1, xn in strip_points(lat, rng):
            want = cmath.exp(-xn) * cmath.exp(1j * x1)
            assert abs(sol.evaluate((x1, xn)) - want) < 1e-10
        assert sol.boundary_mismatch() <= 1e-12

    def test_eigenmode_source(self, lat):
        f = make_half_field(cosine_mode(lat))
        sol = bvp_neumann(f, None)
        assert np.max(np.abs(sol.v.coef - f.field.coef / 2.0)) < 1e-12
        assert sol.w.boundary.peak() < 1e-12
        assert sol.boundary_mismatch() <= 1e-12

    def test_mixed_data_residuals(self, lat):
        rng = np.random.default_rng(84)
        f = make_half_field(cosine_strip_field(lat, rng))
        g = field_from_modes(lat.boundary(), {(1,): 0.4, (2,): -0.3j})
        sol = bvp_neumann(f, g)
        scale = lp_norm(f.field, 2.0, "halfspace")
        assert sol.interior_residual() <= 1e-8 * scale + 10 * sol.reflection_residual
        assert sol.boundary_mismatch() <= 1e-8 * max(lp_norm(g, math.inf), 1.0)


class TestEnergyForm:
    def test_unit_gradient_eigenmode(self, lat):
        # |grad sin(x_n) e^{i x_1}|^2 = cos^2 + sin^2 = 1 on the strip
        u = make_half_field(sine_mode(lat))
        a = energy_form(u, u)
        assert a.real == pytest.approx(lat.L * (lat.L / 2.0), rel=1e-12)
        assert abs(a.imag) < 1e-12

    def test_nonnegative_on_corpus(self, lat):
        rng = np.random.default_rng(85)
        for _ in range(3):
            u = make_half_field(sine_strip_field(lat, rng))
            a = energy_form(u, u)
            assert a.real >= 0.0
            assert abs(a.imag) <= 1e-12 * max(a.real, 1.0)

    def test_conjugate_symmetry(self, lat):
        rng = np.random.default_rng(86)
        u = make_half_field(sine_strip_field(lat, rng))
        v = make_half_field(sine_strip_field(lat, rng))
        auv = energy_form(u, v)
        avu = energy_form(v, u)
        assert abs(auv - avu.conjugate()) < 1e-12 * max(abs(auv), 1.0)

    def test_integration_by_parts_for_compatible_modes(self, lat):
        # Dirichlet-compatible pair: boundary terms vanish, so the form equals
        # the strip integral of (-Lap u) conj v
        u = make_half_field(sine_mode(lat, m=1, kx=1))
        v = make_half_field(sine_mode(lat, m=2, kx=1, amp=0.7))
        a = energy_form(u, v)
        want = halfspace_product_integral(-1.0 * laplacian(u.field), v.field)
        assert abs(a - want) < 1e-9 * max(abs(want), 1.0)
