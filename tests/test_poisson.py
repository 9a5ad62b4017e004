import cmath
import json
import math

import numpy as np
import pytest

from fsx.cli import main as cli_main
from fsx.errors import DimensionTooSmall, HomogeneousDCViolation, InvalidExponent, InvalidParameter
from fsx.lattice import (
    default_oversample,
    evaluate,
    field_from_modes,
    make_lattice,
    plane_wave,
    zero_field,
)
from fsx.norms import SpaceSpec, besov_norm, sobolev_norm
from fsx.poisson import (
    PoissonField,
    materialize_poisson,
    poisson_besov_norm,
    poisson_extend,
    trace,
)

TWO_PI = 2.0 * math.pi


def random_boundary(lat1, seed, count=10):
    rng = np.random.default_rng(seed)
    modes = {}
    while len(modes) < count:
        k = (int(rng.integers(-lat1.K, lat1.K + 1)),)
        if k[0] != 0:
            modes[k] = complex(rng.standard_normal(), rng.standard_normal()) * (
                1 + abs(k[0])
            ) ** -2.0
    return field_from_modes(lat1, modes), modes


class TestTrace:
    def test_vertical_mode_collapses(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (2, 3))
        g = trace(u)
        assert g.lattice.n == 1
        want = plane_wave(g.lattice, (2,))
        assert np.max(np.abs(g.coef - want.coef)) == 0.0

    def test_sine_has_zero_trace(self):
        lat = make_lattice(2, 8)
        u = field_from_modes(lat, {(1, 1): 1 / 2j, (1, -1): -1 / 2j})
        assert trace(u).peak() < 1e-15

    def test_needs_two_dimensions(self):
        lat = make_lattice(1, 8)
        with pytest.raises(DimensionTooSmall):
            trace(plane_wave(lat, (1,)))


class TestPoissonExtend:
    def test_single_mode_profile(self):
        blat = make_lattice(1, 8)
        g = plane_wave(blat, (1,))
        pf = poisson_extend(g)
        for xn in (0.0, 0.5, 2.0):
            want = cmath.exp(-xn) * cmath.exp(1j * 0.3)
            assert abs(pf.evaluate((0.3, xn)) - want) < 1e-14

    def test_decay_rate_five(self):
        blat = make_lattice(1, 8)
        g = plane_wave(blat, (5,))
        pf = poisson_extend(g)
        got = pf.evaluate((0.0, math.log(2.0)))
        assert abs(got - 2.0**-5) < 1e-14

    @pytest.mark.parametrize("x", [(0.5, math.nan), (0.5, math.inf), (math.nan, 0.5)])
    def test_nonfinite_point_refused(self, x):
        pf = poisson_extend(plane_wave(make_lattice(1, 8), (1,)))
        with pytest.raises(InvalidParameter):
            pf.evaluate(x)

    def test_mixed_modes_against_oracle(self):
        blat = make_lattice(1, 16)
        g, modes = random_boundary(blat, 3)
        pf = poisson_extend(g)
        rng = np.random.default_rng(4)
        pts = rng.uniform(0, TWO_PI, size=(20, 2))
        pts[:, 1] = rng.uniform(0, math.pi, size=20)
        for x1, xn in pts:
            want = sum(
                c * cmath.exp(-xn * abs(k[0])) * cmath.exp(1j * k[0] * x1)
                for k, c in modes.items()
            )
            assert abs(pf.evaluate((x1, xn)) - want) < 1e-13 * max(abs(want), 1.0)

    def test_trace_recovers_data_exactly(self):
        blat = make_lattice(1, 16)
        g, _ = random_boundary(blat, 5)
        pf = poisson_extend(g)
        assert np.max(np.abs(pf.slice_field(0.0).coef - g.coef)) == 0.0

    def test_mean_rejected(self):
        blat = make_lattice(1, 8)
        g = field_from_modes(blat, {(0,): 1.0, (1,): 1.0})
        with pytest.raises(HomogeneousDCViolation):
            poisson_extend(g)

    def test_semigroup_depth_composition(self):
        blat = make_lattice(1, 16)
        g, _ = random_boundary(blat, 6)
        pf = poisson_extend(g)
        a, b = 0.7, 1.9
        restarted = poisson_extend(pf.slice_field(a))
        lhs = restarted.slice_field(b)
        rhs = pf.slice_field(a + b)
        assert np.max(np.abs(lhs.coef - rhs.coef)) < 1e-13 * max(rhs.peak(), 1e-30)

    def test_harmonicity_finite_difference(self):
        # wait: per-mode the vertical second derivative balances |xi'|^2;
        # verify with a centered difference in x_n at interior points
        blat = make_lattice(1, 8)
        g, _ = random_boundary(blat, 7, count=4)
        pf = poisson_extend(g)
        x1, xn = 1.1, 1.3
        errs = []
        for h in (1e-2, 1e-3):
            d2_vert = (
                pf.evaluate((x1, xn + h))
                - 2.0 * pf.evaluate((x1, xn))
                + pf.evaluate((x1, xn - h))
            ) / h**2
            d2_horiz = (
                pf.evaluate((x1 + h, xn))
                - 2.0 * pf.evaluate((x1, xn))
                + pf.evaluate((x1 - h, xn))
            ) / h**2
            errs.append(abs(d2_vert + d2_horiz))
        assert errs[1] < max(errs[0] / 50.0, 1e-9)


class TestMaterialize:
    def test_fast_decay_negligible_leakage(self):
        # leakage at the far face is exponentially small even though the seam
        # jump at x_n = 0 makes the projection residual sizeable
        lat = make_lattice(2, 16)
        blat = lat.boundary()
        g = plane_wave(blat, (8,))
        pf = poisson_extend(g)
        _, residual = materialize_poisson(pf, lat)
        assert pf.leakage() <= math.exp(-8.0 * (lat.L / 2.0 - lat.L / 16.0)) * 1.01
        assert 0.0 < residual < 1.0

    def test_slow_mode_leakage_matches_analytic(self):
        lat = make_lattice(2, 16)
        g = plane_wave(lat.boundary(), (1,))
        pf = poisson_extend(g)
        _, residual = materialize_poisson(pf, lat)
        # max of e^{-x_n} over the far band sits at its inner grid edge
        M = default_oversample(lat)
        band = max(int(M / 16), 1)
        xn_min = (M // 2 - band) * (lat.L / M)
        want = math.exp(-xn_min)
        assert abs(pf.leakage() - want) < 1e-6
        assert residual > 1e-4  # the kink of the even profile at the seam is genuine

    def test_zero_data(self):
        lat = make_lattice(2, 8)
        hf, residual = materialize_poisson(PoissonField(zero_field(lat.boundary())), lat)
        assert residual == 0.0
        assert hf.field.peak() == 0.0

    def test_restriction_matches_profile(self):
        # inside the strip the materialized field reproduces the profile up to
        # the seam ringing reported by the residual
        lat = make_lattice(2, 32)
        g = plane_wave(lat.boundary(), (3,))
        pf = poisson_extend(g)
        hf, residual = materialize_poisson(pf, lat)
        pts = np.random.default_rng(8).uniform(0.3, math.pi - 0.3, size=(10, 2))
        for x1, xn in pts:
            want = pf.evaluate((x1, xn))
            got = evaluate(hf.field, (x1, xn))
            assert abs(got - want) <= 5.0 * residual + 1e-10


class TestPoissonBesovNorm:
    @pytest.mark.parametrize(
        "s,alpha,p,q",
        [(0.5, 0.0, 2.0, 2.0), (0.3, 1.0, 2.0, 1.0), (0.7, 0.5, 4.0, 4.0)],
    )
    def test_single_mode_gamma_oracle(self, s, alpha, p, q):
        # closed form: ||t^s w^a e^{-t w}||_{L^q(dt/t)} = w^{a-s} (Gamma(sq)/(q w)^{sq} w^{sq})^{1/q}
        lat = make_lattice(2, 16)
        u = plane_wave(lat, (3, 4))
        w = 5.0
        want = (
            w ** (alpha - s)
            * (math.gamma(s * q) / q ** (s * q)) ** (1.0 / q)
            * (lat.L**lat.n) ** (1.0 / p)
        )
        got = poisson_besov_norm(u, s, alpha, p, q)
        assert got == pytest.approx(want, rel=1e-6)

    def test_single_mode_sup_version(self):
        # q = inf: sup_t t^s w^a e^{-tw} = (s/e)^s w^{a-s}
        lat = make_lattice(2, 16)
        u = plane_wave(lat, (1, 0))
        s, alpha = 0.5, 0.0
        want = (s / math.e) ** s * (lat.L**lat.n) ** 0.5
        got = poisson_besov_norm(u, s, alpha, 2.0, math.inf)
        assert got == pytest.approx(want, rel=1e-6)

    def test_zero_field(self):
        lat = make_lattice(2, 16)
        assert poisson_besov_norm(zero_field(lat), 0.5, 0.0, 2.0, 2.0) == 0.0

    def test_requires_positive_s(self):
        lat = make_lattice(2, 8)
        with pytest.raises(InvalidParameter):
            poisson_besov_norm(plane_wave(lat, (1, 0)), -0.1, 0.0, 2.0, 2.0)

    @pytest.mark.parametrize("s, alpha", [(math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan),
                                          (0.5, math.inf)])
    def test_nonfinite_regularity_refused(self, s, alpha):
        with pytest.raises(InvalidParameter):
            poisson_besov_norm(plane_wave(make_lattice(2, 8), (1, 0)), s, alpha, 2.0, 2.0)

    @pytest.mark.parametrize("q", [0.5, math.nan])
    def test_outer_exponent_below_one_refused(self, q):
        lat = make_lattice(2, 8)
        for u in (plane_wave(lat, (1, 0)), zero_field(lat)):
            with pytest.raises(InvalidExponent):
                poisson_besov_norm(u, 0.5, 0.0, 2.0, q)

    def test_comparable_to_block_norm(self):
        lat = make_lattice(2, 32)
        rng = np.random.default_rng(12)
        for seed in range(3):
            modes = {}
            while len(modes) < 20:
                k = tuple(int(v) for v in rng.integers(-lat.K, lat.K + 1, size=2))
                if any(k):
                    modes[k] = complex(
                        rng.standard_normal(), rng.standard_normal()
                    ) * (1 + math.hypot(*k)) ** (-2.0)
            u = field_from_modes(lat, modes)
            for s, p, q in [(0.5, 2.0, 2.0), (0.3, 2.0, 1.0), (0.8, 4.0, 2.0)]:
                num = poisson_besov_norm(u, s, 0.0, p, q)
                den = besov_norm(u, SpaceSpec("Bdot", s=-s, p=p, q=q))
                assert 0.1 <= num / den <= 10.0


class TestBoundedness:
    def test_harmonic_extension_strip_norm_bounded(self):
        # the strip Sobolev norm of the extension is controlled by the
        # boundary block norm of regularity s - 1/p
        lat = make_lattice(2, 32)
        worst = 0.0
        for seed in range(3):
            g, _ = random_boundary(lat.boundary(), 30 + seed, count=12)
            pf = poisson_extend(g)
            hf, residual = materialize_poisson(pf, lat)
            for s, p in [(0.5, 2.0), (1.0, 2.0), (1.5, 2.0), (1.0, 4.0)]:
                num = sobolev_norm(
                    hf.field, SpaceSpec("Hdot", s=s, p=p, domain="halfspace")
                )
                den = besov_norm(
                    g, SpaceSpec("Bdot", s=s - 1.0 / p, p=p, q=p)
                )
                worst = max(worst, num / den)
        assert worst <= 20.0


class TestSeamFree:
    """The materialized extension is the even profile exp(-|x_n| |xi'|), which
    has no jump at the seam x_n = 0; the one-sided profile it replaced jumped
    by 1 - exp(-L |xi'|) there, and its norms grew with the bandlimit."""

    def test_extension_ratio_does_not_grow_with_the_bandlimit(self):
        # the Hdot^1.5 norm of the materialized boundary mode k' = 1 over the
        # Bdot^1_{2,2} norm of its data: 3.95, 4.39, 4.80 and 5.18 at
        # K = 8, 16, 32 and 64 (the one-sided profile read 7.66 to 54.48)
        ratios = []
        for K in (8, 16, 32, 64):
            lat = make_lattice(2, K)
            g = plane_wave(lat.boundary(), (1,))
            hf, _ = materialize_poisson(poisson_extend(g), lat)
            ratios.append(sobolev_norm(hf.field, SpaceSpec("Hdot", s=1.5, p=2))
                          / besov_norm(g, SpaceSpec("Bdot", s=1.0, p=2, q=2)))
        assert ratios == sorted(ratios)
        assert ratios[-1] / ratios[0] <= 1.5

    def test_desk_seed_256_passes_the_poisson_suite(self, tmp_path):
        # extension_bounded read 20.085 against its bound 20 with the one-sided profile
        out = tmp_path / "poisson.json"
        assert cli_main(["verify", "--suite", "poisson", "--dim", "2", "--bandlimit", "32",
                         "--size", "8", "--seed", "256", "--out", str(out)]) == 0
        cases = {c["case"]: c for c in json.loads(out.read_text())["cases"]}
        assert cases["extension_bounded"]["value"] == pytest.approx(3.609, abs=1e-3)
