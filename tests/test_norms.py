import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.lattice as fsx_lattice
import fsx.norms as fsx_norms
import fsx.suites as fsx_suites
from fsx.corpus import generate_corpus
from fsx.dyadic import annulus_values, delta_dot, delta_inhom
from fsx.errors import AliasingRisk, HomogeneousDCViolation, InvalidExponent, InvalidParameter
from fsx.halfspace import far_band_rows
from fsx.multipliers import bessel_potential, fractional_laplacian
from fsx.lattice import (
    Field,
    default_oversample,
    exact_grid,
    field_from_modes,
    grid_slabs,
    make_lattice,
    occupied,
    plane_wave,
    zero_field,
)
from fsx.norms import (
    SpaceSpec,
    besov_norm,
    block_norms,
    get_family,
    halfspace_product_integral,
    lp_norm,
    norm_ignoring_mean,
    pairing,
    parse_space_spec,
    rectangle_rule,
    seq_norm,
    sobolev_norm,
    sobolev_norms,
    space_norm,
    square_function,
    triebel_norm,
    triebel_norms,
)
from fsx.suites import SuiteConfig, interp_besov_ratios, suite_lp_partition, suite_norm_equiv
from grid_reference import (
    grid_rule,
    lp_norm_reference,
    norm_on_grid,
    sample_grid_reference,
    slab_grid,
    sup_reference,
    triebel_norm_reference,
)

TWO_PI = 2.0 * math.pi


def random_zero_dc(lat, seed, count=15, kmax=None):
    rng = np.random.default_rng(seed)
    kmax = kmax or lat.K
    modes = {}
    while len(modes) < count:
        k = tuple(int(v) for v in rng.integers(-kmax, kmax + 1, size=lat.n))
        if any(k):
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    return field_from_modes(lat, modes), modes


class TestLpNorm:
    def test_unimodular_wave(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (1, 1))
        for p in (1.0, 4.0 / 3.0, 2.0, 4.0):
            assert lp_norm(u, p) == pytest.approx((4 * math.pi**2) ** (1 / p), rel=1e-12)

    def test_sup_of_constant(self):
        lat = make_lattice(2, 4)
        u = field_from_modes(lat, {(0, 0): 1.0})
        assert lp_norm(u, math.inf) == pytest.approx(1.0, rel=1e-13)

    def test_sin_l4_closed_form(self):
        # integral of sin^4 over one period is 2 pi * 3/8
        lat = make_lattice(1, 8)
        u = field_from_modes(lat, {(1,): 1 / 2j, (-1,): -1 / 2j})
        want = (TWO_PI * 3.0 / 8.0) ** 0.25
        assert lp_norm(u, 4.0) == pytest.approx(want, rel=1e-12)

    def test_halfspace_restricts_quadrature(self):
        # sin(x_n) on the strip: integral of sin^2 over half period is pi/2
        lat = make_lattice(2, 8)
        u = field_from_modes(lat, {(0, 1): 1 / 2j, (0, -1): -1 / 2j})
        want = math.sqrt(TWO_PI * math.pi / 2.0)
        assert lp_norm(u, 2.0, domain="halfspace") == pytest.approx(want, rel=1e-6)

    def test_invalid_exponent(self):
        lat = make_lattice(1, 2)
        with pytest.raises(InvalidExponent):
            lp_norm(plane_wave(lat, (1,)), 0.5)


def random_field(lat, seed):
    """Dense random field, DC mode included."""
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    return Field(lat, coef)


class TestExactQuadrature:
    @pytest.mark.parametrize("n, K", [(2, 16), (2, 32), (3, 6)])
    def test_plancherel_matches_rectangle_rule(self, n, K):
        lat = make_lattice(n, K)
        for seed in range(3):
            u = random_field(lat, seed)
            want = lp_norm_reference(u, 2.0, "whole", default_oversample(lat))
            assert lp_norm(u, 2.0) == pytest.approx(want, rel=1e-13)

    def test_plancherel_samples_no_grid(self, monkeypatch):
        lat = make_lattice(2, 16)
        u = random_field(lat, 1)
        want = lp_norm(u, 2.0)

        def refuse(*args):
            raise AssertionError("p=2 on the whole torus sampled a grid")

        monkeypatch.setattr(fsx_norms, "grid_slabs", refuse)
        assert lp_norm(u, 2.0) == want

    @pytest.mark.parametrize("p", [4.0, 6.0])
    def test_even_p_exact_grid_matches_fine_grid(self, p):
        lat = make_lattice(2, 32)
        for seed in range(3):
            u = random_field(lat, seed)
            assert lp_norm(u, p) == pytest.approx(norm_on_grid(u, p, "whole", 256), rel=1e-12)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_triebel_exact_grid_matches_fine_grid(self, p):
        lat = make_lattice(2, 32)
        for seed in range(3):
            u, _ = random_zero_dc(lat, seed, count=40)
            for s in (-0.5, 0.7):
                fine = norm_on_grid(u, p, "whole", 256, (s,))[0]
                assert triebel_norm(u, s, p) == pytest.approx(fine, rel=1e-12)

    def test_explicit_coarse_grid_still_refused(self):
        lat = make_lattice(2, 16)
        u = random_field(lat, 2)
        with pytest.raises(AliasingRisk):
            norm_on_grid(u, 2.0, "whole", 2 * lat.K + 1)


def grid_sizes(monkeypatch):
    """Record the M of every grid that fsx.norms samples (grid_slabs, the one sampler)."""
    sizes = []

    def counted(u, M, *buffer):
        sizes.append(M)
        return grid_slabs(u, M, *buffer)

    monkeypatch.setattr(fsx_norms, "grid_slabs", counted)
    return sizes


class TestOccupiedBand:
    def test_block_p4_samples_its_own_exact_grid(self, monkeypatch):
        lat = make_lattice(2, 32)
        fam = get_family(lat)
        u = random_field(lat, 3)
        sizes = grid_sizes(monkeypatch)
        for j in range(fam.j_min, 4):  # psi_3 vanishes beyond |xi| = 2^6/3 < K
            block = delta_dot(u, j, fam)
            sizes.clear()
            got = lp_norm(block, 4.0)
            assert sizes and sizes[0] < exact_grid(lat, 4.0)
            want = norm_on_grid(block, 4.0, "whole", exact_grid(lat, 4.0))
            assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("p", [4.0 / 3.0, math.inf])
    def test_other_p_keep_the_lattice_grid(self, monkeypatch, p):
        lat = make_lattice(2, 32)
        block = delta_dot(random_field(lat, 3), 1, get_family(lat))
        sizes = grid_sizes(monkeypatch)
        M = default_oversample(lat)
        assert lp_norm(block, p) == pytest.approx(norm_on_grid(block, p, "whole", M), rel=1e-14)
        assert sizes == [default_oversample(lat)] * 2

    @pytest.mark.parametrize("n, K", [(2, 16), (3, 6)])
    def test_strip_p2_square_function_samples_no_grid(self, monkeypatch, n, K):
        lat = make_lattice(n, K)
        u, _ = random_zero_dc(lat, 4, count=40)
        M = default_oversample(lat)
        grid = {s: norm_on_grid(u, 2.0, "halfspace", M, (s,))[0] for s in (-0.5, 0.7)}
        calls = []

        def refuse(name):
            def call(*args, **kwargs):
                calls.append(name)
                raise AssertionError(f"the strip's p=2 square function called {name}")
            return call

        monkeypatch.setattr(fsx_norms, "grid_slabs", refuse("grid_slabs"))
        monkeypatch.setattr(np.fft, "fftn", refuse("fftn"))
        for s, want in grid.items():
            assert triebel_norm(u, s, 2.0, "halfspace") == pytest.approx(want, rel=1e-12)
        assert not calls



@st.composite
def p2_fields(draw):
    """A dense zero-mean field with n <= 3, K <= 8."""
    lat = make_lattice(draw(st.integers(1, 3)), draw(st.integers(1, 8)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    coef[(lat.K,) * lat.n] = 0.0
    return Field(lat, coef)


class TestP2FromCoefficients:
    """At p = 2 the norms are Parseval sums of coefficients on both domains:
    they sample no grid, and they equal the sampled rule on lp_norm's grid,
    which on the torus is exact and on the strip takes the same heights."""

    @settings(max_examples=30)
    @given(p2_fields(), st.sampled_from(["whole", "halfspace"]), st.sampled_from([-0.5, 0.7]))
    def test_p2_norms_sample_nothing_and_match_the_rule(self, u, domain, s):
        lat, M = u.lattice, default_oversample(u.lattice)
        fam = get_family(lat)
        hdot, bessel = SpaceSpec("Hdot", s=s, domain=domain), SpaceSpec("H", s=s, domain=domain)
        want = [norm_on_grid(u, 2.0, domain, M),
                norm_on_grid(fractional_laplacian(u, s), 2.0, domain, M),
                norm_on_grid(bessel_potential(u, s), 2.0, domain, M),
                *(norm_on_grid(delta_dot(u, j, fam), 2.0, domain, M) for j in fam.j_range),
                *(norm_on_grid(delta_inhom(u, k, fam), 2.0, domain, M)
                  for k in range(-1, fam.j_max + 1)),
                *norm_on_grid(u, 2.0, domain, M, (s, 0.0))]
        with mock.patch.object(fsx_norms, "grid_slabs", side_effect=AssertionError), \
                mock.patch.object(fsx_lattice, "horizontal_samples", side_effect=AssertionError):
            norms, blocks = square_function(u, (s, 0.0), 2.0, domain)
            got = [lp_norm(u, 2.0, domain), sobolev_norms(u, hdot, 2.0),
                   sobolev_norms(u, bessel, 2.0), *block_norms(u, 2.0, domain).values(),
                   *block_norms(u, 2.0, domain, inhomogeneous=True).values(), *norms]
        assert got == pytest.approx(want, rel=1e-13, abs=0.0)
        assert blocks == block_norms(u, 2.0, domain)

    def test_p2_suites_sample_only_their_checks(self, monkeypatch):
        """plancherel and norm_equiv at the golden config (corpus 3) sample these
        grids and no others: each sampled p = 2 check on its exact grid, M = 72 at
        K = 32, once per field (and per block), and no norm brings p = 2 to the rule."""
        sizes, exponents = grid_sizes(monkeypatch), []
        rule = fsx_norms.rectangle_rule
        monkeypatch.setattr(fsx_norms, "rectangle_rule",
                            lambda parts, p, *nodes: exponents.append(p) or rule(parts, p, *nodes))
        cfg = SuiteConfig(corpus_size=3)
        fsx_suites.suite_plancherel(cfg)
        assert Counter(sizes) == {72: 12}
        sizes.clear()
        fsx_suites.suite_norm_equiv(cfg)
        assert Counter(sizes) == {5: 3, 72: 21, 128: 27, 135: 3, 256: 90}
        assert exponents and not any(2.0 in np.atleast_1d(p) for p in exponents)


@st.composite
def zero_mean_fields_and_grids(draw):
    """A dense zero-mean field with n <= 3, K <= 6, and an explicit grid:
    the smallest one, 2K+2, or a power of two."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    lat = make_lattice(n, K)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    coef[(K,) * n] = 0.0
    return Field(lat, coef), draw(st.sampled_from([2 * K + 2, 1 << (2 * K + 1).bit_length()]))


RULE_SETTINGS = settings(max_examples=60)


class TestOneRule:
    """rectangle_rule, which samples the strip by grid_slabs too, against the rule on
    the whole sampled grid cut to the heights it covers."""

    @RULE_SETTINGS
    @given(zero_mean_fields_and_grids(), st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]),
           st.sampled_from(["whole", "halfspace"]), st.sampled_from([-0.5, 0.7]))
    def test_norms_match_the_whole_grid_rule(self, case, p, domain, s):
        u, M = case
        assert norm_on_grid(u, p, domain, M) == pytest.approx(
            lp_norm_reference(u, p, domain, M), rel=1e-13)
        assert norm_on_grid(u, p, domain, M, (s,))[0] == pytest.approx(
            triebel_norm_reference(u, s, p, domain, M), rel=1e-13)

    @RULE_SETTINGS
    @given(zero_mean_fields_and_grids())
    def test_sups_match_the_whole_grid_sup(self, case):
        u, M = case
        for rows in (np.arange(M // 2 + 1), np.arange(M // 2 + 1, M), far_band_rows(M)):
            assert rectangle_rule([(1.0, u)], math.inf, rows, M) == pytest.approx(
                sup_reference(u, rows, M), rel=1e-13)


def reduce_grid(u, p, M):
    """The rectangle rule on the assembled grid_slabs: the sup, or the sum."""
    return grid_rule(np.abs(slab_grid(u, M)), p, u.lattice, M)


def reduce_square_function(u, s_values, p, M):
    """triebel_norms by the rule on the assembled grid_slabs of u's occupied
    blocks: g = sqrt(sum_j 4^{js} |block_j|^2) formed on the whole grid per s."""
    fam = get_family(u.lattice)
    squares = [np.abs(slab_grid(occupied(delta_dot(u, j, fam)), M)) ** 2 for j in fam.j_range]
    return [grid_rule(np.sqrt(sum(4.0 ** (j * s) * b for j, b in zip(fam.j_range, squares))),
                      p, u.lattice, M) for s in s_values]


def traced_peak(norm):
    """The peak of memory traced while norm() runs, after one call that fills
    the lattice caches."""
    norm()
    tracemalloc.start()
    try:
        norm()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# every closed form of the reduction (1, 2, 4 and inf) and two general powers
STREAM_EXPONENTS = (1.0, 4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)
STREAM_GRIDS = pytest.mark.parametrize("n, K, M, slab", [
    (1, 8, 40, None), (2, 8, 50, 7 * 50), (2, 8, 45, 7 * 45), (2, 32, 200, None),
    (3, 4, 20, 3 * 20 * 20), (3, 6, 26, None)])


def small_slabs(monkeypatch, n, M, slab):
    """Set SLAB to slab, when given, and check that the last run of heights is partial."""
    if slab:
        monkeypatch.setattr(fsx_lattice, "SLAB", slab)
        assert M % fsx_lattice.per_slab(M, M ** (n - 1)) != 0


def assert_rule_values(got, want, p):
    """Sups to the bit, sums to 1e-14."""
    for g, w in zip(got, want):
        assert g == w if math.isinf(p) else abs(g / w - 1.0) <= 1e-14


class TestStreamedRule:
    """rectangle_rule reduces the slabs of grid_slabs as they stream; the values
    are those of the rule on the whole assembled grid: sups to the bit, sums to
    1e-14.  A small SLAB makes many slabs of whole heights, the last run of
    heights partial; one grid has an odd M."""

    @STREAM_GRIDS
    def test_matches_a_reduction_of_sample_grid(self, monkeypatch, n, K, M, slab):
        small_slabs(monkeypatch, n, M, slab)
        u = random_field(make_lattice(n, K), n)
        for p in STREAM_EXPONENTS:
            assert_rule_values([norm_on_grid(u, p, "whole", M)], [reduce_grid(u, p, M)], p)
        assert norm_on_grid(u, STREAM_EXPONENTS, "whole", M) == [
            norm_on_grid(u, p, "whole", M) for p in STREAM_EXPONENTS]

    @STREAM_GRIDS
    def test_square_function_matches_a_reduction_of_the_blocks(self, monkeypatch, n, K, M, slab):
        small_slabs(monkeypatch, n, M, slab)
        u = random_field(make_lattice(n, K), n)
        u.coef[(K,) * n] = 0.0
        s_values = (-0.5, 0.0, 0.7)
        for p in STREAM_EXPONENTS:
            assert_rule_values(norm_on_grid(u, p, "whole", M, s_values),
                               reduce_square_function(u, s_values, p, M), p)

    @pytest.mark.parametrize("n, K, slab", [(2, 6, 3 * 56), (3, 4, 5 * 40 * 40)])
    def test_small_slabs_change_no_value(self, monkeypatch, n, K, slab):
        """Whole grid, strip and square function, with SLAB small enough for
        several slabs and several runs of heights, against the default SLAB."""
        u, _ = random_zero_dc(make_lattice(n, K), 11, count=30)
        M = default_oversample(u.lattice)
        rows = (None, np.arange(M // 2 + 1), far_band_rows(M))

        def values():
            return ([lp_norm(u, p, d) for p in STREAM_EXPONENTS for d in ("whole", "halfspace")]
                    + [triebel_norm(u, 0.7, p) for p in STREAM_EXPONENTS]
                    + [rectangle_rule([(1.0, u)], math.inf, r, M) for r in rows]
                    + [slab_grid(u, M)])

        want = values()
        monkeypatch.setattr(fsx_lattice, "SLAB", slab)
        got = values()
        assert all(np.array_equal(g, w) for g, w in zip(got[-1:], want[-1:]))
        np.testing.assert_allclose(got[:-1], want[:-1], rtol=1e-14)
        assert got[-4:-1] == want[-4:-1]

    @pytest.mark.parametrize("p", [math.inf, 4.0 / 3.0])
    def test_no_whole_grid_is_held(self, p):
        """At (2, 64) the oversampled grid is 512^2: one complex grid is 4 MiB."""
        lat = make_lattice(2, 64)
        u = random_field(lat, 12)
        M = default_oversample(lat)
        assert traced_peak(lambda: lp_norm(u, p)) < 16 * M**2

    def test_square_function_holds_no_whole_grid(self):
        """The square function streams its blocks in step, each from the rows of
        its first pass, (2K_j + 1) x M complex values for a block on the band
        K_j; besides those it holds less than one complex grid at (2, 64)."""
        lat = make_lattice(2, 64)
        u = random_field(lat, 12)
        u.coef[(lat.K,) * lat.n] = 0.0
        M, fam = default_oversample(lat), get_family(lat)
        rows = sum(16 * M * occupied(delta_dot(u, j, fam)).lattice.modes_per_axis
                   for j in fam.j_range)
        peak = traced_peak(lambda: triebel_norms(u, (-0.5, 0.0, 0.7), 4.0 / 3.0))
        assert peak < rows + 16 * M**2

    def test_whole_grid_passes_run_on_the_contiguous_axis(self, monkeypatch):
        """At n = 2 every transform of a whole-grid rule, the first pass along
        x_n and each slab's horizontal pass, runs along the last axis of a
        C-contiguous array: no pass strides across the slab buffer."""
        u = random_field(make_lattice(2, 16), 14)
        u.coef[(16, 16)] = 0.0
        passes, ifftn = [], np.fft.ifftn

        def recorded(a, *args, **kwargs):
            passes.append((a.flags.c_contiguous, kwargs["axes"] == (a.ndim - 1,)))
            return ifftn(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "ifftn", recorded)
        lp_norm(u, (4.0 / 3.0, 4.0, math.inf))
        triebel_norms(u, (-0.5, 0.7), 4.0 / 3.0)
        assert len(passes) > 2 and all(c and last for c, last in passes)

    def test_zero_field_samples_nothing(self, monkeypatch):
        lat = make_lattice(2, 16)

        def refuse(*args):
            raise AssertionError("a zero field was sampled")

        monkeypatch.setattr(fsx_norms, "grid_slabs", refuse)  # the one sampler, on both domains
        exponents = (1.0, 4.0 / 3.0, 4.0, math.inf)
        for domain in ("whole", "halfspace"):
            assert lp_norm(zero_field(lat), exponents, domain) == [0.0] * len(exponents)
            assert norm_on_grid(zero_field(lat), 3.0, domain, 40) == 0.0
        assert triebel_norms(zero_field(lat), (-0.5, 0.7), 4.0 / 3.0) == [0.0, 0.0]

    def test_several_p_sample_once(self, monkeypatch):
        u = random_field(make_lattice(2, 16), 13)
        sizes = grid_sizes(monkeypatch)
        lp_norm(u, (1.0, 2.0, math.inf, 4.0 / 3.0))
        assert sizes == [default_oversample(u.lattice)]

    def test_lp_partition_samples_each_field_and_block_once(self, monkeypatch):
        cfg = SuiteConfig(bandlimit=8, corpus_size=2)
        fields = generate_corpus(cfg.seed, "random_bandlimited", 2, cfg.lattice()).fields
        sampled = grid_coefficients(monkeypatch)
        suite_lp_partition(cfg)
        fam = get_family(cfg.lattice())
        read = [occupied(v).coef.tobytes()
                for u in fields for v in (u, *(delta_dot(u, j, fam) for j in fam.j_range))]
        assert sorted(sampled) == sorted(read)

    def test_norm_equiv_takes_each_triebel_grid_once(self, monkeypatch):
        cfg = SuiteConfig(bandlimit=16, corpus_size=2)  # the coarse side is K = 8
        calls = []
        square = fsx_suites.square_function

        def counted(u, s_values, p, *args):
            calls.append((u.coef.tobytes(), tuple(p)))
            return square(u, s_values, p, *args)

        monkeypatch.setattr(fsx_suites, "square_function", counted)
        suite_norm_equiv(cfg)
        assert len(calls) == len(set(calls)) == 2 * 2  # two corpora of two, one pass each
        assert all(p == fsx_suites.TRIEBEL_P for _, p in calls)

    def test_norm_equiv_grid_count(self, monkeypatch):
        """At the desk config every field is sampled once for all its exponents:
        535 grids before, when each p sampled on its own grid."""
        sizes = grid_sizes(monkeypatch)
        suite_norm_equiv(SuiteConfig())
        assert len(sizes) <= 240

    def test_mixed_p_share_the_largest_grid(self, monkeypatch):
        u = random_field(make_lattice(2, 16), 14)
        sizes = grid_sizes(monkeypatch)
        both = lp_norm(u, (4.0 / 3.0, 4.0))
        assert sizes == [default_oversample(u.lattice)]
        assert both[0] == lp_norm(u, 4.0 / 3.0)
        assert abs(both[1] / lp_norm(u, 4.0) - 1.0) <= 1e-14

    def test_square_function_over_several_p_holds_no_whole_grid(self):
        """As test_square_function_holds_no_whole_grid, with the blocks' own norms
        at three p reduced in the same pass."""
        lat = make_lattice(2, 64)
        u = random_field(lat, 12)
        u.coef[(lat.K,) * lat.n] = 0.0
        M, fam = default_oversample(lat), get_family(lat)
        rows = sum(16 * M * occupied(delta_dot(u, j, fam)).lattice.modes_per_axis
                   for j in fam.j_range)
        peak = traced_peak(lambda: triebel_norms(u, (-0.5, 0.0, 0.7), (4.0 / 3.0, 2.0, 4.0)))
        assert peak < rows + 16 * M**2


class TestSeqNorm:
    def test_delta_sequence(self):
        assert seq_norm({3: 1.0}, s=1.0, q=1.0) == pytest.approx(8.0, abs=0)

    def test_zero(self):
        assert seq_norm({}, s=2.0, q=2.0) == 0.0

    def test_two_entries_hand_sum(self):
        want = (2.0**0.5 * 3.0) ** 2 + (2.0**1.0 * 5.0) ** 2
        got = seq_norm({1: 3.0, 2: 5.0}, s=0.5, q=2.0)
        assert got == pytest.approx(math.sqrt(want), rel=1e-14)

    def test_weighted_seq_object(self):
        assert seq_norm({0: 2.0, 1: 1.0}, s=1.0, q=math.inf) == pytest.approx(2.0, abs=0)


class TestBesovNorm:
    def test_single_wave_all_sq(self):
        lat = make_lattice(2, 32)
        u = plane_wave(lat, (1, 1))
        for s in (-0.5, 0.0, 0.7):
            for q in (1.0, 2.0, math.inf):
                spec = SpaceSpec("Bdot", s=s, p=2.0, q=q)
                assert besov_norm(u, spec) == pytest.approx(TWO_PI, rel=1e-12)

    def test_two_waves_hand_formula(self):
        # (1,1) sits on the scale-0 plateau and (8,8) on the scale-3 plateau,
        # so exactly two blocks contribute
        lat = make_lattice(2, 32)
        u = field_from_modes(lat, {(1, 1): 2.0, (8, 8): 0.5})
        fam = get_family(lat)
        idx1 = (lat.K + 1, lat.K + 1)
        idx8 = (lat.K + 8, lat.K + 8)
        assert annulus_values(lat, 0)[idx1] == 1.0
        assert annulus_values(lat, 3)[idx8] == 1.0
        s, p, q = 0.5, 2.0, 1.0
        a = lp_norm(2.0 * plane_wave(lat, (1, 1)), p)
        b = lp_norm(0.5 * plane_wave(lat, (8, 8)), p)
        want = 2.0 ** (0 * s) * a + 2.0 ** (3 * s) * b
        got = besov_norm(u, SpaceSpec("Bdot", s=s, p=p, q=q))
        assert got == pytest.approx(want, rel=1e-12)

    def test_zero_field(self):
        lat = make_lattice(2, 16)
        assert besov_norm(zero_field(lat), SpaceSpec("Bdot", s=0.3, p=2, q=2)) == 0.0

    def test_dc_rejected_for_homogeneous(self):
        lat = make_lattice(2, 16)
        u = field_from_modes(lat, {(0, 0): 1.0, (1, 0): 1.0})
        with pytest.raises(HomogeneousDCViolation):
            besov_norm(u, SpaceSpec("Bdot", s=0.0, p=2, q=2))

    def test_inhomogeneous_keeps_dc(self):
        lat = make_lattice(2, 16)
        u = field_from_modes(lat, {(0, 0): 1.0})
        got = besov_norm(u, SpaceSpec("B", s=1.0, p=2, q=1))
        # only the low block sees the constant: 2^{-s} * ||1||_2
        assert got == pytest.approx(0.5 * TWO_PI, rel=1e-12)


class TestSobolevNorm:
    def test_plancherel_wave(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (1, 1))
        got = sobolev_norm(u, SpaceSpec("Hdot", s=1.0, p=2.0))
        assert got == pytest.approx(TWO_PI * math.sqrt(2.0), rel=1e-12)

    def test_s0_equals_lp(self):
        lat = make_lattice(2, 16)
        u, _ = random_zero_dc(lat, 3)
        for p in (4.0 / 3.0, 2.0, 4.0):
            a = sobolev_norm(u, SpaceSpec("Hdot", s=0.0, p=p))
            b = lp_norm(u, p)
            assert a == pytest.approx(b, rel=1e-13)

    def test_mixed_mode_plancherel_oracle(self):
        lat = make_lattice(2, 16)
        u, modes = random_zero_dc(lat, 4)
        s = 0.7
        want = math.sqrt(
            lat.L**2 * sum(abs(c) ** 2 * (k[0] ** 2 + k[1] ** 2) ** s for k, c in modes.items())
        )
        got = sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2.0))
        assert got == pytest.approx(want, rel=1e-12)

    def test_bessel_inhomogeneous(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (1, 1))
        got = sobolev_norm(u, SpaceSpec("H", s=2.0, p=2.0))
        assert got == pytest.approx(3.0 * TWO_PI, rel=1e-12)


class TestNormIgnoringMean:
    def test_homogeneous_families_drop_the_mean(self):
        lat = make_lattice(2, 16)
        u, _ = random_zero_dc(lat, 14)
        shifted = u + field_from_modes(lat, {(0, 0): 5.0})
        for spec in (SpaceSpec("Hdot", s=0.7, p=4.0), SpaceSpec("Bdot", s=0.3, q=1.0),
                     SpaceSpec("Fdot", s=-0.5)):
            with pytest.raises(HomogeneousDCViolation):
                space_norm(shifted, spec)
            assert norm_ignoring_mean(shifted, spec) == space_norm(u, spec)

    def test_other_families_see_the_mean(self):
        lat = make_lattice(2, 8)
        u = field_from_modes(lat, {(0, 0): 1.0})
        assert norm_ignoring_mean(u, SpaceSpec("Lp", p=2.0)) == pytest.approx(TWO_PI)
        assert norm_ignoring_mean(u, SpaceSpec("H", s=1.0)) == pytest.approx(TWO_PI)


class TestTriebelNorm:
    def test_single_wave(self):
        lat = make_lattice(2, 32)
        u = plane_wave(lat, (1, 1))  # block j = 0
        for s, p in ((0.5, 2.0), (-0.3, 4.0)):
            got = triebel_norm(u, s, p)
            want = 2.0 ** (0 * s) * (lat.L**2) ** (1.0 / p)
            assert got == pytest.approx(want, rel=1e-12)

    def test_fubini_identity_p2(self):
        lat = make_lattice(2, 32)
        u, _ = random_zero_dc(lat, 5, count=25)
        for s in (-0.5, 0.0, 0.7):
            a = triebel_norm(u, s, 2.0)
            b = norm_on_grid(u, 2.0, "whole", exact_grid(lat, 2.0), (s,))[0]
            assert a == pytest.approx(b, rel=1e-12)

    def test_zero(self):
        lat = make_lattice(2, 16)
        assert triebel_norm(zero_field(lat), 0.5, 2.0) == 0.0

    def test_unknown_domain_refused(self):
        u, _ = random_zero_dc(make_lattice(2, 8), 5)
        with pytest.raises(InvalidParameter):
            triebel_norm(u, 0.5, 2.0, "bogus")
        with pytest.raises(InvalidParameter):
            lp_norm(u, 2.0, "bogus")


@st.composite
def zero_mean_fields_and_default_grids(draw):
    """A field of zero_mean_fields_and_grids, with its explicit grid or None."""
    u, M = draw(zero_mean_fields_and_grids())
    return u, draw(st.sampled_from([None, M]))


EXPONENTS = st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf])
DOMAINS = st.sampled_from(["whole", "halfspace"])


class TestBlocksOnce:
    """Each dyadic block is sampled once per (p, grid) and reduced for every s
    and q, with the values of the one-s and one-(s, q) norms to the bit."""

    @RULE_SETTINGS
    @given(zero_mean_fields_and_default_grids(), EXPONENTS, DOMAINS,
           st.lists(st.sampled_from([-0.5, 0.0, 0.7, 1.2]), min_size=1, max_size=3))
    def test_triebel_norms_equal_one_s_at_a_time(self, case, p, domain, s_values):
        u, M = case
        if M is None:
            assert triebel_norms(u, s_values, p, domain) == [
                triebel_norm(u, s, p, domain) for s in s_values]
        else:
            assert norm_on_grid(u, p, domain, M, s_values) == [
                norm_on_grid(u, p, domain, M, (s,))[0] for s in s_values]

    @RULE_SETTINGS
    @given(zero_mean_fields_and_grids(), EXPONENTS, DOMAINS,
           st.sampled_from([-0.5, 0.7]), st.sampled_from([1.0, 2.0, math.inf]))
    def test_besov_norm_reweights_block_norms(self, case, p, domain, s, q):
        u, _ = case
        dot = block_norms(u, p, domain)
        inhom = block_norms(u, p, domain, inhomogeneous=True)
        assert besov_norm(u, SpaceSpec("Bdot", s=s, p=p, q=q, domain=domain)) == seq_norm(dot, s, q)
        assert besov_norm(u, SpaceSpec("B", s=s, p=p, q=q, domain=domain)) == seq_norm(inhom, s, q)
        assert {k: b for k, b in inhom.items() if k >= 0} == {j: b for j, b in dot.items() if j >= 0}

    @pytest.mark.parametrize("p, domain", [(4.0 / 3.0, "whole"), (4.0, "whole"),
                                           (2.0, "halfspace"), (4.0, "halfspace")])
    def test_triebel_norms_read_each_block_once(self, monkeypatch, p, domain):
        lat = make_lattice(2, 16)
        fam = get_family(lat)
        u = random_field(lat, 6)
        u.coef[(lat.K,) * lat.n] = 0.0
        blocks = [occupied(delta_dot(u, j, fam)) for j in fam.j_range]
        assert all(b.peak() > 0.0 for b in blocks)
        read = grid_coefficients(monkeypatch)
        # the strip samples each block by grid_slabs too, or at p = 2 reads its strip_rows
        def counted(v, *args, fn=fsx_norms.strip_rows):
            read.append(v.coef.tobytes())
            return fn(v, *args)

        monkeypatch.setattr(fsx_norms, "strip_rows", counted)
        triebel_norms(u, (-0.5, 0.0, 0.7), p, domain)
        assert sorted(read) == sorted(b.coef.tobytes() for b in blocks)

    @pytest.mark.parametrize("n, K", [(2, 16), (3, 6)])
    @pytest.mark.parametrize("domain", ["whole", "halfspace"])
    def test_several_p_equal_one_p_at_a_time(self, n, K, domain):
        """block_norms, triebel_norms and sobolev_norms over several p against one p
        at a time: bitwise at the p whose rule does not move and at p = 2, a
        Parseval sum on both domains however many p are asked, and to 1e-14 at
        the even p that move from their own exact grid to the shared one."""
        u, _ = random_zero_dc(make_lattice(n, K), 15, count=40)
        ps = (4.0 / 3.0, 2.0, 3.0, 4.0, math.inf)

        def close(got, want, p):
            moves = p == 4.0 and domain == "whole"
            assert got == want if not moves else got == pytest.approx(want, rel=1e-14, abs=0.0)

        for p, blocks in zip(ps, block_norms(u, ps, domain)):
            want = block_norms(u, p, domain)
            assert blocks.keys() == want.keys()
            for j in want:
                close(blocks[j], want[j], p)
        for p, norms in zip(ps, triebel_norms(u, (-0.5, 0.7), ps, domain)):
            for got, want in zip(norms, triebel_norms(u, (-0.5, 0.7), p, domain)):
                close(got, want, p)
        spec = SpaceSpec("Hdot", s=0.7, domain=domain)
        for p, got in zip(ps, sobolev_norms(u, spec, ps)):
            close(got, sobolev_norm(u, SpaceSpec("Hdot", s=0.7, p=p, domain=domain)), p)

    @pytest.mark.parametrize("n, K", [(2, 16), (2, 32), (3, 6)])
    def test_square_function_reads_the_block_norms(self, n, K):
        """The blocks' own norms from the square function's pass are the blocks'
        norms by the rule on one part: to the bit at p = 4/3 and inf, on the
        same grid, and to 1e-14 at p = 4, which block_norms takes on each
        block's own exact grid."""
        u, _ = random_zero_dc(make_lattice(n, K), 16, count=60)
        ps = (4.0 / 3.0, 4.0, math.inf)
        for p, (_, blocks) in zip(ps, square_function(u, (0.0,), ps)):
            want = block_norms(u, p)
            if p == 4.0:
                assert blocks == pytest.approx(want, rel=1e-14, abs=0.0)
            else:
                assert blocks == want

    def test_interp_besov_ratios_sample_no_block_twice(self, monkeypatch):
        cfg = SuiteConfig(bandlimit=8, corpus_size=2)
        fields = generate_corpus(cfg.seed, "random_bandlimited", 2, cfg.lattice()).fields
        fam = get_family(cfg.lattice())
        # the split functional samples parts of its own, one of which (the
        # Hdot^0 low part below the cut j = 0) equals the block j = -1, so
        # only the samples taken for the block norms are counted
        in_blocks = []

        def flagged(*args, **kwargs):
            in_blocks.append(True)
            try:
                return block_norms(*args, **kwargs)
            finally:
                in_blocks.pop()

        monkeypatch.setattr(fsx_suites, "block_norms", flagged)
        sampled = grid_coefficients(monkeypatch, when=lambda: bool(in_blocks))
        interp_besov_ratios(fields)
        blocks = [occupied(delta_dot(u, j, fam)).coef.tobytes() for u in fields for j in fam.j_range]
        # p = 4 samples every block once for its 18 (s, q); p = 2 is the Plancherel sum
        assert sorted(sampled) == sorted(blocks)


def grid_coefficients(monkeypatch, when=lambda: True):
    """Record the coefficients of every field that fsx.norms samples on a grid
    while when() holds."""
    sampled = []

    def counted(u, M, *buffer):
        if when():
            sampled.append(u.coef.tobytes())
        return grid_slabs(u, M, *buffer)

    monkeypatch.setattr(fsx_norms, "grid_slabs", counted)
    return sampled


class TestPairing:
    def test_orthogonality(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (2, 1))
        v = plane_wave(lat, (-2, -1))
        got = pairing(u, v)
        assert got == pytest.approx((TWO_PI) ** 2, rel=1e-12)

    def test_oscillation_integrates_to_zero(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (2, 1))
        assert abs(pairing(u, u)) < 1e-12

    def test_matches_quadrature(self):
        lat = make_lattice(2, 16)
        u, _ = random_zero_dc(lat, 6)
        v, _ = random_zero_dc(lat, 7)
        M = 128
        su = sample_grid_reference(u, M)
        sv = sample_grid_reference(v, M)
        want = (lat.L / M) ** 2 * np.sum(su * sv)
        got = pairing(u, v)
        assert abs(got - want) < 1e-12 * max(abs(want), 1.0)

    def test_duality_bound_and_equality_case(self):
        lat = make_lattice(2, 16)
        s = 0.6
        u, _ = random_zero_dc(lat, 8)
        v, _ = random_zero_dc(lat, 9)
        bound = sobolev_norm(u, SpaceSpec("Hdot", s=s, p=2)) * sobolev_norm(
            v, SpaceSpec("Hdot", s=-s, p=2)
        )
        assert abs(pairing(u, v)) <= bound * (1.0 + 1e-10)
        w1 = plane_wave(lat, (2, 1))
        w2 = plane_wave(lat, (-2, -1))
        tight = sobolev_norm(w1, SpaceSpec("Hdot", s=s, p=2)) * sobolev_norm(
            w2, SpaceSpec("Hdot", s=-s, p=2)
        )
        assert abs(pairing(w1, w2)) == pytest.approx(tight, rel=1e-11)


class TestHalfspaceIntegral:
    def test_plane_wave_strip_integrals(self):
        # closed form: int_0^{L/2} e^{i k x} dx is L/2 at k=0, 0 at even k,
        # i L/(pi k) at odd k; horizontal modes integrate to L delta_{k',0}
        lat = make_lattice(2, 8)
        for k in [(0, 0), (0, 2), (0, 1), (0, -3), (1, 1), (2, 0)]:
            u = plane_wave(lat, k)
            one = field_from_modes(lat, {(0, 0): 1.0})
            got = halfspace_product_integral(u, one)
            if k[0] != 0:
                want = 0.0
            elif k[1] == 0:
                want = lat.L * lat.L / 2.0
            elif k[1] % 2 == 0:
                want = 0.0
            else:
                want = lat.L * (1j * lat.L / (math.pi * k[1]))
            assert abs(got - want) < 1e-12 * max(abs(want), 1.0)

    def test_against_sparse_convolution_oracle(self):
        # independent path: convolve the sparse mode lists directly, then apply
        # the analytic half-period weights
        lat = make_lattice(1, 6)
        u, mu = random_zero_dc(lat, 11, count=5)
        v, mv = random_zero_dc(lat, 12, count=5)

        def half_weight(r):
            if r == 0:
                return lat.L / 2.0
            if r % 2 == 0:
                return 0.0
            return 1j * lat.L / (math.pi * r)

        want = sum(
            cu * np.conj(cv) * half_weight(ku[0] - kv[0])
            for ku, cu in mu.items()
            for kv, cv in mv.items()
        )
        got = halfspace_product_integral(u, v)
        assert abs(got - want) < 1e-12 * max(abs(want), 1.0)

    def test_rectangle_rule_converges_to_exact(self):
        # the sharp strip cut converges only like 1/M under the rectangle rule;
        # check first-order convergence toward the exact spectral value
        lat = make_lattice(1, 6)
        u, _ = random_zero_dc(lat, 11, count=5)
        v, _ = random_zero_dc(lat, 12, count=5)
        exact = halfspace_product_integral(u, v)
        errs = []
        for M in (2**10, 2**14):
            su = sample_grid_reference(u, M)[: M // 2]
            sv = sample_grid_reference(v, M)[: M // 2]
            errs.append(abs((lat.L / M) * np.sum(su * np.conj(sv)) - exact))
        assert errs[1] < errs[0] / 8.0
        assert errs[1] < 5e-3


class TestSpecParsing:
    def test_parse_besov(self):
        spec = parse_space_spec("Bdot:s=0.5,p=2,q=1")
        assert spec.family == "Bdot"
        assert (spec.s, spec.p, spec.q) == (0.5, 2.0, 1.0)

    def test_parse_inf(self):
        spec = parse_space_spec("Lp:p=inf")
        assert math.isinf(spec.p)

    def test_parse_sobolev(self):
        spec = parse_space_spec("H:s=2,p=4", domain="halfspace")
        assert spec.family == "H" and spec.domain == "halfspace"

    def test_bad_family(self):
        with pytest.raises(InvalidParameter):
            parse_space_spec("Xdot:s=1,p=2")

    @pytest.mark.parametrize("text", ["Hdot:s=nan,p=2", "Bdot:s=inf,p=2,q=1"])
    def test_nonfinite_regularity(self, text):
        with pytest.raises(InvalidParameter):
            parse_space_spec(text)

    @pytest.mark.parametrize("text", ["Hdot:s=abc", "Lp:p=", "Bdot:s=0.5,p=2,q=1e"])
    def test_value_that_is_not_a_number(self, text):
        with pytest.raises(InvalidParameter, match="not a number"):
            parse_space_spec(text)

    def test_domains_are_the_torus_and_the_strip(self):
        assert fsx_norms.DOMAINS == ("whole", "halfspace")
        with pytest.raises(InvalidParameter, match="domain"):
            SpaceSpec("Lp", domain="halfspace_zero")

    def test_space_norm_dispatch(self):
        lat = make_lattice(2, 16)
        u, _ = random_zero_dc(lat, 13)
        assert space_norm(u, SpaceSpec("Lp", p=2.0)) == pytest.approx(
            lp_norm(u, 2.0), rel=1e-14
        )
        assert space_norm(u, SpaceSpec("Fdot", s=0.3, p=2.0)) == pytest.approx(
            triebel_norm(u, 0.3, 2.0), rel=1e-14
        )
