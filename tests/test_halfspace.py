import importlib.util
import itertools
import math
import os
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.halfspace as fsx_halfspace
import fsx.lattice as fsx_lattice
import fsx.norms as fsx_norms
import fsx.poisson as fsx_poisson
import fsx.suites as fsx_suites
from fsx.corpus import bump_field, bump_truncation_error, generate_corpus
from fsx.dyadic import smooth_cut
from fsx.errors import AliasingRisk, IllConditioned, InvalidParameter
from fsx.halfspace import (
    extend_reflect,
    indicator_columns,
    indicator_multiply,
    lower_half_defect,
    make_half_field,
    moment_residual,
    project_zero,
    reflect_parity,
    reflection_coefficients,
    restriction_norm,
)
from fsx.lattice import (
    Field,
    Lattice,
    column_shells,
    default_oversample,
    evaluate,
    field_from_modes,
    make_lattice,
    without_mean,
    zero_field,
)
from fsx.multipliers import derivative
from fsx.norms import (
    SpaceSpec,
    half_period_weights,
    halfspace_product_integral,
    lp_norm,
    mode_sum,
    potential_sq,
    shell_sum,
    sobolev_norm,
    triebel_norm,
)
from fsx.suites import SuiteConfig, run_suite
from fsx.poisson import PoissonField, materialize_poisson
from grid_reference import (
    bilinear_strip_integral,
    half_peak,
    norm_on_grid,
    project_bandlimited,
    sample_grid_reference,
    sample_slices,
    witnesses_per_call,
)

TWO_PI = 2.0 * math.pi


@pytest.fixture(scope="module")
def lat():
    return make_lattice(2, 32)


def sine_mode(lat, m=1, kx=1, amp=1.0):
    """amp * sin(m x_n) exp(i kx x_1): vanishes at both strip faces."""
    return field_from_modes(
        lat, {(kx, m): amp / 2j, (kx, -m): -amp / 2j}
    )


def cosine_mode(lat, m=1, kx=1, amp=1.0):
    return field_from_modes(lat, {(kx, m): amp / 2.0, (kx, -m): amp / 2.0})


def unwindowed_extension(u, m):
    """The order-m reflection of the HalfField u with no window: the cached
    table the witnesses E0 and ED read with their own mirror coefficients."""
    key = (reflection_coefficients(m), False, False)
    return fsx_halfspace._apply_columns(u.field, *fsx_halfspace._operator(u.field.lattice, *key))


def extension(u, m, window):
    """extend_reflect(u, m) when window, else the unwindowed table."""
    return extend_reflect(u, m) if window else unwindowed_extension(u, m)


def one_sided_bump(lat, center=None, sigma=None, lower=False):
    """Bump strictly inside one open half (two-sided tails ~1e-9 at K=32)."""
    from fsx.corpus import DEFAULT_BUMP_SIGMA

    center = center if center is not None else lat.L / 4.0
    sigma = sigma if sigma is not None else DEFAULT_BUMP_SIGMA
    if lower:
        center = -center
    return bump_field(lat, center, sigma)


def restriction_error(field_out, field_in, M=None):
    """Sup difference over the upper-half grid."""
    M = M or default_oversample(field_in.lattice)
    a = sample_grid_reference(field_out, M)[..., : M // 2 + 1]
    b = sample_grid_reference(field_in, M)[..., : M // 2 + 1]
    return float(np.max(np.abs(a - b)))


class TestReflectionCoefficients:
    def test_order_zero(self):
        assert np.allclose(reflection_coefficients(0), [1.0], atol=0)

    def test_order_one(self):
        assert np.allclose(reflection_coefficients(1), [-3.0, 4.0], atol=1e-12)

    def test_order_two(self):
        assert np.allclose(reflection_coefficients(2), [6.0, -32.0, 27.0], atol=1e-9)

    @pytest.mark.parametrize("m", range(7))
    def test_moment_residuals(self, m):
        assert moment_residual(reflection_coefficients(m)) <= 1e-9

    def test_conditioning_guard(self):
        with pytest.raises(IllConditioned):
            reflection_coefficients(9)

    @pytest.mark.parametrize("m", [7, 8])
    def test_orders_above_six_refused_before_any_solve(self, m):
        # their moment residuals, 1.9e-8 and 4.8e-7, exceed MOMENT_TOL
        misses = fsx_halfspace._solve_reflection.cache_info().misses
        with pytest.raises(IllConditioned, match=f"reflection order {m} > 6"):
            reflection_coefficients(m)
        assert fsx_halfspace._solve_reflection.cache_info().misses == misses

    def test_order_six_is_solved(self):
        alpha = reflection_coefficients(6)
        assert len(alpha) == 7 and moment_residual(alpha) <= fsx_halfspace.MOMENT_TOL

    @pytest.mark.parametrize("m", [math.nan, math.inf, -1, 1.5])
    def test_bad_order_refused(self, m):
        with pytest.raises(InvalidParameter):
            reflection_coefficients(m)

    def test_solved_once_per_order(self):
        rc = reflection_coefficients(2)
        assert reflection_coefficients(2.0) is rc
        assert reflection_coefficients(3) is not rc
        with pytest.raises(TypeError):
            rc[0] = 0.0


class TestHalfField:
    def test_leakage_of_boundary_bump_is_tiny(self, lat):
        u = make_half_field(one_sided_bump(lat))
        assert u.leakage <= 1e-8 * half_peak(u)

    def test_leakage_of_sine_is_large(self, lat):
        u = make_half_field(sine_mode(lat))
        assert u.leakage > 0.1  # sin is O(1) near the far face

    def test_refuses_what_is_not_a_field(self, lat):
        for data in (None, 0.0, sine_mode(lat).coef):
            with pytest.raises(InvalidParameter, match="HalfField needs a Field"):
                make_half_field(data)


class TestExtendReflect:
    def test_restriction_identity_even_extension_of_sine(self, lat):
        # order 0 unwindowed gives the even extension; the data half is untouched
        u = make_half_field(sine_mode(lat))
        ext, res = unwindowed_extension(u, 0)
        err = restriction_error(ext, u.field)
        assert err <= 1e-10 + 10.0 * res * half_peak(u)

    def test_constant_data_extends_to_constant(self, lat):
        # moment condition at order zero: sum alpha_j = 1
        u = make_half_field(field_from_modes(lat, {(0, 0): 1.0}))
        for m in (0, 1, 2):
            ext, res = unwindowed_extension(u, m)
            assert res <= 1e-12
            assert abs(ext.dc - 1.0) < 1e-12
            rest = ext.coef.copy()
            rest[lat.K, lat.K] = 0.0
            assert np.max(np.abs(rest)) < 1e-12

    def test_bump_restriction_identity_tight(self, lat):
        u = make_half_field(one_sided_bump(lat))
        for m in (0, 1, 2):
            ext, res = extend_reflect(u, m)
            err = restriction_error(ext, u.field)
            assert err <= 1e-10 + 10.0 * res

    def test_cosine_order2_extension_is_c2(self, lat):
        # one-sided second differences across the boundary agree to O(h):
        # the extension formula is evaluated exactly on both sides
        u = make_half_field(cosine_mode(lat))
        alpha = reflection_coefficients(2)

        def value(x1, xn):
            if xn >= 0:
                return evaluate(u.field, (x1, xn))
            return sum(
                a * evaluate(u.field, (x1, -xn / (j + 1)))
                for j, a in enumerate(alpha)
            )

        x1 = 0.37
        for h in (1e-3, 1e-4):
            upper = (value(x1, 2 * h) - 2 * value(x1, h) + value(x1, 0.0)) / h**2
            lower = (value(x1, -2 * h) - 2 * value(x1, -h) + value(x1, 0.0)) / h**2
            assert abs(upper - lower) < 30.0 * h

    def test_tangential_derivative_commutes(self, lat):
        u = make_half_field(one_sided_bump(lat))
        du = make_half_field(derivative(u.field, (1, 0)))
        lhs, res1 = extend_reflect(u, 1)
        lhs = derivative(lhs, (1, 0))
        rhs, res2 = extend_reflect(du, 1)
        scale = max(rhs.peak(), 1e-30)
        assert np.max(np.abs(lhs.coef - rhs.coef)) <= scale * (1e-9 + 10 * (res1 + res2))


class TestParityReflection:
    def test_odd_reflection_of_sine_is_exact(self, lat):
        u = make_half_field(sine_mode(lat, m=2))
        ext, res = reflect_parity(u, "odd")
        assert res <= 1e-12
        assert np.max(np.abs(ext.coef - u.field.coef)) < 1e-12

    def test_even_reflection_of_cosine_is_exact(self, lat):
        u = make_half_field(cosine_mode(lat))
        ext, res = reflect_parity(u, "even")
        assert res <= 1e-12
        assert np.max(np.abs(ext.coef - u.field.coef)) < 1e-12

    def test_odd_reflection_of_cosine_jump_decays_with_bandlimit(self):
        residuals = {}
        for K in (32, 64):
            lat = make_lattice(2, K)
            u = make_half_field(cosine_mode(lat))
            _, res = reflect_parity(u, "odd")
            residuals[K] = res
        assert residuals[64] < residuals[32]
        assert residuals[32] > 1e-6  # genuinely non-smooth: only algebraic decay


class TestProjectZero:
    def test_fixed_point_on_upper_bump(self, lat):
        u = one_sided_bump(lat)
        scale = lp_norm(u, math.inf)
        for m in (0, 1, 2):
            p = project_zero(u, m)
            err = np.max(np.abs(p.coef - u.coef))
            assert err <= 1e-8 * scale

    def test_kills_lower_half_content(self, lat):
        u = one_sided_bump(lat, lower=True)
        p = project_zero(u, 0)
        assert lower_half_defect(p) <= 1e-8 * lp_norm(u, math.inf)

    def test_lower_bump_leaves_reflection_ghost_above(self, lat):
        # the projection is oblique: its kernel is reflection extensions, not
        # zero extensions, so the upper half keeps a ghost of order alpha
        u = one_sided_bump(lat, lower=True)
        p = project_zero(u, 0)
        M = default_oversample(lat)
        vals = sample_grid_reference(p, M)[..., : M // 2]
        assert np.max(np.abs(vals)) > 0.5 * lp_norm(u, math.inf)

    def test_idempotent_on_upper_bumps(self, lat):
        u = one_sided_bump(lat)
        scale = lp_norm(u, math.inf)
        for m in (0, 1, 2):
            p1 = project_zero(u, m)
            p2 = project_zero(p1, m)
            assert np.max(np.abs(p2.coef - p1.coef)) <= 1e-8 * scale

    def test_idempotent_on_lower_bump_order_zero(self, lat):
        # higher orders reflect the lower bump onto the far seam and ring;
        # order zero keeps the ghost strictly interior and stays clean
        u = one_sided_bump(lat, lower=True)
        p1 = project_zero(u, 0)
        p2 = project_zero(p1, 0)
        assert np.max(np.abs(p2.coef - p1.coef)) <= 1e-8 * lp_norm(u, math.inf)

    def test_idempotence_bound_on_random_field(self, lat):
        # second application deviates by the reflection of the first output's
        # lower-half defect, amplified by at most 1 + sum |alpha_j|
        rng = np.random.default_rng(3)
        coef = (rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape))
        coef *= (1.0 + np.hypot(*np.meshgrid(*[np.arange(-lat.K, lat.K + 1)] * 2, indexing="ij"))) ** -3.0
        from fsx.lattice import Field

        u = Field(lat, coef)
        m = 1
        p1 = project_zero(u, m)
        p2 = project_zero(p1, m)
        defect = lower_half_defect(p1)
        amplification = 1.0 + float(np.sum(np.abs(reflection_coefficients(m))))
        bound = 1e-8 * u.peak() + 2.0 * amplification * defect
        assert np.max(np.abs(p2.coef - p1.coef)) <= bound


class TestIndicator:
    @pytest.mark.parametrize("n, K", [(1, 3), (2, 8), (3, 4)])
    def test_output_bandlimit_is_four_times_the_input(self, n, K):
        lat = make_lattice(n, K)
        cut, _ = indicator_multiply(field_from_modes(lat, {(1,) * n: 1.0}))
        assert cut.lattice == Lattice(n, 4 * K, lat.L)

    def test_upper_bump_passes_through(self, lat):
        u = one_sided_bump(lat)
        cut, res = indicator_multiply(u)
        assert res <= 1e-10
        big = cut.lattice
        inner = cut.coef[
            big.K - lat.K : big.K + lat.K + 1, big.K - lat.K : big.K + lat.K + 1
        ]
        assert np.max(np.abs(inner - u.coef)) <= 1e-8 * u.peak()

    def test_indicator_of_one_has_half_measure_l2(self, lat):
        # the projected indicator loses exactly the reported tail energy
        u = field_from_modes(lat, {(0, 0): 1.0})
        cut, res = indicator_multiply(u)
        want = math.sqrt(lat.L**lat.n / 2.0)
        got = lp_norm(cut, 2.0)
        assert got == pytest.approx(want * math.sqrt(1.0 - res**2), rel=1e-3)
        assert got == pytest.approx(want, rel=5e-3)

    def test_ratio_grows_beyond_multiplier_range(self, lat):
        # s = 0.9 > 1/2: the sharp cut is unbounded; the enlarged-lattice
        # norm must grow as the bandlimit doubles
        rng = np.random.default_rng(11)
        modes = {}
        while len(modes) < 20:
            k = tuple(int(v) for v in rng.integers(-lat.K, lat.K + 1, size=2))
            if any(k):
                modes[k] = complex(rng.standard_normal(), rng.standard_normal()) * (
                    1 + math.hypot(*k)
                ) ** -2.0
        u32 = field_from_modes(lat, modes)
        lat64 = make_lattice(2, 64)
        u64 = field_from_modes(lat64, modes)

        def hdot_ratio(u, s):
            cut, _ = indicator_multiply(u)
            num = _plancherel_hdot(cut, s)
            den = _plancherel_hdot(u, s)
            return num / den

        r32 = hdot_ratio(u32, 0.9)
        r64 = hdot_ratio(u64, 0.9)
        assert r64 > r32
        # inside the multiplier range the ratio is stable
        assert hdot_ratio(u64, 0.4) <= 1.5 * hdot_ratio(u32, 0.4)


def _plancherel_hdot(u, s):
    from fsx.lattice import xi_norm

    r = xi_norm(u.lattice)
    mass = np.abs(u.coef) ** 2
    mask = r > 0
    return math.sqrt(u.lattice.L**u.lattice.n * float(np.sum(mass[mask] * r[mask] ** (2 * s))))


class TestRestrictionNorm:
    def test_cosine_even_reflection_candidate_value(self, lat):
        # the even reflection reproduces cos globally; the witness minimum can
        # only improve on that candidate's full-torus norm
        u = make_half_field(cosine_mode(lat))
        even, res = reflect_parity(u, "even")
        assert res <= 1e-12
        even_value = lp_norm(even, 2.0)
        assert even_value == pytest.approx(lp_norm(u.field, 2.0), rel=1e-10)
        value, witness = restriction_norm(u, SpaceSpec("Lp", p=2.0, domain="halfspace"))
        assert value <= even_value * (1.0 + 1e-10)
        assert witness

    def test_sine_odd_reflection_candidate_value(self, lat):
        u = make_half_field(sine_mode(lat))
        odd, res = reflect_parity(u, "odd")
        assert res <= 1e-12
        spec_whole = SpaceSpec("Hdot", s=1.0, p=2.0)
        odd_value = sobolev_norm(odd, spec_whole)
        assert odd_value == pytest.approx(sobolev_norm(u.field, spec_whole), rel=1e-10)
        value, witness = restriction_norm(
            u, SpaceSpec("Hdot", s=1.0, p=2.0, domain="halfspace")
        )
        assert value <= odd_value * (1.0 + 1e-10)
        assert witness

    def test_zero_field(self, lat):
        u = make_half_field(zero_field(lat))
        value, _ = restriction_norm(u, SpaceSpec("Lp", p=2.0, domain="halfspace"))
        assert value == 0.0

    def test_needs_halfspace_domain(self, lat):
        u = make_half_field(sine_mode(lat))
        with pytest.raises(InvalidParameter):
            restriction_norm(u, SpaceSpec("Lp", p=2.0))

    def test_needs_a_half_field(self, lat):
        with pytest.raises(InvalidParameter, match="needs a HalfField, got Field"):
            restriction_norm(sine_mode(lat), SpaceSpec("Lp", p=2.0, domain="halfspace"))

    def test_lp_value_dominates_half_quadrature(self, lat):
        u = make_half_field(one_sided_bump(lat))
        spec = SpaceSpec("Lp", p=2.0, domain="halfspace")
        value, _ = restriction_norm(u, spec)
        assert value >= lp_norm(u.field, 2.0, domain="halfspace") * (1 - 1e-9)

    def test_witnesses_are_distinct(self, lat):
        # a witness equal to another costs an extension and a norm for nothing
        f = generate_corpus(7, "cosine_strip", 1, lat).fields[0]
        cands = dict(witnesses_per_call(make_half_field(f)))
        for a, b in itertools.combinations(cands, 2):
            gap = float(np.max(np.abs(cands[a].coef - cands[b].coef)))
            assert gap > 1e-9 * f.peak(), (a, b)


class TestBumpQuality:
    def test_truncation_budget(self, lat):
        from fsx.corpus import DEFAULT_BUMP_SIGMA

        assert bump_truncation_error(lat, DEFAULT_BUMP_SIGMA) < 1e-8

    def test_bump_vanishes_at_boundaries(self, lat):
        u = one_sided_bump(lat)
        M = default_oversample(lat)
        vals = sample_grid_reference(u, M)
        boundary = np.abs(vals[..., 0]).max()
        far = np.abs(vals[..., M // 2]).max()
        assert boundary <= 1e-8 * u.peak()
        assert far <= 1e-8 * u.peak()


# ---------------------------------------------------------------------------
# Column kernels against the grid round trip
# ---------------------------------------------------------------------------
#
# The references below are the sample -> overwrite -> project algorithm on the
# whole M^n grid, written from the public sampling API.  The operators only
# change values as a function of the vertical grid index, so the two must
# agree to round-off.


def signed_heights(M, L):
    j = np.arange(M)
    return np.where(j > M // 2, j * (L / M) - L, j * (L / M))


def grid_mirror_sum(u, coeffs, heights, M):
    """sum_j coeffs[j] u(x', -h/(j+1)) on the x'-grid, heights on the last axis."""
    return sum(
        a * np.moveaxis(sample_slices(u, -heights / (j + 1), M), 0, -1)
        for j, a in enumerate(coeffs)
    )


def grid_extend(u, coeffs, window=False):
    lat = u.lattice
    M = default_oversample(lat)
    values = sample_grid_reference(u, M)
    sn = signed_heights(M, lat.L)
    lower = np.nonzero(sn < 0.0)[0]
    acc = grid_mirror_sum(u, coeffs, sn[lower], M)
    if window:
        acc = acc * smooth_cut((6.0 / lat.L) * np.abs(sn[lower]))
    values[..., lower] = acc
    return project_bandlimited(values, lat)


def grid_parity(u, sign):
    lat = u.lattice
    M = default_oversample(lat)
    values = sample_grid_reference(u, M)
    lower = np.nonzero(signed_heights(M, lat.L) < 0.0)[0]
    values[..., lower] = sign * values[..., M - lower]
    return project_bandlimited(values, lat)


def grid_project_zero(u, m):
    lat = u.lattice
    M = default_oversample(lat)
    values = sample_grid_reference(u, M)
    sn = signed_heights(M, lat.L)
    upper = np.nonzero(sn >= 0.0)[0]
    values[..., upper] -= grid_mirror_sum(u, reflection_coefficients(m), sn[upper], M)
    values[..., sn < 0.0] = 0.0
    return project_bandlimited(values, lat)[0]


def grid_strip_l2(u, M=None):
    M = M or default_oversample(u.lattice)
    values = sample_grid_reference(u, M)[..., : M // 2]
    return math.sqrt((u.lattice.L / M) ** u.lattice.n * np.sum(np.abs(values) ** 2))


def grid_product_integral(u, v, conjugate):
    """Strip integral from the DFT of the sampled product and half-period weights."""
    lat = u.lattice
    M = default_oversample(lat)
    su = sample_grid_reference(u, M)
    sv = sample_grid_reference(v, M)
    phat = np.fft.fftn(su * (np.conj(sv) if conjugate else sv)) / float(M) ** lat.n
    vertical = phat[(0,) * (lat.n - 1)]
    r = ((np.arange(M) + M // 2) % M) - M // 2
    weights = np.zeros(M, dtype=complex)
    weights[r == 0] = lat.L / 2.0
    odd = (r % 2) != 0
    weights[odd] = 1j * lat.L / (math.pi * r[odd])
    return complex(lat.L ** (lat.n - 1) * np.sum(vertical * weights))


COEF_TOL = 1e-12  # relative to the larger peak of input and output
RESIDUAL_TOL = 1e-13  # absolute


def weight_growth(coeffs):
    """How far the mirror weights sum |a_j| push round-off past the stated bounds.

    Both paths sum mirrored values with these weights, so their round-off
    grows with sum |a_j|.  At m = 4 (13569), against 40-digit arithmetic on
    60 random n = 1 fields with K <= 4, the grid reference's residual is off
    by up to 3.2e-13 and the column kernel's by up to 1.0e-13; their
    coefficients by up to 5.0e-13 and 1.9e-13 of the peak.  Orders m <= 3
    (sum at most 831) keep the bounds as stated.
    """
    return max(1.0, float(np.sum(np.abs(coeffs))) / 1000.0)


def assert_same_field(got, want, given, residuals=None, growth=1.0):
    assert got.lattice == want.lattice
    scale = max(want.peak(), given.peak(), 1e-300)
    assert np.max(np.abs(got.coef - want.coef)) <= COEF_TOL * growth * scale
    if residuals is not None:
        assert abs(residuals[0] - residuals[1]) <= RESIDUAL_TOL * growth


@st.composite
def random_fields(draw, min_n=1, max_n=3, max_K=6):
    n = draw(st.integers(min_n, max_n))
    K = draw(st.integers(1, max_K))
    seed = draw(st.integers(0, 2**32 - 1))
    lat = make_lattice(n, K)
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    return Field(lat, coef * draw(st.sampled_from([1e-3, 1.0, 1e3])))


COLUMN_SETTINGS = settings(max_examples=25)


class TestColumnKernelsMatchGrid:
    @COLUMN_SETTINGS
    @given(random_fields(), st.integers(0, 4), st.booleans())
    def test_extend_reflect(self, u, m, window):
        alpha = reflection_coefficients(m)
        got, res = extension(make_half_field(u), m, window)
        want, want_res = grid_extend(u, alpha, window)
        assert_same_field(got, want, u, (res, want_res), weight_growth(alpha))

    @COLUMN_SETTINGS
    @given(random_fields(), st.sampled_from(["odd", "even"]))
    def test_reflect_parity(self, u, parity):
        got, res = reflect_parity(make_half_field(u), parity)
        want, want_res = grid_parity(u, -1.0 if parity == "odd" else 1.0)
        assert_same_field(got, want, u, (res, want_res))

    @COLUMN_SETTINGS
    @given(random_fields(), st.integers(0, 4))
    def test_project_zero(self, u, m):
        growth = weight_growth(reflection_coefficients(m))
        assert_same_field(project_zero(u, m), grid_project_zero(u, m), u, growth=growth)

    @COLUMN_SETTINGS
    @given(random_fields())
    def test_strip_l2(self, u):
        M = 2 * u.lattice.K + 2
        assert lp_norm(u, 2.0, "halfspace") == pytest.approx(grid_strip_l2(u), rel=1e-12)
        assert norm_on_grid(u, 2.0, "halfspace", M) == pytest.approx(grid_strip_l2(u, M), rel=1e-12)

    @COLUMN_SETTINGS
    @given(random_fields())
    def test_sups(self, u):
        M = default_oversample(u.lattice)
        values = np.abs(sample_grid_reference(u, M))
        band = max(int(M / 16), 1)
        hf = make_half_field(u)
        assert hf.leakage == pytest.approx(
            np.max(values[..., M // 2 - band : M // 2 + 1]), rel=1e-12
        )
        assert half_peak(hf) == pytest.approx(np.max(values[..., : M // 2 + 1]), rel=1e-12)
        assert lower_half_defect(u) == pytest.approx(np.max(values[..., M // 2 + 1 :]), rel=1e-12)


# ---------------------------------------------------------------------------
# The exact kernels against oracles of their own
# ---------------------------------------------------------------------------


def cut_weight(r):
    """The strip indicator's Fourier coefficient (1/L) int_0^{L/2} exp(-i xi_r x) dx."""
    return 0.5 if r == 0 else (1.0 - (-1.0) ** r) / (2j * math.pi * r)


def toeplitz_cut(u):
    """The cut's vertical modes |a| <= 4K, summed term by term:
    out[k', a] = sum_b cut_weight(a - b) u[k', b]."""
    K = u.lattice.K
    out = np.zeros(u.coef.shape[:-1] + (8 * K + 1,), dtype=complex)
    for a in range(-4 * K, 4 * K + 1):
        for b in range(-K, K + 1):
            out[..., a + 4 * K] += cut_weight(a - b) * u.coef[..., b + K]
    return out


def dense_toeplitz_cut(u):
    """The cut as one (8K+1) x (2K+1) Toeplitz matrix of the half_period_weights
    applied to u's columns and written into the dense modes of bandlimit 4K, and
    its residual from the columns' strip energy less the kept energy."""
    K, n = u.lattice.K, u.lattice.n
    h = half_period_weights(5 * K)
    a, b = np.arange(8 * K + 1), np.arange(2 * K + 1)
    columns = u.coef.reshape(-1, 2 * K + 1)
    block = columns @ h[a[None, :] - b[:, None] + 2 * K]
    strip = float(np.vdot(columns, columns @ h[b[None, :] - b[:, None] + 5 * K]).real)
    kept = float(np.vdot(block, block).real)
    out = np.zeros((8 * K + 1,) * n, dtype=complex)
    out[(slice(3 * K, 5 * K + 1),) * (n - 1)] = block.reshape(u.coef.shape[:-1] + (8 * K + 1,))
    return out, (math.sqrt(max(strip - kept, 0.0) / strip) if strip > 0.0 else 0.0)


def residual_between(kept, tail, rest):
    """The bounds sqrt(t / (kept + t)) on a residual whose tail energy t lies in
    [tail, tail + rest]: the function is increasing in t."""
    return math.sqrt(tail / (kept + tail)), math.sqrt((tail + rest) / (kept + tail + rest))


def cut_residual_bounds(u, Q):
    """Bounds on the cut's residual from its tail summed directly over
    4K < |a| <= Q, and, past Q, |out_a| <= sum_b |c_b| / (pi (|a| - K))."""
    K = u.lattice.K
    columns = u.coef.reshape(-1, 2 * K + 1)
    a = np.concatenate([np.arange(-Q, -4 * K), np.arange(4 * K + 1, Q + 1)])
    r = a[:, None] - np.arange(-K, K + 1)[None, :]
    weights = np.where(r % 2 != 0, 1.0 / (1j * math.pi * r), 0.0)
    tail = float(np.sum(np.abs(columns @ weights.T) ** 2))
    rest = 2.0 * float(np.sum(np.abs(columns).sum(axis=1) ** 2)) / (math.pi**2 * (Q - K))
    return residual_between(float(np.sum(np.abs(toeplitz_cut(u)) ** 2)), tail, rest)


def even_profile_by_grid(pf, lat, M):
    """The modes |q| <= K of the even profile exp(-|x_n| |xi'|) times the
    boundary data, from M samples over one period: the profile has kinks at
    x_n = 0 and L/2, so the aliased modes converge like M^-2."""
    x = np.arange(M) * (lat.L / M)
    samples = np.exp(-np.multiply.outer(pf.decay_rates, np.minimum(x, lat.L - x)))
    spectrum = np.fft.fft(samples, axis=-1) / M
    return pf.boundary.coef[..., None] * spectrum[..., np.arange(-lat.K, lat.K + 1) % M]


def profile_residual_bounds(pf, lat, Q):
    """Bounds on materialize_poisson's residual from the closed-form coefficients
    c_q = (2a/L) (1 - (-1)^q e^{-aL/2}) / (a^2 + xi_q^2) summed directly over
    |q| <= Q, and, past Q, c_q^2 <= (4a/L)^2 / xi_q^4."""
    weight = np.abs(pf.boundary.coef.ravel()) ** 2
    a = pf.decay_rates.ravel()[weight > 0.0][:, None]
    weight = weight[weight > 0.0]
    L, scale = lat.L, lat.freq_scale

    def energy(q):
        c = (2.0 * a / L) * (1.0 - (-1.0) ** q * np.exp(-a * L / 2.0)) / (a**2 + (scale * q) ** 2)
        return float(weight @ np.sum(c**2, axis=1))

    kept = energy(np.arange(-lat.K, lat.K + 1))
    tail = 2.0 * energy(np.arange(lat.K + 1, Q + 1))
    rest = 2.0 * float(weight @ (4.0 * a[:, 0] / L) ** 2) / (3.0 * scale**4 * Q**3)
    return residual_between(kept, tail, rest)


def boundary_data(u):
    return without_mean(Field(u.lattice.boundary(), u.coef.sum(axis=-1)))


class TestExactKernels:
    @COLUMN_SETTINGS
    @given(random_fields(max_K=8))
    def test_indicator_multiply_is_the_toeplitz_product(self, u):
        got, _ = indicator_multiply(u)
        big = got.lattice
        inner = (slice(big.K - u.lattice.K, big.K + u.lattice.K + 1),) * (u.lattice.n - 1)
        want = toeplitz_cut(u)
        assert np.linalg.norm(got.coef[inner] - want) <= 1e-13 * np.linalg.norm(want)
        assert np.linalg.norm(got.coef) == pytest.approx(np.linalg.norm(want), rel=1e-13)

    @COLUMN_SETTINGS
    @given(random_fields(max_K=4))
    def test_cut_norms_from_the_column_block_equal_the_dense_field(self, u):
        # strichartz_indicator reads the cut's Hdot^s_2 norms from the block on
        # its own shells: bit for bit mode_sum of indicator_multiply's dense field,
        # which is the dense Toeplitz product, unchanged
        lat = u.lattice
        block, res = indicator_columns(u)
        dense, dense_res = indicator_multiply(u)
        want, want_res = dense_toeplitz_cut(u)
        assert dense.lattice == Lattice(lat.n, 4 * lat.K, lat.L)
        assert dense.coef.tobytes() == want.tobytes() and dense_res == want_res == res
        weights = [potential_sq(s) for s in fsx_suites.INDICATOR_BOUNDED + (0.9,)]

        def rows(rsq):
            return [w(rsq) for w in weights]

        got = shell_sum(lat, block, column_shells(lat, 4 * lat.K), rows)
        assert got.tobytes() == mode_sum(dense, rows).tobytes()

    @COLUMN_SETTINGS
    @given(random_fields(max_n=2))
    def test_indicator_residual_is_the_long_tail(self, u):
        _, res = indicator_multiply(u)
        lo, hi = cut_residual_bounds(u, 1 << 15)
        assert lo * (1.0 - 1e-9) <= res <= hi * (1.0 + 1e-9)

    @pytest.mark.parametrize("n,K", [(1, 32), (2, 32), (3, 12)])
    def test_indicator_matches_the_benchmark_reference(self, n, K):
        ref = _bench_reference()
        rng = np.random.default_rng(n + K)
        lat = make_lattice(n, K)
        u = Field(lat, rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape))
        got, _ = indicator_multiply(u)
        want = ref.indicator_toeplitz(u.coef, 4)
        assert np.linalg.norm(got.coef - want) <= 1e-13 * np.linalg.norm(want)

    @COLUMN_SETTINGS
    @given(random_fields(min_n=2, max_K=8))
    def test_materialize_poisson_is_the_even_profile(self, u):
        pf = PoissonField(boundary_data(u))
        hf, _ = materialize_poisson(pf, u.lattice)
        sampled = [even_profile_by_grid(pf, u.lattice, M) for M in (1 << 10, 1 << 11, 1 << 12)]
        errors = [float(np.max(np.abs(hf.field.coef - w))) for w in sampled]
        scale = max(pf.boundary.peak(), 1e-300)
        # each doubling of the grid cuts the aliasing error fourfold, down to round-off
        for coarse, fine in zip(errors, errors[1:]):
            assert fine <= coarse / 3.5 or fine <= 1e-13 * scale
        # so the extrapolation of the two finest grids leaves only the M^-4 term
        extrapolated = (4.0 * sampled[2] - sampled[1]) / 3.0
        assert np.max(np.abs(hf.field.coef - extrapolated)) <= 1e-10 * scale

    @COLUMN_SETTINGS
    @given(random_fields(min_n=2))
    def test_poisson_residual_is_the_long_tail(self, u):
        pf = PoissonField(boundary_data(u))
        _, res = materialize_poisson(pf, u.lattice)
        if pf.boundary.peak() == 0.0:
            assert res == 0.0
            return
        lo, hi = profile_residual_bounds(pf, u.lattice, 1 << 12)
        assert lo * (1.0 - 1e-9) <= res <= hi * (1.0 + 1e-9)

    @pytest.mark.parametrize("n,K", [(2, 8), (3, 4)])
    def test_neither_kernel_transforms(self, monkeypatch, n, K):
        calls = []
        for name in np.fft.__all__:
            fn = getattr(np.fft, name)
            monkeypatch.setattr(np.fft, name,
                                lambda *a, _n=name, _f=fn, **k: calls.append(_n) or _f(*a, **k))
        lat = make_lattice(n, K)
        u = Field(lat, np.random.default_rng(n).standard_normal(lat.mode_shape) + 0j)
        indicator_multiply(u)
        materialize_poisson(PoissonField(boundary_data(u)), lat)
        assert calls == []


def _bench_reference():
    """bench/reference.py, the benchmark's oracles written without fsx."""
    path = os.path.join(os.path.dirname(os.path.dirname(__file__)), "bench", "reference.py")
    spec = importlib.util.spec_from_file_location("bench_reference", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def extended_precision_extension(u, coeffs, window):
    """The n = 1 extension's modes and residual in 40-digit arithmetic.

    Same grid heights and window weights as the float paths, as inputs.
    """
    lat = u.lattice
    M = default_oversample(lat)
    sn = signed_heights(M, lat.L)
    weights = smooth_cut((6.0 / lat.L) * np.abs(sn))
    with mpmath.workdps(40):
        c = [mpmath.mpc(complex(z)) for z in u.coef]
        xi = [2 * mpmath.pi / mpmath.mpf(lat.L) * k for k in range(-lat.K, lat.K + 1)]

        def value(x):
            return mpmath.fsum(ck * mpmath.expj(xk * x) for ck, xk in zip(c, xi))

        column = []
        for s, w in zip(sn, weights):
            h = mpmath.mpf(float(s))
            if s >= 0.0:
                column.append(value(h))
            else:
                mirror = mpmath.fsum(mpmath.mpf(a) * value(-h / (j + 1)) for j, a in enumerate(coeffs))
                column.append(mirror * (mpmath.mpf(w) if window else 1))
        spectrum = [
            mpmath.fsum(v * mpmath.expj(-2 * mpmath.pi * q * j / M) for j, v in enumerate(column)) / M
            for q in range(M)
        ]
        kept = [k % M for k in range(-lat.K, lat.K + 1)]
        tail = mpmath.fsum(abs(spectrum[q]) ** 2 for q in range(M) if q not in kept)
        total = tail + mpmath.fsum(abs(spectrum[q]) ** 2 for q in kept)
        coef = np.array([complex(spectrum[q]) for q in kept])
        return coef, float(mpmath.sqrt(tail / total))


class TestExtendedPrecision:
    """The order-4 column extension against 40-digit arithmetic, not another float path."""

    @pytest.mark.parametrize("window", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_order_four_extension(self, seed, window):
        lat = make_lattice(1, 2)
        rng = np.random.default_rng(seed)
        u = Field(lat, rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape))
        alpha = reflection_coefficients(4)
        got, res = extension(make_half_field(u), 4, window)
        coef, want_res = extended_precision_extension(u, alpha, window)
        growth = weight_growth(alpha)
        scale = max(np.max(np.abs(coef)), u.peak())
        assert np.max(np.abs(got.coef - coef)) <= COEF_TOL * growth * scale
        assert abs(res - want_res) <= RESIDUAL_TOL * growth


class TestProductIntegralMatchesGrid:
    @pytest.mark.parametrize("n,K", [(1, 6), (2, 5), (3, 3)])
    @pytest.mark.parametrize("conjugate", [False, True])
    def test_closed_form_equals_grid_formula(self, n, K, conjugate):
        lat = make_lattice(n, K)
        rng = np.random.default_rng(17 + n)
        for _ in range(3):
            u, v = (
                Field(lat, rng.standard_normal(lat.mode_shape)
                      + 1j * rng.standard_normal(lat.mode_shape))
                for _ in range(2)
            )
            want = grid_product_integral(u, v, conjugate)
            got = (halfspace_product_integral if conjugate else bilinear_strip_integral)(u, v)
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)


class TestNoWholeGrid:
    """The column operators sample no M^n grid and transform none, and their
    tables are exact roots of unity, so they take no cosine of a table.  The
    strip's norms and sups sample by grid_slabs, but only at the heights of
    the upper half, at most M/2 + 1 of them."""

    @pytest.fixture
    def grid_calls(self, monkeypatch):
        calls = []

        def counted(name, fn):
            def wrapper(a, *args, **kwargs):
                calls.append((name, np.shape(a)))
                return fn(a, *args, **kwargs)

            return wrapper

        monkeypatch.setattr(np.fft, "fftn", counted("fftn", np.fft.fftn))
        monkeypatch.setattr(np.fft, "ifftn", counted("ifftn", np.fft.ifftn))
        monkeypatch.setattr(np, "cos", counted("cos", np.cos))
        monkeypatch.setattr(np, "sin", counted("sin", np.sin))

        def sampler(fn):
            def wrapper(u, M, rows=None, *args):
                calls.append(("grid_slabs", (M, M if rows is None else len(rows))))
                return fn(u, M, rows, *args)

            return wrapper

        for mod in (fsx_lattice, fsx_norms, fsx_halfspace, fsx_poisson, fsx_suites):
            if hasattr(mod, "grid_slabs"):
                monkeypatch.setattr(mod, "grid_slabs", sampler(mod.grid_slabs))
        return calls

    @staticmethod
    def assert_upper_half_only(calls, n, M):
        """No fftn and no (M,)*n transform; every grid_slabs call takes at most
        M/2 + 1 heights of the grid of M it samples, and there is one."""
        sampled = [shape for name, shape in calls if name == "grid_slabs"]
        assert sampled and all(heights <= size // 2 + 1 for size, heights in sampled)
        assert not [c for c in calls if c[0] == "fftn"]
        assert all(shape != (M,) * n for name, shape in calls if name != "grid_slabs")

    @pytest.mark.parametrize("n,K", [(2, 8), (3, 4)])
    def test_operators_stay_on_columns(self, grid_calls, n, K):
        lat = make_lattice(n, K)
        rng = np.random.default_rng(n)
        u = Field(lat, rng.standard_normal(lat.mode_shape) + 0j)
        v = Field(lat, rng.standard_normal(lat.mode_shape) + 0j)
        hf = make_half_field(u)
        half_peak(hf)
        hf.leakage
        for m in (0, 2):
            extend_reflect(hf, m)
            project_zero(u, m)
        for parity in ("odd", "even"):
            reflect_parity(hf, parity)
        lower_half_defect(u)
        indicator_multiply(u)
        lp_norm(u, 2.0, "halfspace")
        halfspace_product_integral(u, v)
        restriction_norm(hf, SpaceSpec("Lp", p=2.0, domain="halfspace"))
        g = without_mean(Field(lat.boundary(), u.coef.sum(axis=-1)))
        materialize_poisson(PoissonField(g), lat)
        self.assert_upper_half_only(grid_calls, n, default_oversample(lat))
        assert not [c for c in grid_calls if c[0] in ("cos", "sin") and len(c[1]) >= 2]

    @pytest.mark.parametrize("n,K", [(2, 8), (3, 4)])
    def test_strip_norms_and_restriction_check_stay_on_columns(self, grid_calls, n, K):
        lat = make_lattice(n, K)
        rng = np.random.default_rng(n)
        u = without_mean(Field(lat, rng.standard_normal(lat.mode_shape) + 0j))
        for p in (1.0, 4.0 / 3.0, 4.0, math.inf):
            lp_norm(u, p, "halfspace")
            triebel_norm(u, 0.5, p, "halfspace")
        fsx_suites.restriction_excess(make_half_field(u))
        self.assert_upper_half_only(grid_calls, n, default_oversample(lat))

    def test_strip_l2_still_refuses_an_aliasing_grid(self):
        lat = make_lattice(2, 8)
        with pytest.raises(AliasingRisk):
            norm_on_grid(field_from_modes(lat, {(1, lat.K): 1.0}), 2.0, "halfspace", 2 * lat.K)


def traced_cold_peak(call, *modules):
    """The peak of memory traced while call() runs, after every lru cache of
    the fsx modules given is emptied, so the call builds what it reads."""
    for mod in modules:
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear") and obj.__module__ == mod.__name__:
                obj.cache_clear()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestColumnMemory:
    """The half-space operators hold their columns and tables, never a dense
    lattice of the sharp cut, and transform their tables in place."""

    def test_strichartz_indicator_holds_no_dense_cut(self):
        # at n=3, K=8 the suite cuts fields embedded at bandlimit 16, whose dense
        # cut on the lattice of bandlimit 64 is 129^3 complex values (34 MB);
        # a suite that builds it traces over 90 MB, the column block 8 MB
        cfg = SuiteConfig(dim=3, bandlimit=8)
        dense_cut_bytes = 16 * (8 * 2 * cfg.bandlimit + 1) ** 3
        peak = traced_cold_peak(lambda: run_suite("strichartz_indicator", cfg),
                                fsx_lattice, fsx_norms, fsx_halfspace)
        assert peak < dense_cut_bytes / 2

    @pytest.mark.parametrize("build", [
        lambda lat: fsx_halfspace._operator(lat, (-1.0,), False, False),
        lambda lat: fsx_halfspace._operator(lat, reflection_coefficients(2), True, False),
        lambda lat: fsx_halfspace._operator(lat, tuple(-a for a in reflection_coefficients(1)),
                                            False, True),
    ], ids=["odd", "E2w", "zero_m1"])
    def test_cold_operator_build_transforms_its_table_in_place(self, build):
        # the M x (2K+1) table at n=2, K=64 is 512 x 129 complex (1.06 MB): a
        # copy for the DFT's output takes a cold build over 3.1 MB; in place it
        # traces 2.4 MB
        lat = make_lattice(2, 64)
        assert traced_cold_peak(lambda: build(lat), fsx_lattice, fsx_halfspace) < 2.6e6
