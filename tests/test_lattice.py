import cmath
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.lattice as fsx_lattice
from fsx.errors import AliasingRisk, BandlimitExceeded, InvalidParameter, IoError
from fsx.dyadic import annulus_values, build_dyadic_family, delta_dot
from fsx.halfspace import far_band_rows
from fsx.lattice import (
    Field,
    chebyshev_radius,
    default_oversample,
    dilate,
    evaluate,
    exact_grid,
    exact_phases,
    field_from_dict,
    field_from_modes,
    field_to_dict,
    grid_slabs,
    is_homogeneous_admissible,
    k_axis,
    make_lattice,
    occupied,
    plane_wave,
    shells,
    zero_field,
)
from grid_reference import (
    project_bandlimited,
    project_columns,
    project_columns_by_mask,
    sample_grid_reference,
    slab_grid,
    vertical_phases,
)

TWO_PI = 2.0 * math.pi


def direct_mode_sum(modes, x, scale=1.0):
    """Independent oracle: literal sum of c_k * exp(i (scale k) . x)."""
    total = 0.0 + 0.0j
    for k, c in modes.items():
        phase = scale * sum(ki * xi for ki, xi in zip(k, x))
        total += c * cmath.exp(1j * phase)
    return total


def random_sparse_modes(lat, rng, count=10):
    modes = {}
    while len(modes) < count:
        k = tuple(int(v) for v in rng.integers(-lat.K, lat.K + 1, size=lat.n))
        modes[k] = complex(rng.standard_normal(), rng.standard_normal())
    return modes


class TestMakeLattice:
    def test_default_mode_count(self):
        lat = make_lattice(2, 32, TWO_PI)
        assert lat.modes_per_axis == 65
        assert lat.mode_shape == (65, 65)
        assert lat.freq_scale == 1.0

    def test_smallest(self):
        lat = make_lattice(1, 1, TWO_PI)
        assert lat.mode_shape == (3,)

    def test_freq_spacing(self):
        lat = make_lattice(3, 8, 2 * TWO_PI)
        assert lat.freq_scale == pytest.approx(0.5, abs=0)

    @pytest.mark.parametrize(
        "bad", [(0, 4, TWO_PI), (2, 0, TWO_PI), (2, 4, -1.0), (2, 4, math.inf), (2, 4, math.nan)]
    )
    def test_invalid(self, bad):
        with pytest.raises(InvalidParameter):
            make_lattice(*bad)


class TestEvaluate:
    def test_plane_wave_at_pi(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (1, 0))
        assert evaluate(u, (math.pi, 0.0)) == pytest.approx(-1.0, abs=1e-14)

    def test_zero_field(self):
        lat = make_lattice(2, 4)
        assert evaluate(zero_field(lat), (0.3, -2.0)) == 0

    def test_against_direct_sum(self):
        lat = make_lattice(2, 16)
        rng = np.random.default_rng(7)
        modes = random_sparse_modes(lat, rng, 10)
        u = field_from_modes(lat, modes)
        x = (0.3, 1.1)
        want = direct_mode_sum(modes, x)
        assert abs(evaluate(u, x) - want) < 1e-14 * max(abs(want), 1.0)

    def test_periodicity(self):
        lat = make_lattice(2, 8)
        rng = np.random.default_rng(3)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 6))
        x = np.array([0.7, 2.1])
        shifted = x + np.array([lat.L, -lat.L])
        assert abs(evaluate(u, x) - evaluate(u, shifted)) < 1e-12

    def test_linearity(self):
        lat = make_lattice(2, 8)
        rng = np.random.default_rng(11)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 5))
        v = field_from_modes(lat, random_sparse_modes(lat, rng, 5))
        a, b = 1.3 - 0.2j, -0.7 + 2j
        x = (0.5, 1.9)
        lhs = evaluate(a * u + b * v, x)
        rhs = a * evaluate(u, x) + b * evaluate(v, x)
        assert abs(lhs - rhs) < 1e-13 * max(abs(rhs), 1.0)


class TestSampleGrid:
    """The one sampler, lattice.grid_slabs, with its slabs assembled (slab_grid)."""

    def test_constant(self):
        lat = make_lattice(2, 2)
        u = field_from_modes(lat, {(0, 0): 3.0})
        assert np.allclose(slab_grid(u, 8), 3.0, atol=1e-14)

    def test_modulus_one(self):
        lat = make_lattice(2, 4)
        u = plane_wave(lat, (1, 1))
        assert np.allclose(np.abs(slab_grid(u, 128)), 1.0, atol=1e-13)

    def test_matches_evaluate_full_grid(self):
        lat = make_lattice(2, 8)
        rng = np.random.default_rng(2)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 12))
        M = 4 * (2 * lat.K + 1)
        s = slab_grid(u, M)
        xs = np.arange(M) * (lat.L / M)
        pts = np.stack(np.meshgrid(xs, xs, indexing="ij"), axis=-1).reshape(-1, 2)
        direct = np.array([evaluate(u, x) for x in pts]).reshape(M, M)
        assert np.max(np.abs(s - direct)) < 1e-12 * max(np.abs(direct).max(), 1)

    def test_aliasing_guard(self):
        lat = make_lattice(1, 16)
        with pytest.raises(AliasingRisk):
            slab_grid(plane_wave(lat, (1,)), 2 * lat.K + 1)


@st.composite
def grid_cases(draw):
    """A complex field with n <= 3, K <= 6, full-band or on a smaller band,
    and a grid size: the floor 2K+2, a 2*3*5-smooth size or a power of two."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    band = draw(st.sampled_from([K, draw(st.integers(1, K))]))
    lat = make_lattice(n, K)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    coef = np.zeros(lat.mode_shape, dtype=complex)
    inner = (slice(K - band, K + band + 1),) * n
    coef[inner] = rng.standard_normal(coef[inner].shape) + 1j * rng.standard_normal(coef[inner].shape)
    M = draw(st.sampled_from([2 * K + 2, 3 * (2 * K + 1), 1 << (2 * K + 1).bit_length()]))
    return Field(lat, coef), M


class TestPrunedTransform:
    @settings(max_examples=60)
    @given(grid_cases())
    def test_matches_one_shot_transform(self, case):
        u, M = case
        want = sample_grid_reference(u, M)
        got = slab_grid(u, M)
        assert got.shape == (M,) * u.lattice.n
        assert np.max(np.abs(got - want)) <= 1e-13 * max(np.abs(want).max(), 1e-300)
        band = slab_grid(occupied(u), M)
        assert np.max(np.abs(band - want)) <= 1e-13 * max(np.abs(want).max(), 1e-300)

    @settings(max_examples=60)
    @given(grid_cases(), st.sampled_from([1 << 15, 1000, 64]))
    def test_rows_are_the_one_shot_grid_at_their_heights(self, case, slab):
        """grid_slabs(u, M, rows) at each run of heights the rule reads (all,
        [0, M/2), [0, M/2], (M/2, M) and the far band) is the one-shot grid at
        those heights, and no slab of whole heights exceeds max(SLAB, M^(n-1))."""
        u, M = case
        n = u.lattice.n
        want = sample_grid_reference(u, M)
        scale = max(np.abs(want).max(), 1e-300)
        for rows in (np.arange(M), np.arange((M + 1) // 2), np.arange(M // 2 + 1),
                     np.arange(M // 2 + 1, M), far_band_rows(M)):
            with mock.patch.object(fsx_lattice, "SLAB", slab):
                slabs = [s.copy() for s in grid_slabs(u, M, rows=rows)]
            assert all(s.size <= max(slab, M ** (n - 1)) for s in slabs)
            got = np.moveaxis(np.concatenate(slabs), 0, -1)
            assert got.shape == (M,) * (n - 1) + (len(rows),)
            assert np.max(np.abs(got - want[..., rows])) <= 1e-13 * scale


class TestOccupied:
    def test_chebyshev_radius(self):
        r = chebyshev_radius(make_lattice(3, 2))
        assert r[2, 2, 2] == 0 and r[0, 2, 3] == 2 and r[3, 1, 2] == 1
        assert r.max() == 2

    @pytest.mark.parametrize("n, K", [(2, 32), (3, 8)])
    def test_block_band_is_its_annulus_radius(self, n, K):
        lat = make_lattice(n, K)
        fam = build_dyadic_family(lat)
        rng = np.random.default_rng(5)
        u = Field(lat, rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape))
        for j in fam.j_range:
            want = int(chebyshev_radius(lat)[annulus_values(lat, j) != 0].max(initial=1))
            band = occupied(delta_dot(u, j, fam))
            assert band.lattice == make_lattice(n, want)
            assert np.max(np.abs(slab_grid(band, 2 * K + 2)
                                 - slab_grid(delta_dot(u, j, fam), 2 * K + 2))) < 1e-12

    def test_zero_field_has_band_one(self):
        assert occupied(zero_field(make_lattice(2, 8))).lattice == make_lattice(2, 1)

    def test_full_band_is_the_same_object(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (-8, 3))
        assert occupied(u) is u

    def test_crop_keeps_modes(self):
        lat = make_lattice(2, 8)
        u = field_from_modes(lat, {(2, -3): 1.5j, (0, 1): 2.0})
        band = occupied(u)
        assert band.lattice == make_lattice(2, 3)
        assert band.coef[2 + 3, -3 + 3] == 1.5j and band.coef[3, 4] == 2.0
        assert np.sum(np.abs(band.coef)) == np.sum(np.abs(u.coef))


class TestModeTables:
    """shells and chebyshev_radius are outer sums and maxima of one axis:
    bitwise the formulas on the index cube, which they do not build."""

    @pytest.mark.parametrize("n, K", [(1, 3), (2, 5), (3, 4)])
    def test_equal_the_index_cube(self, n, K):
        lat = make_lattice(n, K)
        k = np.indices(lat.mode_shape) - K
        for got, want in ((shells(lat), np.sum(k**2, axis=0)),
                          (chebyshev_radius(lat), np.abs(k).max(axis=0))):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes() and not got.flags.writeable

    @pytest.mark.parametrize("table", [shells, chebyshev_radius])
    def test_builds_no_index_cube(self, table):
        # the indicator's lattice in the desk strichartz_indicator: the 513^2
        # int64 output (2.1 MB) is the peak, where an index cube of the two
        # axes and its offset copy held three to four times it
        lat = make_lattice(2, 256)
        k_axis(lat.K)
        table.cache_clear()
        tracemalloc.start()
        try:
            out = table(lat)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * out.nbytes


class TestProjectBandlimited:
    def test_roundtrip(self):
        lat = make_lattice(2, 16)
        rng = np.random.default_rng(4)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 20))
        v, res = project_bandlimited(sample_grid_reference(u, 128), lat)
        assert res <= 1e-12
        assert np.max(np.abs(v.coef - u.coef)) < 1e-12 * u.peak()

    def test_zero(self):
        lat = make_lattice(1, 4)
        v, res = project_bandlimited(sample_grid_reference(zero_field(lat), 16), lat)
        assert res == 0.0
        assert v.peak() == 0.0

    def test_abs_sin_residual_matches_series_tail(self):
        # |sin x| has the cosine series 2/pi - (4/pi) sum cos(2mx)/(4m^2-1);
        # the discarded-tail energy of that series is the projection residual
        # up to aliasing of order (K/M)^2.
        lat = make_lattice(1, 16)
        M = 256
        xs = np.arange(M) * (lat.L / M)
        _, res = project_bandlimited(np.abs(np.sin(xs)).astype(complex), lat)

        def dft_coeff(k):
            # sampling aliases every image k + m M onto bin k; with the partial
            # fractions -2/(pi (k-1)(k+1)) the image sum telescopes into
            # cotangents, except at bin 0 where the mean term dominates anyway
            cot = lambda t: math.cos(t) / math.sin(t)
            if k % 2 == 1:
                return 0.0
            if k == 0:
                return (2.0 / M) * cot(math.pi / M)
            return -(1.0 / M) * (
                cot(math.pi * (k - 1) / M) - cot(math.pi * (k + 1) / M)
            )

        window = [k for k in range(-M // 2, M // 2)]
        total = sum(dft_coeff(k) ** 2 for k in window)
        kept = sum(dft_coeff(k) ** 2 for k in window if abs(k) <= lat.K)
        want = math.sqrt((total - kept) / total)
        assert res == pytest.approx(want, rel=1e-9)


def grid_sizes(K):
    """The floor 2K+2, a 2*3*5-smooth size and a power of two."""
    return st.sampled_from([2 * K + 2, 3 * (2 * K + 1), 1 << (2 * K + 1).bit_length()])


@st.composite
def phase_cases(draw):
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    return make_lattice(n, K), draw(grid_sizes(K)), draw(st.integers(0, 4)), draw(st.sampled_from([1, -1]))


class TestExactPhases:
    @settings(max_examples=80)
    @given(phase_cases())
    def test_matches_cosines_at_the_rational_heights(self, case):
        """The grid heights j L/M and the mirror points -+j L/(M(i+1)) of order i."""
        lat, M, i, sign = case
        N = M * (i + 1)
        r = sign * np.arange(M + 1)
        got = exact_phases(lat.K, r, N)
        assert got.shape == (M + 1, lat.modes_per_axis)
        assert np.max(np.abs(got - vertical_phases(lat, r * (lat.L / N)))) <= 1e-14


@st.composite
def column_spectra(draw):
    """DFT bins of columns (bins first): full, with a faint tail, band-limited or zero."""
    n, K = draw(st.integers(1, 3)), draw(st.integers(1, 8))
    M = draw(grid_sizes(K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (M,) + (2 * K + 1,) * (n - 1)
    spectra = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    spectra[K + 1 : M - K] *= draw(st.sampled_from([1.0, 1e-9, 0.0]))
    return spectra * draw(st.sampled_from([1.0, 1e-100, 0.0])), K


class TestProjectColumns:
    @settings(max_examples=80)
    @given(column_spectra())
    def test_matches_copy_and_mask(self, case):
        spectra, K = case
        kept, residual = project_columns(spectra, K)
        want, want_residual = project_columns_by_mask(np.moveaxis(spectra, 0, -1), K)
        assert np.array_equal(kept, want)
        assert abs(residual - want_residual) <= 1e-15 * want_residual

    def test_aliasing_guard(self):
        with pytest.raises(AliasingRisk):
            project_columns(np.ones((2 * 4 + 1, 3), dtype=complex), 4)


class TestDilate:
    def test_identity(self):
        lat = make_lattice(2, 8)
        rng = np.random.default_rng(9)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 6))
        v = dilate(u, 0)
        assert np.array_equal(v.coef, u.coef)

    def test_mode_mapping(self):
        lat = make_lattice(2, 8)
        u = plane_wave(lat, (1, 0))
        v = dilate(u, 2)
        # mode moves to (4, 0); amplitude carries the measure normalization
        assert abs(v.coef[lat.K + 4, lat.K] - 2.0 ** (-2 * lat.n / 2)) < 1e-15
        assert np.count_nonzero(v.coef) == 1

    def test_evaluate_oracle(self):
        # dilate(u, m) evaluates as 2^(-mn/2) u(2^m x)
        lat = make_lattice(2, 32)
        rng = np.random.default_rng(21)
        modes = {}
        while len(modes) < 8:
            k = tuple(int(v) for v in rng.integers(-8, 9, size=2))
            modes[k] = complex(rng.standard_normal(), rng.standard_normal())
        u = field_from_modes(lat, modes)
        v = dilate(u, 1)
        pts = rng.uniform(0, lat.L, size=(20, 2))
        scale = 2.0 ** (-1 * lat.n / 2)
        for x in pts:
            want = scale * evaluate(u, 2.0 * x)
            got = evaluate(v, x)
            assert abs(got - want) < 1e-13 * max(abs(want), 1.0)

    def test_composition(self):
        lat = make_lattice(2, 32)
        u = field_from_modes(lat, {(1, 2): 1.0, (-3, 0): 0.5j})
        w1 = dilate(dilate(u, 1), 2)
        w2 = dilate(u, 3)
        assert np.max(np.abs(w1.coef - w2.coef)) < 1e-15

    def test_bandlimit_guard(self):
        lat = make_lattice(2, 8)
        with pytest.raises(BandlimitExceeded):
            dilate(plane_wave(lat, (5, 0)), 1)

    @pytest.mark.parametrize("m", [math.nan, math.inf, -1, 1.5, "1"])
    def test_bad_exponent_refused(self, m):
        with pytest.raises(InvalidParameter):
            dilate(plane_wave(make_lattice(2, 8), (1, 0)), m)


class TestAdmissibility:
    def test_zero_dc_admissible(self):
        lat = make_lattice(2, 4)
        assert is_homogeneous_admissible(plane_wave(lat, (1, 0)))

    def test_constant_not_admissible(self):
        lat = make_lattice(2, 4)
        u = field_from_modes(lat, {(0, 0): 1.0})
        assert not is_homogeneous_admissible(u)

    def test_zero_field_admissible(self):
        lat = make_lattice(2, 4)
        assert is_homogeneous_admissible(zero_field(lat))

    def test_exact_zero_mode_scans_no_peak(self, monkeypatch):
        u = plane_wave(make_lattice(2, 4), (1, 0))

        def refuse(self):
            raise AssertionError("an exact zero mode needs no peak")

        monkeypatch.setattr(Field, "peak", refuse)
        assert is_homogeneous_admissible(u)


class TestFieldIO:
    def test_roundtrip(self):
        lat = make_lattice(2, 6)
        rng = np.random.default_rng(13)
        u = field_from_modes(lat, random_sparse_modes(lat, rng, 9))
        v = field_from_dict(field_to_dict(u))
        assert v.lattice == lat
        assert np.max(np.abs(v.coef - u.coef)) == 0.0

    def test_duplicate_mode_rejected(self):
        data = {"n": 1, "K": 2, "L": TWO_PI, "modes": [[1, 1.0, 0.0], [1, 2.0, 0.0]]}
        with pytest.raises(IoError):
            field_from_dict(data)

    @pytest.mark.parametrize("k, error", [((1,), InvalidParameter), ((1, 2, 3), InvalidParameter),
                                          ((5, 0), BandlimitExceeded)])
    def test_mode_index_checked(self, k, error):
        lat = make_lattice(2, 4)
        with pytest.raises(error):
            field_from_modes(lat, {k: 1.0})
        with pytest.raises(error):
            plane_wave(lat, k)

    def test_out_of_band_rejected(self):
        data = {"n": 1, "K": 2, "L": TWO_PI, "modes": [[5, 1.0, 0.0]]}
        with pytest.raises(IoError):
            field_from_dict(data)

    @pytest.mark.parametrize("L", [math.inf, -math.inf, math.nan])
    def test_nonfinite_period_rejected(self, L):
        data = {"n": 2, "K": 4, "L": L, "modes": [[1, 0, 1.0, 0.0]]}
        with pytest.raises(IoError):
            field_from_dict(data)

    @pytest.mark.parametrize("re, im", [(math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)])
    def test_nonfinite_amplitude_rejected(self, re, im):
        data = {"n": 2, "K": 4, "L": TWO_PI, "modes": [[1, 0, re, im]]}
        with pytest.raises(IoError):
            field_from_dict(data)


class TestExactGrid:
    @staticmethod
    def smooth(m):
        for f in (2, 3, 5):
            while m % f == 0:
                m //= f
        return m == 1

    @pytest.mark.parametrize("p", [2.0, 4.0, 6.0, 8.0])
    @pytest.mark.parametrize("K", [1, 2, 7, 8, 16, 31, 32, 64])
    def test_smallest_smooth_grid_above_pK(self, K, p):
        lat = make_lattice(2, K)
        M = exact_grid(lat, p)
        assert self.smooth(M)
        assert M > p * K and M >= 2 * K + 2
        assert not any(
            self.smooth(m) for m in range(max(int(p) * K + 1, 2 * K + 2), M)
        )

    def test_desk_sizes(self):
        lat = make_lattice(2, 32)
        assert exact_grid(lat, 4.0) == 135
        assert exact_grid(lat, 2.0) == 72

    @pytest.mark.parametrize("p", [1.0, 4.0 / 3.0, 3.0, math.inf])
    def test_no_exact_grid_falls_back(self, p):
        lat = make_lattice(2, 32)
        assert exact_grid(lat, p) == default_oversample(lat)

    def test_strip_falls_back(self):
        lat = make_lattice(2, 32)
        assert exact_grid(lat, 4.0, whole=False) == default_oversample(lat)
