"""Property tests of the field format, the norms and the Poisson extension."""

import json
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from fsx.lattice import (
    Field,
    default_oversample,
    field_from_dict,
    field_to_dict,
    make_lattice,
    without_mean,
    zero_field,
)
from fsx.norms import SpaceSpec, besov_norm, triebel_norm
from fsx.poisson import poisson_extend
from grid_reference import norm_on_grid

PROPERTY_SETTINGS = settings(max_examples=40)

# no -0.0: a mode whose parts are both zero is not written, and reads back as +0.0
finite = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(
    lambda x: x == 0.0 or abs(x) > 1e-200).map(lambda x: x + 0.0)


@st.composite
def sparse_fields(draw):
    """A field on n <= 3, K <= 6 and any period, with a few random modes or none."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 6))
    L = draw(st.sampled_from([2.0 * math.pi, 1.0, 5.0, 17.3]))
    u = zero_field(make_lattice(n, K, L))
    for _ in range(draw(st.integers(0, 8))):
        idx = tuple(draw(st.integers(0, 2 * K)) for _ in range(n))
        u.coef[idx] = complex(draw(finite), draw(finite))
    return u


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestFieldFormat:
    @PROPERTY_SETTINGS
    @given(sparse_fields())
    def test_dict_round_trip_is_bitwise(self, u):
        back = field_from_dict(field_to_dict(u))
        assert back.lattice == u.lattice
        assert same_bits(back.coef, u.coef)

    @PROPERTY_SETTINGS
    @given(sparse_fields())
    def test_json_round_trip_is_bitwise(self, u):
        back = field_from_dict(json.loads(json.dumps(field_to_dict(u))))
        assert back.lattice == u.lattice
        assert same_bits(back.coef, u.coef)


@st.composite
def modulated_fields(draw):
    """A field occupying the band K' and a lattice mode k0 with |k0|inf + K' <= K."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(2, 6 if n < 3 else 4))
    band = draw(st.integers(1, K - 1))
    k0 = tuple(draw(st.integers(band - K, K - band)) for _ in range(n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = make_lattice(n, K)
    u = zero_field(lat)
    inner = (slice(K - band, K + band + 1),) * n
    shape = (2 * band + 1,) * n
    u.coef[inner] = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return u, k0


def modulate(u, k0):
    """u times exp(i k0 . xi x): every mode moves by k0, none leaves the lattice."""
    return Field(u.lattice, np.roll(u.coef, k0, axis=tuple(range(u.lattice.n))))


class TestModulation:
    @PROPERTY_SETTINGS
    @given(modulated_fields())
    def test_lp_norm_is_unchanged(self, case):
        u, k0 = case
        v = modulate(u, k0)
        assert np.count_nonzero(v.coef) == np.count_nonzero(u.coef)  # nothing wrapped
        M = default_oversample(u.lattice)
        ps = [1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]
        for a, b in zip(norm_on_grid(u, ps, "whole", M), norm_on_grid(v, ps, "whole", M)):
            assert abs(a - b) <= 1e-13 * a


@st.composite
def boundary_data(draw):
    """Zero-mean boundary data on n - 1 <= 2 axes, with or without mean dust."""
    n = draw(st.integers(1, 2))
    K = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = make_lattice(n, K, draw(st.sampled_from([2.0 * math.pi, 3.0])))
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    coef *= draw(st.sampled_from([1e-3, 1.0, 1e3]))
    coef[(K,) * n] = draw(st.sampled_from([0.0, 1e-15])) * np.abs(coef).max()
    return Field(lat, coef)


class TestPoissonTrace:
    @PROPERTY_SETTINGS
    @given(boundary_data())
    def test_trace_of_the_extension_is_the_data(self, g):
        assert same_bits(poisson_extend(g).slice_field(0.0).coef, without_mean(g).coef)


@st.composite
def norm_cases(draw):
    """A zero-mean field on n <= 3, a domain, an exponent, a whole number of
    steps L/M of its default grid per axis (0 across x_n on the strip, where
    only horizontal shifts are symmetries) and a nonzero complex scale."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(2, 6 if n < 3 else 4))
    lat = make_lattice(n, K, draw(st.sampled_from([2.0 * math.pi, 3.0, 11.0])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    u = without_mean(Field(lat, rng.standard_normal(lat.mode_shape)
                           + 1j * rng.standard_normal(lat.mode_shape)))
    domain = draw(st.sampled_from(["whole", "halfspace"]))
    steps = [draw(st.integers(0, 2**16)) for _ in range(n)]
    if domain == "halfspace":
        steps[-1] = 0
    scale = complex(draw(st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-3)),
                    draw(st.floats(-1e3, 1e3)))
    p = draw(st.sampled_from([1.0, 4.0 / 3.0, 2.0, 4.0, math.inf]))
    return u, domain, p, steps, scale


def grid_shift(u, steps):
    """u(x - steps L/M) on its default grid M: mode k picks up the exact root of
    unity exp(-2 pi i (k . steps mod M) / M), which permutes the grid's nodes."""
    M = default_oversample(u.lattice)
    k = np.indices(u.lattice.mode_shape) - u.lattice.K
    r = sum(k[a] * s for a, s in enumerate(steps)) % M
    return Field(u.lattice, u.coef * np.exp(-2j * math.pi * r / M))


def besov_triebel(u, domain, p):
    """Bdot and B at two (s, q) each, and the square-function norm at one s."""
    return np.array([besov_norm(u, SpaceSpec(fam, s=s, p=p, q=q, domain=domain))
                     for fam in ("Bdot", "B") for s, q in ((0.7, 2.0), (-0.5, math.inf))]
                    + [triebel_norm(u, 0.4, p, domain)])


class TestBesovTriebelStrip:
    @PROPERTY_SETTINGS
    @given(norm_cases())
    def test_grid_translation_invariance(self, case):
        u, domain, p, steps, _ = case
        want = besov_triebel(u, domain, p)
        np.testing.assert_allclose(besov_triebel(grid_shift(u, steps), domain, p), want,
                                   rtol=1e-12)

    @PROPERTY_SETTINGS
    @given(norm_cases())
    def test_homogeneity(self, case):
        u, domain, p, _, scale = case
        want = abs(scale) * besov_triebel(u, domain, p)
        np.testing.assert_allclose(besov_triebel(scale * u, domain, p), want, rtol=1e-12)

    @PROPERTY_SETTINGS
    @given(norm_cases())
    def test_besov_does_not_increase_with_q(self, case):
        u, domain, p, _, _ = case
        for fam in ("Bdot", "B"):
            values = [besov_norm(u, SpaceSpec(fam, s=0.3, p=p, q=q, domain=domain))
                      for q in (1.0, 4.0 / 3.0, 2.0, 4.0, math.inf)]
            for wider, narrower in zip(values, values[1:]):
                assert narrower <= wider * (1.0 + 1e-12)

    @PROPERTY_SETTINGS
    @given(norm_cases(), st.sampled_from([1.0, 4.0 / 3.0, math.inf]), st.integers(0, 8))
    def test_strip_norm_is_at_most_the_whole_norm(self, case, p, extra):
        """On one M the strip's nodes are some of the torus's, so its sum or
        sup is at most the whole one, up to the rounding of the two samplers."""
        u = case[0]
        M = 2 * u.lattice.K + 2 + 2 * extra
        assert norm_on_grid(u, p, "halfspace", M) <= norm_on_grid(u, p, "whole", M) * (1.0 + 1e-12)
