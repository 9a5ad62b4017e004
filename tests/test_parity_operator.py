"""The parity reflections' column operators, built once per lattice.

reflect_parity reads the kept rows of each (lattice, parity), and the
triangular factor of its discarded rows, from the reflections' one cache,
halfspace._operator, under the key (lattice, (-1.0,) or (1.0,), False).
Every coefficient array must be bitwise what the per-call route gives
(grid_reference.parity_per_call), with the cache cold and warm; a projection
residual, read from the factor instead of the discarded rows, agrees to
round-off (residuals_agree).
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.halfspace as fsx_halfspace
import fsx.solvers as fsx_solvers
from fsx.corpus import generate_corpus
from fsx.errors import InvalidParameter
from fsx.halfspace import make_half_field, reflect_parity
from fsx.lattice import Field, make_lattice, without_mean
from fsx.solvers import bvp_dirichlet, bvp_neumann, resolvent_halfspace
from grid_reference import parity_per_call


# the _operator arguments after the lattice of each parity reflection
PARITY_KEYS = {"odd": ((-1.0,), False), "even": ((1.0,), False)}


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@st.composite
def parity_cases(draw):
    """A strip source on n <= 3, K <= 8, zero-mean boundary data, a parity and a lambda."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    lat = make_lattice(n, K)
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    parity = draw(st.sampled_from(["odd", "even"]))
    # odd or even in x_n with no zero mode: the reflection keeps the source, and
    # the whole-space solve at lambda = 0 sees no mean
    coef = coef - coef[..., ::-1] if parity == "odd" else coef + coef[..., ::-1]
    coef[(K,) * n] = 0.0
    g = None
    if n > 1:
        blat = lat.boundary()
        g = without_mean(Field(blat, rng.standard_normal(blat.mode_shape) + 0j))
    theta = draw(st.sampled_from([0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4]))
    lam = draw(st.sampled_from([1.0, 10.0])) * complex(math.cos(theta), math.sin(theta))
    return make_half_field(Field(lat, coef)), g, parity, lam


def residuals_agree(a, b):
    """Two projection residuals equal to round-off: 1e-12 relative or 1e-15 absolute."""
    return abs(a - b) <= max(1e-12 * max(abs(a), abs(b)), 1e-15)


def outputs(hf, g, parity, lam):
    """Every output of reflect_parity and the solvers that reflect hf with parity:
    the coefficient arrays and values, then the projection residuals."""
    field, residual = fsx_solvers.reflect_parity(hf, parity)
    out, residuals = [field.coef], [residual]
    bc = "dirichlet" if parity == "odd" else "neumann"
    u, res = resolvent_halfspace(hf, lam, bc)
    out += [u.field.coef, u.leakage]
    residuals.append(res)
    if g is not None:
        sol = (bvp_dirichlet if parity == "odd" else bvp_neumann)(hf, g)
        out += [sol.v.coef, sol.w.boundary.coef]
        residuals.append(sol.reflection_residual)
    return out, residuals


class TestParityOperatorCache:
    @settings(max_examples=30)
    @given(parity_cases())
    def test_equals_the_per_call_route_cold_and_warm(self, case):
        with mock.patch.object(fsx_solvers, "reflect_parity", parity_per_call):
            want = outputs(*case)
        fsx_halfspace._operator.cache_clear()
        cold = outputs(*case)
        warm = outputs(*case)
        assert fsx_halfspace._operator.cache_info().misses == 1
        for got, residuals in (cold, warm):
            assert len(got) == len(want[0]) and len(residuals) == len(want[1])
            assert all(same_bits(a, b) for a, b in zip(got, want[0]))
            assert all(residuals_agree(a, b) for a, b in zip(residuals, want[1]))

    def test_reflect_parity_equals_the_per_call_route(self):
        for kind in ("sine_strip", "cosine_strip"):
            hf = make_half_field(generate_corpus(42, kind, 1, make_lattice(2, 32)).fields[0])
            for parity in ("odd", "even"):
                got, res = reflect_parity(hf, parity)
                want, want_res = parity_per_call(hf, parity)
                assert same_bits(got.coef, want.coef) and residuals_agree(res, want_res)

    def test_cached_operator_is_read_only(self):
        for parity in ("odd", "even"):
            kept, factor = fsx_halfspace._operator(make_lattice(2, 4), *PARITY_KEYS[parity])
            assert kept.shape == factor.shape == (9, 9)
            for op in (kept, factor):
                with pytest.raises(ValueError):
                    op[0, 0] = 1.0

    def test_built_once_per_parity(self):
        lat = make_lattice(2, 8)
        sine, cosine = (make_half_field(generate_corpus(7, kind, 1, lat).fields[0])
                        for kind in ("sine_strip", "cosine_strip"))
        fsx_halfspace._operator.cache_clear()
        for i in range(10):
            f, bc = (sine, "dirichlet") if i % 2 else (cosine, "neumann")
            resolvent_halfspace(f, 1.0 + i, bc)
        info = fsx_halfspace._operator.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 8, 2)

    def test_unknown_parity_builds_nothing(self):
        fsx_halfspace._operator.cache_clear()
        hf = make_half_field(generate_corpus(7, "sine_strip", 1, make_lattice(2, 4)).fields[0])
        with pytest.raises(InvalidParameter):
            reflect_parity(hf, "both")
        assert fsx_halfspace._operator.cache_info().currsize == 0
