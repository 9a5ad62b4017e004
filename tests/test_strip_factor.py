"""Column energies from cached triangular factors, and column operators kept
as their kept rows.

For a fixed set of rows T of a column transform, ||T a|| = ||R a|| for the
triangular factor R of the QR of T.  The strip's p = 2 rule reads each
column's sum of squares at the M/2 heights from one such factor
(norms.strip_rows), the resolvent estimate reads its derivative norms from
four of those sums (norms.strip_derivative_norms), and the parity reflection
reads its projection residual from the factor of its discarded rows.  Each
is checked against the per-call route in grid_reference: columns formed and
summed, derivative fields built one by one, M-row operators built and
applied on the call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fsx.halfspace as fsx_halfspace
import fsx.norms as fsx_norms
from fsx.corpus import bump_field, generate_corpus
from fsx.dyadic import delta_dot
from fsx.errors import FsxError
from fsx.halfspace import make_half_field, project_zero, reflection_coefficients
from fsx.lattice import Field, energy_factor, exact_phases, make_lattice
from fsx.multipliers import gradient
from fsx.norms import lp_norm, strip_derivative_norms, strip_rows, triebel_norms
from fsx.solvers import DIRICHLET, NEUMANN, bvp_dirichlet, resolvent_estimate_check
from grid_reference import (
    hessian,
    norm_on_grid,
    project_zero_per_call,
    resolvent_estimate_by_fields,
    sample_grid_reference,
    strip_l2_by_columns,
    strip_rows_by_columns,
)


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def random_field(lat, rng):
    return Field(lat, rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape))


@st.composite
def strip_cases(draw):
    """A random field on n <= 3, K <= 8 and an even M >= 2K + 2."""
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 8))
    M = 2 * draw(st.integers(K + 1, 8 * K))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    L = draw(st.sampled_from([2.0 * math.pi, 3.0, 11.0]))
    return random_field(make_lattice(n, K, L), rng), M


class TestStripRows:
    @settings(max_examples=60)
    @given(strip_cases())
    def test_equals_the_column_sum(self, case):
        v, M = case
        got, want = strip_rows(v, M), strip_rows_by_columns(v, M)
        assert got.shape == want.shape == (v.coef.size // v.lattice.modes_per_axis,)
        assert np.allclose(got, want, rtol=1e-13, atol=0.0)
        assert norm_on_grid(v, 2.0, "halfspace", M) == pytest.approx(strip_l2_by_columns(v, M),
                                                                      rel=1e-13)

    @pytest.mark.parametrize("sigma", [0.2, 0.25, 0.3])
    def test_one_sided_bump_below_the_strip(self, sigma):
        """A bump centred at x_n = -L/4 has little strip content (strip L2 norm
        about 1.5e-10 at sigma = 0.2): the QR factor of the phases keeps its
        digits, where the Gram matrix of the nearly rank-deficient phases
        would lose them."""
        lat = make_lattice(2, 32)
        u = bump_field(lat, -lat.L / 4.0, sigma)
        want = strip_l2_by_columns(u)
        assert 0.0 < want < 1e-3
        assert lp_norm(u, 2.0, "halfspace") == pytest.approx(want, rel=1e-6)

    def test_factor_is_triangular_and_keeps_every_energy(self):
        rows = exact_phases(5, np.arange(16), 32)
        factor = energy_factor(rows)
        assert factor.shape == (11, 11) and np.allclose(factor, np.triu(factor))
        a = np.random.default_rng(3).standard_normal((4, 11)) + 0j
        assert np.allclose(np.linalg.norm(a @ factor.T, axis=1),
                           np.linalg.norm(a @ rows.T, axis=1), rtol=1e-14)

    def test_cached_factor_is_read_only(self):
        factor = fsx_norms._strip_factor(4, 32)
        assert fsx_norms._strip_factor(4, 32) is factor
        with pytest.raises(ValueError):
            factor[0, 0] = 1.0

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_rectangle_rule_at_other_rows_samples(self, p):
        """Only the strip's rows r < M/2 are read from the factor; any other rows
        at p = 2 are sampled, and agree with p = 2 sampled by the grid route."""
        lat = make_lattice(2, 4)
        v = random_field(lat, np.random.default_rng(5))
        rows = np.arange(3, 11)
        got = fsx_norms.rectangle_rule([(1.0, v)], p, rows, 32)
        samples = np.abs(sample_grid_reference(v, 32)[..., rows])
        assert got == pytest.approx(((lat.L / 32) ** 2 * np.sum(samples**p)) ** (1.0 / p),
                                    rel=1e-12)

    def test_triebel_strip_p2_equals_the_column_sum(self):
        lat = make_lattice(2, 16)
        u = random_field(lat, np.random.default_rng(8))
        u.coef[(lat.K,) * lat.n] = 0.0
        got = triebel_norms(u, (0.0,), 2.0, "halfspace")[0]
        fam = fsx_norms.get_family(lat)
        want = math.sqrt(sum(strip_l2_by_columns(delta_dot(u, j, fam)) ** 2 for j in fam.j_range))
        assert got == pytest.approx(want, rel=1e-13)


@st.composite
def strip_fields(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_field(make_lattice(n, K), rng)


class TestDerivativeNorms:
    @settings(max_examples=30)
    @given(strip_fields(), st.sampled_from([DIRICHLET, NEUMANN]),
           st.sampled_from([1.0, 10.0 * 1j, -3.0 + 2.0j]))
    def test_resolvent_estimate_equals_the_derivative_fields(self, f, bc, lam):
        hf = make_half_field(f)
        got = resolvent_estimate_check(hf, lam, bc)
        want = resolvent_estimate_by_fields(hf, lam, bc)
        assert got == pytest.approx(want, rel=1e-13)

    @settings(max_examples=30)
    @given(strip_fields())
    def test_norms_equal_the_derivative_fields(self, u):
        n0, n1, n2 = strip_derivative_norms(u, 2)
        assert n0 == pytest.approx(strip_l2_by_columns(u), rel=1e-13)
        assert n1 == pytest.approx(math.hypot(*(strip_l2_by_columns(d) for d in gradient(u))),
                                   rel=1e-13)
        assert n2 == pytest.approx(math.hypot(*(strip_l2_by_columns(d) for d in hessian(u))),
                                   rel=1e-13)
        assert strip_derivative_norms(u, 0) == [n0]

    def test_second_order_estimate_of_a_materialized_solution(self):
        """suite_bvp's numerator, the strip norm of the Hessian of the
        materialized Dirichlet solution, is the helper's order-2 norm."""
        lat = make_lattice(2, 16)
        sine = make_half_field(generate_corpus(42, "sine_strip", 1, lat).fields[0])
        g = 0.3 * Field(lat.boundary(), np.eye(1, lat.modes_per_axis, lat.K + 1)[0] + 0j)
        mat, _ = bvp_dirichlet(sine, g).materialize()
        want = math.sqrt(sum(strip_l2_by_columns(d) ** 2 for d in hessian(mat.field)))
        assert strip_derivative_norms(mat.field, 2)[2] == pytest.approx(want, rel=1e-13)


@st.composite
def projection_cases(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return random_field(make_lattice(n, K), rng), draw(st.integers(0, 4))


class TestZeroProjectionOperator:
    @settings(max_examples=40)
    @given(projection_cases())
    def test_equals_the_per_call_route_cold_and_warm(self, case):
        u, m = case
        want = project_zero_per_call(u, m)
        fsx_halfspace._operator.cache_clear()
        cold, warm = project_zero(u, m), project_zero(u, m)
        assert fsx_halfspace._operator.cache_info().misses == 1
        assert same_bits(cold.coef, want.coef) and same_bits(warm.coef, want.coef)

    def test_desk_lattice_equals_the_per_call_route(self):
        lat = make_lattice(2, 32)
        for kind in ("sine_strip", "cosine_strip", "boundary_bump"):
            u = generate_corpus(42, kind, 1, lat).fields[0]
            for m in (0, 1, 2):
                assert same_bits(project_zero(u, m).coef, project_zero_per_call(u, m).coef)

    def test_cached_operator_is_read_only_and_square(self):
        minus_alpha = tuple(-a for a in reflection_coefficients(1))
        kept, tail = fsx_halfspace._operator(make_lattice(2, 4), minus_alpha, False, True)
        assert kept.shape == (9, 9) and tail is None
        with pytest.raises(ValueError):
            kept[0, 0] = 1.0

    def test_bad_order_builds_nothing(self):
        fsx_halfspace._operator.cache_clear()
        u = generate_corpus(7, "sine_strip", 1, make_lattice(2, 4)).fields[0]
        for m in (-1, 1.5, 9):
            with pytest.raises(FsxError):
                project_zero(u, m)
        assert fsx_halfspace._operator.cache_info().currsize == 0
