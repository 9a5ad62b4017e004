"""The p = 2 layer (norms.mode_sum) against the per-mode multiplier path.

Every whole-torus p = 2 quantity is a weighted sum of |c_k|^2 with a weight
of |xi_k| alone.  mode_sum bins |c|^2 by shell; the references here multiply
every mode by its symbol (multipliers, dyadic blocks) and take the Plancherel
norm of the product, as fsx did before the layer.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsx.dyadic import delta_dot, delta_inhom
from fsx.errors import HomogeneousDCViolation
from fsx.interp import Couple, default_tgrid, k_curve_exact_hilbert, log_grid_integral
from fsx.lattice import Field, field_from_modes, make_lattice, xi_norm_sq
from fsx.multipliers import (
    bessel_potential,
    fractional_laplacian,
    poisson_decay,
    potential_weight,
)
from fsx.norms import (
    SpaceSpec,
    block_norms,
    get_family,
    lp_norm,
    mode_sum,
    sobolev_norm,
    triebel_norm,
)
from fsx.poisson import poisson_besov_norm
from grid_reference import norm_on_grid

TWO_PI = 2.0 * math.pi
REL = 1e-13
# L = 1 puts the family's range above j = 0, where the blocks k = 0..j_min-1 of B vanish
LATTICES = [(1, 24, TWO_PI), (2, 16, TWO_PI), (3, 6, TWO_PI), (1, 24, 5.0), (2, 16, 5.0),
            (3, 6, 17.0), (2, 8, 1.0)]


def zero_mean(lat, seed):
    rng = np.random.default_rng(seed)
    coef = rng.standard_normal(lat.mode_shape) + 1j * rng.standard_normal(lat.mode_shape)
    coef[(lat.K,) * lat.n] = 0.0
    return Field(lat, coef)


def plancherel(u):
    """The per-mode path's last step: L^(n/2) sqrt(sum |c|^2) of a multiplied field."""
    return lp_norm(u, 2.0)


@pytest.fixture(params=LATTICES, ids=lambda c: f"n{c[0]}K{c[1]}L{c[2]:.3g}")
def lat(request):
    return make_lattice(*request.param)


class TestAgainstPerModePath:
    @pytest.mark.parametrize("s", [-0.5, 0.0, 0.7, 1.2])
    def test_sobolev(self, lat, s):
        u = zero_mean(lat, 1)
        got = sobolev_norm(u, SpaceSpec("Hdot", s=s))
        assert got == pytest.approx(plancherel(fractional_laplacian(u, s)), rel=REL)
        u.coef[(lat.K,) * lat.n] = 0.4 - 0.3j
        got = sobolev_norm(u, SpaceSpec("H", s=s))
        assert got == pytest.approx(plancherel(bessel_potential(u, s)), rel=REL)

    def test_besov_blocks(self, lat):
        u = zero_mean(lat, 2)
        fam = get_family(lat)
        want = {j: plancherel(delta_dot(u, j, fam)) for j in fam.j_range}
        got = block_norms(u, 2.0)
        assert list(got) == list(want)
        for j in want:
            assert got[j] == pytest.approx(want[j], rel=REL, abs=1e-300)
        u.coef[(lat.K,) * lat.n] = 0.7
        want = {k: plancherel(delta_inhom(u, k, fam)) for k in range(-1, fam.j_max + 1)}
        got = block_norms(u, 2.0, inhomogeneous=True)
        assert list(got) == list(want)
        for k in want:
            assert got[k] == pytest.approx(want[k], rel=REL, abs=1e-300)
        assert list(block_norms(u, 4.0, inhomogeneous=True)) == list(want)

    @pytest.mark.parametrize("s", [-0.5, 0.7])
    def test_fubini_form(self, lat, s):
        u = zero_mean(lat, 3)
        fam = get_family(lat)
        want = math.sqrt(sum(4.0 ** (j * s) * plancherel(delta_dot(u, j, fam)) ** 2
                             for j in fam.j_range))
        assert triebel_norm(u, s, 2.0) == pytest.approx(want, rel=REL)

    @pytest.mark.parametrize("x0, x1", [(SpaceSpec("Hdot", s=-0.5), SpaceSpec("Hdot", s=0.7)),
                                        (SpaceSpec("Lp"), SpaceSpec("H", s=1.0))])
    def test_hilbert_k_curve(self, lat, x0, x1):
        u = zero_mean(lat, 4)
        tgrid = default_tgrid()

        def per_mode(spec):
            if spec.family == "Lp":
                return np.ones(lat.mode_shape)
            return potential_weight(xi_norm_sq(lat), spec.s, bessel=spec.family == "H")

        a = (per_mode(x0).ravel() ** 2)[None, :]
        b = (per_mode(x1).ravel() ** 2)[None, :] * (tgrid**2)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            harm = np.where(a + b > 0.0, a * b / np.where(a + b > 0.0, a + b, 1.0), 0.0)
        want = np.sqrt(lat.L**lat.n * harm @ (np.abs(u.coef.ravel()) ** 2))
        got = k_curve_exact_hilbert(u, Couple(x0, x1)).values
        np.testing.assert_allclose(got, want, rtol=REL)

    @pytest.mark.parametrize("s, alpha, q", [(0.5, 0.0, 2.0), (0.8, 0.5, 1.0),
                                             (0.3, 1.0, math.inf)])
    def test_poisson_p2(self, lat, s, alpha, q):
        u = zero_mean(lat, 5)
        tgrid = default_tgrid()
        base = fractional_laplacian(u, alpha)
        g = np.array([plancherel(poisson_decay(base, t)) for t in tgrid])
        g0 = plancherel(base)
        weighted = tgrid**s * g
        if math.isinf(q):
            want = max(weighted.max(), tgrid[0] ** s * g0)
        else:
            body = log_grid_integral(tgrid, weighted**q, s * q, 0.0)
            want = (body + (g0 * tgrid[0] ** s) ** q / (s * q)) ** (1.0 / q)
        assert poisson_besov_norm(u, s, alpha, 2.0, q) == pytest.approx(want, rel=REL)


class TestShells:
    def test_weight_sees_only_occupied_shells(self):
        lat = make_lattice(2, 64, 3.0)
        u = field_from_modes(lat, {(3, 4): 1.0, (0, 5): 2.0j, (1, 1): -1.0})
        seen = []

        def weight(rsq):
            seen.append(rsq)
            return np.sqrt(rsq)

        got = mode_sum(u, weight)
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], lat.freq_scale**2 * np.array([2, 25]), rtol=1e-15)
        want = math.sqrt(lat.L**2 * (5.0 * lat.freq_scale * 5.0 + math.sqrt(2) * lat.freq_scale))
        assert got == pytest.approx(want, rel=REL)

    def test_rows_give_one_norm_each(self, lat):
        u = zero_mean(lat, 6)
        s_values = (-0.5, 0.3, 1.2)
        rows = mode_sum(u, lambda rsq: [potential_weight(rsq, s) ** 2 for s in s_values])
        assert rows.shape == (3,)
        for s, got in zip(s_values, rows):
            assert got == pytest.approx(sobolev_norm(u, SpaceSpec("Hdot", s=s)), rel=1e-15)

    def test_zero_field(self, lat):
        assert sobolev_norm(Field(lat, np.zeros(lat.mode_shape, complex)),
                            SpaceSpec("Hdot", s=0.5)) == 0.0

    def test_homogeneous_mean_still_refused(self, lat):
        u = zero_mean(lat, 7)
        u.coef[(lat.K,) * lat.n] = 1.0
        with pytest.raises(HomogeneousDCViolation):
            sobolev_norm(u, SpaceSpec("Hdot", s=0.5, p=2.0))
        with pytest.raises(HomogeneousDCViolation):
            block_norms(u, 2.0)


# ---------------------------------------------------------------------------
# Properties: translation invariance and homogeneity
# ---------------------------------------------------------------------------


@st.composite
def fields_shifts_scales(draw):
    n = draw(st.integers(1, 3))
    K = draw(st.integers(2, 6 if n == 3 else 12))
    L = draw(st.sampled_from([TWO_PI, 3.0, 11.0]))
    lat = make_lattice(n, K, L)
    u = zero_mean(lat, draw(st.integers(0, 2**32 - 1)))
    shift = np.array([draw(st.floats(-50.0, 50.0)) for _ in range(n)])
    scale = complex(draw(st.floats(-1e3, 1e3).filter(lambda x: abs(x) > 1e-3)),
                    draw(st.floats(-1e3, 1e3)))
    return u, shift, scale


def translate(u, shift):
    """u(x - shift): mode k picks up the phase exp(-i xi_k . shift)."""
    phase = np.ones(u.lattice.mode_shape, dtype=complex)
    for a, xi in enumerate(np.indices(u.lattice.mode_shape) - u.lattice.K):
        phase = phase * np.exp(-1j * u.lattice.freq_scale * xi * shift[a])
    return Field(u.lattice, u.coef * phase)


def layer_norms(u):
    """The norms of the layer, one list: Hdot, H, Bdot blocks, B blocks, Fubini, K-curve."""
    couple = Couple(SpaceSpec("Hdot", s=-0.5), SpaceSpec("Hdot", s=0.7))
    return np.array([
        sobolev_norm(u, SpaceSpec("Hdot", s=0.7)),
        sobolev_norm(u, SpaceSpec("H", s=-1.2)),
        *block_norms(u, 2.0).values(),
        *block_norms(u, 2.0, inhomogeneous=True).values(),
        triebel_norm(u, 0.4, 2.0),
        *k_curve_exact_hilbert(u, couple).values,
    ])


PROPERTY_SETTINGS = settings(max_examples=40)


class TestLayerProperties:
    @PROPERTY_SETTINGS
    @given(fields_shifts_scales())
    def test_translation_invariance(self, case):
        u, shift, _ = case
        want = layer_norms(u)
        np.testing.assert_allclose(layer_norms(translate(u, shift)), want, rtol=1e-12,
                                   atol=1e-14 * want.max())

    @PROPERTY_SETTINGS
    @given(fields_shifts_scales())
    def test_homogeneity(self, case):
        u, _, scale = case
        want = abs(scale) * layer_norms(u)
        np.testing.assert_allclose(layer_norms(scale * u), want, rtol=1e-13,
                                   atol=1e-14 * want.max())

    @PROPERTY_SETTINGS
    @given(fields_shifts_scales(), st.sampled_from([1.0, 4.0 / 3.0, 4.0, math.inf]),
           st.integers(0, 2**16))
    def test_streamed_lp_norm(self, case, p, step):
        """The rule is invariant under a shift by whole grid steps, which permutes
        the nodes, and lp_norm under any shift where the rule is exact (even p)."""
        u, shift, scale = case
        M = 4 * u.lattice.K + 6
        grid_shift = (step % M) * u.lattice.L / M * np.ones(u.lattice.n)
        want = norm_on_grid(u, p, "whole", M)
        assert norm_on_grid(translate(u, grid_shift), p, "whole", M) == pytest.approx(want,
                                                                                     rel=1e-12)
        assert norm_on_grid(scale * u, p, "whole", M) == pytest.approx(abs(scale) * want,
                                                                       rel=1e-13)
        if p == 4.0:
            assert lp_norm(translate(u, shift), p) == pytest.approx(lp_norm(u, p), rel=1e-12)
