"""Boundary trace and the Poisson harmonic extension of boundary data.

The extension of zero-mean boundary data g is kept semi-analytic: a list of
horizontal modes with exponential vertical profiles exp(-x_n |xi'|), exact to
evaluate anywhere in the strip and exactly harmonic mode by mode.  Lattice
materialization (for norm computations) is explicit and residual-audited,
since the profile is not periodic in x_n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, HomogeneousDCViolation, InvalidParameter
from .halfspace import HalfField, far_band_rows
from .interp import default_tgrid, log_grid_integral
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    evaluate,
    horizontal_samples,
    is_homogeneous_admissible,
    project_columns,
    without_mean,
    xi_norm,
)
from .multipliers import fractional_laplacian, poisson_decay
from .norms import _check_exponent, lp_norm, mode_sum, potential_sq


def trace(u: Field) -> Field:
    """Boundary restriction x' -> u(x', 0): vertical mode amplitudes collapse."""
    lat = u.lattice
    if lat.n < 2:
        raise DimensionTooSmall("trace needs dimension n >= 2")
    return Field(lat.boundary(), u.coef.sum(axis=-1))


@dataclass(frozen=True, eq=False)
class PoissonField:
    """Harmonic extension of zero-mean boundary data into the strip."""

    boundary: Field

    @property
    def decay_rates(self) -> np.ndarray:
        return xi_norm(self.boundary.lattice)

    def slice_field(self, xn: float) -> Field:
        """Horizontal field at height x_n (exact per-mode damping)."""
        if not math.isfinite(xn):
            raise InvalidParameter(f"height must be finite, got {xn}")
        damped = self.boundary.coef * np.exp(-xn * self.decay_rates)
        return Field(self.boundary.lattice, damped)

    def evaluate(self, x) -> complex:
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.boundary.lattice.n + 1:
            raise InvalidParameter("point dimension must be boundary dim + 1")
        return evaluate(self.slice_field(float(x[-1])), x[:-1])


def poisson_extend(g: Field) -> PoissonField:
    """Harmonic extension of zero-mean boundary data."""
    if not is_homogeneous_admissible(g):
        raise HomogeneousDCViolation("harmonic extension needs zero-mean data")
    return PoissonField(without_mean(g))


def materialize_poisson(pf: PoissonField, lat: Lattice) -> tuple[HalfField, float]:
    """Sample the extension over the vertical grid and project to the lattice.

    The profile exp(-x_n |xi'|) is sampled over 0 <= x_n < L and keeps
    decaying past x_n = L/2, so the far face carries leakage of order
    exp(-(L/2) |xi'|), and the periodized profile jumps at the seam x_n = 0
    by 1 - exp(-L |xi'|), its value at 0 less its value at L.  Both are
    reported: leakage on the HalfField (the sup of the sampled profile over
    the far band), seam damage in the projection residual.  Each horizontal
    mode's profile is projected by one DFT along x_n.
    """
    blat = pf.boundary.lattice
    if lat.n != blat.n + 1 or lat.K != blat.K or lat.L != blat.L:
        raise InvalidParameter("target lattice must extend the boundary lattice")
    M = default_oversample(lat)

    def profile(xn: np.ndarray) -> np.ndarray:
        # (heights, boundary modes...): amplitudes damped per height
        return pf.boundary.coef * np.exp(-np.multiply.outer(xn, pf.decay_rates))

    heights = np.arange(M) * (lat.L / M)
    coef, residual = project_columns(np.fft.fft(profile(heights), axis=0, norm="forward"), lat.K)
    band = profile(heights[far_band_rows(M)])
    leakage = float(np.max(np.abs(horizontal_samples(band, lat, M))))
    return HalfField(Field(lat, coef), measured_leakage=leakage), residual


def poisson_besov_norm(u: Field, s: float, alpha: float, p: float, q: float) -> float:
    """Semigroup characterization norm || t^s (-Lap)^(a/2) e^(-t sqrt(-Lap)) u ||.

    The outer norm is L^q(dt/t) over a geometric grid; the small-t tail uses
    the monotone envelope (the integrand is below t^s times its t -> 0 limit)
    and integrates in closed form, while the large-t tail is exponentially
    dead far inside the grid.  Comparable to the dyadic-block norm of
    regularity alpha - s.
    """
    if not (math.isfinite(s) and s > 0.0):
        raise InvalidParameter(f"vertical weight s must be positive and finite, got {s}")
    if not (math.isfinite(alpha) and alpha >= 0.0):
        raise InvalidParameter(f"order alpha must be nonnegative and finite, got {alpha}")
    _check_exponent(q, "q")
    if not is_homogeneous_admissible(u):
        raise HomogeneousDCViolation("semigroup norm needs a zero-mean field")
    if u.peak() == 0.0:
        return 0.0
    tgrid = default_tgrid()
    if math.isclose(p, 2.0):
        # one mode_sum row per depth, depth 0 first: |xi|^(2 alpha) exp(-2 t |xi|)
        depths, weight = np.concatenate(([0.0], tgrid)), potential_sq(alpha)
        g0, *g = mode_sum(u, lambda rsq: weight(rsq) * np.exp(-2.0 * np.outer(depths, rsq**0.5)))
        g = np.array(g)
    else:
        base = fractional_laplacian(u, alpha)
        g = np.array([lp_norm(poisson_decay(base, t), p) for t in tgrid])
        g0 = lp_norm(base, p)
    weighted = tgrid**s * g
    if math.isinf(q):
        return float(max(weighted.max(), tgrid[0] ** s * g0))
    # at the lower edge the integrand still behaves like t^(sq), at the upper
    # edge it is exponentially dead
    body = log_grid_integral(tgrid, weighted**q, s * q, 0.0)
    lower = (g0 * tgrid[0] ** s) ** q / (s * q)
    return float((body + lower) ** (1.0 / q))
