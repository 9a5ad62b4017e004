"""Boundary trace and the Poisson harmonic extension of boundary data.

The extension of zero-mean boundary data g is kept semi-analytic: a list of
horizontal modes with exponential vertical profiles exp(-x_n |xi'|), exact to
evaluate anywhere in the strip and exactly harmonic mode by mode.  Lattice
materialization (for norm computations) is explicit and residual-audited: it
projects the even profile exp(-|x_n| |xi'|), which agrees with the extension
on the strip and has no jump at the seam x_n = 0, from its closed-form
Fourier coefficients, with no grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionTooSmall, InvalidParameter
from .halfspace import HalfField, far_band_rows
from .interp import default_tgrid, log_grid_integral
from .lattice import (
    Field,
    Lattice,
    default_oversample,
    evaluate,
    horizontal_samples,
    k_axis,
    require_zero_mean,
    without_mean,
    xi_axes,
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

    def leakage(self) -> float:
        """Sup of |w| over the band of width L/16 hugging the far face x_n = L/2,
        sampled on the default grid of the strip's lattice: the decay, of order
        exp(-(L/2) |xi'|), that the strip's finite height leaves."""
        blat = self.boundary.lattice
        lat = Lattice(blat.n + 1, blat.K, blat.L)
        M = default_oversample(lat)
        heights = far_band_rows(M) * (lat.L / M)
        band = self.boundary.coef * np.exp(-np.multiply.outer(heights, self.decay_rates))
        return float(np.max(np.abs(horizontal_samples(band, lat, M))))


def poisson_extend(g: Field) -> PoissonField:
    """Harmonic extension of zero-mean boundary data."""
    require_zero_mean(g, "harmonic extension")
    return PoissonField(without_mean(g))


def materialize_poisson(pf: PoissonField, lat: Lattice) -> tuple[HalfField, float]:
    """The extension projected to the lattice, from exact Fourier coefficients.

    Each horizontal mode's profile exp(-x_n a), a = |xi'|, is taken as the even
    profile exp(-|x_n| a) of period L: the same on the strip 0 <= x_n <= L/2,
    and with no jump at the seam x_n = 0.  Its vertical coefficients are
        c_q = (2a/L) (1 - (-1)^q exp(-aL/2)) / (a^2 + xi_q^2)
    (1 at q = 0 and 0 elsewhere for a = 0), and its energy per period is
    (1 - exp(-aL)) / (aL), so the residual, the relative l2 size of the
    coefficients |q| > K left out, is exact by Parseval.
    """
    blat = pf.boundary.lattice
    if lat.n != blat.n + 1 or lat.K != blat.K or lat.L != blat.L:
        raise InvalidParameter("target lattice must extend the boundary lattice")
    flat = pf.decay_rates[..., None] == 0.0  # the horizontal mean, whose profile is 1
    a, q, L = np.where(flat, 1.0, pf.decay_rates[..., None]), k_axis(lat.K), lat.L
    profile = np.where(flat, q == 0, (2.0 * a / L) * (1.0 - (-1.0) ** q * np.exp(-0.5 * a * L))
                       / (a**2 + xi_axes(lat)[-1] ** 2))
    coef = pf.boundary.coef[..., None] * profile
    energy = np.where(flat, 1.0, -np.expm1(-a * L) / (a * L))[..., 0]
    total = float(np.sum(np.abs(pf.boundary.coef) ** 2 * energy))
    lost = max(total - float(np.vdot(coef, coef).real), 0.0)
    return HalfField(Field(lat, coef)), (math.sqrt(lost / total) if total > 0.0 else 0.0)


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
    require_zero_mean(u, "semigroup norm")
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
