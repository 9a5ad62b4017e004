"""Exact Fourier-multiplier engine on band-limited fields.

Symbols are evaluated in double precision at the exact lattice frequencies.
The symbols of |xi|^s and of the inverse Laplacian are undefined at xi = 0
and set to 0 there; applying one to a field that is not mean-free
(lattice.require_zero_mean) raises HomogeneousDCViolation.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidParameter, SpectrumHit
from .lattice import (
    Field,
    Lattice,
    require_zero_mean,
    whole_order,
    xi_axes,
    xi_norm,
    xi_norm_sq,
)


def _xi_components(lat: Lattice) -> tuple[np.ndarray, ...]:
    comps = []
    for a, xi in enumerate(xi_axes(lat)):
        shape = [1] * lat.n
        shape[a] = lat.modes_per_axis
        comps.append(xi.reshape(shape))
    return tuple(comps)


def _apply_values(u: Field, values: np.ndarray) -> Field:
    return Field(u.lattice, u.coef * values)


def potential_weight(rsq: np.ndarray, s: float, bessel: bool = False) -> np.ndarray:
    """Per-mode weight of order s from the squared frequency radii rsq.

    Riesz |xi|^s is undefined where rsq = 0 and is set to 0 there, so the
    caller must refuse a field that is not mean-free; Bessel
    (1 + |xi|^2)^(s/2) is defined everywhere.
    """
    if bessel:
        return (1.0 + rsq) ** (0.5 * float(s))
    zero = rsq == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(zero, 0.0, np.sqrt(rsq)) ** float(s)
    return np.where(zero, 0.0, values)


def fractional_laplacian(u: Field, s: float) -> Field:
    """(-Laplacian)^(s/2): multiplier |xi|^s, undefined at xi = 0."""
    require_zero_mean(u, "fractional_laplacian")
    return _apply_values(u, potential_weight(xi_norm_sq(u.lattice), s))


def bessel_potential(u: Field, s: float) -> Field:
    """(I - Laplacian)^(s/2): multiplier (1 + |xi|^2)^(s/2), defined everywhere."""
    values = potential_weight(xi_norm_sq(u.lattice), s, bessel=True)
    return _apply_values(u, values)


def derivative(u: Field, alpha: tuple[int, ...]) -> Field:
    """Partial derivative with multi-index alpha: multiplier prod (i xi_a)^alpha_a."""
    lat = u.lattice
    if len(alpha) != lat.n:
        raise InvalidParameter(f"multi-index length {len(alpha)} != n={lat.n}")
    orders = [whole_order(a, "multi-index entry") for a in alpha]
    values = np.ones(lat.mode_shape, dtype=complex)
    comps = _xi_components(lat)
    for a, order in enumerate(orders):
        if order:
            values = values * (1j * comps[a]) ** order
    return _apply_values(u, values)


def gradient(u: Field) -> list[Field]:
    n = u.lattice.n
    return [derivative(u, tuple(int(a == b) for b in range(n))) for a in range(n)]


def poisson_decay(u: Field, t: float) -> Field:
    """Poisson semigroup at depth t: multiplier exp(-t |xi|)."""
    if not (np.isfinite(t) and t >= 0):
        raise InvalidParameter(f"depth must be finite and nonnegative, got {t}")
    return _apply_values(u, np.exp(-t * xi_norm(u.lattice)))


def laplacian(u: Field) -> Field:
    return _apply_values(u, -xi_norm_sq(u.lattice))


def resolvent_wholespace(f: Field, lam: complex) -> Field:
    """Solve (lam - Laplacian) u = f exactly, mode-wise.

    lam must avoid the negative real axis; lam = 0 is allowed for zero-DC f,
    giving the inverse Laplacian.
    """
    lam = complex(lam)
    if not np.isfinite(lam):
        raise InvalidParameter(f"lam must be finite, got {lam}")
    lat = f.lattice
    rsq = xi_norm_sq(lat)
    if lam == 0:
        require_zero_mean(f, "inverse_laplacian")
        zero = rsq == 0.0
        return _apply_values(f, np.where(zero, 0.0, 1.0 / np.where(zero, 1.0, rsq)))
    if lam.imag == 0.0 and lam.real < 0.0:
        denom = lam + rsq
        occupied = np.abs(f.coef) > 0.0
        if np.any(np.abs(denom[occupied]) == 0.0):
            raise SpectrumHit(f"lam={lam} hits an occupied Laplacian eigenvalue")
        raise InvalidParameter(
            f"lam={lam} lies on the negative real axis (outside every sector)"
        )
    values = 1.0 / (lam + rsq)
    return _apply_values(f, values)
