"""Exact Fourier-multiplier engine on band-limited fields.

Symbols are evaluated in double precision at the exact lattice frequencies.
A symbol may be undefined on part of the frequency set (typically xi = 0);
applying it to a field carrying non-negligible amplitude there raises
HomogeneousDCViolation, otherwise the offending modes are zeroed.
"""

from __future__ import annotations

import numpy as np

from .errors import HomogeneousDCViolation, InvalidParameter, SpectrumHit
from .lattice import DC_TOL, Field, Lattice, whole_order, xi_axes, xi_norm, xi_norm_sq


def _xi_components(lat: Lattice) -> tuple[np.ndarray, ...]:
    comps = []
    for a, xi in enumerate(xi_axes(lat)):
        shape = [1] * lat.n
        shape[a] = lat.modes_per_axis
        comps.append(xi.reshape(shape))
    return tuple(comps)


def _apply_values(u: Field, values: np.ndarray, singular_mask, opname: str) -> Field:
    coef = u.coef
    if singular_mask is not None and np.any(singular_mask):
        bad = np.abs(coef) * singular_mask
        bound = DC_TOL * u.peak()
        if np.any(bad > bound):
            raise HomogeneousDCViolation(
                f"{opname}: field carries amplitude on frequencies where the "
                "symbol is undefined"
            )
        values = np.where(singular_mask, 0.0, values)
    return Field(u.lattice, coef * values)


def potential_weight(rsq: np.ndarray, s: float, bessel: bool = False) -> np.ndarray:
    """Per-mode weight of order s from the squared frequency radii rsq.

    Riesz |xi|^s is undefined where rsq = 0 and is set to 0 there, so the
    caller must mask those modes; Bessel (1 + |xi|^2)^(s/2) is defined
    everywhere.
    """
    if bessel:
        return (1.0 + rsq) ** (0.5 * float(s))
    zero = rsq == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        values = np.where(zero, 0.0, np.sqrt(rsq)) ** float(s)
    return np.where(zero, 0.0, values)


def fractional_laplacian(u: Field, s: float) -> Field:
    """(-Laplacian)^(s/2): multiplier |xi|^s, undefined at xi = 0."""
    rsq = xi_norm_sq(u.lattice)
    return _apply_values(u, potential_weight(rsq, s), rsq == 0.0, "fractional_laplacian")


def bessel_potential(u: Field, s: float) -> Field:
    """(I - Laplacian)^(s/2): multiplier (1 + |xi|^2)^(s/2), defined everywhere."""
    values = potential_weight(xi_norm_sq(u.lattice), s, bessel=True)
    return _apply_values(u, values, None, "bessel_potential")


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
    return _apply_values(u, values, None, "derivative")


def gradient(u: Field) -> list[Field]:
    n = u.lattice.n
    return [derivative(u, tuple(int(a == b) for b in range(n))) for a in range(n)]


def poisson_decay(u: Field, t: float) -> Field:
    """Poisson semigroup at depth t: multiplier exp(-t |xi|)."""
    if not (np.isfinite(t) and t >= 0):
        raise InvalidParameter(f"depth must be finite and nonnegative, got {t}")
    return _apply_values(u, np.exp(-t * xi_norm(u.lattice)), None, "poisson_decay")


def laplacian(u: Field) -> Field:
    return _apply_values(u, -xi_norm_sq(u.lattice), None, "laplacian")


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
        mask = rsq == 0.0
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(mask, 0.0, 1.0 / np.where(mask, 1.0, rsq))
        return _apply_values(f, values, mask, "inverse_laplacian")
    if lam.imag == 0.0 and lam.real < 0.0:
        denom = lam + rsq
        occupied = np.abs(f.coef) > 0.0
        if np.any(np.abs(denom[occupied]) == 0.0):
            raise SpectrumHit(f"lam={lam} hits an occupied Laplacian eigenvalue")
        raise InvalidParameter(
            f"lam={lam} lies on the negative real axis (outside every sector)"
        )
    values = 1.0 / (lam + rsq)
    return _apply_values(f, values, None, "resolvent_wholespace")
