"""Half-space Laplacian solvers by the method of images.

Resolvents extend the source to the torus by odd (Dirichlet) or even
(Neumann) reflection, invert mode-wise on the whole space, and restrict.
Inhomogeneous boundary-value problems split into a whole-space particular
solution plus a Poisson harmonic correction matching the boundary data; the
correction stays semi-analytic so solutions evaluate exactly at arbitrary
strip points.  Outward normal convention: nu = -e_n at x_n = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import InvalidParameter, ZeroField
from .halfspace import HalfField, reflect_parity
from .lattice import Field, Lattice, evaluate, without_mean, zero_field
from .multipliers import derivative, fractional_laplacian, gradient, laplacian, resolvent_wholespace
from .norms import halfspace_product_integral, lp_norm, strip_derivative_norms
from .poisson import PoissonField, materialize_poisson, poisson_extend, trace

DIRICHLET = "dirichlet"
NEUMANN = "neumann"


def _check_bc(bc: str) -> str:
    if bc not in (DIRICHLET, NEUMANN):
        raise InvalidParameter(f"boundary condition must be dirichlet|neumann, got {bc!r}")
    return bc


def resolvent_halfspace(f: HalfField, lam: complex, bc: str) -> tuple[HalfField, float]:
    """Solve (lam - Laplacian) u = f on the strip with the given condition.

    Returns the solution as a HalfField together with the reflection
    projection residual.
    """
    bc = _check_bc(bc)
    parity = "odd" if bc == DIRICHLET else "even"
    extended, residual = reflect_parity(f, parity)
    u_full = resolvent_wholespace(extended, complex(lam))
    return HalfField(u_full), residual


def resolvent_estimate_check(
    f: HalfField, lam: complex, bc: str
) -> tuple[float, float, float]:
    """Scaled resolvent ratios (|lam| ||u||, |lam|^1/2 ||grad u||, ||grad2 u||) / ||f||.

    All norms are L2 over the strip, norms.strip_derivative_norms.  norm_f is
    0 only when f is, or when its squares underflow: the rule reads each
    column through the factor R of the phases at M/2 >= 4K > 2K heights,
    which have full column rank, so R is nonsingular.
    """
    (norm_f,) = strip_derivative_norms(f.field, 0)
    if norm_f == 0.0:
        raise ZeroField("resolvent estimate undefined for zero source")
    lam = complex(lam)
    u, _ = resolvent_halfspace(f, lam, bc)
    n0, n1, n2 = strip_derivative_norms(u.field, 2)
    return abs(lam) * n0 / norm_f, math.sqrt(abs(lam)) * n1 / norm_f, n2 / norm_f


@dataclass(eq=False)
class BvpSolution:
    """Solution u = v + w: band-limited particular part plus harmonic correction."""

    v: Field
    w: PoissonField
    bc: str
    source: HalfField
    boundary_data: Field
    reflection_residual: float

    @property
    def lattice(self) -> Lattice:
        return self.v.lattice

    def evaluate(self, x) -> complex:
        return evaluate(self.v, x) + self.w.evaluate(x)

    def materialize(self) -> tuple[HalfField, float]:
        mat, residual = materialize_poisson(self.w, self.lattice)
        return HalfField(self.v + mat.field), residual

    def interior_residual(self) -> float:
        """L2-strip norm of (-Laplacian v) - f; the harmonic part is exact."""
        r = -1.0 * laplacian(self.v) - self.source.field
        return lp_norm(r, 2.0, "halfspace")

    def boundary_mismatch(self) -> float:
        """Sup over the boundary of the imposed condition's defect."""
        if self.bc == DIRICHLET:
            got = trace(self.v) + self.w.slice_field(0.0)
        else:
            dn_v = -1.0 * trace(derivative(self.v, _vertical_index(self.lattice)))
            dn_w = fractional_laplacian(self.w.slice_field(0.0), 1.0)
            got = dn_v + dn_w
        return lp_norm(got - self.boundary_data, math.inf)


def _vertical_index(lat: Lattice) -> tuple[int, ...]:
    alpha = [0] * lat.n
    alpha[-1] = 1
    return tuple(alpha)


def _bvp_inputs(f: HalfField | None, g: Field | None) -> tuple[HalfField, Field]:
    """Source and boundary data, a missing one taken as zero.

    A missing source lives on the lattice that g is the boundary of.
    """
    if f is None and g is None:
        raise InvalidParameter("need at least one of f, g")
    if f is None:
        f = HalfField(zero_field(Lattice(g.lattice.n + 1, g.lattice.K, g.lattice.L)))
    if g is None:
        g = zero_field(f.field.lattice.boundary())
    return f, g


def _boundary_defect(g: Field, got: Field, v: Field) -> Field:
    """g - got with floating-point dust in its mean removed.

    The defect is zero-mean by construction, and the singular boundary
    multipliers refuse any mean, so dust is dropped; genuine mean content
    is left in place for the precondition check.
    """
    d = g - got
    scale = max(g.peak(), got.peak(), v.peak())
    if abs(d.dc) > 1e-11 * max(scale, abs(d.dc)):
        return d
    return without_mean(d)


def bvp_dirichlet(f: HalfField | None, g: Field | None) -> BvpSolution:
    """Solve -Laplacian u = f on the strip with u = g on the boundary.

    The particular part inverts the Laplacian of the odd extension; the
    harmonic part corrects the boundary trace with a Poisson extension of
    g minus the particular trace (both zero-mean by construction/precondition).
    """
    f, g = _bvp_inputs(f, g)
    extended, residual = reflect_parity(f, "odd")
    v = resolvent_wholespace(extended, 0.0)
    w = poisson_extend(_boundary_defect(g, trace(v), v))
    return BvpSolution(v, w, DIRICHLET, f, g, residual)


def bvp_neumann(f: HalfField | None, g: Field | None) -> BvpSolution:
    """Solve -Laplacian u = f on the strip with du/dnu = g on the boundary.

    With nu = -e_n the Poisson extension of (-Laplacian')^(-1/2) h has normal
    derivative exactly h at the boundary, so the harmonic part corrects the
    particular normal derivative in closed form.  Both f (after even
    reflection) and g must be zero-mean.
    """
    f, g = _bvp_inputs(f, g)
    extended, residual = reflect_parity(f, "even")
    v = resolvent_wholespace(extended, 0.0)  # raises if the source has mean
    dn_v = -1.0 * trace(derivative(v, _vertical_index(v.lattice)))
    h = fractional_laplacian(_boundary_defect(g, dn_v, v), -1.0)
    return BvpSolution(v, poisson_extend(h), NEUMANN, f, g, residual)


def energy_form(u: HalfField, v: HalfField) -> complex:
    """Sesquilinear Dirichlet form: exact strip integral of grad u . conj grad v."""
    total = 0.0 + 0.0j
    for du, dv in zip(gradient(u.field), gradient(v.field)):
        total += halfspace_product_integral(du, dv)
    return total
