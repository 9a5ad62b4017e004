"""Norm functionals: Lebesgue, Besov, Sobolev (potential), Triebel-type, and
the frequency-block duality pairing.

Each L^p quadrature is chosen by exactness.  On the whole torus the p = 2
norm is the Plancherel mode sum and samples no grid.  For other even integer
p, |u|^p (and the square function's g^p) has band pK' for the band K' that
u occupies (lattice.occupied), so the rectangle rule on the smallest grid
with M > pK' is exact.  Every other p, and the half-space strip
0 <= x_n < L/2, keep the rectangle rule on the oversampled grid of u's own
lattice, the one approximate quadrature; only its transform shrinks to the
band.  On the strip at p = 2 that rule is summed per horizontal mode:
Parseval on the horizontal grid is exact, so only the columns at the M/2
vertical grid heights are evaluated and no grid is sampled.  Identities
needing exact integrals over the strip (pairings of band-limited products)
go through closed-form half-period weights on the vertical mode pairs
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .dyadic import DyadicFamily, build_dyadic_family, delta_dot, delta_inhom
from .errors import AliasingRisk, HomogeneousDCViolation, InvalidExponent, InvalidParameter
from .lattice import (
    DC_TOL,
    Field,
    Lattice,
    exact_grid,
    exact_phases,
    has_exact_grid,
    is_homogeneous_admissible,
    k_axis,
    occupied,
    sample_grid,
    without_mean,
)
from .multipliers import bessel_potential, fractional_laplacian

FAMILIES = ("Lp", "Hdot", "H", "Bdot", "B", "Fdot")
HOMOGENEOUS = ("Hdot", "Bdot", "Fdot")
DOMAINS = ("whole", "halfspace", "halfspace_zero")


@dataclass(frozen=True)
class SpaceSpec:
    """Descriptor of a function-space norm: family, regularity, exponents, domain."""

    family: str
    s: float = 0.0
    p: float = 2.0
    q: float = math.inf
    domain: str = "whole"

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameter(f"unknown family {self.family!r}")
        if self.domain not in DOMAINS:
            raise InvalidParameter(f"unknown domain {self.domain!r}")
        if not math.isfinite(self.s):
            raise InvalidParameter(f"s must be finite, got {self.s}")
        _check_exponent(self.p, "p")
        if self.family in ("B", "Bdot"):
            _check_exponent(self.q, "q")

    def label(self) -> str:
        parts = [f"s={self.s:g}", f"p={_fmt_exp(self.p)}"]
        if self.family in ("B", "Bdot"):
            parts.append(f"q={_fmt_exp(self.q)}")
        return f"{self.family}:" + ",".join(parts)


def _fmt_exp(p: float) -> str:
    return "inf" if math.isinf(p) else f"{p:g}"


def _check_exponent(p: float, name: str) -> None:
    if math.isnan(p) or p < 1.0:
        raise InvalidExponent(f"{name} must lie in [1, inf], got {p}")


def parse_space_spec(text: str, domain: str = "whole") -> SpaceSpec:
    """Parse strings like "Bdot:s=0.5,p=2,q=1" or "Lp:p=inf"."""
    head, _, rest = text.partition(":")
    family = head.strip()
    kwargs: dict[str, float] = {}
    if rest.strip():
        for item in rest.split(","):
            key, _, value = item.partition("=")
            key = key.strip()
            if key not in ("s", "p", "q"):
                raise InvalidParameter(f"unknown space parameter {key!r}")
            value = value.strip().lower()
            kwargs[key] = math.inf if value == "inf" else float(value)
    return SpaceSpec(family=family, domain=domain, **kwargs)


@lru_cache(maxsize=64)
def get_family(lat: Lattice) -> DyadicFamily:
    return build_dyadic_family(lat)


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def _own_grid(u: Field, p: float, whole: bool) -> tuple[Field, int]:
    """u on its occupied band, and its grid: the band's when the rule is exact."""
    band = occupied(u)
    return band, exact_grid(band.lattice if has_exact_grid(p, whole) else u.lattice, p, whole)


def lp_norm(u: Field, p: float, domain: str = "whole", M: int | None = None) -> float:
    """L^p norm over the torus or the strip 0 <= x_n < L/2.

    "halfspace_zero" (zero-extended functions) is the whole-torus norm.  On
    the whole torus, p = 2 without an explicit M is the Plancherel sum
    L^(n/2) sqrt(sum |c_k|^2).  Otherwise the rectangle rule runs on M
    samples per axis.  By default u is cropped to its occupied band and M is
    exact_grid of the band for even integer p on the whole torus (exact), or
    of u's lattice for every other p and on the strip (oversampled); an
    explicit M never crops.  The strip's p = 2 rule is (L/M)^n M^(n-1)
    sum |C[k', j]|^2 over the columns C = coef @ exact_phases(K, j, M).T, read as
    exact integer phases at the heights j L/M < L/2: the grid's sum by Parseval.
    """
    _check_exponent(p, "p")
    if domain not in DOMAINS:
        raise InvalidParameter(f"unknown domain {domain!r}")
    whole = domain != "halfspace"
    if whole and p == 2.0 and M is None:
        return float(u.lattice.L ** (u.lattice.n / 2.0) * np.linalg.norm(u.coef.ravel()))
    if M is None:
        u, M = _own_grid(u, p, whole)
    lat = u.lattice
    if not whole and p == 2.0:
        if M < 2 * lat.K + 2:
            raise AliasingRisk(f"M={M} < 2K+2={2 * lat.K + 2}")
        columns = u.coef @ exact_phases(lat.K, np.arange(M // 2), M).T
        total = (lat.L / M) ** lat.n * float(M) ** (lat.n - 1) * np.vdot(columns, columns).real
        return float(math.sqrt(total))
    values = sample_grid(u, M).values
    if not whole:
        values = values[..., : M // 2]
    mags = np.abs(values)
    if math.isinf(p):
        return float(mags.max()) if mags.size else 0.0
    return float(((lat.L / M) ** lat.n * np.sum(mags**p)) ** (1.0 / p))


def halfspace_product_integral(u: Field, v: Field, conjugate: bool = False) -> complex:
    """Exact integral of u * v (or u * conj v) over the strip 0 <= x_n < L/2.

    Horizontal modes integrate to L^(n-1) on the pairs whose product is
    constant in x', so the integral is
        L^(n-1) sum_{k'} sum_{k, k2} a[k', k] b[k', k2] h(k - k2)
    with a = coef(u), b = conj(coef(v)) (or coef(v) reversed in every axis,
    pairing mode k with -k, when conjugate is False), and the closed-form
    half-period weights h(r) = int_0^{L/2} exp(i xi_r x) dx: L/2 at r = 0,
    0 at even r and i L / (pi r) at odd r.
    """
    lat = u.lattice
    if v.lattice != lat:
        raise InvalidParameter("fields live on different lattices")
    b = np.conj(v.coef) if conjugate else np.flip(v.coef)
    k = k_axis(lat.K)
    r = k[:, None] - k[None, :]
    weights = np.zeros(r.shape, dtype=complex)
    weights[r == 0] = lat.L / 2.0
    odd = (r % 2) != 0
    weights[odd] = 1j * lat.L / (math.pi * r[odd])
    return complex(lat.L ** (lat.n - 1) * np.sum((u.coef @ weights) * b))


# ---------------------------------------------------------------------------
# Sequence norms
# ---------------------------------------------------------------------------


def seq_norm(a: Mapping[int, float], s: float = 0.0, q: float = 2.0) -> float:
    """Weighted little-lp norm (sum_j (2^{js} a_j)^q)^(1/q), sup for q = inf."""
    _check_exponent(q, "q")
    terms = [2.0 ** (j * s) * float(v) for j, v in a.items()]
    if not terms:
        return 0.0
    if math.isinf(q):
        return max(terms)
    return float(sum(t**q for t in terms) ** (1.0 / q))


# ---------------------------------------------------------------------------
# Function-space norms
# ---------------------------------------------------------------------------


def _require_admissible(u: Field, what: str) -> None:
    if not is_homogeneous_admissible(u, DC_TOL):
        raise HomogeneousDCViolation(f"{what} requires a zero-mean field")


def besov_norm(u: Field, spec: SpaceSpec) -> float:
    """Dyadic-block Besov norm, homogeneous (Bdot) or inhomogeneous (B)."""
    if spec.family not in ("B", "Bdot"):
        raise InvalidParameter(f"besov_norm got family {spec.family!r}")
    fam = get_family(u.lattice)
    entries: dict[int, float] = {}
    if spec.family == "Bdot":
        _require_admissible(u, "homogeneous Besov norm")
        for j in fam.j_range:
            entries[j] = lp_norm(delta_dot(u, j, fam), spec.p, spec.domain)
    else:
        for k in range(-1, fam.j_max + 1):
            entries[k] = lp_norm(delta_inhom(u, k, fam), spec.p, spec.domain)
    return seq_norm(entries, spec.s, spec.q)


def sobolev_norm(u: Field, spec: SpaceSpec) -> float:
    """Potential-norm Sobolev: Riesz (Hdot) or Bessel (H) multiplier then L^p."""
    if spec.family not in ("H", "Hdot"):
        raise InvalidParameter(f"sobolev_norm got family {spec.family!r}")
    if spec.family == "Hdot":
        _require_admissible(u, "homogeneous Sobolev norm")
        potential = fractional_laplacian(u, spec.s)
    else:
        potential = bessel_potential(u, spec.s)
    return lp_norm(potential, spec.p, spec.domain)


def triebel_norm(u: Field, s: float, p: float, domain: str = "whole",
                 M: int | None = None) -> float:
    """Square-function norm: pointwise l2 over scales of 2^{js} blocks, then L^p.

    The default grid is lp_norm's: exact_grid of u's occupied band for even
    integer p on the whole torus, where g^p has band pK' and the rule is
    exact, and exact_grid of u's lattice otherwise; each block is sampled
    from its own band.  On the strip at p = 2 the same rectangle rule is
    summed block by block, sqrt(sum_j 4^{js} lp_norm(block_j)^2), so no grid
    is sampled.
    """
    _check_exponent(p, "p")
    _require_admissible(u, "square-function norm")
    lat = u.lattice
    fam = get_family(lat)
    whole = domain != "halfspace"
    if M is None and not whole and p == 2.0:
        return math.sqrt(sum(4.0 ** (j * s) * lp_norm(delta_dot(u, j, fam), 2.0, domain) ** 2
                             for j in fam.j_range))
    M = M or _own_grid(u, p, whole)[1]
    agg = None
    for j in fam.j_range:
        vals = sample_grid(occupied(delta_dot(u, j, fam)), M).values
        term = 4.0 ** (j * s) * np.abs(vals) ** 2
        agg = term if agg is None else agg + term
    g = np.sqrt(agg)
    if not whole:
        g = g[..., : M // 2]
    if math.isinf(p):
        return float(g.max())
    weight = (lat.L / M) ** lat.n
    return float((weight * np.sum(g**p)) ** (1.0 / p))


def triebel_fubini_l2(u: Field, s: float) -> float:
    """Exchange-of-sums form of the p = 2 square-function norm."""
    fam = get_family(u.lattice)
    total = 0.0
    for j in fam.j_range:
        total += 4.0 ** (j * s) * lp_norm(delta_dot(u, j, fam), 2.0) ** 2
    return math.sqrt(total)


def _mode_pair(u: Field, v: Field) -> complex:
    """Bilinear torus integral of two band-limited fields: L^n sum c_k(u) c_{-k}(v)."""
    flipped = np.flip(v.coef)
    return complex(u.lattice.L ** u.lattice.n * np.sum(u.coef * flipped))


def pairing(u: Field, v: Field, domain: str = "whole") -> complex:
    """Bilinear duality pairing via near-diagonal frequency blocks.

    On the whole torus this equals the integral of u * v for zero-mean
    fields; on the half-space domain it is the exact strip integral of
    the product.
    """
    if u.lattice != v.lattice:
        raise InvalidParameter("fields live on different lattices")
    if domain == "halfspace":
        return halfspace_product_integral(u, v, conjugate=False)
    _require_admissible(u, "duality pairing")
    _require_admissible(v, "duality pairing")
    fam = get_family(u.lattice)
    ublocks = {j: delta_dot(u, j, fam) for j in fam.j_range}
    vblocks = {j: delta_dot(v, j, fam) for j in fam.j_range}
    total = 0.0 + 0.0j
    for j in fam.j_range:
        for jj in (j - 1, j, j + 1):
            if jj in vblocks:
                total += _mode_pair(ublocks[j], vblocks[jj])
    return total


def space_norm(u: Field, spec: SpaceSpec) -> float:
    """Dispatch on the space family."""
    if spec.family == "Lp":
        return lp_norm(u, spec.p, spec.domain)
    if spec.family in ("H", "Hdot"):
        return sobolev_norm(u, spec)
    if spec.family in ("B", "Bdot"):
        return besov_norm(u, spec)
    if spec.family == "Fdot":
        return triebel_norm(u, spec.s, spec.p, spec.domain)
    raise InvalidParameter(f"unknown family {spec.family!r}")


def norm_ignoring_mean(u: Field, spec: SpaceSpec) -> float:
    """space_norm of u modulo constants for the homogeneous families.

    Their norms do not see the zero mode, so it is removed rather than
    refused; every other family sees u as it is.
    """
    if spec.family in HOMOGENEOUS:
        u = without_mean(u)
    return space_norm(u, spec)
